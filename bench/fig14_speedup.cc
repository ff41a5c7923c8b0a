// Reproduces paper Fig. 14: end-to-end speedup of LightRW over the
// ThunderRW-style CPU baseline on MetaPath and Node2Vec across the five
// datasets, plus the "ThunderRW w/PWRS" variant and the §3.2 observation
// that plain WRS is a poor fit for CPUs.
//
// Paper result: LightRW wins 6.27x-9.55x on MetaPath and 5.17x-9.10x on
// Node2Vec; PWRS-on-CPU helps on some graphs (1.84x on OR) and hurts on
// others; CPU WRS is ~8.2x slower than ITS.

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "baseline/engine.h"
#include "bench_util.h"
#include "lightrw/cycle_engine.h"

namespace lightrw::bench {
namespace {

// A CPU cell times host code, so one slow run would set it. Each cell
// runs this many times, in rounds that visit every cell once, so a slow
// minute of the host reaches one run of many cells rather than every run
// of one; a cell reports the median and the range. The LightRW cell is
// simulated and deterministic, so it runs once.
constexpr size_t kCpuRuns = 5;

struct CpuCell {
  const graph::CsrGraph* graph;
  const apps::WalkApp* app;
  std::span<const apps::WalkQuery> queries;
  sampling::SamplerKind sampler;
  std::array<double, kCpuRuns> rates = {};  // steps/s; sorted once all ran
  double median() const { return rates[kCpuRuns / 2]; }
};

void RunCpuRounds(std::vector<CpuCell>* cells) {
  for (size_t round = 0; round < kCpuRuns; ++round) {
    for (CpuCell& cell : *cells) {
      baseline::BaselineConfig config;
      config.sampler = cell.sampler;
      baseline::BaselineEngine engine(cell.graph, cell.app, config);
      cell.rates[round] = engine.Run(cell.queries).StepsPerSecond();
    }
  }
  for (CpuCell& cell : *cells) {
    std::sort(cell.rates.begin(), cell.rates.end());
  }
}

double RunAccel(const graph::CsrGraph& g, const apps::WalkApp& app,
                std::span<const apps::WalkQuery> queries) {
  core::CycleEngine engine(&g, &app, DefaultAccelConfig());
  return engine.Run(queries).StepsPerSecond();
}

// One row of the figure. Row r's CPU cells are cells[2r] (ITS) and
// cells[2r + 1] (PWRS).
struct Row {
  graph::Dataset dataset;
  std::unique_ptr<apps::WalkApp> app;
  std::vector<apps::WalkQuery> queries;
};

int Main() {
  // The BENCH json keeps raw steps/s; the text table shows Msteps/s.
  Table table(
      "Fig. 14: LightRW vs ThunderRW speedup (paper: 6.27-9.55x MetaPath, "
      "5.17-9.10x Node2Vec)",
      {{"dataset", "dataset", 10},
       {"app", "app", 10},
       {"cpu_steps_per_second", ""},
       {"cpu_steps_per_second_min", ""},
       {"cpu_steps_per_second_max", ""},
       {"cpu_pwrs_steps_per_second", ""},
       {"cpu_pwrs_steps_per_second_min", ""},
       {"cpu_pwrs_steps_per_second_max", ""},
       {"lightrw_steps_per_second", ""},
       {"", "cpu Mstep/s", 14},
       {"", "cpu+PWRS Mst/s", 16},
       {"", "LightRW Mst/s", 16},
       {"speedup", "speedup", 10, Num(2, "x")},
       {"", "PWRS effect", 12, Num(2, "x")}});
  std::vector<Row> rows;
  size_t lj_metapath = 0;
  for (const graph::Dataset dataset : graph::kAllDatasets) {
    for (const bool node2vec : {false, true}) {
      const graph::CsrGraph& g = StandIn(dataset);
      if (dataset == graph::Dataset::kLiveJournal && !node2vec) {
        lj_metapath = rows.size();
      }
      const uint32_t length = node2vec ? kNode2VecLength : kMetaPathLength;
      rows.push_back({dataset, node2vec ? MakeNode2Vec() : MakeMetaPath(g),
                      StandardQueries(g, length)});
    }
  }
  std::vector<CpuCell> cells;
  for (const Row& row : rows) {
    for (const auto sampler : {sampling::SamplerKind::kInverseTransform,
                               sampling::SamplerKind::kParallelWrs}) {
      cells.push_back(
          {&StandIn(row.dataset), row.app.get(), row.queries, sampler});
    }
  }
  // §3.2: replacing ITS with sequential WRS in the CPU engine costs the
  // per-edge random number generation (the paper observed 8.2x). One
  // more cell runs LJ MetaPath with sequential WRS.
  const size_t lj_its = 2 * lj_metapath;
  cells.push_back(cells[lj_its]);
  cells.back().sampler = sampling::SamplerKind::kReservoir;
  RunCpuRounds(&cells);

  for (size_t r = 0; r < rows.size(); ++r) {
    const Row& row = rows[r];
    const CpuCell& its = cells[2 * r];
    const CpuCell& pwrs = cells[2 * r + 1];
    const double cpu = its.median();
    const double cpu_pwrs = pwrs.median();
    const double accel = RunAccel(StandIn(row.dataset), *row.app, row.queries);
    table.Add({graph::GetDatasetInfo(row.dataset).name, row.app->name(), cpu,
               its.rates.front(), its.rates.back(), cpu_pwrs,
               pwrs.rates.front(), pwrs.rates.back(), accel, cpu / 1e6,
               cpu_pwrs / 1e6, accel / 1e6, accel / cpu, cpu_pwrs / cpu});
  }
  char note[96];
  std::snprintf(note, sizeof(note),
                "CPU ITS over sequential WRS on LJ MetaPath: %.2fx",
                cells[lj_its].median() / cells.back().median());
  table.AddNote(note);
  return Report("fig14_speedup", {table});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
