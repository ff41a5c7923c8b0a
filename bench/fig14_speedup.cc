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

#include "baseline/engine.h"
#include "bench_util.h"
#include "lightrw/cycle_engine.h"

namespace lightrw::bench {
namespace {

// A CPU cell times host code, so one slow run would set it: each is the
// median of this many runs. The LightRW cell is simulated and
// deterministic, so it runs once.
constexpr size_t kCpuRuns = 5;

double RunCpu(const graph::CsrGraph& g, const apps::WalkApp& app,
              std::span<const apps::WalkQuery> queries,
              sampling::SamplerKind sampler) {
  baseline::BaselineConfig config;
  config.sampler = sampler;
  std::array<double, kCpuRuns> rates;
  for (double& rate : rates) {
    baseline::BaselineEngine engine(&g, &app, config);
    rate = engine.Run(queries).StepsPerSecond();
  }
  std::nth_element(rates.begin(), rates.begin() + kCpuRuns / 2, rates.end());
  return rates[kCpuRuns / 2];
}

double RunAccel(const graph::CsrGraph& g, const apps::WalkApp& app,
                std::span<const apps::WalkQuery> queries) {
  core::CycleEngine engine(&g, &app, DefaultAccelConfig());
  return engine.Run(queries).StepsPerSecond();
}

int Main() {
  // The BENCH json keeps raw steps/s; the text table shows Msteps/s.
  Table table(
      "Fig. 14: LightRW vs ThunderRW speedup (paper: 6.27-9.55x MetaPath, "
      "5.17-9.10x Node2Vec)",
      {{"dataset", "dataset", 10},
       {"app", "app", 10},
       {"cpu_steps_per_second", ""},
       {"cpu_pwrs_steps_per_second", ""},
       {"lightrw_steps_per_second", ""},
       {"", "cpu Mstep/s", 14},
       {"", "cpu+PWRS Mst/s", 16},
       {"", "LightRW Mst/s", 16},
       {"speedup", "speedup", 10, Num(2, "x")},
       {"", "PWRS effect", 12, Num(2, "x")}});
  for (const graph::Dataset dataset : graph::kAllDatasets) {
    for (const bool node2vec : {false, true}) {
      const graph::CsrGraph& g = StandIn(dataset);
      const auto app = node2vec ? MakeNode2Vec() : MakeMetaPath(g);
      const auto queries =
          StandardQueries(g, node2vec ? kNode2VecLength : kMetaPathLength);
      const double cpu = RunCpu(g, *app, queries,
                                sampling::SamplerKind::kInverseTransform);
      const double cpu_pwrs =
          RunCpu(g, *app, queries, sampling::SamplerKind::kParallelWrs);
      const double accel = RunAccel(g, *app, queries);
      table.Add({graph::GetDatasetInfo(dataset).name, app->name(), cpu,
                 cpu_pwrs, accel, cpu / 1e6, cpu_pwrs / 1e6, accel / 1e6,
                 accel / cpu, cpu_pwrs / cpu});
    }
  }

  // §3.2: replacing ITS with sequential WRS in the CPU engine costs the
  // per-edge random number generation (the paper observed 8.2x).
  const graph::CsrGraph& lj = StandIn(graph::Dataset::kLiveJournal);
  const auto metapath = MakeMetaPath(lj);
  const auto queries = StandardQueries(lj, kMetaPathLength);
  const double its = RunCpu(lj, *metapath, queries,
                            sampling::SamplerKind::kInverseTransform);
  const double wrs =
      RunCpu(lj, *metapath, queries, sampling::SamplerKind::kReservoir);
  char note[96];
  std::snprintf(note, sizeof(note),
                "CPU ITS over sequential WRS on LJ MetaPath: %.2fx",
                its / wrs);
  table.AddNote(note);
  return Report("fig14_speedup", {table});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
