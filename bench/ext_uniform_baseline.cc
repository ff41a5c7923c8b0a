// Extension experiment (paper §7 related work): a Su et al. (FPL'21)-style
// uniform-sampling accelerator vs LightRW. Uniform static walks need only
// one neighbor fetch per step, so the specialized engine wins on that
// special case — but it cannot express weighted or dynamic walks at all,
// which is the generality LightRW trades some uniform-walk speed for.

#include <benchmark/benchmark.h>

#include "apps/walk_app.h"
#include "bench_util.h"
#include "lightrw/cycle_engine.h"
#include "lightrw/uniform_engine.h"

namespace lightrw::bench {
namespace {

struct Row {
  std::string dataset;
  core::AccelRunStats uniform;
  core::AccelRunStats lightrw;
};

double MSteps(const core::AccelRunStats& stats) {
  return stats.StepsPerSecond() / 1e6;
}

double BytesPerStep(const core::AccelRunStats& stats) {
  return static_cast<double>(stats.dram.bytes) / stats.steps;
}

obs::Json EngineJson(const core::AccelRunStats& stats) {
  obs::Json j = obs::Json::MakeObject();
  j.Set("cycles", stats.cycles);
  j.Set("steps", stats.steps);
  j.Set("dram_bytes", stats.dram.bytes);
  return j;
}

std::vector<Row>& Rows() {
  static auto* rows = new std::vector<Row>();
  return *rows;
}

void UniformBench(benchmark::State& state, graph::Dataset dataset) {
  const graph::CsrGraph& g = StandIn(dataset);
  apps::StaticWalkApp app;  // first-order walk; weights all >= 1
  const auto queries = StandardQueries(g, /*length=*/20);
  const core::AcceleratorConfig config = DefaultAccelConfig();

  Row row;
  row.dataset = graph::GetDatasetInfo(dataset).name;
  for (auto _ : state) {
    row.uniform = core::UniformCycleEngine(&g, config).Run(queries);
    row.lightrw = core::CycleEngine(&g, &app, config).Run(queries);
  }
  state.counters["uniform_Msteps"] = MSteps(row.uniform);
  state.counters["lightrw_Msteps"] = MSteps(row.lightrw);
  Rows().push_back(row);
}

void RegisterAll() {
  for (const graph::Dataset d : graph::kAllDatasets) {
    benchmark::RegisterBenchmark(
        (std::string("ExtUniform/") + graph::GetDatasetInfo(d).name).c_str(),
        [d](benchmark::State& s) { UniformBench(s, d); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

void PrintSummary() {
  PrintReportHeader(
      "Extension: specialized uniform-walk accelerator (Su et al. style) "
      "vs LightRW on uniform static walks — the generality/speed tradeoff "
      "of paper §7");
  const std::vector<int> widths = {10, 16, 16, 14, 14};
  PrintRow({"dataset", "uniform Mst/s", "LightRW Mst/s", "uni B/step",
            "lrw B/step"},
           widths);
  for (const Row& row : Rows()) {
    PrintRow({row.dataset, FormatDouble(MSteps(row.uniform)),
              FormatDouble(MSteps(row.lightrw)),
              FormatDouble(BytesPerStep(row.uniform), 0),
              FormatDouble(BytesPerStep(row.lightrw), 0)},
             widths);
  }

  obs::Json rows = obs::Json::MakeArray();
  for (const Row& row : Rows()) {
    obs::Json r = obs::Json::MakeObject();
    r.Set("dataset", row.dataset);
    r.Set("uniform", EngineJson(row.uniform));
    r.Set("lightrw", EngineJson(row.lightrw));
    rows.Append(std::move(r));
  }
  WriteBenchJson("ext_uniform_baseline", std::move(rows));
}

}  // namespace
}  // namespace lightrw::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  lightrw::bench::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  lightrw::bench::PrintSummary();
  benchmark::Shutdown();
  return 0;
}
