// Reproduces paper Fig. 18 (the §6.7 case study): execution-time breakdown
// of the link-prediction pipeline (Node2Vec walks -> skip-gram embedding
// training -> cosine-similarity prediction) with CPU-only walks vs
// LightRW-accelerated walks.
//
// Paper result: the walk dominates end-to-end time; accelerating it with
// LightRW roughly halves the total, and the extra PCIe copies are
// negligible.

#include <algorithm>
#include <cstdio>

#include "analytics/embedding.h"
#include "analytics/link_prediction.h"
#include "baseline/engine.h"
#include "bench_util.h"
#include "common/timer.h"
#include "lightrw/cycle_engine.h"
#include "lightrw/platform_models.h"

namespace lightrw::bench {
namespace {

int Main() {
  Table table(
      "Fig. 18: link prediction time breakdown on LJ "
      "(paper: walk dominates; LightRW halves the end-to-end time)",
      {{"system", "system", 16},
       {"walk_s", "walk s", 10, Num(3)},
       {"pcie_s", "pcie s", 10, Num(3)},
       {"train_s", "train s", 10, Num(3)},
       {"predict_s", "predict s", 12, Num(3)},
       {"total_s", "total s", 10, Num(3)},
       {"auc", "AUC", 8, Num(3)}});
  // A smaller LJ stand-in: the embedding training must stay proportionate.
  const graph::CsrGraph g = graph::MakeDatasetStandIn(
      graph::Dataset::kLiveJournal, std::max(ScaleShift() + 2, 9u),
      kBenchSeed);
  const auto app = MakeNode2Vec();
  const auto queries = apps::MakeVertexQueries(g, /*length=*/40, kBenchSeed);

  double totals[2] = {};
  for (const bool accelerated : {false, true}) {
    baseline::WalkOutput corpus;
    double walk_s = 0.0;
    double pcie_s = 0.0;
    if (accelerated) {
      const core::AcceleratorConfig config = DefaultAccelConfig();
      core::CycleEngine engine(&g, app.get(), config);
      walk_s = engine.Run(queries, &corpus).seconds;
      core::PcieModel pcie;
      pcie_s = pcie.TransferSeconds(
          pcie.RunBytes(g, config.num_instances, queries.size(), 40));
    } else {
      baseline::BaselineEngine engine(&g, app.get(),
                                      baseline::BaselineConfig{});
      walk_s = engine.Run(queries, &corpus).seconds;
    }

    WallTimer train_timer;
    analytics::EmbeddingConfig embed_config;
    embed_config.epochs = 1;
    embed_config.dimensions = 32;
    const auto embedding =
        analytics::TrainEmbedding(corpus, g.num_vertices(), embed_config);
    const double train_s = train_timer.ElapsedSeconds();

    WallTimer predict_timer;
    const auto result =
        analytics::EvaluateLinkPrediction(g, embedding, 512, kBenchSeed);
    const double predict_s = predict_timer.ElapsedSeconds();

    const double total_s = walk_s + pcie_s + train_s + predict_s;
    totals[accelerated] = total_s;
    table.Add({accelerated ? "SNAP w/LightRW" : "SNAP", walk_s, pcie_s,
               train_s, predict_s, total_s, result.auc});
  }
  char note[64];
  std::snprintf(note, sizeof(note), "end-to-end speedup: %.2fx",
                totals[0] / totals[1]);
  table.AddNote(note);
  return Report("fig18_link_prediction", {table});
}

}  // namespace
}  // namespace lightrw::bench

int main() { return lightrw::bench::Main(); }
