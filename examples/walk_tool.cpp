// Command-line walk driver: load or generate a graph, run any of the
// supported walk applications on the chosen engine, and write the
// selected exports.
//
//   ./examples/walk_tool --help
//   ./examples/walk_tool --graph edges.txt --app node2vec --length 40
//       --queries 10000 --engine lightrw --exports corpus  (one line)
//
// --exports is a comma list of the files to write, each under a fixed
// name in --out-dir (default: the working directory; it must exist):
//   corpus      corpus.txt       the walks, one per line
//   metrics     metrics.json     metrics snapshot, also as Prometheus
//               metrics.prom     text
//   trace       trace.json       Chrome trace of the simulated pipeline
//   spans       spans.json       per-query spans, critical-path
//                                attribution, burn-rate alerts and the
//                                membership log
//   timeseries  timeseries.json  windowed series, exemplars and
//               timeseries.om    incidents, also as OpenMetrics text
//   perf        perf.json        wall-clock PERF report of the run
// A chaos campaign writes `chaos` (chaos.json, the campaign report) and
// `spans` (spans.json, scenario 0's span document) instead.
//
// Fault injection (--fault-*) drives the reliability subsystem: DRAM ECC
// errors on any simulated engine, plus link faults and board deaths
// (single or cascading, with hot spares via --spare-boards) on
// --engine distributed|service. --chaos-scenarios N runs the seeded
// chaos campaign instead of a single workload.
//
// Exit codes: 0 success; 1 usage/configuration/IO error (or a failed
// chaos scenario); 2 SLO breach (engine=service); 3 partial data (the
// run completed but lost walks to injected faults).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analytics/corpus_io.h"
#include "apps/ppr.h"
#include "apps/walk_app.h"
#include "baseline/engine.h"
#include "common/flags.h"
#include "common/sim_thread_pool.h"
#include "common/timer.h"
#include "distributed/dist_engine.h"
#include "distributed/partition.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "lightrw/config_validation.h"
#include "lightrw/cycle_engine.h"
#include "lightrw/report.h"
#include "lightrw/functional_engine.h"
#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "perf/perf_harness.h"
#include "obs/trace.h"
#include "reliability/chaos.h"
#include "reliability/fault_injector.h"
#include "reliability/membership.h"
#include "service/walk_service.h"

namespace {

using namespace lightrw;

// Builds the --app named `name` on `g`; nullptr (with a one-line stderr
// reason) for an unknown name or parameters the app cannot take.
std::unique_ptr<apps::WalkApp> MakeApp(const std::string& name,
                                       const graph::CsrGraph& g,
                                       const FlagParser& flags) {
  if (name == "node2vec") {
    const double p = flags.GetDouble("p");
    const double q = flags.GetDouble("q");
    const Status valid = apps::Node2VecApp::Validate(p, q, g);
    if (!valid.ok()) {
      std::fprintf(stderr, "%s\n", valid.ToString().c_str());
      return nullptr;
    }
    return std::make_unique<apps::Node2VecApp>(p, q);
  }
  if (name == "metapath") {
    return std::make_unique<apps::MetaPathApp>(apps::MakeRandomRelationPath(
        g, static_cast<uint32_t>(flags.GetInt("length")),
        flags.GetInt("seed")));
  }
  if (name == "ppr") {
    const double alpha = flags.GetDouble("alpha");
    if (!(alpha > 0.0 && alpha < 1.0)) {
      std::fprintf(stderr, "--alpha must be in (0, 1), got %g\n", alpha);
      return nullptr;
    }
    return std::make_unique<apps::PprApp>(alpha);
  }
  if (name == "deepwalk") {
    return std::make_unique<apps::StaticWalkApp>();
  }
  std::fprintf(stderr,
               "unknown app '%s' (expected deepwalk|node2vec|metapath|ppr)\n",
               name.c_str());
  return nullptr;
}

// Maps a --partition flag value; false (with a one-line stderr reason)
// for an unknown name.
bool ParseStrategy(const std::string& name,
                   distributed::PartitionStrategy* out) {
  if (name == "hash") {
    *out = distributed::PartitionStrategy::kHash;
  } else if (name == "range") {
    *out = distributed::PartitionStrategy::kRange;
  } else if (name == "greedy") {
    *out = distributed::PartitionStrategy::kGreedy;
  } else {
    std::fprintf(stderr,
                 "unknown partition strategy '%s' (expected "
                 "hash|range|greedy)\n",
                 name.c_str());
    return false;
  }
  return true;
}

// The items of a comma-separated list ("" = none).
std::vector<std::string> SplitList(const std::string& text) {
  std::vector<std::string> items;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find(',', pos);
    if (end == std::string::npos) {
      end = text.size();
    }
    items.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  return items;
}

// Parses a comma-separated list of integers in [0, max] ("" = empty).
// False (with a one-line stderr reason) on malformed input. Items are
// at most 19 digits, which std::stoull converts without overflow.
bool ParseUintList(const std::string& flag, const std::string& text,
                   uint64_t max, std::vector<uint64_t>* out) {
  out->clear();
  for (const std::string& item : SplitList(text)) {
    if (item.empty() || item.size() > 19 ||
        item.find_first_not_of("0123456789") != std::string::npos ||
        std::stoull(item) > max) {
      std::fprintf(stderr, "--%s: '%s' is not an integer in [0, %llu]\n",
                   flag.c_str(), item.c_str(),
                   static_cast<unsigned long long>(max));
      return false;
    }
    out->push_back(std::stoull(item));
  }
  return true;
}

// The exports --exports can name in a single run and in a chaos campaign.
constexpr const char* kRunExports =
    "corpus,metrics,trace,spans,timeseries,perf";
constexpr const char* kChaosExports = "chaos,spans";

// Parses the --exports list; false (with a one-line stderr reason) for a
// name that is not in the `offered` list.
bool ParseExports(const std::string& text, const std::string& offered,
                  std::set<std::string>* selected) {
  const std::vector<std::string> names = SplitList(offered);
  for (const std::string& name : SplitList(text)) {
    if (std::find(names.begin(), names.end(), name) == names.end()) {
      std::fprintf(stderr, "--exports: '%s' is not one of %s\n", name.c_str(),
                   offered.c_str());
      return false;
    }
    selected->insert(name);
  }
  return true;
}

// One file an export writes: the export's name, the file's fixed name
// under --out-dir, and how to write it to a path.
struct ExportFile {
  const char* export_name;
  const char* file;
  std::function<Status(const std::string& path)> write;
};

// Writes the text `render()` returns, rendered only when it is written.
std::function<Status(const std::string&)> TextWriter(
    std::function<std::string()> render) {
  return [render = std::move(render)](const std::string& path) {
    return obs::WriteTextFile(render(), path);
  };
}

// The one write path of every output file: writes, in order, each of
// `files` whose export is `selected`. False, with a one-line stderr
// reason, at the first file that fails.
bool WriteExports(const std::string& dir,
                  const std::set<std::string>& selected,
                  const std::vector<ExportFile>& files) {
  for (const ExportFile& file : files) {
    if (!selected.contains(file.export_name)) {
      continue;
    }
    const std::string path =
        (std::filesystem::path(dir) / file.file).string();
    const Status written = file.write(path);
    if (!written.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n", path.c_str(),
                   written.ToString().c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return true;
}

// Fault schedule from the --fault-* and --ckpt-* flags. A nonzero fault
// rate, a death schedule or --ckpt-store enables the subsystem;
// otherwise it stays fully disabled and the run is bit-identical to one
// without it. False on malformed death lists.
bool FaultsFromFlags(const FlagParser& flags,
                     reliability::FaultConfig* faults) {
  faults->seed = static_cast<uint64_t>(flags.GetInt("fault-seed"));
  faults->dram_correctable_rate = flags.GetDouble("fault-dram-correctable");
  faults->dram_uncorrectable_rate =
      flags.GetDouble("fault-dram-uncorrectable");
  faults->link_drop_rate = flags.GetDouble("fault-link-drop");
  faults->link_corrupt_rate = flags.GetDouble("fault-link-corrupt");
  faults->checkpoint_interval_cycles =
      static_cast<uint64_t>(flags.GetInt("fault-checkpoint-interval"));
  faults->allow_walker_loss = flags.GetBool("fault-allow-walker-loss");
  // Cascading deaths: paired comma lists of cycles and board ids.
  std::vector<uint64_t> cycles, boards;
  if (!ParseUintList("fault-fail-cycles",
                     flags.GetString("fault-fail-cycles"), INT64_MAX,
                     &cycles) ||
      !ParseUintList("fault-fail-boards",
                     flags.GetString("fault-fail-boards"), UINT32_MAX,
                     &boards)) {
    return false;
  }
  if (cycles.size() != boards.size()) {
    std::fprintf(stderr,
                 "--fault-fail-cycles and --fault-fail-boards must have "
                 "the same number of entries (got %zu and %zu)\n",
                 cycles.size(), boards.size());
    return false;
  }
  for (size_t i = 0; i < cycles.size(); ++i) {
    faults->board_deaths.push_back(
        {cycles[i], static_cast<uint32_t>(boards[i])});
  }
  // Durable checkpoint store (--ckpt-*): integrity-checked checkpoint
  // persistence with injected storage faults.
  reliability::CkptStoreConfig& store = faults->ckpt_store;
  store.enabled = flags.GetBool("ckpt-store");
  store.generations_kept =
      static_cast<uint32_t>(flags.GetInt("ckpt-generations"));
  store.num_replicas = static_cast<uint32_t>(flags.GetInt("ckpt-replicas"));
  store.write_latency_cycles =
      static_cast<uint32_t>(flags.GetInt("ckpt-write-latency"));
  store.read_latency_cycles =
      static_cast<uint32_t>(flags.GetInt("ckpt-read-latency"));
  store.torn_write_rate = flags.GetDouble("ckpt-torn-rate");
  store.bit_rot_per_byte = flags.GetDouble("ckpt-bit-rot");
  store.stale_publish_rate = flags.GetDouble("ckpt-stale-rate");
  store.scrub_interval_cycles =
      static_cast<uint64_t>(flags.GetInt("ckpt-scrub-interval"));
  store.scrub_bytes_per_cycle = flags.GetDouble("ckpt-scrub-bytes");
  faults->enabled =
      faults->dram_correctable_rate != 0.0 ||
      faults->dram_uncorrectable_rate != 0.0 ||
      faults->link_drop_rate != 0.0 || faults->link_corrupt_rate != 0.0 ||
      !faults->board_deaths.empty() || store.enabled;
  return true;
}

void PrintReliabilitySummary(const reliability::ReliabilityStats& rel) {
  if (!rel.Any()) {
    return;
  }
  std::printf(
      "reliability: %llu fault(s) injected (%llu ecc, %llu link, %llu "
      "board), %llu retransmission(s), %llu recovered, %llu lost, %llu "
      "walk(s) failed\n",
      static_cast<unsigned long long>(rel.FaultsInjected()),
      static_cast<unsigned long long>(rel.dram_correctable +
                                      rel.dram_uncorrectable),
      static_cast<unsigned long long>(rel.link_dropped + rel.link_corrupted),
      static_cast<unsigned long long>(rel.board_failures),
      static_cast<unsigned long long>(rel.retransmissions),
      static_cast<unsigned long long>(rel.walkers_recovered),
      static_cast<unsigned long long>(rel.walkers_lost),
      static_cast<unsigned long long>(rel.walks_failed));
  if (rel.spares_activated > 0 || rel.spare_exhaustions > 0) {
    std::printf(
        "self-healing: %llu spare(s) activated, %llu rebuild(s) completed "
        "(%llu aborted, %llu cycle(s) total), %llu spare exhaustion(s)\n",
        static_cast<unsigned long long>(rel.spares_activated),
        static_cast<unsigned long long>(rel.rebuilds_completed),
        static_cast<unsigned long long>(rel.rebuilds_aborted),
        static_cast<unsigned long long>(rel.rebuild_cycles),
        static_cast<unsigned long long>(rel.spare_exhaustions));
  }
  if (rel.ckpt_store_writes > 0 || rel.ckpt_crc_failures > 0) {
    std::printf(
        "durable store: %llu write(s), %llu read(s), %llu crc failure(s), "
        "%llu fallback(s), %llu unrecoverable, %llu scrub repair(s) "
        "(%llu torn, %llu rotten, %llu detected, %llu latent, %llu "
        "silent)\n",
        static_cast<unsigned long long>(rel.ckpt_store_writes),
        static_cast<unsigned long long>(rel.ckpt_store_reads),
        static_cast<unsigned long long>(rel.ckpt_crc_failures),
        static_cast<unsigned long long>(rel.ckpt_fallbacks),
        static_cast<unsigned long long>(rel.ckpt_unrecoverable),
        static_cast<unsigned long long>(rel.ckpt_scrub_repairs),
        static_cast<unsigned long long>(rel.ckpt_torn_writes),
        static_cast<unsigned long long>(rel.ckpt_bit_rot),
        static_cast<unsigned long long>(rel.ckpt_corrupt_detected),
        static_cast<unsigned long long>(rel.ckpt_latent_corrupt),
        static_cast<unsigned long long>(rel.ckpt_silent_accepts));
  }
}

// Exit 3 ("partial data") when the run completed but lost walk data to
// injected faults — distinct from exit 1 (the tool failed to run) so
// callers can keep the partial corpus knowingly.
int ReliabilityExitCode(const reliability::ReliabilityStats& rel) {
  const Status status = reliability::ReliabilityStatus(rel);
  if (!status.ok()) {
    std::fprintf(stderr, "partial data: %s\n", status.ToString().c_str());
    return 3;
  }
  return 0;
}

// One-repeat PERF report of a finished run: the body replays its
// counters while the FakeClock replays the measured wall time, so the
// report goes through the exact aggregation and schema path the CI perf
// gate consumes.
std::string PerfReportText(const std::string& engine,
                           const perf::WorkCounters& counters,
                           double elapsed_seconds) {
  perf::FakeClock clock({0, static_cast<uint64_t>(elapsed_seconds * 1e9)});
  perf::RepeatConfig repeat_config;
  repeat_config.warmup = 0;
  repeat_config.repeats = 1;
  const perf::WorkloadResult measured = perf::MeasureWorkload(
      engine, repeat_config, &clock, [&counters]() { return counters; });
  return perf::PerfReport("walk_tool", {measured}).Dump(2) + "\n";
}

}  // namespace

int main(int argc, char** argv) {
  constexpr int64_t kMaxU32 = UINT32_MAX;
  FlagParser flags;
  flags.Define("graph", "edge list file to load (empty: generate rmat)", "");
  flags.DefineBool("undirected", "treat the edge list as undirected", false);
  flags.DefineInt("rmat_scale", "generated graph scale (2^scale vertices)", 14,
                  1, 28);
  flags.Define("app", "walk app: deepwalk|node2vec|metapath|ppr",
               "node2vec");
  flags.Define("engine",
               "walk engine: cpu|lightrw|lightrw-sim|distributed|service",
               "lightrw");
  flags.DefineInt("length", "walk length (steps)", 40, 1, kMaxU32);
  flags.DefineInt("queries", "number of queries (0 = one per vertex)", 0, 0,
                  kMaxU32);
  flags.DefineDouble("p", "node2vec return parameter", 2.0);
  flags.DefineDouble("q", "node2vec in-out parameter", 0.5);
  flags.DefineDouble("alpha", "ppr stop probability", 0.15);
  flags.DefineInt("seed", "random seed", 42, 0, INT64_MAX);
  flags.DefineBool("report", "print the full accelerator run report", false);
  flags.Define("out-dir",
               "existing directory the selected exports are written to", ".");
  flags.Define("exports",
               "comma list of files to write under --out-dir: "
               "corpus,metrics,trace,spans,timeseries,perf (a chaos "
               "campaign: chaos,spans); see the walk_tool header",
               "");
  flags.Define("span-mode",
               "span retention: all|breached (breached = flight recorder: "
               "keep spans only for deadline-missed/shed/failed queries)",
               "all");
  flags.DefineInt("scrape-interval",
                  "simulated-cycle width of one telemetry scrape window", 4096,
                  1, INT64_MAX);
  flags.DefineInt("boards", "simulated boards (engine=distributed|service)", 4,
                  1, 1024);
  flags.DefineInt("threads",
                  "host worker threads for sharded simulation (0 = "
                  "LIGHTRW_SIM_THREADS env, else 1); results are "
                  "bit-identical for every value",
                  0, 0, SimThreadPool::kMaxThreads);
  flags.DefineInt("service-shards",
                  "independent admission shards (engine=service; must "
                  "divide --boards evenly; > 1 requires --replicate)",
                  1, 1, 1024);
  flags.Define("partition",
               "graph partitioning strategy: hash|range|greedy "
               "(engine=distributed|service)",
               "greedy");
  flags.DefineBool("replicate",
                   "replicate the full graph on every board "
                   "(engine=distributed|service)",
                   false);
  flags.DefineDouble("service-rate",
                     "offered arrival rate in queries per 1024 simulated "
                     "cycles (engine=service)",
                     1.0);
  flags.DefineInt("service-deadline",
                  "per-query deadline in simulated cycles after arrival "
                  "(0 = none; engine=service)",
                  0, 0, INT64_MAX);
  flags.DefineInt("service-queue-cap",
                  "bounded admission queue capacity per board "
                  "(engine=service)",
                  64, 0, 1 << 16);
  flags.DefineInt("service-retries",
                  "re-admissions allowed per bounced or failed query "
                  "(engine=service)",
                  2, 0, kMaxU32);
  flags.DefineBool("service-degrade",
                   "degrade best-effort queries under congestion "
                   "(engine=service)",
                   true);
  flags.DefineDouble("service-best-effort",
                     "fraction of queries eligible for degradation "
                     "(engine=service)",
                     1.0);
  flags.DefineDouble("service-burst",
                     "arrival rate multiplier during bursts "
                     "(engine=service)",
                     1.0);
  flags.DefineInt("service-burst-on",
                  "burst phase length in cycles (0 = steady arrivals; "
                  "engine=service)",
                  0, 0, INT64_MAX);
  flags.DefineInt("service-burst-off",
                  "inter-burst gap length in cycles (engine=service)", 0, 0,
                  INT64_MAX);
  flags.DefineDouble("slo-max-shed",
                     "exit 2 if the shed rate exceeds this fraction "
                     "(engine=service)",
                     1.0);
  flags.DefineDouble("slo-max-violation",
                     "exit 2 if the deadline violation rate exceeds this "
                     "fraction (engine=service)",
                     1.0);
  flags.DefineInt("fault-seed", "fault schedule seed", 1, 0, INT64_MAX);
  flags.DefineDouble("fault-dram-correctable",
                     "correctable ECC error probability per DRAM access",
                     0.0);
  flags.DefineDouble("fault-dram-uncorrectable",
                     "uncorrectable ECC error probability per DRAM access",
                     0.0);
  flags.DefineDouble("fault-link-drop",
                     "message drop probability per link send", 0.0);
  flags.DefineDouble("fault-link-corrupt",
                     "message corruption probability per link send", 0.0);
  flags.DefineInt("fault-checkpoint-interval",
                  "walker checkpoint cadence in cycles (0 = no "
                  "checkpoints: recovering walkers lose their walk)",
                  65536, 0, INT64_MAX);
  flags.Define("fault-fail-cycles",
               "comma-separated board-death cycles (paired with "
               "--fault-fail-boards) for cascading failures",
               "");
  flags.Define("fault-fail-boards",
               "comma-separated boards to kill (paired with "
               "--fault-fail-cycles; ids past --boards name hot spares)",
               "");
  flags.DefineBool("fault-allow-walker-loss",
                   "opt in to walk loss from a scheduled board death "
                   "with --fault-checkpoint-interval 0",
                   false);
  flags.DefineBool("ckpt-store",
                   "persist walker checkpoints in the durable store "
                   "(CRC-sealed generations, scrubbing; lifts the "
                   "all-owner-death restriction when spares exist)",
                   false);
  flags.DefineInt("ckpt-generations",
                  "checkpoint generations retained per walker", 3, 0, kMaxU32);
  flags.DefineInt("ckpt-replicas", "replicas per checkpoint record", 2, 0,
                  kMaxU32);
  flags.DefineInt("ckpt-write-latency", "modeled store write latency in cycles",
                  256, 0, kMaxU32);
  flags.DefineInt("ckpt-read-latency",
                  "modeled store read latency in cycles per record "
                  "examined",
                  512, 0, kMaxU32);
  flags.DefineDouble("ckpt-torn-rate",
                     "torn-write probability per staged replica write",
                     0.0);
  flags.DefineDouble("ckpt-bit-rot",
                     "bit-rot probability per stored byte per replica "
                     "write",
                     0.0);
  flags.DefineDouble("ckpt-stale-rate",
                     "stale-publish probability per checkpoint write",
                     0.0);
  flags.DefineInt("ckpt-scrub-interval",
                  "background scrub cadence in cycles (0 = no scrubbing)",
                  16384, 0, INT64_MAX);
  flags.DefineDouble("ckpt-scrub-bytes",
                     "scrub bandwidth budget in bytes per cycle", 64.0);
  flags.DefineInt("spare-boards",
                  "hot spare boards that rebuild a dead board's "
                  "partition share and take over its identity "
                  "(engine=distributed|service)",
                  0, 0, 256);
  flags.DefineDouble("rebuild-bytes-per-cycle",
                     "partition-rebuild bandwidth in bytes per simulated "
                     "cycle",
                     32.0);
  flags.DefineInt("chaos-scenarios",
                  "run the seeded chaos campaign with this many "
                  "scenarios instead of a single workload (0 = off)",
                  0, 0, 4096);
  flags.DefineInt("chaos-seed", "chaos campaign seed", 1, 0, INT64_MAX);
  flags.DefineInt("chaos-spares",
                  "max hot spares a chaos scenario may configure", 2, 0, 256);
  flags.DefineBool("help", "print usage", false);

  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.HelpText().c_str());
    return 1;
  }
  if (flags.GetBool("help")) {
    std::printf("lightrw walk tool\n%s", flags.HelpText().c_str());
    return 0;
  }

  // Everything a run writes is chosen and checked before it starts.
  const bool chaos_mode = flags.GetInt("chaos-scenarios") > 0;
  std::set<std::string> exports;
  if (!ParseExports(flags.GetString("exports"),
                    chaos_mode ? kChaosExports : kRunExports, &exports)) {
    return 1;
  }
  const std::string out_dir = flags.GetString("out-dir");
  if (!std::filesystem::is_directory(out_dir)) {
    std::fprintf(stderr, "--out-dir '%s' is not an existing directory\n",
                 out_dir.c_str());
    return 1;
  }
  obs::SpanConfig span_config;
  const std::string span_mode = flags.GetString("span-mode");
  if (span_mode == "breached") {
    span_config.mode = obs::SpanMode::kBreached;
  } else if (span_mode != "all") {
    std::fprintf(stderr, "unknown span mode '%s' (expected all|breached)\n",
                 span_mode.c_str());
    return 1;
  }

  const auto threads = static_cast<uint32_t>(flags.GetInt("threads"));
  if (threads > 0) {
    SimThreadPool::SetDefaultThreads(threads);
  }

  // Load or generate the graph.
  graph::CsrGraph g;
  if (!flags.GetString("graph").empty()) {
    auto loaded = graph::ReadEdgeList(flags.GetString("graph"),
                                      flags.GetBool("undirected"));
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to load graph: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    g = std::move(loaded).value();
  } else {
    graph::RmatOptions options;
    options.scale = static_cast<uint32_t>(flags.GetInt("rmat_scale"));
    options.seed = flags.GetInt("seed");
    g = graph::GenerateRmat(options);
  }
  std::printf("graph: %s\n", g.Summary().c_str());

  const auto app = MakeApp(flags.GetString("app"), g, flags);
  if (app == nullptr) {
    return 1;
  }

  const auto length = static_cast<uint32_t>(flags.GetInt("length"));
  const auto num_queries = static_cast<uint32_t>(flags.GetInt("queries"));
  const auto boards = static_cast<distributed::BoardId>(flags.GetInt("boards"));

  // Chaos campaign: N seeded failure scenarios with machine-checked
  // invariants, replacing the single-workload run entirely.
  if (chaos_mode) {
    reliability::ChaosConfig chaos;
    chaos.seed = static_cast<uint64_t>(flags.GetInt("chaos-seed"));
    chaos.num_scenarios =
        static_cast<uint32_t>(flags.GetInt("chaos-scenarios"));
    chaos.num_boards = boards;
    chaos.max_spare_boards =
        static_cast<uint32_t>(flags.GetInt("chaos-spares"));
    chaos.num_queries = num_queries > 0 ? num_queries : 256;
    chaos.walk_length = length;
    const auto campaign = reliability::RunChaosCampaign(g, *app, chaos);
    if (!campaign.ok()) {
      std::fprintf(stderr, "chaos campaign failed: %s\n",
                   campaign.status().ToString().c_str());
      return 1;
    }
    for (const auto& scenario : campaign->scenarios) {
      std::printf("chaos %-40s %s\n", scenario.name.c_str(),
                  scenario.passed ? "ok" : "FAIL");
      for (const std::string& violation : scenario.violations) {
        std::printf("  violation: %s\n", violation.c_str());
      }
    }
    std::printf("chaos campaign: %zu/%zu scenario(s) passed\n",
                campaign->scenarios.size() - campaign->failures,
                campaign->scenarios.size());
    const std::vector<ExportFile> files = {
        {"chaos", "chaos.json",
         TextWriter([&] { return campaign->ToJson().Dump(2) + "\n"; })},
        {"spans", "spans.json",
         TextWriter([&] { return campaign->sampled_span_json + "\n"; })},
    };
    if (!WriteExports(out_dir, exports, files)) {
      return 1;
    }
    return campaign->Passed() ? 0 : 1;
  }

  const std::string engine = flags.GetString("engine");
  // The service engine generates its own open-loop arrival stream; every
  // other engine runs the standard closed query set.
  std::vector<apps::WalkQuery> queries;
  if (engine != "service") {
    queries = apps::MakeVertexQueries(g, length, flags.GetInt("seed"),
                                      num_queries);
    std::printf("app %s, %zu queries of length %u, engine %s\n",
                app->name().c_str(), queries.size(), length, engine.c_str());
  }

  // Observability sinks, attached only when their export is selected.
  // The trace only fills for the cycle-accurate engines (the CPU path has
  // no simulated clock to stamp events with) and spans only for the
  // cluster engines. Spans drive the critical-path analyzer and the SLO
  // burn-rate monitor after the run; the engines record their series in
  // the time-series recorder, in windows of --scrape-interval cycles.
  obs::MetricsRegistry metrics;
  obs::TraceRecorder trace;
  obs::SpanRecorder spans(span_config);
  obs::TimeSeriesConfig ts_config;
  ts_config.scrape_interval =
      static_cast<uint64_t>(flags.GetInt("scrape-interval"));
  obs::TimeSeriesRecorder timeseries(ts_config);
  const bool want_timeseries = exports.contains("timeseries");
  reliability::FaultConfig faults;
  if (!FaultsFromFlags(flags, &faults)) {
    return 1;
  }
  // The accelerator configuration every simulated engine starts from,
  // with the requested sinks attached. Engines ignore the sinks they
  // cannot fill.
  core::AcceleratorConfig accel_config;
  accel_config.seed = flags.GetInt("seed");
  accel_config.faults = faults;
  accel_config.num_threads = threads;
  accel_config.metrics = exports.contains("metrics") ? &metrics : nullptr;
  accel_config.trace = exports.contains("trace") ? &trace : nullptr;
  accel_config.spans = exports.contains("spans") ? &spans : nullptr;
  accel_config.timeseries = want_timeseries ? &timeseries : nullptr;

  WallTimer timer;
  // The cluster both board-level engines (distributed, service) run on:
  // one single-instance board per --boards, the graph split by
  // --partition unless --replicate copies it to every board.
  distributed::DistributedConfig cluster;
  cluster.board = accel_config;
  cluster.board.num_instances = 1;
  cluster.replicate_graph = flags.GetBool("replicate");
  cluster.num_spare_boards =
      static_cast<uint32_t>(flags.GetInt("spare-boards"));
  cluster.rebuild_bytes_per_cycle = flags.GetDouble("rebuild-bytes-per-cycle");
  cluster.num_threads = threads;
  std::optional<distributed::Partition> partition;
  if (engine == "distributed" || engine == "service") {
    distributed::PartitionStrategy strategy;
    if (!ParseStrategy(flags.GetString("partition"), &strategy)) {
      return 1;
    }
    partition.emplace(distributed::MakePartition(g, boards, strategy));
  }

  baseline::WalkOutput corpus;
  // Membership transitions of the run (distributed/service engines);
  // exported in the spans document so dashboards can line epochs up
  // with per-query spans.
  std::vector<reliability::MembershipTransition> membership;
  int exit_code = 0;
  uint64_t perf_sim_cycles = 0;  // simulated cycles, where the engine has them
  if (engine == "cpu") {
    baseline::BaselineConfig config;
    config.seed = flags.GetInt("seed");
    config.metrics = accel_config.metrics;
    baseline::BaselineEngine cpu(&g, app.get(), config);
    const auto stats = cpu.Run(queries, &corpus);
    std::printf("cpu engine: %llu steps in %.3fs (%.2f Msteps/s)\n",
                static_cast<unsigned long long>(stats.steps), stats.seconds,
                stats.StepsPerSecond() / 1e6);
  } else if (engine == "lightrw-sim") {
    const Status valid =
        core::ValidateConfig(accel_config, app->needs_prev_neighbors());
    if (!valid.ok()) {
      std::fprintf(stderr, "invalid configuration: %s\n",
                   valid.ToString().c_str());
      return 1;
    }
    core::CycleEngine accel(&g, app.get(), accel_config);
    const auto stats = accel.Run(queries, &corpus);
    std::printf(
        "lightrw cycle model: %llu steps, %llu cycles = %.4fs simulated "
        "(%.2f Msteps/s)\n",
        static_cast<unsigned long long>(stats.steps),
        static_cast<unsigned long long>(stats.cycles), stats.seconds,
        stats.StepsPerSecond() / 1e6);
    PrintReliabilitySummary(stats.reliability);
    perf_sim_cycles = stats.cycles;
    if (flags.GetBool("report")) {
      core::RunReportInputs report;
      report.graph = &g;
      report.config = &accel_config;
      report.stats = &stats;
      report.app_name = app->name();
      report.needs_prev_neighbors = app->needs_prev_neighbors();
      report.num_queries = queries.size();
      report.query_length = length;
      std::string timeline;
      if (want_timeseries) {
        timeline = timeseries.FormatTimelineSection();
        report.telemetry_timeline = &timeline;
      }
      std::fputs(core::FormatRunReport(report).c_str(), stdout);
    }
    exit_code = ReliabilityExitCode(stats.reliability);
  } else if (engine == "distributed") {
    distributed::DistributedEngine accel(&g, app.get(), &*partition, cluster);
    const auto result = accel.Run(queries, &corpus);
    if (!result.ok()) {
      std::fprintf(stderr, "distributed run failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const auto& stats = *result;
    std::printf(
        "distributed (%u board(s), %s): %llu steps, %llu migrations "
        "(%.1f%%), %llu cycles = %.4fs simulated (%.2f Msteps/s)\n",
        static_cast<unsigned>(boards),
        cluster.replicate_graph ? "replicated"
                                : flags.GetString("partition").c_str(),
        static_cast<unsigned long long>(stats.steps),
        static_cast<unsigned long long>(stats.migrations),
        stats.MigrationRatio() * 100.0,
        static_cast<unsigned long long>(stats.cycles), stats.seconds,
        stats.StepsPerSecond() / 1e6);
    PrintReliabilitySummary(stats.reliability);
    perf_sim_cycles = stats.cycles;
    membership = stats.membership;
    exit_code = ReliabilityExitCode(stats.reliability);
  } else if (engine == "service") {
    service::ServiceConfig config;
    config.cluster = cluster;
    config.admission_shards =
        static_cast<uint32_t>(flags.GetInt("service-shards"));
    config.arrivals.seed = static_cast<uint64_t>(flags.GetInt("seed"));
    config.arrivals.num_queries = num_queries > 0 ? num_queries : 1024;
    config.arrivals.walk_length = length;
    config.arrivals.rate_per_kcycle = flags.GetDouble("service-rate");
    config.arrivals.deadline_cycles =
        static_cast<uint64_t>(flags.GetInt("service-deadline"));
    config.arrivals.best_effort_fraction =
        flags.GetDouble("service-best-effort");
    config.arrivals.burst_factor = flags.GetDouble("service-burst");
    config.arrivals.burst_on_cycles =
        static_cast<uint64_t>(flags.GetInt("service-burst-on"));
    config.arrivals.burst_off_cycles =
        static_cast<uint64_t>(flags.GetInt("service-burst-off"));
    config.queue_capacity =
        static_cast<uint32_t>(flags.GetInt("service-queue-cap"));
    config.retry_budget =
        static_cast<uint32_t>(flags.GetInt("service-retries"));
    config.degrade_enabled = flags.GetBool("service-degrade");
    const Status valid = service::ValidateServiceConfig(config);
    if (!valid.ok()) {
      std::fprintf(stderr, "invalid service configuration: %s\n",
                   valid.ToString().c_str());
      return 1;
    }
    std::printf("app %s, %llu offered queries of length %u at %.3f/kcycle, "
                "engine service (%u board(s))\n",
                app->name().c_str(),
                static_cast<unsigned long long>(config.arrivals.num_queries),
                length, config.arrivals.rate_per_kcycle,
                static_cast<unsigned>(boards));
    service::WalkService service(&g, app.get(), &*partition, config);
    const auto result = service.Run(&corpus);
    if (!result.ok()) {
      std::fprintf(stderr, "service run failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const auto& stats = *result;
    std::printf(
        "service: %llu cycles = %.4fs simulated, %llu steps (%.2f "
        "Msteps/s)\n",
        static_cast<unsigned long long>(stats.cycles), stats.seconds,
        static_cast<unsigned long long>(stats.cluster.steps),
        stats.cluster.StepsPerSecond() / 1e6);
    std::fputs(core::FormatSloSection(stats.Slo()).c_str(), stdout);
    PrintReliabilitySummary(stats.cluster.reliability);
    perf_sim_cycles = stats.cycles;
    membership = stats.cluster.membership;
    const double max_shed = flags.GetDouble("slo-max-shed");
    const double max_violation = flags.GetDouble("slo-max-violation");
    if (stats.ShedRate() > max_shed ||
        stats.ViolationRate() > max_violation) {
      std::fprintf(stderr,
                   "slo breached: shed rate %.4f (max %.4f), deadline "
                   "violation rate %.4f (max %.4f)\n",
                   stats.ShedRate(), max_shed, stats.ViolationRate(),
                   max_violation);
      exit_code = 2;
    }
  } else if (engine == "lightrw") {
    core::FunctionalEngine accel(&g, app.get(), accel_config);
    const auto stats = accel.Run(queries, &corpus);
    std::printf("lightrw functional: %llu steps in %.3fs wall\n",
                static_cast<unsigned long long>(stats.steps),
                timer.ElapsedSeconds());
  } else {
    std::fprintf(stderr,
                 "unknown engine '%s' (expected "
                 "cpu|lightrw|lightrw-sim|distributed|service)\n",
                 engine.c_str());
    return 1;
  }

  std::string spans_json;
  if (exports.contains("spans")) {
    // Post-run span analysis: per-query critical paths, the breach
    // report, and the multi-window SLO burn-rate monitor over the
    // closed-trace summaries (kept for every query in every span mode).
    const obs::AttributionReport attribution =
        obs::AnalyzeCriticalPaths(spans);
    const std::vector<obs::BurnAlert> alerts =
        obs::ComputeBurnAlerts(spans.Summaries(), obs::BurnRateConfig{});
    std::fputs(
        obs::FormatLatencyAttributionSection(attribution, alerts).c_str(),
        stdout);
    for (const obs::BurnAlert& alert : alerts) {
      // Burn-rate transitions line up with the pipeline timeline in
      // Perfetto, and annotate every incident whose window they overlap.
      const char* kind = alert.firing ? "slo_burn_fire" : "slo_burn_clear";
      trace.Instant(kind, "slo", /*pid=*/0, /*tid=*/0, alert.cycle);
      timeseries.Annotate(kind, alert.cycle, "");
    }
    obs::JsonWriter writer(/*indent=*/2);
    writer.BeginObject();
    spans.WriteJsonMembers(&writer);
    writer.Member("attribution", attribution.ToJson());
    writer.Member("burn_alerts", obs::BurnAlertsToJson(alerts));
    writer.Member("membership", reliability::MembershipToJson(membership));
    writer.End();
    spans_json = writer.Take();
    spans_json += '\n';
  }
  perf::WorkCounters counters;
  counters.simulated_cycles = perf_sim_cycles;
  counters.walks = corpus.num_paths();
  counters.steps = corpus.vertices.size() >= corpus.num_paths()
                       ? corpus.vertices.size() - corpus.num_paths()
                       : 0;
  counters.spans = spans.num_spans();
  const std::vector<ExportFile> files = {
      {"corpus", "corpus.txt",
       [&](const std::string& path) {
         return analytics::WriteCorpusText(corpus, path);
       }},
      {"metrics", "metrics.json",
       TextWriter([&] { return metrics.ToJsonString(); })},
      {"metrics", "metrics.prom",
       TextWriter([&] { return metrics.ToPrometheusText(); })},
      {"trace", "trace.json", TextWriter([&] { return trace.ToJsonString(); })},
      {"spans", "spans.json",
       TextWriter([&] { return spans_json; })},
      {"timeseries", "timeseries.json",
       TextWriter([&] { return timeseries.ToJsonString(2); })},
      {"timeseries", "timeseries.om",
       TextWriter([&] { return timeseries.ToOpenMetricsText(); })},
      // Last, so its wall time covers every other export.
      {"perf", "perf.json", TextWriter([&] {
         return PerfReportText(engine, counters, timer.ElapsedSeconds());
       })},
  };
  return WriteExports(out_dir, exports, files) ? exit_code : 1;
}
