// Command-line walk driver: load or generate a graph, run any of the
// supported walk applications on the chosen engine, and optionally save
// the walk corpus.
//
//   ./examples/walk_tool --help
//   ./examples/walk_tool --graph edges.txt --app node2vec --length 40
//       --queries 10000 --engine lightrw --out corpus.txt  (one line)
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

#include <cstdio>
#include <memory>
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

// Parses a comma-separated list of non-negative integers ("" = empty).
// False (with a one-line stderr reason) on malformed input.
bool ParseUintList(const std::string& flag, const std::string& text,
                   std::vector<uint64_t>* out) {
  out->clear();
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find(',', pos);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string item = text.substr(pos, end - pos);
    if (item.empty() || item.find_first_not_of("0123456789") !=
                            std::string::npos) {
      std::fprintf(stderr, "--%s: '%s' is not a non-negative integer\n",
                   flag.c_str(), item.c_str());
      return false;
    }
    out->push_back(std::stoull(item));
    pos = end + 1;
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
                     flags.GetString("fault-fail-cycles"), &cycles) ||
      !ParseUintList("fault-fail-boards",
                     flags.GetString("fault-fail-boards"), &boards)) {
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

// The one error path of every output file the tool writes: false, with
// a one-line stderr reason, when `written` failed.
bool Wrote(const char* what, const Status& written) {
  if (!written.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", what,
                 written.ToString().c_str());
  }
  return written.ok();
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

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Define("graph", "edge list file to load (empty: generate rmat)", "");
  flags.DefineBool("undirected", "treat the edge list as undirected", false);
  flags.DefineInt("rmat_scale", "generated graph scale (2^scale vertices)",
                  14);
  flags.Define("app", "walk app: deepwalk|node2vec|metapath|ppr",
               "node2vec");
  flags.Define("engine",
               "walk engine: cpu|lightrw|lightrw-sim|distributed|service",
               "lightrw");
  flags.DefineInt("length", "walk length (steps)", 40);
  flags.DefineInt("queries", "number of queries (0 = one per vertex)", 0);
  flags.DefineDouble("p", "node2vec return parameter", 2.0);
  flags.DefineDouble("q", "node2vec in-out parameter", 0.5);
  flags.DefineDouble("alpha", "ppr stop probability", 0.15);
  flags.DefineInt("seed", "random seed", 42);
  flags.Define("out", "write the walk corpus to this file (text)", "");
  flags.DefineBool("report", "print the full accelerator run report", false);
  flags.Define("metrics-out",
               "write a metrics snapshot (JSON; .prom suffix selects "
               "Prometheus text) to this file",
               "");
  flags.Define("trace-out",
               "write a Chrome trace_event JSON file (open in Perfetto) "
               "of the simulated pipeline to this file",
               "");
  flags.DefineInt("trace-limit", "max trace events kept (0 = disable)",
                  1048576);
  flags.Define("perf-out",
               "write a wall-clock perf report for this run (PERF JSON "
               "schema, single repeat; see src/perf/perf_harness.h)",
               "");
  flags.Define("spans-out",
               "write per-query spans, critical-path attribution, and "
               "burn-rate alerts as JSON to this file "
               "(engine=distributed|service)",
               "");
  flags.Define("span-mode",
               "span retention: all|breached (breached = flight recorder: "
               "keep spans only for deadline-missed/shed/failed queries)",
               "all");
  flags.DefineDouble("burn-alert-budget",
                     "SLO error budget: allowed breach fraction for "
                     "burn-rate alerting",
                     0.01);
  flags.DefineDouble("burn-alert-threshold",
                     "fire the SLO alert while breach_rate/budget exceeds "
                     "this in both windows",
                     2.0);
  flags.DefineInt("burn-alert-fast-window",
                  "fast burn-rate window in simulated cycles", 16384);
  flags.DefineInt("burn-alert-slow-window",
                  "slow burn-rate window in simulated cycles", 131072);
  flags.Define("timeseries-out",
               "write windowed time series, exemplars, and detected "
               "incidents as JSON (schema timeseries.v1) to this file "
               "(cycle-accurate engines only)",
               "");
  flags.Define("timeseries-openmetrics-out",
               "write the windowed time series as OpenMetrics text with "
               "exemplars to this file",
               "");
  flags.DefineInt("scrape-interval",
                  "simulated-cycle width of one telemetry scrape window",
                  4096);
  flags.DefineDouble("anomaly-alpha",
                     "EWMA smoothing factor of the incident detector, in "
                     "(0, 1]",
                     0.3);
  flags.DefineDouble("anomaly-z-open",
                     "robust z-score at or above which an incident opens",
                     6.0);
  flags.DefineDouble("anomaly-z-close",
                     "robust z-score below which a window counts as calm",
                     3.0);
  flags.DefineInt("anomaly-warmup",
                  "windows observed per series before incidents may open",
                  4);
  flags.DefineInt("boards", "simulated boards (engine=distributed)", 4);
  flags.DefineInt("threads",
                  "host worker threads for sharded simulation (0 = "
                  "LIGHTRW_SIM_THREADS env, else 1); results are "
                  "bit-identical for every value",
                  0);
  flags.DefineInt("service-shards",
                  "independent admission shards (engine=service; must "
                  "divide --boards evenly; > 1 requires --replicate)",
                  1);
  flags.Define("partition",
               "graph partitioning strategy: hash|range|greedy "
               "(engine=distributed)",
               "greedy");
  flags.DefineBool("replicate",
                   "replicate the full graph on every board "
                   "(engine=distributed)",
                   false);
  flags.DefineDouble("service-rate",
                     "offered arrival rate in queries per 1024 simulated "
                     "cycles (engine=service)",
                     1.0);
  flags.DefineInt("service-deadline",
                  "per-query deadline in simulated cycles after arrival "
                  "(0 = none; engine=service)",
                  0);
  flags.DefineInt("service-queue-cap",
                  "bounded admission queue capacity per board "
                  "(engine=service)",
                  64);
  flags.DefineInt("service-retries",
                  "re-admissions allowed per bounced or failed query "
                  "(engine=service)",
                  2);
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
                  0);
  flags.DefineInt("service-burst-off",
                  "inter-burst gap length in cycles (engine=service)", 0);
  flags.DefineDouble("slo-max-shed",
                     "exit 2 if the shed rate exceeds this fraction "
                     "(engine=service)",
                     1.0);
  flags.DefineDouble("slo-max-violation",
                     "exit 2 if the deadline violation rate exceeds this "
                     "fraction (engine=service)",
                     1.0);
  flags.DefineInt("fault-seed", "fault schedule seed", 1);
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
                  65536);
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
                  "checkpoint generations retained per walker", 3);
  flags.DefineInt("ckpt-replicas", "replicas per checkpoint record", 2);
  flags.DefineInt("ckpt-write-latency",
                  "modeled store write latency in cycles", 256);
  flags.DefineInt("ckpt-read-latency",
                  "modeled store read latency in cycles per record "
                  "examined",
                  512);
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
                  16384);
  flags.DefineDouble("ckpt-scrub-bytes",
                     "scrub bandwidth budget in bytes per cycle", 64.0);
  flags.DefineInt("spare-boards",
                  "hot spare boards that rebuild a dead board's "
                  "partition share and take over its identity "
                  "(engine=distributed|service)",
                  0);
  flags.DefineDouble("rebuild-bytes-per-cycle",
                     "partition-rebuild bandwidth in bytes per simulated "
                     "cycle",
                     32.0);
  flags.DefineInt("chaos-scenarios",
                  "run the seeded chaos campaign with this many "
                  "scenarios instead of a single workload (0 = off)",
                  0);
  flags.DefineInt("chaos-seed", "chaos campaign seed", 1);
  flags.DefineInt("chaos-spares",
                  "max hot spares a chaos scenario may configure", 2);
  flags.Define("chaos-out",
               "write the chaos campaign report (JSON) to this file", "");
  flags.Define("chaos-spans-out",
               "write scenario 0's span + membership JSON to this file",
               "");
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

  const int64_t raw_threads = flags.GetInt("threads");
  if (raw_threads < 0 ||
      raw_threads > static_cast<int64_t>(SimThreadPool::kMaxThreads)) {
    std::fprintf(stderr, "--threads must be in [0, %u], got %lld\n",
                 SimThreadPool::kMaxThreads,
                 static_cast<long long>(raw_threads));
    return 1;
  }
  const uint32_t threads = static_cast<uint32_t>(raw_threads);
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
    const int64_t scale = flags.GetInt("rmat_scale");
    if (scale < 1 || scale > 28) {
      std::fprintf(stderr, "--rmat_scale must be in [1, 28], got %lld\n",
                   static_cast<long long>(scale));
      return 1;
    }
    graph::RmatOptions options;
    options.scale = static_cast<uint32_t>(scale);
    options.seed = flags.GetInt("seed");
    g = graph::GenerateRmat(options);
  }
  std::printf("graph: %s\n", g.Summary().c_str());

  const auto app = MakeApp(flags.GetString("app"), g, flags);
  if (app == nullptr) {
    return 1;
  }

  const int64_t raw_length = flags.GetInt("length");
  const int64_t raw_queries = flags.GetInt("queries");
  if (raw_length < 1 || raw_queries < 0) {
    std::fprintf(stderr,
                 "--length must be >= 1 and --queries >= 0 (got %lld, "
                 "%lld)\n",
                 static_cast<long long>(raw_length),
                 static_cast<long long>(raw_queries));
    return 1;
  }
  const uint32_t length = static_cast<uint32_t>(raw_length);

  // Chaos campaign: N seeded failure scenarios with machine-checked
  // invariants, replacing the single-workload run entirely.
  const int64_t chaos_scenarios = flags.GetInt("chaos-scenarios");
  if (chaos_scenarios > 0) {
    const int64_t chaos_boards = flags.GetInt("boards");
    if (chaos_boards < 2 || chaos_boards > 1024) {
      std::fprintf(stderr,
                   "--boards must be in [2, 1024] for a chaos campaign, "
                   "got %lld\n",
                   static_cast<long long>(chaos_boards));
      return 1;
    }
    reliability::ChaosConfig chaos;
    chaos.seed = static_cast<uint64_t>(flags.GetInt("chaos-seed"));
    chaos.num_scenarios = static_cast<uint32_t>(chaos_scenarios);
    chaos.num_boards = static_cast<distributed::BoardId>(chaos_boards);
    chaos.max_spare_boards =
        static_cast<uint32_t>(flags.GetInt("chaos-spares"));
    chaos.num_queries =
        raw_queries > 0 ? static_cast<uint32_t>(raw_queries) : 256;
    chaos.walk_length = length;
    const auto campaign =
        reliability::RunChaosCampaign(g, *app, chaos);
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
    const std::string chaos_out = flags.GetString("chaos-out");
    if (!chaos_out.empty()) {
      if (!Wrote("chaos report",
                 obs::WriteTextFile(campaign->ToJson().Dump(2) + "\n",
                                    chaos_out))) {
        return 1;
      }
      std::printf("wrote chaos report to %s\n", chaos_out.c_str());
    }
    const std::string chaos_spans_out = flags.GetString("chaos-spans-out");
    if (!chaos_spans_out.empty()) {
      if (!Wrote("chaos spans",
                 obs::WriteTextFile(campaign->sampled_span_json + "\n",
                                    chaos_spans_out))) {
        return 1;
      }
      std::printf("wrote chaos spans to %s\n", chaos_spans_out.c_str());
    }
    return campaign->Passed() ? 0 : 1;
  }

  const std::string engine = flags.GetString("engine");
  // The service engine generates its own open-loop arrival stream; every
  // other engine runs the standard closed query set.
  std::vector<apps::WalkQuery> queries;
  if (engine != "service") {
    queries = apps::MakeVertexQueries(g, length, flags.GetInt("seed"),
                                      static_cast<size_t>(raw_queries));
    std::printf("app %s, %zu queries of length %u, engine %s\n",
                app->name().c_str(), queries.size(), length, engine.c_str());
  }

  // Observability sinks, shared by every engine path. The trace only
  // fills for the cycle-accurate engines (the CPU path has no simulated
  // clock to stamp events with).
  obs::MetricsRegistry metrics;
  obs::TraceConfig trace_config;
  trace_config.max_events =
      static_cast<size_t>(flags.GetInt("trace-limit"));
  obs::TraceRecorder trace(trace_config);
  const std::string metrics_out = flags.GetString("metrics-out");
  const std::string trace_out = flags.GetString("trace-out");

  // Per-query span tracing (engine=distributed|service): spans drive the
  // critical-path analyzer and SLO burn-rate monitor after the run.
  const std::string spans_out = flags.GetString("spans-out");
  obs::SpanConfig span_config;
  const std::string span_mode = flags.GetString("span-mode");
  if (span_mode == "breached") {
    span_config.mode = obs::SpanMode::kBreached;
  } else if (span_mode != "all") {
    std::fprintf(stderr, "unknown span mode '%s' (expected all|breached)\n",
                 span_mode.c_str());
    return 1;
  }
  obs::SpanRecorder spans(span_config);
  obs::BurnRateConfig burn_config;
  burn_config.budget = flags.GetDouble("burn-alert-budget");
  burn_config.threshold = flags.GetDouble("burn-alert-threshold");
  burn_config.fast_window_cycles =
      static_cast<uint64_t>(flags.GetInt("burn-alert-fast-window"));
  burn_config.slow_window_cycles =
      static_cast<uint64_t>(flags.GetInt("burn-alert-slow-window"));
  const Status burn_valid = obs::ValidateBurnRateConfig(burn_config);
  if (!burn_valid.ok()) {
    std::fprintf(stderr, "invalid burn-alert configuration: %s\n",
                 burn_valid.ToString().c_str());
    return 1;
  }

  // Simulated-time telemetry (engine=lightrw-sim|distributed|service):
  // the engines scrape their live series every --scrape-interval cycles
  // into the recorder; incidents and exemplars ride the exports.
  const std::string timeseries_out = flags.GetString("timeseries-out");
  const std::string openmetrics_out =
      flags.GetString("timeseries-openmetrics-out");
  const bool want_timeseries =
      !timeseries_out.empty() || !openmetrics_out.empty();
  obs::TimeSeriesConfig ts_config;
  const int64_t raw_interval = flags.GetInt("scrape-interval");
  if (raw_interval < 1) {
    std::fprintf(stderr, "--scrape-interval must be >= 1, got %lld\n",
                 static_cast<long long>(raw_interval));
    return 1;
  }
  ts_config.scrape_interval = static_cast<uint64_t>(raw_interval);
  ts_config.anomaly_alpha = flags.GetDouble("anomaly-alpha");
  ts_config.anomaly_z_open = flags.GetDouble("anomaly-z-open");
  ts_config.anomaly_z_close = flags.GetDouble("anomaly-z-close");
  const int64_t raw_warmup = flags.GetInt("anomaly-warmup");
  if (!(ts_config.anomaly_alpha > 0.0) || ts_config.anomaly_alpha > 1.0 ||
      !(ts_config.anomaly_z_close > 0.0) ||
      ts_config.anomaly_z_open < ts_config.anomaly_z_close ||
      raw_warmup < 0) {
    std::fprintf(stderr,
                 "invalid anomaly configuration: need alpha in (0, 1], "
                 "z-open >= z-close > 0, warmup >= 0\n");
    return 1;
  }
  ts_config.anomaly_warmup = static_cast<uint32_t>(raw_warmup);
  obs::TimeSeriesRecorder timeseries(ts_config);
  reliability::FaultConfig faults;
  if (!FaultsFromFlags(flags, &faults)) {
    return 1;
  }
  const int64_t raw_spares = flags.GetInt("spare-boards");
  if (raw_spares < 0 || raw_spares > 256) {
    std::fprintf(stderr, "--spare-boards must be in [0, 256], got %lld\n",
                 static_cast<long long>(raw_spares));
    return 1;
  }
  // The accelerator configuration every simulated engine starts from,
  // with the requested sinks attached. Engines ignore the sinks they
  // cannot fill (only the cluster engines record spans).
  core::AcceleratorConfig accel_config;
  accel_config.seed = flags.GetInt("seed");
  accel_config.faults = faults;
  accel_config.num_threads = threads;
  accel_config.metrics = metrics_out.empty() ? nullptr : &metrics;
  accel_config.trace = trace_out.empty() ? nullptr : &trace;
  accel_config.spans = spans_out.empty() ? nullptr : &spans;
  accel_config.timeseries = want_timeseries ? &timeseries : nullptr;

  baseline::WalkOutput corpus;
  // Membership transitions of the run (distributed/service engines);
  // exported in the spans document so dashboards can line epochs up
  // with per-query spans.
  std::vector<reliability::MembershipTransition> membership;
  WallTimer timer;
  int exit_code = 0;
  uint64_t perf_sim_cycles = 0;  // simulated cycles, where the engine has them
  if (engine == "cpu") {
    baseline::BaselineConfig config;
    config.seed = flags.GetInt("seed");
    config.metrics = metrics_out.empty() ? nullptr : &metrics;
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
    const int64_t boards = flags.GetInt("boards");
    if (boards < 1 || boards > 1024) {
      std::fprintf(stderr, "--boards must be in [1, 1024], got %lld\n",
                   static_cast<long long>(boards));
      return 1;
    }
    const std::string strategy_name = flags.GetString("partition");
    distributed::PartitionStrategy strategy;
    if (!ParseStrategy(strategy_name, &strategy)) {
      return 1;
    }
    const distributed::Partition partition = distributed::MakePartition(
        g, static_cast<distributed::BoardId>(boards), strategy);
    distributed::DistributedConfig config;
    config.board = accel_config;
    config.board.num_instances = 1;
    config.replicate_graph = flags.GetBool("replicate");
    config.num_spare_boards = static_cast<uint32_t>(raw_spares);
    config.rebuild_bytes_per_cycle =
        flags.GetDouble("rebuild-bytes-per-cycle");
    config.num_threads = threads;
    distributed::DistributedEngine accel(&g, app.get(), &partition, config);
    const auto result = accel.Run(queries, &corpus);
    if (!result.ok()) {
      std::fprintf(stderr, "distributed run failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const auto& stats = *result;
    std::printf(
        "distributed (%lld board(s), %s): %llu steps, %llu migrations "
        "(%.1f%%), %llu cycles = %.4fs simulated (%.2f Msteps/s)\n",
        static_cast<long long>(boards),
        config.replicate_graph ? "replicated" : strategy_name.c_str(),
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
    const int64_t boards = flags.GetInt("boards");
    if (boards < 1 || boards > 1024) {
      std::fprintf(stderr, "--boards must be in [1, 1024], got %lld\n",
                   static_cast<long long>(boards));
      return 1;
    }
    distributed::PartitionStrategy strategy;
    if (!ParseStrategy(flags.GetString("partition"), &strategy)) {
      return 1;
    }
    const distributed::Partition partition = distributed::MakePartition(
        g, static_cast<distributed::BoardId>(boards), strategy);
    service::ServiceConfig config;
    config.cluster.board = accel_config;
    config.cluster.board.num_instances = 1;
    config.cluster.replicate_graph = flags.GetBool("replicate");
    config.cluster.num_spare_boards = static_cast<uint32_t>(raw_spares);
    config.cluster.rebuild_bytes_per_cycle =
        flags.GetDouble("rebuild-bytes-per-cycle");
    config.cluster.num_threads = threads;
    config.admission_shards =
        static_cast<uint32_t>(flags.GetInt("service-shards"));
    config.arrivals.seed = static_cast<uint64_t>(flags.GetInt("seed"));
    config.arrivals.num_queries =
        raw_queries > 0 ? static_cast<uint64_t>(raw_queries) : 1024;
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
                "engine service (%lld board(s))\n",
                app->name().c_str(),
                static_cast<unsigned long long>(config.arrivals.num_queries),
                length, config.arrivals.rate_per_kcycle,
                static_cast<long long>(boards));
    service::WalkService service(&g, app.get(), &partition, config);
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

  if (!spans_out.empty()) {
    // Post-run span analysis: per-query critical paths, the breach
    // report, and the multi-window SLO burn-rate monitor over the
    // closed-trace summaries (kept for every query in every span mode).
    const obs::AttributionReport attribution =
        obs::AnalyzeCriticalPaths(spans);
    const std::vector<obs::BurnAlert> alerts =
        obs::ComputeBurnAlerts(spans.Summaries(), burn_config);
    std::fputs(
        obs::FormatLatencyAttributionSection(attribution, alerts).c_str(),
        stdout);
    if (!trace_out.empty()) {
      // Fire the alert instants into the Chrome trace so burn-rate
      // transitions line up with the pipeline timeline in Perfetto.
      for (const obs::BurnAlert& alert : alerts) {
        trace.Instant(alert.firing ? "slo_burn_fire" : "slo_burn_clear",
                      "slo", /*pid=*/0, /*tid=*/0, alert.cycle);
      }
    }
    if (want_timeseries) {
      // Cross-annotate incidents against the burn-rate transitions: an
      // incident whose window overlaps an alert cycle carries it.
      for (const obs::BurnAlert& alert : alerts) {
        timeseries.Annotate(
            alert.firing ? "slo_burn_fire" : "slo_burn_clear", alert.cycle,
            "");
      }
    }
    obs::Json doc = spans.ToJson();
    doc.Set("attribution", attribution.ToJson());
    doc.Set("burn_alerts", obs::BurnAlertsToJson(alerts));
    doc.Set("membership", reliability::MembershipToJson(membership));
    if (!Wrote("spans", obs::WriteTextFile(doc.Dump(2) + "\n", spans_out))) {
      return 1;
    }
    std::printf("wrote %llu closed trace(s) to %s\n",
                static_cast<unsigned long long>(spans.traces_closed()),
                spans_out.c_str());
  }
  if (want_timeseries) {
    const size_t incidents = timeseries.DetectIncidents().size();
    if (!timeseries_out.empty()) {
      if (!Wrote("timeseries", obs::WriteTextFile(timeseries.ToJsonString(2),
                                                  timeseries_out))) {
        return 1;
      }
      std::printf(
          "wrote %llu telemetry window(s), %zu incident(s) to %s\n",
          static_cast<unsigned long long>(timeseries.num_windows()),
          incidents, timeseries_out.c_str());
    }
    if (!openmetrics_out.empty()) {
      if (!Wrote("openmetrics", obs::WriteTextFile(
                                    timeseries.ToOpenMetricsText(),
                                    openmetrics_out))) {
        return 1;
      }
      std::printf("wrote openmetrics exposition to %s\n",
                  openmetrics_out.c_str());
    }
  }
  if (!metrics_out.empty()) {
    const bool prometheus =
        metrics_out.size() > 5 && metrics_out.ends_with(".prom");
    if (!Wrote("metrics",
               obs::WriteTextFile(prometheus ? metrics.ToPrometheusText()
                                             : metrics.ToJsonString(),
                                  metrics_out))) {
      return 1;
    }
    std::printf("wrote metrics snapshot to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    if (!Wrote("trace", trace.WriteChromeTrace(trace_out))) {
      return 1;
    }
    std::printf("wrote %zu trace events to %s (%zu dropped)\n",
                trace.num_events(), trace_out.c_str(),
                trace.dropped_events());
  }

  if (!flags.GetString("out").empty()) {
    if (!Wrote("corpus",
               analytics::WriteCorpusText(corpus, flags.GetString("out")))) {
      return 1;
    }
    std::printf("wrote %zu walks to %s\n", corpus.num_paths(),
                flags.GetString("out").c_str());
  }

  const std::string perf_out = flags.GetString("perf-out");
  if (!perf_out.empty()) {
    // One timed repeat of the run that just happened: the body replays
    // its counters while the FakeClock replays the measured wall time,
    // so the report goes through the exact aggregation and schema path
    // the CI perf gate consumes.
    perf::WorkCounters counters;
    counters.simulated_cycles = perf_sim_cycles;
    counters.walks = corpus.num_paths();
    counters.steps = corpus.vertices.size() >= corpus.num_paths()
                         ? corpus.vertices.size() - corpus.num_paths()
                         : 0;
    counters.spans = spans_out.empty() ? 0 : spans.Spans().size();
    const double elapsed = timer.ElapsedSeconds();
    perf::FakeClock clock({0, static_cast<uint64_t>(elapsed * 1e9)});
    perf::RepeatConfig repeat_config;
    repeat_config.warmup = 0;
    repeat_config.repeats = 1;
    const perf::WorkloadResult measured = perf::MeasureWorkload(
        engine, repeat_config, &clock, [&counters]() { return counters; });
    if (!Wrote("perf report",
               obs::WriteTextFile(
                   perf::PerfReport("walk_tool", {measured}).Dump(2) + "\n",
                   perf_out))) {
      return 1;
    }
    std::printf("wrote perf report to %s\n", perf_out.c_str());
  }
  return exit_code;
}
