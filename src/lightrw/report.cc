#include "lightrw/report.h"

#include <cstdarg>
#include <cstdio>

#include "common/check.h"

namespace lightrw::core {

namespace {

void Appendf(std::string* out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void Appendf(std::string* out, const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  *out += buf;
}

}  // namespace

std::string FormatSloSection(const SloSummary& slo) {
  std::string out;
  Appendf(&out,
          "slo: %llu offered, %llu completed, %llu shed, %llu failed\n",
          static_cast<unsigned long long>(slo.offered),
          static_cast<unsigned long long>(slo.completed),
          static_cast<unsigned long long>(slo.shed),
          static_cast<unsigned long long>(slo.failed));
  Appendf(&out,
          "  goodput %.1f queries/s, shed rate %.2f%%, deadline "
          "violation rate %.2f%% (%llu late)\n",
          slo.goodput_per_s, 100.0 * slo.shed_rate,
          100.0 * slo.violation_rate,
          static_cast<unsigned long long>(slo.deadline_violations));
  Appendf(&out,
          "  queue delay p50/p99: %.0f / %.0f cycles, latency p50/p99: "
          "%.0f / %.0f cycles\n",
          slo.queue_delay_p50, slo.queue_delay_p99, slo.latency_p50,
          slo.latency_p99);
  Appendf(&out,
          "  overload response: %llu degraded, %llu breaker trip(s), "
          "%llu retry(ies)\n",
          static_cast<unsigned long long>(slo.degraded),
          static_cast<unsigned long long>(slo.breaker_trips),
          static_cast<unsigned long long>(slo.retries));
  return out;
}

std::string FormatRunReport(const RunReportInputs& inputs) {
  LIGHTRW_CHECK(inputs.graph != nullptr);
  LIGHTRW_CHECK(inputs.config != nullptr);
  LIGHTRW_CHECK(inputs.stats != nullptr);
  const AccelRunStats& stats = *inputs.stats;
  const AcceleratorConfig& config = *inputs.config;

  std::string out;
  Appendf(&out, "=== LightRW run report (%s) ===\n",
          inputs.app_name.c_str());
  Appendf(&out, "graph: %s\n", inputs.graph->Summary().c_str());
  Appendf(&out,
          "config: %u instance(s), k=%u lanes, burst b%u+b%u, cache %u "
          "entries\n",
          config.num_instances, config.sampler_parallelism,
          config.burst.short_beats, config.burst.long_beats,
          config.cache_kind == CacheKind::kNone ? 0 : config.cache_entries);

  Appendf(&out, "kernel: %llu queries, %llu steps, %llu cycles = %.4fs "
                "simulated (%.2f Msteps/s)\n",
          static_cast<unsigned long long>(stats.queries),
          static_cast<unsigned long long>(stats.steps),
          static_cast<unsigned long long>(stats.cycles), stats.seconds,
          stats.StepsPerSecond() / 1e6);
  if (stats.dram.bytes > 0) {
    Appendf(&out,
            "memory: %.1f MB moved (%.1f%% useful), %.2f GB/s effective, "
            "%llu requests\n",
            stats.dram.bytes / 1e6,
            100.0 * static_cast<double>(stats.dram.useful_bytes) /
                static_cast<double>(stats.dram.bytes),
            stats.EffectiveBandwidth() / 1e9,
            static_cast<unsigned long long>(stats.dram.requests));
  }
  if (stats.cache.accesses() > 0) {
    Appendf(&out, "row cache: %.1f%% hit ratio over %llu probes\n",
            100.0 * (1.0 - stats.cache.MissRatio()),
            static_cast<unsigned long long>(stats.cache.accesses()));
  }
  if (stats.burst.requests > 0) {
    Appendf(&out,
            "burst engine: %llu long + %llu short bursts, valid-data "
            "ratio %.2f\n",
            static_cast<unsigned long long>(stats.burst.long_bursts),
            static_cast<unsigned long long>(stats.burst.short_bursts),
            stats.burst.ValidDataRatio());
  }
  if (stats.prev_refetches > 0) {
    Appendf(&out, "prev-adjacency re-fetches: %llu\n",
            static_cast<unsigned long long>(stats.prev_refetches));
  }

  // Where the makespan went: per-stage slot-cycles over all in-flight
  // steps. Shares reveal the bottleneck stage (DRAM wait vs cache vs
  // sampler) even though concurrent walks overlap these intervals.
  if (stats.stage.Total() > 0) {
    const StageCycleStats& stage = stats.stage;
    Appendf(&out, "stage attribution (slot-cycles, all in-flight steps):\n");
    Appendf(&out, "  row lookup (cache+DRAM): %12llu cycles (%5.1f%%)\n",
            static_cast<unsigned long long>(stage.info_cycles),
            100.0 * stage.Share(stage.info_cycles));
    Appendf(&out, "  adjacency fetch (DRAM) : %12llu cycles (%5.1f%%)\n",
            static_cast<unsigned long long>(stage.fetch_cycles),
            100.0 * stage.Share(stage.fetch_cycles));
    Appendf(&out, "  sampler tail (WRS)     : %12llu cycles (%5.1f%%)\n",
            static_cast<unsigned long long>(stage.sampler_cycles),
            100.0 * stage.Share(stage.sampler_cycles));
    Appendf(&out, "  pipeline latency       : %12llu cycles (%5.1f%%)\n",
            static_cast<unsigned long long>(stage.pipeline_cycles),
            100.0 * stage.Share(stage.pipeline_cycles));
  }

  // Telemetry timeline: only for runs that scraped time series — see
  // RunReportInputs::telemetry_timeline.
  if (inputs.telemetry_timeline != nullptr &&
      !inputs.telemetry_timeline->empty()) {
    out += *inputs.telemetry_timeline;
  }

  // Platform models.
  PcieModel pcie;
  const double transfer_s = pcie.TransferSeconds(
      pcie.RunBytes(*inputs.graph, config.num_instances, inputs.num_queries,
                    inputs.query_length));
  Appendf(&out, "pcie: %.4fs transfer (%.1f%% of end-to-end)\n", transfer_s,
          100.0 * transfer_s / (transfer_s + stats.seconds));

  PowerModel power;
  Appendf(&out, "power: %.1f W modeled board power\n",
          power.FpgaWatts(config.num_instances, inputs.graph->num_edges(),
                          inputs.needs_prev_neighbors));

  ResourceModel resources;
  const ResourceUsage usage =
      resources.TotalUsage(config, inputs.needs_prev_neighbors);
  Appendf(&out,
          "resources: %.1f%% LUT, %.1f%% REG, %.1f%% BRAM, %.1f%% DSP of "
          "U250\n",
          resources.LutPercent(usage), resources.RegPercent(usage),
          resources.BramPercent(usage), resources.DspPercent(usage));
  return out;
}

}  // namespace lightrw::core
