#include "service/arrival.h"

#include <cmath>
#include <string>

#include "rng/rng.h"

namespace lightrw::service {

Status ValidateArrivalConfig(const ArrivalConfig& config) {
  if (config.num_queries == 0) {
    return InvalidArgumentError("arrivals.num_queries must be > 0");
  }
  if (config.walk_length == 0) {
    return InvalidArgumentError("arrivals.walk_length must be > 0");
  }
  if (!(config.rate_per_kcycle > 0.0)) {
    return InvalidArgumentError("arrivals.rate_per_kcycle must be > 0");
  }
  if (!(config.burst_factor > 0.0)) {
    return InvalidArgumentError("arrivals.burst_factor must be > 0");
  }
  if (config.burst_on_cycles == 0 && config.burst_off_cycles > 0) {
    return InvalidArgumentError(
        "arrivals.burst_off_cycles without burst_on_cycles never bursts");
  }
  if (!(config.best_effort_fraction >= 0.0 &&
        config.best_effort_fraction <= 1.0)) {
    return InvalidArgumentError(
        "arrivals.best_effort_fraction must be within [0, 1]");
  }
  return Status::Ok();
}

StatusOr<std::vector<ServiceQuery>> GenerateArrivals(
    const ArrivalConfig& config, const graph::CsrGraph& graph) {
  LIGHTRW_RETURN_IF_ERROR(ValidateArrivalConfig(config));
  std::vector<graph::VertexId> starts;
  starts.reserve(graph.num_vertices());
  for (graph::VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (graph.Degree(v) > 0) {
      starts.push_back(v);
    }
  }
  if (starts.empty()) {
    return FailedPreconditionError(
        "graph has no non-isolated vertex to start walks from");
  }

  rng::Xoshiro256StarStar gen(config.seed ^ 0xa77e5a15ULL);
  const uint64_t period = config.burst_on_cycles + config.burst_off_cycles;
  std::vector<ServiceQuery> out;
  out.reserve(config.num_queries);
  double t = 0.0;  // continuous arrival clock, floored per query
  for (uint64_t i = 0; i < config.num_queries; ++i) {
    double rate = config.rate_per_kcycle;
    if (period > 0) {
      const uint64_t phase = static_cast<uint64_t>(t) % period;
      if (phase < config.burst_on_cycles) {
        rate *= config.burst_factor;
      }
    }
    // Exponential inter-arrival gap with mean 1024 / rate cycles.
    t += -std::log1p(-gen.NextUnit()) * 1024.0 / rate;
    // Below 2^47 cycles, the bound retry backoff and spare rebuild use,
    // the clock converts to an integer cycle (here and in the burst
    // phase above) without overflow.
    if (!(t < 0x1p47)) {
      return OutOfRangeError(
          "arrivals.rate_per_kcycle too small: arrival " + std::to_string(i) +
          " lands at 2^47 cycles or later");
    }
    ServiceQuery q;
    q.arrival = static_cast<hwsim::Cycle>(t);
    q.query.start =
        starts[static_cast<size_t>(gen.NextBounded(starts.size()))];
    q.query.length = config.walk_length;
    if (config.deadline_cycles > 0) {
      q.deadline = q.arrival + config.deadline_cycles;
    }
    q.best_effort = gen.NextUnit() < config.best_effort_fraction;
    out.push_back(q);
  }
  return out;
}

}  // namespace lightrw::service
