// DRAM channel timing model.
//
// Models one FPGA DRAM channel as seen by the accelerator kernel clock:
// a 512-bit (64 B) data bus that delivers one beat per kernel cycle at
// steady state, a per-request issue gap that limits how many independent
// requests can be serviced per unit time, and a pipelined access latency.
//
// These three parameters reproduce the measured curve of the paper's
// Fig. 6: bandwidth grows with burst length (amortizing the issue gap)
// until it saturates at the bus limit (~17.57 GB/s at 300 MHz with the
// default efficiency), while single-beat bursts reach only a fraction
// of it.

#ifndef LIGHTRW_HWSIM_DRAM_H_
#define LIGHTRW_HWSIM_DRAM_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "reliability/fault_injector.h"

namespace lightrw::obs {
class TraceRecorder;
}  // namespace lightrw::obs

namespace lightrw::hwsim {

// Cycle timestamp in kernel clock cycles.
using Cycle = uint64_t;

struct DramConfig {
  // Kernel clock the channel timing is expressed in (paper: 300 MHz).
  double clock_hz = 300e6;
  // Bytes delivered per beat (512-bit AXI bus).
  uint32_t bus_bytes = 64;
  // Minimum channel occupancy of one request, in cycles. Requests shorter
  // than this cannot be issued back-to-back any faster; this is what makes
  // short bursts bandwidth-inefficient. 32 reproduces the paper's Fig. 6,
  // where bandwidth saturates at burst length 32.
  uint32_t issue_gap_cycles = 32;
  // Latency from request issue to first beat of data (pipelined; does not
  // consume channel occupancy).
  uint32_t access_latency_cycles = 128;
  // Fraction of theoretical bus bandwidth achievable at steady state
  // (refresh, bank conflicts). 0.915 * 64 B * 300 MHz = 17.57 GB/s, the
  // peak the paper measures.
  double efficiency = 0.915;
  // Independent banks that can each hold one request's command window at a
  // time. 1 models a strictly serial interface (the Fig. 6 random-access
  // microbenchmark); the accelerator model uses 8 (DDR4 bank groups with
  // multiple outstanding AXI reads), which lets the issue gaps of short
  // bursts from one adjacency fetch overlap.
  uint32_t num_banks = 1;
};

// Accumulated channel statistics.
struct DramStats {
  uint64_t requests = 0;
  uint64_t beats = 0;           // bus beats transferred
  uint64_t bytes = 0;           // beats * bus_bytes
  Cycle busy_cycles = 0;        // cycles the channel was occupied
  uint64_t useful_bytes = 0;    // reported by the caller via ReportUseful

  DramStats& operator+=(const DramStats& o) {
    requests += o.requests;
    beats += o.beats;
    bytes += o.bytes;
    busy_cycles += o.busy_cycles;
    useful_bytes += o.useful_bytes;
    return *this;
  }
};

// One DRAM channel with banked command issue and a shared data bus.
// Access() is an accounting operation: given the requester's ready time
// and a burst length in beats, it returns when the last beat of data
// arrives. A request occupies the least-loaded bank for the issue gap and
// then the data bus for its beats; with one bank this degenerates to a
// strictly serial channel. Deterministic and O(num_banks) per request.
class DramChannel {
 public:
  explicit DramChannel(const DramConfig& config);

  const DramConfig& config() const { return config_; }

  // Channel occupancy of one request of `burst_beats` beats.
  Cycle RequestOccupancy(uint32_t burst_beats) const;

  // Issues a request at time >= `ready`: returns the cycle at which all
  // data has been delivered. With a fault stream attached, a correctable
  // ECC error re-issues the burst once (costing channel occupancy and a
  // counted retry); an uncorrectable error re-issues up to
  // `max_dram_retries` times and then marks the access failed (visible
  // through TakeAccessFailure), still returning the modeled completion
  // cycle of the final attempt.
  Cycle Access(Cycle ready, uint32_t burst_beats);

  // Attributes `bytes` of the most recent traffic as useful (consumed by
  // the compute pipeline rather than fetched-and-dropped).
  void ReportUseful(uint64_t bytes) { stats_.useful_bytes += bytes; }

  // Steady-state bandwidth of back-to-back requests with this burst
  // length, in bytes/second. Pure function of the config.
  double SteadyStateBandwidth(uint32_t burst_beats) const;

  // Peak achievable bandwidth (large bursts), bytes/second.
  double PeakBandwidth() const {
    return config_.bus_bytes * config_.clock_hz * config_.efficiency;
  }

  // Time the data bus is occupied through (the channel's busy horizon).
  Cycle busy_until() const { return bus_busy_; }
  const DramStats& stats() const { return stats_; }
  void ResetStats() { stats_ = DramStats{}; }

  // Mirrors every request's data-bus service window [transfer start,
  // last beat] into `trace` as a complete event on track (pid, tid).
  // `trace` is not owned, may be null (detaches), and must outlive the
  // channel's use.
  void AttachTrace(obs::TraceRecorder* trace, uint32_t pid, uint32_t tid) {
    trace_ = trace;
    trace_pid_ = pid;
    trace_tid_ = tid;
  }

  // Attaches a deterministic fault stream (ECC error schedule) and the
  // stats block that counts its events. Both are not owned, may be null
  // (detaches — the default, zero-overhead path), and must outlive the
  // channel's use.
  void AttachFaults(reliability::FaultStream* faults,
                    reliability::ReliabilityStats* reliability) {
    faults_ = faults;
    reliability_ = reliability;
  }

  // True if any Access since the last call exhausted its ECC retry
  // budget (uncorrectable data loss). Clears the flag. Callers issuing a
  // group of accesses for one logical operation (e.g. a burst-engine
  // fetch) check once after the group.
  bool TakeAccessFailure() {
    const bool failed = access_failure_pending_;
    access_failure_pending_ = false;
    return failed;
  }

 private:
  // One physical request issue: timing, stats, and trace, no faults.
  Cycle AccessOnce(Cycle ready, uint32_t burst_beats);

  DramConfig config_;
  std::vector<Cycle> bank_busy_;
  Cycle bus_busy_ = 0;
  DramStats stats_;
  obs::TraceRecorder* trace_ = nullptr;
  uint32_t trace_pid_ = 0;
  uint32_t trace_tid_ = 0;
  reliability::FaultStream* faults_ = nullptr;
  reliability::ReliabilityStats* reliability_ = nullptr;
  bool access_failure_pending_ = false;
};

}  // namespace lightrw::hwsim

#endif  // LIGHTRW_HWSIM_DRAM_H_
