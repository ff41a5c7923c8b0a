#include "hwsim/dram.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"

namespace lightrw::hwsim {

DramChannel::DramChannel(const DramConfig& config) : config_(config) {
  LIGHTRW_CHECK(config.bus_bytes >= 1);
  LIGHTRW_CHECK(config.issue_gap_cycles >= 1);
  LIGHTRW_CHECK(config.efficiency > 0.0 && config.efficiency <= 1.0);
  LIGHTRW_CHECK(config.clock_hz > 0.0);
  LIGHTRW_CHECK(config.num_banks >= 1);
  bank_busy_.assign(config.num_banks, 0);
}

Cycle DramChannel::RequestOccupancy(uint32_t burst_beats) const {
  LIGHTRW_CHECK(burst_beats >= 1);
  // A request occupies the channel for its data beats (derated by the
  // steady-state efficiency) but never less than the issue gap.
  const double beat_cycles =
      static_cast<double>(burst_beats) / config_.efficiency;
  const double occupancy =
      std::max<double>(beat_cycles, config_.issue_gap_cycles);
  return static_cast<Cycle>(std::llround(std::ceil(occupancy)));
}

Cycle DramChannel::Access(Cycle ready, uint32_t burst_beats) {
  Cycle done = AccessOnce(ready, burst_beats);
  if (faults_ == nullptr || !faults_->DrawsDramFaults()) {
    return done;
  }
  // ECC outcome of the delivered burst. A correctable error is fixed by
  // the controller but costs one re-issue of the burst (scrub + re-read);
  // an uncorrectable error re-issues up to the retry budget, after which
  // the access is declared failed and the caller sees TakeAccessFailure.
  const uint32_t max_retries = faults_->config().max_dram_retries;
  for (uint32_t attempt = 0;; ++attempt) {
    const reliability::DramFault fault = faults_->NextDramFault();
    if (fault == reliability::DramFault::kNone) {
      return done;
    }
    if (fault == reliability::DramFault::kCorrectable) {
      if (reliability_ != nullptr) {
        ++reliability_->dram_correctable;
        ++reliability_->dram_retries;
      }
      if (trace_ != nullptr && trace_->accepting()) {
        trace_->Instant("ecc_correctable", "fault", trace_pid_, trace_tid_,
                        done);
      }
      return AccessOnce(done, burst_beats);
    }
    // Uncorrectable.
    if (reliability_ != nullptr) {
      ++reliability_->dram_uncorrectable;
    }
    if (trace_ != nullptr && trace_->accepting()) {
      trace_->Instant("ecc_uncorrectable", "fault", trace_pid_, trace_tid_,
                      done);
    }
    if (attempt >= max_retries) {
      access_failure_pending_ = true;
      if (reliability_ != nullptr) {
        ++reliability_->dram_failed_accesses;
      }
      if (trace_ != nullptr && trace_->accepting()) {
        trace_->Instant("dram_access_failed", "fault", trace_pid_,
                        trace_tid_, done);
      }
      return done;
    }
    if (reliability_ != nullptr) {
      ++reliability_->dram_retries;
    }
    done = AccessOnce(done, burst_beats);
  }
}

Cycle DramChannel::AccessMany(Cycle ready, uint32_t burst_beats,
                              uint32_t count) {
  if (count == 0) {
    return ready;
  }
  if ((faults_ != nullptr && faults_->DrawsDramFaults()) ||
      (trace_ != nullptr && trace_->accepting())) {
    // Each request draws its ECC outcome or records its service window.
    Cycle done = ready;
    for (uint32_t i = 0; i < count; ++i) {
      done = std::max(done, Access(ready, burst_beats));
    }
    return done;
  }
  LIGHTRW_CHECK(burst_beats >= 1);
  const Cycle transfer_cycles = TransferCycles(burst_beats);
  for (uint32_t i = 0; i < count; ++i) {
    bus_busy_ = std::max(Issue(ready), bus_busy_) + transfer_cycles;
  }
  stats_.requests += count;
  stats_.beats += static_cast<uint64_t>(count) * burst_beats;
  stats_.bytes +=
      static_cast<uint64_t>(count) * burst_beats * config_.bus_bytes;
  stats_.busy_cycles += count * transfer_cycles;
  return bus_busy_ + config_.access_latency_cycles;
}

Cycle DramChannel::Issue(Cycle ready) {
  // Command issue occupies the least-loaded bank for one issue gap.
  const size_t n = bank_busy_.size();
  const Cycle issue_done =
      std::max(ready, bank_busy_[bank_head_]) + config_.issue_gap_cycles;
  // The popped head's cell becomes the tail; horizons above the new one
  // shift into it, so the ring stays sorted.
  size_t cell = bank_head_;
  bank_head_ = bank_head_ + 1 == n ? 0 : bank_head_ + 1;
  while (cell != bank_head_) {
    const size_t prev = cell == 0 ? n - 1 : cell - 1;
    if (bank_busy_[prev] <= issue_done) {
      break;
    }
    bank_busy_[cell] = bank_busy_[prev];
    cell = prev;
  }
  bank_busy_[cell] = issue_done;
  return issue_done;
}

Cycle DramChannel::TransferCycles(uint32_t burst_beats) const {
  return static_cast<Cycle>(std::llround(
      std::ceil(static_cast<double>(burst_beats) / config_.efficiency)));
}

Cycle DramChannel::AccessOnce(Cycle ready, uint32_t burst_beats) {
  LIGHTRW_CHECK(burst_beats >= 1);
  // The data transfer occupies the shared bus for the burst's beats once
  // the command has issued.
  const Cycle issue_done = Issue(ready);
  const Cycle transfer_cycles = TransferCycles(burst_beats);
  const Cycle transfer_start = std::max(issue_done, bus_busy_);
  bus_busy_ = transfer_start + transfer_cycles;

  ++stats_.requests;
  stats_.beats += burst_beats;
  stats_.bytes += static_cast<uint64_t>(burst_beats) * config_.bus_bytes;
  stats_.busy_cycles += transfer_cycles;
  if (trace_ != nullptr && trace_->accepting()) {
    trace_->Complete("dram_request", "dram", trace_pid_, trace_tid_,
                     transfer_start, bus_busy_);
  }
  // Data is fully delivered one pipelined latency after the transfer.
  return bus_busy_ + config_.access_latency_cycles;
}

double DramChannel::SteadyStateBandwidth(uint32_t burst_beats) const {
  const Cycle occupancy = RequestOccupancy(burst_beats);
  const double bytes =
      static_cast<double>(burst_beats) * config_.bus_bytes;
  return bytes / static_cast<double>(occupancy) * config_.clock_hz;
}

}  // namespace lightrw::hwsim
