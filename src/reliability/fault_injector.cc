#include "reliability/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/metrics.h"

namespace lightrw::reliability {

Status ValidateFaultConfig(const FaultConfig& config) {
  const auto rate_ok = [](double rate) { return rate >= 0.0 && rate <= 1.0; };
  if (!rate_ok(config.dram_correctable_rate) ||
      !rate_ok(config.dram_uncorrectable_rate) ||
      !rate_ok(config.link_drop_rate) || !rate_ok(config.link_corrupt_rate)) {
    return InvalidArgumentError(
        "fault rates must be probabilities in [0, 1]");
  }
  if (config.dram_correctable_rate + config.dram_uncorrectable_rate > 1.0) {
    return InvalidArgumentError(
        "dram_correctable_rate + dram_uncorrectable_rate must not exceed 1");
  }
  if (config.link_drop_rate + config.link_corrupt_rate > 1.0) {
    return InvalidArgumentError(
        "link_drop_rate + link_corrupt_rate must not exceed 1");
  }
  if (!config.enabled) {
    return Status::Ok();
  }
  if ((config.link_drop_rate > 0.0 || config.link_corrupt_rate > 0.0) &&
      config.retransmit_timeout_cycles == 0) {
    return InvalidArgumentError(
        "retransmit_timeout_cycles must be >= 1 when link faults are "
        "enabled");
  }
  if (config.max_dram_retries > 64) {
    return InvalidArgumentError("max_dram_retries must be <= 64");
  }
  if (config.max_retransmissions > 64) {
    return InvalidArgumentError("max_retransmissions must be <= 64");
  }
  if (config.board_deaths.size() > 4096) {
    return InvalidArgumentError(
        "board_deaths schedules more than 4096 deaths");
  }
  for (size_t i = 0; i < config.board_deaths.size(); ++i) {
    if (config.board_deaths[i].cycle == 0) {
      return InvalidArgumentError(
          "board_deaths[" + std::to_string(i) +
          "].cycle must be >= 1 (cycle 0 means 'never')");
    }
  }
  return ValidateCkptStoreConfig(config.ckpt_store);
}

Status ValidateCkptStoreConfig(const CkptStoreConfig& config) {
  const auto rate_ok = [](double rate) { return rate >= 0.0 && rate <= 1.0; };
  if (!rate_ok(config.torn_write_rate) ||
      !rate_ok(config.stale_publish_rate) ||
      !rate_ok(config.bit_rot_per_byte)) {
    return InvalidArgumentError(
        "ckpt_store fault rates must be probabilities in [0, 1]");
  }
  if (!config.enabled) {
    return Status::Ok();
  }
  if (config.generations_kept == 0 || config.generations_kept > 64) {
    return InvalidArgumentError(
        "ckpt_store.generations_kept must be in [1, 64]");
  }
  if (config.num_replicas == 0 || config.num_replicas > 8) {
    return InvalidArgumentError("ckpt_store.num_replicas must be in [1, 8]");
  }
  if (!std::isfinite(config.scrub_bytes_per_cycle)) {
    return InvalidArgumentError(
        "ckpt_store.scrub_bytes_per_cycle must be finite");
  }
  if (config.scrub_interval_cycles > 0 &&
      config.scrub_bytes_per_cycle <= 0.0) {
    return InvalidArgumentError(
        "ckpt_store.scrub_bytes_per_cycle must be > 0 when scrubbing is "
        "enabled (scrub_interval_cycles > 0)");
  }
  // Each scrub tick converts bytes_per_cycle * interval to a 64-bit byte
  // budget; keep it below 2^63 so the conversion is defined.
  if (config.scrub_bytes_per_cycle *
          static_cast<double>(config.scrub_interval_cycles) >=
      0x1p63) {
    return OutOfRangeError(
        "ckpt_store scrub budget overflow: scrub_bytes_per_cycle times "
        "scrub_interval_cycles (" +
        std::to_string(config.scrub_interval_cycles) +
        ") must stay below 2^63 bytes");
  }
  return Status::Ok();
}

std::vector<BoardDeath> EffectiveBoardDeaths(const FaultConfig& config) {
  std::vector<BoardDeath> deaths;
  if (!config.enabled) {
    return deaths;
  }
  for (const BoardDeath& d : config.board_deaths) {
    if (d.cycle > 0) {
      deaths.push_back(d);
    }
  }
  std::sort(deaths.begin(), deaths.end(),
            [](const BoardDeath& a, const BoardDeath& b) {
              return a.cycle != b.cycle ? a.cycle < b.cycle
                                        : a.board < b.board;
            });
  // Only the first death of a board fires; later entries are no-ops.
  std::vector<BoardDeath> unique;
  unique.reserve(deaths.size());
  for (const BoardDeath& d : deaths) {
    bool seen = false;
    for (const BoardDeath& u : unique) {
      if (u.board == d.board) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      unique.push_back(d);
    }
  }
  return unique;
}

void ReliabilityStats::Accumulate(const ReliabilityStats& other) {
  dram_correctable += other.dram_correctable;
  dram_uncorrectable += other.dram_uncorrectable;
  dram_retries += other.dram_retries;
  dram_failed_accesses += other.dram_failed_accesses;
  link_dropped += other.link_dropped;
  link_corrupted += other.link_corrupted;
  retransmissions += other.retransmissions;
  link_failed_sends += other.link_failed_sends;
  board_failures += other.board_failures;
  checkpoints += other.checkpoints;
  walkers_recovered += other.walkers_recovered;
  walkers_lost += other.walkers_lost;
  replayed_steps += other.replayed_steps;
  recovery_cycles += other.recovery_cycles;
  walks_failed += other.walks_failed;
  spares_activated += other.spares_activated;
  rebuilds_completed += other.rebuilds_completed;
  rebuilds_aborted += other.rebuilds_aborted;
  spare_exhaustions += other.spare_exhaustions;
  rebuild_cycles += other.rebuild_cycles;
  ckpt_store_writes += other.ckpt_store_writes;
  ckpt_store_reads += other.ckpt_store_reads;
  ckpt_bytes_written += other.ckpt_bytes_written;
  ckpt_bytes_read += other.ckpt_bytes_read;
  ckpt_crc_failures += other.ckpt_crc_failures;
  ckpt_fallbacks += other.ckpt_fallbacks;
  ckpt_unrecoverable += other.ckpt_unrecoverable;
  ckpt_scrub_records += other.ckpt_scrub_records;
  ckpt_scrub_repairs += other.ckpt_scrub_repairs;
  ckpt_torn_writes += other.ckpt_torn_writes;
  ckpt_bit_rot += other.ckpt_bit_rot;
  ckpt_stale_publishes += other.ckpt_stale_publishes;
  ckpt_corrupt_detected += other.ckpt_corrupt_detected;
  ckpt_latent_corrupt += other.ckpt_latent_corrupt;
  ckpt_silent_accepts += other.ckpt_silent_accepts;
}

Status ReliabilityStatus(const ReliabilityStats& stats) {
  if (stats.walkers_lost > 0 || stats.walks_failed > 0) {
    std::string message =
        "run lost data: " + std::to_string(stats.walks_failed) +
        " walk(s) failed on uncorrectable faults, " +
        std::to_string(stats.walkers_lost) +
        " walker(s) unrecoverable (no checkpoint)";
    if (stats.ckpt_unrecoverable > 0) {
      message += "; " + std::to_string(stats.ckpt_unrecoverable) +
                 " checkpoint read(s) found no generation that validates "
                 "(all replicas corrupt after fallback)";
    }
    if (stats.spare_exhaustions > 0) {
      message += "; spare pool exhausted " +
                 std::to_string(stats.spare_exhaustions) +
                 " time(s) (survivor-only degraded mode)";
    }
    return InternalError(message);
  }
  return Status::Ok();
}

void PublishReliabilityMetrics(
    obs::MetricsRegistry* metrics, const ReliabilityStats& stats,
    const std::vector<std::pair<std::string, std::string>>& labels) {
  if (metrics == nullptr) {
    return;
  }
  const struct {
    const char* name;
    uint64_t value;
  } counters[] = {
      {"reliability.dram.correctable", stats.dram_correctable},
      {"reliability.dram.uncorrectable", stats.dram_uncorrectable},
      {"reliability.dram.retries", stats.dram_retries},
      {"reliability.dram.failed_accesses", stats.dram_failed_accesses},
      {"reliability.link.dropped", stats.link_dropped},
      {"reliability.link.corrupted", stats.link_corrupted},
      {"reliability.link.retransmissions", stats.retransmissions},
      {"reliability.link.failed_sends", stats.link_failed_sends},
      {"reliability.board.failures", stats.board_failures},
      {"reliability.checkpoint.taken", stats.checkpoints},
      {"reliability.walkers.recovered", stats.walkers_recovered},
      {"reliability.walkers.lost", stats.walkers_lost},
      {"reliability.walkers.replayed_steps", stats.replayed_steps},
      {"reliability.recovery.cycles", stats.recovery_cycles},
      {"reliability.walks.failed", stats.walks_failed},
      {"reliability.spares.activated", stats.spares_activated},
      {"reliability.rebuilds.completed", stats.rebuilds_completed},
      {"reliability.rebuilds.aborted", stats.rebuilds_aborted},
      {"reliability.spares.exhausted", stats.spare_exhaustions},
      {"reliability.rebuild.cycles", stats.rebuild_cycles},
      {"reliability.ckpt.writes", stats.ckpt_store_writes},
      {"reliability.ckpt.reads", stats.ckpt_store_reads},
      {"reliability.ckpt.bytes_written", stats.ckpt_bytes_written},
      {"reliability.ckpt.bytes_read", stats.ckpt_bytes_read},
      {"reliability.ckpt.crc_fail", stats.ckpt_crc_failures},
      {"reliability.ckpt.fallbacks", stats.ckpt_fallbacks},
      {"reliability.ckpt.unrecoverable", stats.ckpt_unrecoverable},
      {"reliability.ckpt.scrub_records", stats.ckpt_scrub_records},
      {"reliability.ckpt.scrub_repairs", stats.ckpt_scrub_repairs},
      {"reliability.ckpt.torn_writes", stats.ckpt_torn_writes},
      {"reliability.ckpt.bit_rot", stats.ckpt_bit_rot},
      {"reliability.ckpt.stale_publishes", stats.ckpt_stale_publishes},
      {"reliability.ckpt.corrupt_detected", stats.ckpt_corrupt_detected},
      {"reliability.ckpt.latent_corrupt", stats.ckpt_latent_corrupt},
      {"reliability.ckpt.silent_accepts", stats.ckpt_silent_accepts},
  };
  for (const auto& [name, value] : counters) {
    if (value != 0) {
      metrics->GetCounter(name, labels)->Increment(value);
    }
  }
}

FaultStream::FaultStream(const FaultConfig& config, uint64_t component_id)
    : config_(config),
      enabled_(config.enabled),
      gen_(rng::SplitMix64(config.seed ^
                           (0x9e3779b97f4a7c15ULL * (component_id + 1)))
               .Next()) {}

DramFault FaultStream::NextDramFault() {
  if (!DrawsDramFaults()) {
    return DramFault::kNone;
  }
  ++draws_;
  const double u = gen_.NextUnit();
  if (u < config_.dram_uncorrectable_rate) {
    return DramFault::kUncorrectable;
  }
  if (u < config_.dram_correctable_rate + config_.dram_uncorrectable_rate) {
    return DramFault::kCorrectable;
  }
  return DramFault::kNone;
}

LinkFault FaultStream::NextLinkFault() {
  if (!enabled_) {
    return LinkFault::kNone;
  }
  const double total = config_.link_drop_rate + config_.link_corrupt_rate;
  if (total <= 0.0) {
    return LinkFault::kNone;
  }
  ++draws_;
  const double u = gen_.NextUnit();
  if (u < config_.link_drop_rate) {
    return LinkFault::kDropped;
  }
  if (u < total) {
    return LinkFault::kCorrupted;
  }
  return LinkFault::kNone;
}

bool FaultStream::NextTornWrite() {
  if (!enabled_ || config_.ckpt_store.torn_write_rate <= 0.0) {
    return false;
  }
  ++draws_;
  return gen_.NextUnit() < config_.ckpt_store.torn_write_rate;
}

bool FaultStream::NextStalePublish() {
  if (!enabled_ || config_.ckpt_store.stale_publish_rate <= 0.0) {
    return false;
  }
  ++draws_;
  return gen_.NextUnit() < config_.ckpt_store.stale_publish_rate;
}

bool FaultStream::NextBitRot(uint64_t bytes) {
  if (!enabled_ || config_.ckpt_store.bit_rot_per_byte <= 0.0 ||
      bytes == 0) {
    return false;
  }
  ++draws_;
  const double p =
      config_.ckpt_store.bit_rot_per_byte * static_cast<double>(bytes);
  return gen_.NextUnit() < (p > 1.0 ? 1.0 : p);
}

uint64_t FaultStream::NextPosition(uint64_t bound) {
  if (!enabled_ || bound <= 1) {
    return 0;
  }
  ++draws_;
  return gen_.Next() % bound;
}

}  // namespace lightrw::reliability
