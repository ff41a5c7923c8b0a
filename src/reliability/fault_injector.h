// Deterministic fault injection for the simulated accelerator stack.
//
// Production random-walk deployments treat failure as routine: DRAM
// develops transient ECC errors, network links drop and corrupt frames,
// and whole boards go dark mid-run. The cycle simulators are the ideal
// place to model that, because every fault, retry, and recovery becomes a
// *counted* event that tests can assert on exactly.
//
// A FaultInjector schedule is purely a function of (seed, component id,
// draw index): two runs with the same configuration produce bit-identical
// fault sequences regardless of wall-clock timing, and the fault streams
// are independent of the walk-sampling RNG streams, so enabling
// fault injection with all rates at zero changes no simulated outcome.
//
// Fault taxonomy (see DESIGN.md "Reliability model"):
//   DRAM  correctable ECC error    burst re-issued once (modeled retry)
//         uncorrectable ECC error  bounded re-issues, then the access fails
//   Link  dropped message          ack timeout -> retransmission
//         corrupted message        receiver NACK/CRC -> retransmission
//   Board whole-board failure      scheduled (board_deaths); in-flight
//         walkers recover from their last checkpoint on surviving boards

#ifndef LIGHTRW_RELIABILITY_FAULT_INJECTOR_H_
#define LIGHTRW_RELIABILITY_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "rng/rng.h"

namespace lightrw::obs {
class MetricsRegistry;
}  // namespace lightrw::obs

namespace lightrw::reliability {

// Outcome of one DRAM access draw.
enum class DramFault {
  kNone,
  kCorrectable,    // single-bit flip: ECC corrects, burst re-issued once
  kUncorrectable,  // multi-bit flip: the access must be retried or fails
};

// Outcome of one link-message draw.
enum class LinkFault {
  kNone,
  kDropped,    // frame lost on the wire: sender times out waiting for ack
  kCorrupted,  // CRC failure at the receiver: explicit NACK, same retry path
};

// One scheduled permanent board death: local board `board` stops
// serving at simulated cycle `cycle` (cycle 0 is rejected by
// validation — it would mean "never").
struct BoardDeath {
  uint64_t cycle = 0;
  uint32_t board = 0;
};

// Durable checkpoint store: walker checkpoints are framed with a
// length-prefixed CRC32C codec, written replica-by-replica through a
// staged-write -> seal -> publish protocol into bounded per-walker
// generation chains, revalidated by a budgeted background scrubber, and
// subject to a storage fault model (torn writes, bit rot, stale
// publishes) drawn from the deterministic fault stream. See
// reliability/ckpt_store.h and DESIGN.md "Durable checkpoints & storage
// integrity". When enabled, recovery reads walk back to the newest
// generation that validates, and a spare may rebuild a partition share
// from the store even when no live owner survives.
struct CkptStoreConfig {
  bool enabled = false;
  // Generations retained per walker chain; recovery falls back through
  // them newest-first when CRC validation rejects a record.
  uint32_t generations_kept = 3;
  // Replicas per generation; the scrubber repairs a corrupt replica
  // from a validating peer.
  uint32_t num_replicas = 2;
  // Modeled store read latency: reads happen during recovery and add to
  // the resume delay, once per record examined. Writes are asynchronous
  // and cost the walker nothing.
  uint32_t read_latency_cycles = 512;
  // Probability that a replica write is torn: the staged bytes stop at
  // a seeded offset but the publish marker lands anyway.
  double torn_write_rate = 0.0;
  // Latent media decay, approximated as one Bernoulli draw per replica
  // write of min(1, bit_rot_per_byte * record_bytes); a hit flips one
  // seeded bit, detected only when the record is next validated.
  double bit_rot_per_byte = 0.0;
  // Probability that a publish is silently lost: the previous
  // generation stays newest and recovery replays from further back.
  double stale_publish_rate = 0.0;
  // Scrub cadence (0 disables scrubbing) and per-cycle byte budget: each
  // scrub pass revalidates interval * bytes_per_cycle stored bytes.
  uint64_t scrub_interval_cycles = 1ull << 14;
  double scrub_bytes_per_cycle = 64.0;
};

// Structural validation of the store configuration (rates are
// probabilities, retention/replication bounds, scrub budget coherent).
Status ValidateCkptStoreConfig(const CkptStoreConfig& config);

// Bits the retransmission ack timeout grows per attempt: the timeout
// doubles, capped at 2^20 times retransmit_timeout_cycles.
inline constexpr uint32_t kRetransmitBackoffShift = 1;
// Modeled per-walker cost of reading checkpointed state and
// re-dispatching it to a surviving board.
inline constexpr uint32_t kRecoveryCyclesPerWalker = 512;

// Fault schedule and recovery-protocol parameters. The default
// configuration is fully disabled: engines behave bit-identically to a
// build without the reliability subsystem.
struct FaultConfig {
  // Master switch. When false, no fault stream is consulted and no timing
  // or output changes anywhere in the stack.
  bool enabled = false;

  // Seed of the fault schedule; independent of the walk-sampling seed.
  uint64_t seed = 1;

  // Per-DRAM-request fault probabilities (drawn once per Access).
  double dram_correctable_rate = 0.0;
  double dram_uncorrectable_rate = 0.0;
  // Re-issues of a burst after an uncorrectable error before the access
  // is declared failed (the Status-level failure path).
  uint32_t max_dram_retries = 3;

  // Per-message fault probabilities on a network link.
  double link_drop_rate = 0.0;
  double link_corrupt_rate = 0.0;
  // Retransmission protocol: a lost/corrupted message is resent after an
  // ack timeout that grows kRetransmitBackoffShift bits per attempt, at
  // most `max_retransmissions` times before the send is declared failed
  // and the walker recovers from its checkpoint.
  uint32_t max_retransmissions = 8;
  uint32_t retransmit_timeout_cycles = 2048;

  // Whole-board failure schedule: each entry permanently kills one
  // board at the given cycle. Walkers resident on (or migrating to) a
  // dead board are recovered on surviving boards. Boards are local ids
  // covering partition owners and hot spares (ids >= the partition
  // board count name spares), so a schedule can express cascades,
  // death-during-rebuild, and spare exhaustion. Only the first death
  // per board takes effect.
  std::vector<BoardDeath> board_deaths;

  // Opt-in for configurations that knowingly lose walks: a scheduled
  // board death with checkpoint_interval_cycles == 0 drops every
  // in-flight walk on the dead board, so ValidateDistributedConfig
  // rejects that combination unless this is set.
  bool allow_walker_loss = false;

  // Walker-state checkpoint cadence in simulated cycles. Smaller
  // intervals replay fewer steps on recovery but take more checkpoints;
  // 0 disables checkpointing, so a recovering walker's walk is lost
  // (retired truncated and counted).
  uint64_t checkpoint_interval_cycles = 1u << 16;

  // Cycles between a board failure and its detection (heartbeat loss).
  uint32_t detection_latency_cycles = 4096;

  // Durable checkpoint store (inert unless both `enabled` flags are
  // set). Checkpoints are then also written through the CRC32C-framed
  // store and recovery reads them back, falling through corrupt
  // generations with replay-cost accounting.
  CkptStoreConfig ckpt_store;

  // True when any fault source is actually active.
  bool AnyFaultsPossible() const {
    return enabled &&
           (dram_correctable_rate > 0.0 || dram_uncorrectable_rate > 0.0 ||
            link_drop_rate > 0.0 || link_corrupt_rate > 0.0 ||
            !board_deaths.empty());
  }
};

// Structural validation of a fault configuration (rates are
// probabilities, protocol parameters are nonzero where required).
Status ValidateFaultConfig(const FaultConfig& config);

// The effective death schedule: `board_deaths` sorted by (cycle,
// board), with duplicate boards dropped (only the first death of a
// board fires). Empty when fault injection is disabled.
std::vector<BoardDeath> EffectiveBoardDeaths(const FaultConfig& config);

// Every fault, retry, and recovery event, counted. Summed over
// components (DRAM channels, links, boards) into the run stats, the
// metrics registry, and the run report.
struct ReliabilityStats {
  // DRAM ECC.
  uint64_t dram_correctable = 0;
  uint64_t dram_uncorrectable = 0;
  uint64_t dram_retries = 0;          // burst re-issues (both kinds)
  uint64_t dram_failed_accesses = 0;  // retry budget exhausted
  // Network link.
  uint64_t link_dropped = 0;
  uint64_t link_corrupted = 0;
  uint64_t retransmissions = 0;
  uint64_t link_failed_sends = 0;  // retransmission budget exhausted
  // Checkpoint / failover.
  uint64_t board_failures = 0;
  uint64_t checkpoints = 0;
  uint64_t walkers_recovered = 0;  // re-dispatched from a checkpoint
  uint64_t walkers_lost = 0;       // no checkpoint to recover from
  uint64_t replayed_steps = 0;     // steps re-executed after a rollback
  uint64_t recovery_cycles = 0;    // detection + re-dispatch cost, summed
  // Walks that could not run to completion (uncorrectable data loss).
  uint64_t walks_failed = 0;
  // Self-healing (hot spares + partition rebuild).
  uint64_t spares_activated = 0;    // spare -> rebuilding transitions
  uint64_t rebuilds_completed = 0;  // rebuilding -> alive (owner transfer)
  uint64_t rebuilds_aborted = 0;    // spare died mid-rebuild
  uint64_t spare_exhaustions = 0;   // death with no spare left (degraded)
  uint64_t rebuild_cycles = 0;      // activation -> ownership transfer
  // Durable checkpoint store (see reliability/ckpt_store.h). Writes are
  // logical records; reads count every record examined during recovery
  // (generation fallback re-reads are separate records).
  uint64_t ckpt_store_writes = 0;
  uint64_t ckpt_store_reads = 0;
  uint64_t ckpt_bytes_written = 0;   // replicas included
  uint64_t ckpt_bytes_read = 0;
  uint64_t ckpt_crc_failures = 0;    // records rejected by frame/CRC checks
  uint64_t ckpt_fallbacks = 0;       // reads served by an older generation
  uint64_t ckpt_unrecoverable = 0;   // reads with no validating generation
  uint64_t ckpt_scrub_records = 0;   // records revalidated by the scrubber
  uint64_t ckpt_scrub_repairs = 0;   // corrupt replicas rebuilt from a peer
  uint64_t ckpt_torn_writes = 0;     // injected: staged write torn short
  uint64_t ckpt_bit_rot = 0;         // injected: latent single-bit decay
  uint64_t ckpt_stale_publishes = 0; // injected: publish silently lost
  // Ground-truth corruption ledger: every injected corruption must end
  // up detected (CRC-rejected at read or scrub) or latent (never
  // consulted, counted at drop/audit time); a silent accept is a
  // validation hole and fails the chaos campaign.
  uint64_t ckpt_corrupt_detected = 0;
  uint64_t ckpt_latent_corrupt = 0;
  uint64_t ckpt_silent_accepts = 0;

  uint64_t FaultsInjected() const {
    return dram_correctable + dram_uncorrectable + link_dropped +
           link_corrupted + board_failures;
  }
  bool Any() const {
    return FaultsInjected() + checkpoints + walkers_recovered +
               walkers_lost + walks_failed + spares_activated +
               spare_exhaustions + ckpt_store_writes + ckpt_crc_failures !=
           0;
  }
  void Accumulate(const ReliabilityStats& other);
};

// Non-OK when the run lost data (failed walks or unrecovered walkers);
// the CLI surfaces this as a non-zero exit with a one-line diagnostic.
Status ReliabilityStatus(const ReliabilityStats& stats);

// Publishes `stats` into `metrics` under "reliability.*" names with the
// given label set (e.g. {{"board", "2"}}). No-op when metrics is null.
void PublishReliabilityMetrics(obs::MetricsRegistry* metrics,
                               const ReliabilityStats& stats,
                               const std::vector<std::pair<
                                   std::string, std::string>>& labels);

// One component's deterministic fault stream: a private PRNG sequence
// keyed on (config.seed, component_id). Components draw in their own
// deterministic order (one draw per DRAM access / link message), so the
// schedule is reproducible and independent across components.
class FaultStream {
 public:
  // Disabled stream: every draw returns kNone without consuming state.
  FaultStream() = default;
  FaultStream(const FaultConfig& config, uint64_t component_id);

  bool enabled() const { return enabled_; }
  const FaultConfig& config() const { return config_; }

  // Draws the fault outcome of the next DRAM request.
  DramFault NextDramFault();
  // True when NextDramFault consumes draws: the stream is enabled and a
  // DRAM ECC rate is above 0. Otherwise every draw returns kNone.
  bool DrawsDramFaults() const {
    return enabled_ &&
           config_.dram_correctable_rate + config_.dram_uncorrectable_rate >
               0.0;
  }
  // Draws the fault outcome of the next link message.
  LinkFault NextLinkFault();

  // Storage fault draws for the checkpoint store (rates come from
  // config.ckpt_store; a zero rate returns false without consuming
  // state, matching the DRAM/link draw contract). The store calls them
  // in a fixed per-write order, so the schedule is reproducible.
  bool NextTornWrite();
  bool NextStalePublish();
  // Latent decay of a `bytes`-byte record: one Bernoulli draw of
  // min(1, bit_rot_per_byte * bytes). The linear approximation keeps
  // the draw free of transcendental libm calls, whose last-bit results
  // are not pinned down across toolchains.
  bool NextBitRot(uint64_t bytes);
  // Seeded position in [0, bound) for torn-write offsets and rotten
  // bits; consumes one draw (only called after a fault fired).
  uint64_t NextPosition(uint64_t bound);

  uint64_t draws() const { return draws_; }

 private:
  FaultConfig config_;
  bool enabled_ = false;
  rng::Xoshiro256StarStar gen_{0};
  uint64_t draws_ = 0;
};

}  // namespace lightrw::reliability

#endif  // LIGHTRW_RELIABILITY_FAULT_INJECTOR_H_
