// Simulated durable checkpoint store with end-to-end integrity.
//
// Walker checkpoints stop being infallible in-memory snapshots here:
// every record is framed by a length-prefixed header+payload codec and
// sealed with a CRC32C, then written replica-by-replica through a
// staged-write -> seal -> publish protocol into a bounded per-walker
// generation chain. Recovery reads walk the chain newest-first and fall
// through CRC-rejected generations (replaying more steps the further
// back they land); a background scrubber revalidates stored bytes at a
// configurable budget and repairs corrupt replicas from a validating
// peer.
//
// The storage fault model is the point of the exercise: torn writes
// (the staged bytes stop at a seeded offset but the publish marker
// lands), bit rot (a latent single-bit flip, drawn per replica write at
// a per-byte rate), and stale publishes (the new generation silently
// never becomes current). All draws come from a deterministic
// FaultStream, so two runs with the same configuration corrupt the same
// bytes — the store is a property-test subject, not a fuzzer.
//
// Ground truth: the store remembers which replicas it corrupted. Every
// injected corruption must end up *detected* (CRC-rejected at read or
// scrub time) or *latent* (never consulted; counted when the record is
// dropped or audited) — and never *silently accepted*. The chaos
// harness machine-checks that ledger:
//
//   torn + rot == detected + latent + silent   and   silent == 0
//
// which CRC32C guarantees for this fault model (it detects all 1- and
// 2-bit errors, and a torn write changes the framed length).

#ifndef LIGHTRW_RELIABILITY_CKPT_STORE_H_
#define LIGHTRW_RELIABILITY_CKPT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "common/status.h"
#include "reliability/fault_injector.h"

namespace lightrw::reliability {

// Software CRC32C (Castagnoli), bytewise table-driven: deterministic
// across hosts, no hardware dependence.
uint32_t Crc32c(const uint8_t* data, size_t len);

// One checkpoint record: a walker's position at a checkpointed step. A
// walker's path is known before it is timed, so a record that validates
// restores the walker by itself: recovery rewinds it to `step` on that
// path (see DESIGN.md "Durable checkpoints").
struct CkptRecord {
  uint64_t ticket = 0;
  uint64_t generation = 0;
  uint64_t cycle = 0;    // simulated cycle of the snapshot
  uint32_t step = 0;     // walk step counter at the snapshot
  uint32_t curr = 0;     // current vertex
  uint32_t prev = 0;     // previous vertex (node2vec state)
  uint32_t path_len = 0; // committed path prefix length

  bool operator==(const CkptRecord& o) const {
    return ticket == o.ticket && generation == o.generation &&
           cycle == o.cycle && step == o.step && curr == o.curr &&
           prev == o.prev && path_len == o.path_len;
  }
};

// Frame layout (little-endian):
//   u32 frame_len   bytes after this field (header + payload + crc)
//   u32 magic       'LWCK'
//   u8  version     kCkptCodecVersion
//   header fields   ticket, generation, cycle (u64); step, curr, prev,
//                   path_len (u32)
//   u32 crc32c      over everything after frame_len
std::vector<uint8_t> EncodeCkptRecord(const CkptRecord& record);

// Bounds-checked decode: returns the record iff the frame parses and the
// CRC validates; a clean InvalidArgument/DataLoss-style error otherwise.
// Never crashes on arbitrary bytes (fuzz-tested).
StatusOr<CkptRecord> DecodeCkptRecord(const std::vector<uint8_t>& bytes);

class CkptStore {
 public:
  // `faults` supplies the seed and the ckpt_store rates; `component_id`
  // keys the store's private fault stream (disjoint from the per-board
  // DRAM/link stream ids).
  CkptStore(const FaultConfig& faults, uint64_t component_id);

  struct WriteResult {
    uint64_t generation = 0;  // generation number assigned
  };
  // Stages, seals, and publishes the next generation of the record's
  // ticket chain across all replicas, injecting storage faults. The
  // record's `generation` field is assigned by the store.
  WriteResult Write(CkptRecord record);

  struct ReadResult {
    bool found = false;        // some generation validated
    CkptRecord record;         // newest validating record
    uint64_t latency_cycles = 0;  // read latency, per record examined
    uint32_t crc_failures = 0;    // records rejected during this read
    bool fell_back = false;       // served by a non-newest generation
  };
  // Recovery read: newest generation first, replicas in order, falling
  // back until a record validates. Not found => the chain is
  // unrecoverable (counted; the caller loses the walker).
  ReadResult Read(uint64_t ticket);

  struct ScrubResult {
    uint64_t records = 0;
    uint64_t crc_failures = 0;
    uint64_t repairs = 0;
  };
  // Revalidates up to `budget_bytes` of stored bytes from the persistent
  // cursor (deterministic chain order, wrapping), repairing corrupt
  // replicas from a validating peer in the same generation. Visits each
  // replica at most once per call.
  ScrubResult Scrub(uint64_t budget_bytes);

  // Retires a walker's chain, folding still-undetected corruption into
  // the latent ledger.
  void Drop(uint64_t ticket);
  // End-of-run audit of every remaining record (call once, at
  // finalize): undetected corruption becomes latent.
  void FinalizeAudit();

  uint64_t stored_bytes() const { return stored_bytes_; }
  const ReliabilityStats& stats() const { return stats_; }

  // Test hook: flips one bit in the given replica's bytes WITHOUT
  // marking it injected-corrupt in the ground-truth ledger (tests
  // manage their own expectations). Returns false if the target does
  // not exist.
  bool CorruptReplicaForTest(uint64_t ticket, uint64_t generation,
                             uint32_t replica, size_t byte_index);

 private:
  struct Replica {
    std::vector<uint8_t> bytes;
    bool corrupt = false;   // ground truth: an injected fault hit this
    bool detected = false;  // ...and a validation has rejected it since
  };
  struct Generation {
    uint64_t generation = 0;
    std::vector<Replica> replicas;
  };
  struct Chain {
    std::vector<Generation> generations;  // oldest first
    uint64_t next_generation = 0;
  };

  void AuditGeneration(const Generation& gen);
  void ValidateReplica(uint64_t ticket, Generation& gen, size_t replica,
                       bool scrubbing);

  const CkptStoreConfig config_;
  FaultStream faults_;
  std::map<uint64_t, Chain> chains_;  // ticket -> generation chain
  uint64_t stored_bytes_ = 0;
  // Scrub cursor: strictly-after position (ticket, generation, replica).
  bool scrub_cursor_valid_ = false;
  uint64_t scrub_ticket_ = 0;
  uint64_t scrub_generation_ = 0;
  uint32_t scrub_replica_ = 0;
  ReliabilityStats stats_;
};

}  // namespace lightrw::reliability

#endif  // LIGHTRW_RELIABILITY_CKPT_STORE_H_
