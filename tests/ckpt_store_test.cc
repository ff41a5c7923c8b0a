// End-to-end integrity properties of the durable checkpoint store:
// codec roundtrip and rejection, newest-first reads with generation
// fallback, scrub repair from a peer replica, bounded retention, the
// storage fault model, and the ground-truth corruption ledger
// (torn + rot == detected + latent + silent, silent == 0).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "reliability/ckpt_store.h"
#include "reliability/fault_injector.h"

namespace lightrw {
namespace {

using reliability::CkptRecord;
using reliability::CkptStore;
using reliability::Crc32c;
using reliability::DecodeCkptRecord;
using reliability::EncodeCkptRecord;
using reliability::FaultConfig;
using reliability::ReliabilityStats;

CkptRecord SampleRecord() {
  CkptRecord record;
  record.ticket = 0x1122334455667788ull;
  record.generation = 7;
  record.cycle = 123456;
  record.step = 42;
  record.curr = 1001;
  record.prev = 999;
  record.path_len = 43;
  return record;
}

FaultConfig StoreFaults() {
  FaultConfig faults;
  faults.enabled = true;
  faults.ckpt_store.enabled = true;
  return faults;
}

TEST(Crc32cTest, MatchesKnownVector) {
  // The canonical CRC32C check value for the ASCII digits "123456789".
  const uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32c(digits, sizeof(digits)), 0xE3069283u);
  EXPECT_EQ(Crc32c(digits, 0), 0u);
}

TEST(CkptCodecTest, RoundTripsEveryField) {
  const CkptRecord record = SampleRecord();
  const auto decoded = DecodeCkptRecord(EncodeCkptRecord(record));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_TRUE(*decoded == record);
}

TEST(CkptCodecTest, RejectsEverySingleBitFlip) {
  // CRC32C at this frame size has Hamming distance > 2, and the length
  // prefix is structurally checked — so no single-bit flip anywhere in
  // the encoding may decode successfully.
  const std::vector<uint8_t> clean = EncodeCkptRecord(SampleRecord());
  for (size_t bit = 0; bit < clean.size() * 8; ++bit) {
    std::vector<uint8_t> bytes = clean;
    bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(DecodeCkptRecord(bytes).ok()) << "bit " << bit;
  }
}

TEST(CkptCodecTest, RejectsEveryTruncation) {
  const std::vector<uint8_t> clean = EncodeCkptRecord(SampleRecord());
  for (size_t len = 0; len < clean.size(); ++len) {
    const std::vector<uint8_t> torn(clean.begin(), clean.begin() + len);
    EXPECT_FALSE(DecodeCkptRecord(torn).ok()) << "length " << len;
  }
}

TEST(CkptStoreTest, ReadServesTheNewestGeneration) {
  CkptStore store(StoreFaults(), /*component_id=*/1);
  CkptRecord record = SampleRecord();
  for (uint32_t i = 0; i < 3; ++i) {
    record.step = 10 * (i + 1);
    const auto wr = store.Write(record);
    EXPECT_EQ(wr.generation, i);
  }
  const auto rr = store.Read(record.ticket);
  ASSERT_TRUE(rr.found);
  EXPECT_EQ(rr.record.generation, 2u);
  EXPECT_EQ(rr.record.step, 30u);
  EXPECT_FALSE(rr.fell_back);
  EXPECT_EQ(rr.crc_failures, 0u);
}

TEST(CkptStoreTest, FallsBackThroughACorruptGeneration) {
  CkptStore store(StoreFaults(), 1);
  CkptRecord record = SampleRecord();
  record.step = 1;
  store.Write(record);
  record.step = 2;
  store.Write(record);
  // Corrupt every replica of the newest generation (1): recovery must
  // fall back to generation 0 after two CRC rejections.
  ASSERT_TRUE(store.CorruptReplicaForTest(record.ticket, 1, 0, 10));
  ASSERT_TRUE(store.CorruptReplicaForTest(record.ticket, 1, 1, 20));
  const auto rr = store.Read(record.ticket);
  ASSERT_TRUE(rr.found);
  EXPECT_TRUE(rr.fell_back);
  EXPECT_EQ(rr.record.generation, 0u);
  EXPECT_EQ(rr.record.step, 1u);
  EXPECT_EQ(rr.crc_failures, 2u);
  EXPECT_EQ(store.stats().ckpt_fallbacks, 1u);
}

TEST(CkptStoreTest, SurvivesOneCorruptReplicaWithoutFallback) {
  CkptStore store(StoreFaults(), 1);
  const CkptRecord record = SampleRecord();
  store.Write(record);
  ASSERT_TRUE(store.CorruptReplicaForTest(record.ticket, 0, 0, 10));
  const auto rr = store.Read(record.ticket);
  ASSERT_TRUE(rr.found);
  EXPECT_FALSE(rr.fell_back);  // peer replica of the same generation
  EXPECT_EQ(rr.crc_failures, 1u);
}

TEST(CkptStoreTest, UnrecoverableWhenEveryGenerationIsCorrupt) {
  CkptStore store(StoreFaults(), 1);
  const CkptRecord record = SampleRecord();
  store.Write(record);
  ASSERT_TRUE(store.CorruptReplicaForTest(record.ticket, 0, 0, 10));
  ASSERT_TRUE(store.CorruptReplicaForTest(record.ticket, 0, 1, 10));
  const auto rr = store.Read(record.ticket);
  EXPECT_FALSE(rr.found);
  EXPECT_EQ(rr.crc_failures, 2u);
  EXPECT_EQ(store.stats().ckpt_unrecoverable, 1u);
  // An unknown ticket is unrecoverable too.
  EXPECT_FALSE(store.Read(404).found);
  EXPECT_EQ(store.stats().ckpt_unrecoverable, 2u);
}

TEST(CkptStoreTest, ScrubRepairsFromAValidatingPeer) {
  CkptStore store(StoreFaults(), 1);
  const CkptRecord record = SampleRecord();
  store.Write(record);
  ASSERT_TRUE(store.CorruptReplicaForTest(record.ticket, 0, 0, 10));
  const auto scrub = store.Scrub(/*budget_bytes=*/1 << 20);
  EXPECT_EQ(scrub.records, 2u);
  EXPECT_EQ(scrub.crc_failures, 1u);
  EXPECT_EQ(scrub.repairs, 1u);
  // The repaired replica validates again: a later read is clean.
  const auto rr = store.Read(record.ticket);
  ASSERT_TRUE(rr.found);
  EXPECT_EQ(rr.crc_failures, 0u);
}

TEST(CkptStoreTest, ScrubCursorHonorsTheByteBudget) {
  CkptStore store(StoreFaults(), 1);
  CkptRecord record = SampleRecord();
  for (uint64_t t = 0; t < 8; ++t) {
    record.ticket = t;
    store.Write(record);
  }
  // 16 replicas stored; a one-byte budget scrubs exactly one replica
  // per call, and the cursor advances so 16 calls cover them all.
  uint64_t records = 0;
  for (int i = 0; i < 16; ++i) {
    records += store.Scrub(1).records;
  }
  EXPECT_EQ(records, 16u);
  EXPECT_EQ(store.stats().ckpt_scrub_records, 16u);
}

TEST(CkptStoreTest, RetentionIsBounded) {
  FaultConfig faults = StoreFaults();
  faults.ckpt_store.generations_kept = 2;
  CkptStore store(faults, 1);
  CkptRecord record = SampleRecord();
  CkptStore::WriteResult wr;
  for (int i = 0; i < 5; ++i) {
    wr = store.Write(record);
  }
  EXPECT_EQ(wr.generation, 4u);
  // 2 generations x 2 replicas x 53 encoded bytes.
  EXPECT_EQ(store.stored_bytes(), 2u * 2u * 53u);
  // The chain keeps generations 3 and 4 only.
  EXPECT_FALSE(store.CorruptReplicaForTest(record.ticket, 2, 0, 0));
  EXPECT_TRUE(store.CorruptReplicaForTest(record.ticket, 3, 0, 0));
}

TEST(CkptStoreTest, TornWritesBalanceTheLedger) {
  FaultConfig faults = StoreFaults();
  faults.ckpt_store.torn_write_rate = 1.0;
  CkptStore store(faults, 1);
  CkptRecord record = SampleRecord();
  for (uint64_t t = 0; t < 4; ++t) {
    record.ticket = t;
    store.Write(record);
  }
  // Every replica of every write is torn: reads find nothing.
  for (uint64_t t = 0; t < 4; ++t) {
    EXPECT_FALSE(store.Read(t).found);
  }
  store.Drop(0);
  store.FinalizeAudit();
  const ReliabilityStats& s = store.stats();
  EXPECT_EQ(s.ckpt_torn_writes, 8u);  // 4 writes x 2 replicas
  EXPECT_EQ(s.ckpt_bit_rot, 0u);
  EXPECT_EQ(s.ckpt_silent_accepts, 0u);
  EXPECT_EQ(s.ckpt_torn_writes + s.ckpt_bit_rot,
            s.ckpt_corrupt_detected + s.ckpt_latent_corrupt +
                s.ckpt_silent_accepts);
  EXPECT_EQ(s.ckpt_corrupt_detected, 8u);  // the reads rejected them all
  EXPECT_EQ(s.ckpt_unrecoverable, 4u);
}

TEST(CkptStoreTest, BitRotBalancesTheLedgerWithoutReads) {
  FaultConfig faults = StoreFaults();
  faults.ckpt_store.bit_rot_per_byte = 1.0;  // every replica rots
  CkptStore store(faults, 1);
  CkptRecord record = SampleRecord();
  for (uint64_t t = 0; t < 3; ++t) {
    record.ticket = t;
    store.Write(record);
  }
  // Never read: the end-of-run audit must still account for every
  // injected flip as latent.
  store.FinalizeAudit();
  const ReliabilityStats& s = store.stats();
  EXPECT_EQ(s.ckpt_bit_rot, 6u);
  EXPECT_EQ(s.ckpt_latent_corrupt, 6u);
  EXPECT_EQ(s.ckpt_corrupt_detected, 0u);
  EXPECT_EQ(s.ckpt_silent_accepts, 0u);
}

TEST(CkptStoreTest, StalePublishLosesTheGeneration) {
  FaultConfig faults = StoreFaults();
  faults.ckpt_store.stale_publish_rate = 1.0;
  CkptStore store(faults, 1);
  const CkptRecord record = SampleRecord();
  store.Write(record);
  store.Write(record);
  EXPECT_EQ(store.stats().ckpt_stale_publishes, 2u);
  EXPECT_EQ(store.stored_bytes(), 0u);
  EXPECT_FALSE(store.Read(record.ticket).found);
}

TEST(CkptStoreTest, TwinStoresAreBitIdentical) {
  FaultConfig faults = StoreFaults();
  faults.ckpt_store.torn_write_rate = 0.3;
  faults.ckpt_store.bit_rot_per_byte = 0.01;
  faults.seed = 99;
  CkptStore a(faults, 7);
  CkptStore b(faults, 7);
  CkptRecord record = SampleRecord();
  for (uint64_t t = 0; t < 32; ++t) {
    record.ticket = t % 5;
    a.Write(record);
    b.Write(record);
  }
  for (uint64_t t = 0; t < 5; ++t) {
    const auto ra = a.Read(t);
    const auto rb = b.Read(t);
    EXPECT_EQ(ra.found, rb.found);
    EXPECT_EQ(ra.crc_failures, rb.crc_failures);
    EXPECT_EQ(ra.fell_back, rb.fell_back);
  }
  a.FinalizeAudit();
  b.FinalizeAudit();
  EXPECT_EQ(a.stats().ckpt_torn_writes, b.stats().ckpt_torn_writes);
  EXPECT_EQ(a.stats().ckpt_bit_rot, b.stats().ckpt_bit_rot);
  EXPECT_EQ(a.stats().ckpt_corrupt_detected,
            b.stats().ckpt_corrupt_detected);
  EXPECT_EQ(a.stored_bytes(), b.stored_bytes());
  // A different component id draws a different schedule.
  CkptStore c(faults, 8);
  for (uint64_t t = 0; t < 32; ++t) {
    record.ticket = t % 5;
    c.Write(record);
  }
  EXPECT_NE(a.stats().ckpt_torn_writes + a.stats().ckpt_bit_rot, 0u);
}

TEST(CkptStoreConfigTest, ValidationAcceptsAndRejects) {
  FaultConfig faults = StoreFaults();
  EXPECT_TRUE(reliability::ValidateFaultConfig(faults).ok());
  faults.ckpt_store.generations_kept = 0;
  EXPECT_FALSE(reliability::ValidateFaultConfig(faults).ok());
  faults = StoreFaults();
  faults.ckpt_store.num_replicas = 0;
  EXPECT_FALSE(reliability::ValidateFaultConfig(faults).ok());
  faults = StoreFaults();
  faults.ckpt_store.torn_write_rate = 1.5;
  EXPECT_FALSE(reliability::ValidateFaultConfig(faults).ok());
  faults = StoreFaults();
  faults.ckpt_store.bit_rot_per_byte = -0.1;
  EXPECT_FALSE(reliability::ValidateFaultConfig(faults).ok());
  faults = StoreFaults();
  faults.ckpt_store.scrub_bytes_per_cycle = 0.0;
  EXPECT_FALSE(reliability::ValidateFaultConfig(faults).ok());
  faults.ckpt_store.scrub_interval_cycles = 0;  // scrubbing off: legal
  EXPECT_TRUE(reliability::ValidateFaultConfig(faults).ok());
}

TEST(CkptStoreConfigTest, ReliabilityStatusNamesUnrecoverableReads) {
  ReliabilityStats stats;
  stats.walkers_lost = 1;
  stats.ckpt_unrecoverable = 1;
  const Status status = reliability::ReliabilityStatus(stats);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("no generation that validates"),
            std::string::npos)
      << status.message();
}

}  // namespace
}  // namespace lightrw
