#include <algorithm>
#include <cmath>
#include <queue>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hwsim/dram.h"
#include "hwsim/fifo.h"
#include "hwsim/slot_events.h"
#include "obs/trace.h"
#include "reliability/fault_injector.h"
#include "rng/rng.h"

namespace lightrw::hwsim {
namespace {

TEST(FifoTest, PushPopOrder) {
  Fifo<int> fifo(4);
  fifo.Push(1);
  fifo.Push(2);
  fifo.Push(3);
  EXPECT_EQ(fifo.size(), 3u);
  EXPECT_EQ(fifo.Pop(), 1);
  EXPECT_EQ(fifo.Pop(), 2);
  EXPECT_EQ(fifo.Front(), 3);
  EXPECT_EQ(fifo.Pop(), 3);
  EXPECT_TRUE(fifo.empty());
}

TEST(FifoTest, CapacityLimits) {
  Fifo<int> fifo(2);
  EXPECT_TRUE(fifo.CanPush());
  fifo.Push(1);
  fifo.Push(2);
  EXPECT_FALSE(fifo.CanPush());
  EXPECT_TRUE(fifo.full());
  fifo.Pop();
  EXPECT_TRUE(fifo.CanPush());
}

TEST(FifoTest, OccupancyStats) {
  Fifo<int> fifo(8);
  for (int i = 0; i < 5; ++i) {
    fifo.Push(i);
  }
  fifo.Pop();
  fifo.Push(9);
  EXPECT_EQ(fifo.total_pushed(), 6u);
  EXPECT_EQ(fifo.max_occupancy(), 5u);
}

TEST(FifoTest, MoveOnlyPayload) {
  Fifo<std::unique_ptr<int>> fifo(1);
  fifo.Push(std::make_unique<int>(42));
  const auto p = fifo.Pop();
  EXPECT_EQ(*p, 42);
}

DramConfig TestConfig() {
  DramConfig config;
  config.clock_hz = 300e6;
  config.bus_bytes = 64;
  config.issue_gap_cycles = 16;
  config.access_latency_cycles = 128;
  config.efficiency = 1.0;  // exact arithmetic in unit tests
  return config;
}

TEST(DramChannelTest, OccupancyShortBurstPaysIssueGap) {
  DramChannel channel(TestConfig());
  EXPECT_EQ(channel.RequestOccupancy(1), 16u);
  EXPECT_EQ(channel.RequestOccupancy(8), 16u);
  EXPECT_EQ(channel.RequestOccupancy(16), 16u);
  EXPECT_EQ(channel.RequestOccupancy(32), 32u);
}

TEST(DramChannelTest, BandwidthMonotonicInBurstLength) {
  DramChannel channel(TestConfig());
  double prev = 0.0;
  for (uint32_t beats = 1; beats <= 64; beats *= 2) {
    const double bw = channel.SteadyStateBandwidth(beats);
    EXPECT_GE(bw, prev);
    prev = bw;
  }
  // Long bursts saturate the bus: 64 B * 300 MHz.
  EXPECT_NEAR(prev, 64.0 * 300e6, 1e-6);
}

TEST(DramChannelTest, PeakBandwidthMatchesPaperWithEfficiency) {
  DramConfig config = TestConfig();
  config.efficiency = 0.915;
  DramChannel channel(config);
  // 0.915 * 64 B * 300 MHz = 17.57 GB/s, the measured peak in Fig. 6.
  EXPECT_NEAR(channel.PeakBandwidth() / 1e9, 17.57, 0.02);
}

TEST(DramChannelTest, AccessReturnsDataAfterLatency) {
  DramChannel channel(TestConfig());
  const Cycle done = channel.Access(/*ready=*/100, /*burst_beats=*/1);
  // issue 100..116, transfer 116..117, +128 latency.
  EXPECT_EQ(done, 100u + 16 + 1 + 128);
}

TEST(DramChannelTest, BackToBackRequestsSerialize) {
  // One bank: the second request's issue waits for the first's issue gap
  // and its transfer waits for the bus.
  DramChannel channel(TestConfig());
  const Cycle first = channel.Access(0, 32);   // issue 0..16, bus 16..48
  const Cycle second = channel.Access(0, 32);  // issue 16..32, bus 48..80
  EXPECT_EQ(first, 48u + 128);
  EXPECT_EQ(second, 80u + 128);
  EXPECT_EQ(channel.busy_until(), 80u);
}

TEST(DramChannelTest, BanksOverlapIssueGaps) {
  DramConfig config = TestConfig();
  config.num_banks = 4;
  DramChannel banked(config);
  DramChannel serial(TestConfig());
  // Four single-beat requests: banked issues them concurrently and is
  // bus-bound; serial pays four full issue gaps.
  Cycle banked_done = 0, serial_done = 0;
  for (int i = 0; i < 4; ++i) {
    banked_done = std::max(banked_done, banked.Access(0, 1));
    serial_done = std::max(serial_done, serial.Access(0, 1));
  }
  EXPECT_LT(banked_done, serial_done);
  EXPECT_EQ(banked_done, 16u + 4 + 128);   // shared bus: 4 beats after gap
  EXPECT_EQ(serial_done, 3u * 16 + 16 + 1 + 128);
}

TEST(DramChannelTest, IdleGapAdvancesStart) {
  DramChannel channel(TestConfig());
  channel.Access(0, 16);  // issue 0..16, bus 16..32
  const Cycle done = channel.Access(1000, 16);
  EXPECT_EQ(done, 1000u + 16 + 16 + 128);
}

TEST(DramChannelTest, StatsAccumulate) {
  DramChannel channel(TestConfig());
  channel.Access(0, 4);
  channel.Access(0, 8);
  channel.ReportUseful(100);
  const DramStats& stats = channel.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.beats, 12u);
  EXPECT_EQ(stats.bytes, 12u * 64);
  EXPECT_EQ(stats.busy_cycles, 12u);  // bus transfer cycles (4 + 8 beats)
  EXPECT_EQ(stats.useful_bytes, 100u);
  channel.ResetStats();
  EXPECT_EQ(channel.stats().requests, 0u);
}

TEST(DramChannelTest, EfficiencyDeratesOccupancy) {
  DramConfig config = TestConfig();
  config.efficiency = 0.5;
  DramChannel channel(config);
  // 32 beats at 50% efficiency occupy 64 cycles.
  EXPECT_EQ(channel.RequestOccupancy(32), 64u);
}

// The channel's timing as a per-request loop over a least-loaded bank
// search: the reference the banked ring and the group call must equal.
class ReferenceChannel {
 public:
  explicit ReferenceChannel(const DramConfig& config)
      : config_(config), banks_(config.num_banks, 0) {}

  Cycle Access(Cycle ready, uint32_t burst_beats) {
    auto bank = std::min_element(banks_.begin(), banks_.end());
    const Cycle issue_done = std::max(ready, *bank) + config_.issue_gap_cycles;
    *bank = issue_done;
    const Cycle transfer_cycles = static_cast<Cycle>(std::llround(
        std::ceil(static_cast<double>(burst_beats) / config_.efficiency)));
    bus_busy_ = std::max(issue_done, bus_busy_) + transfer_cycles;
    ++stats_.requests;
    stats_.beats += burst_beats;
    stats_.bytes += static_cast<uint64_t>(burst_beats) * config_.bus_bytes;
    stats_.busy_cycles += transfer_cycles;
    return bus_busy_ + config_.access_latency_cycles;
  }

  Cycle AccessMany(Cycle ready, uint32_t burst_beats, uint32_t count) {
    Cycle done = ready;
    for (uint32_t i = 0; i < count; ++i) {
      done = std::max(done, Access(ready, burst_beats));
    }
    return done;
  }

  Cycle busy_until() const { return bus_busy_; }
  const DramStats& stats() const { return stats_; }

 private:
  DramConfig config_;
  std::vector<Cycle> banks_;
  Cycle bus_busy_ = 0;
  DramStats stats_;
};

void ExpectSameStats(const DramStats& got, const DramStats& want) {
  EXPECT_EQ(got.requests, want.requests);
  EXPECT_EQ(got.beats, want.beats);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.busy_cycles, want.busy_cycles);
  EXPECT_EQ(got.useful_bytes, want.useful_bytes);
}

TEST(DramChannelTest, AccessManyMatchesPerRequestReference) {
  for (const uint32_t banks : {1u, 2u, 3u, 8u}) {
    for (const double efficiency : {0.915, 1.0, 0.37}) {
      SCOPED_TRACE(testing::Message()
                   << banks << " bank(s), efficiency " << efficiency);
      DramConfig config = TestConfig();
      config.num_banks = banks;
      config.efficiency = efficiency;
      DramChannel channel(config);
      ReferenceChannel reference(config);
      rng::Xoshiro256StarStar gen(banks * 1000 +
                                  static_cast<uint64_t>(efficiency * 100));
      Cycle ready = 0;
      for (int call = 0; call < 400; ++call) {
        // Ready times mostly advance, sometimes go backwards.
        const uint64_t move = gen.NextBounded(400);
        ready = gen.NextBounded(5) == 0 ? ready - std::min(ready, move)
                                        : ready + move / 4;
        const uint32_t beats = 1 + static_cast<uint32_t>(gen.NextBounded(64));
        const uint32_t count = static_cast<uint32_t>(gen.NextBounded(71));
        // Single Access calls run through the same bank ring.
        const bool single = gen.NextBounded(4) == 0;
        const Cycle got = single ? channel.Access(ready, beats)
                                 : channel.AccessMany(ready, beats, count);
        const Cycle want = single ? reference.Access(ready, beats)
                                  : reference.AccessMany(ready, beats, count);
        ASSERT_EQ(got, want) << "call " << call;
        ASSERT_EQ(channel.busy_until(), reference.busy_until());
        ExpectSameStats(channel.stats(), reference.stats());
      }
    }
  }
}

TEST(DramChannelTest, AccessManyDrawsEccFaultsPerRequestInOrder) {
  reliability::FaultConfig faults;
  faults.enabled = true;
  faults.seed = 5;
  faults.dram_correctable_rate = 0.1;
  faults.dram_uncorrectable_rate = 0.1;
  faults.max_dram_retries = 1;
  DramConfig config = TestConfig();
  config.num_banks = 8;
  config.efficiency = 0.915;
  DramChannel grouped(config);
  DramChannel looped(config);
  reliability::FaultStream grouped_faults(faults, /*component_id=*/3);
  reliability::FaultStream looped_faults(faults, /*component_id=*/3);
  reliability::ReliabilityStats grouped_rel;
  reliability::ReliabilityStats looped_rel;
  grouped.AttachFaults(&grouped_faults, &grouped_rel);
  looped.AttachFaults(&looped_faults, &looped_rel);
  rng::Xoshiro256StarStar gen(17);
  Cycle ready = 0;
  uint64_t failures = 0;
  for (int call = 0; call < 300; ++call) {
    ready += gen.NextBounded(200);
    const uint32_t beats = 1 + static_cast<uint32_t>(gen.NextBounded(32));
    const uint32_t count = static_cast<uint32_t>(gen.NextBounded(9));
    const Cycle got = grouped.AccessMany(ready, beats, count);
    Cycle want = ready;
    for (uint32_t i = 0; i < count; ++i) {
      want = std::max(want, looped.Access(ready, beats));
    }
    ASSERT_EQ(got, want) << "call " << call;
    const bool failed = looped.TakeAccessFailure();
    ASSERT_EQ(grouped.TakeAccessFailure(), failed) << "call " << call;
    failures += failed;
  }
  EXPECT_GT(failures, 0u);
  EXPECT_EQ(grouped.busy_until(), looped.busy_until());
  ExpectSameStats(grouped.stats(), looped.stats());
  EXPECT_EQ(grouped_faults.draws(), looped_faults.draws());
  EXPECT_EQ(grouped_rel.dram_correctable, looped_rel.dram_correctable);
  EXPECT_EQ(grouped_rel.dram_uncorrectable, looped_rel.dram_uncorrectable);
  EXPECT_EQ(grouped_rel.dram_retries, looped_rel.dram_retries);
  EXPECT_EQ(grouped_rel.dram_failed_accesses,
            looped_rel.dram_failed_accesses);
  EXPECT_GT(grouped_rel.dram_correctable, 0u);
}

TEST(DramChannelTest, AccessManyRecordsEveryRequestWhileTracing) {
  DramConfig config = TestConfig();
  config.num_banks = 2;
  DramChannel grouped(config);
  DramChannel looped(config);
  obs::TraceRecorder grouped_trace;
  obs::TraceRecorder looped_trace;
  grouped.AttachTrace(&grouped_trace, 1, 4);
  looped.AttachTrace(&looped_trace, 1, 4);
  EXPECT_EQ(grouped.AccessMany(10, 3, 5), [&] {
    Cycle done = 10;
    for (int i = 0; i < 5; ++i) {
      done = std::max(done, looped.Access(10, 3));
    }
    return done;
  }());
  EXPECT_EQ(grouped_trace.num_events(), 5u);
  EXPECT_EQ(grouped_trace.ToJsonString(), looped_trace.ToJsonString());
}

TEST(DramChannelTest, ZeroRateFaultStreamTakesNoDraws) {
  reliability::FaultConfig faults;
  faults.enabled = true;
  faults.link_drop_rate = 0.5;
  reliability::FaultStream stream(faults, 0);
  reliability::ReliabilityStats rel;
  DramChannel channel(TestConfig());
  channel.AttachFaults(&stream, &rel);
  EXPECT_FALSE(stream.DrawsDramFaults());
  channel.AccessMany(0, 4, 6);
  EXPECT_EQ(stream.draws(), 0u);
  EXPECT_EQ(channel.stats().requests, 6u);
}

// The event order a min-heap of (cycle, slot) pairs gives, with a
// cancel that rebuilds the heap without the slot's entry.
class ReferenceSlotEvents {
 public:
  bool empty() const { return heap_.empty(); }
  std::pair<Cycle, size_t> top() const { return heap_.top(); }
  void Set(size_t slot, Cycle at) {
    Cancel(slot);
    heap_.emplace(at, slot);
  }
  void Cancel(size_t slot) {
    std::vector<std::pair<Cycle, size_t>> kept;
    for (; !heap_.empty(); heap_.pop()) {
      if (heap_.top().second != slot) {
        kept.push_back(heap_.top());
      }
    }
    for (const auto& entry : kept) {
      heap_.push(entry);
    }
  }

 private:
  std::priority_queue<std::pair<Cycle, size_t>,
                      std::vector<std::pair<Cycle, size_t>>, std::greater<>>
      heap_;
};

TEST(SlotEventsTest, PopsInHeapOrderUnderRandomScheduleCancelAndPop) {
  for (const size_t slots : {size_t{1}, size_t{2}, size_t{3}, size_t{64},
                             size_t{257}}) {
    SCOPED_TRACE(testing::Message() << slots << " slot(s)");
    SlotEvents events(slots);
    ReferenceSlotEvents reference;
    std::vector<bool> pending(slots, false);
    rng::Xoshiro256StarStar gen(slots);
    Cycle now = 0;
    for (int op = 0; op < 20000; ++op) {
      ASSERT_EQ(events.empty(), reference.empty()) << "op " << op;
      const uint64_t pick = gen.NextBounded(10);
      if (pick < 5 && !reference.empty()) {
        // Run the next event: its handler reschedules the slot (often at
        // the same cycle) or ends it.
        const auto [cycle, slot] = reference.top();
        ASSERT_EQ(events.top_cycle(), cycle) << "op " << op;
        ASSERT_EQ(events.top_slot(), slot) << "op " << op;
        now = cycle;
        if (gen.NextBounded(3) == 0) {
          events.Cancel(slot);
          reference.Cancel(slot);
          pending[slot] = false;
        } else {
          const Cycle at = now + gen.NextBounded(3);
          events.Set(slot, at);
          reference.Set(slot, at);
          pending[slot] = true;
        }
      } else if (pick < 8) {
        // Cycles from a small range, so ties are common.
        const size_t slot = gen.NextBounded(slots);
        const Cycle at = now + gen.NextBounded(4);
        events.Set(slot, at);
        reference.Set(slot, at);
        pending[slot] = true;
      } else {
        const size_t slot = gen.NextBounded(slots);
        events.Cancel(slot);
        reference.Cancel(slot);
        pending[slot] = false;
      }
      const size_t probe = gen.NextBounded(slots);
      ASSERT_EQ(events.pending(probe), pending[probe]) << "op " << op;
    }
  }
}

}  // namespace
}  // namespace lightrw::hwsim
