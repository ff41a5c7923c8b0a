#include "reliability/chaos.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "baseline/engine.h"
#include "distributed/dist_engine.h"
#include "distributed/partition.h"
#include "obs/span.h"
#include "reliability/membership.h"
#include "rng/rng.h"

namespace lightrw::reliability {

namespace {

// Scenario archetypes, cycled over the campaign by index. Each exercises
// a distinct corner of the membership state machine.
enum Archetype : uint32_t {
  kSingleDeath = 0,
  kCascade = 1,
  kDeathDuringRebuild = 2,
  kSpareExhaustion = 3,
  kEccStorm = 4,
  kLinkLoss = 5,
  kTornWrite = 6,
  kBitRotStorm = 7,
  kAllOwnerLoss = 8,
  kNumArchetypes = 9,
};

const char* ArchetypeName(uint32_t kind) {
  switch (kind) {
    case kSingleDeath:
      return "single-death";
    case kCascade:
      return "cascade";
    case kDeathDuringRebuild:
      return "death-during-rebuild";
    case kSpareExhaustion:
      return "spare-exhaustion";
    case kEccStorm:
      return "ecc-storm";
    case kLinkLoss:
      return "link-loss";
    case kTornWrite:
      return "torn-write";
    case kBitRotStorm:
      return "bit-rot-storm";
    case kAllOwnerLoss:
      return "all-owner-loss";
  }
  return "unknown";
}

std::string TwoDigit(uint32_t n) {
  std::string out = std::to_string(n);
  if (n < 10) out.insert(out.begin(), '0');
  return out;
}

// Stats fields the determinism invariant compares across thread counts.
// Membership is appended as JSON so epoch/cycle/board/state all count.
std::string StatsFingerprint(const distributed::DistributedRunStats& s) {
  const ReliabilityStats& r = s.reliability;
  std::string f;
  for (const uint64_t v :
       {s.cycles, s.queries, s.steps, s.migrations, r.board_failures,
        r.checkpoints, r.walkers_recovered, r.walkers_lost,
        r.replayed_steps, r.walks_failed, r.spares_activated,
        r.rebuilds_completed, r.rebuilds_aborted, r.spare_exhaustions,
        r.rebuild_cycles, r.dram_correctable, r.retransmissions,
        r.ckpt_store_writes, r.ckpt_store_reads, r.ckpt_bytes_written,
        r.ckpt_bytes_read, r.ckpt_crc_failures, r.ckpt_fallbacks,
        r.ckpt_unrecoverable, r.ckpt_scrub_records, r.ckpt_scrub_repairs,
        r.ckpt_torn_writes, r.ckpt_bit_rot, r.ckpt_stale_publishes,
        r.ckpt_corrupt_detected, r.ckpt_latent_corrupt,
        r.ckpt_silent_accepts}) {
    f += std::to_string(v);
    f += '/';
  }
  f += MembershipToJson(s.membership).Dump();
  return f;
}

}  // namespace

Status ValidateChaosConfig(const ChaosConfig& config) {
  if (config.num_scenarios == 0 || config.num_scenarios > 4096) {
    return InvalidArgumentError("num_scenarios must be in [1, 4096]");
  }
  if (config.num_boards < 2) {
    return InvalidArgumentError(
        "chaos campaigns need at least 2 boards (every scenario kills "
        "one)");
  }
  if (config.max_spare_boards > 256) {
    return InvalidArgumentError("max_spare_boards must be <= 256");
  }
  if (config.num_queries == 0 || config.walk_length == 0) {
    return InvalidArgumentError(
        "num_queries and walk_length must be >= 1");
  }
  if (config.thread_counts.empty()) {
    return InvalidArgumentError("thread_counts must not be empty");
  }
  return Status::Ok();
}

distributed::DistributedConfig MakeChaosScenario(const ChaosConfig& config,
                                                 uint32_t index,
                                                 std::string* name) {
  rng::SplitMix64 mix(config.seed ^
                      (0x9e3779b97f4a7c15ULL * (index + 1)));
  const distributed::BoardId boards = config.num_boards;
  distributed::DistributedConfig dc;
  dc.board.num_instances = 1;
  dc.board.seed = mix.Next() | 1;
  dc.replicate_graph = (mix.Next() & 1) != 0;
  dc.num_spare_boards =
      config.max_spare_boards == 0
          ? 0
          : static_cast<uint32_t>(mix.Next() %
                                  (config.max_spare_boards + 1));
  dc.rebuild_bytes_per_cycle =
      16.0 * static_cast<double>(1 + mix.Next() % 4);  // 16..64 B/cycle

  FaultConfig& faults = dc.board.faults;
  faults.enabled = true;
  faults.seed = mix.Next() | 1;
  // Checkpointing always on: the campaign asserts zero lost walkers.
  faults.checkpoint_interval_cycles = 1ull << (11 + mix.Next() % 3);
  faults.detection_latency_cycles = 1024;

  const uint64_t base = 20000 + mix.Next() % 60000;
  const uint64_t burst_gap = 2048 + mix.Next() % 4096;
  const uint32_t first_victim = static_cast<uint32_t>(mix.Next() % boards);
  const uint32_t kind = index % kNumArchetypes;
  switch (kind) {
    case kSingleDeath:
      faults.board_deaths.push_back({base, first_victim});
      break;
    case kCascade: {
      // A timed burst of 2..min(3, boards-1) distinct owner deaths.
      const uint32_t max_kills = std::min<uint32_t>(3, boards - 1);
      const uint32_t kills =
          max_kills <= 2 ? max_kills
                         : 2 + static_cast<uint32_t>(mix.Next() %
                                                     (max_kills - 1));
      for (uint32_t j = 0; j < kills; ++j) {
        faults.board_deaths.push_back(
            {base + j * burst_gap, (first_victim + j) % boards});
      }
      break;
    }
    case kDeathDuringRebuild:
      if (config.max_spare_boards > 0) {
        // Kill an owner, then kill the spare that activates for it
        // (spares activate lowest-id first, so the victim is board
        // `boards`) while the rebuild is still in flight.
        dc.num_spare_boards = std::max<uint32_t>(dc.num_spare_boards, 1);
        faults.board_deaths.push_back({base, first_victim});
        faults.board_deaths.push_back(
            {base + faults.detection_latency_cycles + burst_gap, boards});
      } else {
        faults.board_deaths.push_back({base, first_victim});
      }
      break;
    case kSpareExhaustion: {
      // One more owner death than there are spares; the last death
      // finds the pool empty and the cluster degrades to survivors.
      dc.num_spare_boards =
          std::min<uint32_t>(dc.num_spare_boards, boards - 2);
      const uint32_t kills =
          std::min<uint32_t>(dc.num_spare_boards + 1, boards - 1);
      for (uint32_t j = 0; j < kills; ++j) {
        faults.board_deaths.push_back(
            {base + j * burst_gap, (first_victim + j) % boards});
      }
      break;
    }
    case kEccStorm:
      faults.dram_correctable_rate =
          0.01 + 0.002 * static_cast<double>(mix.Next() % 10);
      faults.board_deaths.push_back({base, first_victim});
      break;
    case kLinkLoss:
      faults.link_drop_rate = 0.005;
      faults.link_corrupt_rate = 0.002;
      faults.board_deaths.push_back({base, first_victim});
      break;
    case kTornWrite:
      // Storage integrity: a meaningful fraction of staged checkpoint
      // writes stop short while the publish marker lands. Recovery must
      // fall back through the generation chain (or the scrubber repair
      // from a peer) — and every torn replica must end up detected or
      // latent, never silently accepted.
      // Deaths land early (unlike the membership archetypes' later
      // window) so recovery reads actually hit the corrupted store
      // while walkers are in flight.
      faults.ckpt_store.enabled = true;
      faults.ckpt_store.torn_write_rate =
          0.15 + 0.05 * static_cast<double>(mix.Next() % 4);
      faults.ckpt_store.scrub_interval_cycles = 1ull << 13;
      faults.ckpt_store.scrub_bytes_per_cycle = 32.0;
      faults.board_deaths.push_back(
          {2000 + mix.Next() % 6000, first_victim});
      break;
    case kBitRotStorm:
      // Latent single-bit flips at an aggressive per-byte rate, with the
      // scrubber racing to detect and repair them before recovery reads
      // land on the rotten replicas.
      faults.ckpt_store.enabled = true;
      faults.ckpt_store.bit_rot_per_byte =
          0.002 + 0.002 * static_cast<double>(mix.Next() % 5);
      faults.ckpt_store.scrub_interval_cycles = 1ull << 12;
      faults.ckpt_store.scrub_bytes_per_cycle = 128.0;
      {
        const uint64_t early = 2000 + mix.Next() % 6000;
        faults.board_deaths.push_back({early, first_victim});
        if (boards > 2 && (mix.Next() & 1) != 0) {
          faults.board_deaths.push_back(
              {early + burst_gap, (first_victim + 1) % boards});
        }
      }
      break;
    case kAllOwnerLoss:
      // Total owner loss: every partition owner dies in a tight burst
      // (spares are never killed), so for a window no serving board is
      // alive. A spare rebuilds a share from the durable store, parked
      // walkers flush, and the run must still complete with zero lost
      // walkers — the restriction the store exists to lift.
      dc.num_spare_boards = std::max<uint32_t>(dc.num_spare_boards, 1);
      faults.ckpt_store.enabled = true;
      faults.ckpt_store.bit_rot_per_byte = 1e-4;
      faults.ckpt_store.scrub_interval_cycles = 1ull << 12;
      faults.ckpt_store.scrub_bytes_per_cycle = 64.0;
      {
        const uint64_t early = 2000 + mix.Next() % 6000;
        for (uint32_t j = 0; j < boards; ++j) {
          faults.board_deaths.push_back(
              {early + j * (burst_gap / 4), (first_victim + j) % boards});
        }
      }
      break;
    default:
      break;
  }

  if (name != nullptr) {
    // Built with append() rather than chained operator+: GCC 12's
    // -Werror=restrict misfires on the temporary chain.
    name->clear();
    name->append("s");
    name->append(TwoDigit(index));
    name->append("-");
    name->append(ArchetypeName(kind));
    name->append(dc.replicate_graph ? "-repl" : "-part");
    name->append("-spares");
    name->append(std::to_string(dc.num_spare_boards));
  }
  return dc;
}

StatusOr<ChaosCampaignResult> RunChaosCampaign(const graph::CsrGraph& graph,
                                               const apps::WalkApp& app,
                                               const ChaosConfig& config) {
  LIGHTRW_RETURN_IF_ERROR(ValidateChaosConfig(config));
  const distributed::Partition partition = distributed::MakePartition(
      graph, config.num_boards, distributed::PartitionStrategy::kHash);

  ChaosCampaignResult result;
  result.scenarios.reserve(config.num_scenarios);
  for (uint32_t i = 0; i < config.num_scenarios; ++i) {
    ChaosScenarioResult sr;
    sr.index = i;
    const distributed::DistributedConfig scenario =
        MakeChaosScenario(config, i, &sr.name);
    const auto queries = apps::MakeVertexQueries(
        graph, config.walk_length, config.seed + i, config.num_queries);
    const size_t offered = queries.size();

    struct Capture {
      bool ok = false;
      std::string error;
      distributed::DistributedRunStats stats;
      baseline::WalkOutput output;
      std::string span_json;
    };
    std::vector<Capture> runs;
    runs.reserve(config.thread_counts.size());
    for (const uint32_t threads : config.thread_counts) {
      distributed::DistributedConfig run_config = scenario;
      run_config.num_threads = threads;
      obs::SpanRecorder spans;
      run_config.board.spans = &spans;
      Capture cap;
      distributed::DistributedEngine engine(&graph, &app, &partition,
                                            run_config);
      const auto run = engine.Run(queries, &cap.output);
      if (run.ok()) {
        cap.ok = true;
        cap.stats = *run;
        obs::JsonWriter writer(/*indent=*/2);
        writer.BeginObject();
        spans.WriteJsonMembers(&writer);
        writer.Member("membership", MembershipToJson(cap.stats.membership));
        writer.End();
        cap.span_json = writer.Take();
      } else {
        cap.error = run.status().message();
      }
      runs.push_back(std::move(cap));
    }

    const Capture& first = runs.front();
    auto violate = [&sr](std::string what) {
      sr.violations.push_back(std::move(what));
    };
    if (!first.ok) {
      violate("engine: " + first.error);
    } else {
      sr.stats = first.stats;
      // Conservation: every offered query retires with a path.
      if (first.stats.queries != offered ||
          first.output.num_paths() != offered) {
        violate("conservation: offered " + std::to_string(offered) +
                ", retired " + std::to_string(first.stats.queries) +
                ", paths " + std::to_string(first.output.num_paths()));
      }
      // Checkpointing on: nothing may be lost except walkers the
      // durable store provably could not recover (every generation
      // CRC-rejected) — and those must never pass silently.
      const ReliabilityStats& rel = first.stats.reliability;
      if (rel.walkers_lost > rel.ckpt_unrecoverable ||
          rel.walks_failed > rel.walkers_lost) {
        violate("loss: " + std::to_string(rel.walkers_lost) +
                " walker(s) lost, " + std::to_string(rel.walks_failed) +
                " walk(s) failed with checkpointing on (only " +
                std::to_string(rel.ckpt_unrecoverable) +
                " unrecoverable store read(s) can excuse a loss)");
      }
      if (rel.walkers_lost > 0 && ReliabilityStatus(rel).ok()) {
        violate("silent partial data: " +
                std::to_string(rel.walkers_lost) +
                " walker(s) lost but ReliabilityStatus reports OK");
      }
      // Storage-integrity ledger: every injected corruption must be
      // detected or latent, and no corrupt record may validate.
      if (rel.ckpt_silent_accepts != 0) {
        violate("storage: " + std::to_string(rel.ckpt_silent_accepts) +
                " corrupt checkpoint record(s) silently accepted");
      }
      if (rel.ckpt_torn_writes + rel.ckpt_bit_rot !=
          rel.ckpt_corrupt_detected + rel.ckpt_latent_corrupt +
              rel.ckpt_silent_accepts) {
        violate("storage accounting leak: " +
                std::to_string(rel.ckpt_torn_writes) + " torn + " +
                std::to_string(rel.ckpt_bit_rot) + " rotten != " +
                std::to_string(rel.ckpt_corrupt_detected) +
                " detected + " +
                std::to_string(rel.ckpt_latent_corrupt) + " latent + " +
                std::to_string(rel.ckpt_silent_accepts) + " silent");
      }
      // All-owner-loss scenarios exist to prove the store lifts the
      // survivor restriction: the run must complete whole.
      if (sr.name.find("all-owner-loss") != std::string::npos) {
        if (rel.walkers_lost != 0) {
          violate("all-owner-loss: " +
                  std::to_string(rel.walkers_lost) +
                  " walker(s) lost despite the durable store");
        }
        if (rel.rebuilds_completed == 0) {
          violate("all-owner-loss: no rebuild completed (the spare "
                  "never restored a serving board)");
        }
      }
      // Membership log: monotone epochs, legal transitions only.
      const Status membership = CheckMembershipLog(first.stats.membership);
      if (!membership.ok()) {
        violate(membership.message());
      }
      // Accounting: exactly the scheduled distinct deaths fired.
      const size_t scheduled =
          EffectiveBoardDeaths(scenario.board.faults).size();
      if (first.stats.reliability.board_failures != scheduled) {
        violate("accounting: " + std::to_string(scheduled) +
                " death(s) scheduled, " +
                std::to_string(first.stats.reliability.board_failures) +
                " board_failures counted");
      }
    }
    // Determinism: every thread count must reproduce the first run
    // byte-for-byte (walk corpus, stats fingerprint, span JSON).
    for (size_t r = 1; r < runs.size(); ++r) {
      const Capture& other = runs[r];
      const std::string where =
          "threads=" + std::to_string(config.thread_counts[r]);
      if (other.ok != first.ok) {
        violate("determinism: " + where + " run status diverged");
        continue;
      }
      if (!first.ok) {
        continue;
      }
      if (other.output.vertices != first.output.vertices ||
          other.output.offsets != first.output.offsets) {
        violate("determinism: " + where + " walk corpus diverged");
      }
      if (StatsFingerprint(other.stats) != StatsFingerprint(first.stats)) {
        violate("determinism: " + where + " stats fingerprint diverged");
      }
      if (other.span_json != first.span_json) {
        violate("determinism: " + where + " span JSON diverged");
      }
    }

    sr.passed = sr.violations.empty();
    if (!sr.passed) {
      ++result.failures;
    }
    if (i == 0 && first.ok) {
      result.sampled_span_json = first.span_json;
    }
    result.scenarios.push_back(std::move(sr));
  }
  return result;
}

obs::Json ChaosCampaignResult::ToJson() const {
  obs::Json doc = obs::Json::MakeObject();
  doc.Set("num_scenarios", static_cast<uint64_t>(scenarios.size()));
  doc.Set("failures", static_cast<uint64_t>(failures));
  doc.Set("passed", Passed());
  obs::Json rows = obs::Json::MakeArray();
  for (const ChaosScenarioResult& sr : scenarios) {
    obs::Json row = obs::Json::MakeObject();
    row.Set("index", static_cast<uint64_t>(sr.index));
    row.Set("name", sr.name);
    row.Set("passed", sr.passed);
    obs::Json violations = obs::Json::MakeArray();
    for (const std::string& v : sr.violations) {
      violations.Append(v);
    }
    row.Set("violations", std::move(violations));
    const ReliabilityStats& r = sr.stats.reliability;
    row.Set("cycles", sr.stats.cycles);
    row.Set("queries", sr.stats.queries);
    row.Set("board_failures", r.board_failures);
    row.Set("spares_activated", r.spares_activated);
    row.Set("rebuilds_completed", r.rebuilds_completed);
    row.Set("rebuilds_aborted", r.rebuilds_aborted);
    row.Set("spare_exhaustions", r.spare_exhaustions);
    row.Set("walkers_recovered", r.walkers_recovered);
    row.Set("walkers_lost", r.walkers_lost);
    row.Set("ckpt_writes", r.ckpt_store_writes);
    row.Set("ckpt_reads", r.ckpt_store_reads);
    row.Set("ckpt_crc_failures", r.ckpt_crc_failures);
    row.Set("ckpt_fallbacks", r.ckpt_fallbacks);
    row.Set("ckpt_unrecoverable", r.ckpt_unrecoverable);
    row.Set("ckpt_scrub_repairs", r.ckpt_scrub_repairs);
    row.Set("ckpt_torn_writes", r.ckpt_torn_writes);
    row.Set("ckpt_bit_rot", r.ckpt_bit_rot);
    row.Set("ckpt_silent_accepts", r.ckpt_silent_accepts);
    row.Set("membership_epochs",
            static_cast<uint64_t>(sr.stats.membership.size()));
    rows.Append(std::move(row));
  }
  doc.Set("scenarios", std::move(rows));
  return doc;
}

}  // namespace lightrw::reliability
