#include "reliability/ckpt_store.h"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

#include "common/check.h"

namespace lightrw::reliability {

namespace {

constexpr uint32_t kCkptMagic = 0x4B43574Cu;  // "LWCK" little-endian
constexpr uint8_t kCkptCodecVersion = 1;
// frame_len covers: magic(4) + version(1) + header(40) + crc(4), where
// the header is three u64 fields plus four u32 fields.
constexpr uint32_t kFrameLen = 4 + 1 + 40 + 4;
constexpr size_t kEncodedSize = 4 + kFrameLen;  // plus the length prefix

// Castagnoli polynomial (reflected).
constexpr uint32_t kCrc32cPoly = 0x82F63B78u;

std::array<uint32_t, 256> MakeCrc32cTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kCrc32cPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}

uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         static_cast<uint64_t>(GetU32(p + 4)) << 32;
}

}  // namespace

uint32_t Crc32c(const uint8_t* data, size_t len) {
  static const std::array<uint32_t, 256> kTable = MakeCrc32cTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ kTable[(crc ^ data[i]) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> EncodeCkptRecord(const CkptRecord& record) {
  std::vector<uint8_t> out;
  out.reserve(kEncodedSize);
  PutU32(&out, kFrameLen);
  PutU32(&out, kCkptMagic);
  out.push_back(kCkptCodecVersion);
  PutU64(&out, record.ticket);
  PutU64(&out, record.generation);
  PutU64(&out, record.cycle);
  PutU32(&out, record.step);
  PutU32(&out, record.curr);
  PutU32(&out, record.prev);
  PutU32(&out, record.path_len);
  // Seal: the CRC covers everything after the length prefix, so a torn
  // tail, a flipped header bit, and a tampered length field all fail
  // validation the same way.
  PutU32(&out, Crc32c(out.data() + 4, out.size() - 4));
  return out;
}

StatusOr<CkptRecord> DecodeCkptRecord(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < 4) {
    return InvalidArgumentError("ckpt record shorter than its length prefix");
  }
  const uint32_t frame_len = GetU32(bytes.data());
  if (frame_len != kFrameLen || bytes.size() != kEncodedSize) {
    return InvalidArgumentError(
        "ckpt record frame length mismatch (torn or truncated write)");
  }
  const uint8_t* frame = bytes.data() + 4;
  const uint32_t want_crc = GetU32(frame + kFrameLen - 4);
  if (Crc32c(frame, kFrameLen - 4) != want_crc) {
    return InvalidArgumentError("ckpt record CRC32C mismatch");
  }
  if (GetU32(frame) != kCkptMagic) {
    return InvalidArgumentError("ckpt record magic mismatch");
  }
  if (frame[4] != kCkptCodecVersion) {
    return InvalidArgumentError(
        "ckpt record codec version " + std::to_string(frame[4]) +
        " unsupported");
  }
  const uint8_t* h = frame + 5;
  CkptRecord record;
  record.ticket = GetU64(h);
  record.generation = GetU64(h + 8);
  record.cycle = GetU64(h + 16);
  record.step = GetU32(h + 24);
  record.curr = GetU32(h + 28);
  record.prev = GetU32(h + 32);
  record.path_len = GetU32(h + 36);
  return record;
}

CkptStore::CkptStore(const FaultConfig& faults, uint64_t component_id)
    : config_(faults.ckpt_store), faults_(faults, component_id) {
  LIGHTRW_CHECK(config_.enabled);
}

CkptStore::WriteResult CkptStore::Write(CkptRecord record) {
  Chain& chain = chains_[record.ticket];
  record.generation = chain.next_generation++;
  const std::vector<uint8_t> bytes = EncodeCkptRecord(record);

  WriteResult result;
  result.generation = record.generation;
  result.latency_cycles = config_.write_latency_cycles;
  ++stats_.ckpt_store_writes;
  stats_.ckpt_bytes_written +=
      static_cast<uint64_t>(bytes.size()) * config_.num_replicas;

  // Publish step: a stale publish loses the whole sealed generation —
  // the previous one silently stays newest, so a later recovery replays
  // from further back. The generation number is still consumed (the
  // write was acknowledged before the marker was lost).
  if (faults_.NextStalePublish()) {
    ++stats_.ckpt_stale_publishes;
  } else {
    Generation gen;
    gen.generation = record.generation;
    gen.replicas.resize(config_.num_replicas);
    for (Replica& replica : gen.replicas) {
      replica.bytes = bytes;
      // Staged write: a torn replica stops at a seeded offset (the
      // publish marker landed anyway — classic write reordering).
      if (faults_.NextTornWrite()) {
        const uint64_t cut =
            1 + faults_.NextPosition(replica.bytes.size() - 1);
        replica.bytes.resize(static_cast<size_t>(cut));
        replica.corrupt = true;
        ++stats_.ckpt_torn_writes;
      } else if (faults_.NextBitRot(replica.bytes.size())) {
        // Latent decay, latched at write time and surfaced at the next
        // validation: one seeded bit flips.
        const uint64_t bit =
            faults_.NextPosition(replica.bytes.size() * 8);
        replica.bytes[static_cast<size_t>(bit / 8)] ^=
            static_cast<uint8_t>(1u << (bit % 8));
        replica.corrupt = true;
        ++stats_.ckpt_bit_rot;
      }
      stored_bytes_ += replica.bytes.size();
    }
    chain.generations.push_back(std::move(gen));
  }

  // Bounded retention: drop chain heads past the generation budget,
  // folding their never-detected corruption into the latent ledger.
  while (chain.generations.size() > config_.generations_kept) {
    AuditGeneration(chain.generations.front());
    for (const Replica& replica : chain.generations.front().replicas) {
      stored_bytes_ -= replica.bytes.size();
    }
    chain.generations.erase(chain.generations.begin());
  }
  return result;
}

// Validation verdict bookkeeping shared by Read and Scrub: a rejected
// replica counts a CRC failure and (once) a ground-truth detection; a
// replica that validates while ground-truth corrupt is a silent accept.
void CkptStore::ValidateReplica(uint64_t ticket, Generation& gen,
                                size_t replica, bool scrubbing) {
  Replica& rep = gen.replicas[replica];
  const StatusOr<CkptRecord> decoded = DecodeCkptRecord(rep.bytes);
  const bool valid = decoded.ok() && decoded->ticket == ticket &&
                     decoded->generation == gen.generation;
  if (valid) {
    if (rep.corrupt) {
      ++stats_.ckpt_silent_accepts;  // CRC collision: must never happen
    }
    return;
  }
  ++stats_.ckpt_crc_failures;
  if (rep.corrupt && !rep.detected) {
    rep.detected = true;
    ++stats_.ckpt_corrupt_detected;
  }
  if (scrubbing) {
    // Repair from a validating peer replica of the same generation.
    for (const Replica& peer : gen.replicas) {
      const StatusOr<CkptRecord> peer_decoded = DecodeCkptRecord(peer.bytes);
      if (peer_decoded.ok() && peer_decoded->ticket == ticket &&
          peer_decoded->generation == gen.generation && !peer.corrupt) {
        stored_bytes_ += peer.bytes.size() - rep.bytes.size();
        rep.bytes = peer.bytes;
        rep.corrupt = false;
        ++stats_.ckpt_scrub_repairs;
        return;
      }
    }
  }
}

CkptStore::ReadResult CkptStore::Read(uint64_t ticket) {
  ReadResult result;
  const auto it = chains_.find(ticket);
  if (it == chains_.end() || it->second.generations.empty()) {
    ++stats_.ckpt_unrecoverable;
    return result;
  }
  Chain& chain = it->second;
  const uint64_t newest = chain.generations.back().generation;
  for (size_t g = chain.generations.size(); g-- > 0;) {
    Generation& gen = chain.generations[g];
    for (size_t r = 0; r < gen.replicas.size(); ++r) {
      Replica& rep = gen.replicas[r];
      ++stats_.ckpt_store_reads;
      stats_.ckpt_bytes_read += rep.bytes.size();
      result.latency_cycles += config_.read_latency_cycles;
      const StatusOr<CkptRecord> decoded = DecodeCkptRecord(rep.bytes);
      const bool valid = decoded.ok() && decoded->ticket == ticket &&
                         decoded->generation == gen.generation;
      if (valid) {
        if (rep.corrupt) {
          ++stats_.ckpt_silent_accepts;
        }
        result.found = true;
        result.record = *decoded;
        result.fell_back = gen.generation != newest;
        if (result.fell_back) {
          ++stats_.ckpt_fallbacks;
        }
        return result;
      }
      ++result.crc_failures;
      ++stats_.ckpt_crc_failures;
      if (rep.corrupt && !rep.detected) {
        rep.detected = true;
        ++stats_.ckpt_corrupt_detected;
      }
    }
  }
  ++stats_.ckpt_unrecoverable;
  return result;
}

CkptStore::ScrubResult CkptStore::Scrub(uint64_t budget_bytes) {
  ScrubResult result;
  if (chains_.empty() || budget_bytes == 0) {
    return result;
  }
  uint64_t total_replicas = 0;
  for (const auto& [ticket, chain] : chains_) {
    for (const Generation& gen : chain.generations) {
      total_replicas += gen.replicas.size();
    }
  }
  if (total_replicas == 0) {
    return result;
  }

  // Resume strictly after the cursor, wrapping; visit each replica at
  // most once per call so a large budget cannot loop forever.
  auto it = scrub_cursor_valid_ ? chains_.lower_bound(scrub_ticket_)
                                : chains_.begin();
  size_t gen_index = 0;
  size_t rep_index = 0;
  if (scrub_cursor_valid_ && it != chains_.end() &&
      it->first == scrub_ticket_) {
    // Find the first generation at or past the cursor (chain heads may
    // have been trimmed since the last pass).
    while (gen_index < it->second.generations.size() &&
           it->second.generations[gen_index].generation <
               scrub_generation_) {
      ++gen_index;
    }
    if (gen_index < it->second.generations.size() &&
        it->second.generations[gen_index].generation ==
            scrub_generation_) {
      rep_index = scrub_replica_ + 1;
    }
  }

  uint64_t budget = budget_bytes;
  uint64_t visited = 0;
  while (budget > 0 && visited < total_replicas) {
    if (it == chains_.end()) {
      it = chains_.begin();
      gen_index = 0;
      rep_index = 0;
      continue;
    }
    Chain& chain = it->second;
    if (gen_index >= chain.generations.size()) {
      ++it;
      gen_index = 0;
      rep_index = 0;
      continue;
    }
    Generation& gen = chain.generations[gen_index];
    if (rep_index >= gen.replicas.size()) {
      ++gen_index;
      rep_index = 0;
      continue;
    }
    const uint64_t cost =
        std::max<uint64_t>(1, gen.replicas[rep_index].bytes.size());
    const uint64_t crc_before = stats_.ckpt_crc_failures;
    const uint64_t repairs_before = stats_.ckpt_scrub_repairs;
    ValidateReplica(it->first, gen, rep_index, /*scrubbing=*/true);
    ++stats_.ckpt_scrub_records;
    ++result.records;
    result.crc_failures += stats_.ckpt_crc_failures - crc_before;
    result.repairs += stats_.ckpt_scrub_repairs - repairs_before;
    ++visited;
    budget = budget > cost ? budget - cost : 0;
    scrub_ticket_ = it->first;
    scrub_generation_ = gen.generation;
    scrub_replica_ = static_cast<uint32_t>(rep_index);
    scrub_cursor_valid_ = true;
    ++rep_index;
  }
  return result;
}

void CkptStore::AuditGeneration(const Generation& gen) {
  for (const Replica& replica : gen.replicas) {
    if (replica.corrupt && !replica.detected) {
      ++stats_.ckpt_latent_corrupt;
    }
  }
}

void CkptStore::Drop(uint64_t ticket) {
  const auto it = chains_.find(ticket);
  if (it == chains_.end()) {
    return;
  }
  for (const Generation& gen : it->second.generations) {
    AuditGeneration(gen);
    for (const Replica& replica : gen.replicas) {
      stored_bytes_ -= replica.bytes.size();
    }
  }
  chains_.erase(it);
}

void CkptStore::FinalizeAudit() {
  for (const auto& [ticket, chain] : chains_) {
    for (const Generation& gen : chain.generations) {
      AuditGeneration(gen);
    }
  }
}

bool CkptStore::CorruptReplicaForTest(uint64_t ticket, uint64_t generation,
                                      uint32_t replica, size_t byte_index) {
  const auto it = chains_.find(ticket);
  if (it == chains_.end()) {
    return false;
  }
  for (Generation& gen : it->second.generations) {
    if (gen.generation != generation) {
      continue;
    }
    if (replica >= gen.replicas.size() ||
        byte_index >= gen.replicas[replica].bytes.size()) {
      return false;
    }
    gen.replicas[replica].bytes[byte_index] ^= 0x01;
    return true;
  }
  return false;
}

}  // namespace lightrw::reliability
