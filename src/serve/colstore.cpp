#include "serve/colstore.hpp"

#include <cstdio>
#include <cstring>
#include <unistd.h>

#include "util/error.hpp"
#include "util/jsonl.hpp"
#include "util/strings.hpp"

namespace rotsv {
namespace {

constexpr uint32_t kFileMagic = 0x31534352;   // "RCS1"
constexpr uint32_t kBlockMagic = 0x314B4C42;  // "BLK1"
constexpr uint32_t kFooterMagic = 0x31525446; // "FTR1"
constexpr uint32_t kVersion = 1;
constexpr uint32_t kMaxFingerprint = 64 * 1024;
constexpr uint32_t kMaxBlockPayload = 256u * 1024u * 1024u;
constexpr uint32_t kMaxFooterBlocks = 16u * 1024u * 1024u;
constexpr uint8_t kMaxFailureKind =
    static_cast<uint8_t>(FailureKind::kIoError);

// --- little-endian byte-string builders / cursor -----------------------------

void put_u8(std::string* out, uint8_t v) { out->push_back(static_cast<char>(v)); }

void put_u16(std::string* out, uint16_t v) {
  put_u8(out, static_cast<uint8_t>(v & 0xff));
  put_u8(out, static_cast<uint8_t>(v >> 8));
}

void put_u32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) put_u8(out, static_cast<uint8_t>(v >> (8 * i)));
}

void put_u64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) put_u8(out, static_cast<uint8_t>(v >> (8 * i)));
}

void put_i32(std::string* out, int32_t v) {
  put_u32(out, static_cast<uint32_t>(v));
}

void put_f64(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

/// Bounds-checked reader over a decoded payload. Out-of-bounds reads throw
/// ConfigError, which the block scanner turns into a rejected block.
struct Cursor {
  const unsigned char* p;
  size_t size;
  size_t at = 0;

  explicit Cursor(const std::string& data)
      : p(reinterpret_cast<const unsigned char*>(data.data())),
        size(data.size()) {}

  void need(size_t n) const {
    require(at + n <= size, "colstore: block payload truncated");
  }
  uint8_t u8() {
    need(1);
    return p[at++];
  }
  uint16_t u16() {
    need(2);
    uint16_t v = static_cast<uint16_t>(p[at] | (p[at + 1] << 8));
    at += 2;
    return v;
  }
  uint32_t u32() {
    need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[at + i]) << (8 * i);
    at += 4;
    return v;
  }
  uint64_t u64() {
    need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[at + i]) << (8 * i);
    at += 8;
    return v;
  }
  int32_t i32() { return static_cast<int32_t>(u32()); }
  double f64() {
    const uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string bytes(size_t n) {
    need(n);
    std::string out(reinterpret_cast<const char*>(p + at), n);
    at += n;
    return out;
  }
};

uint8_t truth_code(TsvFaultType t) {
  switch (t) {
    case TsvFaultType::kNone: return 0;
    case TsvFaultType::kResistiveOpen: return 1;
    case TsvFaultType::kLeakage: return 2;
  }
  return 0;
}

TsvFaultType truth_from_code(uint8_t code) {
  switch (code) {
    case 0: return TsvFaultType::kNone;
    case 1: return TsvFaultType::kResistiveOpen;
    case 2: return TsvFaultType::kLeakage;
  }
  throw ConfigError(format("colstore: bad truth code %u", code));
}

std::string encode_header(const std::string& fingerprint, int tsv_width) {
  std::string out;
  put_u32(&out, kFileMagic);
  put_u32(&out, kVersion);
  put_u32(&out, static_cast<uint32_t>(tsv_width));
  put_u32(&out, static_cast<uint32_t>(fingerprint.size()));
  out += fingerprint;
  put_u32(&out, jsonl_crc32(out));
  return out;
}

/// Serializes one block (header + columnar payload + CRC).
std::string encode_block(const std::vector<DieResult>& records, int tsv_width) {
  std::string payload;
  const size_t n = records.size();
  payload.reserve(n * (4 * 4 + 4 + 2 + 4 + 8 * 2 + 8 +
                       static_cast<size_t>(tsv_width) + 4) + 4);
  for (const DieResult& r : records) put_i32(&payload, r.die);
  for (const DieResult& r : records) put_i32(&payload, r.wafer);
  for (const DieResult& r : records) put_i32(&payload, r.row);
  for (const DieResult& r : records) put_i32(&payload, r.col);
  for (const DieResult& r : records) {
    put_u8(&payload, static_cast<uint8_t>(verdict_code(r.verdict)));
  }
  for (const DieResult& r : records) put_u8(&payload, truth_code(r.truth));
  for (const DieResult& r : records) put_u8(&payload, r.defective ? 1 : 0);
  for (const DieResult& r : records) {
    put_u8(&payload, static_cast<uint8_t>(r.failure.kind));
  }
  for (const DieResult& r : records) {
    put_u16(&payload, static_cast<uint16_t>(r.attempts));
  }
  for (const DieResult& r : records) put_i32(&payload, r.failure.tsv);
  for (const DieResult& r : records) put_u64(&payload, r.sim_steps);
  for (const DieResult& r : records) put_u64(&payload, r.early_exits);
  for (const DieResult& r : records) put_f64(&payload, r.seconds);
  for (const DieResult& r : records) {
    require(static_cast<int>(r.tsv_verdicts.size()) == tsv_width,
            format("colstore: die %d has %zu TSV verdicts, store width is %d",
                   r.die, r.tsv_verdicts.size(), tsv_width));
    payload += r.tsv_verdicts;
  }
  // Failure-message string pool: offsets then bytes. Clean dice contribute
  // zero-length entries, so a defect-free block costs 4 bytes per record.
  uint32_t off = 0;
  for (const DieResult& r : records) {
    put_u32(&payload, off);
    off += static_cast<uint32_t>(r.failure.message.size());
  }
  put_u32(&payload, off);
  for (const DieResult& r : records) payload += r.failure.message;

  std::string out;
  put_u32(&out, kBlockMagic);
  put_u32(&out, static_cast<uint32_t>(n));
  put_u32(&out, static_cast<uint32_t>(payload.size()));
  out += payload;
  put_u32(&out, jsonl_crc32(payload));
  return out;
}

/// Decodes one CRC-verified block payload. Throws ConfigError on any
/// internal inconsistency (caller rejects the block).
std::vector<DieResult> decode_block(const std::string& payload, uint32_t n,
                                    int tsv_width) {
  Cursor cur(payload);
  std::vector<DieResult> records(n);
  for (auto& r : records) r.die = cur.i32();
  for (auto& r : records) r.wafer = cur.i32();
  for (auto& r : records) r.row = cur.i32();
  for (auto& r : records) r.col = cur.i32();
  for (auto& r : records) {
    r.verdict = verdict_from_code(static_cast<char>(cur.u8()));
  }
  for (auto& r : records) r.truth = truth_from_code(cur.u8());
  for (auto& r : records) r.defective = cur.u8() != 0;
  std::vector<uint8_t> fail_kinds(n);
  for (auto& k : fail_kinds) {
    k = cur.u8();
    require(k <= kMaxFailureKind, "colstore: bad failure-kind code");
  }
  for (auto& r : records) r.attempts = cur.u16();
  std::vector<int32_t> fail_tsvs(n);
  for (auto& t : fail_tsvs) t = cur.i32();
  for (auto& r : records) r.sim_steps = cur.u64();
  for (auto& r : records) r.early_exits = cur.u64();
  for (auto& r : records) r.seconds = cur.f64();
  for (auto& r : records) {
    r.tsv_verdicts = cur.bytes(static_cast<size_t>(tsv_width));
    for (char c : r.tsv_verdicts) verdict_from_code(c);  // validate
  }
  std::vector<uint32_t> offsets(n + 1);
  for (auto& o : offsets) o = cur.u32();
  const std::string pool = cur.bytes(offsets[n]);
  require(cur.at == cur.size, "colstore: trailing bytes in block payload");
  for (uint32_t i = 0; i < n; ++i) {
    require(offsets[i] <= offsets[i + 1], "colstore: string pool misordered");
    // Mirror the JSONL codec: failure fields only exist when a kind does.
    if (fail_kinds[i] != 0) {
      records[i].failure.kind = static_cast<FailureKind>(fail_kinds[i]);
      records[i].failure.message =
          pool.substr(offsets[i], offsets[i + 1] - offsets[i]);
      records[i].failure.tsv = fail_tsvs[i];
      records[i].failure.attempts = records[i].attempts;
    }
  }
  return records;
}

std::string encode_footer(
    const std::vector<std::pair<uint64_t, uint32_t>>& index) {
  std::string out;
  put_u32(&out, kFooterMagic);
  put_u32(&out, static_cast<uint32_t>(index.size()));
  for (const auto& [offset, count] : index) {
    put_u64(&out, offset);
    put_u32(&out, count);
  }
  put_u32(&out, jsonl_crc32(out));
  return out;
}

bool read_chunk(std::FILE* f, std::string* out, size_t n) {
  out->resize(n);
  const size_t got = std::fread(out->data(), 1, n, f);
  out->resize(got);
  return got == n;
}

struct ScanOutcome {
  std::string fingerprint;
  int tsv_width = 0;
  uint64_t valid_end = 0;  ///< file offset just past the last valid block
  std::vector<std::pair<uint64_t, uint32_t>> block_index;
  ColStoreStats stats;
};

/// Shared scan core: header, then CRC-checked blocks, then (optionally) the
/// footer. Valid records stream through `visit` one block at a time.
ScanOutcome scan_file(std::FILE* f, const std::string& path,
                      const std::function<void(const DieResult&)>& visit) {
  ScanOutcome out;

  // --- header ---------------------------------------------------------------
  std::string fixed;
  if (!read_chunk(f, &fixed, 16)) {
    throw IoError(format("colstore: '%s' has no valid header", path.c_str()));
  }
  Cursor head(fixed);
  require(head.u32() == kFileMagic,
          format("colstore: '%s' is not a colstore file", path.c_str()));
  require(head.u32() == kVersion, "colstore: unsupported version");
  out.tsv_width = static_cast<int>(head.u32());
  const uint32_t fp_len = head.u32();
  require(fp_len <= kMaxFingerprint, "colstore: fingerprint length corrupt");
  std::string fp_and_crc;
  if (!read_chunk(f, &fp_and_crc, fp_len + 4)) {
    throw IoError(format("colstore: '%s' header truncated", path.c_str()));
  }
  out.fingerprint = fp_and_crc.substr(0, fp_len);
  Cursor crc_cur(fp_and_crc);
  crc_cur.at = fp_len;
  const uint32_t stored = crc_cur.u32();
  const uint32_t computed = jsonl_crc32(fixed + out.fingerprint);
  require(stored == computed,
          format("colstore: '%s' header CRC mismatch", path.c_str()));
  out.valid_end = 16 + fp_len + 4;

  // --- blocks ---------------------------------------------------------------
  bool saw_footer = false;
  for (;;) {
    const uint64_t block_start = out.valid_end;
    std::string hdr;
    if (!read_chunk(f, &hdr, 12)) {
      out.stats.torn_bytes += hdr.size();
      break;  // clean EOF (0 bytes) or torn header
    }
    Cursor cur(hdr);
    const uint32_t magic = cur.u32();
    if (magic == kFooterMagic) {
      // hdr holds magic + count + first 4 entry bytes; re-read precisely.
      const uint32_t count = cur.u32();
      bool ok = count <= kMaxFooterBlocks;
      std::string rest;
      if (ok) {
        // 4 bytes of the entry area were already consumed into hdr.
        const size_t want = count * 12u + 4u;  // entries + crc
        ok = want >= 4 && read_chunk(f, &rest, want - 4);
      }
      const std::string footer = hdr + rest;  // named: Cursor keeps a pointer
      if (ok) {
        const std::string body = footer.substr(0, footer.size() - 4);
        Cursor tail(footer);
        tail.at = footer.size() - 4;
        ok = tail.u32() == jsonl_crc32(body);
      }
      if (ok) {
        // Cross-check the index against what the scan itself verified.
        ok = count == out.block_index.size();
        if (ok) {
          Cursor entries(footer);
          entries.at = 8;
          for (uint32_t i = 0; ok && i < count; ++i) {
            ok = entries.u64() == out.block_index[i].first &&
                 entries.u32() == out.block_index[i].second;
          }
        }
        saw_footer = ok;
      }
      if (!saw_footer) {
        out.stats.torn_bytes += hdr.size() + rest.size();
      }
      // Anything after a footer (valid or not) is garbage from a torn
      // append; count it and stop.
      std::string trailing;
      read_chunk(f, &trailing, 1 << 16);
      out.stats.torn_bytes += trailing.size();
      break;
    }
    if (magic != kBlockMagic) {
      out.stats.torn_bytes += hdr.size();
      ++out.stats.dropped_blocks;
      break;
    }
    const uint32_t count = cur.u32();
    const uint32_t payload_bytes = cur.u32();
    if (count == 0 || payload_bytes > kMaxBlockPayload) {
      out.stats.torn_bytes += hdr.size();
      ++out.stats.dropped_blocks;
      break;
    }
    std::string payload_and_crc;
    if (!read_chunk(f, &payload_and_crc, payload_bytes + 4u)) {
      out.stats.torn_bytes += hdr.size() + payload_and_crc.size();
      break;  // torn block write
    }
    const std::string payload = payload_and_crc.substr(0, payload_bytes);
    Cursor bc(payload_and_crc);
    bc.at = payload_bytes;
    if (bc.u32() != jsonl_crc32(payload)) {
      out.stats.torn_bytes += hdr.size() + payload_and_crc.size();
      ++out.stats.dropped_blocks;
      break;  // corrupt: block boundaries beyond here cannot be trusted
    }
    std::vector<DieResult> records;
    try {
      records = decode_block(payload, count, out.tsv_width);
    } catch (const Error&) {
      out.stats.torn_bytes += hdr.size() + payload_and_crc.size();
      ++out.stats.dropped_blocks;
      break;
    }
    for (const DieResult& r : records) visit(r);
    ++out.stats.blocks;
    out.stats.records += records.size();
    out.block_index.emplace_back(block_start, count);
    out.valid_end = block_start + 12u + payload_bytes + 4u;
  }
  out.stats.clean_footer = saw_footer;
  return out;
}

ScanOutcome scan_path(const std::string& path,
                      const std::function<void(const DieResult&)>& visit) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    throw IoError(format("colstore: cannot open '%s'", path.c_str()));
  }
  try {
    ScanOutcome out = scan_file(f, path, visit);
    std::fclose(f);
    return out;
  } catch (...) {
    std::fclose(f);
    throw;
  }
}

}  // namespace

ColStoreStats scan_colstore(const std::string& path,
                            const std::function<void(const DieResult&)>& visit,
                            std::string* fingerprint) {
  ScanOutcome out = scan_path(path, visit);
  if (fingerprint) *fingerprint = std::move(out.fingerprint);
  return out.stats;
}

ColStoreReadResult read_colstore(const std::string& path) {
  ColStoreReadResult result;
  ScanOutcome out = scan_path(
      path, [&](const DieResult& r) { result.records.push_back(r); });
  result.fingerprint = std::move(out.fingerprint);
  result.tsv_width = out.tsv_width;
  result.stats = out.stats;
  return result;
}

ColStoreReadResult read_colstore(const std::string& path,
                                 const CampaignSpec& spec) {
  ColStoreReadResult result = read_colstore(path);
  require_same_campaign(result.fingerprint, spec,
                        format("colstore: '%s'", path.c_str()));
  return result;
}

ColStoreWriter::ColStoreWriter(std::string path, int tsv_width)
    : path_(std::move(path)), tsv_width_(tsv_width) {}

std::unique_ptr<ColStoreWriter> ColStoreWriter::create(
    const std::string& path, const CampaignSpec& spec) {
  std::unique_ptr<ColStoreWriter> writer(
      new ColStoreWriter(path, spec.tsvs_per_die));
  writer->out_ = std::fopen(path.c_str(), "wb");
  if (!writer->out_) {
    throw IoError(format("colstore: cannot create '%s'", path.c_str()));
  }
  const std::string header = encode_header(spec.fingerprint(), spec.tsvs_per_die);
  if (std::fwrite(header.data(), 1, header.size(), writer->out_) !=
          header.size() ||
      std::fflush(writer->out_) != 0) {
    throw IoError(format("colstore: header write to '%s' failed", path.c_str()));
  }
  return writer;
}

std::unique_ptr<ColStoreWriter> ColStoreWriter::open_append(
    const std::string& path, const CampaignSpec& spec,
    ColStoreReadResult* recovered) {
  ColStoreReadResult scratch;
  ColStoreReadResult* result = recovered ? recovered : &scratch;
  *result = ColStoreReadResult{};
  ScanOutcome out = scan_path(
      path, [&](const DieResult& r) { result->records.push_back(r); });
  result->fingerprint = out.fingerprint;
  result->tsv_width = out.tsv_width;
  result->stats = out.stats;
  require_same_campaign(out.fingerprint, spec,
                        format("colstore: '%s'", path.c_str()));

  std::unique_ptr<ColStoreWriter> writer(
      new ColStoreWriter(path, spec.tsvs_per_die));
  writer->out_ = std::fopen(path.c_str(), "rb+");
  if (!writer->out_) {
    throw IoError(format("colstore: cannot open '%s' for append", path.c_str()));
  }
  // Truncate the torn tail and any previous footer: new blocks append on a
  // clean block boundary and finish() writes a fresh, complete index.
  if (::ftruncate(::fileno(writer->out_),
                  static_cast<off_t>(out.valid_end)) != 0) {
    throw IoError(format("colstore: truncate('%s') failed", path.c_str()));
  }
  if (std::fseek(writer->out_, 0, SEEK_END) != 0) {
    throw IoError(format("colstore: seek('%s') failed", path.c_str()));
  }
  writer->block_index_ = std::move(out.block_index);
  return writer;
}

ColStoreWriter::~ColStoreWriter() {
  try {
    finish();
  } catch (...) {
    // Destructor must not throw; an unfinished file is still readable.
  }
  if (out_) std::fclose(out_);
}

void ColStoreWriter::append(const DieResult& result) {
  std::lock_guard<std::mutex> lock(mutex_);
  require(!finished_, "colstore: append after finish()");
  require(static_cast<int>(result.tsv_verdicts.size()) == tsv_width_,
          "colstore: per-TSV verdict width does not match the store");
  pending_.push_back(result);
  if (static_cast<int>(pending_.size()) >= kBlockRecords) flush_block_locked();
}

void ColStoreWriter::flush_block_locked() {
  if (pending_.empty()) return;
  const long at = std::ftell(out_);
  if (at < 0) throw IoError(format("colstore: ftell('%s') failed", path_.c_str()));
  const std::string block = encode_block(pending_, tsv_width_);
  if (std::fwrite(block.data(), 1, block.size(), out_) != block.size() ||
      std::fflush(out_) != 0) {
    throw IoError(format("colstore: block write to '%s' failed", path_.c_str()));
  }
  block_index_.emplace_back(static_cast<uint64_t>(at),
                            static_cast<uint32_t>(pending_.size()));
  pending_.clear();
}

void ColStoreWriter::sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  require(!finished_, "colstore: sync after finish()");
  flush_block_locked();
  if (::fsync(::fileno(out_)) != 0) {
    throw IoError(format("colstore: fsync('%s') failed", path_.c_str()));
  }
}

void ColStoreWriter::write_footer_locked() {
  const std::string footer = encode_footer(block_index_);
  if (std::fwrite(footer.data(), 1, footer.size(), out_) != footer.size() ||
      std::fflush(out_) != 0) {
    throw IoError(format("colstore: footer write to '%s' failed", path_.c_str()));
  }
  if (::fsync(::fileno(out_)) != 0) {
    throw IoError(format("colstore: fsync('%s') failed", path_.c_str()));
  }
}

void ColStoreWriter::finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finished_ || !out_) return;
  flush_block_locked();
  write_footer_locked();
  finished_ = true;
}

size_t export_colstore_to_jsonl(const std::string& colstore_path,
                                const std::string& jsonl_path,
                                const CampaignSpec& spec) {
  auto store = CampaignResultStore::create(jsonl_path, spec);
  size_t count = 0;
  std::string fingerprint;
  scan_colstore(colstore_path,
                [&](const DieResult& r) {
                  store->append(r);
                  ++count;
                },
                &fingerprint);
  require_same_campaign(fingerprint, spec,
                        format("colstore: '%s'", colstore_path.c_str()));
  store->sync();
  return count;
}

size_t import_jsonl_to_colstore(const std::string& jsonl_path,
                                const std::string& colstore_path,
                                const CampaignSpec& spec) {
  const ResumeState state = load_resume_state(jsonl_path, spec);
  auto writer = ColStoreWriter::create(colstore_path, spec);
  for (const DieResult& r : state.completed) writer->append(r);
  writer->finish();
  return state.completed.size();
}

}  // namespace rotsv
