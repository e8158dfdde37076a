// Unit suite for the serve transport and storage codecs: CRC frame framing,
// the wire codecs (campaign spec, bands, dice, wire errors), and the binary
// columnar result store's durability contract -- JSONL round trip, torn-tail
// truncation at every byte offset, and CRC rejection of bit-rotted blocks.
// No transistor-level simulation: die results here are hand-built fixtures.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <type_traits>
#include <unistd.h>
#include <vector>

#include "campaign/aggregate.hpp"
#include "campaign/campaign_spec.hpp"
#include "campaign/result_store.hpp"
#include "serve/colstore.hpp"
#include "serve/protocol.hpp"
#include "serve/socket.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/framing.hpp"
#include "util/jsonl.hpp"

namespace rotsv {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << content;
}

/// 3x4 grid, 1 TSV/die -- a valid fingerprintable spec, never simulated.
CampaignSpec store_spec() {
  CampaignSpec spec;
  spec.lot_id = "colstore";
  spec.rows = 3;
  spec.cols = 4;
  spec.tester.group_size = 2;
  spec.tester.voltages = {1.1, 0.95};
  spec.seed = 77;
  return spec;
}

DieResult make_die(const CampaignSpec& spec, int row, int col,
                   TsvVerdict verdict) {
  DieResult die;
  die.die = spec.die_index(0, row, col);
  die.row = row;
  die.col = col;
  die.verdict = verdict;
  die.tsv_verdicts = std::string(1, verdict_code(verdict));
  die.sim_steps = 1000 + static_cast<uint64_t>(die.die);
  die.early_exits = 2;
  die.seconds = 0.25;
  return die;
}

std::string record_json(const DieResult& die) {
  return die_result_to_record(die).to_json();
}

// --- framing -----------------------------------------------------------------

TEST(Framing, RoundTripAndCleanEof) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  Frame out;
  out.type = 34;
  out.payload = "{\"die\":7}";
  write_frame(fds[1], out);
  write_frame(fds[1], Frame{5, ""});  // empty payload is legal
  ::close(fds[1]);

  Frame in;
  ASSERT_TRUE(read_frame(fds[0], &in));
  EXPECT_EQ(in.type, 34);
  EXPECT_EQ(in.payload, out.payload);
  ASSERT_TRUE(read_frame(fds[0], &in));
  EXPECT_EQ(in.type, 5);
  EXPECT_TRUE(in.payload.empty());
  // EOF exactly at a frame boundary is a clean end, not an error.
  EXPECT_FALSE(read_frame(fds[0], &in));
  ::close(fds[0]);
}

TEST(Framing, CorruptionIsLoudNotSilent) {
  const std::string good = encode_frame(Frame{1, "hello"});

  {
    // Flip a payload byte: the CRC must catch it.
    std::string bad = good;
    bad[bad.size() - 5] ^= 0x20;
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    write_all(fds[1], bad.data(), bad.size());
    ::close(fds[1]);
    Frame in;
    EXPECT_THROW(read_frame(fds[0], &in), IoError);
    ::close(fds[0]);
  }
  {
    // Kill mid-frame: EOF inside a frame is torn, not clean.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    write_all(fds[1], good.data(), good.size() - 3);
    ::close(fds[1]);
    Frame in;
    EXPECT_THROW(read_frame(fds[0], &in), IoError);
    ::close(fds[0]);
  }
  {
    // Wrong magic: a stray byte stream is rejected at the first header.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::string bad = good;
    bad[0] = 'X';
    write_all(fds[1], bad.data(), bad.size());
    ::close(fds[1]);
    Frame in;
    EXPECT_THROW(read_frame(fds[0], &in), IoError);
    ::close(fds[0]);
  }
}

// --- wire codecs -------------------------------------------------------------

TEST(ServeProtocol, CampaignSpecSurvivesTheWire) {
  CampaignSpec spec = store_spec();
  spec.preset_bands = {{-8.05e-11, 9.95e-11}, {1.0 / 7.0, 2.0 / 7.0}};
  spec.tester.die_budget.max_steps = (1ull << 60) + 3;  // beyond 2^53

  // Every listed field, moved by the smallest step its type allows (one ulp
  // for doubles), changes the fingerprint and survives the wire exactly.
  // Integer fields fed a value outside their type, or a fraction, are
  // refused by key (untrusted submit-job numbers never reach an int cast).
  const JsonRecord good = campaign_spec_to_record(spec);
  size_t entries = 0;
  for (;; ++entries) {
    CampaignSpec moved = spec;
    size_t index = 0;
    std::string key;
    visit_spec_fields(moved, [&](const char* k, auto& v) {
      using T = std::remove_cvref_t<decltype(v)>;
      if (index++ != entries) return;
      key = k;
      if constexpr (std::is_same_v<T, std::string>) {
        v += "x";
      } else if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
        v = static_cast<T>(1 - static_cast<int>(v));
      } else if constexpr (std::is_same_v<T, double>) {
        v = std::nextafter(v, 1e300);
      } else if constexpr (std::is_class_v<T>) {
        v.push_back(v.back());  // the voltage plan and the preset bands
      } else {
        v += 1;
      }
      if constexpr (std::is_enum_v<T> || std::is_same_v<T, int> ||
                    std::is_same_v<T, uint64_t>) {
        for (double bad : {1e300, -1e300, 2.5}) {
          JsonRecord rec = good;
          rec.set(key, bad);
          EXPECT_NE(testutil::config_error([&] { (void)campaign_spec_from_record(rec); })
                        .find("'" + key + "'"),
                    std::string::npos)
              << key << " = " << bad;
        }
      }
    });
    if (key.empty()) break;  // walked past the last entry
    EXPECT_NE(moved.fingerprint(), spec.fingerprint()) << key;
    EXPECT_EQ(campaign_spec_from_record(campaign_spec_to_record(moved))
                  .fingerprint(),
              moved.fingerprint())
        << key;
  }
  EXPECT_EQ(entries, 48u);

  // Thread count is not a verdict setting, but it rides the wire.
  CampaignSpec threaded = spec;
  threaded.threads = spec.threads + 7;
  EXPECT_EQ(threaded.fingerprint(), spec.fingerprint());
  EXPECT_EQ(campaign_spec_from_record(campaign_spec_to_record(threaded)).threads,
            threaded.threads);
  JsonRecord bad_threads = good;
  bad_threads.set("threads", 2.5);
  EXPECT_THROW(campaign_spec_from_record(bad_threads), ConfigError);
}

TEST(ServeProtocol, BandsDiceAndErrorCodecs) {
  const std::vector<std::pair<double, double>> bands = {
      {-1.5e-10, 2.5e-10}, {0.1, 0.2}};
  EXPECT_EQ(bands_from_string(bands_to_string(bands)), bands);
  EXPECT_THROW(bands_from_string("1.0"), Error);
  EXPECT_THROW(bands_from_string("a:b"), Error);

  const CampaignSpec spec = store_spec();
  std::vector<int> dice;
  for (int r = 0; r < spec.rows && dice.size() < 4; ++r) {
    for (int c = 0; c < spec.cols && dice.size() < 4; ++c) {
      if (spec.die_present(r, c)) dice.push_back(spec.die_index(0, r, c));
    }
  }
  ASSERT_EQ(dice.size(), 4u);
  EXPECT_EQ(dice_from_string(dice_to_string(dice), spec), dice);
  // 999 lies outside the 3x4 grid; a shard naming it is corrupt.
  EXPECT_THROW(dice_from_string("999", spec), Error);
  // 2^32 + 1 would wrap to die 1 through an unchecked int cast.
  EXPECT_THROW(dice_from_string("4294967297", spec), Error);

  WireError err;
  err.kind = FailureKind::kStepBudget;
  err.message = "budget gone";
  err.detail = "line one\nline two";
  const WireError back = WireError::from_record(err.to_record());
  EXPECT_EQ(back.kind, err.kind);
  EXPECT_EQ(back.message, err.message);
  EXPECT_EQ(back.detail, err.detail);
}

TEST(ServeProtocol, AddressParsing) {
  const ServeAddress tcp = ServeAddress::parse("127.0.0.1:7209");
  EXPECT_FALSE(tcp.is_unix);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 7209);
  EXPECT_EQ(tcp.describe(), "127.0.0.1:7209");

  const ServeAddress sock = ServeAddress::parse("unix:/tmp/rotsv.sock");
  EXPECT_TRUE(sock.is_unix);
  EXPECT_EQ(sock.path, "/tmp/rotsv.sock");

  EXPECT_THROW(ServeAddress::parse(""), Error);
  EXPECT_THROW(ServeAddress::parse("no-port"), Error);
  EXPECT_THROW(ServeAddress::parse("host:notaport"), Error);
  EXPECT_THROW(ServeAddress::parse("unix:"), Error);
  EXPECT_THROW(ServeAddress::parse("unix:" + std::string(200, 'x')), Error);
}

// --- colstore ----------------------------------------------------------------

std::vector<DieResult> store_fixture(const CampaignSpec& spec) {
  std::vector<DieResult> dice;
  dice.push_back(make_die(spec, 0, 1, TsvVerdict::kPass));
  DieResult leaky = make_die(spec, 0, 2, TsvVerdict::kLeakage);
  leaky.truth = TsvFaultType::kLeakage;
  leaky.defective = true;
  dice.push_back(leaky);
  DieResult quarantined = make_die(spec, 1, 0, TsvVerdict::kInconclusive);
  quarantined.attempts = 3;
  quarantined.failure.kind = FailureKind::kDcNoConvergence;
  quarantined.failure.message = "newton diverged on rung 2";
  quarantined.failure.tsv = 0;
  quarantined.failure.attempts = 3;
  dice.push_back(quarantined);
  return dice;
}

TEST(ColStore, WriteReadRoundTripWithFooter) {
  const CampaignSpec spec = store_spec();
  const std::string path = ::testing::TempDir() + "rotsv_colstore_rt.rcs";
  const std::vector<DieResult> dice = store_fixture(spec);
  {
    auto writer = ColStoreWriter::create(path, spec);
    for (const DieResult& d : dice) writer->append(d);
    writer->finish();
  }
  const ColStoreReadResult result = read_colstore(path, spec);
  EXPECT_EQ(result.fingerprint, spec.fingerprint());
  EXPECT_EQ(result.tsv_width, spec.tsvs_per_die);
  EXPECT_TRUE(result.stats.clean_footer);
  EXPECT_EQ(result.stats.dropped_blocks, 0u);
  EXPECT_EQ(result.stats.torn_bytes, 0u);
  ASSERT_EQ(result.records.size(), dice.size());
  for (size_t i = 0; i < dice.size(); ++i) {
    // Byte-identical through the shared record codec: every field survives.
    EXPECT_EQ(record_json(result.records[i]), record_json(dice[i])) << i;
  }

  // A campaign that differs only in a run setting (`--fast` lowers
  // measure_cycles) cannot read or extend this store; the refusal says why.
  CampaignSpec fast = spec;
  fast.tester.run.measure_cycles = 3;
  const std::string why = "different campaign: tester.run.measure_cycles is 4 there, 3 here";
  EXPECT_NE(testutil::config_error([&] { (void)read_colstore(path, fast); }).find(why),
            std::string::npos);
  EXPECT_NE(testutil::config_error([&] {
              (void)ColStoreWriter::open_append(path, fast, nullptr);
            }).find(why),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(ColStore, JsonlRoundTripLosslessAndSmaller) {
  const CampaignSpec spec = store_spec();
  const std::string jsonl = ::testing::TempDir() + "rotsv_colstore_a.jsonl";
  const std::string rcs = ::testing::TempDir() + "rotsv_colstore_a.rcs";
  const std::string jsonl2 = ::testing::TempDir() + "rotsv_colstore_b.jsonl";
  const std::vector<DieResult> dice = store_fixture(spec);
  {
    auto store = CampaignResultStore::create(jsonl, spec);
    for (const DieResult& d : dice) store->append(d);
    store->sync();
  }
  EXPECT_EQ(import_jsonl_to_colstore(jsonl, rcs, spec), dice.size());
  EXPECT_EQ(export_colstore_to_jsonl(rcs, jsonl2, spec), dice.size());

  // JSONL -> colstore -> JSONL is lossless, record by record.
  const ResumeState before = load_resume_state(jsonl, spec);
  const ResumeState after = load_resume_state(jsonl2, spec);
  ASSERT_EQ(after.completed.size(), before.completed.size());
  for (size_t i = 0; i < before.completed.size(); ++i) {
    EXPECT_EQ(record_json(after.completed[i]), record_json(before.completed[i]));
  }

  // The point of the format: measurably smaller than the text log.
  const size_t jsonl_bytes = read_file(jsonl).size();
  const size_t rcs_bytes = read_file(rcs).size();
  EXPECT_LT(rcs_bytes, jsonl_bytes)
      << "colstore " << rcs_bytes << "B vs JSONL " << jsonl_bytes << "B";

  std::remove(jsonl.c_str());
  std::remove(rcs.c_str());
  std::remove(jsonl2.c_str());
}

TEST(ColStore, TornTailRecoveryAtEveryByteOffset) {
  // Mirror of the JSONL torn-tail chaos test: flush one die per block, then
  // simulate a kill at every byte offset inside the second block (and the
  // footer): the scan must recover exactly block 1, and open_append must
  // truncate the tail so the re-appended die lands cleanly.
  const CampaignSpec spec = store_spec();
  const std::string path = ::testing::TempDir() + "rotsv_colstore_torn.rcs";
  const std::string torn = path + ".torn";
  const std::vector<DieResult> dice = store_fixture(spec);
  size_t block2_start = 0;
  {
    auto writer = ColStoreWriter::create(path, spec);
    writer->append(dice[0]);
    writer->sync();  // block 1
    block2_start = read_file(path).size();
    writer->append(dice[1]);
    writer->finish();  // block 2 + footer
  }
  const std::string full = read_file(path);
  ASSERT_GT(block2_start, 0u);
  ASSERT_LT(block2_start, full.size());
  // finish() wrote block 2 and then the 2-entry footer
  // (magic + count + 2*(u64 offset, u32 count) + crc = 36 bytes).
  const size_t block2_end = full.size() - 36;
  ASSERT_GT(block2_end, block2_start);

  for (size_t cut = block2_start; cut < full.size(); ++cut) {
    write_file(torn, full.substr(0, cut));
    // A cut inside block 2 loses it (recovered on re-screen); a cut at or
    // past its end only loses the footer, so block 2 survives.
    const size_t intact = cut < block2_end ? 1u : 2u;

    ColStoreReadResult recovered;
    {
      auto writer = ColStoreWriter::open_append(torn, spec, &recovered);
      ASSERT_EQ(recovered.records.size(), intact) << "cut at byte " << cut;
      EXPECT_EQ(record_json(recovered.records[0]), record_json(dice[0]));
      EXPECT_FALSE(recovered.stats.clean_footer) << "cut at byte " << cut;
      writer->append(dice[2]);
      writer->finish();
    }
    const ColStoreReadResult after = read_colstore(torn, spec);
    ASSERT_EQ(after.records.size(), intact + 1) << "cut at byte " << cut;
    EXPECT_EQ(record_json(after.records.back()), record_json(dice[2]));
    EXPECT_TRUE(after.stats.clean_footer) << "cut at byte " << cut;
    EXPECT_EQ(after.stats.torn_bytes, 0u);
  }
  std::remove(path.c_str());
  std::remove(torn.c_str());
}

TEST(ColStore, BitRottedBlockIsRejectedNotDecoded) {
  const CampaignSpec spec = store_spec();
  const std::string path = ::testing::TempDir() + "rotsv_colstore_rot.rcs";
  const std::vector<DieResult> dice = store_fixture(spec);
  size_t block1_start = 0;
  {
    auto writer = ColStoreWriter::create(path, spec);
    writer->sync();
    block1_start = read_file(path).size();
    for (const DieResult& d : dice) writer->append(d);
    writer->finish();
  }
  std::string content = read_file(path);
  // Flip one payload byte well inside the single data block.
  content[block1_start + 20] ^= 0x01;
  write_file(path, content);

  const ColStoreReadResult result = read_colstore(path);
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.stats.dropped_blocks, 1u);
  EXPECT_FALSE(result.stats.clean_footer);
  std::remove(path.c_str());
}

TEST(ColStore, StreamingScanMatchesBulkRead) {
  const CampaignSpec spec = store_spec();
  const std::string path = ::testing::TempDir() + "rotsv_colstore_scan.rcs";
  const std::vector<DieResult> dice = store_fixture(spec);
  {
    auto writer = ColStoreWriter::create(path, spec);
    for (const DieResult& d : dice) writer->append(d);
    writer->finish();
  }
  // The streaming visitor + StreamingAggregate path the server uses: fold
  // verdicts straight off disk, never materializing the record set.
  StreamingAggregate agg(spec);
  std::string fingerprint;
  const ColStoreStats stats =
      scan_colstore(path, [&](const DieResult& d) { agg.add(d); },
                    &fingerprint);
  EXPECT_EQ(stats.records, dice.size());
  EXPECT_EQ(fingerprint, spec.fingerprint());
  EXPECT_EQ(agg.aggregate().describe(),
            aggregate_campaign(spec, dice).describe());
  std::remove(path.c_str());
}

TEST(ColStore, AppendAfterCleanFinishResumes) {
  const CampaignSpec spec = store_spec();
  const std::string path = ::testing::TempDir() + "rotsv_colstore_app.rcs";
  const std::vector<DieResult> dice = store_fixture(spec);
  {
    auto writer = ColStoreWriter::create(path, spec);
    writer->append(dice[0]);
    writer->append(dice[1]);
    writer->finish();
  }
  {
    // Reopening a cleanly closed store truncates its footer and appends on
    // the block boundary -- the serve resume path.
    ColStoreReadResult recovered;
    auto writer = ColStoreWriter::open_append(path, spec, &recovered);
    EXPECT_EQ(recovered.records.size(), 2u);
    EXPECT_TRUE(recovered.stats.clean_footer);
    writer->append(dice[2]);
    writer->finish();
  }
  const ColStoreReadResult all = read_colstore(path, spec);
  ASSERT_EQ(all.records.size(), 3u);
  EXPECT_TRUE(all.stats.clean_footer);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(record_json(all.records[i]), record_json(dice[i]));
  }

  // A mismatched campaign cannot append either.
  CampaignSpec other = spec;
  other.seed = 99;
  ColStoreReadResult scratch;
  EXPECT_THROW(ColStoreWriter::open_append(path, other, &scratch), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rotsv
