#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <ostream>
#include <set>

#include "util/ascii_chart.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/jsonl.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace rotsv {
namespace {

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("\t a b \n"), "a b");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, ToLower) {
  EXPECT_EQ(to_lower("AbC123"), "abc123");
  EXPECT_EQ(to_lower(""), "");
}

TEST(Strings, SplitDropsEmptyFields) {
  const auto parts = split("a  b\tc", " \t");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
  EXPECT_TRUE(split("", " ").empty());
  EXPECT_TRUE(split("   ", " ").empty());
}

TEST(Strings, StartsWithAndIequals) {
  EXPECT_TRUE(starts_with("pulse(0 1)", "pulse("));
  EXPECT_FALSE(starts_with("pul", "pulse"));
  EXPECT_TRUE(iequals("NMOS", "nmos"));
  EXPECT_FALSE(iequals("nmos", "pmos"));
  EXPECT_FALSE(iequals("nmos", "nmo"));
}

TEST(Strings, FormatProducesPrintfOutput) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format("%.2f", 1.0 / 3.0), "0.33");
}

struct SpiceNumberCase {
  const char* text;
  double expected;
};

// Names each case by its text, so the test name does not hold the pointer.
void PrintTo(const SpiceNumberCase& c, std::ostream* os) { *os << c.text; }

class SpiceNumberTest : public ::testing::TestWithParam<SpiceNumberCase> {};

TEST_P(SpiceNumberTest, ParsesEngineeringSuffix) {
  double v = 0.0;
  ASSERT_TRUE(parse_spice_number(GetParam().text, &v)) << GetParam().text;
  EXPECT_NEAR(v, GetParam().expected, std::fabs(GetParam().expected) * 1e-12 + 1e-30);
}

INSTANTIATE_TEST_SUITE_P(
    Suffixes, SpiceNumberTest,
    ::testing::Values(SpiceNumberCase{"1.5k", 1.5e3}, SpiceNumberCase{"59f", 59e-15},
                      SpiceNumberCase{"10meg", 1e7}, SpiceNumberCase{"2u", 2e-6},
                      SpiceNumberCase{"3n", 3e-9}, SpiceNumberCase{"7p", 7e-12},
                      SpiceNumberCase{"-4m", -4e-3}, SpiceNumberCase{"1.1", 1.1},
                      SpiceNumberCase{"2e3", 2e3}, SpiceNumberCase{"5T", 5e12},
                      SpiceNumberCase{"6G", 6e9}, SpiceNumberCase{"10pF", 10e-12},
                      SpiceNumberCase{"0.1a", 0.1e-18}, SpiceNumberCase{"3k3", 3e3}));

TEST(SpiceNumber, RejectsGarbage) {
  double v = 0.0;
  EXPECT_FALSE(parse_spice_number("", &v));
  EXPECT_FALSE(parse_spice_number("abc", &v));
  EXPECT_FALSE(parse_spice_number("1.5q", &v));
}

TEST(FormatTime, PicksAdaptiveUnit) {
  EXPECT_EQ(format_time(2.5e-9), "2.5ns");
  EXPECT_EQ(format_time(1.5e-12), "1.5ps");
  EXPECT_EQ(format_time(3e-6), "3us");
  EXPECT_EQ(format_time(0.0), "0s");
}

TEST(Error, RequireThrowsConfigError) {
  EXPECT_NO_THROW(require(true, "ok"));
  EXPECT_THROW(require(false, "bad"), ConfigError);
}

TEST(Error, ParseErrorCarriesLine) {
  ParseError e("boom", 17);
  EXPECT_EQ(e.line(), 17);
  EXPECT_NE(std::string(e.what()).find("17"), std::string::npos);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Rng, ForkGivesIndependentStreams) {
  Rng a = Rng::fork(42, 0);
  Rng b = Rng::fork(42, 1);
  Rng a2 = Rng::fork(42, 0);
  EXPECT_EQ(a.next_u64(), a2.next_u64());
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(99);
  const int n = 20000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    sum += z;
    sum_sq += z * z;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, NormalScaled) {
  Rng rng(5);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(3);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(64);
  ThreadPool::parallel_for(64, [&](size_t i) { hits[i]++; }, 3);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  EXPECT_THROW(ThreadPool::parallel_for(
                   8, [&](size_t i) { if (i == 5) throw Error("boom"); }, 2),
               Error);
}

TEST(ThreadPool, ParallelForChunkedCoversAllIndicesOnce) {
  // Explicit chunk size that does not divide n: the tail chunk is short.
  std::vector<std::atomic<int>> hits(1000);
  ThreadPool::parallel_for(1000, [&](size_t i) { hits[i]++; }, 4, 7);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForChunkLargerThanRange) {
  std::vector<std::atomic<int>> hits(5);
  ThreadPool::parallel_for(5, [&](size_t i) { hits[i]++; }, 3, 64);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForChunkedPropagatesException) {
  EXPECT_THROW(ThreadPool::parallel_for(
                   100, [&](size_t i) { if (i == 37) throw Error("boom"); }, 2, 8),
               Error);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) pool.submit([&] { count++; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 10);
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "rotsv_csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.row({1.0, 2.5});
    csv.row_strings({"x", "y"});
    EXPECT_THROW(csv.row({1.0}), Error);
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[256];
  ASSERT_NE(std::fgets(buf, sizeof buf, f), nullptr);
  EXPECT_EQ(std::string(buf), "a,b\n");
  ASSERT_NE(std::fgets(buf, sizeof buf, f), nullptr);
  EXPECT_EQ(std::string(buf), "1,2.5\n");
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(Csv, ThrowsOnUnwritablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv", {"a"}), Error);
}

TEST(AsciiChart, RendersSeries) {
  Series s;
  s.label = "line";
  s.glyph = '*';
  for (int i = 0; i <= 10; ++i) {
    s.x.push_back(i);
    s.y.push_back(i * i);
  }
  ChartOptions opt;
  opt.title = "squares";
  opt.x_label = "x";
  const std::string chart = render_chart({s}, opt);
  EXPECT_NE(chart.find('*'), std::string::npos);
  EXPECT_NE(chart.find("squares"), std::string::npos);
  EXPECT_NE(chart.find("line"), std::string::npos);
}

TEST(AsciiChart, EmptyDataSafe) {
  EXPECT_EQ(render_chart({}, {}), "(no data)");
  Series s;
  s.x = {std::nan("")};
  s.y = {1.0};
  EXPECT_EQ(render_chart({s}, {}), "(no data)");
}

TEST(AsciiChart, LogXSkipsNonPositive) {
  Series s;
  s.x = {-1.0, 0.0, 10.0, 100.0, 1000.0};
  s.y = {1.0, 2.0, 3.0, 4.0, 5.0};
  ChartOptions opt;
  opt.log_x = true;
  const std::string chart = render_chart({s}, opt);
  EXPECT_NE(chart.find('*'), std::string::npos);
}

TEST(Jsonl, RecordRoundTripsTypesAndEscapes) {
  JsonRecord rec;
  rec.set("name", "a \"quoted\"\tstring\nwith\\escapes")
      .set("count", 42)
      .set("ratio", 0.1)
      .set("exact", 1.0 / 3.0)
      .set("flag", true)
      .set("off", false);
  JsonRecord parsed;
  ASSERT_TRUE(JsonRecord::parse(rec.to_json(), &parsed));
  EXPECT_EQ(parsed.get_string("name"), "a \"quoted\"\tstring\nwith\\escapes");
  EXPECT_EQ(parsed.get_number("count"), 42.0);
  EXPECT_EQ(parsed.get_number("ratio"), 0.1);
  // %.17g makes doubles bit-exact through the text round-trip.
  EXPECT_EQ(parsed.get_number("exact"), 1.0 / 3.0);
  EXPECT_TRUE(parsed.get_bool("flag"));
  EXPECT_FALSE(parsed.get_bool("off"));
  EXPECT_FALSE(parsed.has("missing"));
  EXPECT_EQ(parsed.get_number_or("missing", -1.0), -1.0);
  EXPECT_THROW(parsed.get_string("count"), ConfigError);
  EXPECT_THROW(parsed.get_number("nope"), ConfigError);
}

TEST(Jsonl, ParseRejectsPartialAndNestedLines) {
  JsonRecord rec;
  EXPECT_TRUE(JsonRecord::parse("{}", &rec));
  EXPECT_TRUE(JsonRecord::parse("  {\"a\": 1}  ", &rec));
  // The crash case: a line truncated mid-write must not parse.
  EXPECT_FALSE(JsonRecord::parse("{\"type\":\"die\",\"die\":9,\"waf", &rec));
  EXPECT_FALSE(JsonRecord::parse("", &rec));
  EXPECT_FALSE(JsonRecord::parse("{\"a\":1} trailing", &rec));
  EXPECT_FALSE(JsonRecord::parse("{\"a\":[1,2]}", &rec));
  EXPECT_FALSE(JsonRecord::parse("{\"a\":{\"b\":1}}", &rec));
  EXPECT_FALSE(JsonRecord::parse("{\"a\":null}", &rec));
}

TEST(Jsonl, IntegersRoundTripExactly) {
  // Regression: counters used to be squeezed through double, which silently
  // rounds above 2^53 -- fatal for accumulated sim_steps on long campaigns.
  const uint64_t above_double = (1ull << 53) + 1;       // not representable
  const uint64_t big = 1000000000000000007ull;          // 1e18 + 7
  const uint64_t above_int64 = 9223372036854775809ull;  // > int64 max
  JsonRecord rec;
  rec.set("a", above_double)
      .set("b", big)
      .set("c", above_int64)
      .set("d", UINT64_MAX)
      .set("neg", static_cast<int64_t>(-42));
  JsonRecord parsed;
  ASSERT_TRUE(JsonRecord::parse(rec.to_json(), &parsed));
  EXPECT_EQ(parsed.get_uint64("a"), above_double);
  EXPECT_EQ(parsed.get_uint64("b"), big);
  EXPECT_EQ(parsed.get_uint64("c"), above_int64);
  EXPECT_EQ(parsed.get_uint64("d"), UINT64_MAX);
  EXPECT_THROW(parsed.get_uint64("neg"), ConfigError);
  // get_number still works on integer fields (cast, possibly lossy).
  EXPECT_EQ(parsed.get_number("b"), static_cast<double>(big));
  EXPECT_EQ(parsed.get_number("neg"), -42.0);

  // Legacy logs wrote counters as doubles; integer-valued non-negative
  // doubles must keep reading back through get_uint64. (261107.0 and the
  // exponent form parse as kNumber, not as integer tokens.)
  JsonRecord legacy;
  ASSERT_TRUE(JsonRecord::parse(
      "{\"steps\":261107.0,\"exp\":2.61107e5,\"frac\":1.5,\"neg\":-1}",
      &legacy));
  EXPECT_EQ(legacy.get_uint64("steps"), 261107u);
  EXPECT_EQ(legacy.get_uint64("exp"), 261107u);
  EXPECT_THROW(legacy.get_uint64("frac"), ConfigError);
  EXPECT_THROW(legacy.get_uint64("neg"), ConfigError);
}

TEST(Jsonl, StrictNumberGrammar) {
  JsonRecord rec;
  // Regression: a leading '+' is not JSON and used to slip through the
  // strtod-based parser, accepting lines a conforming reader would reject.
  EXPECT_FALSE(JsonRecord::parse("{\"a\":+1}", &rec));
  EXPECT_FALSE(JsonRecord::parse("{\"a\":+1.5}", &rec));
  EXPECT_FALSE(JsonRecord::parse("{\"a\":01}", &rec));    // leading zero
  EXPECT_FALSE(JsonRecord::parse("{\"a\":0x10}", &rec));  // hex
  EXPECT_FALSE(JsonRecord::parse("{\"a\":inf}", &rec));
  EXPECT_FALSE(JsonRecord::parse("{\"a\":nan}", &rec));
  EXPECT_FALSE(JsonRecord::parse("{\"a\":1.}", &rec));    // empty fraction
  EXPECT_FALSE(JsonRecord::parse("{\"a\":.5}", &rec));    // empty int part
  EXPECT_FALSE(JsonRecord::parse("{\"a\":1e}", &rec));    // empty exponent
  // The valid shapes still parse.
  ASSERT_TRUE(JsonRecord::parse(
      "{\"a\":-1,\"b\":0,\"c\":1.25e-3,\"d\":2E+6,\"e\":0.5}", &rec));
  EXPECT_EQ(rec.get_number("a"), -1.0);
  EXPECT_EQ(rec.get_number("b"), 0.0);
  EXPECT_EQ(rec.get_number("c"), 1.25e-3);
  EXPECT_EQ(rec.get_number("d"), 2e6);
  EXPECT_EQ(rec.get_number("e"), 0.5);
}

TEST(Jsonl, ReaderSkipsPlusPrefixedNumberLines) {
  const std::string path = ::testing::TempDir() + "rotsv_jsonl_plus.jsonl";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"i\":1}\n{\"i\":+2}\n{\"i\":3}\n", f);
    std::fclose(f);
  }
  const JsonlReadResult read = read_jsonl(path);
  ASSERT_EQ(read.records.size(), 2u);
  EXPECT_EQ(read.records[0].get_number("i"), 1.0);
  EXPECT_EQ(read.records[1].get_number("i"), 3.0);
  EXPECT_EQ(read.skipped_lines, 1u);
  std::remove(path.c_str());
}

TEST(Jsonl, WriterAppendsAndReaderSkipsPartialTail) {
  const std::string path = ::testing::TempDir() + "rotsv_jsonl_test.jsonl";
  {
    JsonlWriter writer(path, /*append=*/false);
    JsonRecord a;
    writer.write(a.set("i", 0));
  }
  {
    JsonlWriter writer(path, /*append=*/true);
    JsonRecord b;
    writer.write(b.set("i", 1));
  }
  {  // a crash mid-write leaves a partial line
    std::FILE* f = std::fopen(path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"i\":2,\"trunc", f);
    std::fclose(f);
  }
  {  // appending after a torn write truncates the torn tail entirely
    JsonlWriter writer(path, /*append=*/true);
    JsonRecord c;
    writer.write(c.set("i", 3));
  }
  const JsonlReadResult read = read_jsonl(path);
  ASSERT_EQ(read.records.size(), 3u);
  EXPECT_EQ(read.records[0].get_number("i"), 0.0);
  EXPECT_EQ(read.records[1].get_number("i"), 1.0);
  EXPECT_EQ(read.records[2].get_number("i"), 3.0);
  EXPECT_EQ(read.skipped_lines, 0u);  // the torn line is gone, not skipped
  std::remove(path.c_str());

  EXPECT_TRUE(read_jsonl("/nonexistent_dir_xyz/nope.jsonl").records.empty());
  EXPECT_THROW(JsonlWriter("/nonexistent_dir_xyz/nope.jsonl", false), Error);
}

TEST(Jsonl, Crc32KnownAnswer) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(jsonl_crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(jsonl_crc32(""), 0u);
}

TEST(Jsonl, ChecksummedLinesRoundTripAndFlagBitrot) {
  const std::string path = ::testing::TempDir() + "rotsv_jsonl_crc.jsonl";
  {
    JsonlWriter writer(path, /*append=*/false, /*checksums=*/true);
    JsonRecord a, b;
    writer.write(a.set("i", 1).set("s", "alpha"));
    writer.write(b.set("i", 2));
    writer.sync();  // fsync smoke: must not throw on a healthy FILE*
  }
  {  // every line carries the trailing crc field and still parses
    const JsonlReadResult read = read_jsonl(path);
    ASSERT_EQ(read.records.size(), 2u);
    EXPECT_EQ(read.records[0].get_string("s"), "alpha");
    EXPECT_EQ(read.records[1].get_number("i"), 2.0);
    EXPECT_EQ(read.skipped_lines, 0u);
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      EXPECT_NE(line.find(",\"crc\":\""), std::string::npos) << line;
    }
  }
  {  // flip one payload byte: the line must be dropped, not trusted
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    const size_t at = content.find("alpha");
    ASSERT_NE(at, std::string::npos);
    content[at] = 'A';
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << content;
  }
  const JsonlReadResult read = read_jsonl(path);
  ASSERT_EQ(read.records.size(), 1u);
  EXPECT_EQ(read.records[0].get_number("i"), 2.0);
  EXPECT_EQ(read.skipped_lines, 1u);
  std::remove(path.c_str());
}

TEST(Jsonl, UnchecksummedLinesStillAccepted) {
  // Logs written before checksums existed must keep loading.
  const std::string path = ::testing::TempDir() + "rotsv_jsonl_legacy.jsonl";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"i\":1}\n";
  }
  const JsonlReadResult read = read_jsonl(path);
  ASSERT_EQ(read.records.size(), 1u);
  EXPECT_EQ(read.skipped_lines, 0u);
  std::remove(path.c_str());
}

TEST(Cli, ParseErrorsPrintFileLineAndGetTheParseExitCode) {
  const ParseError parse("unknown subcircuit: foo", 12);
  EXPECT_EQ(describe_cli_error("a.sp", parse),
            "a.sp:12: syntax error: unknown subcircuit: foo");
  EXPECT_EQ(describe_cli_error("", parse),
            "line 12: syntax error: unknown subcircuit: foo");
  EXPECT_EQ(cli_exit_code(parse), kExitParse);
}

TEST(Cli, OtherErrorsPrintPlainlyAndGetTheIoExitCode) {
  const ConfigError config("resume: checkpoint belongs to a different campaign");
  EXPECT_EQ(describe_cli_error("lot0.jsonl", config),
            "lot0.jsonl: error: resume: checkpoint belongs to a different "
            "campaign");
  EXPECT_EQ(describe_cli_error("", config),
            "error: resume: checkpoint belongs to a different campaign");
  EXPECT_EQ(cli_exit_code(config), kExitIo);
}

TEST(Cli, ParseErrorKeepsDetailSeparateFromPrefixedWhat) {
  const ParseError e("bad number: 1kk", 4);
  EXPECT_EQ(e.line(), 4);
  EXPECT_EQ(e.detail(), "bad number: 1kk");
  EXPECT_STREQ(e.what(), "line 4: bad number: 1kk");
}

}  // namespace
}  // namespace rotsv
