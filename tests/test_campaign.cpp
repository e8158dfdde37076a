// Campaign engine tests. The expensive property tests (thread-count
// determinism, checkpoint/resume equivalence, screen accounting) share one
// small simulated campaign; the spec/store/aggregate logic is covered by
// cheap synthetic cases.
#include <gtest/gtest.h>

#include <climits>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "campaign/campaign.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace rotsv {
namespace {

using testutil::config_error;
using testutil::fast_run;

/// 3x4 wafer: the four corners fall off the inscribed circle -> 8 dice.
/// One voltage and a preset band keep each die at two fast transients.
CampaignSpec small_campaign() {
  CampaignSpec spec;
  spec.lot_id = "test";
  spec.wafers = 1;
  spec.rows = 3;
  spec.cols = 4;
  spec.tester.group_size = 2;
  spec.tester.voltages = {1.1};
  spec.tester.run = fast_run();
  spec.tester.calibration_samples = 2;
  // Strong defects only, so the single-voltage screen catches everything.
  spec.mix.open_rate = 0.25;
  spec.mix.leak_rate = 0.25;
  spec.mix.open_r_min = 5e4;
  spec.mix.open_r_max = 1e6;
  spec.mix.leak_r_min = 400.0;
  spec.mix.leak_r_max = 1200.0;
  spec.seed = 11;
  spec.threads = 1;
  return spec;
}

/// Band around the pristine small-ring dT, wide enough for process
/// variation, narrow enough that strong defects fall outside (same
/// construction as the core tester tests).
std::pair<double, double> nominal_band() {
  static const std::pair<double, double> band = [] {
    RingOscillator ro(testutil::small_ring());
    const DeltaTResult nominal = measure_delta_t(ro, 1, fast_run());
    return std::make_pair(nominal.delta_t - 80e-12, nominal.delta_t + 80e-12);
  }();
  return band;
}

// --- cheap spec/geometry/accounting cases ------------------------------------

TEST(CampaignSpec, WaferGeometry) {
  CampaignSpec spec = small_campaign();
  // 3x4 grid: corners are off-wafer, the middle band is populated.
  EXPECT_FALSE(spec.die_present(0, 0));
  EXPECT_FALSE(spec.die_present(2, 3));
  EXPECT_TRUE(spec.die_present(1, 0));
  EXPECT_TRUE(spec.die_present(0, 1));
  EXPECT_EQ(spec.dice_per_wafer(), 8);
  spec.wafers = 3;
  EXPECT_EQ(spec.total_dice(), 24);
  // Small grids are fully populated (die centers stay inside the circle).
  CampaignSpec tiny = small_campaign();
  tiny.rows = 2;
  tiny.cols = 2;
  EXPECT_EQ(tiny.dice_per_wafer(), 4);
}

TEST(CampaignSpec, ValidationRejectsNonsense) {
  CampaignSpec spec = small_campaign();
  spec.wafers = 0;
  EXPECT_THROW(spec.validate(), ConfigError);
  spec = small_campaign();
  spec.mix.open_rate = 0.7;
  spec.mix.leak_rate = 0.7;
  EXPECT_THROW(spec.validate(), ConfigError);
  spec = small_campaign();
  spec.preset_bands = {{0.0, 1.0}, {0.0, 1.0}};  // 2 bands, 1 voltage
  EXPECT_THROW(spec.validate(), ConfigError);
  spec = small_campaign();
  spec.mix.leak_r_min = -1.0;
  EXPECT_THROW(spec.validate(), ConfigError);
  // 1000 x 2000 x 2000 sites overflow int in total_dice(): refused before
  // anything computes it, by validate() and by the preflight alike.
  spec = small_campaign();
  spec.wafers = 1000;
  spec.rows = spec.cols = 2000;
  EXPECT_THROW(spec.validate(), ConfigError);
  EXPECT_TRUE(analyze_campaign(spec).has(DiagCode::kBadCampaignGrid));
  spec.wafers = spec.rows = spec.cols = INT_MAX;
  EXPECT_FALSE(spec.grid_fits_int());
}

TEST(CampaignSpec, GroundTruthIsDeterministicAndSeedSensitive) {
  const CampaignSpec spec = small_campaign();
  const DieGroundTruth a = die_ground_truth(spec, 0, 1, 2);
  const DieGroundTruth b = die_ground_truth(spec, 0, 1, 2);
  ASSERT_EQ(a.faults.size(), b.faults.size());
  for (size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_EQ(a.faults[i].type, b.faults[i].type);
    EXPECT_EQ(a.faults[i].resistance_ohm, b.faults[i].resistance_ohm);
    EXPECT_EQ(a.faults[i].position, b.faults[i].position);
  }
  CampaignSpec reseeded = spec;
  reseeded.seed = spec.seed + 1;
  EXPECT_NE(spec.fingerprint(), reseeded.fingerprint());
}

TEST(CampaignSpec, EdgeBiasRaisesEdgeDefectRates) {
  CampaignSpec spec = small_campaign();
  spec.mix.edge_bias = 3.0;
  spec.mix.open_rate = 0.1;
  spec.mix.leak_rate = 0.1;
  int center_defects = 0;
  int edge_defects = 0;
  Rng rng(5);
  for (int i = 0; i < 4000; ++i) {
    if (spec.mix.draw(rng, 0.0).is_fault()) ++center_defects;
    if (spec.mix.draw(rng, 0.5).is_fault()) ++edge_defects;
  }
  // Edge dice see 4x the defect rate at bias 3 ((1 + 3*1) vs 1).
  EXPECT_GT(edge_defects, 2 * center_defects);
}

TEST(Aggregate, BinsMapsAndScreenQuality) {
  CampaignSpec spec = small_campaign();
  spec.rows = 2;
  spec.cols = 2;

  auto die = [&](int r, int c, TsvVerdict v, TsvFaultType truth, bool defective) {
    DieResult d;
    d.die = spec.die_index(0, r, c);
    d.row = r;
    d.col = c;
    d.verdict = v;
    d.tsv_verdicts = std::string(1, verdict_code(v));
    d.truth = truth;
    d.defective = defective;
    d.sim_steps = 10;
    return d;
  };
  const std::vector<DieResult> results = {
      die(0, 0, TsvVerdict::kPass, TsvFaultType::kNone, false),
      // escape: defective die that passed
      die(0, 1, TsvVerdict::kPass, TsvFaultType::kResistiveOpen, true),
      // overkill: clean die flagged
      die(1, 0, TsvVerdict::kLeakage, TsvFaultType::kNone, false),
      // caught but misclassified: an open flagged as leakage
      die(1, 1, TsvVerdict::kLeakage, TsvFaultType::kResistiveOpen, true),
  };
  const CampaignAggregate agg = aggregate_campaign(spec, results);
  EXPECT_EQ(agg.screened_dice, 4);
  EXPECT_EQ(agg.die_bins.pass, 2);
  EXPECT_EQ(agg.die_bins.leak, 2);
  EXPECT_EQ(agg.quality.defective, 2);
  EXPECT_EQ(agg.quality.clean, 2);
  EXPECT_EQ(agg.quality.caught, 1);
  EXPECT_EQ(agg.quality.escapes, 1);
  EXPECT_EQ(agg.quality.overkill, 1);
  EXPECT_EQ(agg.quality.misclassified, 1);
  EXPECT_DOUBLE_EQ(agg.quality.escape_rate(), 0.5);
  EXPECT_DOUBLE_EQ(agg.quality.overkill_rate(), 0.5);
  EXPECT_EQ(agg.sim_steps, 40u);
  ASSERT_EQ(agg.wafer_maps.size(), 1u);
  EXPECT_EQ(agg.wafer_maps[0].grid[0], "PP");
  EXPECT_EQ(agg.wafer_maps[0].grid[1], "LL");
  EXPECT_NE(agg.describe().find("escapes=1"), std::string::npos);

  // A stuck verdict on a true leak is the right class (strong leak).
  const std::vector<DieResult> stuck_leak = {
      die(0, 0, TsvVerdict::kStuck, TsvFaultType::kLeakage, true)};
  EXPECT_EQ(aggregate_campaign(spec, stuck_leak).quality.misclassified, 0);
}

TEST(Aggregate, PartialCampaignShowsUnscreenedSites) {
  CampaignSpec spec = small_campaign();
  spec.rows = 2;
  spec.cols = 2;
  const CampaignAggregate agg = aggregate_campaign(spec, {});
  EXPECT_EQ(agg.screened_dice, 0);
  EXPECT_EQ(agg.wafer_maps[0].grid[0], "??");
}

TEST(ResultStore, RoundTripsAndValidatesFingerprint) {
  const CampaignSpec spec = small_campaign();
  const std::string path = ::testing::TempDir() + "rotsv_store_test.jsonl";
  {
    auto store = CampaignResultStore::create(path, spec);
    store->write_bands({{1e-12, 2e-12}}, spec.tester.voltages);
    DieResult r;
    r.die = 1;
    r.row = 0;
    r.col = 1;
    r.verdict = TsvVerdict::kResistiveOpen;
    r.tsv_verdicts = "O";
    r.truth = TsvFaultType::kResistiveOpen;
    r.defective = true;
    r.sim_steps = 1234567;
    r.seconds = 0.5;
    store->append(r);
  }
  const ResumeState state = load_resume_state(path, spec);
  ASSERT_EQ(state.bands.size(), 1u);
  EXPECT_EQ(state.bands[0], std::make_pair(1e-12, 2e-12));
  ASSERT_EQ(state.completed.size(), 1u);
  EXPECT_EQ(state.completed[0].die, 1);
  EXPECT_EQ(state.completed[0].verdict, TsvVerdict::kResistiveOpen);
  EXPECT_EQ(state.completed[0].sim_steps, 1234567u);

  // A checkpoint from a different campaign must be refused, even when only
  // a run setting differs (the `--fast` case), and the refusal says which.
  CampaignSpec other = spec;
  other.tester.run.measure_cycles = 4;
  EXPECT_NE(config_error([&] { (void)load_resume_state(path, other); })
                .find("different campaign: tester.run.measure_cycles is 3 there, 4 here"),
            std::string::npos);
  // Missing file too.
  EXPECT_THROW(load_resume_state(path + ".missing", spec), ConfigError);
  std::remove(path.c_str());
}

// --- simulated campaign properties -------------------------------------------

TEST(CampaignRun, DeterministicAcrossThreadCounts) {
  CampaignSpec spec = small_campaign();
  spec.preset_bands = {nominal_band()};

  spec.threads = 1;
  const CampaignReport serial = run_campaign(spec);
  spec.threads = 3;
  const CampaignReport parallel = run_campaign(spec);

  ASSERT_EQ(serial.results.size(), 8u);
  ASSERT_EQ(parallel.results.size(), serial.results.size());
  for (size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(serial.results[i].die, parallel.results[i].die);
    EXPECT_EQ(serial.results[i].verdict, parallel.results[i].verdict);
    EXPECT_EQ(serial.results[i].tsv_verdicts, parallel.results[i].tsv_verdicts);
    EXPECT_EQ(serial.results[i].sim_steps, parallel.results[i].sim_steps);
  }
  EXPECT_EQ(serial.aggregate.describe(), parallel.aggregate.describe());

  // Screen accounting against the reconstructable ground truth: the strong
  // defect mix must be fully caught at 1.1 V, with zero overkill.
  const ScreenQuality& q = serial.aggregate.quality;
  EXPECT_GE(q.defective, 1);  // seed 11 plants defects in this lot
  EXPECT_EQ(q.escapes, 0);
  EXPECT_EQ(q.overkill, 0);
  EXPECT_EQ(q.caught, q.defective);
  for (const DieResult& die : serial.results) {
    const DieGroundTruth truth =
        die_ground_truth(spec, die.wafer, die.row, die.col);
    EXPECT_EQ(die.defective, truth.defective());
    EXPECT_EQ(die.verdict != TsvVerdict::kPass, die.defective);
  }
}

TEST(CampaignRun, ResumeProducesIdenticalAggregateReport) {
  CampaignSpec spec = small_campaign();
  spec.preset_bands = {nominal_band()};
  const std::string path = ::testing::TempDir() + "rotsv_resume_test.jsonl";

  CampaignRunOptions options;
  options.result_path = path;
  const CampaignReport full = run_campaign(spec, options);
  ASSERT_EQ(full.aggregate.screened_dice, 8);

  // Simulate a kill after 3 completed dice plus a partially written line:
  // keep header + band + first 3 die records.
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 5u);
  {
    std::ofstream out(path, std::ios::trunc);
    for (size_t i = 0; i < 5; ++i) out << lines[i] << '\n';
    out << "{\"type\":\"die\",\"die\":9,\"waf";  // torn write, no newline
  }

  CampaignRunOptions resume_options;
  resume_options.result_path = path;
  resume_options.resume = true;
  const CampaignReport resumed = run_campaign(spec, resume_options);

  EXPECT_EQ(resumed.resumed_dice, 3);
  EXPECT_EQ(resumed.throughput.dice_screened, 5);
  EXPECT_EQ(resumed.aggregate.describe(), full.aggregate.describe());
  ASSERT_EQ(resumed.results.size(), full.results.size());
  for (size_t i = 0; i < full.results.size(); ++i) {
    EXPECT_EQ(resumed.results[i].die, full.results[i].die);
    EXPECT_EQ(resumed.results[i].verdict, full.results[i].verdict);
    EXPECT_EQ(resumed.results[i].sim_steps, full.results[i].sim_steps);
  }

  // Resuming a finished campaign is a no-op that still reports everything.
  const CampaignReport again = run_campaign(spec, resume_options);
  EXPECT_EQ(again.throughput.dice_screened, 0);
  EXPECT_EQ(again.aggregate.describe(), full.aggregate.describe());
  std::remove(path.c_str());
}

// --- golden regression against the pre-streaming seed ------------------------
//
// Bands and verdict strings below were captured from the seed build's
// recorded two-window measurement path (before the streaming meter and early
// exit existed). The streaming rewrite changes the measured
// period values slightly -- the mean is now over exactly measure_cycles
// instead of every cycle in the window -- but the counter quantization
// (14-bit, 5 us window) and the +/- 80 ps band must absorb that: every
// verdict stays bit-identical.

constexpr double kSeedNominalDt11 = 8.451475557626783e-10;   // dT @ 1.1 V
constexpr double kSeedNominalDt09 = 1.4928125147390841e-09;  // dT @ 0.9 V
constexpr char kSeedVerdicts[] = "1:P 2:P 4:S 5:S 6:S 7:P 9:S 10:O ";

std::string verdict_string(const CampaignReport& report) {
  std::string out;
  for (const DieResult& d : report.results) {
    out += format("%d:%s ", d.die, d.tsv_verdicts.c_str());
  }
  return out;
}

TEST(CampaignRun, GoldenVerdictsUnchangedFromRecordedSeed) {
  CampaignSpec spec = small_campaign();
  spec.lot_id = "golden";
  spec.preset_bands = {
      {kSeedNominalDt11 - 80e-12, kSeedNominalDt11 + 80e-12}};
  const CampaignReport report = run_campaign(spec);
  EXPECT_EQ(verdict_string(report), kSeedVerdicts);
  // The streaming meter must actually be cutting transients short.
  EXPECT_GT(report.aggregate.early_exits, 0u);
  EXPECT_EQ(report.aggregate.early_exits, report.throughput.early_exits);
}

TEST(CampaignRun, GoldenVerdictsUnchangedOnMultiVoltagePlan) {
  // Two voltages: the verdicts must still match the single-voltage seed
  // capture exactly.
  CampaignSpec spec = small_campaign();
  spec.lot_id = "golden-mv";
  spec.tester.voltages = {1.1, 0.9};
  spec.preset_bands = {
      {kSeedNominalDt11 - 80e-12, kSeedNominalDt11 + 80e-12},
      {kSeedNominalDt09 - 120e-12, kSeedNominalDt09 + 120e-12}};
  const CampaignReport report = run_campaign(spec);
  EXPECT_EQ(verdict_string(report), kSeedVerdicts);
  EXPECT_GT(report.aggregate.early_exits, 0u);
}

TEST(CampaignRun, EarlyExitsSurviveCheckpointRoundTrip) {
  CampaignSpec spec = small_campaign();
  spec.preset_bands = {nominal_band()};
  const std::string path = ::testing::TempDir() + "rotsv_early_test.jsonl";
  CampaignRunOptions options;
  options.result_path = path;
  const CampaignReport report = run_campaign(spec, options);
  ASSERT_GT(report.aggregate.early_exits, 0u);

  const ResumeState state = load_resume_state(path, spec);
  uint64_t replayed = 0;
  for (const DieResult& d : state.completed) replayed += d.early_exits;
  EXPECT_EQ(replayed, report.aggregate.early_exits);
  std::remove(path.c_str());
}

TEST(CampaignRun, ResumeNeedsAPath) {
  CampaignSpec spec = small_campaign();
  spec.preset_bands = {nominal_band()};
  CampaignRunOptions options;
  options.resume = true;
  EXPECT_THROW(run_campaign(spec, options), ConfigError);
}

TEST(CampaignRun, PreflightRejectsMalformedSpecBeforeAnySimulation) {
  // A zero-bit period meter slips past CampaignSpec::validate() but can
  // never count an oscillation; the preflight must stop the lot before a
  // single transient runs and leave the reason in the result log.
  CampaignSpec spec = small_campaign();
  spec.tester.meter.bits = 0;
  const std::string path = ::testing::TempDir() + "rotsv_preflight_test.jsonl";

  CampaignRunOptions options;
  options.result_path = path;
  try {
    run_campaign(spec, options);
    FAIL() << "preflight accepted a zero-bit period meter";
  } catch (const AnalysisError& e) {
    EXPECT_TRUE(e.report().has(DiagCode::kBadMeterConfig))
        << e.report().describe();
  }

  // The log holds the header plus machine-readable preflight records and
  // no die results (nothing was screened).
  const JsonlReadResult log = read_jsonl(path);
  ASSERT_GE(log.records.size(), 2u);
  size_t preflight_records = 0;
  for (const JsonRecord& rec : log.records) {
    ASSERT_TRUE(rec.has("type"));
    EXPECT_NE(rec.get_string("type"), "die");
    if (rec.get_string("type") == "preflight") {
      ++preflight_records;
      EXPECT_EQ(rec.get_string("code"), "bad-meter-config");
      EXPECT_EQ(rec.get_string("severity"), "error");
    }
  }
  EXPECT_GE(preflight_records, 1u);
  std::remove(path.c_str());

  // The escape hatch (--no-preflight) skips the spec analysis; the broken
  // meter config then surfaces later, from tester construction.
  CampaignRunOptions no_preflight;
  no_preflight.preflight = false;
  EXPECT_THROW(run_campaign(spec, no_preflight), Error);
}

}  // namespace
}  // namespace rotsv
