// Chaos suite for the campaign failure-containment layer: deterministic
// fault injection, the retry escalation ladder, per-die budgets with
// kInconclusive quarantine, kill/resume under injected faults, and the
// result log's torn-line / checksum durability contract.
//
// The central property everything here pins: for every die that converges
// within the retry budget, an injected-fault run produces verdicts
// BIT-IDENTICAL to a clean run -- recovery re-forks the die's RNG streams
// from scratch, so containment never bends a verdict.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/fault_injector.hpp"
#include "campaign/retry.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace rotsv {
namespace {

using testutil::fast_run;

/// Same 3x4 / 8-die lot as the campaign suite: one voltage, preset band,
/// strong defects, seed 11.
CampaignSpec small_campaign() {
  CampaignSpec spec;
  spec.lot_id = "chaos";
  spec.wafers = 1;
  spec.rows = 3;
  spec.cols = 4;
  spec.tester.group_size = 2;
  spec.tester.voltages = {1.1};
  spec.tester.run = fast_run();
  spec.tester.calibration_samples = 2;
  spec.mix.open_rate = 0.25;
  spec.mix.leak_rate = 0.25;
  spec.mix.open_r_min = 5e4;
  spec.mix.open_r_max = 1e6;
  spec.mix.leak_r_min = 400.0;
  spec.mix.leak_r_max = 1200.0;
  spec.seed = 11;
  spec.threads = 1;  // injection triggers hit a deterministic die order
  return spec;
}

std::pair<double, double> nominal_band() {
  static const std::pair<double, double> band = [] {
    RingOscillator ro(testutil::small_ring());
    const DeltaTResult nominal = measure_delta_t(ro, 1, fast_run());
    return std::make_pair(nominal.delta_t - 80e-12, nominal.delta_t + 80e-12);
  }();
  return band;
}

std::string verdict_string(const std::vector<DieResult>& results) {
  std::string out;
  for (const DieResult& d : results) {
    out += format("%d:%s ", d.die, d.tsv_verdicts.c_str());
  }
  return out;
}

// --- escalation ladder unit properties ---------------------------------------

TEST(Chaos, EscalationLadderRungs) {
  RoRunOptions base = fast_run();
  RetryPolicy policy;
  policy.ic_perturbation = 0.07;
  policy.escalated_gmin = 2e-9;

  // Rung 0 is byte-for-byte the configured run: a clean first attempt must
  // be indistinguishable from a build without the containment layer.
  const RoRunOptions r0 = escalate_run(base, policy, 0, 123);
  EXPECT_EQ(r0.ic_perturbation, 0.0);
  EXPECT_EQ(r0.newton_gmin, 0.0);
  EXPECT_TRUE(r0.streaming);

  // Rung 1: perturbed ICs from the given stream.
  const RoRunOptions r1 = escalate_run(base, policy, 1, 123);
  EXPECT_EQ(r1.ic_perturbation, 0.07);
  EXPECT_EQ(r1.ic_seed, 123u);
  EXPECT_EQ(r1.newton_gmin, 0.0);

  // Rung 2 adds the gmin-stepped Newton.
  const RoRunOptions r2 = escalate_run(base, policy, 2, 9);
  EXPECT_EQ(r2.ic_perturbation, 0.07);
  EXPECT_EQ(r2.newton_gmin, 2e-9);

  // Rung 3+: recorded two-window path, cold on purpose.
  const RoRunOptions r3 = escalate_run(base, policy, 3, 9);
  EXPECT_FALSE(r3.streaming);
  EXPECT_EQ(r3.ic_perturbation, 0.0);
  EXPECT_EQ(r3.newton_gmin, 2e-9);

  // The IC streams are deterministic, die- and attempt-distinct.
  EXPECT_EQ(retry_ic_stream(11, 3, 1), retry_ic_stream(11, 3, 1));
  EXPECT_NE(retry_ic_stream(11, 3, 1), retry_ic_stream(11, 3, 2));
  EXPECT_NE(retry_ic_stream(11, 3, 1), retry_ic_stream(11, 4, 1));
  EXPECT_NE(retry_ic_stream(11, 3, 1), retry_ic_stream(12, 3, 1));
}

TEST(Chaos, InjectionSpecParsing) {
  const InjectionSpec spec = InjectionSpec::parse("solve@3, io@1 ,kill@2");
  EXPECT_EQ(spec.fail_solve_at, 3u);
  EXPECT_EQ(spec.fail_io_at, 1u);
  EXPECT_EQ(spec.kill_after_dice, 2);
  EXPECT_EQ(spec.describe(), "solve@3,io@1,kill@2");
  EXPECT_TRUE(InjectionSpec{}.empty());
  EXPECT_FALSE(spec.empty());

  EXPECT_THROW(InjectionSpec::parse(""), ConfigError);
  EXPECT_THROW(InjectionSpec::parse("solve@0"), ConfigError);
  EXPECT_THROW(InjectionSpec::parse("solve@"), ConfigError);
  EXPECT_THROW(InjectionSpec::parse("solve@abc"), ConfigError);
  EXPECT_THROW(InjectionSpec::parse("solve"), ConfigError);
  EXPECT_THROW(InjectionSpec::parse("frobnicate@2"), ConfigError);
}

// --- injected solver failure: retry recovers, verdicts identical -------------

TEST(Chaos, InjectedSolveFaultRecoversBitIdentical) {
  CampaignSpec spec = small_campaign();
  spec.preset_bands = {nominal_band()};

  const CampaignReport clean = run_campaign(spec);
  ASSERT_EQ(clean.results.size(), 8u);
  for (const DieResult& d : clean.results) {
    EXPECT_EQ(d.attempts, 1);
    EXPECT_TRUE(d.failure.ok());
  }

  CampaignRunOptions options;
  options.inject = InjectionSpec::parse("solve@1");
  const CampaignReport faulty = run_campaign(spec, options);

  // The injected failure hit the first die's first transient; the retry
  // ladder recovered it with draws identical to the clean run.
  EXPECT_EQ(verdict_string(faulty.results), verdict_string(clean.results));
  int retried = 0;
  for (size_t i = 0; i < clean.results.size(); ++i) {
    EXPECT_EQ(faulty.results[i].verdict, clean.results[i].verdict);
    if (faulty.results[i].attempts > 1) {
      ++retried;
      // The recovered die keeps the failure it recovered from.
      EXPECT_EQ(faulty.results[i].failure.kind,
                FailureKind::kDcNoConvergence);
      EXPECT_NE(faulty.results[i].failure.message.find("fault injection"),
                std::string::npos);
    }
  }
  EXPECT_EQ(retried, 1);
  // Quality ledger unchanged: nothing quarantined, nothing bent.
  EXPECT_EQ(faulty.aggregate.quality.quarantined, 0);
  EXPECT_EQ(faulty.aggregate.quality.escapes,
            clean.aggregate.quality.escapes);
  EXPECT_EQ(faulty.aggregate.quality.caught, clean.aggregate.quality.caught);
}

TEST(Chaos, RetriesExhaustedQuarantinesInsteadOfFabricating) {
  CampaignSpec spec = small_campaign();
  spec.preset_bands = {nominal_band()};
  spec.retry.retries = 0;  // no ladder: the injected failure must quarantine

  CampaignRunOptions options;
  options.inject = InjectionSpec::parse("solve@1");
  const CampaignReport report = run_campaign(spec, options);

  ASSERT_EQ(report.results.size(), 8u);
  const DieResult& hit = report.results.front();
  EXPECT_EQ(hit.verdict, TsvVerdict::kInconclusive);
  EXPECT_EQ(hit.attempts, 1);
  EXPECT_EQ(hit.failure.kind, FailureKind::kDcNoConvergence);
  // Never a fabricated fault verdict: the quarantine bin is explicit.
  EXPECT_NE(hit.tsv_verdicts.find('I'), std::string::npos);
  EXPECT_EQ(report.aggregate.quality.quarantined, 1);
  EXPECT_EQ(report.aggregate.die_bins.inconclusive, 1);
  // Everyone else screened normally.
  for (size_t i = 1; i < report.results.size(); ++i) {
    EXPECT_NE(report.results[i].verdict, TsvVerdict::kInconclusive);
  }
}

// --- per-die budgets ---------------------------------------------------------

TEST(Chaos, StepBudgetQuarantinesAndRoundTrips) {
  CampaignSpec spec = small_campaign();
  spec.preset_bands = {nominal_band()};
  spec.tester.die_budget.max_steps = 40;  // far below one transient
  const std::string path = ::testing::TempDir() + "rotsv_chaos_budget.jsonl";

  CampaignRunOptions options;
  options.result_path = path;
  options.preflight = false;  // the tiny budget is a deliberate warning
  const CampaignReport report = run_campaign(spec, options);

  ASSERT_EQ(report.results.size(), 8u);
  for (const DieResult& d : report.results) {
    EXPECT_EQ(d.verdict, TsvVerdict::kInconclusive) << "die " << d.die;
    EXPECT_EQ(d.failure.kind, FailureKind::kStepBudget) << "die " << d.die;
    EXPECT_EQ(d.attempts, 1);  // exhausted budget short-circuits the ladder
    EXPECT_GT(d.sim_steps, 0u);  // partial work still accounted
  }
  EXPECT_EQ(report.aggregate.quality.quarantined, 8);
  EXPECT_EQ(report.aggregate.quality.caught, 0);
  EXPECT_EQ(report.aggregate.quality.escapes, 0);
  EXPECT_EQ(report.aggregate.quality.overkill, 0);

  // The failure taxonomy survives the JSONL round trip, machine-readably.
  const ResumeState state = load_resume_state(path, spec);
  ASSERT_EQ(state.completed.size(), 8u);
  for (const DieResult& d : state.completed) {
    EXPECT_EQ(d.verdict, TsvVerdict::kInconclusive);
    EXPECT_EQ(d.failure.kind, FailureKind::kStepBudget);
    EXPECT_FALSE(d.failure.message.empty());
  }
  std::remove(path.c_str());
}

TEST(Chaos, WallClockBudgetQuarantines) {
  CampaignSpec spec = small_campaign();
  spec.preset_bands = {nominal_band()};
  // Immeasurably small wall-clock budget: the first 128-step clock check
  // trips on every die.
  spec.tester.die_budget.max_seconds = 1e-12;
  CampaignRunOptions options;
  options.preflight = false;
  const CampaignReport report = run_campaign(spec, options);
  ASSERT_EQ(report.results.size(), 8u);
  for (const DieResult& d : report.results) {
    EXPECT_EQ(d.verdict, TsvVerdict::kInconclusive);
    EXPECT_EQ(d.failure.kind, FailureKind::kWallClockBudget);
  }
  EXPECT_EQ(report.aggregate.quality.quarantined, 8);
}

// --- I/O containment and kill/resume -----------------------------------------

TEST(Chaos, InjectedAppendFailureContainedByRetry) {
  CampaignSpec spec = small_campaign();
  spec.preset_bands = {nominal_band()};
  const std::string path = ::testing::TempDir() + "rotsv_chaos_io.jsonl";

  CampaignRunOptions options;
  options.result_path = path;
  options.inject = InjectionSpec::parse("io@2");
  const CampaignReport report = run_campaign(spec, options);

  EXPECT_EQ(report.throughput.io_retries, 1u);
  EXPECT_EQ(report.throughput.io_failures, 0u);
  // The retried append landed: the log replays complete and verdicts match.
  const ResumeState state = load_resume_state(path, spec);
  ASSERT_EQ(state.completed.size(), 8u);
  EXPECT_EQ(verdict_string(state.completed), verdict_string(report.results));
  std::remove(path.c_str());
}

TEST(Chaos, KillAndResumeBitIdenticalUnderInjectedFaults) {
  CampaignSpec spec = small_campaign();
  spec.preset_bands = {nominal_band()};
  const std::string path = ::testing::TempDir() + "rotsv_chaos_kill.jsonl";

  const CampaignReport clean = run_campaign(spec);

  // Run 1: a solver fault on the second transient AND a kill after 3 dice.
  CampaignRunOptions chaos;
  chaos.result_path = path;
  chaos.inject = InjectionSpec::parse("solve@2,kill@3");
  EXPECT_THROW(run_campaign(spec, chaos), InjectedKill);

  // The checkpoint holds exactly the dice appended before the kill.
  const ResumeState state = load_resume_state(path, spec);
  EXPECT_EQ(state.completed.size(), 3u);

  // Run 2: resume with no injection finishes the lot.
  CampaignRunOptions resume;
  resume.result_path = path;
  resume.resume = true;
  const CampaignReport resumed = run_campaign(spec, resume);

  EXPECT_EQ(resumed.resumed_dice, 3);
  ASSERT_EQ(resumed.results.size(), clean.results.size());
  EXPECT_EQ(verdict_string(resumed.results), verdict_string(clean.results));
  for (size_t i = 0; i < clean.results.size(); ++i) {
    EXPECT_EQ(resumed.results[i].die, clean.results[i].die);
    EXPECT_EQ(resumed.results[i].verdict, clean.results[i].verdict);
  }
  EXPECT_EQ(resumed.aggregate.quality.quarantined, 0);
  std::remove(path.c_str());
}

// --- result-log durability ---------------------------------------------------

TEST(Chaos, TornTailRecoveryAtEveryByteOffset) {
  // Build a 2-die checkpoint, then simulate a kill at every byte offset
  // inside the final record: resume must load cleanly (whole records only),
  // and appending must land on a fresh, uncorrupted line.
  CampaignSpec spec = small_campaign();
  spec.preset_bands = {nominal_band()};
  const std::string path = ::testing::TempDir() + "rotsv_chaos_torn.jsonl";
  const std::string torn = path + ".torn";

  DieResult die1;
  die1.die = 1;
  die1.row = 0;
  die1.col = 1;
  die1.verdict = TsvVerdict::kPass;
  die1.tsv_verdicts = "P";
  DieResult die2 = die1;
  die2.die = 2;
  die2.col = 2;
  die2.verdict = TsvVerdict::kLeakage;
  die2.tsv_verdicts = "L";
  die2.attempts = 2;
  die2.failure.kind = FailureKind::kSingularLu;
  die2.failure.message = "recovered on rung 1";
  {
    auto store = CampaignResultStore::create(path, spec);
    store->write_bands({nominal_band()}, spec.tester.voltages);
    store->append(die1);
    store->append(die2);
    store->sync();
  }
  std::ifstream in(path, std::ios::binary);
  const std::string full((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  in.close();
  const size_t last_line_start = full.rfind('\n', full.size() - 2) + 1;

  for (size_t cut = last_line_start; cut < full.size() - 1; ++cut) {
    {
      std::ofstream out(torn, std::ios::trunc | std::ios::binary);
      out << full.substr(0, cut);
    }
    // Resume sees only whole, checksum-verified records.
    const ResumeState state = load_resume_state(torn, spec);
    ASSERT_EQ(state.completed.size(), 1u) << "cut at byte " << cut;
    EXPECT_EQ(state.completed[0].die, 1);

    // Appending truncates the torn tail and lands cleanly.
    {
      ResumeState scratch;
      auto store = CampaignResultStore::resume(torn, spec, &scratch);
      store->append(die2);
    }
    const ResumeState after = load_resume_state(torn, spec);
    ASSERT_EQ(after.completed.size(), 2u) << "cut at byte " << cut;
    EXPECT_EQ(after.completed[1].die, 2);
    EXPECT_EQ(after.completed[1].attempts, 2);
    EXPECT_EQ(after.completed[1].failure.kind, FailureKind::kSingularLu);
    EXPECT_EQ(after.completed[1].failure.message, "recovered on rung 1");
  }
  std::remove(path.c_str());
  std::remove(torn.c_str());
}

TEST(Chaos, ChecksumDropsBitrottedRecord) {
  CampaignSpec spec = small_campaign();
  spec.preset_bands = {nominal_band()};
  const std::string path = ::testing::TempDir() + "rotsv_chaos_rot.jsonl";
  DieResult die1;
  die1.die = 1;
  die1.row = 0;
  die1.col = 1;
  die1.verdict = TsvVerdict::kStuck;
  die1.tsv_verdicts = "S";
  die1.sim_steps = 777;
  {
    auto store = CampaignResultStore::create(path, spec);
    store->append(die1);
  }
  // Rot one digit of the steps field; the stored CRC no longer matches and
  // the record must be dropped rather than resumed with a silently wrong
  // step count.
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  const size_t at = content.find("777");
  ASSERT_NE(at, std::string::npos);
  content[at] = '8';
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << content;
  }
  const ResumeState state = load_resume_state(path, spec);
  EXPECT_TRUE(state.completed.empty());
  EXPECT_GE(state.skipped_lines, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rotsv
