#include "core/tester.hpp"

#include <algorithm>
#include <utility>

#include "analyze/analyze.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace rotsv {

std::string TestReport::describe() const {
  std::string out = format("verdict: %s\n", verdict_name(verdict));
  for (const VoltageReading& r : readings) {
    if (r.stuck) {
      out += format("  %.2f V: no oscillation (stuck)\n", r.vdd);
    } else {
      out += format("  %.2f V: dT=%s -> %s\n", r.vdd, format_time(r.delta_t).c_str(),
                    verdict_name(r.verdict));
    }
  }
  return out;
}

PreBondTsvTester::PreBondTsvTester(const TesterConfig& config)
    : config_(config),
      classifiers_(config.voltages.size()),
      calibration_(config.voltages.size()) {
  // Full configuration preflight: every downstream failure this would cause
  // (calibration divergence, meter overflow, useless voltage points) is
  // cheaper to reject here, as a diagnostic list, than mid-campaign.
  preflight(analyze_tester_config(config));
}

void PreBondTsvTester::calibrate() {
  for (size_t vi = 0; vi < config_.voltages.size(); ++vi) {
    RoMcExperiment exp;
    exp.ro.num_tsvs = config_.group_size;
    exp.ro.tech = config_.tech;
    exp.variation = config_.variation;
    exp.vdd = config_.voltages[vi];
    exp.enabled_tsvs = 1;
    exp.run = config_.run;

    McConfig mc;
    mc.samples = config_.calibration_samples;
    mc.seed = config_.seed + vi;  // independent population per voltage
    mc.threads = config_.threads;

    const RoMcResult result = run_ro_monte_carlo(mc, exp);
    if (result.stuck_count > 0 || result.delta_t.size() < 2) {
      throw ConvergenceError(
          format("calibration at %.2f V failed: %d stuck, %zu valid samples",
                 config_.voltages[vi], result.stuck_count, result.delta_t.size()));
    }
    calibration_[vi] = result.delta_t;
    classifiers_[vi] =
        DeltaTClassifier::from_population(result.delta_t, config_.guard_band_sigma);
  }
}

void PreBondTsvTester::set_band(size_t voltage_index, double lo, double hi) {
  require(voltage_index < classifiers_.size(), "set_band: voltage index out of range");
  classifiers_[voltage_index] = DeltaTClassifier::from_band(lo, hi);
}

bool PreBondTsvTester::calibrated() const {
  for (const auto& c : classifiers_) {
    if (!c.has_value()) return false;
  }
  return true;
}

const DeltaTClassifier& PreBondTsvTester::classifier(size_t voltage_index) const {
  require(voltage_index < classifiers_.size(), "classifier: index out of range");
  require(classifiers_[voltage_index].has_value(), "classifier: not calibrated");
  return *classifiers_[voltage_index];
}

double PreBondTsvTester::quantize_period(double period, Rng& rng) const {
  PeriodMeterConfig meter = config_.meter;
  meter.phase = rng.uniform();  // the oscillator phase at reset is arbitrary
  const PeriodMeasurement m = PeriodMeter(meter).measure(period);
  if (m.overflow || m.count == 0) {
    // The tester would flag a broken measurement; fall back to the raw value
    // so experiments with deliberately tiny counters stay usable.
    return period;
  }
  return m.t_measured;
}

TestReport PreBondTsvTester::test_die_tsv(const TsvFault& fault, Rng& rng) const {
  require(calibrated(), "test_die_tsv: calibrate() first (or set_band for each voltage)");

  // One die: one ring oscillator instance, one variation sample.
  RingOscillatorConfig cfg;
  cfg.num_tsvs = config_.group_size;
  cfg.tech = config_.tech;
  cfg.faults = {fault};
  cfg.vdd = config_.voltages.front();
  RingOscillator ro(cfg);
  ro.apply_variation(config_.variation, rng);

  TestReport report;
  for (size_t vi = 0; vi < config_.voltages.size(); ++vi) {
    const double vdd = config_.voltages[vi];
    ro.set_vdd(vdd);
    const DeltaTResult d = measure_delta_t(ro, 1, config_.run);
    report.sim_steps += d.sim_steps;
    report.early_exits += d.early_exits;

    VoltageReading reading;
    reading.vdd = vdd;
    if (d.stuck) {
      reading.stuck = true;
      reading.verdict = TsvVerdict::kStuck;
    } else {
      reading.t1 = quantize_period(d.t1, rng);
      reading.t2 = quantize_period(d.t2, rng);
      reading.delta_t = reading.t1 - reading.t2;
      reading.verdict = classifiers_[vi]->classify(reading.delta_t);
    }
    report.readings.push_back(reading);
  }
  report.verdict = combine_verdicts(report.readings);
  return report;
}

DieTestReport PreBondTsvTester::test_die(const std::vector<TsvFault>& faults,
                                         Rng& rng) const {
  // Standalone calls still get budget enforcement when the config asks for
  // it: a tracker local to this die covers all of its rings.
  DieBudgetTracker local_budget(config_.die_budget);
  RoRunOptions run = config_.run;
  if (!config_.die_budget.unlimited()) run.budget = &local_budget;
  return test_die(faults, rng, run);
}

DieTestReport PreBondTsvTester::test_die(const std::vector<TsvFault>& faults,
                                         Rng& rng,
                                         const RoRunOptions& run) const {
  require(calibrated(), "test_die: calibrate() first (or set_band for each voltage)");
  require(!faults.empty(), "test_die: at least one TSV fault entry required");

  DieTestReport die;
  die.tsvs.resize(faults.size());
  const size_t group = static_cast<size_t>(config_.group_size);
  for (size_t base = 0; base < faults.size(); base += group) {
    const size_t count = std::min(group, faults.size() - base);

    // One ring per group of TSVs: one variation sample shared by the group,
    // as on a physical die where group_size TSVs wire into one oscillator.
    RingOscillatorConfig cfg;
    cfg.num_tsvs = config_.group_size;
    cfg.tech = config_.tech;
    cfg.faults.assign(faults.begin() + static_cast<long>(base),
                      faults.begin() + static_cast<long>(base + count));
    cfg.vdd = config_.voltages.front();
    RingOscillator ro(cfg);
    ro.apply_variation(config_.variation, rng);

    // The memoized reference makes the group cost (count + 1) transients per
    // voltage instead of 2 * count: per-TSV T1 runs share one T2 run.
    RoReferenceCache cache(ro, run);

    std::vector<TestReport> reports(count);
    FailureRecord ring_failure;
    if (run.budget != nullptr && run.budget->exhausted()) {
      // A previous ring already exhausted the die's budget; do not even
      // start this one.
      ring_failure.kind = FailureKind::kStepBudget;
      ring_failure.message = "die budget exhausted before this ring ran";
      ring_failure.tsv = static_cast<int>(base);
    } else {
      try {
        for (size_t vi = 0; vi < config_.voltages.size(); ++vi) {
          const double vdd = config_.voltages[vi];
          ro.set_vdd(vdd);
          for (size_t ti = 0; ti < count; ++ti) {
            const DeltaTResult d =
                cache.measure_delta_t_single(static_cast<int>(ti));
            reports[ti].sim_steps += d.sim_steps;
            reports[ti].early_exits += d.early_exits;

            VoltageReading reading;
            reading.vdd = vdd;
            if (d.stuck) {
              reading.stuck = true;
              reading.verdict = TsvVerdict::kStuck;
            } else {
              reading.t1 = quantize_period(d.t1, rng);
              reading.t2 = quantize_period(d.t2, rng);
              reading.delta_t = reading.t1 - reading.t2;
              reading.verdict = classifiers_[vi]->classify(reading.delta_t);
            }
            reports[ti].readings.push_back(reading);
          }
        }
      } catch (const Error& e) {
        // Containment: the ring's simulation failed (reference does not
        // oscillate, solver divergence, exhausted budget, injected fault).
        // Its TSVs get an explicit kInconclusive with the failure recorded
        // -- never a fabricated kStuck -- and the die keeps going so the
        // other rings still produce real verdicts. Errors from before the
        // taxonomy (kind kNone) classify as the generic solver failure; the
        // message keeps the detail.
        ring_failure.kind = e.kind() == FailureKind::kNone
                                ? FailureKind::kDcNoConvergence
                                : e.kind();
        ring_failure.message = e.what();
        ring_failure.tsv = static_cast<int>(base);
      }
    }

    for (size_t ti = 0; ti < count; ++ti) {
      TestReport& out = die.tsvs[base + ti];
      out = std::move(reports[ti]);
      if (ring_failure.ok()) {
        out.verdict = combine_verdicts(out.readings);
      } else {
        // Keep the partial readings and step accounting from the work that
        // did complete before the failure.
        out.verdict = TsvVerdict::kInconclusive;
        out.failure = ring_failure;
      }
      die.sim_steps += out.sim_steps;
      die.early_exits += out.early_exits;
    }
    if (!ring_failure.ok() && die.failure.ok()) die.failure = ring_failure;
  }
  return die;
}

TsvVerdict combine_verdicts(const std::vector<VoltageReading>& readings) {
  bool any_inconclusive = false;
  bool any_stuck = false;
  bool any_leak = false;
  bool any_open = false;
  for (const VoltageReading& r : readings) {
    switch (r.verdict) {
      case TsvVerdict::kInconclusive: any_inconclusive = true; break;
      case TsvVerdict::kStuck: any_stuck = true; break;
      case TsvVerdict::kLeakage: any_leak = true; break;
      case TsvVerdict::kResistiveOpen: any_open = true; break;
      case TsvVerdict::kPass: break;
    }
  }
  if (any_inconclusive) return TsvVerdict::kInconclusive;
  if (any_stuck) return TsvVerdict::kStuck;
  if (any_leak) return TsvVerdict::kLeakage;
  if (any_open) return TsvVerdict::kResistiveOpen;
  return TsvVerdict::kPass;
}

}  // namespace rotsv
