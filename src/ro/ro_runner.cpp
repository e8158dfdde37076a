#include "ro/ro_runner.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace rotsv {
namespace {

TransientOptions make_transient_options(const RingOscillator& ro,
                                        const RoRunOptions& options, double t_stop,
                                        std::vector<NodeId> record) {
  TransientOptions t;
  t.t_stop = t_stop;
  t.method = options.method;
  t.dt_max = options.dt_max;
  t.err_target = options.err_target;
  t.err_reject = options.err_reject;
  t.record = std::move(record);
  if (options.newton_gmin > 0.0) t.newton.gmin = options.newton_gmin;
  (void)ro;
  return t;
}

/// Deterministic initial-condition perturbation for the retry ladder: a
/// node-indexed voltage vector drawn from options.ic_seed. Handed to the
/// transient as its initial voltages, so the rail scan and explicit ICs still
/// override it -- supplies stay exact, only the free nodes get kicked.
Vector perturbed_start(RingOscillator& ro, const RoRunOptions& options) {
  const size_t n = ro.circuit().nodes().unknown_count() + 1;
  Vector v(n, 0.0);
  Rng rng = Rng::fork(options.ic_seed, 0);
  for (size_t i = 1; i < n; ++i) {
    v[i] = rng.uniform(-options.ic_perturbation, options.ic_perturbation);
  }
  return v;
}

void accumulate(TransientStats* into, const TransientStats& stats) {
  into->steps_accepted += stats.steps_accepted;
  into->steps_rejected += stats.steps_rejected;
  into->newton_iterations += stats.newton_iterations;
  into->lu_factorizations += stats.lu_factorizations;
  into->lu_full_factorizations += stats.lu_full_factorizations;
  into->workspace_allocations += stats.workspace_allocations;
  into->early_exits += stats.early_exits;
  into->sim_time += stats.sim_time;
}

/// Recorded path: simulate a fixed window, post-process the tap waveform.
RoMeasurement measure_window(RingOscillator& ro, const RoRunOptions& options,
                             double t_stop) {
  if (options.transient_hook) options.transient_hook(options.transient_hook_ctx);
  TransientOptions topt = make_transient_options(ro, options, t_stop, {ro.probe()});
  if (options.budget != nullptr) {
    // The recorded path has no meter observer; install one purely to charge
    // the die budget (the last-resort retry rung must still honor it).
    DieBudgetTracker* budget = options.budget;
    topt.observer = [budget](double, const Vector&) {
      budget->on_step();
      return true;
    };
  }
  TransientResult tr = run_transient(ro.circuit(), topt);

  OscillationOptions oo;
  oo.level = ro.vdd() / 2.0;
  oo.discard_cycles = options.discard_cycles;
  oo.min_cycles = options.measure_cycles;
  const OscillationMeasurement m = measure_oscillation(tr.waveforms, ro.probe(), oo);

  RoMeasurement out;
  out.oscillating = m.oscillating;
  out.period = m.period;
  out.period_stddev = m.period_stddev;
  out.cycles = m.cycles;
  out.stats = tr.stats;
  return out;
}

RoMeasurement measure_recorded(RingOscillator& ro, const RoRunOptions& options) {
  const double first = std::min(options.first_window, options.max_time);
  RoMeasurement m = measure_window(ro, options, first);
  if (m.oscillating || first >= options.max_time) return m;
  RoMeasurement retry = measure_window(ro, options, options.max_time);
  // Account for both windows so throughput stats see the real work done.
  accumulate(&retry.stats, m.stats);
  return retry;
}

/// Streaming path: no waveform recording at all -- an OnlinePeriodMeter on
/// the step observer stops the run as soon as the measurement is complete or
/// the tap has settled to a DC level. One window of max_time replaces the
/// recorded path's first_window/max_time retry pair.
RoMeasurement measure_streaming(RingOscillator& ro, const RoRunOptions& options) {
  if (options.transient_hook) options.transient_hook(options.transient_hook_ctx);
  TransientOptions topt = make_transient_options(ro, options, options.max_time, {});
  topt.record_waveforms = false;

  OnlinePeriodMeter::Options mo;
  mo.osc.level = ro.vdd() / 2.0;
  mo.osc.discard_cycles = options.discard_cycles;
  mo.osc.min_cycles = options.measure_cycles;
  mo.stall_window = options.stall_window;
  mo.stall_epsilon = options.stall_epsilon;
  OnlinePeriodMeter meter(mo);
  const size_t tap = static_cast<size_t>(ro.probe().value);
  if (options.budget != nullptr) {
    DieBudgetTracker* budget = options.budget;
    topt.observer = [&meter, tap, budget](double t, const Vector& v) {
      budget->on_step();
      return meter.observe(t, v[tap]);
    };
  } else {
    // Unbudgeted hot path: no per-step branch beyond the meter itself.
    topt.observer = [&meter, tap](double t, const Vector& v) {
      return meter.observe(t, v[tap]);
    };
  }

  Vector perturbed;
  if (options.ic_perturbation > 0.0) {
    perturbed = perturbed_start(ro, options);
    topt.initial_voltages = &perturbed;
  }

  TransientResult tr = run_transient(ro.circuit(), topt);
  const OscillationMeasurement m = meter.result();

  RoMeasurement out;
  out.oscillating = m.oscillating;
  out.period = m.period;
  out.period_stddev = m.period_stddev;
  out.cycles = m.cycles;
  out.stalled = meter.stalled();
  out.stats = tr.stats;

  return out;
}

DeltaTResult subtract(const RoMeasurement& t1, const RoMeasurement& t2,
                      const char* what) {
  DeltaTResult result;
  result.sim_steps = t1.stats.steps_accepted + t2.stats.steps_accepted;
  result.early_exits = t1.stats.early_exits + t2.stats.early_exits;
  if (!t2.oscillating) {
    // The reference run must oscillate; if not, the DfT itself is broken.
    throw ConvergenceError(
        format("%s: bypass-all reference run does not oscillate", what),
        FailureKind::kDcStall);
  }
  result.t2 = t2.period;
  if (!t1.oscillating) {
    result.stuck = true;
    return result;
  }
  result.valid = true;
  result.t1 = t1.period;
  result.delta_t = t1.period - t2.period;
  return result;
}

}  // namespace

RoMeasurement measure_period(RingOscillator& ro, const RoRunOptions& options) {
  if (options.streaming) return measure_streaming(ro, options);
  return measure_recorded(ro, options);
}

DeltaTResult measure_delta_t(RingOscillator& ro, int enabled_tsvs,
                             const RoRunOptions& options) {
  require(enabled_tsvs >= 1 && enabled_tsvs <= ro.config().num_tsvs,
          "measure_delta_t: enabled_tsvs out of range");
  ro.enable_first(enabled_tsvs);
  const RoMeasurement t1 = measure_period(ro, options);
  ro.bypass_all();
  const RoMeasurement t2 = measure_period(ro, options);
  return subtract(t1, t2, "measure_delta_t");
}

DeltaTResult measure_delta_t_single(RingOscillator& ro, int tsv_index,
                                    const RoRunOptions& options) {
  require(tsv_index >= 0 && tsv_index < ro.config().num_tsvs,
          "measure_delta_t_single: index out of range");
  ro.enable_only(tsv_index);
  const RoMeasurement t1 = measure_period(ro, options);
  ro.bypass_all();
  const RoMeasurement t2 = measure_period(ro, options);
  return subtract(t1, t2, "measure_delta_t_single");
}

const RoMeasurement& RoReferenceCache::reference() {
  ro_.bypass_all();
  auto it = references_.find(ro_.vdd());
  if (it == references_.end()) {
    RoMeasurement m = measure_period(ro_, options_);
    ++reference_runs_;
    if (!m.oscillating) {
      // The reference run must oscillate; if not, the DfT itself is broken.
      // Deliberately not cached: a later call re-runs and re-throws, which
      // is exactly what the unmemoized functions do.
      throw ConvergenceError(
          "measure_delta_t: bypass-all reference run does not oscillate",
          FailureKind::kDcStall);
    }
    it = references_.emplace(ro_.vdd(), std::move(m)).first;
  }
  return it->second;
}

DeltaTResult RoReferenceCache::finish(const RoMeasurement& t1) {
  DeltaTResult result;
  result.sim_steps = t1.stats.steps_accepted;
  result.early_exits = t1.stats.early_exits;
  const size_t misses_before = reference_runs_;
  const RoMeasurement& t2 = reference();
  if (reference_runs_ != misses_before) {
    result.sim_steps += t2.stats.steps_accepted;
    result.early_exits += t2.stats.early_exits;
  }
  result.t2 = t2.period;
  if (!t1.oscillating) {
    result.stuck = true;
    return result;
  }
  result.valid = true;
  result.t1 = t1.period;
  result.delta_t = t1.period - t2.period;
  return result;
}

DeltaTResult RoReferenceCache::measure_delta_t(int enabled_tsvs) {
  require(enabled_tsvs >= 1 && enabled_tsvs <= ro_.config().num_tsvs,
          "measure_delta_t: enabled_tsvs out of range");
  ro_.enable_first(enabled_tsvs);
  const RoMeasurement t1 = measure_period(ro_, options_);
  return finish(t1);
}

DeltaTResult RoReferenceCache::measure_delta_t_single(int tsv_index) {
  require(tsv_index >= 0 && tsv_index < ro_.config().num_tsvs,
          "measure_delta_t_single: index out of range");
  ro_.enable_only(tsv_index);
  const RoMeasurement t1 = measure_period(ro_, options_);
  return finish(t1);
}

TransientResult capture_waveforms(RingOscillator& ro, double t_stop,
                                  const std::vector<NodeId>& record,
                                  const RoRunOptions& options) {
  TransientOptions topt = make_transient_options(ro, options, t_stop, record);
  return run_transient(ro.circuit(), topt);
}

}  // namespace rotsv
