// Transient driver for ring oscillators: runs the circuit, extracts the
// oscillation period, and implements the paper's T1/T2 subtraction
// measurement (Sec. IV-A):
//
//   T1 = period with the TSV(s) under test in the loop
//   T2 = period with every TSV bypassed
//   dT = T1 - T2   -- cancels the shared-path delay and most process spread.
//
// The default measurement path is *streaming*: an OnlinePeriodMeter rides
// run_transient's step observer, no waveform is recorded, and the transient
// stops the moment discard_cycles + measure_cycles full cycles (or a
// confirmed DC stuck-at level) have been observed -- a ~1-3 ns period ring
// needs ~6 cycles, not the 60-400 ns window the recorded path simulates.
#pragma once

#include <functional>
#include <map>

#include "ro/ring_oscillator.hpp"
#include "sim/measure.hpp"
#include "sim/transient.hpp"
#include "util/failure.hpp"

namespace rotsv {

struct RoRunOptions {
  int discard_cycles = 2;
  int measure_cycles = 4;
  /// Recorded-path first simulation window [s]; extended to `max_time` once
  /// when too few cycles were observed (slow oscillation at low VDD / heavy
  /// leakage). The streaming path runs a single window of `max_time` and
  /// exits early instead.
  double first_window = 60e-9;
  double max_time = 400e-9;
  Integrator method = Integrator::kTrapezoidal;
  double dt_max = 250e-12;
  double err_target = 0.008;
  double err_reject = 0.05;

  /// Streaming measurement (default): observer-driven early exit, no
  /// waveform allocation or recording. false restores the recorded
  /// two-window path (fig04-style waveform benches, debugging).
  bool streaming = true;
  /// DC stuck-at detection for the streaming path: stop once the tap node
  /// moved less than `stall_epsilon` over a full `stall_window` with the
  /// measurement still incomplete -- a settled autonomous circuit cannot
  /// restart. Must comfortably exceed the slowest plausible period so a
  /// slow low-VDD oscillation is never mistaken for DC. 0 disables.
  double stall_window = 30e-9;
  double stall_epsilon = 1e-3;

  // --- failure containment / retry escalation (campaign layer) -------------
  /// Per-die work budget shared by every transient of a die test, across all
  /// retry attempts: accepted steps are charged through the step observer and
  /// the run aborts with a step-budget / wall-clock-budget ConvergenceError
  /// once exhausted. Null (the default) costs nothing on the hot path.
  DieBudgetTracker* budget = nullptr;
  /// Retry-ladder escalation: perturb the transient's starting node voltages
  /// by uniform(-ic_perturbation, +ic_perturbation) volts, drawn from the
  /// deterministic stream `ic_seed` (rails and explicit ICs still override,
  /// so the supplies stay exact). 0 disables; only the streaming path
  /// perturbs (the recorded last-resort rung runs cold on purpose).
  double ic_perturbation = 0.0;
  uint64_t ic_seed = 0;
  /// > 0 overrides NewtonOptions::gmin for every solve of the run -- the
  /// gmin-escalated DC rung of the retry ladder.
  double newton_gmin = 0.0;
  /// Chaos hook, called once per transient before it starts; may throw to
  /// inject a deterministic solver failure (campaign FaultInjector). A plain
  /// function pointer + context rather than std::function: this struct is
  /// copied into every tester/campaign config and GCC 12 flags copies of a
  /// nested std::function with a spurious -Wmaybe-uninitialized under -O2.
  void (*transient_hook)(void*) = nullptr;
  void* transient_hook_ctx = nullptr;
};

struct RoMeasurement {
  bool oscillating = false;
  double period = 0.0;
  double period_stddev = 0.0;
  int cycles = 0;
  /// Streaming path only: the run was cut short by DC stuck-at detection.
  bool stalled = false;
  TransientStats stats;
};

/// Measures the oscillation period of the ring in its current configuration
/// (bypass pattern, VDD, variation sample).
RoMeasurement measure_period(RingOscillator& ro, const RoRunOptions& options = {});

struct DeltaTResult {
  bool valid = false;     ///< false when T1 does not oscillate (stuck-at)
  bool stuck = false;     ///< T1 run did not oscillate (strong leakage)
  double t1 = 0.0;
  double t2 = 0.0;
  double delta_t = 0.0;   ///< T1 - T2
  /// Accepted transient steps spent on both runs (throughput accounting).
  size_t sim_steps = 0;
  /// Runs ended early by the streaming meter (cycle budget or DC stall).
  uint64_t early_exits = 0;
};

/// Runs the paper's two-run measurement: first with `enabled_tsvs` TSVs of
/// the group in the loop (all when m > N is not allowed), then with all
/// bypassed, and returns the subtraction. The bypass state is restored.
DeltaTResult measure_delta_t(RingOscillator& ro, int enabled_tsvs,
                             const RoRunOptions& options = {});

/// Same, enabling exactly one TSV (index) -- the per-TSV test.
DeltaTResult measure_delta_t_single(RingOscillator& ro, int tsv_index,
                                    const RoRunOptions& options = {});

/// Memoizes the bypass-all reference (T2) run across the measurements of one
/// DUT: for a fixed (process-variation sample, VDD) the reference transient
/// is identical for every TSV, so testing N TSVs costs N+1 transients
/// instead of 2N. Results are bit-identical to the free functions above --
/// the cached RoMeasurement is literally the one a repeat run would compute,
/// and the ring is still left in the bypass-all state after every call.
///
/// The cache is keyed by the ring's exact VDD. It does NOT observe variation
/// or fault changes: call invalidate() (or build a fresh cache, which is
/// what the tester does per die) after apply_variation() or any other
/// reconfiguration of the DUT.
class RoReferenceCache {
 public:
  explicit RoReferenceCache(RingOscillator& ro, const RoRunOptions& options = {})
      : ro_(ro), options_(options) {}

  /// measure_delta_t / measure_delta_t_single with the memoized reference.
  /// DeltaTResult::sim_steps includes the reference run's steps only when
  /// this call actually performed it (cache miss), so throughput accounting
  /// reflects the work done, not the work avoided.
  DeltaTResult measure_delta_t(int enabled_tsvs);
  DeltaTResult measure_delta_t_single(int tsv_index);

  void invalidate() { references_.clear(); }
  /// Reference transients actually run (cache misses).
  size_t reference_runs() const { return reference_runs_; }

 private:
  /// Returns the reference measurement for the ring's current VDD, running
  /// it on a miss; always leaves the ring bypassed-all. Throws
  /// ConvergenceError when the reference does not oscillate (broken DfT).
  const RoMeasurement& reference();
  DeltaTResult finish(const RoMeasurement& t1);

  RingOscillator& ro_;
  RoRunOptions options_;
  std::map<double, RoMeasurement> references_;  ///< keyed by exact VDD
  size_t reference_runs_ = 0;
};

/// Captures the transient waveforms of the current configuration (used by
/// the Fig. 4 waveform bench and for debugging).
TransientResult capture_waveforms(RingOscillator& ro, double t_stop,
                                  const std::vector<NodeId>& record,
                                  const RoRunOptions& options = {});

}  // namespace rotsv
