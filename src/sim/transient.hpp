// Transient analysis: variable-step integration (backward Euler or
// trapezoidal) with a predictor-based local-error controller and
// use-initial-conditions startup.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "sim/newton.hpp"
#include "sim/waveform.hpp"

namespace rotsv {

/// Step observer: called with (t, node-indexed accepted voltages) for the
/// t = 0 initial point and after every accepted step, in time order. Return
/// false to end the run after that step -- no error, everything accepted so
/// far is kept and TransientStats::early_exits records the stop. Rejected
/// steps are never observed.
using TransientObserver = std::function<bool(double t, const Vector& v)>;

struct TransientOptions {
  double t_stop = 0.0;       ///< end time [s]; must be > 0
  double dt_initial = 0.5e-12;
  double dt_min = 1e-16;
  double dt_max = 50e-12;
  Integrator method = Integrator::kTrapezoidal;

  /// Predictor-corrector error control: a step is rejected when the solved
  /// voltages deviate from the linear predictor by more than `err_reject`
  /// (volts, inf-norm); the controller targets `err_target` per step.
  double err_target = 0.01;
  double err_reject = 0.05;

  NewtonOptions newton;

  /// Node initial conditions (UIC). Unlisted nodes start at 0 V.
  std::vector<std::pair<NodeId, double>> initial_conditions;

  /// Nodes to record; empty records every node.
  std::vector<NodeId> record;

  /// When false no WaveformSet is populated at all -- the observer is the
  /// only consumer of the trajectory. This is the RO measurement hot path:
  /// a streaming period meter needs no sample storage whatsoever.
  bool record_waveforms = true;

  /// Optional step observer (see TransientObserver above).
  TransientObserver observer;

  /// Optional node-indexed starting voltages instead of the flat zero vector
  /// (size must be unknown_count() + 1); the retry ladder's perturbed-IC
  /// rung seeds runs this way. Rail sources and explicit initial_conditions
  /// still override, so the rails are always exact.
  const Vector* initial_voltages = nullptr;

  /// Abort the run (ConvergenceError) after this many accepted steps;
  /// guards against runaway simulations of non-oscillating circuits.
  size_t max_steps = 4'000'000;
};

struct TransientStats {
  size_t steps_accepted = 0;
  size_t steps_rejected = 0;
  size_t newton_iterations = 0;
  /// Solver-workspace observability: total LU factorization passes, how many
  /// of them ran the full partial-pivoting path (first pass + pivot-ratio
  /// fallbacks; the rest reused the frozen pivot ordering), and how many
  /// times the workspace had to (re)build a buffer -- a small constant for a
  /// healthy run (everything is sized on the first step, then reused), and
  /// notably NOT proportional to the step count.
  uint64_t lu_factorizations = 0;
  uint64_t lu_full_factorizations = 0;
  uint64_t workspace_allocations = 0;
  /// Early-exit observability: runs ended by the observer (0 or 1 for a
  /// single transient; drivers that retry sum their stats) and the simulated
  /// time actually accepted -- against t_stop this is the work the observer
  /// saved. Both aggregate by addition like the counters above.
  uint64_t early_exits = 0;
  double sim_time = 0.0;
};

struct TransientResult {
  WaveformSet waveforms;  ///< empty when options.record_waveforms is false
  TransientStats stats;
  /// Final accepted state, exported even when nothing is recorded.
  Vector final_voltages;
  double final_time = 0.0;
  double final_h = 0.0;  ///< controller step choice at exit
};

/// Runs the transient analysis. Throws ConvergenceError when the timestep
/// controller underflows dt_min or Newton cannot converge at any step size.
TransientResult run_transient(const Circuit& circuit, const TransientOptions& options);

}  // namespace rotsv
