#include "sim/transient.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace rotsv {
namespace {

/// Builds the node-indexed initial-condition vector: caller-supplied initial
/// voltages (if any), then the cached rail scan, then explicit initial
/// conditions -- each layer overriding the previous one.
Vector starting_voltages(const Circuit& circuit, const TransientOptions& options) {
  const size_t n = circuit.nodes().unknown_count() + 1;
  Vector v;
  if (options.initial_voltages != nullptr) {
    require(options.initial_voltages->size() == n,
            "transient: initial-voltage vector size does not match the circuit");
    v = *options.initial_voltages;
    v[0] = 0.0;
  } else {
    v.assign(n, 0.0);
  }
  // Nodes tied to ground-referenced DC sources start at the source value so
  // rails are correct even when the caller forgets to list them (or the
  // supplied initial voltages put them elsewhere).
  for (const VoltageSource* vs : circuit.rail_sources()) {
    v[static_cast<size_t>(vs->positive().value)] = vs->waveform().at(0.0);
  }
  for (const auto& [node, volts] : options.initial_conditions) {
    if (!node.is_ground()) v[static_cast<size_t>(node.value)] = volts;
  }
  return v;
}

}  // namespace

TransientResult run_transient(const Circuit& circuit, const TransientOptions& options) {
  if (!(options.t_stop > 0.0)) throw ConfigError("transient: t_stop must be > 0");

  MnaSystem mna(circuit);
  const size_t n_nodes = mna.node_unknowns();

  TransientResult result;
  const bool recording = options.record_waveforms;
  if (recording) {
    std::vector<NodeId> record = options.record;
    if (record.empty()) {
      for (size_t i = 1; i <= n_nodes; ++i)
        record.push_back(NodeId{static_cast<int>(i)});
    }
    result.waveforms = WaveformSet(std::move(record));
  }

  // State vectors: device dynamic state at the previous accepted point and
  // the scratch slot written during the Newton solve of the current step.
  Vector state_prev(circuit.state_count(), 0.0);
  Vector state_now(circuit.state_count(), 0.0);

  Vector v_prev = starting_voltages(circuit, options);  // accepted at t_prev
  Vector v_prev2 = v_prev;                             // accepted before that
  double h_prev = options.dt_initial;

  if (recording) result.waveforms.append(0.0, v_prev);
  bool stopped = options.observer && !options.observer(0.0, v_prev);

  // One workspace for the whole run: every Newton iteration of every step
  // reuses the same Jacobian/RHS/pivot buffers and frozen pivot ordering.
  // The predictor/solution vectors are hoisted for the same reason -- the
  // step loop performs no per-step allocation.
  SolverWorkspace workspace;
  Vector v_guess(v_prev.size());
  Vector v_solved(v_prev.size());

  LoadContext ctx;
  ctx.kind = AnalysisKind::kTransient;

  // `h` is the controller's step choice and is never shortened by the
  // end-of-window clamp below; `h_step` is what a given attempt actually
  // uses. Keeping them separate means a rejection inside a tiny final window
  // shrinks the controller's (large) step and retries, instead of driving
  // the clamped value under dt_min and aborting with a bogus "underflow".
  double h = options.dt_initial;
  double t = 0.0;
  bool first_step = true;

  while (!stopped && t < options.t_stop - 1e-18) {
    if (result.stats.steps_accepted > options.max_steps) {
      throw ConvergenceError("transient: max_steps exceeded",
                             FailureKind::kTransientMaxSteps);
    }
    const double h_step = std::min(h, options.t_stop - t);
    const double t_new = t + h_step;

    // Predictor: linear extrapolation of the last two accepted points.
    if (first_step || h_prev <= 0.0) {
      v_guess = v_prev;
    } else {
      const double r = h_step / h_prev;
      for (size_t i = 0; i < v_prev.size(); ++i) {
        v_guess[i] = v_prev[i] + (v_prev[i] - v_prev2[i]) * r;
      }
    }
    v_solved = v_guess;

    // The very first step bootstraps trapezoidal state with backward Euler.
    ctx.method = first_step ? Integrator::kBackwardEuler : options.method;
    ctx.time = t_new;
    ctx.h = h_step;
    ctx.v_prev = &v_prev;
    // state vectors swap buffers on accept; refresh the pointers every pass.
    ctx.state_prev = state_prev.data();
    ctx.state_now = state_now.data();

    const NewtonResult newton =
        newton_solve(circuit, mna, ctx, &v_solved, options.newton, &workspace,
                     nullptr);
    result.stats.newton_iterations += static_cast<size_t>(newton.iterations);

    bool accept = newton.converged;
    double err = 0.0;
    if (accept && !first_step) {
      for (size_t i = 1; i <= n_nodes; ++i) {
        err = std::max(err, std::fabs(v_solved[i] - v_guess[i]));
      }
      if (err > options.err_reject) accept = false;
    }

    if (!accept) {
      result.stats.steps_rejected++;
      h *= newton.converged ? 0.4 : 0.25;
      if (h < options.dt_min) {
        throw ConvergenceError(
            format("transient: timestep underflow at t=%s (newton %s, err=%.3g)",
                   format_time(t).c_str(), newton.converged ? "ok" : "diverged",
                   err),
            FailureKind::kDcNoConvergence);
      }
      continue;
    }

    // Accept the step. The swap chain retires v_prev2's buffer into v_solved
    // for reuse next pass; no vector is copied or reallocated.
    std::swap(v_prev2, v_prev);
    std::swap(v_prev, v_solved);
    h_prev = h_step;
    t = t_new;
    first_step = false;
    std::swap(state_prev, state_now);
    result.stats.steps_accepted++;
    if (recording) result.waveforms.append(t, v_prev);
    if (options.observer && !options.observer(t, v_prev)) stopped = true;

    // Error-based step-size controller (order-1 heuristic on the predictor
    // deviation): grow gently when comfortably under target. Growth is based
    // on the step actually taken (h_step), matching the pre-clamp behavior
    // whenever the window clamp is inactive.
    double grow = 1.4;
    if (err > 1e-12) {
      grow = std::clamp(std::sqrt(options.err_target / err), 0.3, 1.6);
    }
    h = std::clamp(h_step * grow, options.dt_min, options.dt_max);
  }

  result.stats.lu_factorizations = workspace.lu_factorizations();
  result.stats.lu_full_factorizations = workspace.lu_full_factorizations();
  result.stats.workspace_allocations = workspace.allocations;
  result.stats.early_exits = stopped ? 1 : 0;
  result.stats.sim_time = t;
  result.final_voltages = std::move(v_prev);
  result.final_time = t;
  result.final_h = h;
  return result;
}

}  // namespace rotsv
