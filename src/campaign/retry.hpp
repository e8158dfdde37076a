// Deterministic retry escalation for the campaign engine.
//
// When screening a die fails (solver divergence, stalled reference,
// injected fault), the executor re-screens it with progressively heavier
// numerics instead of fabricating a verdict:
//
//   attempt 0  clean run, exactly the configured options
//   attempt 1  perturbed initial conditions (die-specific RNG stream)
//   attempt 2  perturbed ICs + gmin-escalated Newton
//   attempt 3+ non-streaming recorded-waveform path (last resort; the
//              streaming meter's early-exit/stall logic is out of the loop)
//
// Every attempt re-forks the die's RNG stream from scratch, so a die that
// recovers on rung r produces verdicts from draws identical to a clean run
// -- the bit-identical-verdicts property the chaos tests pin. A die that
// exhausts the ladder (or its DieBudget) is quarantined as kInconclusive.
#pragma once

#include <cstdint>

#include "ro/ro_runner.hpp"

namespace rotsv {

struct RetryPolicy {
  /// Extra attempts after the first clean one; 0 disables the ladder.
  int retries = 3;
  /// Initial-condition kick amplitude [V] for rungs 1 and 2.
  double ic_perturbation = 0.05;
  /// Newton gmin override [S] for rung 2 and above (0 keeps the default).
  double escalated_gmin = 1e-9;
};

/// The deterministic perturbation stream for (campaign seed, die, attempt):
/// independent of the die's ground-truth and variation streams, so retries
/// never disturb the draws that define the die itself.
uint64_t retry_ic_stream(uint64_t campaign_seed, int die_index, int attempt);

/// Run options for one rung of the ladder. Attempt 0 returns `base`
/// unchanged (a clean first attempt must be bit-identical to a run without
/// the containment layer).
RoRunOptions escalate_run(const RoRunOptions& base, const RetryPolicy& policy,
                          int attempt, uint64_t ic_stream);

}  // namespace rotsv
