#include "campaign/retry.hpp"

#include "util/rng.hpp"

namespace rotsv {

uint64_t retry_ic_stream(uint64_t campaign_seed, int die_index, int attempt) {
  // Salted fork keeps this family of streams disjoint from the 2g/2g+1
  // ground-truth and variation streams for every plausible die count.
  constexpr uint64_t kRetrySalt = 0x7265747279ULL;  // "retry"
  return Rng::fork(campaign_seed ^ kRetrySalt,
                   static_cast<uint64_t>(die_index) * 64 +
                       static_cast<uint64_t>(attempt))
      .next_u64();
}

RoRunOptions escalate_run(const RoRunOptions& base, const RetryPolicy& policy,
                          int attempt, uint64_t ic_stream) {
  RoRunOptions run = base;
  if (attempt <= 0) return run;
  run.ic_perturbation = policy.ic_perturbation;
  run.ic_seed = ic_stream;
  if (attempt >= 2 && policy.escalated_gmin > 0.0) {
    run.newton_gmin = policy.escalated_gmin;
  }
  if (attempt >= 3) {
    // Last resort: the recorded two-window path. It ignores IC perturbation
    // (cold start on purpose) and the streaming stall/early-exit machinery.
    run.streaming = false;
    run.ic_perturbation = 0.0;
  }
  return run;
}

}  // namespace rotsv
