// Campaign specification: what a wafer-scale screening run looks like.
//
// A campaign is a lot of `wafers` wafers, each a rows x cols die grid whose
// populated sites lie inside the inscribed circle (dice in the corners fall
// off the wafer). Every die carries `tsvs_per_die` TSVs under test; each TSV
// independently draws a fault from the DefectMix with a deterministic per-die
// RNG stream, so the ground truth of die g is a pure function of
// (seed, g) -- identical across thread counts, shard orders and resumes.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "campaign/retry.hpp"
#include "core/tester.hpp"
#include "tsv/fault.hpp"
#include "util/jsonl.hpp"
#include "util/rng.hpp"

namespace rotsv {

/// Statistical defect mix of an incoming lot. Rates are per-TSV
/// probabilities; fault parameters draw log-uniformly from their ranges
/// (defect severities span decades, so log-uniform is the natural prior).
struct DefectMix {
  double open_rate = 0.05;   ///< micro-void probability per TSV
  double leak_rate = 0.05;   ///< pinhole probability per TSV
  double open_r_min = 1e3;   ///< series R_O range [ohm]
  double open_r_max = 1e6;
  double open_x_min = 0.1;   ///< void position range (normalized)
  double open_x_max = 0.9;
  double leak_r_min = 300.0;  ///< pinhole R_L range [ohm]; low end is stuck
  double leak_r_max = 3e3;
  /// Radial bias: defect rates scale by (1 + edge_bias * (2*rho)^2) where
  /// rho in [0, 0.5] is the die's normalized distance from wafer center --
  /// edge dice fail more often, as on real wafers. 0 disables.
  double edge_bias = 0.0;

  /// Draws one TSV's fault. `rho` is the normalized radial position of the
  /// die carrying it.
  TsvFault draw(Rng& rng, double rho) const;
};

struct CampaignSpec {
  std::string lot_id = "lot0";
  int wafers = 1;
  int rows = 8;           ///< die grid height per wafer
  int cols = 8;           ///< die grid width per wafer
  int tsvs_per_die = 1;   ///< TSV groups screened per die
  DefectMix mix;
  TesterConfig tester;    ///< voltage plan, group size, calibration depth
  RetryPolicy retry;      ///< failure-containment escalation ladder
  uint64_t seed = 20130318;  ///< campaign seed (defect draws + die variation)
  size_t threads = 0;     ///< worker threads (0 = hardware concurrency)
  /// Precomputed pass bands (lo, hi) per voltage; when sized to the voltage
  /// plan the executor installs them instead of running calibration
  /// (tests/benches reuse one calibration across many runs this way).
  std::vector<std::pair<double, double>> preset_bands;

  /// Throws ConfigError on nonsensical parameters.
  void validate() const;

  /// True when grid site (row, col) is populated (inside the wafer circle).
  bool die_present(int row, int col) const;

  /// Normalized radial position of a die site, 0 = center, 0.5 = edge.
  double die_rho(int row, int col) const;

  /// Populated dice per wafer.
  int dice_per_wafer() const;

  /// Populated dice in the whole campaign.
  int total_dice() const;

  /// True when the dense site grid (wafers x rows x cols, populated or not)
  /// is indexable by int -- die_index() and every per-site vector rely on it.
  bool grid_fits_int() const;

  /// Dense global index of grid site (wafer, row, col) -- includes
  /// unpopulated sites so the mapping is invertible without a scan.
  int die_index(int wafer, int row, int col) const;

  /// Inverse of die_index. Throws ConfigError when `index` lies outside the
  /// campaign grid (the serve layer decodes worker shard assignments with
  /// this, so a corrupt index must fail loudly, not wrap around).
  void die_site(int index, int* wafer, int* row, int* col) const;

  /// Every field of visit_spec_fields() in its exact wire encoding (the
  /// campaign_spec_to_record() JSON minus `threads`); stored in the result
  /// log and .rcs headers and checked on resume so a checkpoint can never be
  /// continued with a different campaign.
  std::string fingerprint() const;
};

/// The one list of CampaignSpec settings that decide a verdict, each under a
/// stable key, visited in a fixed order as `visit(key, field)`. The wire codec
/// and fingerprint() are both driven from it. Not listed: `threads` and
/// `tester.threads` (verdicts are identical at any thread count; the codec
/// carries `threads` on its own), and tester.run's per-attempt and runtime
/// fields -- the retry ladder sets `budget`, `ic_perturbation`, `ic_seed`
/// and `newton_gmin` from `retry`; `transient_hook*` is instrumentation.
template <typename Spec, typename Visit>
void visit_spec_fields(Spec& spec, Visit&& visit) {
  visit("lot_id", spec.lot_id);
  visit("wafers", spec.wafers);
  visit("rows", spec.rows);
  visit("cols", spec.cols);
  visit("tsvs_per_die", spec.tsvs_per_die);
  visit("seed", spec.seed);
  auto& mix = spec.mix;
  visit("mix.open_rate", mix.open_rate);
  visit("mix.leak_rate", mix.leak_rate);
  visit("mix.open_r_min", mix.open_r_min);
  visit("mix.open_r_max", mix.open_r_max);
  visit("mix.open_x_min", mix.open_x_min);
  visit("mix.open_x_max", mix.open_x_max);
  visit("mix.leak_r_min", mix.leak_r_min);
  visit("mix.leak_r_max", mix.leak_r_max);
  visit("mix.edge_bias", mix.edge_bias);
  auto& tester = spec.tester;
  visit("tester.group_size", tester.group_size);
  visit("tester.voltages", tester.voltages);
  visit("tester.tech.resistance_ohm", tester.tech.resistance_ohm);
  visit("tester.tech.capacitance_f", tester.tech.capacitance_f);
  visit("tester.tech.segments", tester.tech.segments);
  auto& run = tester.run;
  visit("tester.run.discard_cycles", run.discard_cycles);
  visit("tester.run.measure_cycles", run.measure_cycles);
  visit("tester.run.first_window", run.first_window);
  visit("tester.run.max_time", run.max_time);
  visit("tester.run.method", run.method);
  visit("tester.run.dt_max", run.dt_max);
  visit("tester.run.err_target", run.err_target);
  visit("tester.run.err_reject", run.err_reject);
  visit("tester.run.streaming", run.streaming);
  visit("tester.run.stall_window", run.stall_window);
  visit("tester.run.stall_epsilon", run.stall_epsilon);
  auto& variation = tester.variation;
  visit("tester.variation.sigma_vth", variation.sigma_vth);
  visit("tester.variation.sigma_leff_rel", variation.sigma_leff_rel);
  visit("tester.variation.sigma_vth_global", variation.sigma_vth_global);
  visit("tester.variation.sigma_leff_rel_global",
        variation.sigma_leff_rel_global);
  visit("tester.calibration_samples", tester.calibration_samples);
  visit("tester.guard_band_sigma", tester.guard_band_sigma);
  visit("tester.seed", tester.seed);
  visit("tester.die_budget.max_steps", tester.die_budget.max_steps);
  visit("tester.die_budget.max_seconds", tester.die_budget.max_seconds);
  visit("tester.meter.bits", tester.meter.bits);
  visit("tester.meter.window", tester.meter.window);
  visit("tester.meter.backend", tester.meter.backend);
  visit("tester.meter.phase", tester.meter.phase);
  visit("retry.retries", spec.retry.retries);
  visit("retry.ic_perturbation", spec.retry.ic_perturbation);
  visit("retry.escalated_gmin", spec.retry.escalated_gmin);
  visit("preset_bands", spec.preset_bands);
}

/// CampaignSpec wire codec: one flat-record field per visit_spec_fields()
/// entry (doubles at %.17g, so decoding reproduces the fingerprint exactly)
/// plus `threads`. The decoder throws ConfigError naming the key of any
/// missing, mistyped or out-of-range field.
JsonRecord campaign_spec_to_record(const CampaignSpec& spec);
CampaignSpec campaign_spec_from_record(const JsonRecord& record);

/// Throws ConfigError unless `stored` -- a fingerprint read back from a
/// result log, an .rcs store or a server -- is `spec`'s own. The message
/// starts with `what` and names the first listed key whose value differs,
/// with both values.
void require_same_campaign(const std::string& stored, const CampaignSpec& spec,
                           const std::string& what);

/// Pass-band list codec ("lo:hi,lo:hi,..." with %.17g endpoints), used for
/// `preset_bands` and inside worker-init and job-accepted payloads.
std::string bands_to_string(
    const std::vector<std::pair<double, double>>& bands);
std::vector<std::pair<double, double>> bands_from_string(
    const std::string& text);

/// Ground truth of one die: the faults its TSVs actually carry.
struct DieGroundTruth {
  std::vector<TsvFault> faults;  ///< size = tsvs_per_die
  bool defective() const;
  /// Worst-case truth class for binning: stuck-class leak > leak > open > none.
  TsvFaultType worst_type() const;
};

/// Reconstructs die `g`'s ground truth from the spec alone (deterministic).
DieGroundTruth die_ground_truth(const CampaignSpec& spec, int wafer, int row, int col);

}  // namespace rotsv
