// Tester and campaign configuration preflight. A campaign commits hours of
// simulation to one spec, so every parameter the flow will eventually trip
// over -- voltage plan, calibration depth, defect-mix ranges, preset bands,
// and the DfT control states the screening loop will drive -- is checked
// up front, the EffiTest discipline of validating before committing test time.
#include <algorithm>
#include <climits>
#include <cmath>
#include <set>

#include "analyze/analyze.hpp"
#include "analyze/cost_model.hpp"
#include "campaign/fault_injector.hpp"
#include "util/strings.hpp"

namespace rotsv {
namespace {

bool finite(double v) { return std::isfinite(v); }

}  // namespace

AnalysisReport analyze_tester_config(const TesterConfig& config) {
  AnalysisReport report;

  if (config.group_size < 1) {
    report.add(DiagCode::kBadTesterConfig, DiagSeverity::kError, "group_size", 0,
               format("group size %d must be >= 1", config.group_size));
  }
  if (config.calibration_samples < 2) {
    report.add(DiagCode::kBadTesterConfig, DiagSeverity::kError,
               "calibration_samples", 0,
               format("calibration needs at least 2 Monte-Carlo samples to "
                      "estimate a spread, got %d",
                      config.calibration_samples));
  }
  if (!finite(config.guard_band_sigma) || config.guard_band_sigma <= 0.0) {
    report.add(DiagCode::kBadTesterConfig, DiagSeverity::kError,
               "guard_band_sigma", 0,
               format("guard band %g sigma must be positive",
                      config.guard_band_sigma));
  }

  if (config.voltages.empty()) {
    report.add(DiagCode::kBadVoltagePlan, DiagSeverity::kError, "voltages", 0,
               "voltage plan is empty");
  }
  std::set<double> seen;
  for (size_t i = 0; i < config.voltages.size(); ++i) {
    const double v = config.voltages[i];
    if (!finite(v) || v <= 0.0) {
      report.add(DiagCode::kBadVoltagePlan, DiagSeverity::kError,
                 format("voltages[%zu]", i), 0,
                 format("voltage plan entry %zu is %g V (must be positive and "
                        "finite)",
                        i, v));
    } else if (!seen.insert(v).second) {
      report.add(DiagCode::kDuplicateVoltage, DiagSeverity::kWarning,
                 format("voltages[%zu]", i), 0,
                 format("voltage %g V appears more than once in the plan (the "
                        "duplicate buys no sensitivity)",
                        v));
    }
  }

  if (config.run.measure_cycles < 1) {
    report.add(DiagCode::kBadTesterConfig, DiagSeverity::kError,
               "run.measure_cycles", 0,
               format("measure_cycles %d must be >= 1", config.run.measure_cycles));
  }
  if (config.run.first_window <= 0.0 ||
      config.run.max_time < config.run.first_window) {
    report.add(DiagCode::kBadTesterConfig, DiagSeverity::kError,
               "run.first_window", 0,
               format("simulation windows are inverted or non-positive "
                      "(first_window=%g s, max_time=%g s)",
                      config.run.first_window, config.run.max_time));
  }
  if (config.run.dt_max <= 0.0) {
    report.add(DiagCode::kBadTesterConfig, DiagSeverity::kError, "run.dt_max", 0,
               format("dt_max %g s must be positive", config.run.dt_max));
  }

  DftArchitectureConfig dft;
  dft.tsv_count = std::max(config.group_size, 1);
  dft.group_size = std::max(config.group_size, 1);
  dft.meter = config.meter;
  report.merge(analyze_dft_config(dft));
  report.sort_by_location();
  return report;
}

AnalysisReport analyze_campaign(const CampaignSpec& spec) {
  AnalysisReport report = analyze_tester_config(spec.tester);

  if (spec.wafers < 1 || spec.rows < 1 || spec.cols < 1) {
    report.add(DiagCode::kBadCampaignGrid, DiagSeverity::kError, "grid", 0,
               format("campaign needs wafers/rows/cols >= 1, got %d/%d/%d",
                      spec.wafers, spec.rows, spec.cols));
  } else if (!spec.grid_fits_int()) {
    report.add(DiagCode::kBadCampaignGrid, DiagSeverity::kError, "grid", 0,
               format("%dx%dx%d site grid exceeds %d sites", spec.wafers,
                      spec.rows, spec.cols, INT_MAX));
  } else if (spec.total_dice() < 1) {
    report.add(DiagCode::kBadCampaignGrid, DiagSeverity::kError, "grid", 0,
               "wafer grid has no populated dice inside the wafer circle");
  }
  if (spec.tsvs_per_die < 1) {
    report.add(DiagCode::kBadCampaignGrid, DiagSeverity::kError, "tsvs_per_die",
               0, format("tsvs_per_die %d must be >= 1", spec.tsvs_per_die));
  }

  const DefectMix& mix = spec.mix;
  if (mix.open_rate < 0.0 || mix.leak_rate < 0.0 ||
      mix.open_rate + mix.leak_rate > 1.0) {
    report.add(DiagCode::kBadDefectMix, DiagSeverity::kError, "rates", 0,
               format("defect rates must be probabilities with open+leak <= 1 "
                      "(open=%g, leak=%g)",
                      mix.open_rate, mix.leak_rate));
  }
  if (mix.open_r_min <= 0.0 || mix.open_r_max < mix.open_r_min) {
    report.add(DiagCode::kBadDefectMix, DiagSeverity::kError, "open_r", 0,
               format("open resistance range [%g, %g] ohm is invalid "
                      "(log-uniform needs 0 < min <= max)",
                      mix.open_r_min, mix.open_r_max));
  }
  if (mix.leak_r_min <= 0.0 || mix.leak_r_max < mix.leak_r_min) {
    report.add(DiagCode::kBadDefectMix, DiagSeverity::kError, "leak_r", 0,
               format("leakage resistance range [%g, %g] ohm is invalid "
                      "(log-uniform needs 0 < min <= max)",
                      mix.leak_r_min, mix.leak_r_max));
  }
  if (mix.open_x_min < 0.0 || mix.open_x_max > 1.0 ||
      mix.open_x_min > mix.open_x_max) {
    report.add(DiagCode::kBadDefectMix, DiagSeverity::kError, "open_x", 0,
               format("void position range [%g, %g] must lie inside [0, 1]",
                      mix.open_x_min, mix.open_x_max));
  }
  if (mix.edge_bias < 0.0) {
    report.add(DiagCode::kBadDefectMix, DiagSeverity::kError, "edge_bias", 0,
               format("edge bias %g must be >= 0 (rates cannot go negative)",
                      mix.edge_bias));
  }

  // Failure-containment configuration: a bad retry policy or die budget
  // would otherwise only surface after the first die fails, hours in.
  if (spec.retry.retries < 0) {
    report.add(DiagCode::kBadRetryPolicy, DiagSeverity::kError,
               "retry.retries", 0,
               format("retry count %d must be >= 0", spec.retry.retries));
  }
  if (!finite(spec.retry.ic_perturbation) || spec.retry.ic_perturbation < 0.0) {
    report.add(DiagCode::kBadRetryPolicy, DiagSeverity::kError,
               "retry.ic_perturbation", 0,
               format("IC perturbation %g V must be finite and >= 0",
                      spec.retry.ic_perturbation));
  } else if (spec.retry.ic_perturbation >= 1.0) {
    report.add(DiagCode::kBadRetryPolicy, DiagSeverity::kWarning,
               "retry.ic_perturbation", 0,
               format("IC perturbation %g V is rail-scale; escalated retries "
                      "may start far outside the oscillator's basin",
                      spec.retry.ic_perturbation));
  }
  if (!finite(spec.retry.escalated_gmin) || spec.retry.escalated_gmin < 0.0) {
    report.add(DiagCode::kBadRetryPolicy, DiagSeverity::kError,
               "retry.escalated_gmin", 0,
               format("escalated gmin %g S must be finite and >= 0",
                      spec.retry.escalated_gmin));
  }
  const DieBudget& budget = spec.tester.die_budget;
  if (!finite(budget.max_seconds) || budget.max_seconds < 0.0) {
    report.add(DiagCode::kBadDieBudget, DiagSeverity::kError,
               "die_budget.max_seconds", 0,
               format("per-die wall-clock budget %g s must be finite and >= 0",
                      budget.max_seconds));
  }
  if (budget.max_steps > 0 && budget.max_steps < 100) {
    report.add(DiagCode::kBadDieBudget, DiagSeverity::kWarning,
               "die_budget.max_steps", 0,
               format("per-die step budget %llu is below any useful transient "
                      "(every die will quarantine as inconclusive)",
                      static_cast<unsigned long long>(budget.max_steps)));
  }

  if (!spec.preset_bands.empty()) {
    if (spec.preset_bands.size() != spec.tester.voltages.size()) {
      report.add(DiagCode::kBadPresetBands, DiagSeverity::kError,
                 "preset_bands", 0,
                 format("%zu preset bands do not match the %zu-voltage plan",
                        spec.preset_bands.size(), spec.tester.voltages.size()));
    }
    for (size_t i = 0; i < spec.preset_bands.size(); ++i) {
      const auto& [lo, hi] = spec.preset_bands[i];
      if (!finite(lo) || !finite(hi) || lo > hi) {
        report.add(DiagCode::kBadPresetBands, DiagSeverity::kError,
                   format("preset_bands[%zu]", i), 0,
                   format("preset band %zu [%g, %g] is inverted or non-finite",
                          i, lo, hi));
      }
    }
  }

  // DfT consistency over the die-level architecture this spec implies: group
  // coverage of the TSV space plus every control state the screening loop
  // will actually drive (per-TSV T1, per-group reference T2, functional).
  if (spec.tsvs_per_die >= 1 && spec.tester.group_size >= 1 &&
      !report.has(DiagCode::kBadMeterConfig)) {
    DftArchitectureConfig dft;
    dft.tsv_count = spec.tsvs_per_die;
    dft.group_size = spec.tester.group_size;
    dft.meter = spec.tester.meter;
    const DftArchitecture architecture(dft);
    report.merge(analyze_dft(architecture));
    for (const TsvGroup& group : architecture.groups()) {
      report.merge(analyze_control(architecture,
                                   architecture.control_reference(group.index)));
      for (int id : group.tsv_ids) {
        report.merge(
            analyze_control(architecture, architecture.control_for_tsv(id)));
      }
    }
    report.merge(
        analyze_control(architecture, architecture.control_functional()));
  }

  // Numerical preflight: predicted periods vs. the meter's measurable range
  // and predicted per-die step cost vs. the die budget, over the defect-mix
  // parameter ranges. Only meaningful once the config itself is sane.
  if (!report.has_errors()) {
    report.merge(
        cost_diagnostics(build_cost_model(spec.tester, spec.mix), spec));
  }

  report.sort_by_location();
  return report;
}

AnalysisReport analyze_serve_config(int workers, int shard_size,
                                    int max_restarts) {
  AnalysisReport report;
  if (workers < 1) {
    report.add(DiagCode::kBadServeConfig, DiagSeverity::kError, "workers", 0,
               format("worker count %d must be >= 1", workers));
  } else if (workers > 256) {
    report.add(DiagCode::kBadServeConfig, DiagSeverity::kWarning, "workers", 0,
               format("%d worker processes is beyond any plausible host; "
                      "each one holds a full tester",
                      workers));
  }
  if (shard_size < 1) {
    report.add(DiagCode::kBadServeConfig, DiagSeverity::kError, "shard_size", 0,
               format("shard size %d must be >= 1", shard_size));
  }
  if (max_restarts < 0) {
    report.add(DiagCode::kBadServeConfig, DiagSeverity::kError,
               "max_restarts", 0,
               format("restart budget %d must be >= 0", max_restarts));
  } else if (max_restarts == 0) {
    report.add(DiagCode::kBadServeConfig, DiagSeverity::kWarning,
               "max_restarts", 0,
               "restart budget 0: any worker death abandons the job");
  }
  report.sort_by_location();
  return report;
}

AnalysisReport analyze_injection_spec(const std::string& text) {
  AnalysisReport report;
  try {
    InjectionSpec::parse(text);
  } catch (const ConfigError& e) {
    report.add(DiagCode::kBadInjectSpec, DiagSeverity::kError, "inject", 0,
               e.what());
  }
  report.sort_by_location();
  return report;
}

}  // namespace rotsv
