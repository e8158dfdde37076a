// Layer replays for the traced run: the simulator kernels on the workload's
// ring, and the store, codec and aggregation layers over a record set.
#include <algorithm>
#include <cstring>

#include "bench.hpp"
#include "circuit/mosfet.hpp"
#include "linalg/lu.hpp"
#include "models/ekv.hpp"
#include "ro/ro_runner.hpp"
#include "serve/colstore.hpp"
#include "sim/measure.hpp"
#include "sim/mna.hpp"
#include "sim/transient.hpp"
#include "util/framing.hpp"

namespace perfbench {

using rotsv::DieResult;

namespace {

/// Median per-call time [s] of `fn` over batches of `calls` calls.
template <typename F>
double per_call_seconds(size_t calls, F&& fn) {
  std::vector<double> batches;
  for (int b = 0; b < 9; ++b) {
    const auto t = Clock::now();
    for (size_t i = 0; i < calls; ++i) fn();
    batches.push_back(seconds_since(t) / static_cast<double>(calls));
  }
  return median(batches);
}

/// Per-VDD figures of one kernel replay.
struct KernelFigures {
  double assemble_s = 0.0;
  double refactor_s = 0.0;
  double solve_s = 0.0;
  double ekv_s = 0.0;
  double observe_s = 0.0;
  size_t mosfets = 0;
};

/// Times the isolated kernels of one Newton iteration at the ring's final
/// accepted state, and the period meter over the recorded tap samples.
KernelFigures time_kernels(const rotsv::Circuit& circuit, const rotsv::RoRunOptions& run,
                           const rotsv::TransientResult& tr,
                           const rotsv::OnlinePeriodMeter::Options& meter_options,
                           const std::vector<std::pair<double, double>>& taps) {
  KernelFigures k;
  const rotsv::Vector& v = tr.final_voltages;
  rotsv::Vector state_prev(circuit.state_count(), 0.0);
  rotsv::Vector state_now(circuit.state_count(), 0.0);
  rotsv::LoadContext ctx;
  ctx.kind = rotsv::AnalysisKind::kTransient;
  ctx.method = run.method;
  ctx.time = tr.final_time;
  ctx.h = std::max(tr.final_h, 1e-13);
  ctx.v = &v;
  ctx.v_prev = &v;
  ctx.state_prev = state_prev.data();
  ctx.state_now = state_now.data();

  rotsv::MnaSystem mna(circuit);
  std::vector<uint8_t> pattern;
  mna.capture_pattern(ctx, &pattern);
  std::vector<uint32_t> positions;
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] != 0) positions.push_back(static_cast<uint32_t>(i));
  }
  k.assemble_s = per_call_seconds(200, [&] { mna.assemble_sparse(ctx, positions); });

  rotsv::LuFactorization lu;
  lu.refactor(mna.jacobian(), pattern.data());  // full pivoting, then frozen
  k.refactor_s = per_call_seconds(200, [&] { lu.refactor(mna.jacobian(), pattern.data()); });
  rotsv::Vector rhs = mna.rhs();
  k.solve_s = per_call_seconds(500, [&] {
    std::memcpy(rhs.data(), mna.rhs().data(), rhs.size() * sizeof(double));
    lu.solve_in_place(rhs);
  });

  const std::vector<rotsv::Mosfet*> mosfets = circuit.mosfets();
  k.mosfets = mosfets.size();
  struct Operand {
    const rotsv::MosModelCard* card;
    rotsv::MosDerived derived;
    double vg, vd, vs;
  };
  std::vector<Operand> operands;
  for (const rotsv::Mosfet* m : mosfets) {
    const std::vector<rotsv::NodeId> t = m->terminals();  // d, g, s, b
    const double vd = v[static_cast<size_t>(t[0].value)];
    const double vg = v[static_cast<size_t>(t[1].value)];
    const double vs = v[static_cast<size_t>(t[2].value)];
    const double vb = v[static_cast<size_t>(t[3].value)];
    const double sign = m->model().is_nmos ? 1.0 : -1.0;
    operands.push_back({&m->model(), rotsv::ekv_derive(m->model(), m->params()),
                        sign * (vg - vb), sign * (vd - vb), sign * (vs - vb)});
  }
  double sink = 0.0;
  if (!operands.empty()) {
    k.ekv_s = per_call_seconds(50, [&] {
                for (const Operand& o : operands) {
                  sink += rotsv::ekv_evaluate(*o.card, o.derived, o.vg, o.vd, o.vs).id;
                }
              }) /
              static_cast<double>(operands.size());
  }
  volatile double keep = sink;  // keeps the evaluations from being optimised out
  (void)keep;

  k.observe_s = per_call_seconds(20, [&] {
                  rotsv::OnlinePeriodMeter meter(meter_options);
                  for (const auto& [t, tap] : taps) {
                    if (!meter.observe(t, tap)) break;
                  }
                }) /
                static_cast<double>(std::max<size_t>(1, taps.size()));
  return k;
}

}  // namespace

void kernel_replay(const rotsv::TesterConfig& tester, Report* report) {
  rotsv::RingOscillatorConfig config;
  config.num_tsvs = tester.group_size;
  config.tech = tester.tech;
  config.vdd = tester.voltages.front();
  rotsv::RingOscillator ring(config);
  ring.enable_only(0);  // the T1 run of a fault-free TSV 0
  const rotsv::RoRunOptions& run = tester.run;

  std::vector<double> step_gaps;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t newton = 0;
  uint64_t factorizations = 0;
  uint64_t full = 0;
  std::vector<KernelFigures> kernels;
  bool reproduced = true;
  std::string detail;
  for (double vdd : tester.voltages) {
    ring.set_vdd(vdd);
    const rotsv::RoMeasurement reference = rotsv::measure_period(ring, run);

    // measure_period's streaming path rebuilt from its public parts.
    rotsv::TransientOptions options;
    options.t_stop = run.max_time;
    options.method = run.method;
    options.dt_max = run.dt_max;
    options.err_target = run.err_target;
    options.err_reject = run.err_reject;
    options.record_waveforms = false;
    rotsv::OnlinePeriodMeter::Options meter_options;
    meter_options.osc.level = ring.vdd() / 2.0;
    meter_options.osc.discard_cycles = run.discard_cycles;
    meter_options.osc.min_cycles = run.measure_cycles;
    meter_options.stall_window = run.stall_window;
    meter_options.stall_epsilon = run.stall_epsilon;
    rotsv::OnlinePeriodMeter meter(meter_options);
    const size_t tap = static_cast<size_t>(ring.probe().value);
    std::vector<std::pair<double, double>> taps;
    Clock::time_point last{};
    bool first = true;
    options.observer = [&](double t, const rotsv::Vector& v) {
      const auto now = Clock::now();
      if (!first) step_gaps.push_back(seconds_between(last, now));
      first = false;
      last = now;
      taps.emplace_back(t, v[tap]);
      return meter.observe(t, v[tap]);
    };
    rotsv::TransientResult tr;
    {
      trace::Scope span("sim.run_transient", -1);
      tr = rotsv::run_transient(ring.circuit(), options);
    }
    const rotsv::OscillationMeasurement m = meter.result();
    if (tr.stats.steps_accepted != reference.stats.steps_accepted ||
        m.period != reference.period || m.oscillating != reference.oscillating) {
      reproduced = false;
      detail += "VDD " + std::to_string(vdd) + ": replay " +
                std::to_string(tr.stats.steps_accepted) + " steps vs measure_period " +
                std::to_string(reference.stats.steps_accepted) + "; ";
    }
    accepted += tr.stats.steps_accepted;
    rejected += tr.stats.steps_rejected;
    newton += tr.stats.newton_iterations;
    factorizations += tr.stats.lu_factorizations;
    full += tr.stats.lu_full_factorizations;
    trace::Scope span("sim.kernels", -1);
    kernels.push_back(time_kernels(ring.circuit(), run, tr, meter_options, taps));
  }
  report->check("kernel-replay-reproduces-measure-period", reproduced,
                reproduced ? "steps and period equal at every VDD" : detail);

  auto mean_of = [&](double KernelFigures::*field) {
    double sum = 0.0;
    for (const KernelFigures& k : kernels) sum += k.*field;
    return sum / static_cast<double>(kernels.size());
  };
  const double assemble_us = mean_of(&KernelFigures::assemble_s) * 1e6;
  const double refactor_us = mean_of(&KernelFigures::refactor_s) * 1e6;
  const double solve_us = mean_of(&KernelFigures::solve_s) * 1e6;
  const double ekv_ns = mean_of(&KernelFigures::ekv_s) * 1e9;
  const double observe_ns = mean_of(&KernelFigures::observe_s) * 1e9;
  const double iters_per_step = static_cast<double>(newton) / static_cast<double>(accepted);
  const std::string replay = "kernel replay, group-2 ring, every VDD of the plan";

  report->add_percentiles("sim.step_us", "us", step_gaps, 1e6,
                          "observer gap between accepted steps, " + replay);
  report->add("sim.newton_iters_per_step", "count", iters_per_step,
              static_cast<size_t>(accepted), "Newton iterations / accepted step (exact)");
  report->add("sim.reject_share", "ratio",
              static_cast<double>(rejected) / static_cast<double>(accepted + rejected),
              static_cast<size_t>(accepted + rejected), "rejected / attempted steps (exact)");
  report->add("sim.mna_assemble_us", "us", assemble_us, kernels.size(),
              "MnaSystem::assemble_sparse, device evaluation included");
  report->add("sim.meter_observe_ns", "ns", observe_ns, kernels.size(),
              "OnlinePeriodMeter::observe per sample");
  report->add("linalg.lu_refactor_us", "us", refactor_us, kernels.size(),
              "LuFactorization::refactor, frozen pivot order");
  report->add("linalg.lu_solve_us", "us", solve_us, kernels.size(),
              "LuFactorization::solve_in_place");
  report->add("linalg.lu_full_share", "ratio",
              static_cast<double>(full) / static_cast<double>(factorizations),
              static_cast<size_t>(factorizations), "full-pivoting factorizations (exact)");
  report->add("models.ekv_eval_ns", "ns", ekv_ns, kernels.size(), "ekv_evaluate per call");
  const double evals_per_step =
      static_cast<double>(kernels.front().mosfets) * iters_per_step;
  report->add("models.ekv_evals_per_step", "count", evals_per_step, kernels.size(),
              "MOSFETs x Newton iterations per step (one evaluation per assembly)");
  const double attributed_us =
      iters_per_step * (assemble_us + refactor_us + solve_us) + observe_ns * 1e-3;
  report->add("sim.step_attributed_share", "ratio", attributed_us / median(step_gaps) / 1e6,
              kernels.size(),
              "isolated-kernel estimate: iterations x (assemble + refactor + solve) "
              "+ observe, over the p50 step; the rest is step control and copies");
}

void store_layers(const rotsv::CampaignSpec& spec, const std::vector<DieResult>& records,
                  const std::string& dir, Report* report) {
  const double n = static_cast<double>(records.size());
  const int reps = records.size() < 5000 ? 5 : 1;
  const std::string rcs = dir + "/layers.rcs";
  const std::string jsonl = dir + "/layers.jsonl";

  // Verdict codec: record -> frame -> record, as a verdict rides the wire.
  std::vector<double> codec;
  bool codec_ok = true;
  for (int r = 0; r < reps; ++r) {
    const auto t = Clock::now();
    for (const DieResult& d : records) {
      rotsv::Frame frame;
      frame.type = 34;  // verdict
      frame.payload = rotsv::die_result_to_record(d).to_json();
      const std::string wire = rotsv::encode_frame(frame);
      rotsv::JsonRecord decoded;
      if (wire.size() < frame.payload.size() ||
          !rotsv::JsonRecord::parse(frame.payload, &decoded) ||
          die_key(rotsv::die_result_from_record(decoded)) != die_key(d)) {
        codec_ok = false;
      }
    }
    codec.push_back(seconds_since(t) * 1e6 / n);
  }
  report->check("verdict-codec-round-trip", codec_ok, "every record decodes to itself");
  report->add("serve.verdict_codec_us", "us", median(codec), records.size(),
              "die_result_to_record + encode_frame + decode, per die");

  std::vector<double> append;
  std::vector<double> sync;
  std::vector<double> recover;
  std::vector<double> scan;
  std::vector<double> fold;
  for (int r = 0; r < reps; ++r) {
    {
      auto writer = rotsv::ColStoreWriter::create(rcs, spec);
      const auto t = Clock::now();
      for (const DieResult& d : records) writer->append(d);
      append.push_back(seconds_since(t) * 1e6 / n);
      const auto ts = Clock::now();
      writer->sync();
      sync.push_back(seconds_since(ts) * 1e3);
    }
    const auto tr = Clock::now();
    rotsv::ColStoreReadResult recovered;
    rotsv::ColStoreWriter::open_append(rcs, spec, &recovered).reset();
    recover.push_back(seconds_since(tr));
    size_t seen = 0;
    const auto tscan = Clock::now();
    rotsv::scan_colstore(rcs, [&seen](const DieResult&) { ++seen; });
    scan.push_back(seconds_since(tscan) * 1e6 / n);
    rotsv::StreamingAggregate agg(spec);
    const auto tf = Clock::now();
    for (const DieResult& d : records) agg.add(d);
    fold.push_back(seconds_since(tf) * 1e9 / n);
    if (r == 0) {
      report->check("layers-colstore", recovered.records.size() == records.size() &&
                                           seen == records.size(),
                    std::to_string(seen) + " records scanned");
    }
  }
  report->add("serve.colstore_append_us", "us", median(append), records.size(),
              "ColStoreWriter::append per record");
  report->add("serve.colstore_sync_ms", "ms", median(sync), reps,
              "ColStoreWriter::sync after the appends");
  report->add("serve.colstore_recover_s", "s", median(recover), reps,
              "ColStoreWriter::open_append recovery");
  report->add("serve.colstore_scan_us", "us", median(scan), records.size(),
              "scan_colstore per record");
  report->add("campaign.aggregate_fold_ns", "ns", median(fold), records.size(),
              "StreamingAggregate::add per record");

  std::vector<double> jappend;
  std::vector<double> jresume;
  bool resumed_ok = true;
  for (int r = 0; r < reps; ++r) {
    {
      auto log = rotsv::CampaignResultStore::create(jsonl, spec);
      const auto t = Clock::now();
      for (const DieResult& d : records) log->append(d);
      log->sync();
      jappend.push_back(seconds_since(t) * 1e6 / n);
    }
    const auto t = Clock::now();
    rotsv::ResumeState state;
    rotsv::CampaignResultStore::resume(jsonl, spec, &state).reset();
    jresume.push_back(seconds_since(t));
    resumed_ok = resumed_ok && state.completed.size() == records.size();
  }
  report->check("layers-jsonl", resumed_ok, "the JSONL log resumes every record");
  report->add("campaign.jsonl_append_us", "us", median(jappend), records.size(),
              "CampaignResultStore::append per record, fsync every 8 included");
  report->add("campaign.jsonl_bytes_per_record", "B",
              static_cast<double>(file_bytes(jsonl)) / n, records.size(), "exact");
  report->add("campaign.jsonl_resume_s", "s", median(jresume), reps,
              "CampaignResultStore::resume");
}

}  // namespace perfbench
