// google-benchmark micro-benchmarks of the simulation engine itself: LU
// factorization, EKV model evaluation, MNA assembly, transient stepping and
// a full ring-oscillator period measurement.
#include <benchmark/benchmark.h>

#include "cells/gates.hpp"
#include "linalg/lu.hpp"
#include "ro/ring_oscillator.hpp"
#include "ro/ro_runner.hpp"
#include "sim/mna.hpp"
#include "sim/transient.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace rotsv {
namespace {

void BM_LuSolve(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(42);
  Matrix a(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    a(r, r) += static_cast<double>(n);
  }
  Vector b(n, 1.0);
  for (auto _ : state) {
    LuFactorization lu(a);
    Vector x = lu.solve(b);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_LuSolve)->Arg(16)->Arg(48)->Arg(96)->Arg(160);

// One-shot full-pivoting factorization vs frozen-pivot refactorization on the
// real transient Jacobian of an RO(2) DUT: the workload every Newton
// iteration of a screening campaign runs.
class RoJacobianFixture {
 public:
  RoJacobianFixture() : ro_(ro_config()), mna_(ro_.circuit()) {
    ro_.enable_first(1);
    const Circuit& c = ro_.circuit();
    v_.assign(c.nodes().unknown_count() + 1, 0.0);
    state_.assign(c.state_count(), 0.0);
    ctx_.kind = AnalysisKind::kTransient;
    ctx_.h = 1e-12;
    ctx_.time = 1e-12;
    ctx_.v = &v_;
    ctx_.v_prev = &v_;
    ctx_.state_prev = state_.data();
    ctx_.state_now = state_.data();
    mna_.capture_pattern(ctx_, &structure_);
  }

  const Matrix& jacobian() { return mna_.jacobian(); }
  const Vector& rhs() { return mna_.rhs(); }
  const uint8_t* structure() const { return structure_.data(); }

 private:
  static RingOscillatorConfig ro_config() {
    RingOscillatorConfig cfg;
    cfg.num_tsvs = 2;
    return cfg;
  }

  RingOscillator ro_;
  MnaSystem mna_;
  Vector v_;
  Vector state_;
  LoadContext ctx_;
  std::vector<uint8_t> structure_;
};

void BM_LuOneShotRoJacobian(benchmark::State& state) {
  RoJacobianFixture fx;
  Vector b = fx.rhs();
  for (auto _ : state) {
    LuFactorization lu(fx.jacobian());
    Vector x = b;
    lu.solve_in_place(x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_LuOneShotRoJacobian);

void BM_LuFrozenRefactorRoJacobian(benchmark::State& state) {
  RoJacobianFixture fx;
  Vector b = fx.rhs();
  LuFactorization lu;
  lu.refactor(fx.jacobian(), fx.structure());  // establish the pivot order
  for (auto _ : state) {
    lu.refactor(fx.jacobian(), fx.structure());
    Vector x = b;
    lu.solve_in_place(x);
    benchmark::DoNotOptimize(x.data());
  }
  state.counters["full_factorizations"] =
      static_cast<double>(lu.full_factorizations());
}
BENCHMARK(BM_LuFrozenRefactorRoJacobian);

void BM_EkvEvaluate(benchmark::State& state) {
  const auto& card = ptm45lp_nmos();
  MosInstanceParams p;
  double vg = 0.0;
  for (auto _ : state) {
    vg += 1e-6;
    MosEval e = ekv_evaluate(card, p, 0.5 + vg, 1.1, 0.0);
    benchmark::DoNotOptimize(e.id);
  }
}
BENCHMARK(BM_EkvEvaluate);

void BM_MnaAssembleInverterChain(benchmark::State& state) {
  Circuit c;
  CellContext ctx = CellContext::standard(c);
  c.add_voltage_source("vvdd", ctx.vdd, kGround, SourceWaveform::dc(1.1));
  NodeId prev = c.node("in");
  c.add_voltage_source("vin", prev, kGround, SourceWaveform::dc(0.0));
  for (int i = 0; i < state.range(0); ++i) {
    // format() instead of "n" + to_string(i): gcc 12's -Wrestrict false
    // positive fires on the rvalue string operator+ when inlined here.
    NodeId next = c.node(format("n%d", i));
    make_inverter(ctx, format("inv%d", i), prev, next);
    prev = next;
  }
  c.add_capacitor("cl", prev, kGround, 1e-15);
  MnaSystem mna(c);
  Vector v(c.nodes().unknown_count() + 1, 0.0);
  LoadContext lc;
  lc.kind = AnalysisKind::kTransient;
  lc.h = 1e-12;
  lc.time = 1e-12;
  lc.v = &v;
  lc.v_prev = &v;
  Vector state_prev(c.state_count(), 0.0);
  Vector state_now(c.state_count(), 0.0);
  lc.state_prev = state_prev.data();
  lc.state_now = state_now.data();
  for (auto _ : state) {
    mna.assemble(lc);
    benchmark::DoNotOptimize(mna.rhs().data());
  }
}
BENCHMARK(BM_MnaAssembleInverterChain)->Arg(10)->Arg(50)->Arg(100);

void BM_TransientInverterChain(benchmark::State& state) {
  for (auto _ : state) {
    Circuit c;
    CellContext ctx = CellContext::standard(c);
    c.add_voltage_source("vvdd", ctx.vdd, kGround, SourceWaveform::dc(1.1));
    NodeId prev = c.node("in");
    c.add_voltage_source(
        "vin", prev, kGround,
        SourceWaveform::pulse(0.0, 1.1, 0.1e-9, 20e-12, 20e-12, 1e-9, 2e-9));
    for (int i = 0; i < 8; ++i) {
      NodeId next = c.node(format("n%d", i));
      make_inverter(ctx, format("inv%d", i), prev, next);
      prev = next;
    }
    c.add_capacitor("cl", prev, kGround, 5e-15);
    TransientOptions t;
    t.t_stop = 2e-9;
    t.record = {prev};
    TransientResult r = run_transient(c, t);
    benchmark::DoNotOptimize(r.stats.steps_accepted);
  }
}
BENCHMARK(BM_TransientInverterChain)->Unit(benchmark::kMillisecond);

void ro_period_bench(benchmark::State& state, bool streaming) {
  uint64_t steps = 0;
  uint64_t runs = 0;
  for (auto _ : state) {
    RingOscillatorConfig cfg;
    cfg.num_tsvs = static_cast<int>(state.range(0));
    RingOscillator ro(cfg);
    ro.enable_first(1);
    RoRunOptions opt;
    opt.discard_cycles = 2;
    opt.measure_cycles = 3;
    opt.first_window = 30e-9;
    opt.max_time = 60e-9;
    opt.streaming = streaming;
    RoMeasurement m = measure_period(ro, opt);
    steps += m.stats.steps_accepted;
    ++runs;
    benchmark::DoNotOptimize(m.period);
  }
  state.counters["steps_per_run"] =
      runs > 0 ? static_cast<double>(steps) / static_cast<double>(runs) : 0.0;
}

/// Streaming path (the default): observer-driven early exit, no waveforms.
void BM_RingOscillatorPeriodStreaming(benchmark::State& state) {
  ro_period_bench(state, true);
}
BENCHMARK(BM_RingOscillatorPeriodStreaming)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

/// Recorded two-window path kept for comparison: simulates the full window
/// and post-processes the tap waveform.
void BM_RingOscillatorPeriodRecorded(benchmark::State& state) {
  ro_period_bench(state, false);
}
BENCHMARK(BM_RingOscillatorPeriodRecorded)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rotsv

BENCHMARK_MAIN();
