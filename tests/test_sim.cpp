#include <gtest/gtest.h>

#include <cmath>

#include "cells/gates.hpp"
#include "sim/measure.hpp"
#include "sim/newton.hpp"
#include "sim/transient.hpp"
#include "util/error.hpp"

namespace rotsv {
namespace {

// --- DC analyses -----------------------------------------------------------

TEST(DcOp, ResistiveDividerExact) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId mid = c.node("mid");
  c.add_voltage_source("v1", in, kGround, SourceWaveform::dc(3.0));
  c.add_resistor("r1", in, mid, 1000.0);
  c.add_resistor("r2", mid, kGround, 2000.0);
  const Vector v = dc_operating_point(c);
  // Tolerance accounts for the gmin shunt (1e-12 S) on the mid node.
  EXPECT_NEAR(v[static_cast<size_t>(mid.value)], 2.0, 1e-6);
  EXPECT_NEAR(v[static_cast<size_t>(in.value)], 3.0, 1e-9);
}

TEST(DcOp, CurrentSourceIntoResistor) {
  Circuit c;
  const NodeId n = c.node("n");
  // 1 mA pulled from ground into n... source convention: current flows from
  // p to n internally, so (gnd -> n) pushes current INTO node n.
  c.add_current_source("i1", kGround, n, SourceWaveform::dc(1e-3));
  c.add_resistor("r1", n, kGround, 1000.0);
  const Vector v = dc_operating_point(c);
  EXPECT_NEAR(v[static_cast<size_t>(n.value)], 1.0, 1e-6);
}

TEST(DcOp, FloatingNodeHandledByGmin) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.add_voltage_source("v1", a, kGround, SourceWaveform::dc(1.0));
  c.add_capacitor("c1", a, b, 1e-15);  // b floats at DC
  c.add_capacitor("c2", b, kGround, 1e-15);
  const Vector v = dc_operating_point(c);
  EXPECT_NEAR(v[static_cast<size_t>(b.value)], 0.0, 1e-3);  // pulled by gmin
}

TEST(DcOp, InverterTransferCharacteristic) {
  Circuit c;
  CellContext ctx = CellContext::standard(c);
  c.add_voltage_source("vdd", ctx.vdd, kGround, SourceWaveform::dc(1.1));
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  auto& vin = c.add_voltage_source("vin", in, kGround, SourceWaveform::dc(0.0));
  make_inverter(ctx, "inv", in, out);

  double prev = 2.0;
  for (double v = 0.0; v <= 1.1001; v += 0.1) {
    vin.set_waveform(SourceWaveform::dc(v));
    const Vector sol = dc_operating_point(c);
    const double vo = sol[static_cast<size_t>(out.value)];
    EXPECT_LE(vo, prev + 1e-6) << "VTC must be monotone falling at vin=" << v;
    prev = vo;
  }
  // Rails at the extremes.
  vin.set_waveform(SourceWaveform::dc(0.0));
  EXPECT_NEAR(dc_operating_point(c)[static_cast<size_t>(out.value)], 1.1, 1e-3);
  vin.set_waveform(SourceWaveform::dc(1.1));
  EXPECT_NEAR(dc_operating_point(c)[static_cast<size_t>(out.value)], 0.0, 1e-3);
}

// --- transient -------------------------------------------------------------

class RcIntegratorTest : public ::testing::TestWithParam<Integrator> {};

TEST_P(RcIntegratorTest, MatchesAnalyticCharging) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_voltage_source("vin", in, kGround, SourceWaveform::step(0.0, 1.0, 1e-9, 1e-12));
  c.add_resistor("r", in, out, 1000.0);
  c.add_capacitor("cl", out, kGround, 1e-12);  // tau = 1 ns

  TransientOptions t;
  t.t_stop = 6e-9;
  t.dt_max = 20e-12;
  t.method = GetParam();
  const TransientResult r = run_transient(c, t);

  // Backward Euler is first-order: allow a looser envelope than trapezoidal.
  const double tol = GetParam() == Integrator::kBackwardEuler ? 8e-3 : 2e-3;
  for (double k : {0.5, 1.0, 2.0, 3.0, 4.0}) {
    const double expected = 1.0 - std::exp(-k);
    const double got = r.waveforms.sample_at(out, 1e-9 + k * 1e-9);
    EXPECT_NEAR(got, expected, tol) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, RcIntegratorTest,
                         ::testing::Values(Integrator::kBackwardEuler,
                                           Integrator::kTrapezoidal));

TEST(Transient, InitialConditionsRespected) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_resistor("r", a, kGround, 1000.0);
  c.add_capacitor("cl", a, kGround, 1e-12);
  TransientOptions t;
  t.t_stop = 3e-9;
  t.initial_conditions = {{a, 1.0}};
  const TransientResult r = run_transient(c, t);
  EXPECT_NEAR(r.waveforms.values(a).front(), 1.0, 1e-12);
  // Discharge: v(tau) = 1/e.
  EXPECT_NEAR(r.waveforms.sample_at(a, 1e-9), std::exp(-1.0), 2e-3);
}

TEST(Transient, RailNodesAutoInitialized) {
  Circuit c;
  const NodeId vdd = c.node("vdd");
  c.add_voltage_source("v1", vdd, kGround, SourceWaveform::dc(1.1));
  c.add_resistor("r", vdd, kGround, 1e6);
  TransientOptions t;
  t.t_stop = 1e-10;
  const TransientResult r = run_transient(c, t);
  EXPECT_NEAR(r.waveforms.values(vdd).front(), 1.1, 1e-12);
}

TEST(Transient, RejectsNonPositiveStopTime) {
  Circuit c;
  c.add_resistor("r", c.node("a"), kGround, 1.0);
  TransientOptions t;
  t.t_stop = 0.0;
  EXPECT_THROW(run_transient(c, t), ConfigError);
}

TEST(Transient, RecordsOnlyRequestedNodes) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.add_voltage_source("v", a, kGround, SourceWaveform::dc(1.0));
  c.add_resistor("r1", a, b, 1000.0);
  c.add_capacitor("cl", b, kGround, 1e-12);
  TransientOptions t;
  t.t_stop = 1e-9;
  t.record = {b};
  const TransientResult r = run_transient(c, t);
  EXPECT_TRUE(r.waveforms.has(b));
  EXPECT_FALSE(r.waveforms.has(a));
  EXPECT_THROW(r.waveforms.values(a), ConfigError);
}

TEST(Transient, AdaptiveStepsConcentrateAtTransitions) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_voltage_source("vin", in, kGround, SourceWaveform::step(0.0, 1.0, 5e-9, 1e-12));
  c.add_resistor("r", in, out, 1000.0);
  c.add_capacitor("cl", out, kGround, 100e-15);  // tau = 0.1 ns
  TransientOptions t;
  t.t_stop = 10e-9;
  t.dt_max = 500e-12;
  const TransientResult r = run_transient(c, t);
  // With a 10 ns window and a 0.1 ns transition, adaptive stepping should
  // use far fewer steps than fixed fine stepping would (10 ns / 0.5 ps).
  EXPECT_LT(r.stats.steps_accepted, 2000u);
  // Still accurate right after the edge.
  EXPECT_NEAR(r.waveforms.sample_at(out, 5e-9 + 0.2301e-9), 1.0 - std::exp(-2.3), 1e-2);
}

TEST(Transient, CapacitiveDividerJump) {
  // Series caps: a fast input step divides by C1/(C1+C2).
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId mid = c.node("mid");
  c.add_voltage_source("vin", in, kGround, SourceWaveform::step(0.0, 1.0, 1e-10, 1e-12));
  c.add_capacitor("c1", in, mid, 2e-15);
  c.add_capacitor("c2", mid, kGround, 1e-15);
  TransientOptions t;
  t.t_stop = 3e-10;
  t.newton.gmin = 1e-15;  // keep the floating divider from drooping
  const TransientResult r = run_transient(c, t);
  EXPECT_NEAR(r.waveforms.sample_at(mid, 2.5e-10), 2.0 / 3.0, 0.02);
}

TEST(Transient, FinalWindowRejectionCompletes) {
  // Regression: the controller step used to be clamped to the remaining
  // window *before* the underflow check, so a rejected step right at t_stop
  // (where the window is tiny) was misdiagnosed as a timestep underflow and
  // aborted an otherwise healthy run. A fast edge arriving exactly at t_stop
  // with tight error tolerances forces that final-window rejection.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId mid = c.node("mid");
  c.add_voltage_source("vin", in, kGround,
                       SourceWaveform::step(0.0, 1.0, 20e-12, 1e-13));
  c.add_capacitor("c1", in, mid, 1e-15);
  c.add_capacitor("c2", mid, kGround, 1e-15);

  TransientOptions t;
  t.t_stop = 20e-12 + 3e-15;  // the edge lands in a few-fs final window
  t.dt_initial = 1e-12;
  t.dt_max = 1e-12;
  t.dt_min = 0.5e-15;
  t.err_target = 4e-3;
  t.err_reject = 0.01;
  t.newton.gmin = 1e-15;

  const TransientResult r = run_transient(c, t);  // must not throw
  EXPECT_GT(r.stats.steps_rejected, 0u) << "test should exercise a rejection";
  EXPECT_GT(r.stats.steps_accepted, 0u);
}

TEST(Transient, WorkspaceCountersReported) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_voltage_source("vin", in, kGround,
                       SourceWaveform::step(0.0, 1.0, 1e-9, 1e-12));
  c.add_resistor("r", in, out, 1000.0);
  c.add_capacitor("cl", out, kGround, 1e-12);
  TransientOptions t;
  t.t_stop = 6e-9;
  t.dt_max = 20e-12;
  const TransientResult r = run_transient(c, t);

  // One LU pass per Newton iteration, almost all on the frozen pivot order.
  EXPECT_EQ(r.stats.lu_factorizations, r.stats.newton_iterations);
  EXPECT_GE(r.stats.lu_full_factorizations, 1u);
  EXPECT_LE(r.stats.lu_full_factorizations, 3u);
  // Buffer builds are a small constant (iterate sizing + pattern capture),
  // not proportional to the hundreds of steps this run takes.
  EXPECT_GE(r.stats.workspace_allocations, 1u);
  EXPECT_LE(r.stats.workspace_allocations, 4u);
  EXPECT_GT(r.stats.steps_accepted, 100u);
}

// --- step observer ----------------------------------------------------------

TEST(Transient, ObserverSeesInitialPointAndEveryAcceptedStep) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_resistor("r", a, kGround, 1000.0);
  c.add_capacitor("cl", a, kGround, 1e-12);
  TransientOptions t;
  t.t_stop = 3e-9;
  t.initial_conditions = {{a, 1.0}};
  t.record = {a};
  std::vector<double> obs_t;
  std::vector<double> obs_v;
  t.observer = [&](double time, const Vector& v) {
    obs_t.push_back(time);
    obs_v.push_back(v[static_cast<size_t>(a.value)]);
    return true;
  };
  const TransientResult r = run_transient(c, t);

  // The observer stream is exactly the recorded waveform: t=0 plus one call
  // per accepted step, bit-identical values (rejected steps never observed).
  const std::vector<double>& rec_t = r.waveforms.time();
  const std::vector<double>& rec_v = r.waveforms.values(a);
  ASSERT_EQ(obs_t.size(), rec_t.size());
  ASSERT_EQ(obs_t.size(), r.stats.steps_accepted + 1);
  EXPECT_EQ(obs_t.front(), 0.0);
  for (size_t i = 0; i < obs_t.size(); ++i) {
    EXPECT_EQ(obs_t[i], rec_t[i]);
    EXPECT_EQ(obs_v[i], rec_v[i]);
  }
  EXPECT_EQ(r.stats.early_exits, 0u);
  EXPECT_DOUBLE_EQ(r.final_time, r.stats.sim_time);
}

TEST(Transient, ObserverStopsTheRunEarly) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_resistor("r", a, kGround, 1000.0);
  c.add_capacitor("cl", a, kGround, 1e-12);
  TransientOptions t;
  t.t_stop = 1e-6;  // far longer than the observer will allow
  t.initial_conditions = {{a, 1.0}};
  int calls = 0;
  t.observer = [&](double, const Vector&) { return ++calls < 6; };
  const TransientResult r = run_transient(c, t);
  EXPECT_EQ(calls, 6);  // t=0 plus 5 accepted steps, then stop
  EXPECT_EQ(r.stats.steps_accepted, 5u);
  EXPECT_EQ(r.stats.early_exits, 1u);
  EXPECT_LT(r.final_time, t.t_stop / 2);
}

TEST(Transient, RecordWaveformsOffStillReportsFinalState) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_resistor("r", a, kGround, 1000.0);
  c.add_capacitor("cl", a, kGround, 1e-12);
  TransientOptions t;
  t.t_stop = 3e-9;  // tau = 1 ns
  t.initial_conditions = {{a, 1.0}};
  t.record = {a};
  t.record_waveforms = false;
  const TransientResult r = run_transient(c, t);
  EXPECT_EQ(r.waveforms.samples(), 0u);
  EXPECT_FALSE(r.waveforms.has(a));
  EXPECT_GT(r.stats.steps_accepted, 0u);
  ASSERT_GT(r.final_voltages.size(), static_cast<size_t>(a.value));
  EXPECT_NEAR(r.final_voltages[static_cast<size_t>(a.value)], std::exp(-3.0),
              5e-3);
  EXPECT_GT(r.final_h, 0.0);
}

TEST(Transient, InitialVoltagesSeedTheInitialState) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_resistor("r", a, kGround, 1000.0);
  c.add_capacitor("cl", a, kGround, 1e-12);
  TransientOptions t;
  t.t_stop = 3e-9;
  Vector start(c.nodes().unknown_count() + 1, 0.0);
  start[static_cast<size_t>(a.value)] = 1.0;
  t.initial_voltages = &start;
  const TransientResult r = run_transient(c, t);
  // Behaves exactly like the equivalent initial condition: discharge from 1 V.
  EXPECT_NEAR(r.waveforms.values(a).front(), 1.0, 1e-12);
  EXPECT_NEAR(r.waveforms.sample_at(a, 1e-9), std::exp(-1.0), 2e-3);

  Vector wrong_size(start.size() + 3, 0.0);
  t.initial_voltages = &wrong_size;
  EXPECT_THROW(run_transient(c, t), ConfigError);
}

TEST(Transient, InitialVoltagesRailsReseededFromSources) {
  // Supplied initial voltages may carry a stale rail value; the rail scan
  // must overwrite it with the source's actual level before the run starts.
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId mid = c.node("mid");
  c.add_voltage_source("v1", vdd, kGround, SourceWaveform::dc(1.1));
  c.add_resistor("r1", vdd, mid, 1000.0);
  c.add_resistor("r2", mid, kGround, 1000.0);
  TransientOptions t;
  t.t_stop = 1e-10;
  Vector start(c.nodes().unknown_count() + 1, 0.0);
  start[static_cast<size_t>(vdd.value)] = 0.4;  // stale
  t.initial_voltages = &start;
  const TransientResult r = run_transient(c, t);
  EXPECT_NEAR(r.waveforms.values(vdd).front(), 1.1, 1e-12);
}

// --- measurements -----------------------------------------------------------

TEST(Measure, ThresholdCrossingsInterpolate) {
  const std::vector<double> t{0.0, 1.0, 2.0, 3.0, 4.0};
  const std::vector<double> v{0.0, 1.0, 0.0, 1.0, 0.0};
  const auto rising = threshold_crossings(t, v, 0.5, Edge::kRising);
  ASSERT_EQ(rising.size(), 2u);
  EXPECT_NEAR(rising[0], 0.5, 1e-12);
  EXPECT_NEAR(rising[1], 2.5, 1e-12);
  const auto falling = threshold_crossings(t, v, 0.5, Edge::kFalling);
  ASSERT_EQ(falling.size(), 2u);
  EXPECT_NEAR(falling[0], 1.5, 1e-12);
  const auto any = threshold_crossings(t, v, 0.5, Edge::kAny);
  EXPECT_EQ(any.size(), 4u);
}

TEST(Measure, CrossingsSizeMismatchThrows) {
  EXPECT_THROW(threshold_crossings({0.0, 1.0}, {0.0}, 0.5, Edge::kRising), ConfigError);
}

TEST(Measure, MeanInterval) {
  EXPECT_DOUBLE_EQ(mean_interval({0.0, 1.0, 2.0, 3.0}, 3), 1.0);
  EXPECT_DOUBLE_EQ(mean_interval({0.0, 1.0, 2.0, 4.0}, 2), 1.5);
  EXPECT_DOUBLE_EQ(mean_interval({1.0}, 2), 0.0);
}

TEST(Measure, OscillationOfSyntheticSquareWave) {
  WaveformSet wf({NodeId{1}});
  const double period = 2e-9;
  std::vector<double> voltages(2, 0.0);
  for (double t = 0.0; t < 20e-9; t += 0.05e-9) {
    const double phase = std::fmod(t, period) / period;
    voltages[1] = phase < 0.5 ? 0.0 : 1.1;
    wf.append(t, voltages);
  }
  OscillationOptions opt;
  opt.level = 0.55;
  const OscillationMeasurement m = measure_oscillation(wf, NodeId{1}, opt);
  EXPECT_TRUE(m.oscillating);
  EXPECT_NEAR(m.period, period, period * 0.02);
  EXPECT_LT(m.period_stddev, period * 0.02);
}

TEST(Measure, FlatWaveformIsNotOscillating) {
  WaveformSet wf({NodeId{1}});
  std::vector<double> voltages(2, 0.3);
  for (double t = 0.0; t < 20e-9; t += 0.5e-9) wf.append(t, voltages);
  OscillationOptions opt;
  opt.level = 0.55;
  EXPECT_FALSE(measure_oscillation(wf, NodeId{1}, opt).oscillating);
}

TEST(Measure, SmallSwingRejected) {
  // Crosses the threshold but with tiny swing: treated as not oscillating.
  WaveformSet wf({NodeId{1}});
  std::vector<double> voltages(2, 0.0);
  for (double t = 0.0; t < 50e-9; t += 0.1e-9) {
    voltages[1] = 0.55 + 0.05 * std::sin(2 * M_PI * t / 2e-9);
    wf.append(t, voltages);
  }
  OscillationOptions opt;
  opt.level = 0.55;
  EXPECT_FALSE(measure_oscillation(wf, NodeId{1}, opt).oscillating);
}

// Feeds the same sample sequence to measure_oscillation and the streaming
// meter and requires bit-identical results (the meter mirrors the batch
// arithmetic operation-for-operation).
void expect_meter_matches_batch(const std::vector<double>& t,
                                const std::vector<double>& v,
                                const OscillationOptions& osc) {
  WaveformSet wf({NodeId{1}});
  OnlinePeriodMeter::Options mo;
  mo.osc = osc;
  mo.early_exit = false;  // consume every sample, like the batch path
  OnlinePeriodMeter meter(mo);
  std::vector<double> row(2, 0.0);
  for (size_t i = 0; i < t.size(); ++i) {
    row[1] = v[i];
    wf.append(t[i], row);
    meter.observe(t[i], v[i]);
  }
  const OscillationMeasurement batch = measure_oscillation(wf, NodeId{1}, osc);
  const OscillationMeasurement online = meter.result();
  EXPECT_EQ(online.oscillating, batch.oscillating);
  EXPECT_EQ(online.period, batch.period);
  EXPECT_EQ(online.period_stddev, batch.period_stddev);
  EXPECT_EQ(online.cycles, batch.cycles);
  EXPECT_EQ(online.v_min, batch.v_min);
  EXPECT_EQ(online.v_max, batch.v_max);
}

TEST(Measure, OnlineMeterBitIdenticalToBatchOnSyntheticWaves) {
  OscillationOptions osc;
  osc.level = 0.55;

  // Square wave (oscillating), flat DC (not), small swing (rejected), and a
  // jittered sawtooth (uneven periods exercise the stddev accumulation).
  std::vector<double> t, square, flat, small_swing, jitter;
  for (double x = 0.0; x < 20e-9; x += 0.05e-9) {
    t.push_back(x);
    const double phase = std::fmod(x, 2e-9) / 2e-9;
    square.push_back(phase < 0.5 ? 0.0 : 1.1);
    flat.push_back(0.3);
    small_swing.push_back(0.55 + 0.05 * std::sin(2 * M_PI * x / 2e-9));
    const double p = 2e-9 + 0.2e-9 * std::sin(x * 1e9);
    jitter.push_back(0.55 + 0.55 * std::sin(2 * M_PI * x / p));
  }
  expect_meter_matches_batch(t, square, osc);
  expect_meter_matches_batch(t, flat, osc);
  expect_meter_matches_batch(t, small_swing, osc);
  expect_meter_matches_batch(t, jitter, osc);
}

TEST(Measure, OnlineMeterEarlyExitMatchesBatchOverPrefix) {
  // With early exit on, the meter stops once discard + min cycles are in; the
  // result must equal the batch measurement over exactly the observed prefix.
  OnlinePeriodMeter::Options mo;
  mo.osc.level = 0.55;
  OnlinePeriodMeter meter(mo);
  WaveformSet prefix({NodeId{1}});
  std::vector<double> row(2, 0.0);
  const double period = 2e-9;
  bool stopped = false;
  double t_stopped = 0.0;
  for (double x = 0.0; x < 40e-9 && !stopped; x += 0.05e-9) {
    const double phase = std::fmod(x, period) / period;
    row[1] = phase < 0.5 ? 0.0 : 1.1;
    prefix.append(x, row);
    stopped = !meter.observe(x, row[1]);
    t_stopped = x;
  }
  ASSERT_TRUE(stopped) << "meter must early-exit well before the window ends";
  EXPECT_LT(t_stopped, 15e-9);  // ~6 cycles of 2 ns, not the 40 ns window
  const OscillationMeasurement batch =
      measure_oscillation(prefix, NodeId{1}, mo.osc);
  const OscillationMeasurement online = meter.result();
  EXPECT_TRUE(online.oscillating);
  EXPECT_EQ(online.period, batch.period);
  EXPECT_EQ(online.period_stddev, batch.period_stddev);
  EXPECT_EQ(online.cycles, batch.cycles);
}

TEST(Measure, OnlineMeterStallDetectsDcButNotSlowOscillation) {
  OnlinePeriodMeter::Options mo;
  mo.osc.level = 0.55;
  mo.stall_window = 5e-9;
  mo.stall_epsilon = 1e-3;

  // A settled DC level (tiny numerical wiggle) stalls after about one window.
  OnlinePeriodMeter dc(mo);
  bool stopped = false;
  double t_stopped = 0.0;
  for (double x = 0.0; x < 100e-9; x += 0.1e-9) {
    if (!dc.observe(x, 0.3 + 1e-5 * std::sin(x * 1e9))) {
      stopped = true;
      t_stopped = x;
      break;
    }
  }
  ASSERT_TRUE(stopped);
  EXPECT_TRUE(dc.stalled());
  EXPECT_FALSE(dc.result().oscillating);
  EXPECT_LT(t_stopped, 15e-9);

  // A slow oscillation keeps slewing inside every window: it must complete
  // the measurement, never stall.
  OnlinePeriodMeter slow(mo);
  bool slow_done = false;
  for (double x = 0.0; x < 150e-9; x += 0.1e-9) {
    if (!slow.observe(x, 0.55 + 0.5 * std::sin(2 * M_PI * x / 10e-9))) {
      slow_done = true;
      break;
    }
  }
  ASSERT_TRUE(slow_done);
  EXPECT_FALSE(slow.stalled());
  EXPECT_TRUE(slow.result().oscillating);
  EXPECT_NEAR(slow.result().period, 10e-9, 0.1e-9);
}

TEST(Measure, PropagationDelayBetweenShiftedWaves) {
  WaveformSet wf({NodeId{1}, NodeId{2}});
  std::vector<double> voltages(3, 0.0);
  for (double t = 0.0; t < 10e-9; t += 0.01e-9) {
    voltages[1] = t > 2e-9 ? 1.1 : 0.0;
    voltages[2] = t > 2.5e-9 ? 1.1 : 0.0;
    wf.append(t, voltages);
  }
  const double d =
      propagation_delay(wf, NodeId{1}, NodeId{2}, 0.55, Edge::kRising, Edge::kRising);
  EXPECT_NEAR(d, 0.5e-9, 0.02e-9);
  // No matching output crossing -> negative sentinel.
  const double none =
      propagation_delay(wf, NodeId{2}, NodeId{1}, 0.55, Edge::kFalling, Edge::kFalling);
  EXPECT_LT(none, 0.0);
}

TEST(Waveforms, SampleAtClampsAndInterpolates) {
  WaveformSet wf({NodeId{1}});
  wf.append(0.0, {0.0, 0.0});
  wf.append(1.0, {0.0, 2.0});
  EXPECT_DOUBLE_EQ(wf.sample_at(NodeId{1}, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(wf.sample_at(NodeId{1}, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(wf.sample_at(NodeId{1}, 2.0), 2.0);
}

}  // namespace
}  // namespace rotsv
