#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "util/error.hpp"

namespace rotsv {
namespace {

using testutil::fast_run;
using testutil::small_ring;

TEST(RingOscillator, ConfigValidation) {
  RingOscillatorConfig cfg;
  cfg.num_tsvs = 0;
  EXPECT_THROW(RingOscillator{cfg}, ConfigError);
  cfg.num_tsvs = 2;
  cfg.vdd = -1.0;
  EXPECT_THROW(RingOscillator{cfg}, ConfigError);
  cfg.vdd = 1.1;
  cfg.faults = {TsvFault::none(), TsvFault::none(), TsvFault::none()};
  EXPECT_THROW(RingOscillator{cfg}, ConfigError);  // more faults than TSVs
}

TEST(RingOscillator, StructureBookkeeping) {
  RingOscillator ro(small_ring());
  EXPECT_EQ(ro.segments().size(), 2u);
  EXPECT_EQ(ro.config().num_tsvs, 2);
  // Two muxes per segment (14T each) + driver (8T) + receiver (4T) = 40T per
  // segment, plus the ring inverter.
  EXPECT_EQ(ro.circuit().mosfets().size(), 2u * 40u + 2u);
  EXPECT_NO_THROW(ro.circuit().check_connectivity());
}

TEST(RingOscillator, BypassPatternValidation) {
  RingOscillator ro(small_ring());
  EXPECT_THROW(ro.set_bypass({true}), ConfigError);          // wrong size
  EXPECT_THROW(ro.enable_only(5), ConfigError);
  EXPECT_THROW(ro.enable_first(3), ConfigError);
  EXPECT_NO_THROW(ro.enable_only(1));
  EXPECT_NO_THROW(ro.enable_first(2));
  EXPECT_NO_THROW(ro.bypass_all());
}

TEST(RingOscillator, OscillatesAtNominalVdd) {
  RingOscillator ro(small_ring());
  ro.enable_first(1);
  const RoMeasurement m = measure_period(ro, fast_run());
  ASSERT_TRUE(m.oscillating);
  // N = 2 ring at 1.1 V: sub-ns to few-ns period, highly periodic.
  EXPECT_GT(m.period, 100e-12);
  EXPECT_LT(m.period, 5e-9);
  EXPECT_LT(m.period_stddev, 0.02 * m.period);
  EXPECT_GE(m.cycles, 3);
}

TEST(RingOscillator, BypassedRunIsFaster) {
  RingOscillator ro(small_ring());
  ro.enable_first(1);
  const RoMeasurement t1 = measure_period(ro, fast_run());
  ro.bypass_all();
  const RoMeasurement t2 = measure_period(ro, fast_run());
  ASSERT_TRUE(t1.oscillating);
  ASSERT_TRUE(t2.oscillating);
  EXPECT_GT(t1.period, t2.period);  // the TSV path adds delay
}

TEST(RingOscillator, LowerVddSlowsOscillation) {
  RingOscillator ro(small_ring());
  ro.enable_first(1);
  const RoMeasurement fast = measure_period(ro, fast_run());
  ro.set_vdd(0.85);
  const RoMeasurement slow = measure_period(ro, fast_run());
  ASSERT_TRUE(fast.oscillating);
  ASSERT_TRUE(slow.oscillating);
  EXPECT_GT(slow.period, 1.3 * fast.period);
}

TEST(RoRunner, DeltaTPositiveAndTwoRunsConsistent) {
  RingOscillator ro(small_ring());
  const DeltaTResult d = measure_delta_t(ro, 1, fast_run());
  ASSERT_TRUE(d.valid);
  EXPECT_FALSE(d.stuck);
  EXPECT_GT(d.delta_t, 0.0);
  EXPECT_NEAR(d.delta_t, d.t1 - d.t2, 1e-18);
}

TEST(RoRunner, OpenFaultReducesDeltaT) {
  RingOscillator ff(small_ring());
  const DeltaTResult d0 = measure_delta_t(ff, 1, fast_run());
  RingOscillator open(small_ring(TsvFault::open(3000.0, 0.5)));
  const DeltaTResult d1 = measure_delta_t(open, 1, fast_run());
  ASSERT_TRUE(d0.valid);
  ASSERT_TRUE(d1.valid);
  EXPECT_LT(d1.delta_t, d0.delta_t);
}

TEST(RoRunner, FullOpenReducesDeltaTMore) {
  RingOscillator small_open(small_ring(TsvFault::open(1000.0, 0.5)));
  RingOscillator big_open(small_ring(TsvFault::open(50000.0, 0.5)));
  const DeltaTResult d_small = measure_delta_t(small_open, 1, fast_run());
  const DeltaTResult d_big = measure_delta_t(big_open, 1, fast_run());
  ASSERT_TRUE(d_small.valid);
  ASSERT_TRUE(d_big.valid);
  EXPECT_LT(d_big.delta_t, d_small.delta_t);
}

TEST(RoRunner, OpenNearDriverIsMoreVisible) {
  // x measured from the driver side: a fault near the top (small x) decouples
  // more capacitance and reduces dT more.
  RingOscillator near_top(small_ring(TsvFault::open(10000.0, 0.2)));
  RingOscillator near_bottom(small_ring(TsvFault::open(10000.0, 0.8)));
  const DeltaTResult d_top = measure_delta_t(near_top, 1, fast_run());
  const DeltaTResult d_bot = measure_delta_t(near_bottom, 1, fast_run());
  ASSERT_TRUE(d_top.valid);
  ASSERT_TRUE(d_bot.valid);
  EXPECT_LT(d_top.delta_t, d_bot.delta_t);
}

TEST(RoRunner, ModerateLeakIncreasesDeltaT) {
  RingOscillator ff(small_ring());
  RingOscillator leak(small_ring(TsvFault::leakage(2000.0)));
  const DeltaTResult d0 = measure_delta_t(ff, 1, fast_run());
  const DeltaTResult d1 = measure_delta_t(leak, 1, fast_run());
  ASSERT_TRUE(d0.valid);
  ASSERT_TRUE(d1.valid);
  EXPECT_GT(d1.delta_t, d0.delta_t);
}

TEST(RoRunner, StrongLeakStopsOscillation) {
  RingOscillator leak(small_ring(TsvFault::leakage(400.0)));
  const DeltaTResult d = measure_delta_t(leak, 1, fast_run());
  EXPECT_TRUE(d.stuck);
  EXPECT_FALSE(d.valid);
  EXPECT_GT(d.t2, 0.0);  // the reference run still oscillates
}

TEST(RoRunner, SingleMeasurementHelpers) {
  RingOscillator ro(small_ring());
  const DeltaTResult d = measure_delta_t_single(ro, 0, fast_run());
  ASSERT_TRUE(d.valid);
  EXPECT_GT(d.delta_t, 0.0);
  EXPECT_THROW(measure_delta_t_single(ro, 7, fast_run()), ConfigError);
  EXPECT_THROW(measure_delta_t(ro, 0, fast_run()), ConfigError);
  EXPECT_THROW(measure_delta_t(ro, 3, fast_run()), ConfigError);
}

TEST(RoRunner, VariationIsReproducibleAndResettable) {
  RingOscillator ro(small_ring());
  const DeltaTResult pristine = measure_delta_t(ro, 1, fast_run());

  Rng rng1(77);
  ro.apply_variation(VariationModel::paper(), rng1);
  const DeltaTResult varied1 = measure_delta_t(ro, 1, fast_run());

  Rng rng2(77);
  ro.apply_variation(VariationModel::paper(), rng2);
  const DeltaTResult varied2 = measure_delta_t(ro, 1, fast_run());

  // Identical seed -> identical measurement (bitwise).
  EXPECT_EQ(varied1.delta_t, varied2.delta_t);
  // Variation actually changed something.
  EXPECT_NE(varied1.delta_t, pristine.delta_t);

  ro.clear_variation();
  const DeltaTResult restored = measure_delta_t(ro, 1, fast_run());
  EXPECT_EQ(restored.delta_t, pristine.delta_t);
}

TEST(RoRunner, EnablingMoreTsvsIncreasesDeltaT) {
  RingOscillatorConfig cfg;
  cfg.num_tsvs = 3;
  RingOscillator ro(cfg);
  const DeltaTResult d1 = measure_delta_t(ro, 1, fast_run());
  const DeltaTResult d3 = measure_delta_t(ro, 3, fast_run());
  ASSERT_TRUE(d1.valid);
  ASSERT_TRUE(d3.valid);
  // Three I/O-cell+TSV paths in the loop add roughly three segment delays.
  EXPECT_GT(d3.delta_t, 2.0 * d1.delta_t);
}

TEST(RoReferenceCache, BitIdenticalToFreeFunctionsWithOneReference) {
  // The free functions rerun the bypass-all T2 transient for every TSV; the
  // cache must return the exact same measurements while running T2 once.
  RingOscillator free_ro(small_ring());
  const DeltaTResult f0 = measure_delta_t_single(free_ro, 0, fast_run());
  const DeltaTResult f1 = measure_delta_t_single(free_ro, 1, fast_run());
  const DeltaTResult f_all = measure_delta_t(free_ro, 2, fast_run());

  RingOscillator cached_ro(small_ring());
  RoReferenceCache cache(cached_ro, fast_run());
  const DeltaTResult c0 = cache.measure_delta_t_single(0);
  const DeltaTResult c1 = cache.measure_delta_t_single(1);
  const DeltaTResult c_all = cache.measure_delta_t(2);
  EXPECT_EQ(cache.reference_runs(), 1u);

  auto expect_same = [](const DeltaTResult& a, const DeltaTResult& b) {
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.stuck, b.stuck);
    EXPECT_EQ(a.t1, b.t1);
    EXPECT_EQ(a.t2, b.t2);
    EXPECT_EQ(a.delta_t, b.delta_t);
  };
  expect_same(c0, f0);
  expect_same(c1, f1);
  expect_same(c_all, f_all);

  // Work accounting: the first call paid for the reference, later calls did
  // not; the free function pays every time.
  EXPECT_EQ(c0.sim_steps, f0.sim_steps);
  EXPECT_LT(c1.sim_steps, f1.sim_steps);
  EXPECT_GT(c1.sim_steps, 0u);

  // invalidate() forces a fresh reference (still bit-identical).
  cache.invalidate();
  const DeltaTResult c0b = cache.measure_delta_t_single(0);
  expect_same(c0b, f0);
  EXPECT_EQ(cache.reference_runs(), 2u);
}

TEST(RoReferenceCache, SeparateReferencePerVdd) {
  RingOscillator ro(small_ring());
  RoReferenceCache cache(ro, fast_run());
  const DeltaTResult high = cache.measure_delta_t_single(0);
  ro.set_vdd(0.95);
  const DeltaTResult low = cache.measure_delta_t_single(0);
  EXPECT_EQ(cache.reference_runs(), 2u);
  EXPECT_NE(high.t2, low.t2);
  ro.set_vdd(1.1);
  const DeltaTResult high2 = cache.measure_delta_t_single(0);
  EXPECT_EQ(cache.reference_runs(), 2u) << "1.1 V reference must be memoized";
  EXPECT_EQ(high2.t2, high.t2);
}

// --- streaming measurement path ---------------------------------------------

/// Replays a recorded accepted-step trajectory of the probe node through the
/// streaming meter (early exit off) and requires results bit-identical to the
/// batch measure_oscillation over the same samples.
void expect_online_matches_batch(RingOscillator& ro) {
  ro.enable_first(1);
  const RoRunOptions opt = testutil::fast_run();
  const TransientResult tr =
      capture_waveforms(ro, opt.first_window, {ro.probe()}, opt);
  const std::vector<double>& t = tr.waveforms.time();
  const std::vector<double>& v = tr.waveforms.values(ro.probe());

  OnlinePeriodMeter::Options mo;
  mo.osc.level = ro.vdd() / 2.0;
  mo.osc.discard_cycles = opt.discard_cycles;
  mo.osc.min_cycles = opt.measure_cycles;
  mo.early_exit = false;
  OnlinePeriodMeter meter(mo);
  for (size_t i = 0; i < t.size(); ++i) meter.observe(t[i], v[i]);

  const OscillationMeasurement batch =
      measure_oscillation(tr.waveforms, ro.probe(), mo.osc);
  const OscillationMeasurement online = meter.result();
  EXPECT_EQ(online.oscillating, batch.oscillating);
  EXPECT_EQ(online.period, batch.period);
  EXPECT_EQ(online.period_stddev, batch.period_stddev);
  EXPECT_EQ(online.cycles, batch.cycles);
  EXPECT_EQ(online.v_min, batch.v_min);
  EXPECT_EQ(online.v_max, batch.v_max);
}

TEST(RoRunner, OnlineMeterBitIdenticalToBatchOnRealTrajectories) {
  RingOscillator nominal(small_ring());
  expect_online_matches_batch(nominal);
  // Stuck-at: a leakage-killed ring settles to a DC level.
  RingOscillator stuck(small_ring(TsvFault::leakage(400.0)));
  expect_online_matches_batch(stuck);
  // Slow oscillation at low VDD.
  RingOscillator slow(small_ring(TsvFault::none(), 0.85));
  expect_online_matches_batch(slow);
}

TEST(RoRunner, OnlineMeterEarlyExitMatchesBatchOverSameTrajectoryPrefix) {
  RingOscillator ro(small_ring());
  ro.enable_first(1);
  const RoRunOptions opt = fast_run();
  const TransientResult tr =
      capture_waveforms(ro, opt.first_window, {ro.probe()}, opt);
  const std::vector<double>& t = tr.waveforms.time();
  const std::vector<double>& v = tr.waveforms.values(ro.probe());

  OnlinePeriodMeter::Options mo;
  mo.osc.level = ro.vdd() / 2.0;
  mo.osc.discard_cycles = opt.discard_cycles;
  mo.osc.min_cycles = opt.measure_cycles;
  OnlinePeriodMeter meter(mo);
  WaveformSet prefix({NodeId{1}});
  std::vector<double> row(2, 0.0);
  size_t consumed = 0;
  for (size_t i = 0; i < t.size(); ++i) {
    row[1] = v[i];
    prefix.append(t[i], row);
    ++consumed;
    if (!meter.observe(t[i], v[i])) break;
  }
  ASSERT_LT(consumed, t.size()) << "meter must stop before the window ends";

  const OscillationMeasurement batch =
      measure_oscillation(prefix, NodeId{1}, mo.osc);
  const OscillationMeasurement online = meter.result();
  ASSERT_TRUE(online.oscillating);
  EXPECT_EQ(online.period, batch.period);
  EXPECT_EQ(online.period_stddev, batch.period_stddev);
  EXPECT_EQ(online.cycles, batch.cycles);
}

TEST(RoRunner, StreamingAndRecordedPathsAgree) {
  RoRunOptions recorded = fast_run();
  recorded.streaming = false;
  RingOscillator a(small_ring());
  a.enable_first(1);
  const RoMeasurement rec = measure_period(a, recorded);

  RingOscillator b(small_ring());
  b.enable_first(1);
  const RoMeasurement stream = measure_period(b, fast_run());

  ASSERT_TRUE(rec.oscillating);
  ASSERT_TRUE(stream.oscillating);
  EXPECT_NEAR(stream.period, rec.period, 0.02 * rec.period);
  // The early exit is the perf win: far fewer accepted steps than a full
  // recorded window, and the run reports it.
  EXPECT_LT(stream.stats.steps_accepted, rec.stats.steps_accepted / 2);
  EXPECT_EQ(stream.stats.early_exits, 1u);
  EXPECT_EQ(rec.stats.early_exits, 0u);
}

TEST(RoRunner, StreamingStuckRingStallsInsteadOfSimulatingTheFullWindow) {
  const RoRunOptions opt = testutil::fast_run();
  RingOscillator leak(small_ring(TsvFault::leakage(400.0)));
  leak.enable_first(1);
  const RoMeasurement m = measure_period(leak, opt);
  EXPECT_FALSE(m.oscillating);
  EXPECT_TRUE(m.stalled);
  EXPECT_EQ(m.stats.early_exits, 1u);
  // The DC level is confirmed after about one stall window, not max_time.
  EXPECT_LT(m.stats.sim_time, opt.max_time / 2);

  RingOscillator leak2(small_ring(TsvFault::leakage(400.0)));
  const DeltaTResult d = measure_delta_t(leak2, 1, opt);
  EXPECT_TRUE(d.stuck);
  EXPECT_GE(d.early_exits, 1u);
}

TEST(RoRunner, CaptureWaveformsRecordsRequestedNodes) {
  RingOscillator ro(small_ring());
  ro.enable_first(1);
  const NodeId probe = ro.probe();
  const NodeId tsv = ro.segments()[0].tsv_front;
  const TransientResult r = capture_waveforms(ro, 5e-9, {probe, tsv}, fast_run());
  EXPECT_TRUE(r.waveforms.has(probe));
  EXPECT_TRUE(r.waveforms.has(tsv));
  EXPECT_GT(r.waveforms.samples(), 100u);
}

}  // namespace
}  // namespace rotsv
