#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "digital/counter.hpp"
#include "digital/lfsr.hpp"
#include "digital/logic_sim.hpp"
#include "digital/period_meter.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rotsv {
namespace {

// --- logic simulator ---------------------------------------------------------

struct GateCase {
  GateKind kind;
  bool a, b;
  bool expected;
};

class GateEvalTest : public ::testing::TestWithParam<GateCase> {};

TEST_P(GateEvalTest, TwoInputGateTruth) {
  LogicNetwork net;
  const SignalId a = net.add_signal("a", GetParam().a);
  const SignalId b = net.add_signal("b", GetParam().b);
  const SignalId y = net.add_signal("y", false);
  net.add_gate(GetParam().kind, {a, b}, y, 1e-12);
  LogicSimulator sim(net);
  sim.run_until(1e-9);
  EXPECT_EQ(sim.value(y), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    TruthTables, GateEvalTest,
    ::testing::Values(GateCase{GateKind::kAnd2, 1, 1, 1}, GateCase{GateKind::kAnd2, 1, 0, 0},
                      GateCase{GateKind::kOr2, 0, 0, 0}, GateCase{GateKind::kOr2, 1, 0, 1},
                      GateCase{GateKind::kNand2, 1, 1, 0}, GateCase{GateKind::kNand2, 0, 1, 1},
                      GateCase{GateKind::kNor2, 0, 0, 1}, GateCase{GateKind::kNor2, 0, 1, 0},
                      GateCase{GateKind::kXor2, 1, 0, 1}, GateCase{GateKind::kXor2, 1, 1, 0}));

TEST(LogicSim, NotAndBuf) {
  LogicNetwork net;
  const SignalId a = net.add_signal("a", true);
  const SignalId n = net.add_signal("n", false);
  const SignalId b = net.add_signal("b", false);
  net.add_gate(GateKind::kNot, {a}, n, 1e-12);
  net.add_gate(GateKind::kBuf, {a}, b, 1e-12);
  LogicSimulator sim(net);
  sim.run_until(1e-9);
  EXPECT_FALSE(sim.value(n));
  EXPECT_TRUE(sim.value(b));
}

TEST(LogicSim, MuxGate) {
  LogicNetwork net;
  const SignalId a = net.add_signal("a", false);
  const SignalId b = net.add_signal("b", true);
  const SignalId s = net.add_signal("s", false);
  const SignalId y = net.add_signal("y", false);
  net.add_gate(GateKind::kMux2, {a, b, s}, y, 1e-12);
  LogicSimulator sim(net);
  sim.run_until(1e-9);
  EXPECT_FALSE(sim.value(y));  // sel=0 -> a
  sim.schedule(s, true, 2e-9);
  sim.run_until(3e-9);
  EXPECT_TRUE(sim.value(y));  // sel=1 -> b
}

TEST(LogicSim, GateDelayIsHonored) {
  LogicNetwork net;
  const SignalId a = net.add_signal("a", false);
  const SignalId y = net.add_signal("y", true);
  net.add_gate(GateKind::kNot, {a}, y, 5e-12);
  LogicSimulator sim(net);
  sim.schedule(a, true, 1e-9);
  sim.run_until(1e-9 + 4e-12);
  EXPECT_TRUE(sim.value(y));  // not yet propagated
  sim.run_until(1e-9 + 6e-12);
  EXPECT_FALSE(sim.value(y));
}

TEST(LogicSim, DffSamplesOnRisingEdge) {
  LogicNetwork net;
  const SignalId d = net.add_signal("d", false);
  const SignalId clk = net.add_signal("clk", false);
  const SignalId q = net.add_signal("q", false);
  net.add_dff(d, clk, q, -1, 1e-12);
  LogicSimulator sim(net);
  sim.schedule(d, true, 1e-9);
  sim.schedule(clk, true, 2e-9);   // rising edge: samples d=1
  sim.schedule(d, false, 3e-9);    // changing d without clock: no effect
  sim.schedule(clk, false, 4e-9);  // falling edge: no effect
  sim.run_until(5e-9);
  EXPECT_TRUE(sim.value(q));
  sim.schedule(clk, true, 6e-9);  // rising edge samples d=0
  sim.run_until(7e-9);
  EXPECT_FALSE(sim.value(q));
}

TEST(LogicSim, DffAsyncReset) {
  LogicNetwork net;
  const SignalId d = net.add_signal("d", true);
  const SignalId clk = net.add_signal("clk", false);
  const SignalId rst = net.add_signal("rst", false);
  const SignalId q = net.add_signal("q", false);
  net.add_dff(d, clk, q, rst, 1e-12);
  LogicSimulator sim(net);
  sim.schedule(clk, true, 1e-9);
  sim.run_until(2e-9);
  EXPECT_TRUE(sim.value(q));
  sim.schedule(rst, true, 3e-9);
  sim.run_until(4e-9);
  EXPECT_FALSE(sim.value(q));
  // Clock edges while reset asserted are ignored.
  sim.schedule(clk, false, 5e-9);
  sim.schedule(clk, true, 6e-9);
  sim.run_until(7e-9);
  EXPECT_FALSE(sim.value(q));
}

TEST(LogicSim, RisingEdgeCounting) {
  LogicNetwork net;
  const SignalId a = net.add_signal("a", false);
  LogicSimulator sim(net);
  for (int i = 0; i < 5; ++i) {
    sim.schedule(a, true, (2 * i + 1) * 1e-9);
    sim.schedule(a, false, (2 * i + 2) * 1e-9);
  }
  sim.run_until(20e-9);
  EXPECT_EQ(sim.rising_edges(a), 5u);
}

TEST(LogicSim, CannotScheduleInPast) {
  LogicNetwork net;
  const SignalId a = net.add_signal("a", false);
  LogicSimulator sim(net);
  sim.run_until(1e-9);
  EXPECT_THROW(sim.schedule(a, true, 0.5e-9), Error);
}

// --- ripple counter ------------------------------------------------------------

class RippleCounterTest : public ::testing::TestWithParam<int> {};

TEST_P(RippleCounterTest, CountsEdges) {
  const int edges = GetParam();
  LogicNetwork net;
  const SignalId clk = net.add_signal("clk", false);
  const SignalId rst = net.add_signal("rst", true);
  RippleCounter counter(net, 8, clk, rst);
  LogicSimulator sim(net);
  sim.schedule(rst, false, 0.5e-9);
  for (int i = 0; i < edges; ++i) {
    sim.schedule(clk, true, 1e-9 + i * 1e-9);
    sim.schedule(clk, false, 1.5e-9 + i * 1e-9);
  }
  sim.run_until(2e-9 + edges * 1e-9);
  EXPECT_EQ(counter.read(sim), expected_count(static_cast<uint64_t>(edges), 8));
}

INSTANTIATE_TEST_SUITE_P(EdgeCounts, RippleCounterTest,
                         ::testing::Values(0, 1, 2, 3, 7, 8, 15, 16, 100, 255, 256, 300));

TEST(RippleCounter, ResetClears) {
  LogicNetwork net;
  const SignalId clk = net.add_signal("clk", false);
  const SignalId rst = net.add_signal("rst", true);
  RippleCounter counter(net, 4, clk, rst);
  LogicSimulator sim(net);
  sim.schedule(rst, false, 0.5e-9);
  for (int i = 0; i < 5; ++i) {
    sim.schedule(clk, true, 1e-9 + i * 1e-9);
    sim.schedule(clk, false, 1.5e-9 + i * 1e-9);
  }
  sim.run_until(10e-9);
  EXPECT_EQ(counter.read(sim), 5u);
  sim.schedule(rst, true, 11e-9);
  sim.run_until(12e-9);
  EXPECT_EQ(counter.read(sim), 0u);
}

TEST(RippleCounter, RejectsBadConfig) {
  LogicNetwork net;
  const SignalId clk = net.add_signal("clk", false);
  const SignalId rst = net.add_signal("rst", false);
  EXPECT_THROW(RippleCounter(net, 0, clk, rst), ConfigError);
  EXPECT_THROW(RippleCounter(net, 4, clk, rst, 0.0, 1e-12), ConfigError);
}

TEST(ExpectedCount, WrapsAtWidth) {
  EXPECT_EQ(expected_count(255, 8), 255u);
  EXPECT_EQ(expected_count(256, 8), 0u);
  EXPECT_EQ(expected_count(257, 8), 1u);
  EXPECT_EQ(expected_count(1000, 10), 1000u % 1024u);
}

// --- LFSR ---------------------------------------------------------------------

class LfsrPeriodTest : public ::testing::TestWithParam<int> {};

TEST_P(LfsrPeriodTest, MaximalLengthSequence) {
  const int bits = GetParam();
  Lfsr lfsr(bits);
  const uint32_t start = lfsr.state();
  const uint64_t period = lfsr.period();
  std::set<uint32_t> seen;
  for (uint64_t i = 0; i < period; ++i) {
    EXPECT_TRUE(seen.insert(lfsr.state()).second) << "state repeated early";
    EXPECT_NE(lfsr.state(), 0u) << "XOR LFSR must never reach all-zeros";
    lfsr.step();
  }
  EXPECT_EQ(lfsr.state(), start) << "sequence must close after 2^n - 1 steps";
}

INSTANTIATE_TEST_SUITE_P(Widths, LfsrPeriodTest,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                                           15, 16));

TEST(Lfsr, XnorStyleStartsAtZero) {
  Lfsr lfsr(8, Lfsr::Style::kXnor);
  EXPECT_EQ(lfsr.state(), 0u);
  std::set<uint32_t> seen;
  for (uint64_t i = 0; i < lfsr.period(); ++i) {
    EXPECT_TRUE(seen.insert(lfsr.state()).second);
    EXPECT_NE(lfsr.state(), 0xFFu) << "XNOR LFSR must never reach all-ones";
    lfsr.step();
  }
  EXPECT_EQ(lfsr.state(), 0u);
}

TEST(Lfsr, DecodeTableInvertsStepping) {
  Lfsr lfsr(10);
  const auto table = lfsr.build_decode_table();
  EXPECT_EQ(table.size(), lfsr.period());
  Lfsr probe(10);
  probe.step(123);
  EXPECT_EQ(table.at(probe.state()), 123u);
  probe.step(500);
  EXPECT_EQ(table.at(probe.state()), 623u);
}

TEST(Lfsr, StepNMatchesRepeatedStep) {
  Lfsr a(12);
  Lfsr b(12);
  a.step(37);
  for (int i = 0; i < 37; ++i) b.step();
  EXPECT_EQ(a.state(), b.state());
}

TEST(Lfsr, RejectsBadWidths) {
  EXPECT_THROW(Lfsr(1), ConfigError);
  EXPECT_THROW(Lfsr(33), ConfigError);
  EXPECT_THROW(Lfsr::taps(0), ConfigError);
}

TEST(StructuralLfsr, MatchesBehavioralSequence) {
  const int bits = 6;
  LogicNetwork net;
  const SignalId clk = net.add_signal("clk", false);
  const SignalId rst = net.add_signal("rst", true);
  StructuralLfsr hw(net, bits, clk, rst);
  LogicSimulator sim(net);
  sim.schedule(rst, false, 0.5e-9);
  sim.run_until(0.9e-9);

  Lfsr model(bits, Lfsr::Style::kXnor);
  double t = 1e-9;
  for (int i = 0; i < 70; ++i) {  // beyond one full period (63)
    EXPECT_EQ(hw.read(sim), model.state()) << "step " << i;
    sim.schedule(clk, true, t);
    sim.schedule(clk, false, t + 0.5e-9);
    t += 1e-9;
    sim.run_until(t - 0.1e-9);
    model.step();
  }
}

// --- period meter ---------------------------------------------------------------

TEST(PeriodMeter, PaperNumericExample) {
  // Sec. IV-C: T = 5 ns (200 MHz), max error 0.005 ns requires t = 5 us;
  // the count is 1000, needing a 10-bit counter.
  const double T = 5e-9;
  const double t = PeriodMeter::required_window(T, 0.005e-9);
  EXPECT_NEAR(t, 5e-6, 1e-12);
  EXPECT_EQ(PeriodMeter::required_bits(T, t), 10);

  PeriodMeterConfig cfg;
  cfg.bits = 10;
  cfg.window = 5e-6;
  cfg.phase = 0.5;
  const PeriodMeasurement m = PeriodMeter(cfg).measure(T);
  EXPECT_EQ(m.count, 1000u);
  EXPECT_FALSE(m.overflow);
  EXPECT_NEAR(m.t_measured, 5e-9, 0.01e-9);
  EXPECT_LE(std::abs(m.error), PeriodMeter::error_bound_plus(T, 5e-6) + 1e-15);
}

TEST(PeriodMeter, ErrorBounds) {
  const double T = 5e-9;
  const double t = 5e-6;
  EXPECT_NEAR(PeriodMeter::error_bound_plus(T, t), T * T / (t - T), 1e-18);
  EXPECT_NEAR(PeriodMeter::error_bound_minus(T, t), T * T / (t + T), 1e-18);
  EXPECT_GT(PeriodMeter::error_bound_plus(T, t), PeriodMeter::error_bound_minus(T, t));
  EXPECT_THROW(PeriodMeter::error_bound_plus(5e-9, 1e-9), ConfigError);
}

// Property: over many random (T, phase) pairs the count stays within the
// paper's +/-1 bounds and the recovered period within the error bounds.
class PeriodMeterBoundsTest : public ::testing::TestWithParam<int> {};

TEST_P(PeriodMeterBoundsTest, CountWithinPlusMinusOne) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (int i = 0; i < 50; ++i) {
    const double T = rng.uniform(1e-9, 20e-9);
    const double window = rng.uniform(200, 2000) * T;
    PeriodMeterConfig cfg;
    cfg.bits = 20;
    cfg.window = window;
    cfg.phase = rng.uniform();
    const PeriodMeasurement m = PeriodMeter(cfg).measure(T);
    const double ratio = window / T;
    EXPECT_GE(static_cast<double>(m.count), ratio - 1.0);
    EXPECT_LE(static_cast<double>(m.count), ratio + 1.0);
    EXPECT_LE(m.t_measured - T, PeriodMeter::error_bound_plus(T, window) * 1.01);
    EXPECT_GE(m.t_measured - T, -PeriodMeter::error_bound_minus(T, window) * 1.01);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeriodMeterBoundsTest, ::testing::Values(1, 2, 3, 4, 5));

TEST(PeriodMeter, ExtremePhasesGiveBothCounts) {
  // The two Fig. 11 extremes: an early reset loses a cycle, a late reset
  // gains one.
  const double T = 1e-9;
  const double window = 10.5e-9;
  PeriodMeterConfig cfg;
  cfg.bits = 8;
  cfg.window = window;
  cfg.phase = 0.9;  // reset long before the next edge: a cycle is lost
  const uint64_t lost = PeriodMeter(cfg).measure(T).count;
  cfg.phase = 0.05;  // reset just before a rising edge: extra cycle counted
  const uint64_t gained = PeriodMeter(cfg).measure(T).count;
  EXPECT_EQ(lost, 10u);    // edges at 0.9 .. 9.9 ns
  EXPECT_EQ(gained, 11u);  // edges at 0.05 .. 10.05 ns
  // Narrow window boundary case where the counts actually differ:
  cfg.window = 10.0e-9;
  cfg.phase = 0.95;
  const uint64_t a = PeriodMeter(cfg).measure(T).count;
  cfg.phase = 0.05;
  const uint64_t b = PeriodMeter(cfg).measure(T).count;
  EXPECT_EQ(a, 10u);
  EXPECT_EQ(b, 10u);
}

TEST(PeriodMeter, OverflowFlagged) {
  PeriodMeterConfig cfg;
  cfg.bits = 4;  // capacity 16
  cfg.window = 100e-9;
  cfg.phase = 0.5;
  const PeriodMeasurement m = PeriodMeter(cfg).measure(1e-9);  // ~100 edges
  EXPECT_TRUE(m.overflow);
}

TEST(PeriodMeter, LfsrBackendMatchesCounter) {
  PeriodMeterConfig counter_cfg;
  counter_cfg.bits = 12;
  counter_cfg.window = 2e-6;
  counter_cfg.phase = 0.3;
  counter_cfg.backend = MeterBackend::kBinaryCounter;
  PeriodMeterConfig lfsr_cfg = counter_cfg;
  lfsr_cfg.backend = MeterBackend::kLfsr;
  for (double T : {1e-9, 2.5e-9, 7e-9}) {
    const auto mc = PeriodMeter(counter_cfg).measure(T);
    const auto ml = PeriodMeter(lfsr_cfg).measure(T);
    EXPECT_EQ(mc.count, ml.count) << "T=" << T;
  }
}

struct HardwareCase {
  MeterBackend backend;
  double period;
  double phase;
};

// Names each case by its fields, so the test name does not hold the padding
// bytes after `backend`.
void PrintTo(const HardwareCase& c, std::ostream* os) {
  *os << (c.backend == MeterBackend::kLfsr ? "lfsr" : "counter") << ' ' << c.period << ' '
      << c.phase;
}

class HardwareMeterTest : public ::testing::TestWithParam<HardwareCase> {};

TEST_P(HardwareMeterTest, GateLevelMatchesBehavioral) {
  PeriodMeterConfig cfg;
  cfg.bits = 8;
  cfg.window = 200e-9;
  cfg.backend = GetParam().backend;
  cfg.phase = GetParam().phase;
  const PeriodMeasurement analytic = PeriodMeter(cfg).measure(GetParam().period);
  const PeriodMeasurement hw = measure_with_hardware(cfg, GetParam().period);
  EXPECT_EQ(hw.count, analytic.count);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, HardwareMeterTest,
    ::testing::Values(HardwareCase{MeterBackend::kBinaryCounter, 2e-9, 0.25},
                      HardwareCase{MeterBackend::kBinaryCounter, 5e-9, 0.9},
                      HardwareCase{MeterBackend::kBinaryCounter, 3.3e-9, 0.01},
                      HardwareCase{MeterBackend::kLfsr, 2e-9, 0.25},
                      HardwareCase{MeterBackend::kLfsr, 5e-9, 0.6}));

}  // namespace
}  // namespace rotsv
