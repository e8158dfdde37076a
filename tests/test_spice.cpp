#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>

#include "sim/newton.hpp"
#include "sim/transient.hpp"
#include "spice/lexer.hpp"
#include "spice/parser.hpp"
#include "util/error.hpp"

namespace rotsv {
namespace {

TEST(Lexer, TitleCommentsContinuations) {
  const LexedNetlist lx = lex_spice(
      "my title line\n"
      "* a comment\n"
      "r1 a b 1k $ trailing comment\n"
      "v1 a 0\n"
      "+ dc 1.0\n"
      "\n");
  EXPECT_EQ(lx.title, "my title line");
  ASSERT_EQ(lx.cards.size(), 2u);
  EXPECT_EQ(lx.cards[0].tokens.size(), 4u);
  EXPECT_EQ(lx.cards[0].tokens[3], "1k");
  // Continuation joined: v1 a 0 dc 1.0
  EXPECT_EQ(lx.cards[1].tokens.size(), 5u);
  EXPECT_EQ(lx.cards[1].tokens[4], "1.0");
}

TEST(Lexer, ParenGroupsStayOneToken) {
  const auto tokens = tokenize_card("v1 in 0 pulse(0 1.1 1n 10p 10p 2n)");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[3], "pulse(0 1.1 1n 10p 10p 2n)");
}

TEST(Lexer, CommasActAsSeparators) {
  const auto tokens = tokenize_card("x1 a,b,c sub");
  ASSERT_EQ(tokens.size(), 5u);
}

TEST(Parser, ResistorDividerEndToEnd) {
  const ParsedNetlist net = parse_spice(
      "divider\n"
      "v1 in 0 dc 3.0\n"
      "r1 in mid 1k\n"
      "r2 mid 0 2k\n");
  EXPECT_EQ(net.title, "divider");
  const Vector v = dc_operating_point(*net.circuit);
  const NodeId mid = net.circuit->find_node("mid");
  EXPECT_NEAR(v[static_cast<size_t>(mid.value)], 2.0, 1e-6);
}

TEST(Parser, RcTransientWithTranCard) {
  const ParsedNetlist net = parse_spice(
      "rc\n"
      "v1 in 0 pwl(0 0 1n 0 1.001n 1)\n"
      "r1 in out 1k\n"
      "c1 out 0 1p\n"
      ".tran 10p 6n\n");
  ASSERT_TRUE(net.tran.has_value());
  TransientOptions t = *net.tran;
  EXPECT_DOUBLE_EQ(t.t_stop, 6e-9);
  const TransientResult r = run_transient(*net.circuit, t);
  const NodeId out = net.circuit->find_node("out");
  EXPECT_NEAR(r.waveforms.sample_at(out, 1.001e-9 + 1e-9), 1.0 - std::exp(-1.0), 5e-3);
}

TEST(Parser, PulseSource) {
  const ParsedNetlist net = parse_spice(
      "p\n"
      "v1 a 0 pulse(0 1 1n 0.1n 0.1n 2n)\n"
      "r1 a 0 1k\n");
  const auto* vs = dynamic_cast<const VoltageSource*>(net.circuit->find_device("v1"));
  ASSERT_NE(vs, nullptr);
  EXPECT_DOUBLE_EQ(vs->waveform().at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(vs->waveform().at(2e-9), 1.0);
}

TEST(Parser, CurrentSource) {
  const ParsedNetlist net = parse_spice(
      "i\n"
      "i1 0 n 1m\n"
      "r1 n 0 1k\n");
  const Vector v = dc_operating_point(*net.circuit);
  EXPECT_NEAR(v[static_cast<size_t>(net.circuit->find_node("n").value)], 1.0, 1e-6);
}

TEST(Parser, MosfetWithBuiltinModel) {
  const ParsedNetlist net = parse_spice(
      "inv\n"
      "vdd vdd 0 dc 1.1\n"
      "vin in 0 dc 0\n"
      "m1 out in vdd vdd pmos45lp w=630n l=50n\n"
      "m2 out in 0 0 nmos45lp w=415n l=50n\n");
  const Vector v = dc_operating_point(*net.circuit);
  EXPECT_NEAR(v[static_cast<size_t>(net.circuit->find_node("out").value)], 1.1, 5e-3);
}

TEST(Parser, ModelCardOverridesParameters) {
  const ParsedNetlist net = parse_spice(
      "m\n"
      ".model mynmos nmos vt0=0.4 kp=2e-4\n"
      "vd d 0 dc 1.1\n"
      "vg g 0 dc 1.1\n"
      "m1 d g 0 0 mynmos w=1u l=50n\n");
  ASSERT_EQ(net.models.size(), 1u);
  EXPECT_DOUBLE_EQ(net.models[0]->vt0, 0.4);
  EXPECT_DOUBLE_EQ(net.models[0]->kp, 2e-4);
  EXPECT_TRUE(net.models[0]->is_nmos);
  EXPECT_EQ(net.circuit->mosfets().size(), 1u);
  EXPECT_NEAR(net.circuit->mosfets()[0]->params().w, 1e-6, 1e-12);
}

TEST(Parser, SubcircuitFlattening) {
  const ParsedNetlist net = parse_spice(
      "sub test\n"
      ".subckt divider top bottom out\n"
      "r1 top out 1k\n"
      "r2 out bottom 1k\n"
      ".ends\n"
      "v1 in 0 dc 2.0\n"
      "x1 in 0 mid divider\n"
      "x2 mid 0 q divider\n");
  // Two instances flattened: 4 resistors total.
  EXPECT_EQ(net.circuit->device_count(), 5u);  // 4 R + 1 V
  const Vector v = dc_operating_point(*net.circuit);
  const double mid = v[static_cast<size_t>(net.circuit->find_node("mid").value)];
  const double q = v[static_cast<size_t>(net.circuit->find_node("q").value)];
  // x2 loads the x1 divider: mid = 2.0 * (2k || 1k) -> 2*(0.666k)/(1k+0.666k)=0.8
  EXPECT_NEAR(mid, 0.8, 1e-5);
  EXPECT_NEAR(q, 0.4, 1e-5);
}

TEST(Parser, NestedSubcircuitInstancing) {
  const ParsedNetlist net = parse_spice(
      "nest\n"
      ".subckt unit a b\n"
      "r1 a b 1k\n"
      ".ends\n"
      ".subckt pair a b\n"
      "x1 a m unit\n"
      "x2 m b unit\n"
      ".ends\n"
      "v1 in 0 dc 1.0\n"
      "xp in 0 pair\n");
  // pair = 2 resistors in series = 2k total.
  EXPECT_EQ(net.circuit->device_count(), 3u);
  const Vector v = dc_operating_point(*net.circuit);
  const NodeId m = net.circuit->find_node("xp.m");
  EXPECT_NEAR(v[static_cast<size_t>(m.value)], 0.5, 1e-6);
}

TEST(Parser, IcCardFeedsTransient) {
  const ParsedNetlist net = parse_spice(
      "ic\n"
      "r1 a 0 1k\n"
      "c1 a 0 1p\n"
      ".ic v(a)=1.0\n"
      ".tran 10p 2n\n");
  ASSERT_TRUE(net.tran.has_value());
  ASSERT_EQ(net.tran->initial_conditions.size(), 1u);
  const TransientResult r = run_transient(*net.circuit, *net.tran);
  const NodeId a = net.circuit->find_node("a");
  EXPECT_NEAR(r.waveforms.values(a).front(), 1.0, 1e-12);
}

struct BadNetlistCase {
  const char* text;
};

// Names each case by its netlist lines, so the test name does not hold the
// pointer.
void PrintTo(const BadNetlistCase& c, std::ostream* os) {
  std::string line;
  for (const char* p = c.text; *p != '\0'; ++p) {
    if (*p != '\n') {
      line += *p;
    } else if (p[1] != '\0') {
      line += " / ";
    }
  }
  *os << line;
}

class ParserErrorTest : public ::testing::TestWithParam<BadNetlistCase> {};

TEST_P(ParserErrorTest, RejectsMalformedInput) {
  EXPECT_THROW(parse_spice(std::string("title\n") + GetParam().text), ParseError);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrorTest,
    ::testing::Values(BadNetlistCase{"r1 a 0\n"},                 // missing value
                      BadNetlistCase{"r1 a 0 zz\n"},              // bad number
                      BadNetlistCase{"q1 a b c\n"},               // unknown element
                      BadNetlistCase{"m1 d g s b nomodel\n"},     // unknown model
                      BadNetlistCase{"x1 a b nosub\n"},           // unknown subckt
                      BadNetlistCase{".subckt s a\nr1 a 0 1k\n"}, // missing .ends
                      BadNetlistCase{".model m diode\n"},         // bad model type
                      BadNetlistCase{".model m nmos foo=1\n"},    // bad model param
                      BadNetlistCase{".tran 1n\n"},               // missing tstop
                      BadNetlistCase{".ic v(a\n"},                // malformed ic
                      BadNetlistCase{".wibble\n"},                // unknown directive
                      BadNetlistCase{"v1 a 0 pulse(0 1)\n"}));    // short pulse

TEST(Parser, SubcircuitPortCountMismatch) {
  EXPECT_THROW(parse_spice("t\n.subckt s a b\nr1 a b 1k\n.ends\nx1 n s\n"), ParseError);
}

TEST(Parser, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "rotsv_parse_test.sp";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("t\nv1 a 0 dc 1\nr1 a 0 1k\n.end\n", f);
    std::fclose(f);
  }
  const ParsedNetlist net = parse_spice_file(path);
  EXPECT_EQ(net.circuit->device_count(), 2u);
  std::remove(path.c_str());
  EXPECT_THROW(parse_spice_file("/nonexistent.sp"), Error);
}

}  // namespace
}  // namespace rotsv
