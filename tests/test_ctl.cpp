// Tests for the CTL parser, the AST printer, and the compiler's lowering to
// structured predicate classes.
#include <gtest/gtest.h>

#include "ctl/compile.h"
#include "ctl/parser.h"
#include "detect/brute_force.h"
#include "poset/generate.h"
#include "predicate/conjunctive.h"
#include "predicate/disjunctive.h"
#include "sim/workloads.h"

namespace hbct {
namespace {

using ctl::parse_query;

TEST(CtlParser, UnaryOperators) {
  for (const char* text : {"EF(x@P0 < 4)", "AF(x@P0 < 4)", "EG(x@P0 < 4)",
                           "AG(x@P0 < 4)"}) {
    auto r = parse_query(text);
    ASSERT_TRUE(r.ok) << text << ": " << r.error;
    EXPECT_TRUE(r.query.temporal);
    EXPECT_EQ(ctl::to_string(r.query), text);
  }
}

TEST(CtlParser, UntilForms) {
  auto r = parse_query("E[ x@P0 < 4 U channels_empty ]");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.query.op, Op::kEU);
  EXPECT_EQ(ctl::to_string(r.query), "E[x@P0 < 4 U channels_empty]");

  auto a = parse_query("A[try@P1 == 1 U critical@P1 == 1]");
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.query.op, Op::kAU);
}

TEST(CtlParser, PrecedenceNotAndOr) {
  auto r = parse_query("!x@P0 < 1 && y@P1 > 2 || z@P2 == 3");
  ASSERT_TRUE(r.ok) << r.error;
  // Or at top, And below, Not tightest.
  EXPECT_EQ(ctl::to_string(*r.query.p),
            "((!(x@P0 < 1)) && (y@P1 > 2)) || (z@P2 == 3)");
}

TEST(CtlParser, ParenthesesOverridePrecedence) {
  auto r = parse_query("x@P0 < 1 && (y@P1 > 2 || z@P2 == 3)");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(ctl::to_string(*r.query.p),
            "(x@P0 < 1) && ((y@P1 > 2) || (z@P2 == 3))");
}

TEST(CtlParser, ArithmeticSumsAndTerms) {
  auto r = parse_query("x@P0 + y@P1 - 2 <= pos(1) + intransit(0,1)");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(ctl::to_string(*r.query.p),
            "x@P0 + y@P1 - 2 <= pos(1) + intransit(0,1)");
}

TEST(CtlParser, BareStateFormula) {
  auto r = parse_query("true && x@P0 != 0");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.query.temporal);
}

TEST(CtlParser, ProcRefVariants) {
  EXPECT_TRUE(parse_query("pos(P2) >= 1").ok);
  EXPECT_TRUE(parse_query("pos(2) >= 1").ok);
  EXPECT_TRUE(parse_query("x@2 >= 1").ok);
}

struct BadQuery {
  const char* name;
  const char* text;
};

// Print the case name so the parameter shows as its name, not its pointer
// bytes, and test names stay the same from build to build.
void PrintTo(const BadQuery& q, std::ostream* os) { *os << q.name; }

class CtlParserErrors : public ::testing::TestWithParam<BadQuery> {};

TEST_P(CtlParserErrors, Rejected) {
  auto r = parse_query(GetParam().text);
  EXPECT_FALSE(r.ok) << "parsed as: " << ctl::to_string(r.query);
  EXPECT_FALSE(r.error.empty());
  EXPECT_NE(r.error.find("col"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CtlParserErrors,
    ::testing::Values(BadQuery{"unclosed_paren", "EF(x@P0 < 4"},
                      BadQuery{"missing_until", "E[x@P0 < 4]"},
                      BadQuery{"missing_cmp", "EF(x@P0)"},
                      BadQuery{"trailing", "EF(x@P0 < 4) garbage"},
                      BadQuery{"bad_at", "EF(x@@P0 < 4)"},
                      BadQuery{"empty", ""},
                      BadQuery{"lone_op", "&& x@P0 < 1"},
                      BadQuery{"illegal_char", "EF(x@P0 < 4 $ 3)"},
                      BadQuery{"bad_proc", "EF(x@Q1 < 4)"}));

// ---- Compiler lowering ---------------------------------------------------------

Computation vars_comp(std::uint64_t seed) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 5;
  opt.num_vars = 2;
  opt.seed = seed;
  return generate_random(opt);
}

PredicatePtr compile_text(const char* text) {
  auto parsed = parse_query(text);
  EXPECT_TRUE(parsed.ok) << parsed.error;
  auto compiled = ctl::compile_state(parsed.query.p);
  EXPECT_TRUE(compiled.ok) << compiled.error;
  return compiled.pred;
}

TEST(CtlCompile, ConjunctionOfComparisonsIsConjunctive) {
  auto p = compile_text("v0@P0 < 4 && v1@P1 >= 2 && v0@P2 != 0");
  EXPECT_TRUE(as_conjunctive(p) != nullptr);
}

TEST(CtlCompile, DisjunctionIsDisjunctive) {
  auto p = compile_text("v0@P0 < 4 || v1@P1 >= 2");
  EXPECT_TRUE(as_disjunctive(p) != nullptr);
}

TEST(CtlCompile, DeMorganThroughNot) {
  // !(a || b) compiles to a conjunctive predicate via structured negation.
  auto p = compile_text("!(v0@P0 < 4 || v1@P1 >= 2)");
  EXPECT_TRUE(as_conjunctive(p) != nullptr);
}

TEST(CtlCompile, ChannelAtomsAreRegular) {
  Computation c = vars_comp(3);
  for (const char* text :
       {"intransit(0,1) <= 2", "intransit(0,1) > 0", "channels_empty"}) {
    auto p = compile_text(text);
    EXPECT_EQ(p->classes(c) & kClassRegular, kClassRegular) << text;
  }
}

TEST(CtlCompile, SumAtomsPickRelationalClasses) {
  // Monotone counters: build via producer/consumer.
  sim::Simulator s = sim::make_producer_consumer(5, 2);
  Computation c = std::move(s).run({});
  auto le = compile_text("produced@P0 + consumed@P1 <= 7");
  EXPECT_EQ(le->classes(c) & kClassLinear, kClassLinear);
  auto ge = compile_text("produced@P0 + consumed@P1 >= 3");
  EXPECT_EQ(ge->classes(c) & kClassPostLinear, kClassPostLinear);
  auto diff = compile_text("produced@P0 - consumed@P1 <= 2");
  EXPECT_EQ(diff->classes(c) & kClassRegular, kClassRegular);
  // Reversed difference lowers through the mirror rule.
  auto diff2 = compile_text("produced@P0 - consumed@P1 >= 0");
  EXPECT_EQ(diff2->classes(c) & kClassRegular, kClassRegular);
}

TEST(CtlCompile, ConstantFolding) {
  Computation c = vars_comp(5);
  EXPECT_TRUE(compile_text("1 + 1 == 2")->eval(c, c.initial_cut()));
  EXPECT_FALSE(compile_text("3 < 2")->eval(c, c.initial_cut()));
}

TEST(CtlCompile, NegatedSingleTermMirrorsComparison) {
  Computation c = vars_comp(6);
  auto p = compile_text("0 - v0@P0 <= -3");  // ⟺ v0@P0 >= 3
  auto q = compile_text("v0@P0 >= 3");
  LatticeChecker chk(c);
  for (NodeId v = 0; v < chk.lattice().size(); ++v)
    EXPECT_EQ(p->eval(c, chk.lattice().cut(v)),
              q->eval(c, chk.lattice().cut(v)));
}

TEST(CtlCompile, ValidationCatchesUnknowns) {
  Computation c = vars_comp(7);
  auto r1 = ctl::evaluate_query(c, "EF(nosuch@P0 == 1)");
  EXPECT_FALSE(r1.ok);
  EXPECT_NE(r1.error.find("unknown variable"), std::string::npos);
  auto r2 = ctl::evaluate_query(c, "EF(v0@P9 == 1)");
  EXPECT_FALSE(r2.ok);
  EXPECT_NE(r2.error.find("process"), std::string::npos);
  auto r3 = ctl::evaluate_query(c, "EF(intransit(0,9) == 0)");
  EXPECT_FALSE(r3.ok);
}

TEST(CtlCompile, EvaluateMatchesBruteForce) {
  Computation c = vars_comp(8);
  LatticeChecker chk(c);
  const char* queries[] = {
      "EF(v0@P0 >= 3 && v1@P1 <= 2)",
      "AF(v0@P0 >= 3 || v1@P2 <= 4)",
      "EG(v0@P1 >= 0)",
      "AG(v0@P0 + v1@P1 + v0@P2 >= 0)",
      "E[v0@P0 <= 9 U v1@P1 >= 3]",
      "A[v0@P0 <= 3 || v0@P0 >= 0 U v1@P2 >= 1]",
  };
  for (const char* text : queries) {
    auto fast = ctl::evaluate_query(c, text);
    ASSERT_TRUE(fast.ok) << text << ": " << fast.error;
    auto parsed = parse_query(text);
    auto p = ctl::compile_state(parsed.query.p).pred;
    PredicatePtr q;
    if (parsed.query.q) q = ctl::compile_state(parsed.query.q).pred;
    auto slow = chk.detect(parsed.query.op, *p, q.get());
    EXPECT_EQ(fast.result.verdict, slow.verdict) << text;
  }
}

TEST(CtlCompile, BareStateEvaluatesAtInitialCut) {
  Computation c = vars_comp(9);
  auto r = ctl::evaluate_query(c, "v0@P0 >= 0 && channels_empty");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.result.verdict, Verdict::kHolds);
  EXPECT_EQ(r.algorithm, "state-eval(initial)");
}

TEST(CtlCompile, PosAndTerminatedKeywords) {
  Computation c = vars_comp(10);
  auto r = ctl::evaluate_query(c, "AF(terminated)");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.result.verdict, Verdict::kHolds);
  auto r2 = ctl::evaluate_query(c, "EF(pos(0) >= 5)");
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(r2.result.verdict, Verdict::kHolds);  // every process has 5 events
}

}  // namespace
}  // namespace hbct
