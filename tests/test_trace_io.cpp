// Tests for the text trace format: round-trips and error reporting.
#include <gtest/gtest.h>

#include <sstream>

#include "online/appender.h"
#include "poset/generate.h"
#include "poset/trace_io.h"

namespace hbct {
namespace {

TEST(TraceIo, RoundTripRandomComputations) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    GenOptions opt;
    opt.num_procs = 3 + static_cast<std::int32_t>(seed % 3);
    opt.events_per_proc = 6;
    opt.seed = seed;
    Computation a = generate_random(opt);
    const std::string text = trace_to_string(a);

    TraceParseResult parsed = trace_from_string(text);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const Computation& b = parsed.computation;
    b.validate();

    ASSERT_EQ(a.num_procs(), b.num_procs());
    ASSERT_EQ(a.total_events(), b.total_events());
    ASSERT_EQ(a.num_messages(), b.num_messages());
    // Same events, clocks, and variable timelines.
    for (ProcId i = 0; i < a.num_procs(); ++i) {
      ASSERT_EQ(a.num_events(i), b.num_events(i));
      for (EventIndex k = 1; k <= a.num_events(i); ++k) {
        EXPECT_EQ(a.vclock(i, k), b.vclock(i, k));
        EXPECT_EQ(a.event_view(i, k).kind, b.event_view(i, k).kind);
      }
      for (VarId v = 0; v < a.num_vars(); ++v)
        for (EventIndex k = 0; k <= a.num_events(i); ++k)
          EXPECT_EQ(a.value_at(i, v, k),
                    b.value_at(i, *b.var_id(a.var_name(v)), k));
    }
    // Idempotence: serializing the parse is byte-identical.
    EXPECT_EQ(trace_to_string(b), text);
  }
}

TEST(TraceIo, PreservesLabelsAndInitials) {
  const std::string text =
      "hbct-trace v1\n"
      "procs 2\n"
      "var x\n"
      "init 0 x 5\n"
      "ev 0 internal label=boot x=7\n"
      "ev 0 send 1 0\n"
      "ev 1 recv 0 x=9\n"
      "end\n";
  auto r = trace_from_string(text);
  ASSERT_TRUE(r.ok) << r.error;
  const Computation& c = r.computation;
  EXPECT_EQ(c.value_at(0, 0, 0), 5);
  EXPECT_EQ(c.value_at(0, 0, 1), 7);
  EXPECT_EQ(c.value_at(1, 0, 1), 9);
  ASSERT_TRUE(c.find_label("boot").has_value());
  EXPECT_EQ(trace_to_string(c), text);
}

TEST(TraceIo, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "hbct-trace v1\n"
      "# a comment\n"
      "procs 1\n"
      "\n"
      "ev 0 internal   # trailing comment\n"
      "end\n";
  auto r = trace_from_string(text);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.computation.total_events(), 1);
}

TEST(TraceIo, ReservedBytesInLabelsAndNamesRoundTrip) {
  // Labels and variable names may hold the bytes the grammar reserves
  // (token separators, '#', '=', the escape '%'); the writer escapes them,
  // so no label splits into stray tokens and no write is lost to a comment.
  OnlineAppender b(2);
  const VarId yz = b.var("y=z");
  const VarId lbl = b.var("label");
  const VarId odd = b.var("50% #1\t");
  b.internal(0);
  b.label(0, "a b");
  b.write(0, yz, 3);
  const MsgId m = b.send(0, 1);
  b.label(0, "p#q");
  b.write(0, yz, 4);
  b.write(0, lbl, 5);
  b.receive(1, m);
  b.label(1, "x=y %41\nz");
  b.write(1, odd, 6);
  const Computation c = std::move(b).build();

  const std::string text = trace_to_string(c);
  const TraceParseResult r = trace_from_string(text);
  ASSERT_TRUE(r.ok) << r.error << "\n" << text;
  const Computation& d = r.computation;
  ASSERT_EQ(d.num_vars(), 3);
  EXPECT_EQ(d.var_name(0), "y=z");
  EXPECT_EQ(d.var_name(1), "label");
  EXPECT_EQ(d.var_name(2), "50% #1\t");
  EXPECT_EQ(d.event_view(0, 1).label, "a b");
  EXPECT_EQ(d.event_view(0, 2).label, "p#q");
  EXPECT_EQ(d.event_view(1, 1).label, "x=y %41\nz");
  EXPECT_EQ(d.value_at(0, 0, 1), 3);
  EXPECT_EQ(d.value_at(0, 0, 2), 4);
  EXPECT_EQ(d.value_at(0, 1, 2), 5);
  EXPECT_EQ(d.value_at(1, 2, 1), 6);
  EXPECT_EQ(trace_to_string(d), text);
  // Through the binary form and back, byte for byte.
  const TraceParseResult rb = trace_from_binary_string(trace_to_binary_string(c));
  ASSERT_TRUE(rb.ok) << rb.error;
  EXPECT_EQ(trace_to_string(rb.computation), text);
  // A malformed escape is a parse error, not a silent rewrite.
  const TraceParseResult bad =
      trace_from_string("hbct-trace v1\nprocs 1\nev 0 internal label=a%2\nend\n");
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("escape"), std::string::npos) << bad.error;
}

struct BadTraceCase {
  const char* name;
  const char* text;
  const char* expect_substr;
};

// Print the case name so the parameter shows as its name, not its pointer
// bytes, and test names stay the same from build to build.
void PrintTo(const BadTraceCase& c, std::ostream* os) { *os << c.name; }

class TraceIoErrors : public ::testing::TestWithParam<BadTraceCase> {};

TEST_P(TraceIoErrors, ReportsError) {
  auto r = trace_from_string(GetParam().text);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find(GetParam().expect_substr), std::string::npos)
      << "actual error: " << r.error;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TraceIoErrors,
    ::testing::Values(
        BadTraceCase{"no_header", "procs 2\nend\n", "header"},
        BadTraceCase{"bad_procs", "hbct-trace v1\nprocs x\nend\n",
                     "process count"},
        BadTraceCase{"missing_end", "hbct-trace v1\nprocs 1\n", "end"},
        BadTraceCase{"recv_before_send",
                     "hbct-trace v1\nprocs 2\nev 1 recv 7\nend\n",
                     "before matching send"},
        BadTraceCase{"double_recv",
                     "hbct-trace v1\nprocs 2\nev 0 send 1 3\nev 1 recv 3\n"
                     "ev 1 recv 3\nend\n",
                     "received twice"},
        BadTraceCase{"wrong_dst",
                     "hbct-trace v1\nprocs 3\nev 0 send 1 3\nev 2 recv 3\n"
                     "end\n",
                     "wrong process"},
        BadTraceCase{"self_send",
                     "hbct-trace v1\nprocs 2\nev 0 send 0 1\nend\n",
                     "send"},
        BadTraceCase{"bad_proc_index",
                     "hbct-trace v1\nprocs 2\nev 5 internal\nend\n", "ev"},
        BadTraceCase{"dup_msg_id",
                     "hbct-trace v1\nprocs 3\nev 0 send 1 3\nev 0 send 2 3\n"
                     "end\n",
                     "duplicate"},
        BadTraceCase{"garbage_record",
                     "hbct-trace v1\nprocs 1\nfoo bar\nend\n", "unknown"},
        BadTraceCase{"bad_assignment",
                     "hbct-trace v1\nprocs 1\nev 0 internal x=abc\nend\n",
                     "bad integer"},
        BadTraceCase{"init_after_event",
                     "hbct-trace v1\nprocs 1\nvar x\nev 0 internal x=5\n"
                     "init 0 x 7\nend\n",
                     "initial values must precede the first event"}));

// ---- Binary form: text <-> binary round-trip properties ------------------------

TEST(TraceIoBinary, RoundTripRandomComputations) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    GenOptions opt;
    opt.num_procs = 3 + static_cast<std::int32_t>(seed % 3);
    opt.events_per_proc = 6;
    opt.seed = seed;
    Computation a = generate_random(opt);

    const std::string bytes = trace_to_binary_string(a);
    TraceParseResult parsed = trace_from_binary_string(bytes);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    parsed.computation.validate();
    // The canonical text form is the equality oracle for both directions:
    // binary decode must land on the same computation the text form names.
    EXPECT_EQ(trace_to_string(parsed.computation), trace_to_string(a));
    // And the binary print of the parse is byte-identical (idempotence).
    EXPECT_EQ(trace_to_binary_string(parsed.computation), bytes);
  }
}

TEST(TraceIoBinary, TextToBinaryAndBackPreservesEverything) {
  const std::string text =
      "hbct-trace v1\n"
      "procs 2\n"
      "var x\n"
      "init 0 x 5\n"
      "ev 0 internal label=boot x=7\n"
      "ev 0 send 1 0\n"
      "ev 1 recv 0 x=9\n"
      "end\n";
  auto from_text = trace_from_string(text);
  ASSERT_TRUE(from_text.ok) << from_text.error;

  const std::string bytes = trace_to_binary_string(from_text.computation);
  auto from_binary = trace_from_binary_string(bytes);
  ASSERT_TRUE(from_binary.ok) << from_binary.error;

  // Full circle: text -> computation -> binary -> computation -> text.
  EXPECT_EQ(trace_to_string(from_binary.computation), text);
  const Computation& c = from_binary.computation;
  EXPECT_EQ(c.value_at(0, 0, 0), 5);
  EXPECT_EQ(c.value_at(0, 0, 1), 7);
  EXPECT_EQ(c.value_at(1, 0, 1), 9);
  ASSERT_TRUE(c.find_label("boot").has_value());
}

TEST(TraceIoBinary, StreamInterfaceMatchesStringInterface) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 5;
  opt.seed = 7;
  const Computation a = generate_random(opt);

  std::ostringstream os;
  write_trace_binary(os, a);
  EXPECT_EQ(os.str(), trace_to_binary_string(a));

  std::istringstream is(os.str());
  TraceParseResult r = read_trace_binary(is);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(trace_to_string(r.computation), trace_to_string(a));
}

TEST(TraceIoBinary, RejectsTextMagicAndViceVersa) {
  GenOptions opt;
  opt.num_procs = 2;
  opt.events_per_proc = 3;
  opt.seed = 3;
  const Computation a = generate_random(opt);
  EXPECT_FALSE(trace_from_binary_string(trace_to_string(a)).ok);
  EXPECT_FALSE(trace_from_string(trace_to_binary_string(a)).ok);
}

}  // namespace
}  // namespace hbct
