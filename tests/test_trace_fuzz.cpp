// Trace reader robustness: seeded byte-level mutations of valid traces must
// never crash the parser — every input either parses or reports a non-empty
// error — and the unmutated round-trip stays intact throughout.
#include <gtest/gtest.h>

#include <string>

#include "poset/generate.h"
#include "poset/mtrace.h"
#include "poset/trace_io.h"
#include "util/rng.h"

namespace hbct {
namespace {

Computation random_comp(std::uint64_t seed) {
  GenOptions opt;
  opt.num_procs = 3;
  opt.events_per_proc = 4;
  opt.num_vars = 2;
  opt.p_send = 0.3;
  opt.p_recv = 0.35;
  opt.seed = seed;
  return generate_random(opt);
}

/// Applies one random substitution, insertion, or deletion at a random
/// offset. The alphabet skews toward bytes the grammar cares about so
/// mutations hit field boundaries, not just free text.
std::string mutate(Rng& rng, std::string s) {
  const char alphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789 \t\n-=#.procsvinitend\xff\x00";
  const auto pick = [&] {
    return alphabet[rng.next_below(sizeof(alphabet) - 1)];
  };
  if (s.empty()) return std::string(1, pick());
  const std::size_t at = rng.next_below(s.size());
  switch (rng.next_below(3)) {
    case 0:
      s[at] = pick();
      break;
    case 1:
      s.insert(s.begin() + static_cast<std::ptrdiff_t>(at), pick());
      break;
    default:
      s.erase(s.begin() + static_cast<std::ptrdiff_t>(at));
      break;
  }
  return s;
}

class TraceFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceFuzz, MutatedTracesNeverCrash) {
  Rng rng(GetParam() * 41 + 3);
  const Computation c = random_comp(GetParam());
  const std::string valid = trace_to_string(c);

  // Sanity: the unmutated text round-trips.
  TraceParseResult base = trace_from_string(valid);
  ASSERT_TRUE(base.ok) << base.error;
  EXPECT_EQ(trace_to_string(base.computation), valid);

  for (int round = 0; round < 200; ++round) {
    // 1..8 stacked mutations: single byte flips and small pile-ups.
    std::string text = valid;
    const std::size_t n = 1 + rng.next_below(8);
    for (std::size_t i = 0; i < n; ++i) text = mutate(rng, text);

    const TraceParseResult r = trace_from_string(text);
    if (!r.ok) {
      EXPECT_FALSE(r.error.empty()) << "round " << round;
    } else {
      // Whatever still parses must serialize and re-parse to the identical
      // computation (print∘parse is a fixpoint after one iteration).
      const std::string printed = trace_to_string(r.computation);
      const TraceParseResult r2 = trace_from_string(printed);
      ASSERT_TRUE(r2.ok) << "reprint failed: " << r2.error;
      EXPECT_EQ(trace_to_string(r2.computation), printed);
    }
  }
}

TEST(TraceFuzz, TruncationsAtEveryPrefixAreHandled) {
  const Computation c = random_comp(99);
  const std::string valid = trace_to_string(c);
  // Every prefix either parses (trailing records dropped legally would be a
  // format change — today only the full text has the `end` marker) or
  // reports an error; it must never crash.
  for (std::size_t len = 0; len < valid.size(); ++len) {
    const TraceParseResult r = trace_from_string(valid.substr(0, len));
    if (!r.ok) EXPECT_FALSE(r.error.empty()) << "prefix " << len;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---- Binary form ---------------------------------------------------------------

/// Byte-level mutation for the binary form: uniform random bytes (the
/// binary grammar has no free text to skew toward — every byte matters).
std::string mutate_binary(Rng& rng, std::string s) {
  const auto pick = [&] {
    return static_cast<char>(rng.next_below(256));
  };
  if (s.empty()) return std::string(1, pick());
  const std::size_t at = rng.next_below(s.size());
  switch (rng.next_below(3)) {
    case 0:
      s[at] = pick();
      break;
    case 1:
      s.insert(s.begin() + static_cast<std::ptrdiff_t>(at), pick());
      break;
    default:
      s.erase(s.begin() + static_cast<std::ptrdiff_t>(at));
      break;
  }
  return s;
}

class BinaryTraceFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BinaryTraceFuzz, MutatedBinaryTracesNeverCrash) {
  Rng rng(GetParam() * 53 + 11);
  const Computation c = random_comp(GetParam());
  const std::string valid = trace_to_binary_string(c);

  // Sanity: the unmutated bytes round-trip to the identical computation.
  TraceParseResult base = trace_from_binary_string(valid);
  ASSERT_TRUE(base.ok) << base.error;
  EXPECT_EQ(trace_to_binary_string(base.computation), valid);
  EXPECT_EQ(trace_to_string(base.computation), trace_to_string(c));

  for (int round = 0; round < 200; ++round) {
    std::string bytes = valid;
    const std::size_t n = 1 + rng.next_below(8);
    for (std::size_t i = 0; i < n; ++i) bytes = mutate_binary(rng, bytes);

    const TraceParseResult r = trace_from_binary_string(bytes);
    if (!r.ok) {
      EXPECT_FALSE(r.error.empty()) << "round " << round;
    } else {
      const std::string printed = trace_to_binary_string(r.computation);
      const TraceParseResult r2 = trace_from_binary_string(printed);
      ASSERT_TRUE(r2.ok) << "reprint failed: " << r2.error;
      EXPECT_EQ(trace_to_binary_string(r2.computation), printed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryTraceFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(BinaryTraceFuzz, TruncationsAtEveryPrefixAreErrors) {
  const Computation c = random_comp(99);
  const std::string valid = trace_to_binary_string(c);
  // The binary grammar requires a complete `end` record, so every strict
  // prefix — including ones cutting a length prefix or varint mid-byte —
  // must report an error, never crash, never return a computation.
  for (std::size_t len = 0; len < valid.size(); ++len) {
    const TraceParseResult r =
        trace_from_binary_string(std::string_view(valid).substr(0, len));
    EXPECT_FALSE(r.ok) << "prefix " << len;
    EXPECT_FALSE(r.error.empty()) << "prefix " << len;
  }
}

TEST(BinaryTraceFuzz, HandCraftedMalformedRecords) {
  const auto parse_records = [](const std::vector<std::string>& payloads) {
    std::string bytes(wire::kBinaryMagic);
    for (const std::string& p : payloads) {
      wire::put_varint(bytes, p.size());
      bytes += p;
    }
    return trace_from_binary_string(bytes);
  };
  const auto rec = [](const wire::Record& r) {
    std::string s;
    wire::encode_record(s, r);
    return s;
  };
  wire::Record procs;
  procs.kind = wire::Record::Kind::kProcs;
  procs.nprocs = 2;
  wire::Record send;
  send.kind = wire::Record::Kind::kSend;
  send.proc = 0;
  send.peer = 1;
  send.msg = 5;
  wire::Record end;
  end.kind = wire::Record::Kind::kEnd;

  // Duplicate message ids are a clean parse error.
  {
    std::string bytes(wire::kBinaryMagic);
    bytes += rec(procs) + rec(send) + rec(send) + rec(end);
    const TraceParseResult r = trace_from_binary_string(bytes);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("duplicate"), std::string::npos) << r.error;
  }
  // Initial values after the first event are a clean parse error, not a
  // rewrite of the history already read.
  {
    wire::Record var;
    var.kind = wire::Record::Kind::kVar;
    var.name = "x";
    wire::Record ev;
    ev.kind = wire::Record::Kind::kInternal;
    ev.proc = 0;
    ev.writes.push_back({0, 5});
    wire::Record init;
    init.kind = wire::Record::Kind::kInit;
    init.proc = 0;
    init.var = 0;
    init.value = 7;
    std::string bytes(wire::kBinaryMagic);
    bytes += rec(procs) + rec(var) + rec(ev) + rec(init) + rec(end);
    const TraceParseResult r = trace_from_binary_string(bytes);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("initial values must precede the first event"),
              std::string::npos)
        << r.error;
  }
  // An 11-byte varint inside a payload can never be valid.
  {
    std::string payload(1, '\x01');  // kProcs
    payload += std::string(11, '\xff');
    const TraceParseResult r = parse_records({payload});
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("varint"), std::string::npos) << r.error;
  }
  // A declared record length beyond the cap is rejected up front.
  {
    std::string bytes(wire::kBinaryMagic);
    wire::put_varint(bytes, wire::kMaxRecordBytes + 1);
    const TraceParseResult r = trace_from_binary_string(bytes);
    EXPECT_FALSE(r.ok);
  }
  // Trailing payload bytes after the known fields are rejected.
  {
    const TraceParseResult r = parse_records({std::string("\x07junk", 5)});
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("trailing"), std::string::npos) << r.error;
  }
  // Bytes after the end record are rejected.
  {
    std::string bytes(wire::kBinaryMagic);
    bytes += rec(procs) + rec(end);
    bytes.push_back('\x00');
    const TraceParseResult r = trace_from_binary_string(bytes);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("after"), std::string::npos) << r.error;
  }
}

// ---- mtrace (mmap form) -----------------------------------------------------
//
// The mtrace loader is the memory-safety boundary of the zero-copy path:
// whatever it accepts is later dereferenced WITHOUT bounds checks by the
// arena views and the detectors. Every failure must be a typed
// MtraceError with a message — never a crash, never an unvalidated
// computation.

class MtraceFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MtraceFuzz, MutatedMtraceBytesNeverCrash) {
  Rng rng(GetParam() * 67 + 29);
  const Computation c = random_comp(GetParam());
  const std::string valid = mtrace_to_string(c);

  // Sanity: the unmutated bytes round-trip byte-identically.
  MtraceLoadResult base = mtrace_from_bytes(valid);
  ASSERT_TRUE(base.ok) << base.error;
  EXPECT_EQ(mtrace_to_string(base.computation), valid);

  for (int round = 0; round < 300; ++round) {
    std::string bytes = valid;
    const std::size_t n = 1 + rng.next_below(8);
    for (std::size_t i = 0; i < n; ++i) bytes = mutate_binary(rng, bytes);

    const MtraceLoadResult r = mtrace_from_bytes(bytes);
    if (!r.ok) {
      EXPECT_NE(r.code, MtraceError::kNone) << "round " << round;
      EXPECT_FALSE(r.error.empty()) << "round " << round;
    } else {
      // Anything accepted must re-serialize to a loadable fixpoint.
      const std::string printed = mtrace_to_string(r.computation);
      const MtraceLoadResult r2 = mtrace_from_bytes(printed);
      ASSERT_TRUE(r2.ok) << "reprint failed: " << r2.error;
      EXPECT_EQ(mtrace_to_string(r2.computation), printed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MtraceFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(MtraceFuzz, TruncationsAtEveryPrefixAreTypedErrors) {
  const Computation c = random_comp(41);
  const std::string valid = mtrace_to_string(c);
  // Section offsets are absolute, so every strict prefix loses at least
  // the linearization tail: all of them must fail with a typed error.
  for (std::size_t len = 0; len < valid.size(); ++len) {
    const MtraceLoadResult r =
        mtrace_from_bytes(std::string_view(valid).substr(0, len));
    EXPECT_FALSE(r.ok) << "prefix " << len;
    EXPECT_NE(r.code, MtraceError::kNone) << "prefix " << len;
    EXPECT_FALSE(r.error.empty()) << "prefix " << len;
  }
}

TEST(MtraceFuzz, CraftedHeadersReportTheRightError) {
  const Computation c = random_comp(42);
  const std::string valid = mtrace_to_string(c);

  const auto load_with = [&](std::size_t at, char v) {
    std::string bytes = valid;
    bytes[at] = v;
    return mtrace_from_bytes(bytes);
  };

  // Shorter than one header.
  {
    const MtraceLoadResult r =
        mtrace_from_bytes(std::string_view(valid).substr(0, 63));
    EXPECT_EQ(r.code, MtraceError::kTruncated);
  }
  // Magic damage.
  EXPECT_EQ(load_with(0, 'X').code, MtraceError::kBadMagic);
  // Unsupported version (offset 8: u32 version).
  EXPECT_EQ(load_with(8, '\x7f').code, MtraceError::kBadHeader);
  // nprocs out of range (offset 16: i32 nprocs; 0x80 in the high byte
  // makes it negative).
  EXPECT_EQ(load_with(19, '\x80').code, MtraceError::kBadHeader);
  // Section-table damage trips the checksum before any section is read
  // (offset 64 is the first table entry's id).
  EXPECT_EQ(load_with(64, '\x7e').code, MtraceError::kBadChecksum);

  // Every single-byte corruption anywhere in the file either fails with a
  // typed error or round-trips; exhaustive over the whole (small) file.
  for (std::size_t at = 0; at < valid.size(); ++at) {
    std::string bytes = valid;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x2a);
    const MtraceLoadResult r = mtrace_from_bytes(bytes);
    if (!r.ok) {
      EXPECT_NE(r.code, MtraceError::kNone) << "offset " << at;
      EXPECT_FALSE(r.error.empty()) << "offset " << at;
    }
  }
}

}  // namespace
}  // namespace hbct
