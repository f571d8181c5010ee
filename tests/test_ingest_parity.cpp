// One record stream, three ingestion paths: the btrace reader, the text
// reader (on the stream's text rendering) and a serve session apply records
// through one wire::Applier, so they must reach the same accept/reject
// decision, with the same message after the readers' position prefix
// ("record N: " / "line N: "). Accepted streams must build the same
// computation and the same session event count.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "online/appender.h"
#include "poset/trace_io.h"
#include "serve/session.h"

namespace hbct {
namespace {

using wire::Record;
using wire::WireWrite;
using Kind = Record::Kind;

Record procs(std::int32_t n) {
  Record r;
  r.kind = Kind::kProcs;
  r.nprocs = n;
  return r;
}
Record var(std::string name) {
  Record r;
  r.kind = Kind::kVar;
  r.name = std::move(name);
  return r;
}
Record init(ProcId p, std::uint32_t v, std::int64_t value) {
  Record r;
  r.kind = Kind::kInit;
  r.proc = p;
  r.var = v;
  r.value = value;
  return r;
}
Record internal(ProcId p, std::vector<WireWrite> writes = {},
                std::string label = {}) {
  Record r;
  r.kind = Kind::kInternal;
  r.proc = p;
  r.writes = std::move(writes);
  r.label = std::move(label);
  return r;
}
Record send(ProcId p, ProcId to, std::uint64_t id,
            std::vector<WireWrite> writes = {}) {
  Record r;
  r.kind = Kind::kSend;
  r.proc = p;
  r.peer = to;
  r.msg = id;
  r.writes = std::move(writes);
  return r;
}
Record recv(ProcId p, std::uint64_t id, std::vector<WireWrite> writes = {}) {
  Record r;
  r.kind = Kind::kRecv;
  r.proc = p;
  r.msg = id;
  r.writes = std::move(writes);
  return r;
}
Record end() {
  Record r;
  r.kind = Kind::kEnd;
  return r;
}

std::string encode(const std::vector<Record>& rs) {
  std::string out;
  for (const Record& r : rs) wire::encode_record(out, r);
  return out;
}

/// The stream as a text trace, or nullopt where the text grammar cannot say
/// it: text names variables, so it can neither reference an unregistered
/// index nor spell an empty name.
std::optional<std::string> render_text(const std::vector<Record>& rs) {
  std::ostringstream os;
  os << "hbct-trace v1\n";
  std::vector<std::string> names;
  for (const Record& r : rs) {
    switch (r.kind) {
      case Kind::kProcs:
        os << "procs " << r.nprocs << "\n";
        continue;
      case Kind::kVar:
        if (r.name.empty()) return std::nullopt;
        names.push_back(r.name);
        os << "var " << r.name << "\n";
        continue;
      case Kind::kInit:
        if (r.var >= names.size()) return std::nullopt;
        os << "init " << r.proc << " " << names[r.var] << " " << r.value
           << "\n";
        continue;
      case Kind::kEnd:
        os << "end\n";
        continue;
      case Kind::kInternal:
        os << "ev " << r.proc << " internal";
        break;
      case Kind::kSend:
        os << "ev " << r.proc << " send " << r.peer << " " << r.msg;
        break;
      case Kind::kRecv:
        os << "ev " << r.proc << " recv " << r.msg;
        break;
    }
    if (!r.label.empty()) os << " label=" << r.label;
    for (const WireWrite& w : r.writes) {
      if (w.var >= names.size()) return std::nullopt;
      os << " " << names[w.var] << "=" << w.value;
    }
    os << "\n";
  }
  return os.str();
}

/// A reader's error without its "line N: " / "record N: " prefix.
std::string message(const std::string& error) {
  const auto colon = error.find(": ");
  return colon == std::string::npos ? error : error.substr(colon + 2);
}

struct Row {
  const char* name;
  std::vector<Record> records;
  const char* needle;  // nullptr: every path accepts the stream
};

/// Feeds one row to the three paths; ASSERTs end only this row's checks.
void check_row(const Row& row) {
  SCOPED_TRACE(row.name);
  const TraceParseResult bin = trace_from_binary_string(
      std::string(wire::kBinaryMagic) + encode(row.records));
  const std::optional<std::string> text = render_text(row.records);
  serve::SessionConfig cfg;
  cfg.num_procs = row.records.front().nprocs;
  serve::Session session(1, cfg);
  session.ingest(encode(row.records));

  if (row.needle == nullptr) {
    ASSERT_TRUE(bin.ok) << bin.error;
    ASSERT_TRUE(text.has_value());
    const TraceParseResult txt = trace_from_string(*text);
    ASSERT_TRUE(txt.ok) << txt.error;
    EXPECT_EQ(trace_to_string(txt.computation),
              trace_to_string(bin.computation));
    EXPECT_EQ(session.state(), serve::SessionState::kFinished)
        << session.error();
    EXPECT_EQ(session.stats().events, bin.computation.total_events());
    return;
  }
  ASSERT_FALSE(bin.ok);
  const std::string expected = message(bin.error);
  EXPECT_NE(expected.find(row.needle), std::string::npos) << bin.error;
  EXPECT_EQ(bin.error.rfind("record ", 0), 0u) << bin.error;
  EXPECT_EQ(session.state(), serve::SessionState::kFailed);
  EXPECT_EQ(session.error(), expected);
  if (!text.has_value()) return;
  const TraceParseResult txt = trace_from_string(*text);
  ASSERT_FALSE(txt.ok);
  EXPECT_EQ(txt.error.rfind("line ", 0), 0u) << txt.error;
  EXPECT_EQ(message(txt.error), expected);
}

TEST(IngestParity, ReadersAndSessionAgreeOnEveryStream) {
  const Row rows[] = {
      {"labels_writes_and_inits",
       {procs(2), var("x"), var("y"), init(0, 1, 4),
        internal(0, {{0, 1}}, "boot"), send(0, 1, 7, {{1, 2}}),
        recv(1, 7, {{0, 3}}), internal(1), end()},
       nullptr},
      {"id_reused_after_delivery",
       {procs(2), send(0, 1, 5), recv(1, 5), send(1, 0, 5), recv(0, 5), end()},
       nullptr},
      {"ids_delivered_out_of_order",
       {procs(3), send(0, 1, 1), send(0, 2, 2), recv(2, 2), recv(1, 1), end()},
       nullptr},
      {"recv_before_send", {procs(2), recv(1, 7), end()},
       "recv before matching send"},
      {"double_recv", {procs(2), send(0, 1, 3), recv(1, 3), recv(1, 3), end()},
       "recv before matching send"},
      {"duplicate_in_flight_id",
       {procs(3), send(0, 1, 3), send(0, 2, 3), end()},
       "duplicate in-flight msg id"},
      {"write_to_unregistered_variable",
       {procs(2), var("x"), internal(0, {{3, 1}}), end()},
       "write to unregistered variable"},
      {"init_of_unregistered_variable", {procs(2), init(0, 0, 1), end()},
       "init of unregistered variable"},
      {"init_after_first_event",
       {procs(2), var("x"), internal(0, {{0, 5}}), init(0, 0, 7), end()},
       "init: initial values must precede the first event"},
      {"self_send", {procs(2), send(0, 0, 1), end()},
       "send: self-messages are not part of the model"},
      {"recv_on_wrong_process",
       {procs(3), send(0, 1, 3), recv(2, 3), end()},
       "recv: message delivered to wrong process"},
      {"empty_variable_name",
       {procs(2), var(""), internal(0, {{0, 5}}), end()},
       "var: empty variable name"},
  };

  for (const Row& row : rows) check_row(row);
}

TEST(IngestParity, EmptyVariableNameIsRejectedOnEveryPath) {
  // An empty name once passed btrace and the serve wire and then wrote text
  // (`var ` and ` =5`) that read_trace rejects. Every path now refuses it.
  const std::vector<Record> rs = {procs(2), var(""), internal(0, {{0, 5}}),
                                  end()};
  const TraceParseResult bin =
      trace_from_binary_string(std::string(wire::kBinaryMagic) + encode(rs));
  ASSERT_FALSE(bin.ok);
  EXPECT_EQ(bin.error, "record 1: var: empty variable name");

  serve::SessionConfig cfg;
  cfg.num_procs = 2;
  serve::Session session(1, cfg);
  session.ingest(encode(rs));
  EXPECT_EQ(session.state(), serve::SessionState::kFailed);
  EXPECT_EQ(session.error(), "var: empty variable name");

  // Text has no spelling for an empty name: the line that text would need
  // is a grammar error.
  const TraceParseResult txt = trace_from_string(
      "hbct-trace v1\nprocs 2\nvar \nev 0 internal =5\nend\n");
  ASSERT_FALSE(txt.ok);
  EXPECT_EQ(txt.error, "line 3: expected 'var <name>'");

  // The appender's own registration refuses it too.
  OnlineAppender app(2);
  VarId v = -1;
  EXPECT_EQ(app.try_var("", &v), AppendError::kEmptyVarName);
  EXPECT_EQ(app.computation().num_vars(), 0);
  EXPECT_EQ(app.try_var("x", &v), AppendError::kNone);
  EXPECT_EQ(v, 0);
}

}  // namespace
}  // namespace hbct
