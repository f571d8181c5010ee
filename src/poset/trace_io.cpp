#include "poset/trace_io.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "online/appender.h"
#include "util/assert.h"
#include "util/string_util.h"

namespace hbct {

namespace {

void write_event_tail(std::ostream& os, const Computation& c,
                      const EventView& ev) {
  if (!ev.label.empty()) os << " label=" << ev.label;
  for (std::size_t k = 0; k < ev.num_writes(); ++k) {
    const Assignment a = ev.write_at(k);
    os << " " << c.var_name(a.var) << "=" << a.value;
  }
  os << "\n";
}

}  // namespace

void write_trace(std::ostream& os, const Computation& c) {
  os << "hbct-trace v1\n";
  os << "procs " << c.num_procs() << "\n";
  for (VarId v = 0; v < c.num_vars(); ++v) os << "var " << c.var_name(v) << "\n";
  for (ProcId i = 0; i < c.num_procs(); ++i)
    for (VarId v = 0; v < c.num_vars(); ++v) {
      const std::int64_t init = c.value_at(i, v, 0);
      if (init != 0) os << "init " << i << " " << c.var_name(v) << " " << init << "\n";
    }
  for (const EventId& eid : c.linearization()) {
    const EventView ev = c.event_view(eid);
    os << "ev " << eid.proc << " ";
    switch (ev.kind) {
      case EventKind::kInternal:
        os << "internal";
        break;
      case EventKind::kSend:
        os << "send " << ev.peer << " " << ev.msg;
        break;
      case EventKind::kReceive:
        os << "recv " << ev.msg;
        break;
    }
    write_event_tail(os, c, ev);
  }
  os << "end\n";
}

std::string trace_to_string(const Computation& c) {
  std::ostringstream os;
  write_trace(os, c);
  return os.str();
}

namespace {

struct Parser {
  std::istream& is;
  int lineno = 0;
  std::string err;

  bool fail(const std::string& msg) {
    if (err.empty()) err = strfmt("line %d: %s", lineno, msg.c_str());
    return false;
  }
};

// Parses trailing "label=..." / "name=value" tokens onto the last event.
bool parse_annotations(Parser& p, OnlineAppender& b, ProcId proc,
                       const std::vector<std::string>& toks, std::size_t first) {
  for (std::size_t t = first; t < toks.size(); ++t) {
    const std::string& tok = toks[t];
    auto eq = tok.find('=');
    if (eq == std::string::npos || eq == 0)
      return p.fail("expected key=value annotation, got '" + tok + "'");
    std::string key = tok.substr(0, eq);
    std::string val = tok.substr(eq + 1);
    if (key == "label") {
      b.label(proc, val);
    } else {
      long long value = 0;
      if (!parse_int(val, value))
        return p.fail("bad integer in assignment '" + tok + "'");
      b.write(proc, key, value);
    }
  }
  return true;
}

}  // namespace

TraceParseResult read_trace(std::istream& is) {
  TraceParseResult out;
  Parser p{is, 0, {}};
  std::string line;

  auto next_tokens = [&](std::vector<std::string>& toks) -> bool {
    while (std::getline(p.is, line)) {
      ++p.lineno;
      std::string_view body = trim(line);
      auto hash = body.find('#');
      if (hash != std::string_view::npos) body = trim(body.substr(0, hash));
      if (body.empty()) continue;
      toks.clear();
      for (auto& t : split(body, ' '))
        if (!t.empty()) toks.push_back(std::move(t));
      return true;
    }
    return false;
  };

  std::vector<std::string> toks;
  if (!next_tokens(toks) || toks.size() != 2 || toks[0] != "hbct-trace" ||
      toks[1] != "v1") {
    out.error = "missing 'hbct-trace v1' header";
    return out;
  }
  if (!next_tokens(toks) || toks.size() != 2 || toks[0] != "procs") {
    out.error = strfmt("line %d: expected 'procs <n>'", p.lineno);
    return out;
  }
  long long n = 0;
  if (!parse_int(toks[1], n) || n <= 0 || n > 1 << 20) {
    out.error = strfmt("line %d: bad process count", p.lineno);
    return out;
  }

  OnlineAppender b(static_cast<std::int32_t>(n));
  // A rejected append becomes the parse error of the current line.
  const auto applied = [&p](AppendError e) {
    return e == AppendError::kNone || p.fail(to_string(e));
  };
  std::unordered_map<long long, MsgId> msg_map;  // file msg id -> appended
  bool saw_end = false;

  while (next_tokens(toks)) {
    const std::string& kw = toks[0];
    if (kw == "end") {
      saw_end = true;
      break;
    }
    if (kw == "var") {
      if (toks.size() != 2) { p.fail("expected 'var <name>'"); break; }
      b.var(toks[1]);
      continue;
    }
    if (kw == "init") {
      long long proc = 0, value = 0;
      if (toks.size() != 4 || !parse_int(toks[1], proc) ||
          !parse_int(toks[3], value) || proc < 0 || proc >= n) {
        p.fail("expected 'init <proc> <var> <value>'");
        break;
      }
      if (!applied(b.try_set_initial(static_cast<ProcId>(proc),
                                     b.var(toks[2]), value)))
        break;
      continue;
    }
    if (kw == "ev") {
      long long proc = 0;
      if (toks.size() < 3 || !parse_int(toks[1], proc) || proc < 0 || proc >= n) {
        p.fail("expected 'ev <proc> <kind> ...'");
        break;
      }
      const ProcId pi = static_cast<ProcId>(proc);
      const std::string& kind = toks[2];
      std::size_t first_ann = 3;
      if (kind == "internal") {
        b.internal(pi);
      } else if (kind == "send") {
        long long to = 0, mid = 0;
        if (toks.size() < 5 || !parse_int(toks[3], to) ||
            !parse_int(toks[4], mid) || to < 0 || to >= n || to == proc) {
          p.fail("expected 'ev <proc> send <to> <msg-id>'");
          break;
        }
        if (msg_map.count(mid)) { p.fail("duplicate msg id"); break; }
        msg_map[mid] = b.send(pi, static_cast<ProcId>(to));
        first_ann = 5;
      } else if (kind == "recv") {
        long long mid = 0;
        if (toks.size() < 4 || !parse_int(toks[3], mid)) {
          p.fail("expected 'ev <proc> recv <msg-id>'");
          break;
        }
        auto it = msg_map.find(mid);
        if (it == msg_map.end()) { p.fail("recv before matching send"); break; }
        if (!applied(b.try_receive(pi, it->second))) break;
        first_ann = 4;
      } else {
        p.fail("unknown event kind '" + kind + "'");
        break;
      }
      if (!parse_annotations(p, b, pi, toks, first_ann)) break;
      continue;
    }
    p.fail("unknown record '" + kw + "'");
    break;
  }

  if (!p.err.empty()) {
    out.error = p.err;
    return out;
  }
  if (!saw_end) {
    out.error = "missing 'end' record";
    return out;
  }
  out.computation = std::move(b).build();
  out.ok = true;
  return out;
}

TraceParseResult trace_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_trace(is);
}

// ---- Binary form ------------------------------------------------------------

namespace wire {

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void put_zigzag(std::string& out, std::int64_t v) {
  const std::uint64_t u = static_cast<std::uint64_t>(v);
  put_varint(out, (u << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

namespace {

/// 1 = value decoded, 0 = input exhausted mid-varint (need more bytes),
/// -1 = malformed (more than 10 bytes, or bits above 63 set).
int get_varint(std::string_view in, std::size_t* pos, std::uint64_t* out) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    if (*pos + i >= in.size()) return 0;
    const std::uint8_t b = static_cast<std::uint8_t>(in[*pos + i]);
    if (i == 9 && b > 1) return -1;  // would overflow 64 bits
    v |= static_cast<std::uint64_t>(b & 0x7f) << (7 * i);
    if ((b & 0x80) == 0) {
      *pos += i + 1;
      *out = v;
      return 1;
    }
  }
  return -1;  // no terminator within 10 bytes
}

std::uint64_t unzigzag(std::uint64_t u) {
  return (u >> 1) ^ (~(u & 1) + 1);
}

/// Field reader over one complete payload: any truncation here is malformed
/// (the record length said the payload was complete).
struct PayloadReader {
  std::string_view payload;
  std::size_t pos = 0;
  std::string err;

  bool fail(const char* msg) {
    if (err.empty()) err = msg;
    return false;
  }
  bool u64(std::uint64_t* out) {
    const int rc = get_varint(payload, &pos, out);
    return rc == 1 || fail(rc == 0 ? "truncated varint" : "oversized varint");
  }
  bool i64(std::int64_t* out) {
    std::uint64_t u = 0;
    if (!u64(&u)) return false;
    *out = static_cast<std::int64_t>(unzigzag(u));
    return true;
  }
  bool u32(std::uint32_t* out) {
    std::uint64_t u = 0;
    if (!u64(&u)) return false;
    if (u > 0xffffffffu) return fail("field out of range");
    *out = static_cast<std::uint32_t>(u);
    return true;
  }
  bool proc_id(std::int32_t* out) {
    std::uint64_t u = 0;
    if (!u64(&u)) return false;
    if (u > 0x7fffffffu) return fail("field out of range");
    *out = static_cast<std::int32_t>(u);
    return true;
  }
  bool str(std::string* out) {
    std::uint64_t len = 0;
    if (!u64(&len)) return false;
    if (len > kMaxNameBytes) return fail("string too long");
    if (payload.size() - pos < len) return fail("truncated string");
    out->assign(payload.data() + pos, static_cast<std::size_t>(len));
    pos += static_cast<std::size_t>(len);
    return true;
  }
  /// Event tail shared by kInternal/kSend/kRecv.
  bool tail(Record* r) {
    std::uint64_t nwrites = 0;
    if (!u64(&nwrites)) return false;
    // Each write occupies >= 2 payload bytes; an absurd count is malformed.
    if (nwrites > payload.size()) return fail("write count exceeds record");
    r->writes.resize(static_cast<std::size_t>(nwrites));
    for (auto& w : r->writes)
      if (!u32(&w.var) || !i64(&w.value)) return false;
    return str(&r->label);
  }
};

bool decode_payload(std::string_view payload, Record* out, std::string* err) {
  *out = Record{};
  if (payload.empty()) {
    *err = "empty record";
    return false;
  }
  const std::uint8_t kind = static_cast<std::uint8_t>(payload[0]);
  if (kind < 1 || kind > 7) {
    *err = strfmt("unknown record kind %d", kind);
    return false;
  }
  out->kind = static_cast<Record::Kind>(kind);
  PayloadReader p{payload, 1, {}};
  bool ok = true;
  switch (out->kind) {
    case Record::Kind::kProcs:
      ok = p.proc_id(&out->nprocs);
      break;
    case Record::Kind::kVar:
      ok = p.str(&out->name);
      break;
    case Record::Kind::kInit:
      ok = p.proc_id(&out->proc) && p.u32(&out->var) && p.i64(&out->value);
      break;
    case Record::Kind::kInternal:
      ok = p.proc_id(&out->proc) && p.tail(out);
      break;
    case Record::Kind::kSend:
      ok = p.proc_id(&out->proc) && p.proc_id(&out->peer) &&
           p.u64(&out->msg) && p.tail(out);
      break;
    case Record::Kind::kRecv:
      ok = p.proc_id(&out->proc) && p.u64(&out->msg) && p.tail(out);
      break;
    case Record::Kind::kEnd:
      break;
  }
  if (!ok) {
    *err = p.err;
    return false;
  }
  if (p.pos != payload.size()) {
    *err = "trailing bytes in record";
    return false;
  }
  return true;
}

}  // namespace

void encode_record(std::string& out, const Record& r) {
  std::string payload;
  payload.push_back(static_cast<char>(r.kind));
  switch (r.kind) {
    case Record::Kind::kProcs:
      put_varint(payload, static_cast<std::uint64_t>(r.nprocs));
      break;
    case Record::Kind::kVar:
      put_varint(payload, r.name.size());
      payload.append(r.name);
      break;
    case Record::Kind::kInit:
      put_varint(payload, static_cast<std::uint64_t>(r.proc));
      put_varint(payload, r.var);
      put_zigzag(payload, r.value);
      break;
    case Record::Kind::kInternal:
    case Record::Kind::kSend:
    case Record::Kind::kRecv:
      put_varint(payload, static_cast<std::uint64_t>(r.proc));
      if (r.kind == Record::Kind::kSend)
        put_varint(payload, static_cast<std::uint64_t>(r.peer));
      if (r.kind != Record::Kind::kInternal) put_varint(payload, r.msg);
      put_varint(payload, r.writes.size());
      for (const WireWrite& w : r.writes) {
        put_varint(payload, w.var);
        put_zigzag(payload, w.value);
      }
      put_varint(payload, r.label.size());
      payload.append(r.label);
      break;
    case Record::Kind::kEnd:
      break;
  }
  HBCT_ASSERT(payload.size() <= kMaxRecordBytes);
  put_varint(out, payload.size());
  out.append(payload);
}

void Decoder::feed(std::string_view bytes) {
  buf_.append(bytes.data(), bytes.size());
}

Decoder::Status Decoder::fail(const std::string& msg) {
  if (err_.empty()) err_ = msg;
  return Status::kError;
}

Decoder::Status Decoder::next(Record* out) {
  if (!err_.empty()) return Status::kError;
  std::size_t pos = off_;
  std::uint64_t len = 0;
  const int rc = get_varint(buf_, &pos, &len);
  if (rc == 0) return Status::kNeedMore;
  if (rc < 0) return fail("bad record length prefix");
  if (len > kMaxRecordBytes) return fail("record too large");
  if (buf_.size() - pos < len) return Status::kNeedMore;
  std::string err;
  if (!decode_payload(
          std::string_view(buf_).substr(pos, static_cast<std::size_t>(len)),
          out, &err))
    return fail(err);
  off_ = pos + static_cast<std::size_t>(len);
  // Reclaim consumed bytes once they dominate the buffer.
  if (off_ > 4096 && off_ > buf_.size() / 2) {
    buf_.erase(0, off_);
    off_ = 0;
  }
  return Status::kRecord;
}

}  // namespace wire

void write_trace_binary(std::ostream& os, const Computation& c) {
  const std::string bytes = trace_to_binary_string(c);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string trace_to_binary_string(const Computation& c) {
  std::string out(wire::kBinaryMagic);
  const auto emit = [&out](const wire::Record& r) {
    wire::encode_record(out, r);
  };
  wire::Record r;
  r.kind = wire::Record::Kind::kProcs;
  r.nprocs = c.num_procs();
  emit(r);
  for (VarId v = 0; v < c.num_vars(); ++v) {
    wire::Record vr;
    vr.kind = wire::Record::Kind::kVar;
    vr.name = c.var_name(v);
    emit(vr);
  }
  for (ProcId i = 0; i < c.num_procs(); ++i)
    for (VarId v = 0; v < c.num_vars(); ++v) {
      const std::int64_t init = c.value_at(i, v, 0);
      if (init == 0) continue;
      wire::Record ir;
      ir.kind = wire::Record::Kind::kInit;
      ir.proc = i;
      ir.var = static_cast<std::uint32_t>(v);
      ir.value = init;
      emit(ir);
    }
  for (const EventId& eid : c.linearization()) {
    const EventView ev = c.event_view(eid);
    wire::Record er;
    switch (ev.kind) {
      case EventKind::kInternal:
        er.kind = wire::Record::Kind::kInternal;
        break;
      case EventKind::kSend:
        er.kind = wire::Record::Kind::kSend;
        er.peer = ev.peer;
        er.msg = static_cast<std::uint64_t>(ev.msg);
        break;
      case EventKind::kReceive:
        er.kind = wire::Record::Kind::kRecv;
        er.msg = static_cast<std::uint64_t>(ev.msg);
        break;
    }
    er.proc = eid.proc;
    er.label = ev.label;
    for (std::size_t k = 0; k < ev.num_writes(); ++k) {
      const Assignment a = ev.write_at(k);
      er.writes.push_back(
          wire::WireWrite{static_cast<std::uint32_t>(a.var), a.value});
    }
    emit(er);
  }
  r = wire::Record{};
  r.kind = wire::Record::Kind::kEnd;
  emit(r);
  return out;
}

TraceParseResult trace_from_binary_string(std::string_view bytes) {
  TraceParseResult out;
  if (bytes.substr(0, wire::kBinaryMagic.size()) != wire::kBinaryMagic) {
    out.error = "missing 'hbct-btrace v1' magic";
    return out;
  }
  wire::Decoder dec;
  dec.feed(bytes.substr(wire::kBinaryMagic.size()));

  int recno = 0;
  auto fail = [&](const std::string& msg) {
    out.error = strfmt("record %d: %s", recno, msg.c_str());
  };

  wire::Record r;
  switch (dec.next(&r)) {
    case wire::Decoder::Status::kRecord:
      break;
    case wire::Decoder::Status::kNeedMore:
      fail("missing 'procs' record");
      return out;
    case wire::Decoder::Status::kError:
      fail(dec.error());
      return out;
  }
  if (r.kind != wire::Record::Kind::kProcs) {
    fail("first record must be 'procs'");
    return out;
  }
  if (r.nprocs <= 0 || r.nprocs > 1 << 20) {
    fail("bad process count");
    return out;
  }
  const std::int32_t n = r.nprocs;

  OnlineAppender b(n);
  std::vector<VarId> vars;  // registration index -> appended VarId
  std::unordered_map<std::uint64_t, MsgId> msg_map;  // wire id -> appended
  bool saw_end = false;
  // A rejected append becomes the parse error of the current record.
  const auto applied = [&](AppendError e) {
    if (e == AppendError::kNone) return true;
    fail(to_string(e));
    return false;
  };

  const auto apply_tail = [&](const wire::Record& er, ProcId pi) -> bool {
    for (const wire::WireWrite& w : er.writes) {
      if (w.var >= vars.size()) {
        fail("write references unknown variable");
        return false;
      }
      b.write(pi, vars[w.var], w.value);
    }
    if (!er.label.empty()) b.label(pi, er.label);
    return true;
  };

  while (!saw_end) {
    ++recno;
    const wire::Decoder::Status st = dec.next(&r);
    if (st == wire::Decoder::Status::kError) {
      fail(dec.error());
      return out;
    }
    if (st == wire::Decoder::Status::kNeedMore) {
      fail(dec.buffered() == 0 ? "missing 'end' record" : "truncated record");
      return out;
    }
    switch (r.kind) {
      case wire::Record::Kind::kProcs:
        fail("duplicate 'procs' record");
        return out;
      case wire::Record::Kind::kVar:
        vars.push_back(b.var(r.name));
        break;
      case wire::Record::Kind::kInit:
        if (r.var >= vars.size()) { fail("unknown variable"); return out; }
        if (!applied(b.try_set_initial(r.proc, vars[r.var], r.value)))
          return out;
        break;
      case wire::Record::Kind::kInternal:
        if (!applied(b.try_internal(r.proc)) || !apply_tail(r, r.proc))
          return out;
        break;
      case wire::Record::Kind::kSend: {
        if (msg_map.count(r.msg)) { fail("duplicate msg id"); return out; }
        MsgId m = kNoMsg;
        if (!applied(b.try_send(r.proc, r.peer, &m))) return out;
        msg_map[r.msg] = m;
        if (!apply_tail(r, r.proc)) return out;
        break;
      }
      case wire::Record::Kind::kRecv: {
        auto it = msg_map.find(r.msg);
        if (it == msg_map.end()) {
          fail("recv before matching send");
          return out;
        }
        if (!applied(b.try_receive(r.proc, it->second)) ||
            !apply_tail(r, r.proc))
          return out;
        break;
      }
      case wire::Record::Kind::kEnd:
        saw_end = true;
        break;
    }
  }
  if (dec.buffered() != 0 ||
      dec.next(&r) != wire::Decoder::Status::kNeedMore) {
    ++recno;
    fail("bytes after 'end' record");
    return out;
  }
  out.computation = std::move(b).build();
  out.ok = true;
  return out;
}

TraceParseResult read_trace_binary(std::istream& is) {
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string bytes = buf.str();
  return trace_from_binary_string(bytes);
}

}  // namespace hbct
