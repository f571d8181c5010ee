#include "poset/trace_io.h"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>

#include "poset/wire_apply.h"
#include "util/assert.h"
#include "util/string_util.h"

namespace hbct {

namespace {

using Kind = wire::Record::Kind;

// Labels and names may hold any byte; the bytes the text grammar reserves
// (token separators, '#' for comments, '=' in annotations, the escape '%')
// are written as %XX and decoded on read. A variable named "label" escapes
// its first byte, so its writes do not read back as labels.
constexpr std::string_view kReserved = " \t\n\r\v\f#=%";

/// `os << Escaped{s}` writes s with its reserved bytes as %XX.
struct Escaped {
  std::string_view s;
  bool is_name = false;
};
Escaped name(std::string_view s) { return {s, true}; }

std::ostream& operator<<(std::ostream& os, Escaped e) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  if (e.is_name && e.s == "label") return os << "%6Cabel";
  for (const char ch : e.s) {
    if (kReserved.find(ch) == std::string_view::npos)
      os.put(ch);
    else
      os << '%' << kHex[(ch >> 4) & 15] << kHex[ch & 15];
  }
  return os;
}

/// Decodes %XX escapes; false on a '%' not followed by two hex digits.
bool unescape(std::string_view tok, std::string* out) {
  out->clear();
  for (std::size_t k = 0; k < tok.size(); ++k) {
    auto byte = static_cast<unsigned char>(tok[k]);
    if (byte == '%') {
      const char* hex = tok.data() + k + 1;
      if (tok.size() - k < 3 ||
          std::from_chars(hex, hex + 2, byte, 16).ptr != hex + 2)
        return false;
      k += 2;
    }
    out->push_back(static_cast<char>(byte));
  }
  return true;
}

/// The one walk both writers share: kProcs, a kVar per variable, a kInit
/// per non-zero initial value, an event record per event in linearization
/// order, kEnd. Records carry the computation's own VarIds and MsgIds.
template <class Emit>
void for_each_record(const Computation& c, Emit&& emit) {
  wire::Record r;
  r.kind = Kind::kProcs;
  r.nprocs = c.num_procs();
  emit(r);
  r.kind = Kind::kVar;
  for (VarId v = 0; v < c.num_vars(); ++v) {
    r.name = c.var_name(v);
    emit(r);
  }
  r.kind = Kind::kInit;
  for (ProcId i = 0; i < c.num_procs(); ++i)
    for (VarId v = 0; v < c.num_vars(); ++v) {
      r.value = c.value_at(i, v, 0);
      if (r.value == 0) continue;
      r.proc = i;
      r.var = static_cast<std::uint32_t>(v);
      emit(r);
    }
  for (const EventId& eid : c.linearization()) {
    const EventView ev = c.event_view(eid);
    r.kind = ev.kind == EventKind::kSend      ? Kind::kSend
             : ev.kind == EventKind::kReceive ? Kind::kRecv
                                              : Kind::kInternal;
    r.peer = ev.peer;
    r.proc = eid.proc;
    r.msg = static_cast<std::uint64_t>(ev.msg);
    r.label = ev.label;
    r.writes.clear();
    for (std::size_t k = 0; k < ev.num_writes(); ++k) {
      const Assignment a = ev.write_at(k);
      r.writes.push_back(
          wire::WireWrite{static_cast<std::uint32_t>(a.var), a.value});
    }
    emit(r);
  }
  r.kind = Kind::kEnd;
  emit(r);
}

/// One record as one line of the text grammar (trace_io.h).
void write_line(std::ostream& os, const Computation& c, const wire::Record& r) {
  switch (r.kind) {
    case Kind::kProcs:
      os << "procs " << r.nprocs << "\n";
      return;
    case Kind::kVar:
      os << "var " << name(r.name) << "\n";
      return;
    case Kind::kInit:
      os << "init " << r.proc << " " << name(c.var_name(r.var)) << " "
         << r.value << "\n";
      return;
    case Kind::kInternal:
      os << "ev " << r.proc << " internal";
      break;
    case Kind::kSend:
      os << "ev " << r.proc << " send " << r.peer << " " << r.msg;
      break;
    case Kind::kRecv:
      os << "ev " << r.proc << " recv " << r.msg;
      break;
    case Kind::kEnd:
      os << "end\n";
      return;
  }
  if (!r.label.empty()) os << " label=" << Escaped{r.label};
  for (const wire::WireWrite& w : r.writes)
    os << " " << name(c.var_name(w.var)) << "=" << w.value;
  os << "\n";
}

}  // namespace

void write_trace(std::ostream& os, const Computation& c) {
  os << "hbct-trace v1\n";
  for_each_record(c, [&](const wire::Record& r) { write_line(os, c, r); });
}

std::string trace_to_string(const Computation& c) {
  std::ostringstream os;
  write_trace(os, c);
  return os.str();
}

TraceParseResult read_trace(std::istream& is) {
  TraceParseResult out;
  int lineno = 0;
  std::string line;
  std::vector<std::string> toks;
  const auto next_tokens = [&]() -> bool {
    while (std::getline(is, line)) {
      ++lineno;
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
  const auto fail = [&](const std::string& msg) {
    out.error = strfmt("line %d: %s", lineno, msg.c_str());
    return std::move(out);
  };

  if (!next_tokens() || toks.size() != 2 || toks[0] != "hbct-trace" ||
      toks[1] != "v1") {
    out.error = "missing 'hbct-trace v1' header";
    return out;
  }
  if (!next_tokens() || toks.size() != 2 || toks[0] != "procs")
    return fail("expected 'procs <n>'");
  long long n = 0;
  if (!parse_int(toks[1], n) || n <= 0 || n > 1 << 20)
    return fail("bad process count");

  OnlineAppender b(static_cast<std::int32_t>(n));
  wire::Applier app;
  // The text names variables; a name no earlier line registered becomes a
  // kVar record where it first appears. Each kVar this reader applies is a
  // new name, so a name's wire index is its VarId.
  const auto var_index = [&](const std::string& name) {
    if (const auto v = b.computation().var_id(name))
      return static_cast<std::uint32_t>(*v);
    wire::Record vr;
    vr.kind = Kind::kVar;
    vr.name = name;
    app.apply(b, vr, [] {});
    return static_cast<std::uint32_t>(b.computation().num_vars() - 1);
  };

  wire::Record r;
  std::string name;
  while (next_tokens()) {
    const std::string& kw = toks[0];
    if (kw == "end") {
      out.computation = std::move(b).build();
      out.ok = true;
      return out;
    }
    if (kw == "var") {
      if (toks.size() != 2 || !unescape(toks[1], &name))
        return fail("expected 'var <name>'");
      var_index(name);
      continue;
    }
    r.writes.clear();
    r.label.clear();
    if (kw == "init") {
      long long proc = 0, value = 0;
      if (toks.size() != 4 || !parse_int(toks[1], proc) ||
          !parse_int(toks[3], value) || proc < 0 || proc >= n ||
          !unescape(toks[2], &name))
        return fail("expected 'init <proc> <var> <value>'");
      r.kind = Kind::kInit;
      r.proc = static_cast<ProcId>(proc);
      r.var = var_index(name);
      r.value = value;
    } else if (kw == "ev") {
      long long proc = 0, to = 0, mid = 0;
      if (toks.size() < 3 || !parse_int(toks[1], proc) || proc < 0 || proc >= n)
        return fail("expected 'ev <proc> <kind> ...'");
      r.proc = static_cast<ProcId>(proc);
      const std::string& kind = toks[2];
      std::size_t first_ann = 3;
      if (kind == "internal") {
        r.kind = Kind::kInternal;
      } else if (kind == "send") {
        if (toks.size() < 5 || !parse_int(toks[3], to) ||
            !parse_int(toks[4], mid) || to < 0 || to >= n)
          return fail("expected 'ev <proc> send <to> <msg-id>'");
        r.kind = Kind::kSend;
        r.peer = static_cast<ProcId>(to);
        r.msg = static_cast<std::uint64_t>(mid);
        first_ann = 5;
      } else if (kind == "recv") {
        if (toks.size() < 4 || !parse_int(toks[3], mid))
          return fail("expected 'ev <proc> recv <msg-id>'");
        r.kind = Kind::kRecv;
        r.msg = static_cast<std::uint64_t>(mid);
        first_ann = 4;
      } else {
        return fail("unknown event kind '" + kind + "'");
      }
      // Trailing "label=<text>" / "<name>=<value>" annotations.
      for (std::size_t t = first_ann; t < toks.size(); ++t) {
        const std::string_view tok = toks[t];
        const auto eq = tok.find('=');
        if (eq == std::string_view::npos || eq == 0)
          return fail("expected key=value annotation, got '" + toks[t] + "'");
        const std::string_view key = tok.substr(0, eq);
        const bool is_label = key == "label";
        long long value = 0;
        if (!is_label && !parse_int(tok.substr(eq + 1), value))
          return fail("bad integer in assignment '" + toks[t] + "'");
        if (!unescape(is_label ? tok.substr(eq + 1) : key, &name))
          return fail("bad escape in '" + toks[t] + "'");
        if (is_label)
          r.label = name;
        else
          r.writes.push_back(wire::WireWrite{var_index(name), value});
      }
    } else {
      return fail("unknown record '" + kw + "'");
    }
    if (!app.apply(b, r, [] {})) return fail(app.error());
  }
  out.error = "missing 'end' record";
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
  for_each_record(c, [&out](const wire::Record& r) {
    wire::encode_record(out, r);
  });
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
  const auto fail = [&](const std::string& msg) {
    out.error = strfmt("record %d: %s", recno, msg.c_str());
    return std::move(out);
  };

  wire::Record r;
  const wire::Decoder::Status first = dec.next(&r);
  if (first == wire::Decoder::Status::kError) return fail(dec.error());
  if (first == wire::Decoder::Status::kNeedMore)
    return fail("missing 'procs' record");
  if (r.kind != Kind::kProcs) return fail("first record must be 'procs'");
  if (r.nprocs <= 0 || r.nprocs > 1 << 20) return fail("bad process count");

  OnlineAppender b(r.nprocs);
  wire::Applier app;
  for (;;) {
    ++recno;
    const wire::Decoder::Status st = dec.next(&r);
    if (st == wire::Decoder::Status::kError) return fail(dec.error());
    if (st == wire::Decoder::Status::kNeedMore)
      return fail(dec.buffered() == 0 ? "missing 'end' record"
                                      : "truncated record");
    if (r.kind == Kind::kEnd) break;
    if (r.kind == Kind::kProcs) return fail("duplicate 'procs' record");
    if (!app.apply(b, r, [] {})) return fail(app.error());
  }
  if (dec.buffered() != 0 ||
      dec.next(&r) != wire::Decoder::Status::kNeedMore) {
    ++recno;
    return fail("bytes after 'end' record");
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
