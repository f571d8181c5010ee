// Text trace format for computations.
//
// Traces serialize the canonical linearization; reading a trace rebuilds the
// identical computation (vector clocks are recomputed, not stored). Format,
// one record per line, '#' starts a comment:
//
//   hbct-trace v1
//   procs <n>
//   var <name>                      # order defines VarId
//   init <proc> <var-name> <value>
//   ev <proc> internal [label=<text>] [<var-name>=<value> ...]
//   ev <proc> send <to-proc> <msg-id> [label=...] [writes...]
//   ev <proc> recv <msg-id> [label=...] [writes...]
//   end
//
// A name first seen in an init or a write is registered there. Labels and
// names spell the bytes the grammar reserves (whitespace, '#', '=', the
// escape '%') as %XX.
//
// A compact binary form ("hbct-btrace v1") carries the same records: the
// magic line followed by length-prefixed records with varint-encoded
// payloads (grammar below, namespace wire). Both writers emit the records
// of one walk of the computation. The record codec doubles as the serve
// layer's wire format — a session stream is the same records without the
// magic or the kProcs / kEnd framing requirements of a trace file. Both
// readers apply records through the session's wire::Applier
// (poset/wire_apply.h): a fault reads the same on every path after the
// position prefix ("line N: " / "record N: "), and a message id may be
// reused once its message is delivered.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "poset/computation.h"

namespace hbct {

/// Serializes `c` in hbct-trace v1 format.
void write_trace(std::ostream& os, const Computation& c);
std::string trace_to_string(const Computation& c);

/// Result of parsing a trace.
struct TraceParseResult {
  bool ok = false;
  std::string error;       // first error, with line number
  Computation computation; // valid only when ok
};

/// Parses an hbct-trace v1 stream. Never throws; malformed input is
/// reported in `error`.
TraceParseResult read_trace(std::istream& is);
TraceParseResult trace_from_string(const std::string& text);

// ---- Binary form ("hbct-btrace v1") -----------------------------------------

/// Serializes `c` as magic + records (kProcs, kVar*, kInit*, events in
/// linearization order, kEnd).
void write_trace_binary(std::ostream& os, const Computation& c);
std::string trace_to_binary_string(const Computation& c);

/// Parses a binary trace. Never throws; any malformed input — truncated
/// length prefix, oversized varint, out-of-range field, duplicate in-flight
/// message id, recv before send — is reported in `error`.
TraceParseResult read_trace_binary(std::istream& is);
TraceParseResult trace_from_binary_string(std::string_view bytes);

namespace wire {

/// First line of a binary trace file. Session wire streams omit it.
inline constexpr std::string_view kBinaryMagic = "hbct-btrace v1\n";

/// Hard caps keeping a malicious stream from ballooning one record.
inline constexpr std::size_t kMaxRecordBytes = std::size_t{1} << 20;
inline constexpr std::size_t kMaxNameBytes = 4096;

/// LEB128: 7 value bits per byte, high bit = continuation, <= 10 bytes.
void put_varint(std::string& out, std::uint64_t v);
/// Zigzag-mapped varint for signed payload values.
void put_zigzag(std::string& out, std::int64_t v);

/// One variable assignment carried by an event record. Variables are
/// referenced by registration index (the order of kVar records).
struct WireWrite {
  std::uint32_t var = 0;
  std::int64_t value = 0;

  friend bool operator==(const WireWrite&, const WireWrite&) = default;
};

/// One decoded record. Field usage by kind:
///   kProcs     nprocs
///   kVar       name
///   kInit      proc, var, value
///   kInternal  proc, writes, label
///   kSend      proc, peer, msg, writes, label
///   kRecv      proc, msg, writes, label
///   kEnd       (none)
struct Record {
  enum class Kind : std::uint8_t {
    kProcs = 1,
    kVar = 2,
    kInit = 3,
    kInternal = 4,
    kSend = 5,
    kRecv = 6,
    kEnd = 7,
  };

  Kind kind = Kind::kInternal;
  std::int32_t nprocs = 0;
  std::string name;
  std::int32_t proc = 0;
  std::uint32_t var = 0;
  std::int64_t value = 0;
  std::int32_t peer = 0;
  std::uint64_t msg = 0;
  std::vector<WireWrite> writes;
  std::string label;
};

/// Appends one record as varint(payload length) + payload.
void encode_record(std::string& out, const Record& r);

/// Incremental decoder over a length-prefixed record stream. feed() bytes
/// in arbitrary chunks; next() yields complete records. An error is sticky:
/// every later next() repeats it (a corrupted stream has no resync point).
class Decoder {
 public:
  enum class Status { kRecord, kNeedMore, kError };

  void feed(std::string_view bytes);
  Status next(Record* out);

  const std::string& error() const { return err_; }
  /// Bytes fed but not yet consumed by a completed record.
  std::size_t buffered() const { return buf_.size() - off_; }

 private:
  Status fail(const std::string& msg);

  std::string buf_;
  std::size_t off_ = 0;
  std::string err_;
};

}  // namespace wire

}  // namespace hbct
