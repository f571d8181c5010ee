#include "obs/flight.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <map>
#include <type_traits>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/assert.h"

namespace hbct {

namespace {

/// Dump horizon: records older than this are dropped from snapshots.
constexpr std::uint64_t kWindowNs = 30ull * 1'000'000'000ull;

static_assert(std::is_trivially_copyable_v<FlightRecorder::Record>,
              "Record is memcpy'd through the slot's atomic words");

struct NameTable {
  std::mutex mu;
  std::vector<FlightRecorder::Name> entries;
  std::map<std::string, std::uint16_t, std::less<>> ids;
};

/// The process-wide intern table; never destroyed. Id 0 is the unnamed
/// sentinel so a zero-initialized (torn) record never aliases a real site.
NameTable& table() {
  static NameTable* t = new NameTable{{}, {{"?", "", ""}}, {}};
  return *t;
}

FlightRecorder::Record make_record(FlightRecorder::Kind kind,
                                   std::uint16_t name, std::uint64_t ts_ns,
                                   std::uint64_t dur_ns, std::int64_t a0,
                                   std::int64_t a1) {
  // Value-initialized: the padding bytes the ring copies are zero too.
  FlightRecorder::Record rec = FlightRecorder::Record();
  rec.ts_ns = ts_ns;
  rec.dur_ns = dur_ns;
  rec.a0 = a0;
  rec.a1 = a1;
  rec.tid = static_cast<std::uint32_t>(obs_detail::shard_index());
  rec.name = name;
  rec.kind = kind;
  rec.flags = FlightRecorder::Record::kArg0 | FlightRecorder::Record::kArg1;
  return rec;
}

}  // namespace

// ---- Shared machinery ---------------------------------------------------------

std::uint16_t FlightRecorder::intern(std::string_view name,
                                     std::string_view arg0,
                                     std::string_view arg1) {
  NameTable& t = table();
  std::lock_guard<std::mutex> lk(t.mu);
  const auto it = t.ids.find(name);
  if (it != t.ids.end()) return it->second;
  HBCT_ASSERT_MSG(t.entries.size() < 0xffff, "record name table exhausted");
  const auto id = static_cast<std::uint16_t>(t.entries.size());
  t.entries.push_back(
      {std::string(name), std::string(arg0), std::string(arg1)});
  t.ids.emplace(std::string(name), id);
  return id;
}

std::string FlightRecorder::name_of(std::uint16_t id) {
  NameTable& t = table();
  std::lock_guard<std::mutex> lk(t.mu);
  return id < t.entries.size() ? t.entries[id].name : std::string("?");
}

int FlightRecorder::arg_slot(std::uint16_t name, std::string_view key) {
  NameTable& t = table();
  std::lock_guard<std::mutex> lk(t.mu);
  HBCT_ASSERT(name < t.entries.size());
  Name& n = t.entries[name];
  for (std::string* label : {&n.arg0, &n.arg1}) {
    if (label->empty()) *label = key;
    if (*label == key) return label == &n.arg0 ? 0 : 1;
  }
  HBCT_ASSERT_MSG(false, "a record name carries at most two arg labels");
  return 1;
}

std::vector<FlightRecorder::Name> FlightRecorder::names() {
  NameTable& t = table();
  std::lock_guard<std::mutex> lk(t.mu);
  return t.entries;
}

std::uint64_t FlightRecorder::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void FlightRecorder::write_args(JsonWriter& w, const Record& r,
                                const Name& name) {
  const auto label = [](const std::string& l, const char* unlabeled) {
    return std::string_view(l.empty() ? unlabeled : l.c_str());
  };
  if ((r.flags & Record::kArg0) != 0) w.kv(label(name.arg0, "a0"), r.a0);
  if ((r.flags & Record::kArg1) != 0) w.kv(label(name.arg1, "a1"), r.a1);
}

std::string FlightRecorder::chrome_json(const std::vector<Record>& records,
                                        std::string_view process,
                                        std::uint64_t epoch_ns, bool span_ids,
                                        std::uint64_t trigger_ticket) {
  const std::vector<Name> table = names();
  // trace_event timestamps are microseconds; three decimals keep the ns.
  const auto us = [](std::uint64_t ns) {
    return static_cast<double>(ns) / 1000.0;
  };

  JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  w.begin_object()
      .kv("name", "process_name")
      .kv("ph", "M")
      .kv("pid", std::int64_t{1})
      .kv("tid", std::int64_t{0});
  w.key("args").begin_object().kv("name", process).end_object();
  w.end_object();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    const Name& name = r.name < table.size() ? table[r.name] : table[0];
    w.begin_object().kv("name", name.name).kv("cat", "hbct");
    if (r.kind == Kind::kSpan) {
      w.kv("ph", "X");
    } else {
      // Anomalies render as global-scope instants so they are visible
      // across the whole track height.
      w.kv("ph", "i").kv("s", r.kind == Kind::kAnomaly ? "g" : "t");
    }
    w.kv("pid", std::int64_t{1}).kv("tid", static_cast<std::int64_t>(r.tid));
    w.kv("ts", us(r.ts_ns >= epoch_ns ? r.ts_ns - epoch_ns : 0));
    if (r.kind == Kind::kSpan) w.kv("dur", us(r.dur_ns));
    w.key("args").begin_object();
    if (span_ids && r.kind == Kind::kSpan) {
      w.kv("id", static_cast<std::int64_t>(i));
      w.kv("parent", r.parent == Record::kNoParent
                         ? std::int64_t{-1}
                         : static_cast<std::int64_t>(r.parent));
    }
    write_args(w, r, name);
    if (r.kind == Kind::kAnomaly) w.kv("anomaly", std::int64_t{1});
    if (trigger_ticket != kNoTrigger && r.ticket == trigger_ticket)
      w.kv("trigger", std::int64_t{1});
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.kv("displayTimeUnit", "ns");
  w.end_object();
  return w.take();
}

// ---- The ring -----------------------------------------------------------------

FlightRecorder::FlightRecorder() : FlightRecorder(Config{}) {}

FlightRecorder::FlightRecorder(Config cfg) : cfg_(cfg) {
  std::size_t cap = std::bit_ceil(std::max<std::size_t>(cfg_.ring_capacity, 8));
  cfg_.ring_capacity = cap;
  mask_ = cap - 1;
  min_dump_gap_ns_.store(cfg_.min_dump_gap_ns, std::memory_order_relaxed);
  for (Shard& sh : shards_) sh.slots = std::make_unique<Slot[]>(cap);
}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* rec = new FlightRecorder();  // never destroyed
  return *rec;
}

void FlightRecorder::write(Record& rec) {
  Shard& sh = shards_[rec.tid % kShards];
  const std::uint64_t ticket =
      sh.tickets.fetch_add(1, std::memory_order_relaxed);
  Slot& s = sh.slots[ticket & mask_];
  rec.ticket = ticket;
  std::uint64_t packed[kRecordWords] = {};
  std::memcpy(packed, &rec, sizeof(rec));
  // Per-slot seqlock: odd while writing, 2*(ticket+1) once published. The
  // payload words are relaxed atomics so a concurrent snapshot() is
  // race-free; the seq re-check discards whatever it read mid-write.
  s.seq.store(2 * ticket + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  for (std::size_t w = 0; w < kRecordWords; ++w)
    s.words[w].store(packed[w], std::memory_order_relaxed);
  s.seq.store(2 * (ticket + 1), std::memory_order_release);
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

void FlightRecorder::span(std::uint16_t name, std::uint64_t start_ns,
                          std::uint64_t end_ns, std::int64_t a0,
                          std::int64_t a1) {
  if (!enabled()) return;
  Record rec = make_record(Kind::kSpan, name, start_ns,
                           end_ns >= start_ns ? end_ns - start_ns : 0, a0, a1);
  write(rec);
}

void FlightRecorder::instant(std::uint16_t name, std::int64_t a0,
                             std::int64_t a1) {
  if (!enabled()) return;
  Record rec = make_record(Kind::kInstant, name, now_ns(), 0, a0, a1);
  write(rec);
}

std::uint64_t FlightRecorder::anomaly(std::uint16_t name, std::int64_t a0,
                                      std::int64_t a1, Tracer* capture) {
  Record rec = make_record(Kind::kAnomaly, name, now_ns(), 0, a0, a1);
  if (capture != nullptr) capture->add(rec);
  if (!enabled()) return kNoTrigger;
  write(rec);
  anomalies_.fetch_add(1, std::memory_order_relaxed);

  DumpSink sink;
  {
    std::lock_guard<std::mutex> lk(sink_mu_);
    if (sink_) {
      const std::uint64_t gap = min_dump_gap();
      const std::uint64_t now = now_ns();
      const std::uint64_t last = last_dump_ns_.load(std::memory_order_relaxed);
      if (gap == 0 || last == 0 || now - last >= gap) {
        last_dump_ns_.store(now, std::memory_order_relaxed);
        sink = sink_;
      }
    }
  }
  if (sink) {
    dumps_.fetch_add(1, std::memory_order_relaxed);
    sink(dump_chrome(rec.ticket), name_of(name));
  }
  return rec.ticket;
}

void FlightRecorder::set_dump_sink(DumpSink sink) {
  std::lock_guard<std::mutex> lk(sink_mu_);
  sink_ = std::move(sink);
}

FlightRecorder::Stats FlightRecorder::stats() const {
  Stats s;
  s.recorded = recorded_.load(std::memory_order_relaxed);
  s.anomalies = anomalies_.load(std::memory_order_relaxed);
  s.dumps = dumps_.load(std::memory_order_relaxed);
  return s;
}

std::vector<FlightRecorder::Record> FlightRecorder::snapshot() const {
  const std::uint64_t now = now_ns();
  const std::uint64_t horizon =
      now > kWindowNs ? now - kWindowNs : 0;
  std::vector<Record> out;
  for (const Shard& sh : shards_) {
    for (std::size_t i = 0; i <= mask_; ++i) {
      const Slot& s = sh.slots[i];
      const std::uint64_t before = s.seq.load(std::memory_order_acquire);
      if (before == 0 || (before & 1) != 0) continue;  // empty or mid-write
      std::uint64_t packed[kRecordWords];
      for (std::size_t w = 0; w < kRecordWords; ++w)
        packed[w] = s.words[w].load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.seq.load(std::memory_order_relaxed) != before) continue;  // torn
      Record r;
      std::memcpy(&r, packed, sizeof(r));
      // A span's *end* must fall inside the window; its start may precede
      // the horizon (long spans survive the cutoff).
      if (r.ts_ns + r.dur_ns < horizon) continue;
      out.push_back(r);
    }
  }
  std::sort(out.begin(), out.end(), [](const Record& a, const Record& b) {
    return a.ts_ns != b.ts_ns ? a.ts_ns < b.ts_ns : a.ticket < b.ticket;
  });
  return out;
}

std::string FlightRecorder::dump_chrome(std::uint64_t trigger_ticket) const {
  return chrome_json(snapshot(), "hbct-flight", 0, false, trigger_ticket);
}

// ---- FlightScope --------------------------------------------------------------

FlightScope::FlightScope(FlightRecorder& rec, std::uint16_t name,
                         Tracer* capture)
    : rec_(rec),
      capture_(capture),
      t0_(FlightRecorder::now_ns()),
      name_(name) {
  if (capture_ != nullptr) id_ = capture_->begin_at(name_, t0_);
}

std::uint64_t FlightScope::close() {
  if (!open_) return 0;
  open_ = false;
  const std::uint64_t t1 = FlightRecorder::now_ns();
  rec_.span(name_, t0_, t1, a0_, a1_);
  if (capture_ != nullptr) {
    capture_->set_args(id_, a0_, a1_);
    capture_->end_at(id_, t1);
  }
  return t1 >= t0_ ? t1 - t0_ : 0;
}

}  // namespace hbct
