#include "obs/trace.h"

#include "obs/metrics.h"
#include "util/assert.h"

namespace hbct {

namespace {

/// Per-thread stack of open spans. Frames carry the owning tracer so two
/// concurrently-active tracers on one thread can't adopt each other's
/// spans as parents.
struct OpenFrame {
  const Tracer* tracer;
  std::uint32_t span;
};
thread_local std::vector<OpenFrame> tl_open;

}  // namespace

Tracer::Tracer(std::uint64_t (*clock)())
    : clock_(clock),
      epoch_(clock_()),
      metrics_(std::make_unique<MetricsRegistry>()) {}

Tracer::~Tracer() = default;

std::uint32_t Tracer::begin(std::string_view name) {
  return begin_at(FlightRecorder::intern(name), clock_());
}

std::uint32_t Tracer::begin_at(std::uint16_t name, std::uint64_t ts_ns) {
  const Record r{.ts_ns = ts_ns,
                 .parent = current(),
                 .tid = static_cast<std::uint32_t>(obs_detail::shard_index()),
                 .name = name,
                 .kind = FlightRecorder::Kind::kSpan,
                 .flags = Record::kOpen};
  std::uint32_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(r);
    id = static_cast<std::uint32_t>(spans_.size() - 1);
  }
  tl_open.push_back(OpenFrame{this, id});
  return id;
}

void Tracer::end_at(std::uint32_t id, std::uint64_t ts_ns) {
  // RAII guarantees LIFO per thread; the innermost frame of this tracer is
  // the span being closed.
  for (auto it = tl_open.rbegin(); it != tl_open.rend(); ++it) {
    if (it->tracer == this) {
      HBCT_DASSERT(it->span == id);
      tl_open.erase(std::next(it).base());
      break;
    }
  }
  std::uint64_t dur;
  Histogram* hist;  // `span.<name>.ns`, resolved once per name id
  {
    std::lock_guard<std::mutex> lock(mu_);
    HBCT_ASSERT(id < spans_.size());
    Record& s = spans_[id];
    HBCT_DASSERT((s.flags & Record::kOpen) != 0);
    dur = ts_ns >= s.ts_ns ? ts_ns - s.ts_ns : 0;
    s.dur_ns = dur;
    s.flags &= static_cast<std::uint8_t>(~Record::kOpen);
    if (s.name >= span_ns_.size()) span_ns_.resize(s.name + 1u, nullptr);
    Histogram*& cached = span_ns_[s.name];
    if (cached == nullptr)
      cached = &metrics_->histogram("span." + FlightRecorder::name_of(s.name) +
                                    ".ns");
    hist = cached;
  }
  // The histogram write happens outside the span lock (the registry has
  // its own synchronization).
  hist->record(dur);
}

void Tracer::set_arg(std::uint32_t id, std::string_view key,
                     std::int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  HBCT_ASSERT(id < spans_.size());
  Record& s = spans_[id];
  if (FlightRecorder::arg_slot(s.name, key) == 0) {
    s.a0 = value;
    s.flags |= Record::kArg0;
  } else {
    s.a1 = value;
    s.flags |= Record::kArg1;
  }
}

void Tracer::set_args(std::uint32_t id, std::int64_t a0, std::int64_t a1) {
  std::lock_guard<std::mutex> lock(mu_);
  HBCT_ASSERT(id < spans_.size());
  Record& s = spans_[id];
  s.a0 = a0;
  s.a1 = a1;
  s.flags |= Record::kArg0 | Record::kArg1;
}

void Tracer::instant(std::string_view name) {
  add({.ts_ns = clock_(),
       .tid = static_cast<std::uint32_t>(obs_detail::shard_index()),
       .name = FlightRecorder::intern(name)});
}

void Tracer::add(const Record& r) {
  std::lock_guard<std::mutex> lock(mu_);
  instants_.push_back(r);
}

std::uint32_t Tracer::current() const {
  for (auto it = tl_open.rbegin(); it != tl_open.rend(); ++it)
    if (it->tracer == this) return it->span;
  return npos;
}

std::vector<Tracer::Record> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<Tracer::Record> Tracer::instants() const {
  std::lock_guard<std::mutex> lock(mu_);
  return instants_;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::string Tracer::chrome_trace_json() const {
  std::vector<Record> records;
  {
    std::lock_guard<std::mutex> lock(mu_);
    records = spans_;
    records.insert(records.end(), instants_.begin(), instants_.end());
  }
  return FlightRecorder::chrome_json(records, "hbct", epoch_, true,
                                     FlightRecorder::kNoTrigger);
}

}  // namespace hbct
