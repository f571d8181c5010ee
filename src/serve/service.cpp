#include "serve/service.h"

#include <utility>

#include "obs/expose.h"
#include "obs/flight.h"
#include "util/assert.h"

namespace hbct {
namespace serve {

namespace {

std::int32_t default_shards() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<std::int32_t>(hw < 4 ? 4 : hw);
}

}  // namespace

StreamingService::StreamingService(ServiceOptions opt)
    : opt_(opt),
      pool_(opt.pool != nullptr ? opt.pool : &ThreadPool::shared()),
      shards_(static_cast<std::size_t>(default_shards())) {
  MetricsRegistry& reg =
      opt.metrics != nullptr ? *opt.metrics : MetricsRegistry::global();
  records_ = &reg.counter("serve.records");
  events_ = &reg.counter("serve.events");
  fires_ = &reg.counter("serve.fires");
  failures_ = &reg.counter("serve.session_failures");
  gc_rounds_ = &reg.counter("serve.gc.rounds");
  gc_reclaimed_ = &reg.counter("serve.gc.reclaimed_events");
  opened_ = &reg.counter("serve.sessions_opened");
  closed_ = &reg.counter("serve.sessions_closed");
  open_sessions_ = &reg.gauge("serve.open_sessions");
  resident_ = &reg.gauge("serve.resident_events");
  resident_peak_ = &reg.gauge("serve.resident_events.peak");
  watch_state_ = &reg.gauge("serve.watch_state.bytes");
  watch_state_peak_ = &reg.gauge("serve.watch_state.bytes.peak");
  until_inc_ = &reg.counter("serve.until.inc_evals");
  until_dec_ = &reg.counter("serve.until.dec_evals");
  ingest_ns_ = &reg.histogram("serve.ingest.ns");
  fire_ns_ = &reg.histogram("serve.fire_latency.ns");
  fire_inst_.latency = fire_ns_;
  fire_inst_.raw_sample = opt_.fire_sample;
  for (std::size_t k = 0; k < Session::kNumWatchKinds; ++k) {
    const char* cls = to_string(static_cast<WatchKind>(k));
    fire_inst_.class_fires[k] =
        &reg.counter(labeled("serve.fires", "class", cls));
    fire_inst_.class_latency[k] =
        &reg.histogram(labeled("serve.fire_latency.ns", "class", cls));
  }
}

StreamingService::~StreamingService() {
  // Pump tasks capture `this` (for metrics); make sure none outlive us.
  pool_->wait_idle();
}

StreamingService::Shard& StreamingService::shard_of(SessionId sid) const {
  return shards_[static_cast<std::size_t>(sid) % shards_.size()];
}

std::shared_ptr<StreamingService::Entry> StreamingService::find(
    SessionId sid) const {
  Shard& sh = shard_of(sid);
  std::lock_guard<std::mutex> lk(sh.mu);
  auto it = sh.sessions.find(sid);
  return it == sh.sessions.end() ? nullptr : it->second;
}

SessionId StreamingService::open(
    const SessionConfig& cfg,
    const std::function<void(OnlineMonitor&)>& setup) {
  HBCT_ASSERT_MSG(cfg.num_procs > 0, "session needs at least one process");
  const SessionId sid = next_id_.fetch_add(1, std::memory_order_relaxed);
  auto entry = std::make_shared<Entry>(sid, cfg);
  entry->session.set_fire_instruments(fire_inst_);
  if (setup) setup(entry->session.monitor());
  Shard& sh = shard_of(sid);
  {
    std::lock_guard<std::mutex> lk(sh.mu);
    sh.sessions.emplace(sid, std::move(entry));
  }
  opened_->add(1);
  open_sessions_->add(1);
  return sid;
}

bool StreamingService::post(SessionId sid, std::string bytes) {
  auto e = find(sid);
  if (e == nullptr) return false;
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lk(e->mu);
    e->inbox.push_back(std::move(bytes));
    if (!e->scheduled) {
      e->scheduled = true;
      schedule = true;
    }
  }
  if (schedule) pool_->submit([this, e] { pump(e); });
  return true;
}

bool StreamingService::post(SessionId sid, const wire::Record& r) {
  std::string bytes;
  wire::encode_record(bytes, r);
  return post(sid, std::move(bytes));
}

bool StreamingService::finish(SessionId sid) {
  wire::Record end;
  end.kind = wire::Record::Kind::kEnd;
  return post(sid, end);
}

void StreamingService::absorb(Entry& e, const SessionStats& before,
                              const SessionStats& after) {
  records_->add(static_cast<std::uint64_t>(after.records - before.records));
  events_->add(static_cast<std::uint64_t>(after.events - before.events));
  fires_->add(static_cast<std::uint64_t>(after.fires - before.fires));
  gc_rounds_->add(
      static_cast<std::uint64_t>(after.gc_rounds - before.gc_rounds));
  gc_reclaimed_->add(static_cast<std::uint64_t>(after.reclaimed_events -
                                                before.reclaimed_events));
  if (before.state != SessionState::kFailed &&
      after.state == SessionState::kFailed) {
    failures_->add(1);
  }
  resident_->add(after.resident_events - e.gauged_resident);
  e.gauged_resident = after.resident_events;
  resident_peak_->max_of(resident_->value());
  watch_state_->add(after.watch_state_bytes - e.gauged_watch_bytes);
  e.gauged_watch_bytes = after.watch_state_bytes;
  watch_state_peak_->max_of(watch_state_->value());
  until_inc_->add(
      static_cast<std::uint64_t>(after.until_inc_evals - before.until_inc_evals));
  until_dec_->add(
      static_cast<std::uint64_t>(after.until_dec_evals - before.until_dec_evals));
}

void StreamingService::pump(const std::shared_ptr<Entry>& e) {
  for (;;) {
    std::string chunk;
    {
      std::lock_guard<std::mutex> lk(e->mu);
      if (e->inbox.empty()) {
        e->scheduled = false;
        return;
      }
      chunk = std::move(e->inbox.front());
      e->inbox.pop_front();
    }
    // Apply outside the inbox-pop critical section conceptually, but under
    // the same mutex: only this pump touches the Session (the `scheduled`
    // flag guarantees a single pump per session), while post() may briefly
    // hold the mutex to enqueue the next chunk.
    std::lock_guard<std::mutex> lk(e->mu);
    static const std::uint16_t kIngest =
        FlightRecorder::intern("serve.ingest", "session", "records");
    FlightScope flight(FlightRecorder::global(), kIngest);
    const SessionStats before = e->session.stats();
    const std::size_t nrec = e->session.ingest(chunk);
    const SessionStats after = e->session.stats();
    flight.args(e->session.id(), static_cast<std::int64_t>(nrec));
    ingest_ns_->record(flight.close());
    absorb(*e, before, after);
  }
}

void StreamingService::drain() { pool_->wait_idle(); }

std::vector<WatchFire> StreamingService::poll(SessionId sid) {
  auto e = find(sid);
  if (e == nullptr) return {};
  std::lock_guard<std::mutex> lk(e->mu);
  return e->session.poll();
}

SessionStats StreamingService::stats(SessionId sid) const {
  auto e = find(sid);
  if (e == nullptr) return {};
  std::lock_guard<std::mutex> lk(e->mu);
  return e->session.stats();
}

SessionState StreamingService::state(SessionId sid) const {
  auto e = find(sid);
  if (e == nullptr) return SessionState::kFailed;
  std::lock_guard<std::mutex> lk(e->mu);
  return e->session.state();
}

std::string StreamingService::error(SessionId sid) const {
  auto e = find(sid);
  if (e == nullptr) return {};
  std::lock_guard<std::mutex> lk(e->mu);
  return e->session.error();
}

bool StreamingService::close(SessionId sid) {
  std::shared_ptr<Entry> e;
  {
    Shard& sh = shard_of(sid);
    std::lock_guard<std::mutex> lk(sh.mu);
    auto it = sh.sessions.find(sid);
    if (it == sh.sessions.end()) return false;
    e = std::move(it->second);
    sh.sessions.erase(it);
  }
  {
    std::lock_guard<std::mutex> lk(e->mu);
    resident_->add(-e->gauged_resident);
    e->gauged_resident = 0;
    watch_state_->add(-e->gauged_watch_bytes);
    e->gauged_watch_bytes = 0;
  }
  closed_->add(1);
  open_sessions_->add(-1);
  return true;
}

std::size_t StreamingService::num_sessions() const {
  std::size_t n = 0;
  for (const Shard& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh.mu);
    n += sh.sessions.size();
  }
  return n;
}

std::int64_t StreamingService::resident_events() const {
  std::int64_t n = 0;
  for (const Shard& sh : shards_) {
    std::vector<std::shared_ptr<Entry>> entries;
    {
      std::lock_guard<std::mutex> lk(sh.mu);
      entries.reserve(sh.sessions.size());
      for (const auto& [sid, e] : sh.sessions) entries.push_back(e);
    }
    for (const auto& e : entries) {
      std::lock_guard<std::mutex> lk(e->mu);
      n += e->session.stats().resident_events;
    }
  }
  return n;
}

}  // namespace serve
}  // namespace hbct
