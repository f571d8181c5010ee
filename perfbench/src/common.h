// Shared plumbing of the repo benchmark: clocks, sample statistics, RSS
// sampling, the result sheet every workload fills (end-to-end and per-layer
// metrics, reference-check failures, measured input properties), and the
// in-memory span log the traced run writes as a Chrome trace_event file.
#pragma once

#include <chrono>
#include <ctime>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double seconds_since(std::int64_t t0) { return (now_ns() - t0) * 1e-9; }

/// CPU time of the calling thread / of the whole process, in ns. The gated
/// workloads time their work in CPU time: on a shared VM the host steals
/// busy vCPUs for milliseconds at a time, which wall time counts and CPU
/// time does not (perfbench/README.md).
inline std::int64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
inline std::int64_t thread_cpu_ns() { return cpu_ns(CLOCK_THREAD_CPUTIME_ID); }
inline std::int64_t process_cpu_ns() {
  return cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
}

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
/// Number of threads the benchmark may use in total (nproc, at least 2).
int thread_budget();

/// Resident set size of this process right now, in MB (/proc/self/statm).
double rss_now_mb();

/// Peak of the RSS samples taken during a timed phase. The input
/// generators run before timing, so the process-lifetime high-water mark
/// would report their peak instead of the system's.
struct RssPeak {
  double peak_mb = 0;
  std::int64_t samples = 0;
  void sample();
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the traced run's Chrome trace file ("" = do not write).
  std::string trace_dir;
  /// Directory holding examples/queries/*.qry (offline-nested).
  std::string queries_dir = "examples/queries";
  /// Scratch directory for generated mtrace files (offline-corpus).
  std::string work_dir = ".bench_build/perfbench-work";
};

struct Metric {
  double value = 0;
  std::string unit;
  std::int64_t samples = 0;  // how many measurements the value summarizes
};

/// Everything one workload run reports.
struct Sheet {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log
  /// Set when the run cannot be reported at all (open-loop generator fell
  /// behind, backlog grew): the run prints the reason and no result.
  std::string invalid;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  /// Measured input properties (printed, and recorded in README/BENCHMARK).
  std::vector<std::pair<std::string, std::string>> props;

  /// One attempted operation; counts a failure (with `what`) unless ok.
  void check(bool ok, const std::string& what);
  void set_e2e(const std::string& name, double value, const char* unit,
               std::int64_t samples);
  void set_layer(const std::string& name, double value, std::int64_t samples);
  void prop(const std::string& key, const std::string& value);
};

/// The fixed per-layer metric table (name, unit); the traced run reports
/// every entry, 0 where the workload bypasses the layer.
struct LayerMetricDef {
  std::string name;
  std::string unit;
};
const std::vector<LayerMetricDef>& layer_metric_defs();
/// detect() routes with their own per-layer rows; anything else lands in
/// the "other" row.
const std::vector<std::string>& known_routes();
/// DetectResult::algorithm cut at its first character outside
/// [A-Za-z0-9_.-], mapped to "other" when not in known_routes().
std::string route_key(const std::string& algorithm);

/// Per-route accumulation of detect() calls (the detect.<route>.* rows).
struct RouteTally {
  std::int64_t calls = 0;
  double ms = 0;
  std::uint64_t evals = 0;
  std::uint64_t cut_steps = 0;
};
using RouteTallies = std::map<std::string, RouteTally>;
/// Writes detect.<route>.{calls,ms,evals,cut_steps} as per-pass averages.
void report_routes(Sheet& sheet, const RouteTallies& t, std::int64_t passes);

/// Spans recorded by the benchmark around its calls into the library, kept
/// in memory and written once at the end as Chrome trace_event JSON.
class SpanLog {
 public:
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  /// Records a finished span [t0, t1] (ns, steady clock).
  void add(const char* name, std::int64_t t0, std::int64_t t1,
           std::int64_t id = -1);
  bool write_chrome(const std::string& path) const;

  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::int64_t id = -1)
        : log_(log), name_(name), id_(id),
          t0_(log.enabled() ? now_ns() : 0) {}
    ~Scope() {
      if (log_.enabled()) log_.add(name_, t0_, now_ns(), id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    const char* name_;
    std::int64_t id_;
    std::int64_t t0_;
  };

 private:
  struct Span {
    const char* name;
    std::int64_t t0, t1, id;
    std::uint32_t tid;
  };
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::thread::id, std::uint32_t> tids_;
};

// ---- Workloads --------------------------------------------------------------

void run_serve_fleet(const Args& a, Sheet& sheet);
void run_serve_longrun(const Args& a, Sheet& sheet);
void run_offline_corpus(const Args& a, Sheet& sheet);
void run_offline_nested(const Args& a, Sheet& sheet);

}  // namespace perfbench
