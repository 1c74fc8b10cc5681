#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared pieces of the benchmark binary: run arguments, the result line,
// clocks and process counters, the seeded input streams, and the span
// recorder of the traced run.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "reference.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// The result line: `attempted` counts windows, `failed` those whose answer
// check failed (or that were not delivered as one result).
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Fail(const std::string& why);
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// Reports a setup failure and exits with code 1 (no result line).
[[noreturn]] void Fatal(const std::string& what);

RunResult RunPprimeTumbling(const RunArgs& args);
RunResult RunReachSliding(const RunArgs& args);
RunResult RunSessionsTcp(const RunArgs& args);

// --- clocks and process counters -------------------------------------

using Clock = std::chrono::steady_clock;

// Taken during static initialisation, before main: setup_s is measured
// from here.
extern const Clock::time_point kProcessStart;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// User + system CPU seconds of the whole process (every thread).
double ProcessCpuSeconds();
// Peak resident set of the process so far, in MB.
double PeakRssMb();

// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

// The six end-to-end metrics every workload reports.
//
// The timed phase is cut into groups of `group_windows` consecutive
// windows, about a second of work each and at least 100 windows. Throughput, both latency
// quantiles and CPU per triple are computed per group, and each is
// reported as its value in the run's best quarter of groups: the lower
// quartile of the per-group values (throughput: the upper quartile).
// On a shared host, other tenants take the CPU away in stretches of
// several seconds (on a 4-core VM: steal time of 5-8% for 15 s, then
// under 1%), which slows every group they overlap; the best quarter is what the program
// does when the host leaves it alone, so a run stays comparable unless
// more than three quarters of it were disturbed. A change to the program
// moves every group, the best quarter too. The run totals stay available
// for the traced run's ratios.
inline constexpr double kBestShare = 0.25;

class EndToEnd {
 public:
  explicit EndToEnd(size_t group_windows = 1)
      : group_windows_(group_windows) {}

  // One chunk of the timed phase: the triples it pushed, its wall time
  // from first push to last delivery, the process CPU over the same
  // interval, and one latency sample per window.
  void AddChunk(uint64_t triples, double wall_s, double cpu_s,
                const std::vector<double>& latency_ms);

  const std::vector<double>& latency_ms() const { return latency_ms_; }
  double throughput() const { return wall_s_ > 0 ? triples_ / wall_s_ : 0; }

  double setup_s = 0;
  void Report(RunResult* result) const;

 private:
  struct Group {
    uint64_t triples = 0;
    double wall_s = 0;
    double cpu_s = 0;
    std::vector<double> latency_ms;
  };

  size_t group_windows_;
  uint64_t triples_ = 0;
  double wall_s_ = 0;
  std::vector<double> latency_ms_;
  Group open_;
  std::vector<Group> groups_;
};

// --- seeded inputs ------------------------------------------------------

// splitmix64: small, fast and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  int64_t Below(uint64_t n) { return static_cast<int64_t>(Next() % n); }

 private:
  uint64_t state_;
};

// The event-rich traffic stream: subjects (locations and cars) uniform in
// [0, subjects), numeric objects uniform in [0, values), car_in_smoke's
// object high or low with equal odds. Predicate weights are 3 for each of
// the five others and 5 for car_number, which puts car_number at 25% of
// the stream — the duplicated share the paper quotes for P'.
class TrafficStream {
 public:
  TrafficStream(uint64_t seed, int64_t subjects, int64_t values)
      : rng_(seed), subjects_(subjects), values_(values) {}
  std::vector<TrafficItem> Next(size_t count);

 private:
  Rng rng_;
  int64_t subjects_;
  int64_t values_;
};

// link(X, Y) with weight 4 and high(X) with weight 1, every node uniform
// in [0, nodes).
class ReachStream {
 public:
  ReachStream(uint64_t seed, int64_t nodes) : rng_(seed), nodes_(nodes) {}
  std::vector<ReachItem> Next(size_t count);

 private:
  Rng rng_;
  int64_t nodes_;
};

// --- traced run -------------------------------------------------------

// Calls per design-time layer in a traced run (each call is one sample).
inline constexpr uint64_t kSetupCalls = 25;

// One span per traced call: name, start, end, parent span and the window
// it served. Spans are kept in memory; Dump writes them as JSON lines at
// the end of the run. Thread-safe (partitions are reasoned in parallel).
class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    int32_t partition = -1;
    uint64_t window = 0;
  };

  int32_t Begin(const char* name, uint64_t window, int32_t parent = -1,
                int32_t partition = -1);
  void End(int32_t span);
  // A parentless span with explicit times (measured on another thread).
  void Record(const char* name, uint64_t window, Clock::time_point start,
              Clock::time_point end);
  std::vector<Span> spans() const;
  // Writes one JSON object per line; returns false when the file could
  // not be written.
  bool Dump(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// Per-window self time of every span name: a span's duration minus the
// part its children cover, summed over the window's spans of that name.
// For spans of one partition (partition >= 0) only the window's critical
// partition counts: the one whose span named `partition_root` is longest,
// since the window waits for it.
struct LayerTimes {
  // name -> one value per window (windows where the name never ran are
  // absent from its list)
  std::vector<std::pair<std::string, std::vector<double>>> per_name;
  const std::vector<double>* Find(const std::string& name) const;
  double MedianOf(const std::string& name) const;
};
LayerTimes SelfTimesPerWindow(const std::vector<SpanRecorder::Span>& spans,
                              const char* partition_root);

// Per-layer metric values by name. ReportLayerMetrics adds every per-layer
// metric of BENCHMARK.json in its order and unit; a layer that does not run
// on the workload reports 0.
using LayerValues = std::map<std::string, double>;
void ReportLayerMetrics(const LayerValues& values, RunResult* result);

// Where a traced run dumps its spans, relative to the repository root:
// perfbench/out/spans-<workload>[-<part>]-seed<n>.jsonl.
std::string SpanDumpPath(const RunArgs& args, const std::string& part = "");

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
