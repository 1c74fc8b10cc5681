#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <map>

namespace perfbench {

const Clock::time_point kProcessStart = Clock::now();

void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void RunResult::Fail(const std::string& why) {
  ++failed;
  // Keep stderr readable when a fault fails every window.
  if (failed <= 5) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  }
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
         (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * (values.size() - 1);
  const size_t low = static_cast<size_t>(rank);
  const size_t high = std::min(low + 1, values.size() - 1);
  return values[low] + (rank - low) * (values[high] - values[low]);
}

void EndToEnd::AddChunk(uint64_t triples, double wall_s, double cpu_s,
                        const std::vector<double>& latency_ms) {
  triples_ += triples;
  wall_s_ += wall_s;
  latency_ms_.insert(latency_ms_.end(), latency_ms.begin(), latency_ms.end());
  open_.triples += triples;
  open_.wall_s += wall_s;
  open_.cpu_s += cpu_s;
  open_.latency_ms.insert(open_.latency_ms.end(), latency_ms.begin(),
                          latency_ms.end());
  if (open_.latency_ms.size() >= group_windows_) {
    groups_.push_back(std::move(open_));
    open_ = Group();
  }
}

void EndToEnd::Report(RunResult* result) const {
  // The unfinished last group counts only when no group was finished.
  std::vector<Group> groups = groups_;
  if (groups.empty()) groups.push_back(open_);
  std::vector<double> tps, p50, p90, cpu;
  for (const Group& group : groups) {
    tps.push_back(group.wall_s > 0 ? group.triples / group.wall_s : 0);
    p50.push_back(Quantile(group.latency_ms, 0.5));
    p90.push_back(Quantile(group.latency_ms, 0.9));
    cpu.push_back(group.triples > 0 ? group.cpu_s / (group.triples / 1e6)
                                    : 0);
  }
  result->Add("throughput_tps", Quantile(tps, 1 - kBestShare), "triples/s");
  result->Add("window_latency_p50_ms", Quantile(p50, kBestShare), "ms");
  result->Add("window_latency_p90_ms", Quantile(p90, kBestShare), "ms");
  result->Add("cpu_s_per_mtriple", Quantile(cpu, kBestShare), "s");
  result->Add("peak_rss_mb", PeakRssMb(), "MB");
  result->Add("setup_s", setup_s, "s");
  std::fprintf(stderr,
               "perfbench: best quarter of %zu groups of %zu windows; whole "
               "run: %.6g triples/s, latency p50 %.4g ms, p90 %.4g ms\n",
               groups.size(), group_windows_, throughput(),
               Quantile(latency_ms_, 0.5), Quantile(latency_ms_, 0.9));
}

std::vector<TrafficItem> TrafficStream::Next(size_t count) {
  // Draws 0-4 pick car_number (5 of 20), draws 5-19 the others, 3 each.
  static constexpr TrafficPredicate kOthers[] = {
      TrafficPredicate::kAverageSpeed, TrafficPredicate::kTrafficLight,
      TrafficPredicate::kCarInSmoke, TrafficPredicate::kCarSpeed,
      TrafficPredicate::kCarLocation};
  std::vector<TrafficItem> items(count);
  for (TrafficItem& item : items) {
    const int64_t draw = rng_.Below(20);
    item.predicate =
        draw < 5 ? TrafficPredicate::kCarNumber : kOthers[(draw - 5) / 3];
    item.subject = rng_.Below(subjects_);
    if (item.predicate == TrafficPredicate::kCarInSmoke) {
      item.object = rng_.Below(2) == 0 ? kSmokeHigh : kSmokeLow;
    } else if (item.predicate != TrafficPredicate::kTrafficLight) {
      item.object = rng_.Below(values_);
    }
  }
  return items;
}

std::vector<ReachItem> ReachStream::Next(size_t count) {
  std::vector<ReachItem> items(count);
  for (ReachItem& item : items) {
    item.is_link = rng_.Below(5) < 4;
    item.subject = rng_.Below(nodes_);
    if (item.is_link) item.object = rng_.Below(nodes_);
  }
  return items;
}

namespace {
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
}  // namespace

int32_t SpanRecorder::Begin(const char* name, uint64_t window, int32_t parent,
                            int32_t partition) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.partition = partition;
  span.window = window;
  std::lock_guard<std::mutex> lock(mutex_);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanRecorder::End(int32_t span) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[span].end_ns = now;
}

void SpanRecorder::Record(const char* name, uint64_t window,
                          Clock::time_point start, Clock::time_point end) {
  Span span;
  span.name = name;
  span.window = window;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      start.time_since_epoch())
                      .count();
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    end.time_since_epoch())
                    .count();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<SpanRecorder::Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanRecorder::Dump(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"window\":%llu,"
                 "\"partition\":%d}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.window), s.partition);
  }
  return std::fclose(file) == 0;
}

const std::vector<double>* LayerTimes::Find(const std::string& name) const {
  for (const auto& [key, values] : per_name) {
    if (key == name) return &values;
  }
  return nullptr;
}

double LayerTimes::MedianOf(const std::string& name) const {
  const std::vector<double>* values = Find(name);
  return values == nullptr ? 0 : Quantile(*values, 0.5);
}

LayerTimes SelfTimesPerWindow(const std::vector<SpanRecorder::Span>& spans,
                              const char* partition_root) {
  std::vector<double> self_ms(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self_ms[i] = (spans[i].end_ns - spans[i].start_ns) / 1e6;
  }
  // A span's self time is its duration minus the union of its children's
  // intervals (children of one parent may run in parallel).
  std::map<int32_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const SpanRecorder::Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  for (auto& [parent, intervals] : children) {
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t reach = INT64_MIN;
    for (const auto& [start, end] : intervals) {
      const int64_t from = std::max(start, reach);
      if (end > from) covered += end - from;
      reach = std::max(reach, end);
    }
    self_ms[parent] -= covered / 1e6;
  }
  // The critical partition of each window.
  std::map<uint64_t, std::pair<int32_t, double>> critical;
  for (const SpanRecorder::Span& s : spans) {
    if (s.partition < 0 || std::string(s.name) != partition_root) continue;
    const double ms = (s.end_ns - s.start_ns) / 1e6;
    auto [it, inserted] = critical.emplace(s.window, std::make_pair(
                                                         s.partition, ms));
    if (!inserted && ms > it->second.second) it->second = {s.partition, ms};
  }
  std::map<std::string, std::map<uint64_t, double>> sums;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecorder::Span& s = spans[i];
    if (s.partition >= 0) {
      auto it = critical.find(s.window);
      if (it != critical.end() && it->second.first != s.partition) continue;
    }
    sums[s.name][s.window] += self_ms[i];
  }
  LayerTimes times;
  for (const auto& [name, by_window] : sums) {
    std::vector<double> values;
    values.reserve(by_window.size());
    for (const auto& [window, ms] : by_window) values.push_back(ms);
    times.per_name.emplace_back(name, std::move(values));
  }
  return times;
}

void ReportLayerMetrics(const LayerValues& values, RunResult* result) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"asp.parse_ms", "ms"},
      {"depgraph.decompose_ms", "ms"},
      {"depgraph.partitions", "count"},
      {"stream.window_ms", "ms"},
      {"stream.convert_ms", "ms"},
      {"stream.bytes_per_triple", "B/triple"},
      {"streamrule.partition_ms", "ms"},
      {"streamrule.duplication_share", "ratio"},
      {"streamrule.partition_skew", "ratio"},
      {"streamrule.combine_ms", "ms"},
      {"streamrule.unattributed_ms", "ms"},
      {"ground.cold_ms", "ms"},
      {"ground.incremental_ms", "ms"},
      {"ground.rules", "count"},
      {"ground.reused_share", "ratio"},
      {"ground.fallbacks", "per_1k_windows"},
      {"solve.cold_ms", "ms"},
      {"solve.incremental_ms", "ms"},
      {"solve.atoms_touched_ratio", "ratio"},
      {"server.wire_parse_us_per_triple", "us"},
      {"server.frame_codec_us", "us"},
      {"server.event_render_us", "us"},
      {"server.push_ack_ms", "ms"},
      {"server.transport_ms", "ms"},
      {"util.pool_dispatch_wait_ms", "ms"},
      {"trace.overhead", "ratio"},
  };
  size_t known = 0;
  for (const auto& [name, unit] : kLayers) {
    auto it = values.find(name);
    known += it != values.end() ? 1 : 0;
    result->Add(name, it != values.end() ? it->second : 0.0, unit);
  }
  if (known != values.size()) {
    std::fprintf(stderr, "perfbench: a layer value has no metric name\n");
    std::exit(1);
  }
}

std::string SpanDumpPath(const RunArgs& args, const std::string& part) {
  return "perfbench/out/spans-" + args.workload +
         (part.empty() ? "" : "-" + part) + "-seed" +
         std::to_string(args.seed) + ".jsonl";
}

}  // namespace perfbench
