#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// What the workloads share on the program's side: the input feeds (each
// NextBatch() generates the items that close exactly one window, converts
// them to the program's triples, and computes that window's expected shown
// atoms with the independent reference, outside any timed phase), answer
// rendering, and the traced replay of one session's reasoning.

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include "asp/symbol_table.h"
#include "bench.h"
#include "reference.h"
#include "stream/triple.h"
#include "streamrule/answer.h"

namespace perfbench {

// The answer's atoms rendered `name(args)` and sorted, to compare with the
// reference's rendering.
inline std::vector<std::string> Rendered(
    const streamasp::GroundAnswer& answer,
    const streamasp::SymbolTable& symbols) {
  std::vector<std::string> atoms;
  atoms.reserve(answer.size());
  for (const streamasp::Atom& atom : answer) {
    atoms.push_back(atom.ToString(symbols));
  }
  std::sort(atoms.begin(), atoms.end());
  return atoms;
}

// The traced reasoning of one sessions-tcp session, replayed outside the
// server: program P over the traffic feed of `feed_seed` in `window`-item
// tumbling windows, fed through the reasoning layers' entry points for
// `seconds` as in the engine workloads' traced runs. Returns their
// per-layer values (streamrule.unattributed_ms against `untraced`, the
// untraced TCP run) and dumps the spans to `dump_path`.
LayerValues TraceSessionReasoning(size_t window, int64_t subjects,
                                  uint64_t feed_seed, double seconds,
                                  const EndToEnd& untraced,
                                  const std::string& dump_path,
                                  RunResult* result);

// Indexed by TrafficPredicate.
inline constexpr const char* kTrafficPredicateNames[] = {
    "average_speed", "car_number", "traffic_light",
    "car_in_smoke",  "car_speed",  "car_location"};

// Tumbling windows of the traffic stream.
class TrafficFeed {
 public:
  TrafficFeed(uint64_t seed, streamasp::SymbolTable& symbols, size_t window,
              int64_t subjects, bool with_r7)
      : stream_(seed, subjects, /*values=*/100),
        window_(window),
        with_r7_(with_r7) {
    for (int i = 0; i < 6; ++i) {
      predicates_[i] = symbols.Intern(kTrafficPredicateNames[i]);
    }
    high_ = streamasp::PackedTerm::Symbol(symbols.Intern("high"));
    low_ = streamasp::PackedTerm::Symbol(symbols.Intern("low"));
  }

  std::vector<streamasp::Triple> NextBatch() {
    items_ = stream_.Next(window_);
    expected_ = TrafficShownAtoms(items_, with_r7_);
    std::vector<streamasp::Triple> triples(items_.size());
    for (size_t i = 0; i < items_.size(); ++i) {
      const TrafficItem& item = items_[i];
      streamasp::Triple& t = triples[i];
      t.subject = streamasp::PackedTerm::Integer(item.subject);
      t.predicate = predicates_[static_cast<int>(item.predicate)];
      if (item.predicate == TrafficPredicate::kCarInSmoke) {
        t.object = item.object == kSmokeHigh ? high_ : low_;
      } else if (item.predicate != TrafficPredicate::kTrafficLight) {
        t.object = streamasp::PackedTerm::Integer(item.object);
      }
    }
    return triples;
  }

  // The last batch's items as wire protocol triple lines.
  std::string Lines() const {
    std::string out;
    out.reserve(items_.size() * 24);
    for (const TrafficItem& item : items_) {
      out += '\n';
      out += kTrafficPredicateNames[static_cast<int>(item.predicate)];
      out += ' ';
      out += std::to_string(item.subject);
      if (item.predicate == TrafficPredicate::kCarInSmoke) {
        out += item.object == kSmokeHigh ? " high" : " low";
      } else if (item.predicate != TrafficPredicate::kTrafficLight) {
        out += ' ';
        out += std::to_string(item.object);
      }
    }
    return out;
  }

  const std::vector<std::string>& expected() const { return expected_; }

 private:
  TrafficStream stream_;
  size_t window_;
  bool with_r7_;
  streamasp::SymbolId predicates_[6] = {};
  streamasp::PackedTerm high_;
  streamasp::PackedTerm low_;
  std::vector<TrafficItem> items_;
  std::vector<std::string> expected_;
};

// Sliding windows of the reachability stream: the first batch fills the
// window, every later batch is one slide.
class ReachFeed {
 public:
  ReachFeed(uint64_t seed, streamasp::SymbolTable& symbols, size_t window,
            size_t slide, int64_t nodes)
      : stream_(seed, nodes), window_(window), slide_(slide) {
    link_ = symbols.Intern("link");
    high_ = symbols.Intern("high");
  }

  std::vector<streamasp::Triple> NextBatch() {
    const std::vector<ReachItem> batch =
        stream_.Next(contents_.empty() ? window_ : slide_);
    contents_.insert(contents_.end(), batch.begin(), batch.end());
    while (contents_.size() > window_) contents_.pop_front();
    expected_ = ReachAlarms({contents_.begin(), contents_.end()});
    std::vector<streamasp::Triple> triples(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      triples[i].subject = streamasp::PackedTerm::Integer(batch[i].subject);
      triples[i].predicate = batch[i].is_link ? link_ : high_;
      if (batch[i].is_link) {
        triples[i].object = streamasp::PackedTerm::Integer(batch[i].object);
      }
    }
    return triples;
  }

  const std::vector<std::string>& expected() const { return expected_; }

 private:
  ReachStream stream_;
  size_t window_;
  size_t slide_;
  streamasp::SymbolId link_ = streamasp::kInvalidSymbol;
  streamasp::SymbolId high_ = streamasp::kInvalidSymbol;
  std::deque<ReachItem> contents_;
  std::vector<std::string> expected_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
