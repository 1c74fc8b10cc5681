// The two engine workloads, pprime-tumbling and reach-sliding.
//
// The untraced run drives only the public engine surface
// (StreamEngine::Create / PushBatch / stats) through the synchronous
// engine shape. The traced run feeds the same inputs through each layer's
// public entry points in the order the engine calls them — windower,
// partitioner, format conversion, grounder, solver, combiner — and records
// one span per call from this file; the program is not instrumented.

#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>

#include "asp/parser.h"
#include "depgraph/decomposition.h"
#include "depgraph/input_dependency_graph.h"
#include "ground/grounder.h"
#include "ground/incremental_grounder.h"
#include "solve/incremental_solver.h"
#include "solve/solver.h"
#include "stream/format.h"
#include "stream/query_processor.h"
#include "streamrule/combining_handler.h"
#include "streamrule/engine.h"
#include "streamrule/partitioning_handler.h"
#include "streamrule/traffic_workload.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace streamasp;

struct EngineSpec {
  std::string program_text;
  size_t window = 0;
  size_t slide = 0;  // == window for tumbling windows
  bool reuse = false;  // grounding + solving reuse (maintained fixpoint)
  size_t warmup_windows = 0;
  size_t chunk_windows = 0;  // windows generated, pushed, then checked
  // Windows per group of EndToEnd: about a second, and at least 100 so
  // that ten samples lie beyond each group's p90.
  size_t group_windows = 0;
};

Program ParseOrDie(const SymbolTablePtr& symbols, const std::string& text) {
  Parser parser(symbols);
  StatusOr<Program> program = parser.ParseProgram(text);
  if (!program.ok()) Fatal("program: " + program.status().ToString());
  return std::move(*program);
}

// Checks one delivered window against the reference: exactly one answer
// set, equal to the reference's shown atoms.
void CheckAnswers(const std::vector<GroundAnswer>& answers,
                  const std::vector<std::string>& expected,
                  const SymbolTable& symbols, uint64_t window,
                  RunResult* result) {
  if (answers.size() != 1) {
    result->Fail("window " + std::to_string(window) + ": " +
                 std::to_string(answers.size()) + " answer sets, want 1");
    return;
  }
  const std::string mismatch =
      DescribeMismatch(expected, Rendered(answers[0], symbols));
  if (!mismatch.empty()) {
    result->Fail("window " + std::to_string(window) + ": " + mismatch);
  }
}

// --- untraced run: the public engine surface ------------------------------

template <typename Feed>
class EngineRun {
 public:
  EngineRun(const EngineSpec& spec, uint64_t seed,
            std::function<Feed(uint64_t, SymbolTable&)> make_feed)
      : symbols_(MakeSymbolTable()),
        program_(ParseOrDie(symbols_, spec.program_text)),
        feed_(make_feed(seed, *symbols_)) {
    EngineConfig config;
    config.pipeline.window_size = spec.window;
    config.pipeline.window_slide = spec.slide;
    config.pipeline.reuse_solving = spec.reuse;
    StatusOr<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
        &program_, config, [this](EmissionEvent& event) {
          Delivery delivery;
          delivery.at = Clock::now();
          delivery.kind = event.kind;
          if (event.kind == EmissionEvent::Kind::kResult) {
            delivery.answers = event.result->answers;
          }
          deliveries_.push_back(std::move(delivery));
        });
    if (!engine.ok()) Fatal("engine: " + engine.status().ToString());
    engine_ = std::move(*engine);
  }

  // Generates `windows` windows, pushes them back to back, then checks
  // every delivery. Adds to `e2e` when given (the timed phase).
  void RunChunk(size_t windows, RunResult* result, EndToEnd* e2e) {
    Clock::time_point benchmark_start = Clock::now();
    std::vector<std::vector<Triple>> batches;
    std::vector<std::vector<std::string>> expected;
    for (size_t i = 0; i < windows; ++i) {
      batches.push_back(feed_.NextBatch());
      expected.push_back(feed_.expected());
    }
    benchmark_s_ += SecondsSince(benchmark_start);
    deliveries_.clear();
    std::vector<Clock::time_point> sent(windows);
    std::vector<size_t> delivered_after(windows);
    const double cpu_before = ProcessCpuSeconds();
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < windows; ++i) {
      sent[i] = Clock::now();
      engine_->PushBatch(batches[i]);
      delivered_after[i] = deliveries_.size();
    }
    const Clock::time_point end =
        deliveries_.empty() ? Clock::now() : deliveries_.back().at;
    const double cpu = ProcessCpuSeconds() - cpu_before;

    benchmark_start = Clock::now();
    result->attempted += windows;
    std::vector<double> latency_ms;
    for (size_t i = 0; i < windows; ++i) {
      const uint64_t window = windows_done_ + i;
      // The synchronous engine delivers each window inside the push that
      // closes it: exactly one delivery per batch.
      if (delivered_after[i] != i + 1) {
        result->Fail("window " + std::to_string(window) +
                     ": deliveries out of step with the window geometry");
        continue;
      }
      const Delivery& delivery = deliveries_[i];
      if (delivery.kind != EmissionEvent::Kind::kResult) {
        result->Fail("window " + std::to_string(window) + ": not reasoned");
        continue;
      }
      CheckAnswers(delivery.answers, expected[i], *symbols_, window, result);
      latency_ms.push_back(MillisBetween(sent[i], delivery.at));
    }
    benchmark_s_ += SecondsSince(benchmark_start);
    windows_done_ += windows;
    if (e2e != nullptr) {
      uint64_t triples = 0;
      for (const auto& batch : batches) triples += batch.size();
      e2e->AddChunk(triples,
                    std::chrono::duration<double>(end - start).count(), cpu,
                    latency_ms);
    }
  }

  // Seconds spent generating inputs, computing their references and
  // checking answers: the benchmark's own work, kept out of setup_s.
  double benchmark_s() const { return benchmark_s_; }

  // Whole-run accounting: every window delivered once, none lost.
  void CheckTotals(RunResult* result) const {
    const EngineStats stats = engine_->stats();
    if (stats.delivered_windows != windows_done_ ||
        stats.delivery_errors != 0 || stats.shed_windows() != 0) {
      result->Fail("engine stats: delivered " +
                   std::to_string(stats.delivered_windows) + " of " +
                   std::to_string(windows_done_) + " windows");
    }
  }

 private:
  struct Delivery {
    Clock::time_point at;
    EmissionEvent::Kind kind = EmissionEvent::Kind::kResult;
    std::vector<GroundAnswer> answers;
  };

  SymbolTablePtr symbols_;
  Program program_;
  Feed feed_;
  std::unique_ptr<StreamEngine> engine_;
  std::vector<Delivery> deliveries_;
  uint64_t windows_done_ = 0;
  double benchmark_s_ = 0;
};

// Warm-up, then whole chunks until `seconds` have passed.
template <typename Feed>
EndToEnd RunUntraced(const EngineSpec& spec, const RunArgs& args,
                     double seconds,
                     std::function<Feed(uint64_t, SymbolTable&)> make_feed,
                     RunResult* result) {
  EngineRun<Feed> run(spec, args.seed, make_feed);
  run.RunChunk(spec.warmup_windows, result, nullptr);
  EndToEnd e2e(spec.group_windows);
  e2e.setup_s = SecondsSince(kProcessStart) - run.benchmark_s();
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < seconds) {
    run.RunChunk(spec.chunk_windows, result, &e2e);
  }
  run.CheckTotals(result);
  return e2e;
}

// --- traced run: the layers' public entry points --------------------------

// Extracts the shown atoms of each model, as the reasoner does.
std::vector<GroundAnswer> ShownAnswers(const Program& program,
                                       const AtomTable& atoms,
                                       const std::vector<AnswerSet>& models) {
  std::vector<GroundAnswer> answers;
  const std::vector<PredicateSignature>& shown = program.shown_predicates();
  for (const AnswerSet& model : models) {
    GroundAnswer answer;
    for (GroundAtomId id : model.atoms) {
      const Atom& atom = atoms.GetAtom(id);
      if (shown.empty() || std::find(shown.begin(), shown.end(),
                                     atom.signature()) != shown.end()) {
        answer.push_back(atom);
      }
    }
    NormalizeAnswer(&answer);
    answers.push_back(std::move(answer));
  }
  return answers;
}

// Runs Parser::ParseProgram and the input dependency analysis +
// decomposition on `program_text` kSetupCalls times each, recording
// asp.parse_ms and depgraph.decompose_ms spans (window = call number), and
// returns the plan.
PartitioningPlan TraceDesignTime(const std::string& program_text,
                                 SpanRecorder* spans) {
  PartitioningPlan plan(1);
  for (uint64_t call = 0; call < kSetupCalls; ++call) {
    const int32_t parse = spans->Begin("asp.parse_ms", call);
    Parser parser(MakeSymbolTable());
    StatusOr<Program> program = parser.ParseProgram(program_text);
    spans->End(parse);
    if (!program.ok()) Fatal("program: " + program.status().ToString());

    const int32_t decompose = spans->Begin("depgraph.decompose_ms", call);
    StatusOr<InputDependencyGraph> graph =
        InputDependencyGraph::Build(*program);
    StatusOr<PartitioningPlan> decomposed =
        graph.ok() ? DecomposeInputDependencyGraph(*graph)
                   : StatusOr<PartitioningPlan>(graph.status());
    spans->End(decompose);
    if (!decomposed.ok()) {
      Fatal("decomposition: " + decomposed.status().ToString());
    }
    plan = std::move(*decomposed);
  }
  return plan;
}

// Per-window counters the traced run takes where the work happens.
struct TracedCounters {
  std::vector<double> partitions;
  std::vector<double> bytes_per_triple;
  std::vector<double> duplication_share;
  std::vector<double> partition_skew;
  std::vector<double> ground_rules;
  uint64_t rules_retained = 0;
  uint64_t rules_new = 0;
  uint64_t fallbacks = 0;
  uint64_t atoms_touched = 0;
  uint64_t atoms_live = 0;
};

template <typename Feed>
class TracedRun {
 public:
  TracedRun(const EngineSpec& spec, uint64_t seed,
            std::function<Feed(uint64_t, SymbolTable&)> make_feed,
            SpanRecorder* spans)
      : spec_(spec),
        spans_(spans),
        symbols_(MakeSymbolTable()),
        program_(ParseOrDie(symbols_, spec.program_text)),
        feed_(make_feed(seed, *symbols_)),
        partitioner_(TraceDesignTime(spec.program_text, spans)) {
    const Status declared =
        format_.DeclareInputPredicates(program_.input_predicates());
    if (!declared.ok()) Fatal("format: " + declared.ToString());
    const size_t partitions =
        static_cast<size_t>(partitioner_.plan().num_communities());
    if (partitions > 1) {
      pool_ = std::make_unique<ThreadPool>(DefaultThreadCount());
    }
    if (spec.reuse) {
      IncrementalGroundingOptions incremental;
      incremental.assemble_output = false;  // the solver reads the store
      SolverOptions solving;
      solving.reuse_solving = true;
      for (size_t i = 0; i < partitions; ++i) {
        grounders_.push_back(std::make_unique<IncrementalGrounder>(
            &program_, GroundingOptions{}, incremental));
        solvers_.push_back(std::make_unique<IncrementalSolver>(solving));
      }
    }
    windower_ = std::make_unique<StreamQueryProcessor>(
        spec.window, spec.slide, [this](TripleWindow window) {
          // Sampled at the close, where the windower's buffer peaks.
          retained_bytes_ = windower_->retained_bytes();
          emitted_.push_back(std::move(window));
        });
    for (const PredicateSignature& sig : program_.input_predicates()) {
      windower_->RegisterPredicate(sig.name);
    }
  }

  // Same chunking as the untraced run; counters only when `counters`.
  void RunChunk(size_t windows, RunResult* result, EndToEnd* e2e,
                TracedCounters* counters) {
    std::vector<std::vector<Triple>> batches;
    std::vector<std::vector<std::string>> expected;
    for (size_t i = 0; i < windows; ++i) {
      batches.push_back(feed_.NextBatch());
      expected.push_back(feed_.expected());
    }
    std::vector<StatusOr<std::vector<GroundAnswer>>> answers;
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < windows; ++i) {
      answers.push_back(ProcessWindow(windows_done_ + i, batches[i],
                                      counters));
    }
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    result->attempted += windows;
    for (size_t i = 0; i < windows; ++i) {
      if (!answers[i].ok()) {
        result->Fail("traced window " + std::to_string(windows_done_ + i) +
                     ": " + answers[i].status().ToString());
        continue;
      }
      CheckAnswers(*answers[i], expected[i], *symbols_, windows_done_ + i,
                   result);
    }
    windows_done_ += windows;
    if (e2e != nullptr) {
      uint64_t triples = 0;
      for (const auto& batch : batches) triples += batch.size();
      e2e->AddChunk(triples, wall, /*cpu_s=*/0, {});
    }
  }

  uint64_t windows_done() const { return windows_done_; }

 private:
  StatusOr<std::vector<GroundAnswer>> ProcessWindow(
      uint64_t index, const std::vector<Triple>& batch,
      TracedCounters* counters) {
    const int32_t root = spans_->Begin("window", index);
    const int32_t windowing = spans_->Begin("stream.window_ms", index, root);
    windower_->PushBatch(batch);
    spans_->End(windowing);
    if (emitted_.size() != 1) {
      spans_->End(root);
      const size_t emitted = emitted_.size();
      emitted_.clear();
      return InternalError("windower emitted " + std::to_string(emitted) +
                           " windows");
    }
    TripleWindow window = std::move(emitted_.front());
    emitted_.clear();

    const int32_t partitioning =
        spans_->Begin("streamrule.partition_ms", index, root);
    std::vector<std::vector<Triple>> parts =
        partitioner_.Partition(window.items);
    std::vector<std::vector<Triple>> expired;
    std::vector<std::vector<Triple>> admitted;
    const bool delta = spec_.reuse && window.has_delta &&
                       window.delta_base != TripleWindow::kNoDeltaBase;
    if (delta) {
      expired = partitioner_.Partition(window.expired, false);
      admitted = partitioner_.Partition(window.admitted, false);
    }
    spans_->End(partitioning);

    std::vector<PartitionOutcome> outcomes(parts.size());
    std::vector<std::function<void()>> tasks;
    for (size_t p = 0; p < parts.size(); ++p) {
      tasks.push_back([&, p] {
        outcomes[p] = ReasonPartition(
            index, root, static_cast<int32_t>(p), window, parts[p],
            delta ? &expired[p] : nullptr, delta ? &admitted[p] : nullptr);
      });
    }
    if (pool_ != nullptr) {
      pool_->SubmitAndWaitAll(std::move(tasks));
    } else {
      for (auto& task : tasks) task();
    }

    std::vector<std::vector<GroundAnswer>> per_partition;
    for (PartitionOutcome& outcome : outcomes) {
      if (!outcome.status.ok()) {
        spans_->End(root);
        return outcome.status;
      }
      per_partition.push_back(std::move(outcome.answers));
    }
    const int32_t combining =
        spans_->Begin("streamrule.combine_ms", index, root);
    StatusOr<std::vector<GroundAnswer>> combined =
        CombiningHandler().Combine(per_partition);
    spans_->End(combining);
    spans_->End(root);

    if (counters != nullptr) {
      size_t total = 0;
      size_t largest = 0;
      for (const auto& part : parts) {
        total += part.size();
        largest = std::max(largest, part.size());
      }
      counters->partitions.push_back(parts.size());
      counters->bytes_per_triple.push_back(
          static_cast<double>(retained_bytes_) / window.items.size());
      counters->duplication_share.push_back(
          static_cast<double>(total) / window.items.size() - 1.0);
      const double mean = static_cast<double>(total) / parts.size();
      counters->partition_skew.push_back(total == 0 ? 0 : largest / mean);
      size_t rules = 0;
      for (const PartitionOutcome& outcome : outcomes) {
        rules += outcome.grounding.num_rules;
        counters->rules_retained += outcome.grounding.rules_retained;
        counters->rules_new += outcome.grounding.rules_new;
        counters->fallbacks += outcome.grounding.incremental_fallbacks;
        counters->atoms_touched += outcome.solving.atoms_touched;
        counters->atoms_live += outcome.solving.atoms_touched +
                                outcome.solving.assignments_reused;
      }
      counters->ground_rules.push_back(rules);
    }
    return combined;
  }

  struct PartitionOutcome {
    Status status = OkStatus();
    std::vector<GroundAnswer> answers;
    GroundingStats grounding;
    SolverStats solving;
  };

  PartitionOutcome ReasonPartition(uint64_t index, int32_t root,
                                   int32_t partition,
                                   const TripleWindow& window,
                                   const std::vector<Triple>& items,
                                   const std::vector<Triple>* expired,
                                   const std::vector<Triple>* admitted) {
    PartitionOutcome out;
    const int32_t reason =
        spans_->Begin("streamrule.reason", index, root, partition);
    const int32_t converting =
        spans_->Begin("stream.convert_ms", index, reason, partition);
    StatusOr<std::vector<Atom>> facts = format_.ToFacts(items);
    IncrementalGrounder::FactDelta delta;
    bool has_delta = false;
    if (facts.ok() && expired != nullptr) {
      StatusOr<std::vector<Atom>> gone = format_.ToFacts(*expired);
      StatusOr<std::vector<Atom>> added = format_.ToFacts(*admitted);
      if (gone.ok() && added.ok()) {
        delta.previous_sequence = window.delta_base;
        delta.expired = std::move(*gone);
        delta.admitted = std::move(*added);
        has_delta = true;
      }
    }
    spans_->End(converting);
    if (!facts.ok()) {
      out.status = facts.status();
    } else if (spec_.reuse) {
      IncrementalGrounder& grounder = *grounders_[partition];
      const int32_t grounding =
          spans_->Begin("ground.incremental_ms", index, reason, partition);
      StatusOr<const GroundProgram*> ground = grounder.GroundWindow(
          window.sequence, *facts, has_delta ? &delta : nullptr,
          &out.grounding);
      spans_->End(grounding);
      if (!ground.ok()) {
        out.status = ground.status();
      } else {
        std::vector<AnswerSet> models;
        const int32_t solving =
            spans_->Begin("solve.incremental_ms", index, reason, partition);
        out.status = solvers_[partition]->SolveWindow(
            grounder.last_delta(), grounder.cached_rules(),
            grounder.atom_table().size(), &models, &out.solving);
        spans_->End(solving);
        out.answers = ShownAnswers(program_, grounder.atom_table(), models);
      }
    } else {
      const int32_t grounding =
          spans_->Begin("ground.cold_ms", index, reason, partition);
      StatusOr<GroundProgram> ground =
          Grounder().Ground(program_, *facts, &out.grounding);
      spans_->End(grounding);
      if (!ground.ok()) {
        out.status = ground.status();
      } else {
        const int32_t solving =
            spans_->Begin("solve.cold_ms", index, reason, partition);
        StatusOr<std::vector<AnswerSet>> models = Solver().Solve(*ground);
        spans_->End(solving);
        if (!models.ok()) {
          out.status = models.status();
        } else {
          out.answers = ShownAnswers(program_, ground->atoms(), *models);
        }
      }
    }
    spans_->End(reason);
    return out;
  }

  const EngineSpec& spec_;
  SpanRecorder* spans_;
  SymbolTablePtr symbols_;
  Program program_;
  Feed feed_;
  PartitioningHandler partitioner_;
  DataFormatProcessor format_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<IncrementalGrounder>> grounders_;
  std::vector<std::unique_ptr<IncrementalSolver>> solvers_;
  std::unique_ptr<StreamQueryProcessor> windower_;
  std::vector<TripleWindow> emitted_;
  size_t retained_bytes_ = 0;
  uint64_t windows_done_ = 0;
};

// The per-layer values of a traced engine run.
LayerValues LayerValuesOf(const std::vector<SpanRecorder::Span>& all_spans,
                          uint64_t first_timed_window,
                          const TracedCounters& c, const EndToEnd& untraced,
                          const EndToEnd& traced) {
  // Setup spans apart; window spans of the timed phase only, with parents
  // re-indexed into the subset.
  std::vector<SpanRecorder::Span> setup_spans;
  std::vector<SpanRecorder::Span> window_spans;
  std::vector<int32_t> remap(all_spans.size(), -1);
  for (size_t i = 0; i < all_spans.size(); ++i) {
    SpanRecorder::Span span = all_spans[i];
    const std::string name = span.name;
    if (name == "asp.parse_ms" || name == "depgraph.decompose_ms") {
      setup_spans.push_back(span);
      continue;
    }
    if (span.window < first_timed_window) continue;
    if (span.parent >= 0) span.parent = remap[span.parent];
    remap[i] = static_cast<int32_t>(window_spans.size());
    window_spans.push_back(span);
  }
  const LayerTimes setup = SelfTimesPerWindow(setup_spans, "");
  const LayerTimes times =
      SelfTimesPerWindow(window_spans, "streamrule.reason");

  LayerValues layers;
  layers["asp.parse_ms"] = setup.MedianOf("asp.parse_ms");
  layers["depgraph.decompose_ms"] = setup.MedianOf("depgraph.decompose_ms");
  double attributed = 0;
  for (const char* name :
       {"stream.window_ms", "stream.convert_ms", "streamrule.partition_ms",
        "streamrule.combine_ms", "ground.cold_ms", "ground.incremental_ms",
        "solve.cold_ms", "solve.incremental_ms"}) {
    layers[name] = times.MedianOf(name);
    attributed += layers[name];
  }
  layers["streamrule.unattributed_ms"] =
      Quantile(untraced.latency_ms(), 0.5) - attributed;
  layers["depgraph.partitions"] = Quantile(c.partitions, 0.5);
  layers["stream.bytes_per_triple"] = Quantile(c.bytes_per_triple, 0.5);
  layers["streamrule.duplication_share"] = Quantile(c.duplication_share, 0.5);
  layers["streamrule.partition_skew"] = Quantile(c.partition_skew, 0.5);
  layers["ground.rules"] = Quantile(c.ground_rules, 0.5);
  const uint64_t rules = c.rules_retained + c.rules_new;
  layers["ground.reused_share"] =
      rules == 0 ? 0 : static_cast<double>(c.rules_retained) / rules;
  // Per 1000 timed windows, so that fitting more windows into the timed
  // phase does not raise it.
  layers["ground.fallbacks"] =
      c.partitions.empty() ? 0 : 1000.0 * c.fallbacks / c.partitions.size();
  layers["solve.atoms_touched_ratio"] =
      c.atoms_live == 0 ? 0
                        : static_cast<double>(c.atoms_touched) / c.atoms_live;
  layers["trace.overhead"] = untraced.throughput() / traced.throughput();
  return layers;
}

// The traced phase: a warm-up, then the same inputs through each layer's
// entry points for `seconds`. Returns the per-layer values against the
// untraced run `untraced` and dumps the spans to `dump_path`.
template <typename Feed>
LayerValues TraceLayers(const EngineSpec& spec, uint64_t seed,
                        std::function<Feed(uint64_t, SymbolTable&)> make_feed,
                        double seconds, const EndToEnd& untraced,
                        const std::string& dump_path, RunResult* result) {
  SpanRecorder spans;
  TracedRun<Feed> run(spec, seed, make_feed, &spans);
  run.RunChunk(spec.warmup_windows, result, nullptr, nullptr);
  const uint64_t first_timed = run.windows_done();
  EndToEnd traced;
  TracedCounters counters;
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < seconds) {
    run.RunChunk(spec.chunk_windows, result, &traced, &counters);
  }
  std::error_code ignored;
  std::filesystem::create_directories("perfbench/out", ignored);
  if (!spans.Dump(dump_path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 dump_path.c_str());
  }
  return LayerValuesOf(spans.spans(), first_timed, counters, untraced,
                       traced);
}

template <typename Feed>
RunResult RunEngineWorkload(
    const EngineSpec& spec, const RunArgs& args,
    std::function<Feed(uint64_t, SymbolTable&)> make_feed) {
  RunResult result;
  if (!args.trace) {
    RunUntraced<Feed>(spec, args, args.seconds, make_feed, &result)
        .Report(&result);
    return result;
  }
  // Traced run: half the time untraced (the reference for the overhead
  // and the unattributed share), half traced.
  const EndToEnd untraced =
      RunUntraced<Feed>(spec, args, args.seconds / 2, make_feed, &result);
  ReportLayerMetrics(TraceLayers<Feed>(spec, args.seed, make_feed,
                                       args.seconds / 2, untraced,
                                       SpanDumpPath(args), &result),
                     &result);
  return result;
}

}  // namespace

LayerValues TraceSessionReasoning(size_t window, int64_t subjects,
                                  uint64_t feed_seed, double seconds,
                                  const EndToEnd& untraced,
                                  const std::string& dump_path,
                                  RunResult* result) {
  EngineSpec spec;
  spec.program_text =
      TrafficProgramText(TrafficProgramVariant::kP, /*with_show=*/true);
  spec.window = window;
  spec.slide = window;
  spec.warmup_windows = 20;
  spec.chunk_windows = 20;
  return TraceLayers<TrafficFeed>(
      spec, feed_seed,
      [window, subjects](uint64_t seed, SymbolTable& symbols) {
        return TrafficFeed(seed, symbols, window, subjects, /*with_r7=*/false);
      },
      seconds, untraced, dump_path, result);
}

// P' = Listing 1 + r7 with #show, 10k-item tumbling windows, dependency
// partitioning (Louvain + car_number duplication), synchronous engine.
RunResult RunPprimeTumbling(const RunArgs& args) {
  EngineSpec spec;
  spec.program_text =
      TrafficProgramText(TrafficProgramVariant::kPPrime, /*with_show=*/true);
  spec.window = 10000;
  spec.slide = 10000;
  spec.warmup_windows = 8;
  spec.chunk_windows = 8;
  spec.group_windows = 120;
  return RunEngineWorkload<TrafficFeed>(
      spec, args, [](uint64_t seed, SymbolTable& symbols) {
        // 200 subjects: the event-rich pool of window / 50.
        return TrafficFeed(seed, symbols, 10000, 200, /*with_r7=*/true);
      });
}

// Recursive reachability over ~48 nodes, 1600-item windows sliding by 100,
// grounding and solving reuse with the maintained fixpoint.
RunResult RunReachSliding(const RunArgs& args) {
  EngineSpec spec;
  spec.program_text = R"(
    #input link/2.
    #input high/1.
    reach(X, Y) :- link(X, Y).
    reach(X, Z) :- reach(X, Y), link(Y, Z).
    alarm(X, Y) :- high(X), high(Y), reach(X, Y).
    #show alarm/2.
  )";
  spec.window = 1600;
  spec.slide = 100;
  spec.reuse = true;
  spec.warmup_windows = 24;
  spec.chunk_windows = 24;
  spec.group_windows = 120;
  return RunEngineWorkload<ReachFeed>(
      spec, args, [](uint64_t seed, SymbolTable& symbols) {
        return ReachFeed(seed, symbols, 1600, 100, /*nodes=*/48);
      });
}

}  // namespace perfbench
