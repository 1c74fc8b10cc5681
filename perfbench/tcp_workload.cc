// The serving workload, sessions-tcp.
//
// An in-process StreamServer + TcpServer on loopback. Four sessions each
// open their own connection (v=1, program P with #show, async=1,
// 1000-item tumbling windows). One client thread runs a closed loop: it
// sends each session one window's triples as a push frame, then reads
// until that session's `ok push` and its result event arrive; each round
// it also sends one `stats` request to a rotating session. The shared
// pool is sized so pool + event loop + client thread <= nproc.
//
// The traced run adds spans around the client's calls into the wire layer
// (ParseRequest, ParseTripleLine, EncodeFrame, FrameDecoder, FormatEvent),
// the same requests over StreamServer::Connect() (to split off the TCP
// transport), and a no-op probe on its own lane of the server's pool. The
// reasoning layers run inside the server, where they cannot be traced from
// here; the traced run replays one session's windows through their entry
// points instead (TraceSessionReasoning).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>

#include "server/server.h"
#include "server/session.h"
#include "server/tcp.h"
#include "server/wire.h"
#include "streamrule/parallel_reasoner.h"
#include "streamrule/traffic_workload.h"
#include "util/strings.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace streamasp;

constexpr size_t kSessions = 4;
constexpr size_t kWindow = 1000;
constexpr int64_t kSubjects = kWindow / 50;  // the event-rich pool
constexpr size_t kWarmupRounds = 50;
// Windows per group of EndToEnd: 150 rounds, about a second.
constexpr size_t kGroupWindows = 600;

std::string ProgramP() {
  return TrafficProgramText(TrafficProgramVariant::kP, /*with_show=*/true);
}

// One blocking loopback connection speaking the framed wire protocol
// through the wire layer's own codec.
class Connection {
 public:
  explicit Connection(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) Fatal("socket");
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // A server that stops answering fails the run instead of hanging it.
    timeval timeout{20, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&address),
                sizeof(address)) != 0) {
      Fatal("connect");
    }
  }
  ~Connection() { close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // With `spans`, each EncodeFrame and FrameDecoder call is recorded as a
  // server.frame_codec span of window `step`.
  void Send(std::string_view payload, SpanRecorder* spans = nullptr,
            uint64_t step = 0) {
    const Clock::time_point start = Clock::now();
    const std::string frame = EncodeFrame(payload);
    if (spans != nullptr) spans->Record(kCodec, step, start, Clock::now());
    size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = write(fd_, frame.data() + sent, frame.size() - sent);
      if (n <= 0) Fatal("write");
      sent += static_cast<size_t>(n);
    }
  }

  std::string Receive(SpanRecorder* spans = nullptr, uint64_t step = 0) {
    std::string payload;
    while (true) {
      Clock::time_point start = Clock::now();
      const bool ready = decoder_.Next(&payload);
      if (spans != nullptr) spans->Record(kCodec, step, start, Clock::now());
      if (ready) return payload;
      if (!decoder_.status().ok()) Fatal("bad frame");
      const ssize_t n = read(fd_, buffer_, sizeof(buffer_));
      if (n <= 0) Fatal("read (no reply within 20 s or connection closed)");
      start = Clock::now();
      decoder_.Feed(std::string_view(buffer_, static_cast<size_t>(n)));
      if (spans != nullptr) spans->Record(kCodec, step, start, Clock::now());
    }
  }

 private:
  static constexpr const char* kCodec = "server.frame_codec";

  int fd_ = -1;
  FrameDecoder decoder_;
  char buffer_[1 << 16];
};

// An in-process connection (StreamServer::Connect) with a blocking
// Receive, for the transport comparison.
class InProcConnection {
 public:
  explicit InProcConnection(StreamServer* server)
      : transport_(server->Connect()) {
    transport_->Receive([this](std::string payload) {
      std::lock_guard<std::mutex> lock(mutex_);
      inbox_.push_back(std::move(payload));
      arrived_.notify_one();
    });
  }
  ~InProcConnection() { transport_->Close(); }

  void Send(std::string payload) {
    if (!transport_->Send(std::move(payload)).ok()) Fatal("in-proc send");
  }
  std::string Receive() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!arrived_.wait_for(lock, std::chrono::seconds(20),
                           [this] { return !inbox_.empty(); })) {
      Fatal("in-proc reply timed out");
    }
    std::string payload = std::move(inbox_.front());
    inbox_.pop_front();
    return payload;
  }

 private:
  std::unique_ptr<SessionTransport> transport_;
  std::mutex mutex_;
  std::condition_variable arrived_;
  std::deque<std::string> inbox_;
};

std::string FirstLine(const std::string& payload) {
  return payload.substr(0, payload.find('\n'));
}

// Checks a result event against the reference: the session's next
// sequence, completeness 1, the window's item count, one answer set equal
// to the reference's shown atoms (all of program P's shown atoms have one
// argument, so the answer line splits on commas).
void CheckEvent(const std::string& event, const std::string& session,
                uint64_t sequence, const std::vector<std::string>& expected,
                RunResult* result) {
  const std::string header = FirstLine(event);
  const std::string want = "event " + session + " result seq=" +
                           std::to_string(sequence) +
                           " completeness=1 items=" + std::to_string(kWindow) +
                           " answers=1";
  const std::string where = session + " window " + std::to_string(sequence);
  if (header != want) {
    result->Fail(where + ": got `" + header + "`, want `" + want + "`");
    return;
  }
  const size_t open = event.find("\n{");
  if (open == std::string::npos || event.back() != '}') {
    result->Fail(where + ": malformed answer line");
    return;
  }
  std::vector<std::string> atoms;
  const std::string body = event.substr(open + 2, event.size() - open - 3);
  if (!body.empty()) {
    for (std::string& atom : StrSplit(body, ',')) {
      atom.erase(std::remove(atom.begin(), atom.end(), ' '), atom.end());
      atoms.push_back(std::move(atom));
    }
  }
  std::sort(atoms.begin(), atoms.end());
  const std::string mismatch = DescribeMismatch(expected, atoms);
  if (!mismatch.empty()) result->Fail(where + ": " + mismatch);
}

// Reads frames until the push's `ok push` and its result event have both
// arrived; returns them in `ack`/`event` and the arrival time of each.
// `on_ack`, when given, runs as soon as the ack has been read.
struct PushReply {
  std::string ack;
  std::string event;
  Clock::time_point ack_at;
  Clock::time_point event_at;
};

template <typename Reader>
PushReply AwaitPush(const std::string& session, Reader read,
                    const std::function<void()>& on_ack = nullptr) {
  PushReply reply;
  while (reply.ack.empty() || reply.event.empty()) {
    std::string payload = read();
    const Clock::time_point at = Clock::now();
    if (payload.rfind("event " + session + " ", 0) == 0) {
      reply.event = std::move(payload);
      reply.event_at = at;
    } else if (reply.ack.empty()) {
      reply.ack = std::move(payload);
      reply.ack_at = at;
      if (reply.ack != "ok push " + session) break;  // an error reply
      if (on_ack) on_ack();
    } else {
      reply.event = std::move(payload);  // unexpected: fails the check
      reply.event_at = at;
    }
  }
  return reply;
}

// One server, its connections and the closed client loop.
class SessionsRun {
 public:
  SessionsRun(uint64_t seed, bool traced) {
    ServerConfig config;
    const size_t cores = std::max<size_t>(1, DefaultThreadCount());
    config.shared_pool_threads = cores > 2 ? cores - 2 : 1;
    server_ = std::make_unique<StreamServer>(config);
    tcp_ = std::make_unique<TcpServer>(server_.get(), TcpServer::Options{});
    const Status started = tcp_->Start();
    if (!started.ok()) Fatal("tcp start: " + started.ToString());

    symbols_ = MakeSymbolTable();
    for (size_t i = 0; i < kSessions; ++i) {
      sessions_.push_back("s" + std::to_string(i));
      feeds_.emplace_back(seed * kSessions + i, *symbols_, kWindow, kSubjects,
                          /*with_r7=*/false);
      connections_.push_back(std::make_unique<Connection>(tcp_->port()));
      Open(*connections_.back(), sessions_.back());
    }
    sequences_.assign(kSessions, 0);
    pushed_.assign(kSessions, 0);
    if (traced) {
      for (size_t i = 0; i < kSessions; ++i) {
        twins_.push_back(std::make_unique<InProcConnection>(server_.get()));
        twins_.back()->Send(OpenRequest("t" + std::to_string(i)));
        const std::string reply = twins_.back()->Receive();
        if (FirstLine(reply) != "ok open t" + std::to_string(i) + " v=1") {
          Fatal("in-proc open: " + reply);
        }
      }
      twin_sequences_.assign(kSessions, 0);
      probe_lane_ = server_->shared_pool()->CreateQueue(1, 1);
    }
  }

  ~SessionsRun() {
    if (probe_lane_ != nullptr) probe_lane_->Drain();
    twins_.clear();
    connections_.clear();
    tcp_->Stop();
    server_->CloseAll();
  }

  // One round: a window per session, then one stats request.
  // With `spans` (the traced run) every step is traced; its spans carry
  // the step number (round * sessions + session) as their window.
  void Round(RunResult* result, EndToEnd* e2e, SpanRecorder* spans) {
    Clock::time_point benchmark_start = Clock::now();
    std::vector<std::string> payloads;
    std::vector<std::vector<std::string>> expected;
    std::vector<std::vector<Triple>> windows;
    for (size_t i = 0; i < kSessions; ++i) {
      windows.push_back(feeds_[i].NextBatch());
      payloads.push_back("push " + sessions_[i] + feeds_[i].Lines());
      expected.push_back(feeds_[i].expected());
    }
    benchmark_s_ += SecondsSince(benchmark_start);
    std::vector<PushReply> replies(kSessions);
    std::vector<Clock::time_point> sent(kSessions);
    const size_t target = rounds_ % kSessions;
    std::string stats_reply;
    double wall_s = 0;
    const double cpu_before = ProcessCpuSeconds();
    for (size_t i = 0; i < kSessions; ++i) {
      const uint64_t step = rounds_ * kSessions + i;
      sent[i] = Clock::now();
      connections_[i]->Send(payloads[i], spans, step);
      // The probe is submitted on its own lane once the push is acked, when
      // the session's window has been handed on towards the pool.
      std::atomic<Clock::rep> probe_start{0};
      Clock::time_point probe_submit;
      std::function<void()> submit_probe;
      if (spans != nullptr) {
        submit_probe = [&] {
          probe_submit = Clock::now();
          probe_lane_->Submit([&probe_start] {
            probe_start = Clock::now().time_since_epoch().count();
          });
        };
      }
      replies[i] = AwaitPush(
          sessions_[i],
          [&] { return connections_[i]->Receive(spans, step); },
          submit_probe);
      wall_s += std::chrono::duration<double>(replies[i].event_at - sent[i])
                    .count();
      pushed_[i] += kWindow;
      if (spans != nullptr && replies[i].ack == "ok push " + sessions_[i]) {
        probe_lane_->Drain();
        spans->Record("util.pool_dispatch_wait", step, probe_submit,
                      Clock::time_point(Clock::duration(probe_start.load())));
        spans->Record("server.push_ack", step, sent[i], replies[i].ack_at);
        spans->Record("server.tcp_round_trip", step, sent[i],
                      replies[i].event_at);
        TraceTwin(i, step, payloads[i], expected[i], result, spans);
        TraceWireLayer(i, step, payloads[i], windows[i], expected[i], spans);
      }
    }
    const Clock::time_point stats_sent = Clock::now();
    connections_[target]->Send("stats " + sessions_[target]);
    stats_reply = connections_[target]->Receive();
    wall_s += SecondsSince(stats_sent);
    const double cpu = ProcessCpuSeconds() - cpu_before;

    benchmark_start = Clock::now();
    result->attempted += kSessions;
    for (size_t i = 0; i < kSessions; ++i) {
      if (replies[i].ack != "ok push " + sessions_[i]) {
        result->Fail(sessions_[i] + ": push reply `" + replies[i].ack + "`");
      }
      CheckEvent(replies[i].event, sessions_[i], sequences_[i]++, expected[i],
                 result);
    }
    CheckStats(stats_reply, target, result);
    benchmark_s_ += SecondsSince(benchmark_start);
    ++rounds_;
    if (e2e != nullptr) {
      std::vector<double> latency_ms;
      for (size_t i = 0; i < kSessions; ++i) {
        latency_ms.push_back(MillisBetween(sent[i], replies[i].event_at));
      }
      e2e->AddChunk(kSessions * kWindow, wall_s, cpu, latency_ms);
    }
  }

  // Seconds spent generating inputs, computing their references and
  // checking replies: the benchmark's own work, kept out of setup_s.
  double benchmark_s() const { return benchmark_s_; }

 private:
  static std::string OpenRequest(const std::string& session) {
    return "open " + session + " v=1 window=" + std::to_string(kWindow) +
           " async=1\n" + ProgramP();
  }

  static void Open(Connection& connection, const std::string& session) {
    connection.Send(OpenRequest(session));
    const std::string reply = connection.Receive();
    if (reply != "ok open " + session + " v=1") Fatal("open: " + reply);
  }

  // `pushed_items` in the stats reply equals the client's own count.
  void CheckStats(const std::string& reply, size_t target,
                  RunResult* result) const {
    const std::string want = "pushed_items=" + std::to_string(pushed_[target]);
    if (FirstLine(reply) != "ok stats " + sessions_[target] ||
        reply.find("\n" + want + "\n") == std::string::npos) {
      result->Fail(sessions_[target] + ": stats reply lacks " + want);
    }
  }

  // The same push over the in-process transport, to a twin session.
  void TraceTwin(size_t i, uint64_t step, const std::string& payload,
                 const std::vector<std::string>& expected, RunResult* result,
                 SpanRecorder* spans) {
    const std::string twin = "t" + std::to_string(i);
    const std::string request =
        "push " + twin + payload.substr(payload.find('\n'));
    const Clock::time_point start = Clock::now();
    twins_[i]->Send(request);
    const PushReply reply =
        AwaitPush(twin, [&] { return twins_[i]->Receive(); });
    spans->Record("server.inproc_round_trip", step, start, reply.event_at);
    result->attempted += 1;
    if (reply.ack != "ok push " + twin) {
      result->Fail(twin + ": push reply `" + reply.ack + "`");
    }
    CheckEvent(reply.event, twin, twin_sequences_[i]++, expected, result);
  }

  // The wire layer's parsing and event rendering on the same window.
  void TraceWireLayer(size_t i, uint64_t step, const std::string& payload,
                      std::vector<Triple>& window,
                      const std::vector<std::string>& expected,
                      SpanRecorder* spans) {
    const int32_t parsing = spans->Begin("server.wire_parse", step);
    StatusOr<WireRequest> request = ParseRequest(payload);
    size_t parsed = 0;
    if (request.ok()) {
      for (const std::string& line : request->lines) {
        parsed += ParseTripleLine(line, *symbols_).ok() ? 1 : 0;
      }
    }
    spans->End(parsing);
    if (parsed != kWindow) Fatal("wire parse of a push payload failed");

    // Render the window's result event from the reference answer.
    GroundAnswer answer;
    for (const std::string& atom : expected) {
      const size_t paren = atom.find('(');
      const int64_t argument = std::stoll(atom.substr(paren + 1));
      answer.emplace_back(symbols_->Intern(atom.substr(0, paren)),
                          std::vector<Term>{Term::Integer(argument)});
    }
    NormalizeAnswer(&answer);
    TripleWindow triples;
    triples.items = std::move(window);
    ParallelReasonerResult reasoned;
    reasoned.answers.push_back(std::move(answer));
    EmissionEvent emission;
    emission.window = &triples;
    emission.result = &reasoned;
    const SessionEvent event{sessions_[i], sequences_[i], *symbols_,
                             emission};
    const int32_t rendering = spans->Begin("server.event_render", step);
    const std::string rendered = FormatEvent(event);
    spans->End(rendering);
    if (rendered.empty()) Fatal("empty rendered event");
  }

  std::unique_ptr<StreamServer> server_;
  std::unique_ptr<TcpServer> tcp_;
  SymbolTablePtr symbols_;
  std::vector<std::string> sessions_;
  std::vector<TrafficFeed> feeds_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::vector<uint64_t> sequences_;
  std::vector<uint64_t> pushed_;
  std::vector<std::unique_ptr<InProcConnection>> twins_;
  std::vector<uint64_t> twin_sequences_;
  std::shared_ptr<SharedReasonerPool::Queue> probe_lane_;
  uint64_t rounds_ = 0;
  double benchmark_s_ = 0;
};

EndToEnd RunUntraced(const RunArgs& args, double seconds, RunResult* result) {
  SessionsRun run(args.seed, /*traced=*/false);
  for (size_t r = 0; r < kWarmupRounds; ++r) {
    run.Round(result, nullptr, nullptr);
  }
  EndToEnd e2e(kGroupWindows);
  e2e.setup_s = SecondsSince(kProcessStart) - run.benchmark_s();
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < seconds) run.Round(result, &e2e, nullptr);
  return e2e;
}

}  // namespace

RunResult RunSessionsTcp(const RunArgs& args) {
  RunResult result;
  if (!args.trace) {
    RunUntraced(args, args.seconds, &result).Report(&result);
    return result;
  }
  // Half the time untraced, a quarter over the wire with the server layers
  // traced, a quarter replaying session s0's windows through the reasoning
  // layers (with the design-time layers each session runs at open).
  const EndToEnd untraced = RunUntraced(args, args.seconds / 2, &result);
  SpanRecorder spans;
  EndToEnd traced;
  {
    SessionsRun run(args.seed, /*traced=*/true);
    for (size_t r = 0; r < kWarmupRounds; ++r) {
      run.Round(&result, nullptr, nullptr);
    }
    const Clock::time_point start = Clock::now();
    while (SecondsSince(start) < args.seconds / 4) {
      run.Round(&result, &traced, &spans);
    }
  }
  LayerValues layers = TraceSessionReasoning(
      kWindow, kSubjects, args.seed * kSessions, args.seconds / 4, untraced,
      SpanDumpPath(args, "reasoning"), &result);

  // Every span here is parentless, so self time is duration.
  const LayerTimes times = SelfTimesPerWindow(spans.spans(), "");
  layers["server.wire_parse_us_per_triple"] =
      times.MedianOf("server.wire_parse") * 1e3 / kWindow;
  // One push frame out, its ack and its event in.
  layers["server.frame_codec_us"] =
      times.MedianOf("server.frame_codec") * 1e3 / 3;
  layers["server.event_render_us"] =
      times.MedianOf("server.event_render") * 1e3;
  layers["server.push_ack_ms"] = times.MedianOf("server.push_ack");
  // Both round trips ran in every traced step, so the lists align.
  const std::vector<double>* tcp = times.Find("server.tcp_round_trip");
  const std::vector<double>* inproc = times.Find("server.inproc_round_trip");
  std::vector<double> transport;
  for (size_t i = 0; tcp != nullptr && inproc != nullptr &&
                     i < std::min(tcp->size(), inproc->size());
       ++i) {
    transport.push_back((*tcp)[i] - (*inproc)[i]);
  }
  layers["server.transport_ms"] = Quantile(transport, 0.5);
  layers["util.pool_dispatch_wait_ms"] =
      times.MedianOf("util.pool_dispatch_wait");
  // The replay left the reasoning layers' share out of the untraced
  // latency; take the serving layers' share out as well.
  layers["streamrule.unattributed_ms"] -=
      layers["server.wire_parse_us_per_triple"] * kWindow / 1e3 +
      times.MedianOf("server.frame_codec") +
      times.MedianOf("server.event_render") + layers["server.transport_ms"] +
      layers["util.pool_dispatch_wait_ms"];
  layers["trace.overhead"] = untraced.throughput() / traced.throughput();
  ReportLayerMetrics(layers, &result);
  std::error_code ignored;
  std::filesystem::create_directories("perfbench/out", ignored);
  spans.Dump(SpanDumpPath(args));
  return result;
}

}  // namespace perfbench
