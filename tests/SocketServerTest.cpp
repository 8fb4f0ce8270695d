//===- tests/SocketServerTest.cpp - Socket transport behavior -------------===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
// Pins down the `stagg serve --listen` transport's contracts against real
// TCP connections on kernel-picked ports (the port-0 convention, so
// parallel ctest jobs never collide): partial-frame reassembly, the
// connection limit, write-side backpressure stalling and resuming reads,
// the per-connection fairness cap under a greedy pipelining client, idle
// and stalled-partial-frame eviction, oversized-frame rejection, and the
// graceful drain. A second group runs the full protocol stack —
// api::SocketService over api::Endpoint — and checks v2 batches, progress
// interleaving, in-order responses, the stats event, and frame errors.
//
//===----------------------------------------------------------------------===//

#include "api/Endpoint.h"
#include "api/SocketService.h"
#include "llm/SimulatedLlm.h"
#include "serve/SocketServer.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#ifdef __linux__

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

using namespace stagg;

namespace {

void sleepMs(int Ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
}

/// Spins until \p Done returns true or ~5 seconds pass — the transport runs
/// on its own thread, so observable effects need a grace period.
template <typename Fn> bool eventually(Fn Done) {
  for (int I = 0; I < 500; ++I) {
    if (Done())
      return true;
    sleepMs(10);
  }
  return Done();
}

/// A blocking client socket with a line-buffered reader. Reads time out
/// after 20 seconds so a lost response fails the assertion, not the ctest
/// TIMEOUT.
class TestClient {
public:
  explicit TestClient(int Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(static_cast<uint16_t>(Port));
    ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
    Connected =
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0;
    timeval Tv;
    Tv.tv_sec = 20;
    Tv.tv_usec = 0;
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  }

  ~TestClient() { close(); }

  void close() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }

  bool connected() const { return Connected; }

  void send(const std::string &Bytes) {
    size_t Off = 0;
    while (Off < Bytes.size()) {
      ssize_t N = ::send(Fd, Bytes.data() + Off, Bytes.size() - Off,
                         MSG_NOSIGNAL);
      if (N <= 0)
        return;
      Off += static_cast<size_t>(N);
    }
  }

  void sendLine(const std::string &Line) { send(Line + "\n"); }

  /// Next newline-terminated line (newline stripped); "" on EOF or timeout.
  std::string readLine() {
    while (true) {
      std::string::size_type Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        std::string Line = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        return Line;
      }
      char Chunk[65536];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N <= 0)
        return "";
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

  /// True when the peer closed the connection (any buffered bytes are
  /// drained first).
  bool reachedEof() {
    while (true) {
      char Chunk[65536];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N == 0)
        return true;
      if (N < 0)
        return false;
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

private:
  int Fd = -1;
  bool Connected = false;
  std::string Buf;
};

/// Echoes every frame back, with a canned oversized reply for "big" (the
/// backpressure tests need responses far beyond any kernel socket buffer).
class EchoProtocol : public serve::SocketProtocol {
public:
  void onFrame(serve::SocketClient &Client, const std::string &Line) override {
    Frames.fetch_add(1);
    if (Line == "big" && BigBytes > 0) {
      Client.send(std::string(BigBytes, 'x'));
      return;
    }
    Client.send("echo:" + Line);
  }

  void onDisconnect(serve::SocketClient &) override {
    Disconnects.fetch_add(1);
  }

  std::string rejectLine(serve::TransportReject Kind) override {
    switch (Kind) {
    case serve::TransportReject::TooManyConnections:
      return "reject:conns";
    case serve::TransportReject::FrameTooLarge:
      return "reject:frame";
    case serve::TransportReject::ShuttingDown:
      return "reject:drain";
    }
    return "reject:?";
  }

  size_t BigBytes = 0;
  std::atomic<int> Frames{0};
  std::atomic<int> Disconnects{0};
};

/// Holds every frame as an open request (beginRequest with no reply) until
/// the test releases it — the shape of a lift waiting in the worker pool,
/// without the worker pool.
class HoldProtocol : public serve::SocketProtocol {
public:
  void onFrame(serve::SocketClient &Client, const std::string &Line) override {
    Client.beginRequest();
    std::lock_guard<std::mutex> Lock(Mutex);
    Held.push_back({Client.id(), Line});
  }

  void onDisconnect(serve::SocketClient &) override {}

  std::string rejectLine(serve::TransportReject Kind) override {
    return Kind == serve::TransportReject::ShuttingDown ? "reject:drain"
                                                        : "reject:other";
  }

  int heldCount() {
    std::lock_guard<std::mutex> Lock(Mutex);
    return static_cast<int>(Held.size());
  }

  /// Completes the oldest held request on the loop thread; false when none
  /// is held.
  bool releaseOne() {
    Entry E;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (Held.empty())
        return false;
      E = Held.front();
      Held.pop_front();
    }
    Server->post([this, E] {
      if (serve::SocketClient *C = Server->client(E.ClientId)) {
        // endRequest first: the moment send()'s bytes hit the wire the
        // test thread may read them and assert on stats().
        C->endRequest();
        C->send("done:" + E.Line);
      }
    });
    return true;
  }

  serve::SocketServer *Server = nullptr;

private:
  struct Entry {
    uint64_t ClientId = 0;
    std::string Line;
  };

  std::mutex Mutex;
  std::deque<Entry> Held;
};

/// Starts the loop on a background thread and joins it on scope exit (via
/// requestShutdown, which drains). Declare before any TestClient so clients
/// close first and the drain never waits on them.
class ServerThread {
public:
  ServerThread(serve::SocketProtocol &Protocol,
               serve::SocketServerOptions Options)
      : Server(Protocol, std::move(Options)) {
    std::string Error;
    Started = Server.start(Error);
    EXPECT_TRUE(Started) << Error;
    if (Started)
      Loop = std::thread([this] { RunResult = Server.run(); });
  }

  ~ServerThread() { stop(); }

  void stop() {
    if (Loop.joinable()) {
      Server.requestShutdown();
      Loop.join();
    }
  }

  int port() const { return Server.port(); }

  serve::SocketServer Server;
  int RunResult = -1;
  bool Started = false;

private:
  std::thread Loop;
};

serve::SocketServerOptions quickOptions() {
  serve::SocketServerOptions Options;
  Options.Host = "127.0.0.1";
  Options.Port = 0; // the kernel picks; parallel test jobs never collide
  return Options;
}

//===----------------------------------------------------------------------===//
// Transport (EchoProtocol / HoldProtocol)
//===----------------------------------------------------------------------===//

TEST(SocketServer, PortZeroResolvesToARealPort) {
  EchoProtocol Echo;
  ServerThread Srv(Echo, quickOptions());
  ASSERT_TRUE(Srv.Started);
  EXPECT_GT(Srv.port(), 0);
  EXPECT_LE(Srv.port(), 65535);
}

TEST(SocketServer, EchoRoundTripAndCounters) {
  EchoProtocol Echo;
  ServerThread Srv(Echo, quickOptions());
  TestClient C(Srv.port());
  ASSERT_TRUE(C.connected());

  C.sendLine("hello");
  EXPECT_EQ(C.readLine(), "echo:hello");
  C.sendLine("again");
  EXPECT_EQ(C.readLine(), "echo:again");

  serve::SocketServerStats Stats = Srv.Server.stats();
  EXPECT_EQ(Stats.Accepted, 1u);
  EXPECT_EQ(Stats.FramesIn, 2u);
  EXPECT_EQ(Stats.LinesOut, 2u);
  EXPECT_GT(Stats.BytesIn, 0u);
  EXPECT_GT(Stats.BytesOut, 0u);
}

TEST(SocketServer, PartialFramesReassemble) {
  EchoProtocol Echo;
  ServerThread Srv(Echo, quickOptions());
  TestClient C(Srv.port());
  ASSERT_TRUE(C.connected());

  // One frame in three writes, then two frames in one write: the split
  // points land inside and between frames and nothing may be lost.
  C.send("{\"par");
  sleepMs(30);
  C.send("tial\":");
  sleepMs(30);
  C.send("1}\n");
  EXPECT_EQ(C.readLine(), "echo:{\"partial\":1}");

  C.send("one\ntwo\n");
  EXPECT_EQ(C.readLine(), "echo:one");
  EXPECT_EQ(C.readLine(), "echo:two");
}

TEST(SocketServer, ConnectionLimitRefusesWithALine) {
  EchoProtocol Echo;
  serve::SocketServerOptions Options = quickOptions();
  Options.MaxConns = 1;
  ServerThread Srv(Echo, Options);

  TestClient A(Srv.port());
  ASSERT_TRUE(A.connected());
  // A round trip guarantees A is registered before B knocks.
  A.sendLine("sync");
  ASSERT_EQ(A.readLine(), "echo:sync");

  TestClient B(Srv.port());
  ASSERT_TRUE(B.connected()); // the backlog accepts; the loop refuses
  EXPECT_EQ(B.readLine(), "reject:conns");
  EXPECT_TRUE(B.reachedEof());
  EXPECT_EQ(Srv.Server.stats().Refused, 1u);

  // The admitted connection is unaffected.
  A.sendLine("still-here");
  EXPECT_EQ(A.readLine(), "echo:still-here");
}

TEST(SocketServer, WriteBackpressureStallsReadsThenResumes) {
  EchoProtocol Echo;
  // 32 MB dwarfs any socket-buffer pair, so the write buffer must cross
  // the high-water mark while the client refuses to read.
  Echo.BigBytes = 32u << 20;
  serve::SocketServerOptions Options = quickOptions();
  Options.WriteHighWater = 64u << 10;
  Options.WriteLowWater = 16u << 10;
  ServerThread Srv(Echo, Options);
  TestClient C(Srv.port());
  ASSERT_TRUE(C.connected());

  C.sendLine("big");
  ASSERT_TRUE(eventually([&] { return Echo.Frames.load() == 1; }));
  // Stall: the response cannot drain, so the server must stop reading —
  // this frame sits in the socket, unprocessed.
  C.sendLine("after-stall");
  sleepMs(300);
  EXPECT_EQ(Echo.Frames.load(), 1);

  // Resume: draining the big response pulls the write buffer below the
  // low-water mark, reads re-arm, and the parked frame is served.
  std::string Big = C.readLine();
  EXPECT_EQ(Big.size(), Echo.BigBytes);
  EXPECT_EQ(C.readLine(), "echo:after-stall");
  EXPECT_EQ(Echo.Frames.load(), 2);
}

TEST(SocketServer, FairnessCapParksAGreedyClient) {
  HoldProtocol Hold;
  serve::SocketServerOptions Options = quickOptions();
  Options.MaxInFlight = 2;
  ServerThread Srv(Hold, Options);
  Hold.Server = &Srv.Server;
  TestClient C(Srv.port());
  ASSERT_TRUE(C.connected());

  // Six pipelined requests against a cap of two. The gaps keep each frame
  // in its own read event; once two are in flight the transport stops
  // reading this client, so the rest wait in the socket, not in memory.
  for (int I = 0; I < 6; ++I) {
    C.sendLine("job" + std::to_string(I));
    sleepMs(30);
  }
  ASSERT_TRUE(eventually([&] { return Hold.heldCount() == 2; }));
  sleepMs(200);
  EXPECT_EQ(Hold.heldCount(), 2);
  EXPECT_EQ(Srv.Server.stats().InFlight, 2);

  // Each completion frees a fairness slot and the next parked frame is
  // read; all six finish, in order.
  int Released = 0;
  while (Released < 6) {
    if (Hold.releaseOne())
      ++Released;
    else
      sleepMs(10);
  }
  for (int I = 0; I < 6; ++I)
    EXPECT_EQ(C.readLine(), "done:job" + std::to_string(I));
  EXPECT_TRUE(eventually([&] { return Srv.Server.stats().InFlight == 0; }));
}

TEST(SocketServer, IdleTimeoutEvictsQuietConnections) {
  EchoProtocol Echo;
  serve::SocketServerOptions Options = quickOptions();
  Options.IdleTimeoutSeconds = 0.2;
  ServerThread Srv(Echo, Options);
  TestClient C(Srv.port());
  ASSERT_TRUE(C.connected());

  C.sendLine("warm");
  ASSERT_EQ(C.readLine(), "echo:warm");
  // Quiet past the budget: the server hangs up.
  EXPECT_TRUE(C.reachedEof());
  EXPECT_TRUE(
      eventually([&] { return Srv.Server.stats().IdleClosed == 1u; }));
  EXPECT_EQ(Srv.Server.stats().OpenConns, 0);
}

TEST(SocketServer, StalledPartialFrameEvicts) {
  EchoProtocol Echo;
  serve::SocketServerOptions Options = quickOptions();
  Options.FrameTimeoutSeconds = 0.2;
  ServerThread Srv(Echo, Options);
  TestClient C(Srv.port());
  ASSERT_TRUE(C.connected());

  C.send("half-a-frame-with-no-newline");
  EXPECT_TRUE(C.reachedEof()); // slow-loris eviction
  EXPECT_TRUE(
      eventually([&] { return Srv.Server.stats().FrameTimeouts == 1u; }));
  EXPECT_EQ(Echo.Frames.load(), 0);
}

TEST(SocketServer, OversizedFrameRejectsAndCloses) {
  EchoProtocol Echo;
  serve::SocketServerOptions Options = quickOptions();
  Options.MaxFrameBytes = 1024;
  ServerThread Srv(Echo, Options);
  TestClient C(Srv.port());
  ASSERT_TRUE(C.connected());

  C.send(std::string(4096, 'a')); // no newline inside the limit
  EXPECT_EQ(C.readLine(), "reject:frame");
  EXPECT_TRUE(C.reachedEof());
  EXPECT_EQ(Echo.Frames.load(), 0);
}

TEST(SocketServer, DrainCompletesInFlightAndRejectsNew) {
  HoldProtocol Hold;
  ServerThread Srv(Hold, quickOptions());
  Hold.Server = &Srv.Server;
  TestClient C(Srv.port());
  ASSERT_TRUE(C.connected());

  C.sendLine("in-flight");
  ASSERT_TRUE(eventually([&] { return Hold.heldCount() == 1; }));

  Srv.Server.requestShutdown();
  ASSERT_TRUE(eventually([&] { return Srv.Server.draining(); }));

  // The listener is gone: new connections fail outright.
  TestClient Late(Srv.port());
  EXPECT_TRUE(!Late.connected() || Late.reachedEof());

  // Frames after the drain began are refused, but the in-flight request
  // still completes and its response still flushes.
  C.sendLine("too-late");
  EXPECT_EQ(C.readLine(), "reject:drain");
  ASSERT_TRUE(Hold.releaseOne());
  EXPECT_EQ(C.readLine(), "done:in-flight");

  // With the last request settled the loop exits on its own.
  Srv.stop();
  EXPECT_EQ(Srv.RunResult, 0);
}

TEST(SocketServer, DrainClosesAlreadySettledClients) {
  // A client whose every request already completed and flushed produces no
  // further epoll events — if the drain doesn't sweep it immediately, the
  // loop parks in epoll_wait with no timer armed and never exits (the
  // SIGTERM soak caught exactly that: sub-millisecond cache hits settled
  // the batch before the signal was processed).
  EchoProtocol Echo;
  ServerThread Srv(Echo, quickOptions());
  TestClient C(Srv.port());
  ASSERT_TRUE(C.connected());

  C.sendLine("ping");
  EXPECT_EQ(C.readLine(), "echo:ping");

  Srv.Server.requestShutdown();
  // The server must close the settled connection on its own initiative.
  EXPECT_TRUE(C.reachedEof());
  Srv.stop();
  EXPECT_EQ(Srv.RunResult, 0);
}

//===----------------------------------------------------------------------===//
// Protocol stack (api::SocketService over api::Endpoint)
//===----------------------------------------------------------------------===//

/// The full serving stack on a kernel-picked port. Join order matters:
/// workers are joined (shutdown) before the transport or protocol go away,
/// since their Done callbacks post into both.
class StackFixture {
public:
  StackFixture() : StackFixture(config(), {}) {}

  StackFixture(serve::ServiceConfig Config, serve::OracleFactory Factory)
      : Lifter(std::move(Config), std::move(Factory)), Proto(Lifter),
        Srv(nullptr) {
    Srv = std::make_unique<ServerThread>(Proto, quickOptions());
    Proto.attach(Srv->Server);
  }

  ~StackFixture() {
    Srv->stop();
    Lifter.shutdown();
  }

  int port() const { return Srv->port(); }

  static serve::ServiceConfig config() {
    serve::ServiceConfig Config;
    Config.Threads = 2;
    Config.OracleSeed = 20250411;
    // Generous search budget: timeouts are machine-load dependent and
    // would make the assertions below flaky.
    Config.Config.Search.TimeoutSeconds = 30;
    return Config;
  }

  api::Endpoint Lifter;
  api::SocketService Proto;
  std::unique_ptr<ServerThread> Srv;
};

support::Json parsedEvent(const std::string &Line) {
  support::JsonParseResult Parsed = support::parseJson(Line);
  EXPECT_TRUE(Parsed.ok()) << Line;
  return Parsed.Value;
}

std::string eventKind(const support::Json &Event) {
  const support::Json *Kind = Event.find("event");
  return Kind && Kind->isString() ? Kind->asString() : "";
}

TEST(SocketService, V1OverTcpMatchesTheStdinDialect) {
  StackFixture Stack;
  TestClient C(Stack.port());
  ASSERT_TRUE(C.connected());

  C.sendLine("{\"v\":1,\"name\":\"art_copy\"}");
  std::string V1 = C.readLine();
  EXPECT_NE(V1.find("\"status\":\"ok\""), std::string::npos) << V1;
  EXPECT_NE(V1.find("\"name\":\"art_copy\""), std::string::npos) << V1;
  EXPECT_NE(V1.find("\"solved\":true"), std::string::npos) << V1;

  // The repeat is a cache hit.
  C.sendLine("{\"v\":1,\"name\":\"art_copy\"}");
  std::string Again = C.readLine();
  EXPECT_NE(Again.find("\"solved\":true"), std::string::npos) << Again;
  EXPECT_NE(Again.find("\"cached\":true"), std::string::npos) << Again;
}

TEST(SocketService, RemovedDialectAndKeysAnswerBadRequestInOrder) {
  StackFixture Stack;
  TestClient C(Stack.port());
  ASSERT_TRUE(C.connected());

  // A bare name is not a request, and the engine and thread-count keys are
  // not config keys. Each is answered with a v1 bad_request line in its
  // admission slot, and the connection goes on serving.
  C.sendLine("art_copy");
  for (const char *Key : {"use_vm", "use_vm_opt", "search_threads"})
    C.sendLine(std::string("{\"v\":1,\"name\":\"art_copy\",\"config\":{\"") +
               Key + "\":1}}");
  C.sendLine("{\"v\":1,\"name\":\"art_copy\"}");

  support::Json Bare = parsedEvent(C.readLine());
  EXPECT_EQ(Bare.find("v")->asInteger(), 1);
  EXPECT_EQ(Bare.find("status")->asString(), "bad_request");
  for (const char *Key : {"use_vm", "use_vm_opt", "search_threads"}) {
    support::Json Refused = parsedEvent(C.readLine());
    EXPECT_EQ(Refused.find("status")->asString(), "bad_request");
    EXPECT_EQ(Refused.find("error")->asString(),
              std::string("unknown config key \"") + Key + "\"");
  }
  std::string Served = C.readLine();
  EXPECT_NE(Served.find("\"solved\":true"), std::string::npos) << Served;
}

TEST(SocketService, HugeUnknownNameDoesNotStallOtherConnections) {
  StackFixture Stack;
  TestClient Bystander(Stack.port());
  TestClient Hostile(Stack.port());
  ASSERT_TRUE(Bystander.connected());
  ASSERT_TRUE(Hostile.connected());

  // A 1.5 MB registry name: the "did you mean" lookup runs on the loop
  // thread, so its cost must not grow with the name. An unbounded lookup
  // stalls the loop for seconds at this size, while the frame's linear
  // parse and render stay far below the bound even under TSan.
  const std::string Name(1500000, 'y');
  Hostile.sendLine("{\"v\":2,\"id\":1,\"requests\":[{\"name\":\"" + Name +
                   "\"}]}");
  ASSERT_TRUE(eventually(
      [&] { return Stack.Srv->Server.stats().FramesIn >= 1; }));

  auto Start = std::chrono::steady_clock::now();
  Bystander.sendLine("{\"v\":2,\"stats\":true}");
  support::Json Stats = parsedEvent(Bystander.readLine());
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_EQ(eventKind(Stats), "stats");
  EXPECT_LT(Seconds, 1.0) << "the loop stalled behind the hostile frame";

  support::Json Response = parsedEvent(Hostile.readLine());
  EXPECT_EQ(eventKind(Response), "response");
  EXPECT_EQ(Response.find("response")->find("status")->asString(),
            "unknown_benchmark");
}

TEST(SocketService, PipelinedRequestsAnswerInOrder) {
  StackFixture Stack;
  TestClient C(Stack.port());
  ASSERT_TRUE(C.connected());

  std::vector<std::string> Names = {"art_copy", "art_add", "art_scale",
                                    "art_copy"};
  for (const std::string &Name : Names)
    C.sendLine("{\"v\":1,\"name\":\"" + Name + "\"}");
  for (const std::string &Name : Names) {
    std::string Line = C.readLine();
    EXPECT_NE(Line.find("\"name\":\"" + Name + "\""), std::string::npos)
        << "expected " << Name << " got " << Line;
  }
}

TEST(SocketService, V2BatchStreamsProgressResponsesThenDone) {
  StackFixture Stack;
  TestClient C(Stack.port());
  ASSERT_TRUE(C.connected());

  C.sendLine("{\"v\":2,\"id\":42,\"progress\":true,\"requests\":["
             "{\"name\":\"art_copy\"},{\"name\":\"art_add\"},"
             "{\"name\":\"definitely_not_registered\"}]}");

  std::vector<support::Json> Events;
  bool SawDone = false;
  while (!SawDone) {
    std::string Line = C.readLine();
    ASSERT_FALSE(Line.empty()) << "stream ended before the done event";
    support::Json Event = parsedEvent(Line);
    const support::Json *Id = Event.find("id");
    ASSERT_NE(Id, nullptr) << Line;
    EXPECT_EQ(Id->asInteger(), 42) << Line;
    SawDone = eventKind(Event) == "done";
    Events.push_back(std::move(Event));
  }

  // Responses arrive in request order, each wrapping a full v1 response
  // object; the registry miss travels as a response, not a frame error.
  std::vector<int> ResponseSeqs;
  int Progress = 0;
  for (const support::Json &Event : Events) {
    if (eventKind(Event) == "response") {
      ResponseSeqs.push_back(
          static_cast<int>(Event.find("seq")->asInteger()));
      const support::Json *Body = Event.find("response");
      ASSERT_NE(Body, nullptr);
      EXPECT_TRUE(Body->find("status") != nullptr);
    }
    if (eventKind(Event) == "progress") {
      ++Progress;
      EXPECT_TRUE(Event.find("phase")->isString());
    }
  }
  EXPECT_EQ(ResponseSeqs, (std::vector<int>{0, 1, 2}));
  // Every admitted member reports at least queued + ingested.
  EXPECT_GE(Progress, 4);
  EXPECT_EQ(eventKind(Events.back()), "done");
  EXPECT_EQ(Events.back().find("completed")->asInteger(), 3);

  // The registry miss carries its v1 status through the wrapper.
  bool SawUnknown = false;
  for (const support::Json &Event : Events)
    if (eventKind(Event) == "response" &&
        Event.find("seq")->asInteger() == 2) {
      const support::Json *St = Event.find("response")->find("status");
      ASSERT_NE(St, nullptr);
      EXPECT_EQ(St->asString(), "unknown_benchmark");
      SawUnknown = true;
    }
  EXPECT_TRUE(SawUnknown);
}

TEST(SocketService, EmptyBatchCompletesImmediately) {
  StackFixture Stack;
  TestClient C(Stack.port());
  ASSERT_TRUE(C.connected());

  C.sendLine("{\"v\":2,\"id\":\"empty\",\"requests\":[]}");
  support::Json Done = parsedEvent(C.readLine());
  EXPECT_EQ(eventKind(Done), "done");
  EXPECT_EQ(Done.find("completed")->asInteger(), 0);
  EXPECT_EQ(Done.find("id")->asString(), "empty");
}

TEST(SocketService, MalformedV2FrameIsAnErrorEventNotADisconnect) {
  StackFixture Stack;
  TestClient C(Stack.port());
  ASSERT_TRUE(C.connected());

  C.sendLine("{\"v\":2,\"id\":1}"); // neither requests nor stats
  support::Json Error = parsedEvent(C.readLine());
  EXPECT_EQ(eventKind(Error), "error");
  ASSERT_NE(Error.find("error"), nullptr);

  // The session survives the bad frame.
  C.sendLine("{\"v\":1,\"name\":\"art_copy\"}");
  EXPECT_NE(C.readLine().find("\"status\":\"ok\""), std::string::npos);
}

TEST(SocketService, ExecuteFrameRunsTheLiftedProgramOnPostedInputs) {
  StackFixture Stack;
  TestClient C(Stack.port());
  ASSERT_TRUE(C.connected());

  // Lift + execute in one frame: the output tensor streams back.
  C.sendLine("{\"v\":2,\"id\":9,\"execute\":{\"name\":\"art_add\","
             "\"sizes\":{\"N\":3},"
             "\"inputs\":{\"a\":[1,2,3],\"b\":[10,20,30]}}}");
  support::Json Result = parsedEvent(C.readLine());
  EXPECT_EQ(eventKind(Result), "result");
  ASSERT_NE(Result.find("id"), nullptr);
  EXPECT_EQ(Result.find("id")->asInteger(), 9);
  ASSERT_NE(Result.find("status"), nullptr);
  ASSERT_EQ(Result.find("status")->asString(), "ok");
  const support::Json *Data = Result.find("data");
  ASSERT_NE(Data, nullptr);
  ASSERT_EQ(Data->items().size(), 3u);
  EXPECT_EQ(Data->items()[0].asNumber(), 11.0);
  EXPECT_EQ(Data->items()[1].asNumber(), 22.0);
  EXPECT_EQ(Data->items()[2].asNumber(), 33.0);
  const support::Json *Shape = Result.find("shape");
  ASSERT_NE(Shape, nullptr);
  ASSERT_EQ(Shape->items().size(), 1u);
  EXPECT_EQ(Shape->items()[0].asInteger(), 3);
  EXPECT_NE(Result.find("expr"), nullptr);

  // Re-executing answers from the result cache with the new inputs.
  C.sendLine("{\"v\":2,\"execute\":{\"name\":\"art_add\","
             "\"sizes\":{\"N\":2},"
             "\"inputs\":{\"a\":[5,6],\"b\":[1,1]}}}");
  support::Json Again = parsedEvent(C.readLine());
  EXPECT_EQ(eventKind(Again), "result");
  EXPECT_EQ(Again.find("id"), nullptr); // no id posted, none echoed
  ASSERT_NE(Again.find("cached"), nullptr);
  EXPECT_TRUE(Again.find("cached")->asBool());
  ASSERT_NE(Again.find("data"), nullptr);
  ASSERT_EQ(Again.find("data")->items().size(), 2u);
  EXPECT_EQ(Again.find("data")->items()[0].asNumber(), 6.0);
  EXPECT_EQ(Again.find("data")->items()[1].asNumber(), 7.0);

  // Bad inputs answer as a result error event on a surviving session.
  C.sendLine("{\"v\":2,\"id\":10,\"execute\":{\"name\":\"art_add\","
             "\"sizes\":{\"N\":3},\"inputs\":{\"a\":[1]}}}");
  support::Json Bad = parsedEvent(C.readLine());
  EXPECT_EQ(eventKind(Bad), "result");
  ASSERT_NE(Bad.find("status"), nullptr);
  EXPECT_EQ(Bad.find("status")->asString(), "error");
  ASSERT_NE(Bad.find("error"), nullptr);
  EXPECT_NE(Bad.find("error")->asString().find("expected"),
            std::string::npos);

  // An execute frame may not also carry a batch.
  C.sendLine("{\"v\":2,\"requests\":[],"
             "\"execute\":{\"name\":\"art_add\"}}");
  support::Json Err = parsedEvent(C.readLine());
  EXPECT_EQ(eventKind(Err), "error");

  // Malformed inputs are frame errors too (negative size).
  C.sendLine("{\"v\":2,\"execute\":{\"name\":\"art_add\","
             "\"sizes\":{\"N\":-1}}}");
  EXPECT_EQ(eventKind(parsedEvent(C.readLine())), "error");

  C.sendLine("{\"v\":1,\"name\":\"art_copy\"}");
  EXPECT_NE(C.readLine().find("\"status\":\"ok\""), std::string::npos);
}

TEST(SocketService, ExecuteSizeBombsAnswerAsResultErrorsWithoutAllocating) {
  StackFixture Stack;
  TestClient C(Stack.port());
  ASSERT_TRUE(C.connected());

  // Merely-large sizes (over the cells cap, far under any overflow): the
  // request must answer with a result error instead of a multi-GB
  // zero-fill that would bad_alloc the server.
  C.sendLine("{\"v\":2,\"id\":1,\"execute\":{\"name\":\"art_add\","
             "\"sizes\":{\"N\":100000000000}}}");
  support::Json Large = parsedEvent(C.readLine());
  EXPECT_EQ(eventKind(Large), "result");
  ASSERT_NE(Large.find("status"), nullptr);
  EXPECT_EQ(Large.find("status")->asString(), "error");
  ASSERT_NE(Large.find("error"), nullptr);
  EXPECT_NE(Large.find("error")->asString().find("max-execute-cells"),
            std::string::npos)
      << Large.find("error")->asString();

  // Overflowing sizes on a 2-D argument: 2^32 * 2^32 wraps an unchecked
  // int64 product to 0 — an empty buffer the interpreter would then write
  // a full shape-odometer of cells into. The checked product refuses it.
  C.sendLine("{\"v\":2,\"id\":2,\"execute\":{\"name\":\"art_transpose\","
             "\"sizes\":{\"N\":4294967296,\"M\":4294967296}}}");
  support::Json Wrap = parsedEvent(C.readLine());
  EXPECT_EQ(eventKind(Wrap), "result");
  ASSERT_NE(Wrap.find("status"), nullptr);
  EXPECT_EQ(Wrap.find("status")->asString(), "error");
  ASSERT_NE(Wrap.find("error"), nullptr);
  EXPECT_NE(Wrap.find("error")->asString().find("overflowing"),
            std::string::npos)
      << Wrap.find("error")->asString();

  // An unknown config key, here one asking for a thread per output row,
  // refuses the frame before anything is allocated or spawned.
  C.sendLine("{\"v\":2,\"id\":3,\"execute\":{\"name\":\"art_add\","
             "\"sizes\":{\"N\":1000000},"
             "\"config\":{\"execute_threads\":2147483647}}}");
  support::Json Threads = parsedEvent(C.readLine());
  EXPECT_EQ(eventKind(Threads), "error");
  ASSERT_NE(Threads.find("error"), nullptr);
  EXPECT_EQ(Threads.find("error")->asString(),
            "unknown config key \"execute_threads\"");

  // The session survives every refusal and still executes normally.
  C.sendLine("{\"v\":2,\"id\":4,\"execute\":{\"name\":\"art_add\","
             "\"sizes\":{\"N\":2},\"inputs\":{\"a\":[1,2],\"b\":[3,4]}}}");
  support::Json Ok = parsedEvent(C.readLine());
  EXPECT_EQ(eventKind(Ok), "result");
  ASSERT_NE(Ok.find("status"), nullptr);
  EXPECT_EQ(Ok.find("status")->asString(), "ok");
}

TEST(SocketService, StatsEventReportsAllThreeLayers) {
  StackFixture Stack;
  TestClient C(Stack.port());
  ASSERT_TRUE(C.connected());

  C.sendLine("{\"v\":1,\"name\":\"art_copy\"}");
  ASSERT_FALSE(C.readLine().empty());

  // Two identical executes: the first compiles the lifted program into
  // the VM cache (a miss), the second is served from it (a hit).
  for (int I = 0; I < 2; ++I) {
    C.sendLine("{\"v\":2,\"id\":70,\"execute\":{\"name\":\"art_add\","
               "\"sizes\":{\"N\":2},\"inputs\":{\"a\":[1,2],"
               "\"b\":[10,20]}}}");
    support::Json Result = parsedEvent(C.readLine());
    ASSERT_EQ(eventKind(Result), "result") << Result.dump();
  }

  C.sendLine("{\"v\":2,\"stats\":true}");
  support::Json Stats = parsedEvent(C.readLine());
  EXPECT_EQ(eventKind(Stats), "stats");

  const support::Json *Server = Stats.find("server");
  ASSERT_NE(Server, nullptr);
  EXPECT_EQ(Server->find("open_conns")->asInteger(), 1);
  EXPECT_GE(Server->find("frames_in")->asInteger(), 2);
  EXPECT_FALSE(Server->find("draining")->asBool());

  const support::Json *Service = Stats.find("service");
  ASSERT_NE(Service, nullptr);
  EXPECT_EQ(Service->find("threads")->asInteger(), 2);
  EXPECT_GE(Service->find("queue_depth")->asInteger(), 1);

  const support::Json *Cache = Stats.find("cache");
  ASSERT_NE(Cache, nullptr);
  EXPECT_GE(Cache->find("misses")->asInteger(), 1);
  EXPECT_NE(Cache->find("hit_rate"), nullptr);

  // The fourth layer: the execute path's compiled-program cache.
  const support::Json *VmCache = Stats.find("vm_cache");
  ASSERT_NE(VmCache, nullptr);
  EXPECT_EQ(VmCache->find("misses")->asInteger(), 1);
  EXPECT_EQ(VmCache->find("hits")->asInteger(), 1);
  EXPECT_EQ(VmCache->find("evictions")->asInteger(), 0);
  EXPECT_EQ(VmCache->find("entries")->asInteger(), 1);
  EXPECT_EQ(VmCache->find("capacity")->asInteger(), 256);
}

TEST(SocketService, DisconnectMidRequestDropsTheSessionCleanly) {
  StackFixture Stack;
  {
    TestClient C(Stack.port());
    ASSERT_TRUE(C.connected());
    // A batch is admitted, then the client vanishes before any response
    // can flush. The completions must find no session and drop silently.
    C.sendLine("{\"v\":2,\"id\":9,\"requests\":[{\"name\":\"art_dot\"},"
               "{\"name\":\"art_transpose\"}]}");
  }
  ASSERT_TRUE(eventually(
      [&] { return Stack.Srv->Server.stats().OpenConns == 0; }));
  ASSERT_TRUE(eventually(
      [&] { return Stack.Srv->Server.stats().InFlight == 0; }));

  // The server keeps serving; the orphaned work even warmed the cache.
  TestClient D(Stack.port());
  ASSERT_TRUE(D.connected());
  D.sendLine("{\"v\":1,\"name\":\"art_dot\"}");
  std::string Line = D.readLine();
  EXPECT_NE(Line.find("\"status\":\"ok\""), std::string::npos) << Line;
}

/// Blocks every propose() until the shared gate opens — a lift pinned in
/// the worker pool for as long as the test wants.
struct OracleGate {
  std::mutex Mutex;
  std::condition_variable Cv;
  bool Open = false;

  void release() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Open = true;
    }
    Cv.notify_all();
  }

  void wait() {
    std::unique_lock<std::mutex> Lock(Mutex);
    Cv.wait(Lock, [this] { return Open; });
  }
};

/// Holds propose() at the gate for the kernel named Only, or for every
/// kernel when Only is empty.
class GatedOracle : public llm::CandidateOracle {
public:
  GatedOracle(uint64_t Seed, std::shared_ptr<OracleGate> Gate,
              std::string Only = "")
      : Inner(Seed), Gate(std::move(Gate)), Only(std::move(Only)) {}

  std::vector<std::string> propose(const llm::OracleTask &Task) override {
    if (Only.empty() || Task.Query->Name == Only)
      Gate->wait();
    return Inner.propose(Task);
  }

private:
  llm::SimulatedLlm Inner;
  std::shared_ptr<OracleGate> Gate;
  std::string Only;
};

/// Opens the gate on scope exit: failed ASSERTs return early, and the
/// fixture's shutdown still needs the worker released. Declare it after
/// the StackFixture so it runs first.
struct GateReleaser {
  std::shared_ptr<OracleGate> Gate;
  ~GateReleaser() { Gate->release(); }
};

TEST(SocketService, OrphanedCompletionRevivesAStalledBacklog) {
  // One worker and a one-slot queue, both pinned by a gated oracle: client
  // A fills them and disconnects, so the service is saturated by requests
  // whose session is gone. Client B's request then finds the queue full and
  // waits in its session backlog. The only wakeups B will ever get are the
  // orphans' completions — they must pump stalled backlogs even though
  // their own session lookup fails, or B hangs forever.
  auto Gate = std::make_shared<OracleGate>();
  serve::ServiceConfig Config = StackFixture::config();
  Config.Threads = 1;
  Config.Config.Serve.QueueDepth = 1;
  StackFixture Stack(Config, [Gate](uint64_t Seed) {
    return std::make_unique<GatedOracle>(Seed, Gate);
  });
  GateReleaser ReleaseOnExit{Gate};

  {
    TestClient A(Stack.port());
    ASSERT_TRUE(A.connected());
    // Distinct uncached names: a cache hit would bypass the gated oracle.
    // One at a time — the second may only go out once the worker holds the
    // first (queue empty again), or it would land in the backlog instead
    // of the queue slot and the setup itself would stall.
    A.sendLine("{\"v\":1,\"name\":\"art_copy\"}");
    ASSERT_TRUE(eventually([&] {
      return Stack.Srv->Server.stats().InFlight == 1 &&
             Stack.Lifter.queueLength() == 0;
    }));
    A.sendLine("{\"v\":1,\"name\":\"art_add\"}");
    ASSERT_TRUE(eventually([&] {
      return Stack.Srv->Server.stats().InFlight == 2 &&
             Stack.Lifter.queueLength() == 1;
    }));
  } // A vanishes; both its lifts are now orphans

  TestClient B(Stack.port());
  ASSERT_TRUE(B.connected());
  B.sendLine("{\"v\":2,\"id\":9,\"requests\":[{\"name\":\"art_dot\"}]}");
  // B's frame is admitted (FramesIn counts it) but cannot reach the full
  // queue; it parks in the backlog before the gate opens.
  ASSERT_TRUE(eventually(
      [&] { return Stack.Srv->Server.stats().FramesIn == 3; }));

  Gate->release();

  std::string Line = B.readLine();
  ASSERT_FALSE(Line.empty()) << "backlogged request was never revived";
  support::Json Event = parsedEvent(Line);
  EXPECT_EQ(eventKind(Event), "response") << Line;
  EXPECT_NE(Line.find("\"name\":\"art_dot\""), std::string::npos) << Line;
  std::string Done = B.readLine();
  EXPECT_EQ(eventKind(parsedEvent(Done)), "done") << Done;
}

TEST(SocketService, ExecuteThenDisconnectSettlesCleanly) {
  // The execute's lift is pinned at the gate while its client vanishes, so
  // the evaluation and the rendered line finish for a session that is gone.
  // The completion must drop the line without touching the transport's
  // in-flight count a second time, and the server must keep executing.
  auto Gate = std::make_shared<OracleGate>();
  serve::ServiceConfig Config = StackFixture::config();
  Config.Threads = 1;
  StackFixture Stack(Config, [Gate](uint64_t Seed) {
    return std::make_unique<GatedOracle>(Seed, Gate);
  });
  GateReleaser ReleaseOnExit{Gate};
  const std::string Execute =
      "{\"v\":2,\"id\":5,\"execute\":{\"name\":\"art_add\","
      "\"sizes\":{\"N\":2},\"inputs\":{\"a\":[1,2],\"b\":[3,4]}}}";

  {
    TestClient A(Stack.port());
    ASSERT_TRUE(A.connected());
    A.sendLine(Execute);
    ASSERT_TRUE(eventually(
        [&] { return Stack.Srv->Server.stats().InFlight == 1; }));
  } // A vanishes before its result lands
  ASSERT_TRUE(eventually(
      [&] { return Stack.Srv->Server.stats().OpenConns == 0; }));
  Gate->release();

  // One worker settles requests in order, so the orphan's line has been
  // dropped by the time the new client's answer arrives.
  TestClient B(Stack.port());
  ASSERT_TRUE(B.connected());
  B.sendLine(Execute);
  support::Json Result = parsedEvent(B.readLine());
  EXPECT_EQ(eventKind(Result), "result") << Result.dump();
  ASSERT_NE(Result.find("status"), nullptr);
  EXPECT_EQ(Result.find("status")->asString(), "ok");
  ASSERT_NE(Result.find("data"), nullptr);
  ASSERT_EQ(Result.find("data")->items().size(), 2u);
  EXPECT_EQ(Result.find("data")->items()[0].asNumber(), 4.0);
  EXPECT_EQ(Result.find("data")->items()[1].asNumber(), 6.0);
  EXPECT_TRUE(eventually(
      [&] { return Stack.Srv->Server.stats().InFlight == 0; }));
  EXPECT_EQ(Stack.Srv->Server.stats().InFlight, 0);
}

TEST(SocketService, LiftsAndExecutesAnswerInAdmissionOrder) {
  // One connection pipelines a slow v1 lift, an execute whose admission
  // fails at once, and an execute served from the cache. The later two
  // settle while the first is still pinned at the gate; every line still
  // leaves in admission order.
  auto Gate = std::make_shared<OracleGate>();
  StackFixture Stack(StackFixture::config(), [Gate](uint64_t Seed) {
    return std::make_unique<GatedOracle>(Seed, Gate, "art_dot");
  });
  GateReleaser ReleaseOnExit{Gate};
  TestClient C(Stack.port());
  ASSERT_TRUE(C.connected());

  const std::string Cached =
      "{\"v\":2,\"id\":3,\"execute\":{\"name\":\"art_add\","
      "\"sizes\":{\"N\":2},\"inputs\":{\"a\":[1,2],\"b\":[3,4]}}}";
  C.sendLine(Cached); // primes the result cache
  support::Json Primed = parsedEvent(C.readLine());
  ASSERT_EQ(Primed.find("status")->asString(), "ok") << Primed.dump();
  ASSERT_EQ(Stack.Lifter.cacheStats().Hits, 0u);

  C.sendLine("{\"v\":1,\"name\":\"art_dot\"}");
  C.sendLine("{\"v\":2,\"id\":2,\"execute\":{\"name\":\"no_such_kernel\","
             "\"sizes\":{\"N\":2}}}");
  C.sendLine(Cached);
  // The cached execute has been served while the lift ahead of it waits.
  ASSERT_TRUE(
      eventually([&] { return Stack.Lifter.cacheStats().Hits == 1; }));
  Gate->release();

  std::string First = C.readLine();
  EXPECT_NE(First.find("\"status\":\"ok\""), std::string::npos) << First;
  EXPECT_NE(First.find("\"name\":\"art_dot\""), std::string::npos)
      << First;

  support::Json Unknown = parsedEvent(C.readLine());
  EXPECT_EQ(eventKind(Unknown), "result") << Unknown.dump();
  EXPECT_EQ(Unknown.find("id")->asInteger(), 2);
  EXPECT_EQ(Unknown.find("status")->asString(), "error");
  ASSERT_NE(Unknown.find("error"), nullptr);
  EXPECT_NE(Unknown.find("error")->asString().find("unknown benchmark"),
            std::string::npos)
      << Unknown.dump();

  support::Json Hit = parsedEvent(C.readLine());
  EXPECT_EQ(eventKind(Hit), "result") << Hit.dump();
  EXPECT_EQ(Hit.find("id")->asInteger(), 3);
  EXPECT_EQ(Hit.find("status")->asString(), "ok");
  ASSERT_NE(Hit.find("cached"), nullptr);
  EXPECT_TRUE(Hit.find("cached")->asBool());
}

} // namespace

#else // !__linux__

TEST(SocketServer, RequiresLinux) {
  GTEST_SKIP() << "the socket transport is epoll-based (Linux only)";
}

#endif // __linux__
