//===- serve/SocketServer.h - Epoll socket transport ------------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The network transport of `stagg serve --listen`: a single-threaded epoll
/// event loop driving non-blocking TCP connections with explicit buffer and
/// backpressure discipline (modeled on the freebsd_network compat stack's
/// ring-buffer handling): per-connection read/write byte rings, a
/// high-water mark that stops *reading* a client whose responses it is not
/// draining, per-client in-flight fairness caps, a connection limit, and
/// idle / stalled-partial-frame timeouts.
///
/// The transport knows nothing about JSON or lifting. It splits the byte
/// stream into newline-delimited frames and hands each to a SocketProtocol
/// (api::SocketService implements the real one over api::Endpoint) — the
/// layering mirrors the rest of the system: serve owns scheduling and
/// backpressure, api owns the protocol. Lift work, and the evaluation of
/// execute frames, runs on the api::Endpoint worker pool; the worker
/// that settles a request renders its line and hands only that back to the
/// loop through post(), which queues a closure and wakes the loop via an
/// eventfd. Everything else runs on the loop thread — per-connection state
/// needs no locks. post() may still be called after run() returned (a
/// lift orphaned by a disconnect can settle after the drain); the closure
/// is then dropped with the server, so the pool must be joined before the
/// server is destroyed.
///
/// Graceful shutdown (SIGTERM via signalShutdown(), or requestShutdown()):
/// the listener closes, frames received after the drain began are rejected
/// with a shutting_down line, in-flight requests run to completion, every
/// write buffer flushes, and run() returns once the last connection is
/// gone.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_SERVE_SOCKETSERVER_H
#define STAGG_SERVE_SOCKETSERVER_H

#include "support/Fd.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace stagg {
namespace serve {

/// Transport-level tuning. The defaults suit a local service; the CLI maps
/// --listen / --max-conns / --max-inflight / --idle-timeout onto the
/// fields that need exposing.
struct SocketServerOptions {
  /// IPv4 address to bind ("127.0.0.1", "0.0.0.0").
  std::string Host = "127.0.0.1";

  /// TCP port; 0 asks the kernel for a free one (the port-0 convention all
  /// networked tests use so parallel ctest jobs never collide). The
  /// resolved port is SocketServer::port() after start().
  int Port = 0;

  /// Connection limit: an accept beyond it gets one refusal line and an
  /// immediate close.
  int MaxConns = 64;

  /// Per-connection fairness cap: at most this many requests per client
  /// may be admitted-or-parsed at once. A greedy client pipelining hundreds
  /// of frames is simply not read past this point, so its bytes sit in its
  /// own socket buffer instead of starving other clients' admissions.
  int MaxInFlight = 8;

  /// Close a connection with no traffic and no outstanding work after this
  /// many seconds (0 disables).
  double IdleTimeoutSeconds = 300;

  /// Close a connection that leaves a frame *partially* sent for this many
  /// seconds (0 disables) — the request-level timeout that evicts stalled
  /// or slow-loris senders without touching well-behaved idle keepalives.
  double FrameTimeoutSeconds = 30;

  /// A single frame larger than this is a protocol violation: one
  /// rejection line, then close (there is no way to resync mid-frame).
  size_t MaxFrameBytes = 4u << 20;

  /// Backpressure: stop reading a connection whose write buffer holds at
  /// least HighWater bytes; resume once it drains below LowWater.
  size_t WriteHighWater = 1u << 20;
  size_t WriteLowWater = 64u << 10;

  /// One progress line per accept/close on stderr.
  bool Verbose = false;
};

/// Transport counters, readable from any thread while the loop runs.
struct SocketServerStats {
  uint64_t Accepted = 0;      ///< Connections admitted.
  uint64_t Refused = 0;       ///< Accepts rejected at MaxConns.
  uint64_t FramesIn = 0;      ///< Complete frames handed to the protocol.
  uint64_t LinesOut = 0;      ///< Response lines queued.
  uint64_t BytesIn = 0;
  uint64_t BytesOut = 0;
  uint64_t IdleClosed = 0;    ///< Evicted by the idle timeout.
  uint64_t FrameTimeouts = 0; ///< Evicted by the partial-frame timeout.
  uint64_t Disconnects = 0;   ///< Peer-initiated closes (incl. mid-request).
  int OpenConns = 0;
  int InFlight = 0;           ///< Admitted lift requests not yet answered.
  bool Draining = false;
};

/// FIFO byte buffer with an explicit consumed head: appends go to the
/// tail, the transport consumes from the head, and storage is compacted
/// once the dead prefix dominates — O(1) amortized, no per-chunk
/// allocation churn on partial writes.
class ByteRing {
public:
  void append(const char *Data, size_t N) { Buf.append(Data, N); }
  void append(const std::string &Data) { Buf.append(Data); }

  const char *data() const { return Buf.data() + Head; }
  size_t size() const { return Buf.size() - Head; }
  bool empty() const { return size() == 0; }

  void consume(size_t N) {
    Head += N;
    if (Head >= Buf.size()) {
      Buf.clear();
      Head = 0;
    } else if (Head > 4096 && Head > Buf.size() / 2) {
      Buf.erase(0, Head);
      Head = 0;
    }
  }

  void clear() {
    Buf.clear();
    Head = 0;
  }

private:
  std::string Buf;
  size_t Head = 0;
};

class SocketServer;

/// One accepted connection, as the protocol sees it. All methods are
/// loop-thread only — completions reach the loop via SocketServer::post
/// and look the client up by id (a disconnected client is simply gone).
class SocketClient {
public:
  uint64_t id() const { return Id; }

  /// Queues \p Line plus a newline on the write buffer and flushes
  /// opportunistically.
  void send(std::string Line);

  /// Admitted-request accounting (drives the fairness cap and drain).
  void beginRequest();
  void endRequest();
  int inFlight() const { return InFlight; }

  /// Parsed-but-not-yet-admitted backlog accounting (requests waiting for
  /// service-queue room still hold their fairness slot).
  void notePending(int Delta) { Pending += Delta; }
  int pending() const { return Pending; }

  /// Asks the transport to close this connection once its write buffer has
  /// flushed.
  void requestClose() { CloseAfterFlush = true; }

private:
  friend class SocketServer;
  using Clock = std::chrono::steady_clock;

  SocketServer *Server = nullptr;
  support::UniqueFd Fd;
  uint64_t Id = 0;
  ByteRing ReadBuf;
  ByteRing WriteBuf;
  int InFlight = 0;
  int Pending = 0;
  bool CloseAfterFlush = false;
  bool ReadPaused = false;  ///< Mirror of the registered epoll interest.
  bool WriteArmed = false;
  Clock::time_point LastActivity;
  /// Set while ReadBuf holds an incomplete frame (FrameTimeoutSeconds).
  Clock::time_point PartialSince;
  bool HasPartial = false;
};

/// Transport-level rejections the protocol renders into wire lines.
enum class TransportReject {
  TooManyConnections, ///< Accept beyond MaxConns.
  FrameTooLarge,      ///< A frame exceeded MaxFrameBytes.
  ShuttingDown,       ///< A frame arrived after the drain began.
};

/// What the transport delegates: frame handling and the wire spelling of
/// its rejections. Implemented by api::SocketService.
class SocketProtocol {
public:
  virtual ~SocketProtocol() = default;

  /// One complete frame (newline stripped), on the loop thread.
  virtual void onFrame(SocketClient &Client, const std::string &Line) = 0;

  /// The connection is going away (peer close, timeout, error, or drain
  /// completion); drop any session state keyed on Client.id().
  virtual void onDisconnect(SocketClient &Client) = 0;

  /// One response line (no newline) for a transport-level rejection.
  virtual std::string rejectLine(TransportReject Kind) = 0;
};

/// The epoll event loop.
class SocketServer {
public:
  SocketServer(SocketProtocol &Protocol, SocketServerOptions Options);
  ~SocketServer();

  SocketServer(const SocketServer &) = delete;
  SocketServer &operator=(const SocketServer &) = delete;

  /// Binds and listens. On failure returns false and sets \p Error. After
  /// success port() is the resolved (possibly kernel-picked) port.
  bool start(std::string &Error);
  int port() const { return BoundPort; }

  /// Runs the loop until a requested shutdown has fully drained. Returns 0
  /// on a clean exit, 1 on a structural failure (epoll setup).
  int run();

  /// Thread-safe drain trigger.
  void requestShutdown();

  /// Async-signal-safe drain trigger for SIGTERM/SIGINT handlers: writes
  /// to the running server's wake eventfd. No-op when no server runs.
  static void signalShutdown();

  /// Queues \p Task for execution on the loop thread and wakes the loop.
  /// Thread-safe; the workers' completion hand-off.
  void post(std::function<void()> Task);

  /// Looks a client up by id; null once it disconnected.
  SocketClient *client(uint64_t Id);

  SocketServerStats stats() const;
  bool draining() const { return Draining.load(std::memory_order_relaxed); }

  const SocketServerOptions &options() const { return Options; }

private:
  friend class SocketClient;
  using Clock = std::chrono::steady_clock;

  void acceptReady();
  void readable(SocketClient &Client);
  void writable(SocketClient &Client);
  /// Flushes what the socket accepts right now; false on a fatal error.
  bool writeSome(SocketClient &Client);
  /// Splits ReadBuf into frames and dispatches them.
  void dispatchFrames(SocketClient &Client);
  /// Recomputes and re-registers the client's epoll interest set.
  void updateInterest(SocketClient &Client);
  void destroyClient(uint64_t Id);
  void beginDrain();
  /// Closes drained connections; during a drain, a client with no work and
  /// an empty write buffer is done.
  void sweep();
  /// Epoll timeout until the nearest idle/partial-frame deadline (ms).
  int nextTimeoutMs() const;
  void runPosted();
  void log(const std::string &Message);

  SocketProtocol &Protocol;
  SocketServerOptions Options;

  support::UniqueFd ListenFd;
  support::UniqueFd WakeFd;
  support::UniqueFd EpollFd;
  int BoundPort = 0;

  std::map<uint64_t, std::unique_ptr<SocketClient>> Clients;
  uint64_t NextId = 16; ///< 0/1 are reserved for the listen/wake fds.

  std::mutex PostMutex;
  std::deque<std::function<void()>> Posted;

  std::atomic<bool> ShutdownRequested{false};
  std::atomic<bool> Draining{false};
  std::atomic<bool> Running{false};

  /// Counters (loop writes, any thread reads).
  std::atomic<uint64_t> Accepted{0}, Refused{0}, FramesIn{0}, LinesOut{0},
      BytesIn{0}, BytesOut{0}, IdleClosed{0}, FrameTimeouts{0},
      Disconnects{0};
  std::atomic<int> OpenConns{0}, InFlightTotal{0};

  /// The running server's wake fd, for the async-signal-safe SIGTERM path.
  static std::atomic<int> SignalWakeFd;
};

} // namespace serve
} // namespace stagg

#endif // STAGG_SERVE_SOCKETSERVER_H
