//===- perfbench/src/ServeClient.h - Live server and load generator -*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve workloads drive the real `stagg serve --listen` binary: this
/// file spawns it, learns its port from the `listening on` line, talks to
/// it over TCP_NODELAY connections, and runs closed loops (each client
/// sends its next frame only after the previous one's terminal event)
/// over a fixed number of ops.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SERVECLIENT_H
#define PERFBENCH_SERVECLIENT_H

#include <cstdint>
#include <functional>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

/// A running `stagg serve --listen 127.0.0.1:0` child process. The
/// destructor drains it with SIGTERM and waits for it to exit.
class ServerProcess {
public:
  ServerProcess(const std::string &Binary,
                const std::vector<std::string> &Args);
  ~ServerProcess();
  ServerProcess(const ServerProcess &) = delete;
  ServerProcess &operator=(const ServerProcess &) = delete;

  int port() const { return Port; }
  pid_t pid() const { return Pid; }

  /// Sends SIGTERM and waits; throws when the server does not exit cleanly.
  void stop();

private:
  pid_t Pid = -1;
  int Port = 0;
};

/// One client connection speaking newline-delimited frames.
class Connection {
public:
  explicit Connection(int Port);
  ~Connection();
  Connection(const Connection &) = delete;
  Connection &operator=(const Connection &) = delete;

  void send(const std::string &Frame); ///< Appends the newline.

  /// Next line without its newline; throws on a closed connection.
  std::string readLine();

private:
  int Fd = -1;
  std::string Buffer;
  size_t Head = 0;
};

/// Outcome of one op of a closed loop.
struct OpOutcome {
  double Seconds = 0; ///< Latency of the op itself (checks excluded).
  std::string Error;  ///< Empty on success.
};

/// Result of a closed loop over a fixed op count.
struct LoopResult {
  std::vector<double> LatencyMs; ///< Successful ops, in completion order.
  int64_t Attempted = 0;
  int64_t Failed = 0;
  double WallSeconds = 0;
  std::vector<std::string> Errors; ///< The first few failures.
};

/// Runs ops 0..\p Ops-1 over \p Clients threads, each taking the next op
/// index as soon as its previous op finished. \p Body(client, op) performs
/// one op. An exception out of Body counts as a failed op.
LoopResult runClosedLoop(int Clients, size_t Ops,
                         const std::function<OpOutcome(int, size_t)> &Body);

/// Reads event lines until the terminal event of the frame in flight: the
/// "done" of a batch, or the "result" of an execute when \p Execute.
/// Returns every line read; throws on an "error" event.
std::vector<std::string> readFrameEvents(Connection &Conn, bool Execute);

} // namespace perfbench

#endif // PERFBENCH_SERVECLIENT_H
