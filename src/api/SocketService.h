//===- api/SocketService.h - Protocol sessions over the socket --*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The protocol half of `stagg serve --listen`: SocketService implements
/// serve::SocketProtocol on top of api::Endpoint, turning frames into lift
/// admissions and completions into response lines. It owns all
/// per-connection session state — parsed-but-unadmitted backlogs (the
/// service queue was full), in-flight lifts, the in-order response window,
/// and open v2 batches — and runs entirely on the socket loop thread:
/// worker-side completion and progress hooks marshal back through
/// SocketServer::post before touching anything here.
///
/// Ordering contract, per connection: response lines emit in admission
/// order (the same window discipline as the stdin loop, so v1 sessions
/// behave identically over TCP); progress, stats, and frame-error events
/// emit the moment they happen, interleaved.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_API_SOCKETSERVICE_H
#define STAGG_API_SOCKETSERVICE_H

#include "api/Endpoint.h"
#include "api/Protocol.h"
#include "serve/SocketServer.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>

namespace stagg {
namespace api {

/// Frames in, response lines out. One instance serves every connection of
/// one SocketServer.
class SocketService : public serve::SocketProtocol {
public:
  explicit SocketService(Endpoint &Lifter) : Lifter(Lifter) {}

  /// Joins the execute worker (fallback; call shutdown() explicitly while
  /// the attached server still exists).
  ~SocketService() { shutdown(); }

  /// Wires the transport whose loop this service runs on. Must be called
  /// before the server runs (the server needs the protocol at
  /// construction, so the cycle closes here).
  void attach(serve::SocketServer &Server) { this->Server = &Server; }

  /// Stops and joins the execute worker. The worker posts completions into
  /// the attached SocketServer, so this must run after the server's loop
  /// has exited and before the server object is destroyed (SocketServer is
  /// declared after SocketService everywhere, so destruction order alone
  /// would tear the server down first). Idempotent.
  void shutdown();

  // serve::SocketProtocol:
  void onFrame(serve::SocketClient &Client,
               const std::string &Line) override;
  void onDisconnect(serve::SocketClient &Client) override;
  std::string rejectLine(serve::TransportReject Kind) override;

private:
  /// One request occupying an ordering/fairness slot.
  struct Item {
    uint64_t Slot = 0;
    int Seq = -1;           ///< Index within its v2 batch; -1 for v1.
    uint64_t BatchKey = 0;  ///< 0 when not part of a batch.
    bool V2 = false;
    bool Progress = false;  ///< The batch asked for progress events.
    std::string IdJson;     ///< The batch's id echo.
    std::string Name;       ///< Display name for progress events.
    LiftRequest Request;

    /// Execute items run the lifted program on Io after the lift settles;
    /// their Request survives admission (executeLifted re-resolves the
    /// argument specs from it).
    bool Execute = false;
    ExecuteIo Io;
  };

  /// An admitted lift awaiting completion.
  struct InFlightItem {
    PendingLift Pending;
    Item Meta; ///< Request cleared (the service owns its copy).
  };

  /// An open v2 batch: "done" fires once every member's response line has
  /// flushed.
  struct Batch {
    std::string IdJson;
    uint64_t BeyondSlot = 0; ///< First slot after the batch's members.
    int Remaining = 0;       ///< Members without a Ready line yet.
    int Total = 0;
  };

  /// Per-connection state, keyed by SocketClient::id().
  struct Session {
    uint64_t NextSlotToAssign = 0;
    uint64_t NextSlotToEmit = 0;
    std::deque<Item> Waiting;                ///< Parsed, not yet admitted.
    std::map<uint64_t, InFlightItem> InFlight;
    std::map<uint64_t, std::string> Ready;   ///< Awaiting in-order flush.
    std::map<uint64_t, Batch> Batches;
  };

  /// Admits as much of the session's backlog as the service queue takes.
  void pump(uint64_t ClientId);

  /// Completion handler (loop thread, via post).
  void onSettled(uint64_t ClientId, uint64_t Slot);

  /// Worker progress handler (loop thread, via post).
  void onProgress(uint64_t ClientId, uint64_t Slot,
                  const std::string &Phase);

  /// Emits every leading Ready line, then any batch whose members have all
  /// flushed.
  void flush(uint64_t ClientId);

  /// Renders one settled response: a v1 line, or a v2 response event for a
  /// batch member. Execute items never pass through here — their
  /// evaluation runs on the execute worker (dispatchExecute) so the loop
  /// thread only renders and flushes.
  std::string renderLine(const Item &Meta, const LiftResponse &Response);

  /// Hands a settled execute item to the execute worker (loop thread).
  /// Operand materialization, tensor evaluation, and result rendering all
  /// happen off the loop; finishExecute posts back when the line is ready.
  /// The caller has already counted the item against the client's in-flight
  /// window, so drain and idle eviction wait for the result to flush.
  void dispatchExecute(uint64_t ClientId, Item Meta, LiftResponse Response);

  /// Lands one finished execute line back on the session (loop thread, via
  /// post). The session may be gone — the client disconnected while the
  /// worker was evaluating — in which case the line is dropped.
  void finishExecute(uint64_t ClientId, uint64_t Slot, std::string Line);

  /// The execute worker's queue drain.
  void executeLoop();

  /// Marks \p Slot ready and settles its batch accounting.
  void markReady(Session &S, const Item &Meta, std::string Line);

  /// The v2 stats event (transport + service + cache counters).
  std::string statsEvent() const;

  Endpoint &Lifter;
  serve::SocketServer *Server = nullptr;
  std::map<uint64_t, Session> Sessions;
  uint64_t NextBatchKey = 1;

  /// One settled execute item awaiting evaluation off the loop thread.
  struct ExecJob {
    uint64_t ClientId = 0;
    Item Meta;
    LiftResponse Response;
  };

  /// The execute worker: started lazily on the first execute frame, fed on
  /// the loop thread, joined by shutdown(). Evaluation cost lands here so
  /// one expensive execute cannot stall every other connection's frames.
  std::mutex ExecMutex;
  std::condition_variable ExecWake;
  std::deque<ExecJob> ExecQueue;
  std::thread ExecWorker;
  bool ExecStop = false;
};

} // namespace api
} // namespace stagg

#endif // STAGG_API_SOCKETSERVICE_H
