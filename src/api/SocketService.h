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
/// service queue was full), the in-order response window, and open v2
/// batches — and touches it only on the socket loop thread.
///
/// Every admitted request settles through one callback, the Done it hands
/// Endpoint::trySubmit. Done runs on the service worker that settled the
/// lift (an admission error runs it at once, on the loop): it renders the
/// finished line there — for an execute frame it first runs
/// Endpoint::executeLifted, so evaluation never runs on the loop — and
/// posts only (client, slot, line) back through SocketServer::post.
/// Progress events are rendered and posted the same way.
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

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>

namespace stagg {
namespace api {

/// Frames in, response lines out. One instance serves every connection of
/// one SocketServer. The Endpoint's workers call back into this object and
/// the server, so the Endpoint is shut down before either is destroyed.
class SocketService : public serve::SocketProtocol {
public:
  explicit SocketService(Endpoint &Lifter) : Lifter(Lifter) {}

  SocketService(const SocketService &) = delete;
  SocketService &operator=(const SocketService &) = delete;

  /// Wires the transport whose loop this service runs on. Must be called
  /// before the server runs (the server needs the protocol at
  /// construction, so the cycle closes here).
  void attach(serve::SocketServer &Server) { this->Server = &Server; }

  // serve::SocketProtocol:
  void onFrame(serve::SocketClient &Client,
               const std::string &Line) override;
  void onDisconnect(serve::SocketClient &Client) override;
  std::string rejectLine(serve::TransportReject Kind) override;

private:
  /// One request occupying an ordering/fairness slot. Immutable once
  /// parsed: the loop and the worker that settles it share it read-only.
  struct Item {
    uint64_t Slot = 0;
    int Seq = -1;           ///< Index within its v2 batch; -1 for v1.
    bool V2 = false;
    bool Progress = false;  ///< The batch asked for progress events.
    std::string IdJson;     ///< The batch's id echo.
    std::string Name;       ///< Display name for progress events.
    LiftRequest Request;

    /// Execute items run the lifted program on Io once the lift settles
    /// (executeLifted re-resolves the argument specs from Request).
    bool Execute = false;
    ExecuteIo Io;
  };

  /// An open v2 batch: "done" fires once every member's response line has
  /// flushed. Members hold consecutive slots, so that is the moment the
  /// emit cursor passes the last of them.
  struct Batch {
    std::string IdJson;
    uint64_t BeyondSlot = 0; ///< First slot after the batch's members.
    int Total = 0;
  };

  /// Per-connection state, keyed by SocketClient::id().
  struct Session {
    uint64_t NextSlotToAssign = 0;
    uint64_t NextSlotToEmit = 0;
    std::deque<std::shared_ptr<const Item>> Waiting; ///< Not yet admitted.
    std::map<uint64_t, std::string> Ready; ///< Awaiting in-order flush.
    std::deque<Batch> Batches;             ///< Open, in slot order.
  };

  /// Admits as much of the session's backlog as the service queue takes.
  void pump(uint64_t ClientId);

  /// Lands one finished line (loop thread, via post): marks its slot
  /// ready, flushes, and pumps every stalled backlog.
  void onSettled(uint64_t ClientId, uint64_t Slot, std::string Line);

  /// Emits every leading Ready line, then any batch whose members have all
  /// flushed.
  void flush(uint64_t ClientId);

  /// The v2 stats event (transport + service + cache counters).
  std::string statsEvent() const;

  Endpoint &Lifter;
  serve::SocketServer *Server = nullptr;
  std::map<uint64_t, Session> Sessions;
};

} // namespace api
} // namespace stagg

#endif // STAGG_API_SOCKETSERVICE_H
