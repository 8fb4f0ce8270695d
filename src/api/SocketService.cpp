//===- api/SocketService.cpp - Protocol sessions over the socket ----------===//

#include "api/SocketService.h"

using namespace stagg;
using namespace stagg::api;
using support::Json;

void SocketService::onFrame(serve::SocketClient &Client,
                            const std::string &Line) {
  Session &S = Sessions[Client.id()];
  SocketFrame Frame = parseSocketFrame(Line);

  switch (Frame.K) {
  case SocketFrame::Kind::Invalid:
    Client.send(renderErrorEvent(Frame.IdJson, Frame.Error));
    return;

  case SocketFrame::Kind::Stats:
    Client.send(statsEvent());
    return;

  case SocketFrame::Kind::V1: {
    uint64_t Slot = S.NextSlotToAssign++;
    if (!Frame.V1.ok()) {
      // The stdin loop's discipline: the error joins the window as an
      // already-rendered line and prints in admission order.
      Item Meta;
      Meta.Slot = Slot;
      markReady(S, Meta, renderProtocolError(Frame.V1.Error));
      flush(Client.id());
      return;
    }
    Item Meta;
    Meta.Slot = Slot;
    Meta.Name = Frame.V1.Request.RegistryName.empty()
                    ? Frame.V1.Request.Name
                    : Frame.V1.Request.RegistryName;
    Meta.Request = std::move(Frame.V1.Request);
    S.Waiting.push_back(std::move(Meta));
    Client.notePending(+1);
    pump(Client.id());
    return;
  }

  case SocketFrame::Kind::Execute: {
    Item Meta;
    Meta.Slot = S.NextSlotToAssign++;
    Meta.V2 = true;
    Meta.IdJson = Frame.IdJson;
    Meta.Name = Frame.Exec.RegistryName.empty() ? Frame.Exec.Name
                                                : Frame.Exec.RegistryName;
    Meta.Request = std::move(Frame.Exec);
    Meta.Execute = true;
    Meta.Io = std::move(Frame.Io);
    S.Waiting.push_back(std::move(Meta));
    Client.notePending(+1);
    pump(Client.id());
    return;
  }

  case SocketFrame::Kind::Batch:
    break;
  }

  uint64_t BatchKey = NextBatchKey++;
  Batch B;
  B.IdJson = Frame.IdJson;
  B.Total = static_cast<int>(Frame.Items.size());
  B.Remaining = B.Total;

  for (size_t I = 0; I < Frame.Items.size(); ++I) {
    ParsedRequest &Parsed = Frame.Items[I];
    Item Meta;
    Meta.Slot = S.NextSlotToAssign++;
    Meta.Seq = static_cast<int>(I);
    Meta.BatchKey = BatchKey;
    Meta.V2 = true;
    Meta.Progress = Frame.Progress;
    Meta.IdJson = Frame.IdJson;
    Meta.Name = Parsed.Request.RegistryName.empty()
                    ? Parsed.Request.Name
                    : Parsed.Request.RegistryName;

    B.BeyondSlot = Meta.Slot + 1;
    if (!Parsed.ok()) {
      LiftResponse Bad;
      Bad.St = Status::BadRequest;
      Bad.Name = Meta.Name;
      Bad.Error = Parsed.Error;
      markReady(S, Meta, renderLine(Meta, Bad));
      // markReady found no batch entry yet; settle the count by hand.
      --B.Remaining;
      continue;
    }
    if (Frame.Progress)
      Client.send(
          renderProgressEvent(Frame.IdJson, Meta.Seq, Meta.Name, "queued"));
    Meta.Request = std::move(Parsed.Request);
    S.Waiting.push_back(std::move(Meta));
    Client.notePending(+1);
  }
  if (B.Total == 0)
    B.BeyondSlot = S.NextSlotToAssign;
  S.Batches.emplace(BatchKey, std::move(B));

  pump(Client.id());
  flush(Client.id());
}

void SocketService::pump(uint64_t ClientId) {
  auto SessionIt = Sessions.find(ClientId);
  if (SessionIt == Sessions.end())
    return;
  Session &S = SessionIt->second;
  serve::SocketClient *Client = Server->client(ClientId);
  if (!Client)
    return;

  while (!S.Waiting.empty()) {
    Item &Front = S.Waiting.front();
    uint64_t Slot = Front.Slot;

    serve::SubmitHooks Hooks;
    serve::SocketServer *Srv = Server;
    SocketService *Self = this;
    Hooks.OnSettled = [Self, Srv, ClientId, Slot] {
      Srv->post([Self, ClientId, Slot] { Self->onSettled(ClientId, Slot); });
    };
    if (Front.V2 && Front.Progress)
      Hooks.Progress = [Self, Srv, ClientId, Slot](const char *Phase) {
        std::string Copy(Phase);
        Srv->post([Self, ClientId, Slot, Copy] {
          Self->onProgress(ClientId, Slot, Copy);
        });
      };

    PendingLift Pending;
    if (!Lifter.trySubmit(Front.Request, std::move(Hooks), Pending))
      break; // queue full; a completion will pump again

    Item Meta = std::move(Front);
    S.Waiting.pop_front();
    Client->notePending(-1);
    if (!Meta.Execute)
      Meta.Request = LiftRequest(); // the service owns its copy now

    if (Pending.ready()) {
      // Admission error (bad request, unknown name, ingest refusal):
      // resolved without ever reaching the queue. Execute items still owe
      // their evaluation — that runs on the execute worker, with the slot
      // held in the client's in-flight window until the result flushes.
      LiftResponse Response = Pending.get();
      if (Meta.Execute) {
        Client->beginRequest();
        dispatchExecute(ClientId, std::move(Meta), std::move(Response));
      } else {
        markReady(S, Meta, renderLine(Meta, Response));
      }
      continue;
    }

    Client->beginRequest();
    if (Meta.V2 && Meta.Progress)
      Client->send(renderProgressEvent(Meta.IdJson, Meta.Seq, Meta.Name,
                                       "ingested"));
    uint64_t MetaSlot = Meta.Slot;
    S.InFlight.emplace(MetaSlot,
                       InFlightItem{std::move(Pending), std::move(Meta)});
  }

  // An admission can resolve instantly — immediate errors, and lifts whose
  // worker finished before ready() was polled (sub-millisecond cache hits
  // do). Their OnSettled post finds no InFlight entry, so this is the only
  // flush they get.
  flush(ClientId);
}

void SocketService::onSettled(uint64_t ClientId, uint64_t Slot) {
  // The session may be gone (client disconnected mid-request) or the slot
  // already resolved (sub-millisecond lifts flushed straight from pump).
  // Either way the completion still freed a service-queue slot, so the
  // stalled-backlog pump below must run — an orphaned completion is the
  // only wakeup a queue-full backlog may ever get.
  auto SessionIt = Sessions.find(ClientId);
  if (SessionIt != Sessions.end()) {
    Session &S = SessionIt->second;
    auto It = S.InFlight.find(Slot);
    if (It != S.InFlight.end()) {
      LiftResponse Response = It->second.Pending.get();
      Item Meta = std::move(It->second.Meta);
      S.InFlight.erase(It);

      if (Meta.Execute) {
        // Evaluation runs on the execute worker, not here on the loop
        // thread; the beginRequest from pump stays held until the worker's
        // result flushes (finishExecute), so drain waits for it.
        dispatchExecute(ClientId, std::move(Meta), std::move(Response));
      } else {
        if (serve::SocketClient *Client = Server->client(ClientId))
          Client->endRequest();
        markReady(S, Meta, renderLine(Meta, Response));
        flush(ClientId);
      }
    }
  }

  for (auto &[Id, Other] : Sessions)
    if (!Other.Waiting.empty())
      pump(Id);
}

void SocketService::onProgress(uint64_t ClientId, uint64_t Slot,
                               const std::string &Phase) {
  auto SessionIt = Sessions.find(ClientId);
  if (SessionIt == Sessions.end())
    return;
  auto It = SessionIt->second.InFlight.find(Slot);
  if (It == SessionIt->second.InFlight.end())
    return;
  const Item &Meta = It->second.Meta;
  if (serve::SocketClient *Client = Server->client(ClientId))
    Client->send(renderProgressEvent(Meta.IdJson, Meta.Seq, Meta.Name,
                                     Phase.c_str()));
}

void SocketService::markReady(Session &S, const Item &Meta,
                              std::string Line) {
  S.Ready.emplace(Meta.Slot, std::move(Line));
  if (Meta.BatchKey != 0) {
    auto It = S.Batches.find(Meta.BatchKey);
    if (It != S.Batches.end())
      --It->second.Remaining;
  }
}

void SocketService::flush(uint64_t ClientId) {
  auto SessionIt = Sessions.find(ClientId);
  if (SessionIt == Sessions.end())
    return;
  Session &S = SessionIt->second;
  serve::SocketClient *Client = Server->client(ClientId);
  if (!Client)
    return;

  auto It = S.Ready.find(S.NextSlotToEmit);
  while (It != S.Ready.end()) {
    Client->send(std::move(It->second));
    S.Ready.erase(It);
    ++S.NextSlotToEmit;
    It = S.Ready.find(S.NextSlotToEmit);
  }

  for (auto BatchIt = S.Batches.begin(); BatchIt != S.Batches.end();) {
    Batch &B = BatchIt->second;
    if (B.Remaining == 0 && S.NextSlotToEmit >= B.BeyondSlot) {
      Client->send(renderDoneEvent(B.IdJson, B.Total));
      BatchIt = S.Batches.erase(BatchIt);
    } else {
      ++BatchIt;
    }
  }
}

std::string SocketService::renderLine(const Item &Meta,
                                      const LiftResponse &Response) {
  if (Meta.V2)
    return renderResponseEvent(Meta.IdJson, Meta.Seq, Response);
  return renderResponse(Response);
}

void SocketService::dispatchExecute(uint64_t ClientId, Item Meta,
                                    LiftResponse Response) {
  std::lock_guard<std::mutex> Lock(ExecMutex);
  if (!ExecWorker.joinable())
    ExecWorker = std::thread([this] { executeLoop(); });
  ExecQueue.push_back(
      ExecJob{ClientId, std::move(Meta), std::move(Response)});
  ExecWake.notify_one();
}

void SocketService::executeLoop() {
  for (;;) {
    ExecJob Job;
    {
      std::unique_lock<std::mutex> Lock(ExecMutex);
      ExecWake.wait(Lock,
                    [this] { return ExecStop || !ExecQueue.empty(); });
      if (ExecStop)
        return; // teardown: the loop is gone, nobody can read a result
      Job = std::move(ExecQueue.front());
      ExecQueue.pop_front();
    }
    // The expensive part — operand materialization, tensor evaluation, and
    // JSON-rendering of every output cell — runs here, off the loop
    // thread. Only the finished line travels back.
    std::string Line = renderResultEvent(
        Job.Meta.IdJson, Job.Meta.Name,
        Lifter.executeLifted(Job.Meta.Request, Job.Meta.Io, Job.Response));
    uint64_t ClientId = Job.ClientId;
    uint64_t Slot = Job.Meta.Slot;
    SocketService *Self = this;
    Server->post([Self, ClientId, Slot, Line = std::move(Line)]() mutable {
      Self->finishExecute(ClientId, Slot, std::move(Line));
    });
  }
}

void SocketService::finishExecute(uint64_t ClientId, uint64_t Slot,
                                  std::string Line) {
  auto SessionIt = Sessions.find(ClientId);
  if (SessionIt == Sessions.end())
    return; // the client disconnected while the worker was evaluating
  if (serve::SocketClient *Client = Server->client(ClientId))
    Client->endRequest();
  Item Meta;
  Meta.Slot = Slot; // execute frames are never batch members (BatchKey 0)
  markReady(SessionIt->second, Meta, std::move(Line));
  flush(ClientId);
}

void SocketService::shutdown() {
  std::thread Worker;
  {
    std::lock_guard<std::mutex> Lock(ExecMutex);
    ExecStop = true;
    Worker = std::move(ExecWorker);
  }
  ExecWake.notify_one();
  if (Worker.joinable())
    Worker.join();
}

void SocketService::onDisconnect(serve::SocketClient &Client) {
  // In-flight futures die with the session; their completions will find no
  // session and drop the result on the floor (the worker-side cache still
  // keeps what it computed).
  Sessions.erase(Client.id());
}

std::string SocketService::rejectLine(serve::TransportReject Kind) {
  switch (Kind) {
  case serve::TransportReject::TooManyConnections:
    return renderErrorEvent(
        "", "server at the connection limit (--max-conns); retry later");
  case serve::TransportReject::FrameTooLarge:
    return renderErrorEvent("", "frame exceeds the size limit");
  case serve::TransportReject::ShuttingDown:
    return renderStatusError(
        Status::ShuttingDown,
        "server is draining; no new requests are admitted");
  }
  return renderErrorEvent("", "rejected");
}

std::string SocketService::statsEvent() const {
  serve::SocketServerStats T = Server->stats();
  serve::CacheStats C = Lifter.cacheStats();

  Json Srv = Json::object();
  Srv.set("open_conns", Json::integer(T.OpenConns));
  Srv.set("accepted", Json::integer(static_cast<int64_t>(T.Accepted)));
  Srv.set("refused", Json::integer(static_cast<int64_t>(T.Refused)));
  Srv.set("in_flight", Json::integer(T.InFlight));
  Srv.set("frames_in", Json::integer(static_cast<int64_t>(T.FramesIn)));
  Srv.set("lines_out", Json::integer(static_cast<int64_t>(T.LinesOut)));
  Srv.set("bytes_in", Json::integer(static_cast<int64_t>(T.BytesIn)));
  Srv.set("bytes_out", Json::integer(static_cast<int64_t>(T.BytesOut)));
  Srv.set("disconnects",
          Json::integer(static_cast<int64_t>(T.Disconnects)));
  Srv.set("idle_closed",
          Json::integer(static_cast<int64_t>(T.IdleClosed)));
  Srv.set("frame_timeouts",
          Json::integer(static_cast<int64_t>(T.FrameTimeouts)));
  Srv.set("draining", Json::boolean(T.Draining));

  Json Svc = Json::object();
  Svc.set("threads", Json::integer(Lifter.threads()));
  Svc.set("queue_depth", Json::integer(Lifter.queueDepth()));
  Svc.set("queue_length",
          Json::integer(static_cast<int64_t>(Lifter.queueLength())));

  Json Cache = Json::object();
  Cache.set("hits", Json::integer(static_cast<int64_t>(C.Hits)));
  Cache.set("misses", Json::integer(static_cast<int64_t>(C.Misses)));
  Cache.set("insertions",
            Json::integer(static_cast<int64_t>(C.Insertions)));
  Cache.set("evictions", Json::integer(static_cast<int64_t>(C.Evictions)));
  Cache.set("entries", Json::integer(static_cast<int64_t>(C.Entries)));
  Cache.set("capacity", Json::integer(static_cast<int64_t>(C.Capacity)));
  Cache.set("loaded", Json::integer(static_cast<int64_t>(C.Loaded)));
  Cache.set("hit_rate", Json::number(C.hitRate()));

  // The execute-path compiled-program cache (api::Endpoint::compiledFor):
  // one bytecode artifact per distinct lifted expression, so a client can
  // see whether repeated execute requests are re-paying compilation.
  api::Endpoint::VmCacheStats VC = Lifter.vmCacheStats();
  Json VmCache = Json::object();
  VmCache.set("hits", Json::integer(static_cast<int64_t>(VC.Hits)));
  VmCache.set("misses", Json::integer(static_cast<int64_t>(VC.Misses)));
  VmCache.set("evictions",
              Json::integer(static_cast<int64_t>(VC.Evictions)));
  VmCache.set("entries", Json::integer(static_cast<int64_t>(VC.Entries)));
  VmCache.set("capacity", Json::integer(static_cast<int64_t>(VC.Capacity)));

  std::string Out = "{\"v\":2,\"event\":\"stats\",\"server\":";
  Out += Srv.dump();
  Out += ",\"service\":";
  Out += Svc.dump();
  Out += ",\"cache\":";
  Out += Cache.dump();
  Out += ",\"vm_cache\":";
  Out += VmCache.dump();
  Out += '}';
  return Out;
}
