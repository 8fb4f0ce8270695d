//===- api/SocketService.cpp - Protocol sessions over the socket ----------===//

#include "api/SocketService.h"

using namespace stagg;
using namespace stagg::api;
using support::Json;

namespace {

/// Renders one settled lift: a v1 line, or a v2 response event for a batch
/// member.
std::string renderLine(bool V2, const std::string &IdJson, int Seq,
                       const LiftResponse &Response) {
  if (V2)
    return renderResponseEvent(IdJson, Seq, Response);
  return renderResponse(Response);
}

} // namespace

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
      S.Ready.emplace(Slot, renderProtocolError(Frame.V1.Error));
      flush(Client.id());
      return;
    }
    auto Meta = std::make_shared<Item>();
    Meta->Slot = Slot;
    Meta->Name = Frame.V1.Request.RegistryName.empty()
                     ? Frame.V1.Request.Name
                     : Frame.V1.Request.RegistryName;
    Meta->Request = std::move(Frame.V1.Request);
    S.Waiting.push_back(std::move(Meta));
    Client.notePending(+1);
    pump(Client.id());
    return;
  }

  case SocketFrame::Kind::Execute: {
    auto Meta = std::make_shared<Item>();
    Meta->Slot = S.NextSlotToAssign++;
    Meta->V2 = true;
    Meta->IdJson = Frame.IdJson;
    Meta->Name = Frame.Exec.RegistryName.empty() ? Frame.Exec.Name
                                                 : Frame.Exec.RegistryName;
    Meta->Request = std::move(Frame.Exec);
    Meta->Execute = true;
    Meta->Io = std::move(Frame.Io);
    S.Waiting.push_back(std::move(Meta));
    Client.notePending(+1);
    pump(Client.id());
    return;
  }

  case SocketFrame::Kind::Batch:
    break;
  }

  Batch B;
  B.IdJson = Frame.IdJson;
  B.Total = static_cast<int>(Frame.Items.size());
  for (size_t I = 0; I < Frame.Items.size(); ++I) {
    ParsedRequest &Parsed = Frame.Items[I];
    auto Meta = std::make_shared<Item>();
    Meta->Slot = S.NextSlotToAssign++;
    Meta->Seq = static_cast<int>(I);
    Meta->V2 = true;
    Meta->Progress = Frame.Progress;
    Meta->IdJson = Frame.IdJson;
    Meta->Name = Parsed.Request.RegistryName.empty()
                     ? Parsed.Request.Name
                     : Parsed.Request.RegistryName;
    if (!Parsed.ok()) {
      LiftResponse Bad;
      Bad.St = Status::BadRequest;
      Bad.Name = Meta->Name;
      Bad.Error = Parsed.Error;
      S.Ready.emplace(Meta->Slot,
                      renderLine(true, Meta->IdJson, Meta->Seq, Bad));
      continue;
    }
    if (Frame.Progress)
      Client.send(
          renderProgressEvent(Frame.IdJson, Meta->Seq, Meta->Name, "queued"));
    Meta->Request = std::move(Parsed.Request);
    S.Waiting.push_back(std::move(Meta));
    Client.notePending(+1);
  }
  B.BeyondSlot = S.NextSlotToAssign;
  S.Batches.push_back(std::move(B));

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
    std::shared_ptr<const Item> Meta = S.Waiting.front();

    ProgressFn Progress;
    if (Meta->Progress)
      Progress = [this, ClientId, Meta](const char *Phase) {
        std::string Line =
            renderProgressEvent(Meta->IdJson, Meta->Seq, Meta->Name, Phase);
        Server->post([this, ClientId, Line = std::move(Line)]() mutable {
          if (serve::SocketClient *C = Server->client(ClientId))
            C->send(std::move(Line));
        });
      };
    // The request's one completion path, on the worker that settled it:
    // evaluation and rendering run here, and only the line travels back.
    DoneFn Done = [this, ClientId, Meta](LiftResponse &&Response) {
      std::string Line =
          Meta->Execute
              ? renderResultEvent(
                    Meta->IdJson, Meta->Name,
                    Lifter.executeLifted(Meta->Request, Meta->Io, Response))
              : renderLine(Meta->V2, Meta->IdJson, Meta->Seq, Response);
      Server->post([this, ClientId, Slot = Meta->Slot,
                    Line = std::move(Line)]() mutable {
        onSettled(ClientId, Slot, std::move(Line));
      });
    };

    Admission Admitted =
        Lifter.trySubmit(Meta->Request, std::move(Progress), std::move(Done));
    if (Admitted == Admission::QueueFull)
      break; // a completion will pump again

    S.Waiting.pop_front();
    Client->notePending(-1);
    // Held until the line lands, so drain and idle eviction wait for it.
    Client->beginRequest();
    if (Admitted == Admission::Queued && Meta->Progress)
      Client->send(renderProgressEvent(Meta->IdJson, Meta->Seq, Meta->Name,
                                       "ingested"));
  }
}

void SocketService::onSettled(uint64_t ClientId, uint64_t Slot,
                              std::string Line) {
  // The session may be gone (the client disconnected mid-request); the line
  // is dropped then. Either way the completion may have freed a
  // service-queue slot, so the stalled-backlog pump below must run — an
  // orphaned completion is the only wakeup a queue-full backlog may ever
  // get.
  auto SessionIt = Sessions.find(ClientId);
  if (SessionIt != Sessions.end()) {
    if (serve::SocketClient *Client = Server->client(ClientId))
      Client->endRequest();
    SessionIt->second.Ready.emplace(Slot, std::move(Line));
    flush(ClientId);
  }

  for (auto &[Id, Other] : Sessions)
    if (!Other.Waiting.empty())
      pump(Id);
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

  while (!S.Batches.empty() &&
         S.NextSlotToEmit >= S.Batches.front().BeyondSlot) {
    Client->send(
        renderDoneEvent(S.Batches.front().IdJson, S.Batches.front().Total));
    S.Batches.pop_front();
  }
}

void SocketService::onDisconnect(serve::SocketClient &Client) {
  // Admitted lifts keep running; their completions find no session and drop
  // the line (the service's result cache still keeps what they computed).
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
