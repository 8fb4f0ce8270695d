//===- driver/ServeCommand.cpp - stagg serve loop -------------------------===//

#include "driver/ServeCommand.h"

#include "api/Endpoint.h"
#include "api/Protocol.h"
#include "api/SocketService.h"
#include "serve/SocketServer.h"
#include "support/StringUtils.h"

#include <csignal>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>

using namespace stagg;
using namespace stagg::driver;

namespace {

/// A request admitted to the endpoint — or a protocol error standing in
/// for one — remembered until its reply is printed. Replies are printed in
/// admission order, each in the format its request used.
struct InFlight {
  api::PendingLift Pending;
  api::RequestFormat Format = api::RequestFormat::LegacyName;

  /// Non-empty for lines that never became requests: the pre-rendered
  /// protocol-error response, printed in stream order like any reply.
  std::string ProtocolError;
};

/// Tracks the worst protocol condition seen, for the exit code, and emits
/// one stderr diagnostic per failed request.
class ExitTracker {
public:
  explicit ExitTracker(std::ostream &Err) : Err(Err) {}

  void note(const api::LiftResponse &Response) {
    switch (Response.St) {
    case api::Status::Ok:
      return;
    case api::Status::UnknownBenchmark:
      raise(ServeExitUnknownName);
      break;
    case api::Status::BadRequest:
      raise(ServeExitBadRequest);
      break;
    case api::Status::KernelParseError:
    case api::Status::IngestError:
      raise(ServeExitIngestFailure);
      break;
    case api::Status::UnsafeKernel:
      raise(ServeExitUnsafeKernel);
      break;
    case api::Status::ShuttingDown:
      // A drain refusal is a service condition, not a client mistake; it
      // leaves the exit code alone (and cannot occur on the stdin path).
      break;
    }
    Err << "stagg serve: " << api::statusName(Response.St) << ": "
        << Response.Error << "\n";
  }

  void noteProtocolError(const std::string &Message) {
    raise(ServeExitBadRequest);
    Err << "stagg serve: bad_request: " << Message << "\n";
  }

  int exitCode() const { return Code; }

private:
  void raise(int Candidate) { Code = std::max(Code, Candidate); }

  std::ostream &Err;
  int Code = ServeExitOk;
};

void printEntry(std::ostream &Out, InFlight &Entry, ExitTracker &Tracker) {
  if (!Entry.ProtocolError.empty()) {
    Out << Entry.ProtocolError << "\n" << std::flush;
    return;
  }
  api::LiftResponse Response = Entry.Pending.get();
  Tracker.note(Response);
  if (Entry.Format == api::RequestFormat::JsonV1) {
    Out << api::renderResponse(Response) << "\n" << std::flush;
    return;
  }
  // Legacy text rendering, byte-compatible with pre-protocol sessions.
  if (!Response.ok()) {
    Out << Response.Name << ": ERROR unknown benchmark (try `stagg --list`)\n"
        << std::flush;
    return;
  }
  Out << core::describeResult(Response.Name, Response.Result)
      << (Response.CacheHit ? " [cached]" : "") << "\n"
      << std::flush;
}

/// The `--listen` session: the same Endpoint behind the epoll transport
/// instead of stdin. SIGTERM and SIGINT begin a graceful drain, and a clean
/// drain exits 0 — request-level failures travel in response lines to the
/// clients that caused them, never into the server's exit code.
int runServeListen(const CliOptions &Options) {
  const core::ServeOptions &Serve = Options.Config.Serve;
  std::string::size_type Colon = Serve.ListenAddr.rfind(':');
  serve::SocketServerOptions Sock;
  Sock.Host = Serve.ListenAddr.substr(0, Colon);
  Sock.Port = std::atoi(Serve.ListenAddr.c_str() + Colon + 1);
  Sock.MaxConns = Serve.MaxConns;
  Sock.MaxInFlight = Serve.MaxInFlight;
  Sock.IdleTimeoutSeconds = Serve.IdleTimeoutSeconds;
  Sock.Verbose = Options.Verbose;

  serve::ServiceConfig Service;
  Service.Config = Options.Config;
  Service.Threads = Options.Threads;
  Service.OracleSeed = Options.OracleSeed;
  api::Endpoint Lifter(Service);
  api::SocketService Proto(Lifter);
  serve::SocketServer Server(Proto, Sock);
  Proto.attach(Server);

  std::string Error;
  if (!Server.start(Error)) {
    std::cerr << "stagg serve: " << Error << "\n";
    return 2;
  }

  std::signal(SIGTERM, [](int) { serve::SocketServer::signalShutdown(); });
  std::signal(SIGINT, [](int) { serve::SocketServer::signalShutdown(); });
  std::signal(SIGPIPE, SIG_IGN);

  // The port-0 convention: tests and the soak harness bind port 0 and
  // learn the kernel's pick from this line, so parallel jobs never race
  // for a port. It must be on stdout and flushed before the loop blocks.
  std::cout << "stagg serve: listening on " << Sock.Host << ":"
            << Server.port() << "\n"
            << std::flush;

  int Rc = Server.run();

  // Join the workers while the transport and protocol still exist: a
  // completion hook fired after ~SocketServer would post into a dead loop.
  // Same for the protocol's execute worker, which posts result lines.
  Proto.shutdown();
  Lifter.shutdown();

  if (Options.Verbose) {
    serve::SocketServerStats Stats = Server.stats();
    std::cerr << "stagg serve: drained; " << Stats.Accepted
              << " connections, " << Stats.FramesIn << " frames in, "
              << Stats.LinesOut << " lines out\n";
  }
  if (Options.ShowCacheStats) {
    api::Endpoint::VmCacheStats Vm = Lifter.vmCacheStats();
    printServeStats(std::cerr, Lifter.cacheStats(), &Vm);
  }
  return Rc == 0 ? ServeExitOk : 2;
}

/// Prints every leading in-flight entry whose reply is already available.
void flushReady(std::deque<InFlight> &Window, std::ostream &Out,
                ExitTracker &Tracker) {
  while (!Window.empty() && (!Window.front().ProtocolError.empty() ||
                             Window.front().Pending.ready())) {
    printEntry(Out, Window.front(), Tracker);
    Window.pop_front();
  }
}

} // namespace

void driver::printServeStats(std::ostream &Err,
                             const serve::CacheStats &Cache,
                             const api::Endpoint::VmCacheStats *Vm) {
  Err << serve::formatCacheStats(Cache) << "\n";
  if (Vm)
    Err << "vm cache: " << Vm->Hits << " hits, " << Vm->Misses
        << " misses, " << Vm->Evictions << " evictions, " << Vm->Entries
        << "/" << Vm->Capacity << " entries\n";
}

int driver::runServeLoop(const CliOptions &Options, std::istream &In,
                         std::ostream &Out, std::ostream &Err) {
  serve::ServiceConfig Service;
  Service.Config = Options.Config;
  Service.Threads = Options.Threads;
  Service.OracleSeed = Options.OracleSeed;
  api::Endpoint Lifter(Service);

  if (Options.Verbose)
    Err << "stagg serve: " << Lifter.threads() << " workers, queue depth "
        << Lifter.queueDepth() << ", cache "
        << Options.Config.Serve.CacheCapacity
        << " entries, protocol v1 + legacy names\n";

  ExitTracker Tracker(Err);
  std::deque<InFlight> Window;
  // In-order printing means a slow request at the front can pile finished
  // replies up behind it; cap the pile so memory stays bounded by the
  // configured in-flight work, not by the input length.
  const size_t WindowCap =
      static_cast<size_t>(Lifter.queueDepth() + Lifter.threads()) + 1;
  std::string Line;
  while (std::getline(In, Line)) {
    std::string Trimmed = trim(Line);
    if (Trimmed.empty() || Trimmed[0] == '#')
      continue;

    InFlight Entry;
    api::ParsedRequest Parsed = api::parseRequestLine(Trimmed);
    if (!Parsed.ok()) {
      // The line never became a request; it joins the window as an already-
      // rendered error so it prints in stream order without blocking the
      // admission of later requests behind in-flight lifts.
      Tracker.noteProtocolError(Parsed.Error);
      Entry.ProtocolError = api::renderProtocolError(Parsed.Error);
    } else {
      Entry.Format = Parsed.Format;
      Entry.Pending = Lifter.submit(Parsed.Request); // blocks on backpressure
    }
    Window.push_back(std::move(Entry));
    flushReady(Window, Out, Tracker);
    while (Window.size() >= WindowCap) {
      printEntry(Out, Window.front(), Tracker);
      Window.pop_front();
    }
  }

  while (!Window.empty()) {
    printEntry(Out, Window.front(), Tracker);
    Window.pop_front();
  }

  if (Options.ShowCacheStats) {
    api::Endpoint::VmCacheStats Vm = Lifter.vmCacheStats();
    printServeStats(Err, Lifter.cacheStats(), &Vm);
  }
  return Tracker.exitCode();
}

int driver::runServeCommand(const CliOptions &Options) {
  if (!Options.Config.Serve.ListenAddr.empty())
    return runServeListen(Options);
  if (!Options.InputPath.empty()) {
    std::ifstream File(Options.InputPath);
    if (!File) {
      std::cerr << "stagg: cannot read '" << Options.InputPath << "'\n";
      return 2;
    }
    return runServeLoop(Options, File, std::cout, std::cerr);
  }
  return runServeLoop(Options, std::cin, std::cout, std::cerr);
}
