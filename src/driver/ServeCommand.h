//===- driver/ServeCommand.h - stagg serve loop -----------------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `stagg serve` session: one persistent api::Endpoint answering a
/// stream of newline-delimited lift requests (blank lines and `#` comments
/// are skipped). Every line is a protocol v1 JSON object (api/Protocol.h)
/// naming a registry benchmark *or* carrying an inline C kernel, with
/// per-request config overrides; each is answered with a one-line JSON
/// response, and a line that is not a v1 object with a bad_request line.
///
/// Results stream back one line per request in request order; repeated
/// identical kernels never re-run the pipeline. Requests keep being read
/// while earlier lifts are in flight, so the worker pool stays busy up to
/// the queue bound.
///
/// Exit codes (documented in --help and README): 0 all requests served (a
/// FAILed lift is a result, not an error); 2 some request named an unknown
/// benchmark; 3 some line was malformed JSON or violated the protocol;
/// 4 some inline kernel failed C parsing or ingestion; 5 the static checker
/// refused some inline kernel with hard safety findings (the response
/// carries a structured "diagnostics" array). Higher-numbered conditions
/// win when several occur; each also gets a stderr diagnostic.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_DRIVER_SERVECOMMAND_H
#define STAGG_DRIVER_SERVECOMMAND_H

#include "api/Endpoint.h"
#include "driver/Cli.h"
#include "serve/ResultCache.h"

#include <iosfwd>

namespace stagg {
namespace driver {

/// Exit codes of `stagg serve`, from the contract above.
enum ServeExitCode {
  ServeExitOk = 0,
  ServeExitUnknownName = 2,
  ServeExitBadRequest = 3,
  ServeExitIngestFailure = 4,
  ServeExitUnsafeKernel = 5,
};

/// Renders the --cache-stats report: the cache counter line, plus (serve
/// sessions only) the execute-path compiled-program cache counters when
/// \p Vm is non-null. Shared by batch mode (Main) and the serve loop so the
/// two reports can never drift apart.
void printServeStats(std::ostream &Err, const serve::CacheStats &Cache,
                     const api::Endpoint::VmCacheStats *Vm = nullptr);

/// Runs the serving loop over \p In, streaming result lines to \p Out and
/// diagnostics (and --cache-stats counters) to \p Err. Returns the exit
/// code per the contract above; the loop serves every remaining request
/// even after a failed one.
int runServeLoop(const CliOptions &Options, std::istream &In,
                 std::ostream &Out, std::ostream &Err);

/// Entry point used by Main: opens Options.InputPath (or stdin) and calls
/// runServeLoop on the standard streams — or, with --listen, runs the
/// socket transport (serve::SocketServer + api::SocketService) until a
/// SIGTERM/SIGINT drain completes. The socket session prints
/// `stagg serve: listening on HOST:PORT` to stdout once bound (the port-0
/// convention networked tests rely on) and exits 0 after a clean drain.
int runServeCommand(const CliOptions &Options);

} // namespace driver
} // namespace stagg

#endif // STAGG_DRIVER_SERVECOMMAND_H
