//===- api/Protocol.h - Versioned JSON wire protocol ------------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wire protocol v1 of `stagg serve`: newline-delimited JSON, one request
/// object in, one response object out, in admission order.
///
/// Request (all fields except "v" optional, but "name" or "kernel" must be
/// present):
///
///   {"v":1, "name":"blas_axpy"}
///   {"v":1, "kernel":"void kernel(int N, float* x, float* out) {...}",
///    "name":"my_kernel", "oracle_hint":"out(i) = 2 * x(i)",
///    "config":{"search":"bu","skip_verify":true,"timeout_s":2.5}}
///
/// Response:
///
///   {"v":1,"status":"ok","name":"my_kernel","category":"inline",
///    "solved":true,"verified":true,"cached":false,
///    "expr":"out(i) = 2 * x(i)","template":"b(i) = Const * c(i)",
///    "attempts":1,"expansions":4,
///    "timings":{"total_s":0.003,"parse_s":...,"oracle_s":...,
///               "grammar_s":...,"search_s":...},
///    "config":{"search":"bu","skip_verify":true,"timeout_s":2.5}}
///   {"v":1,"status":"unknown_benchmark","name":"blas_axpi",
///    "error":"unknown benchmark 'blas_axpi' — did you mean 'blas_axpy'?"}
///
/// Inline kernels pass through the static checker (analysis/Checker.h)
/// before anything executes them. Hard findings refuse the request with
/// status "unsafe_kernel" and a structured "diagnostics" array; warnings
/// survive on success as a "warnings" array of the same shape:
///
///   {"v":1,"status":"unsafe_kernel","name":"bad",
///    "error":"static checker refused the kernel: [SK001: ...]",
///    "diagnostics":[{"code":"SK001","severity":"error",
///                    "message":"load of 'x[1 + l0_i]' ... is out of bounds",
///                    "line":3,"col":5}]}
///
/// Every request line is a JSON object. A line that is not (malformed JSON,
/// a bare word, a missing or wrong "v") is answered with a bad_request
/// response in its place in the stream:
///
///   {"v":1,"status":"bad_request","error":"..."}
///
/// --- Protocol v2 (socket transport only) ---------------------------------
///
/// Over `stagg serve --listen`, frames with "v":2 batch requests and stream
/// events. One frame, one JSON object, newline-terminated:
///
///   {"v":2,"id":7,"progress":true,"requests":[
///     {"name":"blas_axpy"},
///     {"kernel":"void kernel(...){...}","name":"my_kernel"}]}
///   {"v":2,"stats":true}
///   {"v":2,"id":9,"execute":{"name":"blas_gemv",
///     "sizes":{"M":2,"N":2},
///     "inputs":{"A":[1,2,3,4],"x":[1,1],"alpha":2}}}
///
/// An "execute" frame lifts the kernel (registry "name" or inline "kernel",
/// with the usual "oracle_hint"/"config" fields; previously-lifted kernels
/// answer from the result cache) and then runs the lifted program on the
/// posted concrete inputs through the bytecode VM, streaming back the
/// output tensor as one "result" event:
///
///   {"v":2,"event":"result","id":9,"name":"blas_gemv","status":"ok",
///    "cached":true,"expr":"out(i) = A(i,j) * x(j)",
///    "shape":[2],"data":[3.0,7.0]}
///   {"v":2,"event":"result","id":9,"name":"bad","status":"error",
///    "error":"kernel was not lifted: ..."}
///
/// "id" (any JSON scalar) is echoed verbatim on every event the frame
/// produces; "progress" opts into phase events. The server answers with one
/// event object per line, interleaved across a connection's frames:
///
///   {"v":2,"event":"progress","id":7,"seq":0,"name":"blas_axpy",
///    "phase":"queued"}            // then "ingested","searching","verified"
///   {"v":2,"event":"response","id":7,"seq":0,"response":{<a complete v1
///    response object, byte-identical to the stdin path>}}
///   {"v":2,"event":"done","id":7,"completed":2}
///   {"v":2,"event":"stats","server":{...},"service":{...},"cache":{...}}
///   {"v":2,"event":"error","error":"..."}
///
/// Per-item parse errors become per-item "response" events carrying a v1
/// bad_request object; only a structurally broken frame produces an
/// "error" event. Response events of one frame arrive in request order;
/// progress events arrive as phases happen. v1 lines work over the socket
/// unchanged, answered in admission order per connection. During a graceful
/// drain every new frame is answered with a status "shutting_down" line.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_API_PROTOCOL_H
#define STAGG_API_PROTOCOL_H

#include "api/Api.h"

#include <optional>
#include <string>

namespace stagg {
namespace api {

/// The protocol versions this build speaks: v1 everywhere, v2 over the
/// socket transport.
constexpr int ProtocolVersion = 1;
constexpr int ProtocolVersionV2 = 2;

/// One parsed request line.
struct ParsedRequest {
  LiftRequest Request;

  /// Non-empty when the line violates the protocol (malformed JSON, wrong
  /// version, unknown/mistyped fields). The request is unusable.
  std::string Error;

  bool ok() const { return Error.empty(); }
};

/// Parses \p Line as a v1 request object. Blank lines and `#` comments
/// must be filtered by the caller.
ParsedRequest parseRequestLine(const std::string &Line);

/// Renders \p Response as one line of protocol v1 JSON (no newline).
std::string renderResponse(const LiftResponse &Response);

/// Renders a protocol-level failure (a line that never became a request).
std::string renderProtocolError(const std::string &Message);

/// Renders a one-line status + error object (`{"v":1,"status":...,
/// "error":...}`) — the generalized form of renderProtocolError, used for
/// transport-level refusals like shutting_down.
std::string renderStatusError(Status St, const std::string &Message);

/// One socket frame, classified. v1 lines pass through as ParsedRequest;
/// v2 frames carry a batch or a stats probe.
struct SocketFrame {
  enum class Kind {
    V1,      ///< A v1 request line (V1 field).
    Batch,   ///< A v2 batch (Items; possibly empty).
    Stats,   ///< A v2 stats probe.
    Execute, ///< A v2 execute request (Exec + Io).
    Invalid, ///< Structurally broken (Error).
  };

  Kind K = Kind::Invalid;
  ParsedRequest V1;

  /// The frame's "id" rendered back to JSON, echoed on every event this
  /// frame produces; empty when absent.
  std::string IdJson;

  /// True when the batch asked for progress events.
  bool Progress = false;

  /// The batch's requests in order. An item with a non-empty Error still
  /// occupies its slot and is answered with a bad_request response event.
  std::vector<ParsedRequest> Items;

  /// Execute frames: which kernel to lift, and the concrete inputs to run
  /// the lifted program on.
  LiftRequest Exec;
  ExecuteIo Io;

  std::string Error;

  bool ok() const { return K != Kind::Invalid; }
};

/// Parses one newline-delimited socket frame (newline already stripped).
///
/// Two paths, chosen by the bytes alone. An execute frame of the common
/// shape — an integer "v":2, an integer "id" or none, and an "execute"
/// object with an unescaped "name", positive-integer "sizes" and "inputs"
/// of numbers or flat number arrays, no duplicate and no other keys — is
/// decoded by a strict typed scanner straight into Exec/Io, never building
/// a support::Json node per cell. Every other line (v1 requests, batches,
/// stats, "kernel"/"oracle_hint"/"config" execute frames, escapes, and
/// every malformed frame) takes the DOM path: support::parseJson, then the
/// field checks. The DOM path therefore owns every error text and
/// line/column; on the frames both accept, both give an equal SocketFrame.
SocketFrame parseSocketFrame(const std::string &Line);

namespace detail {

// Each path alone, for the differential tests that hold them equal.

/// The typed execute decoder: the frame when \p Line has the shape above,
/// nullopt otherwise.
std::optional<SocketFrame> parseExecuteFrameTyped(const std::string &Line);

/// parseSocketFrame without the typed decoder.
SocketFrame parseSocketFrameDom(const std::string &Line);

} // namespace detail

/// v2 event lines (no trailing newline). The response event embeds the v1
/// rendering of \p Response verbatim, so socket results are byte-identical
/// to the stdin path. \p IdJson is a SocketFrame::IdJson echo ("" omits
/// the field); \p Seq < 0 omits "seq".
std::string renderProgressEvent(const std::string &IdJson, int Seq,
                                const std::string &Name, const char *Phase);
std::string renderResponseEvent(const std::string &IdJson, int Seq,
                                const LiftResponse &Response);
std::string renderDoneEvent(const std::string &IdJson, int Completed);
std::string renderErrorEvent(const std::string &IdJson,
                             const std::string &Message);

/// The v2 "result" event answering an execute frame: the output tensor on
/// success, a status "error" object otherwise. "shape" and "data" are
/// appended straight into the line (support::appendJsonNumber per cell);
/// no support::Json array is built.
std::string renderResultEvent(const std::string &IdJson,
                              const std::string &Name,
                              const ExecuteOutcome &Outcome);

} // namespace api
} // namespace stagg

#endif // STAGG_API_PROTOCOL_H
