//===- search/Frontier.h - Deterministic parallel frontier ------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel candidate frontier shared by the top-down and bottom-up
/// searches. The key observation making it deterministic: in both serial
/// loops the probe outcome never feeds back into the priority queue —
/// enumeration order of complete candidates is a pure function of (grammar,
/// config). So the frontier splits each search into
///
///   * a CandidateStream: the search's own enumeration loop, refactored
///     into a resumable generator that replays the serial pop order exactly
///     and stamps every complete candidate it yields with a ticket (its
///     0-based probe index in the serial schedule) plus the serial
///     Attempts / Expansions counters at the moment of the yield; and
///
///   * runFrontier: N workers that each pull the next ticket from the
///     stream and probe it, accepting the lowest successful ticket only
///     after every earlier ticket has resolved as a failure — i.e. exactly
///     the candidate serial search would accept, with the serial counters.
///
/// With Threads == 1 the frontier degenerates to driving the stream on the
/// calling thread, which is the serial loop verbatim.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_SEARCH_FRONTIER_H
#define STAGG_SEARCH_FRONTIER_H

#include "search/SearchTypes.h"
#include "taco/Ast.h"

#include <cstdint>
#include <string>

namespace stagg {
namespace search {

/// One complete template as the serial schedule would probe it.
struct Candidate {
  /// 0-based position among the candidates the stream yields. A stream
  /// skips the attempts its rank mask settles (search/SearchTypes.h,
  /// AllRanksBindable), so tickets count yielded candidates, not attempts.
  uint64_t Ticket = 0;

  taco::Program Program;

  /// Serial counters immediately after this candidate was popped: Attempts
  /// includes this candidate and every skipped one before it
  /// (AttemptsAtYield >= Ticket + 1, with equality under the all-ranks
  /// mask), Expansions counts every queue pop up to and including the pop
  /// that completed it. A run accepting this candidate reports exactly
  /// these values.
  int AttemptsAtYield = 0;
  int64_t ExpansionsAtYield = 0;
};

/// Resumable enumeration of complete candidates in serial probe order.
/// next() returns false once the search is exhausted or a budget/timeout
/// fires, after which the terminal accessors are valid. Streams are not
/// thread-safe: the frontier lets one worker at a time pull from one.
class CandidateStream {
public:
  virtual ~CandidateStream();

  /// Yields the next candidate the serial loop would probe. Performs the
  /// same per-pop timeout/budget checks as the serial loop, in the same
  /// order.
  virtual bool next(Candidate &Out) = 0;

  /// Why enumeration stopped ("timeout", "budget exhausted", "search space
  /// exhausted", ...). Valid once next() has returned false.
  virtual const std::string &failReason() const = 0;

  /// Running serial counters (terminal values once next() returned false).
  virtual int attempts() const = 0;
  virtual int64_t expansions() const = 0;

  /// Wall-clock seconds since the stream was created — the same clock the
  /// per-pop timeout checks read.
  virtual double seconds() const = 0;
};

/// Drives \p Stream with Config.Threads workers (resolveThreads applied).
/// Each worker obtains its probe from \p Factory exactly once, on its own
/// thread, before its first probe. Returns the result the serial search
/// would return: the lowest-ticket successful candidate with serial
/// Attempts/Expansions, or the stream's terminal fail reason. An exception
/// thrown by the factory, the stream or a probe stops every worker and
/// propagates to the caller after all workers have joined.
SearchResult runFrontier(CandidateStream &Stream, const SearchConfig &Config,
                         const TemplateProbeFactory &Factory);

} // namespace search
} // namespace stagg

#endif // STAGG_SEARCH_FRONTIER_H
