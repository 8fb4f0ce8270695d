//===- search/Frontier.h - The serial candidate loop ------------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The candidate loop shared by the top-down and bottom-up searches. Each
/// search is split into
///
///   * a CandidateStream: the search's own enumeration loop, written as a
///     resumable generator that yields every complete candidate in probe
///     order, stamped with a ticket (its 0-based probe index) plus the
///     Attempts / Expansions counters at the moment of the yield; and
///
///   * driveSerial: pulls candidates one at a time and probes each, stopping
///     at the first success or when the stream ends.
///
/// Lifts run in parallel across requests (api::Endpoint) and across
/// kernels (the batch driver), never inside one search.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_SEARCH_FRONTIER_H
#define STAGG_SEARCH_FRONTIER_H

#include "search/SearchTypes.h"
#include "taco/Ast.h"

#include <cstddef>
#include <cstdint>
#include <string>

namespace stagg {
namespace search {

/// One complete template, as the loop probes it.
struct Candidate {
  /// 0-based position among the candidates the stream yields. A stream
  /// skips the attempts its rank mask settles (search/SearchTypes.h,
  /// AllRanksBindable), so tickets count yielded candidates, not attempts.
  uint64_t Ticket = 0;

  taco::Program Program;

  /// Counters immediately after this candidate was expanded: Attempts
  /// includes this candidate and every skipped one before it
  /// (AttemptsAtYield >= Ticket + 1, with equality under the all-ranks
  /// mask), Expansions counts every partial or complete template the search
  /// took in priority order, up to and including this one (see
  /// SearchResult::Expansions). A run accepting this candidate reports
  /// exactly these values.
  int AttemptsAtYield = 0;
  int64_t ExpansionsAtYield = 0;
};

/// Resumable enumeration of complete candidates in probe order. next()
/// returns false once the search is exhausted or a budget/timeout fires,
/// after which the terminal accessors are valid. Streams are not
/// thread-safe.
class CandidateStream {
public:
  virtual ~CandidateStream();

  /// Yields the next candidate to probe, after the per-expansion timeout
  /// and budget checks.
  virtual bool next(Candidate &Out) = 0;

  /// Why enumeration stopped ("timeout", "budget exhausted", "search space
  /// exhausted", ...). Valid once next() has returned false.
  virtual const std::string &failReason() const = 0;

  /// Running counters (terminal values once next() returned false).
  virtual int attempts() const = 0;
  virtual int64_t expansions() const = 0;

  /// Wall-clock seconds since the stream was created — the same clock the
  /// per-expansion timeout checks read.
  virtual double seconds() const = 0;

  /// Most entries the search's priority queue has held at once so far.
  virtual size_t peakFrontier() const = 0;
};

/// Probes the candidates of \p Stream in order with the probe \p Factory
/// makes for worker 0, and returns the first success with the counters
/// stamped on it, or the stream's terminal fail reason. An exception from
/// the factory, the stream or the probe propagates to the caller.
SearchResult driveSerial(CandidateStream &Stream,
                         const TemplateProbeFactory &Factory);

} // namespace search
} // namespace stagg

#endif // STAGG_SEARCH_FRONTIER_H
