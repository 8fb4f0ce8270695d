//===- search/SearchTypes.h - Shared search configuration -------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration and result types shared by the top-down and bottom-up
/// weighted A\* searches, including the per-penalty ablation switches that
/// drive the Table 2 experiments.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_SEARCH_SEARCHTYPES_H
#define STAGG_SEARCH_SEARCHTYPES_H

#include "taco/Ast.h"

#include <cstdint>
#include <functional>
#include <string>

namespace stagg {
namespace search {

/// Ablation switches and resource limits for the searches.
struct SearchConfig {
  /// Top-down penalty criteria a1..a5 (§5.1).
  bool PenaltyA1 = true;
  bool PenaltyA2 = true;
  bool PenaltyA3 = true;
  bool PenaltyA4 = true;
  bool PenaltyA5 = true;

  /// Bottom-up penalty criteria b1..b2 (§5.2).
  bool PenaltyB1 = true;
  bool PenaltyB2 = true;

  /// Maximum expression depth for the top-down search (§5.1).
  int MaxDepth = 6;

  /// Wall-clock budget per query in seconds (the paper uses 60 minutes on a
  /// laptop; the simulated substrate is far faster).
  double TimeoutSeconds = 5.0;

  /// Safety caps so ablated configurations terminate.
  int64_t MaxExpansions = 2'000'000;
  int MaxAttempts = 20'000;

  /// Ignored: every search probes its candidates serially. Kept only
  /// because the repository benchmark still sets it
  /// (perfbench/src/Reconstruct.cpp:126); the next benchmark change deletes
  /// it.
  int Threads = 1;

  /// Convenience: disables all penalties of one search (Drop(A)/Drop(B)).
  void dropAllTopDownPenalties() {
    PenaltyA1 = PenaltyA2 = PenaltyA3 = PenaltyA4 = PenaltyA5 = false;
  }
  void dropAllBottomUpPenalties() { PenaltyB1 = PenaltyB2 = false; }
};

/// Rank mask of the searches: bit R is set when the validator can bind a
/// template symbol of rank R (some kernel argument has rank R). A complete
/// template using an unbindable rank is counted as an attempt but never
/// probed, since the validator rejects it on rank alone. The default probes
/// every complete template.
constexpr uint64_t AllRanksBindable = ~uint64_t(0);

/// Callback deciding whether a complete template solves the query (the
/// pipeline's validate-then-verify step). Returning true stops the search.
using TemplateProbe = std::function<bool(const taco::Program &Template)>;

/// Probe maker: the search calls it once, with worker index 0, before it
/// probes its first candidate, so the probe may own mutable state
/// (validator, reference cache, result slot).
using TemplateProbeFactory = std::function<TemplateProbe(int Worker)>;

/// Outcome of one search run.
struct SearchResult {
  bool Solved = false;
  taco::Program SolvedTemplate;

  /// Number of complete templates submitted to validation ("attempts"),
  /// including the ones the rank mask settles without a probe.
  int Attempts = 0;

  /// Number of queue pops (enumerated partial templates).
  int64_t Expansions = 0;

  double Seconds = 0;
  std::string FailReason;

  /// Candidates handed to the probe (Attempts minus the templates the rank
  /// mask settled).
  int64_t ProbesExecuted = 0;

  /// Always 0 on success and -1 when unsolved. Kept only because the
  /// repository benchmark indexes its per-worker state with it
  /// (perfbench/src/Reconstruct.cpp:173); the next benchmark change deletes
  /// it.
  int WinnerWorker = -1;
};

} // namespace search
} // namespace stagg

#endif // STAGG_SEARCH_SEARCHTYPES_H
