//===- search/Penalty.h - Domain-specific penalty functions -----*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The penalty terms X(x) of §5.1 (top-down criteria a1..a5) and §5.2
/// (bottom-up criteria b1..b2). An infinite penalty means the expression is
/// pruned outright; finite penalties deprioritize it. Template length is
/// measured as the number of tensor symbols *including* the LHS, matching
/// the dimension list whose first entry is the LHS.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_SEARCH_PENALTY_H
#define STAGG_SEARCH_PENALTY_H

#include "grammar/Pcfg.h"
#include "search/SearchTypes.h"
#include "search/TemplateState.h"

namespace stagg {
namespace search {

/// The "infinite" penalty.
double infinitePenalty();

/// Top-down penalty X(x) over the metrics of a partial or complete template.
double topDownPenalty(const StateMetrics &M, const grammar::TemplateGrammar &G,
                      const SearchConfig &Config);

/// Bottom-up penalty over the metrics of a flat chain state: its leaves
/// placed, its distinct operators, and the order of its tensor symbols.
double bottomUpPenalty(const StateMetrics &M, const grammar::TemplateGrammar &G,
                       const SearchConfig &Config);

} // namespace search
} // namespace stagg

#endif // STAGG_SEARCH_PENALTY_H
