//===- search/TopDown.h - Top-down weighted A* enumeration ------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm 1 of the paper: weighted A\* over the template grammar,
/// expanding the leftmost nonterminal of partial templates, ordered by
/// f(x) = c(x) + g(x) + X(x), with a depth limit of 6. Probing runs on the
/// parallel frontier (search/Frontier.h) when Config.Threads != 1; results
/// are bit-identical for every thread count.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_SEARCH_TOPDOWN_H
#define STAGG_SEARCH_TOPDOWN_H

#include "grammar/Pcfg.h"
#include "search/SearchTypes.h"

namespace stagg {
namespace search {

/// Runs the top-down enumeration. \p Probe is invoked on every complete
/// template; returning true ends the search successfully. The single probe
/// is shared across workers, so with Config.Threads != 1 it must be
/// thread-safe; stateful probes should use the factory overload instead.
SearchResult runTopDown(const grammar::TemplateGrammar &G,
                        const SearchConfig &Config, const TemplateProbe &Probe);

/// Same search with one probe per worker (see TemplateProbeFactory).
SearchResult runTopDown(const grammar::TemplateGrammar &G,
                        const SearchConfig &Config,
                        const TemplateProbeFactory &Factory);

} // namespace search
} // namespace stagg

#endif // STAGG_SEARCH_TOPDOWN_H
