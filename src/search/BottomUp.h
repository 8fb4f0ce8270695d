//===- search/BottomUp.h - Bottom-up weighted A* enumeration ----*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm 2 of the paper: A\*-guided bottom-up enumeration over the tail
/// grammar of §5.2. Expressions grow only by appending `OP TENSOR` at the
/// end, so every state is a left-associated operator chain; whenever a state
/// is dequeued its tail nonterminal is stripped and the resulting complete
/// template is probed against the specification. By construction this search
/// can never produce parenthesized / right-balanced ASTs — the structural
/// limitation RQ2 attributes BU's lower coverage to.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_SEARCH_BOTTOMUP_H
#define STAGG_SEARCH_BOTTOMUP_H

#include "grammar/Pcfg.h"
#include "search/SearchTypes.h"

namespace stagg {
namespace search {

/// Runs the bottom-up enumeration. \p Probe is invoked on each dequeued
/// (tail-stripped) chain; returning true ends the search successfully. The
/// single probe is shared across workers, so with Config.Threads != 1 it
/// must be thread-safe; stateful probes should use the factory overload.
SearchResult runBottomUp(const grammar::TemplateGrammar &G,
                         const SearchConfig &Config,
                         const TemplateProbe &Probe);

/// Same search with one probe per worker (see TemplateProbeFactory).
SearchResult runBottomUp(const grammar::TemplateGrammar &G,
                         const SearchConfig &Config,
                         const TemplateProbeFactory &Factory);

} // namespace search
} // namespace stagg

#endif // STAGG_SEARCH_BOTTOMUP_H
