//===- llm/Prompt.h - Prompt construction -----------------------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the exact prompt of the paper's Prompt 1. Kept verbatim so that a
/// real LLM backend can be dropped in behind the CandidateOracle interface
/// without touching the pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_LLM_PROMPT_H
#define STAGG_LLM_PROMPT_H

#include <string>

namespace stagg {
namespace llm {

/// Renders Prompt 1 for \p CSource, requesting \p NumCandidates expressions.
std::string buildPrompt(const std::string &CSource, int NumCandidates = 10);

} // namespace llm
} // namespace stagg

#endif // STAGG_LLM_PROMPT_H
