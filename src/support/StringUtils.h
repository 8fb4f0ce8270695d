//===- support/StringUtils.h - Small string helpers -------------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String utilities shared across the front ends and the response parser.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_SUPPORT_STRINGUTILS_H
#define STAGG_SUPPORT_STRINGUTILS_H

#include <string>
#include <vector>

namespace stagg {

/// Strips leading and trailing ASCII whitespace.
std::string trim(const std::string &Text);

/// Replaces every occurrence of \p From in \p Text with \p To.
std::string replaceAll(std::string Text, const std::string &From,
                       const std::string &To);

/// Joins \p Parts with \p Separator between consecutive elements.
std::string joinStrings(const std::vector<std::string> &Parts,
                        const std::string &Separator);

/// Returns true if \p Text begins with \p Prefix.
bool startsWith(const std::string &Text, const std::string &Prefix);

/// Canonicalizes C kernel text for use as a cache key: strips `//` and
/// `/* */` comments (string/char literals are preserved verbatim),
/// collapses every whitespace *run* to a single space, and trims the ends.
/// Formattings that differ only in comments, indentation, or the width of
/// existing separators normalize identically; inserting or removing a
/// separator between tokens (`y[i]=x` vs `y[i] = x`), like any token
/// change, produces a different key — a conservative miss, never a wrong
/// hit.
std::string normalizeKernelText(const std::string &Source);

/// Levenshtein edit distance (insert/delete/substitute, unit costs).
size_t editDistance(const std::string &A, const std::string &B);

/// The closest candidate to \p Unknown by edit distance, for "did you
/// mean" hints, or "" when nothing is near enough to be a plausible typo
/// (a typo shares most of its letters with the intended spelling; anything
/// further than max(2, |Unknown|/3) away is noise, not a suggestion).
std::string closestMatch(const std::string &Unknown,
                         const std::vector<std::string> &Candidates);

} // namespace stagg

#endif // STAGG_SUPPORT_STRINGUTILS_H
