//===- support/StringUtils.cpp - Small string helpers ---------------------===//

#include "support/StringUtils.h"

#include <algorithm>
#include <cctype>

using namespace stagg;

std::string stagg::trim(const std::string &Text) {
  size_t Begin = 0;
  size_t End = Text.size();
  while (Begin < End && std::isspace(static_cast<unsigned char>(Text[Begin])))
    ++Begin;
  while (End > Begin &&
         std::isspace(static_cast<unsigned char>(Text[End - 1])))
    --End;
  return Text.substr(Begin, End - Begin);
}

std::string stagg::replaceAll(std::string Text, const std::string &From,
                              const std::string &To) {
  if (From.empty())
    return Text;
  size_t Pos = 0;
  while ((Pos = Text.find(From, Pos)) != std::string::npos) {
    Text.replace(Pos, From.size(), To);
    Pos += To.size();
  }
  return Text;
}

std::string stagg::joinStrings(const std::vector<std::string> &Parts,
                               const std::string &Separator) {
  std::string Result;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Result += Separator;
    Result += Parts[I];
  }
  return Result;
}

bool stagg::startsWith(const std::string &Text, const std::string &Prefix) {
  return Text.size() >= Prefix.size() &&
         Text.compare(0, Prefix.size(), Prefix) == 0;
}

std::string stagg::normalizeKernelText(const std::string &Source) {
  std::string Out;
  Out.reserve(Source.size());
  bool PendingSpace = false;
  for (size_t I = 0; I < Source.size();) {
    char C = Source[I];
    // String and character literals are copied verbatim — a `//` or
    // whitespace inside one is content, not a comment or separator.
    if (C == '"' || C == '\'') {
      if (PendingSpace && !Out.empty())
        Out += ' ';
      PendingSpace = false;
      char Quote = C;
      Out += Source[I++];
      while (I < Source.size()) {
        Out += Source[I];
        if (Source[I] == '\\' && I + 1 < Source.size()) {
          Out += Source[I + 1];
          I += 2;
          continue;
        }
        if (Source[I] == Quote) {
          ++I;
          break;
        }
        ++I;
      }
      continue;
    }
    if (C == '/' && I + 1 < Source.size() && Source[I + 1] == '/') {
      while (I < Source.size() && Source[I] != '\n')
        ++I;
      PendingSpace = true;
      continue;
    }
    if (C == '/' && I + 1 < Source.size() && Source[I + 1] == '*') {
      I += 2;
      while (I + 1 < Source.size() &&
             !(Source[I] == '*' && Source[I + 1] == '/'))
        ++I;
      I = I + 1 < Source.size() ? I + 2 : Source.size();
      PendingSpace = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(C))) {
      PendingSpace = true;
      ++I;
      continue;
    }
    if (PendingSpace && !Out.empty())
      Out += ' ';
    PendingSpace = false;
    Out += C;
    ++I;
  }
  return Out;
}

size_t stagg::editDistance(const std::string &A, const std::string &B) {
  std::vector<size_t> Row(B.size() + 1);
  for (size_t J = 0; J <= B.size(); ++J)
    Row[J] = J;
  for (size_t I = 1; I <= A.size(); ++I) {
    size_t Diagonal = Row[0];
    Row[0] = I;
    for (size_t J = 1; J <= B.size(); ++J) {
      size_t Above = Row[J];
      size_t Substitute = Diagonal + (A[I - 1] == B[J - 1] ? 0 : 1);
      Row[J] = std::min({Above + 1, Row[J - 1] + 1, Substitute});
      Diagonal = Above;
    }
  }
  return Row[B.size()];
}

std::string stagg::closestMatch(const std::string &Unknown,
                                const std::vector<std::string> &Candidates) {
  // Edit distance is never below the length difference, so a candidate
  // whose length alone rules it out (it cannot beat the best so far, or
  // cannot be accepted) is skipped without the O(|a|*|b|) table. Names
  // arrive off the wire, and a megabyte-long one must not cost seconds.
  const size_t Threshold = std::max<size_t>(2, Unknown.size() / 3);
  std::string Best;
  size_t BestDistance = std::string::npos;
  for (const std::string &Candidate : Candidates) {
    size_t LengthGap = Unknown.size() > Candidate.size()
                           ? Unknown.size() - Candidate.size()
                           : Candidate.size() - Unknown.size();
    if (LengthGap >= BestDistance || LengthGap > Threshold)
      continue;
    size_t Distance = editDistance(Unknown, Candidate);
    if (Distance < BestDistance) {
      BestDistance = Distance;
      Best = Candidate;
    }
  }
  if (BestDistance <= Threshold)
    return Best;
  return std::string();
}
