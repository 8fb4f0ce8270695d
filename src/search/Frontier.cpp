//===- search/Frontier.cpp - The serial candidate loop --------------------===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "search/Frontier.h"

#include <utility>

namespace stagg {
namespace search {

CandidateStream::~CandidateStream() = default;

SearchResult driveSerial(CandidateStream &Stream,
                         const TemplateProbeFactory &Factory) {
  SearchResult R;
  TemplateProbe Probe = Factory(0);
  Candidate C;
  while (Stream.next(C)) {
    ++R.ProbesExecuted;
    if (Probe(C.Program)) {
      R.Solved = true;
      R.SolvedTemplate = std::move(C.Program);
      R.Attempts = C.AttemptsAtYield;
      R.Expansions = C.ExpansionsAtYield;
      R.WinnerWorker = 0;
      break;
    }
  }
  if (!R.Solved) {
    R.FailReason = Stream.failReason();
    R.Attempts = Stream.attempts();
    R.Expansions = Stream.expansions();
  }
  R.Seconds = Stream.seconds();
  return R;
}

} // namespace search
} // namespace stagg
