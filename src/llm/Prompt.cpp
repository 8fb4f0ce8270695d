//===- llm/Prompt.cpp - Prompt construction -------------------------------===//

#include "llm/Prompt.h"

using namespace stagg;

std::string llm::buildPrompt(const std::string &CSource, int NumCandidates) {
  std::string Prompt;
  Prompt += "You are a scientific assistant that knows a lot about "
            "transpilation. Translate the following C code to an expression "
            "in the TACO tensor index notation. The expression must be valid "
            "as input to the taco compiler. Return a list with " +
            std::to_string(NumCandidates) +
            " possible expressions. Return the list and only the list, no "
            "explanations.\n\n";
  Prompt += CSource;
  Prompt += "\n";
  return Prompt;
}
