//===- verify/BoundedVerifier.cpp - Bounded equivalence checking ----------===//

#include "verify/BoundedVerifier.h"

#include "cfront/Interp.h"
#include "support/Rational.h"
#include "support/Rng.h"
#include "taco/Einsum.h"
#include "taco/Printer.h"
#include "taco/Semantics.h"
#include "validate/IoExamples.h"
#include "vm/Compiler.h"
#include "vm/Optimizer.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <utility>

using namespace stagg;
using namespace stagg::verify;
using namespace stagg::taco;

namespace {

/// Distinct tensor names read by the candidate's RHS.
std::vector<std::string> rhsTensorNames(const Program &P) {
  std::vector<std::string> Names;
  std::function<void(const Expr &)> Visit = [&](const Expr &E) {
    switch (E.kind()) {
    case Expr::Kind::Access: {
      const std::string &Name = exprCast<AccessExpr>(E).name();
      if (std::find(Names.begin(), Names.end(), Name) == Names.end())
        Names.push_back(Name);
      return;
    }
    case Expr::Kind::Binary: {
      const auto &B = exprCast<BinaryExpr>(E);
      Visit(B.lhs());
      Visit(B.rhs());
      return;
    }
    case Expr::Kind::Negate:
      Visit(exprCast<NegateExpr>(E).operand());
      return;
    case Expr::Kind::Max: {
      const auto &M = exprCast<MaxExpr>(E);
      Visit(M.lhs());
      Visit(M.rhs());
      return;
    }
    case Expr::Kind::Constant:
      return;
    }
  };
  if (P.Rhs)
    Visit(*P.Rhs);
  return Names;
}

using NamePair = std::pair<std::string, std::string>;

NamePair normPair(const std::string &A, const std::string &B) {
  return A <= B ? NamePair(A, B) : NamePair(B, A);
}

/// Collects every unordered pair of tensor names with a multiplicative
/// interaction in \p E: names on opposite sides of a `*` or `/`, plus —
/// because a divisor enters nonlinearly — every (divisor name, input
/// array) pair. Returns the names occurring in the subtree.
std::set<std::string>
collectMultipliedPairs(const Expr &E, const std::vector<std::string> &Inputs,
                       std::set<NamePair> &Pairs) {
  switch (E.kind()) {
  case Expr::Kind::Access:
    return {exprCast<AccessExpr>(E).name()};
  case Expr::Kind::Constant:
    return {};
  case Expr::Kind::Negate:
    return collectMultipliedPairs(exprCast<NegateExpr>(E).operand(), Inputs,
                                  Pairs);
  case Expr::Kind::Binary: {
    const auto &B = exprCast<BinaryExpr>(E);
    std::set<std::string> L = collectMultipliedPairs(B.lhs(), Inputs, Pairs);
    std::set<std::string> R = collectMultipliedPairs(B.rhs(), Inputs, Pairs);
    if (B.op() == BinOpKind::Mul || B.op() == BinOpKind::Div)
      for (const std::string &Ln : L)
        for (const std::string &Rn : R)
          Pairs.insert(normPair(Ln, Rn));
    if (B.op() == BinOpKind::Div)
      for (const std::string &Rn : R)
        for (const std::string &In : Inputs)
          Pairs.insert(normPair(Rn, In));
    L.insert(R.begin(), R.end());
    return L;
  }
  case Expr::Kind::Max: {
    // max is piecewise: which argument wins depends on both operands, so
    // every cross pair needs the joint sweep, exactly like multiplication.
    const auto &M = exprCast<MaxExpr>(E);
    std::set<std::string> L = collectMultipliedPairs(M.lhs(), Inputs, Pairs);
    std::set<std::string> R = collectMultipliedPairs(M.rhs(), Inputs, Pairs);
    for (const std::string &Ln : L)
      for (const std::string &Rn : R)
        Pairs.insert(normPair(Ln, Rn));
    L.insert(R.begin(), R.end());
    return L;
  }
  }
  return {};
}

/// What is being verified: one concrete program, or an ordered statement
/// list executed as one program, compiled once to bytecode for the sweep.
struct CandidateSpec {
  const Program *Single = nullptr;
  const std::vector<std::string> *RhsNames = nullptr; // when Single
  const std::vector<Program> *Sequence = nullptr;
  const vm::Code *Vm = nullptr;
};

/// Whether any of \p N cells overflowed (Rational::isPoisoned).
bool anyPoisoned(const Rational *Cells, size_t N) {
  for (size_t I = 0; I < N; ++I)
    if (Cells[I].isPoisoned())
      return true;
  return false;
}

/// The bounded test harness of one verifyEquivalence call. Everything the
/// tests share is allocated once and reshaped in place per shape
/// assignment: one operand tensor per argument (the TACO side binds these,
/// and each test overwrites the input cells in place), the C side's
/// scratch buffers and argument spans, the cache key, and the candidate's
/// output tensor.
class TestHarness {
public:
  TestHarness(const bench::Benchmark &B, const CandidateSpec &Spec,
              vm::Interpreter<Rational> &VmEval,
              cfront::Executor<Rational> &Exec, ReferenceCache *Cache,
              bool TrustBounds)
      : B(B), Spec(Spec), VmEval(VmEval), Exec(Exec), Cache(Cache),
        TrustBounds(TrustBounds) {
    const size_t NumArgs = B.Args.size();
    Operands.resize(NumArgs);
    Scratch.resize(NumArgs);
    IntValues.assign(NumArgs, 0);
    for (size_t I = 0; I < NumArgs; ++I)
      if (B.Args[I].K == bench::ArgSpec::Kind::NumScalar)
        Operands[I] = Tensor<Rational>::scalar(Rational(1));
    OutArg = B.outputArg();
    OutIndex = firstArg(OutArg->Name, bench::ArgSpec::Kind::Array);

    // The kernel's parameters bind by name once; BufferArgs records which
    // argument backs each pointer parameter, whose span setShape() fills.
    BindStatus = cfront::bindArguments<Rational>(
        Exec.function(),
        [this](const std::string &Name) -> std::vector<Rational> * {
          size_t I = firstArg(Name, bench::ArgSpec::Kind::Array);
          if (I == this->B.Args.size())
            return nullptr;
          BufferArgs.push_back(I);
          return &Scratch[I];
        },
        [this](const std::string &Name) -> const int64_t * {
          size_t I = firstArg(Name, bench::ArgSpec::Kind::SizeScalar);
          return I < this->B.Args.size() ? &IntValues[I] : nullptr;
        },
        [this](const std::string &Name) -> const Rational * {
          size_t I = firstArg(Name, bench::ArgSpec::Kind::NumScalar);
          return I < this->B.Args.size() ? &Operands[I].flat()[0] : nullptr;
        },
        Args);

    // The candidate's operands, by name (the first argument of a name wins,
    // as it did in a name-keyed map): every argument for a statement list,
    // the names its RHS reads for a single program.
    if (Spec.Sequence) {
      for (size_t I = 0; I < NumArgs; ++I)
        Table.emplace_back(&B.Args[I].Name, &Operands[I]);
      return;
    }
    for (const std::string &Name : *Spec.RhsNames) {
      const bench::ArgSpec *Arg = B.findArg(Name);
      if (!Arg) {
        UnknownName = &Name;
        break;
      }
      Table.emplace_back(&Name,
                         &Operands[static_cast<size_t>(Arg - B.Args.data())]);
    }
  }

  /// Reshapes every buffer for the size assignment \p Sizes (values in
  /// \p SizeValues, the cache key's prefix) and rebinds both sides. The
  /// output's cells are zero, its pre-state in every test.
  void setShape(const std::map<std::string, int64_t> &Sizes,
                const std::vector<int64_t> &SizeValues) {
    this->SizeValues = &SizeValues;
    for (size_t I = 0; I < B.Args.size(); ++I) {
      const bench::ArgSpec &Arg = B.Args[I];
      if (Arg.K == bench::ArgSpec::Kind::Array) {
        Operands[I].reshape(validate::resolveShape(Arg, Sizes));
        Scratch[I].resize(Operands[I].size());
      } else if (Arg.K == bench::ArgSpec::Kind::SizeScalar) {
        IntValues[I] = Sizes.at(Arg.Name);
        Operands[I].flat()[0] = Rational(IntValues[I]);
      }
    }
    // A single program's binding depends on shapes only, so one per shape
    // serves every test: the cells it points at are overwritten in place.
    if (Spec.Single && !UnknownName)
      Bound = VmEval.bind(
          [this](const std::string &Name) { return operand(Name); },
          validate::resolveShape(*OutArg, Sizes));
    // Only the buffers' spans change with the shape.
    const std::vector<cfront::CompiledFunction::Param> &Params =
        Exec.function().Params;
    for (size_t P = 0, K = 0; P < Params.size(); ++P)
      if (Params[P].IsPointer && K < BufferArgs.size()) {
        std::vector<Rational> &Cells = Scratch[BufferArgs[K++]];
        Args[P].Data = Cells.data();
        Args[P].Size = static_cast<int64_t>(Cells.size());
      }
  }

  /// The cells of argument \p Arg: the test input, written in place.
  std::vector<Rational> &cells(const bench::ArgSpec &Arg) {
    return Operands[static_cast<size_t>(&Arg - B.Args.data())].flat();
  }

  /// Runs both programs on the inputs currently in the operand cells;
  /// returns true on agreement, otherwise fills \p Witness.
  bool runOnce(std::string &Witness, int &TestsRun) {
    ++TestsRun;

    // TACO side first.
    if (UnknownName) {
      Witness = "candidate reads unknown tensor '" + *UnknownName + "'";
      return false;
    }
    bool TacoOk;
    if (Spec.Sequence) {
      // Statement lists execute over every argument (including the output
      // buffer's pre-state, which the C side also sees). Scratch results
      // forward to later statements; nothing is recompiled per test.
      TacoOk = VmEval.run(
          [this](const std::string &Name) { return operand(Name); },
          OutArg->Name, TacoOut);
    } else {
      TacoOk = Bound;
      if (Bound)
        VmEval.evaluateInto(TacoOut);
    }

    // C side, memoized on the exact input words: the reference
    // interpretation is candidate-independent, so across the
    // validator-fallback loop only the first candidate pays for it.
    ReferenceCache::Entry Ref;
    if (!Cache) {
      Ref = runReference();
    } else {
      buildKey();
      if (!Cache->find(Key, Ref)) {
        ReferenceCache::Entry Run = runReference();
        Ref = Cache->insert(Key, Run.Ok, *Run.Error, Run.Output, Run.Size);
      }
    }

    if (!Ref.Ok) {
      Witness = "legacy kernel failed: " + *Ref.Error;
      return false;
    }
    if (!TacoOk) {
      Witness = "candidate failed to evaluate: " + VmEval.error();
      return false;
    }

    const Rational *CSide = Ref.Output;
    const std::vector<Rational> &TacoSide = TacoOut.flat();
    // An overflowed cell carries no value: neither agreement nor a
    // readable mismatch can be claimed.
    if (anyPoisoned(CSide, Ref.Size)) {
      Witness = "rational overflow in C reference";
      return false;
    }
    if (anyPoisoned(TacoSide.data(), TacoSide.size())) {
      Witness = "rational overflow in candidate";
      return false;
    }
    if (Ref.Size != TacoSide.size()) {
      Witness = "output size mismatch";
      return false;
    }
    for (size_t I = 0; I < Ref.Size; ++I) {
      if (CSide[I] == TacoSide[I])
        continue;
      Witness = "output[" + std::to_string(I) + "]: C=" + CSide[I].str() +
                " vs TACO=" + TacoSide[I].str() + " for candidate " +
                candidateText();
      return false;
    }
    return true;
  }

private:
  /// Renders the candidate for witnesses (statement lists join with "; ").
  std::string candidateText() const {
    if (Spec.Single)
      return printProgram(*Spec.Single);
    std::string Out;
    for (const Program &P : *Spec.Sequence) {
      if (!Out.empty())
        Out += "; ";
      Out += printProgram(P);
    }
    return Out;
  }

  /// Index of the first argument named \p Name of kind \p K, or
  /// B.Args.size().
  size_t firstArg(const std::string &Name, bench::ArgSpec::Kind K) const {
    for (size_t I = 0; I < B.Args.size(); ++I)
      if (B.Args[I].K == K && B.Args[I].Name == Name)
        return I;
    return B.Args.size();
  }

  /// The candidate's operand named \p Name, or nullptr.
  const Tensor<Rational> *operand(const std::string &Name) const {
    for (const auto &[N, T] : Table)
      if (*N == Name)
        return T;
    return nullptr;
  }

  /// Interprets the kernel on a scratch copy of the pre-state: the status
  /// and the output argument's post-state, which stays in the scratch
  /// buffer until the next run.
  ReferenceCache::Entry runReference() {
    ReferenceCache::Entry E;
    E.Error = &RunError;
    if (!BindStatus.Ok) {
      RunError = BindStatus.Error;
      return E;
    }
    for (size_t I = 0; I < B.Args.size(); ++I)
      if (B.Args[I].K == bench::ArgSpec::Kind::Array)
        std::copy(Operands[I].flat().begin(), Operands[I].flat().end(),
                  Scratch[I].begin());
    cfront::ExecStatus Status = Exec.run(Args.data(), 10'000'000, TrustBounds);
    E.Ok = Status.Ok;
    RunError = std::move(Status.Error);
    if (Status.Ok && OutIndex < Scratch.size()) {
      E.Output = Scratch[OutIndex].data();
      E.Size = Scratch[OutIndex].size();
    }
    return E;
  }

  /// Fills Key with this test's input words (see ReferenceCache). The
  /// output's pre-state is zero in every test, so it is left out.
  void buildKey() {
    Key.clear();
    Key.insert(Key.end(), SizeValues->begin(), SizeValues->end());
    for (size_t I = 0; I < B.Args.size(); ++I) {
      const bench::ArgSpec &Arg = B.Args[I];
      if (Arg.K == bench::ArgSpec::Kind::SizeScalar || Arg.IsOutput)
        continue;
      for (const Rational &V : Operands[I].flat()) {
        Key.push_back(V.numerator());
        Key.push_back(V.denominator());
      }
    }
  }

  const bench::Benchmark &B;
  const CandidateSpec &Spec;
  vm::Interpreter<Rational> &VmEval;
  cfront::Executor<Rational> &Exec;
  ReferenceCache *Cache;
  bool TrustBounds; ///< VerifyOptions::TrustStaticBounds for this sweep.
  const std::vector<int64_t> *SizeValues = nullptr;

  /// Per argument: operand tensor (array cells, or the scalar's value),
  /// the C side's scratch copy (arrays), the integer value (sizes).
  std::vector<Tensor<Rational>> Operands;
  std::vector<std::vector<Rational>> Scratch;
  std::vector<int64_t> IntValues;
  const bench::ArgSpec *OutArg = nullptr;
  size_t OutIndex = 0;

  std::vector<std::pair<const std::string *, const Tensor<Rational> *>> Table;
  const std::string *UnknownName = nullptr;
  bool Bound = false;
  Tensor<Rational> TacoOut;

  cfront::ExecStatus BindStatus;
  std::vector<cfront::ArgRef<Rational>> Args;
  std::vector<size_t> BufferArgs;
  std::string RunError;
  std::vector<int64_t> Key;
};

/// The bounded sweep shared by the single-program and statement-list entry
/// points. \p UseMulPairs enables the one-hot pruning against \p MulPairs.
VerifyResult runBoundedSweep(const bench::Benchmark &B,
                             const cfront::CFunction &Fn,
                             const CandidateSpec &Spec,
                             const VerifyOptions &Options,
                             ReferenceCache *Cache, bool UseMulPairs,
                             const std::set<NamePair> &MulPairs) {
  VerifyResult Result;
  Rng R(Options.Seed);

  // The kernel's compiled form: the cache's (one per lift), else this
  // call's own.
  std::unique_ptr<cfront::CompiledFunction> Own;
  if (!Cache)
    Own = std::make_unique<cfront::CompiledFunction>(Fn);
  cfront::Executor<Rational> Exec(Cache ? Cache->reference(Fn) : *Own);
  vm::Interpreter<Rational> VmEval(*Spec.Vm);

  // Collect size parameters and the input arrays.
  std::vector<std::string> SizeParams;
  std::vector<const bench::ArgSpec *> InputArrays;
  std::vector<const bench::ArgSpec *> NumScalars;
  for (const bench::ArgSpec &Arg : B.Args) {
    if (Arg.K == bench::ArgSpec::Kind::SizeScalar)
      SizeParams.push_back(Arg.Name);
    else if (Arg.K == bench::ArgSpec::Kind::Array && !Arg.IsOutput)
      InputArrays.push_back(&Arg);
    else if (Arg.K == bench::ArgSpec::Kind::NumScalar)
      NumScalars.push_back(&Arg);
  }

  TestHarness Harness(B, Spec, VmEval, Exec, Cache, Options.TrustStaticBounds);

  // Which input pairs get the joint (not just diagonal) one-hot sweep.
  const size_t NumInputs = InputArrays.size();
  std::vector<char> Multiplied(NumInputs * NumInputs, 1);
  if (UseMulPairs)
    for (size_t A = 0; A < NumInputs; ++A)
      for (size_t C = A; C < NumInputs; ++C)
        Multiplied[A * NumInputs + C] = MulPairs.count(normPair(
            InputArrays[A]->Name, InputArrays[C]->Name)) > 0;

  // Every test writes all of its inputs; the output's zero pre-state is
  // never written.
  auto SetOnes = [&]() {
    for (const bench::ArgSpec *Arg : InputArrays) {
      std::vector<Rational> &Cells = Harness.cells(*Arg);
      std::fill(Cells.begin(), Cells.end(), Rational(1));
    }
    for (const bench::ArgSpec *Arg : NumScalars)
      Harness.cells(*Arg)[0] = Rational(1);
  };
  auto FillRandom = [&]() {
    for (const bench::ArgSpec *Arg : InputArrays)
      for (Rational &V : Harness.cells(*Arg))
        V = Rational(R.range(-3, 4), R.range(1, 2));
    for (const bench::ArgSpec *Arg : NumScalars)
      Harness.cells(*Arg)[0] = Rational(R.range(-2, 3), R.range(1, 2));
  };

  // Enumerate all shape assignments up to the bound.
  std::vector<int64_t> SizePick(SizeParams.size(), 1);
  std::map<std::string, int64_t> Sizes;
  for (;;) {
    for (size_t I = 0; I < SizeParams.size(); ++I)
      Sizes[SizeParams[I]] = SizePick[I];
    Harness.setShape(Sizes, SizePick);

    // (1) All-ones.
    SetOnes();
    if (!Harness.runOnce(Result.Counterexample, Result.TestsRun))
      return Result;

    // (2) Joint one-hot sweep over pairs of input arrays (all other inputs
    // held at one). This exposes every bilinear coefficient. Pairs the
    // candidate never multiplies together carry no bilinear terms, so
    // their sweep shrinks to the diagonal (distinct pairs drop entirely —
    // each operand's linear probes live on its own (A, A) diagonal).
    for (size_t A = 0; A < NumInputs; ++A) {
      for (size_t C = A; C < NumInputs; ++C) {
        const bool Joint = Multiplied[A * NumInputs + C];
        if (!Joint && A != C)
          continue;
        std::vector<Rational> &CellsA = Harness.cells(*InputArrays[A]);
        std::vector<Rational> &CellsC = Harness.cells(*InputArrays[C]);
        size_t LenA = CellsA.size();
        size_t LenC = CellsC.size();
        int Budget = Options.MaxOneHot;
        for (size_t PA = 0; PA < LenA && Budget > 0; ++PA) {
          for (size_t PC = 0; PC < LenC && Budget > 0; ++PC) {
            if (!Joint && PA != PC)
              continue; // diagonal-only: the linear one-hot probes
            --Budget;
            SetOnes();
            std::fill(CellsA.begin(), CellsA.end(), Rational(0));
            std::fill(CellsC.begin(), CellsC.end(), Rational(0));
            CellsA[PA] = Rational(2);
            CellsC[PC] = A == C && PA == PC ? Rational(2) : Rational(3);
            if (!Harness.runOnce(Result.Counterexample, Result.TestsRun))
              return Result;
          }
        }
      }
    }

    // (3) Pseudo-random rationals (negatives, halves).
    for (int T = 0; T < Options.RandomTrials; ++T) {
      FillRandom();
      // Division-bearing kernels may hit a zero denominator; both sides
      // propagate the undefined value, which compares equal.
      if (!Harness.runOnce(Result.Counterexample, Result.TestsRun))
        return Result;
    }

    // Advance the shape odometer.
    size_t Axis = SizePick.size();
    bool Wrapped = true;
    while (Axis > 0) {
      --Axis;
      if (++SizePick[Axis] <= Options.MaxSize) {
        Wrapped = false;
        break;
      }
      SizePick[Axis] = 1;
    }
    if (SizePick.empty() || Wrapped)
      break;
  }

  Result.Equivalent = true;
  return Result;
}

} // namespace

verify::ReferenceCache::ReferenceCache() = default;
verify::ReferenceCache::~ReferenceCache() = default;

namespace {

uint64_t hashWords(const std::vector<int64_t> &Key) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (int64_t W : Key) {
    H ^= static_cast<uint64_t>(W);
    H *= 0x100000001b3ULL;
    H ^= H >> 29;
  }
  return H;
}

} // namespace

verify::ReferenceCache::Entry
verify::ReferenceCache::entry(const Record &R) const {
  Entry E;
  E.Ok = R.ErrorAt == SIZE_MAX;
  E.Error = E.Ok ? nullptr : &Errors[R.ErrorAt];
  E.Output = Cells.data() + R.OutAt;
  E.Size = R.OutLen;
  return E;
}

bool verify::ReferenceCache::find(const std::vector<int64_t> &Key,
                                  Entry &Out) const {
  if (!Table.empty()) {
    const uint64_t H = hashWords(Key);
    const size_t Mask = Table.size() - 1;
    for (size_t I = H & Mask; Table[I] != 0; I = (I + 1) & Mask) {
      const Record &R = Records[Table[I] - 1];
      if (R.Hash == H && R.KeyLen == Key.size() &&
          std::equal(Key.begin(), Key.end(), Words.begin() + R.KeyAt)) {
        ++Hits;
        Out = entry(R);
        return true;
      }
    }
  }
  ++Misses;
  return false;
}

verify::ReferenceCache::Entry verify::ReferenceCache::insert(
    const std::vector<int64_t> &Key, bool Ok, const std::string &Error,
    const Rational *Output, size_t Size) {
  Record R;
  R.Hash = hashWords(Key);
  R.KeyAt = Words.size();
  R.KeyLen = Key.size();
  Words.insert(Words.end(), Key.begin(), Key.end());
  R.OutAt = Cells.size();
  R.OutLen = Size;
  Cells.insert(Cells.end(), Output, Output + Size);
  R.ErrorAt = SIZE_MAX;
  if (!Ok) {
    R.ErrorAt = Errors.size();
    Errors.push_back(Error);
  }
  Records.push_back(R);

  // Keep the table at most half full; rehashing reuses the stored hashes.
  if (Records.size() * 2 > Table.size()) {
    Table.assign(std::max<size_t>(64, Table.size() * 2), 0);
    const size_t Mask = Table.size() - 1;
    for (size_t Id = 0; Id < Records.size(); ++Id) {
      size_t I = Records[Id].Hash & Mask;
      while (Table[I] != 0)
        I = (I + 1) & Mask;
      Table[I] = static_cast<uint32_t>(Id + 1);
    }
  } else {
    const size_t Mask = Table.size() - 1;
    size_t I = R.Hash & Mask;
    while (Table[I] != 0)
      I = (I + 1) & Mask;
    Table[I] = static_cast<uint32_t>(Records.size());
  }
  return entry(Records.back());
}

const cfront::CompiledFunction &
verify::ReferenceCache::reference(const cfront::CFunction &Fn) {
  if (!Compiled || CompiledFrom != &Fn) {
    Compiled = std::make_unique<cfront::CompiledFunction>(Fn);
    CompiledFrom = &Fn;
  }
  return *Compiled;
}

VerifyResult verify::verifyEquivalence(const bench::Benchmark &B,
                                       const cfront::CFunction &Fn,
                                       const Program &Candidate,
                                       const VerifyOptions &Options,
                                       ReferenceCache *Cache) {
  std::vector<std::string> RhsNames = rhsTensorNames(Candidate);

  // Pairs of operands the candidate multiplies together: only these need
  // the quadratic joint one-hot sweep (see header).
  std::set<NamePair> MulPairs;
  if (Options.OneHotOnlyMultiplied && Candidate.Rhs) {
    std::vector<std::string> InputNames;
    for (const bench::ArgSpec &Arg : B.Args)
      if (Arg.K == bench::ArgSpec::Kind::Array && !Arg.IsOutput)
        InputNames.push_back(Arg.Name);
    collectMultipliedPairs(*Candidate.Rhs, InputNames, MulPairs);
  }

  // One bytecode artifact for the whole sweep. A candidate that does not
  // compile fails its first test with the compiler's diagnostic.
  vm::Code VmCode = vm::optimize(vm::compileProgram(Candidate));
  CandidateSpec Spec;
  Spec.Single = &Candidate;
  Spec.RhsNames = &RhsNames;
  Spec.Vm = &VmCode;
  return runBoundedSweep(B, Fn, Spec, Options, Cache,
                         Options.OneHotOnlyMultiplied, MulPairs);
}

VerifyResult verify::verifyEquivalence(const bench::Benchmark &B,
                                       const cfront::CFunction &Fn,
                                       const std::vector<Program> &Candidate,
                                       const VerifyOptions &Options,
                                       ReferenceCache *Cache) {
  vm::Code VmCode = vm::optimize(vm::compileStatements(Candidate));
  CandidateSpec Spec;
  Spec.Sequence = &Candidate;
  Spec.Vm = &VmCode;
  // Cross-statement data flow defeats the per-expression multiplied-pair
  // analysis; statement lists always get the exhaustive joint sweep.
  std::set<NamePair> None;
  return runBoundedSweep(B, Fn, Spec, Options, Cache, /*UseMulPairs=*/false,
                         None);
}
