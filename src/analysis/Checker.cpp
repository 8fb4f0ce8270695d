//===- analysis/Checker.cpp - Static safety analysis over KernelModel -----===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "analysis/Checker.h"

#include "analysis/Interval.h"

#include <algorithm>
#include <cctype>
#include <optional>
#include <utility>

namespace stagg {
namespace analysis {

const char *checkSeverityName(CheckSeverity S) {
  return S == CheckSeverity::Hard ? "error" : "warning";
}

std::string CheckFinding::str() const {
  std::string Out = Code + ": " + Message;
  if (Loc.valid())
    Out += " (" + Loc.str() + ")";
  return Out;
}

int CheckReport::hardCount() const {
  int N = 0;
  for (const CheckFinding &F : Findings)
    if (F.Severity == CheckSeverity::Hard)
      ++N;
  return N;
}

int CheckReport::warningCount() const {
  return static_cast<int>(Findings.size()) - hardCount();
}

const std::vector<CheckCodeInfo> &checkCatalog() {
  static const std::vector<CheckCodeInfo> Catalog = {
      {"SK001", CheckSeverity::Hard, "provable out-of-bounds access"},
      {"SK002", CheckSeverity::Warning,
       "possible out-of-bounds access (bounds not provable)"},
      {"SK003", CheckSeverity::Hard,
       "loop-carried dependence through a stored buffer"},
      {"SK004", CheckSeverity::Hard,
       "write into a read-only input parameter (in/out aliasing)"},
      {"SK005", CheckSeverity::Hard,
       "reduction into an uninitialized non-output buffer"},
      {"SK006", CheckSeverity::Warning,
       "access shape could not be inferred (non-delinearizable offset)"},
      {"SK007", CheckSeverity::Warning,
       "construct outside the normalized kernel model"},
  };
  return Catalog;
}

Poly shapeExtentPoly(const std::string &Entry) {
  if (!Entry.empty() &&
      std::all_of(Entry.begin(), Entry.end(),
                  [](unsigned char C) { return std::isdigit(C); }))
    return Poly::constant(std::stoll(Entry));
  return Poly::symbol(Entry);
}

namespace {

/// Symbolic [Min, Max] of \p Off over the model's loop ranges: each loop
/// symbol is eliminated innermost-first by substituting 0 or `extent - 1`
/// according to the provable sign of its stride. nullopt when a loop is not
/// normalized (unknown extent, non-zero start) or a stride's sign is not
/// provable.
std::optional<SymRange> rangeOfOffset(const Poly &Off, const KernelModel &M) {
  auto IsLoopSym = [&M](const std::string &S) { return M.loop(S) != nullptr; };
  auto SizeLike = [&IsLoopSym](const std::string &S) { return !IsLoopSym(S); };

  // The endpoints start out identical (Off itself) and only diverge at the
  // first loop with a non-degenerate stride, so the linear split and the
  // stride-sign proofs are shared until then; Cur is that common endpoint.
  SymRange R;
  const Poly *Cur = &Off;
  for (auto It = M.Loops.rbegin(); It != M.Loops.rend(); ++It) {
    const ModelLoop &L = *It;
    if (Cur) {
      if (!Cur->mentions(L.Symbol))
        continue;
      if (!L.ExtentKnown || !L.StartsAtZero || !L.HeaderOk)
        return std::nullopt;
      Poly Stride, Rest;
      if (!splitLinear(*Cur, L.Symbol, Stride, Rest))
        return std::nullopt;
      bool NonNeg = provablyNonNegative(Stride, SizeLike);
      bool NonPos = provablyNonNegative(Stride, SizeLike, -1);
      if (!NonNeg && !NonPos)
        return std::nullopt;
      // Sign-definite stride: the sought extreme is at `extent - 1` when
      // the stride sign matches the endpoint, at 0 otherwise (a zero
      // stride makes either choice exact).
      Poly Last = L.Extent - Poly::constant(1);
      Poly Max = Rest + Stride * (NonNeg ? Last : Poly());
      R.Min =
          std::move(Rest) + Stride * ((NonNeg && !NonPos) ? Poly() : Last);
      R.Max = std::move(Max);
      Cur = R.Min == R.Max ? &R.Min : nullptr;
      continue;
    }
    for (Poly *P : {&R.Min, &R.Max}) {
      if (!P->mentions(L.Symbol))
        continue;
      if (!L.ExtentKnown || !L.StartsAtZero || !L.HeaderOk)
        return std::nullopt;
      Poly Stride, Rest;
      if (!splitLinear(*P, L.Symbol, Stride, Rest))
        return std::nullopt;
      bool NonNeg = provablyNonNegative(Stride, SizeLike);
      bool NonPos = provablyNonNegative(Stride, SizeLike, -1);
      if (!NonNeg && !NonPos)
        return std::nullopt;
      bool WantHigh = (P == &R.Max);
      Poly Last = L.Extent - Poly::constant(1);
      Poly Chosen = (NonNeg == WantHigh || (NonNeg && NonPos)) ? Last : Poly();
      *P = std::move(Rest) + Stride * Chosen;
    }
  }
  if (Cur == &Off)
    R = SymRange{Off, Off};
  if (R.Min.mentionsIf(IsLoopSym) || R.Max.mentionsIf(IsLoopSym))
    return std::nullopt;
  return R;
}

/// Proves the access actually executes for every size assignment: every loop
/// its offset ranges over (transitively, through triangular extents) has a
/// provably positive extent. Needed before a *hard* out-of-bounds verdict —
/// an empty iteration space never faults.
bool iterationProvablyNonEmpty(const Poly &Off, const KernelModel &M) {
  auto IsLoopSym = [&M](const std::string &S) { return M.loop(S) != nullptr; };
  auto SizeLike = [&IsLoopSym](const std::string &S) { return !IsLoopSym(S); };
  std::vector<std::string> Work = Off.symbolsIf(IsLoopSym);
  std::set<std::string> Seen;
  while (!Work.empty()) {
    std::string S = Work.back();
    Work.pop_back();
    if (!Seen.insert(S).second)
      continue;
    const ModelLoop *L = M.loop(S);
    if (!L || !L->ExtentKnown)
      return false;
    if (!provablyNonNegative(L->Extent - Poly::constant(1), SizeLike))
      return false;
    for (const std::string &T : L->Extent.symbolsIf(IsLoopSym))
      Work.push_back(T);
  }
  return true;
}

/// Collects the offset of every Load of \p Param inside \p E.
void collectLoadsOf(const MExprPtr &E, const std::string &Param,
                    std::vector<const Poly *> &Out) {
  if (!E)
    return;
  if (E->K == MExpr::Kind::Load && E->Name == Param)
    Out.push_back(&E->Offset);
  collectLoadsOf(E->A, Param, Out);
  collectLoadsOf(E->B, Param, Out);
}

std::string shapeStr(const std::vector<Poly> &Extents) {
  std::string Out;
  for (const Poly &E : Extents)
    Out += "[" + E.str() + "]";
  return Out;
}

} // namespace

CheckReport checkKernel(const KernelModel &M, const CheckOptions &Options) {
  CheckReport Report;
  auto Emit = [&Report](std::string Code, CheckSeverity Sev,
                        std::string Message, cfront::SourceLoc Loc,
                        std::string Param) {
    for (const CheckFinding &F : Report.Findings)
      if (F.Code == Code && F.Message == Message && F.Loc.Line == Loc.Line &&
          F.Loc.Col == Loc.Col)
        return;
    CheckFinding F;
    F.Code = std::move(Code);
    F.Severity = Sev;
    F.Message = std::move(Message);
    F.Loc = Loc;
    F.Param = std::move(Param);
    Report.Findings.push_back(std::move(F));
  };

  // The declared outputs, else the model's inferred one.
  std::set<std::string> Inferred;
  if (Options.OutputParams.empty() && !M.Summary.OutputParam.empty())
    Inferred.insert(M.Summary.OutputParam);
  const std::set<std::string> &Outputs =
      Options.OutputParams.empty() ? Inferred : Options.OutputParams;

  // The declared (or model-inferred) shape of one pointer parameter. An
  // empty declared shape is a scalar: a one-element buffer. Declared shapes
  // are *authoritative* buffer sizes (the caller allocates exactly that), so
  // they support hard out-of-bounds verdicts; shapes inferred from the
  // accesses themselves only describe the touched region — a lower bound on
  // the real buffer — and can at most warn.
  struct ParamShape {
    /// Declared shapes are borrowed straight from Options (no copy);
    /// model-inferred ones point at Owned.
    const std::vector<Poly> *Extents = nullptr;
    std::vector<Poly> Owned;
    Poly Product; ///< The extents' product, when there are several.
    /// The flat buffer size: the one extent, or Product.
    const Poly *Size = nullptr;
    bool Authoritative = false;
  };
  // Memoized per parameter: a kernel touches each buffer through many
  // accesses, and both the shape lookup and the extent product are
  // per-buffer facts.
  std::map<std::string, std::optional<ParamShape>> ShapeMemo;
  auto ShapeOf =
      [&](const std::string &Param) -> const std::optional<ParamShape> & {
    auto Memo = ShapeMemo.find(Param);
    if (Memo != ShapeMemo.end())
      return Memo->second;
    std::optional<ParamShape> Out;
    auto It = Options.Shapes.find(Param);
    if (It != Options.Shapes.end()) {
      Out.emplace();
      Out->Extents = &It->second;
      Out->Authoritative = true;
    } else if (std::optional<ModelShape> Best = M.bestShape(Param);
               Best && Best->Ok && !Best->Dims.empty()) {
      ParamShape S;
      for (const ModelDim &D : Best->Dims) {
        if (!D.ExtentKnown) {
          S.Owned.clear();
          break;
        }
        S.Owned.push_back(D.Extent);
      }
      if (!S.Owned.empty())
        Out = std::move(S);
    }
    // Fill the derived fields after the move into the memo so the Owned
    // self-pointer stays valid.
    std::optional<ParamShape> &Slot =
        ShapeMemo.emplace(Param, std::move(Out)).first->second;
    if (Slot) {
      if (!Slot->Extents)
        Slot->Extents = &Slot->Owned;
      if (Slot->Extents->size() == 1) {
        Slot->Size = &(*Slot->Extents)[0];
      } else {
        Slot->Product = Poly::constant(1);
        for (const Poly &E : *Slot->Extents)
          Slot->Product = Slot->Product * E;
        Slot->Size = &Slot->Product;
      }
    }
    return Slot;
  };

  // Pass 1: bounds. Every recorded access must fit its buffer. The in-bounds
  // proof depends only on the offset polynomial and the buffer size (`x[i]`,
  // `y[i]`, and `out[i]` over [N] are one proof, not three), and accesses
  // repeat across stores — so proven (size, offset) pairs are cached and
  // later identical accesses skip the range computation.
  bool AllSafe = true;
  std::vector<std::pair<const Poly *, const Poly *>> ProvenSafe;
  auto AlreadyProven = [&ProvenSafe](const Poly &Size, const Poly &Off) {
    for (const auto &[S, O] : ProvenSafe)
      if (*S == Size && *O == Off)
        return true;
    return false;
  };
  for (const ModelAccess &A : M.Accesses) {
    if (!A.Offset) {
      AllSafe = false;
      Emit("SK002", CheckSeverity::Warning,
           "access through '" + A.Param +
               "' has no recoverable affine offset",
           A.Loc, A.Param);
      continue;
    }
    const std::optional<ParamShape> &Shape = ShapeOf(A.Param);
    if (!Shape) {
      // A constant offset 0 through an un-shaped pointer is the scalar
      // `*out` idiom: any valid argument points at one element, so the
      // access is safe regardless of the (unknown) shape.
      int64_t C = 0;
      if (A.Offset->asConstant(C) && C == 0)
        continue;
      AllSafe = false;
      Emit("SK006", CheckSeverity::Warning,
           "no shape could be inferred for '" + A.Param + "' (offset " +
               A.Offset->str() +
               " does not delinearize into ordered strides)",
           A.Loc, A.Param);
      continue;
    }
    const Poly &Size = *Shape->Size;
    if (AlreadyProven(Size, *A.Offset))
      continue;
    std::optional<SymRange> Range = rangeOfOffset(*A.Offset, M);
    if (!Range) {
      AllSafe = false;
      Emit("SK002", CheckSeverity::Warning,
           "offset " + A.Offset->str() + " of '" + A.Param +
               "' has no provable range over the loop extents",
           A.Loc, A.Param);
      continue;
    }
    bool SafeLow = provablyNonNegative(Range->Min);
    bool SafeHigh = provablyNonNegative(Size - Poly::constant(1) - Range->Max);
    if (SafeLow && SafeHigh) {
      ProvenSafe.push_back({&Size, &*A.Offset});
      continue;
    }
    AllSafe = false;
    bool DefiniteHigh = provablyNonNegative(Range->Max - Size);
    bool DefiniteLow = provablyNonNegative(Poly::constant(-1) - Range->Min);
    std::string What = std::string(A.IsStore ? "store to '" : "load of '") +
                       A.Param + "[" + A.Offset->str() + "]' (range [" +
                       Range->Min.str() + ", " + Range->Max.str() +
                       "] vs shape " + shapeStr(*Shape->Extents) + ")";
    if ((DefiniteHigh || DefiniteLow) && Shape->Authoritative &&
        !M.Conditional && iterationProvablyNonEmpty(*A.Offset, M))
      Emit("SK001", CheckSeverity::Hard, What + " is out of bounds", A.Loc,
           A.Param);
    else
      Emit("SK002", CheckSeverity::Warning, What + " may be out of bounds",
           A.Loc, A.Param);
  }
  Report.BoundsProvenSafe = AllSafe && M.Limitation.empty();

  // Pass 2: dependences. A store whose RHS reads the same buffer at a
  // different offset carries a value across iterations; a write into a
  // non-output parameter aliases an input the lift assumes immutable.
  for (const ModelStore &St : M.Stores) {
    if (St.Offset && St.Rhs) {
      std::vector<const Poly *> Loads;
      collectLoadsOf(St.Rhs, St.Param, Loads);
      for (const Poly *L : Loads)
        if (!(*L == *St.Offset))
          Emit("SK003", CheckSeverity::Hard,
               "store to '" + St.Param + "[" + St.Offset->str() +
                   "]' reads '" + St.Param + "[" + L->str() +
                   "]' from a different iteration (loop-carried dependence)",
               St.Loc, St.Param);
    }
    if (!Outputs.empty() && !Outputs.count(St.Param) &&
        St.Op != ModelStore::OpKind::Add)
      Emit("SK004", CheckSeverity::Hard,
           "write into read-only input parameter '" + St.Param +
               "' (in/out aliasing breaks the lift)",
           St.Loc, St.Param);
  }

  // Pass 3: initialization. `+=` into a buffer that is neither the output
  // (zero pre-state guaranteed by the pipeline) nor explicitly initialized
  // first reads uninitialized memory.
  if (!Outputs.empty()) {
    for (size_t I = 0; I < M.Stores.size(); ++I) {
      const ModelStore &St = M.Stores[I];
      if (St.Op != ModelStore::OpKind::Add || Outputs.count(St.Param))
        continue;
      bool Initialized = false;
      for (size_t J = 0; J < I; ++J)
        if (M.Stores[J].Param == St.Param &&
            M.Stores[J].Op == ModelStore::OpKind::Set)
          Initialized = true;
      if (!Initialized)
        Emit("SK005", CheckSeverity::Hard,
             "reduction into '" + St.Param +
                 "' reads uninitialized memory (not the output, never "
                 "initialized)",
             St.Loc, St.Param);
    }
  }

  // Pass 4: normalization coverage, for the linter view.
  if (!M.Limitation.empty())
    Emit("SK007", CheckSeverity::Warning, M.Limitation, M.LimitationLoc, "");

  return Report;
}

} // namespace analysis
} // namespace stagg
