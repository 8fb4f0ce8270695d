//===- api/KernelIngest.cpp - Arbitrary C kernels to benchmarks -----------===//
//
// Model-based ingestion: both products — inferred array shapes and the
// reference translation — are read off one analysis::KernelModel, the
// symbolic executor's normalized store/access IR. The old syntactic
// loop-nest walker is gone; pointer-walking kernels (whose structure only
// the executor's closed forms recover), guarded stores (lowered to
// max/select), and sequential multi-statement bodies (lowered to ordered
// TACO statement lists, then composed) all emit through the same path.
//
//===----------------------------------------------------------------------===//

#include "api/KernelIngest.h"

#include "cfront/Parser.h"
#include "core/Stagg.h"
#include "support/Rng.h"
#include "taco/Parser.h"
#include "taco/Printer.h"
#include "taco/Semantics.h"
#include "validate/IoExamples.h"
#include "validate/Validator.h"
#include "verify/BoundedVerifier.h"
#include "vm/Compiler.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

using namespace stagg;
using namespace stagg::api;
using namespace stagg::cfront;
using analysis::KernelModel;
using analysis::MExpr;
using analysis::MExprPtr;
using analysis::ModelShape;
using analysis::ModelStore;

namespace {

//===----------------------------------------------------------------------===//
// MExpr -> TACO emission (over raw loop symbols; humanized at the end)
//===----------------------------------------------------------------------===//

/// Renders a delinearized access as `param(l0,l1,...)` over the model's raw
/// loop symbols (globally unique, so cross-statement renaming can never
/// capture). Null when the offset does not delinearize.
taco::ExprPtr accessExpr(const KernelModel &M, const std::string &Param,
                         const analysis::Poly &Offset) {
  ModelShape Shape = M.delinearize(Offset);
  if (!Shape.Ok)
    return nullptr;
  std::vector<std::string> Indices;
  for (const analysis::ModelDim &Dim : Shape.Dims)
    Indices.push_back(Dim.LoopSym);
  return std::make_unique<taco::AccessExpr>(Param, std::move(Indices));
}

taco::ExprPtr valueToTaco(const KernelModel &M, const MExprPtr &E) {
  if (!E)
    return nullptr;
  switch (E->K) {
  case MExpr::Kind::Load:
    return accessExpr(M, E->Name, E->Offset);
  case MExpr::Kind::Param:
    return std::make_unique<taco::AccessExpr>(E->Name,
                                              std::vector<std::string>());
  case MExpr::Kind::ConstInt:
    return std::make_unique<taco::ConstantExpr>(E->IntValue);
  case MExpr::Kind::Bin: {
    taco::ExprPtr A = valueToTaco(M, E->A);
    taco::ExprPtr B = valueToTaco(M, E->B);
    if (!A || !B)
      return nullptr;
    taco::BinOpKind Op = taco::BinOpKind::Add;
    switch (E->Op) {
    case analysis::MOp::Add:
      Op = taco::BinOpKind::Add;
      break;
    case analysis::MOp::Sub:
      Op = taco::BinOpKind::Sub;
      break;
    case analysis::MOp::Mul:
      Op = taco::BinOpKind::Mul;
      break;
    case analysis::MOp::Div:
      Op = taco::BinOpKind::Div;
      break;
    }
    return std::make_unique<taco::BinaryExpr>(Op, std::move(A), std::move(B));
  }
  case MExpr::Kind::Neg: {
    taco::ExprPtr A = valueToTaco(M, E->A);
    return A ? std::make_unique<taco::NegateExpr>(std::move(A)) : nullptr;
  }
  }
  return nullptr;
}

/// In-place index renaming over every access of \p E.
void renameIndices(taco::Expr &E,
                   const std::map<std::string, std::string> &Map) {
  switch (E.kind()) {
  case taco::Expr::Kind::Access: {
    auto &A = static_cast<taco::AccessExpr &>(E);
    std::vector<std::string> Indices = A.indices();
    for (std::string &Var : Indices) {
      auto It = Map.find(Var);
      if (It != Map.end())
        Var = It->second;
    }
    A.setIndices(std::move(Indices));
    return;
  }
  case taco::Expr::Kind::Constant:
    return;
  case taco::Expr::Kind::Binary: {
    auto &B = static_cast<taco::BinaryExpr &>(E);
    renameIndices(B.lhs(), Map);
    renameIndices(B.rhs(), Map);
    return;
  }
  case taco::Expr::Kind::Negate:
    renameIndices(static_cast<taco::NegateExpr &>(E).operand(), Map);
    return;
  case taco::Expr::Kind::Max: {
    auto &Mx = static_cast<taco::MaxExpr &>(E);
    renameIndices(Mx.lhs(), Map);
    renameIndices(Mx.rhs(), Map);
    return;
  }
  }
}

void renameIndices(taco::Program &P,
                   const std::map<std::string, std::string> &Map) {
  std::vector<std::string> Indices = P.Lhs.indices();
  for (std::string &Var : Indices) {
    auto It = Map.find(Var);
    if (It != Map.end())
      Var = It->second;
  }
  P.Lhs.setIndices(std::move(Indices));
  if (P.Rhs)
    renameIndices(*P.Rhs, Map);
}

/// Collects the distinct loop symbols mentioned by a program's accesses.
void collectMentioned(const taco::Expr &E, std::set<std::string> &Out) {
  for (const std::string &Var : taco::exprIndexVariables(E))
    Out.insert(Var);
}

/// Replaces every read `out(idx...)` whose index tuple equals \p LhsIdx with
/// a clone of \p Replacement.
taco::ExprPtr replaceOutReads(const taco::Expr &E, const std::string &OutName,
                              const std::vector<std::string> &LhsIdx,
                              const taco::Expr &Replacement) {
  switch (E.kind()) {
  case taco::Expr::Kind::Access: {
    const auto &A = static_cast<const taco::AccessExpr &>(E);
    if (A.name() == OutName && A.indices() == LhsIdx)
      return Replacement.clone();
    return E.clone();
  }
  case taco::Expr::Kind::Constant:
    return E.clone();
  case taco::Expr::Kind::Binary: {
    const auto &B = static_cast<const taco::BinaryExpr &>(E);
    return std::make_unique<taco::BinaryExpr>(
        B.op(), replaceOutReads(B.lhs(), OutName, LhsIdx, Replacement),
        replaceOutReads(B.rhs(), OutName, LhsIdx, Replacement));
  }
  case taco::Expr::Kind::Negate:
    return std::make_unique<taco::NegateExpr>(replaceOutReads(
        static_cast<const taco::NegateExpr &>(E).operand(), OutName, LhsIdx,
        Replacement));
  case taco::Expr::Kind::Max: {
    const auto &Mx = static_cast<const taco::MaxExpr &>(E);
    return std::make_unique<taco::MaxExpr>(
        replaceOutReads(Mx.lhs(), OutName, LhsIdx, Replacement),
        replaceOutReads(Mx.rhs(), OutName, LhsIdx, Replacement));
  }
  }
  return E.clone();
}

bool isZeroLiteralExpr(const taco::Expr &E) {
  const auto *C = taco::exprDynCast<taco::ConstantExpr>(&E);
  return C && !C->isSymbolic() && C->value() == 0;
}

/// One store translated to TACO form (raw loop symbols).
struct TStore {
  std::vector<std::string> LhsIdx;
  taco::ExprPtr Rhs;
  ModelStore::OpKind Op = ModelStore::OpKind::Set;
  bool RhsIsZeroLiteral = false;

  // At most one guard survives translation checks.
  bool Guarded = false;
  analysis::MCmp Cmp = analysis::MCmp::Gt;
  taco::ExprPtr GuardL, GuardR;
  bool GuardNegated = false;
  cfront::SourceLoc Loc;
};

/// Lowers `if (L cmp R) then T else E` to max(L, R) when the branches
/// select exactly the compared values; null otherwise (a min-shaped or
/// unrelated select, which the TACO subset cannot carry).
taco::ExprPtr lowerSelectToMax(analysis::MCmp Cmp, const taco::Expr &L,
                               const taco::Expr &R, const taco::Expr &T,
                               const taco::Expr &E) {
  bool GreaterWins = Cmp == analysis::MCmp::Gt || Cmp == analysis::MCmp::Ge;
  // Normalize to "then-branch taken when L is the larger side".
  bool ThenIsL = taco::exprEquals(T, L) && taco::exprEquals(E, R);
  bool ThenIsR = taco::exprEquals(T, R) && taco::exprEquals(E, L);
  if (GreaterWins ? ThenIsL : ThenIsR)
    return std::make_unique<taco::MaxExpr>(T.clone(), E.clone());
  return nullptr;
}

std::string located(const std::string &Message, const cfront::SourceLoc &Loc) {
  std::string Pos = Loc.str();
  return Pos.empty() ? Message : Message + " (" + Pos + ")";
}

/// Outcome of a translation attempt.
struct TranslationResult {
  /// The composed single-program form (sequential stores folded, guards
  /// lowered to max/select).
  std::optional<taco::Program> Program;

  /// The ordered statement list the composition came from; executable as
  /// one program by vm::Interpreter::run / the verifier.
  std::vector<taco::Program> Statements;

  std::string Error;

  bool ok() const { return Program.has_value(); }
};

TranslationResult translateModel(const KernelModel &Model) {
  TranslationResult Result;
  const std::string &Out = Model.Summary.OutputParam;

  // Any construct the executor could not normalize may change the kernel's
  // semantics (a while loop, an untranslatable condition, a store through
  // an untracked pointer) — a translation of just the modeled part would be
  // a confidently wrong oracle reference. Refuse instead; the caller's
  // oracle_hint covers these kernels honestly.
  if (!Model.Limitation.empty()) {
    Result.Error = "kernel contains " + Model.locatedLimitation();
    return Result;
  }

  // Translate every store up front: one untranslatable store poisons the
  // whole reference (its semantics would be silently dropped).
  std::vector<TStore> Stores;
  for (const ModelStore &St : Model.Stores) {
    if (St.Param != Out) {
      Result.Error = located(
          "a store to '" + St.Param + "' besides the output parameter",
          St.Loc);
      return Result;
    }
    if (St.Op == ModelStore::OpKind::Other) {
      Result.Error = located("a compound store other than +=", St.Loc);
      return Result;
    }
    if (!St.Offset) {
      Result.Error =
          located("a store with a non-affine or ambiguous subscript", St.Loc);
      return Result;
    }
    ModelShape Shape = Model.delinearize(*St.Offset);
    if (!Shape.Ok) {
      Result.Error =
          located("a store with a non-affine or ambiguous subscript", St.Loc);
      return Result;
    }
    TStore T;
    for (const analysis::ModelDim &Dim : Shape.Dims)
      T.LhsIdx.push_back(Dim.LoopSym);
    T.Rhs = valueToTaco(Model, St.Rhs);
    if (!T.Rhs) {
      Result.Error = located(
          "a store whose right-hand side has no index-notation form", St.Loc);
      return Result;
    }
    T.Op = St.Op;
    T.RhsIsZeroLiteral = St.RhsIsZeroLiteral;
    T.Loc = St.Loc;
    if (!St.Guards.empty()) {
      if (St.Guards.size() > 1) {
        Result.Error = located("a nested conditional store", St.Loc);
        return Result;
      }
      const analysis::MGuard &G = St.Guards.front();
      T.Guarded = true;
      T.Cmp = G.Cmp;
      T.GuardL = valueToTaco(Model, G.L);
      T.GuardR = valueToTaco(Model, G.R);
      T.GuardNegated = G.Negated;
      if (!T.GuardL || !T.GuardR) {
        Result.Error = located(
            "a conditional whose guard has no index-notation form", G.Loc);
        return Result;
      }
      if (T.Op != ModelStore::OpKind::Set) {
        Result.Error = located("a guarded compound store", St.Loc);
        return Result;
      }
    }
    Stores.push_back(std::move(T));
  }
  if (Stores.empty()) {
    Result.Error = "no transliterable store to the output parameter";
    return Result;
  }

  // Canonicalize every store's LHS index tuple onto the first store's (the
  // loop symbols are globally unique, so this renaming can never capture).
  const std::vector<std::string> Canon = Stores.front().LhsIdx;
  for (TStore &T : Stores) {
    if (T.LhsIdx == Canon)
      continue;
    if (T.LhsIdx.size() != Canon.size()) {
      Result.Error = located("stores with mismatched output rank", T.Loc);
      return Result;
    }
    std::map<std::string, std::string> Map;
    for (size_t I = 0; I < Canon.size(); ++I)
      Map.emplace(T.LhsIdx[I], Canon[I]);
    if (T.Rhs)
      renameIndices(*T.Rhs, Map);
    if (T.GuardL)
      renameIndices(*T.GuardL, Map);
    if (T.GuardR)
      renameIndices(*T.GuardR, Map);
    T.LhsIdx = Canon;
  }

  // Compose the ordered stores into a single value per output cell, and in
  // parallel build the statement-list form the sequence evaluator (and the
  // verifier) execute as one program.
  taco::ExprPtr Composed; // null = untouched output (zero pre-state)
  std::vector<taco::Program> Statements;
  auto SubstitutedRhs = [&](const taco::Expr &Rhs) -> taco::ExprPtr {
    if (Composed)
      return replaceOutReads(Rhs, Out, Canon, *Composed);
    taco::ConstantExpr Zero(0);
    return replaceOutReads(Rhs, Out, Canon, Zero);
  };
  for (size_t I = 0; I < Stores.size(); ++I) {
    TStore &T = Stores[I];
    if (T.Guarded) {
      // Pair a then-store with the matching else-store (same condition,
      // opposite polarity, same cell) into one select; otherwise the
      // "else" value is whatever the output held before this store.
      taco::ExprPtr ThenV, ElseV;
      bool Paired = false;
      if (I + 1 < Stores.size()) {
        TStore &N = Stores[I + 1];
        if (N.Guarded && N.Cmp == T.Cmp &&
            N.GuardNegated != T.GuardNegated &&
            taco::exprEquals(*N.GuardL, *T.GuardL) &&
            taco::exprEquals(*N.GuardR, *T.GuardR)) {
          ThenV = SubstitutedRhs(T.GuardNegated ? *N.Rhs : *T.Rhs);
          ElseV = SubstitutedRhs(T.GuardNegated ? *T.Rhs : *N.Rhs);
          Paired = true;
        }
      }
      if (!Paired) {
        taco::ExprPtr Prev =
            Composed ? Composed->clone()
                     : taco::ExprPtr(std::make_unique<taco::ConstantExpr>(0));
        taco::ExprPtr Self = SubstitutedRhs(*T.Rhs);
        if (T.GuardNegated) {
          ThenV = std::move(Prev);
          ElseV = std::move(Self);
        } else {
          ThenV = std::move(Self);
          ElseV = std::move(Prev);
        }
      }
      taco::ExprPtr Lowered =
          lowerSelectToMax(T.Cmp, *T.GuardL, *T.GuardR, *ThenV, *ElseV);
      if (!Lowered) {
        Result.Error = located(
            "a conditional store with no max/select lowering", T.Loc);
        return Result;
      }
      Composed = std::move(Lowered);
      // The guard folded every prior value into one expression; the
      // statement list collapses accordingly.
      Statements.clear();
      Statements.emplace_back(taco::AccessExpr(Out, Canon), Composed->clone());
      if (Paired)
        ++I;
      continue;
    }

    if (T.Op == ModelStore::OpKind::Set) {
      Composed = SubstitutedRhs(*T.Rhs);
      Statements.emplace_back(taco::AccessExpr(Out, Canon), T.Rhs->clone());
      continue;
    }

    // `+=`: a reduction over the loops the cell's offset misses. A zero
    // (or absent) prior value folds away — zero-initialization is setup,
    // not semantics — matching the registry ground-truth convention.
    bool PrevZero = !Composed || isZeroLiteralExpr(*Composed);
    if (PrevZero) {
      if (!Statements.empty()) {
        const taco::Program &Last = Statements.back();
        if (Last.Lhs.name() == Out && Last.Lhs.indices() == Canon &&
            Last.Rhs && isZeroLiteralExpr(*Last.Rhs))
          Statements.pop_back();
      }
      Composed = T.Rhs->clone();
      Statements.emplace_back(taco::AccessExpr(Out, Canon), T.Rhs->clone());
    } else {
      Composed = std::make_unique<taco::BinaryExpr>(
          taco::BinOpKind::Add, std::move(Composed), T.Rhs->clone());
      Statements.emplace_back(
          taco::AccessExpr(Out, Canon),
          std::make_unique<taco::BinaryExpr>(
              taco::BinOpKind::Add,
              std::make_unique<taco::AccessExpr>(Out, Canon),
              T.Rhs->clone()));
    }
  }

  // Humanize the loop symbols: rename each mentioned symbol to its source
  // loop variable, unless two mentioned symbols share one (two sibling
  // loops both named `i`) — those keep their unambiguous raw names.
  std::set<std::string> Mentioned(Canon.begin(), Canon.end());
  for (const taco::Program &P : Statements)
    if (P.Rhs)
      collectMentioned(*P.Rhs, Mentioned);
  if (Composed)
    collectMentioned(*Composed, Mentioned);
  std::map<std::string, int> SourceUses;
  for (const std::string &Sym : Mentioned)
    if (const analysis::ModelLoop *L = Model.loop(Sym))
      if (!L->SourceVar.empty())
        ++SourceUses[L->SourceVar];
  std::map<std::string, std::string> Humanize;
  for (const std::string &Sym : Mentioned)
    if (const analysis::ModelLoop *L = Model.loop(Sym))
      if (!L->SourceVar.empty() && SourceUses[L->SourceVar] == 1)
        Humanize.emplace(Sym, L->SourceVar);

  taco::Program Final(taco::AccessExpr(Out, Canon), std::move(Composed));
  renameIndices(Final, Humanize);
  for (taco::Program &P : Statements)
    renameIndices(P, Humanize);

  std::string Malformed = taco::checkWellFormed(Final);
  if (!Malformed.empty()) {
    Result.Error = "translation is not a well-formed TACO program: " +
                   Malformed;
    return Result;
  }
  Result.Program = std::move(Final);
  Result.Statements = std::move(Statements);
  return Result;
}

} // namespace

IngestResult api::ingestKernel(const std::string &CSource,
                               const std::string &Name,
                               const std::string &OracleHint) {
  IngestResult Result;
  auto fail = [&Result](IngestStatus Status, std::string Error) {
    Result.Status = Status;
    Result.Error = std::move(Error);
    return Result;
  };

  CParseResult Parsed = cfront::parseCFunction(CSource);
  if (!Parsed.ok())
    return fail(IngestStatus::ParseError, "C parse error: " + Parsed.Error);
  const CFunction &Fn = *Parsed.Function;

  // Parameter names become TACO tensor names verbatim; the reserved surface
  // identifiers would produce a ground truth that cannot re-parse (`max` is
  // call syntax, `Const` the symbolic template constant) and must be
  // refused up front — a serve process cannot crash on one hostile request.
  for (const CParam &P : Fn.Params)
    if (P.Name == "max" || P.Name == "Const")
      return fail(IngestStatus::AnalysisError,
                  "parameter name '" + P.Name +
                      "' collides with reserved TACO syntax; rename the "
                      "parameter");

  KernelModel Model = analysis::buildKernelModel(Fn);
  const analysis::KernelSummary &Summary = Model.Summary;
  if (Summary.OutputParam.empty())
    return fail(IngestStatus::AnalysisError,
                "kernel never stores through a pointer parameter, so no "
                "output tensor can be identified");
  Result.Class = analysis::classifyKernel(Model);

  // Synthesize the argument specification in declaration order.
  bench::Benchmark B;
  B.Name = Name.empty() ? Fn.Name : Name;
  B.Category = "inline";
  B.CSource = CSource;

  std::vector<std::string> SizeParamNames;
  for (const CParam &P : Fn.Params)
    if (!P.Type.isPointer() && !P.Type.isFloating())
      SizeParamNames.push_back(P.Name);

  for (const CParam &P : Fn.Params) {
    if (!P.Type.isPointer()) {
      B.Args.push_back(P.Type.isFloating() ? bench::ArgSpec::num(P.Name)
                                           : bench::ArgSpec::size(P.Name));
      continue;
    }

    std::vector<std::string> Shape;
    bool ShapeOk = false;
    std::optional<ModelShape> Best = Model.bestShape(P.Name);
    if (Best && Best->Ok) {
      ShapeOk = true;
      for (const analysis::ModelDim &Dim : Best->Dims) {
        std::string DimName;
        if (!analysis::extentName(Dim, DimName)) {
          ShapeOk = false;
          break;
        }
        Shape.push_back(DimName);
      }
    }
    if (!ShapeOk) {
      // The model could not name the dimensions (unknown bounds, ambiguous
      // strides); fall back to the symbolic executor's rank and — when the
      // kernel has exactly one size parameter — size every dimension by
      // it, the convention of every such kernel in the wild.
      auto RankIt = Summary.ParamDims.find(P.Name);
      if (RankIt == Summary.ParamDims.end())
        return fail(IngestStatus::AnalysisError,
                    "parameter '" + P.Name +
                        "' is never accessed; cannot infer its shape");
      if (RankIt->second > 0 && SizeParamNames.size() != 1)
        return fail(IngestStatus::AnalysisError,
                    "cannot infer the shape of '" + P.Name +
                        "' from the loop nest (" +
                        (Model.Limitation.empty()
                             ? std::string("irregular subscripts")
                             : Model.locatedLimitation()) +
                        "), and the kernel does not have exactly one size "
                        "parameter to fall back on");
      Shape.assign(static_cast<size_t>(RankIt->second),
                   SizeParamNames.empty() ? "" : SizeParamNames.front());
    }
    B.Args.push_back(bench::ArgSpec::array(P.Name, std::move(Shape),
                                           P.Name == Summary.OutputParam));
  }

  // The static safety gate: hard checker findings (provable out-of-bounds,
  // loop-carried dependences, writes into inputs, uninitialized reductions)
  // refuse the kernel before anything executes it — the synthesized shapes
  // are exactly what the harness will allocate, so they are authoritative
  // bounds. Warnings ride along on the result for the wire response.
  {
    analysis::CheckReport Check =
        analysis::checkKernel(Model, core::checkOptionsFor(B));
    Result.Findings = Check.Findings;
    Result.BoundsProvenSafe = Check.BoundsProvenSafe;
    if (!Check.clean()) {
      std::string Message = "static checker refused the kernel:";
      for (const analysis::CheckFinding &F : Check.Findings)
        if (F.Severity == analysis::CheckSeverity::Hard)
          Message += " [" + F.str() + "]";
      return fail(IngestStatus::UnsafeKernel, Message);
    }
  }

  // The reference translation for the candidate oracle: an explicit hint
  // wins (the caller knows their kernel), the model-based emission covers
  // the subscript / pointer-walking / conditional / multi-statement
  // classes, and anything else must say why it failed — with the
  // construct's position in the request text.
  TranslationResult Translation;
  if (!OracleHint.empty()) {
    taco::ParseResult Hint = taco::parseTacoProgram(OracleHint);
    if (!Hint.ok())
      return fail(IngestStatus::AnalysisError,
                  "oracle_hint is not a TACO program: " + Hint.Error);
    std::string Malformed = taco::checkWellFormed(*Hint.Prog);
    if (!Malformed.empty())
      return fail(IngestStatus::AnalysisError,
                  "oracle_hint is not well-formed: " + Malformed);
    B.GroundTruth = taco::printProgram(*Hint.Prog);
  } else {
    Translation = translateModel(Model);
    if (!Translation.ok()) {
      // When the failure traces back to an access whose offset does not
      // delinearize (a diagonal `A[i*N+i]`, a stencil `x[i+j]`), name the
      // offending access with its catalog code and position instead of the
      // store that happened to contain it: re-check without the synthesized
      // shapes so shape inference itself is what gets diagnosed.
      if (Model.Limitation.empty())
        for (const analysis::CheckFinding &F :
             analysis::checkKernel(Model).Findings)
          if (F.Code == "SK006") {
            Result.Findings.push_back(F);
            return fail(IngestStatus::AnalysisError,
                        "cannot derive a reference translation for the "
                        "candidate oracle (" +
                            F.str() +
                            "); supply \"oracle_hint\" with a TACO sketch "
                            "of the kernel");
          }
      return fail(IngestStatus::AnalysisError,
                  "cannot derive a reference translation for the candidate "
                  "oracle (" +
                      Translation.Error +
                      "); supply \"oracle_hint\" with a TACO sketch of the "
                      "kernel");
    }
    B.GroundTruth = taco::printProgram(*Translation.Program);
    // Defense in depth: the printed form must re-parse (a printer/parser
    // drift here would crash consumers that trust GroundTruth).
    if (!taco::parseTacoProgram(B.GroundTruth).ok())
      return fail(IngestStatus::AnalysisError,
                  "derived reference translation does not round-trip "
                  "through the TACO parser (" + B.GroundTruth + ")");
  }

  // Bound what a wire-supplied kernel can make this process allocate:
  // constant extents are attacker-chosen literals, and example generation
  // materializes every tensor. Size parameters stay small (the harness
  // picks 2..4), so only numeric dimensions can explode; budget them in
  // floating point (no overflow) before anything allocates.
  constexpr double MaxElementsPerTensor = 1 << 16;
  for (const bench::ArgSpec &Arg : B.Args) {
    double Elements = 1;
    for (const std::string &Dim : Arg.Shape)
      Elements *= (!Dim.empty() &&
                   Dim.find_first_not_of("0123456789") == std::string::npos)
                      ? std::stod(Dim)
                      : 4 /* max harness size-parameter value */;
    if (Elements > MaxElementsPerTensor)
      return fail(IngestStatus::AnalysisError,
                  "the inferred shape of '" + Arg.Name +
                      "' exceeds the inline-kernel size budget (" +
                      std::to_string(static_cast<int64_t>(
                          MaxElementsPerTensor)) +
                      " elements per tensor)");
  }

  // Smoke-execute the kernel once under the inferred shapes: a wrong shape
  // or an interpreter-hostile construct should fail ingestion with a clear
  // message, not surface later as a bogus pipeline result.
  Rng Probe(0xA11CE);
  std::vector<validate::IoExample> Examples =
      validate::generateExamples(B, Fn, 1, Probe);
  if (Examples.empty())
    return fail(IngestStatus::AnalysisError,
                "the kernel does not execute under the inferred argument "
                "shapes (inferred " +
                    B.GroundTruth + ")");

  // A derived translation must actually agree with the kernel on the smoke
  // example — both the composed program and its statement-list form. This
  // turns any emission bug into an up-front refusal instead of a silently
  // wrong oracle reference.
  if (Translation.ok()) {
    if (!validate::runsConsistently(B, *Translation.Program, Examples))
      return fail(IngestStatus::AnalysisError,
                  "the derived reference translation disagrees with the "
                  "kernel on a generated example (derived " +
                      B.GroundTruth + ")");
    const validate::IoExample &Ex = Examples.front();
    std::map<std::string, taco::Tensor<double>> Operands;
    for (const bench::ArgSpec &Arg : B.Args) {
      if (Arg.K == bench::ArgSpec::Kind::Array) {
        taco::Tensor<double> T(validate::resolveShape(Arg, Ex.Sizes));
        T.flat() = Ex.Inputs.Arrays.at(Arg.Name);
        Operands.emplace(Arg.Name, std::move(T));
      } else if (Arg.K == bench::ArgSpec::Kind::SizeScalar) {
        Operands.emplace(Arg.Name,
                         taco::Tensor<double>::scalar(static_cast<double>(
                             Ex.Sizes.at(Arg.Name))));
      } else {
        Operands.emplace(Arg.Name, taco::Tensor<double>::scalar(
                                       Ex.Inputs.NumScalars.at(Arg.Name)));
      }
    }
    auto Resolve =
        [&Operands](const std::string &Name) -> const taco::Tensor<double> * {
      auto It = Operands.find(Name);
      return It == Operands.end() ? nullptr : &It->second;
    };
    vm::Code Code = vm::compileStatements(Translation.Statements);
    vm::Interpreter<double> Interp(Code);
    taco::Tensor<double> Out;
    if (!Interp.run(Resolve, Summary.OutputParam, Out))
      return fail(IngestStatus::AnalysisError,
                  "the derived statement list does not execute: " +
                      Interp.error());
    const std::vector<double> &Got = Out.flat();
    const std::vector<double> &Want = Ex.Expected.flat();
    if (Got.size() != Want.size())
      return fail(IngestStatus::AnalysisError,
                  "the derived statement list disagrees with the kernel");
    for (size_t I = 0; I < Got.size(); ++I) {
      double Tolerance =
          1e-9 * std::max({1.0, std::fabs(Got[I]), std::fabs(Want[I])});
      if (!(std::fabs(Got[I] - Want[I]) <= Tolerance))
        return fail(IngestStatus::AnalysisError,
                    "the derived statement list disagrees with the kernel");
    }

    // Multi-statement kernels additionally get a (cheap) bounded
    // equivalence check of the ordered statement list against the C kernel
    // — the verifier executing the list as one program. Composition bugs
    // (wrong store order, a dropped setup statement) hide exactly here,
    // and the structured input family catches what one random example
    // cannot.
    if (Translation.Statements.size() > 1) {
      verify::VerifyOptions Light;
      Light.RandomTrials = 2;
      Light.MaxOneHot = 64;
      verify::VerifyResult VR = verify::verifyEquivalence(
          B, Fn, Translation.Statements, Light);
      if (!VR.Equivalent)
        return fail(IngestStatus::AnalysisError,
                    "the derived statement list is not equivalent to the "
                    "kernel: " + VR.Counterexample);
    }
    Result.ReferenceStatements = std::move(Translation.Statements);
  }

  Result.Kernel = std::move(B);
  return Result;
}
