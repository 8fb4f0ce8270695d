//===- tests/CInterpReference.h - Map-based mini-C interpreter --*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference semantics of the mini-C interpreter, kept with the tests
/// only: the direct AST walk with every variable, parameter and buffer
/// looked up by name in std::map, as src/cfront/Interp.h ran it before the
/// slot-resolved form (cfront::CompiledFunction / cfront::Executor). The
/// Machine below is that code unchanged; CfrontInterpTest pins the compiled
/// path against it (outputs, Ok, error text and step-budget behaviour).
/// Nothing in src/ includes this file.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_TESTS_CINTERPREFERENCE_H
#define STAGG_TESTS_CINTERPREFERENCE_H

#include "cfront/Interp.h"

#include <map>
#include <string>
#include <vector>

namespace stagg {
namespace cfront {
namespace reference {

using detail::CValue;

/// Interpreter state for one call.
template <typename T> class Machine {
public:
  Machine(const CFunction &Fn, ExecEnv<T> &Env, int64_t StepBudget,
          bool TrustBounds = false)
      : Fn(Fn), Env(Env), StepsLeft(StepBudget), TrustBounds(TrustBounds) {}

  ExecStatus run() {
    // Bind parameters.
    for (const CParam &Param : Fn.Params) {
      if (Param.Type.isPointer()) {
        auto It = Env.Arrays.find(Param.Name);
        if (It == Env.Arrays.end())
          return ExecStatus::failure("missing array argument '" + Param.Name +
                                     "'");
        BufferNames.push_back(Param.Name);
        Locals[Param.Name] = CValue<T>::fromPtr(
            static_cast<int>(BufferNames.size() - 1), 0);
        continue;
      }
      if (auto It = Env.IntScalars.find(Param.Name); It != Env.IntScalars.end()) {
        Locals[Param.Name] = CValue<T>::fromInt(It->second);
        continue;
      }
      if (auto It = Env.NumScalars.find(Param.Name); It != Env.NumScalars.end()) {
        Locals[Param.Name] = CValue<T>::fromNum(It->second);
        continue;
      }
      return ExecStatus::failure("missing scalar argument '" + Param.Name +
                                 "'");
    }
    execStmt(*Fn.Body);
    if (!Err.empty())
      return ExecStatus::failure(Err);
    return ExecStatus::success();
  }

private:
  bool budget() {
    if (--StepsLeft <= 0) {
      fail("step budget exhausted (possible non-termination)");
      return false;
    }
    return true;
  }

  void fail(const std::string &Message) {
    if (Err.empty())
      Err = Message;
  }
  bool failed() const { return !Err.empty(); }

  std::vector<T> &buffer(int Buf) { return Env.Arrays[BufferNames[Buf]]; }

  //===------------------------------------------------------------------===//
  // Expression evaluation
  //===------------------------------------------------------------------===//

  /// The location an lvalue names: a local variable slot or a buffer element.
  struct Place {
    bool IsLocal = false;
    std::string Name;
    int Buf = -1;
    int64_t Off = 0;
  };

  bool validBuffer(int Buf) {
    if (Buf >= 0 && Buf < static_cast<int>(BufferNames.size()))
      return true;
    fail("access through an uninitialized pointer");
    return false;
  }

  CValue<T> readPlace(const Place &P) {
    if (P.IsLocal) {
      auto It = Locals.find(P.Name);
      if (It == Locals.end()) {
        fail("use of undeclared variable '" + P.Name + "'");
        return {};
      }
      return It->second;
    }
    if (!validBuffer(P.Buf))
      return {};
    std::vector<T> &Data = buffer(P.Buf);
    if (!TrustBounds &&
        (P.Off < 0 || P.Off >= static_cast<int64_t>(Data.size()))) {
      fail("out-of-bounds read at offset " + std::to_string(P.Off));
      return {};
    }
    return CValue<T>::fromNum(Data[static_cast<size_t>(P.Off)]);
  }

  void writePlace(const Place &P, const CValue<T> &Value) {
    if (P.IsLocal) {
      Locals[P.Name] = Value;
      return;
    }
    if (Value.isPtr()) {
      fail("storing a pointer into a data array");
      return;
    }
    if (!validBuffer(P.Buf))
      return;
    std::vector<T> &Data = buffer(P.Buf);
    if (!TrustBounds &&
        (P.Off < 0 || P.Off >= static_cast<int64_t>(Data.size()))) {
      fail("out-of-bounds write at offset " + std::to_string(P.Off));
      return;
    }
    Data[static_cast<size_t>(P.Off)] = Value.asNum();
  }

  Place evalPlace(const CExpr &E) {
    switch (E.kind()) {
    case CExpr::Kind::VarRef: {
      Place P;
      P.IsLocal = true;
      P.Name = cCast<VarRef>(E).name();
      return P;
    }
    case CExpr::Kind::Unary: {
      const auto &U = cCast<CUnary>(E);
      if (U.op() != CUnOp::Deref) {
        fail("expression is not an lvalue");
        return {};
      }
      CValue<T> Ptr = evalExpr(U.operand());
      if (failed())
        return {};
      if (!Ptr.isPtr()) {
        fail("dereferencing a non-pointer");
        return {};
      }
      Place P;
      P.Buf = Ptr.Buf;
      P.Off = Ptr.Off;
      return P;
    }
    case CExpr::Kind::Index: {
      const auto &Ix = cCast<CIndex>(E);
      CValue<T> Base = evalExpr(Ix.base());
      CValue<T> Index = evalExpr(Ix.index());
      if (failed())
        return {};
      if (!Base.isPtr() || !Index.isInt()) {
        fail("invalid array subscript");
        return {};
      }
      Place P;
      P.Buf = Base.Buf;
      P.Off = Base.Off + Index.I;
      return P;
    }
    default:
      fail("expression is not an lvalue");
      return {};
    }
  }

  CValue<T> applyBinary(CBinOp Op, const CValue<T> &L, const CValue<T> &R) {
    // Pointer arithmetic.
    if (L.isPtr() || R.isPtr()) {
      if (Op == CBinOp::Add && L.isPtr() && R.isInt())
        return CValue<T>::fromPtr(L.Buf, L.Off + R.I);
      if (Op == CBinOp::Add && R.isPtr() && L.isInt())
        return CValue<T>::fromPtr(R.Buf, R.Off + L.I);
      if (Op == CBinOp::Sub && L.isPtr() && R.isInt())
        return CValue<T>::fromPtr(L.Buf, L.Off - R.I);
      if (Op == CBinOp::Lt && L.isPtr() && R.isPtr())
        return CValue<T>::fromInt(L.Off < R.Off);
      if (Op == CBinOp::Ne && L.isPtr() && R.isPtr())
        return CValue<T>::fromInt(L.Buf != R.Buf || L.Off != R.Off);
      fail("unsupported pointer arithmetic");
      return {};
    }
    // Pure integer arithmetic stays exact (subscripts, bounds).
    if (L.isInt() && R.isInt()) {
      switch (Op) {
      case CBinOp::Add:
        return CValue<T>::fromInt(L.I + R.I);
      case CBinOp::Sub:
        return CValue<T>::fromInt(L.I - R.I);
      case CBinOp::Mul:
        return CValue<T>::fromInt(L.I * R.I);
      case CBinOp::Div:
        if (R.I == 0) {
          fail("integer division by zero");
          return {};
        }
        return CValue<T>::fromInt(L.I / R.I);
      case CBinOp::Mod:
        if (R.I == 0) {
          fail("integer modulo by zero");
          return {};
        }
        return CValue<T>::fromInt(L.I % R.I);
      case CBinOp::Lt:
        return CValue<T>::fromInt(L.I < R.I);
      case CBinOp::Le:
        return CValue<T>::fromInt(L.I <= R.I);
      case CBinOp::Gt:
        return CValue<T>::fromInt(L.I > R.I);
      case CBinOp::Ge:
        return CValue<T>::fromInt(L.I >= R.I);
      case CBinOp::Eq:
        return CValue<T>::fromInt(L.I == R.I);
      case CBinOp::Ne:
        return CValue<T>::fromInt(L.I != R.I);
      case CBinOp::LAnd:
        return CValue<T>::fromInt(L.I != 0 && R.I != 0);
      case CBinOp::LOr:
        return CValue<T>::fromInt(L.I != 0 || R.I != 0);
      }
    }
    // Mixed/numeric arithmetic promotes to the data type.
    T A = L.asNum();
    T B = R.asNum();
    switch (Op) {
    case CBinOp::Add:
      return CValue<T>::fromNum(A + B);
    case CBinOp::Sub:
      return CValue<T>::fromNum(A - B);
    case CBinOp::Mul:
      return CValue<T>::fromNum(A * B);
    case CBinOp::Div:
      return CValue<T>::fromNum(A / B);
    case CBinOp::Lt:
      return CValue<T>::fromInt(A < B);
    case CBinOp::Gt:
      return CValue<T>::fromInt(B < A);
    case CBinOp::Le:
      return CValue<T>::fromInt(!(B < A));
    case CBinOp::Ge:
      return CValue<T>::fromInt(!(A < B));
    case CBinOp::Eq:
      return CValue<T>::fromInt(A == B);
    case CBinOp::Ne:
      return CValue<T>::fromInt(!(A == B));
    default:
      fail("unsupported numeric operator");
      return {};
    }
  }

  CValue<T> evalExpr(const CExpr &E) {
    if (failed() || !budget())
      return {};
    switch (E.kind()) {
    case CExpr::Kind::IntLit:
      return CValue<T>::fromInt(cCast<IntLit>(E).value());
    case CExpr::Kind::FloatLit: {
      const auto &F = cCast<FloatLit>(E);
      int64_t Denominator = 1;
      for (int I = 0; I < F.scale(); ++I)
        Denominator *= 10;
      return CValue<T>::fromNum(T(F.mantissa()) / T(Denominator));
    }
    case CExpr::Kind::VarRef: {
      auto It = Locals.find(cCast<VarRef>(E).name());
      if (It == Locals.end()) {
        fail("use of undeclared variable '" + cCast<VarRef>(E).name() + "'");
        return {};
      }
      return It->second;
    }
    case CExpr::Kind::Unary: {
      const auto &U = cCast<CUnary>(E);
      switch (U.op()) {
      case CUnOp::Neg: {
        CValue<T> V = evalExpr(U.operand());
        if (failed())
          return {};
        if (V.isInt())
          return CValue<T>::fromInt(-V.I);
        if (V.isNum())
          return CValue<T>::fromNum(-V.N);
        fail("negating a pointer");
        return {};
      }
      case CUnOp::Not: {
        CValue<T> V = evalExpr(U.operand());
        if (failed())
          return {};
        if (V.isInt())
          return CValue<T>::fromInt(V.I == 0);
        fail("'!' on non-integer");
        return {};
      }
      case CUnOp::Deref: {
        Place P = evalPlace(E);
        if (failed())
          return {};
        return readPlace(P);
      }
      case CUnOp::AddrOf: {
        // Supported form: &buffer[expr] (including &*p).
        const CExpr &Target = U.operand();
        if (Target.kind() == CExpr::Kind::Index ||
            (Target.kind() == CExpr::Kind::Unary &&
             cCast<CUnary>(Target).op() == CUnOp::Deref)) {
          Place P = evalPlace(Target);
          if (failed())
            return {};
          if (P.IsLocal) {
            fail("address of local variable is unsupported");
            return {};
          }
          return CValue<T>::fromPtr(P.Buf, P.Off);
        }
        fail("unsupported address-of expression");
        return {};
      }
      }
      return {};
    }
    case CExpr::Kind::Binary: {
      const auto &B = cCast<CBinary>(E);
      // Short-circuit logical operators.
      if (B.op() == CBinOp::LAnd || B.op() == CBinOp::LOr) {
        CValue<T> L = evalExpr(B.lhs());
        if (failed())
          return {};
        if (!L.isInt()) {
          fail("logical operator on non-integer");
          return {};
        }
        bool LTrue = L.I != 0;
        if (B.op() == CBinOp::LAnd && !LTrue)
          return CValue<T>::fromInt(0);
        if (B.op() == CBinOp::LOr && LTrue)
          return CValue<T>::fromInt(1);
        CValue<T> R = evalExpr(B.rhs());
        if (failed())
          return {};
        if (!R.isInt()) {
          fail("logical operator on non-integer");
          return {};
        }
        return CValue<T>::fromInt(R.I != 0);
      }
      CValue<T> L = evalExpr(B.lhs());
      CValue<T> R = evalExpr(B.rhs());
      if (failed())
        return {};
      return applyBinary(B.op(), L, R);
    }
    case CExpr::Kind::Assign: {
      const auto &A = cCast<CAssign>(E);
      Place P = evalPlace(A.lhs());
      if (failed())
        return {};
      CValue<T> Rhs = evalExpr(A.rhs());
      if (failed())
        return {};
      CValue<T> NewValue = Rhs;
      if (A.op() != CAssignOp::Plain) {
        CValue<T> Old = readPlace(P);
        if (failed())
          return {};
        CBinOp Op = A.op() == CAssignOp::Add   ? CBinOp::Add
                    : A.op() == CAssignOp::Sub ? CBinOp::Sub
                    : A.op() == CAssignOp::Mul ? CBinOp::Mul
                                               : CBinOp::Div;
        NewValue = applyBinary(Op, Old, Rhs);
        if (failed())
          return {};
      }
      writePlace(P, NewValue);
      return NewValue;
    }
    case CExpr::Kind::IncDec: {
      const auto &I = cCast<CIncDec>(E);
      Place P = evalPlace(I.target());
      if (failed())
        return {};
      CValue<T> Old = readPlace(P);
      if (failed())
        return {};
      CValue<T> Delta = CValue<T>::fromInt(1);
      CValue<T> NewValue =
          applyBinary(I.isIncrement() ? CBinOp::Add : CBinOp::Sub, Old, Delta);
      if (failed())
        return {};
      writePlace(P, NewValue);
      return I.isPrefix() ? NewValue : Old;
    }
    case CExpr::Kind::Index: {
      Place P = evalPlace(E);
      if (failed())
        return {};
      return readPlace(P);
    }
    }
    return {};
  }

  //===------------------------------------------------------------------===//
  // Statement execution
  //===------------------------------------------------------------------===//

  bool truthy(const CValue<T> &V) {
    if (V.isInt())
      return V.I != 0;
    if (V.isNum())
      return !(V.N == T(0));
    fail("pointer used as condition");
    return false;
  }

  void execStmt(const CStmt &S) {
    if (failed() || Returned || !budget())
      return;
    switch (S.kind()) {
    case CStmt::Kind::Empty:
      return;
    case CStmt::Kind::Decl: {
      const auto &D = cCast<CDeclStmt>(S);
      if (D.init()) {
        CValue<T> V = evalExpr(*D.init());
        if (failed())
          return;
        Locals[D.name()] = V;
      } else {
        Locals[D.name()] = D.type().isPointer()
                               ? CValue<T>::fromPtr(-1, 0)
                               : (D.type().isFloating()
                                      ? CValue<T>::fromNum(T(0))
                                      : CValue<T>::fromInt(0));
      }
      return;
    }
    case CStmt::Kind::ExprStmt:
      evalExpr(cCast<CExprStmt>(S).expr());
      return;
    case CStmt::Kind::Block:
      for (const CStmtPtr &Sub : cCast<CBlock>(S).statements()) {
        execStmt(*Sub);
        if (failed() || Returned)
          return;
      }
      return;
    case CStmt::Kind::For: {
      const auto &F = cCast<CFor>(S);
      if (F.init())
        execStmt(*F.init());
      for (;;) {
        if (failed() || Returned || !budget())
          return;
        if (F.cond()) {
          CValue<T> C = evalExpr(*F.cond());
          if (failed())
            return;
          if (!truthy(C))
            return;
        }
        execStmt(F.body());
        if (failed() || Returned)
          return;
        if (F.step())
          evalExpr(*F.step());
      }
    }
    case CStmt::Kind::While: {
      const auto &W = cCast<CWhile>(S);
      for (;;) {
        if (failed() || Returned || !budget())
          return;
        CValue<T> C = evalExpr(W.cond());
        if (failed())
          return;
        if (!truthy(C))
          return;
        execStmt(W.body());
        if (failed() || Returned)
          return;
      }
    }
    case CStmt::Kind::If: {
      const auto &I = cCast<CIf>(S);
      CValue<T> C = evalExpr(I.cond());
      if (failed())
        return;
      if (truthy(C))
        execStmt(I.thenStmt());
      else if (I.elseStmt())
        execStmt(*I.elseStmt());
      return;
    }
    case CStmt::Kind::Return: {
      const auto &R = cCast<CReturn>(S);
      if (R.expr())
        evalExpr(*R.expr());
      Returned = true;
      return;
    }
    }
  }

  const CFunction &Fn;
  ExecEnv<T> &Env;
  int64_t StepsLeft;
  /// When set, the per-access range checks in readPlace/writePlace are
  /// elided. Callers must hold a static in-bounds proof for this kernel
  /// under these buffer sizes (analysis::Checker's BoundsProvenSafe);
  /// without one the elided check becomes genuine undefined behaviour.
  bool TrustBounds = false;
  std::map<std::string, CValue<T>> Locals;
  std::vector<std::string> BufferNames;
  bool Returned = false;
  std::string Err;
};

/// runCFunction on the reference Machine.
template <typename T>
ExecStatus runReference(const CFunction &Fn, ExecEnv<T> &Env,
                        int64_t StepBudget = 10'000'000,
                        bool TrustBounds = false) {
  Machine<T> M(Fn, Env, StepBudget, TrustBounds);
  return M.run();
}

} // namespace reference
} // namespace cfront
} // namespace stagg

#endif // STAGG_TESTS_CINTERPREFERENCE_H
