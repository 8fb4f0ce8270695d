//===- cfront/Interp.h - Mini-C interpreter ---------------------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concrete interpreter for the mini-C AST, parameterized over the numeric
/// data type: the validator executes kernels over `double`, the bounded
/// verifier over `Rational` (mirroring the paper's rational-datatype CBMC
/// extension). Integer arithmetic (loop counters, subscripts) is evaluated
/// exactly over int64 in both instantiations; only *data* values take the
/// template type.
///
/// A CFunction is first resolved once into a CompiledFunction: flat node
/// tables in which every variable is a local slot and every pointer
/// parameter a buffer index, so running it does no name lookup at all. An
/// Executor runs that form against caller-provided argument spans
/// (ArgRef), reusing its slot and buffer tables across calls; the bounded
/// verifier compiles a kernel once per lift and runs it for every test.
/// runCFunction() is the name-keyed convenience wrapper over ExecEnv.
///
/// Resolution changes no behaviour. A slot carries a "declared" bit that is
/// set on its first write, so "use of undeclared variable" fires at the same
/// read as in a name-keyed environment; the step budget is charged at the
/// same points; and every error string is the same. The name-keyed walk this
/// replaced is kept with the tests (tests/CInterpReference.h), and
/// CfrontInterpTest pins the two against each other.
///
/// The interpreter is defensive: out-of-bounds accesses, dereferencing
/// non-pointers, and step-budget exhaustion all produce an error result
/// instead of undefined behaviour, so fuzzing and failure-injection tests can
/// drive it safely.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_CFRONT_INTERP_H
#define STAGG_CFRONT_INTERP_H

#include "cfront/Ast.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

// The executor's per-node helpers are forced into the recursive evaluator:
// left out of line they cost about a quarter of the interpreter's time.
#if defined(__GNUC__)
#define STAGG_CFRONT_INLINE __attribute__((always_inline)) inline
#else
#define STAGG_CFRONT_INLINE inline
#endif

namespace stagg {
namespace cfront {

/// Execution environment: named data arrays (pointer parameters), integer
/// scalar parameters (sizes), and numeric scalar parameters (e.g. `alpha`).
template <typename T> struct ExecEnv {
  std::map<std::string, std::vector<T>> Arrays;
  std::map<std::string, int64_t> IntScalars;
  std::map<std::string, T> NumScalars;
};

/// Outcome of an execution.
struct ExecStatus {
  bool Ok = false;
  std::string Error;

  static ExecStatus success() {
    ExecStatus S;
    S.Ok = true;
    return S;
  }
  static ExecStatus failure(std::string Message) {
    ExecStatus S;
    S.Error = std::move(Message);
    return S;
  }
};

namespace detail {

/// A dynamically-typed runtime value.
template <typename T> struct CValue {
  enum class Kind { Int, Num, Ptr } K = Kind::Int;
  int Buf = -1;
  int64_t I = 0;
  int64_t Off = 0;
  T N{};

  static CValue fromInt(int64_t V) {
    CValue R;
    R.K = Kind::Int;
    R.I = V;
    return R;
  }
  static CValue fromNum(T V) {
    CValue R;
    R.K = Kind::Num;
    R.N = std::move(V);
    return R;
  }
  static CValue fromPtr(int Buf, int64_t Off) {
    CValue R;
    R.K = Kind::Ptr;
    R.Buf = Buf;
    R.Off = Off;
    return R;
  }

  bool isInt() const { return K == Kind::Int; }
  bool isNum() const { return K == Kind::Num; }
  bool isPtr() const { return K == Kind::Ptr; }

  /// Numeric view: ints promote to T.
  T asNum() const { return isInt() ? T(I) : N; }
};

/// One resolved expression: the AST kind and operator, child expressions
/// as indices into CompiledFunction::Exprs.
struct ExprNode {
  CExpr::Kind K = CExpr::Kind::IntLit;
  /// CUnOp, CBinOp or CAssignOp; for IncDec bit 0 is "increment" and bit 1
  /// "prefix".
  uint8_t Op = 0;
  /// Unary/IncDec operand, Binary/Assign lhs, Index base.
  int32_t A = -1;
  /// Binary/Assign rhs, Index subscript.
  int32_t B = -1;
  /// IntLit value, VarRef slot, FloatLit index into FloatLits.
  int64_t Imm = 0;
};

/// The value an uninitialized declaration stores, by declared type.
enum class DeclDefault : uint8_t { Int, Num, NullPtr };

/// One resolved statement; children index CompiledFunction::Exprs (E*) or
/// CompiledFunction::Stmts (S*).
struct StmtNode {
  CStmt::Kind K = CStmt::Kind::Empty;
  /// Decl: the slot written and its value when there is no initializer.
  int32_t Slot = -1;
  DeclDefault Default = DeclDefault::Int;
  /// Decl init, ExprStmt/Return expression, For/While/If condition.
  int32_t E0 = -1;
  /// For step.
  int32_t E1 = -1;
  /// For init, If then; Block: first index into BlockItems.
  int32_t S0 = -1;
  /// For/While body, If else; Block: number of items.
  int32_t S1 = -1;
};

} // namespace detail

/// The slot-resolved form of one CFunction. Immutable once built, so any
/// number of Executors (one per thread) can share it. Compilation never
/// fails: constructs the interpreter rejects keep their shape and fail at
/// run time with the usual diagnostic.
struct CompiledFunction {
  /// One parameter, in declaration order.
  struct Param {
    std::string Name;
    bool IsPointer = false;
    int Slot = -1;
    /// Pointer parameters: the buffer index (count of earlier pointer
    /// parameters), the value a pointer to its first cell carries.
    int Buffer = -1;
  };

  std::vector<Param> Params;
  int NumBuffers = 0;
  /// Variable name per slot: parameters first, then locals in order of
  /// first appearance. Equal names share a slot, as they shared a map entry.
  std::vector<std::string> SlotNames;
  std::vector<detail::ExprNode> Exprs;
  std::vector<detail::StmtNode> Stmts;
  std::vector<int32_t> BlockItems;
  /// (mantissa, decimal scale) per FloatLit node.
  std::vector<std::pair<int64_t, int>> FloatLits;
  /// Index of the body block in Stmts.
  int32_t Body = -1;

  explicit CompiledFunction(const CFunction &Fn);
};

/// One caller-provided argument, per parameter in declaration order: a
/// buffer for pointer parameters, otherwise a scalar read through \p Int or
/// \p Num when a call starts. Every pointee must outlive the call.
template <typename T> struct ArgRef {
  T *Data = nullptr;
  int64_t Size = 0;
  const int64_t *Int = nullptr;
  const T *Num = nullptr;
};

/// Resolves \p F's parameters, in declaration order, through three name
/// lookups: \p Array(name) returns the buffer's std::vector<T>*, \p
/// Int(name) a const int64_t* and \p Num(name) a const T*, each nullptr
/// when absent. Fails with the interpreter's "missing ... argument"
/// diagnostic for the first parameter none of them binds.
template <typename T, typename ArrayFn, typename IntFn, typename NumFn>
ExecStatus bindArguments(const CompiledFunction &F, const ArrayFn &Array,
                         const IntFn &Int, const NumFn &Num,
                         std::vector<ArgRef<T>> &Args) {
  Args.assign(F.Params.size(), ArgRef<T>());
  for (size_t I = 0; I < F.Params.size(); ++I) {
    const CompiledFunction::Param &Param = F.Params[I];
    ArgRef<T> &Arg = Args[I];
    if (Param.IsPointer) {
      std::vector<T> *Data = Array(Param.Name);
      if (!Data)
        return ExecStatus::failure("missing array argument '" + Param.Name +
                                   "'");
      Arg.Data = Data->data();
      Arg.Size = static_cast<int64_t>(Data->size());
      continue;
    }
    if ((Arg.Int = Int(Param.Name)))
      continue;
    if ((Arg.Num = Num(Param.Name)))
      continue;
    return ExecStatus::failure("missing scalar argument '" + Param.Name +
                               "'");
  }
  return ExecStatus::success();
}

/// Runs a CompiledFunction. Holds the per-call slot and buffer tables, so
/// repeated calls allocate nothing; not thread-safe (one per thread).
template <typename T> class Executor {
public:
  explicit Executor(const CompiledFunction &F)
      : F(F), Slots(F.SlotNames.size()), Declared(F.SlotNames.size(), 0),
        Buffers(static_cast<size_t>(F.NumBuffers)) {
    FloatConsts.reserve(F.FloatLits.size());
    for (const auto &[Mantissa, Scale] : F.FloatLits) {
      int64_t Denominator = 1;
      for (int I = 0; I < Scale; ++I)
        Denominator *= 10;
      FloatConsts.push_back(T(Mantissa) / T(Denominator));
    }
  }

  const CompiledFunction &function() const { return F; }

  /// Executes the function on \p Args (one per parameter, see ArgRef;
  /// buffers are mutated in place). \p StepBudget bounds the number of
  /// interpreter steps. Pass \p TrustStaticBounds = true only when a static
  /// proof (analysis::Checker) guarantees every access is in bounds for
  /// these buffer sizes: the per-access range checks are elided, and
  /// without the proof an elided check becomes genuine undefined behaviour.
  ExecStatus run(const ArgRef<T> *Args, int64_t StepBudget = 10'000'000,
                 bool TrustStaticBounds = false) {
    StepsLeft = StepBudget;
    TrustBounds = TrustStaticBounds;
    Returned = false;
    Failed = false;
    Err.clear();
    std::fill(Declared.begin(), Declared.end(), 0);
    for (size_t I = 0; I < F.Params.size(); ++I) {
      const CompiledFunction::Param &Param = F.Params[I];
      const ArgRef<T> &Arg = Args[I];
      CValue &Slot = Slots[static_cast<size_t>(Param.Slot)];
      if (Param.IsPointer) {
        Buffers[static_cast<size_t>(Param.Buffer)] = {Arg.Data, Arg.Size};
        Slot = CValue::fromPtr(Param.Buffer, 0);
      } else if (Arg.Int) {
        Slot = CValue::fromInt(*Arg.Int);
      } else {
        Slot = CValue::fromNum(*Arg.Num);
      }
      Declared[static_cast<size_t>(Param.Slot)] = 1;
    }
    execStmt(F.Body);
    if (Failed)
      return ExecStatus::failure(Err);
    return ExecStatus::success();
  }

private:
  using CValue = detail::CValue<T>;
  using ExprNode = detail::ExprNode;
  using StmtNode = detail::StmtNode;

  struct Buffer {
    T *Data = nullptr;
    int64_t Size = 0;
  };

  bool budget() {
    if (--StepsLeft <= 0) {
      fail("step budget exhausted (possible non-termination)");
      return false;
    }
    return true;
  }

  void fail(const std::string &Message) {
    if (!Failed)
      Err = Message;
    Failed = true;
  }
  bool failed() const { return Failed; }

  const ExprNode &expr(int32_t E) const {
    return F.Exprs[static_cast<size_t>(E)];
  }

  //===------------------------------------------------------------------===//
  // Expression evaluation
  //===------------------------------------------------------------------===//

  /// The location an lvalue names: a local variable slot or a buffer element.
  struct Place {
    bool IsLocal = false;
    int Slot = -1;
    int Buf = -1;
    int64_t Off = 0;
  };

  bool validBuffer(int Buf) {
    if (Buf >= 0 && Buf < F.NumBuffers)
      return true;
    fail("access through an uninitialized pointer");
    return false;
  }

  STAGG_CFRONT_INLINE CValue readLocal(int Slot) {
    if (!Declared[static_cast<size_t>(Slot)]) {
      fail("use of undeclared variable '" +
           F.SlotNames[static_cast<size_t>(Slot)] + "'");
      return {};
    }
    return Slots[static_cast<size_t>(Slot)];
  }

  void writeLocal(int Slot, const CValue &Value) {
    Slots[static_cast<size_t>(Slot)] = Value;
    Declared[static_cast<size_t>(Slot)] = 1;
  }

  STAGG_CFRONT_INLINE CValue readPlace(const Place &P) {
    if (P.IsLocal)
      return readLocal(P.Slot);
    if (!validBuffer(P.Buf))
      return {};
    const Buffer &Data = Buffers[static_cast<size_t>(P.Buf)];
    if (!TrustBounds && (P.Off < 0 || P.Off >= Data.Size)) {
      fail("out-of-bounds read at offset " + std::to_string(P.Off));
      return {};
    }
    return CValue::fromNum(Data.Data[P.Off]);
  }

  STAGG_CFRONT_INLINE void writePlace(const Place &P, const CValue &Value) {
    if (P.IsLocal) {
      writeLocal(P.Slot, Value);
      return;
    }
    if (Value.isPtr()) {
      fail("storing a pointer into a data array");
      return;
    }
    if (!validBuffer(P.Buf))
      return;
    const Buffer &Data = Buffers[static_cast<size_t>(P.Buf)];
    if (!TrustBounds && (P.Off < 0 || P.Off >= Data.Size)) {
      fail("out-of-bounds write at offset " + std::to_string(P.Off));
      return;
    }
    Data.Data[P.Off] = Value.asNum();
  }

  STAGG_CFRONT_INLINE Place evalPlace(int32_t Id) {
    const ExprNode &E = expr(Id);
    switch (E.K) {
    case CExpr::Kind::VarRef: {
      Place P;
      P.IsLocal = true;
      P.Slot = static_cast<int>(E.Imm);
      return P;
    }
    case CExpr::Kind::Unary: {
      if (static_cast<CUnOp>(E.Op) != CUnOp::Deref) {
        fail("expression is not an lvalue");
        return {};
      }
      CValue Ptr = evalExpr(E.A);
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
      CValue Base = evalExpr(E.A);
      CValue Index = evalExpr(E.B);
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

  STAGG_CFRONT_INLINE CValue applyBinary(CBinOp Op, const CValue &L,
                                         const CValue &R) {
    // Pointer arithmetic.
    if (L.isPtr() || R.isPtr()) {
      if (Op == CBinOp::Add && L.isPtr() && R.isInt())
        return CValue::fromPtr(L.Buf, L.Off + R.I);
      if (Op == CBinOp::Add && R.isPtr() && L.isInt())
        return CValue::fromPtr(R.Buf, R.Off + L.I);
      if (Op == CBinOp::Sub && L.isPtr() && R.isInt())
        return CValue::fromPtr(L.Buf, L.Off - R.I);
      if (Op == CBinOp::Lt && L.isPtr() && R.isPtr())
        return CValue::fromInt(L.Off < R.Off);
      if (Op == CBinOp::Ne && L.isPtr() && R.isPtr())
        return CValue::fromInt(L.Buf != R.Buf || L.Off != R.Off);
      fail("unsupported pointer arithmetic");
      return {};
    }
    // Pure integer arithmetic stays exact (subscripts, bounds).
    if (L.isInt() && R.isInt()) {
      switch (Op) {
      case CBinOp::Add:
        return CValue::fromInt(L.I + R.I);
      case CBinOp::Sub:
        return CValue::fromInt(L.I - R.I);
      case CBinOp::Mul:
        return CValue::fromInt(L.I * R.I);
      case CBinOp::Div:
        if (R.I == 0) {
          fail("integer division by zero");
          return {};
        }
        return CValue::fromInt(L.I / R.I);
      case CBinOp::Mod:
        if (R.I == 0) {
          fail("integer modulo by zero");
          return {};
        }
        return CValue::fromInt(L.I % R.I);
      case CBinOp::Lt:
        return CValue::fromInt(L.I < R.I);
      case CBinOp::Le:
        return CValue::fromInt(L.I <= R.I);
      case CBinOp::Gt:
        return CValue::fromInt(L.I > R.I);
      case CBinOp::Ge:
        return CValue::fromInt(L.I >= R.I);
      case CBinOp::Eq:
        return CValue::fromInt(L.I == R.I);
      case CBinOp::Ne:
        return CValue::fromInt(L.I != R.I);
      case CBinOp::LAnd:
        return CValue::fromInt(L.I != 0 && R.I != 0);
      case CBinOp::LOr:
        return CValue::fromInt(L.I != 0 || R.I != 0);
      }
    }
    // Mixed/numeric arithmetic promotes to the data type.
    T A = L.asNum();
    T B = R.asNum();
    switch (Op) {
    case CBinOp::Add:
      return CValue::fromNum(A + B);
    case CBinOp::Sub:
      return CValue::fromNum(A - B);
    case CBinOp::Mul:
      return CValue::fromNum(A * B);
    case CBinOp::Div:
      return CValue::fromNum(A / B);
    case CBinOp::Lt:
      return CValue::fromInt(A < B);
    case CBinOp::Gt:
      return CValue::fromInt(B < A);
    case CBinOp::Le:
      return CValue::fromInt(!(B < A));
    case CBinOp::Ge:
      return CValue::fromInt(!(A < B));
    case CBinOp::Eq:
      return CValue::fromInt(A == B);
    case CBinOp::Ne:
      return CValue::fromInt(!(A == B));
    default:
      fail("unsupported numeric operator");
      return {};
    }
  }

  CValue evalExpr(int32_t Id) {
    if (failed() || !budget())
      return {};
    const ExprNode &E = expr(Id);
    switch (E.K) {
    case CExpr::Kind::IntLit:
      return CValue::fromInt(E.Imm);
    case CExpr::Kind::FloatLit:
      return CValue::fromNum(FloatConsts[static_cast<size_t>(E.Imm)]);
    case CExpr::Kind::VarRef:
      return readLocal(static_cast<int>(E.Imm));
    case CExpr::Kind::Unary: {
      switch (static_cast<CUnOp>(E.Op)) {
      case CUnOp::Neg: {
        CValue V = evalExpr(E.A);
        if (failed())
          return {};
        if (V.isInt())
          return CValue::fromInt(-V.I);
        if (V.isNum())
          return CValue::fromNum(-V.N);
        fail("negating a pointer");
        return {};
      }
      case CUnOp::Not: {
        CValue V = evalExpr(E.A);
        if (failed())
          return {};
        if (V.isInt())
          return CValue::fromInt(V.I == 0);
        fail("'!' on non-integer");
        return {};
      }
      case CUnOp::Deref: {
        Place P = evalPlace(Id);
        if (failed())
          return {};
        return readPlace(P);
      }
      case CUnOp::AddrOf: {
        // Supported form: &buffer[expr] (including &*p); such a place is
        // never a local.
        const ExprNode &Target = expr(E.A);
        if (Target.K == CExpr::Kind::Index ||
            (Target.K == CExpr::Kind::Unary &&
             static_cast<CUnOp>(Target.Op) == CUnOp::Deref)) {
          Place P = evalPlace(E.A);
          if (failed())
            return {};
          return CValue::fromPtr(P.Buf, P.Off);
        }
        fail("unsupported address-of expression");
        return {};
      }
      }
      return {};
    }
    case CExpr::Kind::Binary: {
      const CBinOp Op = static_cast<CBinOp>(E.Op);
      // Short-circuit logical operators.
      if (Op == CBinOp::LAnd || Op == CBinOp::LOr) {
        CValue L = evalExpr(E.A);
        if (failed())
          return {};
        if (!L.isInt()) {
          fail("logical operator on non-integer");
          return {};
        }
        bool LTrue = L.I != 0;
        if (Op == CBinOp::LAnd && !LTrue)
          return CValue::fromInt(0);
        if (Op == CBinOp::LOr && LTrue)
          return CValue::fromInt(1);
        CValue R = evalExpr(E.B);
        if (failed())
          return {};
        if (!R.isInt()) {
          fail("logical operator on non-integer");
          return {};
        }
        return CValue::fromInt(R.I != 0);
      }
      CValue L = evalExpr(E.A);
      CValue R = evalExpr(E.B);
      if (failed())
        return {};
      return applyBinary(Op, L, R);
    }
    case CExpr::Kind::Assign: {
      Place P = evalPlace(E.A);
      if (failed())
        return {};
      CValue Rhs = evalExpr(E.B);
      if (failed())
        return {};
      CValue NewValue = Rhs;
      const CAssignOp AOp = static_cast<CAssignOp>(E.Op);
      if (AOp != CAssignOp::Plain) {
        CValue Old = readPlace(P);
        if (failed())
          return {};
        CBinOp Op = AOp == CAssignOp::Add   ? CBinOp::Add
                    : AOp == CAssignOp::Sub ? CBinOp::Sub
                    : AOp == CAssignOp::Mul ? CBinOp::Mul
                                            : CBinOp::Div;
        NewValue = applyBinary(Op, Old, Rhs);
        if (failed())
          return {};
      }
      writePlace(P, NewValue);
      return NewValue;
    }
    case CExpr::Kind::IncDec: {
      Place P = evalPlace(E.A);
      if (failed())
        return {};
      CValue Old = readPlace(P);
      if (failed())
        return {};
      const bool Increment = (E.Op & 1) != 0;
      const bool Prefix = (E.Op & 2) != 0;
      CValue NewValue = applyBinary(Increment ? CBinOp::Add : CBinOp::Sub,
                                    Old, CValue::fromInt(1));
      if (failed())
        return {};
      writePlace(P, NewValue);
      return Prefix ? NewValue : Old;
    }
    case CExpr::Kind::Index: {
      Place P = evalPlace(Id);
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

  bool truthy(const CValue &V) {
    if (V.isInt())
      return V.I != 0;
    if (V.isNum())
      return !(V.N == T(0));
    fail("pointer used as condition");
    return false;
  }

  void execStmt(int32_t Id) {
    if (failed() || Returned || !budget())
      return;
    const StmtNode &S = F.Stmts[static_cast<size_t>(Id)];
    switch (S.K) {
    case CStmt::Kind::Empty:
      return;
    case CStmt::Kind::Decl: {
      if (S.E0 >= 0) {
        CValue V = evalExpr(S.E0);
        if (failed())
          return;
        writeLocal(S.Slot, V);
      } else {
        writeLocal(S.Slot, S.Default == detail::DeclDefault::NullPtr
                               ? CValue::fromPtr(-1, 0)
                               : (S.Default == detail::DeclDefault::Num
                                      ? CValue::fromNum(T(0))
                                      : CValue::fromInt(0)));
      }
      return;
    }
    case CStmt::Kind::ExprStmt:
      evalExpr(S.E0);
      return;
    case CStmt::Kind::Block:
      for (int32_t I = 0; I < S.S1; ++I) {
        execStmt(F.BlockItems[static_cast<size_t>(S.S0 + I)]);
        if (failed() || Returned)
          return;
      }
      return;
    case CStmt::Kind::For: {
      if (S.S0 >= 0)
        execStmt(S.S0);
      for (;;) {
        if (failed() || Returned || !budget())
          return;
        if (S.E0 >= 0) {
          CValue C = evalExpr(S.E0);
          if (failed())
            return;
          if (!truthy(C))
            return;
        }
        execStmt(S.S1);
        if (failed() || Returned)
          return;
        if (S.E1 >= 0)
          evalExpr(S.E1);
      }
    }
    case CStmt::Kind::While: {
      for (;;) {
        if (failed() || Returned || !budget())
          return;
        CValue C = evalExpr(S.E0);
        if (failed())
          return;
        if (!truthy(C))
          return;
        execStmt(S.S1);
        if (failed() || Returned)
          return;
      }
    }
    case CStmt::Kind::If: {
      CValue C = evalExpr(S.E0);
      if (failed())
        return;
      if (truthy(C))
        execStmt(S.S0);
      else if (S.S1 >= 0)
        execStmt(S.S1);
      return;
    }
    case CStmt::Kind::Return: {
      if (S.E0 >= 0)
        evalExpr(S.E0);
      Returned = true;
      return;
    }
    }
  }

  const CompiledFunction &F;
  std::vector<CValue> Slots;
  std::vector<uint8_t> Declared;
  std::vector<Buffer> Buffers;
  /// T(mantissa) / T(10^scale) per FloatLit, computed once.
  std::vector<T> FloatConsts;
  int64_t StepsLeft = 0;
  bool TrustBounds = false;
  bool Returned = false;
  bool Failed = false;
  std::string Err;
};

/// Executes \p Fn over \p Env (arrays are mutated in place): compiles it,
/// binds the parameters by name and runs one Executor. \p StepBudget bounds
/// the number of interpreter steps. Pass \p TrustBounds = true only when a
/// static proof (analysis::Checker) guarantees every access is in bounds
/// for these array sizes: the per-access range checks are elided.
template <typename T>
ExecStatus runCFunction(const CFunction &Fn, ExecEnv<T> &Env,
                        int64_t StepBudget = 10'000'000,
                        bool TrustBounds = false) {
  CompiledFunction F(Fn);
  std::vector<ArgRef<T>> Args;
  ExecStatus Bound = bindArguments<T>(
      F,
      [&Env](const std::string &Name) -> std::vector<T> * {
        auto It = Env.Arrays.find(Name);
        return It == Env.Arrays.end() ? nullptr : &It->second;
      },
      [&Env](const std::string &Name) -> const int64_t * {
        auto It = Env.IntScalars.find(Name);
        return It == Env.IntScalars.end() ? nullptr : &It->second;
      },
      [&Env](const std::string &Name) -> const T * {
        auto It = Env.NumScalars.find(Name);
        return It == Env.NumScalars.end() ? nullptr : &It->second;
      },
      Args);
  if (!Bound.Ok)
    return Bound;
  Executor<T> X(F);
  return X.run(Args.data(), StepBudget, TrustBounds);
}

} // namespace cfront
} // namespace stagg

#undef STAGG_CFRONT_INLINE

#endif // STAGG_CFRONT_INTERP_H
