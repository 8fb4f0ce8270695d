//===- vm/Compiler.cpp - Lower TACO programs to vm::Code ------------------===//

#include "vm/Compiler.h"

#include "taco/Einsum.h"

using namespace stagg;
using namespace stagg::vm;

namespace {

/// Linearizes one EinsumProgram node tree into a StmtCode, overwriting it in
/// place so its vectors keep their capacity. The recursion mirrors
/// EinsumEvaluator::evalNode/evalInner one-to-one so the instruction stream
/// performs the identical sequence of loads, operations, and accumulations.
class Lowering {
public:
  Lowering(const taco::EinsumProgram &S, StmtCode &Out) : S(S), Out(Out) {}

  void run() {
    const taco::Program &P = S.program();
    Out.LhsName = P.Lhs.name();
    Out.LhsIndices = P.Lhs.indices();
    Out.NumSlots = static_cast<int>(S.numSlots());
    Out.OutSlots = S.outSlots();

    // Accesses and constants in ordinal (leaf) order — the binder walks
    // them in this order, matching the tree-walk's conflict discovery.
    Out.Accesses.resize(S.accessNodes().size());
    for (size_t Ord = 0; Ord < Out.Accesses.size(); ++Ord) {
      const taco::EinsumProgram::Node &N = node(S.accessNodes()[Ord]);
      AccessInfo &Info = Out.Accesses[Ord];
      Info.Name = N.Access->name();
      Info.Indices = N.Access->indices();
      Info.Slots = N.Slots;
    }
    Out.Consts.clear();
    Out.ConstRegs.clear();
    Out.Instrs.clear();
    for (int NodeId : S.constNodes()) {
      Out.Consts.push_back(node(NodeId).Constant);
      Out.ConstRegs.push_back(newReg());
    }

    Out.Root = lowerNode(S.root());
    Out.NumRegs = NextReg;
  }

private:
  const taco::EinsumProgram::Node &node(int Id) const {
    return S.nodes()[static_cast<size_t>(Id)];
  }

  int newReg() { return NextReg++; }

  void emit(Op K, int32_t Dst, int32_t A = -1, int32_t B = -1) {
    Out.Instrs.push_back(Inst{K, Dst, A, B});
  }

  /// evalNode: wraps the node's own evaluation in its reduction loops.
  int lowerNode(int Id) {
    const taco::EinsumProgram::Node &N = node(Id);
    if (N.ReduceSlots.empty())
      return lowerInner(Id);

    // ResetAcc, then one loop per introduced variable (innermost last, the
    // mixed-radix order of the tree-walk), accumulating the body per
    // iteration. LoopBegin falls through, so the body runs at least once —
    // the tree-walk's do-while.
    int Acc = newReg();
    emit(Op::ResetAcc, Acc);
    // The LoopBegins are consecutive: loop I's body starts right after
    // the (I + 1)-th of them.
    const int32_t FirstBegin = static_cast<int32_t>(Out.Instrs.size());
    for (int Slot : N.ReduceSlots)
      emit(Op::LoopBegin, Slot);

    // The body is evalInner; `Sum += Lhs * Rhs` fuses into MulAcc (the
    // product is still rounded before the add, as in the tree-walk).
    if (N.Kind == taco::Expr::Kind::Binary &&
        N.Op == taco::BinOpKind::Mul) {
      int A = lowerNode(N.ChildA);
      int B = lowerNode(N.ChildB);
      emit(Op::MulAcc, Acc, A, B);
    } else {
      emit(Op::AccAdd, Acc, lowerInner(Id));
    }

    for (size_t I = N.ReduceSlots.size(); I > 0; --I)
      emit(Op::LoopEnd, N.ReduceSlots[I - 1],
           FirstBegin + static_cast<int32_t>(I));
    return Acc;
  }

  /// evalInner: the node's own operation, children via lowerNode (which
  /// replays their reduction loops inside this body).
  int lowerInner(int Id) {
    const taco::EinsumProgram::Node &N = node(Id);
    switch (N.Kind) {
    case taco::Expr::Kind::Access: {
      int R = newReg();
      emit(Op::Load, R, N.AccessOrdinal);
      return R;
    }
    case taco::Expr::Kind::Constant:
      return Out.ConstRegs[static_cast<size_t>(N.ConstOrdinal)];
    case taco::Expr::Kind::Binary: {
      int A = lowerNode(N.ChildA);
      int B = lowerNode(N.ChildB);
      int R = newReg();
      switch (N.Op) {
      case taco::BinOpKind::Add:
        emit(Op::Add, R, A, B);
        break;
      case taco::BinOpKind::Sub:
        emit(Op::Sub, R, A, B);
        break;
      case taco::BinOpKind::Mul:
        emit(Op::Mul, R, A, B);
        break;
      case taco::BinOpKind::Div:
        emit(Op::Div, R, A, B);
        break;
      }
      return R;
    }
    case taco::Expr::Kind::Negate: {
      int A = lowerNode(N.ChildA);
      int R = newReg();
      emit(Op::Neg, R, A);
      return R;
    }
    case taco::Expr::Kind::Max: {
      int A = lowerNode(N.ChildA);
      int B = lowerNode(N.ChildB);
      int R = newReg();
      emit(Op::Max, R, A, B);
      return R;
    }
    }
    return -1;
  }

  const taco::EinsumProgram &S;
  StmtCode &Out;
  int NextReg = 0;
};

} // namespace

namespace {

/// Lowers \p P into \p Out through \p Structure; false (with \p Error set)
/// on failure. The compiled StmtCode keeps ConstantExpr pointers into \p P's
/// RHS tree, so \p P must be the caller's own program, never a temporary.
bool lowerStatement(const taco::Program &P, taco::EinsumProgram &Structure,
                    StmtCode &Out, std::string &Error) {
  Structure.compile(P);
  if (!Structure.ok()) {
    Error = Structure.error();
    return false;
  }
  Lowering(Structure, Out).run();
  return true;
}

} // namespace

bool vm::compileInto(const taco::Program &P, taco::EinsumProgram &Structure,
                     Code &Out) {
  Out.clearError();
  Out.mutableStatements().resize(1);
  std::string Error;
  if (lowerStatement(P, Structure, Out.mutableStatements()[0], Error))
    return true;
  Out.setError(std::move(Error));
  return false;
}

Code vm::compileProgram(const taco::Program &P) {
  Code C;
  taco::EinsumProgram Structure;
  compileInto(P, Structure, C);
  return C;
}

Code vm::compileStatements(const std::vector<taco::Program> &Statements) {
  Code C;
  if (Statements.empty()) {
    C.setError("empty statement list");
    return C;
  }
  taco::EinsumProgram Structure;
  C.mutableStatements().resize(Statements.size());
  std::string Error;
  for (size_t K = 0; K < Statements.size(); ++K)
    if (!lowerStatement(Statements[K], Structure, C.mutableStatements()[K],
                        Error)) {
      C.setError(std::move(Error));
      return C;
    }
  return C;
}
