//===- cfront/Interp.cpp - Slot resolution for the mini-C interpreter -----===//

#include "cfront/Interp.h"

using namespace stagg;
using namespace stagg::cfront;

namespace {

/// Lowers the AST into CompiledFunction's node tables. Children are
/// lowered before their parent is appended, so indices stay valid while
/// the tables grow.
class Resolver {
public:
  explicit Resolver(CompiledFunction &Out) : Out(Out) {}

  /// A kernel names a handful of variables: a linear scan of the slot
  /// table beats hashing.
  int slot(const std::string &Name) {
    for (size_t I = 0; I < Out.SlotNames.size(); ++I)
      if (Out.SlotNames[I] == Name)
        return static_cast<int>(I);
    Out.SlotNames.push_back(Name);
    return static_cast<int>(Out.SlotNames.size() - 1);
  }

  int32_t expr(const CExpr &E) {
    detail::ExprNode N;
    N.K = E.kind();
    switch (E.kind()) {
    case CExpr::Kind::IntLit:
      N.Imm = cCast<IntLit>(E).value();
      break;
    case CExpr::Kind::FloatLit: {
      const auto &F = cCast<FloatLit>(E);
      N.Imm = static_cast<int64_t>(Out.FloatLits.size());
      Out.FloatLits.emplace_back(F.mantissa(), F.scale());
      break;
    }
    case CExpr::Kind::VarRef:
      N.Imm = slot(cCast<VarRef>(E).name());
      break;
    case CExpr::Kind::Unary: {
      const auto &U = cCast<CUnary>(E);
      N.Op = static_cast<uint8_t>(U.op());
      N.A = expr(U.operand());
      break;
    }
    case CExpr::Kind::Binary: {
      const auto &B = cCast<CBinary>(E);
      N.Op = static_cast<uint8_t>(B.op());
      N.A = expr(B.lhs());
      N.B = expr(B.rhs());
      break;
    }
    case CExpr::Kind::Assign: {
      const auto &A = cCast<CAssign>(E);
      N.Op = static_cast<uint8_t>(A.op());
      N.A = expr(A.lhs());
      N.B = expr(A.rhs());
      break;
    }
    case CExpr::Kind::IncDec: {
      const auto &I = cCast<CIncDec>(E);
      N.Op = static_cast<uint8_t>((I.isIncrement() ? 1 : 0) |
                                  (I.isPrefix() ? 2 : 0));
      N.A = expr(I.target());
      break;
    }
    case CExpr::Kind::Index: {
      const auto &Ix = cCast<CIndex>(E);
      N.A = expr(Ix.base());
      N.B = expr(Ix.index());
      break;
    }
    }
    Out.Exprs.push_back(N);
    return static_cast<int32_t>(Out.Exprs.size() - 1);
  }

  int32_t stmt(const CStmt &S) {
    detail::StmtNode N;
    N.K = S.kind();
    switch (S.kind()) {
    case CStmt::Kind::Empty:
      break;
    case CStmt::Kind::Decl: {
      const auto &D = cCast<CDeclStmt>(S);
      N.Slot = slot(D.name());
      N.Default = D.type().isPointer()    ? detail::DeclDefault::NullPtr
                  : D.type().isFloating() ? detail::DeclDefault::Num
                                          : detail::DeclDefault::Int;
      if (D.init())
        N.E0 = expr(*D.init());
      break;
    }
    case CStmt::Kind::ExprStmt:
      N.E0 = expr(cCast<CExprStmt>(S).expr());
      break;
    case CStmt::Kind::Block: {
      // Children first (nested blocks append their own items), staged on
      // a stack shared by all blocks, then copied out contiguously.
      const size_t Mark = Pending.size();
      for (const CStmtPtr &Sub : cCast<CBlock>(S).statements())
        Pending.push_back(stmt(*Sub));
      N.S0 = static_cast<int32_t>(Out.BlockItems.size());
      N.S1 = static_cast<int32_t>(Pending.size() - Mark);
      Out.BlockItems.insert(Out.BlockItems.end(), Pending.begin() + Mark,
                            Pending.end());
      Pending.resize(Mark);
      break;
    }
    case CStmt::Kind::For: {
      const auto &F = cCast<CFor>(S);
      if (F.init())
        N.S0 = stmt(*F.init());
      if (F.cond())
        N.E0 = expr(*F.cond());
      if (F.step())
        N.E1 = expr(*F.step());
      N.S1 = stmt(F.body());
      break;
    }
    case CStmt::Kind::While: {
      const auto &W = cCast<CWhile>(S);
      N.E0 = expr(W.cond());
      N.S1 = stmt(W.body());
      break;
    }
    case CStmt::Kind::If: {
      const auto &I = cCast<CIf>(S);
      N.E0 = expr(I.cond());
      N.S0 = stmt(I.thenStmt());
      if (I.elseStmt())
        N.S1 = stmt(*I.elseStmt());
      break;
    }
    case CStmt::Kind::Return: {
      const auto &R = cCast<CReturn>(S);
      if (R.expr())
        N.E0 = expr(*R.expr());
      break;
    }
    }
    Out.Stmts.push_back(N);
    return static_cast<int32_t>(Out.Stmts.size() - 1);
  }

private:
  CompiledFunction &Out;
  std::vector<int32_t> Pending;
};

} // namespace

CompiledFunction::CompiledFunction(const CFunction &Fn) {
  Exprs.reserve(64);
  Stmts.reserve(32);
  Resolver R(*this);
  for (const CParam &P : Fn.Params) {
    Param Resolved;
    Resolved.Name = P.Name;
    Resolved.IsPointer = P.Type.isPointer();
    Resolved.Slot = R.slot(P.Name);
    if (Resolved.IsPointer)
      Resolved.Buffer = NumBuffers++;
    Params.push_back(std::move(Resolved));
  }
  Body = R.stmt(*Fn.Body);
}
