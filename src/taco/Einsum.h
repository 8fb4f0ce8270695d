//===- taco/Einsum.h - Einsum structure compiler ----------------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structure compilation for TACO's extended einsum semantics. Indices
/// absent from the LHS are *reduction* indices; following TACO's semantics,
/// the reduction over an index is placed at the smallest subexpression that
/// contains every use of that index. So in
///
///   a(i) = B(i,j) * x(j) + d(i)
///
/// the sum over `j` wraps only `B(i,j) * x(j)`, and `d(i)` is added once —
/// not once per value of `j`. TACO's extension of the traditional notation
/// admits `-` and `/` under the same placement rule.
///
/// This semantics replaces the paper's pipeline of TACO codegen + JAX/MLIR
/// lowering: it *is* what both toolchains implement for the dense fragment.
///
/// EinsumProgram compiles the structure once per program: index variables
/// become integer slots into a flat coordinate array, the expression
/// becomes a vector of nodes with child indices, and reduction placement is
/// computed. None of this depends on the operand tensors. vm::Compiler
/// lowers it to bytecode, which vm::Interpreter runs; the tests keep a
/// direct tree-walk over the same structure as the reference spec
/// (tests/EinsumReference.h). One EinsumProgram can be re-targeted at
/// program after program (the validator compiles every template into the
/// same one), keeping its buffers.
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_TACO_EINSUM_H
#define STAGG_TACO_EINSUM_H

#include "taco/Ast.h"
#include "taco/Semantics.h"
#include "taco/Tensor.h"

#include <algorithm>
#include <string>
#include <vector>

namespace stagg {
namespace taco {

/// Result of an evaluation attempt: either a tensor or a diagnostic.
template <typename T> struct EinsumResult {
  bool Ok = false;
  Tensor<T> Value;
  std::string Error;

  static EinsumResult success(Tensor<T> V) {
    EinsumResult R;
    R.Ok = true;
    R.Value = std::move(V);
    return R;
  }
  static EinsumResult failure(std::string Message) {
    EinsumResult R;
    R.Error = std::move(Message);
    return R;
  }
};

/// Outcome of a cell-by-cell comparison against an expected output: the
/// evaluation matched cell for cell, some cell failed the predicate, or the
/// program could not be evaluated at all (binding/rank/extent error).
enum class EinsumCompare { Match, Mismatch, Error };

namespace detail {

/// Advances a mixed-radix counter; returns false once all combinations have
/// been visited (an empty counter wraps immediately).
inline bool advanceCounter(std::vector<int64_t> &Coord,
                           const std::vector<int64_t> &Extents) {
  for (size_t I = Coord.size(); I > 0; --I) {
    if (++Coord[I - 1] < Extents[I - 1])
      return true;
    Coord[I - 1] = 0;
  }
  return false;
}

} // namespace detail

/// The operand-independent compilation of a program: slots, node tree, and
/// reduction placement. Between compile() calls it is immutable;
/// compile() re-targets it at another program, which invalidates every
/// vm::Code built on the previous target.
class EinsumProgram {
public:
  /// An empty structure that is not ok() until compile() targets it.
  EinsumProgram() = default;
  explicit EinsumProgram(const Program &Target) { compile(Target); }

  /// (Re)compiles the structure of \p Target, which must outlive the
  /// structure's use. Reuses every buffer the previous targets grew, so
  /// compiling a program no larger than an earlier one allocates nothing.
  void compile(const Program &Target) {
    P = &Target;
    StructureError.clear();
    Vars.clear();
    ReduceOrder.clear();
    TotalUses.clear();
    Uses.clear();
    NumNodes = 0;
    AccessNodes.clear();
    ConstNodes.clear();
    OutSlots.clear();
    Root = -1;
    if (!Target.Rhs) {
      StructureError = "program has no RHS";
      return;
    }

    // Slot assignment: LHS variables first, then RHS variables in order of
    // first appearance. Slot ids double as variable ids below.
    for (const std::string &Var : Target.Lhs.indices())
      slotOf(Var);
    NumLhsSlots = static_cast<int>(Vars.size());
    collectVars(*Target.Rhs);

    for (const std::string &Var : Target.Lhs.indices())
      OutSlots.push_back(slotOf(Var));

    // Reduction variables are the slots the LHS does not pin. Nodes list
    // their introduced reductions in variable-name order, the order the
    // evaluator nests them in.
    for (int Slot = NumLhsSlots; Slot < static_cast<int>(Vars.size()); ++Slot)
      ReduceOrder.push_back(Slot);
    std::sort(ReduceOrder.begin(), ReduceOrder.end(), [this](int A, int B) {
      return *Vars[static_cast<size_t>(A)] < *Vars[static_cast<size_t>(B)];
    });

    Root = compileExpr(*Target.Rhs);
  }

  bool ok() const { return StructureError.empty(); }
  const std::string &error() const { return StructureError; }
  const Program &program() const { return *P; }
  size_t numSlots() const { return Vars.size(); }

  /// One compiled expression node. Children are indices into Nodes, so the
  /// hot evaluation loop touches only flat vectors.
  struct Node {
    Expr::Kind Kind;
    BinOpKind Op = BinOpKind::Add;
    int ChildA = -1;
    int ChildB = -1;
    /// Access: the source node, its index slots, and its ordinal into the
    /// evaluator's per-access binding table.
    const AccessExpr *Access = nullptr;
    std::vector<int> Slots;
    int AccessOrdinal = -1;
    /// Constant: the source node and its ordinal into the evaluator's
    /// value table.
    const ConstantExpr *Constant = nullptr;
    int ConstOrdinal = -1;
    /// Slots of the reduction variables introduced at this node, in the
    /// same order the reference evaluator uses (sorted by variable name).
    std::vector<int> ReduceSlots;
  };

  /// The live nodes, indexed by node id. Node storage outlives re-targeting
  /// (so its vectors keep their capacity), hence a view rather than the
  /// vector itself.
  class NodeView {
  public:
    NodeView(const Node *Begin, size_t Size) : Begin(Begin), Size(Size) {}
    size_t size() const { return Size; }
    const Node &operator[](size_t Id) const { return Begin[Id]; }
    const Node *begin() const { return Begin; }
    const Node *end() const { return Begin + Size; }

  private:
    const Node *Begin;
    size_t Size;
  };

  NodeView nodes() const { return NodeView(Nodes.data(), NumNodes); }
  const std::vector<int> &accessNodes() const { return AccessNodes; }
  const std::vector<int> &constNodes() const { return ConstNodes; }
  const std::vector<int> &outSlots() const { return OutSlots; }
  int root() const { return Root; }

private:
  /// Interns \p Var: a short linear scan, since templates use a handful of
  /// index variables.
  int slotOf(const std::string &Var) {
    for (size_t I = 0; I < Vars.size(); ++I)
      if (*Vars[I] == Var)
        return static_cast<int>(I);
    Vars.push_back(&Var);
    return static_cast<int>(Vars.size() - 1);
  }

  bool isReduction(int Slot) const { return Slot >= NumLhsSlots; }

  /// Interns the RHS variables and counts, per reduction variable, the
  /// accesses that use it (an access repeating a variable counts once).
  void collectVars(const Expr &E) {
    switch (E.kind()) {
    case Expr::Kind::Access: {
      const std::vector<std::string> &Indices =
          exprCast<AccessExpr>(E).indices();
      for (size_t I = 0; I < Indices.size(); ++I) {
        int Slot = slotOf(Indices[I]);
        if (!isReduction(Slot) || repeatsEarlier(Indices, I))
          continue;
        if (TotalUses.size() <= static_cast<size_t>(Slot))
          TotalUses.resize(static_cast<size_t>(Slot) + 1, 0);
        ++TotalUses[static_cast<size_t>(Slot)];
      }
      return;
    }
    case Expr::Kind::Constant:
      return;
    case Expr::Kind::Binary: {
      const auto &B = exprCast<BinaryExpr>(E);
      collectVars(B.lhs());
      collectVars(B.rhs());
      return;
    }
    case Expr::Kind::Negate:
      collectVars(exprCast<NegateExpr>(E).operand());
      return;
    case Expr::Kind::Max: {
      const auto &M = exprCast<MaxExpr>(E);
      collectVars(M.lhs());
      collectVars(M.rhs());
      return;
    }
    }
  }

  static bool repeatsEarlier(const std::vector<std::string> &Indices,
                             size_t I) {
    for (size_t J = 0; J < I; ++J)
      if (Indices[J] == Indices[I])
        return true;
    return false;
  }

  int uses(int NodeId, int Slot) const {
    return Uses[static_cast<size_t>(NodeId) * Vars.size() +
                static_cast<size_t>(Slot)];
  }

  /// Lowers \p E to a compiled node and returns its index in Nodes. Nodes
  /// are numbered in post-order, so both children's rows of the use-count
  /// table exist when the node's own row is summed from them. A variable is
  /// reduced at the *smallest* node containing all its uses: the node whose
  /// count reaches the total while no child's already does.
  int compileExpr(const Expr &E) {
    // Children first: ids are post-order.
    BinOpKind Op = BinOpKind::Add;
    int ChildA = -1, ChildB = -1;
    switch (E.kind()) {
    case Expr::Kind::Access:
    case Expr::Kind::Constant:
      break;
    case Expr::Kind::Binary: {
      const auto &B = exprCast<BinaryExpr>(E);
      Op = B.op();
      ChildA = compileExpr(B.lhs());
      ChildB = compileExpr(B.rhs());
      break;
    }
    case Expr::Kind::Negate:
      ChildA = compileExpr(exprCast<NegateExpr>(E).operand());
      break;
    case Expr::Kind::Max: {
      const auto &M = exprCast<MaxExpr>(E);
      ChildA = compileExpr(M.lhs());
      ChildB = compileExpr(M.rhs());
      break;
    }
    }

    int Id = static_cast<int>(NumNodes++);
    if (Nodes.size() < NumNodes)
      Nodes.emplace_back();
    Node &N = Nodes[static_cast<size_t>(Id)];
    N.Kind = E.kind();
    N.Op = Op;
    N.ChildA = ChildA;
    N.ChildB = ChildB;
    N.Access = nullptr;
    N.Slots.clear();
    N.AccessOrdinal = -1;
    N.Constant = nullptr;
    N.ConstOrdinal = -1;
    N.ReduceSlots.clear();
    if (E.kind() == Expr::Kind::Access) {
      N.Access = &exprCast<AccessExpr>(E);
      for (const std::string &Var : N.Access->indices())
        N.Slots.push_back(slotOf(Var));
    } else if (E.kind() == Expr::Kind::Constant) {
      N.Constant = &exprCast<ConstantExpr>(E);
    }

    size_t Row = Uses.size();
    Uses.resize(Row + Vars.size(), 0);
    if (N.Kind == Expr::Kind::Access) {
      for (size_t I = 0; I < N.Slots.size(); ++I)
        if (isReduction(N.Slots[I]) && !repeatsEarlier(N.Access->indices(), I))
          ++Uses[Row + static_cast<size_t>(N.Slots[I])];
    } else {
      for (int Child : {N.ChildA, N.ChildB})
        if (Child >= 0)
          for (size_t V = 0; V < Vars.size(); ++V)
            Uses[Row + V] += uses(Child, static_cast<int>(V));
    }
    for (int Slot : ReduceOrder) {
      int Total = TotalUses[static_cast<size_t>(Slot)];
      if (uses(Id, Slot) != Total)
        continue;
      bool InOneChild = false;
      for (int Child : {N.ChildA, N.ChildB})
        InOneChild = InOneChild || (Child >= 0 && uses(Child, Slot) == Total);
      if (!InOneChild)
        N.ReduceSlots.push_back(Slot);
    }

    if (N.Kind == Expr::Kind::Access) {
      N.AccessOrdinal = static_cast<int>(AccessNodes.size());
      AccessNodes.push_back(Id);
    } else if (N.Kind == Expr::Kind::Constant) {
      N.ConstOrdinal = static_cast<int>(ConstNodes.size());
      ConstNodes.push_back(Id);
    }
    return Id;
  }

  const Program *P = nullptr;
  std::string StructureError = "no program";
  /// Slot id -> variable name, pointing into P's index lists.
  std::vector<const std::string *> Vars;
  int NumLhsSlots = 0;
  /// Reduction slots sorted by variable name.
  std::vector<int> ReduceOrder;
  /// Accesses using each slot over the whole RHS (zero for LHS slots).
  std::vector<int> TotalUses;
  /// Row per node (post-order id), column per slot: accesses in the node's
  /// subtree that use the slot's reduction variable. TotalUses and Uses are
  /// only read while compiling.
  std::vector<int> Uses;
  /// Nodes[0, NumNodes) are live; the rest keep their buffers for reuse.
  std::vector<Node> Nodes;
  size_t NumNodes = 0;
  std::vector<int> AccessNodes;
  std::vector<int> ConstNodes;
  std::vector<int> OutSlots;
  int Root = -1;
};

} // namespace taco
} // namespace stagg

#endif // STAGG_TACO_EINSUM_H
