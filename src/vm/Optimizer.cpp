//===- vm/Optimizer.cpp - Post-compile optimizer for vm::Code -------------===//

#include "vm/Optimizer.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <sstream>
#include <utility>

using namespace stagg;
using namespace stagg::vm;

namespace {

//===----------------------------------------------------------------------===//
// Structured IR
//
// The compiler emits well-nested LoopBegin/LoopEnd pairs, so the flat stream
// round-trips losslessly through a tree of plain instructions and loop nodes.
// All passes run on the tree (no jump-target bookkeeping); re-emission
// recomputes every LoopEnd target.
//===----------------------------------------------------------------------===//

struct Node {
  Inst I;               // valid when !IsLoop
  bool IsLoop = false;
  int Slot = -1;        // loop slot when IsLoop
  std::vector<Node> Body;
};

/// Parses [*Pos, Instrs.size()) into \p Out until \p StopSlot's LoopEnd (or
/// end of stream for the top level). False on a malformed stream.
bool parseInto(const std::vector<Inst> &Instrs, size_t &Pos, int StopSlot,
               std::vector<Node> &Out) {
  while (Pos < Instrs.size()) {
    const Inst &I = Instrs[Pos];
    if (I.K == Op::LoopEnd) {
      if (I.Dst != StopSlot)
        return false; // mismatched nesting
      ++Pos;
      return true;
    }
    if (I.K == Op::LoopBegin) {
      Node Loop;
      Loop.IsLoop = true;
      Loop.Slot = I.Dst;
      ++Pos;
      if (!parseInto(Instrs, Pos, Loop.Slot, Loop.Body))
        return false;
      Out.push_back(std::move(Loop));
      continue;
    }
    Node Plain;
    Plain.I = I;
    Out.push_back(std::move(Plain));
    ++Pos;
  }
  return StopSlot == -1; // only the top level may run off the end
}

void emitFlat(const std::vector<Node> &Items, std::vector<Inst> &Out) {
  for (const Node &N : Items) {
    if (!N.IsLoop) {
      Out.push_back(N.I);
      continue;
    }
    Inst Begin;
    Begin.K = Op::LoopBegin;
    Begin.Dst = N.Slot;
    Out.push_back(Begin);
    int32_t BodyStart = static_cast<int32_t>(Out.size());
    emitFlat(N.Body, Out);
    Inst End;
    End.K = Op::LoopEnd;
    End.Dst = N.Slot;
    End.A = BodyStart;
    Out.push_back(End);
  }
}

//===----------------------------------------------------------------------===//
// Register use bookkeeping
//===----------------------------------------------------------------------===//

/// Appends the registers \p I reads to \p Regs. Accumulators read their own
/// Dst (R[Dst] += ...), which keeps live reduction loops alive through DCE.
void readRegs(const Inst &I, std::vector<int> &Regs) {
  switch (I.K) {
  case Op::Add:
  case Op::Sub:
  case Op::Mul:
  case Op::Div:
  case Op::Max:
    Regs.push_back(I.A);
    Regs.push_back(I.B);
    break;
  case Op::Neg:
    Regs.push_back(I.A);
    break;
  case Op::AccAdd:
    Regs.push_back(I.Dst);
    Regs.push_back(I.A);
    break;
  case Op::MulAcc:
    Regs.push_back(I.Dst);
    Regs.push_back(I.A);
    Regs.push_back(I.B);
    break;
  case Op::DotSpan:
  case Op::SumSpan:
    Regs.push_back(I.Dst); // A/B are access ordinals, not registers
    break;
  case Op::Load:
  case Op::ResetAcc:
  case Op::LoopBegin:
  case Op::LoopEnd:
  case Op::MapSpan:
    break;
  }
}

/// The register \p I writes, or -1 (LoopBegin/LoopEnd carry slots, MapSpan
/// carries a MapOp).
int writeReg(const Inst &I) {
  switch (I.K) {
  case Op::Load:
  case Op::Add:
  case Op::Sub:
  case Op::Mul:
  case Op::Div:
  case Op::Neg:
  case Op::Max:
  case Op::ResetAcc:
  case Op::AccAdd:
  case Op::MulAcc:
  case Op::DotSpan:
  case Op::SumSpan:
    return I.Dst;
  case Op::LoopBegin:
  case Op::LoopEnd:
  case Op::MapSpan:
    return -1;
  }
  return -1;
}

void forEachInst(const std::vector<Node> &Items,
                 const std::function<void(const Inst &)> &Fn) {
  for (const Node &N : Items) {
    if (N.IsLoop)
      forEachInst(N.Body, Fn);
    else
      Fn(N.I);
  }
}

void forEachInstMut(std::vector<Node> &Items,
                    const std::function<void(Inst &)> &Fn) {
  for (Node &N : Items) {
    if (N.IsLoop)
      forEachInstMut(N.Body, Fn);
    else
      Fn(N.I);
  }
}

struct RegCounts {
  std::vector<int64_t> Reads, Writes;
  void ensure(int Reg) {
    if (Reg >= static_cast<int>(Reads.size())) {
      Reads.resize(static_cast<size_t>(Reg) + 1, 0);
      Writes.resize(static_cast<size_t>(Reg) + 1, 0);
    }
  }
  int64_t reads(int Reg) const {
    return Reg >= 0 && Reg < static_cast<int>(Reads.size())
               ? Reads[static_cast<size_t>(Reg)]
               : 0;
  }
  int64_t writes(int Reg) const {
    return Reg >= 0 && Reg < static_cast<int>(Writes.size())
               ? Writes[static_cast<size_t>(Reg)]
               : 0;
  }
};

RegCounts countRegs(const StmtCode &SC, const std::vector<Node> &Items) {
  RegCounts Counts;
  std::vector<int> Tmp;
  forEachInst(Items, [&](const Inst &I) {
    Tmp.clear();
    readRegs(I, Tmp);
    for (int R : Tmp) {
      Counts.ensure(R);
      ++Counts.Reads[static_cast<size_t>(R)];
    }
    int W = writeReg(I);
    if (W >= 0) {
      Counts.ensure(W);
      ++Counts.Writes[static_cast<size_t>(W)];
    }
  });
  if (SC.Root >= 0) {
    Counts.ensure(SC.Root);
    ++Counts.Reads[static_cast<size_t>(SC.Root)];
  }
  return Counts;
}

//===----------------------------------------------------------------------===//
// Pass 1: fused span superinstructions (DotSpan / SumSpan)
//
// An innermost loop whose body is exactly the canonical reduction pattern
// collapses to one superinstruction. The fused execution performs the same
// loads and the same `acc += product` sequence in the same order, so the
// result is bit-identical; the pattern requires the load registers to be
// consumed only by the accumulate (true for compiler output, checked anyway
// so hand-built streams cannot be miscompiled).
//===----------------------------------------------------------------------===//

void fuseSpans(const StmtCode &SC, std::vector<Node> &Items,
               const RegCounts &Counts) {
  for (Node &N : Items) {
    if (!N.IsLoop)
      continue;
    fuseSpans(SC, N.Body, Counts);
    bool Innermost = std::none_of(N.Body.begin(), N.Body.end(),
                                  [](const Node &C) { return C.IsLoop; });
    if (!Innermost)
      continue;
    auto IsOnly = [&](int Reg) {
      return Counts.reads(Reg) == 1 && Counts.writes(Reg) == 1;
    };
    Inst Fused;
    if (N.Body.size() == 3 && N.Body[0].I.K == Op::Load &&
        N.Body[1].I.K == Op::Load && N.Body[2].I.K == Op::MulAcc) {
      const Inst &LA = N.Body[0].I, &LB = N.Body[1].I, &Acc = N.Body[2].I;
      if (LA.Dst == LB.Dst || !IsOnly(LA.Dst) || !IsOnly(LB.Dst))
        continue;
      // Map each MulAcc operand to the access its register was loaded from,
      // preserving multiplication order (A * B).
      int OrdA = Acc.A == LA.Dst ? LA.A : Acc.A == LB.Dst ? LB.A : -1;
      int OrdB = Acc.B == LA.Dst ? LA.A : Acc.B == LB.Dst ? LB.A : -1;
      if (OrdA < 0 || OrdB < 0)
        continue;
      Fused.K = Op::DotSpan;
      Fused.Dst = Acc.Dst;
      Fused.A = OrdA;
      Fused.B = OrdB;
      Fused.C = N.Slot;
    } else if (N.Body.size() == 2 && N.Body[0].I.K == Op::Load &&
               N.Body[1].I.K == Op::AccAdd) {
      const Inst &LA = N.Body[0].I, &Acc = N.Body[1].I;
      if (Acc.A != LA.Dst || !IsOnly(LA.Dst))
        continue;
      Fused.K = Op::SumSpan;
      Fused.Dst = Acc.Dst;
      Fused.A = LA.A;
      Fused.C = N.Slot;
    } else {
      continue;
    }
    N = Node();
    N.I = Fused;
  }
}

//===----------------------------------------------------------------------===//
// Pass 2: whole-statement elementwise maps (MapSpan)
//
// A loop-free statement whose stream is one of the tiny elementwise shapes
// becomes a single MapSpan over the innermost output slot, executed one
// contiguous output row at a time by the interpreter's odometer. Per cell it
// performs exactly the scalar sequence (load, (load,) op), so results are
// bit-identical; operands that do not index the span slot simply get stride
// zero.
//===----------------------------------------------------------------------===//

bool tryMapSpan(StmtCode &SC, std::vector<Node> &Items,
                const RegCounts &Counts) {
  if (SC.OutSlots.empty())
    return false; // a rank-0 output has no row to span
  // A repeated LHS index (diagonal output) would alias the span slot with
  // an outer row slot; the row executor requires them distinct.
  for (size_t I = 0; I < SC.OutSlots.size(); ++I)
    for (size_t J = I + 1; J < SC.OutSlots.size(); ++J)
      if (SC.OutSlots[I] == SC.OutSlots[J])
        return false;
  if (std::any_of(Items.begin(), Items.end(),
                  [](const Node &N) { return N.IsLoop; }))
    return false;
  auto IsOnly = [&](int Reg) {
    return Counts.reads(Reg) == 1 && Counts.writes(Reg) == 1;
  };
  Inst Map;
  Map.K = Op::MapSpan;
  Map.C = SC.OutSlots.back();
  if (Items.size() == 1 && Items[0].I.K == Op::Load &&
      SC.Root == Items[0].I.Dst) {
    Map.Dst = static_cast<int32_t>(MapOp::Copy);
    Map.A = Items[0].I.A;
  } else if (Items.size() == 2 && Items[0].I.K == Op::Load &&
             Items[1].I.K == Op::Neg && Items[1].I.A == Items[0].I.Dst &&
             SC.Root == Items[1].I.Dst && IsOnly(Items[0].I.Dst)) {
    Map.Dst = static_cast<int32_t>(MapOp::Neg);
    Map.A = Items[0].I.A;
  } else if (Items.size() == 3 && Items[0].I.K == Op::Load &&
             Items[1].I.K == Op::Load) {
    const Inst &LA = Items[0].I, &LB = Items[1].I, &Bin = Items[2].I;
    MapOp MO;
    switch (Bin.K) {
    case Op::Add: MO = MapOp::Add; break;
    case Op::Sub: MO = MapOp::Sub; break;
    case Op::Mul: MO = MapOp::Mul; break;
    case Op::Div: MO = MapOp::Div; break;
    case Op::Max: MO = MapOp::Max; break;
    default: return false;
    }
    if (SC.Root != Bin.Dst || LA.Dst == LB.Dst || !IsOnly(LA.Dst) ||
        !IsOnly(LB.Dst))
      return false;
    int OrdA = Bin.A == LA.Dst ? LA.A : Bin.A == LB.Dst ? LB.A : -1;
    int OrdB = Bin.B == LA.Dst ? LA.A : Bin.B == LB.Dst ? LB.A : -1;
    if (OrdA < 0 || OrdB < 0)
      return false;
    Map.Dst = static_cast<int32_t>(MO);
    Map.A = OrdA;
    Map.B = OrdB;
  } else {
    return false;
  }
  Items.clear();
  Node N;
  N.I = Map;
  Items.push_back(std::move(N));
  SC.Root = -1; // the map writes cells directly; there is no root register
  return true;
}

//===----------------------------------------------------------------------===//
// Pass 3: constant-register dedup
//===----------------------------------------------------------------------===//

void dedupConstants(StmtCode &SC, std::vector<Node> &Items) {
  if (SC.Consts.size() < 2)
    return;
  std::vector<std::pair<int, int>> Remap; // (from reg, to reg)
  for (size_t J = 1; J < SC.Consts.size(); ++J) {
    for (size_t I = 0; I < J; ++I) {
      if (SC.Consts[I] == SC.Consts[J]) {
        Remap.emplace_back(SC.ConstRegs[J], SC.ConstRegs[I]);
        break;
      }
    }
  }
  if (Remap.empty())
    return;
  auto Rewrite = [&](int32_t &Reg) {
    for (const std::pair<int, int> &M : Remap)
      if (Reg == M.first)
        Reg = M.second;
  };
  forEachInstMut(Items, [&](Inst &I) {
    switch (I.K) {
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::Div:
    case Op::Max:
    case Op::MulAcc:
      Rewrite(I.A);
      Rewrite(I.B);
      break;
    case Op::Neg:
    case Op::AccAdd:
      Rewrite(I.A);
      break;
    default:
      break;
    }
  });
  if (SC.Root >= 0) {
    int32_t Root = SC.Root;
    Rewrite(Root);
    SC.Root = Root;
  }
  // The orphaned registers (and their Consts entries) fall to DCE's dead-
  // constant sweep; leaving them pre-filled but unread is harmless.
}

//===----------------------------------------------------------------------===//
// Pass 4: dead-register elimination + compact renumbering
//===----------------------------------------------------------------------===//

/// Deletes pure instructions whose destination is never read; repeats to a
/// fixpoint so chains die wholesale. Accumulators read their own Dst, which
/// conservatively keeps reduction loops alive.
void eliminateDead(StmtCode &SC, std::vector<Node> &Items) {
  bool Changed = true;
  while (Changed) {
    Changed = false;
    RegCounts Counts = countRegs(SC, Items);
    std::function<void(std::vector<Node> &)> Sweep =
        [&](std::vector<Node> &Body) {
          for (size_t Pos = 0; Pos < Body.size();) {
            Node &N = Body[Pos];
            if (N.IsLoop) {
              Sweep(N.Body);
              ++Pos;
              continue;
            }
            bool Pure = false;
            switch (N.I.K) {
            case Op::Load:
            case Op::Add:
            case Op::Sub:
            case Op::Mul:
            case Op::Div:
            case Op::Neg:
            case Op::Max:
            case Op::ResetAcc:
              Pure = true;
              break;
            default:
              break;
            }
            if (Pure && Counts.reads(N.I.Dst) == 0) {
              Body.erase(Body.begin() + static_cast<std::ptrdiff_t>(Pos));
              Changed = true;
              continue;
            }
            ++Pos;
          }
        };
    Sweep(Items);
  }

  // Dead-constant sweep: drop Consts/ConstRegs entries whose register no
  // instruction reads (constant registers are only ever read).
  RegCounts Counts = countRegs(SC, Items);
  size_t Keep = 0;
  for (size_t I = 0; I < SC.Consts.size(); ++I) {
    if (Counts.reads(SC.ConstRegs[I]) == 0)
      continue;
    SC.Consts[Keep] = SC.Consts[I];
    SC.ConstRegs[Keep] = SC.ConstRegs[I];
    ++Keep;
  }
  SC.Consts.resize(Keep);
  SC.ConstRegs.resize(Keep);

  // Compact renumbering: registers in order of first appearance.
  std::vector<int32_t> Map(static_cast<size_t>(std::max(SC.NumRegs, 0)), -1);
  int32_t Next = 0;
  auto Renumber = [&](int32_t &Reg) {
    if (Reg < 0)
      return;
    if (Reg >= static_cast<int32_t>(Map.size()))
      Map.resize(static_cast<size_t>(Reg) + 1, -1);
    if (Map[static_cast<size_t>(Reg)] < 0)
      Map[static_cast<size_t>(Reg)] = Next++;
    Reg = Map[static_cast<size_t>(Reg)];
  };
  forEachInstMut(Items, [&](Inst &I) {
    switch (I.K) {
    case Op::Load:
    case Op::ResetAcc:
    case Op::DotSpan:
    case Op::SumSpan:
      Renumber(I.Dst); // A/B (if set) are access ordinals
      break;
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::Div:
    case Op::Max:
    case Op::MulAcc:
      Renumber(I.Dst);
      Renumber(I.A);
      Renumber(I.B);
      break;
    case Op::Neg:
    case Op::AccAdd:
      Renumber(I.Dst);
      Renumber(I.A);
      break;
    case Op::LoopBegin:
    case Op::LoopEnd:
    case Op::MapSpan:
      break; // no register operands
    }
  });
  for (int &Reg : SC.ConstRegs) {
    int32_t R = Reg;
    Renumber(R);
    Reg = R;
  }
  if (SC.Root >= 0) {
    int32_t Root = SC.Root;
    Renumber(Root);
    SC.Root = Root;
  }
  SC.NumRegs = Next;
}

void optimizeStmt(StmtCode &SC) {
  std::vector<Node> Items;
  size_t Pos = 0;
  if (!parseInto(SC.Instrs, Pos, -1, Items))
    return; // malformed nesting: leave the statement untouched

  RegCounts Counts = countRegs(SC, Items);
  fuseSpans(SC, Items, Counts);
  tryMapSpan(SC, Items, Counts);
  dedupConstants(SC, Items);
  eliminateDead(SC, Items);

  SC.Instrs.clear();
  emitFlat(Items, SC.Instrs);
}

} // namespace

Code vm::optimize(const Code &C, const OptimizeOptions & /*Options*/) {
  if (!C.ok())
    return C;
  Code Out = C;
  for (StmtCode &SC : Out.mutableStatements())
    optimizeStmt(SC);
  return Out;
}

//===----------------------------------------------------------------------===//
// Disassembler
//===----------------------------------------------------------------------===//

namespace {

std::string accessRef(const StmtCode &SC, int Ord) {
  if (Ord < 0 || Ord >= static_cast<int>(SC.Accesses.size()))
    return "@?" + std::to_string(Ord);
  const AccessInfo &A = SC.Accesses[static_cast<size_t>(Ord)];
  std::string Out = "@" + std::to_string(Ord) + " " + A.Name + "(";
  for (size_t I = 0; I < A.Indices.size(); ++I) {
    if (I)
      Out += ", ";
    Out += A.Indices[I];
  }
  return Out + ")";
}

const char *mapOpName(int32_t MO) {
  switch (static_cast<MapOp>(MO)) {
  case MapOp::Copy: return "copy";
  case MapOp::Neg:  return "neg";
  case MapOp::Add:  return "add";
  case MapOp::Sub:  return "sub";
  case MapOp::Mul:  return "mul";
  case MapOp::Div:  return "div";
  case MapOp::Max:  return "max";
  }
  return "?";
}

} // namespace

std::string vm::disassemble(const Code &C) {
  std::ostringstream Out;
  if (!C.ok()) {
    Out << "<invalid code: " << C.error() << ">\n";
    return Out.str();
  }
  for (size_t S = 0; S < C.statements().size(); ++S) {
    const StmtCode &SC = C.statements()[S];
    Out << "stmt " << S << ": " << SC.LhsName << "(";
    for (size_t I = 0; I < SC.LhsIndices.size(); ++I) {
      if (I)
        Out << ", ";
      Out << SC.LhsIndices[I];
    }
    Out << ")  slots=" << SC.NumSlots << " regs=" << SC.NumRegs
        << " root=" << (SC.Root >= 0 ? "r" + std::to_string(SC.Root) : "-")
        << "\n";
    for (size_t I = 0; I < SC.Accesses.size(); ++I)
      Out << "  access " << accessRef(SC, static_cast<int>(I)) << "\n";
    for (size_t I = 0; I < SC.Consts.size(); ++I) {
      Out << "  const r" << SC.ConstRegs[I] << " = ";
      if (SC.Consts[I]->isSymbolic())
        Out << "<symbolic>";
      else
        Out << SC.Consts[I]->value();
      Out << "\n";
    }
    int Depth = 0;
    for (size_t I = 0; I < SC.Instrs.size(); ++I) {
      const Inst &In = SC.Instrs[I];
      if (In.K == Op::LoopEnd)
        --Depth;
      Out << "  " << (I < 10 ? " " : "") << I << ": ";
      for (int D = 0; D < Depth; ++D)
        Out << "  ";
      switch (In.K) {
      case Op::Load:
        Out << "Load      r" << In.Dst << " <- " << accessRef(SC, In.A);
        break;
      case Op::Add:
        Out << "Add       r" << In.Dst << " = r" << In.A << " + r" << In.B;
        break;
      case Op::Sub:
        Out << "Sub       r" << In.Dst << " = r" << In.A << " - r" << In.B;
        break;
      case Op::Mul:
        Out << "Mul       r" << In.Dst << " = r" << In.A << " * r" << In.B;
        break;
      case Op::Div:
        Out << "Div       r" << In.Dst << " = r" << In.A << " / r" << In.B;
        break;
      case Op::Neg:
        Out << "Neg       r" << In.Dst << " = -r" << In.A;
        break;
      case Op::Max:
        Out << "Max       r" << In.Dst << " = max(r" << In.A << ", r" << In.B
            << ")";
        break;
      case Op::ResetAcc:
        Out << "ResetAcc  r" << In.Dst << " = 0";
        break;
      case Op::AccAdd:
        Out << "AccAdd    r" << In.Dst << " += r" << In.A;
        break;
      case Op::MulAcc:
        Out << "MulAcc    r" << In.Dst << " += r" << In.A << " * r" << In.B;
        break;
      case Op::LoopBegin:
        Out << "LoopBegin s" << In.Dst;
        ++Depth;
        break;
      case Op::LoopEnd:
        Out << "LoopEnd   s" << In.Dst << " -> " << In.A;
        break;
      case Op::DotSpan:
        Out << "DotSpan   r" << In.Dst << " += " << accessRef(SC, In.A)
            << " * " << accessRef(SC, In.B) << " over s" << In.C;
        break;
      case Op::SumSpan:
        Out << "SumSpan   r" << In.Dst << " += " << accessRef(SC, In.A)
            << " over s" << In.C;
        break;
      case Op::MapSpan:
        Out << "MapSpan   out = " << mapOpName(In.Dst) << "("
            << accessRef(SC, In.A);
        if (In.B >= 0)
          Out << ", " << accessRef(SC, In.B);
        Out << ") over s" << In.C;
        break;
      }
      Out << "\n";
    }
  }
  return Out.str();
}
