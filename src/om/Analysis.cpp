//===- om/Analysis.cpp - Link-time dataflow analysis ----------------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//

#include "om/Analysis.h"

#include "isa/Registers.h"
#include "support/ContentHash.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <numeric>

using namespace om64;
using namespace om64::isa;
using namespace om64::om;
using namespace om64::om::analysis;

//===----------------------------------------------------------------------===//
// Abstract values
//===----------------------------------------------------------------------===//

AbsVal AbsVal::meet(const AbsVal &A, const AbsVal &B) {
  if (A.Kind == ValueKind::Bottom)
    return B;
  if (B.Kind == ValueKind::Bottom)
    return A;
  if (A == B)
    return A;
  // Disagreeing global-derived values still agree on the region, which is
  // all the scheduler's base disambiguation needs.
  if (A.isGlobalDerived() && B.isGlobalDerived())
    return AbsVal::globalPtr();
  return AbsVal::unknown();
}

//===----------------------------------------------------------------------===//
// Memory abstract state
//===----------------------------------------------------------------------===//

const MemVal *MemState::slot(int64_t Off) const {
  auto It = std::lower_bound(
      Slots.begin(), Slots.end(), Off,
      [](const std::pair<int64_t, MemVal> &E, int64_t O) {
        return E.first < O;
      });
  if (It != Slots.end() && It->first == Off)
    return &It->second;
  return nullptr;
}

void MemState::setSlot(int64_t Off, const MemVal &V) {
  auto It = std::lower_bound(
      Slots.begin(), Slots.end(), Off,
      [](const std::pair<int64_t, MemVal> &E, int64_t O) {
        return E.first < O;
      });
  if (It != Slots.end() && It->first == Off) {
    It->second = V;
    return;
  }
  Slots.insert(It, {Off, V});
}

void MemState::invalidateSlots(int64_t Off, int64_t Size) {
  // Tracked slots are 8 bytes wide: [SlotOff, SlotOff + 8) overlaps the
  // store's [Off, Off + Size) iff SlotOff > Off - 8 and SlotOff < Off+Size.
  auto Cmp = [](const std::pair<int64_t, MemVal> &E, int64_t O) {
    return E.first < O;
  };
  auto First = std::lower_bound(Slots.begin(), Slots.end(), Off - 7, Cmp);
  auto Last = std::lower_bound(First, Slots.end(), Off + Size, Cmp);
  Slots.erase(First, Last);
}

namespace {

constexpr unsigned GpUnit = 29; // intUnit(isa::GP)
constexpr unsigned PvUnit = 27; // intUnit(isa::PV)
constexpr unsigned SpUnit = 30; // intUnit(isa::SP)
constexpr unsigned RaUnit = 26; // intUnit(isa::RA)

uint64_t unitBit(unsigned U) { return 1ull << U; }

const char *unitName(unsigned U) {
  return U < 32 ? intRegName(static_cast<uint8_t>(U))
                : fpRegName(static_cast<uint8_t>(U - 32));
}

/// Register units a call conventionally reads: integer and fp arguments,
/// SP and GP (the callee runs on the caller's stack and, without a live
/// prologue, on the caller's GP), and the callee-saved registers (the
/// callee's own prologue *reads* them to save them).
uint64_t conventionalCallUse() {
  uint64_t M = 0;
  for (unsigned R = A0; R <= A5; ++R)
    M |= unitBit(intUnit(static_cast<uint8_t>(R)));
  for (unsigned F = 16; F <= 21; ++F) // f16..f21: fp arguments
    M |= unitBit(fpUnit(static_cast<uint8_t>(F)));
  for (unsigned R = S0; R <= S5; ++R)
    M |= unitBit(intUnit(static_cast<uint8_t>(R)));
  M |= unitBit(intUnit(FP)) | unitBit(intUnit(SP)) | unitBit(intUnit(GP));
  for (unsigned F = 2; F <= 9; ++F) // f2..f9: fp callee-saved
    M |= unitBit(fpUnit(static_cast<uint8_t>(F)));
  return M;
}

/// Register units conventionally live at a return: the return values, the
/// caller's stack and callee-saved state, and GP (the caller may continue
/// on it when its post-call reset was deleted).
uint64_t conventionalRetUse() {
  uint64_t M = unitBit(intUnit(V0)) | unitBit(fpUnit(F0));
  for (unsigned R = S0; R <= S5; ++R)
    M |= unitBit(intUnit(static_cast<uint8_t>(R)));
  M |= unitBit(intUnit(FP)) | unitBit(intUnit(SP)) | unitBit(intUnit(GP));
  for (unsigned F = 2; F <= 9; ++F)
    M |= unitBit(fpUnit(static_cast<uint8_t>(F)));
  return M;
}

/// Register units a call may clobber (everything not callee-saved; PV's
/// treatment depends on the callee's summary and is handled separately).
uint64_t callerSavedUnits() {
  uint64_t M = 0;
  for (unsigned U = 0; U < NumRegUnits; ++U) {
    if (isZeroUnit(U))
      continue;
    if (U < 32) {
      if ((U >= S0 && U <= S5) || U == intUnit(FP) || U == SpUnit ||
          U == GpUnit || U == PvUnit)
        continue;
      M |= unitBit(U);
    } else {
      unsigned F = U - 32;
      if (F >= 2 && F <= 9) // f2..f9 callee-saved
        continue;
      M |= unitBit(U);
    }
  }
  return M;
}

/// Register units the L007 audit examines at returns: the callee-saved
/// set without RA. A call rewrites RA by design, so RA misuse surfaces
/// through its save slot (L008) rather than as a preservation failure.
uint64_t calleeSavedUnits() {
  uint64_t M = 0;
  for (unsigned R = S0; R <= S5; ++R)
    M |= unitBit(intUnit(static_cast<uint8_t>(R)));
  M |= unitBit(intUnit(FP));
  for (unsigned F = 2; F <= 9; ++F)
    M |= unitBit(fpUnit(static_cast<uint8_t>(F)));
  return M;
}

const uint64_t CallUseMask = conventionalCallUse();
const uint64_t RetUseMask = conventionalRetUse();
const uint64_t CallClobberMask = callerSavedUnits();
const uint64_t CalleeSavedMask = calleeSavedUnits();
const uint64_t AllUnitsMask =
    ~(unitBit(intUnit(Zero)) | unitBit(fpUnit(FZero)));

/// One data-memory access, classified for the memory-domain checks. Lda
/// and Ldah are address arithmetic, not accesses.
struct MemAccess {
  bool IsMem = false;
  bool IsStore = false;
  int64_t Size = 0;
};

MemAccess accessOf(const Inst &I) {
  switch (I.Op) {
  case Opcode::Ldl:
    return {true, false, 4};
  case Opcode::Ldq:
  case Opcode::Ldt:
    return {true, false, 8};
  case Opcode::Stl:
    return {true, true, 4};
  case Opcode::Stq:
  case Opcode::Stt:
    return {true, true, 8};
  default:
    return {};
  }
}

/// Register unit a store's value comes from (STT stores an fp register).
unsigned storedUnit(const Inst &I) {
  return I.Op == Opcode::Stt ? fpUnit(I.Ra) : intUnit(I.Ra);
}

bool isCall(const SymInst &SI) {
  return SI.Kind == SKind::DirectCall || SI.Kind == SKind::JsrViaGat ||
         SI.Kind == SKind::JsrIndirect;
}

bool isHalt(const Inst &I) {
  return classOf(I.Op) == InstClass::Pal &&
         (static_cast<uint32_t>(I.Disp) & 0xffu) ==
             static_cast<uint32_t>(PalFunc::Halt);
}

} // namespace

//===----------------------------------------------------------------------===//
// CFG construction
//===----------------------------------------------------------------------===//

bool Dominators::dominates(uint32_t A, uint32_t B) const {
  // The entry block is reachable; every other reachable block has an
  // immediate dominator.
  auto reachable = [&](uint32_t X) { return X == 0 || Idom[X] != ~0u; };
  if (A >= Idom.size() || B >= Idom.size() || !reachable(A) ||
      !reachable(B))
    return false;
  while (true) {
    if (B == A)
      return true;
    uint32_t Up = Idom[B];
    if (Up == ~0u || Up == B)
      return false;
    B = Up;
  }
}

Cfg analysis::buildCfg(const SymProc &Proc) {
  Cfg C;
  const std::vector<SymInst> &Insts = Proc.Insts;
  const uint32_t N = static_cast<uint32_t>(Insts.size());
  if (N == 0)
    return C;

  // Leaders: the entry, every local branch target, and every instruction
  // after a live terminator (calls included — a call ends its block with a
  // fall-through edge, which keeps call transfer functions edge-local).
  // Nullified instructions are plain no-ops. BlockOf holds the leader
  // marks until the blocks are numbered.
  std::vector<uint32_t> &Leader = C.BlockOf;
  Leader.assign(N, 0);
  Leader[0] = 1;
  for (uint32_t I = 0; I < N; ++I) {
    const SymInst &SI = Insts[I];
    if (SI.Nullified)
      continue;
    if (SI.Kind == SKind::LocalBranch && SI.TargetIdx >= 0 &&
        static_cast<uint32_t>(SI.TargetIdx) < N)
      Leader[SI.TargetIdx] = 1;
    if (isTerminator(SI.I.Op) && I + 1 < N)
      Leader[I + 1] = 1;
    if (SI.I.Op == Opcode::Jmp)
      C.HasComputedJump = true;
  }

  C.Blocks.reserve(std::count(Leader.begin(), Leader.end(), 1u));
  for (uint32_t I = 0; I < N; ++I) {
    if (Leader[I]) {
      CfgBlock B;
      B.Begin = I;
      C.Blocks.push_back(B);
    }
    C.BlockOf[I] = static_cast<uint32_t>(C.Blocks.size()) - 1;
  }
  for (size_t B = 0; B < C.Blocks.size(); ++B)
    C.Blocks[B].End = B + 1 < C.Blocks.size() ? C.Blocks[B + 1].Begin : N;

  // Edges. A successor past the last instruction is a fall-off-the-end
  // edge, recorded per block rather than as an edge.
  for (CfgBlock &Blk : C.Blocks) {
    const SymInst &Last = Insts[Blk.End - 1];
    auto addSucc = [&](uint32_t Target) {
      if (Target >= N) {
        Blk.FallsOff = true;
        return;
      }
      Blk.Succs[Blk.NumSuccs++] = C.BlockOf[Target];
    };
    if (Last.Nullified) {
      addSucc(Blk.End);
    } else if (Last.Kind == SKind::LocalBranch) {
      addSucc(static_cast<uint32_t>(Last.TargetIdx));
      if (isCondBranch(Last.I.Op))
        addSucc(Blk.End);
    } else if (isCall(Last)) {
      addSucc(Blk.End);
    } else if (classOf(Last.I.Op) == InstClass::Jump) {
      // Ret or a computed Jmp: no successors the symbolic form can see.
    } else if (isHalt(Last.I)) {
      // Halt: execution stops.
    } else {
      addSucc(Blk.End);
    }
  }
  // Predecessors, counting-sorted by target: visiting sources in
  // increasing order keeps each block's list sorted.
  // Per-thread scratch, since buildCfg runs per procedure on the pool: once
  // grown, a build allocates only the Cfg's own arrays. Fill counts each
  // block's predecessors, then holds its next free slot.
  thread_local struct {
    std::vector<uint32_t> Fill;
    std::vector<std::pair<uint32_t, uint32_t>> Stack;
  } Scr;
  const uint32_t NB = static_cast<uint32_t>(C.Blocks.size());
  std::vector<uint32_t> &Fill = Scr.Fill;
  Fill.assign(NB, 0);
  for (const CfgBlock &Blk : C.Blocks)
    for (uint32_t S = 0; S < Blk.NumSuccs; ++S)
      ++Fill[Blk.Succs[S]];
  uint32_t NumPreds = 0;
  for (uint32_t B = 0; B < NB; ++B) {
    uint32_t Count = Fill[B];
    Fill[B] = C.Blocks[B].PredBegin = NumPreds;
    NumPreds += Count;
  }
  C.Preds.resize(NumPreds);
  for (uint32_t B = 0; B < NB; ++B)
    for (uint32_t S = 0; S < C.Blocks[B].NumSuccs; ++S)
      C.Preds[Fill[C.Blocks[B].Succs[S]]++] = B;

  // Reachability and reverse postorder from the entry block.
  C.Rpo.reserve(NB);
  {
    // Iterative DFS; the second stack slot tracks the next successor.
    std::vector<std::pair<uint32_t, uint32_t>> &Stack = Scr.Stack;
    Stack.clear();
    Stack.emplace_back(0u, 0u);
    C.Blocks[0].Reachable = true;
    while (!Stack.empty()) {
      auto &[B, NextSucc] = Stack.back();
      if (NextSucc < C.Blocks[B].NumSuccs) {
        uint32_t S = C.Blocks[B].Succs[NextSucc++];
        if (!C.Blocks[S].Reachable) {
          C.Blocks[S].Reachable = true;
          Stack.emplace_back(S, 0u);
        }
      } else {
        C.Rpo.push_back(B);
        Stack.pop_back();
      }
    }
  }
  std::reverse(C.Rpo.begin(), C.Rpo.end());
  for (const CfgBlock &Blk : C.Blocks)
    if (Blk.Reachable && Blk.FallsOff)
      C.FallsOffEnd = true;
  return C;
}

Dominators analysis::computeDominators(const Cfg &C) {
  Dominators D;
  std::vector<uint32_t> RpoPos(C.Blocks.size(), ~0u);
  for (uint32_t I = 0; I < C.Rpo.size(); ++I)
    RpoPos[C.Rpo[I]] = I;
  D.Idom.assign(C.Blocks.size(), ~0u);
  auto intersect = [&](uint32_t A, uint32_t B) {
    while (A != B) {
      while (RpoPos[A] > RpoPos[B])
        A = D.Idom[A] == ~0u ? 0 : D.Idom[A];
      while (RpoPos[B] > RpoPos[A])
        B = D.Idom[B] == ~0u ? 0 : D.Idom[B];
    }
    return A;
  };
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t I = 1; I < C.Rpo.size(); ++I) {
      uint32_t B = C.Rpo[I];
      uint32_t NewIdom = ~0u;
      for (uint32_t P : C.preds(B)) {
        if (!C.Blocks[P].Reachable)
          continue;
        if (P != 0 && D.Idom[P] == ~0u)
          continue; // not yet processed this round
        NewIdom = NewIdom == ~0u ? P : intersect(NewIdom, P);
      }
      if (NewIdom != ~0u && D.Idom[B] != NewIdom) {
        D.Idom[B] = NewIdom;
        Changed = true;
      }
    }
  }
  return D;
}

//===----------------------------------------------------------------------===//
// Transfer functions
//===----------------------------------------------------------------------===//

namespace {

/// Everything a transfer function needs besides the state: the program and
/// the current interprocedural summaries (possibly mid-fixpoint).
struct TransferCtx {
  const SymbolicProgram &SP;
  const std::vector<ProcSummary> &Summaries;
  GpVal IndirectExitGp;
  bool IndirectClobbersPv = true;
  bool IndirectReturns = true;
  bool IndirectReadsPv = true;
  /// When set (lint only), AddressLoad provenness resolves MaybeEntry
  /// through this converged entry-GP summary, exactly as gpBefore and the
  /// L002 check do. The fixpoint rounds leave it null: they run before
  /// EntryGp exists, which is what keeps EntryGp out of the cache keys.
  const GpVal *ResolveEntry = nullptr;
};

/// Whether \p Raw, with MaybeEntry resolved through \p EntryGp, is exactly
/// the procedure's own group GP (the L002/gpBefore resolution).
bool gpProvenAt(const SymProc &Proc, const GpVal &Raw, const GpVal &EntryGp) {
  GpVal G = Raw;
  if (G.MaybeEntry) {
    if (EntryGp.isBottom())
      return false; // never entered; nothing is proven
    G.MaybeEntry = false;
    G.Groups |= EntryGp.Groups;
    G.MaybeOther |= EntryGp.MaybeOther;
  }
  return G.provenGroup(Proc.GpGroup);
}

/// Resolves a call site to its callee procedure; ~0u means "indirect or
/// through a data symbol" (use the combined indirect summary).
uint32_t calleeOf(const SymbolicProgram &SP, const SymInst &SI) {
  if (SI.Kind == SKind::DirectCall)
    return SI.TargetProc;
  if (SI.Kind == SKind::JsrViaGat) {
    const LitInfo *L = SP.lit(SI.LitId);
    if (L && L->TargetSym < SP.Syms.size() && SP.Syms[L->TargetSym].IsProc)
      return SP.Syms[L->TargetSym].ProcIdx;
  }
  return ~0u;
}

/// Keeps the scalar GP slot consistent with the may-set domain. Entry and
/// group GPs are global-segment addresses, so any GP that cannot be
/// MaybeOther is at least GlobalPtr.
void syncGpScalar(const SymProc &Proc, ValueState &S) {
  if (S.Gp.provenGroup(Proc.GpGroup))
    S.R[GpUnit] = AbsVal::gpOfGroup(Proc.GpGroup);
  else if (!S.Gp.MaybeOther && (S.Gp.MaybeEntry || S.Gp.Groups != 0))
    S.R[GpUnit] = AbsVal::globalPtr();
  else
    S.R[GpUnit] = AbsVal::unknown();
}

void setUnit(ValueState &S, unsigned U, const AbsVal &V) {
  if (U == ~0u || isZeroUnit(U))
    return;
  S.R[U] = V;
  if (U == GpUnit)
    S.Gp = GpVal::other(); // a write outside a GP-disp pair is unpredictable
}

/// Forward transfer of one instruction over a value state. Nullified
/// instructions are no-ops. Control effects (successors) live in the CFG;
/// this models only register contents and the "call never returns" cut.
void applyInst(const TransferCtx &C, const SymProc &Proc, const SymInst &SI,
               ValueState &S) {
  if (S.Unreachable || SI.Nullified)
    return;
  const Inst &I = SI.I;

  // GP-establishing pairs and GAT loads first: their SKind carries meaning
  // the raw opcode does not.
  switch (SI.Kind) {
  case SKind::GpHigh:
    S.Gp = GpVal::other(); // mid-pair: GP holds a partial value
    S.R[GpUnit] = AbsVal::unknown();
    return;
  case SKind::GpLow:
    S.Gp = GpVal::ofGroup(Proc.GpGroup);
    syncGpScalar(Proc, S);
    return;
  case SKind::AddressLoad: {
    // Loads &TargetSym from the GAT (or computes it GP-relative once
    // converted); the result is meaningful only under the right GP.
    AbsVal V = AbsVal::unknown();
    bool Proven = C.ResolveEntry
                      ? gpProvenAt(Proc, S.Gp, *C.ResolveEntry)
                      : S.Gp.provenGroup(Proc.GpGroup);
    if (Proven && SI.TargetSym < C.SP.Syms.size()) {
      const PSym &Sym = C.SP.Syms[SI.TargetSym];
      V = Sym.IsProc ? AbsVal::entryOf(Sym.ProcIdx)
                     : AbsVal::addrOf(SI.TargetSym);
    }
    setUnit(S, intUnit(I.Ra), V);
    return;
  }
  default:
    break;
  }

  if (isCall(SI)) {
    uint32_t Callee = calleeOf(C.SP, SI);
    GpVal ExitGp = C.IndirectExitGp;
    bool ClobbersPv = C.IndirectClobbersPv;
    bool Returns = C.IndirectReturns;
    if (Callee != ~0u && Callee < C.Summaries.size()) {
      const ProcSummary &Sum = C.Summaries[Callee];
      ExitGp = Sum.ExitGp;
      ClobbersPv = Sum.ClobbersPv;
      Returns = Sum.Returns;
    }
    if (!Returns) {
      S = ValueState(); // everything after this call is unreachable
      return;
    }
    GpVal PreGp = S.Gp;
    for (unsigned U = 0; U < NumRegUnits; ++U)
      if (CallClobberMask & unitBit(U))
        S.R[U] = AbsVal::unknown();
    if (ClobbersPv)
      S.R[PvUnit] = AbsVal::unknown();
    // Compose the callee's exit-GP summary with the caller's value:
    // MaybeEntry in the summary means "some path returns with the GP the
    // callee was entered with", i.e. this site's pre-call GP.
    GpVal After;
    After.Groups = ExitGp.Groups | (ExitGp.MaybeEntry ? PreGp.Groups : 0);
    After.MaybeOther =
        ExitGp.MaybeOther || (ExitGp.MaybeEntry && PreGp.MaybeOther);
    After.MaybeEntry = ExitGp.MaybeEntry && PreGp.MaybeEntry;
    S.Gp = After;
    syncGpScalar(Proc, S);
    return;
  }

  switch (classOf(I.Op)) {
  case InstClass::Pal:
    setUnit(S, regUnitWritten(I), AbsVal::unknown());
    return;
  case InstClass::LoadAddress: {
    // LDA/LDAH: pointer arithmetic. A zero-displacement LDA is a move;
    // otherwise the result stays in the base value's region.
    AbsVal Base = S.R[intUnit(I.Rb)];
    AbsVal V;
    if (I.Op == Opcode::Lda && I.Disp == 0)
      V = Base;
    else if (Base.Kind == ValueKind::Stack)
      V = AbsVal::stack();
    else if (Base.isGlobalDerived())
      V = AbsVal::globalPtr();
    else
      V = AbsVal::unknown();
    setUnit(S, intUnit(I.Ra), V);
    return;
  }
  case InstClass::IntOp: {
    AbsVal A = S.R[intUnit(I.Ra)];
    AbsVal B = I.IsLit ? AbsVal::unknown() : S.R[intUnit(I.Rb)];
    AbsVal V = AbsVal::unknown();
    switch (I.Op) {
    case Opcode::Bis:
      // The canonical move: BIS with one zero operand copies the other.
      if (I.Ra == Zero && !I.IsLit)
        V = B;
      else if (!I.IsLit && I.Rb == Zero)
        V = A;
      else if (I.IsLit && I.Lit == 0)
        V = A;
      break;
    case Opcode::Addq:
    case Opcode::Subq:
    case Opcode::S4addq:
    case Opcode::S8addq:
      // Pointer arithmetic keeps the pointer operand's region: MLang
      // derives a pointer only from its own object, so for defined
      // executions the sum stays in that object's segment (DESIGN.md
      // records the out-of-bounds caveat).
      if (A.Kind == ValueKind::Stack || B.Kind == ValueKind::Stack)
        V = AbsVal::stack();
      else if (A.isGlobalDerived() || B.isGlobalDerived())
        V = AbsVal::globalPtr();
      break;
    default:
      break;
    }
    setUnit(S, intUnit(I.Rc), V);
    return;
  }
  default:
    setUnit(S, regUnitWritten(I), AbsVal::unknown());
    return;
  }
}

void setMemUnit(MemState &M, unsigned U, const MemVal &V) {
  if (U == ~0u || isZeroUnit(U))
    return;
  M.R[U] = V;
}

/// Forward transfer of one instruction over a memory state. \p S is the
/// value state *before* the instruction (callers run applyMem first, then
/// applyInst): it supplies the GP proof for AddressLoad and nothing else.
/// Mirrors applyInst's reachability cut at provably non-returning calls,
/// so MemState::Unreachable stays in lockstep with ValueState's.
void applyMem(const TransferCtx &C, const SymProc &Proc, const SymInst &SI,
              const ValueState &S, MemState &M) {
  if (M.Unreachable || SI.Nullified)
    return;
  const Inst &I = SI.I;

  switch (SI.Kind) {
  case SKind::GpHigh:
  case SKind::GpLow:
    M.R[GpUnit] = MemVal::unknown();
    return;
  case SKind::AddressLoad: {
    // GAT slot provenance: the loaded register is &TargetSym exactly when
    // the value transfer proves it (procedure addresses are not tracked —
    // no data access ever goes through one legitimately).
    MemVal V = MemVal::unknown();
    bool Proven = C.ResolveEntry
                      ? gpProvenAt(Proc, S.Gp, *C.ResolveEntry)
                      : S.Gp.provenGroup(Proc.GpGroup);
    if (Proven && SI.TargetSym < C.SP.Syms.size() &&
        !C.SP.Syms[SI.TargetSym].IsProc)
      V = MemVal::gatAddr(SI.TargetSym, 0);
    setMemUnit(M, intUnit(I.Ra), V);
    return;
  }
  default:
    break;
  }

  if (isCall(SI)) {
    // Callee-saved facts survive a call only when the callee provably
    // preserves the unit; invisible callees (indirect sites the program
    // analysis cannot enumerate) are assumed convention-abiding, so L007
    // only ever fires on a positive proof. SP is restored by every
    // convention-abiding callee; the frame slots survive because no
    // callee can name this frame (MLang has no address-of-local — the
    // same caveat memBaseRegions and the rescheduler rely on).
    uint32_t Callee = calleeOf(C.SP, SI);
    uint64_t Preserved = ~0ull;
    bool Returns = C.IndirectReturns;
    if (Callee != ~0u && Callee < C.Summaries.size()) {
      Preserved = C.Summaries[Callee].PreservedSaved;
      Returns = C.Summaries[Callee].Returns;
    }
    if (!Returns) {
      // Everything after this call is unreachable. Reset in place: the
      // walking state's slot buffer is scratch, reused across blocks.
      M.R.fill(MemVal::unknown());
      M.Slots.clear();
      M.Unreachable = true;
      return;
    }
    for (unsigned U = 0; U < NumRegUnits; ++U) {
      if (isZeroUnit(U) || U == SpUnit)
        continue;
      if ((CalleeSavedMask & unitBit(U)) && (Preserved & unitBit(U)))
        continue;
      M.R[U] = MemVal::unknown();
    }
    return;
  }

  MemAccess A = accessOf(I);
  if (A.IsMem) {
    const MemVal Base = M.R[intUnit(I.Rb)];
    if (A.IsStore) {
      if (Base.Kind == MemVal::K::SpRel) {
        int64_t Addr = Base.Off + I.Disp;
        M.invalidateSlots(Addr, A.Size);
        if (A.Size == 8)
          M.setSlot(Addr, M.R[storedUnit(I)]);
      }
      // Stores through global-derived or unknown bases cannot touch this
      // frame's slots: globals live in a disjoint segment, and no pointer
      // into the stack escapes (no address-of-local; DESIGN.md records
      // the caveat).
      return;
    }
    MemVal V = MemVal::unknown();
    if (Base.Kind == MemVal::K::SpRel && A.Size == 8)
      if (const MemVal *Slot = M.slot(Base.Off + I.Disp))
        V = *Slot;
    setMemUnit(M, regUnitWritten(I), V);
    return;
  }

  switch (classOf(I.Op)) {
  case InstClass::LoadAddress: {
    const MemVal Base = M.R[intUnit(I.Rb)];
    MemVal V = MemVal::unknown();
    if (I.Op == Opcode::Lda) {
      if (Base.Kind == MemVal::K::SpRel)
        V = MemVal::spRel(Base.Off + I.Disp);
      else if (Base.Kind == MemVal::K::GatAddr)
        V = MemVal::gatAddr(Base.Id, Base.Off + I.Disp);
      else if (I.Disp == 0)
        V = Base; // a zero-displacement LDA is a move
    }
    setMemUnit(M, intUnit(I.Ra), V);
    return;
  }
  case InstClass::IntOp: {
    MemVal V = MemVal::unknown();
    if (I.Op == Opcode::Bis) {
      if (I.Ra == Zero && !I.IsLit)
        V = M.R[intUnit(I.Rb)];
      else if (!I.IsLit && I.Rb == Zero)
        V = M.R[intUnit(I.Ra)];
      else if (I.IsLit && I.Lit == 0)
        V = M.R[intUnit(I.Ra)];
    }
    setMemUnit(M, intUnit(I.Rc), V);
    return;
  }
  case InstClass::FpOp: {
    MemVal V = MemVal::unknown();
    if (I.Op == Opcode::Cpys && I.Ra == I.Rb)
      V = M.R[fpUnit(I.Ra)]; // the exact fp move
    setMemUnit(M, regUnitWritten(I), V);
    return;
  }
  default:
    setMemUnit(M, regUnitWritten(I), MemVal::unknown());
    return;
  }
}

/// The memory state every procedure is entered with: SP is the frame
/// anchor, and every callee-saved unit (plus RA, whose save slot L008
/// watches) still holds its own entry value.
MemState entryMemState() {
  MemState M;
  M.Unreachable = false;
  M.R[SpUnit] = MemVal::spRel(0);
  for (unsigned R = S0; R <= S5; ++R)
    M.R[intUnit(static_cast<uint8_t>(R))] =
        MemVal::savedOf(intUnit(static_cast<uint8_t>(R)));
  M.R[intUnit(FP)] = MemVal::savedOf(intUnit(FP));
  M.R[RaUnit] = MemVal::savedOf(RaUnit);
  for (unsigned F = 2; F <= 9; ++F)
    M.R[fpUnit(static_cast<uint8_t>(F))] =
        MemVal::savedOf(fpUnit(static_cast<uint8_t>(F)));
  return M;
}

/// Meets \p From into \p Into in place; true when \p Into changed.
bool meetInto(ValueState &Into, const ValueState &From) {
  if (From.Unreachable)
    return false;
  if (Into.Unreachable) {
    Into = From;
    return true;
  }
  bool Changed = false;
  for (unsigned U = 0; U < NumRegUnits; ++U) {
    AbsVal V = AbsVal::meet(Into.R[U], From.R[U]);
    if (!(V == Into.R[U])) {
      Into.R[U] = V;
      Changed = true;
    }
  }
  GpVal G = Into.Gp;
  G |= From.Gp;
  if (!(G == Into.Gp)) {
    Into.Gp = G;
    Changed = true;
  }
  return Changed;
}

/// The abstract state every procedure is entered with. Temporaries are
/// provably uninitialized (the basis of L001); argument, callee-saved, and
/// linkage registers hold caller values, defined by convention (the loader
/// provides SP, RA, GP, and PV for the entry procedure). GP starts as the
/// MaybeEntry marker, resolved against the procedure's entry summary at
/// query time, so the per-procedure analysis is independent of EntryGp.
ValueState entryState(uint32_t ProcIdx) {
  ValueState S;
  S.Unreachable = false;
  for (unsigned U = 0; U < NumRegUnits; ++U)
    S.R[U] = AbsVal::uninit();
  auto def = [&](unsigned U) { S.R[U] = AbsVal::unknown(); };
  def(intUnit(Zero));
  def(fpUnit(FZero));
  for (unsigned R = A0; R <= A5; ++R)
    def(intUnit(static_cast<uint8_t>(R)));
  for (unsigned F = 16; F <= 21; ++F)
    def(fpUnit(static_cast<uint8_t>(F)));
  for (unsigned R = S0; R <= S5; ++R)
    def(intUnit(static_cast<uint8_t>(R)));
  for (unsigned F = 2; F <= 9; ++F)
    def(fpUnit(static_cast<uint8_t>(F)));
  def(intUnit(FP));
  def(RaUnit);
  def(fpUnit(F0)); // scratch, but conventionally holds the caller's value
  S.R[SpUnit] = AbsVal::stack();
  S.R[PvUnit] = AbsVal::entryOf(ProcIdx);
  S.Gp = GpVal::entry();
  S.R[GpUnit] = AbsVal::globalPtr();
  return S;
}

using ProcRound = om::analysis::detail::ProcRound;

/// A block's memory entry state with its frame slots stored out of line,
/// as [SlotBegin, SlotBegin + NumSlots) of RoundScratch::Slots. A block's
/// slot set is written once, when the block is first reached; after that
/// meets only intersect it, so it shrinks in place and never moves.
struct MemIn {
  std::array<MemVal, 64> R;
  uint32_t SlotBegin = 0;
  uint32_t NumSlots = 0;
  bool Unreachable = true;
};

/// One worker's reused buffers for the intra-procedural fixpoint: the
/// memory entry state of every block with all their frame slots in one
/// flat vector, the walking states, and the lint's value table. They grow
/// to the largest procedure seen and are never shrunk, so a round over a
/// procedure no larger than an earlier one allocates nothing.
struct RoundScratch {
  std::vector<ValueState> VIn; // the lint's; rounds solve into ProcValues
  std::vector<MemIn> MIn;
  std::vector<std::pair<int64_t, MemVal>> Slots;
  ValueState S;
  MemState M;

  /// Copies block \p B's memory entry state into \p Out.
  void loadMem(uint32_t B, MemState &Out) const {
    const MemIn &In = MIn[B];
    Out.R = In.R;
    Out.Slots.assign(Slots.begin() + In.SlotBegin,
                     Slots.begin() + In.SlotBegin + In.NumSlots);
    Out.Unreachable = In.Unreachable;
  }

  /// Meets \p From into block \p B's memory entry state in place,
  /// keeping only the frame slots both agree on; true when it changed.
  bool meetMem(uint32_t B, const MemState &From) {
    if (From.Unreachable)
      return false;
    MemIn &Into = MIn[B];
    if (Into.Unreachable) {
      Into.R = From.R;
      Into.SlotBegin = static_cast<uint32_t>(Slots.size());
      Into.NumSlots = static_cast<uint32_t>(From.Slots.size());
      Slots.insert(Slots.end(), From.Slots.begin(), From.Slots.end());
      Into.Unreachable = false;
      return true;
    }
    bool Changed = false;
    for (unsigned U = 0; U < NumRegUnits; ++U) {
      MemVal V = MemVal::meet(Into.R[U], From.R[U]);
      if (!(V == Into.R[U])) {
        Into.R[U] = V;
        Changed = true;
      }
    }
    // Sorted intersection, compacted within the block's own range.
    std::pair<int64_t, MemVal> *Own = Slots.data() + Into.SlotBegin;
    uint32_t Kept = 0;
    size_t A = 0, F = 0;
    while (A < Into.NumSlots && F < From.Slots.size()) {
      if (Own[A].first < From.Slots[F].first) {
        ++A;
      } else if (From.Slots[F].first < Own[A].first) {
        ++F;
      } else {
        if (Own[A].second == From.Slots[F].second)
          Own[Kept++] = Own[A];
        ++A;
        ++F;
      }
    }
    if (Kept != Into.NumSlots) {
      Into.NumSlots = Kept;
      Changed = true;
    }
    return Changed;
  }
};

/// The calling thread's scratch. Pool workers live as long as their pool,
/// so a link's workers release theirs when the link's pool goes.
RoundScratch &workerScratch() {
  thread_local RoundScratch Scratch;
  return Scratch;
}

/// Runs one procedure's intra-procedural fixpoint: block-entry value
/// states into \p VIn and, with \p WithMem, memory entry states into
/// \p Scr.MIn / Scr.Slots. The memory states ride the value fixpoint
/// (their transfers read the value state only for the AddressLoad GP
/// proof); the value transfer never reads them, so \p VIn is the same
/// either way.
void solveProc(const TransferCtx &C, uint32_t ProcIdx, const Cfg &G,
               bool WithMem, std::vector<ValueState> &VIn,
               RoundScratch &Scr) {
  const SymProc &Proc = C.SP.Procs[ProcIdx];
  const size_t NB = G.Blocks.size();
  VIn.assign(NB, ValueState());
  if (NB == 0)
    return;
  VIn[0] = entryState(ProcIdx);
  if (WithMem) {
    Scr.MIn.assign(NB, MemIn());
    Scr.Slots.clear();
    Scr.MIn[0].R = entryMemState().R;
    Scr.MIn[0].Unreachable = false;
  }
  ValueState &S = Scr.S;
  MemState &M = Scr.M;

  // Iterate over RPO to a fixpoint: meets only descend the lattice, so
  // in-states are meet-accumulated and never reset. (The entry block keeps
  // its entry state met with any back edges into instruction 0.)
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t B : G.Rpo) {
      if (VIn[B].Unreachable)
        continue;
      S = VIn[B];
      if (WithMem)
        Scr.loadMem(B, M);
      const CfgBlock &Blk = G.Blocks[B];
      for (uint32_t I = Blk.Begin; I < Blk.End; ++I) {
        if (WithMem)
          applyMem(C, Proc, Proc.Insts[I], S, M);
        applyInst(C, Proc, Proc.Insts[I], S);
      }
      for (uint32_t SuccI = 0; SuccI < Blk.NumSuccs; ++SuccI) {
        uint32_t Succ = Blk.Succs[SuccI];
        Changed |= meetInto(VIn[Succ], S);
        if (WithMem)
          Changed |= Scr.meetMem(Succ, M);
      }
    }
  }
}

/// Runs the intra-procedural value fixpoint for one procedure under the
/// given (mid-fixpoint) summaries and extracts the round products into
/// \p R, reusing its buffers. With \p WithMem, the memory states ride
/// along for the PreservedSaved extraction and are then discarded (the
/// lint recomputes them per procedure with entry-GP resolution); without
/// it, PreservedSaved stays ~0.
void analyzeProcRound(const TransferCtx &C, const Cfg &Cfg_, uint32_t ProcIdx,
                      bool WithMem, RoundScratch &Scr, ProcRound &R) {
  const SymProc &Proc = C.SP.Procs[ProcIdx];
  R.Summary = ProcSummary();
  R.CalleeEntries.clear();
  R.IndirectEntries.clear();
  R.HasDataCall = false;
  solveProc(C, ProcIdx, Cfg_, WithMem, R.Values.In, Scr);
  if (Cfg_.Blocks.empty())
    return;

  // Summary extraction: walk each reachable block once more, recording
  // call-site GP values, exit GP at returns, the PV-clobber bit, and the
  // callee-saved units still provably holding their entry values at every
  // reachable RET. Computed-jump exits leave PreservedSaved alone: the
  // invisible continuation is assumed convention-abiding, so a cleared
  // bit is always a positive clobber proof.
  R.Summary.ReadsPvAtEntry = false;
  for (const SymInst &SI : Proc.Insts)
    if (SI.Kind == SKind::GpHigh && !SI.Nullified &&
        SI.GpKind == obj::GpDispKind::Prologue)
      R.Summary.ReadsPvAtEntry = true;
  R.Summary.ClobbersPv = false;
  R.Summary.Returns = false;
  R.Summary.PreservedSaved = ~0ull;
  ValueState &S = Scr.S;
  MemState &M = Scr.M;
  for (uint32_t B = 0; B < Cfg_.Blocks.size(); ++B) {
    if (R.Values.In[B].Unreachable)
      continue;
    S = R.Values.In[B];
    if (WithMem)
      Scr.loadMem(B, M);
    const CfgBlock &Blk = Cfg_.Blocks[B];
    for (uint32_t I = Blk.Begin; I < Blk.End; ++I) {
      const SymInst &SI = Proc.Insts[I];
      if (!SI.Nullified && !S.Unreachable) {
        if (isCall(SI)) {
          uint32_t Callee = calleeOf(C.SP, SI);
          if (Callee != ~0u) {
            R.CalleeEntries.emplace_back(Callee, S.Gp);
            if (C.Summaries[Callee].ClobbersPv)
              R.Summary.ClobbersPv = true;
          } else {
            R.IndirectEntries.push_back(S.Gp);
            if (SI.Kind == SKind::JsrViaGat)
              R.HasDataCall = true;
            if (C.IndirectClobbersPv)
              R.Summary.ClobbersPv = true;
          }
        } else if (regUnitWritten(SI.I) == PvUnit) {
          R.Summary.ClobbersPv = true;
        }
        if (SI.I.Op == Opcode::Jmp) {
          // A computed jump may land anywhere: treat it as an indirect
          // tail-transfer with this GP that may also return to our caller.
          R.IndirectEntries.push_back(S.Gp);
          R.Summary.ClobbersPv = true;
        }
      }
      if (WithMem)
        applyMem(C, Proc, SI, S, M);
      applyInst(C, Proc, SI, S);
    }
    if (S.Unreachable)
      continue;
    const SymInst &Last = Proc.Insts[Blk.End - 1];
    if (!Last.Nullified && Last.I.Op == Opcode::Ret) {
      R.Summary.Returns = true;
      R.Summary.ExitGp |= S.Gp;
      if (WithMem)
        for (unsigned U = 0; U < NumRegUnits; ++U)
          if ((CalleeSavedMask & unitBit(U)) &&
              !(M.R[U] == MemVal::savedOf(U)))
            R.Summary.PreservedSaved &= ~unitBit(U);
    }
    if (!Last.Nullified && Last.I.Op == Opcode::Jmp) {
      R.Summary.Returns = true;
      R.Summary.ExitGp |= GpVal::other();
    }
  }
}

//===----------------------------------------------------------------------===//
// Liveness
//===----------------------------------------------------------------------===//

/// Backward transfer of one instruction over a live-unit mask.
uint64_t liveStep(const TransferCtx &C, const SymInst &SI, uint64_t Live) {
  if (SI.Nullified)
    return Live;
  const Inst &I = SI.I;
  if (isCall(SI)) {
    // The call writes its link register; the callee conventionally reads
    // arguments, anchors, and callee-saved registers (to save them). PV is
    // read when the callee's entry executes a live prologue (direct calls
    // with SkipPrologue enter past it); the JSR's own target-register read
    // is added with regUnitsRead below.
    unsigned W = regUnitWritten(I);
    if (W != ~0u)
      Live &= ~unitBit(W);
    Live |= CallUseMask;
    uint32_t Callee = calleeOf(C.SP, SI);
    bool ReadsPv;
    if (Callee != ~0u)
      ReadsPv = C.Summaries[Callee].ReadsPvAtEntry &&
                !(SI.Kind == SKind::DirectCall && SI.SkipPrologue);
    else
      ReadsPv = C.IndirectReadsPv;
    if (ReadsPv)
      Live |= unitBit(PvUnit);
  } else {
    unsigned W = regUnitWritten(I);
    if (W != ~0u)
      Live &= ~unitBit(W);
  }
  unsigned Units[3];
  unsigned N = regUnitsRead(I, Units);
  for (unsigned K = 0; K < N; ++K)
    if (!isZeroUnit(Units[K]))
      Live |= unitBit(Units[K]);
  return Live;
}

/// Live-out mask of a block with no recorded successors.
uint64_t exitLiveOut(const Cfg &Cfg_, const SymProc &Proc, uint32_t B) {
  const CfgBlock &Blk = Cfg_.Blocks[B];
  const SymInst &Last = Proc.Insts[Blk.End - 1];
  if (!Last.Nullified && Last.I.Op == Opcode::Ret)
    return RetUseMask;
  if (!Last.Nullified && Last.I.Op == Opcode::Jmp)
    return AllUnitsMask; // computed target: anything may be read
  if (!Last.Nullified && classOf(Last.I.Op) == InstClass::Pal)
    return 0; // halt (the only successor-less PAL)
  // Falls off the end of the procedure into whatever the layout places
  // next: everything is potentially read.
  return AllUnitsMask;
}

ProcLiveness analyzeLiveness(const TransferCtx &C, const Cfg &Cfg_,
                             uint32_t ProcIdx) {
  const SymProc &Proc = C.SP.Procs[ProcIdx];
  ProcLiveness L;
  L.In.assign(Cfg_.Blocks.size(), 0);
  L.Out.assign(Cfg_.Blocks.size(), 0);
  if (Cfg_.Blocks.empty())
    return L;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (auto It = Cfg_.Rpo.rbegin(); It != Cfg_.Rpo.rend(); ++It) {
      uint32_t B = *It;
      const CfgBlock &Blk = Cfg_.Blocks[B];
      uint64_t Out = 0;
      if (Blk.NumSuccs == 0 && !Blk.FallsOff)
        Out = exitLiveOut(Cfg_, Proc, B);
      for (uint32_t S = 0; S < Blk.NumSuccs; ++S)
        Out |= L.In[Blk.Succs[S]];
      if (Blk.FallsOff)
        Out |= AllUnitsMask; // the fall-off edge reads everything
      uint64_t LiveIn = Out;
      for (uint32_t I = Blk.End; I > Blk.Begin; --I)
        LiveIn = liveStep(C, Proc.Insts[I - 1], LiveIn);
      if (Out != L.Out[B] || LiveIn != L.In[B]) {
        L.Out[B] = Out;
        L.In[B] = LiveIn;
        Changed = true;
      }
    }
  }
  return L;
}

//===----------------------------------------------------------------------===//
// Summary-cache keys
//===----------------------------------------------------------------------===//

void addGpVal(Hasher &H, const GpVal &G) {
  H.addBool(G.MaybeEntry);
  H.addBool(G.MaybeOther);
  H.addU64(G.Groups);
}

/// Mixes the summary fields the per-procedure transfers read. EntryGp is
/// deliberately excluded: neither analyzeProcRound nor analyzeLiveness
/// consumes a callee's EntryGp, and excluding it keeps warm-link keys
/// stable across links.
void addSummary(Hasher &H, const ProcSummary &S) {
  addGpVal(H, S.ExitGp);
  H.addBool(S.Returns);
  H.addBool(S.ClobbersPv);
  H.addBool(S.ReadsPvAtEntry);
  H.addU64(S.PreservedSaved);
}

/// Content key of one procedure for the summary cache: every per-procedure
/// fact analyzeProcRound and analyzeLiveness read. That is the procedure's
/// instructions (all fields — Nullified/SkipPrologue/Converted change the
/// transfers), its index (entryState pins PV to EntryOf(ProcIdx)), its
/// group/flags, and, per literal- or symbol-bearing site, the referent
/// facts calleeOf and the AddressLoad transfer consult (the literal's
/// target symbol and that symbol's IsProc/ProcIdx). Callee summaries are
/// NOT part of this key — they go into the per-round inputs hash, so a
/// procedure whose own bytes are unchanged re-keys cheaply every round.
uint64_t hashProcContent(const SymbolicProgram &SP, uint32_t ProcIdx) {
  const SymProc &P = SP.Procs[ProcIdx];
  Hasher H;
  H.addU32(ProcIdx);
  H.addU32(P.GpGroup);
  H.addBool(P.IsEntry);
  H.addBool(P.AddressTaken);
  H.addU64(P.Insts.size());
  auto addSymFacts = [&](uint32_t SymId) {
    H.addU32(SymId);
    if (SymId < SP.Syms.size()) {
      const PSym &S = SP.Syms[SymId];
      H.addBool(S.IsProc);
      H.addU32(S.ProcIdx);
    } else {
      H.addU64(0x6b6173686d697373ull); // out-of-bounds marker
    }
  };
  for (const SymInst &SI : P.Insts) {
    const Inst &I = SI.I;
    H.addU64(static_cast<uint64_t>(I.Op));
    H.addU64(static_cast<uint64_t>(I.Ra) | (uint64_t(I.Rb) << 8) |
             (uint64_t(I.Rc) << 16) | (uint64_t(I.IsLit) << 24) |
             (uint64_t(I.Lit) << 32));
    H.addI32(I.Disp);
    H.addU64(static_cast<uint64_t>(SI.Kind) |
             (uint64_t(static_cast<uint8_t>(SI.GpKind)) << 8) |
             (uint64_t(SI.SkipPrologue) << 16) |
             (uint64_t(SI.Nullified) << 17) |
             (uint64_t(SI.AnalysisNullified) << 18) |
             (uint64_t(SI.Converted) << 19) | (uint64_t(SI.Cold) << 20));
    H.addU32(SI.LitId);
    H.addU32(SI.PairId);
    H.addU32(SI.TargetProc);
    H.addI32(SI.TargetIdx);
    H.addI32(SI.OrigDisp);
    if (SI.LitId != ~0u) {
      if (const LitInfo *L = SP.lit(SI.LitId))
        addSymFacts(L->TargetSym);
      else
        H.addU64(0x6e6f6c6974ull); // dangling-literal marker
    }
    if (SI.TargetSym != ~0u)
      addSymFacts(SI.TargetSym);
  }
  return H.digest();
}

/// Writes procedure \p ProcIdx's sorted, deduplicated direct-callee
/// indices — the summaries a round of it may read — to \p Out, which has
/// room for one per call site, and returns how many it wrote.
/// Conservatively includes nullified call sites.
uint32_t directCallees(const SymbolicProgram &SP, uint32_t ProcIdx,
                       uint32_t *Out) {
  uint32_t *End = Out;
  for (const SymInst &SI : SP.Procs[ProcIdx].Insts) {
    if (!isCall(SI))
      continue;
    uint32_t Callee = calleeOf(SP, SI);
    if (Callee != ~0u && Callee < SP.Procs.size())
      *End++ = Callee;
  }
  std::sort(Out, End);
  return static_cast<uint32_t>(std::unique(Out, End) - Out);
}

size_t roundEntryBytes(const ProcRound &R, bool WithValues) {
  size_t B = 128 +
             R.CalleeEntries.size() * sizeof(std::pair<uint32_t, GpVal>) +
             R.IndirectEntries.size() * sizeof(GpVal);
  if (WithValues)
    B += R.Values.In.size() * sizeof(ValueState);
  return B;
}

} // namespace

//===----------------------------------------------------------------------===//
// Whole-program analysis
//===----------------------------------------------------------------------===//

void SummaryCache::trim(size_t MaxBytes) {
  if (Bytes <= MaxBytes)
    return;
  enum Kind : uint8_t { RoundKind, LiveKind, CfgKind };
  struct Victim {
    uint64_t LastUse;
    Kind K;
    Key At;
    size_t EntryBytes;
  };
  std::vector<Victim> Order;
  Order.reserve(Rounds.size() + Liveness.size() + Cfgs.size());
  for (const auto &[K, E] : Rounds)
    Order.push_back({E->LastUse, RoundKind, K, E->Bytes});
  for (const auto &[K, E] : Liveness)
    Order.push_back({E->LastUse, LiveKind, K, E->Bytes});
  for (const auto &[P, E] : Cfgs)
    Order.push_back({E->LastUse, CfgKind, {P, 0}, E->Bytes});
  std::sort(Order.begin(), Order.end(),
            [](const Victim &A, const Victim &B) {
              if (A.LastUse != B.LastUse)
                return A.LastUse < B.LastUse;
              if (A.K != B.K)
                return A.K < B.K;
              if (A.At.Proc != B.At.Proc)
                return A.At.Proc < B.At.Proc;
              return A.At.Inputs < B.At.Inputs;
            });
  for (const Victim &V : Order) {
    if (Bytes <= MaxBytes)
      break;
    if (V.K == RoundKind)
      Rounds.erase(V.At);
    else if (V.K == LiveKind)
      Liveness.erase(V.At);
    else
      Cfgs.erase(V.At.Proc);
    Bytes -= V.EntryBytes;
  }
}

ProgramAnalysis analysis::analyzeProgram(const SymbolicProgram &SP,
                                         ThreadPool &Pool,
                                         AnalysisRequest Req) {
  SummaryCache Local;
  return analyzeProgram(SP, Pool, Local, Req);
}

void analysis::detail::evaluateRound(const SymbolicProgram &SP,
                                     const ProgramAnalysis &PA,
                                     uint32_t ProcIdx, AnalysisRequest Req,
                                     ProcRound &Out) {
  TransferCtx C{SP,
                PA.Summaries,
                PA.IndirectExitGp,
                PA.IndirectClobbersPv,
                PA.IndirectReturns,
                PA.IndirectReadsPv};
  analyzeProcRound(C, *PA.Cfgs[ProcIdx], ProcIdx,
                   Req == AnalysisRequest::Full, workerScratch(), Out);
}

ProgramAnalysis analysis::analyzeProgram(const SymbolicProgram &SP,
                                         ThreadPool &Pool,
                                         SummaryCache &Cache,
                                         AnalysisRequest Req) {
  ProgramAnalysis PA;
  PA.Request = Req;
  const bool WithMem = Req == AnalysisRequest::Full;
  const size_t N = SP.Procs.size();
  ++Cache.Gen;
  ++Cache.Totals.Runs;
  if (!WithMem)
    ++Cache.Totals.ValueRuns;

  // ProcHash and each procedure's NumCallees[I] direct callees, from
  // Callees[CalleeBegin[I]] in one flat array, are computed once per call;
  // InputsHash is re-keyed every round against the evolving summaries.
  std::vector<uint64_t> ProcHash(N), InputsHash(N);
  std::vector<uint32_t> CalleeBegin(N + 1, 0), NumCallees(N);
  Pool.parallelFor(N, [&](size_t I) {
    ProcHash[I] = hashProcContent(SP, static_cast<uint32_t>(I));
    for (const SymInst &SI : SP.Procs[I].Insts)
      CalleeBegin[I + 1] += isCall(SI);
  });
  std::partial_sum(CalleeBegin.begin(), CalleeBegin.end(), CalleeBegin.begin());
  std::vector<uint32_t> Callees(CalleeBegin[N]);
  Pool.parallelFor(N, [&](size_t I) {
    NumCallees[I] = directCallees(SP, static_cast<uint32_t>(I),
                                  Callees.data() + CalleeBegin[I]);
  });

  // CFGs: one per procedure content key, kept in the cache. Two procedures
  // never share a key (the key covers the procedure index).
  PA.Cfgs.resize(N);
  {
    std::vector<std::shared_ptr<SummaryCache::CfgEntry>> Built(N);
    for (size_t I = 0; I < N; ++I) {
      auto It = Cache.Cfgs.find(ProcHash[I]);
      if (It != Cache.Cfgs.end()) {
        It->second->LastUse = Cache.Gen;
        PA.Cfgs[I] = std::shared_ptr<const Cfg>(It->second, &It->second->C);
      }
    }
    Pool.parallelFor(N, [&](size_t I) {
      if (PA.Cfgs[I])
        return;
      auto E = std::make_shared<SummaryCache::CfgEntry>();
      E->C = buildCfg(SP.Procs[I]);
      Built[I] = std::move(E);
    });
    for (size_t I = 0; I < N; ++I) {
      if (!Built[I])
        continue;
      const Cfg &C = Built[I]->C;
      Built[I]->LastUse = Cache.Gen;
      Built[I]->Bytes = 64 + C.Blocks.size() * (sizeof(CfgBlock) + 6) +
                        C.BlockOf.size() * 4 + C.Preds.size() * 4;
      Cache.Bytes += Built[I]->Bytes;
      PA.Cfgs[I] = std::shared_ptr<const Cfg>(Built[I], &Built[I]->C);
      Cache.Cfgs.emplace(ProcHash[I], std::move(Built[I]));
    }
  }

  bool AnyComputedJump = false;
  for (const std::shared_ptr<const Cfg> &C : PA.Cfgs)
    AnyComputedJump |= C->HasComputedJump;
  std::vector<uint32_t> AddressTaken;
  for (uint32_t I = 0; I < N; ++I)
    if (SP.Procs[I].AddressTaken)
      AddressTaken.push_back(I);

  // Interprocedural fixpoint over {ExitGp, Returns, ClobbersPv} (and, for
  // Full requests, PreservedSaved): start from the optimistic bottom (the
  // least fixpoint — sound because any concrete returning execution has a
  // finite call tree whose innermost return surfaces in round one and
  // propagates outward). Each round re-keys every procedure against the
  // previous round's summaries and evaluates, in parallel, only the rounds
  // the cache does not hold; the round count is bounded by the summary
  // lattice height. All reductions are in procedure-index order. The
  // value-side fields never read PreservedSaved, so they evolve round by
  // round exactly alike under either request.
  PA.Summaries.assign(N, ProcSummary{});
  for (ProcSummary &S : PA.Summaries) {
    S.Returns = false;
    S.ClobbersPv = false;
  }
  // Shared holds each procedure's current round as published in the cache
  // (stripped of values when computed here); Work holds the last round
  // this call evaluated per procedure, with values, reusing its buffers
  // from round to round, and WorkKey that round's inputs key.
  std::vector<std::shared_ptr<SummaryCache::RoundEntry>> Shared(N);
  std::vector<ProcRound> Work(N);
  std::vector<uint64_t> WorkKey(N);
  std::vector<uint8_t> FreshRound(N, 0), HasWork(N, 0);
  auto makeCtx = [&]() {
    TransferCtx C{SP, PA.Summaries, GpVal::other(), true, true, true};
    if (!AnyComputedJump && !AddressTaken.empty()) {
      GpVal Exit = GpVal::bottom();
      bool Clobbers = false, Returns = false, ReadsPv = false;
      for (uint32_t P : AddressTaken) {
        Exit |= PA.Summaries[P].ExitGp;
        Clobbers |= PA.Summaries[P].ClobbersPv;
        Returns |= PA.Summaries[P].Returns;
        ReadsPv |= PA.Summaries[P].ReadsPvAtEntry;
      }
      C.IndirectExitGp = Exit;
      C.IndirectClobbersPv = Clobbers;
      C.IndirectReturns = Returns;
      C.IndirectReadsPv = ReadsPv;
    }
    return C;
  };
  // Keys every procedure under \p C: its content hash plus everything its
  // transfers read from outside it — the request, the combined indirect
  // summary and each direct callee's current summary, in sorted-callee
  // order. The request keeps Full and ValuesOnly rounds apart: their
  // PreservedSaved differs.
  auto inputKeys = [&](const TransferCtx &C, std::vector<uint64_t> &Keys) {
    Hasher CtxH;
    CtxH.addBool(WithMem);
    addGpVal(CtxH, C.IndirectExitGp);
    CtxH.addBool(C.IndirectClobbersPv);
    CtxH.addBool(C.IndirectReturns);
    CtxH.addBool(C.IndirectReadsPv);
    const uint64_t CtxHash = CtxH.digest();
    Pool.parallelFor(N, [&](size_t I) {
      Hasher H;
      H.addU64(ProcHash[I]);
      H.addU64(CtxHash);
      for (uint32_t K = 0; K < NumCallees[I]; ++K)
        addSummary(H, PA.Summaries[Callees[CalleeBegin[I] + K]]);
      Keys[I] = H.digest();
    });
  };
  auto evaluate = [&](const TransferCtx &C, size_t I) {
    // One entry per reachable call site at most: grown once per call.
    Work[I].CalleeEntries.reserve(CalleeBegin[I + 1] - CalleeBegin[I]);
    analyzeProcRound(C, *PA.Cfgs[I], static_cast<uint32_t>(I), WithMem,
                     workerScratch(), Work[I]);
    WorkKey[I] = InputsHash[I];
    HasWork[I] = 1;
  };
  bool SummariesChanged = true;
  while (SummariesChanged) {
    TransferCtx C = makeCtx();
    inputKeys(C, InputsHash);
    for (size_t I = 0; I < N; ++I) {
      auto It = Cache.Rounds.find({ProcHash[I], InputsHash[I]});
      if (It != Cache.Rounds.end()) {
        Shared[I] = It->second;
        It->second->LastUse = Cache.Gen;
        FreshRound[I] = 0;
        ++Cache.Totals.RoundsReused;
      } else {
        FreshRound[I] = 1;
        ++Cache.Totals.RoundsEvaluated;
      }
    }
    Pool.parallelFor(N, [&](size_t I) {
      if (FreshRound[I])
        evaluate(C, I);
    });
    // Publish the freshly computed rounds stripped of their value tables:
    // mid-fixpoint rounds recur every analysis, but only the converged
    // round's values are worth their footprint (the upgrade happens after
    // the loop).
    for (size_t I = 0; I < N; ++I) {
      if (!FreshRound[I])
        continue;
      auto S = std::make_shared<SummaryCache::RoundEntry>();
      S->R.Summary = Work[I].Summary;
      S->R.CalleeEntries = Work[I].CalleeEntries;
      S->R.IndirectEntries = Work[I].IndirectEntries;
      S->R.HasDataCall = Work[I].HasDataCall;
      S->LastUse = Cache.Gen;
      S->Bytes = roundEntryBytes(S->R, false);
      Cache.Bytes += S->Bytes;
      Cache.Rounds[{ProcHash[I], InputsHash[I]}] = S;
      Shared[I] = std::move(S);
    }
    SummariesChanged = false;
    for (size_t I = 0; I < N; ++I) {
      ProcSummary &Old = PA.Summaries[I];
      const ProcSummary &New = Shared[I]->R.Summary;
      if (Old.ExitGp != New.ExitGp || Old.Returns != New.Returns ||
          Old.ClobbersPv != New.ClobbersPv ||
          Old.ReadsPvAtEntry != New.ReadsPvAtEntry ||
          Old.PreservedSaved != New.PreservedSaved) {
        GpVal Entry = Old.EntryGp; // filled below; preserve across rounds
        Old = New;
        Old.EntryGp = Entry;
        SummariesChanged = true;
      }
    }
  }

  // Converged: the keys of the final round name the fixpoint state. Ensure
  // every procedure's entry at its converged key carries the value tables,
  // then share them with the result. A procedure whose final lookup hit a
  // stripped entry has its values in Work when this call evaluated that
  // very key (in an earlier round whose inputs did not move since), and
  // is recomputed otherwise.
  {
    TransferCtx C = makeCtx();
    std::vector<uint8_t> Recompute(N, 0);
    for (size_t I = 0; I < N; ++I)
      Recompute[I] = !Shared[I]->HasValues &&
                     (!HasWork[I] || WorkKey[I] != InputsHash[I]);
    Pool.parallelFor(N, [&](size_t I) {
      if (Recompute[I])
        evaluate(C, I);
    });
    PA.Values.resize(N);
    for (size_t I = 0; I < N; ++I) {
      if (Recompute[I])
        ++Cache.Totals.RoundsEvaluated; // converged lookup hit a stripped entry
      if (!Shared[I]->HasValues) {
        // The stripped entry is the cache's entry at the converged key, and
        // Work holds that very round: give it the values in place. No
        // result aliases a stripped entry.
        SummaryCache::RoundEntry &E = *Shared[I];
        Cache.Bytes -= E.Bytes;
        E.R.Values = std::move(Work[I].Values);
        E.HasValues = true;
        E.LastUse = Cache.Gen;
        E.Bytes = roundEntryBytes(E.R, true);
        Cache.Bytes += E.Bytes;
      }
      PA.Values[I] = std::shared_ptr<const ProcValues>(Shared[I],
                                                       &Shared[I]->R.Values);
    }
  }

  // Final combined indirect summary, stored for query-time transfers.
  bool AnyDataCall = false;
  for (size_t I = 0; I < N; ++I)
    AnyDataCall |= Shared[I]->R.HasDataCall;
  {
    TransferCtx C = makeCtx();
    PA.IndirectExitGp = C.IndirectExitGp;
    PA.IndirectClobbersPv = C.IndirectClobbersPv;
    PA.IndirectReturns = C.IndirectReturns;
    PA.IndirectReadsPv = C.IndirectReadsPv;
    if (AnyDataCall) {
      // A call through a data symbol can reach code the symbolic form
      // doesn't model; poison the combined summary.
      PA.IndirectExitGp |= GpVal::other();
      PA.IndirectClobbersPv = true;
      PA.IndirectReturns = true;
      PA.IndirectReadsPv = true;
    }
  }

  // EntryGp fixpoint: a serial union iteration over the collected
  // call-site contributions (cheap bitset unions), seeded by the loader
  // contract: the simulator enters the entry procedure with GP already
  // holding its group's value.
  for (uint32_t I = 0; I < N; ++I)
    if (SP.Procs[I].IsEntry)
      PA.Summaries[I].EntryGp |= GpVal::ofGroup(SP.Procs[I].GpGroup);
  auto resolveEntry = [](const GpVal &Raw, const GpVal &CallerEntry) {
    if (!Raw.MaybeEntry)
      return Raw;
    GpVal V = Raw;
    V.MaybeEntry = false;
    V.Groups |= CallerEntry.Groups;
    V.MaybeOther |= CallerEntry.MaybeOther;
    // CallerEntry bottom: the caller itself is never entered, so this
    // site never executes and contributes nothing (yet).
    return V;
  };
  if (AnyDataCall || AnyComputedJump)
    for (uint32_t P : AddressTaken)
      PA.Summaries[P].EntryGp |= GpVal::other();
  bool EntryChanged = true;
  while (EntryChanged) {
    EntryChanged = false;
    for (uint32_t I = 0; I < N; ++I) {
      const GpVal MyEntry = PA.Summaries[I].EntryGp;
      for (const auto &[Callee, Raw] : Shared[I]->R.CalleeEntries) {
        if (Callee >= N)
          continue;
        GpVal V = resolveEntry(Raw, MyEntry);
        GpVal &E = PA.Summaries[Callee].EntryGp;
        GpVal Old = E;
        E |= V;
        EntryChanged |= !(E == Old);
      }
      for (const GpVal &Raw : Shared[I]->R.IndirectEntries) {
        GpVal V = resolveEntry(Raw, MyEntry);
        for (uint32_t P : AddressTaken) {
          GpVal &E = PA.Summaries[P].EntryGp;
          GpVal Old = E;
          E |= V;
          EntryChanged |= !(E == Old);
        }
      }
    }
  }

  // Backward liveness per procedure (pure: needs only the converged
  // summaries). It reads the same per-procedure inputs the rounds do, but
  // against the final (possibly data-call-poisoned) indirect summary, so
  // it is keyed independently.
  if (WithMem) {
    TransferCtx C{SP,
                  PA.Summaries,
                  PA.IndirectExitGp,
                  PA.IndirectClobbersPv,
                  PA.IndirectReturns,
                  PA.IndirectReadsPv};
    std::vector<uint64_t> LiveKey(N);
    inputKeys(C, LiveKey);
    std::vector<std::shared_ptr<SummaryCache::LiveEntry>> L(N);
    for (size_t I = 0; I < N; ++I) {
      auto It = Cache.Liveness.find({ProcHash[I], LiveKey[I]});
      if (It != Cache.Liveness.end()) {
        L[I] = It->second;
        It->second->LastUse = Cache.Gen;
      }
    }
    Pool.parallelFor(N, [&](size_t I) {
      if (L[I])
        return;
      auto E = std::make_shared<SummaryCache::LiveEntry>();
      E->L = analyzeLiveness(C, *PA.Cfgs[I], static_cast<uint32_t>(I));
      L[I] = std::move(E);
    });
    PA.Live.resize(N);
    for (size_t I = 0; I < N; ++I) {
      SummaryCache::Key K{ProcHash[I], LiveKey[I]};
      if (!Cache.Liveness.count(K)) {
        L[I]->LastUse = Cache.Gen;
        L[I]->Bytes = 64 + L[I]->L.In.size() * 16;
        Cache.Bytes += L[I]->Bytes;
        Cache.Liveness.emplace(K, L[I]);
      }
      PA.Live[I] = std::shared_ptr<const ProcLiveness>(L[I], &L[I]->L);
    }
  }

  // Dataflow reach sets for the verify-stage audit against
  // computeReachableGroups: the groups a procedure's call subtree may
  // leave established in GP at return (pass-through excluded; MaybeOther
  // saturates to all groups, the pattern side's convention).
  PA.ReachableGroups.assign(N, 0);
  for (size_t I = 0; I < N; ++I) {
    const GpVal &Exit = PA.Summaries[I].ExitGp;
    PA.ReachableGroups[I] = Exit.Groups | (Exit.MaybeOther ? ~0ull : 0);
  }
  return PA;
}

ValueState ProgramAnalysis::valuesBefore(const SymbolicProgram &SP,
                                         uint32_t ProcIdx,
                                         uint32_t InstIdx) const {
  const SymProc &Proc = SP.Procs[ProcIdx];
  const Cfg &C = *Cfgs[ProcIdx];
  if (InstIdx >= C.BlockOf.size())
    return ValueState();
  uint32_t B = C.BlockOf[InstIdx];
  ValueState S = Values[ProcIdx]->In[B];
  TransferCtx Ctx{SP,
                  Summaries,
                  IndirectExitGp,
                  IndirectClobbersPv,
                  IndirectReturns,
                  IndirectReadsPv};
  for (uint32_t I = C.Blocks[B].Begin; I < InstIdx; ++I)
    applyInst(Ctx, Proc, Proc.Insts[I], S);
  return S;
}

uint64_t ProgramAnalysis::liveAfter(const SymbolicProgram &SP,
                                    uint32_t ProcIdx, uint32_t InstIdx) const {
  assert(Request == AnalysisRequest::Full && "liveness needs a Full analysis");
  const SymProc &Proc = SP.Procs[ProcIdx];
  const Cfg &C = *Cfgs[ProcIdx];
  if (InstIdx >= C.BlockOf.size())
    return AllUnitsMask;
  uint32_t B = C.BlockOf[InstIdx];
  const CfgBlock &Blk = C.Blocks[B];
  TransferCtx Ctx{SP,
                  Summaries,
                  IndirectExitGp,
                  IndirectClobbersPv,
                  IndirectReturns,
                  IndirectReadsPv};
  uint64_t L = Live[ProcIdx]->Out[B];
  for (uint32_t I = Blk.End; I > InstIdx + 1; --I)
    L = liveStep(Ctx, Proc.Insts[I - 1], L);
  return L;
}

std::vector<sched::MemRegion>
analysis::memBaseRegions(const SymbolicProgram &SP, const ProgramAnalysis &PA,
                         uint32_t ProcIdx) {
  const SymProc &Proc = SP.Procs[ProcIdx];
  std::vector<sched::MemRegion> Regions(Proc.Insts.size(),
                                        sched::MemRegion::Unknown);
  const Cfg &C = *PA.Cfgs[ProcIdx];
  TransferCtx Ctx{SP,
                  PA.Summaries,
                  PA.IndirectExitGp,
                  PA.IndirectClobbersPv,
                  PA.IndirectReturns,
                  PA.IndirectReadsPv};
  for (uint32_t B = 0; B < C.Blocks.size(); ++B) {
    ValueState S = PA.Values[ProcIdx]->In[B];
    const CfgBlock &Blk = C.Blocks[B];
    for (uint32_t I = Blk.Begin; I < Blk.End; ++I) {
      const SymInst &SI = Proc.Insts[I];
      if (!S.Unreachable && !SI.Nullified &&
          (isLoad(SI.I.Op) || isStore(SI.I.Op))) {
        const AbsVal &Base = S.R[intUnit(SI.I.Rb)];
        if (Base.Kind == ValueKind::Stack)
          Regions[I] = sched::MemRegion::Stack;
        else if (Base.isGlobalDerived())
          Regions[I] = sched::MemRegion::Global;
      }
      applyInst(Ctx, Proc, SI, S);
    }
  }
  return Regions;
}

GpProof ProgramAnalysis::gpBefore(const SymbolicProgram &SP, uint32_t ProcIdx,
                                  uint32_t InstIdx, uint32_t Group) const {
  ValueState S = valuesBefore(SP, ProcIdx, InstIdx);
  if (S.Unreachable)
    return GpProof::Unreachable;
  GpVal G = S.Gp;
  if (G.MaybeEntry) {
    const GpVal &E = Summaries[ProcIdx].EntryGp;
    if (E.isBottom())
      return GpProof::Unreachable; // the procedure is never entered
    G.MaybeEntry = false;
    G.Groups |= E.Groups;
    G.MaybeOther |= E.MaybeOther;
  }
  return G.provenGroup(Group) ? GpProof::Proven : GpProof::Unproven;
}

//===----------------------------------------------------------------------===//
// Lint
//===----------------------------------------------------------------------===//

namespace {

/// Shortest path (by block count) from the entry block to \p Target; empty
/// when Target is unreachable. The result lists blocks in forward order.
std::vector<uint32_t> shortestBlockPath(const Cfg &C, uint32_t Target) {
  std::vector<uint32_t> Path;
  if (C.Blocks.empty() || Target >= C.Blocks.size())
    return Path;
  std::vector<uint32_t> Prev(C.Blocks.size(), ~0u);
  std::vector<uint8_t> Seen(C.Blocks.size(), 0);
  std::vector<uint32_t> Queue;
  Queue.push_back(0);
  Seen[0] = 1;
  for (size_t Q = 0; Q < Queue.size() && !Seen[Target]; ++Q) {
    uint32_t B = Queue[Q];
    for (uint32_t S = 0; S < C.Blocks[B].NumSuccs; ++S) {
      uint32_t T = C.Blocks[B].Succs[S];
      if (!Seen[T]) {
        Seen[T] = 1;
        Prev[T] = B;
        Queue.push_back(T);
      }
    }
  }
  if (!Seen[Target])
    return Path;
  for (uint32_t B = Target;; B = Prev[B]) {
    Path.push_back(B);
    if (B == 0 || Prev[B] == ~0u)
      break;
  }
  std::reverse(Path.begin(), Path.end());
  return Path;
}

/// One-line description of a witness step.
std::string describeStep(const SymInst &SI) {
  if (isCall(SI))
    return formatString("%s: call (callee facts applied)",
                        opcodeName(SI.I.Op));
  if (isStore(SI.I.Op))
    return formatString("%s stores %s", opcodeName(SI.I.Op),
                        SI.I.Op == Opcode::Stt ? fpRegName(SI.I.Ra)
                                               : intRegName(SI.I.Ra));
  unsigned W = regUnitWritten(SI.I);
  if (W != ~0u)
    return formatString("%s writes %s", opcodeName(SI.I.Op), unitName(W));
  return opcodeName(SI.I.Op);
}

/// Builds a finding's witness path: the shortest CFG path from the
/// procedure entry to the defect block, replayed through both abstract
/// transfers, keeping the instructions that write a watched register unit
/// or store into the watched frame slot (plus calls — they apply callee
/// facts to the watched units). Always non-empty: the entry fact and the
/// defect site frame the trace.
std::vector<LintWitnessStep>
buildWitness(const TransferCtx &Ctx, const SymProc &Proc, const Cfg &C,
             const RoundScratch &Scr, uint32_t DefBlock,
             uint32_t DefInst, uint64_t WatchUnits, bool WatchSlot,
             int64_t SlotOff, std::string DefectNote) {
  std::vector<LintWitnessStep> W;
  constexpr size_t MaxSteps = 12;
  std::vector<uint32_t> Path = shortestBlockPath(C, DefBlock);
  if (Path.empty()) {
    W.push_back({DefInst, "no path from the procedure entry reaches this "
                          "block (the defect is the block itself)"});
    W.push_back({DefInst, std::move(DefectNote)});
    return W;
  }
  W.push_back({C.Blocks[0].Begin,
               "entry: argument, callee-saved, and linkage registers hold "
               "caller values; sp anchors the frame"});
  size_t Elided = 0;
  ValueState S;
  MemState M;
  for (uint32_t B : Path) {
    S = Scr.VIn[B];
    Scr.loadMem(B, M);
    const CfgBlock &Blk = C.Blocks[B];
    uint32_t End = B == DefBlock ? DefInst : Blk.End;
    for (uint32_t I = Blk.Begin; I < End; ++I) {
      const SymInst &SI = Proc.Insts[I];
      bool Relevant = false;
      if (!SI.Nullified && !S.Unreachable) {
        unsigned Wr = regUnitWritten(SI.I);
        if (Wr != ~0u && (WatchUnits & unitBit(Wr)))
          Relevant = true;
        if (isCall(SI) && WatchUnits != 0)
          Relevant = true;
        if (WatchSlot && isStore(SI.I.Op)) {
          MemAccess A = accessOf(SI.I);
          const MemVal Base = M.R[intUnit(SI.I.Rb)];
          if (Base.Kind == MemVal::K::SpRel) {
            int64_t Addr = Base.Off + SI.I.Disp;
            if (Addr < SlotOff + 8 && Addr + A.Size > SlotOff)
              Relevant = true;
          }
        }
      }
      if (Relevant) {
        if (W.size() < MaxSteps)
          W.push_back({I, describeStep(SI)});
        else
          ++Elided;
      }
      applyMem(Ctx, Proc, SI, S, M);
      applyInst(Ctx, Proc, SI, S);
    }
  }
  if (Elided)
    W.push_back({DefInst, formatString("... %zu more steps elided",
                                       Elided)});
  W.push_back({DefInst, std::move(DefectNote)});
  return W;
}

/// Lints one procedure, appending its findings (sorted by instruction,
/// then code) to \p Out. Runs a procedure-local value+memory fixpoint with
/// the converged entry-GP summary resolved in, so GAT provenance crosses
/// procedure boundaries exactly as the L002 proof does.
void lintProc(const TransferCtx &BaseCtx, const SymbolicProgram &SP,
              const ProgramAnalysis &PA, uint32_t ProcIdx,
              std::vector<LintFinding> &Out) {
  const SymProc &Proc = SP.Procs[ProcIdx];
  const Cfg &C = *PA.Cfgs[ProcIdx];
  if (Proc.Insts.empty() || C.Blocks.empty())
    return;

  const GpVal EntryGp = PA.Summaries[ProcIdx].EntryGp;
  TransferCtx Ctx = BaseCtx;
  Ctx.ResolveEntry = &EntryGp;

  // Procedure-local combined fixpoint (the rounds' own, plus entry-GP
  // resolution for AddressLoad provenance).
  RoundScratch &Scr = workerScratch();
  solveProc(Ctx, ProcIdx, C, /*WithMem=*/true, Scr.VIn, Scr);
  const std::vector<ValueState> &VIn = Scr.VIn;

  auto report = [&](uint32_t InstIdx, const char *Code, std::string Msg,
                    uint64_t WatchUnits, bool WatchSlot, int64_t SlotOff,
                    std::string DefectNote) {
    LintFinding F;
    F.Code = Code;
    F.ProcIdx = ProcIdx;
    F.Proc = Proc.Name;
    F.InstIdx = InstIdx;
    F.Message = std::move(Msg);
    uint32_t DefBlock =
        C.BlockOf[std::min<size_t>(InstIdx, C.BlockOf.size() - 1)];
    F.Witness = buildWitness(Ctx, Proc, C, Scr, DefBlock, InstIdx,
                             WatchUnits, WatchSlot, SlotOff,
                             std::move(DefectNote));
    Out.push_back(std::move(F));
  };

  const size_t FirstFinding = Out.size();
  for (uint32_t B = 0; B < C.Blocks.size(); ++B) {
    if (!C.Blocks[B].Reachable)
      continue;
    ValueState &S = Scr.S;
    MemState &M = Scr.M;
    S = VIn[B];
    Scr.loadMem(B, M);
    const CfgBlock &Blk = C.Blocks[B];
    for (uint32_t I = Blk.Begin; I < Blk.End; ++I) {
      const SymInst &SI = Proc.Insts[I];
      if (SI.Nullified || S.Unreachable) {
        applyMem(Ctx, Proc, SI, S, M);
        applyInst(Ctx, Proc, SI, S);
        continue;
      }
      // L001: a read of a register no path has written since entry.
      unsigned Units[3];
      unsigned NR = regUnitsRead(SI.I, Units);
      for (unsigned K = 0; K < NR; ++K) {
        unsigned U = Units[K];
        if (!isZeroUnit(U) && S.R[U].Kind == ValueKind::Uninit) {
          report(I,
                 "L001",
                 formatString("L001: reads uninitialized register %s at +%u",
                              unitName(U), I * 4),
                 unitBit(U), false, 0,
                 formatString("reads %s, which no path has written",
                              unitName(U)));
          break;
        }
      }
      // L002: a GAT address load whose GP is not provably this group's.
      if (SI.Kind == SKind::AddressLoad) {
        bool NeverEntered = S.Gp.MaybeEntry && EntryGp.isBottom();
        if (!NeverEntered && !gpProvenAt(Proc, S.Gp, EntryGp))
          report(I,
                 "L002",
                 formatString("L002: GAT address load at +%u is reachable "
                              "with a wrong or unknown GP",
                              I * 4),
                 unitBit(GpUnit), false, 0,
                 "GAT load here: GP is not provably this group's value");
      }
      // L005: call-convention violations.
      if (SI.Kind == SKind::JsrViaGat) {
        const LitInfo *L = SP.lit(SI.LitId);
        if (L && L->TargetSym < SP.Syms.size() &&
            !SP.Syms[L->TargetSym].IsProc)
          report(I,
                 "L005",
                 formatString("L005: call at +%u targets data symbol '%s'",
                              I * 4,
                              SP.Syms[L->TargetSym].Name.c_str()),
                 0, false, 0, "call through a data symbol's GAT slot");
      }
      if (SI.I.Op == Opcode::Jsr && SI.I.Ra != RA)
        report(I,
               "L005",
               formatString("L005: call at +%u links through %s instead "
                            "of ra",
                            I * 4, intRegName(SI.I.Ra)),
               0, false, 0, "call links through the wrong register");
      if (SI.Kind == SKind::DirectCall && SI.I.Op == Opcode::Bsr &&
          SI.I.Ra != RA)
        report(I,
               "L005",
               formatString("L005: call at +%u links through %s instead "
                            "of ra",
                            I * 4, intRegName(SI.I.Ra)),
               0, false, 0, "call links through the wrong register");
      if (SI.I.Op == Opcode::Ret && SI.I.Rb != RA)
        report(I,
               "L005",
               formatString("L005: return at +%u through %s instead of ra",
                            I * 4, intRegName(SI.I.Rb)),
               0, false, 0, "return through the wrong register");

      // Memory-domain checks. The GAT slot load itself (base GP) never
      // trips them: GP's MemVal is always Unknown.
      MemAccess A = accessOf(SI.I);
      if (A.IsMem) {
        const MemVal Base = M.R[intUnit(SI.I.Rb)];
        const MemVal CurSp = M.R[SpUnit];
        // L006: a provably SP-relative access outside the live frame
        // [current sp, entry sp). Incoming arguments are register-passed,
        // so nothing above the entry SP is ever legitimately addressed.
        if (Base.Kind == MemVal::K::SpRel &&
            CurSp.Kind == MemVal::K::SpRel) {
          int64_t Lo = Base.Off + SI.I.Disp;
          int64_t Hi = Lo + A.Size;
          if (Lo < CurSp.Off || Hi > 0)
            report(I,
                   "L006",
                   formatString("L006: stack access at +%u is out of frame "
                                "bounds (entry-sp%+lld, frame is [%lld, 0))",
                                I * 4, static_cast<long long>(Lo),
                                static_cast<long long>(CurSp.Off)),
                   unitBit(intUnit(SI.I.Rb)) | unitBit(SpUnit), false, 0,
                   formatString("accesses [entry-sp%+lld, entry-sp%+lld) "
                                "outside the frame",
                                static_cast<long long>(Lo),
                                static_cast<long long>(Hi)));
        }
        // L009: a GAT-proven data access outside the symbol's bounds or
        // misaligned for its width.
        if (Base.Kind == MemVal::K::GatAddr && Base.Id < SP.Syms.size()) {
          const PSym &Sym = SP.Syms[Base.Id];
          if (!Sym.IsProc && Sym.Size > 0) {
            int64_t Lo = Base.Off + SI.I.Disp;
            int64_t Hi = Lo + A.Size;
            if (Lo < 0 || Hi > static_cast<int64_t>(Sym.Size))
              report(I,
                     "L009",
                     formatString("L009: access at +%u to '%s'%+lld is "
                                  "outside the symbol's %llu bytes",
                                  I * 4, Sym.Name.c_str(),
                                  static_cast<long long>(Lo),
                                  static_cast<unsigned long long>(Sym.Size)),
                     unitBit(intUnit(SI.I.Rb)), false, 0,
                     formatString("accesses ['%s'%+lld, '%s'%+lld), "
                                  "outside [0, %llu)",
                                  Sym.Name.c_str(),
                                  static_cast<long long>(Lo),
                                  Sym.Name.c_str(),
                                  static_cast<long long>(Hi),
                                  static_cast<unsigned long long>(Sym.Size)));
            else if (Lo % A.Size != 0)
              report(I,
                     "L009",
                     formatString("L009: access at +%u to '%s'%+lld is "
                                  "misaligned for its %lld-byte width",
                                  I * 4, Sym.Name.c_str(),
                                  static_cast<long long>(Lo),
                                  static_cast<long long>(A.Size)),
                     unitBit(intUnit(SI.I.Rb)), false, 0,
                     "misaligned GAT-relative access");
          }
        }
        if (A.IsStore) {
          unsigned SU = storedUnit(SI.I);
          // L008: overwriting a slot that still holds the saved return
          // address with anything else.
          if (Base.Kind == MemVal::K::SpRel) {
            int64_t Lo = Base.Off + SI.I.Disp;
            for (const auto &[SlotOff, V] : M.Slots) {
              if (SlotOff >= Lo + A.Size)
                break;
              if (SlotOff + 8 <= Lo)
                continue;
              if (V == MemVal::savedOf(RaUnit) &&
                  !(M.R[SU] == MemVal::savedOf(RaUnit)))
                report(I,
                       "L008",
                       formatString("L008: store at +%u overwrites the "
                                    "saved return address at entry-sp%+lld",
                                    I * 4, static_cast<long long>(SlotOff)),
                       unitBit(SpUnit) | unitBit(RaUnit), true, SlotOff,
                       "overwrites the slot holding the saved ra");
            }
          }
          // L010: a stack address stored through a global-derived base
          // outlives its frame.
          bool StackVal = S.R[SU].Kind == ValueKind::Stack ||
                          M.R[SU].Kind == MemVal::K::SpRel;
          bool GlobalBase = S.R[intUnit(SI.I.Rb)].isGlobalDerived() ||
                            Base.Kind == MemVal::K::GatAddr;
          if (StackVal && GlobalBase)
            report(I,
                   "L010",
                   formatString("L010: store at +%u leaks a stack address "
                                "to a global location",
                                I * 4),
                   unitBit(SU) | unitBit(intUnit(SI.I.Rb)), false, 0,
                   "stores a stack-derived value through a global base");
        }
      }
      // L007: a callee-saved register not provably holding its entry
      // value at a return.
      if (SI.I.Op == Opcode::Ret) {
        for (unsigned U = 0; U < NumRegUnits; ++U)
          if ((CalleeSavedMask & unitBit(U)) &&
              !(M.R[U] == MemVal::savedOf(U)))
            report(I,
                   "L007",
                   formatString("L007: callee-saved register %s is not "
                                "preserved at the return at +%u",
                                unitName(U), I * 4),
                   unitBit(U), false, 0,
                   formatString("returns with %s not holding its entry "
                                "value",
                                unitName(U)));
      }
      applyMem(Ctx, Proc, SI, S, M);
      applyInst(Ctx, Proc, SI, S);
    }
  }
  // L003: blocks no path from the procedure entry reaches. Compiled code
  // legitimately contains dead register-only straight-line blocks — the
  // compiler's default-return guard behind an always-taken branch, nop
  // padding — so only blocks with an observable effect (a store, a call,
  // or control flow of their own) are reported.
  for (uint32_t B = 0; B < C.Blocks.size(); ++B) {
    if (C.Blocks[B].Reachable)
      continue;
    bool Observable = false;
    for (uint32_t I = C.Blocks[B].Begin; I < C.Blocks[B].End && !Observable;
         ++I) {
      const SymInst &SI = Proc.Insts[I];
      if (SI.Nullified)
        continue;
      InstClass Cls = classOf(SI.I.Op);
      Observable = isStore(SI.I.Op) || Cls == InstClass::Branch ||
                   Cls == InstClass::Jump || Cls == InstClass::Pal;
    }
    if (Observable)
      report(C.Blocks[B].Begin, "L003",
             formatString("L003: unreachable block at +%u",
                          C.Blocks[B].Begin * 4),
             0, false, 0, "real code with no path from the entry");
  }
  // L004: a reachable path runs past the last instruction into whatever
  // the layout places next.
  if (C.FallsOffEnd) {
    uint32_t FallBlock = 0;
    for (uint32_t B = 0; B < C.Blocks.size(); ++B)
      if (C.Blocks[B].Reachable && C.Blocks[B].FallsOff) {
        FallBlock = B;
        break;
      }
    uint32_t InstIdx = static_cast<uint32_t>(Proc.Insts.size()) - 1;
    LintFinding F;
    F.Code = "L004";
    F.ProcIdx = ProcIdx;
    F.Proc = Proc.Name;
    F.InstIdx = InstIdx;
    F.Message = "L004: control can fall through the end of the procedure";
    F.Witness = buildWitness(Ctx, Proc, C, Scr, FallBlock,
                             C.Blocks[FallBlock].End, 0, false, 0,
                             "control runs past the last instruction");
    F.Witness.back().InstIdx = InstIdx; // the defect anchors on the last inst
    Out.push_back(std::move(F));
  }
  std::stable_sort(Out.begin() + FirstFinding, Out.end(),
                   [](const LintFinding &A, const LintFinding &B) {
                     if (A.InstIdx != B.InstIdx)
                       return A.InstIdx < B.InstIdx;
                     return A.Code < B.Code;
                   });
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char Ch : S) {
    switch (Ch) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(Ch) < 0x20)
        Out += formatString("\\u%04x", static_cast<unsigned>(Ch));
      else
        Out += Ch;
    }
  }
  return Out;
}

const char *lintRuleTitle(unsigned Code) {
  switch (Code) {
  case 1:
    return "read of a provably-uninitialized register";
  case 2:
    return "GAT address load reachable with a wrong or unknown GP";
  case 3:
    return "unreachable basic block containing real code";
  case 4:
    return "control falls through the end of a procedure";
  case 5:
    return "call-convention violation";
  case 6:
    return "stack access out of frame bounds";
  case 7:
    return "callee-saved register clobbered without save/restore";
  case 8:
    return "return-address slot overwritten after save";
  case 9:
    return "GAT access with mismatched size or alignment";
  case 10:
    return "stack address escapes its frame lifetime";
  default:
    return "";
  }
}

} // namespace

std::vector<LintFinding> analysis::lintProgram(const SymbolicProgram &SP,
                                               const ProgramAnalysis &PA,
                                               ThreadPool &Pool) {
  const size_t N = SP.Procs.size();
  TransferCtx Ctx{SP,
                  PA.Summaries,
                  PA.IndirectExitGp,
                  PA.IndirectClobbersPv,
                  PA.IndirectReturns,
                  PA.IndirectReadsPv};
  std::vector<std::vector<LintFinding>> Per(N);
  Pool.parallelFor(N, [&](size_t I) {
    lintProc(Ctx, SP, PA, static_cast<uint32_t>(I), Per[I]);
  });
  std::vector<LintFinding> Out;
  for (std::vector<LintFinding> &V : Per)
    for (LintFinding &F : V)
      Out.push_back(std::move(F));
  return Out;
}

std::string analysis::renderLintText(const std::vector<LintFinding> &Findings,
                                     bool Explain) {
  std::string Out;
  for (const LintFinding &F : Findings) {
    Out += formatString("lint:%s:%u:0: warning: %s\n", F.Proc.c_str(),
                        F.InstIdx + 1, F.Message.c_str());
    if (!Explain)
      continue;
    unsigned N = 0;
    for (const LintWitnessStep &St : F.Witness)
      Out += formatString("  #%u +%u: %s\n", N++, St.InstIdx * 4,
                          St.Note.c_str());
  }
  return Out;
}

std::string
analysis::renderLintJson(const std::vector<LintFinding> &Findings) {
  std::string Out = "{\"findings\":[";
  bool First = true;
  for (const LintFinding &F : Findings) {
    if (!First)
      Out += ',';
    First = false;
    Out += formatString(
        "{\"code\":\"%s\",\"proc\":\"%s\",\"offset\":%u,\"message\":\"%s\"}",
        jsonEscape(F.Code).c_str(), jsonEscape(F.Proc).c_str(),
        F.InstIdx * 4, jsonEscape(F.Message).c_str());
  }
  Out += "]}\n";
  return Out;
}

std::string
analysis::renderLintSarif(const std::vector<LintFinding> &Findings) {
  std::string Out =
      "{\"$schema\":"
      "\"https://json.schemastore.org/sarif-2.1.0.json\","
      "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
      "\"name\":\"aaxlint\",\"rules\":[";
  for (unsigned Code = 1; Code <= 10; ++Code) {
    if (Code > 1)
      Out += ',';
    Out += formatString("{\"id\":\"L%03u\",\"shortDescription\":{"
                        "\"text\":\"%s\"}}",
                        Code, jsonEscape(lintRuleTitle(Code)).c_str());
  }
  Out += "]}},\"results\":[";
  bool First = true;
  for (const LintFinding &F : Findings) {
    if (!First)
      Out += ',';
    First = false;
    Out += formatString(
        "{\"ruleId\":\"%s\",\"level\":\"warning\","
        "\"message\":{\"text\":\"%s\"},\"locations\":[{"
        "\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"%s\"},"
        "\"region\":{\"startLine\":%u}}}]}",
        jsonEscape(F.Code).c_str(), jsonEscape(F.Message).c_str(),
        jsonEscape(F.Proc).c_str(), F.InstIdx + 1);
  }
  Out += "]}]}\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Lint corpus
//===----------------------------------------------------------------------===//

namespace {

struct CorpusProc {
  std::string Name;
  std::vector<Inst> Insts;
  bool UsesGp = false;
};

obj::ObjectFile makeCorpusObject(const std::vector<CorpusProc> &Procs) {
  obj::ObjectFile O;
  O.ModuleName = "lintcase";
  uint64_t Off = 0;
  for (const CorpusProc &P : Procs) {
    obj::Symbol S;
    S.Name = "lintcase." + P.Name;
    S.Section = obj::SectionKind::Text;
    S.Offset = Off;
    S.Size = P.Insts.size() * 4;
    S.IsProcedure = true;
    S.IsExported = true;
    S.IsDefined = true;
    obj::ProcDesc D;
    D.SymbolIndex = static_cast<uint32_t>(O.Symbols.size());
    D.TextOffset = Off;
    D.TextSize = S.Size;
    D.UsesGp = P.UsesGp;
    O.Symbols.push_back(std::move(S));
    O.Procs.push_back(D);
    for (const Inst &I : P.Insts) {
      uint32_t W = encode(I);
      O.Text.push_back(static_cast<uint8_t>(W));
      O.Text.push_back(static_cast<uint8_t>(W >> 8));
      O.Text.push_back(static_cast<uint8_t>(W >> 16));
      O.Text.push_back(static_cast<uint8_t>(W >> 24));
    }
    Off += P.Insts.size() * 4;
  }
  return O;
}

} // namespace

std::vector<LintCase> analysis::lintCorpus() {
  std::vector<LintCase> Cases;

  // clean: a well-formed module with no findings — the gate's
  // false-positive check.
  {
    CorpusProc Main{"main",
                    {makeMem(Opcode::Lda, V0, 7, Zero),
                     makeJump(Opcode::Ret, Zero, RA)},
                    false};
    Cases.push_back({"", "clean", makeCorpusObject({Main})});
  }

  // L001: the ADDQ reads t0, which no path has written since entry.
  {
    CorpusProc Main{"main",
                    {makeOpLit(Opcode::Addq, T0, 1, V0),
                     makeJump(Opcode::Ret, Zero, RA)},
                    false};
    Cases.push_back({"L001", "uninit_read", makeCorpusObject({Main})});
  }

  // L002: main clobbers GP, then calls f, whose GAT load therefore runs
  // under an unknown GP.
  {
    CorpusProc Main{"main",
                    {makeMem(Opcode::Lda, GP, 0, Zero),
                     makeBranch(Opcode::Bsr, RA, 1), // -> f at +12
                     makeJump(Opcode::Ret, Zero, RA)},
                    false};
    CorpusProc F{"f",
                 {makeMem(Opcode::Ldq, T0, 0, GP),
                  makeJump(Opcode::Ret, Zero, RA)},
                 true};
    obj::ObjectFile O = makeCorpusObject({Main, F});
    obj::Symbol D;
    D.Name = "lintcase.d";
    D.Section = obj::SectionKind::Data;
    D.Offset = 0;
    D.Size = 8;
    D.IsDefined = true;
    uint32_t DIdx = static_cast<uint32_t>(O.Symbols.size());
    O.Symbols.push_back(std::move(D));
    O.Data.assign(8, 0);
    O.Gat.push_back({DIdx, 0});
    obj::Reloc R;
    R.Kind = obj::RelocKind::Literal;
    R.Section = obj::SectionKind::Text;
    R.Offset = 12; // f's LDQ
    R.GatIndex = 0;
    R.LiteralId = 0;
    O.Relocs.push_back(R);
    Cases.push_back({"L002", "wrong_gp_load", std::move(O)});
  }

  // L003: the BR skips over a block nothing branches to; the dead block
  // has its own RET, so it is real code, not a benign dead-value guard.
  {
    CorpusProc Main{"main",
                    {makeBranch(Opcode::Br, Zero, 2), // -> ret at index 3
                     makeMem(Opcode::Lda, V0, 1, Zero),
                     makeJump(Opcode::Ret, Zero, RA),
                     makeJump(Opcode::Ret, Zero, RA)},
                    false};
    Cases.push_back({"L003", "unreachable_block", makeCorpusObject({Main})});
  }

  // L004: main has no terminator and falls into f.
  {
    CorpusProc Main{"main", {makeMem(Opcode::Lda, V0, 0, Zero)}, false};
    CorpusProc F{"f", {makeJump(Opcode::Ret, Zero, RA)}, false};
    Cases.push_back({"L004", "fall_through", makeCorpusObject({Main, F})});
  }

  // L005: an indirect call that links through t0 instead of RA.
  {
    CorpusProc Main{"main",
                    {makeMem(Opcode::Lda, T1, 0, Zero),
                     makeJump(Opcode::Jsr, T0, T1),
                     makeJump(Opcode::Ret, Zero, RA)},
                    false};
    Cases.push_back({"L005", "bad_link_reg", makeCorpusObject({Main})});
  }

  // L006: the store lands at entry-sp-24, below the 16-byte frame.
  {
    CorpusProc Main{"main",
                    {makeMem(Opcode::Lda, SP, -16, SP),
                     makeMem(Opcode::Stq, Zero, -8, SP),
                     makeMem(Opcode::Lda, SP, 16, SP),
                     makeJump(Opcode::Ret, Zero, RA)},
                    false};
    Cases.push_back({"L006", "stack_oob", makeCorpusObject({Main})});
  }

  // L007: s0 is overwritten and never restored before the return.
  {
    CorpusProc Main{"main",
                    {makeMem(Opcode::Lda, S0, 1, Zero),
                     makeJump(Opcode::Ret, Zero, RA)},
                    false};
    Cases.push_back(
        {"L007", "clobbered_saved_reg", makeCorpusObject({Main})});
  }

  // L008: ra is saved at entry-sp-16, then the same slot is overwritten
  // with zero before the restore — the reload yields garbage.
  {
    CorpusProc Main{"main",
                    {makeMem(Opcode::Lda, SP, -16, SP),
                     makeMem(Opcode::Stq, RA, 0, SP),
                     makeMem(Opcode::Stq, Zero, 0, SP),
                     makeMem(Opcode::Ldq, RA, 0, SP),
                     makeMem(Opcode::Lda, SP, 16, SP),
                     makeJump(Opcode::Ret, Zero, RA)},
                    false};
    Cases.push_back({"L008", "ra_slot_overwrite", makeCorpusObject({Main})});
  }

  // L009: the GAT slot resolves to the 8-byte symbol d, but the second
  // load reads [d+8, d+16) — past the end.
  {
    CorpusProc Main{"main",
                    {makeMem(Opcode::Ldq, T1, 0, GP),
                     makeMem(Opcode::Ldq, T0, 8, T1),
                     makeJump(Opcode::Ret, Zero, RA)},
                    true};
    obj::ObjectFile O = makeCorpusObject({Main});
    obj::Symbol D;
    D.Name = "lintcase.d";
    D.Section = obj::SectionKind::Data;
    D.Offset = 0;
    D.Size = 8;
    D.IsDefined = true;
    uint32_t DIdx = static_cast<uint32_t>(O.Symbols.size());
    O.Symbols.push_back(std::move(D));
    O.Data.assign(8, 0);
    O.Gat.push_back({DIdx, 0});
    obj::Reloc R;
    R.Kind = obj::RelocKind::Literal;
    R.Section = obj::SectionKind::Text;
    R.Offset = 0; // main's first LDQ
    R.GatIndex = 0;
    R.LiteralId = 0;
    O.Relocs.push_back(R);
    Cases.push_back({"L009", "gat_oob", std::move(O)});
  }

  // L010: the frame pointer value (sp itself) is stored into the global
  // d — a stack address escaping its frame's lifetime.
  {
    CorpusProc Main{"main",
                    {makeMem(Opcode::Ldq, T1, 0, GP),
                     makeMem(Opcode::Stq, SP, 0, T1),
                     makeJump(Opcode::Ret, Zero, RA)},
                    true};
    obj::ObjectFile O = makeCorpusObject({Main});
    obj::Symbol D;
    D.Name = "lintcase.d";
    D.Section = obj::SectionKind::Data;
    D.Offset = 0;
    D.Size = 8;
    D.IsDefined = true;
    uint32_t DIdx = static_cast<uint32_t>(O.Symbols.size());
    O.Symbols.push_back(std::move(D));
    O.Data.assign(8, 0);
    O.Gat.push_back({DIdx, 0});
    obj::Reloc R;
    R.Kind = obj::RelocKind::Literal;
    R.Section = obj::SectionKind::Text;
    R.Offset = 0; // main's first LDQ
    R.GatIndex = 0;
    R.LiteralId = 0;
    O.Relocs.push_back(R);
    Cases.push_back({"L010", "stack_escape", std::move(O)});
  }

  return Cases;
}
