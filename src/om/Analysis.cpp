//===- om/Analysis.cpp - Link-time dataflow analysis ----------------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//

#include "om/AnalysisImpl.h"

#include "isa/Registers.h"
#include "support/ContentHash.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <numeric>

using namespace om64;
using namespace om64::isa;
using namespace om64::om;
using namespace om64::om::analysis;
using namespace om64::om::analysis::detail;

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

namespace {

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

const uint64_t CallUseMask = conventionalCallUse();
const uint64_t RetUseMask = conventionalRetUse();
const uint64_t CallClobberMask = callerSavedUnits();
const uint64_t AllUnitsMask =
    ~(unitBit(intUnit(Zero)) | unitBit(fpUnit(FZero)));

bool isHalt(const Inst &I) {
  return classOf(I.Op) == InstClass::Pal &&
         (static_cast<uint32_t>(I.Disp) & 0xffu) ==
             static_cast<uint32_t>(PalFunc::Halt);
}

} // namespace

//===----------------------------------------------------------------------===//
// CFG construction
//===----------------------------------------------------------------------===//

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

//===----------------------------------------------------------------------===//
// Transfer functions
//===----------------------------------------------------------------------===//

bool analysis::detail::isCall(const SymInst &SI) {
  return SI.Kind == SKind::DirectCall || SI.Kind == SKind::JsrViaGat ||
         SI.Kind == SKind::JsrIndirect;
}

TransferCtx analysis::detail::contextOf(const SymbolicProgram &SP,
                                       const ProgramAnalysis &PA) {
  return {SP,
          PA.Summaries,
          PA.IndirectExitGp,
          PA.IndirectClobbersPv,
          PA.IndirectReturns,
          PA.IndirectReadsPv};
}

TransferCtx
analysis::detail::roundContext(const SymbolicProgram &SP,
                               const std::vector<ProcSummary> &Summaries,
                               const std::vector<uint32_t> &AddressTaken,
                               bool AnyComputedJump) {
  TransferCtx C{SP, Summaries, GpVal::other(), true, true, true};
  if (!AnyComputedJump && !AddressTaken.empty()) {
    GpVal Exit = GpVal::bottom();
    bool Clobbers = false, Returns = false, ReadsPv = false;
    for (uint32_t P : AddressTaken) {
      Exit |= Summaries[P].ExitGp;
      Clobbers |= Summaries[P].ClobbersPv;
      Returns |= Summaries[P].Returns;
      ReadsPv |= Summaries[P].ReadsPvAtEntry;
    }
    C.IndirectExitGp = Exit;
    C.IndirectClobbersPv = Clobbers;
    C.IndirectReturns = Returns;
    C.IndirectReadsPv = ReadsPv;
  }
  return C;
}

bool analysis::detail::gpProvenAt(uint32_t Group, const GpVal &Raw,
                                  const GpVal &EntryGp) {
  GpVal G = Raw;
  if (G.MaybeEntry) {
    if (EntryGp.isBottom())
      return false; // never entered; nothing is proven
    G.MaybeEntry = false;
    G.Groups |= EntryGp.Groups;
    G.MaybeOther |= EntryGp.MaybeOther;
  }
  return G.provenGroup(Group);
}

uint32_t analysis::detail::calleeOf(const SymbolicProgram &SP,
                                    const SymInst &SI) {
  if (SI.Kind == SKind::DirectCall)
    return SI.TargetProc;
  if (SI.Kind == SKind::JsrViaGat) {
    const LitInfo *L = SP.lit(SI.LitId);
    if (L && L->TargetSym < SP.Syms.size() && SP.Syms[L->TargetSym].IsProc)
      return SP.Syms[L->TargetSym].ProcIdx;
  }
  return ~0u;
}

namespace {

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

} // namespace

void analysis::detail::applyInst(const TransferCtx &C, const SymProc &Proc,
                                 const SymInst &SI, ValueState &S) {
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
                      ? gpProvenAt(Proc.GpGroup, S.Gp, *C.ResolveEntry)
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

bool analysis::detail::meetInto(ValueState &Into, const ValueState &From) {
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
ValueState analysis::detail::entryState(uint32_t ProcIdx) {
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


namespace {

using ProcRound = om::analysis::detail::ProcRound;

/// Runs the intra-procedural value fixpoint for one procedure under the
/// given (mid-fixpoint) summaries and extracts the round products into
/// \p R, reusing its buffers.
void analyzeProcRound(const TransferCtx &C, const Cfg &Cfg_, uint32_t ProcIdx,
                      ProcRound &R) {
  const SymProc &Proc = C.SP.Procs[ProcIdx];
  R.Summary = ProcSummary();
  R.CalleeEntries.clear();
  R.IndirectEntries.clear();
  R.HasDataCall = false;
  NoRider None;
  solveProc(C, ProcIdx, Cfg_, R.Values.In, None);
  if (Cfg_.Blocks.empty())
    return;

  // Summary extraction: walk each reachable block once more, recording
  // call-site GP values, exit GP at returns, and the PV-clobber bit.
  R.Summary.ReadsPvAtEntry = false;
  for (const SymInst &SI : Proc.Insts)
    if (SI.Kind == SKind::GpHigh && !SI.Nullified &&
        SI.GpKind == obj::GpDispKind::Prologue)
      R.Summary.ReadsPvAtEntry = true;
  R.Summary.ClobbersPv = false;
  R.Summary.Returns = false;
  ValueState S;
  for (uint32_t B = 0; B < Cfg_.Blocks.size(); ++B) {
    if (R.Values.In[B].Unreachable)
      continue;
    S = R.Values.In[B];
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
      applyInst(C, Proc, SI, S);
    }
    if (S.Unreachable)
      continue;
    const SymInst &Last = Proc.Insts[Blk.End - 1];
    if (!Last.Nullified && Last.I.Op == Opcode::Ret) {
      R.Summary.Returns = true;
      R.Summary.ExitGp |= S.Gp;
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

ProcLiveness procLiveness(const TransferCtx &C, const Cfg &Cfg_,
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
/// deliberately excluded: neither analyzeProcRound nor procLiveness
/// consumes a callee's EntryGp, and excluding it keeps warm-link keys
/// stable across links.
void addSummary(Hasher &H, const ProcSummary &S) {
  addGpVal(H, S.ExitGp);
  H.addBool(S.Returns);
  H.addBool(S.ClobbersPv);
  H.addBool(S.ReadsPvAtEntry);
}

/// Content key of one procedure for the summary cache: every per-procedure
/// fact analyzeProcRound and procLiveness read. That is the procedure's
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

/// The memo walk CFGs and liveness share: each procedure's entry in \p Map
/// under KeyOf(I), the missing ones made in parallel by Make(I, Entry)
/// (which also sets Entry.Bytes) and published in procedure order.
template <class MapT, class KeyFn, class MakeFn>
std::vector<typename MapT::mapped_type>
memoizePerProc(SummaryCache &Cache, MapT &Map, size_t N, ThreadPool &Pool,
               KeyFn KeyOf, MakeFn Make) {
  std::vector<typename MapT::mapped_type> Out(N);
  for (size_t I = 0; I < N; ++I)
    if (auto It = Map.find(KeyOf(I)); It != Map.end()) {
      It->second->LastUse = Cache.Gen;
      Out[I] = It->second;
    }
  std::vector<uint8_t> Fresh(N, 0);
  Pool.parallelFor(N, [&](size_t I) {
    if (Out[I])
      return;
    Out[I] = std::make_shared<typename MapT::mapped_type::element_type>();
    Make(I, *Out[I]);
    Fresh[I] = 1;
  });
  for (size_t I = 0; I < N; ++I)
    if (Fresh[I]) {
      Out[I]->LastUse = Cache.Gen;
      Cache.Bytes += Out[I]->Bytes;
      Map.emplace(KeyOf(I), Out[I]);
    }
  return Out;
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
                                         ThreadPool &Pool) {
  SummaryCache Local;
  return analyzeProgram(SP, Pool, Local);
}

void analysis::detail::evaluateRound(const SymbolicProgram &SP,
                                     const ProgramAnalysis &PA,
                                     uint32_t ProcIdx, ProcRound &Out) {
  analyzeProcRound(contextOf(SP, PA), *PA.Cfgs[ProcIdx], ProcIdx, Out);
}

ProgramAnalysis analysis::analyzeProgram(const SymbolicProgram &SP,
                                         ThreadPool &Pool,
                                         SummaryCache &Cache) {
  ProgramAnalysis PA;
  const size_t N = SP.Procs.size();
  ++Cache.Gen;
  ++Cache.Totals.Runs;

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
  for (const std::shared_ptr<SummaryCache::CfgEntry> &E : memoizePerProc(
           Cache, Cache.Cfgs, N, Pool, [&](size_t I) { return ProcHash[I]; },
           [&](size_t I, SummaryCache::CfgEntry &E) {
             E.C = buildCfg(SP.Procs[I]);
             E.Bytes = 64 + E.C.Blocks.size() * (sizeof(CfgBlock) + 6) +
                       E.C.BlockOf.size() * 4 + E.C.Preds.size() * 4;
           }))
    PA.Cfgs.emplace_back(E, &E->C);

  bool AnyComputedJump = false;
  for (const std::shared_ptr<const Cfg> &C : PA.Cfgs)
    AnyComputedJump |= C->HasComputedJump;
  std::vector<uint32_t> AddressTaken;
  for (uint32_t I = 0; I < N; ++I)
    if (SP.Procs[I].AddressTaken)
      AddressTaken.push_back(I);

  // Interprocedural fixpoint over {ExitGp, Returns, ClobbersPv}: start
  // from the optimistic bottom (the least fixpoint — sound because any
  // concrete returning execution has a finite call tree whose innermost
  // return surfaces in round one and propagates outward). Each round
  // re-keys every procedure against the previous round's summaries and
  // evaluates, in parallel, only the rounds the cache does not hold; the
  // round count is bounded by the summary lattice height. All reductions
  // are in procedure-index order.
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
    return roundContext(SP, PA.Summaries, AddressTaken, AnyComputedJump);
  };
  // Keys every procedure under \p C: its content hash plus everything its
  // transfers read from outside it — the combined indirect summary and
  // each direct callee's current summary, in sorted-callee order.
  auto inputKeys = [&](const TransferCtx &C, std::vector<uint64_t> &Keys) {
    Hasher CtxH;
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
    analyzeProcRound(C, *PA.Cfgs[I], static_cast<uint32_t>(I), Work[I]);
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
          Old.ReadsPvAtEntry != New.ReadsPvAtEntry) {
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
  auto join = [&](uint32_t P, const GpVal &V) {
    GpVal &E = PA.Summaries[P].EntryGp;
    const GpVal Old = E;
    E |= V;
    EntryChanged |= !(E == Old);
  };
  while (EntryChanged) {
    EntryChanged = false;
    for (uint32_t I = 0; I < N; ++I) {
      const GpVal MyEntry = PA.Summaries[I].EntryGp;
      for (const auto &[Callee, Raw] : Shared[I]->R.CalleeEntries)
        if (Callee < N)
          join(Callee, resolveEntry(Raw, MyEntry));
      for (const GpVal &Raw : Shared[I]->R.IndirectEntries)
        for (uint32_t P : AddressTaken)
          join(P, resolveEntry(Raw, MyEntry));
    }
  }

  // Liveness keys. Liveness reads the same per-procedure inputs the
  // rounds do, but against the final (possibly data-call-poisoned)
  // indirect summary, so it is keyed independently; analyzeLiveness
  // computes it only for the consumers that ask.
  {
    std::vector<uint64_t> LiveInputs(N);
    inputKeys(contextOf(SP, PA), LiveInputs);
    PA.LiveKeys.resize(N);
    for (size_t I = 0; I < N; ++I)
      PA.LiveKeys[I] = {ProcHash[I], LiveInputs[I]};
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

ProgramLiveness analysis::analyzeLiveness(const SymbolicProgram &SP,
                                          const ProgramAnalysis &PA,
                                          ThreadPool &Pool,
                                          SummaryCache &Cache) {
  const TransferCtx C = contextOf(SP, PA);
  ProgramLiveness Live;
  for (const std::shared_ptr<SummaryCache::LiveEntry> &E : memoizePerProc(
           Cache, Cache.Liveness, SP.Procs.size(), Pool,
           [&](size_t I) { return PA.LiveKeys[I]; },
           [&](size_t I, SummaryCache::LiveEntry &E) {
             E.L = procLiveness(C, *PA.Cfgs[I], static_cast<uint32_t>(I));
             E.Bytes = 64 + E.L.In.size() * 16;
           }))
    Live.Procs.emplace_back(E, &E->L);
  return Live;
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
  const TransferCtx Ctx = contextOf(SP, *this);
  for (uint32_t I = C.Blocks[B].Begin; I < InstIdx; ++I)
    applyInst(Ctx, Proc, Proc.Insts[I], S);
  return S;
}

uint64_t ProgramLiveness::liveAfter(const SymbolicProgram &SP,
                                    const ProgramAnalysis &PA,
                                    uint32_t ProcIdx, uint32_t InstIdx) const {
  const SymProc &Proc = SP.Procs[ProcIdx];
  const Cfg &C = *PA.Cfgs[ProcIdx];
  if (InstIdx >= C.BlockOf.size())
    return AllUnitsMask;
  uint32_t B = C.BlockOf[InstIdx];
  const CfgBlock &Blk = C.Blocks[B];
  const TransferCtx Ctx = contextOf(SP, PA);
  uint64_t L = Procs[ProcIdx]->Out[B];
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
  const TransferCtx Ctx = contextOf(SP, PA);
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
  const GpVal &E = Summaries[ProcIdx].EntryGp;
  // Unreachable covers a procedure that is never entered at all.
  if (S.Unreachable || (S.Gp.MaybeEntry && E.isBottom()))
    return GpProof::Unreachable;
  return gpProvenAt(Group, S.Gp, E) ? GpProof::Proven : GpProof::Unproven;
}
