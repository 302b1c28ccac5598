//===- om/Layout.cpp - Profile-guided hot/cold code layout ----------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profile-guided layout pass (OmOptions::HotColdLayout). Consumes an
/// execution profile collected by `aaxrun --profile-out` (support/Profile.h)
/// and reorders code at two granularities:
///
///   * within each procedure, basic blocks are chained greedily by edge
///     heat in the style of Pettis & Hansen so the hottest successor of
///     every block becomes its fall-through (inverting branch conditions
///     where that makes the hot side fall through), and blocks the profile
///     never saw execute are split into a cold tail at the end of the
///     procedure, marked SymInst::Cold so the quadword alignment of
///     backward-branch targets is not wasted on them;
///   * across procedures, the dynamic call graph's hottest edges pull
///     caller and callee adjacent, and never-executed procedures sink to
///     the end of the text segment.
///
/// Correctness over profile fidelity: a procedure is laid out only when the
/// profile's branch-site count matches its LocalBranch count exactly (the
/// symbolic keying contract of support/Profile.h), and procedures with
/// computed jumps or GP-reset pairs that a reorder could detach from their
/// anchoring call are left untouched. An empty profile touches nothing, so
/// `--layout=hot-cold` without meaningful counts emits an image
/// byte-identical to a plain link.
///
/// Runs after deletion/rescheduling/instrumentation and before assembly.
/// Block decisions and rebuilds are per-procedure pure functions and fan
/// out on the thread pool; the procedure-order decision and index remap
/// stay serial, keeping `-jN` byte-identical to `-j1`.
///
//===----------------------------------------------------------------------===//

#include "om/OmImpl.h"

#include "support/Format.h"

#include <algorithm>
#include <map>

using namespace om64;
using namespace om64::om;
using namespace om64::isa;
using namespace om64::obj;

namespace {

/// The condition-inverted form of a conditional branch, so the formerly
/// taken (hot) side can become the fall-through.
Opcode invertedCond(Opcode Op) {
  switch (Op) {
  case Opcode::Beq:
    return Opcode::Bne;
  case Opcode::Bne:
    return Opcode::Beq;
  case Opcode::Blt:
    return Opcode::Bge;
  case Opcode::Bge:
    return Opcode::Blt;
  case Opcode::Ble:
    return Opcode::Bgt;
  case Opcode::Bgt:
    return Opcode::Ble;
  case Opcode::Fbeq:
    return Opcode::Fbne;
  case Opcode::Fbne:
    return Opcode::Fbeq;
  default:
    return Op;
  }
}

bool isCallKind(SKind K) {
  return K == SKind::DirectCall || K == SKind::JsrViaGat ||
         K == SKind::JsrIndirect;
}

/// A half-open instruction range [Start, End); the terminator, if any, is
/// the LocalBranch at End-1.
struct Block {
  uint32_t Start = 0;
  uint32_t End = 0;
  int32_t BranchOrd = -1; // profile ordinal of the terminating branch
};

struct ProcLayout {
  bool Changed = false;
  std::vector<SymInst> NewInsts;
  uint64_t BlocksMoved = 0;
  uint64_t ColdBlocks = 0;
  uint64_t Fixups = 0;
  std::string Err; // internal invariant failure; aborts the link
};

/// Decides and applies the block layout of one procedure. \p EntryIn is the
/// dynamic entry count from the call-edge graph (0 when unknown). Returns
/// Changed=false (and leaves NewInsts empty) when the procedure is
/// ineligible or the layout is a no-op.
ProcLayout layoutProc(const SymProc &Proc, const prof::ProcProfile &PP,
                      uint64_t EntryIn) {
  ProcLayout R;
  const std::vector<SymInst> &Insts = Proc.Insts;
  const size_t N = Insts.size();
  if (N == 0 || PP.InstsExecuted == 0)
    return R;

  // Eligibility: computed jumps have targets the symbolic form cannot see.
  for (const SymInst &SI : Insts)
    if (SI.I.Op == Opcode::Jmp)
      return R;

  // The profile's branch sites map to LocalBranches by ordinal; a count
  // mismatch means the profile came from a differently optioned link.
  std::vector<uint32_t> BranchAt;
  for (uint32_t Idx = 0; Idx < N; ++Idx)
    if (Insts[Idx].Kind == SKind::LocalBranch)
      BranchAt.push_back(Idx);
  if (BranchAt.size() != PP.Branches.size())
    return R;

  // Leaders: entry, every branch target, every post-branch instruction.
  std::vector<bool> Leader(N, false), Targeted(N, false);
  Leader[0] = true;
  for (uint32_t BIdx : BranchAt) {
    uint32_t T = static_cast<uint32_t>(Insts[BIdx].TargetIdx);
    if (T >= N) {
      R.Err = Proc.Name + ": branch target out of range before layout";
      return R;
    }
    Leader[T] = true;
    Targeted[T] = true;
    if (BIdx + 1 < N)
      Leader[BIdx + 1] = true;
  }

  std::vector<Block> Blocks;
  std::vector<uint32_t> BlockOf(N);
  {
    std::map<uint32_t, int32_t> OrdOfIdx;
    for (uint32_t Ord = 0; Ord < BranchAt.size(); ++Ord)
      OrdOfIdx[BranchAt[Ord]] = static_cast<int32_t>(Ord);
    for (uint32_t Idx = 0; Idx < N; ++Idx) {
      if (Leader[Idx]) {
        if (!Blocks.empty())
          Blocks.back().End = Idx;
        Blocks.push_back({Idx, static_cast<uint32_t>(N), -1});
      }
      BlockOf[Idx] = static_cast<uint32_t>(Blocks.size() - 1);
    }
    for (Block &B : Blocks)
      if (B.End > B.Start && Insts[B.End - 1].Kind == SKind::LocalBranch)
        B.BranchOrd = OrdOfIdx[B.End - 1];
  }
  const uint32_t NB = static_cast<uint32_t>(Blocks.size());
  if (NB < 2)
    return R;

  // Eligibility: a post-call GP-reset pair encodes against the end of the
  // nearest preceding call *in emission order*. Both halves must sit in
  // one block with their call, or a reorder could re-anchor them.
  {
    std::map<uint32_t, std::pair<uint32_t, int64_t>> PairAnchor;
    for (uint32_t B = 0; B < NB; ++B) {
      int64_t LastCall = -1;
      for (uint32_t Idx = Blocks[B].Start; Idx < Blocks[B].End; ++Idx) {
        const SymInst &SI = Insts[Idx];
        if (isCallKind(SI.Kind))
          LastCall = Idx;
        if ((SI.Kind == SKind::GpHigh || SI.Kind == SKind::GpLow) &&
            SI.GpKind == GpDispKind::PostCall) {
          if (LastCall < 0)
            return R; // anchored to a call in some other block
          auto It = PairAnchor.find(SI.PairId);
          if (It == PairAnchor.end())
            PairAnchor[SI.PairId] = {B, LastCall};
          else if (It->second != std::make_pair(B, LastCall))
            return R; // halves would disagree about their anchor
        }
      }
    }
  }

  // Block execution counts. Branch-terminated blocks are exact (the
  // terminator's Executed count *is* the block count); fall-through-only
  // blocks accumulate inflow, computable in one forward pass because the
  // only backward dependence is on the immediately preceding block.
  std::vector<uint64_t> TakenIn(NB, 0);
  for (uint32_t Ord = 0; Ord < BranchAt.size(); ++Ord) {
    uint32_t TB = BlockOf[static_cast<uint32_t>(Insts[BranchAt[Ord]].TargetIdx)];
    TakenIn[TB] += PP.Branches[Ord].Taken;
  }
  std::vector<uint64_t> Exec(NB, 0);
  for (uint32_t B = 0; B < NB; ++B) {
    if (Blocks[B].BranchOrd >= 0) {
      Exec[B] = PP.Branches[Blocks[B].BranchOrd].Executed;
      continue;
    }
    uint64_t FallIn = 0;
    if (B == 0) {
      FallIn = EntryIn ? EntryIn : 1; // entered at least once
    } else {
      const Block &P = Blocks[B - 1];
      const SymInst &Last = Insts[P.End - 1];
      if (P.BranchOrd >= 0)
        FallIn = Last.I.Op == Opcode::Br
                     ? 0
                     : PP.Branches[P.BranchOrd].Executed -
                           PP.Branches[P.BranchOrd].Taken;
      else if (Last.I.Op == Opcode::Ret)
        FallIn = 0;
      else
        FallIn = Exec[B - 1];
    }
    Exec[B] = FallIn + TakenIn[B];
  }
  std::vector<bool> Cold(NB, false);
  for (uint32_t B = 1; B < NB; ++B)
    Cold[B] = Exec[B] == 0;

  // Greedy Pettis–Hansen chaining over the hot blocks: process edges by
  // weight, gluing a chain tail to a chain head so the edge becomes a
  // fall-through. Block 0 stays a chain head (procedure entry).
  struct Edge {
    uint64_t W;
    uint32_t Src, Dst;
  };
  std::vector<Edge> Edges;
  for (uint32_t B = 0; B < NB; ++B) {
    if (Cold[B])
      continue;
    const Block &Blk = Blocks[B];
    auto addEdge = [&](uint32_t Dst, uint64_t W) {
      if (W > 0 && Dst != B && Dst < NB && !Cold[Dst])
        Edges.push_back({W, B, Dst});
    };
    if (Blk.BranchOrd >= 0) {
      const prof::BranchCounts &C = PP.Branches[Blk.BranchOrd];
      uint32_t TB = BlockOf[static_cast<uint32_t>(Insts[Blk.End - 1].TargetIdx)];
      addEdge(TB, C.Taken);
      if (Insts[Blk.End - 1].I.Op != Opcode::Br && B + 1 < NB)
        addEdge(B + 1, C.Executed - C.Taken);
    } else if (Insts[Blk.End - 1].I.Op != Opcode::Ret && B + 1 < NB) {
      addEdge(B + 1, Exec[B]);
    }
  }
  std::stable_sort(Edges.begin(), Edges.end(),
                   [](const Edge &A, const Edge &B) {
                     if (A.W != B.W)
                       return A.W > B.W;
                     if (A.Src != B.Src)
                       return A.Src < B.Src;
                     return A.Dst < B.Dst;
                   });

  std::vector<uint32_t> ChainOf(NB, ~0u);
  std::vector<std::vector<uint32_t>> Chains;
  for (uint32_t B = 0; B < NB; ++B)
    if (!Cold[B]) {
      ChainOf[B] = static_cast<uint32_t>(Chains.size());
      Chains.push_back({B});
    }
  for (const Edge &E : Edges) {
    uint32_t CA = ChainOf[E.Src], CB = ChainOf[E.Dst];
    if (CA == CB || Chains[CA].back() != E.Src ||
        Chains[CB].front() != E.Dst || E.Dst == 0)
      continue;
    for (uint32_t B : Chains[CB]) {
      ChainOf[B] = CA;
      Chains[CA].push_back(B);
    }
    Chains[CB].clear();
  }

  // Final order: the entry chain, the remaining hot chains by total heat
  // (ties to the earlier original position), then the cold tail in
  // original order.
  std::vector<uint32_t> ChainIds;
  for (uint32_t C = 0; C < Chains.size(); ++C)
    if (!Chains[C].empty() && Chains[C].front() != 0)
      ChainIds.push_back(C);
  std::stable_sort(ChainIds.begin(), ChainIds.end(),
                   [&](uint32_t A, uint32_t B) {
                     uint64_t HA = 0, HB = 0;
                     for (uint32_t Blk : Chains[A])
                       HA += Exec[Blk];
                     for (uint32_t Blk : Chains[B])
                       HB += Exec[Blk];
                     if (HA != HB)
                       return HA > HB;
                     return Chains[A].front() < Chains[B].front();
                   });
  std::vector<uint32_t> Order;
  Order.reserve(NB);
  for (uint32_t B : Chains[ChainOf[0]])
    Order.push_back(B);
  for (uint32_t C : ChainIds)
    for (uint32_t B : Chains[C])
      Order.push_back(B);
  for (uint32_t B = 0; B < NB; ++B)
    if (Cold[B]) {
      Order.push_back(B);
      ++R.ColdBlocks;
    }
  if (Order.size() != NB) {
    R.Err = Proc.Name + ": layout dropped or duplicated a block";
    return R;
  }

  // Rebuild the instruction vector in the chosen order, adapting each
  // block's terminator: keep, invert (hot taken side becomes the
  // fall-through), delete (unconditional branch to the next block), or
  // append a fixup BR where the old fall-through no longer follows.
  std::vector<int64_t> OldToNew(N, -1);
  std::vector<SymInst> Out;
  Out.reserve(N + NB);
  uint64_t Deleted = 0, Inverted = 0;
  bool AnyCold = false;
  for (uint32_t Pos = 0; Pos < NB; ++Pos) {
    uint32_t B = Order[Pos];
    const Block &Blk = Blocks[B];
    int64_t Next = Pos + 1 < NB ? static_cast<int64_t>(Order[Pos + 1]) : -1;
    if (B != Pos)
      ++R.BlocksMoved;

    bool NeedFall = false; // falls through to old block B+1
    for (uint32_t Idx = Blk.Start; Idx < Blk.End; ++Idx) {
      SymInst SI = Insts[Idx];
      if (Cold[B]) {
        SI.Cold = true;
        AnyCold = true;
      }
      bool IsTerm = Idx == Blk.End - 1;
      if (IsTerm && SI.Kind == SKind::LocalBranch) {
        uint32_t TB = BlockOf[static_cast<uint32_t>(SI.TargetIdx)];
        bool HasFall = B + 1 < NB;
        if (SI.I.Op == Opcode::Br) {
          // Unconditional: drop it when its target now follows and
          // nothing needs the instruction itself (no link register, not a
          // branch target).
          if (SI.I.Ra == Zero && !Targeted[Idx] && Next == TB) {
            OldToNew[Idx] = static_cast<int64_t>(Out.size());
            ++Deleted;
            continue;
          }
        } else if (HasFall && Next != static_cast<int64_t>(B + 1)) {
          if (Next == TB && TB != B + 1) {
            // The taken side follows: invert the condition and branch to
            // the old fall-through instead.
            SI.I.Op = invertedCond(SI.I.Op);
            SI.TargetIdx = static_cast<int32_t>(Blocks[B + 1].Start);
            ++Inverted;
          } else {
            NeedFall = true;
          }
        }
      } else if (IsTerm && SI.I.Op != Opcode::Ret && B + 1 < NB &&
                 Next != static_cast<int64_t>(B + 1)) {
        NeedFall = true;
      }
      OldToNew[Idx] = static_cast<int64_t>(Out.size());
      Out.push_back(SI);
    }
    if (NeedFall) {
      SymInst Fix;
      Fix.I = makeBranch(Opcode::Br, Zero, 0);
      Fix.Kind = SKind::LocalBranch;
      Fix.TargetIdx = static_cast<int32_t>(Blocks[B + 1].Start);
      Fix.Cold = Cold[B];
      Out.push_back(Fix);
      ++R.Fixups;
    }
  }

  // Invariants ("every block emitted exactly once"): every old index has a
  // new home, and the instruction count balances deletions and fixups.
  for (uint32_t Idx = 0; Idx < N; ++Idx)
    if (OldToNew[Idx] < 0) {
      R.Err = formatString("%s: layout lost instruction %u",
                           Proc.Name.c_str(), Idx);
      return R;
    }
  if (Out.size() != N - Deleted + R.Fixups) {
    R.Err = Proc.Name + ": layout instruction count mismatch";
    return R;
  }
  for (SymInst &SI : Out)
    if (SI.Kind == SKind::LocalBranch) {
      int64_t T = OldToNew[static_cast<uint32_t>(SI.TargetIdx)];
      if (T < 0 || T >= static_cast<int64_t>(Out.size())) {
        R.Err = Proc.Name + ": layout remapped a branch out of range";
        return R;
      }
      SI.TargetIdx = static_cast<int32_t>(T);
    }

  bool Identity = true;
  for (uint32_t Pos = 0; Pos < NB; ++Pos)
    if (Order[Pos] != Pos)
      Identity = false;
  if (Identity && Deleted == 0 && Inverted == 0 && R.Fixups == 0 &&
      !AnyCold)
    return R; // byte-identical: report unchanged

  R.Changed = true;
  R.NewInsts = std::move(Out);
  return R;
}

} // namespace

std::vector<uint64_t>
om64::om::pessimisticProcEnds(const SymbolicProgram &SP,
                              const OmOptions &Opts) {
  bool Full = Opts.Level == OmLevel::Full;
  bool Align = Full && Opts.AlignLoopTargets;
  bool ProcCounters = Full && Opts.InstrumentProcedureCounts;
  bool BlockCounters = Full && Opts.InstrumentBlockCounts;
  bool Layout = profileLayoutLive(Opts);

  std::vector<uint64_t> MaxEnd(SP.Procs.size());
  uint64_t Cur = 0;
  for (size_t Idx = 0; Idx < SP.Procs.size(); ++Idx) {
    const SymProc &Proc = SP.Procs[Idx];
    uint64_t Branches = 0;
    for (const SymInst &SI : Proc.Insts)
      if (SI.Kind == SKind::LocalBranch)
        ++Branches;
    // The layout inserts at most one fixup BR per block, and a procedure
    // has at most 2*Branches + 1 blocks (each branch contributes one
    // target leader and one post-branch leader).
    uint64_t Fixups = Layout ? 2 * Branches + 2 : 0;
    uint64_t Insts = Proc.Insts.size() + (ProcCounters ? 1 : 0) +
                     (BlockCounters ? Branches : 0) + Fixups +
                     (Align ? Branches + Fixups : 0);
    Cur = ((Cur + 15) & ~15ull) + Insts * 4;
    MaxEnd[Idx] = Cur;
  }
  return MaxEnd;
}

std::vector<uint32_t>
om64::om::proposeProcOrder(const SymbolicProgram &SP, const OmOptions &Opts) {
  if (!profileLayoutLive(Opts) || SP.Procs.empty())
    return {};
  const prof::Profile &Prof = Opts.Profile;
  const uint32_t N = static_cast<uint32_t>(SP.Procs.size());

  // Resolve profile procedures by name, first match winning — the same
  // resolution the block-level layout performs, so the order proposed
  // here is exactly the one runProfileLayout will apply.
  std::map<std::string, uint32_t> SymIdxOfName;
  for (uint32_t Idx = 0; Idx < N; ++Idx)
    SymIdxOfName.emplace(SP.Procs[Idx].Name, Idx);
  std::vector<int64_t> SymOfProf(Prof.Procs.size(), -1);
  std::vector<int64_t> ProfOfSym(N, -1);
  for (uint32_t P = 0; P < Prof.Procs.size(); ++P) {
    auto It = SymIdxOfName.find(Prof.Procs[P].Name);
    if (It != SymIdxOfName.end() && ProfOfSym[It->second] < 0) {
      SymOfProf[P] = It->second;
      ProfOfSym[It->second] = P;
    }
  }

  std::vector<uint64_t> Heat(N, 0);
  for (uint32_t Idx = 0; Idx < N; ++Idx)
    if (ProfOfSym[Idx] >= 0)
      Heat[Idx] = Prof.Procs[ProfOfSym[Idx]].InstsExecuted;

  // Compiler-emitted BSRs cannot fall back to a JSR, so on images large
  // enough that a reorder could stretch one past BSR reach, the
  // procedures they connect are clustered (union-find, min-index root)
  // and each cluster moves as one contiguous unit: an un-revertible call
  // then spans at most its cluster, not the text. Below that size any
  // order is safe and the clustering is skipped, keeping small-workload
  // orders byte-identical to the pre-clustering layout.
  std::vector<uint32_t> Parent(N);
  for (uint32_t I = 0; I < N; ++I)
    Parent[I] = I;
  auto Find = [&Parent](uint32_t X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  };
  if (pessimisticProcEnds(SP, Opts).back() > BsrReachBytes)
    for (uint32_t P = 0; P < N; ++P)
      for (const SymInst &SI : SP.Procs[P].Insts) {
        if (SI.Kind != SKind::DirectCall || SI.LitId != ~0u ||
            SI.TargetProc == ~0u || SI.TargetProc == P)
          continue;
        uint32_t RA = Find(P), RB = Find(SI.TargetProc);
        if (RA == RB)
          continue;
        if (RA < RB)
          Parent[RB] = RA;
        else
          Parent[RA] = RB;
      }
  std::vector<std::vector<uint32_t>> Members(N);
  std::vector<uint64_t> NodeHeat(N, 0);
  for (uint32_t P = 0; P < N; ++P) {
    uint32_t R = Find(P);
    Members[R].push_back(P);
    NodeHeat[R] += Heat[P];
  }

  // Chain the dynamic call graph's hottest edges over cluster nodes (with
  // no clustering every node is a singleton and this is the legacy
  // procedure order), order chains by heat, and sink never-executed
  // nodes to the end in original order.
  std::map<std::pair<uint32_t, uint32_t>, uint64_t> EdgeW;
  for (const prof::CallEdge &E : Prof.Edges) {
    if (SymOfProf[E.Caller] < 0 || SymOfProf[E.Callee] < 0)
      continue;
    uint32_t A = Find(static_cast<uint32_t>(SymOfProf[E.Caller]));
    uint32_t B = Find(static_cast<uint32_t>(SymOfProf[E.Callee]));
    if (A != B)
      EdgeW[{A, B}] += E.Count;
  }
  struct PEdge {
    uint64_t W;
    uint32_t A, B;
  };
  std::vector<PEdge> PEdges;
  for (const auto &[Key, W] : EdgeW)
    PEdges.push_back({W, Key.first, Key.second});
  std::stable_sort(PEdges.begin(), PEdges.end(),
                   [](const PEdge &X, const PEdge &Y) {
                     if (X.W != Y.W)
                       return X.W > Y.W;
                     if (X.A != Y.A)
                       return X.A < Y.A;
                     return X.B < Y.B;
                   });

  std::vector<uint32_t> ChainOf(N, ~0u);
  std::vector<std::vector<uint32_t>> Chains;
  for (uint32_t Idx = 0; Idx < N; ++Idx)
    if (!Members[Idx].empty() && NodeHeat[Idx] > 0) {
      ChainOf[Idx] = static_cast<uint32_t>(Chains.size());
      Chains.push_back({Idx});
    }
  for (const PEdge &E : PEdges) {
    if (ChainOf[E.A] == ~0u || ChainOf[E.B] == ~0u)
      continue;
    uint32_t CA = ChainOf[E.A], CB = ChainOf[E.B];
    if (CA == CB)
      continue;
    for (uint32_t P : Chains[CB]) {
      ChainOf[P] = CA;
      Chains[CA].push_back(P);
    }
    Chains[CB].clear();
  }
  std::vector<uint32_t> ChainIds;
  for (uint32_t C = 0; C < Chains.size(); ++C)
    if (!Chains[C].empty())
      ChainIds.push_back(C);
  std::stable_sort(ChainIds.begin(), ChainIds.end(),
                   [&](uint32_t X, uint32_t Y) {
                     uint64_t HX = 0, HY = 0;
                     for (uint32_t P : Chains[X])
                       HX += NodeHeat[P];
                     for (uint32_t P : Chains[Y])
                       HY += NodeHeat[P];
                     if (HX != HY)
                       return HX > HY;
                     return Chains[X].front() < Chains[Y].front();
                   });
  std::vector<uint32_t> NewOrder;
  NewOrder.reserve(N);
  for (uint32_t C : ChainIds)
    for (uint32_t Node : Chains[C])
      for (uint32_t P : Members[Node])
        NewOrder.push_back(P);
  for (uint32_t Idx = 0; Idx < N; ++Idx)
    if (!Members[Idx].empty() && NodeHeat[Idx] == 0)
      for (uint32_t P : Members[Idx])
        NewOrder.push_back(P);
  if (NewOrder.size() != N)
    return {}; // defensive: identity is always safe

  bool Identity = true;
  for (uint32_t Pos = 0; Pos < N; ++Pos)
    if (NewOrder[Pos] != Pos)
      Identity = false;
  if (Identity)
    return {};
  return NewOrder;
}

Error om64::om::runProfileLayout(SymbolicProgram &SP, const OmOptions &Opts,
                                 OmStats &Stats, ThreadPool &Pool,
                                 const std::vector<uint32_t> &ProcOrder) {
  const prof::Profile &Prof = Opts.Profile;
  if (Prof.empty() || SP.Procs.empty())
    return Error::success();

  // No whole-text reach gate here any more: the BSR relaxation fixpoint
  // already decided every OM-created call's reach against exactly the
  // procedure order this pass applies (and vetoed the order if an
  // un-revertible compiler BSR could not survive it), so mega-scale
  // images keep both hot-cold layout and every BSR that actually fits.

  // Resolve profile procedures against the symbolic program by name.
  std::map<std::string, uint32_t> SymIdxOfName;
  for (uint32_t Idx = 0; Idx < SP.Procs.size(); ++Idx)
    SymIdxOfName.emplace(SP.Procs[Idx].Name, Idx);
  std::vector<int64_t> SymOfProf(Prof.Procs.size(), -1);
  std::vector<int64_t> ProfOfSym(SP.Procs.size(), -1);
  for (uint32_t P = 0; P < Prof.Procs.size(); ++P) {
    auto It = SymIdxOfName.find(Prof.Procs[P].Name);
    if (It != SymIdxOfName.end() && ProfOfSym[It->second] < 0) {
      SymOfProf[P] = It->second;
      ProfOfSym[It->second] = P;
    }
  }

  // Dynamic entry counts seed the entry block's heat; the program's entry
  // procedure is entered once from outside the call graph.
  std::vector<uint64_t> EntryIn(SP.Procs.size(), 0);
  for (const prof::CallEdge &E : Prof.Edges)
    if (SymOfProf[E.Callee] >= 0)
      EntryIn[SymOfProf[E.Callee]] += E.Count;
  for (uint32_t Idx = 0; Idx < SP.Procs.size(); ++Idx)
    if (SP.Procs[Idx].IsEntry)
      EntryIn[Idx] += 1;

  // Per-procedure block layout: pure decisions into per-index slots.
  std::vector<ProcLayout> Results(SP.Procs.size());
  Pool.parallelFor(SP.Procs.size(), [&](size_t Idx) {
    if (ProfOfSym[Idx] < 0)
      return;
    Results[Idx] = layoutProc(SP.Procs[Idx], Prof.Procs[ProfOfSym[Idx]],
                              EntryIn[Idx]);
  });
  for (size_t Idx = 0; Idx < SP.Procs.size(); ++Idx) {
    ProcLayout &R = Results[Idx];
    if (!R.Err.empty())
      return Error::failure("profile layout: " + R.Err);
    if (!R.Changed)
      continue;
    SP.Procs[Idx].Insts = std::move(R.NewInsts);
    ++Stats.LayoutProcsReordered;
    Stats.LayoutBlocksMoved += R.BlocksMoved;
    Stats.LayoutColdBlocks += R.ColdBlocks;
    Stats.LayoutFixupBranches += R.Fixups;
  }

  // Procedure order: apply the permutation the relaxation fixpoint
  // already validated (proposeProcOrder); empty means identity.
  if (ProcOrder.empty())
    return Error::success();
  if (ProcOrder.size() != SP.Procs.size())
    return Error::failure("profile layout: procedure order size mismatch");
  const std::vector<uint32_t> &NewOrder = ProcOrder;

  std::vector<uint32_t> NewIdxOfOld(SP.Procs.size());
  for (uint32_t Pos = 0; Pos < NewOrder.size(); ++Pos)
    NewIdxOfOld[NewOrder[Pos]] = Pos;
  std::vector<SymProc> NewProcs;
  NewProcs.reserve(SP.Procs.size());
  for (uint32_t Pos = 0; Pos < NewOrder.size(); ++Pos)
    NewProcs.push_back(std::move(SP.Procs[NewOrder[Pos]]));
  SP.Procs = std::move(NewProcs);
  for (PSym &S : SP.Syms)
    if (S.IsProc && S.ProcIdx != ~0u)
      S.ProcIdx = NewIdxOfOld[S.ProcIdx];
  for (SymProc &Proc : SP.Procs)
    for (SymInst &SI : Proc.Insts)
      if (SI.Kind == SKind::DirectCall && SI.TargetProc != ~0u)
        SI.TargetProc = NewIdxOfOld[SI.TargetProc];
  return Error::success();
}
