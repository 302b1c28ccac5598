//===- om/Transforms.cpp - OM's call-related optimizations ----------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The section-3 call transformations:
///
///   * JSR -> BSR when the destination is known (both levels; "this
///     requires no analysis at all except to look up destinations in the
///     GAT and see if they are close enough"),
///   * skipping the callee's GP-setting prologue, which in turn makes the
///     PV load at the call site dead. OM-simple can do this only when the
///     pair is still a clean prefix of the callee (compile-time scheduling
///     usually moved it); OM-full first *restores* the pair to procedure
///     entry,
///   * nullifying the caller's GP-reset pair after calls whose entire call
///     subtree stays within one GP group (OM-simple uses the trivial
///     whole-program single-GAT argument; OM-full walks the call graph),
///   * OM-full: deleting GP prologues nothing can reach anymore.
///
//===----------------------------------------------------------------------===//

#include "om/OmImpl.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <vector>

using namespace om64;
using namespace om64::om;
using namespace om64::isa;
using namespace om64::obj;

namespace {

/// The literal a JsrViaGat instruction calls through. The lift records one
/// for every such instruction, so a miss is a broken table: it throws, as
/// a checked lookup would.
const LitInfo &litOf(const SymbolicProgram &SP, const SymInst &SI) {
  if (const LitInfo *L = SP.lit(SI.LitId))
    return *L;
  throw std::out_of_range("JSR-via-GAT without a recorded literal");
}

/// Moves the prologue GP-set pair of procedure \p ProcIdx back to
/// instructions 0 and 1 (undoing compile-time scheduling). Safe because
/// everything the compile-time scheduler may have hoisted above the pair
/// neither reads nor writes GP or PV (any GP/PV-dependent instruction was
/// kept below the pair by the scheduler's own dependence analysis).
///
/// The move renumbers every instruction up to the pair's low half, so all
/// positional bookkeeping into this procedure — LocalBranch targets and the
/// literal table's LoadIdx/JsrIdx/use indices — must be remapped, or later
/// passes (PV-load removal, address-load decisions) dereference stale
/// indices and nullify or rewrite the wrong instruction.
void restoreProloguePair(SymbolicProgram &SP, uint32_t ProcIdx) {
  SymProc &Proc = SP.Procs[ProcIdx];
  int High = -1, Low = -1;
  for (size_t Idx = 0; Idx < Proc.Insts.size(); ++Idx) {
    const SymInst &SI = Proc.Insts[Idx];
    if (SI.Kind == SKind::GpHigh && SI.GpKind == GpDispKind::Prologue) {
      High = static_cast<int>(Idx);
      for (size_t J = Idx + 1; J < Proc.Insts.size(); ++J)
        if (Proc.Insts[J].Kind == SKind::GpLow &&
            Proc.Insts[J].PairId == SI.PairId) {
          Low = static_cast<int>(J);
          break;
        }
      break;
    }
  }
  if (High < 0 || Low < 0)
    return;
  if (High == 0 && Low == 1)
    return;
  SymInst HighInst = Proc.Insts[High];
  SymInst LowInst = Proc.Insts[Low];
  Proc.Insts.erase(Proc.Insts.begin() + Low);
  Proc.Insts.erase(Proc.Insts.begin() + High);
  Proc.Insts.insert(Proc.Insts.begin(), LowInst);
  Proc.Insts.insert(Proc.Insts.begin(), HighInst);

  // High lands at 0 and Low at 1; instructions before the high shift down
  // by 2, those between the halves by 1, the rest stay put.
  auto remap = [High, Low](uint32_t Idx) -> uint32_t {
    int I = static_cast<int>(Idx);
    if (I == High)
      return 0;
    if (I == Low)
      return 1;
    if (I < High)
      return Idx + 2;
    if (I < Low)
      return Idx + 1;
    return Idx;
  };
  for (SymInst &SI : Proc.Insts)
    if (SI.Kind == SKind::LocalBranch && SI.TargetIdx >= 0)
      SI.TargetIdx =
          static_cast<int32_t>(remap(static_cast<uint32_t>(SI.TargetIdx)));
  for (uint32_t LitId = Proc.LitBegin; LitId < Proc.LitEnd; ++LitId) {
    LitInfo &L = SP.Lits[LitId];
    if (L.Proc != ProcIdx)
      continue;
    if (L.LoadIdx != ~0u)
      L.LoadIdx = remap(L.LoadIdx);
    if (L.JsrIdx >= 0)
      L.JsrIdx =
          static_cast<int32_t>(remap(static_cast<uint32_t>(L.JsrIdx)));
    for (uint32_t &Use : SP.allUses(L))
      Use = remap(Use);
  }
}

} // namespace

/// Call-graph reachability of GP groups: bit g set when the subtree rooted
/// at the procedure can execute GP-setting code of group g. Indirect calls
/// poison the set with every group of every address-taken procedure
/// (conservatively: all groups). Rows are as many 64-bit words as the
/// program has groups, so the result is exact at any group count — the old
/// single-word form saturated past 64 groups, keeping every reset alive on
/// mega-scale inputs with per-module groups.
GroupReachability
om64::om::computeReachableGroups(const SymbolicProgram &SP,
                                 ThreadPool &Pool) {
  size_t N = SP.Procs.size();
  GroupReachability R;
  R.NumGroups = SP.NumGroups;
  R.Words = (SP.NumGroups + 63) / 64;
  R.Bits.assign(N * R.Words, 0);

  auto setAll = [&R](uint64_t *Row) {
    for (uint32_t W = 0; W < R.Words; ++W)
      Row[W] = ~0ull;
    if (uint32_t Tail = R.NumGroups % 64)
      Row[R.Words - 1] = (1ull << Tail) - 1;
  };

  // Seed every procedure and collect its call edges, in parallel: each
  // worker writes only its own row and edge list.
  std::vector<std::vector<uint32_t>> Callees(N);
  Pool.parallelFor(N, [&](size_t Idx) {
    const SymProc &P = SP.Procs[Idx];
    uint64_t *Row = &R.Bits[Idx * R.Words];
    Row[P.GpGroup / 64] |= 1ull << (P.GpGroup % 64);
    bool All = P.MakesIndirectCalls;
    for (const SymInst &SI : P.Insts) {
      if (SI.Kind == SKind::DirectCall) {
        Callees[Idx].push_back(SI.TargetProc);
      } else if (SI.Kind == SKind::JsrViaGat) {
        const LitInfo &L = litOf(SP, SI);
        const PSym &Target = SP.Syms[L.TargetSym];
        if (Target.IsProc)
          Callees[Idx].push_back(Target.ProcIdx);
        else
          All = true; // call through data: unknown
      }
      if (SI.Nullified)
        continue;
      // A computed jump's targets are invisible to the symbolic form: the
      // subtree can reach any GP-setting code at all. (Our codegen never
      // emits JMP, but hand-assembled objects can.)
      if (SI.I.Op == isa::Opcode::Jmp)
        All = true;
      // A GP write outside a recognized GP-disp pair leaves GP holding a
      // value no group argument covers; treating it as all-groups keeps
      // every reset after calls into this subtree alive. Without this the
      // set understates and a caller's reset is unsoundly nullified — the
      // dataflow audit (verifyDeletionProofs' subset check) is what caught
      // the gap.
      if (SI.Kind != SKind::GpHigh && SI.Kind != SKind::GpLow &&
          isa::regUnitWritten(SI.I) == isa::intUnit(isa::GP))
        All = true;
    }
    if (All)
      setAll(Row);
    std::sort(Callees[Idx].begin(), Callees[Idx].end());
    Callees[Idx].erase(std::unique(Callees[Idx].begin(), Callees[Idx].end()),
                       Callees[Idx].end());
  });

  // Serial worklist over the reversed call graph to the (unique) least
  // fixpoint; re-visits only procedures whose callees actually grew, unlike
  // the old rescan-everything loop.
  std::vector<std::vector<uint32_t>> Callers(N);
  for (uint32_t P = 0; P < N; ++P)
    for (uint32_t C : Callees[P])
      if (C != P)
        Callers[C].push_back(P);
  std::vector<uint32_t> Work(N);
  for (uint32_t P = 0; P < N; ++P)
    Work[P] = P;
  std::vector<uint8_t> Queued(N, 1);
  while (!Work.empty()) {
    uint32_t P = Work.back();
    Work.pop_back();
    Queued[P] = 0;
    uint64_t *Row = &R.Bits[P * R.Words];
    bool Changed = false;
    for (uint32_t C : Callees[P]) {
      const uint64_t *CalleeRow = &R.Bits[C * R.Words];
      for (uint32_t W = 0; W < R.Words; ++W) {
        uint64_t Merged = Row[W] | CalleeRow[W];
        if (Merged != Row[W]) {
          Row[W] = Merged;
          Changed = true;
        }
      }
    }
    if (Changed)
      for (uint32_t Caller : Callers[P])
        if (!Queued[Caller]) {
          Queued[Caller] = 1;
          Work.push_back(Caller);
        }
  }
  return R;
}

namespace {

/// Nullifies the GP-reset pair that follows the call at \p CallIdx, if one
/// exists (the next post-call GpHigh before any other call or branch
/// boundary is this call's reset).
bool nullifyResetAfter(SymProc &Proc, size_t CallIdx) {
  for (size_t Idx = CallIdx + 1; Idx < Proc.Insts.size(); ++Idx) {
    SymInst &SI = Proc.Insts[Idx];
    if (SI.Kind == SKind::GpHigh && SI.GpKind == GpDispKind::PostCall) {
      // Locate both halves before touching either: nullifying the high
      // without its low would leave a half-active pair that adds the low
      // displacement to an unreset GP (i.e. corrupts GP).
      for (size_t J = Idx + 1; J < Proc.Insts.size(); ++J)
        if (Proc.Insts[J].Kind == SKind::GpLow &&
            Proc.Insts[J].PairId == SI.PairId) {
          SI.Nullified = true;
          Proc.Insts[J].Nullified = true;
          return true;
        }
      return false;
    }
    // Stop at the next call or control transfer: this call has no reset.
    if (SI.Kind == SKind::DirectCall || SI.Kind == SKind::JsrViaGat ||
        SI.Kind == SKind::JsrIndirect ||
        classOf(SI.I.Op) == InstClass::Branch ||
        classOf(SI.I.Op) == InstClass::Jump)
      return false;
  }
  return false;
}

/// The analysis-driven deletion phase (OmOptions::Analysis, OM-full only).
/// Two passes against Ctx's dataflow, invalidating between them:
///
///   Pass A deletes instructions that are concrete no-ops under a proof —
///   a GP pair whose GP already holds the group's value on every path into
///   its high half, and a call's address load whose destination register
///   already holds the callee's entry address. No-ops can all be deleted
///   simultaneously against one analysis: no deletion changes any register
///   value, so no proof invalidates another.
///
///   Pass B deletes address loads whose result is dead. Deadness is a
///   property of the *current* program, so it proves against a fresh
///   analysis of the Pass-A result (Pass A only removes reads, which can
///   only make more registers dead, never fewer).
///
/// Every deletion sets SymInst::AnalysisNullified so OmVerify's literal
/// checks and verifyDeletionProofs can tell proof-based deletions from
/// pattern ones. Counters reduce in procedure order.
void runAnalysisDeletions(SymbolicProgram &SP, OmStats &Stats,
                          OmContext &Ctx) {
  size_t NumProcs = SP.Procs.size();
  ThreadPool &Pool = Ctx.pool();
  const unsigned GpUnit = intUnit(GP);

  // --- Pass A: equality proofs. ---
  Ctx.invalidate(); // the pattern transforms just mutated the program
  std::vector<uint64_t> PairCount(NumProcs, 0), PvCount(NumProcs, 0);
  {
    const analysis::ProgramAnalysis &PA = Ctx.program();
    Pool.parallelFor(NumProcs, [&](size_t ProcIdx) {
      SymProc &Proc = SP.Procs[ProcIdx];
      const analysis::Cfg &Cfg = *PA.Cfgs[ProcIdx];
      for (size_t Idx = 0; Idx < Proc.Insts.size(); ++Idx) {
        SymInst &SI = Proc.Insts[Idx];
        if (SI.Nullified)
          continue;
        if (SI.Kind == SKind::GpHigh) {
          // Locate the low half; only the *pair* is a no-op (between the
          // halves GP holds the intermediate LDAH result), so both halves
          // must sit in one block with nothing touching GP in between —
          // then every execution of either half executes both.
          size_t Low = Proc.Insts.size();
          for (size_t J = Idx + 1; J < Proc.Insts.size(); ++J)
            if (Proc.Insts[J].Kind == SKind::GpLow &&
                Proc.Insts[J].PairId == SI.PairId) {
              Low = J;
              break;
            }
          if (Low == Proc.Insts.size() ||
              Cfg.BlockOf[Idx] != Cfg.BlockOf[Low])
            continue;
          bool Clean = true;
          for (size_t K = Idx + 1; K < Low && Clean; ++K) {
            const SymInst &Mid = Proc.Insts[K];
            if (Mid.Nullified)
              continue;
            unsigned Units[3];
            unsigned NumRead = regUnitsRead(Mid.I, Units);
            for (unsigned R = 0; R < NumRead; ++R)
              if (Units[R] == GpUnit)
                Clean = false;
            if (regUnitWritten(Mid.I) == GpUnit)
              Clean = false;
          }
          if (!Clean)
            continue;
          if (PA.gpBefore(SP, static_cast<uint32_t>(ProcIdx),
                          static_cast<uint32_t>(Idx),
                          Proc.GpGroup) != analysis::GpProof::Proven)
            continue;
          SI.Nullified = SI.AnalysisNullified = true;
          Proc.Insts[Low].Nullified = true;
          Proc.Insts[Low].AnalysisNullified = true;
          ++PairCount[ProcIdx];
        } else if (SI.Kind == SKind::AddressLoad && !SI.Converted) {
          // A call's PV load is a no-op when the destination register
          // already holds the callee's entry address (classically: a
          // second call to a callee that preserved PV). Restricted to
          // pure call literals so applyRewrites never folds displacements
          // of a load *we* nullified.
          const LitInfo *L = SP.lit(SI.LitId);
          if (!L || L->JsrIdx < 0 || L->NumMem != 0 || L->NumAddr != 0 ||
              L->NumDeref != 0)
            continue;
          const PSym &Target = SP.Syms[L->TargetSym];
          if (!Target.IsProc)
            continue;
          analysis::ValueState S = PA.valuesBefore(
              SP, static_cast<uint32_t>(ProcIdx), static_cast<uint32_t>(Idx));
          if (S.Unreachable)
            continue;
          if (S.R[intUnit(SI.I.Ra)] ==
              analysis::AbsVal::entryOf(Target.ProcIdx)) {
            SI.Nullified = SI.AnalysisNullified = true;
            ++PvCount[ProcIdx];
          }
        }
      }
    });
  }

  // --- Pass B: deadness, proven against the Pass-A program. ---
  Ctx.invalidate();
  std::vector<uint64_t> DeadCount(NumProcs, 0);
  {
    const analysis::ProgramAnalysis &PA = Ctx.program();
    const analysis::ProgramLiveness &Live = Ctx.liveness();
    Pool.parallelFor(NumProcs, [&](size_t ProcIdx) {
      SymProc &Proc = SP.Procs[ProcIdx];
      for (size_t Idx = 0; Idx < Proc.Insts.size(); ++Idx) {
        SymInst &SI = Proc.Insts[Idx];
        if (SI.Kind != SKind::AddressLoad || SI.Nullified || SI.Converted)
          continue;
        const LitInfo *L = SP.lit(SI.LitId);
        if (!L || !L->escapes())
          continue; // a recorded use reads the register; liveness agrees
        uint64_t LiveOut = Live.liveAfter(SP, PA,
                                          static_cast<uint32_t>(ProcIdx),
                                          static_cast<uint32_t>(Idx));
        if ((LiveOut >> intUnit(SI.I.Ra)) & 1)
          continue;
        SI.Nullified = SI.AnalysisNullified = true;
        ++DeadCount[ProcIdx];
      }
    });
  }

  for (size_t Idx = 0; Idx < NumProcs; ++Idx) {
    Stats.AnalysisGpPairsDeleted += PairCount[Idx];
    Stats.AnalysisPvLoadsDeleted += PvCount[Idx];
    Stats.AnalysisDeadLoadsDeleted += DeadCount[Idx];
  }
}

} // namespace

void om64::om::runCallTransforms(SymbolicProgram &SP, const OmOptions &Opts,
                                 OmStats &Stats, OmContext &Ctx) {
  if (Opts.Level == OmLevel::None)
    return;
  ThreadPool &Pool = Ctx.pool();
  bool Full = Opts.Level == OmLevel::Full;
  size_t NumProcs = SP.Procs.size();

  // OM-full first restores prologue GP-set pairs to procedure entry so
  // that direct calls can be retargeted past them (section 4: "if we can
  // restore them to their logical place at the beginning of the procedure,
  // we can avoid executing them on most or all of the calls"). Each
  // restoration reorders only its own procedure and rewrites only the
  // literal records in its own id range, so procedures restore
  // concurrently.
  if (Full)
    Pool.parallelFor(NumProcs, [&](size_t ProcIdx) {
      restoreProloguePair(SP, static_cast<uint32_t>(ProcIdx));
    });

  // Snapshot the callee-side facts the call rewriting reads, so that the
  // parallel rewrite below never looks into another procedure's (possibly
  // concurrently mutating) instruction vector. The snapshot is taken after
  // the restoration barrier, exactly where the serial pass would read the
  // same facts: the rewrite itself changes neither fact (it writes call
  // Kinds, TargetProc, SkipPrologue, and address-load Nullified bits — no
  // GpHigh/GpLow kinds and no entry pair).
  std::vector<uint8_t> CalleeHasGpSet(NumProcs, 0);
  std::vector<uint8_t> CalleePrologueAtEntry(NumProcs, 0);
  Pool.parallelFor(NumProcs, [&](size_t ProcIdx) {
    const SymProc &P = SP.Procs[ProcIdx];
    for (const SymInst &CI : P.Insts)
      if (CI.Kind == SKind::GpHigh && CI.GpKind == GpDispKind::Prologue) {
        CalleeHasGpSet[ProcIdx] = 1;
        break;
      }
    CalleePrologueAtEntry[ProcIdx] = P.hasProloguePairAtEntry();
  });

  // JSR -> BSR, prologue skipping, PV-load removal. Per caller: each
  // worker mutates only its own procedure's instructions and reads shared
  // state that is immutable during this phase (symbols, literal records,
  // the fact snapshots). Conversion counts reduce in procedure order.
  std::vector<uint64_t> ConvertedInProc(NumProcs, 0);
  Pool.parallelFor(NumProcs, [&](size_t ProcIdx) {
    SymProc &Caller = SP.Procs[ProcIdx];
    for (size_t Idx = 0; Idx < Caller.Insts.size(); ++Idx) {
      SymInst &SI = Caller.Insts[Idx];
      if (SI.Kind != SKind::JsrViaGat)
        continue;
      const LitInfo *LP = SP.lit(SI.LitId);
      if (!LP)
        continue;
      const LitInfo &L = *LP;
      const PSym &Target = SP.Syms[L.TargetSym];
      if (!Target.IsProc)
        continue; // call through a data literal: leave alone

      // The conversion itself needs no analysis; range is validated at
      // emission (total text is far below the 21-bit word reach).
      SI.Kind = SKind::DirectCall;
      SI.TargetProc = Target.ProcIdx;
      SI.I = makeBranch(Opcode::Bsr, RA, 0);
      ++ConvertedInProc[ProcIdx];

      // Skip the callee's GP-set pair when it is a clean entry prefix and
      // caller/callee share a GP value; then the PV load feeding this call
      // is dead if this call was its only use. A callee with no GP
      // prologue at all (it never reads PV) makes the load dead too --
      // the loader format's procedure descriptors tell even a traditional
      // linker that much.
      bool SameGroup = SP.Procs[Target.ProcIdx].GpGroup == Caller.GpGroup;
      bool PvDead = false;
      if (SameGroup && CalleePrologueAtEntry[Target.ProcIdx]) {
        SI.SkipPrologue = true;
        PvDead = true;
      } else if (!CalleeHasGpSet[Target.ProcIdx]) {
        PvDead = true;
      }
      if (PvDead && L.NumMem == 0 &&
          L.JsrIdx == static_cast<int32_t>(Idx))
        Caller.Insts[L.LoadIdx].Nullified = true;
    }
  });
  for (uint64_t Count : ConvertedInProc)
    Stats.JsrConvertedToBsr += Count;

  // GP-reset nullification.
  if (SP.NumGroups == 1 && !Full) {
    // OM-simple: with a single GAT every GP value is identical, so every
    // reset is redundant; no control-flow understanding required. Each
    // procedure is rewritten independently.
    Pool.parallelFor(NumProcs, [&](size_t P) {
      SymProc &Proc = SP.Procs[P];
      for (size_t Idx = 0; Idx < Proc.Insts.size(); ++Idx) {
        SymInst &SI = Proc.Insts[Idx];
        if (SI.Kind == SKind::GpHigh &&
            SI.GpKind == GpDispKind::PostCall) {
          SI.Nullified = true;
        } else if (SI.Kind == SKind::GpLow) {
          // Pair with a post-call high (prologue lows share PairId with a
          // prologue high); search backwards for the matching high.
          for (size_t J = Idx; J-- > 0;)
            if (Proc.Insts[J].Kind == SKind::GpHigh &&
                Proc.Insts[J].PairId == SI.PairId) {
              if (Proc.Insts[J].GpKind == GpDispKind::PostCall)
                SI.Nullified = true;
              break;
            }
        }
      }
    });
  } else if (Full) {
    // OM-full: per-call-site subtree analysis over the recovered call
    // graph, exact at any group count. The fixpoint is a serial
    // whole-program pass; the per-caller reset rewriting that consumes it
    // touches only the caller.
    GroupReachability Reach = computeReachableGroups(SP, Pool);
    Pool.parallelFor(NumProcs, [&](size_t ProcIdx) {
      SymProc &Caller = SP.Procs[ProcIdx];
      for (size_t Idx = 0; Idx < Caller.Insts.size(); ++Idx) {
        SymInst &SI = Caller.Insts[Idx];
        bool Confined;
        if (SI.Kind == SKind::DirectCall)
          Confined = Reach.confinedTo(SI.TargetProc, Caller.GpGroup);
        else if (SI.Kind == SKind::JsrIndirect)
          // An indirect call can reach any GP-setting code: confined only
          // in the degenerate single-group program.
          Confined = SP.NumGroups == 1;
        else
          continue;
        if (Confined)
          nullifyResetAfter(Caller, Idx);
      }
    });
  } else {
    // OM-simple with multiple GATs: only resets after direct calls whose
    // immediate callee shares the group and is itself leaf-safe cannot be
    // proven without control-flow analysis; a traditional linker keeps
    // them all.
  }

  // OM-full: delete GP prologues nothing can reach with a wrong GP (or at
  // all). Entry and address-taken procedures keep theirs; so do targets
  // of remaining non-skipping direct calls (cross-group BSRs).
  if (Full) {
    std::vector<bool> NeedsPrologue(SP.Procs.size(), false);
    for (SymProc &Proc : SP.Procs) {
      if (Proc.IsEntry || Proc.AddressTaken)
        NeedsPrologue[&Proc - &SP.Procs[0]] = true;
      for (const SymInst &SI : Proc.Insts)
        if (SI.Kind == SKind::DirectCall && !SI.SkipPrologue)
          NeedsPrologue[SI.TargetProc] = true;
        else if (SI.Kind == SKind::JsrViaGat) {
          const LitInfo &L = litOf(SP, SI);
          if (SP.Syms[L.TargetSym].IsProc)
            NeedsPrologue[SP.Syms[L.TargetSym].ProcIdx] = true;
        }
    }
    for (uint32_t ProcIdx = 0; ProcIdx < SP.Procs.size(); ++ProcIdx) {
      SymProc &Proc = SP.Procs[ProcIdx];
      if (NeedsPrologue[ProcIdx] || !Proc.hasProloguePairAtEntry())
        continue;
      Proc.Insts[0].Nullified = true;
      Proc.Insts[1].Nullified = true;
    }
  }

  // Whatever the patterns above could not justify, the dataflow may still
  // prove (prologues of procedures every caller enters with the right GP,
  // resets after pass-through callees, repeated PV loads, dead address
  // loads). Runs last so its counters measure exactly the wins over the
  // pattern baseline.
  if (Full && Opts.Analysis)
    runAnalysisDeletions(SP, Stats, Ctx);
}
