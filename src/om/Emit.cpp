//===- om/Emit.cpp - Address-load optimization, layout, image emission ----===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The layout-dependent half of OM:
///
///   * sorts data symbols by size next to the GAT and picks GP values,
///   * converts address loads to GP-relative LDA/LDAH or nullifies them by
///     folding the displacement into their uses (section 3, first
///     improvement),
///   * for OM-full, reduces the GAT to a fixpoint ("GAT-reduction ... means
///     that the GAT gets smaller, perhaps enabling a fresh round of the
///     other improvements"), deletes nullified code, optionally reschedules
///     basic blocks and quadword-aligns backward-branch targets,
///   * regenerates executable code from the symbolic form.
///
//===----------------------------------------------------------------------===//

#include "om/OmImpl.h"

#include "sched/ListScheduler.h"
#include "support/Format.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

using namespace om64;
using namespace om64::om;
using namespace om64::isa;
using namespace om64::obj;

namespace {

/// Slot map key: one 64-bit word packing (group, symId).
uint64_t slotKey(uint32_t Group, uint32_t Sym) {
  return (static_cast<uint64_t>(Group) << 32) | Sym;
}

} // namespace

//===----------------------------------------------------------------------===//
// Data and GAT layout.
//===----------------------------------------------------------------------===//

DataLayout Emitter::layoutData(bool IncludeAllLiterals) const {
  DataLayout DL;
  uint32_t NumGroups = SP.NumGroups;
  DL.GroupSyms.resize(NumGroups);

  // GAT contents: entries still loaded from memory. Qualifying
  // (group, symbol) pairs are collected per procedure in parallel; slot
  // numbers are then assigned serially in procedure order, so every group's
  // GAT lays out exactly as the old serial scan produced it.
  std::vector<std::vector<uint64_t>> KeysOfProc(SP.Procs.size());
  Pool.parallelFor(SP.Procs.size(), [&](size_t P) {
    const SymProc &Proc = SP.Procs[P];
    for (const SymInst &SI : Proc.Insts) {
      if (SI.Kind != SKind::AddressLoad)
        continue;
      if (!IncludeAllLiterals && (SI.Nullified || SI.Converted))
        continue;
      KeysOfProc[P].push_back(slotKey(Proc.GpGroup, SI.TargetSym));
    }
  });
  for (const std::vector<uint64_t> &Keys : KeysOfProc)
    for (uint64_t Key : Keys) {
      uint32_t Group = static_cast<uint32_t>(Key >> 32);
      auto [It, Inserted] = DL.Slot.try_emplace(
          Key, static_cast<uint32_t>(DL.GroupSyms[Group].size()));
      (void)It;
      if (Inserted)
        DL.GroupSyms[Group].push_back(static_cast<uint32_t>(Key));
    }

  // GAT placement and GP values.
  DL.GroupBase.resize(NumGroups);
  DL.GpValue.resize(NumGroups);
  uint64_t Cur = Layout::DataBase;
  for (uint32_t G = 0; G < NumGroups; ++G) {
    DL.GroupBase[G] = Cur;
    DL.GpValue[G] = Cur + 32768;
    Cur += DL.GroupSyms[G].size() * 8;
    DL.GatBytes += DL.GroupSyms[G].size() * 8;
  }

  // Data symbols, optionally sorted by size ascending so that as many as
  // possible land inside the GP window (section 3: "We sort the common
  // symbols by size and place them with the small data sections near the
  // GAT").
  std::vector<uint32_t> Order;
  for (uint32_t SymId = 0; SymId < SP.Syms.size(); ++SymId)
    if (!SP.Syms[SymId].IsProc)
      Order.push_back(SymId);
  if (Opts.SortDataBySize)
    std::stable_sort(Order.begin(), Order.end(),
                     [&](uint32_t A, uint32_t B) {
                       return SP.Syms[A].Size < SP.Syms[B].Size;
                     });

  // Symbol sizes come from the objects: growDataExtent bounds their sum.
  uint64_t LastInitEnd = Cur;
  for (uint32_t SymId : Order) {
    PSym &S = const_cast<PSym &>(SP.Syms[SymId]);
    S.Addr = Cur;
    uint64_t Extent = Cur - Layout::DataBase;
    if ((DL.Overflow = growDataExtent(Extent, S.Size, S.Name)))
      break;
    Cur = Layout::DataBase + Extent;
    if (!S.IsBss)
      LastInitEnd = Cur;
  }
  DL.DataBytes = LastInitEnd - Layout::DataBase;
  DL.BssBytes = Cur - LastInitEnd;
  return DL;
}

//===----------------------------------------------------------------------===//
// BSR range relaxation.
//===----------------------------------------------------------------------===//

Error Emitter::relaxDirectCalls() {
  const size_t N = SP.Procs.size();
  if (N == 0)
    return Error::success();
  const bool Full = Opts.Level == OmLevel::Full;
  const bool LayoutLive = profileLayoutLive(Opts);

  // One OM-created conversion that the fixpoint decides about. Compiler
  // BSRs carry no literal (LitId == ~0u) and cannot revert; they become
  // hard constraints on the procedure order instead.
  struct Cand {
    uint32_t Proc = 0;
    uint32_t Inst = 0;
    uint32_t Target = 0;
    LitInfo *L = nullptr; // into SP.Lits, which nothing resizes here
    /// The conversion nullified the PV load, so reverting it resurrects
    /// one instruction (at OM-full, where nullified code is deleted).
    bool LoadWasNullified = false;
    bool Admitted = false;
  };

  // Per-procedure census on the pool: live instruction counts, branch
  // counts (for the insertion allowances, matching pessimisticProcEnds),
  // candidate conversions and compiler-BSR constraints. Decisions below
  // stay serial in procedure order, so -jN is byte-identical to -j1.
  std::vector<uint64_t> LiveInsts(N, 0), Branches(N, 0);
  std::vector<std::vector<Cand>> CandsOfProc(N);
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> BsrsOfProc(N);
  std::vector<std::string> ErrOfProc(N);
  Pool.parallelFor(N, [&](size_t P) {
    SymProc &Proc = SP.Procs[P];
    for (uint32_t Idx = 0; Idx < Proc.Insts.size(); ++Idx) {
      const SymInst &SI = Proc.Insts[Idx];
      if (SI.Kind == SKind::LocalBranch)
        ++Branches[P];
      if (!Full || !SI.Nullified)
        ++LiveInsts[P];
      if (SI.Kind != SKind::DirectCall)
        continue;
      if (SI.LitId == ~0u) {
        // Compiler-emitted BSR: range-valid in its own object, but a
        // reorder could stretch it; record the constraint.
        if (SI.TargetProc != ~0u)
          BsrsOfProc[P].emplace_back(static_cast<uint32_t>(P),
                                     SI.TargetProc);
        continue;
      }
      LitInfo *L = SP.lit(SI.LitId);
      if (!L) {
        // A converted call that lost its literal cannot revert, and
        // admitting it unchecked could emit an out-of-range BSR. This is
        // a link error in every build mode, not an assert-then-continue.
        if (ErrOfProc[P].empty())
          ErrOfProc[P] = formatString(
              "%s: converted call at instruction %u has no literal %u to "
              "revert through; refusing to emit an un-range-checked BSR",
              Proc.Name.c_str(), Idx, SI.LitId);
        continue;
      }
      Cand C;
      C.Proc = static_cast<uint32_t>(P);
      C.Inst = Idx;
      C.Target = SI.TargetProc;
      C.L = L;
      C.LoadWasNullified = Proc.Insts[L->LoadIdx].Nullified;
      CandsOfProc[P].push_back(C);
    }
  });
  for (const std::string &Msg : ErrOfProc)
    if (!Msg.empty())
      return Error::failure(Msg);
  std::vector<Cand> Cands;
  std::vector<std::pair<uint32_t, uint32_t>> CompilerBsrs;
  for (size_t P = 0; P < N; ++P) {
    Cands.insert(Cands.end(), CandsOfProc[P].begin(), CandsOfProc[P].end());
    CompilerBsrs.insert(CompilerBsrs.end(), BsrsOfProc[P].begin(),
                        BsrsOfProc[P].end());
  }
  if (Cands.empty() && (!LayoutLive || CompilerBsrs.empty()))
    return Error::success();

  // Worst-case per-procedure sizes in instruction slots: every candidate
  // reverted (its nullified PV load resurrected), nothing else deleted
  // beyond what is already nullified, and every possible insertion
  // counted — the same allowance formula as pessimisticProcEnds. Real
  // procedure sizes at assembly never exceed these, and admission only
  // shrinks them, so spans computed from them are monotone upper bounds.
  const bool Align = Full && Opts.AlignLoopTargets;
  const bool ProcCounters = Full && Opts.InstrumentProcedureCounts;
  const bool BlockCounters = Full && Opts.InstrumentBlockCounts;
  auto buildWorst = [&](bool WithLayout) {
    std::vector<uint64_t> W(N);
    for (size_t P = 0; P < N; ++P) {
      uint64_t Fixups = WithLayout ? 2 * Branches[P] + 2 : 0;
      W[P] = LiveInsts[P] + (ProcCounters ? 1 : 0) +
             (BlockCounters ? Branches[P] : 0) + Fixups +
             (Align ? Branches[P] + Fixups : 0);
    }
    for (const Cand &C : Cands)
      if (Full && C.LoadWasNullified)
        ++W[C.Proc];
    return W;
  };
  std::vector<uint64_t> BaseWorst = buildWorst(LayoutLive);

  // The procedure order reach is decided against: what the profile layout
  // will apply. Computing it here (before any emission-stage mutation)
  // and handing the same permutation to runProfileLayout keeps the two
  // consistent by construction.
  if (LayoutLive)
    ProcOrder = proposeProcOrder(SP, Opts);

  std::vector<uint64_t> Worst(N), Base(N), End(N);
  auto computeLayout = [&]() {
    uint64_t Cur = 0;
    auto Place = [&](uint32_t P) {
      Cur = (Cur + 15) & ~15ull;
      Base[P] = Cur;
      Cur += Worst[P] * 4;
      End[P] = Cur;
    };
    if (ProcOrder.empty())
      for (uint32_t P = 0; P < N; ++P)
        Place(P);
    else
      for (uint32_t P : ProcOrder)
        Place(P);
  };
  // Both the call site and its target lie within their procedures'
  // [Base, End) spans, so the displacement magnitude is bounded by the
  // span of everything between the two procedures inclusive. Spans are
  // sums of per-procedure 16-byte-aligned sizes, monotone in each size,
  // so a bound that holds under the worst case holds in the final image.
  auto fits = [&](uint32_t A, uint32_t B) {
    uint64_t Hi = std::max(End[A], End[B]);
    uint64_t Lo = std::min(Base[A], Base[B]);
    return Hi - Lo <= BsrReachBytes;
  };
  auto runFixpoint = [&]() {
    Worst = BaseWorst;
    for (Cand &C : Cands)
      C.Admitted = false;
    bool Changed = true;
    while (Changed) {
      ++Stats.BsrRelaxRounds;
      Changed = false;
      computeLayout();
      for (Cand &C : Cands) {
        if (C.Admitted || !fits(C.Proc, C.Target))
          continue;
        C.Admitted = true;
        if (Full && C.LoadWasNullified)
          --Worst[C.Proc]; // the PV load stays deleted after all
        Changed = true;
      }
    }
    // The loop exits after a no-change round, whose layout at the top
    // already reflects every admission; Base/End are the fixpoint state.
  };
  auto compilerBsrsFit = [&]() {
    for (const auto &[A, B] : CompilerBsrs)
      if (!fits(A, B))
        return false;
    return true;
  };

  runFixpoint();
  if (LayoutLive && !compilerBsrsFit()) {
    // An un-revertible compiler BSR cannot survive the proposed order:
    // veto the reorder and re-run against the identity order.
    if (!ProcOrder.empty()) {
      ProcOrder.clear();
      runFixpoint();
    }
    if (!compilerBsrsFit()) {
      // Even identity order fails once layout may insert fixup branches;
      // drop the layout pass entirely and relax without its allowances.
      // (Without layout no code moves or grows, so the constraint
      // reduces to the compiler's own object-local guarantee.)
      LayoutAllowed = false;
      BaseWorst = buildWorst(false);
      runFixpoint();
    }
  }

  // Commit: admitted conversions survive as BSRs; the rest revert to
  // their original JSR through the (re-activated) GAT load. This runs
  // before the first data layout so reverted literals get GAT slots back.
  uint64_t Retained = 0;
  for (const Cand &C : Cands) {
    if (C.Admitted) {
      ++Retained;
      continue;
    }
    SymProc &Proc = SP.Procs[C.Proc];
    SymInst &SI = Proc.Insts[C.Inst];
    LitInfo &L = *C.L;
    SymInst &Load = Proc.Insts[L.LoadIdx];
    // Restore the original call shape: JSR through the PV register the
    // (re-activated) GAT load provides. Re-entering the callee at its
    // first instruction is correct even when prologue skipping was
    // decided: the prologue is deleted only if every remaining direct
    // call skips it, and this site is no longer a direct call.
    SI.Kind = SKind::JsrViaGat;
    SI.I = makeJump(Opcode::Jsr, RA, Load.I.Ra);
    SI.TargetProc = ~0u;
    SI.SkipPrologue = false;
    // The load may have been nullified by the dataflow's equal-PV proof
    // rather than by prologue skipping; the revert resurrects it either
    // way (harmless when the proof held — the reload is a no-op), so the
    // proof bookkeeping must follow or verifyDeletionProofs would check
    // a deletion that no longer exists.
    if (Load.AnalysisNullified && Load.Nullified) {
      Load.AnalysisNullified = false;
      checkedDecrement(Stats.AnalysisPvLoadsDeleted);
    }
    Load.Nullified = false;
    checkedDecrement(Stats.JsrConvertedToBsr);
    ++Stats.BsrFallbackJsrs;
  }
  Stats.BsrRetainedByRelax += Retained;
  return Error::success();
}

//===----------------------------------------------------------------------===//
// Address-load decisions.
//===----------------------------------------------------------------------===//

bool Emitter::decideAddressLoads(const DataLayout &DL, bool Commit) {
  // Each literal reads and writes only its owning procedure's
  // instructions, so procedures decide independently over their own
  // literal-id ranges; the per-procedure flags OR-reduce to the same
  // Changed the serial scan returned.
  std::vector<uint8_t> ChangedInProc(SP.Procs.size(), 0);
  Pool.parallelFor(SP.Procs.size(), [&](size_t P) {
    SymProc &Proc = SP.Procs[P];
    for (uint32_t LitId = Proc.LitBegin; LitId < Proc.LitEnd; ++LitId) {
      const LitInfo &L = SP.Lits[LitId];
      if (L.Proc != P)
        continue; // no load: nothing to decide
      SymInst &Load = Proc.Insts[L.LoadIdx];
      if (Load.Kind != SKind::AddressLoad || Load.Nullified ||
          Load.Converted)
        continue;
      if (L.JsrIdx >= 0)
        continue; // feeds a call: PV must be the exact procedure address
      const PSym &Target = SP.Syms[L.TargetSym];
      if (Target.IsProc)
        continue; // escaping procedure address: must stay exact
      int64_t A = static_cast<int64_t>(Target.Addr);
      int64_t G = static_cast<int64_t>(DL.GpValue[Proc.GpGroup]);

      if (L.escapes()) {
        // &variable: the loaded value must be exact, so only a
        // one-instruction LDA can replace it.
        if (fitsDisp16(A - G)) {
          if (Commit)
            Load.Converted = true;
          ChangedInProc[P] = 1;
        }
        continue;
      }

      // Mixed direct and derived uses never come out of our compiler; be
      // conservative if they somehow appear.
      if (L.NumMem != 0 && L.NumDeref != 0)
        continue;
      // A derived-pointer chain needs its address computation rewritten as
      // well; keep chains with unusual shapes.
      if (L.NumDeref != 0 && L.NumAddr != 1)
        continue;

      // The displacement-carrying instructions: direct memory uses, or the
      // dereferences at the end of an address-arithmetic chain.
      std::span<const uint32_t> DispUses =
          L.NumDeref == 0 ? SP.memUses(L) : SP.derefUses(L);
      if (DispUses.empty())
        continue; // derived address never dereferenced: leave alone
      bool AllNear = true;
      bool HaveHigh = false;
      int32_t SharedHigh = 0;
      bool HighConsistent = true;
      for (uint32_t UseIdx : DispUses) {
        const SymInst &Use = Proc.Insts[UseIdx];
        int64_t Du = A - G + Use.OrigDisp;
        if (!fitsDisp16(Du))
          AllNear = false;
        int32_t High, Low;
        splitDisp32(Du, High, Low);
        if (!fitsDisp16(High))
          HighConsistent = false;
        else if (!HaveHigh) {
          SharedHigh = High;
          HaveHigh = true;
        } else if (High != SharedHigh) {
          HighConsistent = false;
        }
      }
      if (AllNear) {
        if (Commit)
          Load.Nullified = true;
        ChangedInProc[P] = 1;
      } else if (HighConsistent && HaveHigh) {
        if (Commit)
          Load.Converted = true;
        ChangedInProc[P] = 1;
      }
    }
  });
  bool Changed = false;
  for (uint8_t C : ChangedInProc)
    Changed |= C != 0;
  return Changed;
}

Error Emitter::applyRewrites(const DataLayout &DL) {
  // Range guards below are real link errors, not asserts: the decisions
  // were committed against an earlier layout, and GAT shrinking between
  // rounds can legitimately move a symbol out of the range the decision
  // assumed. Truncating the displacement (what the unchecked encode would
  // do, silently, in NDEBUG builds) is a miscompile; failing the link is
  // the only safe answer, and it must fire in release builds too.
  //
  // Procedures rewrite independently; failures land in per-procedure
  // slots and the first in procedure order is reported — the error the
  // serial loop raised, since literal ids ascend in procedure order.
  std::vector<std::string> Errors(SP.Procs.size());
  Pool.parallelFor(SP.Procs.size(), [&](size_t P) {
    SymProc &Proc = SP.Procs[P];
    for (uint32_t LitId = Proc.LitBegin; LitId < Proc.LitEnd; ++LitId) {
      const LitInfo &L = SP.Lits[LitId];
      if (L.Proc != P)
        continue; // no load: nothing to rewrite
      SymInst &Load = Proc.Insts[L.LoadIdx];
      if (Load.Kind != SKind::AddressLoad)
        continue;
      const PSym &Target = SP.Syms[L.TargetSym];
      int64_t A = static_cast<int64_t>(Target.Addr);
      int64_t G = static_cast<int64_t>(DL.GpValue[Proc.GpGroup]);

      std::span<const uint32_t> DispUses =
          L.NumDeref == 0 ? SP.memUses(L) : SP.derefUses(L);

      if (Load.Converted) {
        if (L.escapes()) {
          if (!fitsDisp16(A - G)) {
            Errors[P] = formatString(
                "%s: literal %u (&%s): converted escaping load's GP "
                "displacement %lld exceeds 16 bits after layout",
                Proc.Name.c_str(), LitId, Target.Name.c_str(),
                static_cast<long long>(A - G));
            return;
          }
          Load.I = makeMem(Opcode::Lda, Load.I.Ra,
                           static_cast<int32_t>(A - G), GP);
        } else {
          if (DispUses.empty()) {
            Errors[P] = formatString(
                "%s: literal %u (&%s): converted load has no uses to take "
                "the low displacement", Proc.Name.c_str(), LitId,
                Target.Name.c_str());
            return;
          }
          int32_t High = 0, Low = 0;
          // All uses share the same high part; recompute from the first.
          splitDisp32(A - G + Proc.Insts[DispUses[0]].OrigDisp, High, Low);
          if (!fitsDisp16(High)) {
            Errors[P] = formatString(
                "%s: literal %u (&%s): converted load's high displacement "
                "%d exceeds 16 bits after layout", Proc.Name.c_str(),
                LitId, Target.Name.c_str(), High);
            return;
          }
          Load.I = makeMem(Opcode::Ldah, Load.I.Ra, High, GP);
          for (uint32_t UseIdx : DispUses) {
            SymInst &Use = Proc.Insts[UseIdx];
            int32_t UHigh, ULow;
            splitDisp32(A - G + Use.OrigDisp, UHigh, ULow);
            if (UHigh != High) {
              Errors[P] = formatString(
                  "%s: literal %u (&%s): uses no longer share one high "
                  "displacement after layout (%d vs %d)",
                  Proc.Name.c_str(), LitId, Target.Name.c_str(), UHigh,
                  High);
              return;
            }
            Use.I.Disp = ULow;
          }
        }
        continue;
      }
      if (Load.Nullified && !DispUses.empty()) {
        // Folded into the uses: direct memory uses become GP-relative, and
        // chained address computations add to GP instead of the (dead)
        // loaded base.
        for (uint32_t UseIdx : DispUses) {
          SymInst &Use = Proc.Insts[UseIdx];
          int64_t Du = A - G + Use.OrigDisp;
          if (!fitsDisp16(Du)) {
            Errors[P] = formatString(
                "%s: literal %u (&%s): nullified load's use displacement "
                "%lld exceeds 16 bits after layout", Proc.Name.c_str(),
                LitId, Target.Name.c_str(), static_cast<long long>(Du));
            return;
          }
          if (L.NumDeref == 0)
            Use.I.Rb = GP; // direct use: rebase onto GP
          Use.I.Disp = static_cast<int32_t>(Du);
        }
        for (uint32_t AddrIdx : SP.addrUses(L))
          Proc.Insts[AddrIdx].I.Rb = GP;
      }
    }
  });
  for (const std::string &Msg : Errors)
    if (!Msg.empty())
      return Error::failure(Msg);
  return Error::success();
}

Error Emitter::addressLoads() {
  bool Full = Opts.Level == OmLevel::Full;
  DL = layoutData(/*IncludeAllLiterals=*/!Full);
  // Later layouts only drop GAT slots, so if this one fits, they do.
  if (DL.Overflow)
    return DL.Overflow;
  if (Opts.Level != OmLevel::None) {
    if (Full) {
      // Fixpoint: decisions shrink the GAT, which moves data closer to
      // GP, which enables more decisions.
      for (unsigned Round = 0; Round < 8; ++Round) {
        bool Changed = decideAddressLoads(DL, /*Commit=*/true);
        DataLayout Next = layoutData(/*IncludeAllLiterals=*/false);
        bool Same = Next.GatBytes == DL.GatBytes;
        DL = std::move(Next);
        if (!Changed && Same)
          break;
      }
    } else {
      decideAddressLoads(DL, /*Commit=*/true);
    }
    if (Error E = applyRewrites(DL))
      return E;
  }

  // Address-load accounting must precede deletion (deleted loads vanish).
  // Neither the relaxation nor the decisions change an instruction count
  // or an SKind, so the totals are the input's. Counts reduce in
  // procedure order.
  struct Loads {
    uint64_t Total = 0, Converted = 0, Nullified = 0;
  };
  std::vector<Loads> LoadsOfProc(SP.Procs.size());
  Pool.parallelFor(SP.Procs.size(), [&](size_t P) {
    Loads &L = LoadsOfProc[P];
    for (const SymInst &SI : SP.Procs[P].Insts)
      if (SI.Kind == SKind::AddressLoad) {
        ++L.Total;
        if (SI.Converted)
          ++L.Converted;
        else if (SI.Nullified)
          ++L.Nullified;
      }
  });
  for (size_t P = 0; P < SP.Procs.size(); ++P) {
    Stats.InstructionsTotal += SP.Procs[P].Insts.size();
    Stats.AddressLoadsTotal += LoadsOfProc[P].Total;
    Stats.AddressLoadsConverted += LoadsOfProc[P].Converted;
    Stats.AddressLoadsNullified += LoadsOfProc[P].Nullified;
  }
  Stats.GatBytesBefore = SP.OriginalGatEntries * 8;
  Stats.TextBytesBefore = Stats.InstructionsTotal * 4;
  return Error::success();
}

//===----------------------------------------------------------------------===//
// Deletion, rescheduling, alignment.
//===----------------------------------------------------------------------===//

Error Emitter::deleteNullified() {
  // Per-procedure compaction is independent; deletion counts reduce in
  // procedure order after the barrier.
  std::vector<uint64_t> DeletedInProc(SP.Procs.size(), 0);
  Pool.parallelFor(SP.Procs.size(), [&](size_t P) {
    SymProc &Proc = SP.Procs[P];
    std::vector<uint32_t> OldToNew(Proc.Insts.size() + 1, 0);
    std::vector<SymInst> Kept;
    Kept.reserve(Proc.Insts.size());
    for (size_t Idx = 0; Idx < Proc.Insts.size(); ++Idx) {
      OldToNew[Idx] = static_cast<uint32_t>(Kept.size());
      if (Proc.Insts[Idx].Nullified)
        ++DeletedInProc[P];
      else
        Kept.push_back(Proc.Insts[Idx]);
    }
    OldToNew[Proc.Insts.size()] = static_cast<uint32_t>(Kept.size());
    for (SymInst &SI : Kept)
      if (SI.Kind == SKind::LocalBranch)
        SI.TargetIdx = static_cast<int32_t>(OldToNew[SI.TargetIdx]);
    Proc.Insts = std::move(Kept);
  });
  for (uint64_t Count : DeletedInProc)
    Stats.InstructionsDeleted += Count;
  // Literal bookkeeping indices are stale after deletion; transforms and
  // decisions are all complete by now, so drop the table to make any
  // accidental later use loud.
  SP.dropLiterals();
  return Error::success();
}

Error Emitter::reschedule() {
  // With the dataflow live, classify every memory base register (GAT/data
  // vs stack) against the post-deletion program; the scheduler then skips
  // ordering edges between proven-disjoint accesses. Without it every
  // access is Unknown, the historical conservative ordering. The analysis
  // runs here, after deleteNullified dropped SP.Lits, so a JSR the
  // relaxation reverted reads as an indirect call; the emitted images were
  // scheduled against exactly that view.
  const analysis::ProgramAnalysis *PA =
      Opts.Analysis ? &Ctx.program() : nullptr;

  // Scheduling is a pure function of each procedure's instructions, so
  // procedures reschedule independently; freed-pair counts reduce in
  // procedure order.
  std::vector<uint64_t> FreedInProc(SP.Procs.size(), 0);
  Pool.parallelFor(SP.Procs.size(), [&](size_t P) {
    SymProc &Proc = SP.Procs[P];
    std::vector<SymInst> &Insts = Proc.Insts;
    if (Insts.empty())
      return;
    std::vector<sched::MemRegion> Bases;
    if (PA)
      Bases = analysis::memBaseRegions(SP, *PA, static_cast<uint32_t>(P));

    // Regions start at branch targets and past the prologue GP pair, which
    // its own region keeps in order (the LDA reads the LDAH's GP).
    std::vector<Inst> Code;
    Code.reserve(Insts.size());
    std::vector<bool> RegionStarts(Insts.size(), false);
    for (const SymInst &SI : Insts) {
      Code.push_back(SI.I);
      if (SI.Kind == SKind::LocalBranch &&
          static_cast<size_t>(SI.TargetIdx) < Insts.size())
        RegionStarts[SI.TargetIdx] = true;
    }
    if (size_t Body = Proc.postPrologueIndex(); Body < Insts.size())
      RegionStarts[Body] = true;

    sched::SchedStats SStats;
    std::vector<SymInst> NewInsts;
    NewInsts.reserve(Insts.size());
    for (size_t From :
         sched::scheduleWithBarriers(Code, RegionStarts, Bases, &SStats))
      NewInsts.push_back(std::move(Insts[From]));
    FreedInProc[P] = SStats.MemDepPairsFreed;
    Insts = std::move(NewInsts);
  });
  for (uint64_t Count : FreedInProc)
    Stats.SchedMemDepsFreed += Count;
  return Error::success();
}

Error Emitter::instrumentProcedureCounts() {
  // ATOM-style counters (section 6). Entry counters go after each
  // procedure's GP prologue, where both fall-through entry and
  // prologue-skipping BSRs pass. With block counting on, every branch
  // target (the heads of the recovered control structure) gets one too.
  // Insertions proceed from the highest position downward; branch targets
  // at or past an insertion point shift by one, so loop back-edges land
  // on their counter while straight-line fall-through passes it exactly
  // when the block executes.
  uint32_t NextCounter = 0;
  for (uint32_t ProcIdx = 0; ProcIdx < SP.Procs.size(); ++ProcIdx) {
    SymProc &Proc = SP.Procs[ProcIdx];

    std::set<uint32_t> Points;
    Points.insert(Proc.postPrologueIndex());
    if (Opts.InstrumentBlockCounts)
      for (const SymInst &SI : Proc.Insts)
        if (SI.Kind == SKind::LocalBranch)
          Points.insert(static_cast<uint32_t>(SI.TargetIdx));

    // Assign counter ids in ascending source order for readable labels,
    // but insert in descending order so earlier points stay valid.
    std::vector<uint32_t> Ascending(Points.begin(), Points.end());
    std::map<uint32_t, uint32_t> CounterAt;
    for (uint32_t At : Ascending) {
      CounterAt[At] = NextCounter++;
      Out.ProfiledProcedures.push_back(
          At == Proc.postPrologueIndex()
              ? Proc.Name
              : Proc.Name + "+" + std::to_string(At));
    }
    // Branch-target adjustment differs by mode: block counters must be
    // executed by branches into their block (a target equal to the
    // insertion point keeps pointing at the counter, so back-edges count
    // every iteration); pure entry counters must not re-count on loops
    // to the entry position (such targets skip past the counter).
    bool BlockMode = Opts.InstrumentBlockCounts;
    for (size_t Rev = Ascending.size(); Rev-- > 0;) {
      uint32_t At = Ascending[Rev];
      for (SymInst &SI : Proc.Insts)
        if (SI.Kind == SKind::LocalBranch &&
            (BlockMode ? SI.TargetIdx > static_cast<int32_t>(At)
                       : SI.TargetIdx >= static_cast<int32_t>(At)))
          ++SI.TargetIdx;
      SymInst Counter;
      Counter.I = makePalCount(CounterAt[At]);
      Proc.Insts.insert(Proc.Insts.begin() + At, Counter);
      ++Stats.InstrumentationInserted;
    }
  }
  return Error::success();
}

Error Emitter::profileLayout() {
  // Last of the code-motion stages: every other transform is done, so the
  // block structure the profile keyed against is final. The procedure
  // order applied here is the one relaxDirectCalls already validated
  // every BSR against.
  return LayoutAllowed ? runProfileLayout(SP, Opts, Stats, Pool, ProcOrder)
                       : Error::success();
}

//===----------------------------------------------------------------------===//
// Final assembly.
//===----------------------------------------------------------------------===//

Error Emitter::assemble() {
  bool Align = Opts.Level == OmLevel::Full && Opts.AlignLoopTargets;

  // Per-procedure offsets, inserting alignment nops before targets of
  // backward branches ("quadword-aligning instructions that are the
  // targets of backward branches", section 4). Relative offsets compute
  // per procedure in parallel — every procedure starts 16-byte aligned,
  // so the mod-8 alignment decisions cannot observe the base — and a
  // serial prefix pass accumulates bases and nop counts in procedure
  // order.
  ProcBase.resize(SP.Procs.size());
  InstOffset.resize(SP.Procs.size());
  std::vector<uint64_t> BytesOfProc(SP.Procs.size(), 0);
  std::vector<uint64_t> NopsOfProc(SP.Procs.size(), 0);
  Pool.parallelFor(SP.Procs.size(), [&](size_t P) {
    const SymProc &Proc = SP.Procs[P];
    std::vector<bool> BackTarget(Proc.Insts.size(), false);
    if (Align)
      for (size_t Idx = 0; Idx < Proc.Insts.size(); ++Idx) {
        const SymInst &SI = Proc.Insts[Idx];
        // Cold code (split off by the profile-guided layout) earns no
        // alignment padding: neither a never-executed branch nor a target
        // in the cold tail justifies the nops.
        if (SI.Kind == SKind::LocalBranch &&
            SI.TargetIdx <= static_cast<int32_t>(Idx) && !SI.Cold &&
            !Proc.Insts[static_cast<size_t>(SI.TargetIdx)].Cold)
          BackTarget[SI.TargetIdx] = true;
      }

    InstOffset[P].resize(Proc.Insts.size());
    uint64_t Off = 0;
    for (size_t Idx = 0; Idx < Proc.Insts.size(); ++Idx) {
      if (Align && BackTarget[Idx] && Off % 8 != 0) {
        Off += 4; // an alignment nop will be placed here
        ++NopsOfProc[P];
      }
      InstOffset[P][Idx] = static_cast<uint32_t>(Off);
      Off += 4;
    }
    BytesOfProc[P] = Off;
  });
  uint64_t Cur = 0;
  for (uint32_t ProcIdx = 0; ProcIdx < SP.Procs.size(); ++ProcIdx) {
    Cur = (Cur + 15) & ~15ull;
    ProcBase[ProcIdx] = Cur;
    Cur += BytesOfProc[ProcIdx];
    Stats.NopsInserted += NopsOfProc[ProcIdx];
  }
  TextBytes = Cur;

  // Procedure symbol addresses.
  for (uint32_t ProcIdx = 0; ProcIdx < SP.Procs.size(); ++ProcIdx)
    SP.Syms[SP.Procs[ProcIdx].SymId].Addr =
        Layout::TextBase + ProcBase[ProcIdx];

  Image &Img = Out.Image;
  Img.TextBase = Layout::TextBase;
  Img.DataBase = Layout::DataBase;
  Img.GatBase = Layout::DataBase;
  Img.GatSize = DL.GatBytes;
  Img.BssSize = DL.BssBytes;

  uint32_t NopWord = encode(Inst::nop());
  Img.Text.assign(TextBytes, 0);
  for (size_t Off = 0; Off + 4 <= Img.Text.size(); Off += 4)
    for (unsigned Byte = 0; Byte < 4; ++Byte)
      Img.Text[Off + Byte] = static_cast<uint8_t>(NopWord >> (8 * Byte));

  // Encode procedures concurrently: each writes only its own (disjoint)
  // byte range of the text and reads shared layout state that is frozen by
  // now. Failures land in per-procedure slots; the first in procedure
  // order is reported, matching the serial loop's error exactly.
  std::vector<std::string> EncodeErrors(SP.Procs.size());
  Pool.parallelFor(SP.Procs.size(), [&](size_t ProcIdxS) {
    uint32_t ProcIdx = static_cast<uint32_t>(ProcIdxS);
    SymProc &Proc = SP.Procs[ProcIdx];
    int64_t G = static_cast<int64_t>(DL.GpValue[Proc.GpGroup]);
    uint64_t LastCallEnd = 0; // text offset just after the last call

    for (size_t Idx = 0; Idx < Proc.Insts.size(); ++Idx) {
      SymInst &SI = Proc.Insts[Idx];
      uint64_t Off = ProcBase[ProcIdx] + InstOffset[ProcIdx][Idx];
      Inst Out = SI.I;

      if (SI.Nullified) {
        Out = Inst::nop();
      } else {
        switch (SI.Kind) {
        case SKind::AddressLoad:
          if (!SI.Converted) {
            auto It = DL.Slot.find(slotKey(Proc.GpGroup, SI.TargetSym));
            if (It == DL.Slot.end()) {
              EncodeErrors[ProcIdx] =
                  "internal: live address load without a GAT slot for " +
                  SP.Syms[SI.TargetSym].Name;
              return;
            }
            int64_t SlotAddr = static_cast<int64_t>(
                DL.GroupBase[Proc.GpGroup] + It->second * 8ull);
            // A real error, not an assert: a slot pushed out of the GP
            // window would otherwise encode a truncated displacement in
            // NDEBUG builds (load from the wrong slot at run time).
            if (!fitsDisp16(SlotAddr - G)) {
              EncodeErrors[ProcIdx] = formatString(
                  "%s: GAT slot of %s is %lld bytes from GP, beyond the "
                  "16-bit displacement", Proc.Name.c_str(),
                  SP.Syms[SI.TargetSym].Name.c_str(),
                  static_cast<long long>(SlotAddr - G));
              return;
            }
            Out.Disp = static_cast<int32_t>(SlotAddr - G);
          }
          break;
        case SKind::GpHigh:
        case SKind::GpLow: {
          uint64_t Anchor = SI.GpKind == GpDispKind::Prologue
                                ? ProcBase[ProcIdx]
                                : LastCallEnd;
          int64_t Value =
              G - static_cast<int64_t>(Layout::TextBase + Anchor);
          if (!fitsDisp32(Value)) {
            EncodeErrors[ProcIdx] =
                Proc.Name + ": GP displacement exceeds 32 bits";
            return;
          }
          int32_t High, Low;
          splitDisp32(Value, High, Low);
          Out.Disp = SI.Kind == SKind::GpHigh ? High : Low;
          break;
        }
        case SKind::LocalBranch: {
          uint64_t TargetOff =
              ProcBase[ProcIdx] +
              InstOffset[ProcIdx][static_cast<size_t>(SI.TargetIdx)];
          int64_t Disp = (static_cast<int64_t>(TargetOff) -
                          static_cast<int64_t>(Off) - 4) / 4;
          if (!fitsBranchDisp(Disp)) {
            EncodeErrors[ProcIdx] = Proc.Name + ": branch out of range";
            return;
          }
          Out.Disp = static_cast<int32_t>(Disp);
          break;
        }
        case SKind::DirectCall: {
          const SymProc &Callee = SP.Procs[SI.TargetProc];
          uint64_t Target = ProcBase[SI.TargetProc];
          if (SI.SkipPrologue) {
            uint32_t Post = Callee.postPrologueIndex();
            Target = ProcBase[SI.TargetProc] +
                     (Post < Callee.Insts.size()
                          ? InstOffset[SI.TargetProc][Post]
                          : Callee.Insts.size() * 4);
          }
          int64_t Disp = (static_cast<int64_t>(Target) -
                          static_cast<int64_t>(Off) - 4) / 4;
          if (!fitsBranchDisp(Disp)) {
            // The relaxation pass reverts every call this could happen
            // to; reaching here means its pessimistic bound was wrong.
            EncodeErrors[ProcIdx] =
                Proc.Name + ": BSR out of range; JSR fallback required";
            return;
          }
          Out.Disp = static_cast<int32_t>(Disp);
          break;
        }
        default:
          break;
        }
      }

      // GP-low instructions paired with a prologue high use the same
      // anchor; track the end of calls for post-call anchors.
      if (!SI.Nullified &&
          (SI.Kind == SKind::DirectCall || SI.Kind == SKind::JsrViaGat ||
           SI.Kind == SKind::JsrIndirect))
        LastCallEnd = Off + 4;

      uint32_t Word = encode(Out);
      for (unsigned Byte = 0; Byte < 4; ++Byte)
        Img.Text[Off + Byte] = static_cast<uint8_t>(Word >> (8 * Byte));
    }
  });
  for (const std::string &Msg : EncodeErrors)
    if (!Msg.empty())
      return Error::failure(Msg);

  // Data: GAT groups then data symbols.
  Img.Data.assign(DL.DataBytes, 0);
  for (uint32_t Gr = 0; Gr < SP.NumGroups; ++Gr) {
    uint64_t Base = DL.GroupBase[Gr] - Layout::DataBase;
    for (size_t Slot = 0; Slot < DL.GroupSyms[Gr].size(); ++Slot) {
      uint64_t Value = SP.Syms[DL.GroupSyms[Gr][Slot]].Addr;
      for (unsigned Byte = 0; Byte < 8; ++Byte)
        Img.Data[Base + Slot * 8 + Byte] =
            static_cast<uint8_t>(Value >> (8 * Byte));
    }
  }
  for (const PSym &S : SP.Syms) {
    if (S.IsProc || S.IsBss || S.Init.empty())
      continue;
    uint64_t Off = S.Addr - Layout::DataBase;
    if (Off + S.Init.size() <= Img.Data.size())
      std::copy(S.Init.begin(), S.Init.end(),
                Img.Data.begin() + static_cast<ptrdiff_t>(Off));
  }

  // Symbols and procedure table.
  for (const PSym &S : SP.Syms) {
    ImageSymbol IS;
    IS.Name = S.Name;
    IS.Addr = S.Addr;
    IS.Size = S.IsProc ? SP.Procs[S.ProcIdx].Insts.size() * 4 : S.Size;
    IS.IsProcedure = S.IsProc;
    Img.Symbols.push_back(std::move(IS));
  }
  for (uint32_t ProcIdx = 0; ProcIdx < SP.Procs.size(); ++ProcIdx) {
    const SymProc &Proc = SP.Procs[ProcIdx];
    ImageProc IP;
    IP.Name = Proc.Name;
    IP.Entry = Layout::TextBase + ProcBase[ProcIdx];
    IP.Size = Proc.Insts.size() * 4;
    IP.GpGroup = Proc.GpGroup;
    IP.GpValue = DL.GpValue[Proc.GpGroup];
    Img.Procs.push_back(std::move(IP));
    if (Proc.IsEntry) {
      Img.Entry = IP.Entry;
      Img.InitialGp = IP.GpValue;
    }
  }
  finalizeStats();
  return Error::success();
}

//===----------------------------------------------------------------------===//
// Statistics.
//===----------------------------------------------------------------------===//

void Emitter::finalizeStats() {
  Stats.GatBytesAfter = DL.GatBytes;
  Stats.GpGroups = SP.NumGroups;
  Stats.TextBytesAfter = TextBytes;

  // Per-procedure counting is independent (the callee scans are read-only
  // and no instruction mutates here); counters reduce in procedure order
  // after the barrier.
  struct Counts {
    uint64_t Nullified = 0, GpResets = 0, Calls = 0, PvLoads = 0;
  };
  std::vector<Counts> CountsOfProc(SP.Procs.size());
  Pool.parallelFor(SP.Procs.size(), [&](size_t P) {
    Counts &C = CountsOfProc[P];
    const SymProc &Proc = SP.Procs[P];
    for (size_t Idx = 0; Idx < Proc.Insts.size(); ++Idx) {
      const SymInst &SI = Proc.Insts[Idx];
      if (SI.Nullified)
        ++C.Nullified;
      // GP-reset pairs correspond 1:1 to the calls that emitted them, so
      // a surviving post-call pair means its call still needs resets.
      if (SI.Kind == SKind::GpHigh && SI.GpKind == GpDispKind::PostCall &&
          !SI.Nullified)
        ++C.GpResets;

      bool IsCall = SI.Kind == SKind::JsrViaGat ||
                    SI.Kind == SKind::JsrIndirect ||
                    SI.Kind == SKind::DirectCall;
      if (!IsCall)
        continue;
      ++C.Calls;
      bool NeedsPv = false;
      switch (SI.Kind) {
      case SKind::JsrViaGat:
      case SKind::JsrIndirect:
        NeedsPv = true;
        break;
      case SKind::DirectCall: {
        // The callee reads PV if any live prologue GP-set remains in it,
        // wherever compile-time scheduling may have left it.
        const SymProc &Callee = SP.Procs[SI.TargetProc];
        bool CalleeReadsPv = false;
        for (const SymInst &CI : Callee.Insts)
          if (CI.Kind == SKind::GpHigh &&
              CI.GpKind == GpDispKind::Prologue && !CI.Nullified)
            CalleeReadsPv = true;
        NeedsPv = CalleeReadsPv && !SI.SkipPrologue;
        break;
      }
      default:
        break;
      }
      if (NeedsPv)
        ++C.PvLoads;
    }
  });
  for (const Counts &C : CountsOfProc) {
    Stats.InstructionsNullified += C.Nullified;
    Stats.CallsNeedingGpReset += C.GpResets;
    Stats.CallsTotal += C.Calls;
    Stats.CallsNeedingPvLoad += C.PvLoads;
  }
}
