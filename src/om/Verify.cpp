//===- om/Verify.cpp - OM correctness verification -------------------------=//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of OmVerify's two layers: the structural invariant
/// checker over the symbolic form, and the differential-execution harness
/// comparing OM levels on the functional simulator. See Verify.h.
///
//===----------------------------------------------------------------------===//

#include "om/Verify.h"

#include "om/Analysis.h"
#include "om/OmImpl.h"
#include "sim/SuiteRunner.h"
#include "support/Diagnostics.h"
#include "support/Format.h"

#include <algorithm>
#include <map>

using namespace om64;
using namespace om64::om;
using namespace om64::obj;

//===----------------------------------------------------------------------===//
// Structural invariants.
//===----------------------------------------------------------------------===//

namespace {

/// A check's verdict: success when \p Diags holds no error, else a failure
/// whose message is \p Heading and the rendered diagnostics.
Error checkResult(const DiagnosticEngine &Diags, const std::string &Heading) {
  if (!Diags.hasErrors())
    return Error::success();
  return Error::failure(Heading + ":\n" + Diags.render());
}

/// Bundles the diagnostic plumbing so every check site stays one line.
class Checker {
public:
  Checker(const SymbolicProgram &SP, const std::string &Stage,
          DiagnosticEngine &Diags)
      : SP(SP), Stage(Stage), Diags(Diags) {}

  /// Reports a violation at instruction \p InstIdx of \p ProcIdx
  /// (ProcIdx == ~0u for program-level problems).
  void bad(uint32_t ProcIdx, size_t InstIdx, std::string Message) {
    std::string Buffer = Stage;
    if (ProcIdx != ~0u && ProcIdx < SP.Procs.size())
      Buffer += ":" + SP.Procs[ProcIdx].Name;
    SourceLoc Loc;
    Loc.Line = static_cast<uint32_t>(InstIdx + 1);
    Diags.error(Buffer, Loc, std::move(Message));
  }

  void checkSymbols();
  void checkProc(uint32_t ProcIdx);
  void checkLits();
  /// True when \p L's use slice lies inside SP.LitUses.
  bool usesInRange(const LitInfo &L) const {
    return uint64_t(L.UseBegin) + L.NumMem + L.NumAddr + L.NumDeref <=
           SP.LitUses.size();
  }

private:
  const SymbolicProgram &SP;
  const std::string &Stage;
  DiagnosticEngine &Diags;
};

void Checker::checkSymbols() {
  for (uint32_t SymId = 0; SymId < SP.Syms.size(); ++SymId) {
    const PSym &S = SP.Syms[SymId];
    if (!S.IsProc)
      continue;
    if (S.ProcIdx >= SP.Procs.size()) {
      bad(~0u, ~0u, "procedure symbol '" + S.Name +
                        "' has out-of-range ProcIdx " +
                        std::to_string(S.ProcIdx));
      continue;
    }
    if (SP.Procs[S.ProcIdx].SymId != SymId)
      bad(S.ProcIdx, ~0u,
          "procedure symbol '" + S.Name + "' and procedure disagree on "
          "their linkage (SymId mismatch)");
  }
}

void Checker::checkProc(uint32_t ProcIdx) {
  const SymProc &Proc = SP.Procs[ProcIdx];
  size_t N = Proc.Insts.size();
  bool HaveLits = !SP.Lits.empty();

  // GpHigh/GpLow pairing state, keyed by PairId.
  struct PairState {
    int High = -1;
    int Low = -1;
    unsigned Highs = 0;
    unsigned Lows = 0;
  };
  std::map<uint32_t, PairState> Pairs;

  for (size_t Idx = 0; Idx < N; ++Idx) {
    const SymInst &SI = Proc.Insts[Idx];
    switch (SI.Kind) {
    case SKind::LocalBranch:
      if (SI.TargetIdx < 0 || static_cast<size_t>(SI.TargetIdx) >= N)
        bad(ProcIdx, Idx,
            "local branch target " + std::to_string(SI.TargetIdx) +
                " outside the procedure (" + std::to_string(N) +
                " instructions)");
      break;
    case SKind::DirectCall:
      if (SI.TargetProc >= SP.Procs.size())
        bad(ProcIdx, Idx, "direct call to out-of-range procedure index " +
                              std::to_string(SI.TargetProc));
      break;
    case SKind::GpHigh: {
      PairState &P = Pairs[SI.PairId];
      P.High = static_cast<int>(Idx);
      ++P.Highs;
      break;
    }
    case SKind::GpLow: {
      PairState &P = Pairs[SI.PairId];
      P.Low = static_cast<int>(Idx);
      ++P.Lows;
      break;
    }
    case SKind::AddressLoad:
      if (HaveLits) {
        const LitInfo *L = SP.lit(SI.LitId);
        if (!L)
          bad(ProcIdx, Idx, "address load's literal " +
                                std::to_string(SI.LitId) +
                                " is not in the literal table");
        else if (L->Proc != ProcIdx ||
                 L->LoadIdx != static_cast<uint32_t>(Idx))
          bad(ProcIdx, Idx,
              "address load is not where literal " +
                  std::to_string(SI.LitId) + " records its load (LoadIdx " +
                  std::to_string(L->LoadIdx) + ")");
        else if (L->TargetSym != SI.TargetSym)
          bad(ProcIdx, Idx, "address load and literal " +
                                std::to_string(SI.LitId) +
                                " disagree on the target symbol");
      }
      break;
    case SKind::LitUseMem:
    case SKind::LitUseAddr:
    case SKind::LitUseDeref:
      if (HaveLits) {
        const LitInfo *L = SP.lit(SI.LitId);
        if (!L) {
          bad(ProcIdx, Idx, "literal use's literal " +
                                std::to_string(SI.LitId) +
                                " is not in the literal table");
          break;
        }
        if (!usesInRange(*L))
          break; // checkLits reports the literal itself
        std::span<const uint32_t> Uses =
            SI.Kind == SKind::LitUseMem    ? SP.memUses(*L)
            : SI.Kind == SKind::LitUseAddr ? SP.addrUses(*L)
                                           : SP.derefUses(*L);
        if (std::find(Uses.begin(), Uses.end(),
                      static_cast<uint32_t>(Idx)) == Uses.end())
          bad(ProcIdx, Idx,
              "literal use is not listed at its own index by literal " +
                  std::to_string(SI.LitId) + " (stale use list)");
      }
      break;
    case SKind::JsrViaGat:
      if (HaveLits) {
        const LitInfo *L = SP.lit(SI.LitId);
        if (!L)
          bad(ProcIdx, Idx, "JSR-via-GAT's literal " +
                                std::to_string(SI.LitId) +
                                " is not in the literal table");
        else if (L->JsrIdx != static_cast<int32_t>(Idx))
          bad(ProcIdx, Idx,
              "JSR-via-GAT is not where literal " +
                  std::to_string(SI.LitId) + " records its call (JsrIdx " +
                  std::to_string(L->JsrIdx) + ")");
      }
      break;
    case SKind::Plain:
    case SKind::JsrIndirect:
      break;
    }
  }

  for (const auto &[PairId, P] : Pairs) {
    if (P.Highs != 1 || P.Lows != 1) {
      bad(ProcIdx, P.High >= 0 ? P.High : (P.Low >= 0 ? P.Low : 0),
          "GP pair " + std::to_string(PairId) + " has " +
              std::to_string(P.Highs) + " high and " +
              std::to_string(P.Lows) + " low instruction(s)");
      continue;
    }
    if (P.High > P.Low)
      bad(ProcIdx, P.High, "GP pair " + std::to_string(PairId) +
                               ": the high half follows the low half");
    const SymInst &High = Proc.Insts[P.High];
    const SymInst &Low = Proc.Insts[P.Low];
    if (High.GpKind != Low.GpKind)
      bad(ProcIdx, P.High, "GP pair " + std::to_string(PairId) +
                               ": halves disagree on prologue/post-call");
    if (High.Nullified != Low.Nullified)
      bad(ProcIdx, High.Nullified ? P.High : P.Low,
          "GP pair " + std::to_string(PairId) +
              " is half-nullified (corrupts GP: the surviving half adds "
              "its displacement to the wrong base)");
  }
}

void Checker::checkLits() {
  for (uint32_t LitId = 0; LitId < SP.Lits.size(); ++LitId) {
    const LitInfo &L = SP.Lits[LitId];
    if (!L.recorded())
      continue;
    std::string Tag = "literal " + std::to_string(LitId);
    if (!usesInRange(L)) {
      bad(~0u, ~0u, Tag + " records uses outside the use array");
      continue;
    }
    if (L.Proc == ~0u) {
      if (!L.escapes())
        bad(~0u, ~0u, Tag + " has recorded uses but no owning procedure");
      continue;
    }
    if (L.Proc >= SP.Procs.size()) {
      bad(~0u, ~0u, Tag + " names out-of-range procedure " +
                        std::to_string(L.Proc));
      continue;
    }
    const SymProc &Proc = SP.Procs[L.Proc];
    size_t N = Proc.Insts.size();
    if (L.TargetSym >= SP.Syms.size())
      bad(L.Proc, ~0u, Tag + " targets out-of-range symbol " +
                           std::to_string(L.TargetSym));

    if (L.LoadIdx >= N) {
      bad(L.Proc, ~0u, Tag + " records out-of-range LoadIdx " +
                           std::to_string(L.LoadIdx));
      continue;
    }
    const SymInst &Load = Proc.Insts[L.LoadIdx];
    if (Load.Kind != SKind::AddressLoad || Load.LitId != LitId) {
      bad(L.Proc, L.LoadIdx,
          Tag + ": LoadIdx points at a non-matching instruction "
                "(stale index after reordering?)");
      continue;
    }

    auto checkUses = [&](std::span<const uint32_t> Uses, SKind Want,
                         const char *What) {
      for (uint32_t UseIdx : Uses) {
        if (UseIdx >= N) {
          bad(L.Proc, ~0u, Tag + " records out-of-range " + What +
                               " index " + std::to_string(UseIdx));
          continue;
        }
        const SymInst &Use = Proc.Insts[UseIdx];
        if (Use.Kind != Want || Use.LitId != LitId)
          bad(L.Proc, UseIdx, Tag + ": " + What +
                                  " index points at a non-matching "
                                  "instruction (stale index?)");
      }
    };
    checkUses(SP.memUses(L), SKind::LitUseMem, "MemUses");
    checkUses(SP.addrUses(L), SKind::LitUseAddr, "AddrUses");
    checkUses(SP.derefUses(L), SKind::LitUseDeref, "DerefUses");

    bool JsrLive = false;
    if (L.JsrIdx >= 0) {
      if (static_cast<size_t>(L.JsrIdx) >= N) {
        bad(L.Proc, ~0u, Tag + " records out-of-range JsrIdx " +
                             std::to_string(L.JsrIdx));
        continue;
      }
      const SymInst &Jsr = Proc.Insts[L.JsrIdx];
      // The call site is either the original JSR or the DirectCall it was
      // converted to; both keep the literal id.
      if ((Jsr.Kind != SKind::JsrViaGat && Jsr.Kind != SKind::DirectCall) ||
          Jsr.LitId != LitId)
        bad(L.Proc, L.JsrIdx,
            Tag + ": JsrIdx points at a non-matching instruction "
                  "(stale index after reordering?)");
      JsrLive = Jsr.Kind == SKind::JsrViaGat && !Jsr.Nullified;
    }

    if (Load.Nullified && !Load.AnalysisNullified) {
      // Nullified loads with direct/derived uses are fine (the uses get
      // folded onto GP), but a JSR still reading the loaded register, or
      // an escaping use OM cannot see, means a live consumer lost its
      // producer. Analysis-based deletions legitimately hit both shapes —
      // a JSR whose register provably already holds the callee, or an
      // escaping load whose destination is provably dead — and are
      // re-proved by verifyDeletionProofs instead.
      if (JsrLive)
        bad(L.Proc, L.LoadIdx,
            Tag + ": PV load nullified while its JSR still calls through "
                  "the loaded register");
      if (L.escapes())
        bad(L.Proc, L.LoadIdx,
            Tag + ": escaping literal's load nullified (the loaded "
                  "address has unseen consumers)");
    }
  }
}

} // namespace

Error om64::om::verifyStage(const SymbolicProgram &SP,
                            const std::string &Stage, ThreadPool *Pool) {
  DiagnosticEngine Diags;
  {
    Checker C(SP, Stage, Diags);
    C.checkSymbols();
  }
  // The per-procedure checks are read-only over disjoint procedures; run
  // them on the pool into private engines, then merge in procedure order so
  // the diagnostic stream matches the serial one exactly.
  if (Pool && Pool->threadCount() > 1 && SP.Procs.size() > 1) {
    std::vector<DiagnosticEngine> PerProc(SP.Procs.size());
    Pool->parallelFor(SP.Procs.size(), [&](size_t ProcIdx) {
      Checker C(SP, Stage, PerProc[ProcIdx]);
      C.checkProc(static_cast<uint32_t>(ProcIdx));
    });
    for (DiagnosticEngine &E : PerProc)
      Diags.append(std::move(E));
  } else {
    Checker C(SP, Stage, Diags);
    for (uint32_t ProcIdx = 0; ProcIdx < SP.Procs.size(); ++ProcIdx)
      C.checkProc(ProcIdx);
  }
  if (!SP.Lits.empty()) {
    Checker C(SP, Stage, Diags);
    C.checkLits();
  }
  return checkResult(Diags,
                     "OM invariant check failed after stage '" + Stage + "'");
}

//===----------------------------------------------------------------------===//
// Deletion-proof verification.
//===----------------------------------------------------------------------===//

namespace {

/// Re-derives the dataflow proof for one procedure's analysis deletions.
/// Sound to run against the post-deletion program: every analysis deletion
/// removes a provable no-op or a dead write, so the facts that justified it
/// survive the deletion itself.
void checkProcProofs(const SymbolicProgram &SP,
                     const analysis::ProgramAnalysis &PA,
                     const analysis::ProgramLiveness &Live, uint32_t ProcIdx,
                     DiagnosticEngine &Diags) {
  const SymProc &Proc = SP.Procs[ProcIdx];
  auto bad = [&](uint32_t InstIdx, std::string Message) {
    SourceLoc Loc;
    Loc.Line = InstIdx + 1;
    Diags.error("deletion-proofs:" + Proc.Name, Loc, std::move(Message));
  };
  for (uint32_t Idx = 0; Idx < Proc.Insts.size(); ++Idx) {
    const SymInst &SI = Proc.Insts[Idx];
    if (!SI.AnalysisNullified)
      continue;
    if (!SI.Nullified) {
      bad(Idx,
          "instruction carries an analysis-deletion mark but is not "
          "nullified");
      continue;
    }
    switch (SI.Kind) {
    case SKind::GpLow:
      // Covered by its GpHigh below; the structural checker already
      // enforces that the two halves are deleted together.
      break;
    case SKind::GpHigh: {
      analysis::GpProof Pr = PA.gpBefore(SP, ProcIdx, Idx, Proc.GpGroup);
      if (Pr == analysis::GpProof::Unproven)
        bad(Idx, "deleted GP pair: dataflow no longer proves GP holds "
                 "group " +
                     std::to_string(Proc.GpGroup) +
                     " on every path into the pair");
      break;
    }
    case SKind::AddressLoad: {
      analysis::ValueState S = PA.valuesBefore(SP, ProcIdx, Idx);
      if (S.Unreachable)
        break; // no execution reaches the load; no value proof needed
      unsigned Dest = isa::intUnit(SI.I.Ra);
      if (!(Live.liveAfter(SP, PA, ProcIdx, Idx) & (1ull << Dest)))
        break; // destination dead: the load was unobservable
      // Remaining justification: the equal-value proof — the register
      // already held the loaded address, so the load was a no-op.
      uint32_t Target = ~0u;
      const LitInfo *L = SP.lit(SI.LitId);
      if (L && L->TargetSym < SP.Syms.size() && SP.Syms[L->TargetSym].IsProc)
        Target = SP.Syms[L->TargetSym].ProcIdx;
      if (Target == ~0u || !(S.R[Dest] == analysis::AbsVal::entryOf(Target)))
        bad(Idx, "deleted address load: destination is live and dataflow "
                 "no longer proves it already held the loaded value");
      break;
    }
    default:
      bad(Idx, "analysis-deletion mark on an instruction kind the "
               "analysis never deletes");
      break;
    }
  }
}

} // namespace

Error om64::om::verifyDeletionProofs(const SymbolicProgram &SP,
                                     ThreadPool &Pool) {
  analysis::SummaryCache Local;
  analysis::ProgramAnalysis PA = analysis::analyzeProgram(SP, Pool, Local);
  analysis::ProgramLiveness Live =
      analysis::analyzeLiveness(SP, PA, Pool, Local);

  DiagnosticEngine Diags;
  std::vector<DiagnosticEngine> PerProc(SP.Procs.size());
  Pool.parallelFor(SP.Procs.size(), [&](size_t ProcIdx) {
    checkProcProofs(SP, PA, Live, static_cast<uint32_t>(ProcIdx),
                    PerProc[ProcIdx]);
  });
  for (DiagnosticEngine &E : PerProc)
    Diags.append(std::move(E));

  // The dataflow may only ever *narrow* the pattern matcher's GP reach
  // sets; a group the dataflow claims reachable that the pattern excludes
  // means one of the two computations is wrong. The exact multi-word
  // pattern rows project onto the dataflow's one-word form (groups >= 64
  // collapse to ~0), which can only widen the pattern side — so the subset
  // check stays sound.
  GroupReachability Pattern = computeReachableGroups(SP, Pool);
  for (uint32_t P = 0; P < SP.Procs.size(); ++P) {
    uint64_t Extra = PA.ReachableGroups[P] & ~Pattern.projected64(P);
    if (Extra) {
      SourceLoc Loc;
      Diags.error("deletion-proofs:" + SP.Procs[P].Name, Loc,
                  "analysis reach set claims groups the pattern reach set "
                  "excludes (extra mask " +
                      formatHex64(Extra) + ")");
    }
  }

  return checkResult(Diags, "OM deletion-proof check failed");
}

Error om64::om::verifyMemBaseRegions(const SymbolicProgram &SP,
                                     const analysis::ProgramAnalysis &PA,
                                     ThreadPool &Pool) {
  analysis::ProgramAnalysis Fresh = analysis::analyzeProgram(SP, Pool);
  auto name = [](sched::MemRegion R) {
    switch (R) {
    case sched::MemRegion::Global:
      return "global";
    case sched::MemRegion::Stack:
      return "stack";
    default:
      return "unknown";
    }
  };
  std::vector<DiagnosticEngine> PerProc(SP.Procs.size());
  Pool.parallelFor(SP.Procs.size(), [&](size_t P) {
    const uint32_t ProcIdx = static_cast<uint32_t>(P);
    std::vector<sched::MemRegion> Got =
        analysis::memBaseRegions(SP, PA, ProcIdx);
    std::vector<sched::MemRegion> Want =
        analysis::memBaseRegions(SP, Fresh, ProcIdx);
    for (size_t I = 0; I < Got.size(); ++I) {
      if (Got[I] == Want[I])
        continue;
      SourceLoc Loc;
      Loc.Line = static_cast<uint32_t>(I + 1);
      PerProc[P].error("sched-regions:" + SP.Procs[P].Name, Loc,
                       formatString("%s: base region %s, but a fresh full "
                                    "analysis says %s",
                                    isa::opcodeName(SP.Procs[P].Insts[I].I.Op),
                                    name(Got[I]), name(Want[I])));
    }
  });
  DiagnosticEngine Diags;
  for (DiagnosticEngine &E : PerProc)
    Diags.append(std::move(E));
  return checkResult(Diags, "OM scheduler-region check failed");
}

//===----------------------------------------------------------------------===//
// Post-assembly BSR range audit.
//===----------------------------------------------------------------------===//

Error om64::om::verifyBsrRanges(const Image &Img) {
  // Procedure spans sorted by entry for the landing check. The table is
  // emitted in layout order, which is address order, but sort defensively:
  // this is the auditor, so it must not inherit the assumptions it audits.
  std::vector<const ImageProc *> ByEntry;
  ByEntry.reserve(Img.Procs.size());
  for (const ImageProc &P : Img.Procs)
    ByEntry.push_back(&P);
  std::sort(ByEntry.begin(), ByEntry.end(),
            [](const ImageProc *A, const ImageProc *B) {
              return A->Entry < B->Entry;
            });
  auto ProcAt = [&](uint64_t Addr) -> const ImageProc * {
    auto It = std::upper_bound(ByEntry.begin(), ByEntry.end(), Addr,
                               [](uint64_t A, const ImageProc *P) {
                                 return A < P->Entry;
                               });
    if (It == ByEntry.begin())
      return nullptr;
    const ImageProc *P = *std::prev(It);
    return Addr < P->Entry + P->Size ? P : nullptr;
  };

  const uint64_t TextEnd = Img.TextBase + Img.Text.size();
  std::vector<uint32_t> Words = Img.textWords();
  for (size_t Idx = 0; Idx < Words.size(); ++Idx) {
    std::optional<isa::Inst> I = isa::decode(Words[Idx]);
    if (!I || I->Op != isa::Opcode::Bsr)
      continue;
    uint64_t Site = Img.TextBase + Idx * 4;
    // The encoded field is 21 bits, so the displacement trivially "fits";
    // the audit is that the target the hardware would compute from it
    // lands at a real instruction of a real procedure.
    uint64_t Target = Site + 4 + static_cast<int64_t>(I->Disp) * 4;
    const ImageProc *SiteProc = ProcAt(Site);
    std::string Where =
        (SiteProc ? SiteProc->Name : std::string("<no procedure>")) +
        formatString("+0x%llx (text offset 0x%llx)",
                     (unsigned long long)(SiteProc ? Site - SiteProc->Entry
                                                   : 0),
                     (unsigned long long)(Idx * 4));
    if (Target < Img.TextBase || Target >= TextEnd)
      return Error::failure(
          "BSR range audit: bsr at " + Where +
          formatString(" targets 0x%llx, outside the text segment",
                       (unsigned long long)Target));
    if (!ProcAt(Target))
      return Error::failure(
          "BSR range audit: bsr at " + Where +
          formatString(" targets 0x%llx, inside text but not inside any "
                       "procedure's span",
                       (unsigned long long)Target));
  }
  return Error::success();
}

//===----------------------------------------------------------------------===//
// Canonical memory hash.
//===----------------------------------------------------------------------===//

namespace {

constexpr uint64_t FnvOffset = 1469598103934665603ull;
constexpr uint64_t FnvPrime = 1099511628211ull;

uint64_t fnv1a(uint64_t H, const void *Bytes, size_t N) {
  const uint8_t *P = static_cast<const uint8_t *>(Bytes);
  for (size_t I = 0; I < N; ++I) {
    H ^= P[I];
    H *= FnvPrime;
  }
  return H;
}

uint64_t fnv1aStr(uint64_t H, const std::string &S) {
  H = fnv1a(H, S.data(), S.size());
  uint8_t Sep = 0;
  return fnv1a(H, &Sep, 1);
}

uint64_t fnv1aU64(uint64_t H, uint64_t V) { return fnv1a(H, &V, 8); }

} // namespace

uint64_t om64::om::canonicalMemoryHash(const Image &Img,
                                       const std::vector<uint8_t> &Final) {
  // Data symbols sorted by address, for pointer-to-symbol resolution, and
  // by name, for the deterministic walk order.
  std::vector<const ImageSymbol *> ByAddr, ByName;
  for (const ImageSymbol &S : Img.Symbols)
    if (!S.IsProcedure) {
      ByAddr.push_back(&S);
      ByName.push_back(&S);
    }
  std::sort(ByAddr.begin(), ByAddr.end(),
            [](const ImageSymbol *A, const ImageSymbol *B) {
              return A->Addr < B->Addr;
            });
  std::sort(ByName.begin(), ByName.end(),
            [](const ImageSymbol *A, const ImageSymbol *B) {
              return A->Name < B->Name;
            });

  uint64_t TextEnd = Img.TextBase + Img.Text.size();
  uint64_t DataEnd = Img.DataBase + Img.dataSegmentSize();

  // Normalizes one stored quadword: addresses become symbolic references
  // so the hash is independent of the link-time layout.
  auto hashValue = [&](uint64_t H, uint64_t V) {
    if (V >= Img.TextBase && V < TextEnd) {
      for (const ImageProc &P : Img.Procs)
        if (V >= P.Entry && V < P.Entry + P.Size) {
          H = fnv1a(H, "T", 1);
          H = fnv1aStr(H, P.Name);
          return fnv1aU64(H, V - P.Entry);
        }
      H = fnv1a(H, "T?", 2);
      return fnv1aU64(H, 0);
    }
    if (V >= Img.DataBase && V < DataEnd) {
      // Last symbol starting at or before V.
      auto It = std::upper_bound(ByAddr.begin(), ByAddr.end(), V,
                                 [](uint64_t Addr, const ImageSymbol *S) {
                                   return Addr < S->Addr;
                                 });
      if (It != ByAddr.begin()) {
        const ImageSymbol *S = *(It - 1);
        if (V < S->Addr + std::max<uint64_t>(S->Size, 1)) {
          H = fnv1a(H, "D", 1);
          H = fnv1aStr(H, S->Name);
          return fnv1aU64(H, V - S->Addr);
        }
      }
      H = fnv1a(H, "D?", 2);
      return fnv1aU64(H, 0);
    }
    H = fnv1a(H, "V", 1);
    return fnv1aU64(H, V);
  };

  uint64_t H = FnvOffset;
  for (const ImageSymbol *S : ByName) {
    uint64_t Off = S->Addr - Img.DataBase;
    if (S->Addr < Img.DataBase || Off + S->Size > Final.size())
      continue; // not materialized (empty program); nothing to hash
    H = fnv1aStr(H, S->Name);
    uint64_t Quads = S->Size / 8;
    for (uint64_t Q = 0; Q < Quads; ++Q) {
      uint64_t V = 0;
      for (unsigned Byte = 0; Byte < 8; ++Byte)
        V |= static_cast<uint64_t>(Final[Off + Q * 8 + Byte]) << (8 * Byte);
      H = hashValue(H, V);
    }
    // Sub-quadword tail, hashed raw (cannot hold an 8-byte pointer).
    H = fnv1a(H, Final.data() + Off + Quads * 8, S->Size % 8);
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Differential execution.
//===----------------------------------------------------------------------===//

Result<DifferentialReport>
om64::om::runDifferential(const std::vector<ObjectFile> &Objects,
                          const OmOptions &Base) {
  struct LegCfg {
    OmLevel Level;
    bool Sched;
  };
  const LegCfg Cfgs[] = {{OmLevel::None, false},
                         {OmLevel::Simple, false},
                         {OmLevel::Full, false},
                         {OmLevel::Full, true}};

  auto legName = [](const LegCfg &Cfg) {
    return std::string("OM-") + levelName(Cfg.Level) +
           (Cfg.Sched ? "+sched" : "");
  };

  // Link every leg serially — omlink fans each link out onto its own
  // worker pool, so stacking the legs would only oversubscribe the host.
  // The images must stay alive past the runs: canonicalMemoryHash walks
  // their symbol tables against the final data snapshot.
  std::vector<OmResult> Linked;
  for (const LegCfg &Cfg : Cfgs) {
    OmOptions Opts = Base;
    Opts.Level = Cfg.Level;
    Opts.Reschedule = Cfg.Sched;
    Opts.AlignLoopTargets = Cfg.Sched;
    // Instrumentation inserts code and is rejected below OM-full; the
    // differential question is about the optimizations, so drop it.
    Opts.InstrumentProcedureCounts = false;
    Opts.InstrumentBlockCounts = false;

    Result<OmResult> R = optimize(Objects, Opts);
    if (!R)
      return Result<DifferentialReport>::failure("differential leg " +
                                                 legName(Cfg) + ": " +
                                                 R.message());
    if (Error E = R->Image.verify())
      return Result<DifferentialReport>::failure(
          "differential leg " + legName(Cfg) + ": image verification: " +
          E.message());
    Linked.push_back(std::move(*R));
  }

  // The runs are independent, so execute the legs concurrently (one
  // suite job each).
  const size_t NLegs = Linked.size();
  std::vector<sim::SuiteJob> Jobs(NLegs);
  for (size_t I = 0; I < NLegs; ++I) {
    Jobs[I].Name = legName(Cfgs[I]);
    Jobs[I].Image = &Linked[I].Image;
    Jobs[I].Config.Timing = false;
  }
  std::vector<sim::SuiteJobResult> Runs = sim::runSuite(Jobs);
  for (const sim::SuiteJobResult &Run : Runs)
    if (!Run.Ok)
      return Result<DifferentialReport>::failure(
          "differential leg " + Run.Name + ": execution: " + Run.Error);

  DifferentialReport Report;
  for (size_t I = 0; I < NLegs; ++I) {
    const sim::SimResult &Run = Runs[I].Result;
    DifferentialLeg Leg;
    Leg.Level = Cfgs[I].Level;
    Leg.Sched = Cfgs[I].Sched;
    Leg.ExitCode = Run.ExitCode;
    Leg.Output = Run.Output;
    Leg.MemoryHash = canonicalMemoryHash(Linked[I].Image, Run.FinalData);
    Leg.Instructions = Run.Instructions;
    Report.Legs.push_back(std::move(Leg));
  }

  const DifferentialLeg &Ref = Report.Legs.front();
  for (size_t Idx = 1; Idx < Report.Legs.size(); ++Idx) {
    const DifferentialLeg &Leg = Report.Legs[Idx];
    std::string LegName = std::string("OM-") + levelName(Leg.Level) +
                          (Leg.Sched ? "+sched" : "");
    if (Leg.ExitCode != Ref.ExitCode)
      return Result<DifferentialReport>::failure(
          "differential mismatch: " + LegName + " exited with " +
          std::to_string(Leg.ExitCode) + ", OM-none with " +
          std::to_string(Ref.ExitCode));
    if (Leg.Output != Ref.Output)
      return Result<DifferentialReport>::failure(
          "differential mismatch: " + LegName + " produced " +
          std::to_string(Leg.Output.size()) + " output bytes differing "
          "from OM-none's " + std::to_string(Ref.Output.size()));
    if (Leg.MemoryHash != Ref.MemoryHash)
      return Result<DifferentialReport>::failure(
          "differential mismatch: " + LegName +
          " left different final memory (canonical hash " +
          formatHex64(Leg.MemoryHash) + " vs " +
          formatHex64(Ref.MemoryHash) + ")");
  }
  return Report;
}
