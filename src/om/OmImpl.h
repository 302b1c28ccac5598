//===- om/OmImpl.h - Private interfaces between OM's phases ---------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//

#ifndef OM64_OM_OMIMPL_H
#define OM64_OM_OMIMPL_H

#include "om/Analysis.h"
#include "om/Lint.h"
#include "om/Om.h"
#include "om/SymbolicProgram.h"
#include "support/Result.h"
#include "support/ThreadPool.h"

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace om64 {
namespace om {

/// Shared state of one OM run that the phases thread through: the dataflow
/// analysis (om/Analysis.h) and its liveness, computed lazily and cached
/// per mutation epoch.
/// The stage loop calls invalidate() after every stage that mutates (a
/// stage that mutates, then reads, calls it in between); the next program()
/// call recomputes against the mutated program, so no phase can consume
/// facts derived from a shape that no longer exists (the same bug class
/// OmVerify exists for, closed structurally). Through the link's
/// SummaryCache, a recompute re-derives only what the mutation moved.
///
/// Every run is one kind: CFGs, block-entry values and value summaries.
/// In an OM-full link with --analysis, the lint (--lint), deletion Passes
/// A and B and the rescheduler (after deleteNullified) each ask for the
/// program's analysis; only Pass B also asks for liveness. The lint layers
/// its memory domain over the same analysis (om/Lint.h).
class OmContext {
public:
  OmContext(SymbolicProgram &SP, ThreadPool &Pool, analysis::SummaryCache &SC)
      : SP(SP), Pool(Pool), SC(SC) {}

  /// Marks every cached analysis stale. Cheap; call after any mutation.
  void invalidate() { ++Epoch; }

  /// The analysis of the current program, recomputing if stale.
  const analysis::ProgramAnalysis &program() {
    if (!Cached || CachedEpoch != Epoch) {
      Cached.emplace(analysis::analyzeProgram(SP, Pool, SC));
      CachedEpoch = Epoch;
      Live.reset();
    }
    return *Cached;
  }

  /// Liveness of the current program against program(), computed on the
  /// first ask per epoch through the link's cache.
  const analysis::ProgramLiveness &liveness() {
    const analysis::ProgramAnalysis &PA = program();
    if (!Live)
      Live.emplace(analysis::analyzeLiveness(SP, PA, Pool, SC));
    return *Live;
  }

  ThreadPool &pool() { return Pool; }

private:
  SymbolicProgram &SP;
  ThreadPool &Pool;
  /// The link's memo of fixpoint rounds and liveness. Verify.cpp and the
  /// report-only lint use call-local caches, sharing no entry with it.
  analysis::SummaryCache &SC;
  uint64_t Epoch = 0;
  uint64_t CachedEpoch = ~0ull;
  std::optional<analysis::ProgramAnalysis> Cached;
  std::optional<analysis::ProgramLiveness> Live;
};

/// One procedure's literal table as the lift builds it: local literal ids
/// index Lits, and each literal's uses sit in Uses at UseBegin. The lift's
/// merge copies every procedure's table into SymbolicProgram::Lits and
/// LitUses at the procedure's prefix-summed bases.
struct LocalLitTable {
  std::vector<LitInfo> Lits;
  std::vector<uint32_t> Uses;
};

/// Per-module memo of the lift, keyed by module position. A slot is
/// reusable when the module's serialized bytes are unchanged AND its
/// resolution signature — the program symbol ids its GAT entries resolve
/// to — is unchanged; together those cover every cross-module input
/// liftProc consumes (AddressLoad targets come from resolve() of GAT
/// entries, DirectCall targets are stashed as object-local entry offsets
/// until the rebase, and literal ids are procedure-local until then).
/// Owned by the incremental relinker; a from-scratch link passes nullptr.
struct LiftCache {
  struct ProcData {
    /// The lifted instructions in pre-rebase form: literal ids are
    /// procedure-local, DirectCall targets are object-local text offsets.
    std::vector<SymInst> Insts;
    /// The procedure-local literal table (LitInfo::Proc is ~0u here and
    /// UseBegin indexes Lits.Uses; the lift's merge rebases both).
    LocalLitTable Lits;
    bool MakesIndirectCalls = false;
  };
  struct Slot {
    bool Valid = false;
    uint64_t ContentHash = 0;   ///< hash of the module's serialized bytes
    uint64_t ResolutionSig = 0; ///< hash of its GAT resolution results
    std::vector<ProcData> Procs;
  };

  /// Content hash of each module in the current link, set by the caller
  /// before liftProgram (the caller hashes the raw bytes it parsed).
  std::vector<uint64_t> CurrentHashes;
  std::vector<Slot> Slots;

  // Reuse counters for the last lift (telemetry for RelinkStats).
  uint64_t ModulesReused = 0, ModulesLifted = 0;
  uint64_t ProcsReused = 0, ProcsLifted = 0;
};

/// Object code -> symbolic form. Resolves symbols, recovers procedures,
/// literals with their uses, GP-disp pairs, local branches, and direct
/// calls; assigns GP groups per object. Per-procedure decoding runs on
/// \p Pool; symbol resolution, literal-id assignment, and the final merge
/// stay serial and proc-ordered so the result is identical for any pool
/// size. With \p Cache, per-procedure decode/classify work is skipped for
/// modules whose cache slot matches (see LiftCache); the result is
/// bit-identical to an uncached lift because only the pre-rebase
/// per-procedure product is memoized and every cross-module fixup still
/// runs.
Result<SymbolicProgram> liftProgram(const std::vector<obj::ObjectFile> &Objs,
                                    const OmOptions &Opts, ThreadPool &Pool,
                                    LiftCache *Cache = nullptr);

/// The call-related transforms (JSR->BSR, prologue restoration/skipping/
/// deletion, PV-load removal, GP-reset nullification). Applies the subset
/// appropriate for Opts.Level and updates Stats counters it owns
/// (JsrConvertedToBsr, the AnalysisXxx deletion counts). Per-caller
/// rewriting runs on \p Ctx's pool against callee facts snapshotted
/// between phases; the cross-procedure reachability analysis stays serial.
/// With Opts.Analysis, a final phase deletes what the dataflow proves
/// (marking SymInst::AnalysisNullified), invalidating \p Ctx between its
/// two passes so the second pass proves against the once-mutated program.
void runCallTransforms(SymbolicProgram &SP, const OmOptions &Opts,
                       OmStats &Stats, OmContext &Ctx);

/// Fails when \p TotalLiteralSites no longer fits the 32-bit literal-id
/// space (SymInst::LitId, with ~0u reserved), or \p TotalLiteralUses the
/// 32-bit use offsets of the literal table (LitInfo::UseBegin). The lift
/// accumulates the program-wide counts in 64 bits precisely so this check
/// sees the true totals instead of wrapped ones; exposed for the overflow
/// regression test.
Error checkLiteralIdSpace(uint64_t TotalLiteralSites,
                          uint64_t TotalLiteralUses);

/// Call-graph reachability of GP groups, exact at any group count: bit g
/// of row(P) is set when the subtree rooted at procedure P can execute
/// GP-setting code of group g. Rows are (NumGroups+63)/64 words; the old
/// single-word representation silently saturated to ~0 past 64 groups,
/// pessimizing every reset-nullification decision on mega-scale inputs
/// with per-module groups. This is the *pattern* side of the reset-safety
/// argument; the dataflow's ProgramAnalysis::ReachableGroups (still one
/// word, using its MaybeOther bit past 64 groups) must always be a subset
/// of projected64() (asserted by verifyDeletionProofs).
struct GroupReachability {
  uint32_t NumGroups = 1;
  uint32_t Words = 1;
  std::vector<uint64_t> Bits; // Procs x Words, row-major

  const uint64_t *row(uint32_t Proc) const { return &Bits[Proc * Words]; }

  /// True when procedure \p Proc's subtree can only reach \p Group.
  bool confinedTo(uint32_t Proc, uint32_t Group) const {
    const uint64_t *R = row(Proc);
    for (uint32_t W = 0; W < Words; ++W) {
      uint64_t Mask = W == Group / 64 ? ~(1ull << (Group % 64)) : ~0ull;
      if (R[W] & Mask)
        return false;
    }
    return true;
  }

  /// The row projected onto the legacy one-word form: bits 0..63 exact,
  /// any group >= 64 collapsing to ~0 (the superset the 64-bit consumers
  /// assumed). Sound for the subset audit because the dataflow side can
  /// only name groups < 64 individually.
  uint64_t projected64(uint32_t Proc) const {
    const uint64_t *R = row(Proc);
    for (uint32_t W = 1; W < Words; ++W)
      if (R[W])
        return ~0ull;
    return R[0];
  }
};

/// Computes exact group reachability for every procedure. The per-procedure
/// seeding/poisoning pass runs on \p Pool; the worklist fixpoint over the
/// reversed call graph is serial.
GroupReachability computeReachableGroups(const SymbolicProgram &SP,
                                         ThreadPool &Pool);

/// One data layout round's results.
struct DataLayout {
  std::vector<uint64_t> GroupBase; // address of each group's GAT
  std::vector<uint64_t> GpValue;
  // slotKey(group, symId) -> slot index within that group's GAT.
  std::unordered_map<uint64_t, uint32_t> Slot;
  std::vector<std::vector<uint32_t>> GroupSyms; // slot -> symId
  uint64_t DataBytes = 0; // initialized-data extent past the GATs
  uint64_t BssBytes = 0;
  uint64_t GatBytes = 0;
  /// Set when a data symbol would grow the segment past
  /// Layout::MaxDataBytes (the layout stops there).
  Error Overflow;
};

/// The layout-dependent half of OM (Emit.cpp). Each public member is one
/// row of runPipeline's stage table; together they fill \p Out's image,
/// its remaining Stats and the labels of any inserted profile counters.
/// Layout and the GAT fixpoint stay serial; deletion, rescheduling, and
/// encoding fan out per procedure on \p Ctx's pool. With Opts.Analysis,
/// the rescheduler consumes \p Ctx's base-register classification.
class Emitter {
public:
  Emitter(SymbolicProgram &SP, const OmOptions &Opts, OmResult &Out,
          OmContext &Ctx)
      : SP(SP), Opts(Opts), Out(Out), Stats(Out.Stats), Pool(Ctx.pool()),
        Ctx(Ctx) {}

  /// Worst-case-then-shrink BSR relaxation (Dickson's linear-time jump
  /// encoding, inverted to the shrink direction): start from a layout in
  /// which every OM-created JSR->BSR conversion is reverted (maximal
  /// text), then iteratively re-admit each conversion whose displacement
  /// fits under the current layout, re-running offset assignment until no
  /// call changes state. Sizes only shrink and 16-byte-aligned spans are
  /// monotone in them, so an admitted call stays admitted and the loop
  /// terminates. Reach is decided against the procedure order the profile
  /// layout proposes (ProcOrder); compiler-emitted BSRs — which cannot
  /// revert — are audited against the same fixpoint, vetoing first the
  /// reorder and then the layout pass itself (LayoutAllowed) if they
  /// cannot survive. Calls that stay reverted mutate back to their JSR
  /// (un-nullifying the PV load) before the first layout so their
  /// literals get GAT slots back. Serial decision order is the
  /// determinism barrier; per-procedure size census runs on the pool.
  /// Fails hard when a converted call's literal is missing — continuing
  /// would leave an un-range-checked BSR in the image.
  Error relaxDirectCalls();

  /// Lays out the GAT and data, decides every address load's fate (to a
  /// fixpoint at OM-full), rewrites displacements, and counts the loads.
  Error addressLoads();

  Error deleteNullified();
  Error reschedule();
  Error instrumentProcedureCounts();

  /// runProfileLayout with the order relaxDirectCalls validated, unless
  /// the relaxation vetoed the pass.
  Error profileLayout();

  /// Encodes the image into Out.Image and fills the remaining statistics.
  Error assemble();

private:
  /// Builds GAT contents and data addresses for the current decision
  /// state. When \p IncludeAllLiterals, every address load contributes its
  /// entry regardless of decisions (OM-simple / baseline behaviour).
  DataLayout layoutData(bool IncludeAllLiterals) const;

  /// One decision round; returns true if any load's fate changed.
  bool decideAddressLoads(const DataLayout &DL, bool Commit);

  /// Applies the recorded decisions' displacement rewrites against \p DL.
  /// Fails (in every build mode) if a committed decision's displacement no
  /// longer fits its field — e.g. after GAT shrinking moved a symbol —
  /// rather than silently truncating the displacement into a miscompile.
  Error applyRewrites(const DataLayout &DL);

  void finalizeStats();

  SymbolicProgram &SP;
  const OmOptions &Opts;
  OmResult &Out;
  OmStats &Stats;
  ThreadPool &Pool;
  OmContext &Ctx;

  /// The data layout addressLoads settled on; assemble emits against it.
  DataLayout DL;

  // Per-proc layout of the final text.
  std::vector<uint64_t> ProcBase;
  std::vector<std::vector<uint32_t>> InstOffset; // per proc, per inst
  uint64_t TextBytes = 0;

  /// Procedure order proposed by the profile layout and validated by the
  /// relaxation fixpoint; runProfileLayout applies exactly this
  /// permutation. Empty means identity.
  std::vector<uint32_t> ProcOrder;
  /// Cleared by relaxDirectCalls when even the identity order cannot keep
  /// every compiler BSR in reach once layout may insert fixups;
  /// profileLayout then skips the pass (the legacy whole-text bail, now
  /// reached only when genuinely necessary).
  bool LayoutAllowed = true;
};

/// Profile-guided hot/cold layout (OmOptions::HotColdLayout): reorders
/// each procedure's basic blocks by branch heat, splits never-executed
/// blocks into a cold tail (marking them SymInst::Cold), inserts fixup
/// branches where a moved block's fall-through no longer follows it, and
/// applies \p ProcOrder to SP.Procs (remapping TargetProc and
/// PSym::ProcIdx; an empty order means identity). The order must come
/// from proposeProcOrder over the same program — the BSR relaxation
/// already decided every call's reach against it, which is why this pass
/// no longer carries a whole-text reach gate. Runs per procedure on
/// \p Pool; the remap is serial, so the result is identical for any pool
/// size. Procedures the profile does not cover, covers with a mismatched
/// branch count, or that contain computed jumps / split GP pairs are left
/// untouched. Fails only on an internal invariant failure.
Error runProfileLayout(SymbolicProgram &SP, const OmOptions &Opts,
                       OmStats &Stats, ThreadPool &Pool,
                       const std::vector<uint32_t> &ProcOrder);

/// Resolves option implications into the exact configuration the pipeline
/// runs: OmLevel::None clears the layout-changing knobs, block-count
/// instrumentation implies procedure-count instrumentation (and both
/// require OM-full), VerifyEachStage implies Verify. Fails on an
/// inconsistent request, an unknown level, or a job count above
/// OmOptions::MaxJobs (options decoded from an omlinkd frame reach the
/// pipeline only through here). optimize() and the incremental relinker
/// share this so a warm relink runs the same configuration a one-shot
/// link would.
Result<OmOptions> canonicalizeOptions(const OmOptions &Opts);

/// The worker count the pipeline will actually use for \p Opts on \p Objs:
/// Opts.Jobs, forced to 1 when their text instructions total less than the
/// serial-fallback cutoff. The image never depends on the result.
unsigned effectiveJobs(const OmOptions &Opts,
                       const std::vector<obj::ObjectFile> &Objs);

/// The OM pipeline proper — everything optimize() does after option
/// canonicalization and pool selection: one loop over Om.cpp's stage
/// table, which times every stage into its OmStageSeconds bucket, runs
/// OmVerify's checks, and invalidates the analysis after every stage that
/// changes the symbolic form. \p Opts must already be canonicalized. \p LC
/// is an optional lift memo; \p SC the analysis memo (fresh per
/// optimize(), or the relinker's), whose counter growth fills the
/// Analysis* work stats. Any combination produces a byte-identical image.
Result<OmResult> runPipeline(const std::vector<obj::ObjectFile> &Objs,
                             const OmOptions &Opts, ThreadPool &Pool,
                             LiftCache *LC, analysis::SummaryCache &SC);

struct LintRun {
  std::vector<analysis::LintFinding> Findings;
  size_t Procs = 0; ///< procedures linted
};

/// The report-only lint of `omlink --lint` and `aaxlint`: lift, analyze
/// with a call-local cache, lintProgram, all on Opts.Jobs workers.
Result<LintRun> lintObjects(const std::vector<obj::ObjectFile> &Objs,
                            const OmOptions &Opts);

/// Pessimistic upper bound on each procedure's end offset in the final
/// text under \p Opts: nothing deleted, every possible insertion
/// (instrumentation counters, alignment nops, layout fixup branches)
/// counted, full start alignment paid. Shared by the BSR relaxation and
/// the layout order proposal so the two stay consistent.
std::vector<uint64_t> pessimisticProcEnds(const SymbolicProgram &SP,
                                          const OmOptions &Opts);

/// A BSR reaches +/-(2^20 - 1) words from the instruction after it. The
/// single definition shared by the relaxation fixpoint, the layout order
/// proposal, and the post-assembly range audit — these reasoned about
/// reach with two hand-copied constants before, with a comment pleading
/// that they stay consistent.
constexpr uint64_t BsrReachBytes = ((1ull << 20) - 1) * 4;

/// True when the profile-guided layout pass will actually move code for
/// \p Opts: OM-full, --layout=hot-cold, and a non-empty profile. The BSR
/// relaxation and the layout pass share this single gate so the
/// relaxation's insertion allowances always match what layout may insert.
inline bool profileLayoutLive(const OmOptions &Opts) {
  return Opts.Level == OmLevel::Full && Opts.HotColdLayout &&
         !Opts.Profile.empty();
}

/// Saturating decrement for OmStats counters. The revert path subtracts
/// from counters another phase incremented; if a future reordering ever
/// runs the revert before the increment, a raw `--` would wrap to ~1e19
/// and poison every stats consumer. Clamping at zero keeps the counter
/// merely wrong-by-one instead of absurd. Returns false when the counter
/// was already zero (callers may want to assert or log).
inline bool checkedDecrement(uint64_t &Counter) {
  if (Counter == 0)
    return false;
  --Counter;
  return true;
}

/// Computes the procedure order the profile-guided layout pass intends to
/// apply (runProfileLayout later applies exactly this permutation): chain
/// the dynamic call graph's hottest edges, order chains by heat, sink
/// never-executed procedures to the end. Returns an empty vector for the
/// identity order (profile layout not live, empty/unmatched profile, or a
/// heat order equal to the input order).
///
/// On images whose pessimistic text exceeds BsrReachBytes, procedures
/// connected by compiler-emitted BSRs (which cannot fall back to a JSR)
/// are first clustered and each cluster kept contiguous in the order, so
/// reordering cannot stretch an un-revertible call across the text. Below
/// that size the clustering is skipped and the order is exactly the
/// legacy heat order (keeping small-workload layouts byte-identical).
std::vector<uint32_t> proposeProcOrder(const SymbolicProgram &SP,
                                       const OmOptions &Opts);

} // namespace om
} // namespace om64

#endif // OM64_OM_OMIMPL_H
