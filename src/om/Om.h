//===- om/Om.h - The OM link-time optimizer --------------------------------=//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// OM, the link-time code-modification system of the paper: it translates
/// the object code of the entire program into a symbolic form, analyzes
/// and transforms it, and generates the executable from the result.
///
/// Three optimization levels mirror the paper's study:
///
///   * None   — link only; used to compute baseline ("no OM") statistics.
///   * Simple — what a traditional linker could do with local analysis and
///     no code motion: address loads become GP-relative LDA/LDAH or no-ops,
///     GP-reset pairs become no-ops, JSRs become BSRs, common symbols are
///     sorted by size next to the GAT. Instruction order never changes.
///   * Full   — code deletion and motion: GP prologues restored to
///     procedure entry, BSRs retargeted past prologues, PV loads removed,
///     nullified code deleted, the GAT reduced to a fixpoint, and
///     optionally basic blocks rescheduled with quadword alignment of
///     backward-branch targets.
///
//===----------------------------------------------------------------------===//

#ifndef OM64_OM_OM_H
#define OM64_OM_OM_H

#include "objfile/Image.h"
#include "objfile/ObjectFile.h"
#include "support/Profile.h"
#include "support/Result.h"

#include <string>
#include <vector>

namespace om64 {
namespace om {

/// Optimization level.
enum class OmLevel : uint8_t { None, Simple, Full };

/// Returns "none", "simple" or "full".
const char *levelName(OmLevel L);

/// OM options.
struct OmOptions {
  OmLevel Level = OmLevel::Full;
  /// Reschedule basic blocks after optimization (OM-full only).
  bool Reschedule = false;
  /// Quadword-align targets of backward branches (OM-full only; the paper
  /// ties this to rescheduling, and found it can hurt — ear, section 5.2).
  bool AlignLoopTargets = false;
  /// Sort data symbols by size ascending next to the GAT (on for both
  /// OM levels; off reproduces the baseline module-order layout and is an
  /// ablation knob).
  bool SortDataBySize = true;
  /// Maximum 8-byte entries per GAT group (GP reach).
  unsigned MaxGatEntriesPerGroup = 4096;
  std::string EntryName = "main";
  /// ATOM-style instrumentation (section 6 / reference [5]): insert a
  /// profile-count hook at every procedure entry. Requires OmLevel::Full
  /// (insertion is code motion). Counter i belongs to
  /// OmResult::ProfiledProcedures[i]; the simulator accumulates them in
  /// SimResult::ProfileCounts.
  bool InstrumentProcedureCounts = false;
  /// Finer ATOM-style instrumentation: also count every branch-target
  /// block (labels of the recovered control structure). Implies
  /// procedure-entry counters; labels look like "mod.proc" or
  /// "mod.proc+<index>". Requires OmLevel::Full.
  bool InstrumentBlockCounts = false;
  /// Analysis-driven deletions (OM-full only): run the dataflow layer of
  /// om/Analysis.h after the pattern transforms and additionally delete
  /// what it can *prove* — GP-reset and prologue pairs whose GP is already
  /// correct on every incoming path, PV loads whose register provably
  /// holds the callee address already, and address loads whose result is
  /// dead. Off by default so the pattern baseline stays measurable
  /// (omlink --analysis; the AnalysisXxx counters report the extra wins).
  bool Analysis = false;
  /// Run OmVerify's structural invariant checks (om/Verify.h) after the
  /// lift, the call transforms and assembly; an invariant violation aborts
  /// the link with stage-labeled diagnostics instead of emitting a
  /// miscompiled image. With Analysis it also re-derives every dataflow-
  /// justified deletion's proof on the mutated program (om/Verify.h:
  /// verifyDeletionProofs) and the rescheduler's base regions.
  bool Verify = false;
  /// Additionally verify after every stage that changes the symbolic form
  /// (relaxation, address loads, deletion, rescheduling, instrumentation,
  /// profile layout). Implies Verify.
  bool VerifyEachStage = false;
  /// Worker threads for the per-procedure pipeline stages (lift, call
  /// transforms, deletion, rescheduling, per-procedure verification, and
  /// code emission). 0 means hardware concurrency; 1 is the serial
  /// pipeline. The output image is byte-identical for every value.
  /// Options arrive from the command line and from omlinkd's clients, so
  /// a count above MaxJobs is rejected before any thread pool is built.
  unsigned Jobs = 0;
  static constexpr unsigned MaxJobs = 256;
  /// Inputs below this many total text instructions run the whole pipeline
  /// serially regardless of Jobs: the 19 SPEC-shaped seed workloads link in
  /// milliseconds, where worker wakeups cost more than they save, and -jN
  /// must never lose to -j1. 0 disables the fallback (tests that assert on
  /// Stats.Jobs or exercise true parallelism on tiny inputs). The image is
  /// byte-identical either way; only Stats.Jobs and stage times observe it.
  uint64_t SerialFallbackInsts = 1u << 15;
  /// Profile-guided hot/cold code layout (omlink --profile-in FILE
  /// --layout=hot-cold). Requires OmLevel::Full and a Profile collected
  /// from an identically optioned link (aaxrun --profile-out). Reorders
  /// each procedure's basic blocks so the hottest successor falls through
  /// (Pettis–Hansen-style greedy chaining), moves never-executed blocks
  /// into a cold tail, orders procedures by dynamic call-edge heat, and
  /// restricts AlignLoopTargets' quadword alignment to hot branch targets.
  /// Procedures the profile does not cover (or covers with a mismatched
  /// branch count) are left byte-identical; an empty profile therefore
  /// leaves the whole image byte-identical to a no-layout link.
  bool HotColdLayout = false;
  /// Run the L001..L010 lint over the lifted program and report findings
  /// as warnings (omlink --lint). Part of the link configuration key:
  /// flipping it invalidates warm daemon state so cached links can never
  /// suppress (or duplicate) diagnostics.
  bool Lint = false;
  /// With Lint: append each finding's witness path — the shortest
  /// abstract-interpretation trace from the procedure entry to the defect
  /// site (omlink --lint --explain).
  bool LintExplain = false;
  /// The execution profile driving HotColdLayout (ignored otherwise).
  prof::Profile Profile;
};

/// Wall-clock seconds per pipeline stage of one OM run (omlink --stats /
/// --stats-json). AddressLoads covers BSR relaxation, the layout/decision
/// fixpoint, displacement rewriting and the address-load counts;
/// CodeMotion covers deletion, rescheduling, instrumentation and profile
/// layout; Verify covers every OmVerify check. Without --lint the six
/// buckets sum to Total.
struct OmStageSeconds {
  double Lift = 0;
  double CallTransforms = 0;
  double AddressLoads = 0;
  double CodeMotion = 0;
  double Assemble = 0;
  double Verify = 0;
  double Total = 0;
};

/// Static statistics of one OM run, sufficient to regenerate the paper's
/// Figures 3-5 and the GAT-reduction numbers of section 5.1.
struct OmStats {
  // Figure 3: address loads.
  uint64_t AddressLoadsTotal = 0;
  uint64_t AddressLoadsConverted = 0; // became LDA/LDAH
  uint64_t AddressLoadsNullified = 0; // became no-ops / were deleted

  // Figure 4: procedure-call bookkeeping.
  uint64_t CallsTotal = 0;            // JSR + BSR call sites
  uint64_t CallsNeedingPvLoad = 0;    // callee reads PV (or is unknown)
  uint64_t CallsNeedingGpReset = 0;   // live GP-reset pair after the call
  uint64_t JsrConvertedToBsr = 0;
  /// Converted calls reverted to their original JSR because the BSR's
  /// 21-bit word displacement cannot be guaranteed to fit in the final
  /// layout (the worst-case-then-shrink relaxation of Emit.cpp). These
  /// sites are not counted in JsrConvertedToBsr.
  uint64_t BsrFallbackJsrs = 0;
  /// Layout rounds the relaxation fixpoint ran before no call changed
  /// state (Dickson-style worst-case-then-shrink; sizes only shrink, so
  /// the round count is bounded and small in practice).
  uint64_t BsrRelaxRounds = 0;
  /// Conversions the fixpoint re-admitted from the worst-case layout —
  /// i.e. calls that survive as BSRs because their displacement provably
  /// fits the final (possibly profile-reordered) procedure order. Always
  /// equals the surviving JsrConvertedToBsr count.
  uint64_t BsrRetainedByRelax = 0;

  // Figure 5: instruction counts.
  uint64_t InstructionsTotal = 0;     // before optimization
  uint64_t InstructionsNullified = 0; // no-opped (OM-simple)
  uint64_t InstructionsDeleted = 0;   // removed (OM-full)
  uint64_t NopsInserted = 0;          // alignment padding added
  uint64_t InstrumentationInserted = 0; // profile hooks added

  // Analysis-driven deletions (OmOptions::Analysis), over and above the
  // pattern transforms' own nullifications. Each counts sites the pattern
  // baseline kept.
  uint64_t AnalysisGpPairsDeleted = 0;   // GP pairs proven redundant
  uint64_t AnalysisPvLoadsDeleted = 0;   // call loads proven equal
  uint64_t AnalysisDeadLoadsDeleted = 0; // address loads proven dead
  /// Memory-ordering pairs the rescheduler skipped because the dataflow
  /// proved the two base registers point into disjoint regions (GAT/data
  /// vs stack). Nonzero only with Reschedule and Analysis.
  uint64_t SchedMemDepsFreed = 0;
  /// Dataflow work from the link's SummaryCache (not the verifier's own
  /// cache): analyzeProgram calls, rounds computed, rounds reused.
  uint64_t AnalysisRuns = 0;
  uint64_t AnalysisRoundsEvaluated = 0;
  uint64_t AnalysisRoundsReused = 0;

  // Section 5.1: GAT size.
  uint64_t GatBytesBefore = 0; // merged + deduplicated, before reduction
  uint64_t GatBytesAfter = 0;
  uint32_t GpGroups = 0;

  uint64_t TextBytesBefore = 0;
  uint64_t TextBytesAfter = 0;

  // Profile-guided layout (OmOptions::HotColdLayout).
  uint64_t LayoutProcsReordered = 0;  // procedures whose blocks moved
  uint64_t LayoutBlocksMoved = 0;     // blocks emitted out of source order
  uint64_t LayoutColdBlocks = 0;      // blocks split into cold tails
  uint64_t LayoutFixupBranches = 0;   // BRs inserted to mend fall-throughs

  /// Observability: per-stage wall time and the worker count actually
  /// used. Not part of the image; -j1 and -jN runs differ only here.
  OmStageSeconds Seconds;
  unsigned Jobs = 1;
};

/// Result of an OM run.
struct OmResult {
  obj::Image Image;
  OmStats Stats;
  /// Procedure owning each profile counter (instrumented runs only).
  std::vector<std::string> ProfiledProcedures;
  /// Rendered L001..L010 findings over the lifted inputs (Opts.Lint only;
  /// with Opts.LintExplain each finding carries its witness path). Empty
  /// text means the link is lint-clean. Warm relinks recompute this from
  /// the summary-cached analysis, so only edited procedures re-derive
  /// their fixpoints.
  std::string LintReport;
  unsigned LintFindings = 0;
};

/// Links and optimizes the given objects.
Result<OmResult> optimize(const std::vector<obj::ObjectFile> &Objects,
                          const OmOptions &Opts = OmOptions());

} // namespace om
} // namespace om64

#endif // OM64_OM_OM_H
