//===- om/Om.cpp - OM driver ------------------------------------------------=//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//

#include "om/Om.h"

#include "om/OmImpl.h"
#include "om/Verify.h"
#include "support/Format.h"
#include "support/Stopwatch.h"

using namespace om64;
using namespace om64::om;

const char *om64::om::levelName(OmLevel L) {
  switch (L) {
  case OmLevel::None:   return "none";
  case OmLevel::Simple: return "simple";
  case OmLevel::Full:   return "full";
  }
  return "?";
}

/// Rejects option values no pipeline can run with: an unknown level, or
/// more workers than OmOptions::MaxJobs.
static Error checkBounds(const OmOptions &Opts) {
  if (static_cast<unsigned>(Opts.Level) > static_cast<unsigned>(OmLevel::Full))
    return Error::failure(formatString("unknown optimization level %u",
                                       static_cast<unsigned>(Opts.Level)));
  if (Opts.Jobs > OmOptions::MaxJobs)
    return Error::failure(formatString("job count %u exceeds the limit of %u",
                                       Opts.Jobs, OmOptions::MaxJobs));
  return Error::success();
}

Result<OmOptions> om64::om::canonicalizeOptions(const OmOptions &OptsIn) {
  if (Error E = checkBounds(OptsIn))
    return Result<OmOptions>::failure(E.message());
  OmOptions Opts = OptsIn;
  if (Opts.Level == OmLevel::None) {
    // The no-optimization configuration measures OM's overhead against the
    // standard linker (Figure 7's "no opt" column); it must reproduce the
    // traditional module-order data layout.
    Opts.SortDataBySize = false;
    Opts.Reschedule = false;
    Opts.AlignLoopTargets = false;
  }

  if (Opts.InstrumentBlockCounts)
    Opts.InstrumentProcedureCounts = true;
  if (Opts.InstrumentProcedureCounts && Opts.Level != OmLevel::Full)
    return Result<OmOptions>::failure(
        "instrumentation inserts code and therefore requires OM-full "
        "(section 4: only the symbolic form supports insertion)");

  if (Opts.VerifyEachStage)
    Opts.Verify = true;
  return Opts;
}

unsigned om64::om::effectiveJobs(const OmOptions &Opts,
                                 const std::vector<obj::ObjectFile> &Objs) {
  uint64_t TotalInsts = 0;
  for (const obj::ObjectFile &O : Objs)
    TotalInsts += O.Text.size() / 4;
  // Below the cutoff the per-procedure work is so small that waking
  // workers costs more than it saves; run serially so -jN never loses
  // to -j1 on tiny programs. Determinism makes this safe: the image
  // does not depend on the thread count.
  if (Opts.SerialFallbackInsts != 0 && TotalInsts < Opts.SerialFallbackInsts)
    return 1;
  return Opts.Jobs;
}

Result<OmResult> om64::om::optimize(const std::vector<obj::ObjectFile> &Objs,
                                    const OmOptions &OptsIn) {
  Result<OmOptions> Opts = canonicalizeOptions(OptsIn);
  if (!Opts)
    return Result<OmResult>::failure(Opts.message());
  ThreadPool Pool(effectiveJobs(*Opts, Objs));
  analysis::SummaryCache Summaries;
  return runPipeline(Objs, *Opts, Pool, nullptr, Summaries);
}

namespace {

/// What the stage rows share: the link's inputs, the program under
/// transformation, its analysis, the emitter, and the result. Ctx and Emit
/// refer to SP and Out, so a Link is never copied.
struct Link {
  Link(const std::vector<obj::ObjectFile> &Objs, const OmOptions &Opts,
       ThreadPool &Pool, LiftCache *LC, analysis::SummaryCache &SC)
      : Objs(Objs), Opts(Opts), Pool(Pool), LC(LC), Ctx(SP, Pool, SC),
        Emit(SP, Opts, Out, Ctx) {}
  Link(const Link &) = delete;

  const std::vector<obj::ObjectFile> &Objs;
  const OmOptions &Opts;
  ThreadPool &Pool;
  LiftCache *LC;
  OmResult Out;
  SymbolicProgram SP;
  OmContext Ctx;
  Emitter Emit;
};

/// One row of the stage table. Name is what verifyStage reports ("...
/// after stage '<name>'"). Run's time is charged to Bucket (to none for
/// the report-only lint). A row that Invalidates changes the symbolic
/// form, so --verify-each-stage checks its structure after it; --verify
/// does so after a Boundary, then runs Extra. Under --verify, Pre runs
/// before Run. Checks are charged to the verify bucket.
struct Stage {
  const char *Name;
  bool (*Enabled)(const OmOptions &);
  Error (*Run)(Link &);
  double OmStageSeconds::*Bucket;
  bool Invalidates;
  bool Boundary;
  Error (*Pre)(Link &) = nullptr;
  Error (*Extra)(Link &) = nullptr;
};

bool always(const OmOptions &) { return true; }
bool optimizing(const OmOptions &O) { return O.Level != OmLevel::None; }
bool full(const OmOptions &O) { return O.Level == OmLevel::Full; }

/// OM's stages in execution order. runPipeline is the only sequencer: it
/// runs each enabled row, times it into its bucket, invalidates the
/// analysis after a mutating row, and runs the row's checks.
const Stage Stages[] = {
    {"lift", always,
     [](Link &L) {
       Result<SymbolicProgram> SP = liftProgram(L.Objs, L.Opts, L.Pool, L.LC);
       if (!SP)
         return SP.takeError();
       L.SP = SP.take();
       return Error::success();
     },
     &OmStageSeconds::Lift, false, true},
    // Lints the lifted inputs (pre-transform, the view omlink --lint
    // reports on) against the epoch-cached analysis: on a warm relink the
    // SummaryCache means only edited procedures re-derive their fixpoints.
    {"lint", [](const OmOptions &O) { return O.Lint; },
     [](Link &L) {
       std::vector<analysis::LintFinding> Findings =
           analysis::lintProgram(L.SP, L.Ctx.program(), L.Pool);
       L.Out.LintFindings = static_cast<unsigned>(Findings.size());
       L.Out.LintReport =
           analysis::renderLintText(Findings, L.Opts.LintExplain);
       return Error::success();
     },
     nullptr, false, false},
    // Every analysis-justified deletion must still prove out against a
    // fresh dataflow run over the mutated program — this catches a
    // transform miscompile even when the differential harness's inputs
    // never execute the deleted path.
    {"call-transforms", always,
     [](Link &L) {
       runCallTransforms(L.SP, L.Opts, L.Out.Stats, L.Ctx);
       return Error::success();
     },
     &OmStageSeconds::CallTransforms, true, true, nullptr,
     [](Link &L) {
       return L.Opts.Analysis && full(L.Opts)
                  ? verifyDeletionProofs(L.SP, L.Pool)
                  : Error::success();
     }},
    // Converted calls that could overrun the 21-bit BSR reach revert to
    // their JSR before the first layout, so their literals keep GAT slots.
    {"relax", optimizing, [](Link &L) { return L.Emit.relaxDirectCalls(); },
     &OmStageSeconds::AddressLoads, true, false},
    {"address-loads", always, [](Link &L) { return L.Emit.addressLoads(); },
     &OmStageSeconds::AddressLoads, true, false},
    {"delete-nullified", full,
     [](Link &L) { return L.Emit.deleteNullified(); },
     &OmStageSeconds::CodeMotion, true, false},
    // The region check compares the rescheduler's analysis (the
    // epoch-cached one reschedule then reads) with a fresh one.
    {"reschedule", [](const OmOptions &O) { return full(O) && O.Reschedule; },
     [](Link &L) { return L.Emit.reschedule(); }, &OmStageSeconds::CodeMotion,
     true, false,
     [](Link &L) {
       return L.Opts.Analysis
                  ? verifyMemBaseRegions(L.SP, L.Ctx.program(), L.Pool)
                  : Error::success();
     }},
    {"instrument",
     [](const OmOptions &O) { return full(O) && O.InstrumentProcedureCounts; },
     [](Link &L) { return L.Emit.instrumentProcedureCounts(); },
     &OmStageSeconds::CodeMotion, true, false},
    {"profile-layout",
     [](const OmOptions &O) { return full(O) && O.HotColdLayout; },
     [](Link &L) { return L.Emit.profileLayout(); },
     &OmStageSeconds::CodeMotion, true, false},
    // Closes the relaxation loop: every BSR that survived the worst-case-
    // then-shrink fixpoint is re-checked against the addresses actually
    // assembled, not the upper-bound layout the admission reasoned about.
    {"assemble", always, [](Link &L) { return L.Emit.assemble(); },
     &OmStageSeconds::Assemble, false, true, nullptr,
     [](Link &L) { return verifyBsrRanges(L.Out.Image); }},
};

} // namespace

Result<OmResult> om64::om::runPipeline(const std::vector<obj::ObjectFile> &Objs,
                                       const OmOptions &Opts, ThreadPool &Pool,
                                       LiftCache *LC,
                                       analysis::SummaryCache &SC) {
  Stopwatch Whole;
  Stopwatch Clock; // laps partition the run, so every stage is charged
  const analysis::SummaryCache::Counters Before = SC.Totals;
  Link L(Objs, Opts, Pool, LC, SC);
  OmStats &Stats = L.Out.Stats;
  Stats.Jobs = Pool.threadCount();
  for (const Stage &S : Stages) {
    if (!S.Enabled(Opts))
      continue;
    if (S.Pre && Opts.Verify) {
      Error E = S.Pre(L);
      Stats.Seconds.Verify += Clock.lap();
      if (E)
        return Result<OmResult>(E);
    }
    Error E = S.Run(L);
    double Ran = Clock.lap();
    if (S.Bucket)
      Stats.Seconds.*S.Bucket += Ran;
    if (E)
      return Result<OmResult>(E);
    if (S.Invalidates)
      L.Ctx.invalidate();
    bool Boundary = S.Boundary && Opts.Verify;
    if (Boundary || (S.Invalidates && Opts.VerifyEachStage)) {
      E = verifyStage(L.SP, S.Name, &Pool);
      if (!E && Boundary && S.Extra)
        E = S.Extra(L);
      Stats.Seconds.Verify += Clock.lap();
      if (E)
        return Result<OmResult>(E);
    }
  }
  Stats.AnalysisRuns = SC.Totals.Runs - Before.Runs;
  Stats.AnalysisRoundsEvaluated =
      SC.Totals.RoundsEvaluated - Before.RoundsEvaluated;
  Stats.AnalysisRoundsReused = SC.Totals.RoundsReused - Before.RoundsReused;
  Stats.Seconds.Total = Whole.seconds();
  return std::move(L.Out);
}

Result<LintRun> om64::om::lintObjects(const std::vector<obj::ObjectFile> &Objs,
                                      const OmOptions &Opts) {
  if (Error E = checkBounds(Opts))
    return Result<LintRun>::failure(E.message());
  ThreadPool Pool(Opts.Jobs);
  Result<SymbolicProgram> SP = liftProgram(Objs, Opts, Pool);
  if (!SP)
    return Result<LintRun>::failure(SP.message());
  LintRun Out;
  Out.Findings = analysis::lintProgram(*SP, analysis::analyzeProgram(*SP, Pool),
                                       Pool);
  Out.Procs = SP->Procs.size();
  return Out;
}
