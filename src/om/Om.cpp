//===- om/Om.cpp - OM driver ------------------------------------------------=//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//

#include "om/Om.h"

#include "om/OmImpl.h"
#include "om/Verify.h"
#include "support/Format.h"

#include <chrono>

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

namespace {

/// Seconds elapsed since \p Start on the monotonic clock.
double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

} // namespace

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
                                 uint64_t TotalInsts) {
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
  uint64_t TotalInsts = 0;
  for (const obj::ObjectFile &O : Objs)
    TotalInsts += O.Text.size() / 4;
  ThreadPool Pool(effectiveJobs(*Opts, TotalInsts));
  analysis::SummaryCache Summaries;
  return runPipeline(Objs, *Opts, Pool, nullptr, Summaries);
}

Result<OmResult> om64::om::runPipeline(const std::vector<obj::ObjectFile> &Objs,
                                       const OmOptions &Opts, ThreadPool &Pool,
                                       LiftCache *LC,
                                       analysis::SummaryCache &SC) {
  OmResult Out;
  Out.Stats.Jobs = Pool.threadCount();
  const analysis::SummaryCache::Counters Before = SC.Totals;
  auto TotalStart = std::chrono::steady_clock::now();

  auto LiftStart = std::chrono::steady_clock::now();
  Result<SymbolicProgram> SP = liftProgram(Objs, Opts, Pool, LC);
  Out.Stats.Seconds.Lift = secondsSince(LiftStart);
  if (!SP)
    return Result<OmResult>::failure(SP.message());
  if (Opts.Verify) {
    auto VerifyStart = std::chrono::steady_clock::now();
    Error E = verifyStage(*SP, "lift", &Pool);
    Out.Stats.Seconds.Verify += secondsSince(VerifyStart);
    if (E)
      return Result<OmResult>::failure(E.message());
  }

  OmContext Ctx(*SP, Pool, SC);

  if (Opts.Lint) {
    // Lint the lifted inputs (pre-transform, same view omlink --lint
    // reports on) against the epoch-cached analysis: on a warm relink the
    // SummaryCache means only edited procedures re-derive their fixpoints.
    std::vector<analysis::LintFinding> Findings =
        analysis::lintProgram(*SP, Ctx.program(), Pool);
    Out.LintFindings = static_cast<unsigned>(Findings.size());
    Out.LintReport = analysis::renderLintText(Findings, Opts.LintExplain);
  }

  auto TransformStart = std::chrono::steady_clock::now();
  runCallTransforms(*SP, Opts, Out.Stats, Ctx);
  Out.Stats.Seconds.CallTransforms = secondsSince(TransformStart);
  if (Opts.Verify) {
    auto VerifyStart = std::chrono::steady_clock::now();
    Error E = verifyStage(*SP, "call-transforms", &Pool);
    // Every analysis-justified deletion must still prove out against a
    // fresh dataflow run over the mutated program — this catches a
    // transform miscompile even when the differential harness's inputs
    // never execute the deleted path.
    if (!E && Opts.Analysis && Opts.Level == OmLevel::Full)
      E = verifyDeletionProofs(*SP, Pool);
    Out.Stats.Seconds.Verify += secondsSince(VerifyStart);
    if (E)
      return Result<OmResult>::failure(E.message());
  }

  Result<obj::Image> Img =
      layoutAndEmit(*SP, Opts, Out.Stats, Out.ProfiledProcedures, Ctx);
  if (!Img) {
    Out.Stats.Seconds.Total = secondsSince(TotalStart);
    return Result<OmResult>::failure(Img.message());
  }
  if (Opts.Verify) {
    // Close the relaxation loop: every BSR that survived the worst-case-
    // then-shrink fixpoint is re-checked against the addresses actually
    // assembled, not the upper-bound layout the admission reasoned about.
    auto VerifyStart = std::chrono::steady_clock::now();
    Error E = verifyBsrRanges(*Img);
    Out.Stats.Seconds.Verify += secondsSince(VerifyStart);
    if (E)
      return Result<OmResult>::failure(E.message());
  }
  Out.Stats.AnalysisRuns = SC.Totals.Runs - Before.Runs;
  Out.Stats.AnalysisValueRuns = SC.Totals.ValueRuns - Before.ValueRuns;
  Out.Stats.AnalysisRoundsEvaluated =
      SC.Totals.RoundsEvaluated - Before.RoundsEvaluated;
  Out.Stats.AnalysisRoundsReused =
      SC.Totals.RoundsReused - Before.RoundsReused;
  Out.Stats.Seconds.Total = secondsSince(TotalStart);
  Out.Image = Img.take();
  return Out;
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
