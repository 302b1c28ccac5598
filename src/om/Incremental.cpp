//===- om/Incremental.cpp - Incremental relinking --------------------------=//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//

#include "om/Incremental.h"

#include "support/ByteStream.h"
#include "support/ContentHash.h"
#include "support/Format.h"
#include "support/Stopwatch.h"
#include "support/ThreadPool.h"

using namespace om64;
using namespace om64::om;

uint64_t om64::om::linkConfigKey(const OmOptions &Opts) {
  // Serialize every output-affecting field, in declaration order, through
  // the same ByteWriter the object formats use. Adding an OmOptions field
  // without extending this list is the bug this function exists to make
  // loud: keep the count assert below in sync.
  ByteWriter W;
  W.writeU8(static_cast<uint8_t>(Opts.Level));
  W.writeU8(Opts.Reschedule ? 1 : 0);
  W.writeU8(Opts.AlignLoopTargets ? 1 : 0);
  W.writeU8(Opts.SortDataBySize ? 1 : 0);
  W.writeU32(Opts.MaxGatEntriesPerGroup);
  W.writeString(Opts.EntryName);
  W.writeU8(Opts.InstrumentProcedureCounts ? 1 : 0);
  W.writeU8(Opts.InstrumentBlockCounts ? 1 : 0);
  W.writeU8(Opts.Analysis ? 1 : 0);
  W.writeU8(Opts.Verify ? 1 : 0);
  W.writeU8(Opts.VerifyEachStage ? 1 : 0);
  // Jobs and SerialFallbackInsts never change the image (byte-identity
  // across -jN is a pipeline invariant), but they do change the observable
  // stats a cached answer would report; include them so a warm state is
  // only shared between genuinely identical configurations.
  W.writeU32(Opts.Jobs);
  W.writeU64(Opts.SerialFallbackInsts);
  // Relaxation/layout inputs: the hot-cold switch and the complete profile
  // bytes. Two profiles with different heat reorder procedures
  // differently, which changes which BSRs the relaxation admits.
  W.writeU8(Opts.HotColdLayout ? 1 : 0);
  // Lint options change which diagnostics a relink reports: a warm state
  // keyed without them could serve a lint-less answer to a --lint request
  // (stale silence) or vice versa.
  W.writeU8(Opts.Lint ? 1 : 0);
  W.writeU8(Opts.LintExplain ? 1 : 0);
  std::vector<uint8_t> Prof = Opts.Profile.serialize();
  W.writeU64(Prof.size());
  for (uint8_t B : Prof)
    W.writeU8(B);
  return hashBytes(W.bytes());
}

IncrementalLinker::IncrementalLinker(const OmOptions &OptsIn) {
  Result<OmOptions> Canon = canonicalizeOptions(OptsIn);
  if (Canon)
    Opts = Canon.take();
  else
    OptionsError = Canon.message();
}

Result<RelinkResult>
IncrementalLinker::relink(const std::vector<std::vector<uint8_t>> &Modules) {
  if (!OptionsError.empty())
    return Result<RelinkResult>::failure(OptionsError);
  Stopwatch Clock;
  RelinkResult Out;
  Out.Stats.Warm = !Cold;
  Out.Stats.ModulesTotal = Modules.size();

  // Content-hash every position; decide which modules need reparsing.
  const bool CountChanged = Modules.size() != Objs.size();
  std::vector<uint64_t> NewHashes(Modules.size());
  std::vector<uint8_t> Reparse(Modules.size(), 0);
  bool AnyChanged = CountChanged;
  for (size_t I = 0; I < Modules.size(); ++I) {
    NewHashes[I] = hashBytes(Modules[I]);
    Reparse[I] =
        I >= Objs.size() || NewHashes[I] != ModuleHashes[I] ? 1 : 0;
    AnyChanged |= Reparse[I] != 0;
  }

  // Identical inputs: the previous image is the answer by determinism of
  // the pipeline (same bytes, same options -> same image).
  if (!AnyChanged && HaveImage) {
    Out.Stats.InputUnchanged = true;
    Out.ImageBytes = LastImageBytes;
    Out.LintReport = LastLintReport;
    Out.LintFindings = LastLintFindings;
    Out.Stats.Seconds = Clock.seconds();
    return Out;
  }

  // Reparse changed positions only. A parse failure leaves this linker's
  // caches untouched (the hash is recorded only after a successful parse),
  // so a later relink with fixed bytes starts from the last good state.
  Objs.resize(Modules.size());
  ModuleHashes.resize(Modules.size(), 0);
  for (size_t I = 0; I < Modules.size(); ++I) {
    if (!Reparse[I])
      continue;
    Result<obj::ObjectFile> O = obj::ObjectFile::deserialize(Modules[I]);
    if (!O)
      return Result<RelinkResult>::failure(
          formatString("module %zu: ", I) + O.message());
    Objs[I] = O.take();
    ModuleHashes[I] = NewHashes[I];
    ++Out.Stats.ModulesReparsed;
  }

  ThreadPool Pool(effectiveJobs(Opts, Objs));

  Lifts.CurrentHashes = ModuleHashes;
  Result<OmResult> R = runPipeline(Objs, Opts, Pool, &Lifts, Summaries);
  if (!R)
    return Result<RelinkResult>::failure(R.message());

  Out.Stats.ModulesRelifted = Lifts.ModulesLifted;
  Out.Stats.ProcsTotal = Lifts.ProcsReused + Lifts.ProcsLifted;
  Out.Stats.ProcsRelifted = Lifts.ProcsLifted;
  Out.Stats.SummaryRoundHits = R->Stats.AnalysisRoundsReused;
  Out.Stats.SummaryRoundMisses = R->Stats.AnalysisRoundsEvaluated;
  Out.Stats.Om = R->Stats;

  Out.ImageBytes = R->Image.serialize();
  Out.LintReport = R->LintReport;
  Out.LintFindings = R->LintFindings;
  LastImageBytes = Out.ImageBytes;
  LastLintReport = Out.LintReport;
  LastLintFindings = Out.LintFindings;
  HaveImage = true;
  Cold = false;

  Summaries.trim(CacheBudget);

  Out.Stats.Seconds = Clock.seconds();
  return Out;
}
