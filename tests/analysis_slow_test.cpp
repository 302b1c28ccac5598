//===- tests/analysis_slow_test.cpp - Analysis full-suite sweeps ----------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Full-suite (ctest -L slow) validation of the analysis-driven deletions
/// across every SPEC92-shaped workload:
///
///   * determinism: -j1 and -j4 links with --analysis are byte-identical
///     and agree on every analysis counter,
///   * coverage: the dataflow must strictly beat the pattern transforms
///     (at least one extra deletion) on a majority of the suite,
///   * correctness: differential execution at every OM level with the
///     analysis enabled, the deletion-proof verify stage green,
///   * the rescheduler's analysis on the full megagen program: at -j1 and
///     -j4 its memory base regions match a fresh analysis
///     on every instruction (the --verify check), and the two images are
///     byte-identical.
///
//===----------------------------------------------------------------------===//

#include "megagen/MegaGen.h"
#include "om/Verify.h"

#include "TestUtil.h"

using namespace om64;
using namespace om64::om;
using namespace om64::test;

namespace {

uint64_t analysisDeletions(const OmStats &S) {
  return S.AnalysisGpPairsDeleted + S.AnalysisPvLoadsDeleted +
         S.AnalysisDeadLoadsDeleted;
}

TEST(AnalysisSlowTest, DeletionsAreDeterministicAcrossJobCounts) {
  for (const std::string &Name : wl::workloadNames()) {
    Result<wl::BuiltWorkload> W = wl::buildWorkload(Name);
    ASSERT_TRUE(bool(W)) << Name << ": " << W.message();
    OmOptions Opts;
    Opts.Level = OmLevel::Full;
    Opts.Analysis = true;
    Opts.Reschedule = true;
    Opts.AlignLoopTargets = true;
    // Tiny inputs: keep -j4 genuinely parallel despite the fallback.
    Opts.SerialFallbackInsts = 0;

    Opts.Jobs = 1;
    Result<OmResult> Serial = wl::linkWithOm(*W, wl::CompileMode::Each, Opts);
    ASSERT_TRUE(bool(Serial)) << Name << " -j1: " << Serial.message();
    Opts.Jobs = 4;
    Result<OmResult> Par = wl::linkWithOm(*W, wl::CompileMode::Each, Opts);
    ASSERT_TRUE(bool(Par)) << Name << " -j4: " << Par.message();

    EXPECT_TRUE(Serial->Image.serialize() == Par->Image.serialize())
        << Name << ": --analysis -j4 image differs from the -j1 image";
    EXPECT_EQ(Serial->Stats.AnalysisGpPairsDeleted,
              Par->Stats.AnalysisGpPairsDeleted)
        << Name;
    EXPECT_EQ(Serial->Stats.AnalysisPvLoadsDeleted,
              Par->Stats.AnalysisPvLoadsDeleted)
        << Name;
    EXPECT_EQ(Serial->Stats.AnalysisDeadLoadsDeleted,
              Par->Stats.AnalysisDeadLoadsDeleted)
        << Name;
    EXPECT_EQ(Serial->Stats.SchedMemDepsFreed, Par->Stats.SchedMemDepsFreed)
        << Name;
  }
}

TEST(AnalysisSlowTest, AnalysisBeatsPatternOnMostWorkloads) {
  unsigned Wins = 0, Total = 0;
  std::printf("%-12s %10s %10s %10s %10s\n", "workload", "gp-pairs",
              "pv-loads", "dead-loads", "sched-deps");
  for (const std::string &Name : wl::workloadNames()) {
    Result<wl::BuiltWorkload> W = wl::buildWorkload(Name);
    ASSERT_TRUE(bool(W)) << Name << ": " << W.message();
    OmOptions Opts;
    Opts.Level = OmLevel::Full;
    Opts.Analysis = true;
    Opts.Verify = true; // deletion proofs re-derived on every link
    Result<OmResult> R = wl::linkWithOm(*W, wl::CompileMode::Each, Opts);
    ASSERT_TRUE(bool(R)) << Name << ": " << R.message();
    const OmStats &S = R->Stats;
    std::printf("%-12s %10llu %10llu %10llu %10llu\n", Name.c_str(),
                (unsigned long long)S.AnalysisGpPairsDeleted,
                (unsigned long long)S.AnalysisPvLoadsDeleted,
                (unsigned long long)S.AnalysisDeadLoadsDeleted,
                (unsigned long long)S.SchedMemDepsFreed);
    ++Total;
    Wins += analysisDeletions(S) > 0;
  }
  EXPECT_EQ(Total, 19u);
  EXPECT_GE(Wins, 10u)
      << "the dataflow must beat the pattern transforms on a majority "
         "of the suite";
}

TEST(AnalysisSlowTest, DifferentialExecutionWithAnalysis) {
  for (const std::string &Name : wl::workloadNames()) {
    Result<wl::BuiltWorkload> W = wl::buildWorkload(Name);
    ASSERT_TRUE(bool(W)) << Name << ": " << W.message();
    OmOptions Base;
    Base.Analysis = true;
    Base.Verify = true;
    Result<DifferentialReport> Rep =
        runDifferential(W->linkSet(wl::CompileMode::Each), Base);
    EXPECT_TRUE(bool(Rep)) << Name << ": " << Rep.message();
  }
}

TEST(AnalysisSlowTest, ValuesOnlyRegionsMatchFullOnMega) {
  const megagen::MegaProgram MP = megagen::generate(megagen::MegaSpec());
  std::vector<uint8_t> Serial;
  for (unsigned Jobs : {1u, 4u}) {
    OmOptions Opts;
    Opts.Level = OmLevel::Full;
    Opts.Reschedule = true;
    Opts.AlignLoopTargets = true; // omlink --sched
    Opts.Analysis = true;
    Opts.Verify = true;
    Opts.Jobs = Jobs;
    Result<OmResult> R = optimize(MP.Objects, Opts);
    ASSERT_TRUE(bool(R)) << "-j" << Jobs << ": " << R.message();
    EXPECT_EQ(R->Stats.AnalysisRuns, 3u) << "-j" << Jobs;
    EXPECT_EQ(R->Stats.SchedMemDepsFreed, 7134u) << "-j" << Jobs;
    std::vector<uint8_t> Bytes = R->Image.serialize();
    if (Jobs == 1)
      Serial = std::move(Bytes);
    else
      EXPECT_TRUE(Bytes == Serial) << "-j4 image differs from -j1";
  }
}

} // namespace
