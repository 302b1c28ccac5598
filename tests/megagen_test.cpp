//===- tests/megagen_test.cpp - Mega-scale workload generator tests -------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tier-1 coverage for src/megagen and the scaling behaviour it exists to
/// exercise:
///
///   * the generator is deterministic: same spec, same object bytes,
///   * generated modules pass ObjectFile::verify and link at every level,
///   * OM at every level preserves the generated program's behaviour,
///   * -j1 and -j4 produce byte-identical images on a small mega shape,
///   * the serial fallback engages below the cutoff (so -jN can never
///     lose to -j1 on tiny inputs) without changing the image,
///   * group reachability stays exact past 64 GAT groups: the GP-reset
///     counts match the generator's call census, not a saturated mask,
///   * the 64-bit literal-id census rejects counts past the 32-bit space.
///
//===----------------------------------------------------------------------===//

#include "megagen/MegaGen.h"
#include "om/Om.h"
#include "om/OmImpl.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

using namespace om64;
using namespace om64::megagen;
using namespace om64::obj;
using namespace om64::om;

namespace {

MegaSpec smallSpec() {
  MegaSpec Spec;
  Spec.Seed = 5;
  Spec.Shape = CallShape::Mixed;
  Spec.Modules = 8;
  Spec.ProcsPerModule = 6;
  Spec.TargetInstructions = 12000;
  return Spec;
}

OmResult runOm(const std::vector<ObjectFile> &Objs, const OmOptions &Opts) {
  Result<OmResult> R = om::optimize(Objs, Opts);
  EXPECT_TRUE(bool(R)) << (R ? "" : R.message());
  return R ? R.take() : OmResult{};
}

int64_t runExitCode(const Image &Img) {
  Result<sim::SimResult> R = sim::run(Img);
  EXPECT_TRUE(bool(R)) << (R ? "" : R.message());
  return R ? R->ExitCode : -1;
}

TEST(MegaGenTest, DeterministicAcrossCalls) {
  MegaProgram A = generate(smallSpec());
  MegaProgram B = generate(smallSpec());
  ASSERT_EQ(A.Objects.size(), B.Objects.size());
  for (size_t I = 0; I < A.Objects.size(); ++I)
    EXPECT_TRUE(A.Objects[I].serialize() == B.Objects[I].serialize())
        << "module " << I << " differs between two identical-spec runs";
  EXPECT_EQ(A.Summary.TotalInstructions, B.Summary.TotalInstructions);
  EXPECT_EQ(A.Summary.CrossModuleCalls, B.Summary.CrossModuleCalls);

  MegaSpec Other = smallSpec();
  Other.Seed = 6;
  MegaProgram C = generate(Other);
  EXPECT_FALSE(A.Objects[0].serialize() == C.Objects[0].serialize())
      << "different seeds produced identical first modules";
}

TEST(MegaGenTest, ModulesVerifyCleanAndHitTarget) {
  MegaProgram MP = generate(smallSpec());
  ASSERT_EQ(MP.Objects.size(), 8u);
  for (const ObjectFile &O : MP.Objects)
    EXPECT_FALSE(bool(O.verify())) << O.verify().message();
  // The generator overshoots the target by at most a few epilogues.
  EXPECT_GE(MP.Summary.TotalInstructions, smallSpec().TargetInstructions);
  EXPECT_LE(MP.Summary.TotalInstructions,
            smallSpec().TargetInstructions + 2000);
  EXPECT_EQ(MP.Summary.TotalProcedures, 8u * 6u);
}

TEST(MegaGenTest, EveryOmLevelPreservesBehaviour) {
  MegaProgram MP = generate(smallSpec());
  struct LevelConfig {
    OmLevel Level;
    bool Sched;
  };
  const LevelConfig Configs[] = {{OmLevel::None, false},
                                 {OmLevel::Simple, false},
                                 {OmLevel::Full, false},
                                 {OmLevel::Full, true}};
  int64_t Reference = 0;
  bool HaveReference = false;
  for (const LevelConfig &C : Configs) {
    OmOptions Opts;
    Opts.Level = C.Level;
    Opts.Reschedule = C.Sched;
    Opts.AlignLoopTargets = C.Sched;
    OmResult R = runOm(MP.Objects, Opts);
    int64_t Exit = runExitCode(R.Image);
    if (!HaveReference) {
      Reference = Exit;
      HaveReference = true;
    }
    EXPECT_EQ(Exit, Reference)
        << "OM level " << static_cast<int>(C.Level)
        << (C.Sched ? "+sched" : "") << " changed the program's answer";
  }
}

TEST(MegaGenTest, NoneLevelStatsMatchGeneratorCensus) {
  // The generator's call census and OM's own counters are computed by
  // entirely different code; at OM-none (nothing deleted) they must agree
  // exactly, which also guards the counters against 32-bit truncation
  // paths (both sides accumulate in 64 bits).
  MegaProgram MP = generate(smallSpec());
  OmOptions Opts;
  Opts.Level = OmLevel::None;
  OmResult R = runOm(MP.Objects, Opts);
  EXPECT_EQ(R.Stats.InstructionsTotal, MP.Summary.TotalInstructions);
  // OM merges and dedupes the per-module GATs before counting, so its
  // "before" figure is positive but no larger than the raw slot total.
  EXPECT_GT(R.Stats.GatBytesBefore, 0u);
  EXPECT_LE(R.Stats.GatBytesBefore, MP.Summary.GatEntries * 8);
  EXPECT_EQ(R.Stats.CallsTotal, MP.Summary.CrossModuleCalls +
                                    MP.Summary.IntraModuleCalls +
                                    MP.Summary.LeafBsrCalls);
  EXPECT_EQ(R.Stats.CallsNeedingGpReset,
            MP.Summary.CrossModuleCalls + MP.Summary.IntraModuleCalls);
}

TEST(MegaGenTest, J1VsJ4ByteIdenticalOnSmallMegaShape) {
  MegaProgram MP = generate(smallSpec());
  OmOptions Opts;
  Opts.Level = OmLevel::Full;
  Opts.Reschedule = true;
  Opts.AlignLoopTargets = true;
  Opts.SerialFallbackInsts = 0; // force the parallel pipeline
  Opts.Jobs = 1;
  OmResult Serial = runOm(MP.Objects, Opts);
  Opts.Jobs = 4;
  OmResult Par = runOm(MP.Objects, Opts);
  EXPECT_EQ(Serial.Stats.Jobs, 1u);
  EXPECT_EQ(Par.Stats.Jobs, 4u);
  EXPECT_TRUE(Serial.Image.serialize() == Par.Image.serialize())
      << "-j4 mega image differs from the -j1 image";
  EXPECT_EQ(Serial.Stats.AddressLoadsNullified,
            Par.Stats.AddressLoadsNullified);
  EXPECT_EQ(Serial.Stats.InstructionsDeleted, Par.Stats.InstructionsDeleted);
  EXPECT_EQ(Serial.Stats.CallsNeedingGpReset, Par.Stats.CallsNeedingGpReset);
}

TEST(MegaGenTest, SerialFallbackEngagesOnTinyInputs) {
  MegaSpec Tiny = smallSpec();
  Tiny.Modules = 2;
  Tiny.ProcsPerModule = 3;
  Tiny.TargetInstructions = 600;
  MegaProgram MP = generate(Tiny);
  ASSERT_LT(MP.Summary.TotalInstructions, 1u << 15);

  OmOptions Opts;
  Opts.Level = OmLevel::Full;
  Opts.Jobs = 4;
  // Default cutoff: the input is tiny, so the pool must stay serial.
  OmResult Fallback = runOm(MP.Objects, Opts);
  EXPECT_EQ(Fallback.Stats.Jobs, 1u)
      << "serial fallback did not engage below the cutoff";
  // Disabled cutoff: the same link really uses 4 workers...
  Opts.SerialFallbackInsts = 0;
  OmResult Forced = runOm(MP.Objects, Opts);
  EXPECT_EQ(Forced.Stats.Jobs, 4u);
  // ...and the image does not depend on which mode ran.
  EXPECT_TRUE(Fallback.Image.serialize() == Forced.Image.serialize())
      << "serial fallback changed the output image";
}

TEST(MegaGenTest, ReachabilityStaysExactPast64Groups) {
  // 72 modules with one GAT group each: group ids run past the 64 bits a
  // single mask word can name. The old saturating reachability pessimized
  // every GP-reset decision here; the exact multi-word version must keep
  // only the cross-module resets (each module is its own group, so every
  // intra-module callee is provably confined), matching the generator's
  // census exactly.
  MegaSpec Spec;
  Spec.Seed = 11;
  Spec.Shape = CallShape::Mixed;
  Spec.Modules = 72;
  Spec.ProcsPerModule = 3;
  Spec.TargetInstructions = 15000;
  MegaProgram MP = generate(Spec);

  OmOptions Opts;
  Opts.Level = OmLevel::Full;
  Opts.MaxGatEntriesPerGroup = 1; // force one group per module
  Opts.SerialFallbackInsts = 0;
  Opts.Jobs = 1;
  OmResult Full = runOm(MP.Objects, Opts);
  ASSERT_GT(Full.Stats.GpGroups, 64u);
  EXPECT_EQ(Full.Stats.GpGroups, Spec.Modules);
  EXPECT_EQ(Full.Stats.CallsNeedingGpReset, MP.Summary.CrossModuleCalls)
      << "reset nullification saturated instead of staying exact past "
         "64 groups";

  // Determinism and behaviour hold in the many-group regime too.
  Opts.Jobs = 4;
  OmResult Par = runOm(MP.Objects, Opts);
  EXPECT_TRUE(Full.Image.serialize() == Par.Image.serialize())
      << "-j4 image differs from -j1 with >64 GAT groups";
  OmOptions NoneOpts;
  NoneOpts.Level = OmLevel::None;
  OmResult None = runOm(MP.Objects, NoneOpts);
  EXPECT_EQ(runExitCode(Full.Image), runExitCode(None.Image));
}

TEST(MegaGenTest, LiteralIdSpaceGuardRejectsOverflow) {
  // The lift counts literal sites in 64 bits and must refuse totals the
  // 32-bit SymInst::LitId space cannot hold (with ~0u reserved), instead
  // of wrapping and silently aliasing literals on huge programs.
  EXPECT_FALSE(bool(om::checkLiteralIdSpace(1000, 3000)));
  EXPECT_TRUE(bool(om::checkLiteralIdSpace(uint64_t(~0u), 0)));
  EXPECT_TRUE(bool(om::checkLiteralIdSpace(1ull << 32, 0)));
  EXPECT_TRUE(bool(om::checkLiteralIdSpace(1ull << 40, 0)));
  // The use offsets are 32 bits too: ~0u uses still fit, one more does not.
  EXPECT_FALSE(bool(om::checkLiteralIdSpace(1000, uint64_t(~0u))));
  EXPECT_TRUE(bool(om::checkLiteralIdSpace(1000, 1ull << 32)));
  EXPECT_TRUE(bool(om::checkLiteralIdSpace(1000, 1ull << 40)));
}

} // namespace
