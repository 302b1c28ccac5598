//===- tests/analysis_golden_test.cpp - Pinned whole-program analyses -----===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins analyzeProgram's complete answer on a fixed corpus, so a change to
/// how the fixpoint is computed (memoization, scheduling of rounds) cannot
/// change what it computes. Each program's ProgramAnalysis is folded into
/// one digest: every CFG block's bounds, every summary field with the
/// lint's PreservedSaved mask, every block entry value state, liveness in
/// and out (analyzeLiveness), the reach sets, and the combined
/// indirect-call summary. The corpus is every SPEC92-shaped
/// workload in both link sets, the four megagen shapes at a small size,
/// and one program after the call transforms with the analysis deletions
/// applied (instructions carrying AnalysisNullified marks).
///
/// The digests were recorded from the analysis as it stood before the
/// memoized fixpoint became its only path (the round-by-round
/// re-evaluation of every procedure), and before the memory domain and
/// liveness left the fixpoint, so they also pin the memoized path, the
/// lint's PreservedSaved layer and on-demand liveness to that answer.
///
/// The same file checks the two properties memoization must keep: a
/// cache's history never leaks into a result (edit, re-analyze with the
/// warm cache, compare with a fresh cache), and re-analyzing an unchanged
/// program evaluates no round at all.
///
/// It also links the same corpus at -O full --sched --analysis --verify,
/// whose rescheduler check compares the memBaseRegions it schedules with
/// against a fresh analysis of the post-deletion program.
///
//===----------------------------------------------------------------------===//

#include "megagen/MegaGen.h"
#include "om/Analysis.h"
#include "om/Lint.h"
#include "om/OmImpl.h"
#include "om/Verify.h"
#include "support/ContentHash.h"
#include "support/Format.h"

#include "TestUtil.h"

#include <map>

using namespace om64;
using namespace om64::om;
using namespace om64::om::analysis;

namespace {

/// Folds every field of \p PA, the lint's PreservedSaved masks and the
/// liveness analyzeLiveness computes through \p Cache into one 64-bit
/// digest.
uint64_t digestOf(const SymbolicProgram &SP, const ProgramAnalysis &PA,
                  ThreadPool &Pool, SummaryCache &Cache) {
  const std::vector<uint64_t> Saved = preservedSaved(SP, PA, Pool);
  const ProgramLiveness Live = analyzeLiveness(SP, PA, Pool, Cache);
  Hasher H;
  auto addGp = [&H](const GpVal &G) {
    H.addBool(G.MaybeEntry);
    H.addBool(G.MaybeOther);
    H.addU64(G.Groups);
  };
  H.addU64(PA.Cfgs.size());
  for (const std::shared_ptr<const Cfg> &C : PA.Cfgs) {
    H.addU64(C->Blocks.size());
    for (const CfgBlock &B : C->Blocks) {
      H.addU32(B.Begin);
      H.addU32(B.End);
    }
  }
  H.addU64(PA.Summaries.size());
  for (size_t P = 0; P < PA.Summaries.size(); ++P) {
    const ProcSummary &S = PA.Summaries[P];
    addGp(S.EntryGp);
    addGp(S.ExitGp);
    H.addBool(S.Returns);
    H.addBool(S.ClobbersPv);
    H.addBool(S.ReadsPvAtEntry);
    H.addU64(Saved[P]);
  }
  H.addU64(PA.Values.size());
  for (const std::shared_ptr<const ProcValues> &V : PA.Values) {
    H.addU64(V->In.size());
    for (const ValueState &S : V->In) {
      H.addBool(S.Unreachable);
      addGp(S.Gp);
      for (const AbsVal &A : S.R) {
        H.addU8(static_cast<uint8_t>(A.Kind));
        H.addU32(A.Id);
      }
    }
  }
  H.addU64(Live.Procs.size());
  for (const std::shared_ptr<const ProcLiveness> &L : Live.Procs) {
    H.addU64(L->In.size());
    for (uint64_t U : L->In)
      H.addU64(U);
    H.addU64(L->Out.size());
    for (uint64_t U : L->Out)
      H.addU64(U);
  }
  H.addU64(PA.ReachableGroups.size());
  for (uint64_t G : PA.ReachableGroups)
    H.addU64(G);
  addGp(PA.IndirectExitGp);
  H.addBool(PA.IndirectClobbersPv);
  H.addBool(PA.IndirectReturns);
  H.addBool(PA.IndirectReadsPv);
  return H.digest();
}

/// digestOf a fresh analysis of \p SP through \p Cache.
uint64_t analyzeAndDigest(const SymbolicProgram &SP, ThreadPool &Pool,
                          SummaryCache &Cache) {
  return digestOf(SP, analyzeProgram(SP, Pool, Cache), Pool, Cache);
}

/// analyzeAndDigest with a call-local cache.
uint64_t analyzeAndDigest(const SymbolicProgram &SP, ThreadPool &Pool) {
  SummaryCache Local;
  return analyzeAndDigest(SP, Pool, Local);
}

SymbolicProgram liftOrFail(const std::vector<obj::ObjectFile> &Objs,
                           ThreadPool &Pool) {
  Result<SymbolicProgram> SP = liftProgram(Objs, OmOptions(), Pool);
  EXPECT_TRUE(bool(SP)) << SP.message();
  return SP ? SP.take() : SymbolicProgram();
}

megagen::MegaSpec smallSpec(megagen::CallShape Shape) {
  megagen::MegaSpec Spec;
  Spec.Seed = 20;
  Spec.Shape = Shape;
  Spec.Modules = 4;
  Spec.ProcsPerModule = 6;
  Spec.TargetInstructions = 6000;
  return Spec;
}

/// Recorded digests, by program name: "<workload>/each", "<workload>/all",
/// "megagen/<shape>", and "transformed/<workload>".
const std::map<std::string, uint64_t> &goldenDigests() {
  static const std::map<std::string, uint64_t> Golden = {
    {"alvinn/each", 0xbc8c3d7fe52ac2a0ull},
    {"alvinn/all", 0x9317eeca2cde11aeull},
    {"compress/each", 0x0011a3ccde1580c6ull},
    {"compress/all", 0xe2903247da33d955ull},
    {"doduc/each", 0xe583fa4c672519c0ull},
    {"doduc/all", 0xf532b182e3c88051ull},
    {"ear/each", 0x19df0eff2b53299eull},
    {"ear/all", 0xc40b3312fc14db38ull},
    {"eqntott/each", 0x7f4dce7d40ff2877ull},
    {"eqntott/all", 0x34834ce6484272b4ull},
    {"espresso/each", 0x5c0028a57378520full},
    {"espresso/all", 0x44cfda1f596bcaf5ull},
    {"fpppp/each", 0x6b0584e4cd1cfba1ull},
    {"fpppp/all", 0x0baabd5ba1046a00ull},
    {"hydro2d/each", 0x686d6e690ca45966ull},
    {"hydro2d/all", 0xe3128ca16cec4695ull},
    {"li/each", 0x7928fe71cf1c7a68ull},
    {"li/all", 0x61ac880b8ecc3f40ull},
    {"mdljdp2/each", 0x9c19d4806182a706ull},
    {"mdljdp2/all", 0x747672814d47e836ull},
    {"mdljsp2/each", 0xa264ad93de92bcdeull},
    {"mdljsp2/all", 0xc8cdcec69c9a4362ull},
    {"nasa7/each", 0xf7364693219cd169ull},
    {"nasa7/all", 0x0bf57e2f128df9aeull},
    {"ora/each", 0x0f9d8adcf42ea163ull},
    {"ora/all", 0xe317ef89e47666dfull},
    {"sc/each", 0x3a05bec15e27e213ull},
    {"sc/all", 0xeda434c0ef705dd9ull},
    {"spice/each", 0xe2e32c2885e9196cull},
    {"spice/all", 0x8f6afeb064a1036cull},
    {"su2cor/each", 0x347d516d9d314e82ull},
    {"su2cor/all", 0x1e0d60686e0b8105ull},
    {"swm256/each", 0x884d37cf5215fa55ull},
    {"swm256/all", 0x2e654fae2d35ad11ull},
    {"tomcatv/each", 0xb4f94acd8598a46bull},
    {"tomcatv/all", 0x1b5a6990867905d4ull},
    {"wave5/each", 0xe4a4b2e68b819c37ull},
    {"wave5/all", 0xdb6963a9ca6ad153ull},
    {"megagen/deep-chains", 0x4869cb4a88b3c6e8ull},
    {"megagen/wide-fanout", 0x2be09e390bc7a259ull},
    {"megagen/hot-loops", 0x5ac633917c307fa8ull},
    {"megagen/mixed", 0x41f76a3f341b0e63ull},
    {"transformed/li", 0x2fbee302720c57e0ull},
  };
  return Golden;
}

void expectGolden(const std::string &Name, const SymbolicProgram &SP,
                  ThreadPool &Pool) {
  const uint64_t D = analyzeAndDigest(SP, Pool);
  const std::string Entry =
      formatString("{\"%s\", %sull}", Name.c_str(), formatHex64(D).c_str());
  auto It = goldenDigests().find(Name);
  ASSERT_NE(It, goldenDigests().end()) << "no recorded digest: " << Entry;
  EXPECT_EQ(D, It->second) << "analysis digest changed: " << Entry;
}

TEST(AnalysisGoldenTest, WorkloadsInBothLinkSets) {
  ThreadPool Pool(4);
  for (const std::string &Name : wl::workloadNames()) {
    Result<wl::BuiltWorkload> W = wl::buildWorkload(Name);
    ASSERT_TRUE(bool(W)) << Name << ": " << W.message();
    for (wl::CompileMode Mode : {wl::CompileMode::Each, wl::CompileMode::All}) {
      SymbolicProgram SP = liftOrFail(W->linkSet(Mode), Pool);
      expectGolden(Name + (Mode == wl::CompileMode::Each ? "/each" : "/all"),
                   SP, Pool);
    }
  }
}

TEST(AnalysisGoldenTest, MegagenShapes) {
  ThreadPool Pool(4);
  for (megagen::CallShape Shape :
       {megagen::CallShape::DeepChains, megagen::CallShape::WideFanout,
        megagen::CallShape::HotLoops, megagen::CallShape::Mixed}) {
    megagen::MegaProgram MP = megagen::generate(smallSpec(Shape));
    SymbolicProgram SP = liftOrFail(MP.Objects, Pool);
    expectGolden(std::string("megagen/") + megagen::shapeName(Shape), SP,
                 Pool);
  }
}

TEST(AnalysisGoldenTest, ProgramAfterAnalysisDeletions) {
  // The call transforms with Analysis on: pattern rewrites, then the two
  // proof-based deletion passes, leaving AnalysisNullified marks that the
  // analysis of the result must treat as deleted code.
  ThreadPool Pool(4);
  Result<wl::BuiltWorkload> W = wl::buildWorkload("li");
  ASSERT_TRUE(bool(W)) << W.message();
  SymbolicProgram SP = liftOrFail(W->linkSet(wl::CompileMode::Each), Pool);
  OmOptions Opts;
  Opts.Level = OmLevel::Full;
  Opts.Analysis = true;
  OmStats Stats;
  SummaryCache Cache;
  OmContext Ctx(SP, Pool, Cache);
  runCallTransforms(SP, Opts, Stats, Ctx);
  ASSERT_GT(Stats.AnalysisGpPairsDeleted + Stats.AnalysisPvLoadsDeleted, 0u)
      << "the corpus program must carry Pass A deletions";
  expectGolden("transformed/li", SP, Pool);
}

/// Replaces the destination of the first plain register-writing operate
/// instruction of \p Proc with GP, so every caller that relied on the
/// procedure returning GP unchanged loses that fact: an edit whose effect
/// reaches well beyond the edited procedure.
bool clobberGp(SymProc &Proc) {
  for (SymInst &SI : Proc.Insts)
    if (SI.Kind == SKind::Plain && !SI.Nullified &&
        isa::classOf(SI.I.Op) == isa::InstClass::IntOp &&
        SI.I.Rc != isa::Zero) {
      SI.I.Rc = isa::GP;
      return true;
    }
  return false;
}

TEST(AnalysisGoldenTest, CacheHistoryNeverChangesTheResult) {
  ThreadPool Pool(4);
  megagen::MegaProgram MP =
      megagen::generate(smallSpec(megagen::CallShape::Mixed));
  SymbolicProgram Before = liftOrFail(MP.Objects, Pool);
  const uint64_t BeforeDigest = analyzeAndDigest(Before, Pool);

  // Edit a procedure that others call, so the edit moves summaries.
  SymbolicProgram After = Before;
  uint32_t Edited = ~0u;
  for (uint32_t P = 0; P < After.Procs.size() && Edited == ~0u; ++P)
    if (!After.Procs[P].IsEntry && clobberGp(After.Procs[P]))
      Edited = P;
  ASSERT_NE(Edited, ~0u);
  const uint64_t AfterDigest = analyzeAndDigest(After, Pool);
  ASSERT_NE(AfterDigest, BeforeDigest) << "the edit must change the analysis";

  SummaryCache Warm;
  EXPECT_EQ(analyzeAndDigest(Before, Pool, Warm), BeforeDigest);
  const SummaryCache::Counters First = Warm.Totals;
  EXPECT_EQ(analyzeAndDigest(After, Pool, Warm), AfterDigest)
      << "a warm cache changed the analysis of the edited program";
  EXPECT_GT(Warm.Totals.RoundsReused, First.RoundsReused)
      << "the re-analysis reused nothing, so it tested nothing";
  // And back again: entries of the edited program must not leak either.
  EXPECT_EQ(analyzeAndDigest(Before, Pool, Warm), BeforeDigest);
}

TEST(AnalysisGoldenTest, UnchangedProgramEvaluatesNoRound) {
  for (unsigned Jobs : {1u, 4u}) {
    ThreadPool Pool(Jobs);
    megagen::MegaProgram MP =
        megagen::generate(smallSpec(megagen::CallShape::DeepChains));
    SymbolicProgram SP = liftOrFail(MP.Objects, Pool);
    SummaryCache Cache;
    const uint64_t D = analyzeAndDigest(SP, Pool, Cache);
    const SummaryCache::Counters First = Cache.Totals;
    EXPECT_EQ(First.Runs, 1u);
    EXPECT_GT(First.RoundsEvaluated, 0u);
    EXPECT_EQ(analyzeAndDigest(SP, Pool, Cache), D);
    EXPECT_EQ(Cache.Totals.Runs, 2u);
    EXPECT_EQ(Cache.Totals.RoundsEvaluated, First.RoundsEvaluated)
        << "-j" << Jobs << ": a second call re-evaluated rounds";
    EXPECT_GT(Cache.Totals.RoundsReused, First.RoundsReused) << "-j" << Jobs;
  }
}

/// Links \p Objs at -O full --sched --analysis --verify: the rescheduler
/// compares its regions with a fresh analysis of the post-deletion program
/// on every instruction.
void expectVerifiedSchedLink(const std::string &Name,
                             const std::vector<obj::ObjectFile> &Objs) {
  OmOptions Opts;
  Opts.Level = OmLevel::Full;
  Opts.Reschedule = true;
  Opts.Analysis = true;
  Opts.Verify = true;
  Opts.Jobs = 1;
  Result<OmResult> R = optimize(Objs, Opts);
  ASSERT_TRUE(bool(R)) << Name << ": " << R.message();
}

TEST(ValuesOnlyOracleTest, WorkloadsInBothLinkSets) {
  for (const std::string &Name : wl::workloadNames()) {
    Result<wl::BuiltWorkload> W = wl::buildWorkload(Name);
    ASSERT_TRUE(bool(W)) << Name << ": " << W.message();
    for (wl::CompileMode Mode : {wl::CompileMode::Each, wl::CompileMode::All}) {
      const std::string Set =
          Name + (Mode == wl::CompileMode::Each ? "/each" : "/all");
      expectVerifiedSchedLink(Set, W->linkSet(Mode));
    }
  }
}

TEST(ValuesOnlyOracleTest, MegagenShapes) {
  for (megagen::CallShape Shape :
       {megagen::CallShape::DeepChains, megagen::CallShape::WideFanout,
        megagen::CallShape::HotLoops, megagen::CallShape::Mixed}) {
    megagen::MegaProgram MP = megagen::generate(smallSpec(Shape));
    const std::string Name =
        std::string("megagen/") + megagen::shapeName(Shape);
    expectVerifiedSchedLink(Name, MP.Objects);
  }
}

TEST(ValuesOnlyOracleTest, VerifyNamesTheMismatchedInstruction) {
  // Forget that SP is a stack pointer in one procedure's stored values:
  // its stack accesses classify Unknown, which the fresh analysis
  // contradicts, instruction by instruction.
  ThreadPool Pool(1);
  megagen::MegaProgram MP =
      megagen::generate(smallSpec(megagen::CallShape::Mixed));
  SymbolicProgram SP = liftOrFail(MP.Objects, Pool);
  ProgramAnalysis PA = analyzeProgram(SP, Pool);
  ASSERT_FALSE(bool(verifyMemBaseRegions(SP, PA, Pool)));
  uint32_t Proc = ~0u, Inst = 0;
  for (uint32_t P = 0; P < SP.Procs.size() && Proc == ~0u; ++P) {
    std::vector<sched::MemRegion> R = memBaseRegions(SP, PA, P);
    for (uint32_t I = 0; I < R.size() && Proc == ~0u; ++I)
      if (R[I] == sched::MemRegion::Stack) {
        Proc = P;
        Inst = I;
      }
  }
  ASSERT_NE(Proc, ~0u) << "no stack access to misclassify";
  auto Broken = std::make_shared<ProcValues>(*PA.Values[Proc]);
  for (ValueState &S : Broken->In)
    if (!S.Unreachable)
      S.R[isa::intUnit(isa::SP)] = AbsVal::unknown();
  PA.Values[Proc] = Broken;
  Error E = verifyMemBaseRegions(SP, PA, Pool);
  ASSERT_TRUE(bool(E));
  const std::string Where = formatString(
      "sched-regions:%s:%u:", SP.Procs[Proc].Name.c_str(), Inst + 1);
  EXPECT_NE(E.message().find(Where), std::string::npos) << E.message();
  EXPECT_NE(E.message().find("base region unknown, but a fresh full "
                             "analysis says stack"),
            std::string::npos)
      << E.message();
}

} // namespace
