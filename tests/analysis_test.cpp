//===- tests/analysis_test.cpp - OmAnalysis dataflow tests ----------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tier-1 coverage of om/Analysis.h: the abstract value lattice, golden
/// CFG/liveness results on hand-built procedures (diamond, loop,
/// irreducible), liveness computed only when Pass B asks, memory-base
/// classification, the dataflow-vs-pattern
/// ReachableGroups subset audit, and the analysis-driven deletion phase of
/// a full optimize() run (counters, verify stage, execution equivalence).
///
//===----------------------------------------------------------------------===//

#include "om/Analysis.h"
#include "om/Lint.h"
#include "om/OmImpl.h"
#include "om/Verify.h"
#include "support/ThreadPool.h"

#include "TestUtil.h"

#include <set>

using namespace om64;
using namespace om64::om;
using namespace om64::om::analysis;
using namespace om64::isa;
using namespace om64::test;

namespace {

//===----------------------------------------------------------------------===//
// Abstract value lattice
//===----------------------------------------------------------------------===//

TEST(AbsValTest, MeetLattice) {
  AbsVal B = AbsVal::bottom();
  AbsVal E = AbsVal::entryOf(3);
  AbsVal A = AbsVal::addrOf(7);
  AbsVal G = AbsVal::gpOfGroup(1);
  AbsVal S = AbsVal::stack();
  AbsVal U = AbsVal::unknown();

  // Bottom is the identity.
  EXPECT_EQ(AbsVal::meet(B, E), E);
  EXPECT_EQ(AbsVal::meet(E, B), E);
  // Equal values meet to themselves.
  EXPECT_EQ(AbsVal::meet(E, AbsVal::entryOf(3)), E);
  EXPECT_EQ(AbsVal::meet(S, AbsVal::stack()), S);
  // Two different global-derived values lose identity but stay global.
  AbsVal M = AbsVal::meet(E, A);
  EXPECT_EQ(M.Kind, ValueKind::GlobalPtr);
  EXPECT_TRUE(AbsVal::meet(G, A).isGlobalDerived());
  // Global vs stack disagreement is Unknown.
  EXPECT_EQ(AbsVal::meet(E, S), U);
  // Unknown absorbs.
  EXPECT_EQ(AbsVal::meet(U, E), U);
}

TEST(AbsValTest, GpValProvenGroup) {
  EXPECT_TRUE(GpVal::ofGroup(2).provenGroup(2));
  EXPECT_FALSE(GpVal::ofGroup(2).provenGroup(1));
  GpVal G = GpVal::ofGroup(2);
  G |= GpVal::ofGroup(3);
  EXPECT_FALSE(G.provenGroup(2)); // may hold either group's GP
  EXPECT_FALSE(GpVal::other().provenGroup(0));
  // Groups past the 64-bit mask saturate conservatively.
  EXPECT_FALSE(GpVal::ofGroup(64).provenGroup(64));
}

//===----------------------------------------------------------------------===//
// Hand-built CFGs
//===----------------------------------------------------------------------===//

SymInst plain(Inst I) {
  SymInst S;
  S.I = I;
  return S;
}

SymInst branch(Opcode Op, uint8_t Ra, int32_t TargetIdx) {
  SymInst S;
  S.I = makeBranch(Op, Ra, 0);
  S.Kind = SKind::LocalBranch;
  S.TargetIdx = TargetIdx;
  return S;
}

SymInst ret() { return plain(makeJump(Opcode::Ret, Zero, RA)); }

/// Wraps hand-written instructions into a one-procedure program whose
/// entry is the procedure itself (so the loader seeds GP).
SymbolicProgram makeProgram(std::vector<SymInst> Insts) {
  SymbolicProgram SP;
  PSym S;
  S.Name = "t.main";
  S.IsProc = true;
  S.ProcIdx = 0;
  SP.Syms.push_back(std::move(S));
  SymProc P;
  P.Name = "t.main";
  P.SymId = 0;
  P.IsEntry = true;
  P.Insts = std::move(Insts);
  SP.Procs.push_back(std::move(P));
  SP.NumObjects = 1;
  SP.GroupOfObj = {0};
  return SP;
}

TEST(CfgTest, DiamondDominators) {
  SymProc P;
  P.Name = "diamond";
  P.Insts = {branch(Opcode::Beq, T0, 3),          // A: 0
             plain(makeMem(Opcode::Lda, V0, 1, Zero)), // B: 1
             branch(Opcode::Br, Zero, 4),         //    2
             plain(makeMem(Opcode::Lda, V0, 2, Zero)), // C: 3
             ret()};                              // D: 4
  Cfg C = buildCfg(P);
  ASSERT_EQ(C.Blocks.size(), 4u);
  // A=0 [0,1), B=1 [1,3), C=2 [3,4), D=3 [4,5).
  EXPECT_EQ(C.BlockOf[0], 0u);
  EXPECT_EQ(C.BlockOf[2], 1u);
  EXPECT_EQ(C.BlockOf[3], 2u);
  EXPECT_EQ(C.BlockOf[4], 3u);
  for (uint32_t B = 0; B < 4; ++B)
    EXPECT_TRUE(C.Blocks[B].Reachable) << "block " << B;
  EXPECT_FALSE(C.FallsOffEnd);
}

TEST(CfgTest, LoopBackEdge) {
  SymProc P;
  P.Name = "loop";
  P.Insts = {plain(makeMem(Opcode::Lda, T0, 3, Zero)),  // A: 0
             plain(makeOpLit(Opcode::Subq, T0, 1, T0)), // B: 1
             branch(Opcode::Bne, T0, 1),                //    2
             ret()};                                    // C: 3
  Cfg C = buildCfg(P);
  ASSERT_EQ(C.Blocks.size(), 3u);
  // B's successors: itself (back edge) and C.
  const CfgBlock &B = C.Blocks[1];
  ASSERT_EQ(B.NumSuccs, 2u);
  EXPECT_TRUE((B.Succs[0] == 1 && B.Succs[1] == 2) ||
              (B.Succs[0] == 2 && B.Succs[1] == 1));
}

TEST(CfgTest, IrreducibleTwoEntryLoop) {
  SymProc P;
  P.Name = "irr";
  P.Insts = {branch(Opcode::Beq, T0, 3),               // A: 0
             plain(makeMem(Opcode::Lda, V0, 1, Zero)), // X: 1
             branch(Opcode::Br, Zero, 3),              //    2
             plain(makeMem(Opcode::Lda, V0, 2, Zero)), // Y: 3
             branch(Opcode::Beq, V0, 1),               //    4
             ret()};                                   // Z: 5
  Cfg C = buildCfg(P);
  ASSERT_EQ(C.Blocks.size(), 4u);
}

TEST(CfgTest, UnreachableAndFallOff) {
  SymProc P;
  P.Name = "dead";
  P.Insts = {branch(Opcode::Br, Zero, 2),
             plain(makeMem(Opcode::Lda, V0, 1, Zero)), // skipped
             plain(makeMem(Opcode::Lda, V0, 2, Zero))}; // no terminator
  Cfg C = buildCfg(P);
  ASSERT_EQ(C.Blocks.size(), 3u);
  EXPECT_TRUE(C.Blocks[0].Reachable);
  EXPECT_FALSE(C.Blocks[1].Reachable);
  EXPECT_TRUE(C.Blocks[2].Reachable);
  EXPECT_TRUE(C.FallsOffEnd);
}

//===----------------------------------------------------------------------===//
// Liveness and values on a whole (tiny) program
//===----------------------------------------------------------------------===//

TEST(AnalysisTest, LivenessGolden) {
  SymbolicProgram Prog = makeProgram(
      {plain(makeOp(Opcode::Addq, T1, Zero, V0)), ret()});
  ThreadPool Pool(1);
  SummaryCache Cache;
  ProgramAnalysis PA = analyzeProgram(Prog, Pool, Cache);
  ProgramLiveness Live = analyzeLiveness(Prog, PA, Pool, Cache);
  ASSERT_EQ(Live.Procs.size(), 1u);
  uint64_t EntryLive = Live.Procs[0]->In[0];
  EXPECT_TRUE(EntryLive & (1ull << intUnit(T1))); // read before any write
  EXPECT_FALSE(EntryLive & (1ull << intUnit(T0))); // never read
  EXPECT_TRUE(EntryLive & (1ull << intUnit(RA))); // the RET needs it
  // After the ADDQ writes V0, T1 is dead.
  uint64_t AfterAdd = Live.liveAfter(Prog, PA, 0, 0);
  EXPECT_FALSE(AfterAdd & (1ull << intUnit(T1)));
  EXPECT_TRUE(AfterAdd & (1ull << intUnit(V0))); // the return value
}

TEST(AnalysisTest, ValueTrackingAndMemBaseRegions) {
  SymbolicProgram Prog = makeProgram({
      plain(makeMem(Opcode::Lda, T0, 16, SP)),   // 0: t0 = sp+16 (stack)
      plain(makeMem(Opcode::Ldq, T1, 0, T0)),    // 1: stack load
      plain(makeMem(Opcode::Ldq, T2, 0, GP)),    // 2: global load
      plain(makeMem(Opcode::Ldq, V0, 0, A0)),    // 3: unknown base
      plain(makeMem(Opcode::Stq, T1, 8, T0)),    // 4: stack store
      ret(),                                     // 5
  });
  ThreadPool Pool(1);
  ProgramAnalysis PA = analyzeProgram(Prog, Pool);

  ValueState S = PA.valuesBefore(Prog, 0, 1);
  EXPECT_EQ(S.R[intUnit(T0)].Kind, ValueKind::Stack);
  EXPECT_FALSE(S.Unreachable);
  // Entry state: temps are Uninit, SP is the stack pointer.
  ValueState E = PA.valuesBefore(Prog, 0, 0);
  EXPECT_EQ(E.R[intUnit(T1)].Kind, ValueKind::Uninit);
  EXPECT_EQ(E.R[intUnit(SP)].Kind, ValueKind::Stack);

  using sched::MemRegion;
  std::vector<MemRegion> Regions = memBaseRegions(Prog, PA, 0);
  ASSERT_EQ(Regions.size(), 6u);
  EXPECT_EQ(Regions[0], MemRegion::Unknown); // LDA is not a memory access
  EXPECT_EQ(Regions[1], MemRegion::Stack);   // stack load
  EXPECT_EQ(Regions[2], MemRegion::Global);  // global load
  EXPECT_EQ(Regions[3], MemRegion::Unknown); // argument base: unknown
  EXPECT_EQ(Regions[4], MemRegion::Stack);   // stack store
  EXPECT_EQ(Regions[5], MemRegion::Unknown);
}

//===----------------------------------------------------------------------===//
// Dataflow vs pattern reach sets, and the deletion phase end to end
//===----------------------------------------------------------------------===//

const char *CallHeavySource = R"(
module t;
import io;
var acc: int;
func leaf(x: int): int {
  return x * 3 + 1;
}
func mid(x: int): int {
  return leaf(x) + leaf(x + 1);
}
export func main(): int {
  var i: int;
  i = 0;
  while (i < 5) {
    acc = acc + mid(i);
    i = i + 1;
  }
  io.print_int_ln(acc);
  return 0;
}
)";

TEST(AnalysisTest, ReachableGroupsIsSubsetOfPattern) {
  lang::Program P = parseProgram({{"t", CallHeavySource}});
  std::vector<obj::ObjectFile> Objs = compileAll(P);
  OmOptions Opts;
  ThreadPool Pool(1);
  Result<SymbolicProgram> SP = liftProgram(Objs, Opts, Pool);
  ASSERT_TRUE(bool(SP)) << SP.message();
  ProgramAnalysis PA = analyzeProgram(*SP, Pool);
  GroupReachability Pattern = computeReachableGroups(*SP, Pool);
  ASSERT_EQ(PA.ReachableGroups.size(), Pattern.Bits.size() / Pattern.Words);
  for (size_t I = 0; I < PA.ReachableGroups.size(); ++I)
    EXPECT_EQ(PA.ReachableGroups[I] & ~Pattern.projected64(I), 0u)
        << "dataflow reach set exceeds the pattern's for "
        << SP->Procs[I].Name;
}

TEST(AnalysisTest, AnalysisDeletionsBeatPatternAndStayCorrect) {
  lang::Program P = parseProgram({{"t", CallHeavySource}});
  DiagnosticEngine Diags;
  ASSERT_TRUE(lang::checkEntryPoint(P, Diags)) << Diags.render();
  std::vector<obj::ObjectFile> Objs = compileAll(P);

  OmOptions PatternOpts;
  PatternOpts.Level = OmLevel::Full;
  Result<OmResult> Pattern = optimize(Objs, PatternOpts);
  ASSERT_TRUE(bool(Pattern)) << Pattern.message();

  OmOptions AnaOpts = PatternOpts;
  AnaOpts.Analysis = true;
  AnaOpts.Verify = true; // includes the deletion-proof stage
  Result<OmResult> Ana = optimize(Objs, AnaOpts);
  ASSERT_TRUE(bool(Ana)) << Ana.message();

  const OmStats &S = Ana->Stats;
  EXPECT_GT(S.AnalysisGpPairsDeleted + S.AnalysisPvLoadsDeleted +
                S.AnalysisDeadLoadsDeleted,
            0u)
      << "the dataflow proved nothing beyond the patterns";
  EXPECT_GE(Ana->Stats.InstructionsDeleted,
            Pattern->Stats.InstructionsDeleted);

  Result<sim::SimResult> RunPattern = sim::run(Pattern->Image);
  Result<sim::SimResult> RunAna = sim::run(Ana->Image);
  ASSERT_TRUE(bool(RunPattern)) << RunPattern.message();
  ASSERT_TRUE(bool(RunAna)) << RunAna.message();
  EXPECT_EQ(RunAna->Output, RunPattern->Output);
  EXPECT_EQ(RunAna->ExitCode, RunPattern->ExitCode);
}

TEST(AnalysisTest, OnlyPassBComputesLiveness) {
  // Pass A, like the rescheduler, reads values only; Pass B computes each
  // procedure's liveness once, through the link's cache.
  lang::Program P = parseProgram({{"t", CallHeavySource}});
  std::vector<obj::ObjectFile> Objs = compileAll(P);
  OmOptions Opts;
  Opts.Level = OmLevel::Full;
  Opts.Analysis = true;
  ThreadPool Pool(1);
  Result<SymbolicProgram> SP = liftProgram(Objs, Opts, Pool);
  ASSERT_TRUE(bool(SP)) << SP.message();
  SummaryCache Cache;
  OmContext Ctx(*SP, Pool, Cache);
  Ctx.program();
  EXPECT_TRUE(Cache.Liveness.empty()) << "an analysis computed liveness";
  OmStats Stats;
  runCallTransforms(*SP, Opts, Stats, Ctx);
  // Pass A's deletions move the keys of the procedures they touch, so a
  // liveness computed for Pass A's program would add entries.
  ASSERT_GT(Stats.AnalysisGpPairsDeleted + Stats.AnalysisPvLoadsDeleted, 0u);
  EXPECT_EQ(Cache.Liveness.size(), SP->Procs.size());
}

TEST(AnalysisTest, SchedulerUsesBaseRegionsUnderAnalysis) {
  lang::Program P = parseProgram({{"t", CallHeavySource}});
  DiagnosticEngine Diags;
  ASSERT_TRUE(lang::checkEntryPoint(P, Diags)) << Diags.render();
  std::vector<obj::ObjectFile> Objs = compileAll(P);

  OmOptions Opts;
  Opts.Level = OmLevel::Full;
  Opts.Reschedule = true;
  Opts.AlignLoopTargets = true;
  Opts.Analysis = true;
  Opts.Verify = true;
  Result<OmResult> R = optimize(Objs, Opts);
  ASSERT_TRUE(bool(R)) << R.message();
  // The workload stores to globals and to the stack in the same regions,
  // so the classifier must free at least one store/store or load/store
  // pair.
  EXPECT_GT(R->Stats.SchedMemDepsFreed, 0u);

  Result<sim::SimResult> Run = sim::run(R->Image);
  ASSERT_TRUE(bool(Run)) << Run.message();
  EXPECT_EQ(Run->ExitCode, 0);
}

TEST(AnalysisTest, WorkCountersAreIdenticalAcrossJobCounts) {
  lang::Program P = parseProgram({{"t", CallHeavySource}});
  DiagnosticEngine Diags;
  ASSERT_TRUE(lang::checkEntryPoint(P, Diags)) << Diags.render();
  std::vector<obj::ObjectFile> Objs = compileAll(P);

  OmOptions Opts;
  Opts.Level = OmLevel::Full;
  Opts.Reschedule = true;
  Opts.Analysis = true;
  Opts.Lint = true;
  Opts.Verify = true; // its re-derivation must not count as link work
  Opts.SerialFallbackInsts = 0;
  Opts.Jobs = 1;
  Result<OmResult> Serial = optimize(Objs, Opts);
  ASSERT_TRUE(bool(Serial)) << Serial.message();
  Opts.Jobs = 4;
  Result<OmResult> Par = optimize(Objs, Opts);
  ASSERT_TRUE(bool(Par)) << Par.message();

  const OmStats &S = Serial->Stats;
  // Lint, deletion Pass A, Pass B, and the rescheduler's classification.
  EXPECT_EQ(S.AnalysisRuns, 4u);
  EXPECT_GT(S.AnalysisRoundsEvaluated, 0u);
  // Later runs reuse the rounds of procedures the passes left unchanged.
  EXPECT_GT(S.AnalysisRoundsReused, 0u);
  EXPECT_EQ(Par->Stats.AnalysisRuns, S.AnalysisRuns);
  EXPECT_EQ(Par->Stats.AnalysisRoundsEvaluated, S.AnalysisRoundsEvaluated);
  EXPECT_EQ(Par->Stats.AnalysisRoundsReused, S.AnalysisRoundsReused);

  // A link without the analysis or the lint runs no dataflow at all.
  Opts.Analysis = false;
  Opts.Lint = false;
  Result<OmResult> Plain = optimize(Objs, Opts);
  ASSERT_TRUE(bool(Plain)) << Plain.message();
  EXPECT_EQ(Plain->Stats.AnalysisRuns, 0u);
  EXPECT_EQ(Plain->Stats.AnalysisRoundsEvaluated, 0u);
  EXPECT_EQ(Plain->Stats.AnalysisRoundsReused, 0u);
}

//===----------------------------------------------------------------------===//
// Lint corpus: exact diagnostics
//===----------------------------------------------------------------------===//

TEST(LintTest, CorpusReportsExactlyTheSeededDefect) {
  std::vector<LintCase> Corpus = lintCorpus();
  ASSERT_EQ(Corpus.size(), 11u);
  std::set<std::string> Codes;
  for (const LintCase &Case : Corpus) {
    ThreadPool Pool(1);
    OmOptions Opts;
    std::vector<obj::ObjectFile> Objs = {Case.Obj};
    Result<SymbolicProgram> SP = liftProgram(Objs, Opts, Pool);
    ASSERT_TRUE(bool(SP)) << Case.Name << ": " << SP.message();
    ProgramAnalysis PA = analyzeProgram(*SP, Pool);
    std::vector<LintFinding> Findings = lintProgram(*SP, PA, Pool);
    size_t N = Findings.size();
    std::string Rendered = renderLintText(Findings, /*Explain=*/false);
    if (Case.Code.empty()) {
      EXPECT_EQ(N, 0u) << "clean case flagged:\n" << Rendered;
      continue;
    }
    Codes.insert(Case.Code);
    EXPECT_GT(N, 0u) << Case.Name << " was not flagged";
    EXPECT_NE(Rendered.find(Case.Code + ":"), std::string::npos)
        << Case.Name << " findings lack " << Case.Code << ":\n"
        << Rendered;
    // Exactly one defect is seeded per corpus module.
    EXPECT_EQ(N, 1u) << Case.Name << " over-reported:\n" << Rendered;
  }
  EXPECT_EQ(Codes.size(), 10u) << "corpus must cover L001..L010";
}

} // namespace
