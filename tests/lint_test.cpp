//===- tests/lint_test.cpp - Binary lint gate tests -----------------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lint half of the tier-1 gate: every SPEC92-shaped workload must
/// lint clean in both compile modes (a lint finding on real toolchain
/// output is either a toolchain bug or a lint false positive — both block
/// the gate), and the seeded corpus modules must each report exactly their
/// defect with the right code, procedure, and instruction provenance.
///
//===----------------------------------------------------------------------===//

#include "isa/Inst.h"
#include "megagen/MegaGen.h"
#include "om/Lint.h"
#include "om/OmImpl.h"
#include "support/ThreadPool.h"

#include "TestUtil.h"

using namespace om64;
using namespace om64::om;
using namespace om64::om::analysis;
using namespace om64::test;
using namespace om64::isa;

namespace {

/// Lints the given objects; returns the findings count and fills
/// \p Rendered with the diagnostics.
unsigned lintAndRender(const std::vector<obj::ObjectFile> &Objs,
                       std::string &Rendered) {
  ThreadPool Pool(0);
  OmOptions Opts;
  Result<SymbolicProgram> SP = liftProgram(Objs, Opts, Pool);
  EXPECT_TRUE(bool(SP)) << SP.message();
  if (!SP)
    return ~0u;
  ProgramAnalysis PA = analyzeProgram(*SP, Pool);
  std::vector<LintFinding> Findings = lintProgram(*SP, PA, Pool);
  Rendered = renderLintText(Findings, /*Explain=*/false);
  return static_cast<unsigned>(Findings.size());
}

class WorkloadLintTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadLintTest, LintsClean) {
  const std::string &Name = GetParam();
  Result<wl::BuiltWorkload> W = wl::buildWorkload(Name);
  ASSERT_TRUE(bool(W)) << W.message();
  for (wl::CompileMode Mode : {wl::CompileMode::Each, wl::CompileMode::All}) {
    std::string Rendered;
    unsigned N = lintAndRender(W->linkSet(Mode), Rendered);
    EXPECT_EQ(N, 0u) << Name << " ("
                     << (Mode == wl::CompileMode::Each ? "each" : "all")
                     << "): " << Rendered;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadLintTest,
                         ::testing::ValuesIn(wl::workloadNames()),
                         [](const auto &Info) { return Info.param; });

/// The corpus cases double as provenance goldens: the diagnostic must name
/// the defective procedure, not merely the code.
TEST(LintCorpusTest, FindingsCarryProvenance) {
  for (const LintCase &Case : lintCorpus()) {
    if (Case.Code.empty())
      continue;
    std::string Rendered;
    unsigned N = lintAndRender({Case.Obj}, Rendered);
    ASSERT_EQ(N, 1u) << Case.Name << ":\n" << Rendered;
    EXPECT_NE(Rendered.find(Case.Code), std::string::npos) << Rendered;
    // Every corpus diagnostic is anchored in a lintcase procedure buffer.
    EXPECT_NE(Rendered.find("lint:lintcase."), std::string::npos)
        << Case.Name << " diagnostic lacks a procedure buffer:\n"
        << Rendered;
  }
}

/// The clean corpus module also survives a whole optimize() run — corpus
/// objects are real linkable modules, not just lint fixtures.
TEST(LintCorpusTest, CleanModuleLinks) {
  for (const LintCase &Case : lintCorpus()) {
    if (!Case.Code.empty())
      continue;
    OmOptions Opts;
    Opts.Level = OmLevel::Full;
    Result<OmResult> R = optimize({Case.Obj}, Opts);
    EXPECT_TRUE(bool(R)) << R.message();
  }
}

/// Every seeded corpus defect carries a non-empty witness path ending at
/// the defect site, and --explain rendering shows the numbered trace.
TEST(LintCorpusTest, FindingsCarryWitnessPaths) {
  for (const LintCase &Case : lintCorpus()) {
    if (Case.Code.empty())
      continue;
    ThreadPool Pool(1);
    OmOptions Opts;
    std::vector<obj::ObjectFile> Objs = {Case.Obj};
    Result<SymbolicProgram> SP = liftProgram(Objs, Opts, Pool);
    ASSERT_TRUE(bool(SP)) << Case.Name << ": " << SP.message();
    ProgramAnalysis PA = analyzeProgram(*SP, Pool);
    std::vector<LintFinding> Fs = lintProgram(*SP, PA, Pool);
    ASSERT_EQ(Fs.size(), 1u) << Case.Name;
    EXPECT_FALSE(Fs[0].Witness.empty()) << Case.Name;
    // The trace ends at the defect instruction.
    EXPECT_EQ(Fs[0].Witness.back().InstIdx, Fs[0].InstIdx) << Case.Name;
    std::string Explained = renderLintText(Fs, /*Explain=*/true);
    EXPECT_NE(Explained.find("  #0 "), std::string::npos)
        << Case.Name << ":\n"
        << Explained;
    // Plain rendering is a prefix of the explained one: the witness only
    // appends.
    std::string Plain = renderLintText(Fs, /*Explain=*/false);
    EXPECT_EQ(Explained.compare(0, Plain.size(), Plain), 0);
  }
}

/// Assembles one module with several defective procedures, for ordering
/// tests: findings must come out sorted by procedure order, then
/// instruction, regardless of worker count.
obj::ObjectFile makeMultiDefectObject() {
  struct P {
    std::string Name;
    std::vector<Inst> Insts;
  };
  // main: clean. bad_uninit: L001. bad_saved: L007. bad_frame: L006 at +4
  // and L007 at +16 (s1 clobbered) — two findings in one procedure.
  std::vector<P> Procs = {
      {"main",
       {makeMem(Opcode::Lda, V0, 0, Zero), makeJump(Opcode::Ret, Zero, RA)}},
      {"bad_uninit",
       {makeOpLit(Opcode::Addq, T0, 1, V0),
        makeJump(Opcode::Ret, Zero, RA)}},
      {"bad_saved",
       {makeMem(Opcode::Lda, S0, 1, Zero),
        makeJump(Opcode::Ret, Zero, RA)}},
      {"bad_frame",
       {makeMem(Opcode::Lda, SP, -16, SP),
        makeMem(Opcode::Stq, Zero, -8, SP),
        makeMem(Opcode::Lda, SP, 16, SP),
        makeMem(Opcode::Lda, S1, 2, Zero),
        makeJump(Opcode::Ret, Zero, RA)}},
  };
  obj::ObjectFile O;
  O.ModuleName = "multidefect";
  uint64_t Off = 0;
  for (const P &Proc : Procs) {
    obj::Symbol S;
    S.Name = "multidefect." + Proc.Name;
    S.Section = obj::SectionKind::Text;
    S.Offset = Off;
    S.Size = Proc.Insts.size() * 4;
    S.IsProcedure = true;
    S.IsExported = true;
    S.IsDefined = true;
    obj::ProcDesc D;
    D.SymbolIndex = static_cast<uint32_t>(O.Symbols.size());
    D.TextOffset = Off;
    D.TextSize = S.Size;
    O.Symbols.push_back(std::move(S));
    O.Procs.push_back(D);
    for (const Inst &I : Proc.Insts) {
      uint32_t W = encode(I);
      for (unsigned B = 0; B < 4; ++B)
        O.Text.push_back(static_cast<uint8_t>(W >> (8 * B)));
    }
    Off += Proc.Insts.size() * 4;
  }
  return O;
}

/// Diagnostics must be byte-identical at every worker count — the
/// parallel lint reduces per-procedure results in procedure order.
TEST(LintOrderingTest, ByteIdenticalAcrossPoolSizes) {
  OmOptions Opts;
  std::vector<obj::ObjectFile> Objs = {makeMultiDefectObject()};
  ThreadPool Serial(1);
  Result<SymbolicProgram> SP = liftProgram(Objs, Opts, Serial);
  ASSERT_TRUE(bool(SP)) << SP.message();
  ProgramAnalysis PA = analyzeProgram(*SP, Serial);
  std::string Base = renderLintText(lintProgram(*SP, PA, Serial), true);
  // Several findings across several procedures — the ordering is
  // observable.
  ASSERT_NE(Base.find("L001"), std::string::npos) << Base;
  ASSERT_NE(Base.find("L006"), std::string::npos) << Base;
  ASSERT_NE(Base.find("L007"), std::string::npos) << Base;
  ASSERT_LT(Base.find("bad_uninit"), Base.find("bad_saved")) << Base;
  ASSERT_LT(Base.find("bad_saved"), Base.find("bad_frame")) << Base;
  for (unsigned Workers : {2u, 4u}) {
    ThreadPool Pool(Workers);
    EXPECT_EQ(renderLintText(lintProgram(*SP, PA, Pool), true), Base)
        << "lint output differs at " << Workers << " workers";
  }
}

/// All 19 workloads: -j1 and -j4 lint output must match byte for byte
/// (both are empty when clean — the assertion still pins the contract).
TEST(LintOrderingTest, WorkloadsByteIdenticalAcrossPoolSizes) {
  for (const std::string &Name : wl::workloadNames()) {
    Result<wl::BuiltWorkload> W = wl::buildWorkload(Name);
    ASSERT_TRUE(bool(W)) << W.message();
    std::vector<obj::ObjectFile> Objs = W->linkSet(wl::CompileMode::Each);
    OmOptions Opts;
    ThreadPool Serial(1);
    Result<SymbolicProgram> SP = liftProgram(Objs, Opts, Serial);
    ASSERT_TRUE(bool(SP)) << Name << ": " << SP.message();
    ProgramAnalysis PA = analyzeProgram(*SP, Serial);
    std::string Base = renderLintText(lintProgram(*SP, PA, Serial), true);
    ThreadPool Pool(4);
    EXPECT_EQ(renderLintText(lintProgram(*SP, PA, Pool), true), Base)
        << Name;
  }
}

/// Tier-1 gate: every megagen call-graph shape lints clean — the
/// generator's prologues, GP discipline, and frame accesses must satisfy
/// L001..L010 like real toolchain output does.
TEST(MegagenLintTest, AllShapesLintClean) {
  for (megagen::CallShape Shape :
       {megagen::CallShape::DeepChains, megagen::CallShape::WideFanout,
        megagen::CallShape::HotLoops, megagen::CallShape::Mixed}) {
    megagen::MegaSpec Spec;
    Spec.Shape = Shape;
    Spec.Modules = 4;
    Spec.ProcsPerModule = 6;
    Spec.TargetInstructions = 20000;
    megagen::MegaProgram MP = megagen::generate(Spec);
    std::string Rendered;
    unsigned N = lintAndRender(MP.Objects, Rendered);
    EXPECT_EQ(N, 0u) << megagen::shapeName(Shape) << ":\n" << Rendered;
  }
}

} // namespace
