//===- tests/om_test.cpp - OM link-time optimizer tests -------------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-transformation tests for OM: JSR->BSR conversion, GP-reset
/// nullification, prologue restoration and skipping, PV-load removal,
/// address-load conversion/nullification, GAT reduction, data sorting,
/// rescheduling, loop alignment, and the multi-GAT cases.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "om/OmImpl.h"
#include "om/Verify.h"

#include <gtest/gtest.h>

#include <set>

using namespace om64;
using namespace om64::isa;
using namespace om64::obj;
using namespace om64::om;
using namespace om64::test;

namespace {

std::vector<ObjectFile> buildObjects(const std::string &Source,
                                     bool Schedule = true) {
  lang::Program P = parseProgram({{"t", Source}});
  cg::CompileOptions Opts;
  Opts.Schedule = Schedule;
  return compileAll(P, Opts);
}

OmResult runOm(const std::vector<ObjectFile> &Objs, OmLevel Level,
               bool Sched = false) {
  OmOptions Opts;
  Opts.Level = Level;
  Opts.Reschedule = Sched;
  Opts.AlignLoopTargets = Sched;
  Result<OmResult> R = om::optimize(Objs, Opts);
  EXPECT_TRUE(bool(R)) << (R ? "" : R.message());
  return R ? R.take() : OmResult{};
}

unsigned countOpcode(const Image &Img, Opcode Op) {
  unsigned N = 0;
  for (uint32_t W : Img.textWords())
    if (std::optional<Inst> I = decode(W))
      N += I->Op == Op;
  return N;
}

std::string runImage(const Image &Img) {
  Result<sim::SimResult> R = sim::run(Img);
  EXPECT_TRUE(bool(R)) << (R ? "" : R.message());
  return R ? R->Output : "<error>";
}

constexpr const char *CallHeavySource = R"(
module t;
import io;
var total: int;
export func work(x: int): int {
  total = total + x;
  return total;
}
export func main(): int {
  var i: int;
  i = 0;
  while (i < 5) {
    i = i + 1;
    work(i);
  }
  io.print_int(total);
  return 0;
}
)";

TEST(OmTest, OptionsBoundJobsAndLevel) {
  // A job count or level straight off the wire must be refused before
  // any thread pool is built: UINT32_MAX jobs with the serial fallback
  // off would otherwise ask for about four billion threads.
  om::OmOptions Opts;
  Opts.SerialFallbackInsts = 0;
  Opts.Jobs = om::OmOptions::MaxJobs;
  EXPECT_TRUE(bool(om::canonicalizeOptions(Opts)));
  Opts.Jobs = UINT32_MAX;
  Result<om::OmOptions> C = om::canonicalizeOptions(Opts);
  ASSERT_FALSE(bool(C));
  EXPECT_EQ(C.message(), "job count 4294967295 exceeds the limit of 256");
  EXPECT_FALSE(bool(om::optimize({}, Opts)));
  Result<om::LintRun> L = om::lintObjects({}, Opts);
  ASSERT_FALSE(bool(L));
  EXPECT_NE(L.message().find("job count"), std::string::npos);

  Opts.Jobs = 1;
  Opts.Level = static_cast<om::OmLevel>(3);
  C = om::canonicalizeOptions(Opts);
  ASSERT_FALSE(bool(C));
  EXPECT_EQ(C.message(), "unknown optimization level 3");
}

TEST(OmTest, JsrsBecomeBsrs) {
  std::vector<ObjectFile> Objs = buildObjects(CallHeavySource);
  OmResult None = runOm(Objs, OmLevel::None);
  OmResult Simple = runOm(Objs, OmLevel::Simple);
  EXPECT_GT(countOpcode(None.Image, Opcode::Jsr), 0u);
  // "even OM-simple can change essentially all JSRs in the test programs
  // to BSRs" -- only indirect calls remain, and there are none here.
  EXPECT_EQ(countOpcode(Simple.Image, Opcode::Jsr), 0u);
  EXPECT_GT(Simple.Stats.JsrConvertedToBsr, 0u);
  EXPECT_EQ(runImage(Simple.Image), runImage(None.Image));
}

TEST(OmTest, GpResetsNullified) {
  std::vector<ObjectFile> Objs = buildObjects(CallHeavySource);
  OmResult None = runOm(Objs, OmLevel::None);
  OmResult Simple = runOm(Objs, OmLevel::Simple);
  OmResult Full = runOm(Objs, OmLevel::Full);
  EXPECT_GT(None.Stats.CallsNeedingGpReset, 0u);
  // Single GAT: every reset is redundant at both levels.
  EXPECT_EQ(Simple.Stats.CallsNeedingGpReset, 0u);
  EXPECT_EQ(Full.Stats.CallsNeedingGpReset, 0u);
  EXPECT_EQ(Simple.Stats.CallsTotal, None.Stats.CallsTotal);
}

TEST(OmTest, SimpleKeepsPvLoadsWhenScheduled) {
  // With compile-time scheduling, prologues are dispersed, so OM-simple
  // cannot retarget BSRs past them and PV loads stay (section 5.1).
  std::vector<ObjectFile> Objs = buildObjects(CallHeavySource,
                                              /*Schedule=*/true);
  OmResult None = runOm(Objs, OmLevel::None);
  OmResult Simple = runOm(Objs, OmLevel::Simple);
  OmResult Full = runOm(Objs, OmLevel::Full);
  // OM-simple can drop PV loads only for callees with no GP prologue at
  // all; calls to scheduled GP-using procedures keep theirs, because the
  // dispersed GP-set pair cannot be skipped without code motion.
  EXPECT_GT(Simple.Stats.CallsNeedingPvLoad, 0u)
      << "scheduled GP-using callees must keep PV loads under OM-simple";
  EXPECT_LT(Simple.Stats.CallsNeedingPvLoad,
            None.Stats.CallsNeedingPvLoad)
      << "GP-free callees lose their PV loads even at the simple level";
  EXPECT_EQ(Full.Stats.CallsNeedingPvLoad, 0u)
      << "OM-full restores prologues and removes every PV load here";
}

TEST(OmTest, SimpleSkipsPrologueWhenUnscheduled) {
  // Without compile-time scheduling, the GP-set pair is a clean entry
  // prefix and even OM-simple can skip it and drop the PV load.
  std::vector<ObjectFile> Objs = buildObjects(CallHeavySource,
                                              /*Schedule=*/false);
  OmResult None = runOm(Objs, OmLevel::None);
  OmResult Simple = runOm(Objs, OmLevel::Simple);
  EXPECT_LT(Simple.Stats.CallsNeedingPvLoad, None.Stats.CallsNeedingPvLoad);
  EXPECT_EQ(runImage(Simple.Image), runImage(None.Image));
}

TEST(OmTest, FullDeletesSimpleNullifies) {
  std::vector<ObjectFile> Objs = buildObjects(CallHeavySource);
  OmResult None = runOm(Objs, OmLevel::None);
  OmResult Simple = runOm(Objs, OmLevel::Simple);
  OmResult Full = runOm(Objs, OmLevel::Full);
  // Sizes: simple never changes text size; full shrinks it.
  EXPECT_EQ(Simple.Stats.TextBytesAfter, None.Stats.TextBytesAfter);
  EXPECT_LT(Full.Stats.TextBytesAfter, Simple.Stats.TextBytesAfter);
  EXPECT_GT(Simple.Stats.InstructionsNullified, 0u);
  EXPECT_EQ(Simple.Stats.InstructionsDeleted, 0u);
  EXPECT_GT(Full.Stats.InstructionsDeleted,
            Simple.Stats.InstructionsNullified)
      << "full deletes at least what simple nullifies, plus prologues";
}

TEST(OmTest, AddressLoadsConvertedOrNullified) {
  // "small" and the small array end up inside the 16-bit GP window, so
  // their address loads are nullified outright; "huge" (256 KiB) is
  // reachable only via a 32-bit displacement, so its loads convert to
  // LDAH with the low half absorbed into the dereference (section 3's
  // second kind of elimination).
  std::vector<ObjectFile> Objs = buildObjects(R"(
module t;
import io;
var small: int;
var arr: int[128];
var pad: int[8192];
var huge: int[8192];
export func main(): int {
  var i: int;
  small = 7;
  i = 0;
  while (i < 10) {
    pad[i] = i;
    arr[i] = small + i;
    huge[i * 800 + 500] = arr[i] + pad[i];
    i = i + 1;
  }
  io.print_int(arr[9] + huge[7200 + 500]);
  return 0;
}
)");
  OmResult Full = runOm(Objs, OmLevel::Full);
  EXPECT_GT(Full.Stats.AddressLoadsNullified, 0u)
      << "scalar and near-array accesses become GP-relative";
  EXPECT_GT(Full.Stats.AddressLoadsConverted, 0u)
      << "far-array bases convert to LDAH with absorbed low halves";
  EXPECT_EQ(runImage(Full.Image), "41");

  // The same program must behave identically at every level (including
  // the conversion paths just taken).
  OmResult Simple = runOm(Objs, OmLevel::Simple);
  OmResult Sched = runOm(Objs, OmLevel::Full, /*Sched=*/true);
  EXPECT_EQ(runImage(Simple.Image), "41");
  EXPECT_EQ(runImage(Sched.Image), "41");
}

TEST(OmTest, GatShrinksByOrderOfMagnitude) {
  // On real workloads the GAT drops to a few percent of its size
  // (section 5.1: between 3% and 15%).
  Result<wl::BuiltWorkload> W = wl::buildWorkload("compress");
  ASSERT_TRUE(bool(W)) << W.message();
  Result<OmResult> Full =
      wl::linkWithOm(*W, wl::CompileMode::Each, OmOptions{});
  ASSERT_TRUE(bool(Full)) << Full.message();
  EXPECT_GT(Full->Stats.GatBytesBefore, 0u);
  EXPECT_LE(Full->Stats.GatBytesAfter * 4, Full->Stats.GatBytesBefore)
      << "expected at least a 4x GAT reduction";
}

TEST(OmTest, IndirectCallsKeepPvAndProcAddressesStayExact) {
  std::vector<ObjectFile> Objs = buildObjects(R"(
module t;
import io;
var f: funcptr;
export func callee(a: int): int { return a * 3; }
export func main(): int {
  f = &callee;
  io.print_int(f(14));
  return 0;
}
)");
  OmResult Full = runOm(Objs, OmLevel::Full);
  // The indirect call still needs PV.
  EXPECT_GE(Full.Stats.CallsNeedingPvLoad, 1u);
  EXPECT_GT(countOpcode(Full.Image, Opcode::Jsr), 0u);
  EXPECT_EQ(runImage(Full.Image), "42");
}

TEST(OmTest, MultiGroupKeepsCrossGroupResets) {
  std::vector<ObjectFile> Objs = buildObjects(CallHeavySource);
  OmOptions Opts;
  Opts.Level = OmLevel::Full;
  Opts.MaxGatEntriesPerGroup = 2; // force several GP groups
  Result<OmResult> R = om::optimize(Objs, Opts);
  ASSERT_TRUE(bool(R)) << R.message();
  EXPECT_GT(R->Stats.GpGroups, 1u);
  // Some resets must survive: calls cross GP groups.
  EXPECT_GT(R->Stats.CallsNeedingGpReset, 0u);
  EXPECT_EQ(runImage(R->Image), "15");

  OmOptions SimpleOpts = Opts;
  SimpleOpts.Level = OmLevel::Simple;
  Result<OmResult> S = om::optimize(Objs, SimpleOpts);
  ASSERT_TRUE(bool(S)) << S.message();
  // OM-simple keeps every reset with multiple GATs; OM-full's call-graph
  // analysis finds the removable subset ("a few cases OM-simple misses").
  EXPECT_GE(S->Stats.CallsNeedingGpReset, R->Stats.CallsNeedingGpReset);
  EXPECT_EQ(runImage(S->Image), "15");
}

TEST(OmTest, DataSortingPutsSmallSymbolsFirst) {
  std::vector<ObjectFile> Objs = buildObjects(R"(
module t;
var big: int[4096];
var tiny: int;
export func main(): int {
  big[100] = 5;
  tiny = big[100] + 2;
  return tiny;
}
)");
  OmResult Full = runOm(Objs, OmLevel::Full);
  uint64_t AddrBig = 0, AddrTiny = 0;
  for (const ImageSymbol &S : Full.Image.Symbols) {
    if (S.Name == "t.big")
      AddrBig = S.Addr;
    if (S.Name == "t.tiny")
      AddrTiny = S.Addr;
  }
  ASSERT_NE(AddrBig, 0u);
  ASSERT_NE(AddrTiny, 0u);
  EXPECT_LT(AddrTiny, AddrBig)
      << "size-ascending sort places the scalar near the GAT";

  // Baseline keeps declaration order.
  Result<Image> Base = lnk::link(Objs);
  ASSERT_TRUE(bool(Base)) << Base.message();
  uint64_t BaseBig = 0, BaseTiny = 0;
  for (const ImageSymbol &S : Base->Symbols) {
    if (S.Name == "t.big")
      BaseBig = S.Addr;
    if (S.Name == "t.tiny")
      BaseTiny = S.Addr;
  }
  EXPECT_GT(BaseTiny, BaseBig);
}

TEST(OmTest, RescheduleAndAlignPreserveBehaviour) {
  std::vector<ObjectFile> Objs = buildObjects(CallHeavySource);
  OmResult Plain = runOm(Objs, OmLevel::Full, /*Sched=*/false);
  OmResult Sched = runOm(Objs, OmLevel::Full, /*Sched=*/true);
  EXPECT_EQ(runImage(Plain.Image), runImage(Sched.Image));
  // Alignment may insert nops; they are counted.
  EXPECT_GE(Sched.Stats.NopsInserted, 0u);
}

TEST(OmTest, LoopTargetsAreQuadwordAligned) {
  std::vector<ObjectFile> Objs = buildObjects(R"(
module t;
var acc: int;
export func main(): int {
  var i: int;
  i = 0;
  while (i < 100) {
    acc = acc + i;
    i = i + 1;
  }
  return acc - 4950;
}
)");
  OmOptions Opts;
  Opts.Level = OmLevel::Full;
  Opts.Reschedule = true;
  Opts.AlignLoopTargets = true;
  Result<OmResult> R = om::optimize(Objs, Opts);
  ASSERT_TRUE(bool(R)) << R.message();
  // Every backward-branch target in the final image is 8-aligned.
  std::vector<uint32_t> Words = R->Image.textWords();
  for (size_t Idx = 0; Idx < Words.size(); ++Idx) {
    std::optional<Inst> I = decode(Words[Idx]);
    if (!I || classOf(I->Op) != InstClass::Branch ||
        I->Op == Opcode::Bsr)
      continue;
    if (I->Disp < 0) {
      uint64_t Target = R->Image.TextBase + Idx * 4 + 4 +
                        static_cast<int64_t>(I->Disp) * 4;
      EXPECT_EQ(Target % 8, 0u)
          << "backward target at index " << Idx << " misaligned";
    }
  }
  Result<sim::SimResult> Run = sim::run(R->Image);
  ASSERT_TRUE(bool(Run)) << Run.message();
  EXPECT_EQ(Run->ExitCode, 0);
}

TEST(OmTest, StatsTotalsAreConsistent) {
  std::vector<ObjectFile> Objs = buildObjects(CallHeavySource);
  for (OmLevel L : {OmLevel::None, OmLevel::Simple, OmLevel::Full}) {
    OmResult R = runOm(Objs, L);
    const OmStats &S = R.Stats;
    EXPECT_LE(S.AddressLoadsConverted + S.AddressLoadsNullified,
              S.AddressLoadsTotal);
    EXPECT_LE(S.CallsNeedingPvLoad, S.CallsTotal);
    EXPECT_LE(S.CallsNeedingGpReset, S.CallsTotal);
    EXPECT_LE(S.GatBytesAfter, S.GatBytesBefore);
    if (L == OmLevel::None) {
      EXPECT_EQ(S.AddressLoadsConverted, 0u);
      EXPECT_EQ(S.AddressLoadsNullified, 0u);
      EXPECT_EQ(S.InstructionsDeleted, 0u);
      EXPECT_EQ(S.GatBytesAfter, S.GatBytesBefore);
    }
  }
}

TEST(OmTest, NoneLevelMatchesBaselineBehaviour) {
  std::vector<ObjectFile> Objs = buildObjects(CallHeavySource);
  Result<Image> Base = lnk::link(Objs);
  ASSERT_TRUE(bool(Base)) << Base.message();
  OmResult None = runOm(Objs, OmLevel::None);
  Result<sim::SimResult> A = sim::run(*Base);
  Result<sim::SimResult> B = sim::run(None.Image);
  ASSERT_TRUE(bool(A) && bool(B));
  EXPECT_EQ(A->Output, B->Output);
  EXPECT_EQ(A->Instructions, B->Instructions)
      << "OM with no optimization should execute the same instruction "
         "stream as the standard linker";
}


TEST(OmInstrumentTest, CountsProcedureEntries) {
  std::vector<ObjectFile> Objs = buildObjects(CallHeavySource);
  OmOptions Opts;
  Opts.Level = OmLevel::Full;
  Opts.InstrumentProcedureCounts = true;
  Result<OmResult> R = om::optimize(Objs, Opts);
  ASSERT_TRUE(bool(R)) << R.message();
  ASSERT_FALSE(R->ProfiledProcedures.empty());
  EXPECT_EQ(R->Stats.InstrumentationInserted,
            R->ProfiledProcedures.size());

  Result<sim::SimResult> Run = sim::run(R->Image);
  ASSERT_TRUE(bool(Run)) << Run.message();
  EXPECT_EQ(Run->Output, "15") << "instrumentation altered behaviour";

  auto countOf = [&](const std::string &Name) -> uint64_t {
    for (size_t Idx = 0; Idx < R->ProfiledProcedures.size(); ++Idx)
      if (R->ProfiledProcedures[Idx] == Name)
        return Idx < Run->ProfileCounts.size() ? Run->ProfileCounts[Idx]
                                               : 0;
    ADD_FAILURE() << "no counter for " << Name;
    return 0;
  };
  EXPECT_EQ(countOf("t.main"), 1u);
  EXPECT_EQ(countOf("t.work"), 5u);
  EXPECT_EQ(countOf("io.print_int"), 1u);
  EXPECT_EQ(countOf("io.newline"), 0u);
}

TEST(OmInstrumentTest, CountsIndirectEntriesToo) {
  std::vector<ObjectFile> Objs = buildObjects(R"(
module t;
import io;
var f: funcptr;
export func callee(a: int): int { return a + 1; }
export func main(): int {
  var i: int;
  f = &callee;
  i = 0;
  while (i < 7) { i = f(i); }
  io.print_int(i);
  return 0;
}
)");
  OmOptions Opts;
  Opts.InstrumentProcedureCounts = true;
  Result<OmResult> R = om::optimize(Objs, Opts);
  ASSERT_TRUE(bool(R)) << R.message();
  Result<sim::SimResult> Run = sim::run(R->Image);
  ASSERT_TRUE(bool(Run)) << Run.message();
  EXPECT_EQ(Run->Output, "7");
  for (size_t Idx = 0; Idx < R->ProfiledProcedures.size(); ++Idx)
    if (R->ProfiledProcedures[Idx] == "t.callee") {
      EXPECT_EQ(Run->ProfileCounts[Idx], 7u)
          << "indirect entries must be counted";
    }
}

TEST(OmInstrumentTest, RequiresFullLevel) {
  std::vector<ObjectFile> Objs = buildObjects(CallHeavySource);
  OmOptions Opts;
  Opts.Level = OmLevel::Simple;
  Opts.InstrumentProcedureCounts = true;
  Result<OmResult> R = om::optimize(Objs, Opts);
  EXPECT_FALSE(bool(R));
  EXPECT_NE(R.message().find("OM-full"), std::string::npos);
}

TEST(OmInstrumentTest, ComposesWithScheduling) {
  std::vector<ObjectFile> Objs = buildObjects(CallHeavySource);
  OmOptions Opts;
  Opts.InstrumentProcedureCounts = true;
  Opts.Reschedule = true;
  Opts.AlignLoopTargets = true;
  Result<OmResult> R = om::optimize(Objs, Opts);
  ASSERT_TRUE(bool(R)) << R.message();
  Result<sim::SimResult> Run = sim::run(R->Image);
  ASSERT_TRUE(bool(Run)) << Run.message();
  EXPECT_EQ(Run->Output, "15");
}


TEST(OmInstrumentTest, BlockCountsTrackLoopIterations) {
  std::vector<ObjectFile> Objs = buildObjects(R"(
module t;
import io;
var acc: int;
export func main(): int {
  var i: int;
  i = 0;
  while (i < 9) {
    acc = acc + i;
    i = i + 1;
  }
  io.print_int(acc);
  return 0;
}
)");
  OmOptions Opts;
  Opts.InstrumentBlockCounts = true;
  Result<OmResult> R = om::optimize(Objs, Opts);
  ASSERT_TRUE(bool(R)) << R.message();
  Result<sim::SimResult> Run = sim::run(R->Image);
  ASSERT_TRUE(bool(Run)) << Run.message();
  EXPECT_EQ(Run->Output, "36") << "instrumentation altered behaviour";

  // main has a loop: some block in main must have executed 9 times (the
  // body) and another 10 times (the test), while main itself ran once.
  bool SawNine = false, SawTen = false;
  uint64_t MainEntry = ~0ull;
  for (size_t Idx = 0; Idx < R->ProfiledProcedures.size(); ++Idx) {
    const std::string &Label = R->ProfiledProcedures[Idx];
    if (Label.rfind("t.main", 0) != 0)
      continue;
    uint64_t Count =
        Idx < Run->ProfileCounts.size() ? Run->ProfileCounts[Idx] : 0;
    if (Label == "t.main")
      MainEntry = Count;
    SawNine |= Count == 9;
    SawTen |= Count == 10;
  }
  EXPECT_EQ(MainEntry, 1u);
  EXPECT_TRUE(SawNine) << "loop body block should count 9 iterations";
  EXPECT_TRUE(SawTen) << "loop test block should count 10 evaluations";
}

TEST(OmInstrumentTest, BlockCountsPreserveWorkloadBehaviour) {
  Result<wl::BuiltWorkload> W = wl::buildWorkload("eqntott");
  ASSERT_TRUE(bool(W)) << W.message();
  Result<Image> Base = wl::linkBaseline(*W, wl::CompileMode::Each);
  ASSERT_TRUE(bool(Base));
  Result<sim::SimResult> BaseRun = sim::run(*Base);
  ASSERT_TRUE(bool(BaseRun));

  OmOptions Opts;
  Opts.InstrumentBlockCounts = true;
  Opts.Reschedule = true;
  Opts.AlignLoopTargets = true;
  Result<OmResult> R = wl::linkWithOm(*W, wl::CompileMode::Each, Opts);
  ASSERT_TRUE(bool(R)) << R.message();
  Result<sim::SimResult> Run = sim::run(R->Image);
  ASSERT_TRUE(bool(Run)) << Run.message();
  EXPECT_EQ(Run->Output, BaseRun->Output);
  EXPECT_GT(R->Stats.InstrumentationInserted,
            R->ProfiledProcedures.size() / 2)
      << "block mode should insert more counters than procedures alone";
}

/// Hand-assembles an object whose caller has its call-address load hoisted
/// above the prologue GP-set pair — the pattern a compile-time scheduler
/// produces. h.main loads &h.leaf into T5 *before* its prologue (legal:
/// the simulator enters main with GP already valid, and the prologue pair
/// reads only PV), copies T5 into PV after the prologue, and calls leaf,
/// which adds 7 to h.val (initially 35). main returns the final value: 42.
///
/// At OM-full, restoreProloguePair moves the pair to entry, shifting the
/// load from index 0 to index 2. Without index remapping, the literal's
/// stale LoadIdx makes the PV-load removal nullify the restored GpHigh —
/// main's GP is miscomputed and every later GAT access reads garbage.
ObjectFile makeHoistedLoadObject() {
  ObjectFile O;
  O.ModuleName = "h";
  auto addWord = [&O](const Inst &I) {
    uint32_t W = encode(I);
    for (unsigned B = 0; B < 4; ++B)
      O.Text.push_back(static_cast<uint8_t>(W >> (8 * B)));
  };
  // h.main at text offset 0.
  addWord(makeMem(Opcode::Ldq, T5, 0, GP));   //  0: lit0 load, &h.leaf
  addWord(makeMem(Opcode::Ldah, GP, 0, PV));  //  4: prologue GpHigh
  addWord(makeMem(Opcode::Lda, GP, 0, GP));   //  8: prologue GpLow
  addWord(makeMem(Opcode::Lda, SP, -16, SP)); // 12
  addWord(makeMem(Opcode::Stq, RA, 0, SP));   // 16
  addWord(makeOp(Opcode::Bis, T5, T5, PV));   // 20: PV = &h.leaf
  addWord(makeJump(Opcode::Jsr, RA, PV));     // 24: JsrViaGat lit0
  addWord(makeMem(Opcode::Ldah, GP, 0, RA));  // 28: post-call GpHigh
  addWord(makeMem(Opcode::Lda, GP, 0, GP));   // 32: post-call GpLow
  addWord(makeMem(Opcode::Ldq, T1, 0, GP));   // 36: lit1 load, &h.val
  addWord(makeMem(Opcode::Ldq, V0, 0, T1));   // 40: LitUseMem lit1
  addWord(makeMem(Opcode::Ldq, RA, 0, SP));   // 44
  addWord(makeMem(Opcode::Lda, SP, 16, SP));  // 48
  addWord(makeJump(Opcode::Ret, Zero, RA));   // 52
  // h.leaf at text offset 56: h.val = h.val + 7.
  addWord(makeMem(Opcode::Ldah, GP, 0, PV));  // 56: prologue GpHigh
  addWord(makeMem(Opcode::Lda, GP, 0, GP));   // 60: prologue GpLow
  addWord(makeMem(Opcode::Ldq, T0, 0, GP));   // 64: lit2 load, &h.val
  addWord(makeMem(Opcode::Ldq, T1, 0, T0));   // 68: LitUseMem lit2
  addWord(makeMem(Opcode::Lda, T1, 7, T1));   // 72
  addWord(makeMem(Opcode::Stq, T1, 0, T0));   // 76: LitUseMem lit2
  addWord(makeJump(Opcode::Ret, Zero, RA));   // 80

  O.Data.assign(8, 0);
  O.Data[0] = 35;

  Symbol Main;
  Main.Name = "h.main";
  Main.Section = SectionKind::Text;
  Main.Size = 56;
  Main.IsProcedure = Main.IsExported = Main.IsDefined = true;
  Symbol Leaf = Main;
  Leaf.Name = "h.leaf";
  Leaf.Offset = 56;
  Leaf.Size = 28;
  Symbol Val;
  Val.Name = "h.val";
  Val.Section = SectionKind::Data;
  Val.Size = 8;
  Val.IsExported = Val.IsDefined = true;
  O.Symbols = {Main, Leaf, Val};
  O.Gat = {{1, 0}, {2, 0}}; // &h.leaf, &h.val

  auto lit = [](uint64_t Off, uint32_t GatIndex, uint32_t LitId) {
    Reloc R;
    R.Kind = RelocKind::Literal;
    R.Offset = Off;
    R.GatIndex = GatIndex;
    R.LiteralId = LitId;
    return R;
  };
  auto use = [](RelocKind K, uint64_t Off, uint32_t LitId) {
    Reloc R;
    R.Kind = K;
    R.Offset = Off;
    R.LiteralId = LitId;
    return R;
  };
  auto gpdisp = [](uint64_t Off, uint64_t Anchor, GpDispKind K) {
    Reloc R;
    R.Kind = RelocKind::GpDisp;
    R.Offset = Off;
    R.AnchorOffset = Anchor;
    R.PairOffset = 4;
    R.GpKind = static_cast<uint8_t>(K);
    return R;
  };
  O.Relocs = {lit(0, 0, 0),
              gpdisp(4, 0, GpDispKind::Prologue),
              use(RelocKind::LituseJsr, 24, 0),
              gpdisp(28, 28, GpDispKind::PostCall),
              lit(36, 1, 1),
              use(RelocKind::LituseBase, 40, 1),
              gpdisp(56, 56, GpDispKind::Prologue),
              lit(64, 1, 2),
              use(RelocKind::LituseBase, 68, 2),
              use(RelocKind::LituseBase, 76, 2)};

  ProcDesc MainDesc;
  MainDesc.TextSize = 56;
  ProcDesc LeafDesc;
  LeafDesc.SymbolIndex = 1;
  LeafDesc.TextOffset = 56;
  LeafDesc.TextSize = 28;
  O.Procs = {MainDesc, LeafDesc};
  return O;
}

TEST(OmVerifyTest, PrologueRestorationKeepsLiteralIndices) {
  std::vector<ObjectFile> Objs = {makeHoistedLoadObject()};
  ASSERT_FALSE(bool(Objs[0].verify())) << Objs[0].verify().message();

  // The miscompile was silent behavioural corruption: OM-full used to
  // nullify main's restored GpHigh through the stale LoadIdx, leaving GP
  // wrong for every later GAT access. All levels must agree on exit 42.
  for (OmLevel Level : {OmLevel::None, OmLevel::Simple, OmLevel::Full}) {
    for (bool Sched : {false, true}) {
      if (Sched && Level != OmLevel::Full)
        continue;
      OmResult R = runOm(Objs, Level, Sched);
      Result<sim::SimResult> Run = sim::run(R.Image);
      ASSERT_TRUE(bool(Run))
          << "OM-" << levelName(Level) << (Sched ? "+sched" : "") << ": "
          << Run.message();
      EXPECT_EQ(Run->ExitCode, 42)
          << "OM-" << levelName(Level) << (Sched ? "+sched" : "")
          << " miscompiled the hoisted-load caller";
    }
  }

  // The invariant checker agrees: a link with per-stage verification on
  // succeeds only when the restoration remapped every literal index.
  OmOptions Opts;
  Opts.VerifyEachStage = true;
  Result<OmResult> Checked = om::optimize(Objs, Opts);
  EXPECT_TRUE(bool(Checked)) << Checked.message();

  // And the differential harness proves all levels architecturally equal.
  Result<DifferentialReport> Rep = om::runDifferential(Objs, Opts);
  ASSERT_TRUE(bool(Rep)) << Rep.message();
  EXPECT_EQ(Rep->Legs.size(), 4u);
  for (const DifferentialLeg &Leg : Rep->Legs)
    EXPECT_EQ(Leg.ExitCode, 42);
}

/// Minimal two-symbol program for direct verifier unit tests: one
/// procedure with a prologue pair and an address load of a datum.
SymbolicProgram makeTinySymbolicProgram() {
  SymbolicProgram SP;
  PSym ProcSym;
  ProcSym.Name = "m.p";
  ProcSym.IsProc = true;
  ProcSym.ProcIdx = 0;
  PSym Datum;
  Datum.Name = "m.v";
  Datum.Size = 8;
  SP.Syms = {ProcSym, Datum};

  SymProc P;
  P.Name = "m.p";
  P.SymId = 0;
  SymInst High;
  High.Kind = SKind::GpHigh;
  High.GpKind = GpDispKind::Prologue;
  High.PairId = 0;
  SymInst Low;
  Low.Kind = SKind::GpLow;
  Low.GpKind = GpDispKind::Prologue;
  Low.PairId = 0;
  SymInst Load;
  Load.Kind = SKind::AddressLoad;
  Load.LitId = 0;
  Load.TargetSym = 1;
  SymInst Use;
  Use.Kind = SKind::LitUseMem;
  Use.LitId = 0;
  P.Insts = {High, Low, Load, Use};
  SP.Procs.push_back(std::move(P));

  LitInfo L;
  L.Proc = 0;
  L.LoadIdx = 2;
  L.TargetSym = 1;
  L.UseBegin = 0;
  L.NumMem = 1;
  SP.Lits = {L};
  SP.LitUses = {3};
  SP.Procs[0].LitBegin = 0;
  SP.Procs[0].LitEnd = 1;
  return SP;
}

TEST(OmVerifyTest, VerifierRejectsStaleLoadIndex) {
  SymbolicProgram SP = makeTinySymbolicProgram();
  EXPECT_FALSE(bool(verifyStage(SP, "unit"))) << "baseline must be clean";

  // Point the literal at the GpHigh instead of its load — exactly what a
  // missing remap after restoreProloguePair produces.
  SP.Lits[0].LoadIdx = 0;
  Error E = verifyStage(SP, "unit");
  ASSERT_TRUE(bool(E));
  EXPECT_NE(E.message().find("unit"), std::string::npos)
      << "diagnostic must carry the stage label: " << E.message();
  EXPECT_NE(E.message().find("m.p"), std::string::npos)
      << "diagnostic must name the procedure: " << E.message();
}

TEST(OmVerifyTest, VerifierRejectsHalfNullifiedPair) {
  SymbolicProgram SP = makeTinySymbolicProgram();
  SP.Procs[0].Insts[0].Nullified = true; // GpHigh only: corrupts GP
  Error E = verifyStage(SP, "unit");
  ASSERT_TRUE(bool(E));
  EXPECT_NE(E.message().find("half-nullified"), std::string::npos)
      << E.message();

  SP.Procs[0].Insts[1].Nullified = true; // both halves: a legal no-op pair
  EXPECT_FALSE(bool(verifyStage(SP, "unit")));
}

TEST(OmVerifyTest, VerifierRejectsNullifiedLoadWithLiveJsr) {
  SymbolicProgram SP = makeTinySymbolicProgram();
  SymInst Jsr;
  Jsr.Kind = SKind::JsrViaGat;
  Jsr.LitId = 0;
  SP.Procs[0].Insts.push_back(Jsr);
  SP.Lits[0].JsrIdx = 4;
  ASSERT_FALSE(bool(verifyStage(SP, "unit")));

  // Nullifying the PV load while the JSR still jumps through the loaded
  // register is the exact miscompile the PV-load removal can commit.
  SP.Procs[0].Insts[2].Nullified = true;
  Error E = verifyStage(SP, "unit");
  ASSERT_TRUE(bool(E));
  EXPECT_NE(E.message().find("nullified"), std::string::npos)
      << E.message();
}

TEST(OmVerifyTest, ReachableGroupsSaturateBeyond64) {
  // More GP groups than the 64-bit reachability bitset can name: 70
  // single-procedure modules, each forced into its own group, plus main
  // and the runtime. Before saturation, group 64+g aliased group g and the
  // reset nullification dropped live cross-group GP resets.
  std::vector<std::pair<std::string, std::string>> Mods;
  std::string MainSrc = "module t;\nimport io;\n";
  std::string Body;
  for (int I = 1; I <= 70; ++I) {
    std::string N = "m" + std::to_string(I);
    Mods.push_back({N, "module " + N + ";\nvar v: int;\nexport func f(): "
                           "int { v = v + " +
                           std::to_string(I) + "; return v; }\n"});
    MainSrc += "import " + N + ";\n";
    Body += "  s = s + " + N + ".f();\n";
  }
  MainSrc += "export func main(): int {\n  var s: int;\n  s = 0;\n" + Body +
             "  io.print_int(s);\n  return 0;\n}\n";
  Mods.push_back({"t", MainSrc});

  lang::Program P = parseProgram(Mods);
  DiagnosticEngine Diags;
  ASSERT_TRUE(lang::checkEntryPoint(P, Diags)) << Diags.render();
  std::vector<ObjectFile> Objs = compileAll(P);

  OmOptions NoneOpts;
  NoneOpts.Level = OmLevel::None;
  NoneOpts.MaxGatEntriesPerGroup = 1;
  OmOptions FullOpts;
  FullOpts.Level = OmLevel::Full;
  FullOpts.MaxGatEntriesPerGroup = 1;
  FullOpts.VerifyEachStage = true;
  Result<OmResult> None = om::optimize(Objs, NoneOpts);
  Result<OmResult> Full = om::optimize(Objs, FullOpts);
  ASSERT_TRUE(bool(None)) << None.message();
  ASSERT_TRUE(bool(Full)) << Full.message();
  ASSERT_GT(Full->Stats.GpGroups, 64u)
      << "the regression needs more groups than the bitset holds";
  EXPECT_GT(Full->Stats.CallsNeedingGpReset, 0u)
      << "cross-group calls must keep their GP resets";

  Result<sim::SimResult> NoneRun = sim::run(None->Image);
  Result<sim::SimResult> FullRun = sim::run(Full->Image);
  ASSERT_TRUE(bool(NoneRun)) << NoneRun.message();
  ASSERT_TRUE(bool(FullRun)) << FullRun.message();
  EXPECT_EQ(FullRun->Output, NoneRun->Output);
  EXPECT_EQ(FullRun->ExitCode, 0);
}

TEST(OmVerifyTest, DifferentialHarnessAgrees) {
  std::vector<ObjectFile> Objs = buildObjects(CallHeavySource);
  OmOptions Base;
  Base.VerifyEachStage = true;
  Result<DifferentialReport> Rep = om::runDifferential(Objs, Base);
  ASSERT_TRUE(bool(Rep)) << Rep.message();
  ASSERT_EQ(Rep->Legs.size(), 4u);
  EXPECT_EQ(Rep->Legs[0].Level, OmLevel::None);
  OmResult None = runOm(Objs, OmLevel::None);
  EXPECT_EQ(Rep->Legs[0].Output, runImage(None.Image));
  for (const DifferentialLeg &Leg : Rep->Legs) {
    EXPECT_EQ(Leg.ExitCode, Rep->Legs[0].ExitCode);
    EXPECT_EQ(Leg.Output, Rep->Legs[0].Output);
    EXPECT_EQ(Leg.MemoryHash, Rep->Legs[0].MemoryHash);
  }
}

} // namespace
