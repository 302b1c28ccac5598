//===- tests/codegen_test.cpp - Code generation convention tests ----------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks that generated code follows the paper's conservative 64-bit
/// conventions exactly: Figure 1's calling sequence (PV load from the GAT,
/// JSR, post-call GP reset pair) and prologue (GP from PV), Figure 2's
/// address-load + use patterns with their lituse links, and the
/// compile-each vs compile-all differences of section 5.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <map>

using namespace om64;
using namespace om64::isa;
using namespace om64::obj;
using namespace om64::test;

namespace {

std::vector<Inst> decodeText(const ObjectFile &O) {
  std::vector<Inst> Out;
  for (size_t Off = 0; Off + 4 <= O.Text.size(); Off += 4) {
    uint32_t W = static_cast<uint32_t>(O.Text[Off]) |
                 (static_cast<uint32_t>(O.Text[Off + 1]) << 8) |
                 (static_cast<uint32_t>(O.Text[Off + 2]) << 16) |
                 (static_cast<uint32_t>(O.Text[Off + 3]) << 24);
    std::optional<Inst> I = decode(W);
    EXPECT_TRUE(I.has_value());
    Out.push_back(I.value_or(Inst::nop()));
  }
  return Out;
}

const Reloc *findRelocAt(const ObjectFile &O, RelocKind K, uint64_t Off) {
  for (const Reloc &R : O.Relocs)
    if (R.Kind == K && R.Offset == Off)
      return &R;
  return nullptr;
}

unsigned countRelocs(const ObjectFile &O, RelocKind K) {
  unsigned N = 0;
  for (const Reloc &R : O.Relocs)
    N += R.Kind == K;
  return N;
}

ObjectFile compileOne(const std::string &Source, bool Schedule,
                      bool InterUnit = false,
                      const std::string &Extra = std::string(),
                      const std::string &ExtraName = "other") {
  std::vector<std::pair<std::string, std::string>> Mods = {{"t", Source}};
  if (!Extra.empty())
    Mods.push_back({ExtraName, Extra});
  lang::Program P = parseProgram(Mods);
  cg::CompileOptions Opts;
  Opts.Schedule = Schedule;
  Opts.InterUnit = InterUnit;
  std::vector<std::string> Unit = {"t"};
  if (InterUnit && !Extra.empty())
    Unit.push_back(ExtraName);
  Result<ObjectFile> O = cg::compileUnit(P, Unit, Opts);
  EXPECT_TRUE(bool(O)) << (O ? "" : O.message());
  return O ? O.take() : ObjectFile{};
}

constexpr const char *CallAndGlobalSource = R"(
module t;
import io;
var counter: int;
export func main(): int {
  counter = counter + 1;
  io.print_int(counter);
  return counter;
}
)";

TEST(CodegenTest, PrologueShapeUnscheduled) {
  // Without compile-time scheduling the GP-set pair is the entry prefix:
  //   ldah gp, hi(pv) ; lda gp, lo(gp)   (Figure 1).
  ObjectFile O = compileOne(CallAndGlobalSource, /*Schedule=*/false);
  std::vector<Inst> Text = decodeText(O);
  ASSERT_EQ(O.Procs.size(), 1u);
  uint64_t Entry = O.Procs[0].TextOffset;
  size_t E = Entry / 4;
  EXPECT_EQ(Text[E].Op, Opcode::Ldah);
  EXPECT_EQ(Text[E].Ra, GP);
  EXPECT_EQ(Text[E].Rb, PV);
  EXPECT_EQ(Text[E + 1].Op, Opcode::Lda);
  EXPECT_EQ(Text[E + 1].Ra, GP);
  EXPECT_EQ(Text[E + 1].Rb, GP);

  const Reloc *Gp = findRelocAt(O, RelocKind::GpDisp, Entry);
  ASSERT_NE(Gp, nullptr) << "prologue pair must carry a GPDISP relocation";
  EXPECT_EQ(Gp->PairOffset, 4u);
  EXPECT_EQ(Gp->AnchorOffset, Entry) << "prologue anchor is the entry (PV)";
  EXPECT_EQ(Gp->GpKind, 0);
}

TEST(CodegenTest, SchedulingDispersesTheProloguePair) {
  // With scheduling on (the paper's compilers), the LDAH/LDA pair is no
  // longer adjacent at entry -- the effect that blocks OM-simple's
  // BSR-past-prologue trick (section 4).
  ObjectFile O = compileOne(CallAndGlobalSource, /*Schedule=*/true);
  bool FoundDispersedPair = false;
  for (const Reloc &R : O.Relocs)
    if (R.Kind == RelocKind::GpDisp && R.GpKind == 0)
      FoundDispersedPair = R.PairOffset != 4 || R.Offset != 0;
  EXPECT_TRUE(FoundDispersedPair);
}

/// Branch offset -> target offset for every local branch of \p O's text
/// (BSR calls excluded).
std::map<uint64_t, uint64_t> localBranchTargets(const ObjectFile &O) {
  std::map<uint64_t, uint64_t> Targets;
  std::vector<Inst> Text = decodeText(O);
  for (size_t I = 0; I < Text.size(); ++I)
    if (classOf(Text[I].Op) == InstClass::Branch && Text[I].Op != Opcode::Bsr)
      Targets[I * 4] = static_cast<uint64_t>(
          static_cast<int64_t>(I * 4 + 4) + int64_t{Text[I].Disp} * 4);
  return Targets;
}

TEST(CodegenTest, SchedulingKeepsLabelsAtTheirRegionHeads) {
  // A label names a position: the scheduler may move the instruction that
  // heads a labelled region, but the label (and every branch to it) stays
  // at the head. Scheduling permutes within regions only, so every branch
  // sits at the same offset with the same target as in unscheduled code.
  const char *Source = R"(
module t;
var acc: int;
var scale: int;
export func main(): int {
  var i: int;
  var j: int;
  i = 0;
  while (i < 10) {
    j = 0;
    while (j < i) {
      acc = acc + scale * j + i * 3;
      j = j + 1;
    }
    if (acc > 100) {
      acc = acc - scale * 7 + i;
    }
    i = i + 1;
  }
  return acc;
}
)";
  ObjectFile Plain = compileOne(Source, /*Schedule=*/false);
  ObjectFile Sched = compileOne(Source, /*Schedule=*/true);
  ASSERT_EQ(Plain.Text.size(), Sched.Text.size());
  std::map<uint64_t, uint64_t> Targets = localBranchTargets(Plain);
  ASSERT_FALSE(Targets.empty());
  EXPECT_EQ(localBranchTargets(Sched), Targets);

  // The check has teeth only if some labelled head actually moved.
  std::vector<Inst> PlainText = decodeText(Plain);
  std::vector<Inst> SchedText = decodeText(Sched);
  bool HeadMoved = false;
  for (const auto &[From, To] : Targets)
    HeadMoved |= To / 4 < PlainText.size() &&
                 !(PlainText[To / 4] == SchedText[To / 4]);
  EXPECT_TRUE(HeadMoved) << "no branch target's instruction was rescheduled";
}

TEST(CodegenTest, CallSequenceShape) {
  // Figure 1's call site: ldq pv, disp(gp) [LITERAL]; jsr ra,(pv)
  // [LITUSE_JSR]; ldah gp, hi(ra); lda gp, lo(gp) [GPDISP post-call].
  ObjectFile O = compileOne(CallAndGlobalSource, /*Schedule=*/false);
  std::vector<Inst> Text = decodeText(O);

  size_t JsrIdx = ~size_t(0);
  for (size_t I = 0; I < Text.size(); ++I)
    if (Text[I].Op == Opcode::Jsr)
      JsrIdx = I;
  ASSERT_NE(JsrIdx, ~size_t(0)) << "library call must be a JSR";
  EXPECT_EQ(Text[JsrIdx].Ra, RA);
  EXPECT_EQ(Text[JsrIdx].Rb, PV);

  const Reloc *Use = findRelocAt(O, RelocKind::LituseJsr, JsrIdx * 4);
  ASSERT_NE(Use, nullptr);

  // The PV load shares the literal id.
  const Inst &PvLoad = Text[JsrIdx - 1];
  EXPECT_EQ(PvLoad.Op, Opcode::Ldq);
  EXPECT_EQ(PvLoad.Ra, PV);
  EXPECT_EQ(PvLoad.Rb, GP);
  const Reloc *Lit = findRelocAt(O, RelocKind::Literal, (JsrIdx - 1) * 4);
  ASSERT_NE(Lit, nullptr);
  EXPECT_EQ(Lit->LiteralId, Use->LiteralId);

  // The reset pair follows, anchored at the return point.
  EXPECT_EQ(Text[JsrIdx + 1].Op, Opcode::Ldah);
  EXPECT_EQ(Text[JsrIdx + 1].Rb, RA);
  const Reloc *Reset =
      findRelocAt(O, RelocKind::GpDisp, (JsrIdx + 1) * 4);
  ASSERT_NE(Reset, nullptr);
  EXPECT_EQ(Reset->GpKind, 1);
  EXPECT_EQ(Reset->AnchorOffset, JsrIdx * 4 + 4);
}

TEST(CodegenTest, GlobalAccessShape) {
  // Figure 2: fetch is an address load plus a load through the pointer,
  // with a LITUSE_BASE link.
  ObjectFile O = compileOne(CallAndGlobalSource, /*Schedule=*/false);
  std::vector<Inst> Text = decodeText(O);
  bool Found = false;
  for (const Reloc &R : O.Relocs) {
    if (R.Kind != RelocKind::Literal)
      continue;
    if (O.Symbols[O.Gat[R.GatIndex].SymbolIndex].Name != "t.counter")
      continue;
    // Find the use with the same literal id.
    for (const Reloc &U : O.Relocs)
      if (U.Kind == RelocKind::LituseBase && U.LiteralId == R.LiteralId) {
        const Inst &Load = Text[R.Offset / 4];
        const Inst &UseInst = Text[U.Offset / 4];
        EXPECT_EQ(Load.Op, Opcode::Ldq);
        EXPECT_EQ(Load.Rb, GP);
        EXPECT_EQ(UseInst.Rb, Load.Ra) << "use reads the loaded pointer";
        Found = true;
      }
  }
  EXPECT_TRUE(Found);
}

TEST(CodegenTest, UnexportedSameModuleCallsUseBsr) {
  // Footnote 2: the compiler may optimize calls to unexported procedures
  // in the same compilation unit.
  ObjectFile O = compileOne(R"(
module t;
func helper(x: int): int { return x * 2; }
export func main(): int { return helper(21); }
)", /*Schedule=*/false);
  std::vector<Inst> Text = decodeText(O);
  bool HasBsr = false, HasJsr = false;
  for (const Inst &I : Text) {
    HasBsr |= I.Op == Opcode::Bsr;
    HasJsr |= I.Op == Opcode::Jsr;
  }
  EXPECT_TRUE(HasBsr);
  EXPECT_FALSE(HasJsr);
  // main must establish GP (its BSR callee inherits it); helper is
  // GP-free and prologue-less.
  unsigned PrologueGpDisp = 0;
  for (const Reloc &R : O.Relocs)
    PrologueGpDisp += R.Kind == RelocKind::GpDisp && R.GpKind == 0;
  EXPECT_EQ(PrologueGpDisp, 1u);
}

TEST(CodegenTest, BsrCalleeUsingGlobalsInheritsCallerGp) {
  // A direct (unexported) callee that accesses globals relies on the
  // caller's GP instead of setting its own: same unit, same GAT.
  ObjectFile O = compileOne(R"(
module t;
var acc: int;
func helper(x: int): int { acc = acc + x; return acc; }
export func main(): int { return helper(21); }
)", /*Schedule=*/false);
  std::vector<Inst> Text = decodeText(O);
  bool HasBsr = false;
  for (const Inst &I : Text)
    HasBsr |= I.Op == Opcode::Bsr;
  EXPECT_TRUE(HasBsr);
  // Exactly one prologue GPDISP (main's); helper uses GP but never sets
  // it.
  unsigned PrologueGpDisp = 0;
  for (const Reloc &R : O.Relocs)
    PrologueGpDisp += R.Kind == RelocKind::GpDisp && R.GpKind == 0;
  EXPECT_EQ(PrologueGpDisp, 1u);
  ASSERT_EQ(O.Procs.size(), 2u);
  EXPECT_TRUE(O.Procs[0].UsesGp) << "helper reads globals through GP";
}

TEST(CodegenTest, ExportedSameModuleCallsStayConservative) {
  ObjectFile O = compileOne(R"(
module t;
export func helper(x: int): int { return x * 2; }
export func main(): int { return helper(21); }
)", /*Schedule=*/false);
  std::vector<Inst> Text = decodeText(O);
  bool HasJsr = false;
  for (const Inst &I : Text)
    HasJsr |= I.Op == Opcode::Jsr;
  EXPECT_TRUE(HasJsr)
      << "exported callees may be preempted; compile-each must use JSR";
}

TEST(CodegenTest, CompileAllOptimizesCrossModuleUserCalls) {
  const char *Main = R"(
module t;
import other;
export func main(): int { return other.work(4); }
)";
  const char *Other = R"(
module other;
export func work(x: int): int { return x + 1; }
)";
  // compile-each: conservative JSR.
  {
    lang::Program P = parseProgram({{"t", Main}, {"other", Other}});
    cg::CompileOptions Opts;
    Opts.Schedule = false;
    Result<ObjectFile> O = cg::compileUnit(P, {"t"}, Opts);
    ASSERT_TRUE(bool(O)) << O.message();
    bool HasJsr = false;
    for (const Inst &I : decodeText(*O))
      HasJsr |= I.Op == Opcode::Jsr;
    EXPECT_TRUE(HasJsr);
  }
  // compile-all: direct BSR, even though work is exported.
  {
    ObjectFile O = compileOne(Main, /*Schedule=*/false,
                              /*InterUnit=*/true, Other);
    bool HasJsr = false, HasBsr = false;
    for (const Inst &I : decodeText(O)) {
      HasJsr |= I.Op == Opcode::Jsr;
      HasBsr |= I.Op == Opcode::Bsr;
    }
    EXPECT_FALSE(HasJsr);
    EXPECT_TRUE(HasBsr);
  }
}

TEST(CodegenTest, AddressTakenProcedureStaysConservative) {
  ObjectFile O = compileOne(R"(
module t;
var f: funcptr;
func callee(a: int): int { return a; }
export func main(): int {
  f = &callee;
  return f(7) + callee(1);
}
)", /*Schedule=*/false);
  // callee's address escapes, so even the direct call keeps the full
  // convention: the call to callee is a JSR, not a BSR.
  bool HasBsr = false;
  unsigned Jsrs = 0;
  for (const Inst &I : decodeText(O)) {
    HasBsr |= I.Op == Opcode::Bsr;
    Jsrs += I.Op == Opcode::Jsr;
  }
  EXPECT_FALSE(HasBsr);
  EXPECT_EQ(Jsrs, 2u) << "one indirect call, one conservative direct call";
  // The &callee literal has no lituse link (it escapes).
  bool FoundEscaping = false;
  for (const Reloc &R : O.Relocs) {
    if (R.Kind != RelocKind::Literal)
      continue;
    if (O.Symbols[O.Gat[R.GatIndex].SymbolIndex].Name != "t.callee")
      continue;
    bool HasUse = false;
    for (const Reloc &U : O.Relocs)
      if (U.Kind != RelocKind::Literal && U.LiteralId == R.LiteralId)
        HasUse = true;
    FoundEscaping |= !HasUse;
  }
  EXPECT_TRUE(FoundEscaping);
}

TEST(CodegenTest, GatIsDeduplicatedPerUnit) {
  ObjectFile O = compileOne(R"(
module t;
var a: int;
export func main(): int {
  a = 1;
  a = a + 2;
  a = a + 3;
  return a;
}
)", /*Schedule=*/false);
  // One GAT entry for t.a despite many references.
  unsigned EntriesForA = 0;
  for (const GatEntry &E : O.Gat)
    EntriesForA += O.Symbols[E.SymbolIndex].Name == "t.a";
  EXPECT_EQ(EntriesForA, 1u);
  EXPECT_GE(countRelocs(O, RelocKind::Literal), 4u);
}

TEST(CodegenTest, RealLiteralsGoThroughConstantPool) {
  ObjectFile O = compileOne(R"(
module t;
var x: real;
export func main(): int {
  x = 3.25;
  x = x * 3.25;
  return trunc(x);
}
)", /*Schedule=*/false);
  // The pooled constant is a local data symbol referenced via the GAT,
  // deduplicated across the two uses.
  unsigned PoolSyms = 0;
  for (const Symbol &S : O.Symbols)
    PoolSyms += S.Name.find("$const") != std::string::npos;
  EXPECT_EQ(PoolSyms, 1u);
}

TEST(CodegenTest, DivisionLowersToRuntimeCall) {
  ObjectFile O = compileOne(R"(
module t;
export func main(): int { return 100 / 7 + 100 % 7; }
)", /*Schedule=*/false);
  bool RefsDivq = false, RefsRemq = false;
  for (const Symbol &S : O.Symbols) {
    RefsDivq |= S.Name == "rt.divq" && !S.IsDefined;
    RefsRemq |= S.Name == "rt.remq" && !S.IsDefined;
  }
  EXPECT_TRUE(RefsDivq);
  EXPECT_TRUE(RefsRemq);
}

TEST(CodegenTest, ObjectsPassVerification) {
  for (const char *Name : {"alvinn", "li", "spice"}) {
    Result<wl::BuiltWorkload> W = wl::buildWorkload(Name);
    ASSERT_TRUE(bool(W)) << W.message();
    for (const ObjectFile &O : W->linkSet(wl::CompileMode::Each))
      EXPECT_FALSE(bool(O.verify())) << O.ModuleName;
    EXPECT_FALSE(bool(W->UserAll.verify()));
  }
}

TEST(CodegenTest, SerializationRoundTripsRealObjects) {
  Result<wl::BuiltWorkload> W = wl::buildWorkload("compress");
  ASSERT_TRUE(bool(W)) << W.message();
  for (const ObjectFile &O : W->linkSet(wl::CompileMode::Each)) {
    Result<ObjectFile> Back = ObjectFile::deserialize(O.serialize());
    ASSERT_TRUE(bool(Back)) << Back.message();
    EXPECT_EQ(Back->Text, O.Text);
    EXPECT_EQ(Back->Relocs.size(), O.Relocs.size());
    EXPECT_EQ(Back->Gat.size(), O.Gat.size());
  }
}

} // namespace
