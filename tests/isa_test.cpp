//===- tests/isa_test.cpp - AAX ISA unit tests ----------------------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//

#include "isa/Disassembler.h"
#include "isa/Inst.h"
#include "isa/Registers.h"

#include "support/Random.h"

#include <gtest/gtest.h>

using namespace om64;
using namespace om64::isa;

namespace {

/// Builds a representative instruction of each opcode with nontrivial
/// operand values.
Inst sampleInst(Opcode Op, uint64_t Seed) {
  DetRandom Rng(Seed);
  uint8_t Ra = static_cast<uint8_t>(Rng.nextBelow(31)); // avoid zero reg
  uint8_t Rb = static_cast<uint8_t>(Rng.nextBelow(31));
  uint8_t Rc = static_cast<uint8_t>(Rng.nextBelow(31));
  switch (classOf(Op)) {
  case InstClass::Pal:
    return makePal(PalFunc::PutInt);
  case InstClass::LoadAddress:
  case InstClass::IntLoad:
  case InstClass::IntStore:
  case InstClass::FpLoad:
  case InstClass::FpStore:
    return makeMem(Op, Ra, static_cast<int32_t>(Rng.nextInRange(-32768,
                                                                32767)),
                   Rb);
  case InstClass::Jump:
    return makeJump(Op, Ra, Rb);
  case InstClass::Branch:
    return makeBranch(Op, Ra,
                      static_cast<int32_t>(Rng.nextInRange(-(1 << 20),
                                                           (1 << 20) - 1)));
  case InstClass::IntOp:
    if (Rng.chance(1, 2))
      return makeOpLit(Op, Ra, static_cast<uint8_t>(Rng.nextBelow(256)),
                       Rc);
    return makeOp(Op, Ra, Rb, Rc);
  case InstClass::FpOp:
  case InstClass::Transfer:
    return makeOp(Op, Ra, Rb, Rc);
  }
  return Inst::nop();
}

class RoundTripTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(RoundTripTest, EncodeDecodeIsIdentity) {
  Opcode Op = static_cast<Opcode>(GetParam());
  for (uint64_t Seed = 1; Seed <= 24; ++Seed) {
    Inst I = sampleInst(Op, Seed * 7919);
    uint32_t Word = encode(I);
    std::optional<Inst> Back = decode(Word);
    ASSERT_TRUE(Back.has_value())
        << "opcode " << opcodeName(Op) << " failed to decode";
    // PAL/jump instructions normalize some unused fields; compare the
    // re-encoding instead of raw struct equality.
    EXPECT_EQ(encode(*Back), Word) << opcodeName(Op);
    EXPECT_EQ(Back->Op, I.Op);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, RoundTripTest,
                         ::testing::Range(0u, NumOpcodes));

TEST(IsaTest, DecodeRejectsGarbage) {
  // Primary opcode 0x3C is unassigned.
  EXPECT_FALSE(decode(0x3Cu << 26).has_value());
  // Operate group with an unassigned function code.
  EXPECT_FALSE(decode((0x10u << 26) | (0x7Fu << 5)).has_value());
  // Jump with kind 3.
  EXPECT_FALSE(decode((0x1Au << 26) | (3u << 14)).has_value());
}

bool isOperateFormat(Opcode Op) {
  InstClass C = classOf(Op);
  return C == InstClass::IntOp || C == InstClass::FpOp ||
         C == InstClass::Transfer;
}

/// The reference decoder for operate words: a linear search over every
/// operate opcode's (primary, function) encoding, read back from encode().
std::optional<Opcode> operateByLinearSearch(uint32_t Raw, uint32_t Func) {
  for (unsigned V = 0; V < NumOpcodes; ++V) {
    Opcode Op = static_cast<Opcode>(V);
    if (!isOperateFormat(Op))
      continue;
    uint32_t Word = encode(makeOp(Op, Zero, Zero, Zero));
    if (Word >> 26 == Raw && ((Word >> 5) & 0x7F) == Func)
      return Op;
  }
  return std::nullopt;
}

TEST(IsaTest, OperateDecodeMatchesLinearSearch) {
  // Every primary opcode x 7-bit function x literal bit, with register
  // and literal fields set so field extraction is exercised too; each
  // operate word must also re-encode to itself.
  for (uint32_t Raw = 0; Raw < 64; ++Raw)
    for (uint32_t Func = 0; Func < 128; ++Func)
      for (uint32_t LitBit = 0; LitBit < 2; ++LitBit) {
        uint32_t Word = (Raw << 26) | (3u << 21) | (Func << 5) |
                        (LitBit << 12) | 7u;
        if (LitBit)
          Word |= 0xA5u << 13;
        else
          Word |= 5u << 16;
        std::optional<Opcode> Want = operateByLinearSearch(Raw, Func);
        std::optional<Inst> Got = decode(Word);
        if (Want) {
          ASSERT_TRUE(Got.has_value()) << std::hex << Word;
          EXPECT_EQ(Got->Op, *Want) << std::hex << Word;
          EXPECT_EQ(Got->Ra, 3u);
          EXPECT_EQ(Got->Rc, 7u);
          EXPECT_EQ(Got->IsLit, LitBit != 0);
          EXPECT_EQ(Got->Lit, LitBit ? 0xA5u : 0u);
          EXPECT_EQ(Got->Rb, LitBit ? uint8_t(Zero) : uint8_t(5));
          EXPECT_EQ(encode(*Got), Word) << std::hex << Word;
        } else if (Got) {
          // Not an operate encoding: whatever decodes is another format.
          EXPECT_FALSE(isOperateFormat(Got->Op))
              << std::hex << Word << " decoded as " << opcodeName(Got->Op);
        }
      }
}

TEST(IsaTest, NopIdentification) {
  EXPECT_TRUE(Inst::nop().isNop());
  EXPECT_TRUE(makeOp(Opcode::Addq, T0, T1, Zero).isNop());
  EXPECT_TRUE(makeMem(Opcode::Lda, Zero, 4, SP).isNop());
  EXPECT_FALSE(makeMem(Opcode::Ldq, Zero, 0, SP).isNop()) <<
      "a load to the zero register still touches memory";
  EXPECT_FALSE(makeOp(Opcode::Bis, T0, T0, T1).isNop());
  EXPECT_FALSE(makeBranch(Opcode::Br, Zero, 0).isNop());
}

TEST(IsaTest, SplitDisp32RoundTrips) {
  DetRandom Rng(99);
  for (int Trial = 0; Trial < 2000; ++Trial) {
    int64_t V = Rng.nextInRange(-(1ll << 31) + 0x8000, (1ll << 31) - 0x8000);
    int32_t High, Low;
    splitDisp32(V, High, Low);
    EXPECT_TRUE(fitsDisp16(Low));
    EXPECT_EQ((static_cast<int64_t>(High) << 16) + Low, V);
  }
  int32_t High, Low;
  splitDisp32(0x7FFF, High, Low);
  EXPECT_EQ(High, 0);
  EXPECT_EQ(Low, 0x7FFF);
  splitDisp32(0x8000, High, Low);
  EXPECT_EQ(High, 1);
  EXPECT_EQ(Low, -0x8000);

  // Values far outside 32 bits must be rejected, including the extremes
  // where naive high-part arithmetic overflows or truncates.
  EXPECT_FALSE(fitsDisp32(INT64_MAX));
  EXPECT_FALSE(fitsDisp32(INT64_MIN));
  EXPECT_FALSE(fitsDisp32(1ll << 61));
  EXPECT_FALSE(fitsDisp32(-(1ll << 61)));
  EXPECT_FALSE(fitsDisp32((1ll << 45)));
  EXPECT_TRUE(fitsDisp32((1ll << 31) - 0x8001));
  EXPECT_TRUE(fitsDisp32(-(1ll << 31)));
}

TEST(IsaTest, DisplacementPredicates) {
  EXPECT_TRUE(fitsDisp16(32767));
  EXPECT_TRUE(fitsDisp16(-32768));
  EXPECT_FALSE(fitsDisp16(32768));
  EXPECT_FALSE(fitsDisp16(-32769));
  EXPECT_TRUE(fitsBranchDisp((1 << 20) - 1));
  EXPECT_TRUE(fitsBranchDisp(-(1 << 20)));
  EXPECT_FALSE(fitsBranchDisp(1 << 20));
}

TEST(IsaTest, RegUnitsReadWrite) {
  // Global fetch: ldq t0, 0(t0) reads t0, writes t0.
  Inst Load = makeMem(Opcode::Ldq, T0, 0, T0);
  unsigned Units[3];
  ASSERT_EQ(regUnitsRead(Load, Units), 1u);
  EXPECT_EQ(Units[0], intUnit(T0));
  EXPECT_EQ(regUnitWritten(Load), intUnit(T0));

  // Stores write nothing.
  EXPECT_EQ(regUnitWritten(makeMem(Opcode::Stq, T0, 0, SP)), ~0u);

  // FP load writes an fp unit.
  EXPECT_EQ(regUnitWritten(makeMem(Opcode::Ldt, 10, 0, SP)), fpUnit(10));

  // Zero-register destinations report no write.
  EXPECT_EQ(regUnitWritten(makeOp(Opcode::Addq, T0, T1, Zero)), ~0u);

  // Transfers cross files.
  Inst Itoft = makeOp(Opcode::Itoft, T2, Zero, 5);
  ASSERT_EQ(regUnitsRead(Itoft, Units), 1u);
  EXPECT_EQ(Units[0], intUnit(T2));
  EXPECT_EQ(regUnitWritten(Itoft), fpUnit(5));

  // Conditional fp branches read the fp register file.
  Inst Fb = makeBranch(Opcode::Fbne, 7, 12);
  ASSERT_EQ(regUnitsRead(Fb, Units), 1u);
  EXPECT_EQ(Units[0], fpUnit(7));
}

TEST(IsaTest, LatenciesAreSane) {
  EXPECT_EQ(latencyOf(Opcode::Addq), 1u);
  EXPECT_EQ(latencyOf(Opcode::Ldq), 3u);
  EXPECT_GT(latencyOf(Opcode::Mulq), latencyOf(Opcode::Addq));
  EXPECT_GT(latencyOf(Opcode::Divt), latencyOf(Opcode::Mult));
}

TEST(IsaTest, ClassificationHelpers) {
  EXPECT_TRUE(isLoad(Opcode::Ldl));
  EXPECT_TRUE(isLoad(Opcode::Ldt));
  EXPECT_FALSE(isLoad(Opcode::Lda)) << "LDA is not a memory access";
  EXPECT_TRUE(isStore(Opcode::Stt));
  EXPECT_TRUE(isCondBranch(Opcode::Beq));
  EXPECT_FALSE(isCondBranch(Opcode::Br));
  EXPECT_TRUE(isTerminator(Opcode::Ret));
  EXPECT_TRUE(isTerminator(Opcode::CallPal));
  EXPECT_FALSE(isTerminator(Opcode::Cmpeq));
  EXPECT_TRUE(writesReturnAddress(Opcode::Bsr));
  EXPECT_FALSE(writesReturnAddress(Opcode::Beq));
}

TEST(DisassemblerTest, RendersCommonForms) {
  EXPECT_EQ(disassemble(makeMem(Opcode::Ldq, T0, 188, GP)),
            "ldq t0, 188(gp)");
  EXPECT_EQ(disassemble(makeMem(Opcode::Ldah, GP, 8192, PV)),
            "ldah gp, 8192(pv)");
  EXPECT_EQ(disassemble(makeJump(Opcode::Jsr, RA, PV)), "jsr ra, (pv)");
  EXPECT_EQ(disassemble(Inst::nop()), "nop");
  EXPECT_EQ(disassemble(makeOpLit(Opcode::Cmpeq, T1, 7, T2)),
            "cmpeq t1, 7, t2");
  EXPECT_EQ(disassemble(makeOp(Opcode::Addt, 1, 2, 3)),
            "addt f1, f2, f3");
}

TEST(DisassemblerTest, BranchTargetsUseSymbolizer) {
  DisasmContext Ctx;
  Ctx.Pc = 0x120000000;
  Ctx.HavePc = true;
  Ctx.Symbolize = [](uint64_t Addr) {
    return Addr == 0x120000010 ? std::string("t.main") : std::string();
  };
  Inst Br = makeBranch(Opcode::Bsr, RA, 3); // 0x120000000+4+12
  EXPECT_EQ(disassemble(Br, Ctx), "bsr ra, t.main");
}

TEST(DisassemblerTest, RegionRendering) {
  std::vector<uint32_t> Words = {encode(Inst::nop()),
                                 encode(makeMem(Opcode::Ldq, T0, 8, GP))};
  std::string Text = disassembleRegion(Words, 0x120000000);
  EXPECT_NE(Text.find("nop"), std::string::npos);
  EXPECT_NE(Text.find("ldq t0, 8(gp)"), std::string::npos);
  EXPECT_NE(Text.find("0x0000000120000004"), std::string::npos);
}

} // namespace
