//===- tests/sim_test.cpp - Simulator semantics and timing tests ----------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//

#include "GoldenTiming.h"
#include "TestUtil.h"

#include "sim/SimStats.h"
#include "sim/SuiteRunner.h"
#include "support/ContentHash.h"
#include "support/Format.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <optional>

using namespace om64;
using namespace om64::isa;
using namespace om64::test;

namespace {

/// One simulator configuration: the functional core, the timing model,
/// and profiled runs of each.
struct SimMode {
  const char *Name;
  bool Timing;
  bool Profile;
};
const SimMode AllModes[] = {{"functional", false, false},
                            {"timing", true, false},
                            {"profiled", false, true},
                            {"timing-profiled", true, true}};

sim::SimConfig coreConfig(uint64_t MaxInsts,
                          const SimMode &Mode = AllModes[0]) {
  sim::SimConfig Cfg;
  Cfg.Timing = Mode.Timing;
  Cfg.Profile = Mode.Profile;
  Cfg.MaxInstructions = MaxInsts;
  return Cfg;
}

/// Runs raw code that leaves its result in v0 and halts by returning, in
/// every mode; they must all agree.
int64_t runForV0(std::vector<Inst> Code) {
  Code.push_back(makeJump(Opcode::Ret, Zero, RA));
  obj::Image Img = makeRawImage(Code);
  std::optional<int64_t> V0;
  for (const SimMode &M : AllModes) {
    Result<sim::SimResult> R = sim::run(Img, coreConfig(1u << 20, M));
    EXPECT_TRUE(bool(R)) << M.Name << ": " << (R ? "" : R.message());
    if (!R)
      return -999;
    if (!V0)
      V0 = R->ExitCode;
    EXPECT_EQ(R->ExitCode, *V0) << M.Name;
  }
  return *V0;
}

/// Materializes a 64-bit constant into \p Dest (test-only helper mirroring
/// codegen's strategy but always via lda/ldah/shifts).
void emitConst(std::vector<Inst> &Code, uint8_t Dest, int64_t V) {
  if (fitsDisp16(V)) {
    Code.push_back(makeMem(Opcode::Lda, Dest, static_cast<int32_t>(V),
                           Zero));
    return;
  }
  // Build from 16-bit pieces: seed with the top half, then shift-or the
  // remaining three halves (lda sign-extends, so mask pieces to 16 bits).
  Code.push_back(makeMem(Opcode::Lda, Dest,
                         static_cast<int16_t>(V >> 48), Zero));
  for (int Piece = 2; Piece >= 0; --Piece) {
    Code.push_back(makeOpLit(Opcode::Sll, Dest, 16, Dest));
    int32_t Half = static_cast<int32_t>((V >> (16 * Piece)) & 0xFFFF);
    if (Half) {
      Code.push_back(makeMem(Opcode::Lda, AT,
                             static_cast<int16_t>(Half), Zero));
      Code.push_back(makeOpLit(Opcode::Sll, AT, 48, AT));
      Code.push_back(makeOpLit(Opcode::Srl, AT, 48, AT));
      Code.push_back(makeOp(Opcode::Bis, Dest, AT, Dest));
    }
  }
}

/// ctest names each case after its bytes, so the cases hold no padding:
/// the bytes after Op are a zeroed member, not whatever the stack held,
/// and the names are the same on every build.
struct IntOpCase {
  IntOpCase(Opcode Op, int64_t A, int64_t B, int64_t Expected)
      : Op(Op), A(A), B(B), Expected(Expected) {}
  Opcode Op;
  uint8_t Pad[7] = {};
  int64_t A;
  int64_t B;
  int64_t Expected;
};

static_assert(sizeof(IntOpCase) == 32, "IntOpCase has padding");

class IntOpTest : public ::testing::TestWithParam<IntOpCase> {};

TEST_P(IntOpTest, ComputesExpected) {
  const IntOpCase &C = GetParam();
  std::vector<Inst> Code;
  emitConst(Code, T0, C.A);
  emitConst(Code, T1, C.B);
  Code.push_back(makeOp(C.Op, T0, T1, V0));
  EXPECT_EQ(runForV0(Code), C.Expected) << opcodeName(C.Op);
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, IntOpTest,
    ::testing::Values(
        IntOpCase{Opcode::Addq, 5, 9, 14},
        IntOpCase{Opcode::Addq, -5, 3, -2},
        IntOpCase{Opcode::Subq, 5, 9, -4},
        IntOpCase{Opcode::Mulq, -7, 6, -42},
        IntOpCase{Opcode::S4addq, 5, 3, 23},
        IntOpCase{Opcode::S8addq, 5, 3, 43},
        IntOpCase{Opcode::Cmpeq, 4, 4, 1},
        IntOpCase{Opcode::Cmpeq, 4, 5, 0},
        IntOpCase{Opcode::Cmplt, -1, 0, 1},
        IntOpCase{Opcode::Cmplt, 0, -1, 0},
        IntOpCase{Opcode::Cmple, 3, 3, 1},
        IntOpCase{Opcode::Cmpult, -1, 0, 0}, // unsigned: ~0 > 0
        IntOpCase{Opcode::And, 12, 10, 8},
        IntOpCase{Opcode::Bic, 12, 10, 4},
        IntOpCase{Opcode::Bis, 12, 10, 14},
        IntOpCase{Opcode::Ornot, 8, -1, 8},
        IntOpCase{Opcode::Xor, 12, 10, 6},
        IntOpCase{Opcode::Sll, 3, 4, 48},
        IntOpCase{Opcode::Srl, -1, 60, 15},
        IntOpCase{Opcode::Sra, -16, 2, -4},
        // Shift counts use only their low six bits.
        IntOpCase{Opcode::Sll, 1, 65, 2},
        IntOpCase{Opcode::Srl, -1, 64, -1},
        IntOpCase{Opcode::Sra, -16, 66, -4},
        IntOpCase{Opcode::Sll, 3, -1, static_cast<int64_t>(1ull << 63)}));

/// Bit patterns of the doubles the fp tables use.
constexpr uint64_t PlusZero = 0x0000000000000000ull;
constexpr uint64_t MinusZero = 0x8000000000000000ull;
constexpr uint64_t One = 0x3FF0000000000000ull;
constexpr uint64_t Two = 0x4000000000000000ull;   // fp compares' "true"
constexpr uint64_t Three = 0x4008000000000000ull;
constexpr uint64_t MinusThree = 0xC008000000000000ull;
constexpr uint64_t Five = 0x4014000000000000ull;
constexpr uint64_t Eight = 0x4020000000000000ull;
constexpr uint64_t Thirteen = 0x402A000000000000ull;
constexpr uint64_t MinusTwoPointFive = 0xC004000000000000ull;
constexpr uint64_t TwoPow63 = 0x43E0000000000000ull;
constexpr uint64_t MinusTwoPow63 = 0xC3E0000000000000ull;
constexpr uint64_t TenPow19 = 0x43E158E460913D00ull;
constexpr uint64_t MinusTenPow19 = 0xC3E158E460913D00ull;
constexpr uint64_t QuietNaN = 0x7FF8000000000000ull;

/// fc = op(fa, fb) over raw bit patterns; v0 returns fc's bits.
/// Padding spelled out as for IntOpCase.
struct FpOpCase {
  FpOpCase(Opcode Op, uint64_t A, uint64_t B, uint64_t Expected)
      : Op(Op), A(A), B(B), Expected(Expected) {}
  Opcode Op;
  uint8_t Pad[7] = {};
  uint64_t A;
  uint64_t B;
  uint64_t Expected;
};

static_assert(sizeof(FpOpCase) == 32, "FpOpCase has padding");

class FpOpTest : public ::testing::TestWithParam<FpOpCase> {};

TEST_P(FpOpTest, ComputesExpectedBits) {
  const FpOpCase &C = GetParam();
  std::vector<Inst> Code;
  emitConst(Code, T0, static_cast<int64_t>(C.A));
  emitConst(Code, T1, static_cast<int64_t>(C.B));
  Code.push_back(makeOp(Opcode::Itoft, T0, Zero, 1));
  Code.push_back(makeOp(Opcode::Itoft, T1, Zero, 2));
  Code.push_back(makeOp(C.Op, 1, 2, 3));
  Code.push_back(makeOp(Opcode::Ftoit, 3, Zero, V0));
  EXPECT_EQ(static_cast<uint64_t>(runForV0(Code)), C.Expected)
      << opcodeName(C.Op);
}

INSTANTIATE_TEST_SUITE_P(
    FpSemantics, FpOpTest,
    ::testing::Values(
        FpOpCase{Opcode::Subt, Thirteen, Five, Eight},
        FpOpCase{Opcode::Subt, Five, Eight, MinusThree},
        FpOpCase{Opcode::Cmpteq, Five, Five, Two},
        FpOpCase{Opcode::Cmpteq, Five, Eight, PlusZero},
        FpOpCase{Opcode::Cmpteq, MinusZero, PlusZero, Two},
        FpOpCase{Opcode::Cmpteq, QuietNaN, QuietNaN, PlusZero},
        FpOpCase{Opcode::Cmptle, Five, Five, Two},
        FpOpCase{Opcode::Cmptle, Five, Eight, Two},
        FpOpCase{Opcode::Cmptle, Eight, Five, PlusZero},
        FpOpCase{Opcode::Cmptle, QuietNaN, Five, PlusZero},
        // cpys: the sign of fa on the magnitude of fb.
        FpOpCase{Opcode::Cpys, MinusZero, Three, MinusThree},
        FpOpCase{Opcode::Cpys, Three, MinusZero, PlusZero},
        FpOpCase{Opcode::Cpys, MinusZero, MinusZero, MinusZero},
        // cvttq (fa unused): truncate toward zero, saturate at the int64
        // range, NaN -> 0; the integer's bits land in fc.
        FpOpCase{Opcode::Cvttq, PlusZero, MinusTwoPointFive,
                 static_cast<uint64_t>(-2)},
        FpOpCase{Opcode::Cvttq, PlusZero, QuietNaN, 0},
        FpOpCase{Opcode::Cvttq, PlusZero, TwoPow63, 0x7FFFFFFFFFFFFFFFull},
        FpOpCase{Opcode::Cvttq, PlusZero, TenPow19, 0x7FFFFFFFFFFFFFFFull},
        FpOpCase{Opcode::Cvttq, PlusZero, MinusTwoPow63,
                 0x8000000000000000ull},
        FpOpCase{Opcode::Cvttq, PlusZero, MinusTenPow19,
                 0x8000000000000000ull},
        // cvtqt (fa unused): fb's bits as an integer, converted.
        FpOpCase{Opcode::Cvtqt, PlusZero, static_cast<uint64_t>(-3),
                 MinusThree}));

/// fbeq/fbne on fa's bit pattern: taken or not.
/// Padding spelled out as for IntOpCase.
struct FpBranchCase {
  FpBranchCase(Opcode Op, uint64_t A, bool Taken)
      : Op(Op), A(A), Taken(Taken) {}
  Opcode Op;
  uint8_t Pad[7] = {};
  uint64_t A;
  bool Taken;
  uint8_t TailPad[7] = {};
};

static_assert(sizeof(FpBranchCase) == 24, "FpBranchCase has padding");

class FpBranchTest : public ::testing::TestWithParam<FpBranchCase> {};

TEST_P(FpBranchTest, TakesExpectedDirection) {
  const FpBranchCase &C = GetParam();
  std::vector<Inst> Code;
  emitConst(Code, T0, static_cast<int64_t>(C.A));
  Code.push_back(makeOp(Opcode::Itoft, T0, Zero, 1));
  Code.push_back(makeMem(Opcode::Lda, V0, 1, Zero));
  Code.push_back(makeBranch(C.Op, 1, 1)); // taken: skip the next lda
  Code.push_back(makeMem(Opcode::Lda, V0, 2, Zero));
  EXPECT_EQ(runForV0(Code), C.Taken ? 1 : 2) << opcodeName(C.Op);
}

INSTANTIATE_TEST_SUITE_P(
    FpBranches, FpBranchTest,
    ::testing::Values(FpBranchCase{Opcode::Fbeq, PlusZero, true},
                      FpBranchCase{Opcode::Fbeq, MinusZero, true},
                      FpBranchCase{Opcode::Fbeq, One, false},
                      FpBranchCase{Opcode::Fbeq, QuietNaN, false},
                      FpBranchCase{Opcode::Fbne, PlusZero, false},
                      FpBranchCase{Opcode::Fbne, MinusZero, false},
                      FpBranchCase{Opcode::Fbne, One, true},
                      FpBranchCase{Opcode::Fbne, QuietNaN, true}));

TEST(SimTest, StlStoresTheLowLongword) {
  // stl writes 4 bytes: the quadword's upper half keeps its old contents.
  std::vector<Inst> Code;
  emitConst(Code, T0, 0x123456789ABCDEF0ll);
  emitConst(Code, T1, -1);
  Code.push_back(makeMem(Opcode::Stq, T1, 16, SP));
  Code.push_back(makeMem(Opcode::Stl, T0, 16, SP));
  Code.push_back(makeMem(Opcode::Ldq, V0, 16, SP));
  EXPECT_EQ(static_cast<uint64_t>(runForV0(Code)), 0xFFFFFFFF9ABCDEF0ull);
}

TEST(SimTest, LdtSttRoundTripPreservesBits) {
  // -2*pi through stt/ldq (bits unchanged) and ldq/ldt/ftoit.
  const int64_t Bits = static_cast<int64_t>(0xC01921FB54442D18ull);
  std::vector<Inst> Code;
  emitConst(Code, T0, Bits);
  Code.push_back(makeOp(Opcode::Itoft, T0, Zero, 1));
  Code.push_back(makeMem(Opcode::Stt, 1, 32, SP));
  Code.push_back(makeMem(Opcode::Ldq, T1, 32, SP));
  Code.push_back(makeMem(Opcode::Stq, T1, 40, SP));
  Code.push_back(makeMem(Opcode::Ldt, 2, 40, SP));
  Code.push_back(makeOp(Opcode::Ftoit, 2, Zero, V0));
  EXPECT_EQ(runForV0(Code), Bits);
}

TEST(SimTest, WritesToZeroRegistersAreDiscarded) {
  // Every writing class aims at $31/$f31 once; both must still read zero.
  std::vector<Inst> Code;
  emitConst(Code, T0, 77);
  Code.push_back(makeMem(Opcode::Stq, T0, 16, SP));
  Code.push_back(makeOp(Opcode::Itoft, T0, Zero, 1));
  Code.push_back(makeMem(Opcode::Ldq, Zero, 16, SP));
  Code.push_back(makeMem(Opcode::Ldl, Zero, 16, SP));
  Code.push_back(makeMem(Opcode::Ldt, FZero, 16, SP));
  Code.push_back(makeMem(Opcode::Lda, Zero, 5, T0));
  Code.push_back(makeOp(Opcode::Addq, T0, T0, Zero));
  Code.push_back(makeOp(Opcode::Addt, 1, 1, FZero));
  Code.push_back(makeOp(Opcode::Itoft, T0, Zero, FZero));
  Code.push_back(makeOp(Opcode::Ftoit, 1, Zero, Zero));
  Code.push_back(makeBranch(Opcode::Br, Zero, 0));
  Code.push_back(makeBranch(Opcode::Bsr, Zero, 0));
  // v0 = $31 + bits($f31) + 1 (so a stray zero write cannot pass).
  Code.push_back(makeOp(Opcode::Ftoit, FZero, Zero, T1));
  Code.push_back(makeOp(Opcode::Addq, Zero, T1, V0));
  Code.push_back(makeOpLit(Opcode::Addq, V0, 1, V0));
  EXPECT_EQ(runForV0(Code), 1);
}

TEST(SimTest, LiteralFpOperateReadsPlusZero) {
  // A literal-form fp operate decodes with fb = $f31, which reads +0.0:
  // -0.0 + +0.0 is +0.0 (a -0.0 operand would give -0.0).
  Inst Add = makeOpLit(Opcode::Addt, 1, 200, 2);
  std::optional<Inst> Round = decode(encode(Add));
  ASSERT_TRUE(Round.has_value());
  EXPECT_EQ(Round->Rb, FZero);
  std::vector<Inst> Code;
  emitConst(Code, T0, static_cast<int64_t>(MinusZero));
  Code.push_back(makeOp(Opcode::Itoft, T0, Zero, 1));
  Code.push_back(Add);
  Code.push_back(makeOp(Opcode::Ftoit, 2, Zero, V0));
  EXPECT_EQ(static_cast<uint64_t>(runForV0(Code)), PlusZero);
}

TEST(SimTest, JsrReadsItsTargetBeforeTheLinkWrite) {
  // jsr ra,(ra) jumps through the old ra; the new ra is the return address.
  std::vector<Inst> Code;
  Code.push_back(makeOp(Opcode::Bis, RA, RA, S0)); // 0: save halt address
  Code.push_back(makeBranch(Opcode::Bsr, T4, 0));  // 1: t4 = &2
  Code.push_back(makeMem(Opcode::Lda, RA, 16, T4)); // 2: ra = &6
  Code.push_back(makeJump(Opcode::Jsr, RA, RA));    // 3: -> 6, ra = &4
  Code.push_back(makeMem(Opcode::Lda, V0, 99, Zero)); // 4: wrong target
  Code.push_back(makeJump(Opcode::Ret, Zero, S0));    // 5
  Code.push_back(makeOp(Opcode::Subq, RA, T4, V0));   // 6: v0 = &4 - &2
  Code.push_back(makeJump(Opcode::Ret, Zero, S0));
  EXPECT_EQ(runForV0(Code), 8);
}

TEST(SimTest, LiteralOperandsAreZeroExtended) {
  std::vector<Inst> Code;
  Code.push_back(makeOpLit(Opcode::Addq, Zero, 255, V0));
  EXPECT_EQ(runForV0(Code), 255);
}

TEST(SimTest, LdaLdahSemantics) {
  std::vector<Inst> Code;
  Code.push_back(makeMem(Opcode::Lda, T0, -4, Zero));
  Code.push_back(makeMem(Opcode::Ldah, T0, 2, T0));
  Code.push_back(makeOp(Opcode::Bis, T0, T0, V0));
  EXPECT_EQ(runForV0(Code), (2 << 16) - 4);
}

TEST(SimTest, AddressArithmeticWrapsModulo2To64) {
  // lda/ldah add modulo 2^64: INT64_MAX + 1 is INT64_MIN, no overflow.
  std::vector<Inst> Code;
  emitConst(Code, T0, INT64_MAX);
  Code.push_back(makeMem(Opcode::Lda, T1, 1, T0));
  Code.push_back(makeMem(Opcode::Ldah, T2, 1, T0));
  Code.push_back(makeOp(Opcode::Subq, T2, T1, V0)); // 0xFFFF
  Code.push_back(makeOpLit(Opcode::Srl, T1, 63, T1));
  Code.push_back(makeOp(Opcode::Addq, V0, T1, V0)); // + sign bit of t1
  EXPECT_EQ(runForV0(Code), 0x10000);
}

TEST(SimTest, MemoryRoundTripAndLdlSignExtend) {
  std::vector<Inst> Code;
  emitConst(Code, T0, -2);                     // 0xFFFF...FE
  Code.push_back(makeMem(Opcode::Stq, T0, 16, SP));
  Code.push_back(makeMem(Opcode::Ldl, V0, 16, SP)); // low 32 bits, sext
  EXPECT_EQ(runForV0(Code), -2);

  std::vector<Inst> Code2;
  emitConst(Code2, T0, 0x7FFFFFFF);
  Code2.push_back(makeMem(Opcode::Stl, T0, 24, SP));
  Code2.push_back(makeMem(Opcode::Ldl, V0, 24, SP));
  EXPECT_EQ(runForV0(Code2), 0x7FFFFFFF);
}

TEST(SimTest, UnalignedAccessFaults) {
  std::vector<Inst> Code;
  Code.push_back(makeMem(Opcode::Ldq, V0, 4, SP)); // SP-512 is 16-aligned
  Code.push_back(makeMem(Opcode::Ldq, V0, 1, SP));
  Code.push_back(makeJump(Opcode::Ret, Zero, RA));
  Result<sim::SimResult> R = sim::run(makeRawImage(Code));
  EXPECT_FALSE(bool(R));
  EXPECT_NE(R.message().find("bad 8-byte load"), std::string::npos);
}

TEST(SimTest, StoreToTextFaults) {
  std::vector<Inst> Code;
  Code.push_back(makeOp(Opcode::Bis, Zero, Zero, T0));
  Code.push_back(makeMem(Opcode::Ldah, T0, 0x1200, T0));
  Code.push_back(makeOpLit(Opcode::Sll, T0, 4, T0)); // 0x120000000
  Code.push_back(makeMem(Opcode::Stq, Zero, 0, T0));
  Code.push_back(makeJump(Opcode::Ret, Zero, RA));
  Result<sim::SimResult> R = sim::run(makeRawImage(Code));
  EXPECT_FALSE(bool(R));
}

TEST(SimTest, BranchesAndConditions) {
  // v0 = (t0 < 0) ? 11 : 22 via blt.
  for (int64_t X : {-5, 0, 5}) {
    std::vector<Inst> Code;
    emitConst(Code, T0, X);
    Code.push_back(makeBranch(Opcode::Blt, T0, 2));       // skip 2
    Code.push_back(makeMem(Opcode::Lda, V0, 22, Zero));
    Code.push_back(makeBranch(Opcode::Br, Zero, 1));
    Code.push_back(makeMem(Opcode::Lda, V0, 11, Zero));
    int64_t Expected = X < 0 ? 11 : 22;
    EXPECT_EQ(runForV0(Code), Expected) << "X=" << X;
  }
}

TEST(SimTest, BsrRetLinkage) {
  // main saves the halt address, calls a leaf via BSR (clobbering RA),
  // adds 1 to the leaf's return value, and exits through the saved
  // address; exercises the link-register plumbing calls rely on.
  std::vector<Inst> Code;
  Code.push_back(makeOp(Opcode::Bis, RA, RA, S0)); // save halt address
  Code.push_back(makeBranch(Opcode::Bsr, RA, 2));  // -> index 4
  Code.push_back(makeOpLit(Opcode::Addq, V0, 1, V0));
  Code.push_back(makeJump(Opcode::Ret, Zero, S0)); // exit with v0 = 8
  Code.push_back(makeMem(Opcode::Lda, V0, 7, Zero)); // leaf
  Code.push_back(makeJump(Opcode::Ret, Zero, RA));
  obj::Image Img = makeRawImage(Code);
  sim::SimConfig Cfg;
  Cfg.Timing = false;
  Result<sim::SimResult> R = sim::run(Img, Cfg);
  ASSERT_TRUE(bool(R)) << R.message();
  EXPECT_EQ(R->ExitCode, 8);
}

TEST(SimTest, FpArithmeticAndConversion) {
  // v0 = trunc((2.0 + 3.0) * 4.0 / 8.0) = 2 via cvtqt/cvttq round trip.
  std::vector<Inst> Code;
  Code.push_back(makeMem(Opcode::Lda, T0, 2, Zero));
  Code.push_back(makeOp(Opcode::Itoft, T0, Zero, 1));
  Code.push_back(makeOp(Opcode::Cvtqt, FZero, 1, 1)); // f1 = 2.0
  Code.push_back(makeMem(Opcode::Lda, T0, 3, Zero));
  Code.push_back(makeOp(Opcode::Itoft, T0, Zero, 2));
  Code.push_back(makeOp(Opcode::Cvtqt, FZero, 2, 2)); // f2 = 3.0
  Code.push_back(makeOp(Opcode::Addt, 1, 2, 3));      // 5.0
  Code.push_back(makeOp(Opcode::Addt, 3, 3, 4));      // 10.0 (x2)
  Code.push_back(makeOp(Opcode::Addt, 4, 4, 4));      // 20.0 (x4 total)
  Code.push_back(makeOp(Opcode::Mult, 1, 2, 5));      // 6.0
  Code.push_back(makeOp(Opcode::Divt, 4, 5, 6));      // 20/6 = 3.33..
  Code.push_back(makeOp(Opcode::Cvttq, FZero, 6, 7));
  Code.push_back(makeOp(Opcode::Ftoit, 7, Zero, V0)); // trunc -> 3
  EXPECT_EQ(runForV0(Code), 3);
}

TEST(SimTest, FpComparesProduceTwoPointZero) {
  std::vector<Inst> Code;
  Code.push_back(makeMem(Opcode::Lda, T0, 1, Zero));
  Code.push_back(makeOp(Opcode::Itoft, T0, Zero, 1));
  Code.push_back(makeOp(Opcode::Cvtqt, FZero, 1, 1)); // 1.0
  Code.push_back(makeOp(Opcode::Cmptlt, 31, 1, 2));   // 0.0 < 1.0 -> 2.0
  Code.push_back(makeOp(Opcode::Cvttq, FZero, 2, 3));
  Code.push_back(makeOp(Opcode::Ftoit, 3, Zero, V0));
  EXPECT_EQ(runForV0(Code), 2);
}

TEST(SimTest, PalOutputStream) {
  std::vector<Inst> Code;
  Code.push_back(makeMem(Opcode::Lda, A0, 65, Zero)); // 'A'
  Code.push_back(makePal(PalFunc::PutChar));
  Code.push_back(makeMem(Opcode::Lda, A0, -42, Zero));
  Code.push_back(makePal(PalFunc::PutInt));
  Code.push_back(makeMem(Opcode::Lda, A0, 3, Zero));
  Code.push_back(makePal(PalFunc::Halt));
  Result<sim::SimResult> R = sim::run(makeRawImage(Code));
  ASSERT_TRUE(bool(R)) << R.message();
  EXPECT_EQ(R->Output, "A-42");
  EXPECT_EQ(R->ExitCode, 3);
}

TEST(SimTest, RunawayGuard) {
  std::vector<Inst> Code;
  Code.push_back(makeBranch(Opcode::Br, Zero, -1)); // infinite loop
  obj::Image Img = makeRawImage(Code);
  sim::SimConfig Cfg;
  Cfg.MaxInstructions = 1000;
  Result<sim::SimResult> R = sim::run(Img, Cfg);
  EXPECT_FALSE(bool(R));
  EXPECT_NE(R.message().find("budget"), std::string::npos);
}

TEST(SimTest, TimingCountsDualIssueAndStalls) {
  // Independent pair at an aligned address should dual-issue.
  std::vector<Inst> Code;
  Code.push_back(makeMem(Opcode::Lda, T0, 1, Zero));
  Code.push_back(makeMem(Opcode::Lda, T1, 2, Zero));
  Code.push_back(makeOp(Opcode::Addq, T0, T1, V0));
  Code.push_back(makeJump(Opcode::Ret, Zero, RA));
  obj::Image Img = makeRawImage(Code);
  Result<sim::SimResult> R = sim::run(Img);
  ASSERT_TRUE(bool(R)) << R.message();
  EXPECT_EQ(R->ExitCode, 3);
  EXPECT_GE(R->DualIssuePairs, 1u);

  // A load-use chain must cost at least the load-use latency.
  std::vector<Inst> Chain;
  Chain.push_back(makeMem(Opcode::Ldq, T0, 0, SP));
  Chain.push_back(makeOpLit(Opcode::Addq, T0, 1, V0));
  Chain.push_back(makeJump(Opcode::Ret, Zero, RA));
  Result<sim::SimResult> C = sim::run(makeRawImage(Chain));
  ASSERT_TRUE(bool(C)) << C.message();
  EXPECT_GE(C->Cycles, 3u + 20u /* first-touch D-cache miss */);
  EXPECT_EQ(C->DCacheMisses, 1u);
}

TEST(SimTest, TimingChargesCacheMisses) {
  // Touch 1024 distinct lines twice: first pass misses, second hits.
  std::vector<Inst> Code;
  Code.push_back(makeMem(Opcode::Lda, T0, 0, Zero));       // i = 0
  Code.push_back(makeMem(Opcode::Lda, T2, 1024, Zero));    // limit
  // loop: t1 = sp - i*32... simpler: ldq from stack base + (i & 15)*32.
  Code.push_back(makeOpLit(Opcode::And, T0, 127, T1));
  Code.push_back(makeOpLit(Opcode::Sll, T1, 5, T1));
  Code.push_back(makeOp(Opcode::Subq, SP, T1, T1));
  Code.push_back(makeMem(Opcode::Ldq, T3, -8, T1));
  Code.push_back(makeOpLit(Opcode::Addq, T0, 1, T0));
  Code.push_back(makeOp(Opcode::Cmplt, T0, T2, T4));
  Code.push_back(makeBranch(Opcode::Bne, T4, -7));
  Code.push_back(makeJump(Opcode::Ret, Zero, RA));
  Result<sim::SimResult> R = sim::run(makeRawImage(Code));
  ASSERT_TRUE(bool(R)) << R.message();
  // 128 distinct lines, each missing exactly once.
  EXPECT_EQ(R->DCacheMisses, 128u);
}

TEST(SimTest, WraparoundAddressFaultsCleanly) {
  // LDQ v0, -8(zero) computes address 2^64 - 8; the naive bounds check
  // "Addr + Size <= end" wraps to 0 and passes, indexing the data segment
  // ~2^63 bytes out of bounds. The overflow-safe checks must fault.
  for (Opcode Op : {Opcode::Ldq, Opcode::Ldl}) {
    std::vector<Inst> Code;
    Code.push_back(makeMem(Op, V0, -8, Zero));
    Code.push_back(makeJump(Opcode::Ret, Zero, RA));
    sim::SimConfig Cfg;
    Cfg.Timing = false;
    Result<sim::SimResult> R = sim::run(makeRawImage(Code), Cfg);
    ASSERT_FALSE(bool(R)) << opcodeName(Op);
    EXPECT_NE(R.message().find("byte load"), std::string::npos)
        << R.message();
  }
  // Same for the store path.
  std::vector<Inst> Code;
  Code.push_back(makeMem(Opcode::Stq, V0, -8, Zero));
  Code.push_back(makeJump(Opcode::Ret, Zero, RA));
  Result<sim::SimResult> R = sim::run(makeRawImage(Code));
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.message().find("byte store"), std::string::npos);
}

TEST(SimTest, DegenerateCacheGeometryIsRejected) {
  std::vector<Inst> Code;
  Code.push_back(makeMem(Opcode::Lda, V0, 1, Zero));
  Code.push_back(makeJump(Opcode::Ret, Zero, RA));
  obj::Image Img = makeRawImage(Code);

  // Zero line size would divide by zero in Cache construction.
  sim::SimConfig Cfg;
  Cfg.ICache.LineBytes = 0;
  Result<sim::SimResult> R = sim::run(Img, Cfg);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.message().find("cache geometry"), std::string::npos)
      << R.message();

  // SizeBytes < LineBytes leaves zero lines: `line % NumLines` would be
  // a divide by zero on the first access.
  Cfg = sim::SimConfig();
  Cfg.DCache.SizeBytes = 16;
  Cfg.DCache.LineBytes = 32;
  R = sim::run(Img, Cfg);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.message().find("cache geometry"), std::string::npos);

  // The caches index by shift and mask: a size or line that is not a
  // power of two is rejected, and so is an I-cache line shorter than an
  // instruction (the I-cache is fetched a line at a time).
  for (auto [Line, Size] : {std::pair<uint32_t, uint32_t>{24, 8192},
                            {32, 6000}, {2, 8192}}) {
    Cfg = sim::SimConfig();
    Cfg.ICache.LineBytes = Line;
    Cfg.ICache.SizeBytes = Size;
    R = sim::run(Img, Cfg);
    ASSERT_FALSE(bool(R)) << Line << "/" << Size;
    EXPECT_NE(R.message().find("invalid I-cache geometry"),
              std::string::npos)
        << R.message();
  }
  Cfg = sim::SimConfig();
  Cfg.DCache.LineBytes = 48;
  R = sim::run(Img, Cfg);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.message().find("invalid D-cache geometry"), std::string::npos);
  // Any power-of-two geometry runs, down to 1-byte data lines.
  Cfg.DCache = {64, 1, 20};
  Cfg.ICache = {64, 4, 10};
  R = sim::run(Img, Cfg);
  ASSERT_TRUE(bool(R)) << R.message();
  EXPECT_EQ(R->ExitCode, 1);

  // Functional mode never touches the caches, so a bogus geometry must
  // not prevent a functional run.
  Cfg.DCache = {16, 32, 20};
  Cfg.Timing = false;
  R = sim::run(Img, Cfg);
  ASSERT_TRUE(bool(R)) << R.message();
  EXPECT_EQ(R->ExitCode, 1);
}

TEST(SimTest, ProfileCountsSizedToDeclaredCounters) {
  // Counter 2 executes; counter 7 is declared in text but never reached.
  // The counter vector is sized to the image's declared extent up front
  // (no unbounded mid-run resize), so both indices are present.
  std::vector<Inst> Code;
  Code.push_back(makePalCount(2));
  Code.push_back(makeMem(Opcode::Lda, A0, 0, Zero));
  Code.push_back(makePal(PalFunc::Halt));
  Code.push_back(makePalCount(7)); // dead code past the halt
  Result<sim::SimResult> R = sim::run(makeRawImage(Code));
  ASSERT_TRUE(bool(R)) << R.message();
  ASSERT_EQ(R->ProfileCounts.size(), 8u);
  EXPECT_EQ(R->ProfileCounts[2], 1u);
  EXPECT_EQ(R->ProfileCounts[7], 0u);
}

TEST(SimTest, UndecodableTextIsRejectedUpFront) {
  // The whole text segment is validated at startup, so junk words are
  // rejected even when control flow never reaches them.
  std::vector<Inst> Code;
  Code.push_back(makeMem(Opcode::Lda, A0, 0, Zero));
  Code.push_back(makePal(PalFunc::Halt));
  obj::Image Img = makeRawImage(Code);
  uint32_t Junk = 0xF0000000; // primary opcode 0x3C: unassigned
  for (unsigned B = 0; B < 4; ++B)
    Img.Text.push_back(static_cast<uint8_t>(Junk >> (8 * B)));
  Result<sim::SimResult> R = sim::run(Img);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.message().find("undecodable"), std::string::npos)
      << R.message();
}

TEST(SimTest, MisalignedEntryIsRejected) {
  std::vector<Inst> Code;
  Code.push_back(makeMem(Opcode::Lda, A0, 0, Zero));
  Code.push_back(makePal(PalFunc::Halt));
  obj::Image Img = makeRawImage(Code);
  Img.Entry = Img.TextBase + 2;
  Result<sim::SimResult> R = sim::run(Img);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.message().find("entry"), std::string::npos);
}

TEST(SimTest, HostileLayoutsAreRejectedBeforeAllocation) {
  // Layouts the core's address arithmetic cannot represent end with a
  // diagnostic in every mode, before any segment is allocated: no
  // bad_alloc, no aliasing fast path, no runaway.
  struct Case {
    const char *Name;
    void (*Mutate)(obj::Image &);
    const char *MustMention;
  };
  const Case Cases[] = {
      {"huge-bss", [](obj::Image &I) { I.BssSize = 1ull << 62; },
       "exceeds"},
      {"data-wraps-2^64",
       [](obj::Image &I) {
         I.DataBase = ~0ull - 15; // bss runs past 2^64 - 1
         I.InitialGp = I.DataBase;
       },
       "wraps past 2^64"},
      {"misaligned-text-base",
       [](obj::Image &I) {
         I.TextBase += 2;
         I.Entry = I.TextBase + 2; // a 4-aligned entry in unaligned text
       },
       "not 4-byte aligned"},
      {"data-overlaps-text",
       [](obj::Image &I) { I.DataBase = I.TextBase; }, "overlap"},
      {"data-overlaps-stack",
       [](obj::Image &I) {
         I.DataBase = obj::Layout::StackTop - obj::Layout::StackSize - 64;
       },
       "overlap"},
  };
  std::vector<Inst> Code;
  Code.push_back(makeMem(Opcode::Ldq, V0, 8, GP));
  Code.push_back(makeJump(Opcode::Jmp, Zero, RA));
  for (const Case &C : Cases) {
    obj::Image Img = makeRawImage(Code);
    C.Mutate(Img);
    for (const SimMode &M : AllModes) {
      Result<sim::SimResult> R = sim::run(Img, coreConfig(1u << 20, M));
      ASSERT_FALSE(bool(R)) << C.Name << "/" << M.Name;
      EXPECT_NE(R.message().find("bad image layout"), std::string::npos)
          << C.Name << ": " << R.message();
      EXPECT_NE(R.message().find(C.MustMention), std::string::npos)
          << C.Name << ": " << R.message();
    }
  }
}

TEST(SimTest, StatsHistogramAndMips) {
  // 3 load-addresses, 1 int-op, 1 store, 1 load, 1 jump.
  std::vector<Inst> Code;
  Code.push_back(makeMem(Opcode::Lda, T0, 7, Zero));
  Code.push_back(makeMem(Opcode::Lda, T1, 5, Zero));
  Code.push_back(makeOp(Opcode::Addq, T0, T1, V0));
  Code.push_back(makeMem(Opcode::Stq, V0, 16, SP));
  Code.push_back(makeMem(Opcode::Ldq, V0, 16, SP));
  Code.push_back(makeMem(Opcode::Lda, T2, 0, Zero));
  Code.push_back(makeJump(Opcode::Ret, Zero, RA));
  sim::SimConfig Cfg;
  Cfg.Timing = false;
  Result<sim::SimResult> R = sim::run(makeRawImage(Code), Cfg);
  ASSERT_TRUE(bool(R)) << R.message();
  EXPECT_EQ(R->ExitCode, 12);

  auto count = [&](InstClass C) {
    return R->ClassCounts[static_cast<unsigned>(C)];
  };
  EXPECT_EQ(count(InstClass::LoadAddress), 3u);
  EXPECT_EQ(count(InstClass::IntOp), 1u);
  EXPECT_EQ(count(InstClass::IntStore), 1u);
  EXPECT_EQ(count(InstClass::IntLoad), 1u);
  EXPECT_EQ(count(InstClass::Jump), 1u);
  uint64_t Total = 0;
  for (uint64_t N : R->ClassCounts)
    Total += N;
  EXPECT_EQ(Total, R->Instructions);
  EXPECT_GE(R->HostSeconds, 0.0);

  std::string Text = sim::statsText(*R, /*Timing=*/false);
  EXPECT_NE(Text.find("load-address"), std::string::npos);
  EXPECT_NE(Text.find("simulated MIPS"), std::string::npos);
  std::string Json = sim::statsJson(*R, /*Timing=*/false);
  EXPECT_NE(Json.find("\"instructions\": 7"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"timing\": null"), std::string::npos);
  EXPECT_EQ(R->BlocksEnded, 0u);
  EXPECT_EQ(R->BlocksMemoized, 0u);

  // Timing runs render the cycle/cache section in both formats, with the
  // block memo's counters (one block: the code ends in its only jump).
  Result<sim::SimResult> T = sim::run(makeRawImage(Code));
  ASSERT_TRUE(bool(T)) << T.message();
  EXPECT_EQ(T->BlocksEnded, 1u);
  EXPECT_EQ(T->BlocksMemoized, 0u);
  EXPECT_NE(sim::statsText(*T, true).find("D-cache"), std::string::npos);
  EXPECT_NE(sim::statsText(*T, true).find("timing blocks    1 (0 from the "
                                          "memo"),
            std::string::npos)
      << sim::statsText(*T, true);
  Json = sim::statsJson(*T, true);
  EXPECT_NE(Json.find("\"cycles\""), std::string::npos);
  EXPECT_NE(Json.find("\"blocks_ended\": 1,"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"blocks_memoized\": 0\n"), std::string::npos)
      << Json;
}

TEST(SimTest, FunctionalModeReportsNoCycles) {
  std::vector<Inst> Code;
  Code.push_back(makeMem(Opcode::Lda, V0, 1, Zero));
  Code.push_back(makeJump(Opcode::Ret, Zero, RA));
  sim::SimConfig Cfg;
  Cfg.Timing = false;
  Result<sim::SimResult> R = sim::run(makeRawImage(Code), Cfg);
  ASSERT_TRUE(bool(R)) << R.message();
  EXPECT_EQ(R->Cycles, 0u);
  EXPECT_EQ(R->Instructions, 2u);
}

//===----------------------------------------------------------------------===//
// Pinned core results: the all-class program's whole SimResult, every fault
// path's exact message and every integer operate's edge-operand results, in
// every mode. The rows were recorded while the simulator still ran a second
// (switch) dispatch that agreed with computed goto on all of them, so they
// keep that cross-check's coverage.
//===----------------------------------------------------------------------===//

/// \p Code as a raw image with one procedure spanning the text, so
/// profiled runs record heat, branch sites and call edges.
obj::Image rawImageWithProc(const std::vector<Inst> &Code) {
  obj::Image Img = makeRawImage(Code);
  obj::ImageProc P;
  P.Name = "t.main";
  P.Entry = Img.TextBase;
  P.Size = Img.Text.size();
  Img.Procs.push_back(P);
  return Img;
}

/// Every field of \p R but HostSeconds, as one row: the counters in
/// full, the output stream verbatim, and the final data and profile as
/// content hashes.
std::string resultRow(const sim::SimResult &R) {
  std::string S = formatString(
      "exit=%lld out='%s' insts=%llu nops=%llu loads=%llu stores=%llu "
      "taken=%llu cycles=%llu pairs=%llu imiss=%llu dmiss=%llu "
      "blocks=%llu/%llu classes=",
      (long long)R.ExitCode, R.Output.c_str(),
      (unsigned long long)R.Instructions, (unsigned long long)R.Nops,
      (unsigned long long)R.Loads, (unsigned long long)R.Stores,
      (unsigned long long)R.TakenBranches, (unsigned long long)R.Cycles,
      (unsigned long long)R.DualIssuePairs,
      (unsigned long long)R.ICacheMisses, (unsigned long long)R.DCacheMisses,
      (unsigned long long)R.BlocksEnded, (unsigned long long)R.BlocksMemoized);
  for (uint64_t N : R.ClassCounts)
    S += formatString("%llu,", (unsigned long long)N);
  S += " counts=";
  for (uint64_t N : R.ProfileCounts)
    S += formatString("%llu,", (unsigned long long)N);
  return S + formatString(" profile=0x%016llx data=0x%016llx",
                          (unsigned long long)hashBytes(R.Profile.serialize()),
                          (unsigned long long)hashBytes(R.FinalData));
}

/// One straight-line program exercising every instruction class: PAL
/// output/counters, load-addresses, int/fp memory, jumps, taken and
/// fall-through branches, every operate family, transfers, and nops.
std::vector<Inst> allClassProgram() {
  std::vector<Inst> Code;
  Code.push_back(makeOp(Opcode::Bis, RA, RA, S0)); // save halt address
  emitConst(Code, T0, 13);
  emitConst(Code, T1, 5);

  // Every integer operate, register and literal forms, results folded
  // into an accumulator so nothing is dead.
  const Opcode IntOps[] = {
      Opcode::Addq, Opcode::Subq,  Opcode::Mulq, Opcode::S4addq,
      Opcode::S8addq, Opcode::Cmpeq, Opcode::Cmplt, Opcode::Cmple,
      Opcode::Cmpult, Opcode::And, Opcode::Bic,  Opcode::Bis,
      Opcode::Ornot, Opcode::Xor,  Opcode::Sll,  Opcode::Srl,
      Opcode::Sra};
  for (Opcode Op : IntOps) {
    Code.push_back(makeOp(Op, T0, T1, T2));
    Code.push_back(makeOp(Opcode::Xor, T3, T2, T3));
    Code.push_back(makeOpLit(Op, T0, 3, T2));
    Code.push_back(makeOp(Opcode::Xor, T3, T2, T3));
  }
  // Zero-register destinations execute as nops on both cores.
  Code.push_back(Inst::nop());
  Code.push_back(makeOp(Opcode::Addq, T0, T1, Zero));

  // Int memory round trips (stack and data segment, via GP).
  Code.push_back(makeMem(Opcode::Stq, T3, 16, SP));
  Code.push_back(makeMem(Opcode::Ldq, T4, 16, SP));
  Code.push_back(makeMem(Opcode::Stl, T0, 24, SP));
  Code.push_back(makeMem(Opcode::Ldl, T5, 24, SP));
  Code.push_back(makeMem(Opcode::Stq, T3, 64, GP));
  Code.push_back(makeMem(Opcode::Ldq, T6, 64, GP));

  // FP pipeline: build 13.0 and 5.0, push them through every fp operate,
  // store/load through memory, and round the quotient back to an int.
  Code.push_back(makeOp(Opcode::Itoft, T0, Zero, 1));
  Code.push_back(makeOp(Opcode::Cvtqt, FZero, 1, 1)); // f1 = 13.0
  Code.push_back(makeOp(Opcode::Itoft, T1, Zero, 2));
  Code.push_back(makeOp(Opcode::Cvtqt, FZero, 2, 2)); // f2 = 5.0
  Code.push_back(makeOp(Opcode::Addt, 1, 2, 3));
  Code.push_back(makeOp(Opcode::Subt, 1, 2, 4));
  Code.push_back(makeOp(Opcode::Mult, 1, 2, 5));
  Code.push_back(makeOp(Opcode::Divt, 1, 2, 6));
  Code.push_back(makeOp(Opcode::Cmpteq, 1, 2, 7));
  Code.push_back(makeOp(Opcode::Cmptlt, 2, 1, 8));
  Code.push_back(makeOp(Opcode::Cmptle, 1, 1, 9));
  Code.push_back(makeOp(Opcode::Cpys, 4, 6, 10));
  Code.push_back(makeMem(Opcode::Stt, 10, 32, SP));
  Code.push_back(makeMem(Opcode::Ldt, 11, 32, SP));
  Code.push_back(makeOp(Opcode::Cvttq, FZero, 11, 12));
  Code.push_back(makeOp(Opcode::Ftoit, 12, Zero, T2));
  Code.push_back(makeOp(Opcode::Xor, T3, T2, T3));

  // Conditional branches: a taken and a fall-through flavour of each
  // direction, plus the fp pair (f1 = 13.0 is nonzero, f13 stays +0.0).
  Code.push_back(makeBranch(Opcode::Beq, T0, 1)); // not taken (t0 = 13)
  Code.push_back(makeBranch(Opcode::Bne, T0, 1)); // taken, skips the nop
  Code.push_back(Inst::nop());
  Code.push_back(makeBranch(Opcode::Blt, T0, 1)); // not taken
  Code.push_back(makeBranch(Opcode::Ble, T0, 1)); // not taken
  Code.push_back(makeBranch(Opcode::Bgt, T0, 1)); // taken
  Code.push_back(Inst::nop());
  Code.push_back(makeBranch(Opcode::Bge, T0, 1)); // taken
  Code.push_back(Inst::nop());
  Code.push_back(makeBranch(Opcode::Fbeq, 1, 1)); // not taken (13.0)
  Code.push_back(makeBranch(Opcode::Fbne, 1, 1)); // taken
  Code.push_back(Inst::nop());
  Code.push_back(makeBranch(Opcode::Fbeq, 13, 1)); // taken (+0.0)
  Code.push_back(Inst::nop());
  Code.push_back(makeBranch(Opcode::Br, Zero, 1)); // unconditional
  Code.push_back(Inst::nop());

  // Jumps: BSR to a leaf that returns (RET), then a JSR through a
  // register address computed from a zero-displacement BSR's link value.
  Code.push_back(makeBranch(Opcode::Bsr, RA, 4)); // -> leaf below
  Code.push_back(makeOp(Opcode::Xor, T3, V0, T3));
  Code.push_back(makeBranch(Opcode::Bsr, T4, 0)); // t4 = next address
  Code.push_back(makeOpLit(Opcode::Addq, T4, 16, T4));
  Code.push_back(makeJump(Opcode::Jsr, T5, T4)); // skips the leaf + ret
  Code.push_back(makeMem(Opcode::Lda, V0, 7, Zero)); // leaf
  Code.push_back(makeJump(Opcode::Ret, Zero, RA));

  // PAL services: the output stream, the cycle counter, and profile
  // counters (declared twice, hit once each).
  Code.push_back(makeMem(Opcode::Lda, A0, 80, Zero)); // 'P'
  Code.push_back(makePal(PalFunc::PutChar));
  Code.push_back(makeMem(Opcode::Lda, A0, -7, Zero));
  Code.push_back(makePal(PalFunc::PutInt));
  Code.push_back(makeOp(Opcode::Cpys, 6, 6, 16)); // fa0 = 13.0/5.0
  Code.push_back(makePal(PalFunc::PutReal));
  Code.push_back(makePal(PalFunc::CycleCount)); // v0 = insts so far
  Code.push_back(makeOp(Opcode::Xor, T3, V0, T3));
  Code.push_back(makePalCount(0));
  Code.push_back(makePalCount(1));

  // Exit through JMP to the saved halt address with a data-derived code.
  Code.push_back(makeOpLit(Opcode::And, T3, 63, V0));
  Code.push_back(makeJump(Opcode::Jmp, Zero, S0));
  return Code;
}

//===----------------------------------------------------------------------===//
// Golden timing (GoldenTiming.h): fixed images whose counters were pinned
// with the per-instruction issue model.
//===----------------------------------------------------------------------===//

const std::vector<GoldenRun> GoldenRuns = {
    {"all-classes/timing", 125, 305, 42, 17, 3, 11, 5, 0x0000000000000000ull},
    {"all-classes/profiled", 125, 305, 42, 17, 3, 11, 5, 0x50002ed1d7211ea7ull},
    {"all-classes/functional-profiled", 125, 0, 0, 0, 0, 11, 18,
     0x50002ed1d7211ea7ull},
    {"rpcc-and-bsr0/timing", 10, 52, 2, 2, 1, 3, 6411, 0x0000000000000000ull},
    {"rpcc-and-bsr0/profiled", 10, 52, 2, 2, 1, 3, 6411, 0x487d67149e37f1aeull},
    {"rpcc-and-bsr0/functional-profiled", 10, 0, 0, 0, 0, 3, 1025,
     0x487d67149e37f1aeull},
    {"nasa7/om/timing", 106233, 221882, 17141, 58, 200, 6526, 0,
     0x0000000000000000ull},
    {"nasa7/om/profiled", 106233, 221882, 17141, 58, 200, 6526, 0,
     0x9f1b46d64bcf5c63ull},
    {"nasa7/om/functional-profiled", 106233, 0, 0, 0, 0, 6526, 0,
     0x9f1b46d64bcf5c63ull},
    {"nasa7/hot-cold/timing", 110815, 225097, 17892, 56, 200, 6243, 0,
     0x0000000000000000ull},
    {"nasa7/hot-cold/profiled", 110815, 225097, 17892, 56, 200, 6243, 0,
     0x6792552c745aacd4ull},
    {"nasa7/hot-cold/functional-profiled", 110815, 0, 0, 0, 0, 6243, 0,
     0x6792552c745aacd4ull},
    {"alvinn/om/timing", 349459, 757030, 70776, 45, 8830, 24677, 0,
     0x0000000000000000ull},
    {"alvinn/om/profiled", 349459, 757030, 70776, 45, 8830, 24677, 0,
     0x52d7ee62b9c55974ull},
    {"alvinn/om/functional-profiled", 349459, 0, 0, 0, 0, 24677, 0,
     0x52d7ee62b9c55974ull},
    {"alvinn/hot-cold/timing", 354873, 754165, 75096, 44, 8830, 22916, 0,
     0x0000000000000000ull},
    {"alvinn/hot-cold/profiled", 354873, 754165, 75096, 44, 8830, 22916, 0,
     0x369b71dcb7c6e375ull},
    {"alvinn/hot-cold/functional-profiled", 354873, 0, 0, 0, 0, 22916, 0,
     0x369b71dcb7c6e375ull},
    {"compress/om/timing", 2009796, 2808594, 515630, 44, 23254, 194052, 0,
     0x0000000000000000ull},
    {"compress/om/profiled", 2009796, 2808594, 515630, 44, 23254, 194052, 0,
     0xd714fa75c856f54eull},
    {"compress/om/functional-profiled", 2009796, 0, 0, 0, 0, 194052, 0,
     0xd714fa75c856f54eull},
    {"compress/hot-cold/timing", 1997959, 2707596, 471382, 39, 23254, 127494, 0,
     0x0000000000000000ull},
    {"compress/hot-cold/profiled",
     1997959, 2707596, 471382, 39, 23254, 127494, 0,
     0xb1f51d6bf504702full},
    {"compress/hot-cold/functional-profiled", 1997959, 0, 0, 0, 0, 127494, 0,
     0xb1f51d6bf504702full},
};


TEST(GoldenTimingTest, AllClassProgram) {
  expectGolden(rawImageWithProc(allClassProgram()), "all-classes",
               GoldenRuns);
}

TEST(GoldenTimingTest, CycleCounterAndZeroDisplacementBranch) {
  // The timing model's two subtle rules, pinned through the exit code:
  // CALL_PAL rpcc reads the cycle count as of the previous retirement
  // (not the count after its own stall on a0), and a taken branch of
  // displacement 0 is counted as taken but takes no redirect bubble.
  std::vector<Inst> Code;
  Code.push_back(makeMem(Opcode::Ldq, A0, 16, SP)); // D-cache miss
  Code.push_back(makePal(PalFunc::CycleCount));     // stalls on a0
  Code.push_back(makeOp(Opcode::Bis, V0, V0, S1));
  Code.push_back(makeBranch(Opcode::Bsr, T4, 0)); // taken, falls through
  Code.push_back(makeBranch(Opcode::Br, Zero, 0));
  Code.push_back(makePal(PalFunc::CycleCount));
  Code.push_back(makeOp(Opcode::Subq, V0, S1, V0));
  Code.push_back(makeOpLit(Opcode::Sll, V0, 8, V0));
  Code.push_back(makeOp(Opcode::Bis, V0, S1, V0)); // exit = delta<<8 | t1
  Code.push_back(makeJump(Opcode::Ret, Zero, RA));
  expectGolden(rawImageWithProc(Code), "rpcc-and-bsr0", GoldenRuns);
}

TEST(GoldenTimingTest, SpecWorkloadsOmAndHotCold) {
  // Three small SPEC-shaped workloads (fp, fp, int), each linked OM-full
  // with scheduling and then relinked hot-cold from its own profile, as
  // bench/layout_speedup does.
  for (const char *Name : {"nasa7", "alvinn", "compress"}) {
    Result<wl::BuiltWorkload> W = wl::buildWorkload(Name);
    ASSERT_TRUE(bool(W)) << W.message();
    om::OmOptions Opts;
    Opts.Level = om::OmLevel::Full;
    Opts.Reschedule = true;
    Opts.AlignLoopTargets = true;
    Result<om::OmResult> Base =
        wl::linkWithOm(*W, wl::CompileMode::Each, Opts);
    ASSERT_TRUE(bool(Base)) << Base.message();
    prof::Profile Prof =
        expectGolden(Base->Image, std::string(Name) + "/om", GoldenRuns);

    Opts.HotColdLayout = true;
    Opts.Profile = Prof;
    Result<om::OmResult> Lay = wl::linkWithOm(*W, wl::CompileMode::Each, Opts);
    ASSERT_TRUE(bool(Lay)) << Lay.message();
    expectGolden(Lay->Image, std::string(Name) + "/hot-cold",
                 GoldenRuns);
  }
}

//===----------------------------------------------------------------------===//
// Golden timing for block memoization: small loops aimed at each part of
// the memo key (start, redirect, entry slot, live-in readiness), at the
// cache paths that must bypass it, and at the rpcc flush. Their rows were
// recorded with the per-instruction issue model.
//===----------------------------------------------------------------------===//

const std::vector<GoldenRun> MemoGoldenRuns = {
    {"memo/rpcc-mid-loop/timing", 386, 374, 162, 3, 1, 60, 185961834700,
     0x0000000000000000ull},
    {"memo/rpcc-mid-loop/profiled", 386, 374, 162, 3, 1, 60, 185961834700,
     0x31d3ec287fae09b3ull},
    {"memo/rpcc-mid-loop/functional-profiled", 386, 0, 0, 0, 0, 60,
     154580775089, 0x31d3ec287fae09b3ull},
    {"memo/alternating-load-use/timing", 582, 1272, 66, 2, 32, 64,
     8025334476570614797, 0x0000000000000000ull},
    {"memo/alternating-load-use/profiled", 582, 1272, 66, 2, 32, 64,
     8025334476570614797, 0xb6d94795b1a9d983ull},
    {"memo/alternating-load-use/functional-profiled", 582, 0, 0, 0, 0, 64,
     8025334476570614797, 0xb6d94795b1a9d983ull},
    {"memo/strided-dcache-misses/timing", 1606, 3023, 403, 2, 101, 200, 20100,
     0x0000000000000000ull},
    {"memo/strided-dcache-misses/profiled", 1606, 3023, 403, 2, 101, 200, 20100,
     0x53f9aa027ae5585full},
    {"memo/strided-dcache-misses/functional-profiled", 1606, 0, 0, 0, 0, 200,
     20100, 0x53f9aa027ae5585full},
    {"memo/loop-larger-than-icache/timing", 6911, 12585, 2, 421, 4, 3,
     4239208354917051150, 0x0000000000000000ull},
    {"memo/loop-larger-than-icache/profiled", 6911, 12585, 2, 421, 4, 3,
     4239208354917051150, 0x897d9d73245b38efull},
    {"memo/loop-larger-than-icache/functional-profiled", 6911, 0, 0, 0, 0, 3,
     4239208354917051150, 0x897d9d73245b38efull},
    {"memo/jsr-into-block-middle/timing", 382, 744, 93, 3, 1, 121, 4730,
     0x0000000000000000ull},
    {"memo/jsr-into-block-middle/profiled", 382, 744, 93, 3, 1, 121, 4730,
     0x0f5e5594ac4076a8ull},
    {"memo/jsr-into-block-middle/functional-profiled", 382, 0, 0, 0, 0, 121,
     4730, 0x0f5e5594ac4076a8ull},
    {"memo/branch-both-ways/timing", 279, 447, 2, 2, 0, 75, 200,
     0x0000000000000000ull},
    {"memo/branch-both-ways/profiled", 279, 447, 2, 2, 0, 75, 200,
     0x89ace3589fc3a02dull},
    {"memo/branch-both-ways/functional-profiled", 279, 0, 0, 0, 0, 75, 200,
     0x89ace3589fc3a02dull},
    {"memo/many-live-ins/timing", 745, 843, 292, 6, 21, 40, 214748378760,
     0x0000000000000000ull},
    {"memo/many-live-ins/profiled", 745, 843, 292, 6, 21, 40, 214748378760,
     0x691dc4e941217477ull},
    {"memo/many-live-ins/functional-profiled", 745, 0, 0, 0, 0, 40,
     214748378760, 0x691dc4e941217477ull},
};

/// Hand assembly with named branch targets, for the memo loops.
class LoopAsm {
public:
  void emit(Inst I) { Code.push_back(I); }
  void label(const std::string &Name) { Labels[Name] = Code.size(); }
  /// A branch to \p Target, resolved by finish().
  void branch(Opcode Op, uint8_t Ra, const std::string &Target) {
    Fixups.emplace_back(Code.size(), Target);
    Code.push_back(makeBranch(Op, Ra, 0));
  }
  /// Pads with nops until the next instruction's index has parity
  /// \p Parity (0: it starts an aligned quadword and may offer its second
  /// issue slot; 1: it may take the slot offered by its predecessor).
  void alignTo(unsigned Parity) {
    while (Code.size() % 2 != Parity)
      Code.push_back(Inst::nop());
  }
  size_t at(const std::string &Name) const { return Labels.at(Name); }
  std::vector<Inst> finish() {
    for (const auto &[At, Target] : Fixups)
      Code[At].Disp = static_cast<int32_t>(Labels.at(Target)) -
                      static_cast<int32_t>(At) - 1;
    return Code;
  }

private:
  std::vector<Inst> Code;
  std::map<std::string, size_t> Labels;
  std::vector<std::pair<size_t, std::string>> Fixups;
};

/// Checks \p Code's golden rows, then the block memo's own counters from
/// its timing run: \p Ended timing blocks, \p Memoized of them served by
/// the memo. Unlike the rows, these were pinned with the memo in place; a
/// key that never matches (or matches too often) moves them even while
/// every cycle count stays exact.
void expectMemoGolden(const std::vector<Inst> &Code, const std::string &Name,
                      uint64_t Ended, uint64_t Memoized) {
  sim::SimResult Timing;
  expectGolden(rawImageWithProc(Code), "memo/" + Name, MemoGoldenRuns,
               &Timing);
  EXPECT_EQ(Timing.BlocksEnded, Ended) << Name;
  EXPECT_EQ(Timing.BlocksMemoized, Memoized) << Name;
}

TEST(GoldenTimingTest, MemoRpccMidLoop) {
  // rpcc sits mid-block, so the partial block before it must be issued
  // before the cycle count is read. Odd iterations branch straight to
  // the rpcc (its block then starts with an empty slot); even ones fall
  // through from an instruction that offers its slot, so the same block
  // is entered in both slot states with the same live-in readiness.
  LoopAsm A;
  A.emit(makeMem(Opcode::Lda, S0, 40, Zero));
  A.emit(makeOp(Opcode::Bis, Zero, Zero, S1));
  A.emit(makeOp(Opcode::Bis, Zero, Zero, S2));
  A.alignTo(0);
  A.label("loop");
  A.emit(makeOpLit(Opcode::Xor, S2, 1, S2));
  A.emit(makeOp(Opcode::Addq, S1, T1, S1));
  A.emit(makeOp(Opcode::Addq, S1, S0, T0));
  A.branch(Opcode::Beq, S2, "rpcc");
  A.emit(makeMem(Opcode::Ldq, T2, 0, GP));
  A.alignTo(0);
  A.emit(makeOpLit(Opcode::Addq, T0, 3, T1)); // offers its slot to rpcc
  A.label("rpcc");
  A.emit(makePal(PalFunc::CycleCount));
  A.emit(makeOp(Opcode::Addq, S1, V0, S1));
  A.emit(makeOpLit(Opcode::Subq, S0, 1, S0));
  A.branch(Opcode::Bne, S0, "loop");
  A.emit(makeOp(Opcode::Bis, Zero, S1, V0)); // exit = sum of the readings
  A.emit(makeJump(Opcode::Ret, Zero, RA));
  ASSERT_EQ(A.at("rpcc") % 2, 1u);
  expectMemoGolden(A.finish(), "rpcc-mid-loop", 101, 74);
}

TEST(GoldenTimingTest, MemoAlternatingLoadUse) {
  // The back-edge block loads t0 with a 16-byte stride (a D-cache miss
  // every other iteration); the loop head reads it first thing, so the
  // head is entered alternately with t0 still pending and t0 ready.
  LoopAsm A;
  A.emit(makeMem(Opcode::Lda, S0, 64, Zero));
  A.emit(makeOp(Opcode::Bis, Zero, GP, S3));
  A.emit(makeOp(Opcode::Bis, Zero, Zero, S1));
  A.emit(makeOp(Opcode::Bis, Zero, Zero, T0));
  A.alignTo(0);
  A.label("loop");
  A.emit(makeOp(Opcode::Addq, S1, T0, S1));
  A.emit(makeOpLit(Opcode::Addq, S1, 5, S1));
  A.emit(makeOp(Opcode::Xor, S1, S0, T3));
  A.emit(makeOp(Opcode::Addq, S1, T3, S1));
  A.branch(Opcode::Bne, Zero, "next"); // never taken: ends the head block
  A.label("next");
  A.emit(makeOpLit(Opcode::Subq, S0, 1, S0));
  A.emit(makeMem(Opcode::Ldq, T0, 0, S3));
  A.emit(makeMem(Opcode::Lda, S3, 16, S3));
  A.branch(Opcode::Bne, S0, "loop");
  A.emit(makeOp(Opcode::Bis, Zero, S1, V0));
  A.emit(makeJump(Opcode::Ret, Zero, RA));
  expectMemoGolden(A.finish(), "alternating-load-use", 129, 30);
}

TEST(GoldenTimingTest, MemoStridedDCacheMisses) {
  // An 8-byte stride over 32-byte lines: the load misses every 4th
  // iteration, and a store stream offset by one quadword misses on a
  // different iteration of the four (a store miss costs no cycles).
  LoopAsm A;
  A.emit(makeMem(Opcode::Lda, S0, 200, Zero));
  A.emit(makeOp(Opcode::Bis, Zero, GP, S3));
  A.emit(makeMem(Opcode::Lda, S4, 2056, GP));
  A.emit(makeOp(Opcode::Bis, Zero, Zero, S1));
  A.alignTo(0);
  A.label("loop");
  A.emit(makeMem(Opcode::Ldq, T0, 0, S3));
  A.emit(makeOp(Opcode::Addq, S1, S0, S1));
  A.emit(makeOp(Opcode::Addq, S1, T0, S1));
  A.emit(makeMem(Opcode::Stq, S1, 0, S4));
  A.emit(makeMem(Opcode::Lda, S3, 8, S3));
  A.emit(makeMem(Opcode::Lda, S4, 8, S4));
  A.emit(makeOpLit(Opcode::Subq, S0, 1, S0));
  A.branch(Opcode::Bne, S0, "loop");
  A.emit(makeOp(Opcode::Bis, Zero, S1, V0));
  A.emit(makeJump(Opcode::Ret, Zero, RA));
  expectMemoGolden(A.finish(), "strided-dcache-misses", 201, 148);
}

TEST(GoldenTimingTest, MemoLoopLargerThanICache) {
  // A 2,300-instruction loop body (9.2 KB against the 8 KB I-cache), cut
  // into 10-instruction blocks by never-taken branches: the blocks whose
  // lines wrap onto the body's first lines miss every iteration, the rest
  // hit from the second iteration on. Blocks straddle line boundaries.
  LoopAsm A;
  A.emit(makeMem(Opcode::Lda, S0, 3, Zero));
  A.emit(makeOp(Opcode::Bis, Zero, Zero, T0));
  A.emit(makeOp(Opcode::Bis, Zero, Zero, T1));
  A.label("loop");
  for (int Group = 0; Group < 230; ++Group) {
    A.emit(makeOpLit(Opcode::Addq, T0, 1, T0));
    A.emit(makeOp(Opcode::Xor, T1, T0, T1));
    A.emit(makeOp(Opcode::Addq, T2, T1, T2));
    A.emit(makeMem(Opcode::Ldq, T3, 8 * (Group % 16), SP));
    A.emit(makeOp(Opcode::Addq, T2, T3, T2));
    A.emit(makeOpLit(Opcode::Sll, T1, 1, T4));
    A.emit(makeOp(Opcode::Xor, T4, T2, T2));
    A.emit(makeOp(Opcode::Subq, T2, T0, T5));
    A.emit(makeOp(Opcode::Addq, T5, T1, T1));
    const std::string Next = formatString("g%d", Group);
    A.branch(Opcode::Bne, Zero, Next);
    A.label(Next);
  }
  A.emit(makeOpLit(Opcode::Subq, S0, 1, S0));
  A.branch(Opcode::Bne, S0, "loop");
  A.emit(makeOp(Opcode::Bis, Zero, T2, V0));
  A.emit(makeJump(Opcode::Ret, Zero, RA));
  expectMemoGolden(A.finish(), "loop-larger-than-icache", 694, 178);
}

TEST(GoldenTimingTest, MemoJsrIntoBlockMiddle) {
  // f's body is one block; odd iterations call it at its entry (BSR) and
  // even ones JSR to its middle, where the block read of t2 is a live-in
  // instead of the multiply's result.
  LoopAsm A;
  A.emit(makeOp(Opcode::Bis, Zero, RA, S5));
  A.emit(makeMem(Opcode::Lda, S0, 30, Zero));
  A.emit(makeMem(Opcode::Lda, A0, 3, Zero));
  A.emit(makeBranch(Opcode::Bsr, T4, 0)); // t4 = address of "base"
  A.label("base");
  A.emit(makeMem(Opcode::Lda, T4, 0, T4)); // displacement patched below
  A.label("loop");
  A.emit(makeOpLit(Opcode::Xor, S2, 1, S2));
  A.branch(Opcode::Beq, S2, "viajsr");
  A.branch(Opcode::Bsr, RA, "f");
  A.branch(Opcode::Br, Zero, "next");
  A.label("viajsr");
  A.emit(makeJump(Opcode::Jsr, RA, T4));
  A.label("next");
  A.emit(makeOp(Opcode::Addq, S1, V0, S1));
  A.emit(makeOpLit(Opcode::Subq, S0, 1, S0));
  A.branch(Opcode::Bne, S0, "loop");
  A.emit(makeOp(Opcode::Bis, Zero, S1, V0));
  A.emit(makeJump(Opcode::Ret, Zero, S5));
  A.label("f");
  A.emit(makeOpLit(Opcode::Addq, A0, 1, A0));
  A.emit(makeOp(Opcode::Mulq, A0, A0, T2));
  A.label("fmid");
  A.emit(makeOp(Opcode::Addq, T2, A0, T3));
  A.emit(makeOpLit(Opcode::Addq, T3, 7, V0));
  A.emit(makeMem(Opcode::Ldq, T5, 0, SP));
  A.emit(makeOp(Opcode::Addq, V0, T5, V0));
  A.emit(makeJump(Opcode::Ret, Zero, RA));
  std::vector<Inst> Code = A.finish();
  Code[A.at("base")].Disp =
      static_cast<int32_t>(4 * (A.at("fmid") - A.at("base")));
  expectMemoGolden(Code, "jsr-into-block-middle", 137, 124);
}

TEST(GoldenTimingTest, MemoBranchBothWays) {
  // The head block ends in a branch taken on odd iterations and not on
  // even ones, from the same entry state: only the redirect flag tells
  // the two exits apart.
  LoopAsm A;
  A.emit(makeMem(Opcode::Lda, S0, 50, Zero));
  A.alignTo(0);
  A.label("loop");
  A.emit(makeOpLit(Opcode::Xor, S2, 1, S2));
  A.emit(makeOp(Opcode::Addq, S1, S2, S1));
  A.branch(Opcode::Beq, S2, "skip");
  A.emit(makeOpLit(Opcode::Addq, S1, 7, S1));
  A.label("skip");
  A.emit(makeOpLit(Opcode::Subq, S0, 1, S0));
  A.branch(Opcode::Bne, S0, "loop");
  A.emit(makeOp(Opcode::Bis, Zero, S1, V0));
  A.emit(makeJump(Opcode::Ret, Zero, RA));
  expectMemoGolden(A.finish(), "branch-both-ways", 101, 94);
}

TEST(GoldenTimingTest, MemoMoreLiveInsThanTheKeyHolds) {
  // A straight-line block reading 22 registers before writing any of
  // them; the last one read (a4) comes from a load in the back-edge block
  // that misses every other iteration, so the block's entry readiness
  // differs only past the live-ins a key could hold.
  const uint8_t Ins[] = {T0, T1, T2, T3, T4, T5, T6, T7, T8, T9, T10,
                         T11, S0, S1, S2, S3, S4, A0, A1, A2, A3, A4};
  LoopAsm A;
  for (uint8_t R : Ins)
    if (R != A3 && R != A4)
      A.emit(makeMem(Opcode::Lda, R, R + 1, Zero));
  A.emit(makeOp(Opcode::Bis, Zero, GP, A3));
  A.emit(makeOp(Opcode::Bis, Zero, Zero, A4));
  A.emit(makeMem(Opcode::Lda, S5, 40, Zero));
  A.alignTo(0);
  A.label("loop");
  for (size_t I = 0; I < std::size(Ins); I += 2)
    A.emit(makeOp(Opcode::Addq, Ins[I], Ins[I + 1], I % 4 ? AT : A5));
  A.emit(makeOp(Opcode::Addq, V0, AT, V0));
  A.emit(makeOp(Opcode::Addq, V0, A5, V0));
  A.branch(Opcode::Bne, Zero, "back"); // never taken: ends the block
  A.label("back");
  A.emit(makeMem(Opcode::Lda, A3, 16, A3));
  A.emit(makeMem(Opcode::Ldq, A4, 0, A3));
  A.emit(makeOpLit(Opcode::Subq, S5, 1, S5));
  A.branch(Opcode::Bne, S5, "loop");
  A.emit(makeJump(Opcode::Ret, Zero, RA));
  expectMemoGolden(A.finish(), "many-live-ins", 81, 18);
}

/// The all-class program's whole result in each mode.
const std::pair<const char *, const char *> AllClassRows[] = {
    {"functional",
     "exit=18 out='P-72.6' insts=125 nops=2 loads=4 stores=4"
     " taken=11 cycles=0 pairs=0 imiss=0 dmiss=0 blocks=0/0"
     " classes=6,5,3,3,1,1,3,12,76,12,3, counts=1,1,"
     " profile=0xdea908036e9cf644 data=0xb9cc1cf6139d8e09"},
    {"timing",
     "exit=5 out='P-72.6' insts=125 nops=2 loads=4 stores=4 taken=11"
     " cycles=305 pairs=42 imiss=17 dmiss=3 blocks=16/0"
     " classes=6,5,3,3,1,1,3,12,76,12,3, counts=1,1,"
     " profile=0xdea908036e9cf644 data=0xb9cc1cf6139d8e09"},
    {"profiled",
     "exit=18 out='P-72.6' insts=125 nops=2 loads=4 stores=4"
     " taken=11 cycles=0 pairs=0 imiss=0 dmiss=0 blocks=0/0"
     " classes=6,5,3,3,1,1,3,12,76,12,3, counts=1,1,"
     " profile=0x50002ed1d7211ea7 data=0xb9cc1cf6139d8e09"},
    {"timing-profiled",
     "exit=5 out='P-72.6' insts=125 nops=2 loads=4 stores=4 taken=11"
     " cycles=305 pairs=42 imiss=17 dmiss=3 blocks=16/0"
     " classes=6,5,3,3,1,1,3,12,76,12,3, counts=1,1,"
     " profile=0x50002ed1d7211ea7 data=0xb9cc1cf6139d8e09"},
};

TEST(CoreGoldenTest, EveryOpcodeClassMatchesItsRows) {
  const obj::Image Img = rawImageWithProc(allClassProgram());
  for (const SimMode &M : AllModes) {
    Result<sim::SimResult> R = sim::run(Img, coreConfig(1u << 20, M));
    ASSERT_TRUE(bool(R)) << M.Name << ": " << R.message();
    const char *Want = nullptr;
    for (const auto &[Mode, Row] : AllClassRows)
      if (std::string(Mode) == M.Name)
        Want = Row;
    EXPECT_NE(Want, nullptr) << "no golden row; observed {\"" << M.Name
                             << "\", \"" << resultRow(*R) << "\"},";
    if (Want) {
      EXPECT_EQ(resultRow(*R), Want) << M.Name;
    }
    // The program genuinely exercised every class, so the row pins a
    // fully populated histogram (and, where collected, a nonempty timing
    // record and profile).
    for (unsigned C = 0; C < NumInstClasses; ++C)
      EXPECT_GT(R->ClassCounts[C], 0u)
          << "class " << instClassName(static_cast<InstClass>(C))
          << " never executed";
    EXPECT_FALSE(R->Output.empty());
    EXPECT_GT(R->Nops, 0u);
    EXPECT_EQ(R->Cycles > 0, M.Timing) << M.Name;
    EXPECT_EQ(R->Profile.totalInstructions(),
              M.Profile ? R->Instructions : 0)
        << M.Name;
  }
}

TEST(CoreGoldenTest, EveryFaultPathMatchesItsMessage) {
  struct FaultCase {
    const char *Name;
    std::vector<Inst> Code;
    const char *Message;
    uint64_t MaxInsts;
  };
  std::vector<FaultCase> Cases;
  auto add = [&Cases](const char *Name, std::vector<Inst> Code,
                      const char *Message, uint64_t MaxInsts = 1u << 20) {
    Cases.push_back({Name, std::move(Code), Message, MaxInsts});
  };

  // Misalignment, one per access width and direction (fp included).
  add("unaligned-ldq", {makeMem(Opcode::Ldq, V0, 1, SP)},
      "bad 8-byte load at 0x000000015ffffe01 (pc=0x0000000120000000, "
      "inst='ldq v0, 1(sp)')");
  add("unaligned-ldl", {makeMem(Opcode::Ldl, V0, 2, SP)},
      "bad 4-byte load at 0x000000015ffffe02 (pc=0x0000000120000000, "
      "inst='ldl v0, 2(sp)')");
  add("unaligned-stq", {makeMem(Opcode::Stq, V0, 1, SP)},
      "bad 8-byte store at 0x000000015ffffe01 (pc=0x0000000120000000, "
      "inst='stq v0, 1(sp)')");
  add("unaligned-stl", {makeMem(Opcode::Stl, V0, 2, SP)},
      "bad 4-byte store at 0x000000015ffffe02 (pc=0x0000000120000000, "
      "inst='stl v0, 2(sp)')");
  add("unaligned-ldt", {makeMem(Opcode::Ldt, 1, 4, SP)},
      "bad 8-byte load at 0x000000015ffffe04 (pc=0x0000000120000000, "
      "inst='ldt f1, 4(sp)')");
  add("unaligned-stt", {makeMem(Opcode::Stt, 1, 4, SP)},
      "bad 8-byte store at 0x000000015ffffe04 (pc=0x0000000120000000, "
      "inst='stt f1, 4(sp)')");

  // Bounds, including the 2^64 wraparound corner.
  add("oob-load-wrap", {makeMem(Opcode::Ldq, V0, -8, Zero)},
      "bad 8-byte load at 0xfffffffffffffff8 (pc=0x0000000120000000, "
      "inst='ldq v0, -8(zero)')");
  add("oob-store-wrap", {makeMem(Opcode::Stq, V0, -8, Zero)},
      "bad 8-byte store at 0xfffffffffffffff8 (pc=0x0000000120000000, "
      "inst='stq v0, -8(zero)')");
  add("oob-load-low", {makeMem(Opcode::Ldq, V0, 0, Zero)},
      "bad 8-byte load at 0x0000000000000000 (pc=0x0000000120000000, "
      "inst='ldq v0, 0(zero)')");
  {
    // Store into the text segment (read-only by construction).
    std::vector<Inst> Code;
    Code.push_back(makeOp(Opcode::Bis, Zero, Zero, T0));
    Code.push_back(makeMem(Opcode::Ldah, T0, 0x1200, T0));
    Code.push_back(makeOpLit(Opcode::Sll, T0, 4, T0));
    Code.push_back(makeMem(Opcode::Stq, Zero, 0, T0));
    add("store-to-text", std::move(Code),
        "bad 8-byte store at 0x0000000120000000 (pc=0x000000012000000c, "
        "inst='stq zero, 0(t0)')");
  }

  // Control flow escaping the text segment.
  add("fall-off-end", {makeMem(Opcode::Lda, V0, 1, Zero)},
      "PC out of text: 0x0000000120000004");
  add("br-before-text", {makeBranch(Opcode::Br, Zero, -5)},
      "PC out of text: 0x000000011ffffff0");
  add("br-past-end", {makeBranch(Opcode::Br, Zero, 100)},
      "PC out of text: 0x0000000120000194");
  {
    std::vector<Inst> Code;
    emitConst(Code, T0, 0x5000);
    Code.push_back(makeJump(Opcode::Jsr, RA, T0));
    add("jump-out-of-range", std::move(Code),
        "PC out of text: 0x0000000000005000");
  }
  {
    std::vector<Inst> Code;
    emitConst(Code, T0, 1);
    Code.push_back(makeBranch(Opcode::Bne, T0, -100));
    add("taken-cond-out-of-range", std::move(Code),
        "PC out of text: 0x000000011ffffe78");
  }

  // Resource limits and PAL misuse.
  add("budget-exceeded", {makeBranch(Opcode::Br, Zero, -1)},
      "instruction budget exceeded (runaway program?)", 100);
  add("unknown-pal", {makePal(static_cast<PalFunc>(99))},
      "unknown PAL function 99 (pc=0x0000000120000000, inst='call_pal ?')");

  for (const FaultCase &C : Cases)
    for (const SimMode &M : AllModes) {
      Result<sim::SimResult> R =
          sim::run(rawImageWithProc(C.Code), coreConfig(C.MaxInsts, M));
      ASSERT_FALSE(bool(R)) << C.Name << "/" << M.Name << " did not fault";
      EXPECT_EQ(R.message(), C.Message) << C.Name << "/" << M.Name;
    }
}

/// Each integer operate on an edge-case first operand: Reg is
/// `Op A, 3` (register form) and Lit is `Op A, #255` (literal form).
struct IntOpEdgeRow {
  const char *Op;
  int64_t A;
  int64_t Reg;
  int64_t Lit;
};
const IntOpEdgeRow IntOpEdgeRows[] = {
    {"addq", 0, 3, 255},
    {"addq", -1, 2, 254},
    {"addq", 13, 16, 268},
    {"addq", INT64_MIN, -9223372036854775805, -9223372036854775553},
    {"subq", 0, -3, -255},
    {"subq", -1, -4, -256},
    {"subq", 13, 10, -242},
    {"subq", INT64_MIN, 9223372036854775805, 9223372036854775553},
    {"mulq", 0, 0, 0},
    {"mulq", -1, -3, -255},
    {"mulq", 13, 39, 3315},
    {"mulq", INT64_MIN, INT64_MIN, INT64_MIN},
    {"s4addq", 0, 3, 255},
    {"s4addq", -1, -1, 251},
    {"s4addq", 13, 55, 307},
    {"s4addq", INT64_MIN, 3, 255},
    {"s8addq", 0, 3, 255},
    {"s8addq", -1, -5, 247},
    {"s8addq", 13, 107, 359},
    {"s8addq", INT64_MIN, 3, 255},
    {"cmpeq", 0, 0, 0},
    {"cmpeq", -1, 0, 0},
    {"cmpeq", 13, 0, 0},
    {"cmpeq", INT64_MIN, 0, 0},
    {"cmplt", 0, 1, 1},
    {"cmplt", -1, 1, 1},
    {"cmplt", 13, 0, 1},
    {"cmplt", INT64_MIN, 1, 1},
    {"cmple", 0, 1, 1},
    {"cmple", -1, 1, 1},
    {"cmple", 13, 0, 1},
    {"cmple", INT64_MIN, 1, 1},
    {"cmpult", 0, 1, 1},
    {"cmpult", -1, 0, 0},
    {"cmpult", 13, 0, 1},
    {"cmpult", INT64_MIN, 0, 0},
    {"and", 0, 0, 0},
    {"and", -1, 3, 255},
    {"and", 13, 1, 13},
    {"and", INT64_MIN, 0, 0},
    {"bic", 0, 0, 0},
    {"bic", -1, -4, -256},
    {"bic", 13, 12, 0},
    {"bic", INT64_MIN, INT64_MIN, INT64_MIN},
    {"bis", 0, 3, 255},
    {"bis", -1, -1, -1},
    {"bis", 13, 15, 255},
    {"bis", INT64_MIN, -9223372036854775805, -9223372036854775553},
    {"ornot", 0, -4, -256},
    {"ornot", -1, -1, -1},
    {"ornot", 13, -3, -243},
    {"ornot", INT64_MIN, -4, -256},
    {"xor", 0, 3, 255},
    {"xor", -1, -4, -256},
    {"xor", 13, 14, 242},
    {"xor", INT64_MIN, -9223372036854775805, -9223372036854775553},
    {"sll", 0, 0, 0},
    {"sll", -1, -8, INT64_MIN},
    {"sll", 13, 104, INT64_MIN},
    {"sll", INT64_MIN, 0, 0},
    {"srl", 0, 0, 0},
    {"srl", -1, 2305843009213693951, 1},
    {"srl", 13, 1, 0},
    {"srl", INT64_MIN, 1152921504606846976, 1},
    {"sra", 0, 0, 0},
    {"sra", -1, -1, -1},
    {"sra", 13, 1, 0},
    {"sra", INT64_MIN, -1152921504606846976, -1},
};

TEST(CoreGoldenTest, EveryIntOpMatchesItsEdgeOperandRows) {
  // Every integer operate over sign/magnitude edge cases in both register
  // and literal form. The program stores both results to the data segment
  // and exits with their xor, so a row pins each result and v0.
  const Opcode IntOps[] = {
      Opcode::Addq, Opcode::Subq,  Opcode::Mulq, Opcode::S4addq,
      Opcode::S8addq, Opcode::Cmpeq, Opcode::Cmplt, Opcode::Cmple,
      Opcode::Cmpult, Opcode::And, Opcode::Bic,  Opcode::Bis,
      Opcode::Ornot, Opcode::Xor,  Opcode::Sll,  Opcode::Srl,
      Opcode::Sra};
  const int64_t As[] = {0, -1, 13, static_cast<int64_t>(0x8000000000000000ull)};
  auto text = [](const IntOpEdgeRow &R) {
    auto num = [](int64_t V) {
      return V == INT64_MIN ? std::string("INT64_MIN") : std::to_string(V);
    };
    return "{\"" + std::string(R.Op) + "\", " + num(R.A) + ", " +
           num(R.Reg) + ", " + num(R.Lit) + "},";
  };
  std::string Observed;
  size_t Idx = 0;
  for (Opcode Op : IntOps) {
    for (int64_t A : As) {
      const std::string What =
          std::string(opcodeName(Op)) + "/A=" + std::to_string(A);
      std::vector<Inst> Code;
      emitConst(Code, T0, A);
      emitConst(Code, T1, 3);
      Code.push_back(makeOp(Op, T0, T1, T2));
      Code.push_back(makeOpLit(Op, T0, 255, T3));
      Code.push_back(makeMem(Opcode::Stq, T2, 0, GP));
      Code.push_back(makeMem(Opcode::Stq, T3, 8, GP));
      Code.push_back(makeOp(Opcode::Xor, T2, T3, V0));
      Code.push_back(makeJump(Opcode::Ret, Zero, RA));
      const obj::Image Img = rawImageWithProc(Code);
      std::optional<IntOpEdgeRow> Got;
      for (const SimMode &M : AllModes) {
        Result<sim::SimResult> R = sim::run(Img, coreConfig(1u << 20, M));
        ASSERT_TRUE(bool(R)) << What << "/" << M.Name << ": "
                             << R.message();
        IntOpEdgeRow Run{opcodeName(Op), A, 0, 0};
        std::memcpy(&Run.Reg, R->FinalData.data(), 8);
        std::memcpy(&Run.Lit, R->FinalData.data() + 8, 8);
        EXPECT_EQ(R->ExitCode, Run.Reg ^ Run.Lit) << What << "/" << M.Name;
        if (!Got)
          Got = Run;
        EXPECT_EQ(text(Run), text(*Got)) << What << "/" << M.Name;
      }
      Observed += "    " + text(*Got) + "\n";
      if (Idx < std::size(IntOpEdgeRows)) {
        EXPECT_EQ(text(*Got), text(IntOpEdgeRows[Idx])) << What;
      }
      ++Idx;
    }
  }
  EXPECT_EQ(Idx, std::size(IntOpEdgeRows)) << "observed rows:\n" << Observed;
}

TEST(SuiteRunnerTest, ParallelAndSerialRunsAreIdentical) {
  // The suite runner's determinism contract: the same job list must
  // produce identical result slots at any thread count, including the
  // serial fallback, with failures staying in their own slots.
  std::vector<Inst> Good = allClassProgram();
  std::vector<Inst> Faulty = {makeMem(Opcode::Ldq, V0, 1, SP)};
  obj::Image GoodImg = makeRawImage(Good);
  obj::Image FaultImg = makeRawImage(Faulty);

  std::vector<sim::SuiteJob> Jobs;
  for (const SimMode &Mode : {AllModes[0], AllModes[1]}) {
    sim::SimConfig Cfg = coreConfig(1u << 20, Mode);
    Jobs.push_back({"good", &GoodImg, Cfg});
    Jobs.push_back({"fault", &FaultImg, Cfg});
    Jobs.push_back({"good2", &GoodImg, Cfg});
  }

  std::vector<sim::SuiteJobResult> Serial = sim::runSuite(Jobs, 1);
  std::vector<sim::SuiteJobResult> Parallel = sim::runSuite(Jobs, 4);
  ASSERT_EQ(Serial.size(), Jobs.size());
  ASSERT_EQ(Parallel.size(), Jobs.size());
  for (size_t I = 0; I < Jobs.size(); ++I) {
    EXPECT_EQ(Serial[I].Name, Jobs[I].Name);
    EXPECT_EQ(Parallel[I].Name, Jobs[I].Name);
    EXPECT_EQ(Serial[I].Ok, Parallel[I].Ok) << Jobs[I].Name;
    EXPECT_EQ(Serial[I].Error, Parallel[I].Error) << Jobs[I].Name;
    const sim::SimResult &A = Serial[I].Result;
    const sim::SimResult &B = Parallel[I].Result;
    EXPECT_EQ(A.ExitCode, B.ExitCode) << Jobs[I].Name;
    EXPECT_EQ(A.Output, B.Output) << Jobs[I].Name;
    EXPECT_EQ(A.Instructions, B.Instructions) << Jobs[I].Name;
    EXPECT_EQ(A.ClassCounts, B.ClassCounts) << Jobs[I].Name;
    EXPECT_EQ(A.Cycles, B.Cycles) << Jobs[I].Name;
    EXPECT_EQ(A.FinalData, B.FinalData) << Jobs[I].Name;
  }
  // The good jobs faulted nowhere and the faulty ones everywhere.
  EXPECT_TRUE(Serial[0].Ok);
  EXPECT_FALSE(Serial[1].Ok);
  EXPECT_NE(Serial[1].Error.find("load"), std::string::npos);
}

} // namespace
