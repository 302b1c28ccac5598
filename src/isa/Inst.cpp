//===- isa/Inst.cpp - AAX encode/decode/classify ---------------------------=//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//

#include "isa/Inst.h"

#include <cassert>

using namespace om64;
using namespace om64::isa;

//===----------------------------------------------------------------------===//
// Raw encoding tables.
//===----------------------------------------------------------------------===//

namespace {

/// Raw 6-bit primary opcodes.
enum RawOp : uint32_t {
  RawPal = 0x00,
  RawLda = 0x08,
  RawLdah = 0x09,
  RawIntArith = 0x10,
  RawIntLogic = 0x11,
  RawIntShift = 0x12,
  RawIntMul = 0x13,
  RawTransfer = 0x14,
  RawFpOp = 0x16,
  RawJump = 0x1A,
  RawLdt = 0x23,
  RawStt = 0x27,
  RawLdl = 0x28,
  RawLdq = 0x29,
  RawStl = 0x2C,
  RawStq = 0x2D,
  RawBr = 0x30,
  RawFbeq = 0x31,
  RawBsr = 0x34,
  RawFbne = 0x35,
  RawBeq = 0x39,
  RawBlt = 0x3A,
  RawBle = 0x3B,
  RawBne = 0x3D,
  RawBge = 0x3E,
  RawBgt = 0x3F,
};

struct OperateEncoding {
  uint32_t RawOpcode;
  uint32_t Func;
};

/// Returns the (primary, function) encoding for operate-format opcodes.
constexpr OperateEncoding operateEncoding(Opcode Op) {
  switch (Op) {
  case Opcode::Addq:   return {RawIntArith, 0x20};
  case Opcode::S4addq: return {RawIntArith, 0x22};
  case Opcode::Subq:   return {RawIntArith, 0x29};
  case Opcode::S8addq: return {RawIntArith, 0x32};
  case Opcode::Cmpult: return {RawIntArith, 0x1D};
  case Opcode::Cmpeq:  return {RawIntArith, 0x2D};
  case Opcode::Cmplt:  return {RawIntArith, 0x4D};
  case Opcode::Cmple:  return {RawIntArith, 0x6D};
  case Opcode::And:    return {RawIntLogic, 0x00};
  case Opcode::Bic:    return {RawIntLogic, 0x08};
  case Opcode::Bis:    return {RawIntLogic, 0x20};
  case Opcode::Ornot:  return {RawIntLogic, 0x28};
  case Opcode::Xor:    return {RawIntLogic, 0x40};
  case Opcode::Srl:    return {RawIntShift, 0x34};
  case Opcode::Sll:    return {RawIntShift, 0x39};
  case Opcode::Sra:    return {RawIntShift, 0x3C};
  case Opcode::Mulq:   return {RawIntMul, 0x20};
  case Opcode::Itoft:  return {RawTransfer, 0x24};
  case Opcode::Ftoit:  return {RawTransfer, 0x25};
  case Opcode::Addt:   return {RawFpOp, 0x20};
  case Opcode::Subt:   return {RawFpOp, 0x21};
  case Opcode::Mult:   return {RawFpOp, 0x22};
  case Opcode::Divt:   return {RawFpOp, 0x23};
  case Opcode::Cmpteq: return {RawFpOp, 0x25};
  case Opcode::Cmptlt: return {RawFpOp, 0x26};
  case Opcode::Cmptle: return {RawFpOp, 0x27};
  case Opcode::Cpys:   return {RawFpOp, 0x30};
  case Opcode::Cvtqt:  return {RawFpOp, 0x2C};
  case Opcode::Cvttq:  return {RawFpOp, 0x2F};
  default:
    assert(false && "not an operate-format opcode");
    return {0, 0};
  }
}

/// Every operate-format opcode.
constexpr Opcode OperateOps[] = {
    Opcode::Addq,   Opcode::S4addq, Opcode::Subq,   Opcode::S8addq,
    Opcode::Cmpult, Opcode::Cmpeq,  Opcode::Cmplt,  Opcode::Cmple,
    Opcode::And,    Opcode::Bic,    Opcode::Bis,    Opcode::Ornot,
    Opcode::Xor,    Opcode::Srl,    Opcode::Sll,    Opcode::Sra,
    Opcode::Mulq,   Opcode::Itoft,  Opcode::Ftoit,  Opcode::Addt,
    Opcode::Subt,   Opcode::Mult,   Opcode::Divt,   Opcode::Cmpteq,
    Opcode::Cmptlt, Opcode::Cmptle, Opcode::Cvtqt,  Opcode::Cvttq,
    Opcode::Cpys};

/// The operate primaries are RawIntArith..RawFpOp; OperateTable holds one
/// row of 128 function codes per primary in that span, built at compile
/// time from operateEncoding. NoOperate marks unassigned pairs.
constexpr uint32_t FirstOperateRaw = RawIntArith;
constexpr uint32_t NumOperateRows = RawFpOp - RawIntArith + 1;
constexpr uint8_t NoOperate = 0xFF;
static_assert(NumOpcodes < NoOperate, "opcode values must fit below 0xFF");

struct OperateTable {
  uint8_t Op[NumOperateRows][128];
};

constexpr OperateTable buildOperateTable() {
  OperateTable T{};
  for (auto &Row : T.Op)
    for (uint8_t &Cell : Row)
      Cell = NoOperate;
  for (Opcode Op : OperateOps) {
    OperateEncoding E = operateEncoding(Op);
    T.Op[E.RawOpcode - FirstOperateRaw][E.Func] = static_cast<uint8_t>(Op);
  }
  return T;
}
constexpr OperateTable Operates = buildOperateTable();

/// Maps a (primary, function) pair back to an operate opcode, or nullopt.
std::optional<Opcode> decodeOperate(uint32_t Raw, uint32_t Func) {
  if (Raw - FirstOperateRaw >= NumOperateRows || Func >= 128)
    return std::nullopt;
  uint8_t Op = Operates.Op[Raw - FirstOperateRaw][Func];
  if (Op == NoOperate)
    return std::nullopt;
  return static_cast<Opcode>(Op);
}

int32_t signExtend(uint32_t Value, unsigned Bits) {
  uint32_t Mask = 1u << (Bits - 1);
  uint32_t Field = Value & ((1u << Bits) - 1);
  return static_cast<int32_t>((Field ^ Mask) - Mask);
}

} // namespace

//===----------------------------------------------------------------------===//
// Classification.
//===----------------------------------------------------------------------===//

const char *om64::isa::instClassName(InstClass C) {
  switch (C) {
  case InstClass::Pal:         return "pal";
  case InstClass::LoadAddress: return "load-address";
  case InstClass::IntLoad:     return "int-load";
  case InstClass::IntStore:    return "int-store";
  case InstClass::FpLoad:      return "fp-load";
  case InstClass::FpStore:     return "fp-store";
  case InstClass::Jump:        return "jump";
  case InstClass::Branch:      return "branch";
  case InstClass::IntOp:       return "int-op";
  case InstClass::FpOp:        return "fp-op";
  case InstClass::Transfer:    return "transfer";
  }
  return "???";
}

const char *om64::isa::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::CallPal: return "call_pal";
  case Opcode::Lda:     return "lda";
  case Opcode::Ldah:    return "ldah";
  case Opcode::Ldl:     return "ldl";
  case Opcode::Ldq:     return "ldq";
  case Opcode::Stl:     return "stl";
  case Opcode::Stq:     return "stq";
  case Opcode::Ldt:     return "ldt";
  case Opcode::Stt:     return "stt";
  case Opcode::Jmp:     return "jmp";
  case Opcode::Jsr:     return "jsr";
  case Opcode::Ret:     return "ret";
  case Opcode::Br:      return "br";
  case Opcode::Bsr:     return "bsr";
  case Opcode::Beq:     return "beq";
  case Opcode::Bne:     return "bne";
  case Opcode::Blt:     return "blt";
  case Opcode::Ble:     return "ble";
  case Opcode::Bgt:     return "bgt";
  case Opcode::Bge:     return "bge";
  case Opcode::Fbeq:    return "fbeq";
  case Opcode::Fbne:    return "fbne";
  case Opcode::Addq:    return "addq";
  case Opcode::Subq:    return "subq";
  case Opcode::Mulq:    return "mulq";
  case Opcode::S4addq:  return "s4addq";
  case Opcode::S8addq:  return "s8addq";
  case Opcode::Cmpeq:   return "cmpeq";
  case Opcode::Cmplt:   return "cmplt";
  case Opcode::Cmple:   return "cmple";
  case Opcode::Cmpult:  return "cmpult";
  case Opcode::And:     return "and";
  case Opcode::Bic:     return "bic";
  case Opcode::Bis:     return "bis";
  case Opcode::Ornot:   return "ornot";
  case Opcode::Xor:     return "xor";
  case Opcode::Sll:     return "sll";
  case Opcode::Srl:     return "srl";
  case Opcode::Sra:     return "sra";
  case Opcode::Addt:    return "addt";
  case Opcode::Subt:    return "subt";
  case Opcode::Mult:    return "mult";
  case Opcode::Divt:    return "divt";
  case Opcode::Cmpteq:  return "cmpteq";
  case Opcode::Cmptlt:  return "cmptlt";
  case Opcode::Cmptle:  return "cmptle";
  case Opcode::Cvtqt:   return "cvtqt";
  case Opcode::Cvttq:   return "cvttq";
  case Opcode::Cpys:    return "cpys";
  case Opcode::Itoft:   return "itoft";
  case Opcode::Ftoit:   return "ftoit";
  }
  return "???";
}

//===----------------------------------------------------------------------===//
// Register units.
//===----------------------------------------------------------------------===//

static unsigned pushUnit(unsigned Units[3], unsigned Count, unsigned Unit) {
  if (isZeroUnit(Unit))
    return Count;
  Units[Count] = Unit;
  return Count + 1;
}

unsigned om64::isa::regUnitsRead(const Inst &I, unsigned Units[3]) {
  unsigned N = 0;
  switch (classOf(I.Op)) {
  case InstClass::Pal:
    // PAL calls may consume a0 and f16 (PutChar/PutInt/PutReal arguments).
    N = pushUnit(Units, N, intUnit(A0));
    N = pushUnit(Units, N, fpUnit(FA0));
    break;
  case InstClass::LoadAddress:
  case InstClass::IntLoad:
  case InstClass::FpLoad:
    N = pushUnit(Units, N, intUnit(I.Rb));
    break;
  case InstClass::IntStore:
    N = pushUnit(Units, N, intUnit(I.Ra));
    N = pushUnit(Units, N, intUnit(I.Rb));
    break;
  case InstClass::FpStore:
    N = pushUnit(Units, N, fpUnit(I.Ra));
    N = pushUnit(Units, N, intUnit(I.Rb));
    break;
  case InstClass::Jump:
    N = pushUnit(Units, N, intUnit(I.Rb));
    break;
  case InstClass::Branch:
    if (I.Op == Opcode::Fbeq || I.Op == Opcode::Fbne)
      N = pushUnit(Units, N, fpUnit(I.Ra));
    else if (isCondBranch(I.Op))
      N = pushUnit(Units, N, intUnit(I.Ra));
    break;
  case InstClass::IntOp:
    N = pushUnit(Units, N, intUnit(I.Ra));
    if (!I.IsLit)
      N = pushUnit(Units, N, intUnit(I.Rb));
    break;
  case InstClass::FpOp:
    if (I.Op != Opcode::Cvtqt && I.Op != Opcode::Cvttq)
      N = pushUnit(Units, N, fpUnit(I.Ra));
    N = pushUnit(Units, N, fpUnit(I.Rb));
    break;
  case InstClass::Transfer:
    if (I.Op == Opcode::Itoft)
      N = pushUnit(Units, N, intUnit(I.Ra));
    else
      N = pushUnit(Units, N, fpUnit(I.Ra));
    break;
  }
  return N;
}

unsigned om64::isa::regUnitWritten(const Inst &I) {
  unsigned Unit;
  switch (classOf(I.Op)) {
  case InstClass::Pal:
    // CycleCount writes v0; model all PAL calls as writing v0.
    Unit = intUnit(V0);
    break;
  case InstClass::LoadAddress:
  case InstClass::IntLoad:
    Unit = intUnit(I.Ra);
    break;
  case InstClass::FpLoad:
    Unit = fpUnit(I.Ra);
    break;
  case InstClass::IntStore:
  case InstClass::FpStore:
    return ~0u;
  case InstClass::Jump:
    Unit = intUnit(I.Ra);
    break;
  case InstClass::Branch:
    if (!writesReturnAddress(I.Op))
      return ~0u;
    Unit = intUnit(I.Ra);
    break;
  case InstClass::IntOp:
    Unit = intUnit(I.Rc);
    break;
  case InstClass::FpOp:
    Unit = fpUnit(I.Rc);
    break;
  case InstClass::Transfer:
    Unit = I.Op == Opcode::Itoft ? fpUnit(I.Rc) : intUnit(I.Rc);
    break;
  default:
    return ~0u;
  }
  return isZeroUnit(Unit) ? ~0u : Unit;
}

//===----------------------------------------------------------------------===//
// Inst basics.
//===----------------------------------------------------------------------===//

Inst Inst::nop() { return makeOp(Opcode::Bis, Zero, Zero, Zero); }

bool Inst::isNop() const {
  // Any side-effect-free instruction whose destination is the hardwired
  // zero register behaves as a no-op; OM emits the canonical BIS form but
  // accepts LDA-to-zero as well (the traditional UNOP spelling).
  switch (classOf(Op)) {
  case InstClass::IntOp:
    return Rc == Zero;
  case InstClass::FpOp:
    return Rc == FZero;
  case InstClass::LoadAddress:
    return Ra == Zero;
  default:
    return false;
  }
}

//===----------------------------------------------------------------------===//
// Builders.
//===----------------------------------------------------------------------===//

Inst om64::isa::makeMem(Opcode Op, uint8_t Ra, int32_t Disp, uint8_t Rb) {
  assert(fitsDisp16(Disp) && "memory displacement out of range");
  Inst I;
  I.Op = Op;
  I.Ra = Ra;
  I.Rb = Rb;
  I.Disp = Disp;
  return I;
}

Inst om64::isa::makeBranch(Opcode Op, uint8_t Ra, int32_t WordDisp) {
  assert(fitsBranchDisp(WordDisp) && "branch displacement out of range");
  Inst I;
  I.Op = Op;
  I.Ra = Ra;
  I.Disp = WordDisp;
  return I;
}

Inst om64::isa::makeJump(Opcode Op, uint8_t LinkRa, uint8_t TargetRb) {
  Inst I;
  I.Op = Op;
  I.Ra = LinkRa;
  I.Rb = TargetRb;
  return I;
}

Inst om64::isa::makeOp(Opcode Op, uint8_t Ra, uint8_t Rb, uint8_t Rc) {
  Inst I;
  I.Op = Op;
  I.Ra = Ra;
  I.Rb = Rb;
  I.Rc = Rc;
  return I;
}

Inst om64::isa::makeOpLit(Opcode Op, uint8_t Ra, uint8_t Lit, uint8_t Rc) {
  Inst I;
  I.Op = Op;
  I.Ra = Ra;
  I.IsLit = true;
  I.Lit = Lit;
  I.Rc = Rc;
  return I;
}

Inst om64::isa::makePal(PalFunc Func) {
  Inst I;
  I.Op = Opcode::CallPal;
  I.Disp = static_cast<int32_t>(Func);
  return I;
}

Inst om64::isa::makePalCount(uint32_t Index) {
  assert(Index < (1u << 18) && "profile counter index out of range");
  Inst I;
  I.Op = Opcode::CallPal;
  I.Disp = static_cast<int32_t>((Index << 8) |
                                static_cast<uint32_t>(PalFunc::Count));
  return I;
}

//===----------------------------------------------------------------------===//
// Displacement helpers.
//===----------------------------------------------------------------------===//

void om64::isa::splitDisp32(int64_t Value, int32_t &High, int32_t &Low) {
  Low = static_cast<int16_t>(static_cast<uint64_t>(Value) & 0xFFFF);
  // Wrapping-safe: Value - Low can overflow int64 near the extremes; the
  // result is only meaningful when fitsDisp32(Value) holds, which callers
  // must check (it verifies exact reconstruction).
  uint64_t Diff = static_cast<uint64_t>(Value) -
                  static_cast<uint64_t>(static_cast<int64_t>(Low));
  High = static_cast<int32_t>(static_cast<int64_t>(Diff) >> 16);
}

bool om64::isa::fitsDisp16(int64_t Value) {
  return Value >= -32768 && Value <= 32767;
}

bool om64::isa::fitsDisp32(int64_t Value) {
  int32_t High, Low;
  splitDisp32(Value, High, Low);
  return fitsDisp16(High) &&
         (static_cast<int64_t>(High) << 16) + Low == Value;
}

bool om64::isa::fitsBranchDisp(int64_t WordDisp) {
  return WordDisp >= -(1 << 20) && WordDisp < (1 << 20);
}

//===----------------------------------------------------------------------===//
// Encode.
//===----------------------------------------------------------------------===//

uint32_t om64::isa::encode(const Inst &I) {
  auto memWord = [&](uint32_t Raw) {
    assert(fitsDisp16(I.Disp) && "memory displacement out of range");
    return (Raw << 26) | (uint32_t(I.Ra & 31) << 21) |
           (uint32_t(I.Rb & 31) << 16) | (uint32_t(I.Disp) & 0xFFFF);
  };
  auto branchWord = [&](uint32_t Raw) {
    assert(fitsBranchDisp(I.Disp) && "branch displacement out of range");
    return (Raw << 26) | (uint32_t(I.Ra & 31) << 21) |
           (uint32_t(I.Disp) & 0x1FFFFF);
  };
  auto operateWord = [&]() {
    OperateEncoding E = operateEncoding(I.Op);
    uint32_t Word = (E.RawOpcode << 26) | (uint32_t(I.Ra & 31) << 21) |
                    (E.Func << 5) | uint32_t(I.Rc & 31);
    if (I.IsLit)
      Word |= (uint32_t(I.Lit) << 13) | (1u << 12);
    else
      Word |= uint32_t(I.Rb & 31) << 16;
    return Word;
  };

  switch (I.Op) {
  case Opcode::CallPal:
    return (uint32_t(RawPal) << 26) | (uint32_t(I.Disp) & 0x3FFFFFF);
  case Opcode::Lda:  return memWord(RawLda);
  case Opcode::Ldah: return memWord(RawLdah);
  case Opcode::Ldl:  return memWord(RawLdl);
  case Opcode::Ldq:  return memWord(RawLdq);
  case Opcode::Stl:  return memWord(RawStl);
  case Opcode::Stq:  return memWord(RawStq);
  case Opcode::Ldt:  return memWord(RawLdt);
  case Opcode::Stt:  return memWord(RawStt);
  case Opcode::Jmp:
  case Opcode::Jsr:
  case Opcode::Ret: {
    uint32_t Kind = I.Op == Opcode::Jmp ? 0u : I.Op == Opcode::Jsr ? 1u : 2u;
    return (uint32_t(RawJump) << 26) | (uint32_t(I.Ra & 31) << 21) |
           (uint32_t(I.Rb & 31) << 16) | (Kind << 14);
  }
  case Opcode::Br:   return branchWord(RawBr);
  case Opcode::Bsr:  return branchWord(RawBsr);
  case Opcode::Beq:  return branchWord(RawBeq);
  case Opcode::Bne:  return branchWord(RawBne);
  case Opcode::Blt:  return branchWord(RawBlt);
  case Opcode::Ble:  return branchWord(RawBle);
  case Opcode::Bgt:  return branchWord(RawBgt);
  case Opcode::Bge:  return branchWord(RawBge);
  case Opcode::Fbeq: return branchWord(RawFbeq);
  case Opcode::Fbne: return branchWord(RawFbne);
  default:
    return operateWord();
  }
}

//===----------------------------------------------------------------------===//
// Decode.
//===----------------------------------------------------------------------===//

std::optional<Inst> om64::isa::decode(uint32_t Word) {
  uint32_t Raw = Word >> 26;
  uint32_t RaField = (Word >> 21) & 31;
  uint32_t RbField = (Word >> 16) & 31;

  Inst I;
  I.Ra = static_cast<uint8_t>(RaField);
  I.Rb = static_cast<uint8_t>(RbField);

  auto memInst = [&](Opcode Op) {
    I.Op = Op;
    I.Disp = signExtend(Word, 16);
    return I;
  };
  auto branchInst = [&](Opcode Op) {
    I.Op = Op;
    I.Disp = signExtend(Word, 21);
    return I;
  };

  switch (Raw) {
  case RawPal:
    I.Op = Opcode::CallPal;
    I.Ra = Zero;
    I.Rb = Zero;
    I.Disp = static_cast<int32_t>(Word & 0x3FFFFFF);
    return I;
  case RawLda:  return memInst(Opcode::Lda);
  case RawLdah: return memInst(Opcode::Ldah);
  case RawLdl:  return memInst(Opcode::Ldl);
  case RawLdq:  return memInst(Opcode::Ldq);
  case RawStl:  return memInst(Opcode::Stl);
  case RawStq:  return memInst(Opcode::Stq);
  case RawLdt:  return memInst(Opcode::Ldt);
  case RawStt:  return memInst(Opcode::Stt);
  case RawJump: {
    uint32_t Kind = (Word >> 14) & 3;
    if (Kind > 2)
      return std::nullopt;
    I.Op = Kind == 0 ? Opcode::Jmp : Kind == 1 ? Opcode::Jsr : Opcode::Ret;
    return I;
  }
  case RawBr:   return branchInst(Opcode::Br);
  case RawBsr:  return branchInst(Opcode::Bsr);
  case RawBeq:  return branchInst(Opcode::Beq);
  case RawBne:  return branchInst(Opcode::Bne);
  case RawBlt:  return branchInst(Opcode::Blt);
  case RawBle:  return branchInst(Opcode::Ble);
  case RawBgt:  return branchInst(Opcode::Bgt);
  case RawBge:  return branchInst(Opcode::Bge);
  case RawFbeq: return branchInst(Opcode::Fbeq);
  case RawFbne: return branchInst(Opcode::Fbne);
  case RawIntArith:
  case RawIntLogic:
  case RawIntShift:
  case RawIntMul:
  case RawTransfer:
  case RawFpOp: {
    uint32_t Func = (Word >> 5) & 0x7F;
    std::optional<Opcode> Op = decodeOperate(Raw, Func);
    if (!Op)
      return std::nullopt;
    I.Op = *Op;
    I.Rc = static_cast<uint8_t>(Word & 31);
    if (Word & (1u << 12)) {
      I.IsLit = true;
      I.Lit = static_cast<uint8_t>((Word >> 13) & 0xFF);
      I.Rb = Zero;
    }
    return I;
  }
  default:
    return std::nullopt;
  }
}
