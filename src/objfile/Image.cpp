//===- objfile/Image.cpp ---------------------------------------------------=//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//

#include "objfile/Image.h"

#include "isa/Inst.h"
#include "objfile/ObjectFile.h"
#include "support/ByteStream.h"
#include "support/Format.h"

#include <cassert>

using namespace om64;
using namespace om64::obj;

Error obj::growDataExtent(uint64_t &Extent, uint64_t Size,
                          const std::string &What) {
  const uint64_t Room =
      Extent > Layout::MaxDataBytes ? 0 : Layout::MaxDataBytes - Extent;
  if (Size > Room || ((Size + 7) & ~7ull) > Room) // Size + 7 cannot wrap
    return Error::failure(formatString(
        "%s: data and bss exceed the %llu-byte data segment limit",
        What.c_str(), static_cast<unsigned long long>(Layout::MaxDataBytes)));
  Extent += (Size + 7) & ~7ull;
  return Error::success();
}

Result<ModuleDataLayout>
obj::layoutModuleData(const std::vector<ObjectFile> &Objs, uint64_t Start) {
  ModuleDataLayout L;
  uint64_t Cur = Start;
  L.DataOffset.reserve(Objs.size());
  for (const ObjectFile &O : Objs) {
    L.DataOffset.push_back(Cur);
    if (Error E = growDataExtent(Cur, O.Data.size(), O.ModuleName))
      return E;
  }
  L.DataEnd = Cur;
  L.BssOffset.reserve(Objs.size());
  for (const ObjectFile &O : Objs) {
    L.BssOffset.push_back(Cur - L.DataEnd);
    if (Error E = growDataExtent(Cur, O.BssSize, O.ModuleName))
      return E;
  }
  L.End = Cur;
  return L;
}

static constexpr uint32_t ImageMagic = 0x45584141; // "AAXE"
static constexpr uint32_t ImageVersion = 1;

uint32_t Image::fetch(uint64_t Addr) const {
  assert(Addr >= TextBase && Addr + 4 <= TextBase + Text.size() &&
         "instruction fetch outside text");
  size_t Off = static_cast<size_t>(Addr - TextBase);
  return static_cast<uint32_t>(Text[Off]) |
         (static_cast<uint32_t>(Text[Off + 1]) << 8) |
         (static_cast<uint32_t>(Text[Off + 2]) << 16) |
         (static_cast<uint32_t>(Text[Off + 3]) << 24);
}

std::vector<uint32_t> Image::textWords() const {
  std::vector<uint32_t> Words;
  Words.reserve(Text.size() / 4);
  for (size_t Off = 0; Off + 4 <= Text.size(); Off += 4)
    Words.push_back(fetch(TextBase + Off));
  return Words;
}

std::string Image::symbolAt(uint64_t Addr) const {
  for (const ImageSymbol &S : Symbols)
    if (S.Addr == Addr)
      return S.Name;
  return std::string();
}

Error Image::verify() const {
  if (Text.size() % 4 != 0)
    return Error::failure("image text size is not a multiple of 4");
  if (Entry < TextBase || Entry >= TextBase + Text.size() || Entry % 4)
    return Error::failure("entry point outside text or misaligned");

  uint64_t TextEnd = TextBase + Text.size();
  for (size_t Off = 0; Off + 4 <= Text.size(); Off += 4) {
    uint64_t Pc = TextBase + Off;
    std::optional<isa::Inst> I = isa::decode(fetch(Pc));
    if (!I)
      return Error::failure(formatString("undecodable instruction at %s",
                                         formatHex64(Pc).c_str()));
    if (isa::classOf(I->Op) == isa::InstClass::Branch) {
      uint64_t Target = Pc + 4 + static_cast<int64_t>(I->Disp) * 4;
      if (Target < TextBase || Target >= TextEnd)
        return Error::failure(
            formatString("branch at %s targets %s outside text",
                         formatHex64(Pc).c_str(),
                         formatHex64(Target).c_str()));
    }
  }

  uint64_t DataEnd = DataBase + dataSegmentSize();
  for (const ImageProc &P : Procs) {
    if (P.Entry < TextBase || P.Entry + P.Size > TextEnd || P.Entry % 4)
      return Error::failure("procedure " + P.Name + " outside text");
    // GP sits 32 KiB past its GAT base; for small programs that is past
    // the end of the data segment (the window is symmetric around GP, so
    // the value itself need not be mapped).
    if (P.GpValue != 0 &&
        (P.GpValue < DataBase || P.GpValue > DataEnd + 65536))
      return Error::failure("procedure " + P.Name +
                            " has an implausible GP value");
  }

  if (GatBase < DataBase || GatBase + GatSize > DataEnd)
    return Error::failure("GAT region outside the data segment");
  for (uint64_t Off = 0; Off + 8 <= GatSize; Off += 8) {
    uint64_t SlotOff = GatBase - DataBase + Off;
    uint64_t Value = 0;
    for (unsigned Byte = 0; Byte < 8; ++Byte)
      Value |= static_cast<uint64_t>(Data[SlotOff + Byte]) << (8 * Byte);
    bool InText = Value >= TextBase && Value < TextEnd;
    bool InData = Value >= DataBase && Value < DataEnd;
    if (!InText && !InData)
      return Error::failure(
          formatString("GAT slot %llu holds %s, outside text and data",
                       static_cast<unsigned long long>(Off / 8),
                       formatHex64(Value).c_str()));
  }
  return Error::success();
}

std::vector<uint8_t> Image::serialize() const {
  ByteWriter W;
  W.writeU32(ImageMagic);
  W.writeU32(ImageVersion);
  W.writeU64(TextBase);
  W.writeU64(DataBase);
  W.writeBlob(Text);
  W.writeBlob(Data);
  W.writeU64(BssSize);
  W.writeU64(Entry);
  W.writeU64(InitialGp);
  W.writeU64(GatBase);
  W.writeU64(GatSize);
  W.writeU32(static_cast<uint32_t>(Symbols.size()));
  for (const ImageSymbol &S : Symbols) {
    W.writeString(S.Name);
    W.writeU64(S.Addr);
    W.writeU64(S.Size);
    W.writeU8(S.IsProcedure);
  }
  W.writeU32(static_cast<uint32_t>(Procs.size()));
  for (const ImageProc &P : Procs) {
    W.writeString(P.Name);
    W.writeU64(P.Entry);
    W.writeU64(P.Size);
    W.writeU64(P.GpValue);
    W.writeU32(P.GpGroup);
  }
  return W.take();
}

Result<Image> Image::deserialize(const std::vector<uint8_t> &Bytes) {
  ByteReader R(Bytes);
  if (R.readU32() != ImageMagic)
    return Result<Image>::failure("bad image magic");
  if (R.readU32() != ImageVersion)
    return Result<Image>::failure("unsupported image version");
  Image Img;
  Img.TextBase = R.readU64();
  Img.DataBase = R.readU64();
  Img.Text = R.readBlob();
  Img.Data = R.readBlob();
  Img.BssSize = R.readU64();
  Img.Entry = R.readU64();
  Img.InitialGp = R.readU64();
  Img.GatBase = R.readU64();
  Img.GatSize = R.readU64();
  uint32_t NumSyms = R.readU32();
  for (uint32_t Idx = 0; Idx < NumSyms && !R.hadError(); ++Idx) {
    ImageSymbol S;
    S.Name = R.readString();
    S.Addr = R.readU64();
    S.Size = R.readU64();
    S.IsProcedure = R.readU8();
    Img.Symbols.push_back(std::move(S));
  }
  uint32_t NumProcs = R.readU32();
  for (uint32_t Idx = 0; Idx < NumProcs && !R.hadError(); ++Idx) {
    ImageProc P;
    P.Name = R.readString();
    P.Entry = R.readU64();
    P.Size = R.readU64();
    P.GpValue = R.readU64();
    P.GpGroup = R.readU32();
    Img.Procs.push_back(std::move(P));
  }
  if (R.hadError())
    return Result<Image>::failure("truncated image");
  return Img;
}
