//===- objfile/ObjectFile.cpp ----------------------------------------------=//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//

#include "objfile/ObjectFile.h"

#include "support/ByteStream.h"
#include "support/Format.h"

#include <algorithm>

using namespace om64;
using namespace om64::obj;

static constexpr uint32_t ObjectMagic = 0x4F584141; // "AAXO"
static constexpr uint32_t ObjectVersion = 1;

const char *om64::obj::sectionName(SectionKind K) {
  switch (K) {
  case SectionKind::Text: return ".text";
  case SectionKind::Lita: return ".lita";
  case SectionKind::Data: return ".data";
  case SectionKind::Bss:  return ".bss";
  }
  return "?";
}

const char *om64::obj::relocKindName(RelocKind K) {
  switch (K) {
  case RelocKind::Literal:    return "LITERAL";
  case RelocKind::LituseBase: return "LITUSE_BASE";
  case RelocKind::LituseJsr:  return "LITUSE_JSR";
  case RelocKind::LituseAddr: return "LITUSE_ADDR";
  case RelocKind::LituseDeref:return "LITUSE_DEREF";
  case RelocKind::GpDisp:     return "GPDISP";
  case RelocKind::RefQuad:    return "REFQUAD";
  }
  return "?";
}

uint32_t ObjectFile::findSymbol(const std::string &Name) const {
  for (uint32_t Idx = 0; Idx < Symbols.size(); ++Idx)
    if (Symbols[Idx].Name == Name)
      return Idx;
  return ~0u;
}

std::vector<uint8_t> ObjectFile::serialize() const {
  ByteWriter W;
  W.writeU32(ObjectMagic);
  W.writeU32(ObjectVersion);
  W.writeString(ModuleName);
  W.writeBlob(Text);
  W.writeBlob(Data);
  W.writeU64(BssSize);

  W.writeU32(static_cast<uint32_t>(Gat.size()));
  for (const GatEntry &E : Gat) {
    W.writeU32(E.SymbolIndex);
    W.writeI64(E.Addend);
  }

  W.writeU32(static_cast<uint32_t>(Symbols.size()));
  for (const Symbol &S : Symbols) {
    W.writeString(S.Name);
    W.writeU8(static_cast<uint8_t>(S.Section));
    W.writeU64(S.Offset);
    W.writeU64(S.Size);
    W.writeU8(S.IsProcedure);
    W.writeU8(S.IsExported);
    W.writeU8(S.IsDefined);
  }

  W.writeU32(static_cast<uint32_t>(Relocs.size()));
  for (const Reloc &R : Relocs) {
    W.writeU8(static_cast<uint8_t>(R.Kind));
    W.writeU8(static_cast<uint8_t>(R.Section));
    W.writeU64(R.Offset);
    W.writeU32(R.GatIndex);
    W.writeU32(R.LiteralId);
    W.writeU32(R.SymbolIndex);
    W.writeI64(R.Addend);
    W.writeU64(R.AnchorOffset);
    W.writeU64(R.PairOffset);
    W.writeU8(R.GpKind);
  }

  W.writeU32(static_cast<uint32_t>(Procs.size()));
  for (const ProcDesc &P : Procs) {
    W.writeU32(P.SymbolIndex);
    W.writeU64(P.TextOffset);
    W.writeU64(P.TextSize);
    W.writeU8(P.UsesGp);
  }
  return W.take();
}

/// Decodes an enum byte whose values run from 0 to \p Last; false for any
/// other byte, which no writer produces.
template <typename E> static bool decodeEnum(uint8_t Raw, E Last, E &Out) {
  if (Raw > static_cast<uint8_t>(Last))
    return false;
  Out = static_cast<E>(Raw);
  return true;
}

Result<ObjectFile> ObjectFile::deserialize(const std::vector<uint8_t> &Bytes) {
  ByteReader R(Bytes);
  if (R.readU32() != ObjectMagic)
    return Result<ObjectFile>::failure("bad object magic");
  if (R.readU32() != ObjectVersion)
    return Result<ObjectFile>::failure("unsupported object version");

  ObjectFile O;
  O.ModuleName = R.readString();
  O.Text = R.readBlob();
  O.Data = R.readBlob();
  O.BssSize = R.readU64();

  uint32_t NumGat = R.readU32();
  for (uint32_t Idx = 0; Idx < NumGat && !R.hadError(); ++Idx) {
    GatEntry E;
    E.SymbolIndex = R.readU32();
    E.Addend = R.readI64();
    O.Gat.push_back(E);
  }

  uint32_t NumSyms = R.readU32();
  for (uint32_t Idx = 0; Idx < NumSyms && !R.hadError(); ++Idx) {
    Symbol S;
    S.Name = R.readString();
    uint8_t Section = R.readU8();
    if (!decodeEnum(Section, SectionKind::Bss, S.Section))
      return Result<ObjectFile>::failure(formatString(
          "%s: symbol %u has unknown section kind %u", O.ModuleName.c_str(),
          Idx, Section));
    S.Offset = R.readU64();
    S.Size = R.readU64();
    S.IsProcedure = R.readU8();
    S.IsExported = R.readU8();
    S.IsDefined = R.readU8();
    O.Symbols.push_back(std::move(S));
  }

  uint32_t NumRelocs = R.readU32();
  for (uint32_t Idx = 0; Idx < NumRelocs && !R.hadError(); ++Idx) {
    Reloc Rel;
    uint8_t Kind = R.readU8();
    if (!decodeEnum(Kind, RelocKind::RefQuad, Rel.Kind))
      return Result<ObjectFile>::failure(
          formatString("%s: relocation %u has unknown kind %u",
                       O.ModuleName.c_str(), Idx, Kind));
    uint8_t Section = R.readU8();
    if (!decodeEnum(Section, SectionKind::Bss, Rel.Section))
      return Result<ObjectFile>::failure(formatString(
          "%s: relocation %u has unknown section kind %u",
          O.ModuleName.c_str(), Idx, Section));
    Rel.Offset = R.readU64();
    Rel.GatIndex = R.readU32();
    Rel.LiteralId = R.readU32();
    Rel.SymbolIndex = R.readU32();
    Rel.Addend = R.readI64();
    Rel.AnchorOffset = R.readU64();
    Rel.PairOffset = R.readU64();
    Rel.GpKind = R.readU8();
    GpDispKind GpKind = GpDispKind::Prologue;
    if (!decodeEnum(Rel.GpKind, GpDispKind::PostCall, GpKind))
      return Result<ObjectFile>::failure(formatString(
          "%s: relocation %u has unknown GP-disp kind %u",
          O.ModuleName.c_str(), Idx, Rel.GpKind));
    O.Relocs.push_back(Rel);
  }

  uint32_t NumProcs = R.readU32();
  for (uint32_t Idx = 0; Idx < NumProcs && !R.hadError(); ++Idx) {
    ProcDesc P;
    P.SymbolIndex = R.readU32();
    P.TextOffset = R.readU64();
    P.TextSize = R.readU64();
    P.UsesGp = R.readU8();
    O.Procs.push_back(P);
  }

  if (R.hadError())
    return Result<ObjectFile>::failure("truncated object file");
  if (Error E = O.verify())
    return Result<ObjectFile>::failure(E.message());
  return O;
}

Error ObjectFile::verify() const {
  if (Text.size() % 4 != 0)
    return Error::failure(ModuleName + ": .text size not a multiple of 4");

  for (const GatEntry &E : Gat)
    if (E.SymbolIndex >= Symbols.size())
      return Error::failure(ModuleName + ": GAT entry references symbol " +
                            formatString("%u", E.SymbolIndex) +
                            " out of range");

  for (const Reloc &R : Relocs) {
    if (R.Kind == RelocKind::RefQuad) {
      // The linker patches 8 bytes at Offset; compared without forming
      // Offset + 8, which can wrap.
      if (R.Section != SectionKind::Data || Data.size() < 8 ||
          R.Offset > Data.size() - 8)
        return Error::failure(formatString(
            "%s: reloc REFQUAD at offset %llu is not 8 bytes inside .data",
            ModuleName.c_str(), static_cast<unsigned long long>(R.Offset)));
      if (R.SymbolIndex >= Symbols.size())
        return Error::failure(ModuleName + ": refquad symbol out of range");
      continue;
    }
    uint64_t SectionSize = R.Section == SectionKind::Text ? Text.size()
                           : R.Section == SectionKind::Data ? Data.size()
                                                            : 0;
    if (R.Offset >= SectionSize)
      return Error::failure(
          formatString("%s: reloc %s at offset %llu is outside %s",
                       ModuleName.c_str(), relocKindName(R.Kind),
                       static_cast<unsigned long long>(R.Offset),
                       sectionName(R.Section)));
    // The lift and the linker index instructions by these (a GPDISP's two).
    uint64_t Pair = R.Kind == RelocKind::GpDisp ? R.PairOffset : 0;
    if (R.Section != SectionKind::Text || R.Offset % 4 != 0 ||
        Pair >= Text.size() - R.Offset || Pair % 4 != 0)
      return Error::failure(formatString(
          "%s: reloc %s at offset %llu is not a 4-aligned .text instruction",
          ModuleName.c_str(), relocKindName(R.Kind),
          static_cast<unsigned long long>(R.Offset)));
    if (R.Kind == RelocKind::Literal && R.GatIndex >= Gat.size())
      return Error::failure(ModuleName + ": literal reloc GAT index " +
                            formatString("%u", R.GatIndex) +
                            " out of range");
  }

  std::vector<bool> HasDesc(Symbols.size(), false);
  std::vector<uint32_t> ProcAt(Text.size() / 4, ~0u); // ~0u: no procedure
  for (const ProcDesc &P : Procs) {
    if (P.SymbolIndex >= Symbols.size())
      return Error::failure(ModuleName + ": proc desc symbol out of range");
    HasDesc[P.SymbolIndex] = true;
    // Compared without forming TextOffset + TextSize, which can wrap.
    if (P.TextOffset > Text.size() || P.TextSize > Text.size() - P.TextOffset)
      return Error::failure(ModuleName + ": proc " +
                            Symbols[P.SymbolIndex].Name +
                            " extends past .text");
    if (P.TextOffset % 4 != 0 || P.TextSize % 4 != 0)
      return Error::failure(ModuleName + ": proc " +
                            Symbols[P.SymbolIndex].Name + " misaligned");
    for (uint64_t I = P.TextOffset / 4; I < (P.TextOffset + P.TextSize) / 4;
         ++I) {
      if (ProcAt[I] != ~0u)
        return Error::failure(ModuleName + ": procs overlap at +" +
                              std::to_string(I * 4));
      ProcAt[I] = static_cast<uint32_t>(&P - Procs.data());
    }
  }

  for (uint32_t Idx = 0; Idx < Symbols.size(); ++Idx) {
    const Symbol &S = Symbols[Idx];
    if (!S.IsDefined)
      continue;
    if (S.IsProcedure && !HasDesc[Idx])
      return Error::failure(ModuleName + ": procedure " + S.Name +
                            " has no procedure descriptor");
    // Compared without forming Offset + Size, which can wrap.
    if (!S.IsProcedure && S.Section == SectionKind::Data &&
        (S.Offset > Data.size() || S.Size > Data.size() - S.Offset))
      return Error::failure(ModuleName + ": data symbol " + S.Name +
                            " extends past .data");
    if (!S.IsProcedure && S.Section == SectionKind::Bss &&
        (S.Offset > BssSize || S.Size > BssSize - S.Offset))
      return Error::failure(ModuleName + ": bss symbol " + S.Name +
                            " extends past .bss");
  }

  // The lift maps literal ids per procedure: a lituse's literal is there.
  // The lift also gives each literal the load its one LITERAL names.
  // Each LITERAL is ((procedure, literal id), relocation index) in one
  // sorted array, so the copies of a key sit together in relocation order.
  auto keyOf = [&](const Reloc &R) {
    return static_cast<uint64_t>(ProcAt[R.Offset / 4]) << 32 | R.LiteralId;
  };
  std::vector<std::pair<uint64_t, size_t>> Literals;
  for (size_t I = 0; I < Relocs.size(); ++I)
    if (Relocs[I].Kind == RelocKind::Literal)
      Literals.emplace_back(keyOf(Relocs[I]), I);
  std::sort(Literals.begin(), Literals.end());
  size_t SecondLoad = Relocs.size(); // the first repeat, in relocation order
  for (size_t I = 1; I < Literals.size(); ++I)
    if (Literals[I].first == Literals[I - 1].first)
      SecondLoad = std::min(SecondLoad, Literals[I].second);
  for (const Reloc &R : Relocs)
    if ((R.Kind == RelocKind::LituseBase ||
         R.Kind == RelocKind::LituseJsr ||
         R.Kind == RelocKind::LituseAddr ||
         R.Kind == RelocKind::LituseDeref) &&
        !std::ranges::binary_search(Literals, keyOf(R), {},
                                    &std::pair<uint64_t, size_t>::first))
      return Error::failure(formatString(
          "%s: %s at offset %llu has no literal id %u in its procedure",
          ModuleName.c_str(), relocKindName(R.Kind),
          static_cast<unsigned long long>(R.Offset), R.LiteralId));

  // The lift gives each instruction one symbolic role, from the one
  // relocation on its word (a GPDISP's two words included). A second
  // relocation on a word overwrites the first's role; a second LITERAL
  // overwrites its literal's load. Either leaves a literal with uses but
  // no load.
  std::vector<uint8_t> Relocated(Text.size() / 4, 0);
  auto claim = [&](const Reloc &R, uint64_t Offset) -> Error {
    if (Relocated[Offset / 4]++)
      return Error::failure(formatString(
          "%s: reloc %s at offset %llu shares its instruction with another "
          "relocation",
          ModuleName.c_str(), relocKindName(R.Kind),
          static_cast<unsigned long long>(Offset)));
    return Error::success();
  };
  for (const Reloc &R : Relocs) {
    if (R.Kind == RelocKind::RefQuad)
      continue;
    if (Error E = claim(R, R.Offset))
      return E;
    if (R.Kind == RelocKind::GpDisp)
      if (Error E = claim(R, R.Offset + R.PairOffset))
        return E;
  }
  if (SecondLoad < Relocs.size())
    return Error::failure(formatString(
        "%s: literal id %u has a second LITERAL at offset %llu in its "
        "procedure",
        ModuleName.c_str(), Relocs[SecondLoad].LiteralId,
        static_cast<unsigned long long>(Relocs[SecondLoad].Offset)));
  return Error::success();
}
