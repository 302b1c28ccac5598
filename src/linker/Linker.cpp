//===- linker/Linker.cpp ---------------------------------------------------=//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//

#include "linker/Linker.h"

#include "isa/Inst.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace om64;
using namespace om64::lnk;
using namespace om64::obj;

namespace {

/// Where a symbol definition lives.
struct DefSite {
  size_t ObjIdx;
  uint32_t SymIdx;
};

/// One merged GAT slot.
struct MergedSlot {
  uint32_t Group;
  uint32_t Slot; // within the group
};

/// Linker working state.
class LinkContext {
public:
  LinkContext(const std::vector<ObjectFile> &Objects,
              const LinkOptions &Opts)
      : Objects(Objects), Opts(Opts) {}

  Result<Image> run();

private:
  Error resolveSymbols();
  Error mergeGats();
  Error layout();
  Error resolveRef(size_t ObjIdx, uint32_t SymIdx, DefSite &Out) const;
  uint64_t symbolAddress(const DefSite &Site) const;
  Error applyRelocations(Image &Img);
  void patchDisp16(Image &Img, uint64_t TextAddr, int32_t Disp);

  const std::vector<ObjectFile> &Objects;
  const LinkOptions &Opts;

  std::map<std::string, DefSite> ExportedDefs;
  // Per-object bases.
  std::vector<uint64_t> TextBaseOf;
  std::vector<uint64_t> DataOffsetOf; // within initialized data region
  std::vector<uint64_t> BssOffsetOf;  // within bss region
  uint64_t TotalText = 0;
  uint64_t TotalData = 0; // excluding GAT
  uint64_t TotalBss = 0;

  // GAT merging.
  std::vector<uint32_t> GroupOf;               // object -> group
  std::vector<std::vector<std::pair<DefSite, int64_t>>> GroupSlots;
  std::map<std::pair<uint64_t, int64_t>, MergedSlot> SlotByKey;
  std::vector<std::vector<MergedSlot>> LocalToMerged; // [obj][localGatIdx]
  std::vector<uint64_t> GroupBase; // address of each group's GAT
  std::vector<uint64_t> GpValue;   // per group
  uint64_t DataRegionBase = 0;     // address of first object data byte
  uint64_t BssBase = 0;
};

} // namespace

Error LinkContext::resolveSymbols() {
  for (size_t ObjIdx = 0; ObjIdx < Objects.size(); ++ObjIdx) {
    const ObjectFile &O = Objects[ObjIdx];
    for (uint32_t SymIdx = 0; SymIdx < O.Symbols.size(); ++SymIdx) {
      const Symbol &S = O.Symbols[SymIdx];
      if (!S.IsDefined || !S.IsExported)
        continue;
      auto [It, Inserted] =
          ExportedDefs.emplace(S.Name, DefSite{ObjIdx, SymIdx});
      if (!Inserted)
        return Error::failure("multiply-defined symbol '" + S.Name + "' in " +
                              O.ModuleName + " and " +
                              Objects[It->second.ObjIdx].ModuleName);
    }
  }
  // Every undefined reference must resolve.
  for (const ObjectFile &O : Objects)
    for (const Symbol &S : O.Symbols)
      if (!S.IsDefined && !ExportedDefs.count(S.Name))
        return Error::failure("undefined symbol '" + S.Name +
                              "' referenced from " + O.ModuleName);
  return Error::success();
}

Error LinkContext::resolveRef(size_t ObjIdx, uint32_t SymIdx,
                              DefSite &Out) const {
  const Symbol &S = Objects[ObjIdx].Symbols[SymIdx];
  if (S.IsDefined) {
    Out = DefSite{ObjIdx, SymIdx};
    return Error::success();
  }
  auto It = ExportedDefs.find(S.Name);
  if (It == ExportedDefs.end())
    return Error::failure("undefined symbol '" + S.Name + "'");
  Out = It->second;
  return Error::success();
}

Error LinkContext::mergeGats() {
  GroupOf.resize(Objects.size());
  LocalToMerged.resize(Objects.size());
  uint32_t Group = 0;
  GroupSlots.emplace_back();

  for (size_t ObjIdx = 0; ObjIdx < Objects.size(); ++ObjIdx) {
    const ObjectFile &O = Objects[ObjIdx];
    // Count how many new (deduplicated) entries this object adds.
    std::vector<std::pair<std::pair<uint64_t, int64_t>, DefSite>> Keys;
    unsigned NewEntries = 0;
    for (const GatEntry &E : O.Gat) {
      DefSite Site;
      if (Error Err = resolveRef(ObjIdx, E.SymbolIndex, Site))
        return Err;
      // Key on the resolved definition identity plus addend.
      auto Key = std::make_pair(
          (static_cast<uint64_t>(Site.ObjIdx) << 32) | Site.SymIdx,
          E.Addend);
      Keys.push_back({Key, Site});
      if (!SlotByKey.count(Key))
        ++NewEntries; // approximate: duplicates inside O counted once below
    }
    // A module's whole GAT must live in one group: start a new group when
    // it no longer fits ("merging into one large GAT will not always be
    // possible", section 2).
    if (GroupSlots[Group].size() + NewEntries > Opts.MaxGatEntriesPerGroup &&
        !GroupSlots[Group].empty()) {
      ++Group;
      GroupSlots.emplace_back();
      // Keys cached in SlotByKey belong to earlier groups; entries shared
      // with them must be re-added to this group, so forget cross-group
      // sharing for this object by re-keying below.
    }
    GroupOf[ObjIdx] = Group;
    LocalToMerged[ObjIdx].reserve(O.Gat.size());
    for (size_t GI = 0; GI < O.Gat.size(); ++GI) {
      auto &KeySite = Keys[GI];
      auto It = SlotByKey.find(KeySite.first);
      if (It != SlotByKey.end() && It->second.Group == Group) {
        LocalToMerged[ObjIdx].push_back(It->second);
        continue;
      }
      MergedSlot Slot{Group,
                      static_cast<uint32_t>(GroupSlots[Group].size())};
      GroupSlots[Group].push_back({KeySite.second, O.Gat[GI].Addend});
      SlotByKey[KeySite.first] = Slot;
      LocalToMerged[ObjIdx].push_back(Slot);
    }
  }
  return Error::success();
}

Error LinkContext::layout() {
  // Text: objects in command-line order, 16-byte aligned.
  TextBaseOf.resize(Objects.size());
  uint64_t Cur = 0;
  for (size_t ObjIdx = 0; ObjIdx < Objects.size(); ++ObjIdx) {
    Cur = (Cur + 15) & ~15ull;
    TextBaseOf[ObjIdx] = Layout::TextBase + Cur;
    Cur += Objects[ObjIdx].Text.size();
  }
  TotalText = Cur;

  // Data region: the merged GAT groups first, then each object's data in
  // module order (the traditional linker does not sort by size; that is
  // OM's improvement), then bss, laid out by layoutModuleData, so a
  // hostile .bss size is refused, never wrapped.
  uint64_t DataCur = 0;
  GroupBase.resize(GroupSlots.size());
  GpValue.resize(GroupSlots.size());
  for (size_t G = 0; G < GroupSlots.size(); ++G) {
    GroupBase[G] = Layout::DataBase + DataCur;
    GpValue[G] = GroupBase[G] + 32768;
    DataCur += GroupSlots[G].size() * 8;
  }
  DataRegionBase = Layout::DataBase + DataCur;
  Result<ModuleDataLayout> Sections = layoutModuleData(Objects, DataCur);
  if (!Sections)
    return Sections.takeError();
  DataOffsetOf = std::move(Sections->DataOffset);
  TotalData = Sections->DataEnd;
  BssBase = Layout::DataBase + TotalData;
  BssOffsetOf = std::move(Sections->BssOffset);
  TotalBss = Sections->End - TotalData;
  return Error::success();
}

uint64_t LinkContext::symbolAddress(const DefSite &Site) const {
  const Symbol &S = Objects[Site.ObjIdx].Symbols[Site.SymIdx];
  assert(S.IsDefined && "address of undefined symbol");
  switch (S.Section) {
  case SectionKind::Text:
    return TextBaseOf[Site.ObjIdx] + S.Offset;
  case SectionKind::Data:
    return Layout::DataBase + DataOffsetOf[Site.ObjIdx] + S.Offset;
  case SectionKind::Bss:
    return BssBase + BssOffsetOf[Site.ObjIdx] + S.Offset;
  case SectionKind::Lita:
    break;
  }
  assert(false && "symbol in unexpected section");
  return 0;
}

void LinkContext::patchDisp16(Image &Img, uint64_t TextAddr, int32_t Disp) {
  assert(isa::fitsDisp16(Disp) && "patched displacement out of range");
  size_t Off = static_cast<size_t>(TextAddr - Img.TextBase);
  Img.Text[Off] = static_cast<uint8_t>(Disp & 0xFF);
  Img.Text[Off + 1] = static_cast<uint8_t>((Disp >> 8) & 0xFF);
}

Error LinkContext::applyRelocations(Image &Img) {
  for (size_t ObjIdx = 0; ObjIdx < Objects.size(); ++ObjIdx) {
    const ObjectFile &O = Objects[ObjIdx];
    uint32_t Group = GroupOf[ObjIdx];
    for (const Reloc &R : O.Relocs) {
      switch (R.Kind) {
      case RelocKind::Literal: {
        MergedSlot Slot = LocalToMerged[ObjIdx][R.GatIndex];
        uint64_t SlotAddr = GroupBase[Slot.Group] + Slot.Slot * 8ull;
        int64_t Disp = static_cast<int64_t>(SlotAddr) -
                       static_cast<int64_t>(GpValue[Group]);
        if (!isa::fitsDisp16(Disp))
          return Error::failure(
              formatString("%s: GAT slot out of GP reach (disp %lld)",
                           O.ModuleName.c_str(),
                           static_cast<long long>(Disp)));
        patchDisp16(Img, TextBaseOf[ObjIdx] + R.Offset,
                    static_cast<int32_t>(Disp));
        break;
      }
      case RelocKind::LituseBase:
      case RelocKind::LituseJsr:
      case RelocKind::LituseAddr:
      case RelocKind::LituseDeref:
        break; // analysis hints only
      case RelocKind::GpDisp: {
        uint64_t AnchorAddr = TextBaseOf[ObjIdx] + R.AnchorOffset;
        int64_t Value = static_cast<int64_t>(GpValue[Group]) -
                        static_cast<int64_t>(AnchorAddr);
        if (!isa::fitsDisp32(Value))
          return Error::failure(O.ModuleName +
                                ": GP displacement exceeds 32 bits");
        int32_t High, Low;
        isa::splitDisp32(Value, High, Low);
        patchDisp16(Img, TextBaseOf[ObjIdx] + R.Offset, High);
        patchDisp16(Img, TextBaseOf[ObjIdx] + R.Offset + R.PairOffset, Low);
        break;
      }
      case RelocKind::RefQuad: {
        DefSite Site;
        if (Error Err = resolveRef(ObjIdx, R.SymbolIndex, Site))
          return Err;
        uint64_t Value = symbolAddress(Site) + R.Addend;
        size_t Off = static_cast<size_t>(DataOffsetOf[ObjIdx] + R.Offset);
        for (unsigned Byte = 0; Byte < 8; ++Byte)
          Img.Data[Off + Byte] = static_cast<uint8_t>(Value >> (8 * Byte));
        break;
      }
      }
    }
  }
  return Error::success();
}

Result<Image> LinkContext::run() {
  if (Error Err = resolveSymbols())
    return Result<Image>::failure(Err.message());
  if (Error Err = mergeGats())
    return Result<Image>::failure(Err.message());
  if (Error Err = layout())
    return Result<Image>::failure(Err.message());

  Image Img;
  Img.TextBase = Layout::TextBase;
  Img.DataBase = Layout::DataBase;
  Img.BssSize = TotalBss;

  // Text bytes, nop padding between objects.
  Img.Text.assign(TotalText, 0);
  {
    uint32_t NopWord = isa::encode(isa::Inst::nop());
    for (size_t Off = 0; Off + 4 <= Img.Text.size(); Off += 4)
      for (unsigned Byte = 0; Byte < 4; ++Byte)
        Img.Text[Off + Byte] = static_cast<uint8_t>(NopWord >> (8 * Byte));
    for (size_t ObjIdx = 0; ObjIdx < Objects.size(); ++ObjIdx)
      std::copy(Objects[ObjIdx].Text.begin(), Objects[ObjIdx].Text.end(),
                Img.Text.begin() +
                    static_cast<ptrdiff_t>(TextBaseOf[ObjIdx] -
                                           Layout::TextBase));
  }

  // Data bytes: GAT groups then object data.
  Img.Data.assign(TotalData, 0);
  for (size_t G = 0; G < GroupSlots.size(); ++G) {
    uint64_t Base = GroupBase[G] - Layout::DataBase;
    for (size_t Slot = 0; Slot < GroupSlots[G].size(); ++Slot) {
      uint64_t Value = symbolAddress(GroupSlots[G][Slot].first) +
                       GroupSlots[G][Slot].second;
      for (unsigned Byte = 0; Byte < 8; ++Byte)
        Img.Data[Base + Slot * 8 + Byte] =
            static_cast<uint8_t>(Value >> (8 * Byte));
    }
  }
  for (size_t ObjIdx = 0; ObjIdx < Objects.size(); ++ObjIdx)
    std::copy(Objects[ObjIdx].Data.begin(), Objects[ObjIdx].Data.end(),
              Img.Data.begin() + static_cast<ptrdiff_t>(DataOffsetOf[ObjIdx]));

  Img.GatBase = GroupBase.empty() ? Layout::DataBase : GroupBase[0];
  Img.GatSize = 0;
  for (const auto &Slots : GroupSlots)
    Img.GatSize += Slots.size() * 8;

  // Symbols and procedures.
  for (size_t ObjIdx = 0; ObjIdx < Objects.size(); ++ObjIdx) {
    const ObjectFile &O = Objects[ObjIdx];
    for (uint32_t SymIdx = 0; SymIdx < O.Symbols.size(); ++SymIdx) {
      const Symbol &S = O.Symbols[SymIdx];
      if (!S.IsDefined)
        continue;
      ImageSymbol IS;
      IS.Name = S.Name;
      IS.Addr = symbolAddress(DefSite{ObjIdx, SymIdx});
      IS.Size = S.Size;
      IS.IsProcedure = S.IsProcedure;
      Img.Symbols.push_back(std::move(IS));
    }
    for (const ProcDesc &P : O.Procs) {
      ImageProc IP;
      IP.Name = O.Symbols[P.SymbolIndex].Name;
      IP.Entry = TextBaseOf[ObjIdx] + P.TextOffset;
      IP.Size = P.TextSize;
      IP.GpGroup = GroupOf[ObjIdx];
      IP.GpValue = GpValue.empty() ? 0 : GpValue[GroupOf[ObjIdx]];
      Img.Procs.push_back(std::move(IP));
    }
  }

  if (Error Err = applyRelocations(Img))
    return Result<Image>::failure(Err.message());

  // Entry point.
  bool FoundEntry = false;
  for (const ImageProc &P : Img.Procs) {
    size_t Dot = P.Name.rfind('.');
    if (Dot != std::string::npos &&
        P.Name.compare(Dot + 1, std::string::npos, Opts.EntryName) == 0) {
      if (FoundEntry)
        return Result<Image>::failure("multiple '" + Opts.EntryName +
                                      "' procedures");
      Img.Entry = P.Entry;
      Img.InitialGp = P.GpValue;
      FoundEntry = true;
    }
  }
  if (!FoundEntry)
    return Result<Image>::failure("no '" + Opts.EntryName +
                                  "' procedure to use as entry point");
  return Img;
}

Result<Image> om64::lnk::link(const std::vector<ObjectFile> &Objects,
                              const LinkOptions &Opts) {
  LinkContext Ctx(Objects, Opts);
  return Ctx.run();
}
