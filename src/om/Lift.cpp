//===- om/Lift.cpp - Object code to symbolic form --------------------------=//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "The OM linker translates the object code of the entire program into
/// symbolic form, recovering the original structure ... It can be thorough
/// but still conservative in understanding the input object code because
/// it can use the loader symbol table and the relocation tables to clarify
/// the code." (section 4)
///
//===----------------------------------------------------------------------===//

#include "om/OmImpl.h"

#include "support/ContentHash.h"
#include "support/Format.h"
#include "support/ShardedMap.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <unordered_map>

using namespace om64;
using namespace om64::om;
using namespace om64::isa;
using namespace om64::obj;

uint32_t SymProc::postPrologueIndex() const {
  if (hasProloguePairAtEntry())
    return 2;
  return 0;
}

bool SymProc::hasProloguePairAtEntry() const {
  return Insts.size() >= 2 && Insts[0].Kind == SKind::GpHigh &&
         Insts[0].GpKind == GpDispKind::Prologue &&
         Insts[1].Kind == SKind::GpLow &&
         Insts[1].PairId == Insts[0].PairId;
}

uint32_t SymbolicProgram::findProcBySuffix(const std::string &Suffix) const {
  for (uint32_t Idx = 0; Idx < Procs.size(); ++Idx) {
    const std::string &Name = Procs[Idx].Name;
    if (Name.size() > Suffix.size() + 1 &&
        Name[Name.size() - Suffix.size() - 1] == '.' &&
        Name.compare(Name.size() - Suffix.size(), Suffix.size(), Suffix) ==
            0)
      return Idx;
  }
  return ~0u;
}

void SymbolicProgram::dropLiterals() {
  Lits.clear();
  LitUses.clear();
  for (SymProc &P : Procs)
    P.LitBegin = P.LitEnd = 0;
}

namespace {

struct Lifter {
  const std::vector<ObjectFile> &Objs;
  const OmOptions &Opts;
  ThreadPool &Pool;
  LiftCache *Cache;
  SymbolicProgram SP;

  // Dense per-object tables replacing map lookups on the hot resolve path:
  // PSymIdOfDef[obj][symIdx] is the program symbol id of a defined symbol,
  // ~0u for undefined entries.
  std::vector<std::vector<uint32_t>> PSymIdOfDef;
  // Exported name -> program symbol id, interned concurrently during the
  // parallel symbol pass (mold-style sharded map).
  ShardedStringMap PSymOfName;

  Lifter(const std::vector<ObjectFile> &Objs, const OmOptions &Opts,
         ThreadPool &Pool, LiftCache *Cache)
      : Objs(Objs), Opts(Opts), Pool(Pool), Cache(Cache) {}

  Result<SymbolicProgram> run();
  Error buildSymbols();
  Error resolve(size_t ObjIdx, uint32_t SymIdx, uint32_t &Out) const;
  /// Decodes and classifies one procedure. \p RelocIdxs indexes the
  /// object's relocations belonging to this procedure, in table order.
  /// Literal ids are procedure-local, numbered from 0 in first-encounter
  /// order over the relocations (exactly as a shared counter would see
  /// them), and the literal records land in \p Local; run() rebases both
  /// onto the program-wide id space in procedure order. Reads only
  /// immutable state of the Lifter, so procedures lift concurrently.
  Error liftProc(size_t ObjIdx, const ProcDesc &Desc, SymProc &Proc,
                 LocalLitTable &Local, const std::vector<uint32_t> &RelocIdxs);
  void assignGroups();
  void computeAddressTaken();
};

} // namespace

Error Lifter::buildSymbols() {
  size_t NumObjs = Objs.size();
  PSymIdOfDef.resize(NumObjs);

  // Count definitions per object in parallel, then fix every object's id
  // range with a serial prefix sum: program symbol ids depend only on
  // object order, never on which thread interned what first.
  std::vector<uint64_t> DefCount(NumObjs, 0);
  Pool.parallelFor(NumObjs, [&](size_t ObjIdx) {
    uint64_t N = 0;
    for (const Symbol &S : Objs[ObjIdx].Symbols)
      N += S.IsDefined;
    DefCount[ObjIdx] = N;
  });
  std::vector<uint64_t> IdBase(NumObjs, 0);
  uint64_t Total = 0;
  for (size_t ObjIdx = 0; ObjIdx < NumObjs; ++ObjIdx) {
    IdBase[ObjIdx] = Total;
    Total += DefCount[ObjIdx];
  }
  if (Total >= ~0u)
    return Error::failure(
        formatString("program defines %llu symbols, exceeding the 32-bit "
                     "symbol-id space",
                     static_cast<unsigned long long>(Total)));
  SP.Syms.resize(Total);

  // Build each object's PSyms into its preassigned slots and intern the
  // exported names concurrently.
  Pool.parallelFor(NumObjs, [&](size_t ObjIdx) {
    const ObjectFile &O = Objs[ObjIdx];
    std::vector<uint32_t> &Ids = PSymIdOfDef[ObjIdx];
    Ids.assign(O.Symbols.size(), ~0u);
    uint32_t Id = static_cast<uint32_t>(IdBase[ObjIdx]);
    for (uint32_t SymIdx = 0; SymIdx < O.Symbols.size(); ++SymIdx) {
      const Symbol &S = O.Symbols[SymIdx];
      if (!S.IsDefined)
        continue;
      PSym &P = SP.Syms[Id];
      P.Name = S.Name;
      P.Size = S.Size;
      P.ObjIdx = static_cast<uint32_t>(ObjIdx);
      P.Exported = S.IsExported;
      P.IsProc = S.IsProcedure;
      if (!S.IsProcedure) {
        if (S.Section == SectionKind::Data) {
          P.Init.assign(O.Data.begin() + static_cast<ptrdiff_t>(S.Offset),
                        O.Data.begin() +
                            static_cast<ptrdiff_t>(S.Offset + S.Size));
        } else {
          P.IsBss = true;
        }
      }
      Ids[SymIdx] = Id;
      if (S.IsExported)
        PSymOfName.insert(S.Name, Id);
      ++Id;
    }
  });

  // Which duplicate won the concurrent interning is a race, so the
  // diagnosis is a serial object-order scan: the first definition whose
  // name resolved to some other id is the duplicate the serial code would
  // have reported (the message carries only the name either way).
  for (size_t ObjIdx = 0; ObjIdx < NumObjs; ++ObjIdx) {
    const ObjectFile &O = Objs[ObjIdx];
    for (uint32_t SymIdx = 0; SymIdx < O.Symbols.size(); ++SymIdx) {
      const Symbol &S = O.Symbols[SymIdx];
      if (!S.IsDefined || !S.IsExported)
        continue;
      if (PSymOfName.lookup(S.Name) != PSymIdOfDef[ObjIdx][SymIdx])
        return Error::failure("multiply-defined symbol '" + S.Name + "'");
    }
  }
  return Error::success();
}

Error Lifter::resolve(size_t ObjIdx, uint32_t SymIdx, uint32_t &Out) const {
  const Symbol &S = Objs[ObjIdx].Symbols[SymIdx];
  if (S.IsDefined) {
    Out = PSymIdOfDef[ObjIdx][SymIdx];
    return Error::success();
  }
  uint32_t Id = PSymOfName.lookup(S.Name);
  if (Id == ~0u)
    return Error::failure("undefined symbol '" + S.Name +
                          "' referenced from " + Objs[ObjIdx].ModuleName);
  Out = Id;
  return Error::success();
}

/// True for the relocations that name a literal id.
static bool isLiteralReloc(RelocKind K) {
  return K == RelocKind::Literal || K == RelocKind::LituseBase ||
         K == RelocKind::LituseAddr || K == RelocKind::LituseDeref ||
         K == RelocKind::LituseJsr;
}

Error Lifter::liftProc(size_t ObjIdx, const ProcDesc &Desc, SymProc &Proc,
                       LocalLitTable &Local,
                       const std::vector<uint32_t> &RelocIdxs) {
  const ObjectFile &O = Objs[ObjIdx];
  size_t NumInsts = Desc.TextSize / 4;
  Proc.Insts.resize(NumInsts);

  for (size_t Idx = 0; Idx < NumInsts; ++Idx) {
    size_t Off = Desc.TextOffset + Idx * 4;
    uint32_t Word = static_cast<uint32_t>(O.Text[Off]) |
                    (static_cast<uint32_t>(O.Text[Off + 1]) << 8) |
                    (static_cast<uint32_t>(O.Text[Off + 2]) << 16) |
                    (static_cast<uint32_t>(O.Text[Off + 3]) << 24);
    std::optional<Inst> I = decode(Word);
    if (!I)
      return Error::failure(formatString(
          "%s: undecodable instruction at +%zu in %s", O.ModuleName.c_str(),
          Off, Proc.Name.c_str()));
    Proc.Insts[Idx].I = *I;
    Proc.Insts[Idx].OrigDisp = I->Disp;
  }

  // Number the object's literal ids in first-encounter order over the
  // relocations. Sorting (object id, position) pairs groups each literal's
  // relocations with its first one in front; LocalId[Pos] first holds that
  // first position, then, in one forward pass, the local id.
  const size_t NumRelocs = RelocIdxs.size();
  std::vector<std::pair<uint32_t, uint32_t>> ByLiteral;
  ByLiteral.reserve(NumRelocs);
  std::vector<uint32_t> LocalId(NumRelocs, ~0u);
  for (uint32_t Pos = 0; Pos < NumRelocs; ++Pos) {
    const Reloc &R = O.Relocs[RelocIdxs[Pos]];
    if (isLiteralReloc(R.Kind))
      ByLiteral.emplace_back(R.LiteralId, Pos);
  }
  std::sort(ByLiteral.begin(), ByLiteral.end());
  for (size_t K = 0; K < ByLiteral.size(); ++K)
    LocalId[ByLiteral[K].second] =
        K > 0 && ByLiteral[K - 1].first == ByLiteral[K].first
            ? LocalId[ByLiteral[K - 1].second]
            : ByLiteral[K].second;
  uint32_t NumLits = 0;
  for (uint32_t Pos = 0; Pos < NumRelocs; ++Pos)
    if (LocalId[Pos] != ~0u)
      LocalId[Pos] = LocalId[Pos] == Pos ? NumLits++ : LocalId[LocalId[Pos]];

  // Apply relocation knowledge.
  uint32_t NextPairId = 0;
  for (uint32_t Pos = 0; Pos < NumRelocs; ++Pos) {
    const Reloc &R = O.Relocs[RelocIdxs[Pos]];
    size_t Idx = (R.Offset - Desc.TextOffset) / 4;
    SymInst &SI = Proc.Insts[Idx];
    switch (R.Kind) {
    case RelocKind::Literal: {
      const GatEntry &E = O.Gat[R.GatIndex];
      if (E.Addend != 0)
        return Error::failure(O.ModuleName + ": GAT entry with addend not "
                                             "supported by OM");
      uint32_t Target;
      if (Error Err = resolve(ObjIdx, E.SymbolIndex, Target))
        return Err;
      SI.Kind = SKind::AddressLoad;
      SI.TargetSym = Target;
      SI.LitId = LocalId[Pos];
      break;
    }
    case RelocKind::LituseBase:
      SI.Kind = SKind::LitUseMem;
      SI.LitId = LocalId[Pos];
      break;
    case RelocKind::LituseAddr:
      SI.Kind = SKind::LitUseAddr;
      SI.LitId = LocalId[Pos];
      break;
    case RelocKind::LituseDeref:
      SI.Kind = SKind::LitUseDeref;
      SI.LitId = LocalId[Pos];
      break;
    case RelocKind::LituseJsr:
      SI.Kind = SKind::JsrViaGat;
      SI.LitId = LocalId[Pos];
      break;
    case RelocKind::GpDisp: {
      SI.Kind = SKind::GpHigh;
      SI.GpKind = static_cast<GpDispKind>(R.GpKind);
      SI.PairId = NextPairId;
      size_t LowIdx = (R.Offset + R.PairOffset - Desc.TextOffset) / 4;
      if (LowIdx >= NumInsts)
        return Error::failure(O.ModuleName + ": GP-disp pair crosses "
                                             "procedure boundary");
      Proc.Insts[LowIdx].Kind = SKind::GpLow;
      Proc.Insts[LowIdx].GpKind = static_cast<GpDispKind>(R.GpKind);
      Proc.Insts[LowIdx].PairId = NextPairId;
      ++NextPairId;
      break;
    }
    case RelocKind::RefQuad:
      break; // data relocation; handled by data lifting (not present here)
    }
  }

  // Classify control flow: remaining JSRs are indirect; branch-format
  // instructions become local branches or direct calls.
  for (size_t Idx = 0; Idx < NumInsts; ++Idx) {
    SymInst &SI = Proc.Insts[Idx];
    const Inst &I = SI.I;
    if (classOf(I.Op) == InstClass::Jump && I.Op == Opcode::Jsr &&
        SI.Kind == SKind::Plain) {
      SI.Kind = SKind::JsrIndirect;
      Proc.MakesIndirectCalls = true;
      continue;
    }
    if (classOf(I.Op) != InstClass::Branch)
      continue;
    // No relocation names a branch: its role would be overwritten here,
    // leaving a literal with uses but no load, or a GP pair without a half.
    if (SI.Kind != SKind::Plain)
      return Error::failure(formatString(
          "%s: relocation on the branch instruction at +%zu in %s",
          O.ModuleName.c_str(), Desc.TextOffset + Idx * 4,
          Proc.Name.c_str()));
    int64_t TargetOff = static_cast<int64_t>(Desc.TextOffset) +
                        static_cast<int64_t>(Idx) * 4 + 4 +
                        static_cast<int64_t>(I.Disp) * 4;
    if (I.Op == Opcode::Bsr) {
      // A direct call; the target must be some procedure's entry in this
      // object (only the compiler creates BSRs, and only to entries).
      bool Found = false;
      for (const ProcDesc &D2 : O.Procs)
        if (static_cast<int64_t>(D2.TextOffset) == TargetOff) {
          // Target proc index is filled in by run() after all procedures
          // exist; stash the object-local descriptor identity via offset.
          SI.Kind = SKind::DirectCall;
          SI.TargetProc = static_cast<uint32_t>(TargetOff); // fixed later
          Found = true;
          break;
        }
      if (!Found)
        return Error::failure(O.ModuleName +
                              ": BSR to a non-procedure-entry target");
      continue;
    }
    // Conditional branches and BR stay inside the procedure.
    if (TargetOff < static_cast<int64_t>(Desc.TextOffset) ||
        TargetOff >= static_cast<int64_t>(Desc.TextOffset + Desc.TextSize))
      return Error::failure(O.ModuleName + ": local branch leaves " +
                            Proc.Name);
    SI.Kind = SKind::LocalBranch;
    SI.TargetIdx =
        static_cast<int32_t>((TargetOff - Desc.TextOffset) / 4);
  }

  // Record literal uses into the procedure-local table (run() rebases):
  // count each literal's uses, give each literal its slice of Uses, then
  // fill the slices in instruction order.
  std::vector<LitInfo> &Lits = Local.Lits;
  Lits.assign(NumLits, LitInfo());
  for (size_t Idx = 0; Idx < NumInsts; ++Idx) {
    const SymInst &SI = Proc.Insts[Idx];
    switch (SI.Kind) {
    case SKind::AddressLoad:
      Lits[SI.LitId].LoadIdx = static_cast<uint32_t>(Idx);
      Lits[SI.LitId].TargetSym = SI.TargetSym;
      break;
    case SKind::LitUseMem:
      ++Lits[SI.LitId].NumMem;
      break;
    case SKind::LitUseAddr:
      ++Lits[SI.LitId].NumAddr;
      break;
    case SKind::LitUseDeref:
      ++Lits[SI.LitId].NumDeref;
      break;
    case SKind::JsrViaGat:
      Lits[SI.LitId].JsrIdx = static_cast<int32_t>(Idx);
      break;
    default:
      break;
    }
  }
  // Next free slot of each literal's memory, address and dereference list.
  std::vector<uint32_t> Next(3 * static_cast<size_t>(NumLits));
  uint32_t NumUses = 0;
  for (uint32_t Id = 0; Id < NumLits; ++Id) {
    LitInfo &L = Lits[Id];
    L.UseBegin = NumUses;
    Next[3 * Id] = NumUses;
    Next[3 * Id + 1] = NumUses + L.NumMem;
    Next[3 * Id + 2] = NumUses + L.NumMem + L.NumAddr;
    NumUses += L.NumMem + L.NumAddr + L.NumDeref;
  }
  Local.Uses.resize(NumUses);
  for (size_t Idx = 0; Idx < NumInsts; ++Idx) {
    const SymInst &SI = Proc.Insts[Idx];
    unsigned List = SI.Kind == SKind::LitUseMem    ? 0
                    : SI.Kind == SKind::LitUseAddr ? 1
                    : SI.Kind == SKind::LitUseDeref ? 2
                                                    : 3;
    if (List < 3)
      Local.Uses[Next[3 * SI.LitId + List]++] = static_cast<uint32_t>(Idx);
  }
  return Error::success();
}

void Lifter::assignGroups() {
  // Same grouping policy as the traditional linker: whole objects, in
  // order, while the merged (deduplicated) GAT fits one GP window. Each
  // object's entries resolve in parallel; the packing decision itself is a
  // serial object-order scan (it is inherently sequential and cheap), and
  // counts new entries against the running group instead of materializing
  // a merged copy per object.
  SP.GroupOfObj.resize(Objs.size());
  std::vector<std::vector<uint32_t>> EntriesOfObj(Objs.size());
  Pool.parallelFor(Objs.size(), [&](size_t ObjIdx) {
    std::vector<uint32_t> &Entries = EntriesOfObj[ObjIdx];
    for (const GatEntry &E : Objs[ObjIdx].Gat) {
      uint32_t Target;
      if (!resolve(ObjIdx, E.SymbolIndex, Target))
        Entries.push_back(Target);
    }
    std::sort(Entries.begin(), Entries.end());
    Entries.erase(std::unique(Entries.begin(), Entries.end()),
                  Entries.end());
  });

  uint32_t Group = 0;
  std::set<uint32_t> GroupEntries;
  uint64_t TotalEntries = 0;
  for (size_t ObjIdx = 0; ObjIdx < Objs.size(); ++ObjIdx) {
    const std::vector<uint32_t> &ObjEntries = EntriesOfObj[ObjIdx];
    size_t NewEntries = 0;
    for (uint32_t E : ObjEntries)
      NewEntries += !GroupEntries.count(E);
    if (GroupEntries.size() + NewEntries > Opts.MaxGatEntriesPerGroup &&
        !GroupEntries.empty()) {
      TotalEntries += GroupEntries.size();
      ++Group;
      GroupEntries.clear();
    }
    GroupEntries.insert(ObjEntries.begin(), ObjEntries.end());
    SP.GroupOfObj[ObjIdx] = Group;
  }
  TotalEntries += GroupEntries.size();
  SP.NumGroups = Group + 1;
  SP.OriginalGatEntries = TotalEntries;
  for (SymProc &P : SP.Procs)
    P.GpGroup = SP.GroupOfObj[P.ObjIdx];
}

void Lifter::computeAddressTaken() {
  for (const LitInfo &L : SP.Lits) {
    if (L.TargetSym >= SP.Syms.size())
      continue; // unrecorded, or uses without a load
    const PSym &Target = SP.Syms[L.TargetSym];
    if (!Target.IsProc)
      continue;
    // A procedure literal that is not used purely as a JSR destination
    // escapes: the procedure can be entered indirectly.
    if (L.escapes() || L.NumMem != 0)
      SP.Procs[Target.ProcIdx].AddressTaken = true;
  }
}

Result<SymbolicProgram> Lifter::run() {
  SP.NumObjects = Objs.size();
  if (Error Err = buildSymbols())
    return Result<SymbolicProgram>::failure(Err.message());

  // Create procedures in object order.
  std::vector<std::unordered_map<uint64_t, uint32_t>> ProcByEntryOffset(
      Objs.size());
  for (size_t ObjIdx = 0; ObjIdx < Objs.size(); ++ObjIdx) {
    for (const ProcDesc &Desc : Objs[ObjIdx].Procs) {
      SymProc Proc;
      uint32_t SymId = PSymIdOfDef[ObjIdx][Desc.SymbolIndex];
      Proc.Name = SP.Syms[SymId].Name;
      Proc.ObjIdx = static_cast<uint32_t>(ObjIdx);
      Proc.SymId = SymId;
      Proc.Exported = SP.Syms[SymId].Exported;
      Proc.UsesGp = Desc.UsesGp;
      uint32_t ProcIdx = static_cast<uint32_t>(SP.Procs.size());
      SP.Syms[SymId].ProcIdx = ProcIdx;
      ProcByEntryOffset[ObjIdx][Desc.TextOffset] = ProcIdx;
      SP.Procs.push_back(std::move(Proc));
    }
  }

  // Decide per module whether the lift cache slot is reusable: bytes
  // unchanged (ContentHash, supplied by the caller) and every GAT entry
  // still resolving to the same program symbol. The signature hashes all
  // GAT resolutions — a superset of what Literal relocs actually consume —
  // so a match is sound for every AddressLoad target the cached
  // instructions carry.
  std::vector<uint64_t> Sig(Cache ? Objs.size() : 0);
  std::vector<uint8_t> UseSlot(Objs.size(), 0);
  if (Cache) {
    if (Cache->Slots.size() != Objs.size() ||
        Cache->CurrentHashes.size() != Objs.size()) {
      Cache->Slots.clear();
      Cache->Slots.resize(Objs.size());
      if (Cache->CurrentHashes.size() != Objs.size())
        Cache->CurrentHashes.assign(Objs.size(), 0);
    }
    Pool.parallelFor(Objs.size(), [&](size_t ObjIdx) {
      Hasher H;
      for (const GatEntry &E : Objs[ObjIdx].Gat) {
        uint32_t Target = ~0u;
        if (resolve(ObjIdx, E.SymbolIndex, Target))
          H.addU64(0x756e7265736f6cull); // "unresol": caught again below
        else
          H.addU32(Target);
        H.addI64(E.Addend);
      }
      Sig[ObjIdx] = H.digest();
      const LiftCache::Slot &S = Cache->Slots[ObjIdx];
      UseSlot[ObjIdx] = S.Valid &&
                        S.ContentHash == Cache->CurrentHashes[ObjIdx] &&
                        S.ResolutionSig == Sig[ObjIdx] &&
                        S.Procs.size() == Objs[ObjIdx].Procs.size();
    });
  }

  // Bucket each object's relocations by owning procedure (parallel, one
  // pass over the table with a binary search per entry): lifting becomes
  // O(insts + relocs) instead of every procedure rescanning its object's
  // whole relocation table, which was quadratic in procedures per module
  // on mega-scale inputs. Modules taking the cached path skip the fill
  // (their buckets are never read) but keep the per-procedure shape so
  // the unit table below can point into it unconditionally.
  std::vector<std::vector<std::vector<uint32_t>>> RelocBuckets(Objs.size());
  Pool.parallelFor(Objs.size(), [&](size_t ObjIdx) {
    const ObjectFile &O = Objs[ObjIdx];
    std::vector<std::vector<uint32_t>> &Buckets = RelocBuckets[ObjIdx];
    Buckets.resize(O.Procs.size());
    if (UseSlot[ObjIdx])
      return;
    struct Range {
      uint64_t Begin, End;
      uint32_t Proc;
    };
    std::vector<Range> Ranges;
    Ranges.reserve(O.Procs.size());
    for (uint32_t P = 0; P < O.Procs.size(); ++P)
      if (O.Procs[P].TextSize != 0)
        Ranges.push_back({O.Procs[P].TextOffset,
                          O.Procs[P].TextOffset + O.Procs[P].TextSize, P});
    std::sort(Ranges.begin(), Ranges.end(),
              [](const Range &A, const Range &B) { return A.Begin < B.Begin; });
    for (uint32_t RelocIdx = 0; RelocIdx < O.Relocs.size(); ++RelocIdx) {
      uint64_t Off = O.Relocs[RelocIdx].Offset;
      auto It = std::upper_bound(
          Ranges.begin(), Ranges.end(), Off,
          [](uint64_t V, const Range &R) { return V < R.Begin; });
      if (It == Ranges.begin())
        continue;
      const Range &R = *std::prev(It);
      if (Off < R.End)
        Buckets[R.Proc].push_back(RelocIdx);
    }
  });

  // Lift every procedure on the pool. Workers touch only their own
  // procedure, a private literal table, and a private error slot; the
  // Lifter itself (symbol tables, Objs) is immutable here. Literal ids are
  // rebased in procedure order below, which reproduces the first-encounter
  // numbering of a single shared counter bit for bit.
  struct LiftUnit {
    size_t ObjIdx;
    uint32_t ProcInObj;
    const ProcDesc *Desc;
    const std::vector<uint32_t> *Relocs;
  };
  std::vector<LiftUnit> Units;
  Units.reserve(SP.Procs.size());
  for (size_t ObjIdx = 0; ObjIdx < Objs.size(); ++ObjIdx)
    for (uint32_t P = 0; P < Objs[ObjIdx].Procs.size(); ++P)
      Units.push_back({ObjIdx, P, &Objs[ObjIdx].Procs[P],
                       &RelocBuckets[ObjIdx][P]});

  // Each procedure's local literal table: freshly lifted into LocalLits,
  // or read in place from its cache slot. The merge reads it through
  // LitsOf.
  std::vector<LocalLitTable> LocalLits(Units.size());
  std::vector<const LocalLitTable *> LitsOf(Units.size(), nullptr);
  std::vector<std::string> LiftErrors(Units.size());
  Pool.parallelFor(Units.size(), [&](size_t P) {
    if (UseSlot[Units[P].ObjIdx]) {
      // Cached: the pre-rebase product is a pure function of inputs the
      // slot match just validated; copy it (the rebase below mutates the
      // working copy, never the cache's).
      const LiftCache::ProcData &D =
          Cache->Slots[Units[P].ObjIdx].Procs[Units[P].ProcInObj];
      SP.Procs[P].Insts = D.Insts;
      SP.Procs[P].MakesIndirectCalls = D.MakesIndirectCalls;
      LitsOf[P] = &D.Lits;
      return;
    }
    LitsOf[P] = &LocalLits[P];
    if (Error Err = liftProc(Units[P].ObjIdx, *Units[P].Desc, SP.Procs[P],
                             LocalLits[P], *Units[P].Relocs))
      LiftErrors[P] = Err.message();
  });
  // First error in procedure order: the same one the serial loop stops at.
  for (const std::string &Msg : LiftErrors)
    if (!Msg.empty())
      return Result<SymbolicProgram>::failure(Msg);

  // Refill the cache for modules that lifted fresh, before the rebase
  // rewrites literal ids and call targets into link-specific form. The
  // fresh literal tables move into their slots and the merge reads them
  // there.
  if (Cache) {
    Cache->ModulesReused = Cache->ModulesLifted = 0;
    Cache->ProcsReused = Cache->ProcsLifted = 0;
    Pool.parallelFor(Objs.size(), [&](size_t ObjIdx) {
      if (UseSlot[ObjIdx])
        return;
      LiftCache::Slot &S = Cache->Slots[ObjIdx];
      S.Valid = true;
      S.ContentHash = Cache->CurrentHashes[ObjIdx];
      S.ResolutionSig = Sig[ObjIdx];
      S.Procs.clear();
      S.Procs.resize(Objs[ObjIdx].Procs.size());
    });
    Pool.parallelFor(Units.size(), [&](size_t P) {
      if (UseSlot[Units[P].ObjIdx])
        return;
      LiftCache::ProcData &D =
          Cache->Slots[Units[P].ObjIdx].Procs[Units[P].ProcInObj];
      D.Insts = SP.Procs[P].Insts;
      D.Lits = std::move(LocalLits[P]);
      D.MakesIndirectCalls = SP.Procs[P].MakesIndirectCalls;
      LitsOf[P] = &D.Lits;
    });
    for (size_t ObjIdx = 0; ObjIdx < Objs.size(); ++ObjIdx) {
      uint64_t NProcs = Objs[ObjIdx].Procs.size();
      if (UseSlot[ObjIdx]) {
        ++Cache->ModulesReused;
        Cache->ProcsReused += NProcs;
      } else {
        ++Cache->ModulesLifted;
        Cache->ProcsLifted += NProcs;
      }
    }
  }

  // Serial 64-bit prefix sums fix every procedure's literal-id range and
  // its slice of the use array (a 32-bit running counter would wrap
  // silently before the range check on inputs with billions of sites).
  std::vector<uint64_t> LitBase(Units.size() + 1, 0);
  std::vector<uint64_t> UseBase(Units.size() + 1, 0);
  for (size_t P = 0; P < Units.size(); ++P) {
    LitBase[P + 1] = LitBase[P] + LitsOf[P]->Lits.size();
    UseBase[P + 1] = UseBase[P] + LitsOf[P]->Uses.size();
  }
  if (Error Err = checkLiteralIdSpace(LitBase.back(), UseBase.back()))
    return Result<SymbolicProgram>::failure(Err.message());

  // The per-instruction rebase, the DirectCall fixup and the literal merge
  // fan back out: each procedure copies its table to its own bases, fixing
  // each literal's owner (every literal with a load belongs to P).
  SP.Lits.resize(LitBase.back());
  SP.LitUses.resize(UseBase.back());
  Pool.parallelFor(Units.size(), [&](size_t P) {
    SymProc &Proc = SP.Procs[P];
    uint32_t Base = static_cast<uint32_t>(LitBase[P]);
    const std::unordered_map<uint64_t, uint32_t> &Entries =
        ProcByEntryOffset[Proc.ObjIdx];
    for (SymInst &SI : Proc.Insts) {
      if (SI.LitId != ~0u)
        SI.LitId += Base;
      // DirectCall targets were stashed as object-local entry offsets.
      if (SI.Kind == SKind::DirectCall)
        SI.TargetProc = Entries.at(SI.TargetProc);
    }
    Proc.IsEntry = false;

    const LocalLitTable &Local = *LitsOf[P];
    uint32_t Uses = static_cast<uint32_t>(UseBase[P]);
    Proc.LitBegin = Base;
    Proc.LitEnd = static_cast<uint32_t>(LitBase[P + 1]);
    for (size_t Id = 0; Id < Local.Lits.size(); ++Id) {
      LitInfo &L = SP.Lits[Base + Id];
      L = Local.Lits[Id];
      L.Proc = L.LoadIdx != ~0u ? static_cast<uint32_t>(P) : ~0u;
      L.UseBegin += Uses;
    }
    std::copy(Local.Uses.begin(), Local.Uses.end(),
              SP.LitUses.begin() + Uses);
    LocalLits[P] = LocalLitTable();
  });
  uint32_t Entry = SP.findProcBySuffix(Opts.EntryName);
  if (Entry == ~0u)
    return Result<SymbolicProgram>::failure("no '" + Opts.EntryName +
                                            "' procedure in program");
  SP.Procs[Entry].IsEntry = true;

  assignGroups();
  computeAddressTaken();
  return std::move(SP);
}

Result<SymbolicProgram>
om64::om::liftProgram(const std::vector<ObjectFile> &Objs,
                      const OmOptions &Opts, ThreadPool &Pool,
                      LiftCache *Cache) {
  // OM lays data out by symbol, but its input must fit the data segment
  // as the standard link lays out sections, so both links reject the same
  // modules with the same diagnostic.
  if (Result<obj::ModuleDataLayout> Sections = obj::layoutModuleData(Objs, 0);
      !Sections)
    return Sections.takeError();
  Lifter L(Objs, Opts, Pool, Cache);
  return L.run();
}

Error om64::om::checkLiteralIdSpace(uint64_t TotalLiteralSites,
                                    uint64_t TotalLiteralUses) {
  // SymInst::LitId is 32 bits with ~0u reserved as "no literal".
  if (TotalLiteralSites >= ~0u)
    return Error::failure(formatString(
        "program has %llu literal sites, exceeding the 32-bit literal-id "
        "space",
        static_cast<unsigned long long>(TotalLiteralSites)));
  // LitInfo::UseBegin and the use counts are 32 bits.
  if (TotalLiteralUses > ~0u)
    return Error::failure(formatString(
        "program has %llu literal uses, exceeding the 32-bit literal-use "
        "space",
        static_cast<unsigned long long>(TotalLiteralUses)));
  return Error::success();
}
