//===- codegen/Codegen.cpp - Unit building and object emission ------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//

#include "codegen/Codegen.h"

#include "codegen/CodegenImpl.h"
#include "sched/ListScheduler.h"
#include "support/Format.h"

#include <cassert>
#include <cstring>
#include <functional>

using namespace om64;
using namespace om64::cg;
using namespace om64::isa;

UnitBuilder::UnitBuilder(const lang::Program &P,
                         const std::vector<std::string> &ModuleNames,
                         const CompileOptions &Opts)
    : P(P), Opts(Opts) {
  for (const std::string &Name : ModuleNames) {
    const lang::Module *M = P.findModule(Name);
    assert(M && "unit module not in program");
    UnitModules.push_back(M);
  }
}

uint32_t UnitBuilder::internSymbol(const std::string &FullName) {
  auto It = SymIndexByName.find(FullName);
  if (It != SymIndexByName.end())
    return It->second;
  obj::Symbol S;
  S.Name = FullName;
  S.IsDefined = false;
  uint32_t Idx = static_cast<uint32_t>(Obj.Symbols.size());
  Obj.Symbols.push_back(std::move(S));
  SymIndexByName.emplace(FullName, Idx);
  return Idx;
}

uint32_t UnitBuilder::gatSlot(uint32_t SymIdx) {
  auto Key = std::make_pair(SymIdx, int64_t{0});
  auto It = GatIndexBySym.find(Key);
  if (It != GatIndexBySym.end())
    return It->second;
  uint32_t Idx = static_cast<uint32_t>(Obj.Gat.size());
  Obj.Gat.push_back({SymIdx, 0});
  GatIndexBySym.emplace(Key, Idx);
  return Idx;
}

uint32_t UnitBuilder::poolConstant(uint64_t Bits) {
  auto It = ConstSymByBits.find(Bits);
  if (It != ConstSymByBits.end())
    return It->second;
  std::string Name = formatString("%s.$const%u", Obj.ModuleName.c_str(),
                                  ++ConstCounter);
  uint32_t Idx = internSymbol(Name);
  obj::Symbol &S = Obj.Symbols[Idx];
  S.Section = obj::SectionKind::Data;
  S.Offset = Obj.Data.size();
  S.Size = 8;
  S.IsDefined = true;
  for (unsigned Byte = 0; Byte < 8; ++Byte)
    Obj.Data.push_back(static_cast<uint8_t>(Bits >> (8 * Byte)));
  ConstSymByBits.emplace(Bits, Idx);
  return Idx;
}

bool UnitBuilder::isDirectCallee(const std::string &FullName) const {
  auto It = ProcIndexByName.find(FullName);
  if (It == ProcIndexByName.end())
    return false;
  if (AddressTaken.count(FullName))
    return false;
  const MProc &Proc = Procs[It->second];
  // "main" is entered from outside the program; it always keeps the full
  // conventions. Exported procedures can only be optimized when the unit is
  // known to be the whole statically linked user program (compile-all).
  if (FullName.size() >= 5 &&
      FullName.compare(FullName.size() - 5, 5, ".main") == 0)
    return false;
  if (Proc.Exported && !Opts.InterUnit)
    return false;
  return true;
}

uint32_t UnitBuilder::procIndex(const std::string &FullName) const {
  auto It = ProcIndexByName.find(FullName);
  return It == ProcIndexByName.end() ? ~0u : It->second;
}

void UnitBuilder::collectAddressTakenExpr(const lang::Expr &E) {
  if (E.K == lang::Expr::Kind::AddrOf)
    AddressTaken.insert(E.TargetModule + "." + E.Name);
  for (const lang::ExprPtr &Child : E.Args)
    collectAddressTakenExpr(*Child);
}

void UnitBuilder::collectAddressTaken() {
  // Walk every statement of every function in the unit.
  std::function<void(const lang::Stmt &)> WalkStmt =
      [&](const lang::Stmt &S) {
        if (S.Target)
          collectAddressTakenExpr(*S.Target);
        if (S.Value)
          collectAddressTakenExpr(*S.Value);
        for (const lang::StmtPtr &Child : S.Body)
          WalkStmt(*Child);
        for (const lang::StmtPtr &Child : S.ElseBody)
          WalkStmt(*Child);
      };
  for (const lang::Module *M : UnitModules)
    for (const lang::Function &F : M->Functions)
      for (const lang::StmtPtr &S : F.Body)
        WalkStmt(*S);
}

void UnitBuilder::layoutGlobals() {
  for (const lang::Module *M : UnitModules) {
    for (const lang::GlobalVar &G : M->Globals) {
      uint32_t Idx = internSymbol(M->Name + "." + G.Name);
      obj::Symbol &S = Obj.Symbols[Idx];
      S.IsDefined = true;
      S.IsExported = G.Exported;
      S.Size = G.Ty.sizeInBytes();
      if (G.HasInit) {
        S.Section = obj::SectionKind::Data;
        S.Offset = Obj.Data.size();
        uint64_t Bits;
        if (G.Ty.isReal()) {
          double V = G.RealInit;
          std::memcpy(&Bits, &V, 8);
        } else {
          Bits = static_cast<uint64_t>(G.IntInit);
        }
        for (unsigned Byte = 0; Byte < 8; ++Byte)
          Obj.Data.push_back(static_cast<uint8_t>(Bits >> (8 * Byte)));
      } else {
        S.Section = obj::SectionKind::Bss;
        S.Offset = Obj.BssSize;
        Obj.BssSize += (S.Size + 7) & ~7ull;
      }
    }
  }
}

Error UnitBuilder::generateProcs() {
  // Pre-register every in-unit procedure so call sites can classify their
  // callees before bodies exist.
  for (const lang::Module *M : UnitModules) {
    for (const lang::Function &F : M->Functions) {
      std::string Full = M->Name + "." + F.Name;
      uint32_t Idx = static_cast<uint32_t>(Procs.size());
      ProcIndexByName.emplace(Full, Idx);
      MProc Proc;
      Proc.FullName = Full;
      Proc.Exported = F.Exported;
      Procs.push_back(std::move(Proc));

      uint32_t SymIdx = internSymbol(Full);
      obj::Symbol &S = Obj.Symbols[SymIdx];
      S.IsDefined = true;
      S.IsProcedure = true;
      S.IsExported = F.Exported;
      S.Section = obj::SectionKind::Text;
    }
  }
  for (const lang::Module *M : UnitModules) {
    for (const lang::Function &F : M->Functions) {
      MProc &Proc = Procs[ProcIndexByName[M->Name + "." + F.Name]];
      ProcGen Gen(*this, *M, F, Proc);
      if (Error E = Gen.run())
        return E;
      if (Opts.Schedule)
        scheduleProc(Proc);
    }
  }
  return Error::success();
}

void UnitBuilder::scheduleProc(MProc &Proc) const {
  // Labels name positions, not instructions: every labelled instruction
  // starts a region, and its labels stay at the region head.
  std::vector<MInst> &Insts = Proc.Insts;
  std::vector<Inst> Code;
  Code.reserve(Insts.size());
  std::vector<bool> Labelled(Insts.size(), false);
  std::vector<std::vector<uint32_t>> LabelsAt(Insts.size());
  for (size_t I = 0; I < Insts.size(); ++I) {
    Code.push_back(Insts[I].I);
    Labelled[I] = !Insts[I].LabelsHere.empty();
    LabelsAt[I] = std::move(Insts[I].LabelsHere);
  }
  std::vector<size_t> Order = sched::scheduleWithBarriers(Code, Labelled);
  std::vector<MInst> NewInsts;
  NewInsts.reserve(Insts.size());
  for (size_t I = 0; I < Order.size(); ++I) {
    NewInsts.push_back(std::move(Insts[Order[I]]));
    NewInsts.back().LabelsHere = std::move(LabelsAt[I]);
  }
  Insts = std::move(NewInsts);
}

void UnitBuilder::emitProcCode(uint32_t ProcIdx, uint64_t Base) {
  MProc &Proc = Procs[ProcIdx];

  // First pass: instruction offsets, label table, GP-pair positions.
  std::map<uint32_t, uint64_t> LabelOffset;
  std::map<uint32_t, uint64_t> GpLdahOffset;
  std::map<uint32_t, uint64_t> GpLdaOffset;
  for (size_t I = 0; I < Proc.Insts.size(); ++I) {
    uint64_t Off = Base + I * 4;
    for (uint32_t L : Proc.Insts[I].LabelsHere)
      LabelOffset[L] = Off;
    if (Proc.Insts[I].N == Note::GpLdah)
      GpLdahOffset[Proc.Insts[I].GpPairId] = Off;
    else if (Proc.Insts[I].N == Note::GpLda)
      GpLdaOffset[Proc.Insts[I].GpPairId] = Off;
  }

  // Second pass: patch local control flow, create relocations, encode.
  uint64_t LastJsrOffset = 0;
  for (size_t I = 0; I < Proc.Insts.size(); ++I) {
    MInst &MI = Proc.Insts[I];
    uint64_t Off = Base + I * 4;
    switch (MI.N) {
    case Note::None:
      break;
    case Note::Literal: {
      obj::Reloc R;
      R.Kind = obj::RelocKind::Literal;
      R.Offset = Off;
      R.GatIndex = MI.GatIndex;
      R.LiteralId = MI.LiteralId;
      Obj.Relocs.push_back(R);
      break;
    }
    case Note::LituseBase:
    case Note::LituseJsr:
    case Note::LituseAddr:
    case Note::LituseDeref: {
      obj::Reloc R;
      R.Kind = MI.N == Note::LituseBase ? obj::RelocKind::LituseBase
               : MI.N == Note::LituseJsr ? obj::RelocKind::LituseJsr
               : MI.N == Note::LituseAddr ? obj::RelocKind::LituseAddr
                                          : obj::RelocKind::LituseDeref;
      R.Offset = Off;
      R.LiteralId = MI.LiteralId;
      Obj.Relocs.push_back(R);
      break;
    }
    case Note::GpLdah: {
      obj::Reloc R;
      R.Kind = obj::RelocKind::GpDisp;
      R.Offset = Off;
      R.GpKind = MI.GpKind == obj::GpDispKind::Prologue ? 0 : 1;
      R.AnchorOffset = MI.GpKind == obj::GpDispKind::Prologue
                           ? Base
                           : LastJsrOffset + 4;
      assert(GpLdaOffset.count(MI.GpPairId) && "unpaired GP ldah");
      R.PairOffset = GpLdaOffset[MI.GpPairId] - Off;
      Obj.Relocs.push_back(R);
      break;
    }
    case Note::GpLda:
      break; // covered by its GpLdah's PairOffset
    case Note::LocalBranch: {
      assert(LabelOffset.count(MI.Label) && "branch to unbound label");
      int64_t Disp =
          (static_cast<int64_t>(LabelOffset[MI.Label]) -
           static_cast<int64_t>(Off) - 4) / 4;
      MI.I.Disp = static_cast<int32_t>(Disp);
      break;
    }
    case Note::LocalCall: {
      int64_t Disp = (static_cast<int64_t>(ProcBase[MI.Callee]) -
                      static_cast<int64_t>(Off) - 4) / 4;
      MI.I.Disp = static_cast<int32_t>(Disp);
      break;
    }
    }
    if (MI.I.Op == Opcode::Jsr)
      LastJsrOffset = Off;
    uint32_t Word = encode(MI.I);
    for (unsigned Byte = 0; Byte < 4; ++Byte)
      Obj.Text.push_back(static_cast<uint8_t>(Word >> (8 * Byte)));
  }
}

void UnitBuilder::emitObject() {
  // Procedure layout: 16-byte aligned entries, nop padding between.
  ProcBase.resize(Procs.size());
  uint64_t Cur = 0;
  for (size_t Idx = 0; Idx < Procs.size(); ++Idx) {
    Cur = (Cur + 15) & ~15ull;
    ProcBase[Idx] = Cur;
    Cur += Procs[Idx].Insts.size() * 4;
  }

  uint32_t NopWord = encode(Inst::nop());
  for (size_t Idx = 0; Idx < Procs.size(); ++Idx) {
    while (Obj.Text.size() < ProcBase[Idx])
      for (unsigned Byte = 0; Byte < 4; ++Byte)
        Obj.Text.push_back(static_cast<uint8_t>(NopWord >> (8 * Byte)));

    MProc &Proc = Procs[Idx];
    uint32_t SymIdx = SymIndexByName[Proc.FullName];
    obj::Symbol &S = Obj.Symbols[SymIdx];
    S.Offset = ProcBase[Idx];
    S.Size = Proc.Insts.size() * 4;

    obj::ProcDesc Desc;
    Desc.SymbolIndex = SymIdx;
    Desc.TextOffset = ProcBase[Idx];
    Desc.TextSize = Proc.Insts.size() * 4;
    Desc.UsesGp = Proc.UsesGp;
    Obj.Procs.push_back(Desc);

    emitProcCode(static_cast<uint32_t>(Idx), ProcBase[Idx]);
  }
}

Result<obj::ObjectFile> UnitBuilder::build() {
  if (UnitModules.empty())
    return Result<obj::ObjectFile>::failure("empty compilation unit");
  Obj.ModuleName = UnitModules.front()->Name;
  for (size_t Idx = 1; Idx < UnitModules.size(); ++Idx)
    Obj.ModuleName += "+" + UnitModules[Idx]->Name;

  collectAddressTaken();
  layoutGlobals();
  if (Error E = generateProcs())
    return Result<obj::ObjectFile>::failure(E.message());
  emitObject();
  if (Error E = Obj.verify())
    return Result<obj::ObjectFile>::failure("codegen produced invalid "
                                            "object: " +
                                            E.message());
  return std::move(Obj);
}

Result<obj::ObjectFile>
om64::cg::compileUnit(const lang::Program &P,
                      const std::vector<std::string> &Modules,
                      const CompileOptions &Opts) {
  UnitBuilder Builder(P, Modules, Opts);
  return Builder.build();
}

Result<std::vector<obj::ObjectFile>>
om64::cg::compileEach(const lang::Program &P,
                      const std::vector<std::string> &Modules,
                      const CompileOptions &Opts) {
  std::vector<obj::ObjectFile> Objects;
  CompileOptions EachOpts = Opts;
  EachOpts.InterUnit = false;
  for (const std::string &Name : Modules) {
    Result<obj::ObjectFile> Obj = compileUnit(P, {Name}, EachOpts);
    if (!Obj)
      return Result<std::vector<obj::ObjectFile>>::failure(Obj.message());
    Objects.push_back(Obj.take());
  }
  return Objects;
}
