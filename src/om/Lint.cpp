//===- om/Lint.cpp - Binary lint and its memory domain --------------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//

#include "om/Lint.h"

#include "isa/Registers.h"
#include "om/AnalysisImpl.h"
#include "support/Format.h"

#include <algorithm>
#include <array>

using namespace om64;
using namespace om64::isa;
using namespace om64::om;
using namespace om64::om::analysis;
using namespace om64::om::analysis::detail;

namespace {

//===----------------------------------------------------------------------===//
// Memory abstract domain
//===----------------------------------------------------------------------===//

/// The memory-side abstract value of a register: where it points (or what
/// it holds) relative to the procedure's entry state. This is the domain
/// under lint codes L006..L010 — byte-precise stack-frame tracking, GAT
/// slot provenance, and callee-saved preservation proofs. Unknown is top;
/// the meet of disagreeing values is Unknown.
struct MemVal {
  enum class K : uint8_t {
    Unknown,
    SpRel,   // entry-SP + Off (the frame pointer family)
    SavedOf, // still holds the entry value of register unit Id
    GatAddr, // &Syms[Id] + Off, proven through a GAT load
  };
  int64_t Off = 0; // SpRel / GatAddr byte offset
  uint32_t Id = 0; // SavedOf: register unit; GatAddr: symbol id
  K Kind = K::Unknown; // last: 16 bytes in all

  static MemVal unknown() { return {}; }
  static MemVal spRel(int64_t O) { return {O, 0, K::SpRel}; }
  static MemVal savedOf(unsigned U) { return {0, U, K::SavedOf}; }
  static MemVal gatAddr(uint32_t Sym, int64_t O) {
    return {O, Sym, K::GatAddr};
  }

  bool operator==(const MemVal &O) const = default;

  static MemVal meet(const MemVal &A, const MemVal &B) {
    return A == B ? A : unknown();
  }
};

/// One tracked frame slot: entry-SP-relative byte offset and value.
using FrameSlot = std::pair<int64_t, MemVal>;

/// Memory abstract state at a program point: one MemVal per register unit
/// plus the tracked frame slots. Slots are keyed by entry-SP-relative byte
/// offset and record full-width (8-byte) stores through a provably
/// SP-relative base; any overlapping store invalidates them, and joins
/// keep only slots both paths agree on. Unreachable mirrors
/// ValueState::Unreachable exactly (the two states advance in lockstep).
struct MemState {
  std::array<MemVal, 64> R;
  std::vector<FrameSlot> Slots; // sorted by offset
  bool Unreachable = true;

  /// Returns the tracked value at \p Off, or null.
  const MemVal *slot(int64_t Off) const {
    auto It = std::ranges::lower_bound(Slots, Off, {}, &FrameSlot::first);
    return It != Slots.end() && It->first == Off ? &It->second : nullptr;
  }
  /// Sets (or inserts) the slot at \p Off, keeping the vector sorted.
  void setSlot(int64_t Off, const MemVal &V) {
    auto It = std::ranges::lower_bound(Slots, Off, {}, &FrameSlot::first);
    if (It != Slots.end() && It->first == Off)
      It->second = V;
    else
      Slots.insert(It, {Off, V});
  }
  /// Drops every tracked slot overlapping [Off, Off + Size). Slots are 8
  /// bytes wide: [SlotOff, SlotOff + 8) overlaps the store iff
  /// SlotOff > Off - 8 and SlotOff < Off + Size.
  void invalidateSlots(int64_t Off, int64_t Size) {
    Slots.erase(
        std::ranges::lower_bound(Slots, Off - 7, {}, &FrameSlot::first),
        std::ranges::lower_bound(Slots, Off + Size, {}, &FrameSlot::first));
  }
};

const char *unitName(unsigned U) {
  return U < 32 ? intRegName(static_cast<uint8_t>(U))
                : fpRegName(static_cast<uint8_t>(U - 32));
}

/// Register units the L007 audit examines at returns: the callee-saved
/// set without RA. A call rewrites RA by design, so RA misuse surfaces
/// through its save slot (L008) rather than as a preservation failure.
uint64_t calleeSavedUnits() {
  uint64_t M = 0;
  for (unsigned R = S0; R <= S5; ++R)
    M |= unitBit(intUnit(static_cast<uint8_t>(R)));
  M |= unitBit(intUnit(FP));
  for (unsigned F = 2; F <= 9; ++F)
    M |= unitBit(fpUnit(static_cast<uint8_t>(F)));
  return M;
}

const uint64_t CalleeSavedMask = calleeSavedUnits();

/// One data-memory access, classified for the memory-domain checks. Lda
/// and Ldah are address arithmetic, not accesses.
struct MemAccess {
  bool IsMem = false;
  bool IsStore = false;
  int64_t Size = 0;
};

MemAccess accessOf(const Inst &I) {
  switch (I.Op) {
  case Opcode::Ldl:
    return {true, false, 4};
  case Opcode::Ldq:
  case Opcode::Ldt:
    return {true, false, 8};
  case Opcode::Stl:
    return {true, true, 4};
  case Opcode::Stq:
  case Opcode::Stt:
    return {true, true, 8};
  default:
    return {};
  }
}

/// Register unit a store's value comes from (STT stores an fp register).
unsigned storedUnit(const Inst &I) {
  return I.Op == Opcode::Stt ? fpUnit(I.Ra) : intUnit(I.Ra);
}

void setMemUnit(MemState &M, unsigned U, const MemVal &V) {
  if (U == ~0u || isZeroUnit(U))
    return;
  M.R[U] = V;
}

/// Forward transfer of one instruction over a memory state, under the
/// callees' PreservedSaved masks \p Saved. \p S is the value state
/// *before* the instruction (callers run applyMem first, then applyInst):
/// it supplies the GP proof for AddressLoad and nothing else.
/// Mirrors applyInst's reachability cut at provably non-returning calls,
/// so MemState::Unreachable stays in lockstep with ValueState's.
void applyMem(const TransferCtx &C, const std::vector<uint64_t> &Saved,
              const SymProc &Proc, const SymInst &SI, const ValueState &S,
              MemState &M) {
  if (M.Unreachable || SI.Nullified)
    return;
  const Inst &I = SI.I;

  switch (SI.Kind) {
  case SKind::GpHigh:
  case SKind::GpLow:
    M.R[GpUnit] = MemVal::unknown();
    return;
  case SKind::AddressLoad: {
    // GAT slot provenance: the loaded register is &TargetSym exactly when
    // the value transfer proves it (procedure addresses are not tracked —
    // no data access ever goes through one legitimately).
    MemVal V = MemVal::unknown();
    bool Proven = C.ResolveEntry
                      ? gpProvenAt(Proc.GpGroup, S.Gp, *C.ResolveEntry)
                      : S.Gp.provenGroup(Proc.GpGroup);
    if (Proven && SI.TargetSym < C.SP.Syms.size() &&
        !C.SP.Syms[SI.TargetSym].IsProc)
      V = MemVal::gatAddr(SI.TargetSym, 0);
    setMemUnit(M, intUnit(I.Ra), V);
    return;
  }
  default:
    break;
  }

  if (isCall(SI)) {
    // Callee-saved facts survive a call only when the callee provably
    // preserves the unit; invisible callees (indirect sites the program
    // analysis cannot enumerate) are assumed convention-abiding, so L007
    // only ever fires on a positive proof. SP is restored by every
    // convention-abiding callee; the frame slots survive because no
    // callee can name this frame (MLang has no address-of-local — the
    // same caveat memBaseRegions and the rescheduler rely on).
    uint32_t Callee = calleeOf(C.SP, SI);
    uint64_t Preserved = ~0ull;
    bool Returns = C.IndirectReturns;
    if (Callee != ~0u && Callee < C.Summaries.size()) {
      Preserved = Saved[Callee];
      Returns = C.Summaries[Callee].Returns;
    }
    if (!Returns) {
      // Everything after this call is unreachable. Reset in place: the
      // walking state's slot buffer is scratch, reused across blocks.
      M.R.fill(MemVal::unknown());
      M.Slots.clear();
      M.Unreachable = true;
      return;
    }
    for (unsigned U = 0; U < NumRegUnits; ++U) {
      if (isZeroUnit(U) || U == SpUnit)
        continue;
      if ((CalleeSavedMask & unitBit(U)) && (Preserved & unitBit(U)))
        continue;
      M.R[U] = MemVal::unknown();
    }
    return;
  }

  MemAccess A = accessOf(I);
  if (A.IsMem) {
    const MemVal Base = M.R[intUnit(I.Rb)];
    if (A.IsStore) {
      if (Base.Kind == MemVal::K::SpRel) {
        int64_t Addr = Base.Off + I.Disp;
        M.invalidateSlots(Addr, A.Size);
        if (A.Size == 8)
          M.setSlot(Addr, M.R[storedUnit(I)]);
      }
      // Stores through global-derived or unknown bases cannot touch this
      // frame's slots: globals live in a disjoint segment, and no pointer
      // into the stack escapes (no address-of-local; DESIGN.md records
      // the caveat).
      return;
    }
    MemVal V = MemVal::unknown();
    if (Base.Kind == MemVal::K::SpRel && A.Size == 8)
      if (const MemVal *Slot = M.slot(Base.Off + I.Disp))
        V = *Slot;
    setMemUnit(M, regUnitWritten(I), V);
    return;
  }

  switch (classOf(I.Op)) {
  case InstClass::LoadAddress: {
    const MemVal Base = M.R[intUnit(I.Rb)];
    MemVal V = MemVal::unknown();
    if (I.Op == Opcode::Lda) {
      if (Base.Kind == MemVal::K::SpRel)
        V = MemVal::spRel(Base.Off + I.Disp);
      else if (Base.Kind == MemVal::K::GatAddr)
        V = MemVal::gatAddr(Base.Id, Base.Off + I.Disp);
      else if (I.Disp == 0)
        V = Base; // a zero-displacement LDA is a move
    }
    setMemUnit(M, intUnit(I.Ra), V);
    return;
  }
  case InstClass::IntOp: {
    MemVal V = MemVal::unknown();
    if (I.Op == Opcode::Bis) {
      if (I.Ra == Zero && !I.IsLit)
        V = M.R[intUnit(I.Rb)];
      else if (!I.IsLit && I.Rb == Zero)
        V = M.R[intUnit(I.Ra)];
      else if (I.IsLit && I.Lit == 0)
        V = M.R[intUnit(I.Ra)];
    }
    setMemUnit(M, intUnit(I.Rc), V);
    return;
  }
  case InstClass::FpOp: {
    MemVal V = MemVal::unknown();
    if (I.Op == Opcode::Cpys && I.Ra == I.Rb)
      V = M.R[fpUnit(I.Ra)]; // the exact fp move
    setMemUnit(M, regUnitWritten(I), V);
    return;
  }
  default:
    setMemUnit(M, regUnitWritten(I), MemVal::unknown());
    return;
  }
}

/// A block's memory entry state with its frame slots stored out of line,
/// as [SlotBegin, SlotBegin + NumSlots) of LintScratch::Slots. A block's
/// slot set is written once, when the block is first reached; after that
/// meets only intersect it, so it shrinks in place and never moves.
struct MemIn {
  std::array<MemVal, 64> R;
  uint32_t SlotBegin = 0;
  uint32_t NumSlots = 0;
  bool Unreachable = true;
};

/// One worker's reused buffers for a lint walk: the block-entry value
/// states, the memory entry state of every block with all their frame
/// slots in one flat vector, and the walking memory state. They grow to
/// the largest procedure seen and are never shrunk.
struct LintScratch {
  std::vector<ValueState> VIn;
  std::vector<MemIn> MIn;
  std::vector<FrameSlot> Slots;
  MemState M;

  /// Starts a procedure: only the entry block is reached, with SP the frame
  /// anchor and each callee-saved unit and RA (L008) holding its own value.
  void reset(size_t NumBlocks) {
    MIn.assign(NumBlocks, MemIn());
    Slots.clear();
    std::array<MemVal, 64> &R = MIn[0].R;
    MIn[0].Unreachable = false;
    R[SpUnit] = MemVal::spRel(0);
    for (unsigned U = 0; U < NumRegUnits; ++U)
      if ((CalleeSavedMask | unitBit(RaUnit)) & unitBit(U))
        R[U] = MemVal::savedOf(U);
  }

  /// Copies block \p B's memory entry state into \p Out.
  void loadMem(uint32_t B, MemState &Out) const {
    const MemIn &In = MIn[B];
    Out.R = In.R;
    Out.Slots.assign(Slots.begin() + In.SlotBegin,
                     Slots.begin() + In.SlotBegin + In.NumSlots);
    Out.Unreachable = In.Unreachable;
  }

  /// Meets \p From into block \p B's memory entry state in place,
  /// keeping only the frame slots both agree on; true when it changed.
  bool meetMem(uint32_t B, const MemState &From) {
    if (From.Unreachable)
      return false;
    MemIn &Into = MIn[B];
    if (Into.Unreachable) {
      Into.R = From.R;
      Into.SlotBegin = static_cast<uint32_t>(Slots.size());
      Into.NumSlots = static_cast<uint32_t>(From.Slots.size());
      Slots.insert(Slots.end(), From.Slots.begin(), From.Slots.end());
      Into.Unreachable = false;
      return true;
    }
    bool Changed = false;
    for (unsigned U = 0; U < NumRegUnits; ++U) {
      MemVal V = MemVal::meet(Into.R[U], From.R[U]);
      if (!(V == Into.R[U])) {
        Into.R[U] = V;
        Changed = true;
      }
    }
    // Sorted intersection, compacted within the block's own range.
    FrameSlot *Own = Slots.data() + Into.SlotBegin;
    uint32_t Kept = 0;
    size_t A = 0, F = 0;
    while (A < Into.NumSlots && F < From.Slots.size()) {
      if (Own[A].first < From.Slots[F].first) {
        ++A;
      } else if (From.Slots[F].first < Own[A].first) {
        ++F;
      } else {
        if (Own[A].second == From.Slots[F].second)
          Own[Kept++] = Own[A];
        ++A;
        ++F;
      }
    }
    if (Kept != Into.NumSlots) {
      Into.NumSlots = Kept;
      Changed = true;
    }
    return Changed;
  }
};

/// The calling thread's scratch. Pool workers live as long as their pool,
/// so a link's workers release theirs when the link's pool goes.
LintScratch &workerScratch() {
  thread_local LintScratch Scratch;
  return Scratch;
}

/// The memory domain riding a lint walk's value fixpoint (solveProc).
struct MemRider {
  const TransferCtx &C;
  const std::vector<uint64_t> &Saved;
  const SymProc &Proc;
  LintScratch &Scr;

  void enter(uint32_t B) { Scr.loadMem(B, Scr.M); }
  void step(const SymInst &SI, const ValueState &S) {
    applyMem(C, Saved, Proc, SI, S, Scr.M);
  }
  bool meet(uint32_t Succ) { return Scr.meetMem(Succ, Scr.M); }
};

//===----------------------------------------------------------------------===//
// Lint
//===----------------------------------------------------------------------===//

/// Shortest path (by block count) from the entry block to \p Target; empty
/// when Target is unreachable. The result lists blocks in forward order.
std::vector<uint32_t> shortestBlockPath(const Cfg &C, uint32_t Target) {
  std::vector<uint32_t> Path;
  if (C.Blocks.empty() || Target >= C.Blocks.size())
    return Path;
  // Prev[B] is ~0u until B is reached; the entry block is its own.
  std::vector<uint32_t> Prev(C.Blocks.size(), ~0u);
  std::vector<uint32_t> Queue = {0};
  Prev[0] = 0;
  for (size_t Q = 0; Q < Queue.size() && Prev[Target] == ~0u; ++Q) {
    uint32_t B = Queue[Q];
    for (uint32_t S = 0; S < C.Blocks[B].NumSuccs; ++S) {
      uint32_t T = C.Blocks[B].Succs[S];
      if (Prev[T] == ~0u) {
        Prev[T] = B;
        Queue.push_back(T);
      }
    }
  }
  if (Prev[Target] == ~0u)
    return Path;
  for (uint32_t B = Target; B != 0; B = Prev[B])
    Path.push_back(B);
  Path.push_back(0);
  std::reverse(Path.begin(), Path.end());
  return Path;
}

/// One-line description of a witness step.
std::string describeStep(const SymInst &SI) {
  if (isCall(SI))
    return formatString("%s: call (callee facts applied)",
                        opcodeName(SI.I.Op));
  if (isStore(SI.I.Op))
    return formatString("%s stores %s", opcodeName(SI.I.Op),
                        SI.I.Op == Opcode::Stt ? fpRegName(SI.I.Ra)
                                               : intRegName(SI.I.Ra));
  unsigned W = regUnitWritten(SI.I);
  if (W != ~0u)
    return formatString("%s writes %s", opcodeName(SI.I.Op), unitName(W));
  return opcodeName(SI.I.Op);
}

/// Builds a finding's witness path: the shortest CFG path from the
/// procedure entry to the defect block, replayed through both abstract
/// transfers, keeping the instructions that write a watched register unit
/// or store into the watched frame slot (plus calls — they apply callee
/// facts to the watched units). Always non-empty: the entry fact and the
/// defect site frame the trace.
std::vector<LintWitnessStep>
buildWitness(const TransferCtx &Ctx, const std::vector<uint64_t> &Saved,
             const SymProc &Proc, const Cfg &C, const LintScratch &Scr,
             uint32_t DefBlock, uint32_t DefInst, uint64_t WatchUnits,
             bool WatchSlot, int64_t SlotOff, std::string DefectNote) {
  std::vector<LintWitnessStep> W;
  constexpr size_t MaxSteps = 12;
  std::vector<uint32_t> Path = shortestBlockPath(C, DefBlock);
  if (Path.empty()) {
    W.push_back({DefInst, "no path from the procedure entry reaches this "
                          "block (the defect is the block itself)"});
    W.push_back({DefInst, std::move(DefectNote)});
    return W;
  }
  W.push_back({C.Blocks[0].Begin,
               "entry: argument, callee-saved, and linkage registers hold "
               "caller values; sp anchors the frame"});
  size_t Elided = 0;
  ValueState S;
  MemState M;
  for (uint32_t B : Path) {
    S = Scr.VIn[B];
    Scr.loadMem(B, M);
    const CfgBlock &Blk = C.Blocks[B];
    uint32_t End = B == DefBlock ? DefInst : Blk.End;
    for (uint32_t I = Blk.Begin; I < End; ++I) {
      const SymInst &SI = Proc.Insts[I];
      bool Relevant = false;
      if (!SI.Nullified && !S.Unreachable) {
        unsigned Wr = regUnitWritten(SI.I);
        if (Wr != ~0u && (WatchUnits & unitBit(Wr)))
          Relevant = true;
        if (isCall(SI) && WatchUnits != 0)
          Relevant = true;
        if (WatchSlot && isStore(SI.I.Op)) {
          MemAccess A = accessOf(SI.I);
          const MemVal Base = M.R[intUnit(SI.I.Rb)];
          if (Base.Kind == MemVal::K::SpRel) {
            int64_t Addr = Base.Off + SI.I.Disp;
            if (Addr < SlotOff + 8 && Addr + A.Size > SlotOff)
              Relevant = true;
          }
        }
      }
      if (Relevant) {
        if (W.size() < MaxSteps)
          W.push_back({I, describeStep(SI)});
        else
          ++Elided;
      }
      applyMem(Ctx, Saved, Proc, SI, S, M);
      applyInst(Ctx, Proc, SI, S);
    }
  }
  if (Elided)
    W.push_back({DefInst, formatString("... %zu more steps elided",
                                       Elided)});
  W.push_back({DefInst, std::move(DefectNote)});
  return W;
}

/// Lints one procedure under its callees' PreservedSaved masks \p Saved:
/// replaces \p Out with its findings (sorted by instruction, then code)
/// and returns its own mask. Runs a procedure-local value+memory fixpoint
/// with the converged entry-GP summary resolved in, so GAT provenance
/// crosses procedure boundaries exactly as the L002 proof does.
uint64_t lintProc(const TransferCtx &BaseCtx,
                  const std::vector<uint64_t> &Saved,
                  const SymbolicProgram &SP, const ProgramAnalysis &PA,
                  uint32_t ProcIdx, std::vector<LintFinding> &Out) {
  const SymProc &Proc = SP.Procs[ProcIdx];
  const Cfg &C = *PA.Cfgs[ProcIdx];
  Out.clear();
  uint64_t Mask = ~0ull;
  if (Proc.Insts.empty() || C.Blocks.empty())
    return Mask;

  const GpVal EntryGp = PA.Summaries[ProcIdx].EntryGp;
  TransferCtx Ctx = BaseCtx;
  Ctx.ResolveEntry = &EntryGp;

  // Procedure-local combined fixpoint: OM's value walk (plus entry-GP
  // resolution for AddressLoad provenance) with the memory domain riding.
  LintScratch &Scr = workerScratch();
  Scr.reset(C.Blocks.size());
  MemRider Mem{Ctx, Saved, Proc, Scr};
  solveProc(Ctx, ProcIdx, C, Scr.VIn, Mem);
  const std::vector<ValueState> &VIn = Scr.VIn;

  auto report = [&](uint32_t InstIdx, const char *Code, std::string Msg,
                    uint64_t WatchUnits, bool WatchSlot, int64_t SlotOff,
                    std::string DefectNote) {
    LintFinding F;
    F.Code = Code;
    F.ProcIdx = ProcIdx;
    F.Proc = Proc.Name;
    F.InstIdx = InstIdx;
    F.Message = std::move(Msg);
    uint32_t DefBlock =
        C.BlockOf[std::min<size_t>(InstIdx, C.BlockOf.size() - 1)];
    F.Witness = buildWitness(Ctx, Saved, Proc, C, Scr, DefBlock, InstIdx,
                             WatchUnits, WatchSlot, SlotOff,
                             std::move(DefectNote));
    Out.push_back(std::move(F));
  };

  ValueState S;
  MemState &M = Scr.M;
  for (uint32_t B = 0; B < C.Blocks.size(); ++B) {
    if (!C.Blocks[B].Reachable)
      continue;
    S = VIn[B];
    Scr.loadMem(B, M);
    const CfgBlock &Blk = C.Blocks[B];
    for (uint32_t I = Blk.Begin; I < Blk.End; ++I) {
      const SymInst &SI = Proc.Insts[I];
      if (SI.Nullified || S.Unreachable) {
        applyMem(Ctx, Saved, Proc, SI, S, M);
        applyInst(Ctx, Proc, SI, S);
        continue;
      }
      // L001: a read of a register no path has written since entry.
      unsigned Units[3];
      unsigned NR = regUnitsRead(SI.I, Units);
      for (unsigned K = 0; K < NR; ++K) {
        unsigned U = Units[K];
        if (!isZeroUnit(U) && S.R[U].Kind == ValueKind::Uninit) {
          report(I, "L001",
                 formatString("L001: reads uninitialized register %s at +%u",
                              unitName(U), I * 4),
                 unitBit(U), false, 0,
                 formatString("reads %s, which no path has written",
                              unitName(U)));
          break;
        }
      }
      // L002: a GAT address load whose GP is not provably this group's.
      if (SI.Kind == SKind::AddressLoad) {
        bool NeverEntered = S.Gp.MaybeEntry && EntryGp.isBottom();
        if (!NeverEntered && !gpProvenAt(Proc.GpGroup, S.Gp, EntryGp))
          report(I, "L002",
                 formatString("L002: GAT address load at +%u is reachable "
                              "with a wrong or unknown GP",
                              I * 4),
                 unitBit(GpUnit), false, 0,
                 "GAT load here: GP is not provably this group's value");
      }
      // L005: call-convention violations.
      if (SI.Kind == SKind::JsrViaGat) {
        const LitInfo *L = SP.lit(SI.LitId);
        if (L && L->TargetSym < SP.Syms.size() &&
            !SP.Syms[L->TargetSym].IsProc)
          report(I, "L005",
                 formatString("L005: call at +%u targets data symbol '%s'",
                              I * 4,
                              SP.Syms[L->TargetSym].Name.c_str()),
                 0, false, 0, "call through a data symbol's GAT slot");
      }
      if ((SI.I.Op == Opcode::Jsr ||
           (SI.Kind == SKind::DirectCall && SI.I.Op == Opcode::Bsr)) &&
          SI.I.Ra != RA)
        report(I, "L005",
               formatString("L005: call at +%u links through %s instead "
                            "of ra",
                            I * 4, intRegName(SI.I.Ra)),
               0, false, 0, "call links through the wrong register");
      if (SI.I.Op == Opcode::Ret && SI.I.Rb != RA)
        report(I, "L005",
               formatString("L005: return at +%u through %s instead of ra",
                            I * 4, intRegName(SI.I.Rb)),
               0, false, 0, "return through the wrong register");

      // Memory-domain checks. The GAT slot load itself (base GP) never
      // trips them: GP's MemVal is always Unknown.
      MemAccess A = accessOf(SI.I);
      if (A.IsMem) {
        const MemVal Base = M.R[intUnit(SI.I.Rb)];
        const MemVal CurSp = M.R[SpUnit];
        // L006: a provably SP-relative access outside the live frame
        // [current sp, entry sp). Incoming arguments are register-passed,
        // so nothing above the entry SP is ever legitimately addressed.
        if (Base.Kind == MemVal::K::SpRel &&
            CurSp.Kind == MemVal::K::SpRel) {
          int64_t Lo = Base.Off + SI.I.Disp;
          int64_t Hi = Lo + A.Size;
          if (Lo < CurSp.Off || Hi > 0)
            report(I, "L006",
                   formatString("L006: stack access at +%u is out of frame "
                                "bounds (entry-sp%+lld, frame is [%lld, 0))",
                                I * 4, static_cast<long long>(Lo),
                                static_cast<long long>(CurSp.Off)),
                   unitBit(intUnit(SI.I.Rb)) | unitBit(SpUnit), false, 0,
                   formatString("accesses [entry-sp%+lld, entry-sp%+lld) "
                                "outside the frame",
                                static_cast<long long>(Lo),
                                static_cast<long long>(Hi)));
        }
        // L009: a GAT-proven data access outside the symbol's bounds or
        // misaligned for its width.
        if (Base.Kind == MemVal::K::GatAddr && Base.Id < SP.Syms.size()) {
          const PSym &Sym = SP.Syms[Base.Id];
          if (!Sym.IsProc && Sym.Size > 0) {
            int64_t Lo = Base.Off + SI.I.Disp;
            int64_t Hi = Lo + A.Size;
            if (Lo < 0 || Hi > static_cast<int64_t>(Sym.Size))
              report(I, "L009",
                     formatString("L009: access at +%u to '%s'%+lld is "
                                  "outside the symbol's %llu bytes",
                                  I * 4, Sym.Name.c_str(),
                                  static_cast<long long>(Lo),
                                  static_cast<unsigned long long>(Sym.Size)),
                     unitBit(intUnit(SI.I.Rb)), false, 0,
                     formatString("accesses ['%s'%+lld, '%s'%+lld), "
                                  "outside [0, %llu)",
                                  Sym.Name.c_str(),
                                  static_cast<long long>(Lo),
                                  Sym.Name.c_str(),
                                  static_cast<long long>(Hi),
                                  static_cast<unsigned long long>(Sym.Size)));
            else if (Lo % A.Size != 0)
              report(I, "L009",
                     formatString("L009: access at +%u to '%s'%+lld is "
                                  "misaligned for its %lld-byte width",
                                  I * 4, Sym.Name.c_str(),
                                  static_cast<long long>(Lo),
                                  static_cast<long long>(A.Size)),
                     unitBit(intUnit(SI.I.Rb)), false, 0,
                     "misaligned GAT-relative access");
          }
        }
        if (A.IsStore) {
          unsigned SU = storedUnit(SI.I);
          // L008: overwriting a slot that still holds the saved return
          // address with anything else.
          if (Base.Kind == MemVal::K::SpRel) {
            int64_t Lo = Base.Off + SI.I.Disp;
            for (const auto &[SlotOff, V] : M.Slots) {
              if (SlotOff >= Lo + A.Size)
                break;
              if (SlotOff + 8 <= Lo)
                continue;
              if (V == MemVal::savedOf(RaUnit) &&
                  !(M.R[SU] == MemVal::savedOf(RaUnit)))
                report(I, "L008",
                       formatString("L008: store at +%u overwrites the "
                                    "saved return address at entry-sp%+lld",
                                    I * 4, static_cast<long long>(SlotOff)),
                       unitBit(SpUnit) | unitBit(RaUnit), true, SlotOff,
                       "overwrites the slot holding the saved ra");
            }
          }
          // L010: a stack address stored through a global-derived base
          // outlives its frame.
          bool StackVal = S.R[SU].Kind == ValueKind::Stack ||
                          M.R[SU].Kind == MemVal::K::SpRel;
          bool GlobalBase = S.R[intUnit(SI.I.Rb)].isGlobalDerived() ||
                            Base.Kind == MemVal::K::GatAddr;
          if (StackVal && GlobalBase)
            report(I, "L010",
                   formatString("L010: store at +%u leaks a stack address "
                                "to a global location",
                                I * 4),
                   unitBit(SU) | unitBit(intUnit(SI.I.Rb)), false, 0,
                   "stores a stack-derived value through a global base");
        }
      }
      // L007: a callee-saved register not provably holding its entry
      // value at a return.
      if (SI.I.Op == Opcode::Ret) {
        for (unsigned U = 0; U < NumRegUnits; ++U)
          if ((CalleeSavedMask & unitBit(U)) &&
              !(M.R[U] == MemVal::savedOf(U)))
            report(I, "L007",
                   formatString("L007: callee-saved register %s is not "
                                "preserved at the return at +%u",
                                unitName(U), I * 4),
                   unitBit(U), false, 0,
                   formatString("returns with %s not holding its entry "
                                "value",
                                unitName(U)));
      }
      applyMem(Ctx, Saved, Proc, SI, S, M);
      applyInst(Ctx, Proc, SI, S);
    }
    // The procedure's own mask: the callee-saved units still provably
    // holding their entry values after every reachable RET.
    const SymInst &Last = Proc.Insts[Blk.End - 1];
    if (!S.Unreachable && !Last.Nullified && Last.I.Op == Opcode::Ret)
      for (unsigned U = 0; U < NumRegUnits; ++U)
        if ((CalleeSavedMask & unitBit(U)) &&
            !(M.R[U] == MemVal::savedOf(U)))
          Mask &= ~unitBit(U);
  }
  // L003: blocks no path from the procedure entry reaches. Compiled code
  // legitimately contains dead register-only straight-line blocks — the
  // compiler's default-return guard behind an always-taken branch, nop
  // padding — so only blocks with an observable effect (a store, a call,
  // or control flow of their own) are reported.
  for (uint32_t B = 0; B < C.Blocks.size(); ++B) {
    if (C.Blocks[B].Reachable)
      continue;
    bool Observable = false;
    for (uint32_t I = C.Blocks[B].Begin; I < C.Blocks[B].End && !Observable;
         ++I) {
      const SymInst &SI = Proc.Insts[I];
      if (SI.Nullified)
        continue;
      InstClass Cls = classOf(SI.I.Op);
      Observable = isStore(SI.I.Op) || Cls == InstClass::Branch ||
                   Cls == InstClass::Jump || Cls == InstClass::Pal;
    }
    if (Observable)
      report(C.Blocks[B].Begin, "L003",
             formatString("L003: unreachable block at +%u",
                          C.Blocks[B].Begin * 4),
             0, false, 0, "real code with no path from the entry");
  }
  // L004: a reachable path runs past the last instruction into whatever
  // the layout places next.
  if (C.FallsOffEnd) {
    uint32_t FallBlock = 0;
    for (uint32_t B = 0; B < C.Blocks.size(); ++B)
      if (C.Blocks[B].Reachable && C.Blocks[B].FallsOff) {
        FallBlock = B;
        break;
      }
    uint32_t InstIdx = static_cast<uint32_t>(Proc.Insts.size()) - 1;
    LintFinding F;
    F.Code = "L004";
    F.ProcIdx = ProcIdx;
    F.Proc = Proc.Name;
    F.InstIdx = InstIdx;
    F.Message = "L004: control can fall through the end of the procedure";
    F.Witness = buildWitness(Ctx, Saved, Proc, C, Scr, FallBlock,
                             C.Blocks[FallBlock].End, 0, false, 0,
                             "control runs past the last instruction");
    F.Witness.back().InstIdx = InstIdx; // the defect anchors on the last inst
    Out.push_back(std::move(F));
  }
  std::stable_sort(Out.begin(), Out.end(),
                   [](const LintFinding &A, const LintFinding &B) {
                     if (A.InstIdx != B.InstIdx)
                       return A.InstIdx < B.InstIdx;
                     return A.Code < B.Code;
                   });
  return Mask;
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out += {'\\', Ch};
    else if (Ch == '\n')
      Out += "\\n";
    else if (Ch == '\t')
      Out += "\\t";
    else if (static_cast<unsigned char>(Ch) < 0x20)
      Out += formatString("\\u%04x", static_cast<unsigned>(Ch));
    else
      Out += Ch;
  }
  return Out;
}

/// SARIF rule titles, indexed by code number (L001 = 1).
const char *const LintRuleTitles[] = {
    "",
    "read of a provably-uninitialized register",
    "GAT address load reachable with a wrong or unknown GP",
    "unreachable basic block containing real code",
    "control falls through the end of a procedure",
    "call-convention violation",
    "stack access out of frame bounds",
    "callee-saved register clobbered without save/restore",
    "return-address slot overwritten after save",
    "GAT access with mismatched size or alignment",
    "stack address escapes its frame lifetime",
};

/// Every procedure's PreservedSaved mask and its last walk's findings.
struct LintLayer {
  std::vector<uint64_t> Saved;
  std::vector<std::vector<LintFinding>> Findings; // per procedure
};

/// Walks every procedure under the optimistic all-preserved masks, then
/// re-walks, wave by wave, only the callers of procedures whose mask
/// moved, until no mask moves: the greatest fixpoint, reached in waves
/// reduced in procedure order, so it is the same for any pool size.
LintLayer runLint(const SymbolicProgram &SP, const ProgramAnalysis &PA,
                  ThreadPool &Pool) {
  const uint32_t N = static_cast<uint32_t>(SP.Procs.size());
  const TransferCtx Ctx = contextOf(SP, PA);
  // The masks compose under the reachability of the fixpoint's own
  // rounds, whose indirect summary precedes PA's poisoning by calls
  // through data symbols. Of that summary only IndirectReturns moves
  // reachability; where the two disagree, the findings come from one more
  // walk under PA's.
  std::vector<uint32_t> AddressTaken;
  bool AnyComputedJump = false;
  std::vector<std::vector<uint32_t>> Callers(N);
  for (uint32_t P = 0; P < N; ++P) {
    if (SP.Procs[P].AddressTaken)
      AddressTaken.push_back(P);
    AnyComputedJump |= PA.Cfgs[P]->HasComputedJump;
    for (const SymInst &SI : SP.Procs[P].Insts)
      if (isCall(SI))
        if (uint32_t Callee = calleeOf(SP, SI); Callee < N)
          Callers[Callee].push_back(P);
  }
  TransferCtx MaskCtx = Ctx;
  MaskCtx.IndirectReturns =
      roundContext(SP, PA.Summaries, AddressTaken, AnyComputedJump)
          .IndirectReturns;

  LintLayer L;
  L.Saved.assign(N, ~0ull);
  L.Findings.resize(N);
  std::vector<uint64_t> Next(N);
  std::vector<uint8_t> Dirty(N, 1), NextDirty(N);
  for (bool Moved = true; Moved;) {
    Pool.parallelFor(N, [&](size_t P) {
      if (Dirty[P])
        Next[P] = lintProc(MaskCtx, L.Saved, SP, PA,
                           static_cast<uint32_t>(P), L.Findings[P]);
    });
    Moved = false;
    std::fill(NextDirty.begin(), NextDirty.end(), 0);
    for (uint32_t P = 0; P < N; ++P) {
      if (!Dirty[P] || Next[P] == L.Saved[P])
        continue;
      L.Saved[P] = Next[P];
      for (uint32_t Caller : Callers[P])
        NextDirty[Caller] = 1;
      Moved = true;
    }
    Dirty.swap(NextDirty);
  }
  if (MaskCtx.IndirectReturns != Ctx.IndirectReturns)
    Pool.parallelFor(N, [&](size_t P) {
      lintProc(Ctx, L.Saved, SP, PA, static_cast<uint32_t>(P),
               L.Findings[P]);
    });
  return L;
}

} // namespace

std::vector<LintFinding> analysis::lintProgram(const SymbolicProgram &SP,
                                               const ProgramAnalysis &PA,
                                               ThreadPool &Pool) {
  std::vector<LintFinding> Out;
  for (std::vector<LintFinding> &V : runLint(SP, PA, Pool).Findings)
    for (LintFinding &F : V)
      Out.push_back(std::move(F));
  return Out;
}

std::vector<uint64_t> analysis::preservedSaved(const SymbolicProgram &SP,
                                               const ProgramAnalysis &PA,
                                               ThreadPool &Pool) {
  return runLint(SP, PA, Pool).Saved;
}

std::string analysis::renderLintText(const std::vector<LintFinding> &Findings,
                                     bool Explain) {
  std::string Out;
  for (const LintFinding &F : Findings) {
    Out += formatString("lint:%s:%u:0: warning: %s\n", F.Proc.c_str(),
                        F.InstIdx + 1, F.Message.c_str());
    if (!Explain)
      continue;
    unsigned N = 0;
    for (const LintWitnessStep &St : F.Witness)
      Out += formatString("  #%u +%u: %s\n", N++, St.InstIdx * 4,
                          St.Note.c_str());
  }
  return Out;
}

std::string
analysis::renderLintJson(const std::vector<LintFinding> &Findings) {
  std::string Out = "{\"findings\":[";
  bool First = true;
  for (const LintFinding &F : Findings) {
    if (!First)
      Out += ',';
    First = false;
    Out += formatString(
        "{\"code\":\"%s\",\"proc\":\"%s\",\"offset\":%u,\"message\":\"%s\"}",
        jsonEscape(F.Code).c_str(), jsonEscape(F.Proc).c_str(),
        F.InstIdx * 4, jsonEscape(F.Message).c_str());
  }
  Out += "]}\n";
  return Out;
}

std::string
analysis::renderLintSarif(const std::vector<LintFinding> &Findings) {
  std::string Out =
      "{\"$schema\":"
      "\"https://json.schemastore.org/sarif-2.1.0.json\","
      "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
      "\"name\":\"aaxlint\",\"rules\":[";
  for (unsigned Code = 1; Code <= 10; ++Code) {
    if (Code > 1)
      Out += ',';
    Out += formatString("{\"id\":\"L%03u\",\"shortDescription\":{"
                        "\"text\":\"%s\"}}",
                        Code, jsonEscape(LintRuleTitles[Code]).c_str());
  }
  Out += "]}},\"results\":[";
  bool First = true;
  for (const LintFinding &F : Findings) {
    if (!First)
      Out += ',';
    First = false;
    Out += formatString(
        "{\"ruleId\":\"%s\",\"level\":\"warning\","
        "\"message\":{\"text\":\"%s\"},\"locations\":[{"
        "\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"%s\"},"
        "\"region\":{\"startLine\":%u}}}]}",
        jsonEscape(F.Code).c_str(), jsonEscape(F.Message).c_str(),
        jsonEscape(F.Proc).c_str(), F.InstIdx + 1);
  }
  Out += "]}]}\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Lint corpus
//===----------------------------------------------------------------------===//

namespace {

struct CorpusProc {
  std::string Name;
  std::vector<Inst> Insts;
  bool UsesGp = false;
};

obj::ObjectFile makeCorpusObject(const std::vector<CorpusProc> &Procs) {
  obj::ObjectFile O;
  O.ModuleName = "lintcase";
  uint64_t Off = 0;
  for (const CorpusProc &P : Procs) {
    obj::Symbol S;
    S.Name = "lintcase." + P.Name;
    S.Section = obj::SectionKind::Text;
    S.Offset = Off;
    S.Size = P.Insts.size() * 4;
    S.IsProcedure = true;
    S.IsExported = true;
    S.IsDefined = true;
    obj::ProcDesc D;
    D.SymbolIndex = static_cast<uint32_t>(O.Symbols.size());
    D.TextOffset = Off;
    D.TextSize = S.Size;
    D.UsesGp = P.UsesGp;
    O.Symbols.push_back(std::move(S));
    O.Procs.push_back(D);
    for (const Inst &I : P.Insts) {
      uint32_t W = encode(I);
      O.Text.push_back(static_cast<uint8_t>(W));
      O.Text.push_back(static_cast<uint8_t>(W >> 8));
      O.Text.push_back(static_cast<uint8_t>(W >> 16));
      O.Text.push_back(static_cast<uint8_t>(W >> 24));
    }
    Off += P.Insts.size() * 4;
  }
  return O;
}

/// \p O with the 8-byte data symbol lintcase.d and its one GAT slot,
/// loaded by the LITERAL at text offset \p LoadOffset (an LDQ off GP).
obj::ObjectFile withGatDatum(obj::ObjectFile O, uint64_t LoadOffset) {
  obj::Symbol D;
  D.Name = "lintcase.d";
  D.Section = obj::SectionKind::Data;
  D.Offset = 0;
  D.Size = 8;
  D.IsDefined = true;
  uint32_t DIdx = static_cast<uint32_t>(O.Symbols.size());
  O.Symbols.push_back(std::move(D));
  O.Data.assign(8, 0);
  O.Gat.push_back({DIdx, 0});
  obj::Reloc R;
  R.Kind = obj::RelocKind::Literal;
  R.Section = obj::SectionKind::Text;
  R.Offset = LoadOffset;
  R.GatIndex = 0;
  R.LiteralId = 0;
  O.Relocs.push_back(R);
  return O;
}

} // namespace

std::vector<LintCase> analysis::lintCorpus() {
  std::vector<LintCase> Cases;

  // clean: a well-formed module with no findings — the gate's
  // false-positive check.
  {
    CorpusProc Main{"main",
                    {makeMem(Opcode::Lda, V0, 7, Zero),
                     makeJump(Opcode::Ret, Zero, RA)},
                    false};
    Cases.push_back({"", "clean", makeCorpusObject({Main})});
  }

  // L001: the ADDQ reads t0, which no path has written since entry.
  {
    CorpusProc Main{"main",
                    {makeOpLit(Opcode::Addq, T0, 1, V0),
                     makeJump(Opcode::Ret, Zero, RA)},
                    false};
    Cases.push_back({"L001", "uninit_read", makeCorpusObject({Main})});
  }

  // L002: main clobbers GP, then calls f, whose GAT load therefore runs
  // under an unknown GP.
  {
    CorpusProc Main{"main",
                    {makeMem(Opcode::Lda, GP, 0, Zero),
                     makeBranch(Opcode::Bsr, RA, 1), // -> f at +12
                     makeJump(Opcode::Ret, Zero, RA)},
                    false};
    CorpusProc F{"f",
                 {makeMem(Opcode::Ldq, T0, 0, GP),
                  makeJump(Opcode::Ret, Zero, RA)},
                 true};
    Cases.push_back({"L002", "wrong_gp_load",
                     withGatDatum(makeCorpusObject({Main, F}), 12)}); // f's
  }

  // L003: the BR skips over a block nothing branches to; the dead block
  // has its own RET, so it is real code, not a benign dead-value guard.
  {
    CorpusProc Main{"main",
                    {makeBranch(Opcode::Br, Zero, 2), // -> ret at index 3
                     makeMem(Opcode::Lda, V0, 1, Zero),
                     makeJump(Opcode::Ret, Zero, RA),
                     makeJump(Opcode::Ret, Zero, RA)},
                    false};
    Cases.push_back({"L003", "unreachable_block", makeCorpusObject({Main})});
  }

  // L004: main has no terminator and falls into f.
  {
    CorpusProc Main{"main", {makeMem(Opcode::Lda, V0, 0, Zero)}, false};
    CorpusProc F{"f", {makeJump(Opcode::Ret, Zero, RA)}, false};
    Cases.push_back({"L004", "fall_through", makeCorpusObject({Main, F})});
  }

  // L005: an indirect call that links through t0 instead of RA.
  {
    CorpusProc Main{"main",
                    {makeMem(Opcode::Lda, T1, 0, Zero),
                     makeJump(Opcode::Jsr, T0, T1),
                     makeJump(Opcode::Ret, Zero, RA)},
                    false};
    Cases.push_back({"L005", "bad_link_reg", makeCorpusObject({Main})});
  }

  // L006: the store lands at entry-sp-24, below the 16-byte frame.
  {
    CorpusProc Main{"main",
                    {makeMem(Opcode::Lda, SP, -16, SP),
                     makeMem(Opcode::Stq, Zero, -8, SP),
                     makeMem(Opcode::Lda, SP, 16, SP),
                     makeJump(Opcode::Ret, Zero, RA)},
                    false};
    Cases.push_back({"L006", "stack_oob", makeCorpusObject({Main})});
  }

  // L007: s0 is overwritten and never restored before the return.
  {
    CorpusProc Main{"main",
                    {makeMem(Opcode::Lda, S0, 1, Zero),
                     makeJump(Opcode::Ret, Zero, RA)},
                    false};
    Cases.push_back(
        {"L007", "clobbered_saved_reg", makeCorpusObject({Main})});
  }

  // L008: ra is saved at entry-sp-16, then the same slot is overwritten
  // with zero before the restore — the reload yields garbage.
  {
    CorpusProc Main{"main",
                    {makeMem(Opcode::Lda, SP, -16, SP),
                     makeMem(Opcode::Stq, RA, 0, SP),
                     makeMem(Opcode::Stq, Zero, 0, SP),
                     makeMem(Opcode::Ldq, RA, 0, SP),
                     makeMem(Opcode::Lda, SP, 16, SP),
                     makeJump(Opcode::Ret, Zero, RA)},
                    false};
    Cases.push_back({"L008", "ra_slot_overwrite", makeCorpusObject({Main})});
  }

  // L009: the GAT slot resolves to the 8-byte symbol d, but the second
  // load reads [d+8, d+16) — past the end.
  {
    CorpusProc Main{"main",
                    {makeMem(Opcode::Ldq, T1, 0, GP),
                     makeMem(Opcode::Ldq, T0, 8, T1),
                     makeJump(Opcode::Ret, Zero, RA)},
                    true};
    Cases.push_back({"L009", "gat_oob",
                     withGatDatum(makeCorpusObject({Main}), 0)}); // 1st LDQ
  }

  // L010: the frame pointer value (sp itself) is stored into the global
  // d — a stack address escaping its frame's lifetime.
  {
    CorpusProc Main{"main",
                    {makeMem(Opcode::Ldq, T1, 0, GP),
                     makeMem(Opcode::Stq, SP, 0, T1),
                     makeJump(Opcode::Ret, Zero, RA)},
                    true};
    Cases.push_back({"L010", "stack_escape",
                     withGatDatum(makeCorpusObject({Main}), 0)}); // 1st LDQ
  }

  return Cases;
}
