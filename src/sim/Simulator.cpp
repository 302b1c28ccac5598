//===- sim/Simulator.cpp ---------------------------------------------------=//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "isa/Disassembler.h"
#include "isa/Inst.h"
#include "support/Format.h"
#include "support/Stopwatch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <map>
#include <vector>

using namespace om64;
using namespace om64::sim;
using namespace om64::isa;
using namespace om64::obj;

// The core dispatches by computed goto, the GNU/Clang `&&label` extension.
#if !defined(__GNUC__) && !defined(__clang__)
#error "the simulator core needs the GNU/Clang labels-as-values extension"
#endif

namespace {

/// Direct-mapped cache tag store, indexed by shift and mask: sim::run
/// accepts only power-of-two geometry. Functional runs keep the
/// default-constructed, never-accessed empty store.
class Cache {
public:
  Cache() = default;
  explicit Cache(const CacheConfig &Cfg)
      : LineShift(static_cast<unsigned>(std::countr_zero(Cfg.LineBytes))),
        Penalty(Cfg.MissPenalty),
        IndexMask(Cfg.SizeBytes / Cfg.LineBytes - 1),
        Tags(IndexMask + 1, ~0ull) {}

  /// Returns the miss penalty (0 on hit) and updates the tag store.
  unsigned access(uint64_t Addr) { return accessLine(Addr >> LineShift); }
  unsigned accessLine(uint64_t Line) {
    uint64_t &Tag = Tags[Line & IndexMask];
    if (Tag == Line)
      return 0;
    Tag = Line;
    return Penalty;
  }

  unsigned LineShift = 0;
  unsigned Penalty = 0;

private:
  uint64_t IndexMask = 0;
  std::vector<uint64_t> Tags;
};

//===----------------------------------------------------------------------===//
// The handler table.
//
// Every handler of the core appears once in OM64_SIM_HANDLERS; the handler
// enum, the label table and the opcode-to-handler map are all expanded from
// it, and runCore() defines each handler's body once. X(Op) is the handler
// of opcode Op; I(Op) is integer operate Op's register/literal handler pair
// OpR/OpL (split at translation so no handler tests Inst::IsLit); S(Name)
// is a handler no opcode owns one-to-one: the nop, one per PAL function
// (in PalFunc order), and the off-the-end sentinel.
//===----------------------------------------------------------------------===//

#define OM64_SIM_HANDLERS(X, I, S)                                         \
  S(Nop)                                                                   \
  S(PalHalt) S(PalPutChar) S(PalPutInt) S(PalPutReal) S(PalCycle)          \
  S(PalCount) S(PalUnknown)                                                \
  X(Lda) X(Ldah) X(Ldl) X(Ldq) X(Ldt) X(Stl) X(Stq) X(Stt)                 \
  X(Jmp) X(Jsr) X(Ret) X(Br) X(Bsr)                                        \
  X(Beq) X(Bne) X(Blt) X(Ble) X(Bgt) X(Bge) X(Fbeq) X(Fbne)                \
  I(Addq) I(Subq) I(Mulq) I(S4addq) I(S8addq)                              \
  I(Cmpeq) I(Cmplt) I(Cmple) I(Cmpult)                                     \
  I(And) I(Bic) I(Bis) I(Ornot) I(Xor) I(Sll) I(Srl) I(Sra)                \
  X(Addt) X(Subt) X(Mult) X(Divt) X(Cmpteq) X(Cmptlt) X(Cmptle)            \
  X(Cvtqt) X(Cvttq) X(Cpys) X(Itoft) X(Ftoit)                              \
  S(OffEnd)

#define OM64_SIM_ENUM_ONE(N) TH_##N,
#define OM64_SIM_ENUM_PAIR(N) TH_##N##R, TH_##N##L,
enum ThHandler : uint8_t {
  OM64_SIM_HANDLERS(OM64_SIM_ENUM_ONE, OM64_SIM_ENUM_PAIR, OM64_SIM_ENUM_ONE)
      NumThHandlers
};
#undef OM64_SIM_ENUM_ONE
#undef OM64_SIM_ENUM_PAIR

static_assert(TH_PalCount - TH_PalHalt ==
                  static_cast<unsigned>(PalFunc::Count),
              "PAL handlers must follow PalFunc order");

/// Handler of each opcode: integer operates map to the register form (the
/// literal form is the next id), CALL_PAL to the first PAL handler.
constexpr std::array<uint8_t, NumOpcodes> OpcodeHandlers = [] {
  std::array<uint8_t, NumOpcodes> T{};
  T[static_cast<unsigned>(Opcode::CallPal)] = TH_PalHalt;
#define OM64_SIM_MAP_ONE(N) T[static_cast<unsigned>(Opcode::N)] = TH_##N;
#define OM64_SIM_MAP_PAIR(N) T[static_cast<unsigned>(Opcode::N)] = TH_##N##R;
#define OM64_SIM_MAP_NONE(N)
  OM64_SIM_HANDLERS(OM64_SIM_MAP_ONE, OM64_SIM_MAP_PAIR, OM64_SIM_MAP_NONE)
#undef OM64_SIM_MAP_ONE
#undef OM64_SIM_MAP_PAIR
#undef OM64_SIM_MAP_NONE
  return T;
}();

unsigned handlerFor(const Inst &I) {
  // Nops (any side-effect-free write to a zero register, Inst::isNop) get
  // a dedicated handler: the write would be sunk anyway, so only the nop
  // and class counters remain.
  if (I.isNop())
    return TH_Nop;
  if (I.Op == Opcode::CallPal) {
    const unsigned Func = static_cast<unsigned>(I.Disp) & 0xFF;
    return Func <= static_cast<unsigned>(PalFunc::Count)
               ? TH_PalHalt + Func
               : static_cast<unsigned>(TH_PalUnknown);
  }
  return OpcodeHandlers[static_cast<unsigned>(I.Op)] +
         (classOf(I.Op) == InstClass::IntOp && I.IsLit);
}

/// Two's-complement addition modulo 2^64 (address arithmetic must wrap,
/// not overflow).
int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}

/// CVTTQ's conversion: truncation toward zero, saturating at the int64
/// range, with NaN converting to 0.
int64_t truncToInt64(double D) {
  if (std::isnan(D))
    return 0;
  if (D >= 9.2233720368547758e18)
    return INT64_MAX;
  if (D <= -9.2233720368547758e18)
    return INT64_MIN;
  return static_cast<int64_t>(D);
}

/// Write-sink slot of the core's 33-entry register files.
constexpr uint8_t ThSink = 32;

/// One translated instruction: the handler plus operands resolved to
/// direct register-file indices. Exactly 16 bytes, so the operand stream
/// stays dense. Two merges make that fit:
///
///   * W is the one write index a handler needs — Ra for loads/LDA/link
///     writes, Rc for operates — sink-remapped (zero register -> ThSink);
///   * B doubles as the 8-bit literal for the *L operate handlers, which
///     were split from the register forms at translation precisely so each
///     reads the field one way unconditionally.
struct ThInst {
  /// The handler's label address in the running core instantiation.
  const void *H;
  int32_t Disp; // branches: the resolved target index instead
  uint8_t A;    // Ra as a read index (int file; fp file for fp handlers)
  uint8_t B;    // Rb as a read index, or the operate literal (*L handlers)
  uint8_t W;    // write index, sink-remapped
  uint8_t Cls;  // InstClass (the nop handler's histogram index)
};
static_assert(sizeof(ThInst) == 16, "threaded operand record grew");

/// Pseudo register units padding InstMeta: unused Reads[] entries name a
/// unit that is never written (always ready), and instructions without a
/// result write a unit that is never read.
constexpr uint8_t NoReadUnit = NumRegUnits;
constexpr uint8_t NoWrittenUnit = NumRegUnits + 1;

/// Per-instruction properties the timing model and the profiler need,
/// built alongside the ThInst array (timing and profiled runs only).
struct InstMeta {
  uint8_t Reads[3]; // RegUnits read, NoReadUnit-padded
  uint8_t Written;  // RegUnit written, or NoWrittenUnit
  uint8_t Latency;
  uint8_t PairsNext; // offers its second issue slot to the next instruction
  uint8_t IsCall;    // BSR or JSR: profiled runs record a call edge
};

/// Static half of the dual-issue rule: B may issue in A's second slot when
/// A is not a control transfer, at most one of them touches memory, and B
/// neither reads nor writes A's result (RAW or WAW). Predecode evaluates it
/// once per quadword-aligned pair of the text.
bool pairable(Opcode A, const InstMeta &MA, Opcode B, const InstMeta &MB) {
  const InstClass CA = classOf(A);
  const bool Control = CA == InstClass::Branch || CA == InstClass::Jump ||
                       CA == InstClass::Pal;
  const bool BothMemory =
      (isLoad(A) || isStore(A)) && (isLoad(B) || isStore(B));
  const uint8_t W = MA.Written;
  const bool Hazard = W != NoWrittenUnit &&
                      (MB.Reads[0] == W || MB.Reads[1] == W ||
                       MB.Reads[2] == W || MB.Written == W);
  return !(Control | BothMemory | Hazard);
}

/// The DECstation-3000/400-class timing model: dual issue from aligned
/// quadwords, register-ready times for load-use and long-latency results,
/// and direct-mapped I/D caches, applied one basic block at a time.
///
/// The core's handlers feed it only each load's and store's effective
/// address, in program order (the D-cache is exact and live; a load miss
/// is remembered by its instruction index), and call endBlock() at every
/// control transfer. rpcc and halt call flush() instead, for the partial
/// block before the rpcc or ending at the halt. At the end of a block the
/// I-cache is accessed once per line the block spans, in order; since the
/// I- and D-caches are separate, every hit and miss is what per-fetch
/// accesses would give. Then either a memo entry supplies the block's
/// issue outcome, or replay(), the one copy of the issue model, issues and
/// retires its instructions with the recorded miss penalties.
///
/// A block's issue depends on nothing but its instructions, whether its
/// last one redirects, SlotAvail at entry, each live-in register unit's
/// RegReady minus Cycle (clipped at 0: a unit ready by entry stays ready),
/// and the miss penalties. So a block in which every access hit is
/// memoized under (start, redirect, SlotAvail, live-in deltas), with the
/// outcome as offsets from the entry cycle: cycles, dual-issue pairs, the
/// exit SlotAvail and the ready time of each unit it writes. The table is
/// direct-mapped and owned by the run. A block with more live-ins or
/// writes than an entry holds, or with a delta over its cap, is replayed.
class Pipeline {
public:
  Pipeline(const SimConfig &Cfg, const InstMeta *Meta, uint64_t TextBase,
           size_t N, uint32_t Entry)
      : Meta(Meta), TextBase(TextBase), BlockStart(Entry) {
    if (!Cfg.Timing)
      return;
    ICache = Cache(Cfg.ICache);
    DCache = Cache(Cfg.DCache);
    // Sized to the text: about one slot per four instructions.
    const size_t Slots =
        std::clamp<size_t>(std::bit_ceil(std::max<size_t>(N / 4, 1)), 64,
                           4096);
    MemoShift = 64 - static_cast<unsigned>(std::countr_zero(Slots));
    Memo.resize(Slots);
  }

  void load(uint64_t Addr, size_t Idx) {
    if (DCache.access(Addr)) {
      ++DCacheMisses;
      LoadMisses.push_back(static_cast<uint32_t>(Idx));
    }
  }

  void store(uint64_t Addr) {
    if (DCache.access(Addr))
      ++DCacheMisses; // write buffer absorbs the latency
  }

  /// Ends the block at the control transfer \p Last. \p Redirected: its
  /// successor \p Next is not the next sequential instruction (a taken
  /// branch of displacement 0 is taken but not redirected).
  void endBlock(size_t Last, bool Redirected, size_t Next) {
    const uint32_t Start = BlockStart;
    const uint32_t Stop = static_cast<uint32_t>(Last + 1);
    BlockStart = static_cast<uint32_t>(Next);
    ++BlocksEnded;
    fetch(Start, Stop);
    if (IMisses.empty() && LoadMisses.empty()) {
      const uint8_t Flags = (Redirected ? 1 : 0) | (SlotAvail ? 2 : 0);
      MemoEntry &E = Memo[slotOf(Start, Flags)];
      if (E.Start == Start && E.Flags == Flags && liveInsMatch(E)) {
        const uint64_t Entry = Cycle;
        Cycle += E.Cycles;
        DualIssuePairs += E.Pairs;
        SlotAvail = E.SlotOut;
        for (unsigned W = 0; W < E.NumWrites; ++W)
          RegReady[E.Writes[W]] = Entry + E.WriteReady[W];
        ++BlocksMemoized;
        return;
      }
      replay(Start, Stop, Redirected, &E, Flags);
    } else {
      replay(Start, Stop, Redirected, nullptr, 0);
    }
  }

  /// Issues the partial block ending before \p Stop (rpcc, which reads
  /// Cycle next, or halt) without consulting the memo; the next block
  /// starts at \p Stop.
  void flush(size_t Stop) {
    const uint32_t Start = BlockStart;
    BlockStart = static_cast<uint32_t>(Stop);
    if (Start == Stop)
      return;
    ++BlocksEnded;
    fetch(Start, static_cast<uint32_t>(Stop));
    replay(Start, static_cast<uint32_t>(Stop), false, nullptr, 0);
  }

  // Cycle is the cycle at which the next instruction issues absent stalls;
  // SlotAvail means the previous instruction issued into slot 0 of Cycle
  // and offered its second issue slot to the next one. Between blocks,
  // Cycle is also the cycle of the last retirement (what rpcc reads).
  uint64_t Cycle = 0;
  uint64_t DualIssuePairs = 0;
  uint64_t ICacheMisses = 0;
  uint64_t DCacheMisses = 0;
  uint64_t BlocksEnded = 0;
  uint64_t BlocksMemoized = 0;

private:
  /// A memoized block outcome; Start == ~0u marks an empty slot.
  struct MemoEntry {
    static constexpr unsigned MaxLiveIns = 12;
    static constexpr unsigned MaxWrites = 12;
    uint32_t Start = ~0u;
    uint8_t Flags = 0; // bit 0: last instruction redirects; 1: SlotAvail
    bool SlotOut = false;
    uint8_t NumLiveIns = 0;
    uint8_t NumWrites = 0;
    uint8_t LiveIns[MaxLiveIns] = {};
    uint8_t LiveInDeltas[MaxLiveIns] = {};
    uint8_t Writes[MaxWrites] = {};
    uint16_t WriteReady[MaxWrites] = {}; // RegReady - entry Cycle
    uint32_t Cycles = 0;
    uint32_t Pairs = 0;
  };

  size_t slotOf(uint32_t Start, uint8_t Flags) const {
    return static_cast<size_t>(((uint64_t{Start} << 2 | Flags) *
                                0x9E3779B97F4A7C15ull) >>
                               MemoShift);
  }

  /// RegReady[U] - Cycle, clipped at 0.
  uint64_t readyDelta(uint8_t U) const {
    return RegReady[U] > Cycle ? RegReady[U] - Cycle : 0;
  }

  bool liveInsMatch(const MemoEntry &E) const {
    for (unsigned I = 0; I < E.NumLiveIns; ++I)
      if (readyDelta(E.LiveIns[I]) != E.LiveInDeltas[I])
        return false;
    return true;
  }

  /// Accesses the I-cache once per line of [Start, Stop), in order,
  /// recording the index of the block's first instruction in each line
  /// that misses.
  void fetch(uint32_t Start, uint32_t Stop) {
    const unsigned Shift = ICache.LineShift;
    const uint64_t First = (TextBase + uint64_t{Start} * 4) >> Shift;
    const uint64_t Last = (TextBase + uint64_t{Stop - 1} * 4) >> Shift;
    for (uint64_t Line = First; Line <= Last; ++Line)
      if (ICache.accessLine(Line)) {
        ++ICacheMisses;
        IMisses.push_back(Line == First ? Start
                                        : static_cast<uint32_t>(
                                              ((Line << Shift) - TextBase) /
                                              4));
      }
  }

  /// Fills \p E's live-ins (units read before the block writes them, with
  /// their entry deltas) and written units; false when they do not fit.
  bool keyOf(uint32_t Start, uint32_t Stop, MemoEntry &E) const {
    uint64_t Seen = 0, Written = 0;
    for (uint32_t Idx = Start; Idx < Stop; ++Idx) {
      const InstMeta &M = Meta[Idx];
      for (uint8_t U : M.Reads) {
        if (U >= NumRegUnits || ((Seen | Written) >> U & 1))
          continue;
        Seen |= uint64_t{1} << U;
        const uint64_t D = readyDelta(U);
        if (E.NumLiveIns == MemoEntry::MaxLiveIns || D > UINT8_MAX)
          return false;
        E.LiveIns[E.NumLiveIns] = U;
        E.LiveInDeltas[E.NumLiveIns++] = static_cast<uint8_t>(D);
      }
      const uint8_t W = M.Written;
      if (W >= NumRegUnits || (Written >> W & 1))
        continue;
      Written |= uint64_t{1} << W;
      if (E.NumWrites == MemoEntry::MaxWrites)
        return false;
      E.Writes[E.NumWrites++] = W;
    }
    return true;
  }

  /// Runs the issue model over [Start, Stop) with the block's recorded
  /// miss penalties. When \p Fill is given (every access hit), the outcome
  /// is stored there under \p Flags, if the block fits an entry.
  void replay(uint32_t Start, uint32_t Stop, bool Redirected,
              MemoEntry *Fill, uint8_t Flags) {
    MemoEntry New;
    const bool Record = Fill && keyOf(Start, Stop, New);
    const uint64_t Entry = Cycle;
    // The model's state in locals (so RegReady stores cannot alias it),
    // and the miss lists with an index no instruction has as sentinel.
    uint64_t C = Cycle, Pairs = 0;
    bool Slot = SlotAvail;
    IMisses.push_back(Stop);
    LoadMisses.push_back(Stop);
    const uint32_t *NextI = IMisses.data(), *NextD = LoadMisses.data();
    uint64_t IssueCycle = C;
    for (uint32_t Idx = Start; Idx < Stop; ++Idx) {
      const InstMeta &M = Meta[Idx];
      // Issue. An I-cache miss ends an open issue group, then stalls.
      if (*NextI == Idx) {
        ++NextI;
        C += Slot + ICache.Penalty;
        Slot = false;
      }
      const uint64_t ReadyAt =
          std::max({C, RegReady[M.Reads[0]], RegReady[M.Reads[1]],
                    RegReady[M.Reads[2]]});
      // Dual-issue with the previous instruction, same cycle; otherwise
      // an offered slot goes unused and the previous group ends.
      const bool Paired = Slot && ReadyAt <= C;
      Pairs += Paired;
      IssueCycle = Paired ? C : std::max(C + Slot, ReadyAt);
      unsigned Lat = M.Latency;
      if (*NextD == Idx) {
        ++NextD;
        Lat += DCache.Penalty;
      }
      // Retire. A paired instruction consumed the second slot; otherwise
      // it sits in slot 0 and offers slot 1 to the next instruction when
      // the pair shares an aligned quadword and has no hazards (the
      // alignment rule OM-full's quadword loop alignment exists to
      // satisfy).
      RegReady[M.Written] = IssueCycle + Lat;
      Slot = !Paired && M.PairsNext;
      C = IssueCycle + !Slot;
    }
    if (Redirected) {
      C = IssueCycle + 1 + 2; // group ends plus taken-branch bubble
      Slot = false;
    }
    Cycle = C;
    SlotAvail = Slot;
    DualIssuePairs += Pairs;
    IMisses.clear();
    LoadMisses.clear();
    if (!Record || C - Entry > UINT32_MAX)
      return;
    for (unsigned W = 0; W < New.NumWrites; ++W) {
      const uint64_t Ready = RegReady[New.Writes[W]] - Entry;
      if (Ready > UINT16_MAX)
        return;
      New.WriteReady[W] = static_cast<uint16_t>(Ready);
    }
    New.Start = Start;
    New.Flags = Flags;
    New.SlotOut = Slot;
    New.Cycles = static_cast<uint32_t>(C - Entry);
    New.Pairs = static_cast<uint32_t>(Pairs);
    *Fill = New;
  }

  const InstMeta *Meta;
  uint64_t TextBase;
  Cache ICache;
  Cache DCache;
  // Cycle each unit's value is ready, plus the two padding units.
  uint64_t RegReady[NoWrittenUnit + 1] = {};
  bool SlotAvail = false;
  // The current block: its first instruction, and the indices of its
  // I-cache misses (the first instruction of each missing line) and load
  // misses, in order.
  uint32_t BlockStart;
  std::vector<uint32_t> IMisses;
  std::vector<uint32_t> LoadMisses;
  std::vector<MemoEntry> Memo;
  unsigned MemoShift = 64;
};

/// Full machine state and execution engine.
class Machine {
public:
  Machine(const Image &Img, const SimConfig &Cfg) : Img(Img), Cfg(Cfg) {
    DataSegment.assign(Img.Data.begin(), Img.Data.end());
    DataSegment.resize(Img.Data.size() + Img.BssSize, 0);
    StackSegment.assign(Layout::StackSize, 0);
  }

  Result<SimResult> run();

private:
  /// The interpreter: one definition of every handler, instantiated per
  /// mode. Timing adds the pipeline's cache accesses and block ends, and
  /// Prof the profile hook.
  template <bool Timing, bool Prof> Result<SimResult> runCore();

  /// Decodes the whole text segment straight into the ThInst array (and,
  /// for timing or profiled runs, the InstMeta array and the profiling
  /// side tables) in one pass; fails on the first undecodable word.
  /// \p Lab maps handler ids to the running core's handler labels.
  /// Also sizes the profile-counter vector from the counters the image
  /// actually declares, bounding CALL_PAL count's reach up front.
  Error predecode(const void *const *Lab);

  /// Resolves an address to backing storage; null on fault. Overflow-safe:
  /// addresses near 2^64 whose Addr + Size wraps must not pass.
  uint8_t *memPtr(uint64_t Addr, unsigned Size);

  /// The handlers' slow memory paths (unaligned, text, or faulting
  /// accesses). They return false on fault with the message in FaultMsg;
  /// keeping the hot path free of Error construction is worth ~10% of
  /// functional-simulation throughput.
  bool load(uint64_t Addr, unsigned Size, uint64_t &Out);
  bool store(uint64_t Addr, unsigned Size, uint64_t Value);

  /// Procedure extents for the profiler: ProcOfIdx from the image's
  /// procedure table (the branch sites are numbered during predecode).
  void buildProcExtents(size_t N);

  /// Procedure ordinal (index into Img.Procs) owning \p Pc, or ~0u.
  uint32_t procOfPc(uint64_t Pc) const {
    if (Pc < Img.TextBase)
      return ~0u;
    uint64_t Idx = (Pc - Img.TextBase) / 4;
    return Idx < ProcOfIdx.size() ? ProcOfIdx[Idx] : ~0u;
  }

  /// Per-retired-instruction profile hook (Prof instantiations only).
  /// \p Idx is the executed instruction's dense index, \p NextPc the
  /// resolved successor.
  void profileRetire(size_t Idx, uint64_t NextPc, bool Redirected) {
    uint32_t P = ProcOfIdx[Idx];
    if (P == ~0u)
      return;
    ++ProcInstCounts[P];
    uint32_t S = SiteOfIdx[Idx];
    if (S != ~0u) {
      ++SiteExec[S];
      SiteTaken[S] += Redirected;
    }
    if (Meta[Idx].IsCall) {
      uint32_t Callee = procOfPc(NextPc);
      if (Callee != ~0u)
        ++CallEdgeCounts[(static_cast<uint64_t>(P) << 32) | Callee];
    }
  }

  /// Converts the raw count arrays into SimResult::Profile.
  void finishProfile();

  /// Builds the failure for a handler fault (FaultMsg), with pc and
  /// disassembly; the faulting word is re-decoded, as faults are cold.
  Result<SimResult> stepFault(uint64_t Pc) {
    std::optional<Inst> I = decode(Img.fetch(Pc));
    return Result<SimResult>::failure(
        FaultMsg + formatString(" (pc=%s, inst='%s')",
                                formatHex64(Pc).c_str(),
                                I ? disassemble(*I).c_str() : "?"));
  }

  Result<SimResult> pcFault(uint64_t Pc) {
    return Result<SimResult>::failure(
        formatString("PC out of text: %s", formatHex64(Pc).c_str()));
  }

  Result<SimResult> budgetFault() {
    return Result<SimResult>::failure("instruction budget exceeded "
                                      "(runaway program?)");
  }

  const Image &Img;
  const SimConfig &Cfg;

  std::vector<uint8_t> DataSegment;
  std::vector<uint8_t> StackSegment;
  std::vector<ThInst> Prog;   // translated text plus the off-end sentinel
  std::vector<InstMeta> Meta; // parallel to Prog (timing/profiled runs)

  SimResult Res;
  std::string FaultMsg; // set when a handler faults

  // Profiling side tables (built only when Cfg.Profile). SiteProc and
  // SiteOrdinal identify each local-branch site; SiteOfIdx/ProcOfIdx map
  // dense instruction indices to sites/procedures.
  std::vector<uint32_t> ProcOfIdx;
  std::vector<uint32_t> SiteOfIdx;
  std::vector<uint32_t> SiteProc;
  std::vector<uint32_t> SiteOrdinal;
  std::vector<uint64_t> SiteExec;
  std::vector<uint64_t> SiteTaken;
  std::vector<uint64_t> ProcInstCounts;
  std::map<uint64_t, uint64_t> CallEdgeCounts; // (caller<<32|callee)
};

} // namespace

Error Machine::predecode(const void *const *Lab) {
  const size_t N = Img.Text.size() / 4;
  const bool WithMeta = Cfg.Timing || Cfg.Profile;
  // reserve + push_back: the arrays are written once, never zero-filled.
  Prog.reserve(N + 1);
  if (WithMeta)
    Meta.reserve(N);
  std::vector<uint32_t> BranchesInProc;
  if (Cfg.Profile) {
    buildProcExtents(N);
    SiteOfIdx.assign(N, ~0u);
    BranchesInProc.assign(Img.Procs.size(), 0);
  }
  // Decoding and classifying a word costs tens of nanoseconds (decode's
  // operate-table search, the register-unit switches), while linked text
  // is highly repetitive: a million-word megagen image holds about four
  // thousand distinct words, and a SPEC-shaped program of about 1,200
  // words about 400. So decoded words are memoized in a small
  // direct-mapped table, and most distinct words are decoded only once.
  struct DecodedWord {
    bool Filled = false;
    uint32_t Word = 0;
    Inst I;
    unsigned Handler = 0;
    InstMeta M{}; // all but PairsNext, which depends on the position
  };
  constexpr unsigned MemoBits = 12;
  std::vector<DecodedWord> Memo(1u << MemoBits);

  uint32_t DeclaredCounters = 0;
  Opcode Prev = Opcode::CallPal;
  for (size_t Idx = 0; Idx < N; ++Idx) {
    const uint64_t Pc = Img.TextBase + Idx * 4;
    const uint32_t Word = Img.fetch(Pc);
    DecodedWord &E = Memo[(Word * 0x9E3779B1u) >> (32 - MemoBits)];
    if (!E.Filled || E.Word != Word) {
      std::optional<Inst> D = decode(Word);
      if (!D)
        return Error::failure(formatString("undecodable instruction at %s",
                                           formatHex64(Pc).c_str()));
      E.Filled = true;
      E.Word = Word;
      E.I = *D;
      E.Handler = handlerFor(E.I);
      if (WithMeta) {
        unsigned Reads[3];
        const unsigned NumReads = regUnitsRead(E.I, Reads);
        for (unsigned R = 0; R < 3; ++R)
          E.M.Reads[R] =
              R < NumReads ? static_cast<uint8_t>(Reads[R]) : NoReadUnit;
        const unsigned W = regUnitWritten(E.I);
        E.M.Written = W == ~0u ? NoWrittenUnit : static_cast<uint8_t>(W);
        E.M.Latency = static_cast<uint8_t>(latencyOf(E.I.Op));
        E.M.IsCall = E.I.Op == Opcode::Bsr || E.I.Op == Opcode::Jsr;
      }
    }
    const Inst &I = E.I;
    const InstClass C = classOf(I.Op);

    ThInst T;
    T.H = Lab[E.Handler];
    T.Disp = I.Disp;
    T.A = I.Ra;
    // Only integer operates dispatch to *L handlers; a literal-form fp
    // operate decodes with Rb = Zero, and its handler reads F[31] (+0.0).
    T.B = C == InstClass::IntOp && I.IsLit ? I.Lit : I.Rb;
    const uint8_t Dest = C == InstClass::IntOp || C == InstClass::FpOp ||
                                 C == InstClass::Transfer
                             ? I.Rc
                             : I.Ra;
    T.W = Dest == Zero ? ThSink : Dest;
    T.Cls = static_cast<uint8_t>(C);
    // Branch-class instructions never use Disp as data, so translation
    // stores the resolved target *index* (fall-through index + word
    // displacement) instead — the taken path is one sign-extend away from
    // the next handler. Indices and 21-bit displacements both fit int32.
    if (C == InstClass::Branch)
      T.Disp = static_cast<int32_t>(static_cast<int64_t>(Idx) + 1 + I.Disp);
    Prog.push_back(T);

    if (I.Op == Opcode::CallPal &&
        static_cast<PalFunc>(I.Disp & 0xFF) == PalFunc::Count) {
      uint32_t Index = static_cast<uint32_t>(I.Disp) >> 8;
      DeclaredCounters = std::max(DeclaredCounters, Index + 1);
    }

    if (WithMeta) {
      const InstMeta &M = E.M;
      // Pairs share an aligned quadword: only an instruction at a multiple
      // of 8 offers its slot.
      if (Idx > 0 && (Pc - 4) % 8 == 0)
        Meta.back().PairsNext = pairable(Prev, Meta.back(), I.Op, M);
      Meta.push_back(M);
      Prev = I.Op;
    }

    // Local-branch sites in address order: every Branch-class instruction
    // except BSR (a call). This ordinal assignment matches the order of
    // LocalBranch instructions in OM's symbolic form for an identically
    // optioned link (see support/Profile.h).
    if (Cfg.Profile && C == InstClass::Branch && I.Op != Opcode::Bsr &&
        ProcOfIdx[Idx] != ~0u) {
      const uint32_t P = ProcOfIdx[Idx];
      SiteOfIdx[Idx] = static_cast<uint32_t>(SiteProc.size());
      SiteProc.push_back(P);
      SiteOrdinal.push_back(BranchesInProc[P]++);
    }
  }
  // Sentinel at index N: sequential fall-through past the last instruction
  // lands here instead of paying a per-instruction bounds compare.
  Prog.push_back(ThInst{Lab[TH_OffEnd], 0, 0, 0, 0, 0});

  // Profile counters get their full declared extent now; the CALL_PAL
  // count handler only indexes, so a corrupt or hostile image can never
  // force an unbounded mid-run resize.
  Res.ProfileCounts.assign(DeclaredCounters, 0);
  if (Cfg.Profile) {
    SiteExec.assign(SiteProc.size(), 0);
    SiteTaken.assign(SiteProc.size(), 0);
    ProcInstCounts.assign(Img.Procs.size(), 0);
  }
  return Error::success();
}

void Machine::buildProcExtents(size_t N) {
  // Procedure extents: ImageProc::Size excludes intra-procedure alignment
  // nops, so the reliable extent of procedure i is [Entry_i, Entry_{i+1})
  // in address order (text end for the last). Padding nops between
  // procedures attribute to the preceding procedure; they are never
  // branch sites and only executed as straight-line filler, so the small
  // heat misattribution is harmless.
  ProcOfIdx.assign(N, ~0u);
  std::vector<uint32_t> ByEntry(Img.Procs.size());
  for (uint32_t P = 0; P < Img.Procs.size(); ++P)
    ByEntry[P] = P;
  std::sort(ByEntry.begin(), ByEntry.end(), [&](uint32_t A, uint32_t B) {
    return Img.Procs[A].Entry < Img.Procs[B].Entry;
  });
  for (size_t Pos = 0; Pos < ByEntry.size(); ++Pos) {
    const ImageProc &IP = Img.Procs[ByEntry[Pos]];
    if (IP.Entry < Img.TextBase)
      continue;
    uint64_t Begin = (IP.Entry - Img.TextBase) / 4;
    uint64_t End = Pos + 1 < ByEntry.size()
                       ? (Img.Procs[ByEntry[Pos + 1]].Entry - Img.TextBase) / 4
                       : N;
    End = std::min<uint64_t>(End, N);
    for (uint64_t Idx = Begin; Idx < End; ++Idx)
      ProcOfIdx[Idx] = ByEntry[Pos];
  }
}

void Machine::finishProfile() {
  prof::Profile &P = Res.Profile;
  P.Procs.resize(Img.Procs.size());
  std::vector<uint32_t> BranchesInProc(Img.Procs.size(), 0);
  for (uint32_t S = 0; S < SiteProc.size(); ++S)
    BranchesInProc[SiteProc[S]] =
        std::max(BranchesInProc[SiteProc[S]], SiteOrdinal[S] + 1);
  for (uint32_t Idx = 0; Idx < Img.Procs.size(); ++Idx) {
    P.Procs[Idx].Name = Img.Procs[Idx].Name;
    P.Procs[Idx].InstsExecuted = ProcInstCounts[Idx];
    P.Procs[Idx].Branches.resize(BranchesInProc[Idx]);
  }
  for (uint32_t S = 0; S < SiteProc.size(); ++S) {
    prof::BranchCounts &B = P.Procs[SiteProc[S]].Branches[SiteOrdinal[S]];
    B.Executed = SiteExec[S];
    B.Taken = SiteTaken[S];
  }
  for (const auto &[Key, Count] : CallEdgeCounts) {
    prof::CallEdge E;
    E.Caller = static_cast<uint32_t>(Key >> 32);
    E.Callee = static_cast<uint32_t>(Key & 0xFFFFFFFFu);
    E.Count = Count;
    P.Edges.push_back(E);
  }
}

uint8_t *Machine::memPtr(uint64_t Addr, unsigned Size) {
  if (Addr % Size != 0)
    return nullptr;
  // Range checks are phrased on offsets so that Addr + Size cannot wrap:
  // e.g. LDQ r,-8(zero) produces Addr = 2^64 - 8, where the naive
  // "Addr + Size <= end" test wraps to 0 and passes.
  auto contains = [&](uint64_t Base, uint64_t SegSize) {
    if (Addr < Base)
      return false;
    uint64_t Off = Addr - Base;
    return Off <= SegSize && SegSize - Off >= Size;
  };
  if (contains(Img.DataBase, DataSegment.size()))
    return &DataSegment[Addr - Img.DataBase];
  uint64_t StackBase = Layout::StackTop - Layout::StackSize;
  if (contains(StackBase, Layout::StackSize))
    return &StackSegment[Addr - StackBase];
  // Reading text as data is legal (constants are not stored there by our
  // compiler, but be permissive for tools).
  if (contains(Img.TextBase, Img.Text.size()))
    return const_cast<uint8_t *>(&Img.Text[Addr - Img.TextBase]);
  return nullptr;
}

bool Machine::load(uint64_t Addr, unsigned Size, uint64_t &Out) {
  uint8_t *P = memPtr(Addr, Size);
  if (!P) {
    FaultMsg = formatString("bad %u-byte load at %s", Size,
                            formatHex64(Addr).c_str());
    return false;
  }
  Out = 0;
  std::memcpy(&Out, P, Size);
  return true;
}

bool Machine::store(uint64_t Addr, unsigned Size, uint64_t Value) {
  uint8_t *P = memPtr(Addr, Size);
  if (!P || (Addr >= Img.TextBase &&
             Addr < Img.TextBase + Img.Text.size())) {
    FaultMsg = formatString("bad %u-byte store at %s", Size,
                            formatHex64(Addr).c_str());
    return false;
  }
  std::memcpy(P, &Value, Size);
  return true;
}

//===----------------------------------------------------------------------===//
// The core.
//
// predecode translates every instruction once into { handler, resolved
// operands }, and every handler below ends in its own dispatch:
//
//   * the dispatch is `goto *PP->H` — one indirect jump *per handler
//     copy*, giving the host predictor per-opcode history (the classic
//     token-threading win);
//   * the register files grow a 33rd slot that absorbs writes to the
//     hardwired zero registers, so handlers write unconditionally, and
//     integer operates are split into register/literal handlers;
//   * the instruction budget is a countdown ("fuel") decremented at handler
//     entry, and all statistics accumulate in locals folded into SimResult
//     once at exit;
//   * loads/stores take an inline aligned-and-in-segment fast path and fall
//     back to Machine::load/store for everything else, which owns every
//     fault message.
//
// The timing model hooks in at loads, stores and control transfers (where
// a block ends), and the profiler at handler exit, through `if constexpr`,
// so the functional instantiations carry none of their state. Faults
// discard the in-flight result, so the fast paths may count before
// checking.
//===----------------------------------------------------------------------===//

template <bool Timing, bool Prof> Result<SimResult> Machine::runCore() {
  // ThInst::H values: each handler's label, indexed by handler id.
#define OM64_SIM_LABEL_ONE(N) &&L_##N,
#define OM64_SIM_LABEL_PAIR(N) &&L_##N##R, &&L_##N##L,
  const void *const Lab[NumThHandlers] = {OM64_SIM_HANDLERS(
      OM64_SIM_LABEL_ONE, OM64_SIM_LABEL_PAIR, OM64_SIM_LABEL_ONE)};
#undef OM64_SIM_LABEL_ONE
#undef OM64_SIM_LABEL_PAIR
  if (Error E = predecode(Lab))
    return Result<SimResult>::failure(E.message());

  // 33-slot register files: slot ThSink absorbs writes whose architectural
  // destination is the hardwired zero register, so handlers store
  // unconditionally. Slots 31 hold zero and are never written (translation
  // redirected every write), so reads need no guard either.
  int64_t R[ThSink + 1] = {};
  double F[ThSink + 1] = {};
  R[PV] = static_cast<int64_t>(Img.Entry);
  R[RA] = static_cast<int64_t>(Layout::HaltReturnAddress);
  R[SP] = static_cast<int64_t>(Layout::StackTop - 512);
  R[GP] = static_cast<int64_t>(Img.InitialGp); // prologue resets it

  const size_t N = Prog.size() - 1;
  const uint64_t TextBase = Img.TextBase;
  const uint64_t DataBase = Img.DataBase;
  const uint64_t StackBase = Layout::StackTop - Layout::StackSize;
  uint8_t *const DataPtr = DataSegment.data();
  uint8_t *const StackPtr = StackSegment.data();

  // Inline fast-path extents, pre-shrunk by the access size so the hot test
  // is one subtraction-free compare. sim::run's layout check guarantees
  // that no segment wraps and that data and stack never alias text, which
  // is what lets the fast path skip store()'s text test.
  const uint64_t DSz = DataSegment.size();
  const uint64_t SSz = Layout::StackSize;
  const uint64_t Data4 = DSz >= 4 ? DSz - 3 : 0;
  const uint64_t Data8 = DSz >= 8 ? DSz - 7 : 0;
  const uint64_t Stack4 = SSz - 3;
  const uint64_t Stack8 = SSz - 7;
  // Host address of an aligned Size-byte access wholly inside data or
  // stack; null sends the handler to the slow path.
  auto fastPtr = [&](uint64_t Addr, unsigned Size) -> uint8_t * {
    const uint64_t DOff = Addr - DataBase;
    const uint64_t SOff = Addr - StackBase;
    const bool Aligned = (Addr & (Size - 1)) == 0;
    if ((Aligned & (DOff < (Size == 8 ? Data8 : Data4))) != 0)
      return DataPtr + DOff;
    if ((Aligned & (SOff < (Size == 8 ? Stack8 : Stack4))) != 0)
      return StackPtr + SOff;
    return nullptr;
  };
  auto loadMem = [&](uint64_t Addr, unsigned Size, uint64_t &Out) {
    if (uint8_t *P = fastPtr(Addr, Size)) {
      Out = 0;
      std::memcpy(&Out, P, Size);
      return true;
    }
    return load(Addr, Size, Out);
  };
  auto storeMem = [&](uint64_t Addr, unsigned Size, uint64_t Value) {
    if (uint8_t *P = fastPtr(Addr, Size)) {
      std::memcpy(P, &Value, Size);
      return true;
    }
    return store(Addr, Size, Value);
  };

  // Instruction budget as countdown fuel: decremented at every handler
  // entry, budget-faulting when it reaches zero. Starting at MaxInsts + 1
  // makes "executed so far" = MaxInsts + 1 - Fuel (modular arithmetic keeps
  // that correct even for MaxInsts == UINT64_MAX, where the budget is
  // unreachable).
  const uint64_t MaxInsts = Cfg.MaxInstructions;
  uint64_t Fuel = MaxInsts + 1;
  uint64_t NNops = 0;
  uint64_t NTaken = 0;
  uint64_t Cls[NumInstClasses] = {};
  constexpr unsigned ClsPal = static_cast<unsigned>(InstClass::Pal);
  constexpr unsigned ClsLoadAddress =
      static_cast<unsigned>(InstClass::LoadAddress);
  constexpr unsigned ClsIntLoad = static_cast<unsigned>(InstClass::IntLoad);
  constexpr unsigned ClsIntStore = static_cast<unsigned>(InstClass::IntStore);
  constexpr unsigned ClsFpLoad = static_cast<unsigned>(InstClass::FpLoad);
  constexpr unsigned ClsFpStore = static_cast<unsigned>(InstClass::FpStore);
  constexpr unsigned ClsJump = static_cast<unsigned>(InstClass::Jump);
  constexpr unsigned ClsBranch = static_cast<unsigned>(InstClass::Branch);
  constexpr unsigned ClsIntOp = static_cast<unsigned>(InstClass::IntOp);
  constexpr unsigned ClsFpOp = static_cast<unsigned>(InstClass::FpOp);
  constexpr unsigned ClsTransfer = static_cast<unsigned>(InstClass::Transfer);

  const ThInst *const PB = Prog.data();
  const ThInst *PP = PB + (Img.Entry - TextBase) / 4;
  Pipeline Pipe(Cfg, Meta.data(), TextBase, N,
                static_cast<uint32_t>(PP - PB));

// A handler's label, and the dispatch to a handler.
#define OM64_TH_TARGET(NAME) L_##NAME:
#define OM64_TH_GOTO(H) goto *(H)
#define OM64_TH_PC() (TextBase + static_cast<uint64_t>(PP - PB) * 4)
// Handler entry: the fuel check (so the sentinel and fault labels, which
// skip it, keep the budget test after a fall-off-the-end check).
#define OM64_TH_ENTER()                                                    \
  [[maybe_unused]] const void *const NH_ = PP[1].H;                        \
  if (--Fuel == 0)                                                         \
    goto L_Budget
// Retirement accounting for the successor NEXTPC.
#define OM64_TH_RETIRE(NEXTPC, REDIRECTED)                                 \
  do {                                                                     \
    if constexpr (Prof)                                                    \
      profileRetire(PP - PB, NEXTPC, REDIRECTED);                          \
  } while (0)
// A control transfer ends the timing model's block; NEXTIDX starts the
// next one.
#define OM64_TH_END_BLOCK(REDIRECTED, NEXTIDX)                             \
  do {                                                                     \
    if constexpr (Timing)                                                  \
      Pipe.endBlock(PP - PB, REDIRECTED, NEXTIDX);                         \
  } while (0)
#define OM64_TH_NEXT()                                                     \
  do {                                                                     \
    OM64_TH_RETIRE(OM64_TH_PC() + 4, false);                               \
    ++PP;                                                                  \
    OM64_TH_GOTO(NH_);                                                     \
  } while (0)
// Taken branch to a translation-resolved target index (sign-extended, so
// backward-past-zero targets wrap exactly like mod-2^64 pc arithmetic and
// fault with the matching pcFault value).
#define OM64_TH_TAKEN(TIdx)                                                \
  do {                                                                     \
    const uint64_t TI =                                                    \
        static_cast<uint64_t>(static_cast<int64_t>(TIdx));                 \
    const bool Redirected = TI != static_cast<uint64_t>(PP - PB) + 1;      \
    ++NTaken;                                                              \
    OM64_TH_RETIRE(TextBase + TI * 4, Redirected);                         \
    OM64_TH_END_BLOCK(Redirected, TI);                                     \
    if (TI >= N)                                                           \
      return pcFault(TextBase + TI * 4);                                   \
    PP = PB + TI;                                                          \
    OM64_TH_GOTO(PP->H);                                                   \
  } while (0)
// Conditional branch on the integer or fp file.
#define OM64_TH_CONDBR(NAME, FILE, CMP)                                    \
  OM64_TH_TARGET(NAME) {                                                   \
    OM64_TH_ENTER();                                                       \
    ++Cls[ClsBranch];                                                      \
    if (FILE[PP->A] CMP 0)                                                 \
      OM64_TH_TAKEN(PP->Disp);                                             \
    OM64_TH_END_BLOCK(false, PP - PB + 1);                                 \
    OM64_TH_NEXT();                                                        \
  }
// Integer operate, instantiated as register (B = R[rb]) and literal
// (B = zero-extended 8-bit literal) handlers. The dominant class carries
// no histogram increment: Cls[IntOp] is reconstructed at exit as
// Instructions minus every other class (the L_Halt derivation).
#define OM64_TH_INTOP(NAME, EXPR)                                          \
  OM64_TH_TARGET(NAME##R) {                                                \
    OM64_TH_ENTER();                                                       \
    const int64_t A = R[PP->A];                                            \
    const int64_t B = R[PP->B];                                            \
    R[PP->W] = (EXPR);                                                     \
    OM64_TH_NEXT();                                                        \
  }                                                                        \
  OM64_TH_TARGET(NAME##L) {                                                \
    OM64_TH_ENTER();                                                       \
    const int64_t A = R[PP->A];                                            \
    const int64_t B = static_cast<int64_t>(PP->B);                         \
    R[PP->W] = (EXPR);                                                     \
    OM64_TH_NEXT();                                                        \
  }
// Floating operate: fc = EXPR over fa (A) and fb (B).
#define OM64_TH_FPOP(NAME, EXPR)                                           \
  OM64_TH_TARGET(NAME) {                                                   \
    OM64_TH_ENTER();                                                       \
    ++Cls[ClsFpOp];                                                        \
    [[maybe_unused]] const double A = F[PP->A];                            \
    const double B = F[PP->B];                                             \
    F[PP->W] = (EXPR);                                                     \
    OM64_TH_NEXT();                                                        \
  }
// Memory access of SIZE bytes at rb + disp; the value moves through the
// uint64_t V (loads: filled before LOADED runs; stores: set by STORING).
#define OM64_TH_LOAD(NAME, CLS, SIZE, LOADED)                              \
  OM64_TH_TARGET(NAME) {                                                   \
    OM64_TH_ENTER();                                                       \
    ++Cls[CLS];                                                            \
    const uint64_t Addr =                                                  \
        static_cast<uint64_t>(wrapAdd(R[PP->B], PP->Disp));                \
    uint64_t V;                                                            \
    if (!loadMem(Addr, SIZE, V))                                           \
      goto L_Fault;                                                        \
    if constexpr (Timing)                                                  \
      Pipe.load(Addr, PP - PB);                                            \
    LOADED;                                                                \
    OM64_TH_NEXT();                                                        \
  }
#define OM64_TH_STORE(NAME, CLS, SIZE, STORING)                            \
  OM64_TH_TARGET(NAME) {                                                   \
    OM64_TH_ENTER();                                                       \
    ++Cls[CLS];                                                            \
    const uint64_t Addr =                                                  \
        static_cast<uint64_t>(wrapAdd(R[PP->B], PP->Disp));                \
    uint64_t V;                                                            \
    STORING;                                                               \
    if (!storeMem(Addr, SIZE, V))                                          \
      goto L_Fault;                                                        \
    if constexpr (Timing)                                                  \
      Pipe.store(Addr);                                                    \
    OM64_TH_NEXT();                                                        \
  }

  OM64_TH_GOTO(PP->H);

  OM64_TH_TARGET(Nop) {
    OM64_TH_ENTER();
    ++NNops;
    ++Cls[PP->Cls];
    OM64_TH_NEXT();
  }

  OM64_TH_TARGET(PalHalt) {
    OM64_TH_ENTER();
    ++Cls[ClsPal];
    Res.ExitCode = R[A0];
    OM64_TH_RETIRE(OM64_TH_PC() + 4, false);
    if constexpr (Timing)
      Pipe.flush(PP - PB + 1);
    goto L_Halt;
  }
  OM64_TH_TARGET(PalPutChar) {
    OM64_TH_ENTER();
    ++Cls[ClsPal];
    Res.Output.push_back(static_cast<char>(R[A0] & 0xFF));
    OM64_TH_NEXT();
  }
  OM64_TH_TARGET(PalPutInt) {
    OM64_TH_ENTER();
    ++Cls[ClsPal];
    Res.Output += formatString("%lld", static_cast<long long>(R[A0]));
    OM64_TH_NEXT();
  }
  OM64_TH_TARGET(PalPutReal) {
    OM64_TH_ENTER();
    ++Cls[ClsPal];
    Res.Output += formatString("%.6g", F[FA0]);
    OM64_TH_NEXT();
  }
  OM64_TH_TARGET(PalCycle) {
    OM64_TH_ENTER();
    ++Cls[ClsPal];
    // Timing runs report the cycle count as of the previous retirement,
    // so the block so far is issued first; functional runs report the
    // instructions executed before this one.
    if constexpr (Timing) {
      Pipe.flush(PP - PB);
      R[V0] = static_cast<int64_t>(Pipe.Cycle);
    } else
      R[V0] = static_cast<int64_t>(MaxInsts - Fuel);
    OM64_TH_NEXT();
  }
  OM64_TH_TARGET(PalCount) {
    OM64_TH_ENTER();
    ++Cls[ClsPal];
    const uint32_t Index = static_cast<uint32_t>(PP->Disp) >> 8;
    // Predecode sized ProfileCounts to the image's declared counter
    // count, so in-bounds is guaranteed for decoded text; the check
    // stays as defense in depth against future divergence.
    if (Index >= Res.ProfileCounts.size()) {
      FaultMsg = formatString(
          "profile counter %u out of range (image declares %u)", Index,
          static_cast<unsigned>(Res.ProfileCounts.size()));
      goto L_Fault;
    }
    ++Res.ProfileCounts[Index];
    OM64_TH_NEXT();
  }
  OM64_TH_TARGET(PalUnknown) {
    OM64_TH_ENTER();
    FaultMsg = formatString("unknown PAL function %d", PP->Disp);
    goto L_Fault;
  }

  OM64_TH_TARGET(Lda) {
    OM64_TH_ENTER();
    ++Cls[ClsLoadAddress];
    R[PP->W] = wrapAdd(R[PP->B], PP->Disp);
    OM64_TH_NEXT();
  }
  OM64_TH_TARGET(Ldah) {
    OM64_TH_ENTER();
    ++Cls[ClsLoadAddress];
    R[PP->W] = wrapAdd(R[PP->B], static_cast<int64_t>(PP->Disp) * 65536);
    OM64_TH_NEXT();
  }

  OM64_TH_LOAD(Ldl, ClsIntLoad, 4,
               R[PP->W] = static_cast<int32_t>(static_cast<uint32_t>(V)))
  OM64_TH_LOAD(Ldq, ClsIntLoad, 8, R[PP->W] = static_cast<int64_t>(V))
  OM64_TH_LOAD(Ldt, ClsFpLoad, 8, std::memcpy(&F[PP->W], &V, 8))
  OM64_TH_STORE(Stl, ClsIntStore, 4,
                V = static_cast<uint64_t>(R[PP->A]) & 0xFFFFFFFFull)
  OM64_TH_STORE(Stq, ClsIntStore, 8, V = static_cast<uint64_t>(R[PP->A]))
  OM64_TH_STORE(Stt, ClsFpStore, 8, std::memcpy(&V, &F[PP->A], 8))

  OM64_TH_TARGET(Jmp)
  OM64_TH_TARGET(Jsr)
  OM64_TH_TARGET(Ret) {
    OM64_TH_ENTER();
    ++Cls[ClsJump];
    ++NTaken;
    // Target reads Rb before the return-address write (jsr ra,(ra) is
    // legal).
    const uint64_t Pc = OM64_TH_PC();
    const uint64_t Target = static_cast<uint64_t>(R[PP->B]) & ~3ull;
    const uint64_t TI = (Target - TextBase) / 4;
    R[PP->W] = static_cast<int64_t>(Pc + 4);
    OM64_TH_RETIRE(Target, Target != Pc + 4);
    OM64_TH_END_BLOCK(Target != Pc + 4, TI);
    if (Target == Layout::HaltReturnAddress) {
      Res.ExitCode = R[V0];
      goto L_Halt;
    }
    if (Target < TextBase || TI >= N)
      return pcFault(Target);
    PP = PB + TI;
    OM64_TH_GOTO(PP->H);
  }

  OM64_TH_TARGET(Br)
  OM64_TH_TARGET(Bsr) {
    OM64_TH_ENTER();
    ++Cls[ClsBranch];
    R[PP->W] = static_cast<int64_t>(OM64_TH_PC() + 4);
    OM64_TH_TAKEN(PP->Disp);
  }

  OM64_TH_CONDBR(Beq, R, ==)
  OM64_TH_CONDBR(Bne, R, !=)
  OM64_TH_CONDBR(Blt, R, <)
  OM64_TH_CONDBR(Ble, R, <=)
  OM64_TH_CONDBR(Bgt, R, >)
  OM64_TH_CONDBR(Bge, R, >=)
  OM64_TH_CONDBR(Fbeq, F, ==)
  OM64_TH_CONDBR(Fbne, F, !=)

  OM64_TH_INTOP(Addq, static_cast<int64_t>(static_cast<uint64_t>(A) +
                                           static_cast<uint64_t>(B)))
  OM64_TH_INTOP(Subq, static_cast<int64_t>(static_cast<uint64_t>(A) -
                                           static_cast<uint64_t>(B)))
  OM64_TH_INTOP(Mulq, static_cast<int64_t>(static_cast<uint64_t>(A) *
                                           static_cast<uint64_t>(B)))
  OM64_TH_INTOP(S4addq,
                static_cast<int64_t>((static_cast<uint64_t>(A) << 2) +
                                     static_cast<uint64_t>(B)))
  OM64_TH_INTOP(S8addq,
                static_cast<int64_t>((static_cast<uint64_t>(A) << 3) +
                                     static_cast<uint64_t>(B)))
  OM64_TH_INTOP(Cmpeq, A == B ? 1 : 0)
  OM64_TH_INTOP(Cmplt, A < B ? 1 : 0)
  OM64_TH_INTOP(Cmple, A <= B ? 1 : 0)
  OM64_TH_INTOP(Cmpult,
                static_cast<uint64_t>(A) < static_cast<uint64_t>(B) ? 1 : 0)
  OM64_TH_INTOP(And, A &B)
  OM64_TH_INTOP(Bic, A & ~B)
  OM64_TH_INTOP(Bis, A | B)
  OM64_TH_INTOP(Ornot, A | ~B)
  OM64_TH_INTOP(Xor, A ^ B)
  OM64_TH_INTOP(Sll, static_cast<int64_t>(static_cast<uint64_t>(A)
                                          << (B & 63)))
  OM64_TH_INTOP(Srl,
                static_cast<int64_t>(static_cast<uint64_t>(A) >> (B & 63)))
  OM64_TH_INTOP(Sra, A >> (B & 63))

  OM64_TH_FPOP(Addt, A + B)
  OM64_TH_FPOP(Subt, A - B)
  OM64_TH_FPOP(Mult, A *B)
  OM64_TH_FPOP(Divt, A / B)
  OM64_TH_FPOP(Cmpteq, A == B ? 2.0 : 0.0)
  OM64_TH_FPOP(Cmptlt, A < B ? 2.0 : 0.0)
  OM64_TH_FPOP(Cmptle, A <= B ? 2.0 : 0.0)
  OM64_TH_FPOP(Cpys, std::copysign(B, A))
  OM64_TH_FPOP(Cvtqt, static_cast<double>(std::bit_cast<int64_t>(B)))
  OM64_TH_FPOP(Cvttq, std::bit_cast<double>(truncToInt64(B)))

  OM64_TH_TARGET(Itoft) {
    OM64_TH_ENTER();
    ++Cls[ClsTransfer];
    F[PP->W] = std::bit_cast<double>(R[PP->A]);
    OM64_TH_NEXT();
  }
  OM64_TH_TARGET(Ftoit) {
    OM64_TH_ENTER();
    ++Cls[ClsTransfer];
    R[PP->W] = std::bit_cast<int64_t>(F[PP->A]);
    OM64_TH_NEXT();
  }

  // Sequential fall-through past the last instruction, checked before
  // the next budget test.
  OM64_TH_TARGET(OffEnd)
  return pcFault(TextBase + N * 4);

L_Budget:
  return budgetFault();

L_Fault:
  return stepFault(OM64_TH_PC());

L_Halt:
  Res.Instructions = MaxInsts + 1 - Fuel;
  // Derived counters. Loads/stores: every executed load/store instruction
  // is exactly one IntLoad/FpLoad (IntStore/FpStore) class retirement — a
  // memory op is never a nop, and faulted ones discard the result — so the
  // hot handlers skip those increments. IntOp: the integer-operate
  // handlers carry no histogram update at all; their count is what is left
  // of Instructions after every counted class (including int-op *nops*,
  // which the nop handler did count into Cls[IntOp] — the subtraction
  // yields all integer operates either way, and the slot is overwritten).
  {
    uint64_t Others = 0;
    for (unsigned C = 0; C < NumInstClasses; ++C)
      if (C != ClsIntOp)
        Others += Cls[C];
    Cls[ClsIntOp] = Res.Instructions - Others;
  }
  Res.Nops = NNops;
  Res.Loads = Cls[ClsIntLoad] + Cls[ClsFpLoad];
  Res.Stores = Cls[ClsIntStore] + Cls[ClsFpStore];
  Res.TakenBranches = NTaken;
  for (unsigned C = 0; C < NumInstClasses; ++C)
    Res.ClassCounts[C] = Cls[C];
  if constexpr (Timing) {
    Res.Cycles = Pipe.Cycle;
    Res.DualIssuePairs = Pipe.DualIssuePairs;
    Res.ICacheMisses = Pipe.ICacheMisses;
    Res.DCacheMisses = Pipe.DCacheMisses;
    Res.BlocksEnded = Pipe.BlocksEnded;
    Res.BlocksMemoized = Pipe.BlocksMemoized;
  }
  if constexpr (Prof)
    finishProfile();
  Res.FinalData = std::move(DataSegment);
  return std::move(Res);

#undef OM64_TH_TARGET
#undef OM64_TH_GOTO
#undef OM64_TH_PC
#undef OM64_TH_ENTER
#undef OM64_TH_RETIRE
#undef OM64_TH_END_BLOCK
#undef OM64_TH_NEXT
#undef OM64_TH_TAKEN
#undef OM64_TH_CONDBR
#undef OM64_TH_INTOP
#undef OM64_TH_FPOP
#undef OM64_TH_LOAD
#undef OM64_TH_STORE
}

Result<SimResult> Machine::run() {
  if (Cfg.Timing)
    return Cfg.Profile ? runCore<true, true>() : runCore<true, false>();
  return Cfg.Profile ? runCore<false, true>() : runCore<false, false>();
}

/// Rejects address-space layouts the core cannot represent, before any
/// segment is allocated: a misaligned text base, a segment that wraps past
/// 2^64, overlapping segments, or a data segment larger than the gap
/// between the standard data base and the stack.
static Error checkLayout(const Image &Img) {
  if (Img.TextBase % 4 != 0)
    return Error::failure(formatString("text base %s is not 4-byte aligned",
                                       formatHex64(Img.TextBase).c_str()));
  const uint64_t MaxData = Layout::MaxDataBytes;
  if (Img.BssSize > MaxData || Img.Data.size() > MaxData - Img.BssSize)
    return Error::failure(formatString(
        "data segment of %llu + %llu bss bytes exceeds the %llu-byte limit",
        static_cast<unsigned long long>(Img.Data.size()),
        static_cast<unsigned long long>(Img.BssSize),
        static_cast<unsigned long long>(MaxData)));
  struct Segment {
    const char *Name;
    uint64_t Base;
    uint64_t Size;
  };
  const Segment Segs[] = {
      {"text", Img.TextBase, Img.Text.size()},
      {"data", Img.DataBase, Img.Data.size() + Img.BssSize},
      {"stack", Layout::StackTop - Layout::StackSize, Layout::StackSize}};
  for (const Segment &S : Segs)
    if (S.Size != 0 && S.Size - 1 > UINT64_MAX - S.Base)
      return Error::failure(formatString(
          "%s segment at %s (%llu bytes) wraps past 2^64", S.Name,
          formatHex64(S.Base).c_str(),
          static_cast<unsigned long long>(S.Size)));
  for (size_t A = 0; A < 3; ++A)
    for (size_t B = A + 1; B < 3; ++B) {
      const Segment &X = Segs[A], &Y = Segs[B];
      if (X.Size != 0 && Y.Size != 0 && X.Base <= Y.Base + (Y.Size - 1) &&
          Y.Base <= X.Base + (X.Size - 1))
        return Error::failure(formatString("%s and %s segments overlap",
                                           X.Name, Y.Name));
    }
  return Error::success();
}

Result<SimResult> om64::sim::run(const Image &Img, const SimConfig &Cfg) {
  if (Error E = checkLayout(Img))
    return Result<SimResult>::failure("bad image layout: " + E.message());
  if (Img.Text.empty() || Img.Entry < Img.TextBase ||
      Img.Entry % 4 != 0 ||
      Img.Entry >= Img.TextBase + Img.Text.size() / 4 * 4)
    return Result<SimResult>::failure("image has no valid entry point");
  if (Cfg.Timing) {
    // The caches index by shift and mask, so both sizes must be powers of
    // two, with at least one line; the I-cache is fetched a line at a
    // time, so its lines must hold at least one instruction.
    auto checkCache = [](const char *Which, const CacheConfig &C,
                         uint32_t MinLine) {
      if (!std::has_single_bit(C.LineBytes) ||
          !std::has_single_bit(C.SizeBytes) || C.LineBytes < MinLine ||
          C.SizeBytes < C.LineBytes)
        return Error::failure(formatString(
            "invalid %s-cache geometry: %u-byte lines, %u-byte size",
            Which, C.LineBytes, C.SizeBytes));
      return Error::success();
    };
    if (Error E = checkCache("I", Cfg.ICache, 4))
      return Result<SimResult>::failure(E.message());
    if (Error E = checkCache("D", Cfg.DCache, 1))
      return Result<SimResult>::failure(E.message());
  }
  Stopwatch Clock;
  Machine M(Img, Cfg);
  Result<SimResult> R = M.run();
  if (R)
    R->HostSeconds = Clock.seconds();
  return R;
}
