//===- om/Analysis.h - Link-time dataflow analysis over symbolic form -----===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// OmAnalysis: the dataflow layer under OM's transforms, the rescheduler,
/// and deletion-proof verification.
///
/// The paper's OM-full justifies its deletions by understanding the
/// recovered control structure; the pattern transforms in Transforms.cpp
/// approximate that understanding syntactically ("this looks like a GP
/// reset after a call"). This file provides the real thing:
///
///   * a per-procedure CFG over SymbolicProgram with reachability and
///     reverse postorder,
///   * a forward abstract interpretation tracking register contents as
///     symbolic values (GpOfGroup(g), EntryOf(proc), AddrOf(sym), Stack,
///     Uninit, Unknown; meet at joins) with a dedicated may-set domain for
///     GP so pass-through callees keep caller facts precise,
///   * an interprocedural fixpoint over per-procedure entry/exit GP
///     summaries, seeded from the loader contract (the simulator enters
///     the entry procedure with PV = entry address and GP = its group's
///     GP value),
///   * backward register liveness over the 64 register units, computed on
///     demand (analyzeLiveness) for the consumers that read it.
///
/// OM deletes GP and PV code from register values alone, so there is one
/// kind of analysis: CFGs, block-entry values and value summaries. The
/// memory domain (stack frames, GAT provenance, callee-saved preservation)
/// serves only the lint's L006..L010 and lives in Lint.cpp, layered over
/// the same converged values (om/Lint.h).
///
/// Everything here is a pure function of the SymbolicProgram: per-procedure
/// passes fan out on the ThreadPool into per-index slots and are reduced in
/// procedure order, so results are identical for any pool size. OmContext
/// (OmImpl.h) caches one ProgramAnalysis per mutation epoch; transforms
/// invalidate it by stage, and each recompute reuses the link's memo. The
/// per-procedure fixpoint allocates nothing per block: block-entry states
/// meet in place, and each procedure's Cfg is built once per content key
/// and kept in the SummaryCache next to its rounds.
///
//===----------------------------------------------------------------------===//

#ifndef OM64_OM_ANALYSIS_H
#define OM64_OM_ANALYSIS_H

#include "om/SymbolicProgram.h"
#include "sched/ListScheduler.h"
#include "support/ThreadPool.h"

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

namespace om64 {
namespace om {
namespace analysis {

//===----------------------------------------------------------------------===//
// Abstract values
//===----------------------------------------------------------------------===//

/// What a register may hold at a program point, as a single symbolic value.
/// Bottom is the meet identity (no path reaches the point yet); Unknown is
/// the top ("anything"). Uninit means every path reaches the point without
/// the register ever being written — the basis of lint L001.
enum class ValueKind : uint8_t {
  Bottom,
  Uninit,
  EntryOf,   // entry address of procedure Id
  AddrOf,    // address of data symbol Id (exact, offset 0)
  GpOfGroup, // the GP value of GAT group Id
  GlobalPtr, // derived pointer into the text/data segment (identity lost)
  Stack,     // SP-derived pointer into the stack segment
  Unknown,
};

/// One abstract register value.
struct AbsVal {
  ValueKind Kind = ValueKind::Bottom;
  uint32_t Id = 0; // EntryOf: proc index; AddrOf: symbol id; GpOfGroup: group

  static AbsVal bottom() { return {}; }
  static AbsVal uninit() { return {ValueKind::Uninit, 0}; }
  static AbsVal unknown() { return {ValueKind::Unknown, 0}; }
  static AbsVal entryOf(uint32_t Proc) { return {ValueKind::EntryOf, Proc}; }
  static AbsVal addrOf(uint32_t Sym) { return {ValueKind::AddrOf, Sym}; }
  static AbsVal gpOfGroup(uint32_t G) { return {ValueKind::GpOfGroup, G}; }
  static AbsVal globalPtr() { return {ValueKind::GlobalPtr, 0}; }
  static AbsVal stack() { return {ValueKind::Stack, 0}; }

  bool operator==(const AbsVal &O) const = default;

  /// True for values that are provably addresses into text/data (never the
  /// stack segment).
  bool isGlobalDerived() const {
    return Kind == ValueKind::EntryOf || Kind == ValueKind::AddrOf ||
           Kind == ValueKind::GpOfGroup || Kind == ValueKind::GlobalPtr;
  }

  /// Lattice meet: Bottom is the identity, equal values meet to themselves,
  /// and any disagreement goes to Unknown (GlobalPtr absorbs other
  /// global-derived values so base classification survives joins).
  static AbsVal meet(const AbsVal &A, const AbsVal &B);
};

/// The GP register gets a richer domain than one scalar: a may-set. This is
/// what keeps pass-through callees precise — a callee that establishes no
/// GP on some paths and its own group's GP on others returns
/// "entry-GP-or-group-g", which a same-group caller can still prove
/// correct. Joins are field-wise unions; GP is *proven* to hold group g's
/// value only when the set is exactly {g} (after resolving MaybeEntry
/// through the procedure's entry summary).
struct GpVal {
  bool MaybeEntry = false; // may still hold the procedure's entry GP
  bool MaybeOther = false; // may hold a non-GP-of-any-group value
  uint64_t Groups = 0;     // may hold group g's GP, for every set bit g
                           // (groups >= 64 saturate into MaybeOther, the
                           // same convention as computeReachableGroups)

  static GpVal bottom() { return {}; }
  static GpVal entry() { return {true, false, 0}; }
  static GpVal other() { return {false, true, 0}; }
  static GpVal ofGroup(uint32_t G) {
    if (G >= 64)
      return other();
    return {false, false, 1ull << G};
  }

  bool isBottom() const { return !MaybeEntry && !MaybeOther && Groups == 0; }
  bool operator==(const GpVal &O) const = default;

  GpVal &operator|=(const GpVal &O) {
    MaybeEntry |= O.MaybeEntry;
    MaybeOther |= O.MaybeOther;
    Groups |= O.Groups;
    return *this;
  }

  /// True when this value, with MaybeEntry already resolved away, is
  /// exactly group \p G's GP.
  bool provenGroup(uint32_t G) const {
    return !MaybeEntry && !MaybeOther && G < 64 && Groups == (1ull << G);
  }
};

/// Result of asking whether GP provably holds a group's value at a point.
enum class GpProof : uint8_t {
  Proven,      // GP == GpOfGroup(g) on every path into the point
  Unreachable, // no path reaches the point at all
  Unproven,
};

//===----------------------------------------------------------------------===//
// Control-flow graph
//===----------------------------------------------------------------------===//

/// One basic block: the half-open instruction range [Begin, End) plus its
/// successor edges (block indices). At most two successors (fall-through
/// and/or one branch target); predecessors are Cfg::preds.
struct CfgBlock {
  uint32_t Begin = 0;
  uint32_t End = 0;
  uint32_t NumSuccs = 0;
  std::array<uint32_t, 2> Succs = {~0u, ~0u};
  uint32_t PredBegin = 0; ///< first of this block's Cfg::Preds
  bool Reachable = false; ///< from the entry block
  /// Control can run past the last instruction of the procedure from here
  /// (a missing terminator, or a conditional branch at the end). Liveness
  /// treats the fall-off edge as reading every register.
  bool FallsOff = false;
};

/// Per-procedure CFG with reachability and reverse postorder. Nullified
/// instructions are treated as no-ops (they fall through), calls end their
/// block with a fall-through edge, and Ret / Halt / computed jumps end
/// their block with no successors.
struct Cfg {
  std::vector<CfgBlock> Blocks;   // in instruction order
  std::vector<uint32_t> BlockOf;  // instruction index -> block index
  /// Predecessor edges, flat: block B's start at Preds[Blocks[B].PredBegin]
  /// and end where block B + 1's start, in increasing source-block order.
  std::vector<uint32_t> Preds;
  std::vector<uint32_t> Rpo; // reachable blocks in reverse postorder
  /// True when some reachable block can fall through past the last
  /// instruction (into the next procedure) — lint L004.
  bool FallsOffEnd = false;
  /// True when the procedure contains a computed jump (Opcode::Jmp); its
  /// targets are invisible to the symbolic form, so every analysis goes
  /// conservative for the whole program.
  bool HasComputedJump = false;

  /// Block \p B's predecessors.
  std::span<const uint32_t> preds(uint32_t B) const {
    uint32_t End = B + 1 < Blocks.size() ? Blocks[B + 1].PredBegin
                                         : static_cast<uint32_t>(Preds.size());
    return {Preds.data() + Blocks[B].PredBegin, End - Blocks[B].PredBegin};
  }
};

/// Builds the CFG of one procedure. Pure; safe to call concurrently on
/// different procedures.
Cfg buildCfg(const SymProc &Proc);

//===----------------------------------------------------------------------===//
// Per-procedure dataflow results
//===----------------------------------------------------------------------===//

/// Abstract register state at a program point: one scalar value per
/// register unit, plus the may-set GP domain (the scalar slot for GP holds
/// the projection of Gp — GpOfGroup(g) when proven, Unknown otherwise).
/// Unreachable marks points no execution reaches (the meet identity); it
/// covers both CFG-unreachable blocks and code after provably
/// non-returning calls.
struct ValueState {
  std::array<AbsVal, 64> R;
  GpVal Gp;
  bool Unreachable = true;
};

/// Forward value-analysis result: the state at entry to each block
/// (indices align with Cfg::Blocks). Unreachable blocks keep all-Bottom
/// states.
struct ProcValues {
  std::vector<ValueState> In;
};

/// Backward liveness result: live register units (bit = unit) at block
/// entry and exit.
struct ProcLiveness {
  std::vector<uint64_t> In;
  std::vector<uint64_t> Out;
};

/// Interprocedural summary of one procedure, produced by the optimistic
/// fixpoint in analyzeProgram.
struct ProcSummary {
  /// GP on entry, as the union over every call site (plus the loader for
  /// the entry procedure and every indirect call site for address-taken
  /// procedures). MaybeEntry is always resolved away here.
  GpVal EntryGp;
  /// GP on return, relative to entry: MaybeEntry set means some path
  /// returns with the entry GP untouched (pass-through).
  GpVal ExitGp;
  /// True when some reachable return exists (false: provably no return,
  /// e.g. every path halts — the least-fixpoint reading is sound).
  bool Returns = false;
  /// May write PV anywhere in its call subtree before returning. A callee
  /// with this false preserves the caller's PV — the basis of the
  /// "provably equal PV at the call" deletion.
  bool ClobbersPv = true;
  /// Entering at instruction 0 executes a live prologue GP-set pair,
  /// whose LDAH reads PV.
  bool ReadsPvAtEntry = false;
};

namespace detail {

/// One procedure's per-round analysis products that feed the
/// interprocedural fixpoint. Exposed outside Analysis.cpp only so
/// SummaryCache can store rounds; not part of the stable analysis API.
struct ProcRound {
  ProcValues Values;
  ProcSummary Summary;
  /// Call-site EntryGp contributions: (callee, raw pre-call GpVal). Raw
  /// means MaybeEntry is not yet resolved through this procedure's own
  /// EntryGp.
  std::vector<std::pair<uint32_t, GpVal>> CalleeEntries;
  /// Raw pre-call GpVals of indirect call sites and computed jumps — they
  /// contribute to every address-taken procedure's entry.
  std::vector<GpVal> IndirectEntries;
  bool HasDataCall = false; // JsrViaGat through a non-procedure symbol
};

} // namespace detail

//===----------------------------------------------------------------------===//
// Whole-program analysis
//===----------------------------------------------------------------------===//

/// Memo of per-procedure analysis results behind every analyzeProgram
/// call: one per om::optimize() link, one per output image across
/// om::IncrementalLinker relinks, or a call-local one. Keys are content
/// hashes: the procedure's own code plus every cross-procedure fact its
/// transfer functions read (Proc), and the summary inputs of the fixpoint
/// round (Inputs — callee summaries plus the combined indirect summary).
/// A hit is therefore exactly a round the fixpoint would recompute
/// bit-identically, so no result depends on the cache's history, and a
/// round whose inputs did not move is never re-evaluated. Every run is the
/// same kind, so Pass A, Pass B and the rescheduler share rounds.
/// Mid-fixpoint rounds are stored stripped (no value table); the converged
/// round per procedure is upgraded to carry block-entry values. Cfgs are
/// kept by procedure content key alone; liveness, when asked for, by
/// ProgramAnalysis::LiveKeys. Not thread-safe: one analysis at a time per
/// cache.
class SummaryCache {
public:
  struct Key {
    uint64_t Proc = 0;
    uint64_t Inputs = 0;
    bool operator==(const Key &O) const = default;
  };
  struct KeyHasher {
    size_t operator()(const Key &K) const {
      return static_cast<size_t>(K.Proc ^
                                 (K.Inputs * 0x9e3779b97f4a7c15ull));
    }
  };
  struct RoundEntry {
    detail::ProcRound R;
    bool HasValues = false; // R.Values populated (converged rounds only)
    uint64_t LastUse = 0;   // generation stamp for eviction
    size_t Bytes = 0;       // estimated footprint
  };
  struct LiveEntry {
    ProcLiveness L;
    uint64_t LastUse = 0;
    size_t Bytes = 0;
  };
  struct CfgEntry {
    Cfg C;
    uint64_t LastUse = 0;
    size_t Bytes = 0;
  };
  /// Work summed over every analyzeProgram call on this cache.
  struct Counters {
    uint64_t Runs = 0;            // analyzeProgram calls
    uint64_t RoundsEvaluated = 0; // per-procedure rounds computed
    uint64_t RoundsReused = 0;    // fixpoint-round lookups served
  };
  Counters Totals;

  /// Evicts least-recently-used entries (ties broken by key, so eviction
  /// is deterministic) until the estimated footprint fits \p MaxBytes.
  void trim(size_t MaxBytes);
  size_t estimatedBytes() const { return Bytes; }

  // State below is written only by analyzeProgram and analyzeLiveness.
  std::unordered_map<Key, std::shared_ptr<RoundEntry>, KeyHasher> Rounds;
  std::unordered_map<Key, std::shared_ptr<LiveEntry>, KeyHasher> Liveness;
  std::unordered_map<uint64_t, std::shared_ptr<CfgEntry>> Cfgs; // by Key::Proc
  uint64_t Gen = 0;
  size_t Bytes = 0;
};

/// Everything OmAnalysis knows about one SymbolicProgram. All vectors are
/// indexed by procedure. Cfgs and Values alias (never copy) the tables of
/// SummaryCache entries, keeping them alive if the cache drops the entry.
struct ProgramAnalysis {
  std::vector<std::shared_ptr<const Cfg>> Cfgs;
  std::vector<std::shared_ptr<const ProcValues>> Values;
  std::vector<ProcSummary> Summaries;
  /// Combined summary applied at indirect call sites: the union of every
  /// address-taken procedure's ExitGp/ClobbersPv (conservatively Unknown
  /// when the program has computed jumps or calls through data literals).
  GpVal IndirectExitGp;
  bool IndirectClobbersPv = true;
  bool IndirectReturns = true;
  bool IndirectReadsPv = true;
  /// Groups the dataflow proves each procedure's call subtree may leave in
  /// GP at return (same ~0 saturation as computeReachableGroups); the
  /// verify stage asserts this is a subset of the pattern's reach set.
  std::vector<uint64_t> ReachableGroups;
  /// The key each procedure's liveness is memoized under in the
  /// SummaryCache: its content hash and every summary its backward
  /// transfers read (analyzeLiveness).
  std::vector<SummaryCache::Key> LiveKeys;

  /// Abstract register state immediately before Procs[ProcIdx].Insts[InstIdx]
  /// (all-Bottom when the instruction's block is unreachable). Walks the
  /// block from its stored entry state.
  ValueState valuesBefore(const SymbolicProgram &SP, uint32_t ProcIdx,
                          uint32_t InstIdx) const;

  /// Whether GP provably holds group \p Group's value on every path into
  /// Insts[InstIdx].
  GpProof gpBefore(const SymbolicProgram &SP, uint32_t ProcIdx,
                   uint32_t InstIdx, uint32_t Group) const;
};

/// Backward liveness of every procedure of one analyzed program: what
/// deletion Pass B and the deletion-proof verifier read. Procs alias the
/// SummaryCache's tables.
struct ProgramLiveness {
  std::vector<std::shared_ptr<const ProcLiveness>> Procs;

  /// Live register units immediately after Insts[InstIdx] of procedure
  /// \p ProcIdx (i.e. the set a deletion of InstIdx must not be observed
  /// by). Walks the block backward from its stored exit liveness; \p PA is
  /// the analysis this liveness was computed from.
  uint64_t liveAfter(const SymbolicProgram &SP, const ProgramAnalysis &PA,
                     uint32_t ProcIdx, uint32_t InstIdx) const;
};

/// Analyzes the whole program: CFGs per procedure, the interprocedural GP
/// fixpoint, and per-procedure block-entry value states. Deterministic for
/// any pool size (per-index slots, procedure-order reductions,
/// order-insensitive meets). Cfgs and per-procedure rounds go through
/// \p Cache by content key; the result is the same for any cache contents
/// (keys cover every input the computations read).
ProgramAnalysis analyzeProgram(const SymbolicProgram &SP, ThreadPool &Pool,
                               SummaryCache &Cache);

/// analyzeProgram with a fresh call-local cache, sharing no entry with any
/// link.
ProgramAnalysis analyzeProgram(const SymbolicProgram &SP, ThreadPool &Pool);

/// Backward liveness of every procedure of \p SP against \p PA's converged
/// summaries, memoized in \p Cache's Liveness by PA.LiveKeys: a procedure
/// whose key is cached is not recomputed. Deterministic for any pool size.
ProgramLiveness analyzeLiveness(const SymbolicProgram &SP,
                                const ProgramAnalysis &PA, ThreadPool &Pool,
                                SummaryCache &Cache);

/// Classifies every instruction's memory base register for the
/// rescheduler's alias disambiguation: Global (a text/data-segment
/// pointer: GP, a GAT-loaded address, or arithmetic on one), Stack
/// (SP-derived) or Unknown. Non-memory instructions get Unknown. Pure per
/// procedure.
std::vector<sched::MemRegion> memBaseRegions(const SymbolicProgram &SP,
                                             const ProgramAnalysis &PA,
                                             uint32_t ProcIdx);

namespace detail {

/// Re-runs procedure \p ProcIdx's fixpoint round against \p PA's
/// converged summaries into \p Out: the routine every analyzeProgram round
/// runs. Once \p Out has grown to the procedure, a repeat allocates
/// nothing (pinned by analysis_alloc_test).
void evaluateRound(const SymbolicProgram &SP, const ProgramAnalysis &PA,
                   uint32_t ProcIdx, ProcRound &Out);

} // namespace detail

} // namespace analysis
} // namespace om
} // namespace om64

#endif // OM64_OM_ANALYSIS_H
