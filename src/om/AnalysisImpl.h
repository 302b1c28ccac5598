//===- om/AnalysisImpl.h - Value transfers shared with the lint -----------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Private interface between the dataflow (Analysis.cpp) and the lint
/// (Lint.cpp): the value transfer functions and the per-procedure value
/// fixpoint, which the lint runs with its memory domain riding along.
///
//===----------------------------------------------------------------------===//

#ifndef OM64_OM_ANALYSISIMPL_H
#define OM64_OM_ANALYSISIMPL_H

#include "om/Analysis.h"

#include <cstdint>
#include <vector>

namespace om64 {
namespace om {
namespace analysis {
namespace detail {

constexpr unsigned GpUnit = 29; // intUnit(isa::GP)
constexpr unsigned PvUnit = 27; // intUnit(isa::PV)
constexpr unsigned SpUnit = 30; // intUnit(isa::SP)
constexpr unsigned RaUnit = 26; // intUnit(isa::RA)

inline uint64_t unitBit(unsigned U) { return 1ull << U; }

/// Everything a transfer function needs besides the state: the program and
/// the current interprocedural summaries (possibly mid-fixpoint).
struct TransferCtx {
  const SymbolicProgram &SP;
  const std::vector<ProcSummary> &Summaries;
  GpVal IndirectExitGp;
  bool IndirectClobbersPv = true;
  bool IndirectReturns = true;
  bool IndirectReadsPv = true;
  /// When set (lint only), AddressLoad provenness resolves MaybeEntry
  /// through this converged entry-GP summary, exactly as gpBefore and the
  /// L002 check do. The fixpoint rounds leave it null: they run before
  /// EntryGp exists, which is what keeps EntryGp out of the cache keys.
  const GpVal *ResolveEntry = nullptr;
};

/// The context of query-time transfers over \p PA: its converged summaries
/// and its combined indirect summary.
TransferCtx contextOf(const SymbolicProgram &SP, const ProgramAnalysis &PA);

/// The context of a fixpoint round under \p Summaries: the indirect
/// summary is the union over \p AddressTaken, or all-unknown with a
/// computed jump or no address-taken procedure. ProgramAnalysis's is the
/// converged round's, further poisoned by calls through data symbols.
TransferCtx roundContext(const SymbolicProgram &SP,
                         const std::vector<ProcSummary> &Summaries,
                         const std::vector<uint32_t> &AddressTaken,
                         bool AnyComputedJump);

bool isCall(const SymInst &SI);

/// Resolves a call site to its callee procedure; ~0u means "indirect or
/// through a data symbol" (use the combined indirect summary).
uint32_t calleeOf(const SymbolicProgram &SP, const SymInst &SI);

/// Whether \p Raw, with MaybeEntry resolved through \p EntryGp, is exactly
/// group \p Group's GP (the L002/gpBefore resolution).
bool gpProvenAt(uint32_t Group, const GpVal &Raw, const GpVal &EntryGp);

/// Forward transfer of one instruction over a value state. Nullified
/// instructions are no-ops. Control effects (successors) live in the CFG;
/// this models only register contents and the "call never returns" cut.
void applyInst(const TransferCtx &C, const SymProc &Proc, const SymInst &SI,
               ValueState &S);

/// The abstract state procedure \p ProcIdx is entered with.
ValueState entryState(uint32_t ProcIdx);

/// Meets \p From into \p Into in place; true when \p Into changed.
bool meetInto(ValueState &Into, const ValueState &From);

/// solveProc's rider when nothing rides the value walk.
struct NoRider {
  void enter(uint32_t) {}
  void step(const SymInst &, const ValueState &) {}
  bool meet(uint32_t) { return false; }
};

/// Runs one procedure's intra-procedural value fixpoint, block-entry
/// states into \p VIn. \p R is a domain riding the value walk (the lint's
/// memory states): R.enter(B) as block B's walk starts, R.step(SI, S)
/// before each instruction's value transfer (S is the state before it),
/// and R.meet(Succ) along each edge, true when Succ's entry state changed.
/// The value transfer never reads the rider, so \p VIn is the same with
/// any rider.
template <class Rider>
void solveProc(const TransferCtx &C, uint32_t ProcIdx, const Cfg &G,
               std::vector<ValueState> &VIn, Rider &R) {
  const SymProc &Proc = C.SP.Procs[ProcIdx];
  VIn.assign(G.Blocks.size(), ValueState());
  if (G.Blocks.empty())
    return;
  VIn[0] = entryState(ProcIdx);
  // Iterate over RPO to a fixpoint: meets only descend the lattice, so
  // in-states are meet-accumulated and never reset. (The entry block keeps
  // its entry state met with any back edges into instruction 0.)
  ValueState S;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t B : G.Rpo) {
      if (VIn[B].Unreachable)
        continue;
      S = VIn[B];
      R.enter(B);
      const CfgBlock &Blk = G.Blocks[B];
      for (uint32_t I = Blk.Begin; I < Blk.End; ++I) {
        R.step(Proc.Insts[I], S);
        applyInst(C, Proc, Proc.Insts[I], S);
      }
      for (uint32_t K = 0; K < Blk.NumSuccs; ++K) {
        Changed |= meetInto(VIn[Blk.Succs[K]], S);
        Changed |= R.meet(Blk.Succs[K]);
      }
    }
  }
}

} // namespace detail
} // namespace analysis
} // namespace om
} // namespace om64

#endif // OM64_OM_ANALYSISIMPL_H
