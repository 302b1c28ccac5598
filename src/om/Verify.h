//===- om/Verify.h - OM correctness verification ---------------------------=//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// OmVerify: the correctness subsystem for OM's symbolic-form pipeline.
///
/// The symbolic form carries *positional* bookkeeping — LitInfo records raw
/// instruction indices (LoadIdx, JsrIdx, the three use lists) and
/// LocalBranch carries TargetIdx — so any transform that reorders a
/// procedure's Insts vector can silently invalidate them, and a later pass
/// that trusts a stale index will nullify or rewrite the *wrong*
/// instruction. Production binary rewriters treat this bug class as
/// existential and verify between passes; OmVerify does the same here, at
/// two layers:
///
///   1. verifyStage: a structural invariant check over a
///      SymbolicProgram, runnable after lift and after every transform
///      stage. Violations are reported through support/Diagnostics with the
///      stage name, procedure, and 1-based instruction index, so a broken
///      invariant names the transform that broke it.
///
///   2. runDifferential: a differential-execution harness that links the
///      same objects at OmLevel::None vs Simple / Full / Full+sched, runs
///      every variant on the functional simulator, and demands identical
///      architectural results: exit value, output stream, and a
///      layout-independent hash of the final data memory.
///
//===----------------------------------------------------------------------===//

#ifndef OM64_OM_VERIFY_H
#define OM64_OM_VERIFY_H

#include "om/Om.h"
#include "om/SymbolicProgram.h"
#include "support/Result.h"
#include "support/ThreadPool.h"

#include <cstdint>
#include <string>
#include <vector>

namespace om64 {
namespace om {

namespace analysis {
struct ProgramAnalysis;
} // namespace analysis

/// Checks the structural invariants of \p SP after stage \p Stage. Fails
/// with an Error whose message carries one rendered diagnostic per
/// violation (buffer name "<stage>:<procedure>", line = 1-based
/// instruction index).
///
/// Invariants:
///   * symbol/procedure cross-references are in range and mutually
///     consistent (PSym::ProcIdx <-> SymProc::SymId),
///   * LocalBranch::TargetIdx and DirectCall::TargetProc are in range,
///   * every GpHigh has exactly one GpLow with the same PairId and GpKind,
///     the high precedes the low, and the two are both nullified or
///     neither (a half-nullified pair corrupts GP),
///   * while SP.Lits is populated (OM-full's deletion stage drops it,
///     after which these checks are vacuous): every LitInfo index
///     points at an instruction of the matching SKind and LitId, every
///     lit-tagged instruction is listed by its literal at exactly its own
///     index, and a nullified address load has no live JsrViaGat consumer
///     and does not feed an escaping literal.
///
/// When \p Pool is non-null the per-procedure checks run on its workers,
/// each into a private engine; the engines are merged in procedure order,
/// so the diagnostics are identical at any pool size.
Error verifyStage(const SymbolicProgram &SP, const std::string &Stage,
                  ThreadPool *Pool = nullptr);

/// Re-derives the dataflow proof behind every analysis-based deletion
/// (SymInst::AnalysisNullified) from a *fresh* ProgramAnalysis (its own
/// call-local SummaryCache, sharing no entry with the link) and fails
/// if any deletion is no longer justified: a deleted GP pair must see GP
/// already holding the procedure's group on every path into the pair (or
/// the pair must be unreachable), and a deleted address load must be
/// unreachable, have a dead destination, or provably load a value its
/// destination register already held. Also audits the dataflow's
/// ReachableGroups against the pattern matcher's reach set — the dataflow
/// result must be a subset, else one of the two is wrong. Run after the
/// call-transform stage when OmOptions::Analysis is on.
Error verifyDeletionProofs(const SymbolicProgram &SP, ThreadPool &Pool);

/// Checks the rescheduler's memory base regions: memBaseRegions over
/// \p PA (the rescheduler's analysis of \p SP) must equal memBaseRegions
/// over a fresh analysis with its own call-local cache,
/// on every instruction. A mismatch fails with one diagnostic per
/// instruction, naming the procedure ("sched-regions:<proc>") and the
/// 1-based instruction index. Runs before rescheduling under
/// OmOptions::Verify when the analysis feeds the scheduler.
Error verifyMemBaseRegions(const SymbolicProgram &SP,
                           const analysis::ProgramAnalysis &PA,
                           ThreadPool &Pool);

/// Post-assembly range audit for the worst-case-then-shrink BSR relaxation
/// (Emit.cpp): decodes every text word of the *final* image and, for each
/// surviving BSR, re-derives the target address from the encoded 21-bit
/// word displacement and demands it land inside some procedure's
/// [Entry, Entry + Size) span. The relaxation admits conversions against a
/// monotone upper-bound layout; this check closes the loop against the
/// addresses actually assembled, so a bound bug cannot ship a branch into
/// the void. Runs under OmOptions::Verify after assembly.
Error verifyBsrRanges(const obj::Image &Img);

/// One linked-and-executed configuration of a differential run.
struct DifferentialLeg {
  OmLevel Level = OmLevel::None;
  bool Sched = false;
  int64_t ExitCode = 0;
  std::string Output;
  uint64_t MemoryHash = 0;   // canonicalMemoryHash of the final data segment
  uint64_t Instructions = 0; // functional instruction count (informational)
};

/// The per-leg results of a successful differential run. Legs[0] is the
/// OmLevel::None reference; every later leg matched it.
struct DifferentialReport {
  std::vector<DifferentialLeg> Legs;
};

/// Layout-independent hash of a program's final data memory. Data layouts
/// legitimately differ across OM levels (size-sorted data, GAT shrinkage)
/// and stored code/data pointers embed shifted addresses, so the raw bytes
/// of the data segment cannot be compared. Instead the hash walks the
/// non-procedure symbols in name order and, for each stored quadword that
/// lands in the text or data range, substitutes the symbolic form
/// (procedure or symbol name + offset) for the raw address.
uint64_t canonicalMemoryHash(const obj::Image &Img,
                             const std::vector<uint8_t> &FinalData);

/// Links \p Objects at OmLevel::None, Simple, Full, and Full+sched (with
/// \p Base supplying everything but the level/scheduling fields; any
/// Verify/VerifyEachStage request in \p Base applies to every leg), runs
/// each image on the functional simulator, and fails unless every leg
/// reproduces the None leg's exit code, output, and canonical memory hash.
///
/// The four legs run concurrently, one sim::runSuite job each.
Result<DifferentialReport>
runDifferential(const std::vector<obj::ObjectFile> &Objects,
                const OmOptions &Base = OmOptions());

} // namespace om
} // namespace om64

#endif // OM64_OM_VERIFY_H
