//===- sched/ListScheduler.h - Shared basic-block list scheduler ----------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dependence-preserving list scheduling of straight-line AAX code, shared
/// by the compile-time pipeline scheduler in codegen and by OM-full's
/// optional link-time rescheduler ("a version of the standard AXP/OSF
/// scheduler", section 5.2).
///
/// scheduleWithBarriers is the one walker from a procedure to its regions.
/// A region ends at every barrier (which stays in place) and before every
/// caller-marked region start: codegen marks its labelled instructions,
/// OM its branch targets and the instruction past the pinned prologue GP
/// pair. Each region is scheduled in place as a span of the caller's
/// instructions. The walker returns a *permutation of indices* rather than
/// permuted instructions, so callers can permute their parallel annotation
/// arrays (relocation notes, label attachments) alongside the code.
///
/// Modelled machine: dual-issue in-order; at most one memory operation and
/// one branch per cycle; producer latencies from isa::latencyOf. Memory
/// ordering has one model: every store orders against every earlier memory
/// operation and every load against every earlier store, unless the
/// caller's base classes (MemRegion) prove the pair disjoint. Without
/// classes every access is Unknown (the paper notes OM's scheduler lacks
/// the compiler's alias information; so does the compile-time scheduler
/// here, keeping the two comparable).
///
/// scheduleWithBarriers keeps one scratch per thread (flat CSR dependence
/// arrays, per-instruction and per-register-unit buffers) across all its
/// calls and regions, so a region allocates nothing once the buffers fit
/// the largest one; scheduleRegion owns one per call. The issue
/// loop scans only ready instructions and picks the greatest height, ties
/// to the lowest index: the same choice as a scan of the whole region.
///
//===----------------------------------------------------------------------===//

#ifndef OM64_SCHED_LISTSCHEDULER_H
#define OM64_SCHED_LISTSCHEDULER_H

#include "isa/Inst.h"

#include <cstddef>
#include <span>
#include <vector>

namespace om64 {
namespace sched {

/// Returns true if \p I must not move relative to any other instruction:
/// calls and other control transfers, and PAL calls. (Conditional branches
/// only appear last in a region and are barriers too.)
bool isSchedulingBarrier(const isa::Inst &I);

/// Provenance of a memory operation's base register, supplied by a caller
/// with dataflow information (OM's Analysis layer classifies GP- and
/// SP-derived bases). Global and Stack accesses land in disjoint segments
/// of the AAX address space, so a pair with one of each never aliases;
/// Unknown aliases everything.
enum class MemRegion : uint8_t { Unknown, Global, Stack };

/// Scheduling observability, accumulated over every region scheduled.
struct SchedStats {
  /// Ordered pairs of memory operations (at least one a store) that would
  /// be serialized without base classes but whose classes are disjoint.
  uint64_t MemDepPairsFreed = 0;
  /// Cycles the scheduled regions take in the machine model.
  uint64_t Cycles = 0;
};

/// Computes a dependence-preserving issue order for the straight-line
/// region \p Region (which must contain no barriers). Returns a
/// permutation P such that the scheduled code is Region[P[0]],
/// Region[P[1]], ... Deterministic: ties break toward original order.
///
/// \p Bases, when non-empty, classifies each instruction's memory base
/// register (parallel to \p Region; entries for non-memory instructions
/// are ignored): memory-ordering edges between accesses in provably
/// disjoint regions are skipped. Empty \p Bases means every access is
/// Unknown. \p Stats, when non-null, accumulates the pairs freed and the
/// region's cycle count.
std::vector<size_t> scheduleRegion(std::span<const isa::Inst> Region,
                                   std::span<const MemRegion> Bases = {},
                                   SchedStats *Stats = nullptr);

/// Schedules a whole instruction sequence, leaving barriers (calls, PAL,
/// branches, jumps) fixed in place and scheduling each region
/// independently with scheduleRegion. A region also ends before every
/// index I with RegionStarts[I] set (empty: no marks). \p Bases and
/// \p Stats are as for scheduleRegion, with \p Bases parallel to \p Insts.
/// Returns a permutation of [0, Insts.size()).
std::vector<size_t>
scheduleWithBarriers(std::span<const isa::Inst> Insts,
                     const std::vector<bool> &RegionStarts = {},
                     std::span<const MemRegion> Bases = {},
                     SchedStats *Stats = nullptr);

} // namespace sched
} // namespace om64

#endif // OM64_SCHED_LISTSCHEDULER_H
