//===- sched/ListScheduler.cpp ---------------------------------------------=//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//

#include "sched/ListScheduler.h"

#include <algorithm>
#include <cassert>

using namespace om64;
using namespace om64::sched;
using namespace om64::isa;

bool om64::sched::isSchedulingBarrier(const Inst &I) {
  switch (classOf(I.Op)) {
  case InstClass::Jump:
  case InstClass::Branch:
  case InstClass::Pal:
    return true;
  default:
    return false;
  }
}

namespace {

/// Every buffer a region's schedule needs, reused for each region of a
/// walk: once grown to the largest region, a region allocates nothing.
struct Scratch {
  /// Dependence edges (From, To) as found, then counting-sorted by From
  /// into CSR: I's successors are Succs[SuccBegin[I] .. SuccBegin[I+1]).
  std::vector<std::pair<size_t, size_t>> Edges;
  std::vector<size_t> SuccBegin, Succs;
  /// Per instruction: unissued predecessors, cycles before a successor may
  /// issue, critical path to a leaf (priority), and first issue cycle.
  std::vector<unsigned> PredsLeft, Latency, Height, EarliestCycle;
  /// Unissued instructions whose predecessors have all issued.
  std::vector<size_t> Ready;
  /// Per register unit, the most recent producer and the readers since.
  std::vector<int> LastWriter;
  std::vector<size_t> ReadersSince[NumRegUnits];
  std::vector<size_t> PriorMemOps;
};

/// True when the two classified bases provably never alias: one points
/// into the global (GAT/data) segment and the other into the stack
/// segment, which are disjoint address ranges in the AAX layout.
bool disjointRegions(MemRegion A, MemRegion B) {
  return (A == MemRegion::Global && B == MemRegion::Stack) ||
         (A == MemRegion::Stack && B == MemRegion::Global);
}

/// Issue-slot classification for the dual-issue model.
bool isMemoryOp(const Inst &I) {
  InstClass C = classOf(I.Op);
  return C == InstClass::IntLoad || C == InstClass::IntStore ||
         C == InstClass::FpLoad || C == InstClass::FpStore;
}

/// Schedules \p Region and appends its issue order to \p Order, each index
/// shifted by \p Offset (the region's position in the caller's sequence).
void appendSchedule(std::span<const Inst> Region,
                    std::span<const MemRegion> Bases, SchedStats *Stats,
                    size_t Offset, Scratch &S, std::vector<size_t> &Order) {
  assert((Bases.empty() || Bases.size() == Region.size()) &&
         "base classification must parallel the region");
  size_t N = Region.size();
  if (N == 0)
    return;
  S.Edges.clear();
  S.PredsLeft.assign(N, 0);
  S.Latency.resize(N);
  S.Ready.clear();
  S.LastWriter.assign(NumRegUnits, -1);
  for (std::vector<size_t> &Readers : S.ReadersSince)
    Readers.clear();
  S.PriorMemOps.clear();
  auto addEdge = [&S](size_t From, size_t To) {
    S.Edges.emplace_back(From, To);
    ++S.PredsLeft[To];
  };

  // Memory dependences: each access orders pairwise against every prior
  // access unless both are loads or their base classes are disjoint.
  // Edges a chain through the last store would imply transitively change
  // neither the feasible orders nor the greedy schedule's choices, and
  // regions are basic-block-sized, so the pairwise walk stays cheap.
  for (size_t I = 0; I < N; ++I) {
    const Inst &In = Region[I];
    assert(!isSchedulingBarrier(In) && "barrier inside region");
    S.Latency[I] = latencyOf(In.Op);

    unsigned Reads[3];
    unsigned NumReads = regUnitsRead(In, Reads);
    for (unsigned R = 0; R < NumReads; ++R) {
      unsigned Unit = Reads[R];
      if (S.LastWriter[Unit] >= 0)
        addEdge(static_cast<size_t>(S.LastWriter[Unit]), I); // RAW
      S.ReadersSince[Unit].push_back(I);
    }
    unsigned Written = regUnitWritten(In);
    if (Written != ~0u) {
      if (S.LastWriter[Written] >= 0)
        addEdge(static_cast<size_t>(S.LastWriter[Written]), I); // WAW
      for (size_t Reader : S.ReadersSince[Written])
        if (Reader != I)
          addEdge(Reader, I); // WAR
      S.LastWriter[Written] = static_cast<int>(I);
      S.ReadersSince[Written].clear();
    }

    if (isStore(In.Op) || isLoad(In.Op)) {
      for (size_t J : S.PriorMemOps) {
        if (!isStore(In.Op) && !isStore(Region[J].Op))
          continue; // load/load pairs never need ordering
        if (!Bases.empty() && disjointRegions(Bases[J], Bases[I])) {
          if (Stats)
            ++Stats->MemDepPairsFreed;
          continue;
        }
        addEdge(J, I);
      }
      S.PriorMemOps.push_back(I);
    }
    // Every edge into I is known now.
    if (S.PredsLeft[I] == 0)
      S.Ready.push_back(I);
  }

  // Counting sort by source, from the last edge back so successors keep
  // their order; targets ascend, so each successor's height is final here.
  S.SuccBegin.assign(N + 1, 0);
  for (const auto &[From, To] : S.Edges)
    ++S.SuccBegin[From];
  for (size_t I = 0; I < N; ++I)
    S.SuccBegin[I + 1] += S.SuccBegin[I];
  S.Succs.resize(S.Edges.size());
  S.Height.assign(N, 0);
  for (size_t E = S.Edges.size(); E-- > 0;) {
    auto [From, To] = S.Edges[E];
    S.Succs[--S.SuccBegin[From]] = To;
    S.Height[From] = std::max(S.Height[From], S.Latency[From] + S.Height[To]);
  }

  S.EarliestCycle.assign(N, 0);
  unsigned Cycle = 0;
  size_t NumIssued = 0;
  while (NumIssued < N) {
    unsigned SlotsLeft = 2;
    bool MemUsed = false;
    while (SlotsLeft > 0) {
      // Pick the ready instruction with the greatest height; ties toward
      // original order (the list is unordered, so compare indices).
      size_t BestPos = 0, Best = N;
      for (size_t P = 0; P < S.Ready.size(); ++P) {
        size_t I = S.Ready[P];
        if (S.EarliestCycle[I] > Cycle || (MemUsed && isMemoryOp(Region[I])))
          continue;
        if (Best == N || S.Height[I] > S.Height[Best] ||
            (S.Height[I] == S.Height[Best] && I < Best)) {
          Best = I;
          BestPos = P;
        }
      }
      if (Best == N)
        break;
      S.Ready[BestPos] = S.Ready.back();
      S.Ready.pop_back();
      Order.push_back(Offset + Best);
      ++NumIssued;
      --SlotsLeft;
      MemUsed |= isMemoryOp(Region[Best]);
      for (size_t E = S.SuccBegin[Best]; E < S.SuccBegin[Best + 1]; ++E) {
        size_t Succ = S.Succs[E];
        S.EarliestCycle[Succ] =
            std::max(S.EarliestCycle[Succ], Cycle + S.Latency[Best]);
        if (--S.PredsLeft[Succ] == 0)
          S.Ready.push_back(Succ);
      }
    }
    ++Cycle;
  }
  if (Stats)
    Stats->Cycles += Cycle;
}

} // namespace

std::vector<size_t> om64::sched::scheduleRegion(
    std::span<const Inst> Region, std::span<const MemRegion> Bases,
    SchedStats *Stats) {
  std::vector<size_t> Order;
  Order.reserve(Region.size());
  Scratch S;
  appendSchedule(Region, Bases, Stats, 0, S, Order);
  return Order;
}

std::vector<size_t> om64::sched::scheduleWithBarriers(
    std::span<const Inst> Insts, const std::vector<bool> &RegionStarts,
    std::span<const MemRegion> Bases, SchedStats *Stats) {
  assert((RegionStarts.empty() || RegionStarts.size() == Insts.size()) &&
         "region starts must parallel the instructions");
  assert((Bases.empty() || Bases.size() == Insts.size()) &&
         "base classification must parallel the instructions");
  std::vector<size_t> Order;
  Order.reserve(Insts.size());
  // One scratch per thread, kept across calls: OM reschedules each
  // procedure with its own call, and a call allocates scratch only for a
  // region larger than any its thread has scheduled before.
  thread_local Scratch S;
  size_t RegionStart = 0;
  auto flushRegion = [&](size_t End) {
    size_t Len = End - RegionStart;
    appendSchedule(Insts.subspan(RegionStart, Len),
                   Bases.empty() ? Bases : Bases.subspan(RegionStart, Len),
                   Stats, RegionStart, S, Order);
    RegionStart = End;
  };
  for (size_t I = 0; I < Insts.size(); ++I) {
    if (!RegionStarts.empty() && RegionStarts[I])
      flushRegion(I);
    if (isSchedulingBarrier(Insts[I])) {
      flushRegion(I);
      Order.push_back(I);
      RegionStart = I + 1;
    }
  }
  flushRegion(Insts.size());
  return Order;
}
