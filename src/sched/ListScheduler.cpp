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

/// Dependence DAG over a barrier-free region.
struct DepGraph {
  std::vector<std::vector<size_t>> Succs;
  std::vector<std::vector<size_t>> Preds;
  /// Latency[i]: cycles before a successor of i may issue.
  std::vector<unsigned> Latency;
  /// Height[i]: critical-path length from i to any leaf (priority).
  std::vector<unsigned> Height;

  DepGraph(std::span<const Inst> Region, std::span<const MemRegion> Bases,
           SchedStats *Stats);
};

/// True when the two classified bases provably never alias: one points
/// into the global (GAT/data) segment and the other into the stack
/// segment, which are disjoint address ranges in the AAX layout.
bool disjointRegions(MemRegion A, MemRegion B) {
  return (A == MemRegion::Global && B == MemRegion::Stack) ||
         (A == MemRegion::Stack && B == MemRegion::Global);
}

void addEdge(DepGraph &G, size_t From, size_t To) {
  G.Succs[From].push_back(To);
  G.Preds[To].push_back(From);
}

DepGraph::DepGraph(std::span<const Inst> Region,
                   std::span<const MemRegion> Bases, SchedStats *Stats) {
  size_t N = Region.size();
  Succs.resize(N);
  Preds.resize(N);
  Latency.resize(N);
  Height.assign(N, 0);

  for (size_t I = 0; I < N; ++I)
    Latency[I] = latencyOf(Region[I].Op);

  // Register dependences. LastWriter/LastReaders track, per register unit,
  // the most recent producer and the readers since then.
  std::vector<int> LastWriter(NumRegUnits, -1);
  std::vector<std::vector<size_t>> ReadersSince(NumRegUnits);

  // Memory dependences: each access orders pairwise against every prior
  // access unless both are loads or their base classes are disjoint.
  // Edges a chain through the last store would imply transitively change
  // neither the feasible orders nor the greedy schedule's choices, and
  // regions are basic-block-sized, so the pairwise walk stays cheap.
  std::vector<size_t> PriorMemOps;

  for (size_t I = 0; I < N; ++I) {
    const Inst &In = Region[I];
    assert(!isSchedulingBarrier(In) && "barrier inside region");

    unsigned Reads[3];
    unsigned NumReads = regUnitsRead(In, Reads);
    for (unsigned R = 0; R < NumReads; ++R) {
      unsigned Unit = Reads[R];
      if (LastWriter[Unit] >= 0)
        addEdge(*this, static_cast<size_t>(LastWriter[Unit]), I); // RAW
      ReadersSince[Unit].push_back(I);
    }
    unsigned Written = regUnitWritten(In);
    if (Written != ~0u) {
      if (LastWriter[Written] >= 0)
        addEdge(*this, static_cast<size_t>(LastWriter[Written]), I); // WAW
      for (size_t Reader : ReadersSince[Written])
        if (Reader != I)
          addEdge(*this, Reader, I); // WAR
      LastWriter[Written] = static_cast<int>(I);
      ReadersSince[Written].clear();
    }

    if (!isStore(In.Op) && !isLoad(In.Op))
      continue;
    bool IsStoreI = isStore(In.Op);
    for (size_t J : PriorMemOps) {
      if (!IsStoreI && !isStore(Region[J].Op))
        continue; // load/load pairs never need ordering
      if (!Bases.empty() && disjointRegions(Bases[J], Bases[I])) {
        if (Stats)
          ++Stats->MemDepPairsFreed;
        continue;
      }
      addEdge(*this, J, I);
    }
    PriorMemOps.push_back(I);
  }

  // Heights by reverse topological sweep (indices are already topological
  // because edges always point from lower to higher index).
  for (size_t I = N; I-- > 0;) {
    unsigned H = 0;
    for (size_t S : Succs[I])
      H = std::max(H, Latency[I] + Height[S]);
    Height[I] = H;
  }
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
                    size_t Offset, std::vector<size_t> &Order) {
  assert((Bases.empty() || Bases.size() == Region.size()) &&
         "base classification must parallel the region");
  size_t N = Region.size();
  if (N == 0)
    return;

  DepGraph G(Region, Bases, Stats);

  std::vector<unsigned> PredsLeft(N);
  for (size_t I = 0; I < N; ++I)
    PredsLeft[I] = static_cast<unsigned>(G.Preds[I].size());

  // EarliestCycle[i]: first cycle i may issue given issued predecessors.
  std::vector<unsigned> EarliestCycle(N, 0);
  std::vector<bool> Issued(N, false);

  unsigned Cycle = 0;
  size_t NumIssued = 0;
  while (NumIssued < N) {
    unsigned SlotsLeft = 2;
    bool MemUsed = false;
    bool IssuedThisCycle = true;
    while (SlotsLeft > 0 && IssuedThisCycle) {
      IssuedThisCycle = false;
      // Pick the ready instruction with the greatest height; ties toward
      // original order for determinism and stability.
      size_t Best = N;
      for (size_t I = 0; I < N; ++I) {
        if (Issued[I] || PredsLeft[I] != 0 || EarliestCycle[I] > Cycle)
          continue;
        if (MemUsed && isMemoryOp(Region[I]))
          continue;
        if (Best == N || G.Height[I] > G.Height[Best])
          Best = I;
      }
      if (Best == N)
        break;
      Issued[Best] = true;
      Order.push_back(Offset + Best);
      ++NumIssued;
      --SlotsLeft;
      IssuedThisCycle = true;
      if (isMemoryOp(Region[Best]))
        MemUsed = true;
      for (size_t S : G.Succs[Best]) {
        --PredsLeft[S];
        EarliestCycle[S] =
            std::max(EarliestCycle[S], Cycle + G.Latency[Best]);
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
  appendSchedule(Region, Bases, Stats, 0, Order);
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
  size_t RegionStart = 0;
  auto flushRegion = [&](size_t End) {
    size_t Len = End - RegionStart;
    appendSchedule(Insts.subspan(RegionStart, Len),
                   Bases.empty() ? Bases : Bases.subspan(RegionStart, Len),
                   Stats, RegionStart, Order);
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
