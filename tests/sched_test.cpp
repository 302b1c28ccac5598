//===- tests/sched_test.cpp - List scheduler property tests ---------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//

#include "sched/ListScheduler.h"

#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>

using namespace om64;
using namespace om64::isa;
using namespace om64::sched;

namespace {

/// Generates a random barrier-free instruction region. Memory accesses
/// use SP as their base, or with \p MixBases SP or GP at random.
std::vector<Inst> randomRegion(uint64_t Seed, size_t N,
                               bool MixBases = false) {
  DetRandom Rng(Seed);
  std::vector<Inst> Region;
  auto reg = [&]() { return static_cast<uint8_t>(Rng.nextBelow(8) + T0); };
  auto base = [&]() { return MixBases && Rng.nextBelow(2) ? GP : SP; };
  for (size_t I = 0; I < N; ++I) {
    switch (Rng.nextBelow(6)) {
    case 0:
      Region.push_back(makeMem(Opcode::Ldq, reg(),
                               static_cast<int32_t>(Rng.nextBelow(64)) * 8,
                               base()));
      break;
    case 1:
      Region.push_back(makeMem(Opcode::Stq, reg(),
                               static_cast<int32_t>(Rng.nextBelow(64)) * 8,
                               base()));
      break;
    case 2:
      Region.push_back(makeOp(Opcode::Addq, reg(), reg(), reg()));
      break;
    case 3:
      Region.push_back(makeOpLit(Opcode::Sll, reg(),
                                 static_cast<uint8_t>(Rng.nextBelow(63)),
                                 reg()));
      break;
    case 4:
      Region.push_back(makeOp(Opcode::Mulq, reg(), reg(), reg()));
      break;
    default:
      Region.push_back(makeMem(Opcode::Lda, reg(),
                               static_cast<int32_t>(Rng.nextInRange(-64,
                                                                    64)),
                               reg()));
      break;
    }
  }
  return Region;
}

/// Generates a random instruction sequence in which about one instruction
/// in \p BarrierOdds is a barrier (call, branch, jump or PAL call).
std::vector<Inst> randomSequence(uint64_t Seed, size_t N,
                                 uint64_t BarrierOdds) {
  std::vector<Inst> Code = randomRegion(Seed, N);
  DetRandom Rng(Seed * 7919);
  for (Inst &I : Code) {
    if (Rng.nextBelow(BarrierOdds) != 0)
      continue;
    switch (Rng.nextBelow(4)) {
    case 0:
      I = makeJump(Opcode::Jsr, RA, PV);
      break;
    case 1:
      I = makeBranch(Opcode::Br, Zero, 3);
      break;
    case 2:
      I = makeBranch(Opcode::Bne, T0, -2);
      break;
    default:
      I = makePalCount(0);
      break;
    }
  }
  return Code;
}

/// True if the memory accesses \p A then \p B must keep their order:
/// at least one is a store.
bool memoryOrdered(const Inst &A, const Inst &B) {
  return (isStore(A.Op) && (isLoad(B.Op) || isStore(B.Op))) ||
         (isLoad(A.Op) && isStore(B.Op));
}

/// True if instruction B must stay after instruction A. \p Disjoint says
/// the caller proved the two accesses' base regions disjoint.
bool mustFollow(const Inst &A, const Inst &B, bool Disjoint = false) {
  if (!Disjoint && memoryOrdered(A, B))
    return true;
  unsigned AW = regUnitWritten(A);
  unsigned BW = regUnitWritten(B);
  unsigned Reads[3];
  if (AW != ~0u) {
    unsigned N = regUnitsRead(B, Reads);
    for (unsigned R = 0; R < N; ++R)
      if (Reads[R] == AW)
        return true; // RAW
    if (BW == AW)
      return true; // WAW
  }
  if (BW != ~0u) {
    unsigned N = regUnitsRead(A, Reads);
    for (unsigned R = 0; R < N; ++R)
      if (Reads[R] == BW)
        return true; // WAR
  }
  return false;
}

class SchedulerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchedulerPropertyTest, PermutationPreservesDependences) {
  uint64_t Seed = GetParam();
  std::vector<Inst> Region = randomRegion(Seed, 24);
  std::vector<size_t> Perm = scheduleRegion(Region);

  // It is a permutation.
  ASSERT_EQ(Perm.size(), Region.size());
  std::set<size_t> Seen(Perm.begin(), Perm.end());
  EXPECT_EQ(Seen.size(), Region.size());

  // Every dependent pair keeps its order.
  std::vector<size_t> PosOf(Region.size());
  for (size_t P = 0; P < Perm.size(); ++P)
    PosOf[Perm[P]] = P;
  for (size_t I = 0; I < Region.size(); ++I)
    for (size_t J = I + 1; J < Region.size(); ++J)
      if (mustFollow(Region[I], Region[J])) {
        EXPECT_LT(PosOf[I], PosOf[J])
            << "dependence " << I << " -> " << J << " violated (seed "
            << Seed << ")";
      }
}

INSTANTIATE_TEST_SUITE_P(RandomRegions, SchedulerPropertyTest,
                         ::testing::Range<uint64_t>(1, 64));

TEST(SchedulerTest, EmptyAndSingleton) {
  EXPECT_TRUE(scheduleRegion({}).empty());
  std::vector<Inst> One = {Inst::nop()};
  std::vector<size_t> P = scheduleRegion(One);
  ASSERT_EQ(P.size(), 1u);
  EXPECT_EQ(P[0], 0u);
}

TEST(SchedulerTest, HoistsIndependentWorkPastLoadLatency) {
  // load t0; use t0; then three independent adds. A good schedule fills
  // the load shadow with the adds.
  std::vector<Inst> Region = {
      makeMem(Opcode::Ldq, T0, 0, SP),
      makeOpLit(Opcode::Addq, T0, 1, T1), // dependent on the load
      makeOpLit(Opcode::Addq, T2, 1, T2),
      makeOpLit(Opcode::Addq, T3, 1, T3),
      makeOpLit(Opcode::Addq, T4, 1, T4),
  };
  std::vector<size_t> Perm = scheduleRegion(Region);
  std::vector<size_t> PosOf(Region.size());
  for (size_t P = 0; P < Perm.size(); ++P)
    PosOf[Perm[P]] = P;
  // The dependent add should not be scheduled immediately after the load.
  EXPECT_GT(PosOf[1], PosOf[0] + 1);
}

TEST(SchedulerTest, BarriersStayPut) {
  std::vector<Inst> Code = {
      makeOpLit(Opcode::Addq, T0, 1, T0),
      makeMem(Opcode::Ldq, T1, 0, SP),
      makeJump(Opcode::Jsr, RA, PV), // barrier
      makeOpLit(Opcode::Addq, T2, 1, T2),
      makeBranch(Opcode::Br, Zero, 0), // barrier
      makeOpLit(Opcode::Addq, T3, 1, T3),
  };
  std::vector<size_t> Perm = scheduleWithBarriers(Code);
  ASSERT_EQ(Perm.size(), Code.size());
  EXPECT_EQ(Perm[2], 2u) << "JSR moved";
  EXPECT_EQ(Perm[4], 4u) << "BR moved";
  // Nothing from before a barrier may move after it and vice versa.
  for (size_t P = 0; P < 2; ++P)
    EXPECT_LT(Perm[P], 2u);
  EXPECT_EQ(Perm[3], 3u) << "single-instruction region";
}

TEST(SchedulerTest, DispersesPrologueGpPair) {
  // The effect section 4 describes: the GP-set pair gets interleaved with
  // independent frame setup, so it is no longer a clean [0,1] prefix.
  std::vector<Inst> Prologue = {
      makeMem(Opcode::Ldah, GP, 8192, PV),
      makeMem(Opcode::Lda, GP, 28576, GP),
      makeMem(Opcode::Lda, SP, -64, SP),
      makeMem(Opcode::Stq, RA, 0, SP),
      makeMem(Opcode::Stq, S0, 8, SP),
      makeMem(Opcode::Ldq, T0, -32768, GP), // first GAT load, needs GP
  };
  std::vector<size_t> Perm = scheduleRegion(Prologue);
  std::vector<size_t> PosOf(Prologue.size());
  for (size_t P = 0; P < Perm.size(); ++P)
    PosOf[Perm[P]] = P;
  // The pair keeps its relative order and the GAT load follows it...
  EXPECT_LT(PosOf[0], PosOf[1]);
  EXPECT_LT(PosOf[1], PosOf[5]);
  // ...but something independent separates ldah from lda (dual-issue
  // slotting), breaking the clean prefix.
  EXPECT_NE(PosOf[0] + 1, PosOf[1]);
}

/// The cycle count scheduleRegion reports for \p Region.
uint64_t cyclesOf(const std::vector<Inst> &Region) {
  SchedStats Stats;
  scheduleRegion(Region, {}, &Stats);
  return Stats.Cycles;
}

TEST(SchedulerTest, CycleEstimateImprovesOrMatches) {
  for (uint64_t Seed = 1; Seed < 32; ++Seed) {
    std::vector<Inst> Region = randomRegion(Seed * 31, 20);
    uint64_t Before = cyclesOf(Region);
    std::vector<size_t> Perm = scheduleRegion(Region);
    std::vector<Inst> After;
    After.reserve(Region.size());
    for (size_t P : Perm)
      After.push_back(Region[P]);
    // The estimate respects the dual-issue lower bound, is deterministic,
    // and the scheduled order is not substantially worse than the
    // scheduler's own plan (tie-breaking may differ by a cycle or two).
    EXPECT_GE(Before, (Region.size() + 1) / 2);
    EXPECT_EQ(cyclesOf(Region), Before);
    EXPECT_LE(cyclesOf(After), Before + 2);
  }
}

/// Region id of every instruction of \p Code as scheduleWithBarriers
/// should split it: a new region after every barrier (each barrier is a
/// region of its own) and at every marked start.
std::vector<size_t> regionIds(const std::vector<Inst> &Code,
                              const std::vector<bool> &Starts) {
  std::vector<size_t> Ids(Code.size());
  size_t Id = 0;
  for (size_t I = 0; I < Code.size(); ++I) {
    bool Barrier = isSchedulingBarrier(Code[I]);
    if (I > 0 && (Barrier || Starts[I] || isSchedulingBarrier(Code[I - 1])))
      ++Id;
    Ids[I] = Id;
  }
  return Ids;
}

class WalkerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WalkerPropertyTest, NothingCrossesAStartOrABarrier) {
  uint64_t Seed = GetParam();
  std::vector<Inst> Code = randomSequence(Seed, 60, 6);
  DetRandom Rng(Seed * 104729);
  std::vector<bool> Starts(Code.size());
  for (size_t I = 0; I < Code.size(); ++I)
    Starts[I] = Rng.nextBelow(5) == 0;

  std::vector<size_t> Perm = scheduleWithBarriers(Code, Starts);
  ASSERT_EQ(Perm.size(), Code.size());
  EXPECT_EQ(std::set<size_t>(Perm.begin(), Perm.end()).size(), Code.size());

  std::vector<size_t> Ids = regionIds(Code, Starts);
  std::vector<size_t> PosOf(Code.size());
  for (size_t P = 0; P < Perm.size(); ++P) {
    PosOf[Perm[P]] = P;
    EXPECT_EQ(Ids[Perm[P]], Ids[P])
        << "instruction " << Perm[P] << " moved to position " << P
        << " across a region boundary (seed " << Seed << ")";
    if (isSchedulingBarrier(Code[P])) {
      EXPECT_EQ(Perm[P], P) << "barrier moved (seed " << Seed << ")";
    }
  }
  for (size_t I = 0; I < Code.size(); ++I)
    for (size_t J = I + 1; J < Code.size(); ++J)
      if (mustFollow(Code[I], Code[J])) {
        EXPECT_LT(PosOf[I], PosOf[J])
            << "dependence " << I << " -> " << J << " violated (seed "
            << Seed << ")";
      }
}

TEST_P(WalkerPropertyTest, OnlyDisjointMemoryPairsReorder) {
  uint64_t Seed = GetParam();
  std::vector<Inst> Region =
      randomRegion(Seed * 13, 32, /*MixBases=*/true);
  DetRandom Rng(Seed * 15485863);
  std::vector<MemRegion> Bases(Region.size());
  for (MemRegion &B : Bases)
    B = static_cast<MemRegion>(Rng.nextBelow(3));

  SchedStats Stats;
  std::vector<size_t> Perm = scheduleWithBarriers(Region, {}, Bases, &Stats);
  ASSERT_EQ(Perm.size(), Region.size());
  EXPECT_EQ(std::set<size_t>(Perm.begin(), Perm.end()).size(),
            Region.size());

  std::vector<size_t> PosOf(Region.size());
  for (size_t P = 0; P < Perm.size(); ++P)
    PosOf[Perm[P]] = P;
  auto disjoint = [&](size_t I, size_t J) {
    return (Bases[I] == MemRegion::Global && Bases[J] == MemRegion::Stack) ||
           (Bases[I] == MemRegion::Stack && Bases[J] == MemRegion::Global);
  };
  uint64_t Freed = 0;
  for (size_t I = 0; I < Region.size(); ++I)
    for (size_t J = I + 1; J < Region.size(); ++J) {
      if (memoryOrdered(Region[I], Region[J]) && disjoint(I, J))
        ++Freed;
      if (mustFollow(Region[I], Region[J], disjoint(I, J))) {
        EXPECT_LT(PosOf[I], PosOf[J])
            << "dependence " << I << " -> " << J << " violated (seed "
            << Seed << ")";
      }
    }
  EXPECT_EQ(Stats.MemDepPairsFreed, Freed);

  // All-Unknown classes are the conservative model with no classes.
  std::vector<MemRegion> Unknown(Region.size(), MemRegion::Unknown);
  SchedStats None;
  EXPECT_EQ(scheduleWithBarriers(Region, {}, Unknown, &None),
            scheduleWithBarriers(Region));
  EXPECT_EQ(None.MemDepPairsFreed, 0u);
}

TEST_P(WalkerPropertyTest, CyclesSumOverRegions) {
  uint64_t Seed = GetParam();
  std::vector<Inst> Code = randomSequence(Seed * 3, 80, 8);
  DetRandom Rng(Seed * 32452843);
  std::vector<bool> Starts(Code.size());
  for (size_t I = 0; I < Code.size(); ++I)
    Starts[I] = Rng.nextBelow(7) == 0;

  SchedStats Stats;
  scheduleWithBarriers(Code, Starts, {}, &Stats);

  // Barriers are not scheduled and take no cycles of their own.
  std::vector<size_t> Ids = regionIds(Code, Starts);
  uint64_t Sum = 0;
  std::vector<Inst> Region;
  for (size_t I = 0; I <= Code.size(); ++I) {
    if (I == Code.size() || (I > 0 && Ids[I] != Ids[I - 1])) {
      Sum += cyclesOf(Region);
      Region.clear();
    }
    if (I < Code.size() && !isSchedulingBarrier(Code[I]))
      Region.push_back(Code[I]);
  }
  EXPECT_GT(Sum, 0u);
  EXPECT_EQ(Stats.Cycles, Sum);
}

INSTANTIATE_TEST_SUITE_P(RandomSequences, WalkerPropertyTest,
                         ::testing::Range<uint64_t>(1, 33));

// The scheduler as it stood before its scratch buffers and ready list:
// a vector-of-vectors dependence graph built per region and an issue loop
// that scans every instruction each slot. Its code is kept as it was
// (comments and the barrier assert dropped) as the oracle the current
// scheduler must reproduce exactly.
namespace reference {

struct DepGraph {
  std::vector<std::vector<size_t>> Succs;
  std::vector<std::vector<size_t>> Preds;
  std::vector<unsigned> Latency;
  std::vector<unsigned> Height;

  DepGraph(std::span<const Inst> Region, std::span<const MemRegion> Bases,
           SchedStats *Stats);
};

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

  std::vector<int> LastWriter(NumRegUnits, -1);
  std::vector<std::vector<size_t>> ReadersSince(NumRegUnits);
  std::vector<size_t> PriorMemOps;

  for (size_t I = 0; I < N; ++I) {
    const Inst &In = Region[I];
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
        continue;
      if (!Bases.empty() && disjointRegions(Bases[J], Bases[I])) {
        if (Stats)
          ++Stats->MemDepPairsFreed;
        continue;
      }
      addEdge(*this, J, I);
    }
    PriorMemOps.push_back(I);
  }

  for (size_t I = N; I-- > 0;) {
    unsigned H = 0;
    for (size_t S : Succs[I])
      H = std::max(H, Latency[I] + Height[S]);
    Height[I] = H;
  }
}

bool isMemoryOp(const Inst &I) {
  InstClass C = classOf(I.Op);
  return C == InstClass::IntLoad || C == InstClass::IntStore ||
         C == InstClass::FpLoad || C == InstClass::FpStore;
}

void appendSchedule(std::span<const Inst> Region,
                    std::span<const MemRegion> Bases, SchedStats *Stats,
                    size_t Offset, std::vector<size_t> &Order) {
  size_t N = Region.size();
  if (N == 0)
    return;

  DepGraph G(Region, Bases, Stats);

  std::vector<unsigned> PredsLeft(N);
  for (size_t I = 0; I < N; ++I)
    PredsLeft[I] = static_cast<unsigned>(G.Preds[I].size());

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

} // namespace reference

/// The reference scheduler's walk over \p Insts: barriers fixed, a region
/// ending at every barrier and before every marked start.
std::vector<size_t> referenceSchedule(std::span<const Inst> Insts,
                                      const std::vector<bool> &RegionStarts,
                                      std::span<const MemRegion> Bases,
                                      SchedStats *Stats) {
  std::vector<size_t> Order;
  Order.reserve(Insts.size());
  size_t RegionStart = 0;
  auto flushRegion = [&](size_t End) {
    size_t Len = End - RegionStart;
    reference::appendSchedule(
        Insts.subspan(RegionStart, Len),
        Bases.empty() ? Bases : Bases.subspan(RegionStart, Len), Stats,
        RegionStart, Order);
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

TEST(SchedulerOracleTest, MatchesReferenceOnRandomSequences) {
  // 2,000 sequences of 1-200 instructions. Barrier and region-start odds
  // vary per seed, from dense (regions of a few instructions) to none (one
  // region as long as the sequence, far past the 49-instruction maximum
  // of the mega program's regions); half the seeds mix GP and SP bases,
  // and of those half give the scheduler base classes.
  uint64_t Regions = 0, LongRegions = 0, Freed = 0;
  for (uint64_t Seed = 1; Seed <= 2000; ++Seed) {
    DetRandom Rng(Seed * 2654435761u);
    size_t N = 1 + Rng.nextBelow(200);
    bool MixBases = Seed % 2 == 0;
    std::vector<Inst> Code = randomRegion(Seed * 31, N, MixBases);
    static const uint64_t Odds[] = {3, 8, 40, 0};
    uint64_t BarrierOdds = Odds[Rng.nextBelow(4)];
    uint64_t StartOdds = Odds[Rng.nextBelow(4)];
    std::vector<bool> Starts;
    if (StartOdds != 0)
      Starts.resize(N);
    for (size_t I = 0; I < N; ++I) {
      if (BarrierOdds != 0 && Rng.nextBelow(BarrierOdds) == 0)
        Code[I] = Rng.nextBelow(2) ? makeJump(Opcode::Jsr, RA, PV)
                                   : makeBranch(Opcode::Bne, T0, -2);
      if (StartOdds != 0)
        Starts[I] = Rng.nextBelow(StartOdds) == 0;
    }
    std::vector<MemRegion> Bases;
    if (MixBases && Seed % 4 == 0)
      for (size_t I = 0; I < N; ++I)
        Bases.push_back(static_cast<MemRegion>(Rng.nextBelow(3)));

    size_t Run = 0;
    for (size_t I = 0; I <= N; ++I) {
      bool Ends = I == N || isSchedulingBarrier(Code[I]) ||
                  (!Starts.empty() && Starts[I]);
      if (Ends && Run != 0) {
        ++Regions;
        LongRegions += Run > 49;
        Run = 0;
      }
      if (I < N && !isSchedulingBarrier(Code[I]))
        ++Run;
    }

    SchedStats Got, Want;
    std::vector<size_t> Perm = scheduleWithBarriers(Code, Starts, Bases, &Got);
    std::vector<size_t> Ref = referenceSchedule(Code, Starts, Bases, &Want);
    ASSERT_EQ(Perm, Ref) << "seed " << Seed;
    ASSERT_EQ(Got.MemDepPairsFreed, Want.MemDepPairsFreed) << "seed " << Seed;
    ASSERT_EQ(Got.Cycles, Want.Cycles) << "seed " << Seed;
    Freed += Got.MemDepPairsFreed;

    if (Starts.empty() && BarrierOdds == 0) {
      SchedStats One, RefOne;
      ASSERT_EQ(scheduleRegion(Code, Bases, &One),
                referenceSchedule(Code, {}, Bases, &RefOne))
          << "seed " << Seed;
      ASSERT_EQ(One.Cycles, RefOne.Cycles) << "seed " << Seed;
    }
  }
  // The sample really covers what it claims to.
  EXPECT_GT(Regions, 10000u);
  EXPECT_GT(LongRegions, 100u);
  EXPECT_GT(Freed, 0u);
}

} // namespace
