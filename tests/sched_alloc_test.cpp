//===- tests/sched_alloc_test.cpp - Scheduler allocation count ------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
//
// Pins the list scheduler's allocation behaviour: a thread reuses one set
// of scratch buffers for all the regions of all its walks, so once they
// have grown to the largest region, further regions allocate nothing.
// This executable replaces the global operator new with a counting one,
// which is why it is a test program of its own.
//
//===----------------------------------------------------------------------===//

#include "sched/ListScheduler.h"

#include "support/Random.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> NumAllocations{0};
} // namespace

void *operator new(std::size_t Size) {
  NumAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }

using namespace om64;
using namespace om64::isa;
using namespace om64::sched;

namespace {

/// \p NumRegions regions of 11 random instructions, each closed by a
/// conditional branch (a barrier), with random base classes.
struct Program {
  std::vector<Inst> Code;
  std::vector<MemRegion> Bases;
};

Program regions(size_t NumRegions) {
  DetRandom Rng(24);
  Program P;
  auto reg = [&]() { return static_cast<uint8_t>(Rng.nextBelow(8) + T0); };
  for (size_t R = 0; R < NumRegions; ++R) {
    for (unsigned I = 0; I < 11; ++I) {
      int32_t Disp = static_cast<int32_t>(Rng.nextBelow(64)) * 8;
      switch (Rng.nextBelow(4)) {
      case 0:
        P.Code.push_back(makeMem(Opcode::Ldq, reg(), Disp,
                                 Rng.nextBelow(2) ? GP : SP));
        break;
      case 1:
        P.Code.push_back(makeMem(Opcode::Stq, reg(), Disp,
                                 Rng.nextBelow(2) ? GP : SP));
        break;
      case 2:
        P.Code.push_back(makeOp(Opcode::Addq, reg(), reg(), reg()));
        break;
      default:
        P.Code.push_back(makeOp(Opcode::Mulq, reg(), reg(), reg()));
        break;
      }
      P.Bases.push_back(static_cast<MemRegion>(Rng.nextBelow(3)));
    }
    P.Code.push_back(makeBranch(Opcode::Bne, T0, -12));
    P.Bases.push_back(MemRegion::Unknown);
  }
  return P;
}

/// Heap allocations made by one scheduleWithBarriers call over \p P.
uint64_t allocationsOf(const Program &P, size_t &Scheduled) {
  SchedStats Stats;
  uint64_t Before = NumAllocations.load();
  std::vector<size_t> Perm = scheduleWithBarriers(P.Code, {}, P.Bases, &Stats);
  uint64_t After = NumAllocations.load();
  Scheduled = Perm.size();
  return After - Before;
}

TEST(SchedAllocTest, RegionsReuseOneScratch) {
  Program Few = regions(10), Many = regions(10000);
  size_t ScheduledFew = 0, ScheduledMany = 0;
  uint64_t AllocFew = allocationsOf(Few, ScheduledFew);
  uint64_t AllocMany = allocationsOf(Many, ScheduledMany);
  ASSERT_EQ(ScheduledFew, Few.Code.size());
  ASSERT_EQ(ScheduledMany, Many.Code.size());
  // Only buffer growth to a new largest region may allocate, so a
  // thousand times the regions stays within a small constant.
  EXPECT_LE(AllocMany, AllocFew + 64)
      << AllocFew << " allocations for 10 regions, " << AllocMany
      << " for 10,000";
}

TEST(SchedAllocTest, CallsOnOneThreadReuseOneScratch) {
  // OM reschedules every procedure with its own call; a thread keeps its
  // scratch across calls, so once a call has grown it, another call over
  // regions no larger allocates only the order it returns.
  Program P = regions(100);
  size_t Scheduled = 0;
  allocationsOf(P, Scheduled);
  EXPECT_EQ(allocationsOf(P, Scheduled), 1u);
  EXPECT_EQ(Scheduled, P.Code.size());
}

} // namespace
