//===- tests/analysis_alloc_test.cpp - Dataflow allocation counts ---------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
//
// Pins the dataflow fixpoint's allocation behaviour: a fixpoint round
// meets block states in place and runs on one reused per-thread scratch,
// so once the scratch and the round's own buffers have grown to a
// procedure, re-running the round allocates nothing; and a whole
// --analysis link allocates at most twice what the same link allocates
// without it. This executable replaces the global operator new with a
// counting one, which is why it is a test program of its own.
//
//===----------------------------------------------------------------------===//

#include "megagen/MegaGen.h"
#include "om/Analysis.h"
#include "om/OmImpl.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> NumAllocations{0};
} // namespace

// Every replaceable form that the library reaches (std::stable_sort's
// buffer takes the nothrow one) goes through the same malloc/free pair, so
// no block is freed by another allocator than the one that made it.
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  NumAllocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}
void *operator new(std::size_t Size) {
  if (void *P = operator new(Size, std::nothrow))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size) { return operator new(Size); }
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  return operator new(Size, std::nothrow);
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

using namespace om64;
using namespace om64::om;
using namespace om64::om::analysis;

namespace {

megagen::MegaProgram program(megagen::CallShape Shape) {
  megagen::MegaSpec Spec;
  Spec.Seed = 26;
  Spec.Shape = Shape;
  Spec.Modules = 8;
  Spec.ProcsPerModule = 12;
  Spec.TargetInstructions = 40000;
  return megagen::generate(Spec);
}

TEST(AnalysisAllocTest, RepeatedRoundAllocatesNothing) {
  megagen::MegaProgram MP = program(megagen::CallShape::HotLoops);
  ThreadPool Pool(1);
  Result<SymbolicProgram> SP = liftProgram(MP.Objects, OmOptions(), Pool);
  ASSERT_TRUE(bool(SP)) << SP.message();
  const ProgramAnalysis PA = analyzeProgram(*SP, Pool);
  // The largest procedure, so the scratch is at its largest too.
  uint32_t Largest = 0;
  for (uint32_t P = 0; P < SP->Procs.size(); ++P)
    if (SP->Procs[P].Insts.size() > SP->Procs[Largest].Insts.size())
      Largest = P;
  ASSERT_GT(PA.Cfgs[Largest]->Blocks.size(), 8u);

  detail::ProcRound Out;
  detail::evaluateRound(*SP, PA, Largest, Out);
  const ProcSummary First = Out.Summary;
  const uint64_t Before = NumAllocations.load();
  detail::evaluateRound(*SP, PA, Largest, Out);
  const uint64_t Made = NumAllocations.load() - Before;
  EXPECT_EQ(Made, 0u) << "a repeated round allocated";
  EXPECT_EQ(Out.Summary.ExitGp, First.ExitGp);
  // The round is the one analyzeProgram converged on.
  ASSERT_EQ(Out.Values.In.size(), PA.Values[Largest]->In.size());
  for (size_t B = 0; B < Out.Values.In.size(); ++B) {
    EXPECT_EQ(Out.Values.In[B].R, PA.Values[Largest]->In[B].R) << B;
    EXPECT_EQ(Out.Values.In[B].Gp, PA.Values[Largest]->In[B].Gp) << B;
  }
}

/// Heap allocations made by one -O full --sched link of \p MP at -j1.
uint64_t linkAllocations(const megagen::MegaProgram &MP, bool Analysis) {
  OmOptions Opts;
  Opts.Level = OmLevel::Full;
  Opts.Reschedule = true;
  Opts.Analysis = Analysis;
  Opts.Jobs = 1;
  const uint64_t Before = NumAllocations.load();
  Result<OmResult> R = optimize(MP.Objects, Opts);
  const uint64_t Made = NumAllocations.load() - Before;
  EXPECT_TRUE(bool(R)) << R.message();
  return Made;
}

TEST(AnalysisAllocTest, AnalysisLinkAllocatesAtMostTwiceThePlainLink) {
  for (megagen::CallShape Shape :
       {megagen::CallShape::DeepChains, megagen::CallShape::WideFanout,
        megagen::CallShape::HotLoops, megagen::CallShape::Mixed}) {
    megagen::MegaProgram MP = program(Shape);
    const uint64_t Plain = linkAllocations(MP, false);
    const uint64_t WithAnalysis = linkAllocations(MP, true);
    EXPECT_LE(WithAnalysis, 2 * Plain)
        << megagen::shapeName(Shape) << ": " << WithAnalysis
        << " allocations with --analysis, " << Plain << " without";
  }
}

} // namespace
