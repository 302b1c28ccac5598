//===- tests/lift_alloc_test.cpp - Lift allocation count ------------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
//
// Pins the lift's allocation behaviour: the literal table is one dense
// array with one program-wide use array, and each procedure numbers and
// records its literals in a few flat buffers, so the lift allocates per
// procedure and per symbol, never per literal. At a fixed procedure
// count, doubling a program's literals must not double the lift's
// allocations, nor those of reading the objects it lifts. This
// executable replaces the global operator new with a counting one, which
// is why it is a test program of its own.
//
//===----------------------------------------------------------------------===//

#include "megagen/MegaGen.h"
#include "objfile/ObjectFile.h"
#include "om/OmImpl.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> NumAllocations{0};
} // namespace

// Every replaceable form that the library reaches goes through the same
// malloc/free pair, so no block is freed by another allocator than the one
// that made it.
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

namespace {

/// A megagen program of \p Insts instructions in 4 modules of 16
/// procedures each: more instructions means more literals, not more
/// procedures.
megagen::MegaProgram program(uint64_t Insts) {
  megagen::MegaSpec Spec;
  Spec.Seed = 5;
  Spec.Shape = megagen::CallShape::Mixed;
  Spec.Modules = 4;
  Spec.ProcsPerModule = 16;
  Spec.TargetInstructions = Insts;
  return megagen::generate(Spec);
}

struct LiftCount {
  uint64_t Allocations = 0;
  size_t Literals = 0;
  size_t Procs = 0;
};

/// Heap allocations made by one serial lift of program(\p Insts).
LiftCount liftAllocations(uint64_t Insts) {
  megagen::MegaProgram MP = program(Insts);
  OmOptions Opts;
  ThreadPool Pool(1);
  uint64_t Before = NumAllocations.load();
  Result<SymbolicProgram> SP = liftProgram(MP.Objects, Opts, Pool);
  uint64_t After = NumAllocations.load();
  EXPECT_TRUE(bool(SP)) << SP.message();
  LiftCount C;
  C.Allocations = After - Before;
  if (SP) {
    C.Literals = SP->Lits.size();
    C.Procs = SP->Procs.size();
  }
  return C;
}

TEST(LiftAllocTest, AllocationsDoNotScaleWithLiterals) {
  LiftCount Few = liftAllocations(40000);
  LiftCount Many = liftAllocations(80000);
  ASSERT_EQ(Few.Procs, Many.Procs);
  ASSERT_GE(Many.Literals, Few.Literals * 19 / 10)
      << "the larger program must have about twice the literals";
  // Doubling the literals grows per-procedure buffers a few times each
  // (measured: 1,165 allocations for 2,685 literals, 1,216 for 5,366); a
  // per-literal allocation nearly doubles the count (an ordered-map
  // table made 12,909 and 25,013).
  EXPECT_LE(Many.Allocations, Few.Allocations * 5 / 4)
      << Few.Allocations << " allocations for " << Few.Literals
      << " literals, " << Many.Allocations << " for " << Many.Literals;
}

/// Heap allocations made by deserializing (and so verifying) every
/// module of program(\p Insts).
uint64_t deserializeAllocations(uint64_t Insts) {
  std::vector<std::vector<uint8_t>> Bytes;
  for (const obj::ObjectFile &O : program(Insts).Objects)
    Bytes.push_back(O.serialize());
  uint64_t Before = NumAllocations.load();
  for (const std::vector<uint8_t> &B : Bytes)
    EXPECT_TRUE(bool(obj::ObjectFile::deserialize(B)));
  return NumAllocations.load() - Before;
}

TEST(LiftAllocTest, DeserializeAllocationsDoNotScaleWithLiterals) {
  // verify() checks every lituse against its procedure's literals; a node
  // per LITERAL (an ordered set) nearly doubles the count here.
  uint64_t Few = deserializeAllocations(40000);
  uint64_t Many = deserializeAllocations(80000);
  EXPECT_LE(Many, Few * 5 / 4) << Few << " allocations for the smaller "
                               << "program, " << Many << " for the larger";
}

} // namespace
