//===- tests/GoldenTiming.h - Pinned timing-model counters ------*- C++ -*-===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden timing: the dual-issue model's exact counters on fixed images.
/// The cycle counts behind Fig. 6 and layout_speedup come from this model,
/// so any change to a pinned row must be deliberate. Every row was
/// recorded with the per-instruction issue model, before the timing model
/// moved onto the translated core and before block memoization; both had
/// to reproduce each row bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef OM64_TESTS_GOLDENTIMING_H
#define OM64_TESTS_GOLDENTIMING_H

#include "objfile/Image.h"
#include "sim/Simulator.h"
#include "support/ContentHash.h"
#include "support/Format.h"
#include "support/Profile.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace om64 {
namespace test {

/// One run's pinned counters. ProfileHash is the content hash of the
/// serialized SimResult::Profile (0 for runs that collect none).
struct GoldenRun {
  std::string Name;
  uint64_t Instructions;
  uint64_t Cycles;
  uint64_t DualIssuePairs;
  uint64_t ICacheMisses;
  uint64_t DCacheMisses;
  uint64_t TakenBranches;
  int64_t ExitCode;
  uint64_t ProfileHash;
};

/// The three configurations every golden image runs in.
struct GoldenMode {
  const char *Suffix;
  bool Timing;
  bool Profile;
};
inline const GoldenMode GoldenModes[] = {
    {"timing", true, false},
    {"profiled", true, true},
    {"functional-profiled", false, true},
};

/// Runs \p Img in every golden mode and compares against \p Rows (row
/// names are "<What>/<mode suffix>"). A missing row fails and prints the
/// observed row in source form. Returns the timing-profiled run's profile
/// (the hot-cold layout input) and, in \p Timing when given, the timing
/// run's full result.
inline prof::Profile expectGolden(const obj::Image &Img,
                                  const std::string &What,
                                  const std::vector<GoldenRun> &Rows,
                                  sim::SimResult *Timing = nullptr) {
  prof::Profile Collected;
  for (const GoldenMode &M : GoldenModes) {
    std::string Name = What + "/" + M.Suffix;
    sim::SimConfig Cfg;
    Cfg.Timing = M.Timing;
    Cfg.Profile = M.Profile;
    Result<sim::SimResult> R = sim::run(Img, Cfg);
    EXPECT_TRUE(bool(R)) << Name << ": " << (R ? "" : R.message());
    if (!R)
      continue;
    GoldenRun Got{Name,
                  R->Instructions,
                  R->Cycles,
                  R->DualIssuePairs,
                  R->ICacheMisses,
                  R->DCacheMisses,
                  R->TakenBranches,
                  R->ExitCode,
                  M.Profile ? hashBytes(R->Profile.serialize()) : 0};
    if (M.Timing && M.Profile)
      Collected = R->Profile;
    if (M.Timing && !M.Profile && Timing)
      *Timing = *R;
    const GoldenRun *Want = nullptr;
    for (const GoldenRun &G : Rows)
      if (G.Name == Name)
        Want = &G;
    auto row = [](const GoldenRun &G) {
      return formatString("{\"%s\", %llu, %llu, %llu, %llu, %llu, %llu, "
                          "%lld, 0x%016llxull},",
                          G.Name.c_str(), (unsigned long long)G.Instructions,
                          (unsigned long long)G.Cycles,
                          (unsigned long long)G.DualIssuePairs,
                          (unsigned long long)G.ICacheMisses,
                          (unsigned long long)G.DCacheMisses,
                          (unsigned long long)G.TakenBranches,
                          (long long)G.ExitCode,
                          (unsigned long long)G.ProfileHash);
    };
    EXPECT_NE(Want, nullptr) << "no golden row; observed " << row(Got);
    if (Want) {
      EXPECT_EQ(row(*Want), row(Got)) << Name;
    }
  }
  return Collected;
}

} // namespace test
} // namespace om64

#endif // OM64_TESTS_GOLDENTIMING_H
