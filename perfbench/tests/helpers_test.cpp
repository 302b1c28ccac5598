//===- perfbench/tests/helpers_test.cpp - Benchmark helper checks ---------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks the statistics and span arithmetic the benchmark reports with.
/// Plain checks, no test framework, so the benchmark package builds with
/// nothing but a compiler; exits nonzero on the first failed check.
///
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Trace.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace om64::perfbench;

namespace {

int Failures = 0;

void expectNear(double Got, double Want, const char *What) {
  if (std::fabs(Got - Want) > 1e-9 * std::max(1.0, std::fabs(Want))) {
    std::fprintf(stderr, "FAIL %s: got %.17g, want %.17g\n", What, Got, Want);
    ++Failures;
  }
}

void expectTrue(bool Ok, const char *What) {
  if (!Ok) {
    std::fprintf(stderr, "FAIL %s\n", What);
    ++Failures;
  }
}

void medianAndQuartiles() {
  expectNear(median({}), 0, "median of nothing");
  expectNear(median({3}), 3, "median of one");
  expectNear(median({4, 1, 3}), 3, "odd median");
  expectNear(median({4, 1, 3, 2}), 2.5, "even median");
  // Reference values from Python: statistics.quantiles(V, n=4).
  Quartiles Q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expectNear(Q.Q1, 2.75, "q1 of 1..10");
  expectNear(Q.Q3, 8.25, "q3 of 1..10");
  Q = quartiles({5, 1, 4, 2, 3});
  expectNear(Q.Q1, 1.5, "q1 of 1..5 unsorted");
  expectNear(Q.Q3, 4.5, "q3 of 1..5 unsorted");
  Q = quartiles({2, 8});
  expectNear(Q.Q1, 0.5, "q1 of two samples extrapolates");
  expectNear(Q.Q3, 9.5, "q3 of two samples extrapolates");
  Q = quartiles({7});
  expectNear(Q.Q1, 7, "q1 of one sample");
  expectNear(Q.Q3, 7, "q3 of one sample");
}

void geometricMean() {
  expectNear(geomean({2, 8}), 4, "geomean of 2 and 8");
  expectNear(geomean({0.5, 2, 1}), 1, "geomean of reciprocal pair");
  expectNear(geomean({}), 0, "geomean of nothing");
  expectNear(geomean({1, 0}), 0, "zero ratio poisons the mean");
}

void tailRule() {
  expectTrue(!supportedPercentile(0), "no tail from no samples");
  expectTrue(!supportedPercentile(39), "39 samples: ten beyond p75 needs 40");
  expectNear(*supportedPercentile(40), 75, "40 samples support p75");
  expectNear(*supportedPercentile(99), 75, "99 samples: p90 needs 100");
  expectNear(*supportedPercentile(100), 90, "100 samples support p90");
  expectNear(*supportedPercentile(200), 95, "200 samples support p95");
  expectNear(*supportedPercentile(999), 95, "999 samples: p99 needs 1000");
  expectNear(*supportedPercentile(1000), 99, "1000 samples support p99");
  expectNear(*supportedPercentile(10000), 99.9, "10000 samples support p99.9");
  expectNear(percentile({1, 2, 3, 4}, 75), 3, "nearest-rank p75");
  expectNear(percentile({1, 2, 3, 4}, 100), 4, "nearest-rank p100");
}

void spanSelfTime() {
  Tracer T("w", "r");
  // root [0,10] > a [1,4] > a1 [2,3]; root > b [3.5,6] overlaps a;
  // root > c [9,12] sticks out past the root's end.
  int Root = T.add({"root", 0, 10, -1, 0});
  int A = T.add({"a", 1, 4, Root, 0});
  int A1 = T.add({"a1", 2, 3, A, 0});
  int B = T.add({"b", 3.5, 6, Root, 0});
  int C = T.add({"c", 9, 12, Root, 0});
  std::vector<double> Self = T.selfTimes();
  // Children cover [1,6] and [9,10] of the root: 6 of its 10 seconds.
  expectNear(Self[Root], 4, "root self time");
  expectNear(Self[A], 2, "a self time minus nested a1");
  expectNear(Self[A1], 1, "leaf self time is its duration");
  expectNear(Self[B], 2.5, "b self time");
  expectNear(Self[C], 3, "c self time");

  Tracer Live("w", "r");
  Live.Enabled = true;
  {
    Scope Outer(Live, "outer");
    Scope Inner(Live, "inner");
  }
  expectTrue(Live.spans().size() == 2 && Live.spans()[1].Parent == 0,
             "scoped spans nest under the open span");
  Live.Enabled = false;
  { Scope Off(Live, "off"); }
  expectTrue(Live.spans().size() == 2, "disabled tracer records nothing");
}

} // namespace

int main() {
  medianAndQuartiles();
  geometricMean();
  tailRule();
  spanSelfTime();
  if (Failures) {
    std::fprintf(stderr, "%d check(s) failed\n", Failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench helpers: all checks passed\n");
  return EXIT_SUCCESS;
}
