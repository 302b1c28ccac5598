//===- bench/sim_throughput.cpp - Simulator throughput (simulated MIPS) ---===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures how fast the simulator itself runs: simulated instructions per
/// host wall-clock second (simulated MIPS), per workload and aggregate.
/// Every paper figure executes programs on this simulator, so its
/// throughput bounds how large a workload suite we can afford; this bench
/// records the trajectory across PRs.
///
/// Functional throughput (`functional_mips`) and timing-mode throughput
/// (`timing_mips`) are measured per workload. A final section runs the
/// whole 19-workload suite
/// concurrently through sim::runSuite and records the wall-clock and
/// effective MIPS of the parallel sweep (`suite_wall_s`, `suite_mips`),
/// the shape the slow differential tests and CI actually execute.
///
///   sim_throughput [--reps N] [--functional-only] [--json FILE]
///
/// --json writes a machine-readable record in the uniform bench schema
/// (see bench/BenchUtil.h and the committed baseline,
/// docs/BENCH_sim_throughput.json). tools/check_bench.py compares a
/// fresh record against that baseline in CI.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "sim/SuiteRunner.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <cstring>

using namespace om64;
using namespace om64::bench;

namespace {

struct Row {
  std::string Name;
  uint64_t Instructions = 0;
  double FunctionalSec = 1e30; // best-of-reps wall time, functional mode
  double TimingSec = 1e30;     // best-of-reps wall time, timing mode
};

double mips(uint64_t Insts, double Sec) {
  return Sec > 0 ? static_cast<double>(Insts) / Sec / 1e6 : 0.0;
}

/// Runs \p Img once and returns wall seconds; aborts the bench on failure.
double timedRun(const std::string &Name, const obj::Image &Img,
                const sim::SimConfig &Cfg, uint64_t &InstsOut) {
  auto Start = std::chrono::steady_clock::now();
  Result<sim::SimResult> R = sim::run(Img, Cfg);
  auto End = std::chrono::steady_clock::now();
  if (!R)
    fail(Name + ": " + R.message());
  InstsOut = R->Instructions;
  return std::chrono::duration<double>(End - Start).count();
}

sim::SimConfig functionalConfig() {
  sim::SimConfig Cfg;
  Cfg.Timing = false;
  return Cfg;
}

} // namespace

int main(int argc, char **argv) {
  BenchArgs Args = parseBenchArgs(argc, argv);
  unsigned Reps = Args.Reps;
  bool FunctionalOnly = Args.FunctionalOnly;

  std::vector<BuiltEntry> Suite = buildAllWorkloads();

  // Link everything up front; the images also feed the suite-runner
  // section below, which needs them all alive at once.
  std::vector<obj::Image> Images;
  for (const BuiltEntry &E : Suite) {
    Result<obj::Image> Img = wl::linkBaseline(E.Built, wl::CompileMode::Each);
    if (!Img)
      fail(E.Name + ": " + Img.message());
    Images.push_back(Img.take());
  }

  std::vector<Row> Rows;
  uint64_t TotalInsts = 0;
  double TotalFunctional = 0, TotalTiming = 0;
  for (size_t I = 0; I < Suite.size(); ++I) {
    Row R;
    R.Name = Suite[I].Name;
    for (unsigned Rep = 0; Rep < Reps; ++Rep) {
      R.FunctionalSec = std::min(
          R.FunctionalSec, timedRun(R.Name, Images[I], functionalConfig(),
                                    R.Instructions));
      if (!FunctionalOnly) {
        uint64_t Ignored;
        R.TimingSec = std::min(
            R.TimingSec,
            timedRun(R.Name, Images[I], sim::SimConfig{}, Ignored));
      }
    }
    TotalInsts += R.Instructions;
    TotalFunctional += R.FunctionalSec;
    if (!FunctionalOnly)
      TotalTiming += R.TimingSec;
    Rows.push_back(R);
  }

  // Whole-suite shape: every workload concurrently via the suite runner
  // (functional mode), best of reps. On a single-core host this
  // degrades to roughly the serial sum; on wider hosts it tracks the
  // wall-clock the slow differential sweeps actually spend simulating.
  std::vector<sim::SuiteJob> Jobs;
  for (size_t I = 0; I < Suite.size(); ++I)
    Jobs.push_back({Suite[I].Name, &Images[I], functionalConfig()});
  double SuiteSec = 1e30;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    auto Start = std::chrono::steady_clock::now();
    std::vector<sim::SuiteJobResult> Results = sim::runSuite(Jobs);
    auto End = std::chrono::steady_clock::now();
    for (const sim::SuiteJobResult &SR : Results)
      if (!SR.Ok)
        fail("suite: " + SR.Name + ": " + SR.Error);
    SuiteSec = std::min(
        SuiteSec, std::chrono::duration<double>(End - Start).count());
  }

  std::printf(
      "Simulator throughput (simulated MIPS, best of %u reps)\n", Reps);
  std::printf("%-10s | %12s | %10s | %11s\n", "program", "insts",
              "func MIPS", "timing MIPS");
  rule(53);
  for (const Row &R : Rows)
    std::printf("%-10s | %12llu | %10.1f | %11s\n", R.Name.c_str(),
                (unsigned long long)R.Instructions,
                mips(R.Instructions, R.FunctionalSec),
                FunctionalOnly
                    ? "-"
                    : formatString("%.1f", mips(R.Instructions, R.TimingSec))
                          .c_str());
  rule(53);
  double AggFunctional = mips(TotalInsts, TotalFunctional);
  double AggTiming = FunctionalOnly ? 0 : mips(TotalInsts, TotalTiming);
  std::printf("%-10s | %12llu | %10.1f | %11s\n", "aggregate",
              (unsigned long long)TotalInsts, AggFunctional,
              FunctionalOnly ? "-"
                             : formatString("%.1f", AggTiming).c_str());
  std::printf("suite sweep (%zu workloads, %u threads): %.3fs wall, "
              "%.1f MIPS\n",
              Jobs.size(), ThreadPool::defaultConcurrency(), SuiteSec,
              mips(TotalInsts, SuiteSec));

  if (!Args.JsonPath.empty()) {
    // Host-time MIPS swings wildly on shared CI runners, so the gate
    // tolerance is very wide: the entries exist to catch order-of-
    // magnitude throughput collapses, not percent-level noise.
    // Instruction counts are deterministic and keep the default.
    std::vector<JsonEntry> Entries;
    Entries.push_back({"aggregate", "instructions",
                       static_cast<double>(TotalInsts), "insts",
                       /*HigherIsBetter=*/false, /*TolerancePct=*/-1});
    Entries.push_back({"aggregate", "functional_mips", AggFunctional,
                       "mips", /*HigherIsBetter=*/true,
                       /*TolerancePct=*/80});
    Entries.push_back({"aggregate", "suite_wall_s", SuiteSec, "s",
                       /*HigherIsBetter=*/false, /*TolerancePct=*/400});
    Entries.push_back({"aggregate", "suite_mips",
                       mips(TotalInsts, SuiteSec), "mips",
                       /*HigherIsBetter=*/true, /*TolerancePct=*/80});
    if (!FunctionalOnly)
      Entries.push_back({"aggregate", "timing_mips", AggTiming, "mips",
                         /*HigherIsBetter=*/true, /*TolerancePct=*/80});
    for (const Row &R : Rows) {
      Entries.push_back({R.Name, "instructions",
                         static_cast<double>(R.Instructions), "insts",
                         /*HigherIsBetter=*/false, /*TolerancePct=*/-1});
      Entries.push_back({R.Name, "functional_mips",
                         mips(R.Instructions, R.FunctionalSec), "mips",
                         /*HigherIsBetter=*/true, /*TolerancePct=*/80});
    }
    writeBenchJson("sim_throughput", Entries, Args.JsonPath);
  }
  return 0;
}
