//===- sim/SimStats.cpp - Per-run simulator observability -----------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/SimStats.h"

#include "isa/Inst.h"
#include "support/Format.h"

using namespace om64;
using namespace om64::sim;
using namespace om64::isa;

namespace {

double pctOf(uint64_t Part, uint64_t Whole) {
  return Whole ? 100.0 * static_cast<double>(Part) /
                     static_cast<double>(Whole)
               : 0.0;
}

/// Cache accesses per run: the I-cache is probed once per instruction, the
/// D-cache once per load or store.
uint64_t icacheAccesses(const SimResult &R) { return R.Instructions; }
uint64_t dcacheAccesses(const SimResult &R) { return R.Loads + R.Stores; }

double hitRate(uint64_t Misses, uint64_t Accesses) {
  return Accesses
             ? 100.0 * static_cast<double>(Accesses - Misses) /
                   static_cast<double>(Accesses)
             : 0.0;
}

} // namespace

double om64::sim::simulatedMips(const SimResult &R) {
  return R.HostSeconds > 0
             ? static_cast<double>(R.Instructions) / R.HostSeconds / 1e6
             : 0.0;
}

std::string om64::sim::statsText(const SimResult &R, bool Timing) {
  std::string S;
  S += formatString("instructions     %llu (%llu nops)\n",
                    (unsigned long long)R.Instructions,
                    (unsigned long long)R.Nops);
  S += formatString("host time        %.6f s (%.1f simulated MIPS)\n",
                    R.HostSeconds, simulatedMips(R));
  S += formatString(
      "mix              loads %.1f%%, stores %.1f%%, taken branches "
      "%.1f%%\n",
      pctOf(R.Loads, R.Instructions), pctOf(R.Stores, R.Instructions),
      pctOf(R.TakenBranches, R.Instructions));
  S += "class histogram\n";
  for (unsigned C = 0; C < NumInstClasses; ++C) {
    if (!R.ClassCounts[C])
      continue;
    S += formatString("  %-14s %12llu (%.1f%%)\n",
                      instClassName(static_cast<InstClass>(C)),
                      (unsigned long long)R.ClassCounts[C],
                      pctOf(R.ClassCounts[C], R.Instructions));
  }
  if (Timing) {
    double Cpi = R.Instructions
                     ? static_cast<double>(R.Cycles) /
                           static_cast<double>(R.Instructions)
                     : 0.0;
    S += formatString("cycles           %llu (CPI %.2f, %llu dual-issue "
                      "pairs)\n",
                      (unsigned long long)R.Cycles, Cpi,
                      (unsigned long long)R.DualIssuePairs);
    S += formatString("I-cache          %llu misses / %llu accesses "
                      "(%.2f%% hit)\n",
                      (unsigned long long)R.ICacheMisses,
                      (unsigned long long)icacheAccesses(R),
                      hitRate(R.ICacheMisses, icacheAccesses(R)));
    S += formatString("D-cache          %llu misses / %llu accesses "
                      "(%.2f%% hit)\n",
                      (unsigned long long)R.DCacheMisses,
                      (unsigned long long)dcacheAccesses(R),
                      hitRate(R.DCacheMisses, dcacheAccesses(R)));
    S += formatString("timing blocks    %llu (%llu from the memo, %.2f%%)\n",
                      (unsigned long long)R.BlocksEnded,
                      (unsigned long long)R.BlocksMemoized,
                      pctOf(R.BlocksMemoized, R.BlocksEnded));
  }
  return S;
}

std::string om64::sim::statsJson(const SimResult &R, bool Timing) {
  std::string S = "{\n";
  S += formatString("  \"exit_code\": %lld,\n", (long long)R.ExitCode);
  S += formatString("  \"instructions\": %llu,\n",
                    (unsigned long long)R.Instructions);
  S += formatString("  \"nops\": %llu,\n", (unsigned long long)R.Nops);
  S += formatString("  \"loads\": %llu,\n", (unsigned long long)R.Loads);
  S += formatString("  \"stores\": %llu,\n", (unsigned long long)R.Stores);
  S += formatString("  \"taken_branches\": %llu,\n",
                    (unsigned long long)R.TakenBranches);
  S += formatString("  \"host_seconds\": %.6f,\n", R.HostSeconds);
  S += formatString("  \"simulated_mips\": %.2f,\n", simulatedMips(R));
  S += "  \"class_counts\": {";
  bool First = true;
  for (unsigned C = 0; C < NumInstClasses; ++C) {
    if (!R.ClassCounts[C])
      continue;
    S += formatString("%s\"%s\": %llu", First ? "" : ", ",
                      instClassName(static_cast<InstClass>(C)),
                      (unsigned long long)R.ClassCounts[C]);
    First = false;
  }
  S += "},\n";
  S += formatString("  \"timing\": %s", Timing ? "{\n" : "null\n");
  if (Timing) {
    S += formatString("    \"cycles\": %llu,\n",
                      (unsigned long long)R.Cycles);
    S += formatString("    \"dual_issue_pairs\": %llu,\n",
                      (unsigned long long)R.DualIssuePairs);
    S += formatString("    \"icache_misses\": %llu,\n",
                      (unsigned long long)R.ICacheMisses);
    S += formatString("    \"icache_accesses\": %llu,\n",
                      (unsigned long long)icacheAccesses(R));
    S += formatString("    \"icache_hit_pct\": %.2f,\n",
                      hitRate(R.ICacheMisses, icacheAccesses(R)));
    S += formatString("    \"dcache_misses\": %llu,\n",
                      (unsigned long long)R.DCacheMisses);
    S += formatString("    \"dcache_accesses\": %llu,\n",
                      (unsigned long long)dcacheAccesses(R));
    S += formatString("    \"dcache_hit_pct\": %.2f,\n",
                      hitRate(R.DCacheMisses, dcacheAccesses(R)));
    S += formatString("    \"blocks_ended\": %llu,\n",
                      (unsigned long long)R.BlocksEnded);
    S += formatString("    \"blocks_memoized\": %llu\n",
                      (unsigned long long)R.BlocksMemoized);
    S += "  }\n";
  }
  S += "}\n";
  return S;
}
