//===- tools/omlink.cpp - The optimizing linker driver ---------------------=//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Links AAX objects into an executable (.aaxe), optionally running OM:
///
///   omlink -o a.aaxe obj1.aaxo obj2.aaxo ...
///
/// Options:
///   --standard        use the traditional linker (no OM at all)
///   -O none|simple|full   OM level (default full)
///   --sched           OM-full: reschedule basic blocks and align loops
///   --no-sort         OM: keep the module-order data layout
///   --gat-max N       entries per GAT group (forces multiple GPs)
///   -j N, --jobs N    worker threads for the per-procedure pipeline
///                     stages (0 = hardware concurrency, 1 = serial; the
///                     output image is byte-identical for every N)
///   --profile-in FILE read an AAXP execution profile (aaxrun
///                     --profile-out) to drive profile-guided decisions
///   --layout MODE     "hot-cold" (OM-full, needs --profile-in): reorder
///                     blocks so hot successors fall through, split cold
///                     code, order procedures by call heat; "none" off
///   --analysis        OM-full: run the dataflow analysis (OmAnalysis) and
///                     delete what it proves — GP resets already correct on
///                     every path, PV loads of values the register already
///                     holds, address loads with dead destinations — beyond
///                     the pattern-matched transforms; every deletion is
///                     re-proved by an analysis-backed verify stage
///   --lint            report-only mode: lift the inputs, run the dataflow,
///                     and print the binary lint findings (L001..L010, see
///                     docs/LINT.md) instead of linking
///   --lint-werror     --lint, and exit nonzero if anything was found
///   --explain         with --lint: append each finding's witness path
///                     (the shortest abstract-interpretation trace from
///                     the procedure entry to the defect site)
///   --stats           print OM's Figure 3-5 statistics for this link,
///                     plus per-stage wall times and the worker count
///   --stats-json FILE write the same statistics as JSON ("-" = stdout)
///   --verify          OmVerify: check structural invariants after the
///                     lift, the call transforms and assembly, then
///                     differentially execute the program at every OM level
///                     and compare results
///   --verify-each-stage   also check after every stage that changes
///                     the symbolic form
///
//===----------------------------------------------------------------------===//

#include "linker/Linker.h"
#include "objfile/ObjectFile.h"
#include "om/Lint.h"
#include "om/Om.h"
#include "om/OmImpl.h"
#include "om/Verify.h"
#include "support/FileIO.h"
#include "support/Format.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace om64;

static int usage() {
  std::fprintf(stderr,
               "usage: omlink [--standard | -O none|simple|full] [--sched]\n"
               "              [--analysis] [--lint] [--lint-werror]\n"
               "              [--explain]\n"
               "              [--no-sort] [--gat-max N] [-j N | --jobs N]\n"
               "              [--stats] [--stats-json FILE] [--instrument]\n"
               "              [--profile-in FILE] [--layout none|hot-cold]\n"
               "              [--verify] [--verify-each-stage]\n"
               "              -o out.aaxe obj.aaxo...\n");
  return 2;
}

/// Renders one link's statistics as a JSON object (one key per OmStats
/// field, stage seconds nested), for machine consumers of --stats-json.
static std::string statsJson(const om::OmStats &S, om::OmLevel Level) {
  std::string J = "{\n";
  J += formatString("  \"level\": \"%s\",\n", om::levelName(Level));
  J += formatString("  \"jobs\": %u,\n", S.Jobs);
  auto U = [&](const char *Key, unsigned long long V, bool Comma = true) {
    J += formatString("  \"%s\": %llu%s\n", Key, V, Comma ? "," : "");
  };
  U("address_loads_total", S.AddressLoadsTotal);
  U("address_loads_converted", S.AddressLoadsConverted);
  U("address_loads_nullified", S.AddressLoadsNullified);
  U("calls_total", S.CallsTotal);
  U("calls_needing_pv_load", S.CallsNeedingPvLoad);
  U("calls_needing_gp_reset", S.CallsNeedingGpReset);
  U("jsr_converted_to_bsr", S.JsrConvertedToBsr);
  U("bsr_fallback_jsrs", S.BsrFallbackJsrs);
  U("bsr_relax_rounds", S.BsrRelaxRounds);
  U("bsr_retained_by_relax", S.BsrRetainedByRelax);
  U("instructions_total", S.InstructionsTotal);
  U("instructions_nullified", S.InstructionsNullified);
  U("instructions_deleted", S.InstructionsDeleted);
  U("nops_inserted", S.NopsInserted);
  U("instrumentation_inserted", S.InstrumentationInserted);
  U("gat_bytes_before", S.GatBytesBefore);
  U("gat_bytes_after", S.GatBytesAfter);
  U("gp_groups", S.GpGroups);
  U("text_bytes_before", S.TextBytesBefore);
  U("text_bytes_after", S.TextBytesAfter);
  U("layout_procs_reordered", S.LayoutProcsReordered);
  U("layout_blocks_moved", S.LayoutBlocksMoved);
  U("layout_cold_blocks", S.LayoutColdBlocks);
  U("layout_fixup_branches", S.LayoutFixupBranches);
  U("analysis_gp_pairs_deleted", S.AnalysisGpPairsDeleted);
  U("analysis_pv_loads_deleted", S.AnalysisPvLoadsDeleted);
  U("analysis_dead_loads_deleted", S.AnalysisDeadLoadsDeleted);
  U("sched_mem_deps_freed", S.SchedMemDepsFreed);
  U("analysis_runs", S.AnalysisRuns);
  U("analysis_rounds_evaluated", S.AnalysisRoundsEvaluated);
  U("analysis_rounds_reused", S.AnalysisRoundsReused);
  J += "  \"stage_seconds\": {\n";
  auto Sec = [&](const char *Key, double V, bool Comma = true) {
    J += formatString("    \"%s\": %.6f%s\n", Key, V, Comma ? "," : "");
  };
  Sec("lift", S.Seconds.Lift);
  Sec("call_transforms", S.Seconds.CallTransforms);
  Sec("address_loads", S.Seconds.AddressLoads);
  Sec("code_motion", S.Seconds.CodeMotion);
  Sec("assemble", S.Seconds.Assemble);
  Sec("verify", S.Seconds.Verify);
  Sec("total", S.Seconds.Total, false);
  J += "  }\n}\n";
  return J;
}

int main(int argc, char **argv) {
  std::vector<std::string> Inputs;
  std::string Output = "a.aaxe";
  std::string StatsJsonPath;
  std::string ProfileInPath;
  bool Standard = false;
  bool Stats = false;
  bool Lint = false;
  bool LintWerror = false;
  bool LintExplain = false;
  om::OmOptions Opts;
  Opts.Jobs = 0; // hardware concurrency unless -j overrides

  // Accept both "--flag value" and "--flag=value" spellings.
  std::vector<std::string> Argv;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    size_t Eq;
    if (Arg.size() > 2 && Arg[0] == '-' && Arg[1] == '-' &&
        (Eq = Arg.find('=')) != std::string::npos) {
      Argv.push_back(Arg.substr(0, Eq));
      Argv.push_back(Arg.substr(Eq + 1));
    } else {
      Argv.push_back(Arg);
    }
  }
  const size_t NArgs = Argv.size();
  for (size_t I = 0; I < NArgs; ++I) {
    const std::string &Arg = Argv[I];
    if (Arg == "-o" && I + 1 < NArgs) {
      Output = Argv[++I];
    } else if (Arg == "--standard") {
      Standard = true;
    } else if (Arg == "-O" && I + 1 < NArgs) {
      std::string Level = Argv[++I];
      if (Level == "none")
        Opts.Level = om::OmLevel::None;
      else if (Level == "simple")
        Opts.Level = om::OmLevel::Simple;
      else if (Level == "full")
        Opts.Level = om::OmLevel::Full;
      else
        return usage();
    } else if (Arg == "--sched") {
      Opts.Reschedule = true;
      Opts.AlignLoopTargets = true;
    } else if (Arg == "--analysis") {
      Opts.Analysis = true;
    } else if (Arg == "--lint") {
      Lint = true;
    } else if (Arg == "--lint-werror") {
      Lint = true;
      LintWerror = true;
    } else if (Arg == "--explain") {
      LintExplain = true;
    } else if (Arg == "--no-sort") {
      Opts.SortDataBySize = false;
    } else if (Arg == "--gat-max" && I + 1 < NArgs) {
      Result<uint64_t> V = parseUnsigned(Argv[++I], ~0u);
      if (!V) {
        std::fprintf(stderr, "omlink: --gat-max: %s\n", V.message().c_str());
        return 2;
      }
      Opts.MaxGatEntriesPerGroup = static_cast<unsigned>(*V);
    } else if ((Arg == "-j" || Arg == "--jobs") && I + 1 < NArgs) {
      Result<uint64_t> V = parseUnsigned(Argv[++I], ~0u);
      if (!V) {
        std::fprintf(stderr, "omlink: %s: %s\n", Arg.c_str(),
                     V.message().c_str());
        return 2;
      }
      Opts.Jobs = static_cast<unsigned>(*V);
    } else if (Arg == "--profile-in" && I + 1 < NArgs) {
      ProfileInPath = Argv[++I];
    } else if (Arg == "--layout" && I + 1 < NArgs) {
      std::string Mode = Argv[++I];
      if (Mode == "hot-cold")
        Opts.HotColdLayout = true;
      else if (Mode == "none")
        Opts.HotColdLayout = false;
      else
        return usage();
    } else if (Arg == "--instrument") {
      Opts.InstrumentProcedureCounts = true;
    } else if (Arg == "--verify") {
      Opts.Verify = true;
    } else if (Arg == "--verify-each-stage") {
      Opts.VerifyEachStage = true;
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--stats-json" && I + 1 < NArgs) {
      StatsJsonPath = Argv[++I];
    } else if (!Arg.empty() && Arg[0] == '-') {
      return usage();
    } else {
      Inputs.push_back(Arg);
    }
  }
  if (Inputs.empty())
    return usage();
  if (!ProfileInPath.empty()) {
    Result<std::vector<uint8_t>> Bytes = readFileBytes(ProfileInPath);
    if (!Bytes) {
      std::fprintf(stderr, "omlink: %s\n", Bytes.message().c_str());
      return 1;
    }
    Result<prof::Profile> P = prof::Profile::deserialize(*Bytes);
    if (!P) {
      std::fprintf(stderr, "omlink: %s: %s\n", ProfileInPath.c_str(),
                   P.message().c_str());
      return 1;
    }
    Opts.Profile = P.take();
  }
  if (Opts.HotColdLayout && ProfileInPath.empty()) {
    std::fprintf(stderr,
                 "omlink: --layout=hot-cold requires --profile-in\n");
    return 2;
  }
  if (Opts.HotColdLayout && Opts.Level != om::OmLevel::Full) {
    std::fprintf(stderr, "omlink: --layout=hot-cold requires -O full\n");
    return 2;
  }
  if (Opts.Analysis && Opts.Level != om::OmLevel::Full) {
    std::fprintf(stderr, "omlink: --analysis requires -O full\n");
    return 2;
  }
  if (Lint && Standard) {
    std::fprintf(stderr, "omlink: --lint needs the OM pipeline; drop "
                         "--standard\n");
    return 2;
  }
  if (LintExplain && !Lint) {
    std::fprintf(stderr, "omlink: --explain requires --lint\n");
    return 2;
  }
  Opts.Lint = Lint;
  Opts.LintExplain = LintExplain;

  std::vector<obj::ObjectFile> Objs;
  for (const std::string &Path : Inputs) {
    Result<std::vector<uint8_t>> Bytes = readFileBytes(Path);
    if (!Bytes) {
      std::fprintf(stderr, "omlink: %s\n", Bytes.message().c_str());
      return 1;
    }
    Result<obj::ObjectFile> O = obj::ObjectFile::deserialize(*Bytes);
    if (!O) {
      std::fprintf(stderr, "omlink: %s: %s\n", Path.c_str(),
                   O.message().c_str());
      return 1;
    }
    Objs.push_back(O.take());
  }

  if (Lint) {
    // Report-only: lift, analyze and lint the inputs. No image is produced.
    Result<om::LintRun> L = om::lintObjects(Objs, Opts);
    if (!L) {
      std::fprintf(stderr, "omlink: lint: %s\n", L.message().c_str());
      return 1;
    }
    if (!L->Findings.empty())
      std::fputs(
          om::analysis::renderLintText(L->Findings, LintExplain).c_str(),
          stdout);
    std::fprintf(stderr, "omlink: lint: %zu finding(s) in %zu procedure(s)\n",
                 L->Findings.size(), L->Procs);
    return (LintWerror && !L->Findings.empty()) ? 1 : 0;
  }

  obj::Image Img;
  if (Standard) {
    if (Opts.Verify || Opts.VerifyEachStage)
      std::fprintf(stderr, "omlink: warning: --verify has no effect with "
                           "--standard (OM pipeline not run)\n");
    Result<obj::Image> R = lnk::link(Objs);
    if (!R) {
      std::fprintf(stderr, "omlink: %s\n", R.message().c_str());
      return 1;
    }
    Img = R.take();
  } else {
    Result<om::OmResult> R = om::optimize(Objs, Opts);
    if (!R) {
      std::fprintf(stderr, "omlink: %s\n", R.message().c_str());
      return 1;
    }
    Img = std::move(R->Image);
    if (!R->ProfiledProcedures.empty()) {
      // Sidecar map: counter index -> procedure, consumed by aaxrun.
      std::vector<uint8_t> Map;
      for (size_t Idx = 0; Idx < R->ProfiledProcedures.size(); ++Idx) {
        std::string Line = std::to_string(Idx) + " " +
                           R->ProfiledProcedures[Idx] + "\n";
        Map.insert(Map.end(), Line.begin(), Line.end());
      }
      if (Error E = writeFileBytes(Output + ".profmap", Map)) {
        std::fprintf(stderr, "omlink: %s\n", E.message().c_str());
        return 1;
      }
      std::printf("omlink: wrote %s.profmap (%zu counters)\n",
                  Output.c_str(), R->ProfiledProcedures.size());
    }
    if (Stats) {
      const om::OmStats &S = R->Stats;
      std::fprintf(stderr,
                   "omlink: OM-%s statistics\n"
                   "  address loads  %llu total, %llu converted, %llu "
                   "nullified\n"
                   "  calls          %llu total, %llu need PV, %llu need "
                   "GP resets, %llu JSR->BSR\n"
                   "  instructions   %llu total, %llu nullified, %llu "
                   "deleted\n"
                   "  GAT            %llu -> %llu bytes (%u group(s))\n"
                   "  text           %llu -> %llu bytes\n",
                   om::levelName(Opts.Level),
                   (unsigned long long)S.AddressLoadsTotal,
                   (unsigned long long)S.AddressLoadsConverted,
                   (unsigned long long)S.AddressLoadsNullified,
                   (unsigned long long)S.CallsTotal,
                   (unsigned long long)S.CallsNeedingPvLoad,
                   (unsigned long long)S.CallsNeedingGpReset,
                   (unsigned long long)S.JsrConvertedToBsr,
                   (unsigned long long)S.InstructionsTotal,
                   (unsigned long long)S.InstructionsNullified,
                   (unsigned long long)S.InstructionsDeleted,
                   (unsigned long long)S.GatBytesBefore,
                   (unsigned long long)S.GatBytesAfter, S.GpGroups,
                   (unsigned long long)S.TextBytesBefore,
                   (unsigned long long)S.TextBytesAfter);
      if (S.BsrRelaxRounds)
        std::fprintf(stderr, "  bsr relax      %llu round(s), %llu "
                             "conversion(s) retained\n",
                     (unsigned long long)S.BsrRelaxRounds,
                     (unsigned long long)S.BsrRetainedByRelax);
      if (S.BsrFallbackJsrs)
        std::fprintf(stderr, "  bsr fallback   %llu call(s) left as JSR "
                             "(out of BSR range)\n",
                     (unsigned long long)S.BsrFallbackJsrs);
      if (Opts.Analysis)
        std::fprintf(stderr,
                     "  analysis       %llu GP pair(s), %llu PV load(s), "
                     "%llu dead load(s) deleted; %llu sched dep(s) freed\n"
                     "  dataflow       %llu run(s); "
                     "%llu round(s) evaluated, %llu reused\n",
                     (unsigned long long)S.AnalysisGpPairsDeleted,
                     (unsigned long long)S.AnalysisPvLoadsDeleted,
                     (unsigned long long)S.AnalysisDeadLoadsDeleted,
                     (unsigned long long)S.SchedMemDepsFreed,
                     (unsigned long long)S.AnalysisRuns,
                     (unsigned long long)S.AnalysisRoundsEvaluated,
                     (unsigned long long)S.AnalysisRoundsReused);
      if (Opts.HotColdLayout)
        std::fprintf(stderr,
                     "  layout         %llu proc(s) reordered, %llu blocks "
                     "moved, %llu cold, %llu fixup branches\n",
                     (unsigned long long)S.LayoutProcsReordered,
                     (unsigned long long)S.LayoutBlocksMoved,
                     (unsigned long long)S.LayoutColdBlocks,
                     (unsigned long long)S.LayoutFixupBranches);
      std::fprintf(stderr,
                   "  pipeline       %u job(s); lift %.3fs, transforms "
                   "%.3fs, addr-loads %.3fs, code-motion %.3fs, assemble "
                   "%.3fs, verify %.3fs, total %.3fs\n",
                   S.Jobs, S.Seconds.Lift, S.Seconds.CallTransforms,
                   S.Seconds.AddressLoads, S.Seconds.CodeMotion,
                   S.Seconds.Assemble, S.Seconds.Verify, S.Seconds.Total);
    }
    if (!StatsJsonPath.empty()) {
      std::string J = statsJson(R->Stats, Opts.Level);
      if (StatsJsonPath == "-") {
        std::fputs(J.c_str(), stdout);
      } else {
        std::vector<uint8_t> Bytes(J.begin(), J.end());
        if (Error E = writeFileBytes(StatsJsonPath, Bytes)) {
          std::fprintf(stderr, "omlink: %s\n", E.message().c_str());
          return 1;
        }
      }
    }
    if (Opts.Verify || Opts.VerifyEachStage) {
      // Differential execution: relink at every OM level and run each
      // image on the functional simulator; any divergence from the
      // unoptimized reference is a transform miscompile.
      Result<om::DifferentialReport> Rep = om::runDifferential(Objs, Opts);
      if (!Rep) {
        std::fprintf(stderr, "omlink: verify: %s\n", Rep.message().c_str());
        return 1;
      }
      for (const om::DifferentialLeg &Leg : Rep->Legs)
        std::fprintf(stderr,
                     "omlink: verify: OM-%s%s exit %lld, %zu output bytes, "
                     "mem %s, %llu instructions\n",
                     om::levelName(Leg.Level), Leg.Sched ? "+sched" : "",
                     (long long)Leg.ExitCode, Leg.Output.size(),
                     formatHex64(Leg.MemoryHash).c_str(),
                     (unsigned long long)Leg.Instructions);
      std::fprintf(stderr,
                   "omlink: verify: all %zu legs architecturally "
                   "identical\n",
                   Rep->Legs.size());
    }
  }

  if (Error E = writeFileBytes(Output, Img.serialize())) {
    std::fprintf(stderr, "omlink: %s\n", E.message().c_str());
    return 1;
  }
  std::printf("omlink: wrote %s (%zu bytes text, entry %s)\n",
              Output.c_str(), Img.Text.size(),
              formatHex64(Img.Entry).c_str());
  return 0;
}
