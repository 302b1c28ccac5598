//===- tools/aaxrun.cpp - Run an executable on the simulator ---------------=//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes an .aaxe image. The program's PAL output goes to stdout and
/// the process exit code is the simulated program's.
///
///   aaxrun [--functional] [--stats] [--stats-json FILE] [--max-insts N]
///          [--profile-out FILE] a.aaxe
///   aaxrun --suite [--jobs N] [common flags] a.aaxe b.aaxe ...
///
/// The default run is timed (the dual-issue model); --functional runs the
/// architectural semantics only. --stats prints the run's observability
/// block (instruction-class histogram, load/store/branch mix, cache hit
/// rates, simulated MIPS) to stderr; --stats-json writes the same data as
/// JSON to FILE ("-" for stdout). --profile-out collects an execution
/// profile (per-procedure heat, branch taken/fall-through counts, dynamic
/// call edges) and writes it to FILE in the AAXP format
/// `omlink --profile-in` consumes.
///
/// --suite accepts several images and runs them concurrently on --jobs
/// pool threads (0 = hardware concurrency), printing each program's output
/// to stdout in command-line order regardless of completion order. A run
/// that faults reports `aaxrun: NAME: message` on stderr and the process
/// exits 1; otherwise the exit code is 0 (per-program exit codes are in
/// --stats / --stats-json). --profile-out is single-run only.
///
//===----------------------------------------------------------------------===//

#include "objfile/Image.h"
#include "sim/SimStats.h"
#include "sim/Simulator.h"
#include "sim/SuiteRunner.h"
#include "support/FileIO.h"
#include "support/Format.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace om64;

static int usage() {
  std::fprintf(
      stderr,
      "usage: aaxrun [--functional] [--stats] [--stats-json FILE]\n"
      "              [--max-insts N] [--profile-out FILE] a.aaxe\n"
      "       aaxrun --suite [--jobs N] [common flags] a.aaxe b.aaxe ...\n");
  return 2;
}

int main(int argc, char **argv) {
  std::vector<std::string> Inputs;
  std::string StatsJsonPath;
  std::string ProfileOutPath;
  sim::SimConfig Cfg;
  bool Stats = false;
  bool Suite = false;
  uint64_t SuiteJobs = 0; // 0 = hardware concurrency

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
    if (Arg == "--functional") {
      Cfg.Timing = false;
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--suite") {
      Suite = true;
    } else if (Arg == "--jobs" && I + 1 < NArgs) {
      Result<uint64_t> V = parseUnsigned(Argv[++I]);
      if (!V) {
        std::fprintf(stderr, "aaxrun: --jobs: %s\n", V.message().c_str());
        return 2;
      }
      SuiteJobs = *V;
    } else if (Arg == "--stats-json" && I + 1 < NArgs) {
      StatsJsonPath = Argv[++I];
    } else if (Arg == "--max-insts" && I + 1 < NArgs) {
      Result<uint64_t> V = parseUnsigned(Argv[++I]);
      if (!V) {
        std::fprintf(stderr, "aaxrun: --max-insts: %s\n",
                     V.message().c_str());
        return 2;
      }
      Cfg.MaxInstructions = *V;
    } else if (Arg == "--profile-out" && I + 1 < NArgs) {
      ProfileOutPath = Argv[++I];
      Cfg.Profile = true;
    } else if (!Arg.empty() && Arg[0] == '-') {
      return usage();
    } else {
      Inputs.push_back(Arg);
    }
  }
  if (Inputs.empty())
    return usage();
  if (!Suite && Inputs.size() > 1)
    return usage();
  // Profiles key against one image's procedure table; a merged multi-image
  // profile would be meaningless, so reject the combination outright.
  if (Suite && !ProfileOutPath.empty())
    return usage();

  std::vector<obj::Image> Images;
  Images.reserve(Inputs.size());
  for (const std::string &Input : Inputs) {
    Result<std::vector<uint8_t>> Bytes = readFileBytes(Input);
    if (!Bytes) {
      std::fprintf(stderr, "aaxrun: %s\n", Bytes.message().c_str());
      return 1;
    }
    Result<obj::Image> Img = obj::Image::deserialize(*Bytes);
    if (!Img) {
      std::fprintf(stderr, "aaxrun: %s: %s\n", Input.c_str(),
                   Img.message().c_str());
      return 1;
    }
    Images.push_back(std::move(*Img));
  }

  if (Suite) {
    std::vector<sim::SuiteJob> Jobs;
    Jobs.reserve(Images.size());
    for (size_t I = 0; I < Images.size(); ++I)
      Jobs.push_back({Inputs[I], &Images[I], Cfg});
    std::vector<sim::SuiteJobResult> Results =
        sim::runSuite(Jobs, static_cast<unsigned>(SuiteJobs));

    bool AnyFailed = false;
    std::string Json = "{\n  \"suite\": [\n";
    for (size_t I = 0; I < Results.size(); ++I) {
      const sim::SuiteJobResult &R = Results[I];
      if (!R.Ok) {
        std::fprintf(stderr, "aaxrun: %s: %s\n", R.Name.c_str(),
                     R.Error.c_str());
        AnyFailed = true;
        continue;
      }
      std::fputs(R.Result.Output.c_str(), stdout);
      if (Stats) {
        std::fprintf(stderr, "aaxrun: %s: run statistics (exit %lld):\n",
                     R.Name.c_str(), (long long)R.Result.ExitCode);
        std::fputs(sim::statsText(R.Result, Cfg.Timing).c_str(), stderr);
      }
      if (!StatsJsonPath.empty()) {
        Json += "    {\"name\": \"" + R.Name + "\",\n     \"exit_code\": " +
                std::to_string(R.Result.ExitCode) + ",\n     \"stats\": " +
                sim::statsJson(R.Result, Cfg.Timing);
        // statsJson ends with a newline; splice the closing brace in.
        while (!Json.empty() && Json.back() == '\n')
          Json.pop_back();
        Json += "}";
        Json += I + 1 < Results.size() ? ",\n" : "\n";
      }
    }
    Json += "  ]\n}\n";
    if (!StatsJsonPath.empty() && !AnyFailed) {
      if (StatsJsonPath == "-") {
        std::fputs(Json.c_str(), stdout);
      } else {
        std::vector<uint8_t> JsonBytes(Json.begin(), Json.end());
        if (Error E = writeFileBytes(StatsJsonPath, JsonBytes)) {
          std::fprintf(stderr, "aaxrun: %s\n", E.message().c_str());
          return 1;
        }
      }
    }
    return AnyFailed ? 1 : 0;
  }

  Result<sim::SimResult> R = sim::run(Images[0], Cfg);
  if (!R) {
    std::fprintf(stderr, "aaxrun: %s\n", R.message().c_str());
    return 1;
  }
  std::fputs(R->Output.c_str(), stdout);
  if (Stats && !R->ProfileCounts.empty()) {
    std::fprintf(stderr, "aaxrun: profile counters:\n");
    for (size_t Idx = 0; Idx < R->ProfileCounts.size(); ++Idx)
      std::fprintf(stderr, "  count[%zu] = %llu\n", Idx,
                   (unsigned long long)R->ProfileCounts[Idx]);
  }
  if (Stats) {
    std::fprintf(stderr, "aaxrun: run statistics (exit %lld):\n",
                 (long long)R->ExitCode);
    std::fputs(sim::statsText(*R, Cfg.Timing).c_str(), stderr);
  }
  if (!ProfileOutPath.empty()) {
    if (Error E = writeFileBytes(ProfileOutPath, R->Profile.serialize())) {
      std::fprintf(stderr, "aaxrun: %s\n", E.message().c_str());
      return 1;
    }
  }
  if (!StatsJsonPath.empty()) {
    std::string Json = sim::statsJson(*R, Cfg.Timing);
    if (StatsJsonPath == "-") {
      std::fputs(Json.c_str(), stdout);
    } else {
      std::vector<uint8_t> JsonBytes(Json.begin(), Json.end());
      if (Error E = writeFileBytes(StatsJsonPath, JsonBytes)) {
        std::fprintf(stderr, "aaxrun: %s\n", E.message().c_str());
        return 1;
      }
    }
  }
  return static_cast<int>(R->ExitCode & 0x7F);
}
