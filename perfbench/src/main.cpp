//===- perfbench/src/main.cpp - End-to-end link/relink/simulate benchmark -===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One process per workload run. Drives a workload through the public entry
/// point of every layer — megagen or lang+codegen for the inputs, objfile,
/// the baseline linker, om::optimize, the in-process omlinkd daemon, and
/// the simulator — checks every output, and prints one JSON result line.
///
///   perfbench --workload mega-link|mega-edit|spec-loop --seed N
///             [--program-seed P] --seconds S --trace 0|1 --work-dir DIR
///
/// A run sets up at least three times (setup_s is their median), then
/// repeats rounds until S seconds have passed. Each round runs every phase once,
/// so every timing metric's samples span the whole run:
///
///   relink      E single-module edits, each relinked warm by the daemon
///   link_j1     cold link of the edited inputs at Jobs = 1
///   link_jn     the same at Jobs = N (hardware concurrency)
///   run_*       every OM image once on the functional / timing core
///   loop        the figure-regeneration loop on the unedited inputs
///
/// With --trace 1, spans around each layer call are recorded on every
/// other round (the rest measure the tracing overhead), written as Chrome
/// trace-event JSON to DIR, and the per-layer metrics replace the
/// end-to-end ones in the result line. The benchmark doc is
/// perfbench/README.md.
///
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Trace.h"

#include "linker/Linker.h"
#include "megagen/MegaGen.h"
#include "om/Incremental.h"
#include "om/OmImpl.h"
#include "sched/ListScheduler.h"
#include "service/Client.h"
#include "service/Daemon.h"
#include "sim/Simulator.h"
#include "support/ContentHash.h"
#include "support/FileIO.h"
#include "support/Format.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <thread>

using namespace om64;
using namespace om64::perfbench;

namespace {

constexpr unsigned MinSetups = 3, MaxSetups = 15;
constexpr double MinSetupSeconds = 1.5;
constexpr unsigned MinRounds = 3;
constexpr unsigned MinTracedRounds = 4;
constexpr unsigned MaxPasses = 20;
constexpr double MinPhaseSeconds = 0.25;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;        ///< edit stream
  uint64_t ProgramSeed = 1; ///< megagen programs
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir;
};

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::exit(2);
}

Args parseArgs(int argc, char **argv) {
  Args A;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (I + 1 >= argc)
      die("missing value for " + Flag);
    std::string Val = argv[++I];
    if (Flag == "--workload") {
      A.Workload = Val;
    } else if (Flag == "--seed" || Flag == "--program-seed" ||
               Flag == "--seconds" || Flag == "--trace") {
      Result<uint64_t> V = parseUnsigned(Val, ~0ull);
      if (!V)
        die(Flag + ": " + V.message());
      if (Flag == "--seed")
        A.Seed = *V;
      else if (Flag == "--program-seed")
        A.ProgramSeed = *V;
      else if (Flag == "--seconds")
        A.Seconds = static_cast<double>(*V);
      else
        A.Trace = *V != 0;
    } else if (Flag == "--work-dir") {
      A.WorkDir = Val;
    } else {
      die("unknown argument " + Flag +
          " (expected --workload, --seed, --program-seed, --seconds, "
          "--trace, --work-dir)");
    }
  }
  if (A.Workload.empty() || A.WorkDir.empty())
    die("--workload and --work-dir are required");
  return A;
}

/// Every operation and correctness check is counted; a failure is
/// reported with its reason, never skipped.
struct Ledger {
  uint64_t Attempted = 0, Failed = 0;

  bool check(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      std::fprintf(stderr, "perfbench: FAILED: %s\n", What.c_str());
    }
    return Ok;
  }
};

/// Thrown after a failed operation was counted, to abandon its phase.
struct PhaseFailed {};

template <typename T>
T take(Ledger &L, Result<T> R, const std::string &What) {
  if (!L.check(bool(R), R ? What : What + ": " + R.message()))
    throw PhaseFailed{};
  return R.take();
}

void require(Ledger &L, bool Ok, const std::string &What) {
  if (!L.check(Ok, What))
    throw PhaseFailed{};
}

/// Writes without fsync: the daemon reads through the page cache, and a
/// benchmark input needs no crash safety.
bool writePlain(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream F(Path, std::ios::binary | std::ios::trunc);
  F.write(reinterpret_cast<const char *>(Bytes.data()),
          static_cast<std::streamsize>(Bytes.size()));
  return bool(F.flush());
}

/// One linked program of a workload.
struct Program {
  std::string Name;
  std::vector<std::vector<uint8_t>> Original; ///< unedited module bytes
  std::vector<std::vector<uint8_t>> Current;  ///< after the edits so far
  std::vector<obj::ObjectFile> Objects;       ///< parsed Original
  std::vector<std::string> ModulePaths;
  std::string OutPath;
  std::vector<uint8_t> OmImageBytes; ///< OM link of Original
  obj::Image OmImage;
};

struct Workload {
  std::string Name;
  bool FromSource = false; ///< spec-loop: lang + codegen build the inputs
  megagen::MegaSpec Spec;
  om::OmOptions Opts;      ///< Jobs is set per phase
  unsigned EditsPerRound = 1;
};

Workload makeWorkload(const std::string &Name, uint64_t ProgramSeed) {
  Workload W;
  W.Name = Name;
  W.Opts.Level = om::OmLevel::Full;
  W.Opts.Reschedule = true;
  W.Opts.AlignLoopTargets = true;
  // The program is part of the workload's definition: --seed varies only
  // the edit stream, so run-to-run spread is the host's, not the program
  // shape's. --program-seed picks another program (a held-out check).
  // Program seed 1 is megagen's default, the ROADMAP's headline program.
  if (Name == "mega-link") {
    W.Spec.Seed = ProgramSeed;
    W.EditsPerRound = 3;
  } else if (Name == "mega-edit") {
    W.Spec.Seed = ProgramSeed + 1;
    W.Spec.Modules = 16;
    W.Spec.TargetInstructions = 131072;
    W.Opts.Analysis = true;
    W.EditsPerRound = 3;
  } else if (Name == "spec-loop") {
    W.FromSource = true;
    W.EditsPerRound = 19;
  } else {
    die("unknown workload '" + Name +
        "' (expected mega-link, mega-edit or spec-loop)");
  }
  return W;
}

/// The in-process omlinkd: started by setup, stopped and joined by the
/// destructor (also on every error path).
class DaemonHost {
public:
  explicit DaemonHost(const std::string &Socket)
      : D(service::DaemonOptions{Socket}) {}
  ~DaemonHost() {
    if (Runner.joinable()) {
      D.requestStop();
      Runner.join();
    }
  }
  DaemonHost(const DaemonHost &) = delete;
  DaemonHost &operator=(const DaemonHost &) = delete;

  Error start() {
    if (Error E = D.start())
      return E;
    Runner = std::thread([this] {
      if (Error E = D.run())
        std::fprintf(stderr, "perfbench: daemon: %s\n", E.message().c_str());
    });
    return Error::success();
  }

private:
  service::Daemon D;
  std::thread Runner;
};

/// Exact counters of an OM run: everything but stage times and jobs.
std::vector<uint64_t> exactCounters(const om::OmStats &S) {
  return {S.AddressLoadsTotal,       S.AddressLoadsConverted,
          S.AddressLoadsNullified,   S.CallsTotal,
          S.CallsNeedingPvLoad,      S.CallsNeedingGpReset,
          S.JsrConvertedToBsr,       S.BsrFallbackJsrs,
          S.BsrRelaxRounds,          S.BsrRetainedByRelax,
          S.InstructionsTotal,       S.InstructionsNullified,
          S.InstructionsDeleted,     S.NopsInserted,
          S.AnalysisGpPairsDeleted,  S.AnalysisPvLoadsDeleted,
          S.AnalysisDeadLoadsDeleted, S.SchedMemDepsFreed,
          S.GatBytesBefore,          S.GatBytesAfter,
          S.GpGroups,                S.TextBytesBefore,
          S.TextBytesAfter,          S.LayoutProcsReordered,
          S.LayoutBlocksMoved,       S.LayoutColdBlocks,
          S.LayoutFixupBranches};
}

/// What one simulation of a program must reproduce on every run.
struct SimOutcome {
  int64_t ExitCode = 0;
  std::string Output;
  uint64_t Instructions = 0, Cycles = 0, ICacheMisses = 0, DCacheMisses = 0;
  bool operator==(const SimOutcome &) const = default;
};

SimOutcome outcome(const sim::SimResult &R) {
  return {R.ExitCode,     R.Output,       R.Instructions,
          R.Cycles,       R.ICacheMisses, R.DCacheMisses};
}

class Bench {
public:
  Bench(const Args &A, Workload W)
      : A(A), W(std::move(W)), T(this->W.Name,
                                 formatString("%s-seed%llu-pid%d",
                                              this->W.Name.c_str(),
                                              (unsigned long long)A.Seed,
                                              (int)getpid())),
        EditRng(A.Seed ^ 0x5eedEd17ull), Jobs(ThreadPool::defaultConcurrency()) {}

  int run();

private:
  // Set-up.
  void buildInputs(std::vector<Program> &Out);
  std::vector<obj::ObjectFile> compileFromSource(const std::string &Name);
  double setupOnce();
  // Round phases; each returns its timed sample in seconds.
  void relinkPhase();
  double coldLinkPhase(unsigned PhaseJobs, const char *Name,
                       std::vector<std::vector<uint8_t>> &Images,
                       std::vector<om::OmStats> &Stats);
  double coldLinkPass();
  double simPhase(bool Timing);
  double loopPhase();
  void probes();
  void round();

  void sample(const std::string &Name, double V) { Samples[Name].push_back(V); }
  /// Records \p V under \p Key, or checks it equals the value recorded
  /// before: an exact metric that moves is nondeterminism, not noise.
  void exact(const std::string &Key, const std::string &V) {
    auto [It, New] = Exact.try_emplace(Key, V);
    L.check(New || It->second == V, "nondeterminism: " + Key + " changed");
  }
  void exact(const std::string &Key, double V) {
    exact(Key, formatString("%.17g", V));
  }
  void printResult();

  const Args &A;
  Workload W;
  Tracer T;
  Ledger L;
  DetRandom EditRng;
  unsigned Jobs;
  std::vector<Program> Progs;
  std::unique_ptr<DaemonHost> Daemon;
  std::string Socket;
  unsigned Round = 0;
  uint64_t EditCount = 0;

  std::map<std::string, std::vector<double>> Samples;
  std::map<std::string, std::string> Exact;
  std::vector<double> TracedRounds, UntracedRounds;
  /// Exact end-to-end values, from the loop on the unedited inputs.
  double TextBytes = 0, CyclesRatio = 0, LayoutCyclesRatio = 0;
  /// Reference outcome of each OM image, from the first simulation.
  std::vector<SimOutcome> FunctionalRef, TimingRef;
};

void Bench::buildInputs(std::vector<Program> &Out) {
  Scope S(T, "inputs");
  if (!W.FromSource) {
    Program P;
    P.Name = "mega";
    {
      Scope G(T, "megagen.generate");
      megagen::MegaProgram MP = megagen::generate(W.Spec);
      for (const obj::ObjectFile &O : MP.Objects)
        P.Original.push_back(O.serialize());
      P.Objects = std::move(MP.Objects);
    }
    Out.push_back(std::move(P));
    return;
  }
  for (const std::string &Name : wl::workloadNames()) {
    Program P;
    P.Name = Name;
    P.Objects = compileFromSource(Name);
    for (const obj::ObjectFile &O : P.Objects)
      P.Original.push_back(O.serialize());
    Out.push_back(std::move(P));
  }
}

std::vector<obj::ObjectFile>
Bench::compileFromSource(const std::string &Name) {
  wl::ParsedWorkload PW;
  {
    Scope F(T, "lang.frontend");
    PW = take(L, wl::parseWorkload(Name), Name + ": parse");
  }
  // What wl::buildWorkload compiles: runtime and user modules one unit
  // each (the link set, user modules first), plus the user modules as one
  // interprocedural unit.
  Scope C(T, "codegen.compile");
  cg::CompileOptions Each;
  Each.InterUnit = false;
  cg::CompileOptions All = Each;
  All.InterUnit = true;
  std::vector<obj::ObjectFile> Objs = take(
      L, cg::compileEach(PW.AST, PW.UserModules, Each), Name + ": compile");
  std::vector<obj::ObjectFile> Lib =
      take(L, cg::compileEach(PW.AST, PW.RuntimeModuleNames, Each),
           Name + ": compile runtime");
  Objs.insert(Objs.end(), Lib.begin(), Lib.end());
  take(L, cg::compileUnit(PW.AST, PW.UserModules, All),
       Name + ": compile-all");
  return Objs;
}

double Bench::setupOnce() {
  Daemon.reset(); // the previous repetition's daemon, if any
  double Start = nowSeconds();
  Scope S(T, "setup");
  std::vector<Program> Fresh;
  buildInputs(Fresh);

  {
    Scope Wr(T, "write_modules");
    std::string Dir = A.WorkDir + "/" + W.Name;
    std::filesystem::create_directories(Dir);
    for (size_t I = 0; I < Fresh.size(); ++I) {
      Program &P = Fresh[I];
      P.Current = P.Original;
      for (size_t M = 0; M < P.Original.size(); ++M) {
        P.ModulePaths.push_back(formatString("%s/p%zu-m%zu.aaxo",
                                             Dir.c_str(), I, M));
        require(L, writePlain(P.ModulePaths.back(), P.Original[M]),
                "write " + P.ModulePaths.back());
      }
      P.OutPath = formatString("%s/p%zu.aaxe", Dir.c_str(), I);
    }
  }

  {
    Scope D(T, "daemon_start");
    Daemon = std::make_unique<DaemonHost>(Socket);
    Error E = Daemon->start();
    require(L, !E, E ? "daemon start: " + E.message() : "daemon start");
  }

  {
    // The warm-up cold link goes through the daemon, so it also gives the
    // daemon the warm state every timed relink starts from.
    Scope Wu(T, "warmup_link");
    om::OmOptions O = W.Opts;
    O.Jobs = Jobs;
    for (Program &P : Fresh) {
      service::Response R = take(
          L, service::requestRelink(Socket, {O, P.OutPath, P.ModulePaths}),
          P.Name + ": warm-up relink");
      require(L, R.Status == 0 && !R.Warm,
              P.Name + ": warm-up relink is cold and succeeds (" +
                  R.Message + ")");
      P.OmImageBytes = take(L, readFileBytes(P.OutPath), "read " + P.OutPath);
    }
  }
  double Seconds = nowSeconds() - Start;

  for (Program &P : Fresh)
    P.OmImage = take(L, obj::Image::deserialize(P.OmImageBytes),
                     P.Name + ": parse warm-up image");
  // Every repetition must build the same inputs and the same images.
  Hasher H;
  for (const Program &P : Fresh) {
    for (const std::vector<uint8_t> &M : P.Original)
      H.add(M.data(), M.size());
    H.add(P.OmImageBytes.data(), P.OmImageBytes.size());
  }
  exact("setup.inputs_and_images", std::to_string(H.digest()));
  Progs = std::move(Fresh);
  return Seconds;
}

void Bench::relinkPhase() {
  Scope S(T, "relink");
  om::OmOptions O = W.Opts;
  O.Jobs = Jobs;
  for (unsigned E = 0; E < W.EditsPerRound; ++E) {
    Program &P = Progs[EditCount++ % Progs.size()];
    // One procedure recompiled: perturb one module, rotating past modules
    // with no perturbable site.
    size_t Start = EditRng.nextBelow(P.Current.size());
    uint64_t EditSeed = EditRng.next();
    bool Edited = false;
    for (size_t Tried = 0; Tried < P.Current.size() && !Edited; ++Tried) {
      size_t M = (Start + Tried) % P.Current.size();
      obj::ObjectFile Obj = take(L, obj::ObjectFile::deserialize(P.Current[M]),
                                 P.Name + ": parse edited module");
      if (!megagen::perturbModule(Obj, EditSeed))
        continue;
      P.Current[M] = Obj.serialize();
      require(L, writePlain(P.ModulePaths[M], P.Current[M]),
              "write " + P.ModulePaths[M]);
      Edited = true;
    }
    require(L, Edited, P.Name + ": some module has a perturbable site");

    double T0 = nowSeconds();
    service::Response R;
    {
      Scope Rl(T, "service.relink");
      R = take(L, service::requestRelink(Socket, {O, P.OutPath, P.ModulePaths}),
               P.Name + ": relink");
    }
    double RoundTripMs = (nowSeconds() - T0) * 1e3;
    require(L, R.Status == 0, P.Name + ": relink succeeds (" + R.Message + ")");
    require(L, R.Warm && !R.InputUnchanged && R.ModulesReparsed == 1,
            P.Name + ": relink after one edit is warm with one module "
                     "reparsed (" + R.Message + ")");
    require(L,
            R.ModulesRelifted <= std::max<uint64_t>(1, R.ModulesTotal / 4),
            P.Name + ": warm relink relifts far fewer modules than the "
                     "image has (" + R.Message + ")");
    sample("relink_ms", RoundTripMs);
    double DaemonMs = static_cast<double>(R.Micros) / 1e3;
    sample("service.daemon_ms", DaemonMs);
    sample("service.overhead_ms", RoundTripMs - DaemonMs);
    sample("om.incremental.modules_relifted",
           static_cast<double>(R.ModulesRelifted));
    sample("om.incremental.procs_relifted",
           static_cast<double>(R.ProcsRelifted));
    sample("summary_hits", static_cast<double>(R.SummaryRoundHits));
    sample("summary_lookups",
           static_cast<double>(R.SummaryRoundHits + R.SummaryRoundMisses));
  }
}

double Bench::coldLinkPhase(unsigned PhaseJobs, const char *Name,
                            std::vector<std::vector<uint8_t>> &Images,
                            std::vector<om::OmStats> &Stats) {
  om::OmOptions O = W.Opts;
  O.Jobs = PhaseJobs;
  Images.assign(Progs.size(), {});
  Stats.assign(Progs.size(), {});
  double Start = nowSeconds();
  {
    Scope S(T, Name);
    for (size_t I = 0; I < Progs.size(); ++I) {
      const Program &P = Progs[I];
      std::vector<obj::ObjectFile> Objs;
      {
        Scope R(T, "objfile.read");
        Objs.reserve(P.Current.size());
        for (const std::vector<uint8_t> &M : P.Current)
          Objs.push_back(take(L, obj::ObjectFile::deserialize(M),
                              P.Name + ": parse module"));
      }
      om::OmResult R;
      {
        Scope Op(T, "om.optimize");
        R = take(L, om::optimize(Objs, O), P.Name + ": " + Name);
      }
      {
        Scope Wr(T, "objfile.write");
        Images[I] = R.Image.serialize();
      }
      Stats[I] = R.Stats;
    }
  }
  return nowSeconds() - Start;
}

double Bench::simPhase(bool Timing) {
  const char *Layer = Timing ? "sim.timing" : "sim.functional";
  std::vector<SimOutcome> &Ref = Timing ? TimingRef : FunctionalRef;
  sim::SimConfig Cfg;
  Cfg.Timing = Timing;
  uint64_t Insts = 0, Cycles = 0, IMiss = 0, DMiss = 0;
  double Start = nowSeconds();
  std::vector<SimOutcome> Got;
  {
    Scope S(T, Timing ? "run_timing" : "run_functional");
    for (const Program &P : Progs) {
      Scope R(T, Layer);
      sim::SimResult SR =
          take(L, sim::run(P.OmImage, Cfg), P.Name + ": " + Layer);
      Got.push_back(outcome(SR));
    }
  }
  double Seconds = nowSeconds() - Start;
  if (Ref.empty())
    Ref = Got;
  for (size_t I = 0; I < Got.size(); ++I) {
    L.check(Got[I] == Ref[I], Progs[I].Name + ": " + Layer +
                                  " run repeats its output and counts");
    Insts += Got[I].Instructions;
    Cycles += Got[I].Cycles;
    IMiss += Got[I].ICacheMisses;
    DMiss += Got[I].DCacheMisses;
  }
  if (Timing) {
    sample("sim.timing_insts", static_cast<double>(Insts));
    exact("sim.instructions", static_cast<double>(Insts));
    exact("sim.cycles", static_cast<double>(Cycles));
    exact("sim.icache_misses", static_cast<double>(IMiss));
    exact("sim.dcache_misses", static_cast<double>(DMiss));
  } else {
    sample("sim.functional_insts", static_cast<double>(Insts));
  }
  return Seconds;
}

double Bench::loopPhase() {
  om::OmOptions O = W.Opts;
  O.Jobs = Jobs;
  sim::SimConfig TimingCfg;
  sim::SimConfig ProfileCfg;
  ProfileCfg.Timing = false;
  ProfileCfg.Profile = true;
  uint64_t Text = 0, Deleted = 0, BsrRetained = 0, MemDepsFreed = 0,
           AnalysisDeletions = 0;
  std::vector<double> OmRatios, LayoutRatios;
  double Start = nowSeconds();
  {
    Scope S(T, "loop");
    for (size_t I = 0; I < Progs.size(); ++I) {
      const Program &P = Progs[I];
      std::vector<obj::ObjectFile> Compiled;
      if (W.FromSource) {
        Compiled = compileFromSource(P.Name);
        bool Same = Compiled.size() == P.Original.size();
        for (size_t M = 0; Same && M < Compiled.size(); ++M)
          Same = Compiled[M].serialize() == P.Original[M];
        L.check(Same, P.Name + ": recompiled objects equal set-up's");
      }
      const std::vector<obj::ObjectFile> &Objs =
          W.FromSource ? Compiled : P.Objects;

      obj::Image Base;
      {
        Scope Lk(T, "linker.link");
        Base = take(L, lnk::link(Objs), P.Name + ": baseline link");
      }
      om::OmResult Om;
      {
        Scope Op(T, "om.optimize");
        Om = take(L, om::optimize(Objs, O), P.Name + ": OM link");
      }
      L.check(Om.Image.serialize() == P.OmImageBytes,
              P.Name + ": OM image equals the daemon's cold link");
      sim::SimResult BaseRun, OmRun, Prof, LayRun;
      {
        Scope R(T, "sim.timing");
        BaseRun = take(L, sim::run(Base, TimingCfg), P.Name + ": baseline run");
      }
      {
        Scope R(T, "sim.timing");
        OmRun = take(L, sim::run(Om.Image, TimingCfg), P.Name + ": OM run");
      }
      {
        Scope R(T, "sim.profile");
        Prof = take(L, sim::run(Om.Image, ProfileCfg), P.Name + ": profile");
      }
      om::OmOptions LayOpts = O;
      LayOpts.HotColdLayout = true;
      LayOpts.Profile = std::move(Prof.Profile);
      om::OmResult Lay;
      {
        Scope Op(T, "om.layout_link");
        Lay = take(L, om::optimize(Objs, LayOpts), P.Name + ": layout link");
      }
      {
        Scope R(T, "sim.timing");
        LayRun = take(L, sim::run(Lay.Image, TimingCfg),
                      P.Name + ": layout run");
      }
      for (const sim::SimResult *R : {&OmRun, &Prof, &LayRun})
        require(L, R->ExitCode == BaseRun.ExitCode &&
                       R->Output == BaseRun.Output,
                P.Name + ": OM, profiled and hot-cold images behave like "
                         "the baseline image");
      if (!TimingRef.empty())
        L.check(OmRun.Cycles == TimingRef[I].Cycles,
                P.Name + ": loop and run_timing agree on OM cycles");
      Text += Om.Image.Text.size();
      OmRatios.push_back(static_cast<double>(OmRun.Cycles) /
                         static_cast<double>(BaseRun.Cycles));
      LayoutRatios.push_back(static_cast<double>(LayRun.Cycles) /
                             static_cast<double>(OmRun.Cycles));
      Deleted += Om.Stats.InstructionsDeleted;
      BsrRetained += Om.Stats.BsrRetainedByRelax;
      MemDepsFreed += Om.Stats.SchedMemDepsFreed;
      AnalysisDeletions += Om.Stats.AnalysisGpPairsDeleted +
                           Om.Stats.AnalysisPvLoadsDeleted +
                           Om.Stats.AnalysisDeadLoadsDeleted;
    }
  }
  double Seconds = nowSeconds() - Start;
  TextBytes = static_cast<double>(Text);
  CyclesRatio = geomean(OmRatios);
  LayoutCyclesRatio = geomean(LayoutRatios);
  exact("text_bytes", TextBytes);
  exact("cycles_ratio", CyclesRatio);
  exact("layout_cycles_ratio", LayoutCyclesRatio);
  exact("om.insts_deleted", static_cast<double>(Deleted));
  exact("om.bsr_retained", static_cast<double>(BsrRetained));
  exact("om.sched_mem_deps_freed", static_cast<double>(MemDepsFreed));
  exact("om.analysis_deletions", static_cast<double>(AnalysisDeletions));
  return Seconds;
}

/// Traced runs only: layers that a plain link reaches only from inside
/// om::optimize, timed once from outside through their own entry points.
void Bench::probes() {
  Scope S(T, "probes");
  om::OmOptions O = W.Opts;
  O.Jobs = 1;
  ThreadPool Serial(1);
  for (const Program &P : Progs) {
    om::SymbolicProgram SP = take(L, om::liftProgram(P.Objects, O, Serial),
                                  P.Name + ": lift");
    {
      Scope A(T, "analysis.fixpoint");
      om::analysis::analyzeProgram(SP, Serial);
    }
    {
      Scope Sc(T, "sched.schedule");
      std::vector<isa::Inst> Insts;
      for (const om::SymProc &Proc : SP.Procs) {
        Insts.clear();
        for (const om::SymInst &SI : Proc.Insts)
          Insts.push_back(SI.I);
        sched::scheduleWithBarriers(Insts);
      }
    }
  }
}

/// Runs \p Pass (which records its own samples and returns its seconds)
/// until MinPhaseSeconds have passed, so a short phase contributes several
/// samples per round and its median is as steady as a long phase's.
template <typename Fn> void repeatPasses(Fn Pass) {
  double Spent = 0;
  for (unsigned N = 0; N < MaxPasses && Spent < MinPhaseSeconds; ++N)
    Spent += Pass();
}

double Bench::coldLinkPass() {
  std::vector<std::vector<uint8_t>> J1, JN;
  std::vector<om::OmStats> S1, SN;
  double T1 = coldLinkPhase(1, "link_j1", J1, S1);
  double TN = coldLinkPhase(Jobs, "link_jn", JN, SN);
  sample("link_j1_s", T1);
  sample("link_jn_s", TN);
  om::OmStageSeconds Sec1, SecN;
  for (size_t I = 0; I < Progs.size(); ++I) {
    const Program &P = Progs[I];
    L.check(J1[I] == JN[I], P.Name + ": -j1 and -jN images are byte-equal");
    L.check(exactCounters(S1[I]) == exactCounters(SN[I]),
            P.Name + ": -j1 and -jN OM counters are equal");
    Result<std::vector<uint8_t>> Warm = readFileBytes(P.OutPath);
    L.check(Warm && *Warm == J1[I],
            P.Name + ": last warm image equals a cold link of its inputs");
    for (auto [Dst, Src] : {std::pair{&Sec1, &S1[I].Seconds},
                            std::pair{&SecN, &SN[I].Seconds}}) {
      Dst->Lift += Src->Lift;
      Dst->CallTransforms += Src->CallTransforms;
      Dst->AddressLoads += Src->AddressLoads;
      Dst->CodeMotion += Src->CodeMotion;
      Dst->Assemble += Src->Assemble;
    }
  }
  for (auto [Sfx, Sec] :
       {std::pair{std::string(), &Sec1}, std::pair{std::string("_jn"), &SecN}}) {
    sample("om.lift_s" + Sfx, Sec->Lift);
    sample("om.call_transforms_s" + Sfx, Sec->CallTransforms);
    sample("om.address_loads_s" + Sfx, Sec->AddressLoads);
    sample("om.code_motion_s" + Sfx, Sec->CodeMotion);
    sample("om.assemble_s" + Sfx, Sec->Assemble);
  }
  return T1 + TN;
}

void Bench::round() {
  T.Round = Round;
  double Start = nowSeconds();
  {
    Scope S(T, "round");
    relinkPhase();
    repeatPasses([&] { return coldLinkPass(); });
    repeatPasses([&] {
      double Sec = simPhase(false);
      sample("run_functional_s", Sec);
      return Sec;
    });
    repeatPasses([&] {
      double Sec = simPhase(true);
      sample("run_timing_s", Sec);
      return Sec;
    });
    sample("loop_s", loopPhase());
  }
  (T.Enabled ? TracedRounds : UntracedRounds).push_back(nowSeconds() - Start);
}

int Bench::run() {
  Socket = formatString("%s/d%d.sock", A.WorkDir.c_str(), (int)getpid());
  std::filesystem::create_directories(A.WorkDir);
  T.Enabled = A.Trace;
  try {
    // Cheap set-ups repeat more often, for a steadier median.
    double Spent = 0;
    for (unsigned I = 0;
         I < MinSetups || (I < MaxSetups && Spent < MinSetupSeconds); ++I) {
      double Sec = setupOnce();
      sample("setup_s", Sec);
      Spent += Sec;
    }
    if (A.Trace)
      probes();
  } catch (const PhaseFailed &) {
    std::fprintf(stderr, "perfbench: set-up failed; nothing measured\n");
    return 1;
  }

  double Start = nowSeconds();
  unsigned Min = A.Trace ? MinTracedRounds : MinRounds;
  for (; Round < Min || nowSeconds() - Start < A.Seconds; ++Round) {
    // Traced runs alternate traced and untraced rounds, so the tracing
    // overhead is measured against rounds of the same run.
    T.Enabled = A.Trace && Round % 2 == 0;
    try {
      round();
    } catch (const PhaseFailed &) {
      // Counted in the ledger; the next round starts afresh.
    }
  }
  Daemon.reset();
  printResult();
  return 0;
}

struct MetricDef {
  std::string Name;
  std::string Unit;
};

/// Per-layer metrics measured by spans: (metric, span name, phase).
/// Each phase instance contributes the sum of the span's self time within
/// it; the metric is the median over instances.
struct SpanMetric {
  const char *Metric;
  const char *Span;
  const char *Phase;
};

const SpanMetric SpanMetrics[] = {
    {"megagen.generate_s", "megagen.generate", "inputs"},
    {"lang.frontend_s", "lang.frontend", "loop"},
    {"codegen.compile_s", "codegen.compile", "loop"},
    {"objfile.read_s", "objfile.read", "link_j1"},
    {"objfile.write_s", "objfile.write", "link_j1"},
    {"linker.link_s", "linker.link", "loop"},
    {"om.layout_link_s", "om.layout_link", "loop"},
    {"analysis.fixpoint_s", "analysis.fixpoint", "probes"},
    {"sched.schedule_s", "sched.schedule", "probes"},
    {"sim.functional_s", "sim.functional", "run_functional"},
    {"sim.timing_s", "sim.timing", "run_timing"},
    {"sim.profile_s", "sim.profile", "loop"},
};

void Bench::printResult() {
  // Human-readable lines first; the last line is the JSON result.
  std::printf("perfbench: workload %s, seed %llu, jobs N = %u, %u rounds, "
              "%zu spans\n",
              W.Name.c_str(), (unsigned long long)A.Seed, Jobs, Round,
              T.spans().size());
  for (const char *M : {"setup_s", "link_j1_s", "link_jn_s", "relink_ms",
                        "run_functional_s", "run_timing_s", "loop_s"}) {
    const std::vector<double> &V = Samples[M];
    Quartiles Q = quartiles(V);
    std::string Tail;
    if (std::optional<double> P = supportedPercentile(V.size()))
      Tail = formatString(", p%g %.6g", *P, percentile(V, *P));
    std::printf("  %-17s median %.6g  q1 %.6g  q3 %.6g  n %zu%s\n", M,
                median(V), Q.Q1, Q.Q3, V.size(), Tail.c_str());
  }
  std::string ExactJson;
  for (const auto &[K, V] : Exact)
    ExactJson += formatString("%s\"%s\": %s", ExactJson.empty() ? "" : ", ",
                              K.c_str(), V.c_str());
  std::printf("exact: {%s}\n", ExactJson.c_str());

  std::vector<std::pair<MetricDef, double>> Out;
  auto Med = [&](const char *K) { return median(Samples[K]); };
  if (!A.Trace) {
    struct rusage RU;
    getrusage(RUSAGE_SELF, &RU);
    Out = {{{"setup_s", "s"}, Med("setup_s")},
           {{"link_j1_s", "s"}, Med("link_j1_s")},
           {{"link_jn_s", "s"}, Med("link_jn_s")},
           {{"relink_ms", "ms"}, Med("relink_ms")},
           {{"run_functional_s", "s"}, Med("run_functional_s")},
           {{"run_timing_s", "s"}, Med("run_timing_s")},
           {{"loop_s", "s"}, Med("loop_s")},
           {{"peak_rss_mb", "MB"}, static_cast<double>(RU.ru_maxrss) / 1024},
           {{"text_bytes", "bytes"}, TextBytes},
           {{"cycles_ratio", "ratio"}, CyclesRatio},
           {{"layout_cycles_ratio", "ratio"}, LayoutCyclesRatio}};
  } else {
    std::vector<double> Self = T.selfTimes();
    const std::vector<Span> &Sp = T.spans();
    // Phase instance of each span: its ancestor directly below the root
    // (a round or set-up's phase), or the root for the phases themselves.
    std::vector<int> PhaseOf(Sp.size());
    for (size_t I = 0; I < Sp.size(); ++I) {
      int Id = Sp[I].Parent >= 0 ? Sp[I].Parent : static_cast<int>(I);
      while (Sp[Id].Parent >= 0 && Sp[Sp[Id].Parent].Parent >= 0)
        Id = Sp[Id].Parent;
      PhaseOf[I] = Id;
    }
    for (const SpanMetric &M : SpanMetrics) {
      std::map<int, double> PerPhase;
      for (size_t I = 0; I < Sp.size(); ++I)
        if (Sp[I].Name == M.Span && Sp[PhaseOf[I]].Name == M.Phase)
          PerPhase[PhaseOf[I]] += Self[I];
      std::vector<double> V;
      for (const auto &[Id, Sum] : PerPhase)
        V.push_back(Sum);
      Out.push_back({{M.Metric, "s"}, median(V)});
    }
    for (const char *Suffix : {"", "_jn"})
      for (const char *Stage : {"lift", "call_transforms", "address_loads",
                                "code_motion", "assemble"}) {
        std::string K = formatString("om.%s_s%s", Stage, Suffix);
        Out.push_back({{K, "s"}, Med(K.c_str())});
      }
    double Fs = 0, Ts = 0;
    for (const auto &[Def, V] : Out) {
      if (Def.Name == "sim.functional_s")
        Fs = V;
      if (Def.Name == "sim.timing_s")
        Ts = V;
    }
    auto Mips = [](double Insts, double Secs) {
      return Secs > 0 ? Insts / Secs / 1e6 : 0;
    };
    auto ExactNum = [&](const char *K) { return std::atof(Exact[K].c_str()); };
    double Lookups = 0, Hits = 0;
    for (double V : Samples["summary_lookups"])
      Lookups += V;
    for (double V : Samples["summary_hits"])
      Hits += V;
    double Traced = median(TracedRounds), Untraced = median(UntracedRounds);
    std::vector<std::pair<MetricDef, double>> More = {
        {{"sim.functional_mips", "MIPS"},
         Mips(Med("sim.functional_insts"), Fs)},
        {{"sim.timing_mips", "MIPS"}, Mips(Med("sim.timing_insts"), Ts)},
        {{"sim.instructions", "count"}, ExactNum("sim.instructions")},
        {{"sim.cycles", "count"}, ExactNum("sim.cycles")},
        {{"sim.icache_misses", "count"}, ExactNum("sim.icache_misses")},
        {{"sim.dcache_misses", "count"}, ExactNum("sim.dcache_misses")},
        {{"service.daemon_ms", "ms"}, Med("service.daemon_ms")},
        {{"service.overhead_ms", "ms"}, Med("service.overhead_ms")},
        {{"om.incremental.modules_relifted", "count"},
         Med("om.incremental.modules_relifted")},
        {{"om.incremental.procs_relifted", "count"},
         Med("om.incremental.procs_relifted")},
        {{"om.incremental.summary_hit_ratio", "ratio"},
         Lookups > 0 ? Hits / Lookups : 0},
        {{"om.insts_deleted", "count"}, ExactNum("om.insts_deleted")},
        {{"om.bsr_retained", "count"}, ExactNum("om.bsr_retained")},
        {{"om.sched_mem_deps_freed", "count"},
         ExactNum("om.sched_mem_deps_freed")},
        {{"om.analysis_deletions", "count"}, ExactNum("om.analysis_deletions")},
        {{"trace.overhead_ratio", "ratio"},
         Untraced > 0 ? Traced / Untraced : 0},
    };
    Out.insert(Out.end(), More.begin(), More.end());
    std::string TracePath =
        formatString("%s/trace-%s-seed%llu.json", A.WorkDir.c_str(),
                     W.Name.c_str(), (unsigned long long)A.Seed);
    L.check(T.writeChromeJson(TracePath), "write " + TracePath);
    std::printf("perfbench: trace written to %s\n", TracePath.c_str());
  }

  std::string Json = formatString(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      L.Failed == 0 ? "true" : "false", (unsigned long long)L.Attempted,
      (unsigned long long)L.Failed);
  for (size_t I = 0; I < Out.size(); ++I)
    Json += formatString("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                         I ? ", " : "", Out[I].first.Name.c_str(),
                         Out[I].second, Out[I].first.Unit.c_str());
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
}

} // namespace

int main(int argc, char **argv) {
  Args A = parseArgs(argc, argv);
  Bench B(A, makeWorkload(A.Workload, A.ProgramSeed));
  return B.run();
}
