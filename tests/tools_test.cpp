//===- tests/tools_test.cpp - CLI toolchain integration tests -------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the installed command-line tools (mlc, omlink, aaxrun, aaxdump)
/// through a temp directory: compile sources to .aaxo files, link them
/// standard and with OM, execute both, and verify identical program
/// output plus sane dump contents. The tool paths come from the build
/// system (OM64_TOOLS_DIR).
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

namespace {

std::string toolsDir() { return OM64_TOOLS_DIR; }

/// Runs a shell command, captures stdout, returns the exit status.
int runCommand(const std::string &Cmd, std::string &Stdout) {
  std::string Full = Cmd + " 2>/dev/null";
  std::FILE *P = popen(Full.c_str(), "r");
  if (!P)
    return -1;
  char Buf[4096];
  Stdout.clear();
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    Stdout.append(Buf, N);
  int Status = pclose(P);
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

/// Like runCommand but captures stderr instead of discarding it, for
/// asserting diagnostic text.
int runCommandErr(const std::string &Cmd, std::string &Output) {
  std::string Full = Cmd + " 2>&1";
  std::FILE *P = popen(Full.c_str(), "r");
  if (!P)
    return -1;
  char Buf[4096];
  Output.clear();
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    Output.append(Buf, N);
  int Status = pclose(P);
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

std::vector<char> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(In)),
                           std::istreambuf_iterator<char>());
}

void writeFile(const std::string &Path, const std::vector<char> &Bytes) {
  std::ofstream(Path, std::ios::binary | std::ios::trunc)
      .write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

/// Where one symbol record of a serialized object lies: the byte offsets
/// of its fields.
struct SymbolRecord {
  std::string Name;
  size_t Section = 0, Offset = 0, Size = 0, IsProcedure = 0, IsDefined = 0;
};

/// Walks a serialized object (magic, version, module name, .text, .data,
/// bss size, GAT) to its symbol table. Sets \p DataSize to the length of
/// .data and, if given, \p End to the first byte past the symbol table
/// and \p BssSizeAt to the offset of the bss size.
std::vector<SymbolRecord> symbolRecords(const std::vector<char> &Bytes,
                                        uint64_t &DataSize,
                                        size_t *End = nullptr,
                                        size_t *BssSizeAt = nullptr) {
  size_t At = 8;
  auto u32 = [&]() {
    uint32_t V = 0;
    std::memcpy(&V, Bytes.data() + At, 4);
    At += 4;
    return V;
  };
  auto u64 = [&]() {
    uint64_t V = 0;
    std::memcpy(&V, Bytes.data() + At, 8);
    At += 8;
    return V;
  };
  At += u32();                 // module name
  At += u64();                 // .text
  DataSize = u64();
  At += DataSize;              // .data
  if (BssSizeAt)
    *BssSizeAt = At;
  At += 8;                     // bss size
  At += size_t(u32()) * 12;    // GAT: u32 symbol index, i64 addend
  std::vector<SymbolRecord> Records(u32());
  for (SymbolRecord &R : Records) {
    uint32_t Len = u32();
    R.Name.assign(Bytes.data() + At, Len);
    At += Len;
    R.Section = At;
    R.Offset = At + 1;
    R.Size = At + 9;
    R.IsProcedure = At + 17;
    R.IsDefined = At + 19;
    At += 20;
  }
  if (End)
    *End = At;
  return Records;
}

/// One relocation record of a serialized object: its fields' values, and
/// the byte offset of the record (kind at +0, offset at +2, literal id at
/// +14, pair offset at +38; 47 bytes in all).
struct RelocRecord {
  size_t At = 0;
  uint8_t Kind = 0;
  uint64_t Offset = 0;
  uint32_t LiteralId = 0;
};

/// The relocation table of a serialized object, and in \p Procs the
/// (offset, size) of each procedure descriptor that follows it.
std::vector<RelocRecord>
relocRecords(const std::vector<char> &Bytes,
             std::vector<std::pair<uint64_t, uint64_t>> &Procs) {
  uint64_t DataSize = 0;
  size_t At = 0;
  symbolRecords(Bytes, DataSize, &At);
  auto read = [&Bytes](size_t Off, auto &V) {
    std::memcpy(&V, Bytes.data() + Off, sizeof(V));
  };
  uint32_t Count = 0;
  read(At, Count);
  At += 4;
  std::vector<RelocRecord> Relocs(Count);
  for (RelocRecord &R : Relocs) {
    R.At = At;
    read(At, R.Kind);
    read(At + 2, R.Offset);
    read(At + 14, R.LiteralId);
    At += 47;
  }
  read(At, Count);
  At += 4;
  Procs.resize(Count);
  for (auto &[Offset, Size] : Procs) {
    read(At + 4, Offset);
    read(At + 12, Size);
    At += 21;
  }
  return Relocs;
}

class ToolchainTest : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = ::testing::TempDir() + "om64_tools_XXXXXX";
    ASSERT_NE(mkdtemp(Dir.data()), nullptr);

    std::ofstream Src(Dir + "/prog.ml");
    Src << R"(
module prog;
import io;
var total: int;
export func accumulate(x: int): int {
  total = total + x * x;
  return total;
}
export func main(): int {
  var i: int;
  i = 1;
  while (i <= 4) {
    accumulate(i);
    i = i + 1;
  }
  io.print_int_ln(total);
  return total & 7;
}
)";
    Src.close();

    std::string Out;
    ASSERT_EQ(runCommand("cd " + Dir + " && " + toolsDir() +
                             "/mlc --emit-runtime . prog.ml",
                         Out),
              0)
        << Out;
  }

  /// A failing test keeps its directory for inspection.
  void TearDown() override {
    if (!HasFailure()) {
      std::error_code EC;
      std::filesystem::remove_all(Dir, EC);
    }
  }

  std::string allObjects() const {
    return Dir + "/prog.aaxo " + Dir + "/rt.aaxo " + Dir + "/io.aaxo " +
           Dir + "/mathlib.aaxo " + Dir + "/prng.aaxo " + Dir +
           "/accum.aaxo " + Dir + "/workq.aaxo " + Dir + "/bits.aaxo " +
           Dir + "/fixed.aaxo";
  }

  std::string Dir;
};

TEST_F(ToolchainTest, CompileLinkRunStandard) {
  std::string Out;
  ASSERT_EQ(runCommand(toolsDir() + "/omlink --standard -o " + Dir +
                           "/std.aaxe " + allObjects(),
                       Out),
            0)
      << Out;
  // 1+4+9+16 = 30; exit = 30 & 7 = 6.
  EXPECT_EQ(runCommand(toolsDir() + "/aaxrun " + Dir + "/std.aaxe", Out),
            6);
  EXPECT_EQ(Out, "30\n");
}

TEST_F(ToolchainTest, RunEmitsStatsJson) {
  std::string Out;
  ASSERT_EQ(runCommand(toolsDir() + "/omlink --standard -o " + Dir +
                           "/sj.aaxe " + allObjects(),
                       Out),
            0)
      << Out;
  // JSON on stdout via "-": program output precedes the stats object.
  EXPECT_EQ(runCommand(toolsDir() + "/aaxrun --stats-json - " + Dir +
                           "/sj.aaxe",
                       Out),
            6);
  EXPECT_NE(Out.find("30\n"), std::string::npos);
  EXPECT_NE(Out.find("\"instructions\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"class_counts\""), std::string::npos);
  EXPECT_NE(Out.find("\"cycles\""), std::string::npos)
      << "timing runs must include the timing section";
  EXPECT_NE(Out.find("\"blocks_memoized\""), std::string::npos) << Out;

  // And to a file, in functional mode (timing section absent).
  EXPECT_EQ(runCommand(toolsDir() + "/aaxrun --functional --stats-json " +
                           Dir + "/stats.json " + Dir + "/sj.aaxe",
                       Out),
            6);
  std::ifstream F(Dir + "/stats.json");
  std::stringstream SS;
  SS << F.rdbuf();
  EXPECT_NE(SS.str().find("\"simulated_mips\""), std::string::npos);
  EXPECT_NE(SS.str().find("\"timing\": null"), std::string::npos);
}

TEST_F(ToolchainTest, DispatchFlagIsAUsageError) {
  std::string Out;
  ASSERT_EQ(runCommand(toolsDir() + "/omlink --standard -o " + Dir +
                           "/dsp.aaxe " + allObjects(),
                       Out),
            0)
      << Out;
  // The simulator has one dispatch, so there is nothing to select: the
  // old flag is an unknown flag, in either spelling.
  EXPECT_EQ(runCommandErr(toolsDir() + "/aaxrun --dispatch=switch " + Dir +
                              "/dsp.aaxe",
                          Out),
            2);
  EXPECT_NE(Out.find("usage: aaxrun"), std::string::npos) << Out;
  EXPECT_EQ(runCommand(toolsDir() + "/aaxrun --dispatch switch " + Dir +
                           "/dsp.aaxe",
                       Out),
            2);
  EXPECT_EQ(runCommand(toolsDir() + "/aaxrun " + Dir + "/dsp.aaxe", Out), 6);
  EXPECT_EQ(Out, "30\n");
}

TEST_F(ToolchainTest, SuiteModeRunsManyImagesInOrder) {
  std::string Out;
  ASSERT_EQ(runCommand(toolsDir() + "/omlink --standard -o " + Dir +
                           "/s.aaxe " + allObjects(),
                       Out),
            0)
      << Out;
  // Outputs appear in command-line order regardless of --jobs, and the
  // exit code is 0 when every image loads and runs.
  EXPECT_EQ(runCommand(toolsDir() + "/aaxrun --suite --jobs 3 " + Dir +
                           "/s.aaxe " + Dir + "/s.aaxe " + Dir + "/s.aaxe",
                       Out),
            0);
  EXPECT_EQ(Out, "30\n30\n30\n");
  // Per-image stats blocks are keyed by image name.
  EXPECT_EQ(runCommand(toolsDir() + "/aaxrun --suite --stats-json - " +
                           Dir + "/s.aaxe " + Dir + "/s.aaxe",
                       Out),
            0);
  EXPECT_NE(Out.find("\"suite\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"exit_code\": 6"), std::string::npos) << Out;
  // Usage errors: several inputs need --suite; suite profiles are
  // ambiguous (a profile keys against one image's procedure table).
  EXPECT_EQ(runCommand(toolsDir() + "/aaxrun " + Dir + "/s.aaxe " + Dir +
                           "/s.aaxe",
                       Out),
            2);
  EXPECT_EQ(runCommand(toolsDir() + "/aaxrun --suite --profile-out=" +
                           Dir + "/p.aaxp " + Dir + "/s.aaxe",
                       Out),
            2);
  // A bad image fails the whole suite with exit 1.
  EXPECT_EQ(runCommand(toolsDir() + "/aaxrun --suite " + Dir +
                           "/s.aaxe " + Dir + "/prog.aaxo",
                       Out),
            1);
}

TEST_F(ToolchainTest, OmLinkMatchesStandardOutput) {
  std::string StdOut, OmOut;
  ASSERT_EQ(runCommand(toolsDir() + "/omlink --standard -o " + Dir +
                           "/std.aaxe " + allObjects(),
                       StdOut),
            0);
  for (const char *Level : {"none", "simple", "full"}) {
    std::string Link;
    ASSERT_EQ(runCommand(toolsDir() + "/omlink -O " + Level + " -o " +
                             Dir + "/om.aaxe " + allObjects(),
                         Link),
              0)
        << Link;
    EXPECT_EQ(runCommand(toolsDir() + "/aaxrun " + Dir + "/std.aaxe",
                         StdOut),
              runCommand(toolsDir() + "/aaxrun " + Dir + "/om.aaxe",
                         OmOut));
    EXPECT_EQ(StdOut, OmOut) << "at -O " << Level;
  }
}

TEST_F(ToolchainTest, VerifyEachStagePassesAtEveryLevel) {
  // omlink --verify-each-stage: OmVerify's structural invariants must
  // hold between every transform stage, and the built-in differential
  // execution must find all four link variants architecturally equal.
  for (const char *Level : {"none", "simple", "full"}) {
    std::string Out;
    ASSERT_EQ(runCommand(toolsDir() + "/omlink --verify-each-stage -O " +
                             Level + " --sched -o " + Dir + "/v.aaxe " +
                             allObjects(),
                         Out),
              0)
        << "at -O " << Level << ": " << Out;
    std::string Run;
    EXPECT_EQ(runCommand(toolsDir() + "/aaxrun " + Dir + "/v.aaxe", Run),
              6);
    EXPECT_EQ(Run, "30\n");
  }
}

TEST_F(ToolchainTest, StageSecondsAccountForTheWholeLink) {
  // Every moment of a link without --lint is charged to one of the six
  // stage_seconds buckets, checks included, so they sum to the total.
  std::string Out;
  ASSERT_EQ(runCommand(toolsDir() + "/megagen --shape mixed --modules 4 "
                           "--procs 8 --insts 200000 --seed 3 -o " + Dir,
                       Out),
            0)
      << Out;
  std::string Objs;
  for (int M = 0; M < 4; ++M)
    Objs += " " + Dir + "/mg000" + std::to_string(M) + ".aaxo";
  for (const char *Flags :
       {"-O none", "-O none --verify-each-stage", "-O full --sched",
        "-O full --sched --verify-each-stage"}) {
    ASSERT_EQ(runCommand(toolsDir() + "/omlink -j 1 " + Flags +
                             " --stats-json " + Dir + "/s.json -o " + Dir +
                             "/mg.aaxe" + Objs,
                         Out),
              0)
        << Flags << ": " << Out;
    std::vector<char> Bytes = readFile(Dir + "/s.json");
    std::string Json(Bytes.begin(), Bytes.end());
    auto seconds = [&](const std::string &Key) {
      size_t At = Json.find("\"" + Key + "\": ");
      EXPECT_NE(At, std::string::npos) << Key << " missing:\n" << Json;
      return At == std::string::npos
                 ? 0.0
                 : std::stod(Json.substr(At + Key.size() + 4));
    };
    double Sum = 0;
    for (const char *Bucket : {"lift", "call_transforms", "address_loads",
                               "code_motion", "assemble", "verify"})
      Sum += seconds(Bucket);
    double Total = seconds("total");
    EXPECT_NEAR(Sum, Total, std::max(0.01 * Total, 0.0005))
        << Flags << ":\n" << Json;
  }
}

TEST_F(ToolchainTest, CompileAllMode) {
  std::string Out;
  ASSERT_EQ(runCommand("cd " + Dir + " && " + toolsDir() +
                           "/mlc --all -o unit.aaxo prog.ml",
                       Out),
            0)
      << Out;
  ASSERT_EQ(runCommand(toolsDir() + "/omlink -O full -o " + Dir +
                           "/all.aaxe " + Dir + "/unit.aaxo " + Dir +
                           "/rt.aaxo " + Dir + "/io.aaxo " + Dir +
                           "/mathlib.aaxo " + Dir + "/prng.aaxo " + Dir +
                           "/accum.aaxo " + Dir + "/workq.aaxo " + Dir +
                           "/bits.aaxo " + Dir + "/fixed.aaxo",
                       Out),
            0)
      << Out;
  EXPECT_EQ(runCommand(toolsDir() + "/aaxrun " + Dir + "/all.aaxe", Out),
            6);
  EXPECT_EQ(Out, "30\n");
}

TEST_F(ToolchainTest, DumpShowsLoaderHints) {
  std::string Out;
  ASSERT_EQ(runCommand(toolsDir() + "/aaxdump " + Dir + "/prog.aaxo", Out),
            0);
  EXPECT_NE(Out.find("LITERAL"), std::string::npos);
  EXPECT_NE(Out.find("LITUSE_JSR"), std::string::npos);
  EXPECT_NE(Out.find("GPDISP"), std::string::npos);
  EXPECT_NE(Out.find("prog.main"), std::string::npos);
  EXPECT_NE(Out.find("jsr ra, (pv)"), std::string::npos);

  ASSERT_EQ(runCommand(toolsDir() + "/omlink -O full -o " + Dir +
                           "/d.aaxe " + allObjects(),
                       Out),
            0);
  ASSERT_EQ(runCommand(toolsDir() + "/aaxdump " + Dir + "/d.aaxe", Out),
            0);
  EXPECT_NE(Out.find("AAX executable"), std::string::npos);
  EXPECT_NE(Out.find("entry"), std::string::npos);
}

TEST_F(ToolchainTest, InstrumentedLinkProfiles) {
  std::string Out;
  ASSERT_EQ(runCommand(toolsDir() + "/omlink -O full --instrument -o " +
                           Dir + "/prof.aaxe " + allObjects(),
                       Out),
            0)
      << Out;
  EXPECT_NE(Out.find("profmap"), std::string::npos);
  // The run still behaves identically.
  EXPECT_EQ(runCommand(toolsDir() + "/aaxrun " + Dir + "/prof.aaxe", Out),
            6);
  EXPECT_EQ(Out, "30\n");
  // The sidecar names every counter.
  std::ifstream Map(Dir + "/prof.aaxe.profmap");
  std::stringstream SS;
  SS << Map.rdbuf();
  EXPECT_NE(SS.str().find("prog.accumulate"), std::string::npos);
}

TEST_F(ToolchainTest, ProfileGuidedRelinkLoop) {
  // The README's three-command loop, with the --flag=value spellings:
  // link, profile under the timing simulator, relink with hot/cold
  // layout, and demand identical program behaviour.
  std::string Out;
  ASSERT_EQ(runCommand(toolsDir() + "/omlink -O full --sched -o " + Dir +
                           "/base.aaxe " + allObjects(),
                       Out),
            0)
      << Out;
  EXPECT_EQ(runCommand(toolsDir() + "/aaxrun --profile-out=" + Dir +
                           "/prog.aaxp " + Dir + "/base.aaxe",
                       Out),
            6);
  EXPECT_EQ(Out, "30\n");

  ASSERT_EQ(runCommand(toolsDir() + "/omlink -O full --sched --profile-in=" +
                           Dir + "/prog.aaxp --layout=hot-cold " +
                           "--stats-json - -o " + Dir + "/opt.aaxe " +
                           allObjects(),
                       Out),
            0)
      << Out;
  EXPECT_NE(Out.find("layout_procs_reordered"), std::string::npos) << Out;
  EXPECT_EQ(runCommand(toolsDir() + "/aaxrun " + Dir + "/opt.aaxe", Out), 6);
  EXPECT_EQ(Out, "30\n");
}

TEST_F(ToolchainTest, LayoutFlagValidation) {
  std::string Out;
  // --layout=hot-cold without a profile is a usage error, not a crash.
  EXPECT_EQ(runCommand(toolsDir() + "/omlink -O full --layout=hot-cold -o " +
                           Dir + "/x.aaxe " + allObjects(),
                       Out),
            2);
  // ... and so is requesting it below OM-full, even with a real profile.
  ASSERT_EQ(runCommand(toolsDir() + "/omlink -O full -o " + Dir +
                           "/base.aaxe " + allObjects(),
                       Out),
            0)
      << Out;
  EXPECT_EQ(runCommand(toolsDir() + "/aaxrun --profile-out=" + Dir +
                           "/p.aaxp " + Dir + "/base.aaxe",
                       Out),
            6);
  EXPECT_EQ(runCommand(toolsDir() + "/omlink -O simple --profile-in=" +
                           Dir + "/p.aaxp --layout=hot-cold -o " + Dir +
                           "/x.aaxe " + allObjects(),
                       Out),
            2);
  // A corrupt profile file is rejected with a diagnostic.
  std::ofstream Bad(Dir + "/bad.aaxp", std::ios::binary);
  Bad << "not a profile";
  Bad.close();
  EXPECT_EQ(runCommand(toolsDir() + "/omlink -O full --profile-in=" + Dir +
                           "/bad.aaxp --layout=hot-cold -o " + Dir +
                           "/x.aaxe " + allObjects(),
                       Out),
            1);
}

TEST_F(ToolchainTest, AnalysisFlagDeletesAndReports) {
  std::string Out;
  ASSERT_EQ(runCommand(toolsDir() + "/omlink -O full --analysis "
                           "--stats-json - -o " +
                           Dir + "/ana.aaxe " + allObjects(),
                       Out),
            0)
      << Out;
  EXPECT_NE(Out.find("analysis_gp_pairs_deleted"), std::string::npos) << Out;
  EXPECT_NE(Out.find("analysis_dead_loads_deleted"), std::string::npos);
  // Deletion Pass A and Pass B each analyze the program once.
  EXPECT_NE(Out.find("\"analysis_runs\": 2,"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"analysis_rounds_evaluated\": "), std::string::npos);
  EXPECT_NE(Out.find("\"analysis_rounds_reused\": "), std::string::npos);
  EXPECT_EQ(runCommandErr(toolsDir() + "/omlink -O full --analysis --stats "
                              "-o " + Dir + "/ana.aaxe " + allObjects(),
                          Out),
            0)
      << Out;
  EXPECT_NE(Out.find("  dataflow       2 run(s); "), std::string::npos) << Out;
  // With --sched the rescheduler adds its run.
  EXPECT_EQ(runCommandErr(toolsDir() + "/omlink -O full --sched --analysis "
                              "--stats -o " + Dir + "/ana.aaxe " +
                              allObjects(),
                          Out),
            0)
      << Out;
  EXPECT_NE(Out.find("  dataflow       3 run(s); "),
            std::string::npos)
      << Out;
  // Program behaviour is unchanged by the extra deletions.
  EXPECT_EQ(runCommand(toolsDir() + "/aaxrun " + Dir + "/ana.aaxe", Out), 6);
  EXPECT_EQ(Out, "30\n");
  // The analysis is an OM-full layer; requesting it lower is a usage error.
  EXPECT_EQ(runCommand(toolsDir() + "/omlink -O simple --analysis -o " +
                           Dir + "/x.aaxe " + allObjects(),
                       Out),
            2);
}

TEST_F(ToolchainTest, LintModeAndStandaloneLinter) {
  std::string Out;
  // Real toolchain output lints clean through both front doors.
  EXPECT_EQ(runCommand(toolsDir() + "/omlink --lint " + allObjects(), Out),
            0)
      << Out;
  EXPECT_EQ(runCommand(toolsDir() + "/aaxlint --werror " + allObjects(),
                       Out),
            0)
      << Out;
  // Lint needs the OM lifter; --standard bypasses it.
  EXPECT_EQ(runCommand(toolsDir() + "/omlink --lint --standard " +
                           allObjects(),
                       Out),
            2);
  // The seeded corpus modules each trip --werror with their code.
  ASSERT_EQ(runCommand(toolsDir() + "/aaxlint --emit-corpus " + Dir +
                           "/corpus",
                       Out),
            0)
      << Out;
  EXPECT_EQ(runCommand(toolsDir() + "/aaxlint --werror " + Dir +
                           "/corpus/L001_uninit_read.aaxo",
                       Out),
            1);
  EXPECT_NE(Out.find("L001:"), std::string::npos) << Out;
  EXPECT_EQ(runCommand(toolsDir() + "/aaxlint --werror " + Dir +
                           "/corpus/clean_clean.aaxo",
                       Out),
            0)
      << Out;
}

/// Counts non-overlapping occurrences of \p Needle in \p Hay.
size_t countOccurrences(const std::string &Hay, const std::string &Needle) {
  size_t N = 0;
  for (size_t At = Hay.find(Needle); At != std::string::npos;
       At = Hay.find(Needle, At + Needle.size()))
    ++N;
  return N;
}

TEST_F(ToolchainTest, LintJsonSarifAndExplainOutputs) {
  std::string Out;
  ASSERT_EQ(runCommand(toolsDir() + "/aaxlint --emit-corpus " + Dir +
                           "/corpus",
                       Out),
            0)
      << Out;

  // --json: machine-readable schema shape with all four keys per finding.
  EXPECT_EQ(runCommand(toolsDir() + "/aaxlint --json " + Dir +
                           "/corpus/L006_stack_oob.aaxo",
                       Out),
            0);
  EXPECT_NE(Out.find("{\"findings\":["), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"code\":\"L006\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"proc\":\"lintcase.main\""), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("\"offset\":"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"message\":"), std::string::npos) << Out;
  // A clean module yields an empty findings array, still valid JSON.
  EXPECT_EQ(runCommand(toolsDir() + "/aaxlint --json " + Dir +
                           "/corpus/clean_clean.aaxo",
                       Out),
            0);
  EXPECT_NE(Out.find("{\"findings\":[]}"), std::string::npos) << Out;

  // --explain: the witness trace follows the finding, numbered from #0.
  EXPECT_EQ(runCommand(toolsDir() + "/aaxlint --explain " + Dir +
                           "/corpus/L008_ra_slot_overwrite.aaxo",
                       Out),
            0);
  EXPECT_NE(Out.find("  #0 "), std::string::npos) << Out;
  EXPECT_NE(Out.find("  #1 "), std::string::npos) << Out;

  // --sarif: valid JSON (json.tool is the arbiter) with one result per
  // corpus finding and the full L001..L010 rule table.
  std::string Sarif = Dir + "/findings.sarif";
  EXPECT_EQ(runCommand(toolsDir() + "/aaxlint --sarif " + Sarif + " " +
                           Dir + "/corpus/L006_stack_oob.aaxo",
                       Out),
            0);
  EXPECT_EQ(runCommand("python3 -m json.tool " + Sarif, Out), 0)
      << "SARIF output is not valid JSON:\n"
      << Out;
  std::ifstream In(Sarif);
  std::stringstream SS;
  SS << In.rdbuf();
  std::string Doc = SS.str();
  EXPECT_NE(Doc.find("\"version\":\"2.1.0\""), std::string::npos) << Doc;
  EXPECT_EQ(countOccurrences(Doc, "\"ruleId\""), 1u) << Doc;
  EXPECT_NE(Doc.find("\"ruleId\":\"L006\""), std::string::npos) << Doc;
  for (unsigned Code = 1; Code <= 10; ++Code) {
    char Id[16];
    std::snprintf(Id, sizeof(Id), "\"id\":\"L%03u\"", Code);
    EXPECT_NE(Doc.find(Id), std::string::npos)
        << "rule table lacks " << Id;
  }
}

TEST_F(ToolchainTest, MegagenGeneratesLinkableDeterministicWorkloads) {
  // The CI scaling smoke in tool form: generate a synthetic many-module
  // workload, link it at -j 1 and -j 4, and demand byte-identical
  // executables that actually run. Generation itself must be
  // deterministic at the file level too.
  std::string Out;
  ASSERT_EQ(runCommand("mkdir -p " + Dir + "/mg1 " + Dir + "/mg2", Out), 0);
  std::string GenFlags =
      " --shape mixed --modules 6 --procs 5 --insts 8000 --seed 7 -o ";
  ASSERT_EQ(runCommand(toolsDir() + "/megagen" + GenFlags + Dir + "/mg1",
                       Out),
            0)
      << Out;
  EXPECT_NE(Out.find("wrote 6 object(s)"), std::string::npos) << Out;
  ASSERT_EQ(runCommand(toolsDir() + "/megagen" + GenFlags + Dir + "/mg2",
                       Out),
            0);
  EXPECT_EQ(runCommand("cmp " + Dir + "/mg1/mg0003.aaxo " + Dir +
                           "/mg2/mg0003.aaxo",
                       Out),
            0)
      << "two identical-spec megagen runs produced different objects";

  ASSERT_EQ(runCommand(toolsDir() + "/omlink -O full --sched -j 1 -o " +
                           Dir + "/mg-j1.aaxe " + Dir + "/mg1/mg*.aaxo",
                       Out),
            0)
      << Out;
  ASSERT_EQ(runCommand(toolsDir() + "/omlink -O full --sched -j 4 -o " +
                           Dir + "/mg-j4.aaxe " + Dir + "/mg1/mg*.aaxo",
                       Out),
            0)
      << Out;
  EXPECT_EQ(runCommand("cmp " + Dir + "/mg-j1.aaxe " + Dir + "/mg-j4.aaxe",
                       Out),
            0)
      << "-j 4 produced a different executable than -j 1";
  // The generated program runs to completion (any exit code; the program
  // computes a layout-independent checksum, not a fixed answer).
  int J1 = runCommand(toolsDir() + "/aaxrun " + Dir + "/mg-j1.aaxe", Out);
  EXPECT_GE(J1, 0);
  EXPECT_EQ(J1, runCommand(toolsDir() + "/aaxrun " + Dir + "/mg-j4.aaxe",
                           Out));

  // Unknown shapes are a usage error, not a crash.
  EXPECT_EQ(runCommand(toolsDir() + "/megagen --shape spiral -o " + Dir,
                       Out),
            2);
}

TEST_F(ToolchainTest, BadNumericArgsExitTwoWithDiagnostic) {
  // Every tool must reject non-numeric or overflowing numeric arguments
  // with exit code 2 and a diagnostic quoting the bad value — never
  // strtoul-truncate and run anyway.
  struct Case {
    const char *Cmd;
    const char *MustMention;
  };
  const Case Cases[] = {
      {"/omlink -j abc -o /dev/null x.aaxo", "abc"},
      {"/omlink --gat-max 4x -o /dev/null x.aaxo", "4x"},
      {"/omlink -j 18446744073709551616 -o /dev/null x.aaxo",
       "18446744073709551616"},
      {"/megagen --modules 1x", "1x"},
      {"/megagen --seed -o", "-o"},
      {"/aaxrun --max-insts twelve x.aaxe", "twelve"},
      {"/aaxlint --jobs 9e9 x.aaxo", "9e9"},
      {"/omlinkd --socket /tmp/x.sock --max-requests abc", "abc"},
      {"/omlinkd --socket /tmp/x.sock --cache-mb 1x", "1x"},
      {"/omlinkc --socket /tmp/x.sock --gat-max zz -o o.aaxe x.aaxo",
       "zz"},
      {"/omlinkc --socket /tmp/x.sock -j 1.5 -o o.aaxe x.aaxo", "1.5"},
  };
  for (const Case &C : Cases) {
    std::string Out;
    EXPECT_EQ(runCommandErr(toolsDir() + C.Cmd, Out), 2) << C.Cmd;
    EXPECT_NE(Out.find(C.MustMention), std::string::npos)
        << C.Cmd << " diagnostic was: " << Out;
  }
}

TEST_F(ToolchainTest, OmlinkJobCountAboveTheLimitFails) {
  // -j accepts any u32, but the pipeline refuses more than 256 workers
  // with a diagnostic before starting any.
  std::string Out;
  EXPECT_EQ(runCommandErr(toolsDir() + "/omlink -O full -j 4294967295 -o " +
                              Dir + "/j.aaxe " + allObjects(),
                          Out),
            1)
      << Out;
  EXPECT_NE(Out.find("job count 4294967295 exceeds the limit of 256"),
            std::string::npos)
      << Out;
  EXPECT_EQ(runCommandErr(toolsDir() + "/omlink -O full -j 256 -o " + Dir +
                              "/j.aaxe " + allObjects(),
                          Out),
            0)
      << Out;
}

TEST_F(ToolchainTest, OmlinkdWarmRelinkMatchesOmlink) {
  std::string Out;
  ASSERT_EQ(runCommand("mkdir -p " + Dir + "/svc", Out), 0);
  ASSERT_EQ(runCommand(toolsDir() + "/megagen --shape mixed --modules 4 "
                           "--procs 6 --insts 6000 --seed 11 -o " +
                           Dir + "/svc",
                       Out),
            0)
      << Out;
  // Socket paths are capped around 108 bytes; gtest temp dirs stay short.
  std::string Sock = Dir + "/d.sock";
  ASSERT_LT(Sock.size(), 100u);
  std::string Objs = Dir + "/svc/mg0000.aaxo " + Dir + "/svc/mg0001.aaxo " +
                     Dir + "/svc/mg0002.aaxo " + Dir + "/svc/mg0003.aaxo";
  std::string LinkFlags = "-O full --sched ";

  // Background daemon, bounded as a safety net against a hung test.
  ASSERT_EQ(runCommand("sh -c '" + toolsDir() + "/omlinkd --socket " +
                           Sock + " --max-requests 8 >" + Dir +
                           "/d.log 2>&1 &'",
                       Out),
            0);
  bool Up = false;
  for (int I = 0; I < 100 && !Up; ++I) {
    Up = runCommand(toolsDir() + "/omlinkc --socket " + Sock + " --ping",
                    Out) == 0;
    if (!Up)
      usleep(100 * 1000);
  }
  ASSERT_TRUE(Up) << "daemon never answered ping";

  // Cold relink == from-scratch omlink.
  ASSERT_EQ(runCommand(toolsDir() + "/omlinkc --socket " + Sock + " " +
                           LinkFlags + "-o " + Dir + "/warm.aaxe " + Objs,
                       Out),
            0)
      << Out;
  ASSERT_EQ(runCommand(toolsDir() + "/omlink " + LinkFlags + "-o " + Dir +
                           "/ref.aaxe " + Objs,
                       Out),
            0)
      << Out;
  EXPECT_EQ(
      runCommand("cmp " + Dir + "/warm.aaxe " + Dir + "/ref.aaxe", Out), 0)
      << "cold daemon link differs from omlink";

  // Edit one module, warm relink, compare against a fresh omlink again.
  ASSERT_EQ(runCommand(toolsDir() + "/megagen --perturb " + Dir +
                           "/svc/mg0001.aaxo --seed 3",
                       Out),
            0)
      << Out;
  ASSERT_EQ(runCommand(toolsDir() + "/omlinkc --socket " + Sock + " " +
                           LinkFlags + "-o " + Dir + "/warm.aaxe " + Objs,
                       Out),
            0)
      << Out;
  EXPECT_NE(Out.find("warm relink, 1/4 modules reparsed"),
            std::string::npos)
      << Out;
  ASSERT_EQ(runCommand(toolsDir() + "/omlink " + LinkFlags + "-o " + Dir +
                           "/ref.aaxe " + Objs,
                       Out),
            0)
      << Out;
  EXPECT_EQ(
      runCommand("cmp " + Dir + "/warm.aaxe " + Dir + "/ref.aaxe", Out), 0)
      << "warm daemon link differs from omlink after an edit";

  EXPECT_EQ(runCommand(toolsDir() + "/omlinkc --socket " + Sock +
                           " --shutdown",
                       Out),
            0)
      << Out;
}

TEST_F(ToolchainTest, BadInputsFailCleanly) {
  std::string Out;
  EXPECT_NE(runCommand(toolsDir() + "/aaxrun " + Dir + "/prog.aaxo", Out),
            0)
      << "running an object file must fail";
  EXPECT_NE(runCommand(toolsDir() + "/omlink -o " + Dir + "/x.aaxe " +
                           Dir + "/prog.aaxo",
                       Out),
            0)
      << "linking without the runtime must report undefined symbols";
  EXPECT_NE(runCommand(toolsDir() + "/aaxdump /dev/null", Out), 0);
}

TEST_F(ToolchainTest, HostileImageLayoutFailsWithDiagnostic) {
  // An image whose bss claims 2^62 bytes is rejected with a diagnostic
  // before anything is allocated, in every mode: exit 1, never a signal.
  std::string Out;
  ASSERT_EQ(runCommand(toolsDir() + "/omlink --standard -o " + Dir +
                           "/big.aaxe " + allObjects(),
                       Out),
            0)
      << Out;
  std::ifstream In(Dir + "/big.aaxe", std::ios::binary);
  std::vector<char> Bytes((std::istreambuf_iterator<char>(In)),
                          std::istreambuf_iterator<char>());
  In.close();
  // Magic and version (u32 each), text and data bases (u64 each), the
  // text and data blobs (u64 length + bytes), then the bss size.
  auto blobEnd = [&Bytes](size_t Off) {
    uint64_t Len = 0;
    std::memcpy(&Len, Bytes.data() + Off, 8);
    return Off + 8 + Len;
  };
  size_t BssOff = blobEnd(blobEnd(24));
  ASSERT_LE(BssOff + 8, Bytes.size());
  const uint64_t Huge = 1ull << 62;
  std::memcpy(Bytes.data() + BssOff, &Huge, 8);
  std::ofstream(Dir + "/big.aaxe", std::ios::binary | std::ios::trunc)
      .write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));

  for (const char *Flags : {"", "--functional "}) {
    EXPECT_EQ(runCommandErr(toolsDir() + "/aaxrun " + Flags + Dir +
                                "/big.aaxe",
                            Out),
              1)
        << Flags << Out;
    EXPECT_NE(Out.find("bad image layout"), std::string::npos)
        << Flags << Out;
  }
}

TEST_F(ToolchainTest, WrappingProcExtentFailsWithDiagnostic) {
  // prog.aaxo with its second procedure descriptor claiming offset
  // 2^64 - 4 and size 8: the sum wraps to 4, inside .text, but the extent
  // does not. Every reader must reject the module, never lift it.
  std::ifstream In(Dir + "/prog.aaxo", std::ios::binary);
  std::vector<char> Bytes((std::istreambuf_iterator<char>(In)),
                          std::istreambuf_iterator<char>());
  In.close();
  // The object ends with the descriptor table: a u32 count, then per
  // descriptor a u32 symbol index, u64 offset, u64 size and u8 flag.
  const size_t DescBytes = 4 + 8 + 8 + 1;
  ASSERT_GE(Bytes.size(), 4 + 2 * DescBytes);
  uint32_t Count = 0;
  std::memcpy(&Count, Bytes.data() + Bytes.size() - 4 - 2 * DescBytes, 4);
  ASSERT_EQ(Count, 2u) << "prog.aaxo should describe two procedures";
  const size_t Second = Bytes.size() - DescBytes;
  const uint64_t Offset = ~0ull - 3, Size = 8;
  std::memcpy(Bytes.data() + Second + 4, &Offset, 8);
  std::memcpy(Bytes.data() + Second + 12, &Size, 8);
  std::ofstream(Dir + "/prog.aaxo", std::ios::binary | std::ios::trunc)
      .write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));

  std::string Out;
  for (const std::string &Cmd :
       {"/omlink -O full -o " + Dir + "/w.aaxe ",
        "/omlink --standard -o " + Dir + "/w.aaxe ",
        std::string("/aaxlint ")}) {
    EXPECT_EQ(runCommandErr(toolsDir() + Cmd + allObjects(), Out), 1)
        << Cmd << Out;
    EXPECT_NE(Out.find("extends past .text"), std::string::npos)
        << Cmd << Out;
  }
}

TEST_F(ToolchainTest, HostileDataSymbolsFailWithDiagnostic) {
  // One defined .data symbol of a generated module, edited three ways:
  // marked a procedure with no descriptor, placed 4 KiB past .data, and
  // given an extent whose end wraps past 2^64 back to 4. Every reader must
  // reject the module with a diagnostic and exit 1, never lift it.
  std::string Out;
  const std::string Gen = Dir + "/gen", Bad = Dir + "/bad";
  ASSERT_EQ(runCommand("mkdir -p " + Gen + " " + Bad, Out), 0);
  ASSERT_EQ(runCommand(toolsDir() + "/megagen --modules 2 --procs 4 "
                                    "--insts 2000 -o " + Gen,
                       Out),
            0)
      << Out;
  ASSERT_EQ(runCommand("cp " + Gen + "/mg0000.aaxo " + Bad, Out), 0);
  const std::vector<char> Clean = readFile(Gen + "/mg0001.aaxo");
  uint64_t DataSize = 0;
  const SymbolRecord *Target = nullptr;
  std::vector<SymbolRecord> Records = symbolRecords(Clean, DataSize);
  for (const SymbolRecord &R : Records)
    if (!Target && Clean[R.Section] == 2 /* .data */ &&
        !Clean[R.IsProcedure] && Clean[R.IsDefined])
      Target = &R;
  ASSERT_NE(Target, nullptr) << "mg0001.aaxo defines no .data symbol";

  struct Edit {
    uint64_t Offset, Size;
    bool IsProcedure;
    std::string Diagnostic;
  };
  uint64_t Offset = 0, Size = 0;
  std::memcpy(&Offset, Clean.data() + Target->Offset, 8);
  std::memcpy(&Size, Clean.data() + Target->Size, 8);
  for (const Edit &E :
       {Edit{Offset, Size, true, "has no procedure descriptor"},
        Edit{DataSize + 4096, Size, false, "extends past .data"},
        Edit{~0ull - 3, 8, false, "extends past .data"}}) {
    std::vector<char> Bytes = Clean;
    std::memcpy(Bytes.data() + Target->Offset, &E.Offset, 8);
    std::memcpy(Bytes.data() + Target->Size, &E.Size, 8);
    Bytes[Target->IsProcedure] = E.IsProcedure;
    writeFile(Bad + "/mg0001.aaxo", Bytes);
    for (const std::string &Cmd :
         {"/omlink -O full --sched -o " + Dir + "/h.aaxe ",
          "/omlink --standard -o " + Dir + "/h.aaxe ",
          std::string("/aaxlint ")}) {
      EXPECT_EQ(runCommandErr(toolsDir() + Cmd + Bad + "/mg0000.aaxo " +
                                  Bad + "/mg0001.aaxo",
                              Out),
                1)
          << Cmd << Out;
      EXPECT_NE(Out.find(Target->Name + " " + E.Diagnostic),
                std::string::npos)
          << Cmd << Out;
    }
  }
}

TEST_F(ToolchainTest, HostileBssExtentsFailWithDiagnostic) {
  // One defined .bss symbol of a generated module, edited three ways. Its
  // size 22,517,998,136,852,536 fits no .bss: once -O none aborted on it,
  // and -O full and --standard linked it. A 1 GiB symbol in a 2 GiB .bss
  // is in bounds but cannot fit the data segment aaxrun accepts. A 2 GiB
  // .bss whose symbols stay small once linked under OM, which lays out
  // symbols, while --standard, which lays out sections, rejected it. Every
  // linker and aaxlint reject all three with a diagnostic and exit 1.
  std::string Out;
  const std::string Gen = Dir + "/gen", Bad = Dir + "/bad";
  ASSERT_EQ(runCommand("mkdir -p " + Gen + " " + Bad, Out), 0);
  ASSERT_EQ(runCommand(toolsDir() + "/megagen --modules 2 --procs 4 "
                                    "--insts 2000 -o " + Gen,
                       Out),
            0)
      << Out;
  ASSERT_EQ(runCommand("cp " + Gen + "/mg0000.aaxo " + Bad, Out), 0);
  const std::vector<char> Clean = readFile(Gen + "/mg0001.aaxo");
  uint64_t DataSize = 0;
  size_t BssSizeAt = 0;
  const SymbolRecord *Target = nullptr;
  std::vector<SymbolRecord> Records =
      symbolRecords(Clean, DataSize, nullptr, &BssSizeAt);
  for (const SymbolRecord &R : Records)
    if (!Target && Clean[R.Section] == 3 /* .bss */ && Clean[R.IsDefined])
      Target = &R;
  ASSERT_NE(Target, nullptr) << "mg0001.aaxo defines no .bss symbol";

  struct Edit {
    uint64_t BssSize, Size;
    std::string Diagnostic;
  };
  uint64_t BssSize = 0, SymSize = 0;
  std::memcpy(&BssSize, Clean.data() + BssSizeAt, 8);
  std::memcpy(&SymSize, Clean.data() + Target->Size, 8);
  const uint64_t Zero = 0;
  const std::string TooBig =
      "data and bss exceed the 535822336-byte data segment limit";
  for (const Edit &E :
       {Edit{BssSize, 22517998136852536ull,
             Target->Name + " extends past .bss"},
        Edit{2ull << 30, 1ull << 30, TooBig},
        Edit{2ull << 30, SymSize, "mg1: " + TooBig}}) {
    std::vector<char> Bytes = Clean;
    std::memcpy(Bytes.data() + BssSizeAt, &E.BssSize, 8);
    std::memcpy(Bytes.data() + Target->Offset, &Zero, 8);
    std::memcpy(Bytes.data() + Target->Size, &E.Size, 8);
    writeFile(Bad + "/mg0001.aaxo", Bytes);
    std::vector<std::string> Cmds = {
        "/omlink -O none -o " + Dir + "/h.aaxe ",
        "/omlink -O simple -o " + Dir + "/h.aaxe ",
        "/omlink -O full --sched -o " + Dir + "/h.aaxe ",
        "/omlink --standard -o " + Dir + "/h.aaxe ", "/aaxlint "};
    for (const std::string &Cmd : Cmds) {
      EXPECT_EQ(runCommandErr(toolsDir() + Cmd + Bad + "/mg0000.aaxo " +
                                  Bad + "/mg0001.aaxo",
                              Out),
                1)
          << Cmd << Out;
      EXPECT_NE(Out.find(E.Diagnostic), std::string::npos) << Cmd << Out;
    }
  }
}

TEST_F(ToolchainTest, HostileRelocationsFailWithDiagnostic) {
  // Four edits to the relocations of a generated module, each of which
  // once crashed the lift or the standard link: a literal moved into
  // another procedure, away from its uses; a use moved into another
  // procedure, away from its literal; a GPDISP moved off instruction
  // alignment; and a use rewritten into a REFQUAD 1 MiB into .data, which
  // the standard link wrote unchecked. Every reader must reject the module
  // with a diagnostic and exit 1.
  std::string Out;
  const std::string Gen = Dir + "/gen", Bad = Dir + "/bad";
  ASSERT_EQ(runCommand("mkdir -p " + Gen + " " + Bad, Out), 0);
  ASSERT_EQ(runCommand(toolsDir() + "/megagen --modules 2 --procs 4 "
                                    "--insts 2000 -o " + Gen,
                       Out),
            0)
      << Out;
  ASSERT_EQ(runCommand("cp " + Gen + "/mg0001.aaxo " + Bad, Out), 0);
  const std::vector<char> Clean = readFile(Gen + "/mg0000.aaxo");
  std::vector<std::pair<uint64_t, uint64_t>> Procs;
  std::vector<RelocRecord> Relocs = relocRecords(Clean, Procs);
  ASSERT_GE(Procs.size(), 2u);
  auto procOf = [&Procs](uint64_t Off) {
    for (size_t P = 0; P < Procs.size(); ++P)
      if (Off >= Procs[P].first && Off - Procs[P].first < Procs[P].second)
        return P;
    return Procs.size();
  };
  // The middle instruction of a procedure other than \p P.
  auto elsewhere = [&Procs](size_t P) {
    const auto &[Offset, Size] = Procs[P == 0 ? 1 : 0];
    return Offset + Size / 8 * 4;
  };
  enum : uint8_t { Literal = 0, LituseBase = 1, GpDisp = 5, RefQuad = 6 };
  const uint8_t Data = 2; // SectionKind::Data

  // A literal and a use of it in the same procedure.
  const RelocRecord *Lit = nullptr, *Use = nullptr;
  for (const RelocRecord &L : Relocs)
    for (const RelocRecord &U : Relocs)
      if (!Lit && L.Kind == Literal && U.Kind == LituseBase &&
          U.LiteralId == L.LiteralId && procOf(U.Offset) == procOf(L.Offset)) {
        Lit = &L;
        Use = &U;
      }
  ASSERT_NE(Lit, nullptr) << "mg0000.aaxo has no literal with a use";
  const RelocRecord *Gp = nullptr;
  for (const RelocRecord &R : Relocs)
    if (!Gp && R.Kind == GpDisp && R.Offset >= 76)
      Gp = &R;
  ASSERT_NE(Gp, nullptr) << "mg0000.aaxo has no GPDISP past +76";

  struct Edit {
    size_t At;
    uint64_t Offset;
    std::string Diagnostic;
    int Kind = -1; // new kind and section bytes; -1 keeps the record's
    int Section = -1;
  };
  for (const Edit &E :
       {Edit{Lit->At, elsewhere(procOf(Lit->Offset)),
             "has no literal id " + std::to_string(Lit->LiteralId) +
                 " in its procedure"},
        Edit{Use->At, elsewhere(procOf(Use->Offset)),
             "has no literal id " + std::to_string(Use->LiteralId) +
                 " in its procedure"},
        Edit{Gp->At, Gp->Offset - 75,
             "GPDISP at offset " + std::to_string(Gp->Offset - 75) +
                 " is not a 4-aligned .text instruction"},
        Edit{Use->At, 1u << 20,
             "reloc REFQUAD at offset 1048576 is not 8 bytes inside .data",
             RefQuad, Data}}) {
    std::vector<char> Bytes = Clean;
    std::memcpy(Bytes.data() + E.At + 2, &E.Offset, 8);
    if (E.Kind >= 0)
      Bytes[E.At] = static_cast<char>(E.Kind);
    if (E.Section >= 0)
      Bytes[E.At + 1] = static_cast<char>(E.Section);
    writeFile(Bad + "/mg0000.aaxo", Bytes);
    for (const std::string &Cmd :
         {"/omlink -O full --sched -o " + Dir + "/h.aaxe ",
          "/omlink --standard -o " + Dir + "/h.aaxe ",
          std::string("/aaxlint ")}) {
      EXPECT_EQ(runCommandErr(toolsDir() + Cmd + Bad + "/mg0000.aaxo " +
                                  Bad + "/mg0001.aaxo",
                              Out),
                1)
          << Cmd << Out;
      EXPECT_NE(Out.find(E.Diagnostic), std::string::npos) << Cmd << Out;
    }
  }
}

TEST_F(ToolchainTest, LiteralCollisionFailsWithDiagnostic) {
  // A LITERAL moved onto an instruction that already carries another
  // LITERAL of its procedure: the lift gave the word one role, so the
  // moved literal kept its uses but lost its load, and every OM level and
  // the linter read a symbol table entry at ~0u (SIGSEGV). Every reader
  // must reject the module with a diagnostic and exit 1.
  std::string Out;
  const std::string Gen = Dir + "/gen", Bad = Dir + "/bad";
  ASSERT_EQ(runCommand("mkdir -p " + Gen + " " + Bad, Out), 0);
  ASSERT_EQ(runCommand(toolsDir() + "/megagen --modules 2 --procs 4 "
                                    "--insts 2000 -o " + Gen,
                       Out),
            0)
      << Out;
  ASSERT_EQ(runCommand("cp " + Gen + "/mg0001.aaxo " + Bad, Out), 0);
  std::vector<char> Bytes = readFile(Gen + "/mg0000.aaxo");
  std::vector<std::pair<uint64_t, uint64_t>> Procs;
  std::vector<RelocRecord> Relocs = relocRecords(Bytes, Procs);
  auto procOf = [&Procs](uint64_t Off) {
    for (size_t P = 0; P < Procs.size(); ++P)
      if (Off >= Procs[P].first && Off - Procs[P].first < Procs[P].second)
        return P;
    return Procs.size();
  };
  enum : uint8_t { Literal = 0 };
  const RelocRecord *Kept = nullptr, *Moved = nullptr;
  for (const RelocRecord &A : Relocs)
    for (const RelocRecord &B : Relocs)
      if (!Kept && A.Kind == Literal && B.Kind == Literal &&
          A.LiteralId != B.LiteralId && A.Offset != B.Offset &&
          procOf(A.Offset) == procOf(B.Offset)) {
        Kept = &A;
        Moved = &B;
      }
  ASSERT_NE(Kept, nullptr) << "mg0000.aaxo has no procedure with two literals";
  std::memcpy(Bytes.data() + Moved->At + 2, &Kept->Offset, 8);
  writeFile(Bad + "/mg0000.aaxo", Bytes);
  const std::string Diagnostic =
      "reloc LITERAL at offset " + std::to_string(Kept->Offset) +
      " shares its instruction with another relocation";
  for (const std::string &Cmd :
       {"/omlink -O none -o " + Dir + "/h.aaxe ",
        "/omlink -O simple -o " + Dir + "/h.aaxe ",
        "/omlink -O full --sched --analysis -o " + Dir + "/h.aaxe ",
        "/omlink --standard -o " + Dir + "/h.aaxe ",
        std::string("/aaxlint ")}) {
    EXPECT_EQ(runCommandErr(toolsDir() + Cmd + Bad + "/mg0000.aaxo " + Bad +
                                "/mg0001.aaxo",
                            Out),
              1)
        << Cmd << Out;
    EXPECT_NE(Out.find(Diagnostic), std::string::npos) << Cmd << Out;
  }
}

TEST_F(ToolchainTest, RelocatedBranchFailsWithDiagnostic) {
  // A LITERAL moved onto a branch of its procedure: the lift classified
  // the branch afterwards and overwrote the load's role, so the literal
  // kept its uses but lost its load, and OM and the linter read a symbol
  // table entry at ~0u (SIGSEGV). The lift must reject the module.
  std::string Out;
  const std::string Gen = Dir + "/gen", Bad = Dir + "/bad";
  ASSERT_EQ(runCommand("mkdir -p " + Gen + " " + Bad, Out), 0);
  ASSERT_EQ(runCommand(toolsDir() + "/megagen --modules 2 --procs 4 "
                                    "--insts 2000 -o " + Gen,
                       Out),
            0)
      << Out;
  ASSERT_EQ(runCommand("cp " + Gen + "/mg0001.aaxo " + Bad, Out), 0);
  std::vector<char> Bytes = readFile(Gen + "/mg0000.aaxo");
  std::vector<std::pair<uint64_t, uint64_t>> Procs;
  std::vector<RelocRecord> Relocs = relocRecords(Bytes, Procs);
  // .text follows the magic, the version and the module name.
  uint32_t NameLen = 0;
  std::memcpy(&NameLen, Bytes.data() + 8, 4);
  const size_t Text = 20 + NameLen;
  auto isFreeBranch = [&](uint64_t Off) {
    uint32_t Word = 0;
    std::memcpy(&Word, Bytes.data() + Text + Off, 4);
    uint32_t Raw = Word >> 26;
    if (Raw != 0x30 && Raw != 0x39 && Raw != 0x3D) // br, beq, bne
      return false;
    for (const RelocRecord &R : Relocs)
      if (R.Offset == Off)
        return false;
    return true;
  };
  enum : uint8_t { Literal = 0 };
  const RelocRecord *Moved = nullptr;
  uint64_t Branch = 0;
  for (const auto &[Begin, Size] : Procs)
    for (const RelocRecord &R : Relocs) {
      if (Moved || R.Kind != Literal || R.Offset < Begin ||
          R.Offset - Begin >= Size)
        continue;
      for (uint64_t Off = R.Offset + 4; Off < Begin + Size && !Moved;
           Off += 4)
        if (isFreeBranch(Off)) {
          Moved = &R;
          Branch = Off;
        }
    }
  ASSERT_NE(Moved, nullptr)
      << "mg0000.aaxo has no procedure with a branch after a literal";
  std::memcpy(Bytes.data() + Moved->At + 2, &Branch, 8);
  writeFile(Bad + "/mg0000.aaxo", Bytes);
  const std::string Diagnostic =
      "relocation on the branch instruction at +" + std::to_string(Branch);
  for (const std::string &Cmd :
       {"/omlink -O none -o " + Dir + "/h.aaxe ",
        "/omlink -O full --sched -o " + Dir + "/h.aaxe ",
        std::string("/aaxlint ")}) {
    EXPECT_EQ(runCommandErr(toolsDir() + Cmd + Bad + "/mg0000.aaxo " + Bad +
                                "/mg0001.aaxo",
                            Out),
              1)
        << Cmd << Out;
    EXPECT_NE(Out.find(Diagnostic), std::string::npos) << Cmd << Out;
  }
}

TEST_F(ToolchainTest, UnknownEnumBytesFailWithDiagnostic) {
  // A relocation kind, a GP-disp kind and a symbol section are one byte
  // each in an object. Unknown values used to load: the lift and the
  // standard linker skipped an unknown relocation kind, the lift took an
  // unknown GP-disp kind as is, and an unknown section read back as "?".
  // Every reader must reject each edit with a diagnostic and exit 1.
  std::string Out;
  const std::string Gen = Dir + "/gen", Bad = Dir + "/bad";
  ASSERT_EQ(runCommand("mkdir -p " + Gen + " " + Bad, Out), 0);
  ASSERT_EQ(runCommand(toolsDir() + "/megagen --modules 2 --procs 4 "
                                    "--insts 2000 --seed 3 -o " + Gen,
                       Out),
            0)
      << Out;
  ASSERT_EQ(runCommand("cp " + Gen + "/mg0001.aaxo " + Bad, Out), 0);
  const std::vector<char> Clean = readFile(Gen + "/mg0000.aaxo");
  std::vector<std::pair<uint64_t, uint64_t>> Procs;
  std::vector<RelocRecord> Relocs = relocRecords(Clean, Procs);
  uint64_t DataSize = 0;
  std::vector<SymbolRecord> Syms = symbolRecords(Clean, DataSize);
  enum : uint8_t { LituseBase = 1, GpDisp = 5 };
  auto firstOf = [&Relocs](uint8_t Kind) {
    for (size_t I = 0; I < Relocs.size(); ++I)
      if (Relocs[I].Kind == Kind)
        return I;
    return Relocs.size();
  };
  const size_t Base = firstOf(LituseBase), Gp = firstOf(GpDisp);
  ASSERT_LT(Base, Relocs.size());
  ASSERT_LT(Gp, Relocs.size());
  ASSERT_FALSE(Syms.empty());

  struct Edit {
    size_t At;
    char Value;
    std::string Diagnostic;
  };
  const Edit Edits[] = {
      {Relocs[Base].At, 9,
       "relocation " + std::to_string(Base) + " has unknown kind 9"},
      {Relocs[Gp].At + 46, 5,
       "relocation " + std::to_string(Gp) + " has unknown GP-disp kind 5"},
      {Syms[0].Section, 7, "symbol 0 has unknown section kind 7"}};
  for (const Edit &E : Edits) {
    std::vector<char> Bytes = Clean;
    Bytes[E.At] = E.Value;
    writeFile(Bad + "/mg0000.aaxo", Bytes);
    for (const std::string &Cmd :
         {"/omlink -O full --sched -o " + Dir + "/h.aaxe ",
          "/omlink -O none -o " + Dir + "/h.aaxe ",
          "/omlink --standard -o " + Dir + "/h.aaxe ",
          std::string("/aaxlint ")}) {
      EXPECT_EQ(runCommandErr(toolsDir() + Cmd + Bad + "/mg0000.aaxo " +
                                  Bad + "/mg0001.aaxo",
                              Out),
                1)
          << Cmd << Out;
      EXPECT_NE(Out.find(E.Diagnostic), std::string::npos) << Cmd << Out;
    }
  }
}

} // namespace
