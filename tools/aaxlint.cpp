//===- tools/aaxlint.cpp - Standalone binary lint over AAX objects ---------=//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lints AAX objects without linking them: lifts the inputs into OM's
/// symbolic form, runs the OmAnalysis dataflow, and reports the findings
/// (L001..L010, catalogued in docs/LINT.md) with procedure and instruction
/// provenance:
///
///   aaxlint obj1.aaxo obj2.aaxo ...
///
/// Options:
///   --werror          exit nonzero if anything was found
///   --explain         append each finding's witness path (shortest
///                     abstract-interpretation trace from the procedure
///                     entry to the defect site)
///   --json            print findings as JSON
///                     ({"findings":[{code,proc,offset,message}...]})
///                     instead of text
///   --sarif FILE      also write the findings as SARIF 2.1.0 ("-" =
///                     stdout) for CI annotation
///   -j N, --jobs N    worker threads for lift and analysis
///   --emit-corpus DIR write the built-in lint corpus (one module per
///                     L-code plus one clean module) to DIR as
///                     <Code>_<Name>.aaxo / clean_<Name>.aaxo and exit;
///                     feeds
///                     the CI gate self-test (tools/check_bench.py
///                     --lint-selftest)
///
//===----------------------------------------------------------------------===//

#include "objfile/ObjectFile.h"
#include "om/Lint.h"
#include "om/Om.h"
#include "om/OmImpl.h"
#include "support/FileIO.h"
#include "support/Format.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <sys/stat.h>

using namespace om64;

static int usage() {
  std::fprintf(stderr, "usage: aaxlint [--werror] [--explain] [--json] "
                       "[--sarif FILE]\n"
                       "               [-j N | --jobs N] obj.aaxo...\n"
                       "       aaxlint --emit-corpus DIR\n");
  return 2;
}

static int emitCorpus(const std::string &Dir) {
  if (mkdir(Dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "aaxlint: cannot create %s: %s\n", Dir.c_str(),
                 std::strerror(errno));
    return 1;
  }
  std::vector<om::analysis::LintCase> Corpus = om::analysis::lintCorpus();
  for (const om::analysis::LintCase &Case : Corpus) {
    std::string Name = Case.Code.empty()
                           ? "clean_" + Case.Name
                           : Case.Code + "_" + Case.Name;
    std::string Path = Dir + "/" + Name + ".aaxo";
    if (Error E = writeFileBytes(Path, Case.Obj.serialize())) {
      std::fprintf(stderr, "aaxlint: %s\n", E.message().c_str());
      return 1;
    }
    std::printf("aaxlint: wrote %s\n", Path.c_str());
  }
  return 0;
}

int main(int argc, char **argv) {
  std::vector<std::string> Inputs;
  bool Werror = false;
  bool Explain = false;
  bool Json = false;
  std::string SarifPath;
  unsigned Jobs = 0;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--werror") {
      Werror = true;
    } else if (Arg == "--explain") {
      Explain = true;
    } else if (Arg == "--json") {
      Json = true;
    } else if (Arg == "--sarif" && I + 1 < argc) {
      SarifPath = argv[++I];
    } else if ((Arg == "-j" || Arg == "--jobs") && I + 1 < argc) {
      Result<uint64_t> V = parseUnsigned(argv[++I], ~0u);
      if (!V) {
        std::fprintf(stderr, "aaxlint: %s: %s\n", Arg.c_str(),
                     V.message().c_str());
        return 2;
      }
      Jobs = static_cast<unsigned>(*V);
    } else if (Arg == "--emit-corpus" && I + 1 < argc) {
      return emitCorpus(argv[++I]);
    } else if (!Arg.empty() && Arg[0] == '-') {
      return usage();
    } else {
      Inputs.push_back(Arg);
    }
  }
  if (Inputs.empty())
    return usage();

  std::vector<obj::ObjectFile> Objs;
  for (const std::string &Path : Inputs) {
    Result<std::vector<uint8_t>> Bytes = readFileBytes(Path);
    if (!Bytes) {
      std::fprintf(stderr, "aaxlint: %s\n", Bytes.message().c_str());
      return 1;
    }
    Result<obj::ObjectFile> O = obj::ObjectFile::deserialize(*Bytes);
    if (!O) {
      std::fprintf(stderr, "aaxlint: %s: %s\n", Path.c_str(),
                   O.message().c_str());
      return 1;
    }
    Objs.push_back(O.take());
  }

  om::OmOptions Opts;
  Opts.Jobs = Jobs;
  Result<om::LintRun> L = om::lintObjects(Objs, Opts);
  if (!L) {
    std::fprintf(stderr, "aaxlint: %s\n", L.message().c_str());
    return 1;
  }
  const std::vector<om::analysis::LintFinding> &Findings = L->Findings;
  if (Json)
    std::fputs(om::analysis::renderLintJson(Findings).c_str(), stdout);
  else if (!Findings.empty())
    std::fputs(om::analysis::renderLintText(Findings, Explain).c_str(),
               stdout);
  if (!SarifPath.empty()) {
    std::string Sarif = om::analysis::renderLintSarif(Findings);
    if (SarifPath == "-") {
      std::fputs(Sarif.c_str(), stdout);
    } else if (Error E = writeFileBytes(
                   SarifPath,
                   std::vector<uint8_t>(Sarif.begin(), Sarif.end()))) {
      std::fprintf(stderr, "aaxlint: %s\n", E.message().c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "aaxlint: %zu finding(s) in %zu procedure(s)\n",
               Findings.size(), L->Procs);
  return (Werror && !Findings.empty()) ? 1 : 0;
}
