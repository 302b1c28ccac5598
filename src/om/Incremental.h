//===- om/Incremental.h - Incremental relinking with content hashes -------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental relink layer behind omlinkd: a long-lived
/// IncrementalLinker holds the parsed modules, the per-module lift memo
/// (om::LiftCache) and the per-procedure analysis memo
/// (analysis::SummaryCache) across relinks of the same image. Each relink
/// takes the full set of module byte vectors, content-hashes them,
/// reparses only positions whose bytes changed, and runs the ordinary OM
/// pipeline with both caches attached. A one-shot om::optimize() runs the
/// same analysis path with a SummaryCache of its own that dies with the
/// link; the relinker differs only in keeping its cache across relinks.
///
/// Correctness contract: the produced image is byte-identical to a
/// from-scratch om::optimize() of the same inputs with the same options,
/// for every edit history. The caches memoize pure per-procedure products
/// keyed by everything they read (see LiftCache and SummaryCache); they
/// change how the answer is computed, never the answer. Tier-1 tests and
/// the CI daemon step re-link from scratch after every warm relink and
/// compare bytes.
///
//===----------------------------------------------------------------------===//

#ifndef OM64_OM_INCREMENTAL_H
#define OM64_OM_INCREMENTAL_H

#include "om/Analysis.h"
#include "om/Om.h"
#include "om/OmImpl.h"
#include "support/Result.h"

#include <cstdint>
#include <vector>

namespace om64 {
namespace om {

/// Content hash over *every* OmOptions field that can change the output
/// image, including the fields the daemon wire format does not carry
/// (HotColdLayout, the instrumentation switches, and the full profile
/// bytes — all inputs to the BSR relaxation fixpoint and the layout pass).
/// Anything keyed by "same options" — the daemon's per-(output, options)
/// linker map, a future on-disk artifact cache — must use this, not the
/// wire encoding, or two links differing only in relaxation inputs would
/// collide on one warm state.
uint64_t linkConfigKey(const OmOptions &Opts);

/// Observability for one relink: what was reused, what was redone.
struct RelinkStats {
  /// False for the first link through this linker (everything cold).
  bool Warm = false;
  /// True when every module's bytes matched the previous relink and the
  /// cached image was returned without running the pipeline at all.
  bool InputUnchanged = false;

  uint64_t ModulesTotal = 0;
  uint64_t ModulesReparsed = 0; ///< positions whose bytes changed
  uint64_t ModulesRelifted = 0; ///< lift-cache misses (includes reparsed)
  uint64_t ProcsTotal = 0;
  uint64_t ProcsRelifted = 0;

  /// Summary-fixpoint cache traffic of this relink (analysis or lint
  /// links only; zero otherwise): Om.AnalysisRoundsReused and
  /// Om.AnalysisRoundsEvaluated.
  uint64_t SummaryRoundHits = 0;
  uint64_t SummaryRoundMisses = 0;

  double Seconds = 0; ///< wall time of this relink
  OmStats Om;         ///< the underlying pipeline's statistics
};

/// Result of one relink.
struct RelinkResult {
  std::vector<uint8_t> ImageBytes; ///< serialized obj::Image
  RelinkStats Stats;
  /// Rendered lint findings (Opts.Lint only; see OmResult::LintReport).
  /// The no-op fast path replays the previous report: same bytes, same
  /// options, same findings by pipeline determinism.
  std::string LintReport;
  unsigned LintFindings = 0;
};

/// One image's warm state. Not thread-safe: the daemon serializes relinks
/// per image (an IncrementalLinker per output path, under a mutex).
class IncrementalLinker {
public:
  /// \p Opts is canonicalized on construction and fixed for the linker's
  /// lifetime; requesting different options means a new linker (the
  /// caches key per-procedure inputs, not option sets). An option error
  /// surfaces on the first relink.
  explicit IncrementalLinker(const OmOptions &Opts);

  /// Relinks the image from \p Modules (each element one module's
  /// serialized bytes, in link order). Reuses everything the content
  /// hashes allow; the output is byte-identical to a from-scratch link.
  Result<RelinkResult> relink(const std::vector<std::vector<uint8_t>> &Modules);

  /// Cache budget in bytes for the analysis memo; trimmed after every
  /// relink (least-recently-used first, value tables before summaries).
  void setCacheBudget(size_t Bytes) { CacheBudget = Bytes; }
  static constexpr size_t DefaultCacheBudget = 512ull << 20;

  const analysis::SummaryCache &summaryCache() const { return Summaries; }

private:
  OmOptions Opts;           ///< canonicalized; see OptionsError
  std::string OptionsError; ///< canonicalizeOptions failure, if any

  std::vector<uint64_t> ModuleHashes; ///< content hash per position
  std::vector<obj::ObjectFile> Objs;  ///< parsed modules, current bytes

  LiftCache Lifts;
  analysis::SummaryCache Summaries;
  size_t CacheBudget = DefaultCacheBudget;

  bool HaveImage = false;
  std::vector<uint8_t> LastImageBytes;
  std::string LastLintReport;
  unsigned LastLintFindings = 0;
  bool Cold = true;
};

} // namespace om
} // namespace om64

#endif // OM64_OM_INCREMENTAL_H
