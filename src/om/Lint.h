//===- om/Lint.h - Binary lint over the link-time dataflow ----------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The binary lint (`omlink --lint`, tools/aaxlint): convention violations
/// reported as L001..L010 diagnostics with witness paths, a built-in corpus
/// of broken modules that seed exactly one finding each, and text, JSON
/// and SARIF 2.1.0 renderers.
///
/// The lint owns the memory abstract domain under L006..L010 — byte-
/// precise stack-frame tracking, GAT slot provenance, and callee-saved
/// preservation proofs composed bottom-up (preservedSaved). It rides the
/// value walk of OM's dataflow (om/Analysis.h) and is layered over OM's
/// converged values: OM's own stages never compute it.
///
//===----------------------------------------------------------------------===//

#ifndef OM64_OM_LINT_H
#define OM64_OM_LINT_H

#include "om/Analysis.h"

#include <cstdint>
#include <string>
#include <vector>

namespace om64 {
namespace om {
namespace analysis {

/// One step of a finding's witness path: an instruction on the shortest
/// abstract-interpretation trace from the procedure entry to the defect,
/// with a note saying what fact it establishes.
struct LintWitnessStep {
  uint32_t InstIdx = 0;
  std::string Note;
};

/// One lint finding, with enough structure for every renderer (text,
/// --explain, --json, --sarif): the code, the procedure (index and name),
/// the defect instruction, the formatted message, and the witness path
/// (never empty — at minimum the entry and the defect site).
struct LintFinding {
  std::string Code; // "L001".."L010"
  uint32_t ProcIdx = 0;
  std::string Proc;
  uint32_t InstIdx = 0;
  std::string Message;
  std::vector<LintWitnessStep> Witness;
};

/// Runs the binary lint over an analyzed program: the memory domain over
/// \p PA's values, to the PreservedSaved fixpoint (preservedSaved), with
/// each procedure's findings taken from its last walk. The per-procedure
/// walks fan out on the ThreadPool into per-index slots and are reduced in
/// procedure order, with each procedure's findings sorted by (instruction,
/// code), so the result is byte-identical for any pool size. Codes (see
/// docs/LINT.md):
///
///   L001  read of a provably-uninitialized register
///   L002  GAT address load reachable with a wrong or unknown GP
///   L003  unreachable basic block containing real code (a store, call,
///         or control flow; dead register-only guards and padding that
///         compilers legitimately emit are not reported)
///   L004  control falls through the end of a procedure
///   L005  call-convention violation (call linking through a register
///         other than RA, return through a register other than RA, or a
///         GAT call through a data symbol)
///   L006  stack access provably outside the frame bounds
///   L007  callee-saved register not preserved at a return
///   L008  saved-return-address slot overwritten after the save
///   L009  GAT-proven data access outside the symbol's bounds or
///         misaligned for its width
///   L010  stack address stored to a global/GAT location (escapes the
///         frame's lifetime)
std::vector<LintFinding> lintProgram(const SymbolicProgram &SP,
                                     const ProgramAnalysis &PA,
                                     ThreadPool &Pool);

/// The lint's PreservedSaved layer: per procedure, a bit per callee-saved
/// unit that provably holds its entry value again at every reachable RET
/// (other bits stay set), composed bottom-up over \p PA's values: a call
/// keeps a unit's fact only when the callee's bit is set. Invisible callees
/// and computed-jump exits are assumed convention-abiding, so a cleared
/// bit is always a positive proof of clobbering — the basis of L007.
std::vector<uint64_t> preservedSaved(const SymbolicProgram &SP,
                                     const ProgramAnalysis &PA,
                                     ThreadPool &Pool);

/// Renders findings in the classic diagnostic format, one line per
/// finding: "lint:<proc>:<inst+1>:0: warning: <message>". With \p Explain,
/// each finding is followed by its witness path, one "  #<n> +<off>:
/// <note>" line per step.
std::string renderLintText(const std::vector<LintFinding> &Findings,
                           bool Explain);

/// Renders findings as a stable machine-readable JSON document:
/// {"findings":[{"code","proc","offset","message"},...]} where offset is
/// the defect instruction's byte offset within the procedure.
std::string renderLintJson(const std::vector<LintFinding> &Findings);

/// Renders findings as a SARIF 2.1.0 document: one run, driver "aaxlint"
/// with one reportingDescriptor per code L001..L010, one result per
/// finding (ruleId = code, artifactLocation.uri = procedure name,
/// region.startLine = 1-based instruction index).
std::string renderLintSarif(const std::vector<LintFinding> &Findings);

/// One corpus case: a complete, linkable module seeded with exactly one
/// lint defect (Code "L001".."L010"), or none (Code empty, Name "clean").
struct LintCase {
  std::string Code;
  std::string Name;
  obj::ObjectFile Obj;
};

/// The built-in lint corpus: one broken module per L-code plus one clean
/// module. Shared by the lint tests (exact-diagnostic assertions),
/// `aaxlint --emit-corpus` (writes each case to <dir>/<Code>_<Name>.aaxo),
/// and the CI gate self-test driven by tools/check_bench.py.
std::vector<LintCase> lintCorpus();

} // namespace analysis
} // namespace om
} // namespace om64

#endif // OM64_OM_LINT_H
