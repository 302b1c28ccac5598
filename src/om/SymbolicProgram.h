//===- om/SymbolicProgram.h - OM's whole-program symbolic form ------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The symbolic form OM translates object code into (section 4: "The key
/// idea behind OM is the translation into symbolic form and back"): every
/// procedure becomes a vector of instructions whose address and control
/// operands are symbolic, so instructions can be deleted and reordered
/// without tracking the effect on address constants and displacements.
///
//===----------------------------------------------------------------------===//

#ifndef OM64_OM_SYMBOLICPROGRAM_H
#define OM64_OM_SYMBOLICPROGRAM_H

#include "isa/Inst.h"
#include "objfile/ObjectFile.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace om64 {
namespace om {

/// A program-wide symbol: a procedure or a datum.
struct PSym {
  std::string Name;
  bool IsProc = false;
  uint32_t ProcIdx = ~0u; // into SymbolicProgram::Procs when IsProc
  bool IsBss = false;
  std::vector<uint8_t> Init; // initialized bytes (empty for bss)
  uint64_t Size = 0;
  uint32_t ObjIdx = 0;
  bool Exported = false;
  uint64_t Addr = 0; // assigned during layout
};

/// Classification of one symbolic instruction.
enum class SKind : uint8_t {
  Plain,
  AddressLoad, // LDQ r, slot(GP): loads &TargetSym; LitId names the site
  LitUseMem,   // memory op whose base register came from literal LitId
  LitUseAddr,  // scaled add deriving a pointer from literal LitId
  LitUseDeref, // memory op through the LitUseAddr-derived pointer
  JsrViaGat,   // JSR through a register loaded by literal LitId
  JsrIndirect, // JSR through a computed value (procedure variable)
  GpHigh,      // LDAH of a GP-disp pair (GpKind tells prologue/post-call)
  GpLow,       // LDA of a GP-disp pair
  LocalBranch, // conditional or unconditional branch within the procedure
  DirectCall,  // BSR to TargetProc (compile-time or OM-created)
};

/// One instruction of the symbolic form. The 32-bit fields come first and
/// the one-byte ones last, so the lift's million-instruction arrays carry
/// no padding between them.
struct SymInst {
  isa::Inst I;
  uint32_t LitId = ~0u;
  uint32_t TargetSym = ~0u;   // AddressLoad
  uint32_t PairId = ~0u;      // GpHigh/GpLow pairing
  uint32_t TargetProc = ~0u;  // DirectCall
  int32_t TargetIdx = -1;     // LocalBranch: index within the procedure
  int32_t OrigDisp = 0;       // displacement as compiled (layout rounds
                              // recompute rewrites from this)
  SKind Kind = SKind::Plain;
  obj::GpDispKind GpKind = obj::GpDispKind::Prologue;
  bool SkipPrologue = false;  // DirectCall enters past the GP-set pair
  bool Nullified = false;     // becomes a no-op (simple) / deleted (full)
  /// Set alongside Nullified when the deletion was justified by a dataflow
  /// proof (om/Analysis.h) rather than a pattern: the proof-checking verify
  /// stage re-derives these, and OmVerify's literal checks know an
  /// analysis-nullified call load keeps its (provably equal) register.
  bool AnalysisNullified = false;
  bool Converted = false;     // address load rewritten to LDA/LDAH
  /// Set by the profile-guided layout on instructions moved into a cold
  /// tail: AlignLoopTargets must not pad for branch targets that never
  /// execute. Never set in procedures the layout skipped, so unprofiled
  /// links keep their full alignment behaviour.
  bool Cold = false;
};
static_assert(sizeof(SymInst) == 44, "SymInst gained padding or a field");

/// One procedure in symbolic form.
struct SymProc {
  std::string Name;
  uint32_t ObjIdx = 0;
  uint32_t SymId = ~0u;
  bool Exported = false;
  bool UsesGp = false;
  bool AddressTaken = false;
  bool IsEntry = false;
  bool MakesIndirectCalls = false;
  uint32_t GpGroup = 0;
  /// This procedure's literal ids: the lift numbers literals in procedure
  /// order, so they form the range [LitBegin, LitEnd) of
  /// SymbolicProgram::Lits. The range may hold ids no instruction records
  /// (LitInfo::recorded() false); skip those. Both are 0 once the table is
  /// dropped.
  uint32_t LitBegin = 0;
  uint32_t LitEnd = 0;
  std::vector<SymInst> Insts;

  /// Index of the first instruction past the prologue GP-set pair (0 when
  /// the procedure has none). Maintained by the transforms.
  uint32_t postPrologueIndex() const;
  /// True if Insts[0..1] are this procedure's prologue GP-set pair.
  bool hasProloguePairAtEntry() const;
};

/// Per-literal bookkeeping: the loading instruction and its uses. The uses
/// live in SymbolicProgram::LitUses: NumMem LitUseMem indices from
/// UseBegin, then NumAddr LitUseAddr indices, then NumDeref LitUseDeref
/// indices, each list in ascending instruction order.
struct LitInfo {
  uint32_t Proc = ~0u;      // owning procedure; ~0u when there is no load
  uint32_t LoadIdx = ~0u;
  uint32_t TargetSym = ~0u;
  int32_t JsrIdx = -1;      // index of the JsrViaGat, if any
  uint32_t UseBegin = 0;    // first use in SymbolicProgram::LitUses
  uint32_t NumMem = 0;
  uint32_t NumAddr = 0;
  uint32_t NumDeref = 0;
  /// True when the loaded address flows somewhere OM cannot see (no
  /// recorded uses): conversion is possible, nullification is not.
  bool escapes() const {
    return (NumMem | NumAddr | NumDeref) == 0 && JsrIdx < 0;
  }
  /// True when some instruction recorded this literal: its load, a use or
  /// a call. An id whose every relocated instruction was classified as
  /// something else (only hostile objects do this) stays unrecorded.
  bool recorded() const { return LoadIdx != ~0u || !escapes(); }
};

/// The whole program in symbolic form.
///
/// The literal table is dense: Lits[Id] describes literal Id, and every
/// literal's uses sit contiguously in the one program-wide LitUses array
/// (LitInfo::UseBegin and the three counts). Each procedure owns the id
/// range [SymProc::LitBegin, SymProc::LitEnd). OM-full's deletion stage
/// drops the table (dropLiterals), because deletion makes every recorded
/// index stale; lit() then finds nothing.
struct SymbolicProgram {
  std::vector<PSym> Syms;
  std::vector<SymProc> Procs;
  std::vector<LitInfo> Lits;     // by program-unique literal id
  std::vector<uint32_t> LitUses; // instruction indices, see LitInfo
  size_t NumObjects = 0;
  std::vector<uint32_t> GroupOfObj; // GP group per object
  uint32_t NumGroups = 1;
  uint64_t OriginalGatEntries = 0;  // merged+deduped before reduction

  /// Finds a procedure by (suffix) name; ~0u when absent.
  uint32_t findProcBySuffix(const std::string &Suffix) const;

  /// The recorded literal \p Id, or null (out of range, unrecorded, or
  /// the table was dropped).
  const LitInfo *lit(uint32_t Id) const {
    return Id < Lits.size() && Lits[Id].recorded() ? &Lits[Id] : nullptr;
  }
  LitInfo *lit(uint32_t Id) {
    return Id < Lits.size() && Lits[Id].recorded() ? &Lits[Id] : nullptr;
  }

  /// The instruction indices of \p L's uses of one kind.
  std::span<const uint32_t> memUses(const LitInfo &L) const {
    return {LitUses.data() + L.UseBegin, L.NumMem};
  }
  std::span<const uint32_t> addrUses(const LitInfo &L) const {
    return {LitUses.data() + L.UseBegin + L.NumMem, L.NumAddr};
  }
  std::span<const uint32_t> derefUses(const LitInfo &L) const {
    return {LitUses.data() + L.UseBegin + L.NumMem + L.NumAddr, L.NumDeref};
  }
  /// All of \p L's uses (memory, then address, then dereference), for
  /// rewriting indices in place.
  std::span<uint32_t> allUses(const LitInfo &L) {
    return {LitUses.data() + L.UseBegin, L.NumMem + L.NumAddr + L.NumDeref};
  }

  /// Empties the literal table and every procedure's id range.
  void dropLiterals();
};

} // namespace om
} // namespace om64

#endif // OM64_OM_SYMBOLICPROGRAM_H
