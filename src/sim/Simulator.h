//===- sim/Simulator.h - AAX functional and timing simulator --------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes linked AAX images. Two modes:
///
///   * functional: architectural semantics only (fast; used to verify that
///     OM's transformations preserve program behaviour),
///   * timing: a DECstation-3000/400-class dual-issue in-order model with
///     load-use latency and direct-mapped I/D caches. This is the measured
///     machine of section 5.2; it reproduces why dynamic improvements are
///     smaller than static ones ("cache misses ... mean that many cycles
///     are spent doing things other than user instructions, and the dual
///     issue ... means that some instructions come free").
///
/// Both modes, with or without profile collection, run one interpreter:
/// the text is decoded once at startup into a dense array of translated
/// instructions, and a single table of per-opcode handlers (each opcode's
/// semantics written once) is instantiated per mode. Each handler ends in
/// its own computed goto to the next instruction's handler (the GNU/Clang
/// `&&label` extension, which the build requires). The timing model and
/// the profiler hook into the handlers at compile time, so the functional
/// instantiation never pays for them and no mode pays for per-instruction
/// decode. The timing model issues a basic block at a time and memoizes
/// each block's issue outcome per entry state (see Simulator.cpp's
/// Pipeline); every counter equals the per-instruction model's.
///
/// The simulator enters at Image::Entry with PV = entry (the calling
/// convention main's prologue needs), RA = Layout::HaltReturnAddress, and
/// SP at the top of the stack. Execution ends on a return to the halt
/// address (exit status = v0) or a CALL_PAL halt (exit status = a0).
///
//===----------------------------------------------------------------------===//

#ifndef OM64_SIM_SIMULATOR_H
#define OM64_SIM_SIMULATOR_H

#include "isa/Inst.h"
#include "objfile/Image.h"
#include "support/Profile.h"
#include "support/Result.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace om64 {
namespace sim {

/// Direct-mapped cache geometry and miss cost.
struct CacheConfig {
  uint32_t SizeBytes = 8192;
  uint32_t LineBytes = 32;
  unsigned MissPenalty = 20;
};

/// Simulation options.
struct SimConfig {
  bool Timing = true;
  CacheConfig ICache{8192, 32, 10};
  CacheConfig DCache{8192, 32, 20};
  /// Abort (with an error) after this many instructions.
  uint64_t MaxInstructions = 4000000000ull;
  /// Collect an execution profile (SimResult::Profile): per-procedure
  /// instruction heat, per-local-branch executed/taken counts, and the
  /// dynamic call-edge graph, all keyed against the image's procedure
  /// table. Works in both functional and timing mode; profiled runs are
  /// separate instantiations of the interpreter, so runs with Profile off
  /// pay nothing.
  bool Profile = false;
};

/// Outcome of a run.
struct SimResult {
  int64_t ExitCode = 0;
  std::string Output;          // PAL putchar/putint/putreal stream
  uint64_t Instructions = 0;   // executed (includes nops)
  uint64_t Nops = 0;
  uint64_t Loads = 0;
  uint64_t Stores = 0;
  uint64_t TakenBranches = 0;
  uint64_t Cycles = 0;         // timing mode only
  uint64_t DualIssuePairs = 0; // timing mode only
  uint64_t ICacheMisses = 0;   // timing mode only
  uint64_t DCacheMisses = 0;   // timing mode only
  /// Basic blocks the timing model issued (each ends at a control
  /// transfer, or before rpcc or at halt), and how many of them took
  /// their issue outcome from the block memo instead of a replay. Both
  /// are 0 in functional mode.
  uint64_t BlocksEnded = 0;
  uint64_t BlocksMemoized = 0;
  /// Executed-instruction histogram by InstClass (index with
  /// static_cast<unsigned>(isa::InstClass)).
  std::array<uint64_t, isa::NumInstClasses> ClassCounts{};
  /// Host wall-clock seconds the run took; simulated MIPS is
  /// Instructions / HostSeconds / 1e6 (see sim/SimStats.h).
  double HostSeconds = 0;
  /// ATOM-style profile counters (CALL_PAL count[i]); indexed by the
  /// instrumentation tool's counter ids. Empty when uninstrumented.
  std::vector<uint64_t> ProfileCounts;
  /// Execution profile for `omlink --profile-in` (SimConfig::Profile runs
  /// only; empty otherwise). See support/Profile.h for the keying scheme.
  prof::Profile Profile;
  /// Final contents of the data segment (data + bss) at halt. OmVerify's
  /// differential harness hashes this to prove that two OM levels leave
  /// the program's memory in the same architectural state.
  std::vector<uint8_t> FinalData;
};

/// Runs \p Img to completion. Failures (bad memory access, undecodable
/// instruction, bad image layout, bad cache geometry, instruction budget
/// exceeded) return a message. The layout is checked before anything is
/// allocated: the text base must be 4-aligned, no segment may wrap past
/// 2^64, text, data+bss and stack must be pairwise disjoint, and data+bss
/// must fit between the standard data base and the stack. The whole text
/// segment is decoded and validated up front, so an image containing any
/// undecodable word is rejected before the first instruction executes;
/// timing mode additionally rejects cache geometry the caches cannot index
/// by shift and mask: a line or size that is not a power of two, a cache
/// smaller than its line, or an I-cache line shorter than an instruction.
Result<SimResult> run(const obj::Image &Img, const SimConfig &Cfg = {});

} // namespace sim
} // namespace om64

#endif // OM64_SIM_SIMULATOR_H
