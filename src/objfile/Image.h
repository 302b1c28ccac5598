//===- objfile/Image.h - Linked executable image ---------------------------=//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fully linked executable image produced by the traditional linker and
/// by OM, and executed by the simulator. Layout follows the Alpha/OSF
/// convention of a high text base and a distinct data region, so that all
/// global addresses genuinely require 64-bit address arithmetic (the problem
/// statement of section 1).
///
//===----------------------------------------------------------------------===//

#ifndef OM64_OBJFILE_IMAGE_H
#define OM64_OBJFILE_IMAGE_H

#include "support/Result.h"

#include <cstdint>
#include <string>
#include <vector>

namespace om64 {
namespace obj {

/// Address-space layout constants.
struct Layout {
  static constexpr uint64_t TextBase = 0x0000000120000000ull;
  static constexpr uint64_t DataBase = 0x0000000140000000ull;
  static constexpr uint64_t StackTop = 0x0000000160000000ull;
  static constexpr uint64_t StackSize = 1ull << 20;
  /// The data segment's limit (GATs, data and bss): the gap between the
  /// data base and the bottom of the stack.
  static constexpr uint64_t MaxDataBytes = StackTop - StackSize - DataBase;
  /// A return to this address terminates execution (the simulator places it
  /// in RA before transferring to the entry procedure).
  static constexpr uint64_t HaltReturnAddress = 0x00000001FFFFFFF0ull;
};

/// Adds \p Size, rounded up to 8 bytes, to the data-segment extent
/// \p Extent (bytes past Layout::DataBase). Both linkers lay data out
/// through it: a sum past Layout::MaxDataBytes fails, naming \p What, and
/// leaves \p Extent alone. It never wraps, whatever the size.
Error growDataExtent(uint64_t &Extent, uint64_t Size, const std::string &What);

struct ObjectFile;

/// Where the standard link puts the modules' sections in the data segment:
/// every module's .data in module order, then every module's .bss.
struct ModuleDataLayout {
  std::vector<uint64_t> DataOffset; // per module, past Layout::DataBase
  std::vector<uint64_t> BssOffset;  // per module, past DataEnd
  uint64_t DataEnd = 0;             // the first .bss byte, past DataBase
  uint64_t End = 0;                 // the last .bss's end, past DataBase
};

/// Lays out \p Objs's .data and .bss sections from \p Start (bytes past
/// Layout::DataBase), growing one extent through growDataExtent, so a
/// section past the data segment limit fails, naming its module. The
/// standard link places sections with it. OM places symbols instead, but
/// checks its input with it, so both links reject the same modules.
Result<ModuleDataLayout>
layoutModuleData(const std::vector<ObjectFile> &Objs, uint64_t Start);

/// A symbol surviving into the executable (for disassembly and statistics).
struct ImageSymbol {
  std::string Name;
  uint64_t Addr = 0;
  uint64_t Size = 0;
  bool IsProcedure = false;
};

/// Per-procedure runtime metadata in the executable: entry address and the
/// GP value the procedure establishes (procedures may be grouped under
/// distinct GP values when the merged GAT exceeds the 16-bit reach).
struct ImageProc {
  std::string Name;
  uint64_t Entry = 0;
  uint64_t Size = 0;
  uint64_t GpValue = 0;
  uint32_t GpGroup = 0;
};

/// A linked executable.
struct Image {
  uint64_t TextBase = Layout::TextBase;
  uint64_t DataBase = Layout::DataBase;
  std::vector<uint8_t> Text;
  std::vector<uint8_t> Data; // initialized data; bss follows, zero-filled
  uint64_t BssSize = 0;
  uint64_t Entry = 0;        // address of the entry procedure (main)
  uint64_t InitialGp = 0;    // GP value of the entry procedure

  /// GAT placement, for statistics (section 5.1's GAT reduction numbers).
  uint64_t GatBase = 0;
  uint64_t GatSize = 0;

  std::vector<ImageSymbol> Symbols;
  std::vector<ImageProc> Procs;

  /// Returns the instruction word at \p Addr (must be in text).
  uint32_t fetch(uint64_t Addr) const;

  /// Returns text as a vector of instruction words.
  std::vector<uint32_t> textWords() const;

  /// Returns the name of the symbol starting exactly at \p Addr, or "".
  std::string symbolAt(uint64_t Addr) const;

  /// Total bytes of the data segment including bss.
  uint64_t dataSegmentSize() const { return Data.size() + BssSize; }

  /// Serializes to the on-disk representation (magic "AAXE").
  std::vector<uint8_t> serialize() const;

  /// Structural verification: every text word decodes, every direct
  /// control transfer lands inside text, the entry point and procedure
  /// table are consistent, GP values sit inside the data segment, and
  /// every GAT slot holds the address of some text or data location.
  /// Returns the first problem found.
  Error verify() const;

  /// Parses the on-disk representation.
  static Result<Image> deserialize(const std::vector<uint8_t> &Bytes);
};

} // namespace obj
} // namespace om64

#endif // OM64_OBJFILE_IMAGE_H
