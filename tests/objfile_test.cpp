//===- tests/objfile_test.cpp - Object format unit tests ------------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//

#include "objfile/Image.h"
#include "TestUtil.h"
#include "objfile/ObjectFile.h"

#include "isa/Inst.h"
#include "megagen/MegaGen.h"

#include <gtest/gtest.h>

using namespace om64;
using namespace om64::obj;

namespace {

ObjectFile sampleObject() {
  ObjectFile O;
  O.ModuleName = "demo";
  for (int I = 0; I < 4; ++I) {
    uint32_t W = isa::encode(isa::Inst::nop());
    for (unsigned B = 0; B < 4; ++B)
      O.Text.push_back(static_cast<uint8_t>(W >> (8 * B)));
  }
  O.Data = {1, 2, 3, 4, 5, 6, 7, 8};
  O.BssSize = 64;

  Symbol Proc;
  Proc.Name = "demo.main";
  Proc.Section = SectionKind::Text;
  Proc.Size = 16;
  Proc.IsProcedure = true;
  Proc.IsExported = true;
  Proc.IsDefined = true;
  O.Symbols.push_back(Proc);

  Symbol Var;
  Var.Name = "demo.counter";
  Var.Section = SectionKind::Bss;
  Var.Offset = 0;
  Var.Size = 8;
  Var.IsDefined = true;
  O.Symbols.push_back(Var);

  Symbol Extern;
  Extern.Name = "io.print_int";
  O.Symbols.push_back(Extern);

  O.Gat.push_back({1, 0});
  O.Gat.push_back({2, 0});

  Reloc Lit;
  Lit.Kind = RelocKind::Literal;
  Lit.Offset = 0;
  Lit.GatIndex = 0;
  Lit.LiteralId = 7;
  O.Relocs.push_back(Lit);

  Reloc Use;
  Use.Kind = RelocKind::LituseBase;
  Use.Offset = 4;
  Use.LiteralId = 7;
  O.Relocs.push_back(Use);

  Reloc Gp;
  Gp.Kind = RelocKind::GpDisp;
  Gp.Offset = 8;
  Gp.PairOffset = 4;
  Gp.AnchorOffset = 0;
  Gp.GpKind = 1;
  O.Relocs.push_back(Gp);

  ProcDesc D;
  D.SymbolIndex = 0;
  D.TextOffset = 0;
  D.TextSize = 16;
  D.UsesGp = true;
  O.Procs.push_back(D);
  return O;
}

TEST(ObjectFileTest, SerializeDeserializeRoundTrip) {
  ObjectFile O = sampleObject();
  std::vector<uint8_t> Bytes = O.serialize();
  Result<ObjectFile> Back = ObjectFile::deserialize(Bytes);
  ASSERT_TRUE(bool(Back)) << Back.message();
  EXPECT_EQ(Back->ModuleName, "demo");
  EXPECT_EQ(Back->Text, O.Text);
  EXPECT_EQ(Back->Data, O.Data);
  EXPECT_EQ(Back->BssSize, 64u);
  ASSERT_EQ(Back->Symbols.size(), 3u);
  EXPECT_EQ(Back->Symbols[0].Name, "demo.main");
  EXPECT_TRUE(Back->Symbols[0].IsProcedure);
  EXPECT_FALSE(Back->Symbols[2].IsDefined);
  ASSERT_EQ(Back->Gat.size(), 2u);
  EXPECT_EQ(Back->Gat[1], (GatEntry{2, 0}));
  ASSERT_EQ(Back->Relocs.size(), 3u);
  EXPECT_EQ(Back->Relocs[2].Kind, RelocKind::GpDisp);
  EXPECT_EQ(Back->Relocs[2].PairOffset, 4u);
  EXPECT_EQ(Back->Relocs[2].GpKind, 1);
  ASSERT_EQ(Back->Procs.size(), 1u);
  EXPECT_TRUE(Back->Procs[0].UsesGp);
}

TEST(ObjectFileTest, RejectsBadMagicAndTruncation) {
  ObjectFile O = sampleObject();
  std::vector<uint8_t> Bytes = O.serialize();
  std::vector<uint8_t> Bad = Bytes;
  Bad[0] ^= 0xFF;
  EXPECT_FALSE(bool(ObjectFile::deserialize(Bad)));

  std::vector<uint8_t> Short(Bytes.begin(), Bytes.begin() + 20);
  EXPECT_FALSE(bool(ObjectFile::deserialize(Short)));
}

TEST(ObjectFileTest, RejectsUnknownEnumBytes) {
  // Each enum travels as one byte; a value no writer produces must be
  // rejected with a diagnostic naming the record, not cast into the enum.
  auto message = [](const ObjectFile &O) {
    Result<ObjectFile> Back = ObjectFile::deserialize(O.serialize());
    return Back ? std::string("(accepted)") : Back.message();
  };
  for (unsigned Raw : {7u, 9u, 0x80u, 0xFFu}) {
    ObjectFile O = sampleObject();
    O.Relocs[1].Kind = static_cast<RelocKind>(Raw);
    EXPECT_EQ(message(O), "demo: relocation 1 has unknown kind " +
                              std::to_string(Raw));
  }
  for (unsigned Raw : {4u, 7u, 0xFFu}) {
    ObjectFile O = sampleObject();
    O.Relocs[0].Section = static_cast<SectionKind>(Raw);
    EXPECT_EQ(message(O), "demo: relocation 0 has unknown section kind " +
                              std::to_string(Raw));
    O = sampleObject();
    O.Symbols[1].Section = static_cast<SectionKind>(Raw);
    EXPECT_EQ(message(O),
              "demo: symbol 1 has unknown section kind " + std::to_string(Raw));
  }
  for (unsigned Raw : {2u, 5u, 0xFFu}) {
    ObjectFile O = sampleObject();
    O.Relocs[2].GpKind = static_cast<uint8_t>(Raw);
    EXPECT_EQ(message(O), "demo: relocation 2 has unknown GP-disp kind " +
                              std::to_string(Raw));
  }
  // The largest known value of each still loads.
  ObjectFile O = sampleObject();
  O.Symbols[1].Section = SectionKind::Bss;
  O.Relocs[2].GpKind = static_cast<uint8_t>(GpDispKind::PostCall);
  EXPECT_EQ(message(O), "(accepted)");
}

TEST(ObjectFileTest, VerifyCatchesInconsistencies) {
  {
    ObjectFile O = sampleObject();
    O.Text.push_back(0); // not a multiple of 4
    EXPECT_TRUE(bool(O.verify()));
  }
  {
    ObjectFile O = sampleObject();
    O.Gat[0].SymbolIndex = 99;
    EXPECT_TRUE(bool(O.verify()));
  }
  {
    ObjectFile O = sampleObject();
    O.Relocs[1].LiteralId = 1234; // no matching literal
    EXPECT_TRUE(bool(O.verify()));
  }
  {
    ObjectFile O = sampleObject();
    O.Procs[0].TextSize = 1000; // extends past text
    EXPECT_TRUE(bool(O.verify()));
  }
  {
    ObjectFile O = sampleObject();
    O.Relocs[0].Offset = 4096; // outside .text
    EXPECT_TRUE(bool(O.verify()));
  }
  EXPECT_FALSE(bool(sampleObject().verify()));
}

TEST(ObjectFileTest, RejectsWrappingProcExtent) {
  // TextOffset + TextSize wraps to 4, inside the 16-byte .text; the extent
  // itself lies almost entirely past it.
  ObjectFile O = sampleObject();
  ProcDesc D;
  D.SymbolIndex = 0;
  D.TextOffset = ~0ull - 3; // 2^64 - 4
  D.TextSize = 8;
  O.Procs.push_back(D);
  Result<ObjectFile> Back = ObjectFile::deserialize(O.serialize());
  ASSERT_FALSE(bool(Back));
  EXPECT_NE(Back.message().find("extends past .text"), std::string::npos)
      << Back.message();
}

/// sampleObject plus a defined .data symbol "demo.table" at \p Offset.
ObjectFile withDataSymbol(uint64_t Offset, uint64_t Size) {
  ObjectFile O = sampleObject();
  Symbol S;
  S.Name = "demo.table";
  S.Section = SectionKind::Data;
  S.Offset = Offset;
  S.Size = Size;
  S.IsDefined = true;
  O.Symbols.push_back(S);
  return O;
}

void expectRejected(const ObjectFile &O, const std::string &Diagnostic) {
  Result<ObjectFile> Back = ObjectFile::deserialize(O.serialize());
  ASSERT_FALSE(bool(Back)) << Diagnostic;
  EXPECT_NE(Back.message().find(Diagnostic), std::string::npos)
      << Back.message();
}

TEST(ObjectFileTest, RejectsHostileDataSymbols) {
  // Each would send the lift outside the module: a procedure with no
  // descriptor, and initialized data read from past .data, directly or
  // through an Offset + Size that wraps to 4, inside the 8-byte .data.
  EXPECT_TRUE(bool(ObjectFile::deserialize(withDataSymbol(0, 8).serialize())))
      << "a symbol ending exactly at the end of .data is in bounds";
  ObjectFile NoDesc = withDataSymbol(0, 8);
  NoDesc.Symbols.back().IsProcedure = true;
  expectRejected(NoDesc, "demo.table has no procedure descriptor");
  expectRejected(withDataSymbol(8 + 4096, 8), "demo.table extends past .data");
  expectRejected(withDataSymbol(~0ull - 3, 8), "demo.table extends past .data");
}

TEST(ObjectFileTest, RejectsHostileBssSymbols) {
  // A generated module's .bss symbol, given a size no .bss holds (this
  // one once aborted `omlink -O none` and linked at every other level),
  // placed past .bss, and given an extent that wraps past 2^64.
  megagen::MegaSpec Spec;
  Spec.Modules = 2;
  Spec.ProcsPerModule = 4;
  Spec.TargetInstructions = 2000;
  const ObjectFile Clean = megagen::generate(Spec).Objects[1];
  size_t Bss = Clean.Symbols.size();
  for (size_t I = 0; I < Clean.Symbols.size() && Bss == Clean.Symbols.size();
       ++I)
    if (Clean.Symbols[I].IsDefined &&
        Clean.Symbols[I].Section == SectionKind::Bss)
      Bss = I;
  ASSERT_LT(Bss, Clean.Symbols.size()) << "the module defines no .bss";
  EXPECT_FALSE(bool(Clean.verify()));
  const std::string Diagnostic =
      Clean.Symbols[Bss].Name + " extends past .bss";
  for (auto [Offset, Size] :
       {std::pair<uint64_t, uint64_t>{0, 22517998136852536ull},
        {Clean.BssSize + 8, 8},
        {~0ull - 3, 8}}) {
    ObjectFile Bad = Clean;
    Bad.Symbols[Bss].Offset = Offset;
    Bad.Symbols[Bss].Size = Size;
    expectRejected(Bad, Diagnostic);
  }
  ObjectFile Fits = Clean;
  Fits.Symbols[Bss].Offset = 0;
  Fits.Symbols[Bss].Size = Clean.BssSize;
  EXPECT_FALSE(bool(Fits.verify())) << "a symbol spanning .bss is in bounds";
}

/// sampleObject with its text split into two procedures: demo.main holds
/// the literal (+0) and its use (+4), demo.helper the GPDISP pair (+8, +12).
ObjectFile twoProcObject() {
  ObjectFile O = sampleObject();
  Symbol Helper = O.Symbols[0];
  Helper.Name = "demo.helper";
  Helper.Offset = 8;
  Helper.Size = 8;
  O.Symbols.push_back(Helper);
  O.Procs[0].TextSize = 8;
  ProcDesc D = O.Procs[0];
  D.SymbolIndex = static_cast<uint32_t>(O.Symbols.size() - 1);
  D.TextOffset = 8;
  O.Procs.push_back(D);
  return O;
}

TEST(ObjectFileTest, RejectsHostileRelocations) {
  // The lift indexes instructions by relocation offsets and maps literal
  // ids per procedure: each edit below once sent it out of bounds.
  EXPECT_TRUE(bool(ObjectFile::deserialize(twoProcObject().serialize())));
  ObjectFile UseMoved = twoProcObject();
  UseMoved.Relocs[1].Offset = 12; // into demo.helper
  expectRejected(UseMoved,
                 "LITUSE_BASE at offset 12 has no literal id 7 in its "
                 "procedure");
  ObjectFile LitMoved = twoProcObject();
  LitMoved.Relocs[0].Offset = 12; // its use stays in demo.main
  expectRejected(LitMoved,
                 "LITUSE_BASE at offset 4 has no literal id 7 in its "
                 "procedure");
  ObjectFile GpMisaligned = twoProcObject();
  GpMisaligned.Relocs[2].Offset = 9;
  expectRejected(GpMisaligned,
                 "reloc GPDISP at offset 9 is not a 4-aligned .text "
                 "instruction");
  ObjectFile PairMisaligned = twoProcObject();
  PairMisaligned.Relocs[2].PairOffset = 2;
  expectRejected(PairMisaligned,
                 "reloc GPDISP at offset 8 is not a 4-aligned .text "
                 "instruction");
  ObjectFile PairWraps = twoProcObject();
  PairWraps.Relocs[2].PairOffset = ~0ull - 3; // 8 + this wraps to 4
  expectRejected(PairWraps,
                 "reloc GPDISP at offset 8 is not a 4-aligned .text "
                 "instruction");
  ObjectFile LitInData = twoProcObject();
  LitInData.Relocs[0].Section = SectionKind::Data;
  expectRejected(LitInData,
                 "reloc LITERAL at offset 0 is not a 4-aligned .text "
                 "instruction");

  // The linker writes a REFQUAD's 8 bytes at its .data offset, so it
  // needs 8 bytes of room inside .data (8 bytes here).
  auto withRefQuad = [](SectionKind Section, uint64_t Offset) {
    ObjectFile O = twoProcObject();
    Reloc R;
    R.Kind = RelocKind::RefQuad;
    R.Section = Section;
    R.Offset = Offset;
    R.SymbolIndex = 1;
    O.Relocs.push_back(R);
    return O;
  };
  EXPECT_TRUE(bool(ObjectFile::deserialize(
      withRefQuad(SectionKind::Data, 0).serialize())));
  expectRejected(withRefQuad(SectionKind::Data, 1),
                 "reloc REFQUAD at offset 1 is not 8 bytes inside .data");
  expectRejected(withRefQuad(SectionKind::Data, ~0ull - 3), // + 8 wraps
                 "is not 8 bytes inside .data");
  expectRejected(withRefQuad(SectionKind::Text, 0),
                 "reloc REFQUAD at offset 0 is not 8 bytes inside .data");
  ObjectFile BadSymbol = withRefQuad(SectionKind::Data, 0);
  BadSymbol.Relocs.back().SymbolIndex = 99;
  expectRejected(BadSymbol, "refquad symbol out of range");
}

TEST(ObjectFileTest, RejectsRelocationCollisions) {
  // The lift gives each instruction word the role of its one relocation
  // and each literal the load of its one LITERAL. Two LITERALs on one
  // word once left a literal with uses but no load, and the lift then
  // read symbol ~0u.
  auto withWords = [](unsigned Extra) {
    ObjectFile O = sampleObject();
    for (unsigned I = 0; I < Extra * 4; ++I)
      O.Text.push_back(O.Text[I % 4]);
    O.Procs[0].TextSize += Extra * 4;
    O.Symbols[0].Size += Extra * 4;
    return O;
  };
  auto addReloc = [](ObjectFile &O, RelocKind Kind, uint64_t Offset,
                     uint32_t LiteralId) {
    Reloc R;
    R.Kind = Kind;
    R.Offset = Offset;
    R.LiteralId = LiteralId;
    O.Relocs.push_back(R);
  };
  ObjectFile TwoOnOneWord = withWords(0);
  addReloc(TwoOnOneWord, RelocKind::Literal, 0, 8);
  expectRejected(TwoOnOneWord, "reloc LITERAL at offset 0 shares its "
                               "instruction with another relocation");
  ObjectFile OnGpPairLow = withWords(0);
  addReloc(OnGpPairLow, RelocKind::LituseBase, 12, 7);
  expectRejected(OnGpPairLow, "reloc LITUSE_BASE at offset 12 shares its "
                              "instruction with another relocation");
  ObjectFile SecondLoad = withWords(1);
  addReloc(SecondLoad, RelocKind::Literal, 16, 7);
  expectRejected(SecondLoad, "literal id 7 has a second LITERAL at offset 16 "
                             "in its procedure");

  // The same literal id in another procedure is another literal.
  ObjectFile OtherProc = withWords(1);
  OtherProc.Procs[0].TextSize = 16;
  OtherProc.Symbols[0].Size = 16;
  Symbol Helper = OtherProc.Symbols[0];
  Helper.Name = "demo.helper";
  Helper.Offset = 16;
  Helper.Size = 4;
  OtherProc.Symbols.push_back(Helper);
  ProcDesc D = OtherProc.Procs[0];
  D.SymbolIndex = static_cast<uint32_t>(OtherProc.Symbols.size() - 1);
  D.TextOffset = 16;
  D.TextSize = 4;
  OtherProc.Procs.push_back(D);
  addReloc(OtherProc, RelocKind::Literal, 16, 7);
  EXPECT_TRUE(bool(ObjectFile::deserialize(OtherProc.serialize())));
}

TEST(ObjectFileTest, FindSymbol) {
  ObjectFile O = sampleObject();
  EXPECT_EQ(O.findSymbol("demo.counter"), 1u);
  EXPECT_EQ(O.findSymbol("nope"), ~0u);
}

TEST(ImageTest, FetchAndSymbols) {
  obj::Image Img;
  uint32_t W = isa::encode(isa::makeMem(isa::Opcode::Ldq, isa::T0, 8,
                                        isa::GP));
  for (unsigned B = 0; B < 4; ++B)
    Img.Text.push_back(static_cast<uint8_t>(W >> (8 * B)));
  EXPECT_EQ(Img.fetch(Img.TextBase), W);
  EXPECT_EQ(Img.textWords().size(), 1u);
  EXPECT_EQ(Img.textWords()[0], W);

  Img.Symbols.push_back({"t.main", Img.TextBase, 4, true});
  EXPECT_EQ(Img.symbolAt(Img.TextBase), "t.main");
  EXPECT_EQ(Img.symbolAt(Img.TextBase + 4), "");
}

TEST(ImageTest, SerializeDeserializeRoundTrip) {
  obj::Image Img;
  Img.Text = {1, 2, 3, 4};
  Img.Data = {9, 8};
  Img.BssSize = 128;
  Img.Entry = Img.TextBase;
  Img.InitialGp = Img.DataBase + 32768;
  Img.GatBase = Img.DataBase;
  Img.GatSize = 40;
  Img.Symbols.push_back({"a.b", 42, 8, false});
  Img.Procs.push_back({"a.main", Img.TextBase, 4, Img.InitialGp, 0});

  Result<obj::Image> Back = obj::Image::deserialize(Img.serialize());
  ASSERT_TRUE(bool(Back)) << Back.message();
  EXPECT_EQ(Back->Text, Img.Text);
  EXPECT_EQ(Back->Data, Img.Data);
  EXPECT_EQ(Back->BssSize, 128u);
  EXPECT_EQ(Back->GatSize, 40u);
  ASSERT_EQ(Back->Procs.size(), 1u);
  EXPECT_EQ(Back->Procs[0].GpValue, Img.InitialGp);
  EXPECT_EQ(Back->dataSegmentSize(), 130u);
}

TEST(ImageTest, VerifyAcceptsRealExecutablesAndCatchesDamage) {
  // A real linked workload passes; corrupting a GAT slot or the entry
  // point is caught.
  Result<wl::BuiltWorkload> W = wl::buildWorkload("ora");
  ASSERT_TRUE(bool(W)) << W.message();
  Result<obj::Image> Img = wl::linkBaseline(*W, wl::CompileMode::Each);
  ASSERT_TRUE(bool(Img)) << Img.message();
  EXPECT_FALSE(bool(Img->verify())) << Img->verify().message();

  {
    obj::Image Bad = *Img;
    Bad.Entry = Bad.TextBase + 2; // misaligned
    EXPECT_TRUE(bool(Bad.verify()));
  }
  {
    obj::Image Bad = *Img;
    ASSERT_GE(Bad.GatSize, 8u);
    for (unsigned Byte = 0; Byte < 8; ++Byte)
      Bad.Data[Bad.GatBase - Bad.DataBase + Byte] = 0xEE;
    EXPECT_TRUE(bool(Bad.verify()));
  }
  {
    obj::Image Bad = *Img;
    // Point a branch far outside text: craft br +huge at the entry.
    uint32_t Word =
        isa::encode(isa::makeBranch(isa::Opcode::Br, isa::Zero, 500000));
    size_t Off = Bad.Entry - Bad.TextBase;
    for (unsigned Byte = 0; Byte < 4; ++Byte)
      Bad.Text[Off + Byte] = static_cast<uint8_t>(Word >> (8 * Byte));
    EXPECT_TRUE(bool(Bad.verify()));
  }
}

TEST(ImageTest, RejectsCorruption) {
  obj::Image Img;
  Img.Text = {0, 0, 0, 0};
  std::vector<uint8_t> Bytes = Img.serialize();
  Bytes[2] ^= 0x40;
  EXPECT_FALSE(bool(obj::Image::deserialize(Bytes)));
}

} // namespace
