//===- tests/service_test.cpp - omlinkd service-layer tests ---------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The relink daemon's three layers, bottom up:
///
///   * framing: decodeFrame over every truncation prefix and every class
///     of garbage header (pure-function tests, no sockets);
///   * IncrementalLinker: warm-vs-cold byte identity across all 19 seed
///     workloads under seeded edit streams — the correctness oracle the
///     whole cache design answers to;
///   * Daemon + Client over a real Unix-domain socket, in-process:
///     ping, cold relink, edit, warm relink, byte-compare against a
///     from-scratch link, shutdown.
///
//===----------------------------------------------------------------------===//

#include "megagen/MegaGen.h"
#include "om/Incremental.h"
#include "service/Client.h"
#include "service/Daemon.h"
#include "service/Protocol.h"
#include "support/FileIO.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

using namespace om64;

namespace {

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

std::vector<uint8_t> samplePayload() { return {0xDE, 0xAD, 0xBE, 0xEF, 7}; }

TEST(FramingTest, RoundTrip) {
  std::vector<uint8_t> Bytes =
      service::encodeFrame(service::MsgType::PingRequest, samplePayload());
  Result<service::Frame> F = service::decodeFrame(Bytes);
  ASSERT_TRUE(bool(F)) << F.message();
  EXPECT_EQ(F->Type, service::MsgType::PingRequest);
  EXPECT_EQ(F->Payload, samplePayload());
}

TEST(FramingTest, EmptyPayloadRoundTrip) {
  std::vector<uint8_t> Bytes =
      service::encodeFrame(service::MsgType::ShutdownRequest, {});
  Result<service::Frame> F = service::decodeFrame(Bytes);
  ASSERT_TRUE(bool(F)) << F.message();
  EXPECT_EQ(F->Type, service::MsgType::ShutdownRequest);
  EXPECT_TRUE(F->Payload.empty());
}

TEST(FramingTest, TruncationAtEveryByteFails) {
  std::vector<uint8_t> Bytes =
      service::encodeFrame(service::MsgType::RelinkRequest, samplePayload());
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    std::vector<uint8_t> Prefix(Bytes.begin(), Bytes.begin() + Len);
    EXPECT_FALSE(bool(service::decodeFrame(Prefix)))
        << "prefix of " << Len << " bytes decoded";
  }
}

TEST(FramingTest, TrailingJunkFails) {
  std::vector<uint8_t> Bytes =
      service::encodeFrame(service::MsgType::PingRequest, samplePayload());
  Bytes.push_back(0);
  EXPECT_FALSE(bool(service::decodeFrame(Bytes)));
}

TEST(FramingTest, GarbageHeadersFail) {
  std::vector<uint8_t> Good =
      service::encodeFrame(service::MsgType::PingRequest, {});

  std::vector<uint8_t> BadMagic = Good;
  BadMagic[0] ^= 0xFF;
  EXPECT_FALSE(bool(service::decodeFrame(BadMagic)));

  std::vector<uint8_t> BadVersion = Good;
  BadVersion[4] = 0x7F;
  EXPECT_FALSE(bool(service::decodeFrame(BadVersion)));

  std::vector<uint8_t> BadType = Good;
  BadType[6] = 99;
  EXPECT_FALSE(bool(service::decodeFrame(BadType)));

  // A length field announcing more than the hard payload cap must be
  // rejected on the header alone.
  std::vector<uint8_t> HugeLen = Good;
  for (int I = 0; I < 8; ++I)
    HugeLen[8 + I] = 0xFF;
  EXPECT_FALSE(bool(service::decodeFrame(HugeLen)));

  std::vector<uint8_t> AllZero(service::FrameHeaderSize, 0);
  EXPECT_FALSE(bool(service::decodeFrame(AllZero)));
}

TEST(FramingTest, RelinkRequestRoundTrip) {
  service::RelinkRequest Req;
  Req.Opts.Level = om::OmLevel::Full;
  Req.Opts.Reschedule = true;
  Req.Opts.AlignLoopTargets = true;
  Req.Opts.SortDataBySize = false;
  Req.Opts.Analysis = true;
  Req.Opts.Verify = true;
  Req.Opts.Jobs = 3;
  Req.Opts.MaxGatEntriesPerGroup = 512;
  Req.Opts.EntryName = "alt.main";
  Req.OutputPath = "/tmp/x.aaxe";
  Req.InputPaths = {"/tmp/a.aaxo", "/tmp/b.aaxo"};

  Result<service::RelinkRequest> D =
      service::decodeRelinkRequest(service::encodeRelinkRequest(Req));
  ASSERT_TRUE(bool(D)) << D.message();
  EXPECT_EQ(D->Opts.Level, Req.Opts.Level);
  EXPECT_EQ(D->Opts.Reschedule, true);
  EXPECT_EQ(D->Opts.SortDataBySize, false);
  EXPECT_EQ(D->Opts.Analysis, true);
  EXPECT_EQ(D->Opts.Jobs, 3u);
  EXPECT_EQ(D->Opts.MaxGatEntriesPerGroup, 512u);
  EXPECT_EQ(D->Opts.EntryName, "alt.main");
  EXPECT_EQ(D->OutputPath, Req.OutputPath);
  EXPECT_EQ(D->InputPaths, Req.InputPaths);
  EXPECT_EQ(service::optionsKey(D->Opts), service::optionsKey(Req.Opts));
}

TEST(FramingTest, RelinkRequestGarbageFails) {
  EXPECT_FALSE(bool(service::decodeRelinkRequest({})));
  EXPECT_FALSE(bool(service::decodeRelinkRequest({1, 2, 3})));
  // A valid encoding with a byte chopped off or appended must fail too.
  service::RelinkRequest Req;
  Req.OutputPath = "/tmp/x.aaxe";
  Req.InputPaths = {"/tmp/a.aaxo"};
  std::vector<uint8_t> Enc = service::encodeRelinkRequest(Req);
  std::vector<uint8_t> Short(Enc.begin(), Enc.end() - 1);
  EXPECT_FALSE(bool(service::decodeRelinkRequest(Short)));
  Enc.push_back(0);
  EXPECT_FALSE(bool(service::decodeRelinkRequest(Enc)));
}

TEST(FramingTest, ResponseRoundTrip) {
  service::Response R;
  R.Status = 1;
  R.Message = "boom";
  R.Warm = true;
  R.ModulesTotal = 9;
  R.ModulesReparsed = 1;
  R.ProcsTotal = 80;
  R.ProcsRelifted = 20;
  R.SummaryRoundHits = 958;
  R.SummaryRoundMisses = 2;
  R.Micros = 10200;
  Result<service::Response> D =
      service::decodeResponse(service::encodeResponse(R));
  ASSERT_TRUE(bool(D)) << D.message();
  EXPECT_EQ(D->Status, 1);
  EXPECT_EQ(D->Message, "boom");
  EXPECT_EQ(D->Warm, true);
  EXPECT_EQ(D->ModulesTotal, 9u);
  EXPECT_EQ(D->SummaryRoundHits, 958u);
  EXPECT_EQ(D->Micros, 10200u);
}

TEST(FramingTest, OptionsKeySeparatesOptionSets) {
  om::OmOptions A, B;
  EXPECT_EQ(service::optionsKey(A), service::optionsKey(B));
  B.Analysis = true;
  EXPECT_NE(service::optionsKey(A), service::optionsKey(B));
  B = A;
  B.MaxGatEntriesPerGroup = 64;
  EXPECT_NE(service::optionsKey(A), service::optionsKey(B));
  B = A;
  B.EntryName = "other.main";
  EXPECT_NE(service::optionsKey(A), service::optionsKey(B));
  // Lint flags ride the wire (bits 6/7) and must split the key, or a warm
  // daemon could serve stale (or missing) diagnostics.
  B = A;
  B.Lint = true;
  EXPECT_NE(service::optionsKey(A), service::optionsKey(B));
  B.LintExplain = true;
  EXPECT_NE(service::optionsKey(A),
            service::optionsKey(B)); // both bits distinct
  om::OmOptions C = A;
  C.Lint = true;
  EXPECT_NE(service::optionsKey(B), service::optionsKey(C));
}

//===----------------------------------------------------------------------===//
// IncrementalLinker: warm vs cold byte identity
//===----------------------------------------------------------------------===//

/// From-scratch link of serialized modules — the byte-identity oracle.
std::vector<uint8_t> coldLink(const std::vector<std::vector<uint8_t>> &Mods,
                              const om::OmOptions &Opts) {
  std::vector<obj::ObjectFile> Objs;
  for (const std::vector<uint8_t> &B : Mods) {
    Result<obj::ObjectFile> O = obj::ObjectFile::deserialize(B);
    EXPECT_TRUE(bool(O)) << O.message();
    Objs.push_back(O.take());
  }
  Result<om::OmResult> R = om::optimize(Objs, Opts);
  EXPECT_TRUE(bool(R)) << R.message();
  return R->Image.serialize();
}

/// Perturbs one module near \p Idx (rotating past modules with no
/// eligible site) and returns the index actually edited.
size_t editOneModule(std::vector<std::vector<uint8_t>> &Mods, size_t Idx,
                     uint64_t Seed) {
  for (size_t Tried = 0; Tried < Mods.size(); ++Tried) {
    size_t I = (Idx + Tried) % Mods.size();
    Result<obj::ObjectFile> O = obj::ObjectFile::deserialize(Mods[I]);
    EXPECT_TRUE(bool(O)) << O.message();
    if (!megagen::perturbModule(*O, Seed))
      continue;
    Mods[I] = O->serialize();
    return I;
  }
  ADD_FAILURE() << "no module has a perturbable site";
  return 0;
}

std::vector<std::vector<uint8_t>> workloadModules(const std::string &Name) {
  Result<wl::BuiltWorkload> W = wl::buildWorkload(Name);
  EXPECT_TRUE(bool(W)) << W.message();
  std::vector<std::vector<uint8_t>> Mods;
  for (const obj::ObjectFile &O : W->linkSet(wl::CompileMode::Each))
    Mods.push_back(O.serialize());
  return Mods;
}

/// Cold link, then \p Edits perturb+relink rounds, asserting byte
/// identity against a from-scratch link after every warm relink.
void checkEditStream(const std::string &Name,
                     std::vector<std::vector<uint8_t>> Mods,
                     const om::OmOptions &Opts, unsigned Edits,
                     uint64_t Seed) {
  om::IncrementalLinker L(Opts);
  Result<om::RelinkResult> R = L.relink(Mods);
  ASSERT_TRUE(bool(R)) << Name << ": " << R.message();
  EXPECT_FALSE(R->Stats.Warm) << Name;
  EXPECT_EQ(R->ImageBytes, coldLink(Mods, Opts)) << Name << ": cold";

  for (unsigned E = 0; E < Edits; ++E) {
    editOneModule(Mods, (E * 5 + 2) % Mods.size(), Seed + E);
    R = L.relink(Mods);
    ASSERT_TRUE(bool(R)) << Name << ": " << R.message();
    EXPECT_TRUE(R->Stats.Warm) << Name;
    EXPECT_EQ(R->Stats.ModulesReparsed, 1u) << Name;
    EXPECT_LT(R->Stats.ModulesRelifted, R->Stats.ModulesTotal) << Name;
    EXPECT_EQ(R->ImageBytes, coldLink(Mods, Opts))
        << Name << ": warm image differs from from-scratch link at edit "
        << E;
  }
}

TEST(IncrementalLinkerTest, WarmEqualsColdOnEveryWorkload) {
  om::OmOptions Opts;
  Opts.Level = om::OmLevel::Full;
  Opts.Reschedule = true;
  Opts.AlignLoopTargets = true;
  for (const std::string &Name : wl::workloadNames())
    checkEditStream(Name, workloadModules(Name), Opts, /*Edits=*/2,
                    /*Seed=*/1000);
}

TEST(IncrementalLinkerTest, WarmEqualsColdWithAnalysis) {
  om::OmOptions Opts;
  Opts.Level = om::OmLevel::Full;
  Opts.Reschedule = true;
  Opts.AlignLoopTargets = true;
  Opts.Analysis = true;
  // A few representative workloads; the full sweep is the slow test and
  // the bench. alvinn is FP-loop-shaped, espresso call-heavy, li
  // interpreter-shaped.
  for (const char *Name : {"alvinn", "espresso", "li"})
    checkEditStream(Name, workloadModules(Name), Opts, /*Edits=*/2,
                    /*Seed=*/2000);
}

TEST(IncrementalLinkerTest, AnalysisCacheActuallyHits) {
  om::OmOptions Opts;
  Opts.Level = om::OmLevel::Full;
  Opts.Analysis = true;
  std::vector<std::vector<uint8_t>> Mods = workloadModules("ear");
  om::IncrementalLinker L(Opts);
  Result<om::RelinkResult> R = L.relink(Mods);
  ASSERT_TRUE(bool(R)) << R.message();
  EXPECT_GT(R->Stats.SummaryRoundMisses, 0u);

  editOneModule(Mods, 0, 77);
  R = L.relink(Mods);
  ASSERT_TRUE(bool(R)) << R.message();
  EXPECT_TRUE(R->Stats.Warm);
  // A one-module edit must mostly hit: far more summaries are reused
  // than recomputed.
  EXPECT_GT(R->Stats.SummaryRoundHits, R->Stats.SummaryRoundMisses);
}

TEST(IncrementalLinkerTest, IdenticalInputsShortCircuit) {
  om::OmOptions Opts;
  Opts.Level = om::OmLevel::Full;
  std::vector<std::vector<uint8_t>> Mods = workloadModules("compress");
  om::IncrementalLinker L(Opts);
  Result<om::RelinkResult> First = L.relink(Mods);
  ASSERT_TRUE(bool(First)) << First.message();
  Result<om::RelinkResult> Second = L.relink(Mods);
  ASSERT_TRUE(bool(Second)) << Second.message();
  EXPECT_TRUE(Second->Stats.InputUnchanged);
  EXPECT_EQ(Second->Stats.ModulesReparsed, 0u);
  EXPECT_EQ(Second->ImageBytes, First->ImageBytes);
}

TEST(IncrementalLinkerTest, CorruptModuleFailsAndStateSurvives) {
  om::OmOptions Opts;
  Opts.Level = om::OmLevel::Full;
  std::vector<std::vector<uint8_t>> Mods = workloadModules("eqntott");
  om::IncrementalLinker L(Opts);
  Result<om::RelinkResult> Good = L.relink(Mods);
  ASSERT_TRUE(bool(Good)) << Good.message();

  std::vector<std::vector<uint8_t>> Bad = Mods;
  Bad[1] = {1, 2, 3, 4};
  Result<om::RelinkResult> R = L.relink(Bad);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.message().find("module 1"), std::string::npos);

  // The linker must still serve the original inputs correctly.
  Result<om::RelinkResult> Again = L.relink(Mods);
  ASSERT_TRUE(bool(Again)) << Again.message();
  EXPECT_EQ(Again->ImageBytes, Good->ImageBytes);
}

TEST(IncrementalLinkerTest, BadOptionsSurfaceOnFirstRelink) {
  om::OmOptions Opts;
  Opts.Level = om::OmLevel::Simple;
  Opts.InstrumentProcedureCounts = true; // requires OM-full
  om::IncrementalLinker L(Opts);
  Result<om::RelinkResult> R = L.relink(workloadModules("sc"));
  EXPECT_FALSE(bool(R));
}

TEST(IncrementalLinkerTest, HostileJobCountIsRefusedBeforeAnyPool) {
  // A well-formed frame asking for UINT32_MAX workers with the serial
  // fallback off decodes (the count is a plain u32), and the relink the
  // daemon runs for it must fail on the options, not build the pool.
  service::RelinkRequest Req;
  Req.Opts.Level = om::OmLevel::Full;
  Req.Opts.Jobs = UINT32_MAX;
  Req.Opts.SerialFallbackInsts = 0;
  Req.OutputPath = "out.aaxe";
  Req.InputPaths = {"a.aaxo"};
  Result<service::RelinkRequest> Back =
      service::decodeRelinkRequest(service::encodeRelinkRequest(Req));
  ASSERT_TRUE(bool(Back)) << Back.message();
  EXPECT_EQ(Back->Opts.Jobs, UINT32_MAX);
  om::IncrementalLinker L(Back->Opts);
  Result<om::RelinkResult> R = L.relink(workloadModules("sc"));
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.message(), "job count 4294967295 exceeds the limit of 256");
}

//===----------------------------------------------------------------------===//
// Daemon + Client over a real socket
//===----------------------------------------------------------------------===//

class DaemonTest : public ::testing::Test {
protected:
  void SetUp() override {
    // sun_path is ~108 bytes; TempDir() is /tmp-ish so this stays short.
    Dir = ::testing::TempDir() + "om64_svc_XXXXXX";
    ASSERT_NE(mkdtemp(Dir.data()), nullptr);
    Socket = Dir + "/d.sock";
  }

  void startDaemon(service::DaemonOptions O) {
    O.SocketPath = Socket;
    D = std::make_unique<service::Daemon>(std::move(O));
    ASSERT_FALSE(bool(D->start()));
    Runner = std::thread([this] { RunError = D->run(); });
  }

  void TearDown() override {
    if (Runner.joinable()) {
      D->requestStop();
      Runner.join();
    }
    EXPECT_FALSE(bool(RunError)) << RunError.message();
    // A failing test keeps its directory for inspection.
    if (!HasFailure()) {
      std::error_code EC;
      std::filesystem::remove_all(Dir, EC);
    }
  }

  std::string Dir, Socket;
  std::unique_ptr<service::Daemon> D;
  std::thread Runner;
  Error RunError;
};

TEST_F(DaemonTest, PingAndShutdown) {
  startDaemon({});
  Result<service::Response> R = service::requestPing(Socket);
  ASSERT_TRUE(bool(R)) << R.message();
  EXPECT_EQ(R->Status, 0);
  EXPECT_EQ(R->Message, "pong");

  R = service::requestShutdown(Socket);
  ASSERT_TRUE(bool(R)) << R.message();
  EXPECT_EQ(R->Status, 0);
  Runner.join();
  EXPECT_EQ(D->requestsServed(), 2u);
}

TEST_F(DaemonTest, ColdEditWarmRelinkByteIdentical) {
  // A small generated program on disk, like a compiler would leave it.
  megagen::MegaSpec Spec;
  Spec.Modules = 4;
  Spec.ProcsPerModule = 8;
  Spec.TargetInstructions = 4000;
  megagen::MegaProgram MP = megagen::generate(Spec);
  service::RelinkRequest Req;
  Req.Opts.Level = om::OmLevel::Full;
  Req.Opts.Reschedule = true;
  Req.Opts.AlignLoopTargets = true;
  Req.OutputPath = Dir + "/out.aaxe";
  for (size_t I = 0; I < MP.Objects.size(); ++I) {
    std::string Path = Dir + "/m" + std::to_string(I) + ".aaxo";
    ASSERT_FALSE(bool(writeFileBytes(Path, MP.Objects[I].serialize())));
    Req.InputPaths.push_back(Path);
  }
  auto refImage = [&] {
    std::vector<std::vector<uint8_t>> Mods;
    for (const std::string &P : Req.InputPaths) {
      Result<std::vector<uint8_t>> B = readFileBytes(P);
      EXPECT_TRUE(bool(B)) << B.message();
      Mods.push_back(B.take());
    }
    return coldLink(Mods, Req.Opts);
  };

  startDaemon({});

  Result<service::Response> R = service::requestRelink(Socket, Req);
  ASSERT_TRUE(bool(R)) << R.message();
  ASSERT_EQ(R->Status, 0) << R->Message;
  EXPECT_FALSE(R->Warm);
  EXPECT_EQ(R->ModulesTotal, 4u);
  EXPECT_EQ(R->ModulesReparsed, 4u);
  Result<std::vector<uint8_t>> Out = readFileBytes(Req.OutputPath);
  ASSERT_TRUE(bool(Out)) << Out.message();
  EXPECT_EQ(*Out, refImage());

  // Edit one module on disk; the warm relink must reparse exactly that
  // module and still match a from-scratch link of the edited tree.
  Result<std::vector<uint8_t>> ModBytes = readFileBytes(Req.InputPaths[2]);
  ASSERT_TRUE(bool(ModBytes)) << ModBytes.message();
  Result<obj::ObjectFile> Obj = obj::ObjectFile::deserialize(*ModBytes);
  ASSERT_TRUE(bool(Obj)) << Obj.message();
  ASSERT_TRUE(megagen::perturbModule(*Obj, 42));
  ASSERT_FALSE(
      bool(writeFileBytes(Req.InputPaths[2], Obj->serialize())));

  R = service::requestRelink(Socket, Req);
  ASSERT_TRUE(bool(R)) << R.message();
  ASSERT_EQ(R->Status, 0) << R->Message;
  EXPECT_TRUE(R->Warm);
  EXPECT_EQ(R->ModulesReparsed, 1u);
  Out = readFileBytes(Req.OutputPath);
  ASSERT_TRUE(bool(Out)) << Out.message();
  EXPECT_EQ(*Out, refImage());

  // Same bytes again: the no-op fast path, still the same image.
  R = service::requestRelink(Socket, Req);
  ASSERT_TRUE(bool(R)) << R.message();
  ASSERT_EQ(R->Status, 0) << R->Message;
  EXPECT_TRUE(R->InputUnchanged);
}

TEST_F(DaemonTest, LintOptionFlipForcesColdRestart) {
  // Warm state is keyed on the full option set; flipping --lint must not
  // reuse it — a lint-less warm answer would silently drop diagnostics.
  megagen::MegaSpec Spec;
  Spec.Modules = 3;
  Spec.ProcsPerModule = 6;
  Spec.TargetInstructions = 2000;
  megagen::MegaProgram MP = megagen::generate(Spec);
  service::RelinkRequest Req;
  Req.Opts.Level = om::OmLevel::Full;
  Req.OutputPath = Dir + "/out.aaxe";
  for (size_t I = 0; I < MP.Objects.size(); ++I) {
    std::string Path = Dir + "/m" + std::to_string(I) + ".aaxo";
    ASSERT_FALSE(bool(writeFileBytes(Path, MP.Objects[I].serialize())));
    Req.InputPaths.push_back(Path);
  }

  startDaemon({});

  Result<service::Response> R = service::requestRelink(Socket, Req);
  ASSERT_TRUE(bool(R)) << R.message();
  ASSERT_EQ(R->Status, 0) << R->Message;
  EXPECT_FALSE(R->Warm);

  // Unchanged options and inputs: warm.
  R = service::requestRelink(Socket, Req);
  ASSERT_TRUE(bool(R)) << R.message();
  ASSERT_EQ(R->Status, 0) << R->Message;
  EXPECT_TRUE(R->Warm);

  // --lint flipped on: a different configuration — cold restart.
  Req.Opts.Lint = true;
  R = service::requestRelink(Socket, Req);
  ASSERT_TRUE(bool(R)) << R.message();
  ASSERT_EQ(R->Status, 0) << R->Message;
  EXPECT_FALSE(R->Warm);

  // And flipping --explain on top is yet another configuration.
  Req.Opts.LintExplain = true;
  R = service::requestRelink(Socket, Req);
  ASSERT_TRUE(bool(R)) << R.message();
  ASSERT_EQ(R->Status, 0) << R->Message;
  EXPECT_FALSE(R->Warm);
}

TEST_F(DaemonTest, MissingInputIsARequestErrorNotACrash) {
  startDaemon({});
  service::RelinkRequest Req;
  Req.OutputPath = Dir + "/out.aaxe";
  Req.InputPaths = {Dir + "/nope.aaxo"};
  Result<service::Response> R = service::requestRelink(Socket, Req);
  ASSERT_TRUE(bool(R)) << R.message();
  EXPECT_NE(R->Status, 0);
  EXPECT_NE(R->Message.find("nope.aaxo"), std::string::npos);

  // The daemon survives and still answers.
  R = service::requestPing(Socket);
  ASSERT_TRUE(bool(R)) << R.message();
  EXPECT_EQ(R->Status, 0);
}

TEST_F(DaemonTest, MaxRequestsStopsTheLoop) {
  service::DaemonOptions O;
  O.MaxRequests = 1;
  startDaemon(std::move(O));
  Result<service::Response> R = service::requestPing(Socket);
  ASSERT_TRUE(bool(R)) << R.message();
  Runner.join();
  EXPECT_EQ(D->requestsServed(), 1u);
}

} // namespace
