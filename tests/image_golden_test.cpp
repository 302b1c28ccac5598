//===- tests/image_golden_test.cpp - Pinned unscheduled OM images ---------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the images OM writes without rescheduling, at every optimization
/// level, so a change to the lift, the call transforms or the address-load
/// decisions that every level shares cannot change them unnoticed.
/// (sched_golden_test pins the scheduled images.) Each entry is one
/// digest of the image folded with OM's deletion and conversion counters:
///
///   * "image/<workload>/<each|all>/<none|simple|full>": the OM image of a
///     workload linked at that level without --sched;
///   * "megagen/<shape>/<none|simple|full>": the image of a megagen
///     program at 8 modules and 60K instructions. The serial (-j1) and
///     parallel (-j4) links must both produce it.
///
/// The digests were recorded from the lift as it stood when its literal
/// table was an ordered map, so they also pin the dense table to that
/// output.
///
//===----------------------------------------------------------------------===//

#include "megagen/MegaGen.h"
#include "support/ContentHash.h"
#include "support/Format.h"

#include "TestUtil.h"

#include <map>

using namespace om64;

namespace {

/// Recorded digests, by entry name (see the file comment).
const std::map<std::string, uint64_t> &goldenDigests() {
  static const std::map<std::string, uint64_t> Golden = {
    {"image/alvinn/all/none", 0x46373cc779dfc496ull},
    {"image/alvinn/all/simple", 0xe003d8956810ee3cull},
    {"image/alvinn/all/full", 0x67f92ad92ed4212full},
    {"image/alvinn/each/none", 0x8dfff2540a7e5f8dull},
    {"image/alvinn/each/simple", 0xd71ff8c6bd324cc7ull},
    {"image/alvinn/each/full", 0x005d515377c495d5ull},
    {"image/compress/all/none", 0xf8e912cd6a925017ull},
    {"image/compress/all/simple", 0x51febe551751d55aull},
    {"image/compress/all/full", 0x8d81299646f5c553ull},
    {"image/compress/each/none", 0x28db8977882aa983ull},
    {"image/compress/each/simple", 0xda314e6ed1481621ull},
    {"image/compress/each/full", 0xd217e3d25e54f462ull},
    {"image/doduc/all/none", 0xf9409ece42e96bd9ull},
    {"image/doduc/all/simple", 0x51c80d3e278b3c58ull},
    {"image/doduc/all/full", 0x5a7cd1fd9a7bc97bull},
    {"image/doduc/each/none", 0x553b0eeaee5d1fc6ull},
    {"image/doduc/each/simple", 0x5ff929e2dfda86a0ull},
    {"image/doduc/each/full", 0xf612b8f532371144ull},
    {"image/ear/all/none", 0xd5982edbd62b7d08ull},
    {"image/ear/all/simple", 0x4e3faaedc6d092f9ull},
    {"image/ear/all/full", 0x142a7a6db0b493a2ull},
    {"image/ear/each/none", 0x29ce648c3aacda4full},
    {"image/ear/each/simple", 0x94eb5a32c1a1761full},
    {"image/ear/each/full", 0x96b0d872abb3e411ull},
    {"image/eqntott/all/none", 0xa7bee75f602cdaecull},
    {"image/eqntott/all/simple", 0x6a0ee086648a6ca3ull},
    {"image/eqntott/all/full", 0xe8780538c680502full},
    {"image/eqntott/each/none", 0xb542636e921b49caull},
    {"image/eqntott/each/simple", 0x28c82bcda3e8cbf5ull},
    {"image/eqntott/each/full", 0x573ea00afcf9c3e0ull},
    {"image/espresso/all/none", 0x8b32a19398dc0d6cull},
    {"image/espresso/all/simple", 0x72a6a6cda4d457dbull},
    {"image/espresso/all/full", 0xafb8c791e1140272ull},
    {"image/espresso/each/none", 0x101e5fcf8ddd8570ull},
    {"image/espresso/each/simple", 0xc515a453419f2f5dull},
    {"image/espresso/each/full", 0x516a527daf780912ull},
    {"image/fpppp/all/none", 0x3c5dbcd8c7331453ull},
    {"image/fpppp/all/simple", 0xd3cb2ea6b191fae1ull},
    {"image/fpppp/all/full", 0x7a2564250914f04eull},
    {"image/fpppp/each/none", 0x73a9efa7bd61735cull},
    {"image/fpppp/each/simple", 0x0cb361b09ed6e64cull},
    {"image/fpppp/each/full", 0x62c5e963d3f5c1bdull},
    {"image/hydro2d/all/none", 0xa4eb6389cab74e0bull},
    {"image/hydro2d/all/simple", 0xb648e64a3f55e772ull},
    {"image/hydro2d/all/full", 0xe804e87be0dad1a6ull},
    {"image/hydro2d/each/none", 0x8915ab10c4e17cffull},
    {"image/hydro2d/each/simple", 0xa0d71d72a67c2462ull},
    {"image/hydro2d/each/full", 0x3a8fd1d2a263d0eeull},
    {"image/li/all/none", 0xfd80f223f3ba12afull},
    {"image/li/all/simple", 0xc29de33caea80f60ull},
    {"image/li/all/full", 0x7348dcb0775c7fc6ull},
    {"image/li/each/none", 0x4496979daed91c8cull},
    {"image/li/each/simple", 0x85b4117a645c77e9ull},
    {"image/li/each/full", 0x39f59c6b7ce076b4ull},
    {"image/mdljdp2/all/none", 0x33a77a229c9bf353ull},
    {"image/mdljdp2/all/simple", 0x2f6ea1ba88795780ull},
    {"image/mdljdp2/all/full", 0x7ea2fa0a952dd51eull},
    {"image/mdljdp2/each/none", 0x17269bb4f116792cull},
    {"image/mdljdp2/each/simple", 0x08d36e20145743efull},
    {"image/mdljdp2/each/full", 0x165222133dc617a0ull},
    {"image/mdljsp2/all/none", 0x85151d3c3cc605d3ull},
    {"image/mdljsp2/all/simple", 0x2e08ff426afbe2d9ull},
    {"image/mdljsp2/all/full", 0x56d39851a7f0f456ull},
    {"image/mdljsp2/each/none", 0xe843304038bb29eeull},
    {"image/mdljsp2/each/simple", 0xff96c63799383d5bull},
    {"image/mdljsp2/each/full", 0xf4a800043c7d3201ull},
    {"image/nasa7/all/none", 0xee255811b035fcf9ull},
    {"image/nasa7/all/simple", 0x6deffe79b65c8e3bull},
    {"image/nasa7/all/full", 0x05c5c78ca1fc254eull},
    {"image/nasa7/each/none", 0x0986fb76a8bbf12bull},
    {"image/nasa7/each/simple", 0xe37672d084b63a1dull},
    {"image/nasa7/each/full", 0x46fa133aa3efb4a0ull},
    {"image/ora/all/none", 0xebc0e32efe831f49ull},
    {"image/ora/all/simple", 0x2715d018f2be8c04ull},
    {"image/ora/all/full", 0xeaeb25093f5fe44aull},
    {"image/ora/each/none", 0xb0587de4ea2f0b93ull},
    {"image/ora/each/simple", 0x00a5ca087420ff30ull},
    {"image/ora/each/full", 0xfe86a7f45e31c369ull},
    {"image/sc/all/none", 0x7ec7f7a3562508dfull},
    {"image/sc/all/simple", 0x257f6b260fa79abbull},
    {"image/sc/all/full", 0x48a78d85591deb75ull},
    {"image/sc/each/none", 0x84d2edacb94af0afull},
    {"image/sc/each/simple", 0x8633e5985cd6aa7full},
    {"image/sc/each/full", 0xb07dd35aee01bde7ull},
    {"image/spice/all/none", 0x65321f9a224e2dc7ull},
    {"image/spice/all/simple", 0x992bec2ac0e8486full},
    {"image/spice/all/full", 0xcc10362dd6c4abfdull},
    {"image/spice/each/none", 0x1b4cb043729d8f4aull},
    {"image/spice/each/simple", 0xe176150b40e0eca6ull},
    {"image/spice/each/full", 0xa15230b9fa650bb2ull},
    {"image/su2cor/all/none", 0xbb464a37577f0050ull},
    {"image/su2cor/all/simple", 0x1e48e0432ef2e700ull},
    {"image/su2cor/all/full", 0xddd1c68b2f4c6d91ull},
    {"image/su2cor/each/none", 0x450be3cae808a6b4ull},
    {"image/su2cor/each/simple", 0xd44fa358e4c0501bull},
    {"image/su2cor/each/full", 0x310d30d5f2d51021ull},
    {"image/swm256/all/none", 0x06fa55988fd99a31ull},
    {"image/swm256/all/simple", 0x972c439e2abfab23ull},
    {"image/swm256/all/full", 0x8d0ee2ba12ae1b40ull},
    {"image/swm256/each/none", 0x2224c7c15081b5d8ull},
    {"image/swm256/each/simple", 0x730d7069a932359aull},
    {"image/swm256/each/full", 0x6efa9d0f1d095050ull},
    {"image/tomcatv/all/none", 0x03e49e05c9b0796cull},
    {"image/tomcatv/all/simple", 0x206c63d01ec2add0ull},
    {"image/tomcatv/all/full", 0x54206d1fcd60a322ull},
    {"image/tomcatv/each/none", 0xe56d6be57e10350dull},
    {"image/tomcatv/each/simple", 0x31c1d9ab79565013ull},
    {"image/tomcatv/each/full", 0xbd0f009959ac6600ull},
    {"image/wave5/all/none", 0x568bb6ad16c19a33ull},
    {"image/wave5/all/simple", 0xdfecc9cc9307dcf7ull},
    {"image/wave5/all/full", 0xdd8ba0bcdd5dcff2ull},
    {"image/wave5/each/none", 0x6b8c75b4ae5405ffull},
    {"image/wave5/each/simple", 0xe4d51a2e2b1c01adull},
    {"image/wave5/each/full", 0x22f77fa961264f77ull},
    {"megagen/deep-chains/none", 0xac2a94c782e55430ull},
    {"megagen/deep-chains/simple", 0xec8a52409f0d6854ull},
    {"megagen/deep-chains/full", 0xc59207f1c6d913ceull},
    {"megagen/hot-loops/none", 0x0b48613764c638f9ull},
    {"megagen/hot-loops/simple", 0x627ccf2facce0524ull},
    {"megagen/hot-loops/full", 0x66954746678b4105ull},
    {"megagen/mixed/none", 0x839d203d6eeecd6cull},
    {"megagen/mixed/simple", 0x425d4cb6548f1b3cull},
    {"megagen/mixed/full", 0xd16fef981e174b2dull},
    {"megagen/wide-fanout/none", 0x3792a61f9feaf441ull},
    {"megagen/wide-fanout/simple", 0x7f9ca0fa7a5f0ff6ull},
    {"megagen/wide-fanout/full", 0x9d92bdd90e01cc10ull},
  };
  return Golden;
}

void expectGolden(const std::string &Name, uint64_t D) {
  const std::string Entry =
      formatString("{\"%s\", %sull}", Name.c_str(), formatHex64(D).c_str());
  auto It = goldenDigests().find(Name);
  ASSERT_NE(It, goldenDigests().end()) << "no recorded digest: " << Entry;
  EXPECT_EQ(D, It->second) << "image changed: " << Entry;
}

uint64_t digestOf(const om::OmResult &R) {
  Hasher H;
  H.addU64(hashBytes(R.Image.serialize()));
  H.addU64(R.Stats.InstructionsNullified);
  H.addU64(R.Stats.InstructionsDeleted);
  H.addU64(R.Stats.AddressLoadsConverted);
  H.addU64(R.Stats.AddressLoadsNullified);
  H.addU64(R.Stats.JsrConvertedToBsr);
  H.addU64(R.Stats.BsrFallbackJsrs);
  return H.digest();
}

struct Level {
  om::OmLevel L;
  const char *Name;
};
constexpr Level Levels[] = {{om::OmLevel::None, "none"},
                            {om::OmLevel::Simple, "simple"},
                            {om::OmLevel::Full, "full"}};

om::OmOptions plainOptions(om::OmLevel L) {
  om::OmOptions Opts;
  Opts.Level = L;
  Opts.Reschedule = false;
  return Opts;
}

TEST(ImageGoldenTest, WorkloadImagesAtEveryLevel) {
  for (const std::string &Name : wl::workloadNames()) {
    Result<wl::BuiltWorkload> W = wl::buildWorkload(Name, true);
    ASSERT_TRUE(bool(W)) << Name << ": " << W.message();
    for (wl::CompileMode Mode :
         {wl::CompileMode::Each, wl::CompileMode::All})
      for (const Level &Lv : Levels) {
        const std::string Entry =
            "image/" + Name +
            (Mode == wl::CompileMode::Each ? "/each/" : "/all/") + Lv.Name;
        Result<om::OmResult> R = wl::linkWithOm(*W, Mode, plainOptions(Lv.L));
        ASSERT_TRUE(bool(R)) << Entry << ": " << R.message();
        expectGolden(Entry, digestOf(*R));
      }
  }
}

TEST(ImageGoldenTest, MegagenShapesSerialAndParallel) {
  for (megagen::CallShape Shape :
       {megagen::CallShape::DeepChains, megagen::CallShape::WideFanout,
        megagen::CallShape::HotLoops, megagen::CallShape::Mixed}) {
    megagen::MegaSpec Spec;
    Spec.Seed = 21;
    Spec.Shape = Shape;
    Spec.Modules = 8;
    Spec.TargetInstructions = 60000;
    megagen::MegaProgram MP = megagen::generate(Spec);
    for (const Level &Lv : Levels)
      for (unsigned Jobs : {1u, 4u}) {
        om::OmOptions Opts = plainOptions(Lv.L);
        Opts.Jobs = Jobs;
        Opts.SerialFallbackInsts = 0;
        Result<om::OmResult> R = om::optimize(MP.Objects, Opts);
        const std::string Entry = std::string("megagen/") +
                                  megagen::shapeName(Shape) + "/" + Lv.Name;
        ASSERT_TRUE(bool(R)) << Entry << " -j" << Jobs << ": "
                             << R.message();
        expectGolden(Entry, digestOf(*R));
      }
  }
}

} // namespace
