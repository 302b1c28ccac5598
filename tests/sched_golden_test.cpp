//===- tests/sched_golden_test.cpp - Pinned scheduler outputs -------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins everything the list scheduler writes, so a change to how it walks
/// regions or models dependences cannot change what it emits. Each entry
/// is one digest:
///
///   * "objects/<workload>/sched|nosched": the compiled objects of a
///     workload (every UserEach module, UserAll, and the Library), with the
///     compile-time scheduler on or off;
///   * "image/<workload>/<each|all>/<config>": the OM image of a workload,
///     linked OM-full with rescheduling and loop alignment, with and
///     without the analysis-driven deletions (whose memory-base classes the
///     rescheduler uses), folded with the freed-edge counter;
///   * "megagen/<shape>/j1|j4[+analysis]": the OM-full + sched + align
///     image of a megagen program at 8 modules and 60K instructions, with
///     and without the analysis, linked serially and on four workers.
///
/// The digests were recorded from the scheduler as it stood when the
/// codegen and OM region walks were separate loops over copied regions,
/// so they also pin the single walker to that output.
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
    {"objects/alvinn/sched", 0x14723b85a9798de6ull},
    {"image/alvinn/each/full+sched+align", 0x6f9aebff3579c123ull},
    {"image/alvinn/each/full+sched+align+analysis", 0x92188217098c46a4ull},
    {"image/alvinn/all/full+sched+align", 0x6f9aebff3579c123ull},
    {"image/alvinn/all/full+sched+align+analysis", 0x92188217098c46a4ull},
    {"objects/alvinn/nosched", 0x20667f663f7178aaull},
    {"objects/compress/sched", 0x095982b93bc6d875ull},
    {"image/compress/each/full+sched+align", 0x96043cf413d18417ull},
    {"image/compress/each/full+sched+align+analysis", 0x2c714412e8812165ull},
    {"image/compress/all/full+sched+align", 0x96043cf413d18417ull},
    {"image/compress/all/full+sched+align+analysis", 0x2c714412e8812165ull},
    {"objects/compress/nosched", 0xb5bc98c7bdd076eaull},
    {"objects/doduc/sched", 0xb3fb1be430a1206cull},
    {"image/doduc/each/full+sched+align", 0x240c987fb754090aull},
    {"image/doduc/each/full+sched+align+analysis", 0x6ec412b19949d1ddull},
    {"image/doduc/all/full+sched+align", 0x240c987fb754090aull},
    {"image/doduc/all/full+sched+align+analysis", 0x6ec412b19949d1ddull},
    {"objects/doduc/nosched", 0xa659b21f6e14a91dull},
    {"objects/ear/sched", 0x3e67fff25bf1f743ull},
    {"image/ear/each/full+sched+align", 0x06bafa00dc717f57ull},
    {"image/ear/each/full+sched+align+analysis", 0x46c30f1f1fcbd5a8ull},
    {"image/ear/all/full+sched+align", 0x06bafa00dc717f57ull},
    {"image/ear/all/full+sched+align+analysis", 0x46c30f1f1fcbd5a8ull},
    {"objects/ear/nosched", 0x74d5817b48fbff09ull},
    {"objects/eqntott/sched", 0x82eab018ba355aa8ull},
    {"image/eqntott/each/full+sched+align", 0xaaa4e0840113aae5ull},
    {"image/eqntott/each/full+sched+align+analysis", 0x20eff317623647faull},
    {"image/eqntott/all/full+sched+align", 0xaaa4e0840113aae5ull},
    {"image/eqntott/all/full+sched+align+analysis", 0x20eff317623647faull},
    {"objects/eqntott/nosched", 0xf40b13368aecd2dbull},
    {"objects/espresso/sched", 0x6bacf125f4650063ull},
    {"image/espresso/each/full+sched+align", 0x476d703c36298272ull},
    {"image/espresso/each/full+sched+align+analysis", 0x8ab19bea990e0c65ull},
    {"image/espresso/all/full+sched+align", 0xb130707f0698a5a8ull},
    {"image/espresso/all/full+sched+align+analysis", 0x5d4e5eb2a19a2813ull},
    {"objects/espresso/nosched", 0x8ca80b96a6109562ull},
    {"objects/fpppp/sched", 0x474218e91a63990cull},
    {"image/fpppp/each/full+sched+align", 0x388b2777aa47a029ull},
    {"image/fpppp/each/full+sched+align+analysis", 0xfb268c6721d10a2eull},
    {"image/fpppp/all/full+sched+align", 0x388b2777aa47a029ull},
    {"image/fpppp/all/full+sched+align+analysis", 0xfb268c6721d10a2eull},
    {"objects/fpppp/nosched", 0xbb12f6bff8f7b78cull},
    {"objects/hydro2d/sched", 0x284d333b9122da8eull},
    {"image/hydro2d/each/full+sched+align", 0x1bee3c63fdc0e604ull},
    {"image/hydro2d/each/full+sched+align+analysis", 0xd50ebfa4ad97b7f7ull},
    {"image/hydro2d/all/full+sched+align", 0x1bee3c63fdc0e604ull},
    {"image/hydro2d/all/full+sched+align+analysis", 0xd50ebfa4ad97b7f7ull},
    {"objects/hydro2d/nosched", 0xb2986ecb9e88418aull},
    {"objects/li/sched", 0x076ca61432d5d650ull},
    {"image/li/each/full+sched+align", 0x0b27fb5af8b85433ull},
    {"image/li/each/full+sched+align+analysis", 0x447aa53dedb0e493ull},
    {"image/li/all/full+sched+align", 0x0b27fb5af8b85433ull},
    {"image/li/all/full+sched+align+analysis", 0x447aa53dedb0e493ull},
    {"objects/li/nosched", 0x8fc0f7fbf6de0b13ull},
    {"objects/mdljdp2/sched", 0x6cd0b8ef0724eb15ull},
    {"image/mdljdp2/each/full+sched+align", 0xe2639703cd516ec9ull},
    {"image/mdljdp2/each/full+sched+align+analysis", 0x90c4a222b759f754ull},
    {"image/mdljdp2/all/full+sched+align", 0xe2639703cd516ec9ull},
    {"image/mdljdp2/all/full+sched+align+analysis", 0x90c4a222b759f754ull},
    {"objects/mdljdp2/nosched", 0x3f289f1e2267d9d3ull},
    {"objects/mdljsp2/sched", 0x4f4706d2aa1ebac0ull},
    {"image/mdljsp2/each/full+sched+align", 0x4e53edcb7b5692cbull},
    {"image/mdljsp2/each/full+sched+align+analysis", 0xe1c566737d9b181bull},
    {"image/mdljsp2/all/full+sched+align", 0x4e53edcb7b5692cbull},
    {"image/mdljsp2/all/full+sched+align+analysis", 0xe1c566737d9b181bull},
    {"objects/mdljsp2/nosched", 0xfe9fd160d3a3f3a0ull},
    {"objects/nasa7/sched", 0x4f0a8596eadca627ull},
    {"image/nasa7/each/full+sched+align", 0x6579aebf5e661d45ull},
    {"image/nasa7/each/full+sched+align+analysis", 0xcbd934d46274be05ull},
    {"image/nasa7/all/full+sched+align", 0x48fb3ee480358b84ull},
    {"image/nasa7/all/full+sched+align+analysis", 0xd243f790ab5a8ad9ull},
    {"objects/nasa7/nosched", 0xbdbceb28d194fbc8ull},
    {"objects/ora/sched", 0x7fca5716e6c86facull},
    {"image/ora/each/full+sched+align", 0x3e941804bb56f696ull},
    {"image/ora/each/full+sched+align+analysis", 0x250438a7c41cd1edull},
    {"image/ora/all/full+sched+align", 0x3e941804bb56f696ull},
    {"image/ora/all/full+sched+align+analysis", 0x250438a7c41cd1edull},
    {"objects/ora/nosched", 0xcc92b8caef3869e3ull},
    {"objects/sc/sched", 0x4e378198a02c2f5full},
    {"image/sc/each/full+sched+align", 0xa9aca4c806073b9full},
    {"image/sc/each/full+sched+align+analysis", 0x87cedab576efaddeull},
    {"image/sc/all/full+sched+align", 0xa9aca4c806073b9full},
    {"image/sc/all/full+sched+align+analysis", 0x87cedab576efaddeull},
    {"objects/sc/nosched", 0x9ddb6770177cc378ull},
    {"objects/spice/sched", 0x44a9b62f286581ecull},
    {"image/spice/each/full+sched+align", 0xd2cbf7d491591490ull},
    {"image/spice/each/full+sched+align+analysis", 0xa154cfc25e441021ull},
    {"image/spice/all/full+sched+align", 0xd2cbf7d491591490ull},
    {"image/spice/all/full+sched+align+analysis", 0xa154cfc25e441021ull},
    {"objects/spice/nosched", 0x2f0b2bd7a6ff2efcull},
    {"objects/su2cor/sched", 0x8c47a065cea8cc67ull},
    {"image/su2cor/each/full+sched+align", 0x8c52880f88b8a7dbull},
    {"image/su2cor/each/full+sched+align+analysis", 0xb046b3b1f46ff5faull},
    {"image/su2cor/all/full+sched+align", 0x8c52880f88b8a7dbull},
    {"image/su2cor/all/full+sched+align+analysis", 0xb046b3b1f46ff5faull},
    {"objects/su2cor/nosched", 0x2e258a87bae9dde3ull},
    {"objects/swm256/sched", 0xf5ca0168a4b63745ull},
    {"image/swm256/each/full+sched+align", 0x2c213bbbfce6b249ull},
    {"image/swm256/each/full+sched+align+analysis", 0x339987cc3b7ed5dfull},
    {"image/swm256/all/full+sched+align", 0x2c213bbbfce6b249ull},
    {"image/swm256/all/full+sched+align+analysis", 0x339987cc3b7ed5dfull},
    {"objects/swm256/nosched", 0xf93797e1a0dea850ull},
    {"objects/tomcatv/sched", 0xb14a2bfa6fdf5486ull},
    {"image/tomcatv/each/full+sched+align", 0x5cf5cc575a3452efull},
    {"image/tomcatv/each/full+sched+align+analysis", 0x542d46afda38b6bfull},
    {"image/tomcatv/all/full+sched+align", 0x04d1da0bdc29841bull},
    {"image/tomcatv/all/full+sched+align+analysis", 0x4a4234fcc57c691bull},
    {"objects/tomcatv/nosched", 0x8162965e16f83eb5ull},
    {"objects/wave5/sched", 0x300f3e5f6ffe9b62ull},
    {"image/wave5/each/full+sched+align", 0x76dd489e1832efb0ull},
    {"image/wave5/each/full+sched+align+analysis", 0x6f72f76ccabecba9ull},
    {"image/wave5/all/full+sched+align", 0x76dd489e1832efb0ull},
    {"image/wave5/all/full+sched+align+analysis", 0x6f72f76ccabecba9ull},
    {"objects/wave5/nosched", 0x7ad40a9379acfc38ull},
    {"megagen/deep-chains/j1", 0xa87a77f2a6c86875ull},
    {"megagen/deep-chains/j4", 0xa87a77f2a6c86875ull},
    {"megagen/deep-chains/j1+analysis", 0xc1ec04da404762cdull},
    {"megagen/deep-chains/j4+analysis", 0xc1ec04da404762cdull},
    {"megagen/wide-fanout/j1", 0xad7b7dd5cf46068eull},
    {"megagen/wide-fanout/j4", 0xad7b7dd5cf46068eull},
    {"megagen/wide-fanout/j1+analysis", 0xe47ab73063001b9dull},
    {"megagen/wide-fanout/j4+analysis", 0xe47ab73063001b9dull},
    {"megagen/hot-loops/j1", 0xde73ce309b5e4b5bull},
    {"megagen/hot-loops/j4", 0xde73ce309b5e4b5bull},
    {"megagen/hot-loops/j1+analysis", 0xeb3722dac09ed1e6ull},
    {"megagen/hot-loops/j4+analysis", 0xeb3722dac09ed1e6ull},
    {"megagen/mixed/j1", 0x92a3c48e7d758e11ull},
    {"megagen/mixed/j4", 0x92a3c48e7d758e11ull},
    {"megagen/mixed/j1+analysis", 0x5ae8cc5a869bfcd9ull},
    {"megagen/mixed/j4+analysis", 0x5ae8cc5a869bfcd9ull},
  };
  return Golden;
}

void expectGolden(const std::string &Name, uint64_t D) {
  const std::string Entry =
      formatString("{\"%s\", %sull}", Name.c_str(), formatHex64(D).c_str());
  auto It = goldenDigests().find(Name);
  ASSERT_NE(It, goldenDigests().end()) << "no recorded digest: " << Entry;
  EXPECT_EQ(D, It->second) << "scheduler output changed: " << Entry;
}

uint64_t digestOf(const wl::BuiltWorkload &W) {
  Hasher H;
  auto addObject = [&H](const obj::ObjectFile &O) {
    H.addU64(hashBytes(O.serialize()));
  };
  for (const obj::ObjectFile &O : W.UserEach)
    addObject(O);
  addObject(W.UserAll);
  for (const obj::ObjectFile &O : W.Library)
    addObject(O);
  return H.digest();
}

uint64_t digestOf(const om::OmResult &R) {
  Hasher H;
  H.addU64(hashBytes(R.Image.serialize()));
  H.addU64(R.Stats.SchedMemDepsFreed);
  return H.digest();
}

om::OmOptions schedOptions(bool Analysis) {
  om::OmOptions Opts;
  Opts.Level = om::OmLevel::Full;
  Opts.Reschedule = true;
  Opts.AlignLoopTargets = true;
  Opts.Analysis = Analysis;
  return Opts;
}

TEST(SchedGoldenTest, WorkloadObjectsAndImages) {
  for (const std::string &Name : wl::workloadNames()) {
    for (bool SchedOn : {true, false}) {
      Result<wl::BuiltWorkload> W = wl::buildWorkload(Name, SchedOn);
      ASSERT_TRUE(bool(W)) << Name << ": " << W.message();
      expectGolden("objects/" + Name + (SchedOn ? "/sched" : "/nosched"),
                   digestOf(*W));
      if (!SchedOn)
        continue;
      for (wl::CompileMode Mode :
           {wl::CompileMode::Each, wl::CompileMode::All}) {
        const std::string Prefix =
            "image/" + Name +
            (Mode == wl::CompileMode::Each ? "/each/" : "/all/");
        for (bool Analysis : {false, true}) {
          Result<om::OmResult> R =
              wl::linkWithOm(*W, Mode, schedOptions(Analysis));
          ASSERT_TRUE(bool(R)) << Prefix << ": " << R.message();
          expectGolden(Prefix + (Analysis ? "full+sched+align+analysis"
                                          : "full+sched+align"),
                       digestOf(*R));
        }
      }
    }
  }
}

TEST(SchedGoldenTest, MegagenShapesSerialAndParallel) {
  for (megagen::CallShape Shape :
       {megagen::CallShape::DeepChains, megagen::CallShape::WideFanout,
        megagen::CallShape::HotLoops, megagen::CallShape::Mixed}) {
    megagen::MegaSpec Spec;
    Spec.Seed = 21;
    Spec.Shape = Shape;
    Spec.Modules = 8;
    Spec.TargetInstructions = 60000;
    megagen::MegaProgram MP = megagen::generate(Spec);
    for (bool Analysis : {false, true})
      for (unsigned Jobs : {1u, 4u}) {
        om::OmOptions Opts = schedOptions(Analysis);
        Opts.Jobs = Jobs;
        Opts.SerialFallbackInsts = 0;
        Result<om::OmResult> R = om::optimize(MP.Objects, Opts);
        const std::string Name =
            std::string("megagen/") + megagen::shapeName(Shape) + "/j" +
            std::to_string(Jobs) + (Analysis ? "+analysis" : "");
        ASSERT_TRUE(bool(R)) << Name << ": " << R.message();
        expectGolden(Name, digestOf(*R));
      }
  }
}

} // namespace
