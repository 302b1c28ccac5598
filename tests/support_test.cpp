//===- tests/support_test.cpp - Support-library unit tests ----------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/ByteStream.h"
#include "support/ContentHash.h"
#include "support/Diagnostics.h"
#include "support/FileIO.h"
#include "support/Format.h"
#include "support/Profile.h"
#include "support/Random.h"
#include "support/Result.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <numeric>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace om64;

namespace {

TEST(FormatTest, Basic) {
  EXPECT_EQ(formatString("%d + %d = %s", 2, 3, "five"), "2 + 3 = five");
  EXPECT_EQ(formatString("empty"), "empty");
  EXPECT_EQ(formatHex64(0x120000040ull), "0x0000000120000040");
}

TEST(FormatTest, Padding) {
  EXPECT_EQ(padRight("ab", 5), "ab   ");
  EXPECT_EQ(padLeft("ab", 5), "   ab");
  EXPECT_EQ(padRight("abcdef", 3), "abcdef");
}

TEST(FormatTest, Split) {
  auto F = splitString("a,b,,c", ',');
  ASSERT_EQ(F.size(), 4u);
  EXPECT_EQ(F[0], "a");
  EXPECT_EQ(F[2], "");
  EXPECT_EQ(F[3], "c");
  EXPECT_EQ(splitString("", ',').size(), 1u);
}

TEST(ByteStreamTest, ScalarRoundTrip) {
  ByteWriter W;
  W.writeU8(0xAB);
  W.writeU16(0xBEEF);
  W.writeU32(0xDEADBEEF);
  W.writeU64(0x0123456789ABCDEFull);
  W.writeI64(-42);
  W.writeString("hello");
  W.writeBlob({1, 2, 3});

  ByteReader R(W.bytes());
  EXPECT_EQ(R.readU8(), 0xAB);
  EXPECT_EQ(R.readU16(), 0xBEEF);
  EXPECT_EQ(R.readU32(), 0xDEADBEEFu);
  EXPECT_EQ(R.readU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(R.readI64(), -42);
  EXPECT_EQ(R.readString(), "hello");
  EXPECT_EQ(R.readBlob(), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_TRUE(R.atEnd());
  EXPECT_FALSE(R.hadError());
}

TEST(ByteStreamTest, TruncationSetsError) {
  ByteWriter W;
  W.writeU32(7);
  ByteReader R(W.bytes());
  R.readU64();
  EXPECT_TRUE(R.hadError());
  // Sticky: further reads keep failing and return zero.
  EXPECT_EQ(R.readU8(), 0);
  EXPECT_TRUE(R.hadError());
}

TEST(ByteStreamTest, PatchU32) {
  ByteWriter W;
  W.writeU32(0);
  W.writeU32(5);
  W.patchU32At(0, 0xCAFEBABE);
  ByteReader R(W.bytes());
  EXPECT_EQ(R.readU32(), 0xCAFEBABEu);
  EXPECT_EQ(R.readU32(), 5u);
}

TEST(RandomTest, DeterministicAcrossInstances) {
  DetRandom A(12345), B(12345);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RandomTest, KnownSequence) {
  // Pin the SplitMix64 outputs so workload generation can never silently
  // change.
  DetRandom R(1);
  EXPECT_EQ(R.next(), 0x910A2DEC89025CC1ull);
  EXPECT_EQ(R.next(), 0xBEEB8DA1658EEC67ull);
}

TEST(RandomTest, RangesRespectBounds) {
  DetRandom R(7);
  for (int I = 0; I < 1000; ++I) {
    EXPECT_LT(R.nextBelow(10), 10u);
    int64_t V = R.nextInRange(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
    double U = R.nextUnit();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
}

TEST(ResultTest, SuccessAndFailure) {
  Result<int> Ok(42);
  ASSERT_TRUE(bool(Ok));
  EXPECT_EQ(*Ok, 42);
  Result<int> Bad = Result<int>::failure("nope");
  ASSERT_FALSE(bool(Bad));
  EXPECT_EQ(Bad.message(), "nope");
  Error E = Bad.takeError();
  EXPECT_TRUE(bool(E));
  EXPECT_EQ(E.message(), "nope");
  EXPECT_FALSE(bool(Ok.takeError()));
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.threadCount(), 4u);
  constexpr size_t N = 10000;
  std::vector<std::atomic<unsigned>> Hits(N);
  Pool.parallelFor(N, [&](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(Hits[I].load(), 1u) << "index " << I;
}

TEST(ThreadPoolTest, PerIndexSlotsReduceDeterministically) {
  // The discipline every OM stage relies on: bodies write only their own
  // slot, the caller reduces in index order.
  ThreadPool Pool(4);
  constexpr size_t N = 257;
  std::vector<uint64_t> Slot(N, 0);
  Pool.parallelFor(N, [&](size_t I) { Slot[I] = I * I; });
  uint64_t Sum = std::accumulate(Slot.begin(), Slot.end(), uint64_t(0));
  EXPECT_EQ(Sum, uint64_t(N - 1) * N * (2 * N - 1) / 6);
}

TEST(ThreadPoolTest, SerialPoolRunsInline) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.threadCount(), 1u);
  std::thread::id Caller = std::this_thread::get_id();
  size_t Count = 0;
  Pool.parallelFor(100, [&](size_t) {
    // Runs on the calling thread: plain increment is race-free.
    EXPECT_EQ(std::this_thread::get_id(), Caller);
    ++Count;
  });
  EXPECT_EQ(Count, 100u);
}

TEST(ThreadPoolTest, EmptyAndSingleRanges) {
  ThreadPool Pool(3);
  bool Ran = false;
  Pool.parallelFor(0, [&](size_t) { Ran = true; });
  EXPECT_FALSE(Ran);
  // A one-element range runs inline on the caller even with workers.
  std::thread::id Caller = std::this_thread::get_id();
  Pool.parallelFor(1, [&](size_t I) {
    EXPECT_EQ(I, 0u);
    EXPECT_EQ(std::this_thread::get_id(), Caller);
    Ran = true;
  });
  EXPECT_TRUE(Ran);
}

TEST(ThreadPoolTest, ReusableAcrossGenerations) {
  ThreadPool Pool(2);
  for (unsigned Round = 0; Round < 50; ++Round) {
    std::atomic<unsigned> Count{0};
    Pool.parallelFor(Round, [&](size_t) { Count.fetch_add(1); });
    EXPECT_EQ(Count.load(), Round);
  }
}

TEST(ThreadPoolTest, DefaultConcurrencyIsPositive) {
  EXPECT_GE(ThreadPool::defaultConcurrency(), 1u);
  ThreadPool Pool(0); // 0 = hardware concurrency
  EXPECT_GE(Pool.threadCount(), 1u);
}

TEST(DiagnosticsTest, AppendMergesEnginesInOrder) {
  DiagnosticEngine A;
  A.error("one", {1, 1}, "first");
  DiagnosticEngine B;
  B.warning("two", {2, 2}, "second");
  B.error("two", {3, 3}, "third");
  A.append(std::move(B));
  EXPECT_EQ(A.errorCount(), 2u);
  std::string Text = A.render();
  size_t First = Text.find("first");
  size_t Second = Text.find("second");
  size_t Third = Text.find("third");
  ASSERT_NE(First, std::string::npos);
  ASSERT_NE(Second, std::string::npos);
  ASSERT_NE(Third, std::string::npos);
  EXPECT_LT(First, Second);
  EXPECT_LT(Second, Third);
}

TEST(DiagnosticsTest, RenderingAndCounts) {
  DiagnosticEngine D;
  EXPECT_FALSE(D.hasErrors());
  D.warning("mod", {3, 7}, "looks odd");
  EXPECT_FALSE(D.hasErrors());
  D.error("mod", {4, 1}, "bad thing");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.errorCount(), 1u);
  std::string Text = D.render();
  EXPECT_NE(Text.find("mod:3:7: warning: looks odd"), std::string::npos);
  EXPECT_NE(Text.find("mod:4:1: error: bad thing"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Execution-profile (AAXP) round trip and rejection paths
//===----------------------------------------------------------------------===//

prof::Profile makeSampleProfile() {
  prof::Profile P;
  prof::ProcProfile Main;
  Main.Name = "t.main";
  Main.InstsExecuted = 1234;
  Main.Branches = {{100, 40}, {7, 7}, {0, 0}};
  prof::ProcProfile Helper;
  Helper.Name = "t.helper";
  Helper.InstsExecuted = 56;
  Helper.Branches = {{3, 1}};
  P.Procs = {Main, Helper};
  P.Edges = {{0, 1, 9}, {1, 1, 2}};
  return P;
}

TEST(ProfileTest, SerializeDeserializeRoundTrip) {
  prof::Profile P = makeSampleProfile();
  Result<prof::Profile> R = prof::Profile::deserialize(P.serialize());
  ASSERT_TRUE(bool(R)) << R.message();
  ASSERT_EQ(R->Procs.size(), 2u);
  EXPECT_EQ(R->Procs[0].Name, "t.main");
  EXPECT_EQ(R->Procs[0].InstsExecuted, 1234u);
  ASSERT_EQ(R->Procs[0].Branches.size(), 3u);
  EXPECT_EQ(R->Procs[0].Branches[0].Executed, 100u);
  EXPECT_EQ(R->Procs[0].Branches[0].Taken, 40u);
  EXPECT_EQ(R->Procs[1].Name, "t.helper");
  ASSERT_EQ(R->Edges.size(), 2u);
  EXPECT_EQ(R->Edges[0].Caller, 0u);
  EXPECT_EQ(R->Edges[0].Callee, 1u);
  EXPECT_EQ(R->Edges[0].Count, 9u);
  EXPECT_FALSE(R->empty());
  EXPECT_EQ(R->totalInstructions(), 1290u);
}

TEST(ProfileTest, EmptyProfileRoundTripsAndReportsEmpty) {
  prof::Profile P;
  EXPECT_TRUE(P.empty());
  Result<prof::Profile> R = prof::Profile::deserialize(P.serialize());
  ASSERT_TRUE(bool(R)) << R.message();
  EXPECT_TRUE(R->empty());
  EXPECT_EQ(R->totalInstructions(), 0u);
}

TEST(ProfileTest, RejectsBadMagic) {
  std::vector<uint8_t> Bytes = makeSampleProfile().serialize();
  Bytes[0] ^= 0xFF;
  Result<prof::Profile> R = prof::Profile::deserialize(Bytes);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.message().find("invalid profile"), std::string::npos);
  EXPECT_NE(R.message().find("bad magic"), std::string::npos);
}

TEST(ProfileTest, RejectsVersionMismatch) {
  std::vector<uint8_t> Bytes = makeSampleProfile().serialize();
  Bytes[4] = 99; // version word follows the 4-byte magic
  Result<prof::Profile> R = prof::Profile::deserialize(Bytes);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.message().find("version 99"), std::string::npos);
}

TEST(ProfileTest, RejectsTruncationAtEveryLength) {
  std::vector<uint8_t> Bytes = makeSampleProfile().serialize();
  // Every strict prefix must be rejected, never crash or silently parse.
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    std::vector<uint8_t> Prefix(Bytes.begin(), Bytes.begin() + Len);
    Result<prof::Profile> R = prof::Profile::deserialize(Prefix);
    EXPECT_FALSE(bool(R)) << "prefix of " << Len << " bytes parsed";
    if (!R) {
      EXPECT_NE(R.message().find("invalid profile"), std::string::npos);
    }
  }
}

TEST(ProfileTest, RejectsTrailingBytes) {
  std::vector<uint8_t> Bytes = makeSampleProfile().serialize();
  Bytes.push_back(0);
  Result<prof::Profile> R = prof::Profile::deserialize(Bytes);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.message().find("trailing"), std::string::npos);
}

TEST(ProfileTest, RejectsTakenExceedingExecuted) {
  prof::Profile P = makeSampleProfile();
  P.Procs[0].Branches[0] = {5, 6};
  Result<prof::Profile> R = prof::Profile::deserialize(P.serialize());
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.message().find("taken count"), std::string::npos);
}

TEST(ProfileTest, RejectsEdgeEndpointOutOfRange) {
  prof::Profile P = makeSampleProfile();
  P.Edges[0].Callee = 7;
  Result<prof::Profile> R = prof::Profile::deserialize(P.serialize());
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.message().find("out of range"), std::string::npos);
}

TEST(ParseUnsignedTest, AcceptsPlainDecimal) {
  Result<uint64_t> R = parseUnsigned("0");
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(*R, 0u);
  R = parseUnsigned("42");
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(*R, 42u);
  R = parseUnsigned("18446744073709551615"); // UINT64_MAX
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(*R, ~0ull);
}

TEST(ParseUnsignedTest, RejectsNonNumeric) {
  for (const char *Bad : {"", "abc", "4x", "-1", "+3", " 7", "7 ", "0x10"})
    EXPECT_FALSE(bool(parseUnsigned(Bad))) << Bad;
}

TEST(ParseUnsignedTest, RejectsOverflowAndMax) {
  // One past UINT64_MAX must fail, not wrap.
  EXPECT_FALSE(bool(parseUnsigned("18446744073709551616")));
  EXPECT_FALSE(bool(parseUnsigned("99999999999999999999999")));
  EXPECT_FALSE(bool(parseUnsigned("256", 255)));
  Result<uint64_t> R = parseUnsigned("255", 255);
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(*R, 255u);
}

TEST(ParseUnsignedTest, MessageQuotesInput) {
  Result<uint64_t> R = parseUnsigned("4x");
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.message().find("4x"), std::string::npos);
}

TEST(ContentHashTest, DeterministicAndOrderSensitive) {
  Hasher A, B;
  A.addU64(1);
  A.addU64(2);
  B.addU64(1);
  B.addU64(2);
  EXPECT_EQ(A.digest(), B.digest());
  Hasher C;
  C.addU64(2);
  C.addU64(1);
  EXPECT_NE(A.digest(), C.digest());
}

TEST(ContentHashTest, SingleBitSensitivity) {
  std::vector<uint8_t> Bytes(1027, 0xA5);
  uint64_t Base = hashBytes(Bytes);
  for (size_t I : {size_t(0), size_t(513), Bytes.size() - 1}) {
    Bytes[I] ^= 1;
    EXPECT_NE(hashBytes(Bytes), Base) << "flipped byte " << I;
    Bytes[I] ^= 1;
  }
  EXPECT_EQ(hashBytes(Bytes), Base);
}

TEST(ContentHashTest, LengthPrefixPreventsConcatAliasing) {
  Hasher A, B;
  A.addString("ab");
  A.addString("c");
  B.addString("a");
  B.addString("bc");
  EXPECT_NE(A.digest(), B.digest());
}

class AtomicWriteTest : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = ::testing::TempDir() + "om64_atomic_XXXXXX";
    ASSERT_NE(mkdtemp(Dir.data()), nullptr);
  }
  /// A failing test keeps its directory for inspection.
  void TearDown() override {
    if (!HasFailure()) {
      std::error_code EC;
      std::filesystem::remove_all(Dir, EC);
    }
  }
  /// Entries in Dir other than "." and "..".
  std::vector<std::string> entries() const {
    std::vector<std::string> Out;
    DIR *D = opendir(Dir.c_str());
    if (!D)
      return Out;
    while (dirent *E = readdir(D)) {
      std::string Name = E->d_name;
      if (Name != "." && Name != "..")
        Out.push_back(Name);
    }
    closedir(D);
    return Out;
  }
  std::string Dir;
};

TEST_F(AtomicWriteTest, WritesAndReplacesWithoutStrayTempFiles) {
  std::string Path = Dir + "/out.bin";
  std::vector<uint8_t> First = {1, 2, 3};
  ASSERT_FALSE(bool(writeFileBytes(Path, First)));
  Result<std::vector<uint8_t>> R = readFileBytes(Path);
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(*R, First);

  std::vector<uint8_t> Second(4096, 0x7E);
  ASSERT_FALSE(bool(writeFileBytes(Path, Second)));
  R = readFileBytes(Path);
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(*R, Second);

  // The temp file the write staged through must be gone either way.
  std::vector<std::string> Left = entries();
  ASSERT_EQ(Left.size(), 1u);
  EXPECT_EQ(Left[0], "out.bin");
}

TEST_F(AtomicWriteTest, FailureNamesThePathAndLeavesNoFile) {
  std::string Path = Dir + "/missing-subdir/out.bin";
  Error E = writeFileBytes(Path, {1});
  ASSERT_TRUE(bool(E));
  EXPECT_NE(E.message().find(Path), std::string::npos);
  EXPECT_EQ(entries().size(), 0u);
}

TEST_F(AtomicWriteTest, UnwritableDirectoryFailsCleanly) {
  if (::geteuid() == 0)
    GTEST_SKIP() << "root ignores directory permissions";
  ASSERT_EQ(chmod(Dir.c_str(), 0500), 0);
  Error E = writeFileBytes(Dir + "/out.bin", {1});
  chmod(Dir.c_str(), 0700);
  EXPECT_TRUE(bool(E));
  EXPECT_EQ(entries().size(), 0u);
}

} // namespace
