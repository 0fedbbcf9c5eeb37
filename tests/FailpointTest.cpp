//===- tests/FailpointTest.cpp - Fault-injection framework tests ----------===//
///
/// Unit tests for the deterministic failpoint framework: disarmed sites are
/// inert, decisions are a pure function of (seed, site, evaluation index),
/// rates behave like rates, the RAII scope arms/disarms correctly, and the
/// `<site>=<ppm>` CLI parser accepts every site name and nothing malformed.
///
//===----------------------------------------------------------------------===//

#include "support/Failpoints.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

using namespace gold;

namespace {

std::vector<bool> decisions(Failpoint F, unsigned N) {
  std::vector<bool> Out;
  Out.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Out.push_back(failpoint(F));
  return Out;
}

} // namespace

TEST(FailpointTest, DisarmedIsInert) {
  ASSERT_FALSE(Failpoints::armed());
  for (unsigned I = 0; I != 1000; ++I)
    EXPECT_FALSE(failpoint(Failpoint::EngineCellAlloc));
  // Disarmed evaluations do not even touch the counters.
  EXPECT_EQ(Failpoints::instance().evaluations(Failpoint::EngineCellAlloc),
            0u);
}

TEST(FailpointTest, ScopeArmsAndDisarms) {
  ASSERT_FALSE(Failpoints::armed());
  {
    FailpointScope Scope(FailpointConfig{});
    EXPECT_TRUE(Failpoints::armed());
  }
  EXPECT_FALSE(Failpoints::armed());
}

TEST(FailpointTest, ZeroRateNeverFiresButCounts) {
  FailpointConfig C;
  FailpointScope Scope(C);
  for (unsigned I = 0; I != 500; ++I)
    EXPECT_FALSE(failpoint(Failpoint::StmLockConflict));
  EXPECT_EQ(Failpoints::instance().evaluations(Failpoint::StmLockConflict),
            500u);
  EXPECT_EQ(Failpoints::instance().fires(Failpoint::StmLockConflict), 0u);
}

TEST(FailpointTest, FullRateAlwaysFires) {
  FailpointConfig C;
  C.rate(Failpoint::EngineInfoAlloc, 1000000);
  FailpointScope Scope(C);
  for (unsigned I = 0; I != 200; ++I)
    EXPECT_TRUE(failpoint(Failpoint::EngineInfoAlloc));
  EXPECT_EQ(Failpoints::instance().fires(Failpoint::EngineInfoAlloc), 200u);
}

TEST(FailpointTest, SameSeedSameDecisions) {
  FailpointConfig C;
  C.Seed = 1234;
  C.rate(Failpoint::EngineCellAlloc, 100000); // 10%
  std::vector<bool> First, Second;
  {
    FailpointScope Scope(C);
    First = decisions(Failpoint::EngineCellAlloc, 2000);
  }
  {
    FailpointScope Scope(C);
    Second = decisions(Failpoint::EngineCellAlloc, 2000);
  }
  EXPECT_EQ(First, Second);
}

TEST(FailpointTest, DifferentSeedsDiffer) {
  FailpointConfig A, B;
  A.Seed = 1;
  B.Seed = 2;
  A.rate(Failpoint::EngineCellAlloc, 100000);
  B.rate(Failpoint::EngineCellAlloc, 100000);
  std::vector<bool> First, Second;
  {
    FailpointScope Scope(A);
    First = decisions(Failpoint::EngineCellAlloc, 2000);
  }
  {
    FailpointScope Scope(B);
    Second = decisions(Failpoint::EngineCellAlloc, 2000);
  }
  EXPECT_NE(First, Second);
}

TEST(FailpointTest, SeedsSelectIndependentStreams) {
  // Index of the first firing evaluation of net-conn-hang at 1000 ppm for
  // seeds 1-16. A hash that only XOR-permutes the evaluation index by the
  // seed keeps all sixteen inside one aligned 32-wide block, so a test that
  // evaluates a rare site fewer times than that block's start never sees it
  // fire, whichever seed it picks.
  uint64_t Min = ~0ull, Max = 0;
  for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
    FailpointConfig C;
    C.Seed = Seed;
    C.rate(Failpoint::NetConnHang, 1000);
    FailpointScope Scope(C);
    uint64_t First = 0;
    while (!failpoint(Failpoint::NetConnHang))
      ++First;
    Min = std::min(Min, First);
    Max = std::max(Max, First);
  }
  EXPECT_GE(Max - Min, 32u) << "first fires all in [" << Min << ", " << Max
                            << "]";
}

TEST(FailpointTest, SitesAreIndependent) {
  FailpointConfig C;
  C.Seed = 7;
  C.rate(Failpoint::EngineCellAlloc, 100000)
      .rate(Failpoint::EngineInfoAlloc, 100000);
  FailpointScope Scope(C);
  std::vector<bool> A = decisions(Failpoint::EngineCellAlloc, 2000);
  std::vector<bool> B = decisions(Failpoint::EngineInfoAlloc, 2000);
  EXPECT_NE(A, B); // same seed and rate, different site hash
}

TEST(FailpointTest, RateIsApproximatelyHonored) {
  FailpointConfig C;
  C.Seed = 99;
  C.rate(Failpoint::VmPreempt, 100000); // 10%
  FailpointScope Scope(C);
  unsigned Fired = 0;
  for (unsigned I = 0; I != 20000; ++I)
    Fired += failpoint(Failpoint::VmPreempt) ? 1 : 0;
  // Deterministic given the seed; generous bounds document intent.
  EXPECT_GT(Fired, 20000u * 8 / 100);
  EXPECT_LT(Fired, 20000u * 12 / 100);
}

TEST(FailpointTest, ArmResetsCounters) {
  FailpointConfig C;
  C.rate(Failpoint::EngineGcStall, 1000000);
  {
    FailpointScope Scope(C);
    (void)failpoint(Failpoint::EngineGcStall);
  }
  EXPECT_EQ(Failpoints::instance().fires(Failpoint::EngineGcStall), 1u);
  {
    FailpointScope Scope(C); // arm() zeroes the counters
    EXPECT_EQ(Failpoints::instance().fires(Failpoint::EngineGcStall), 0u);
  }
}

TEST(FailpointTest, NamesAreStableAndUnique) {
  std::set<std::string> Names;
  for (unsigned I = 0; I != NumFailpoints; ++I) {
    const char *N = failpointName(static_cast<Failpoint>(I));
    ASSERT_NE(N, nullptr);
    EXPECT_STRNE(N, "?");
    Names.insert(N);
  }
  EXPECT_EQ(Names.size(), NumFailpoints);
}

TEST(FailpointTest, EveryNameRoundTripsThroughTheArgParser) {
  for (unsigned I = 0; I != NumFailpoints; ++I) {
    Failpoint F = static_cast<Failpoint>(I);
    FailpointConfig C;
    std::string Arg = std::string(failpointName(F)) + "=" +
                      std::to_string(1000 + I);
    ASSERT_TRUE(parseFailpointArg(Arg.c_str(), C)) << Arg;
    for (unsigned J = 0; J != NumFailpoints; ++J)
      EXPECT_EQ(C.RatePpm[J], J == I ? 1000 + I : 0u) << Arg;
  }
  FailpointConfig C;
  EXPECT_TRUE(parseFailpointArg("net-client-drop=1000000", C));
  EXPECT_EQ(C.RatePpm[static_cast<unsigned>(Failpoint::NetClientDrop)],
            1000000u);
}

TEST(FailpointTest, ArgParserRejectsMalformedArguments) {
  for (const char *Bad :
       {"no-such-site=5", "net-client-drop", "net-client-drop=1000001",
        "=5", "net-client-drop=", "net-client-drop=5x"}) {
    FailpointConfig C;
    EXPECT_FALSE(parseFailpointArg(Bad, C)) << Bad;
    for (uint32_t R : C.RatePpm)
      EXPECT_EQ(R, 0u) << Bad;
  }
}
