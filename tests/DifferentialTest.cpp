//===- tests/DifferentialTest.cpp - Theorem 1 property tests --------------===//
///
/// Differential testing of every detector against the extended
/// happens-before oracle over randomly generated well-formed traces
/// (verdict machinery and seeded shapes from DifferentialHarness.h):
///
///  * Goldilocks (reference and engine, with several engine configurations)
///    must agree with the oracle exactly — Theorem 1 (sound and precise);
///  * the vector-clock baseline must also agree exactly;
///  * the reference and the engine must produce identical report sequences.
///
//===----------------------------------------------------------------------===//

#include "DifferentialHarness.h"

#include "detectors/Eraser.h"
#include "detectors/VectorClockDetector.h"

#include <set>

using namespace gold;
using namespace gold::difftest;

namespace {

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(DifferentialTest, AllPreciseDetectorsMatchOracle) {
  uint64_t Seed = GetParam();
  Trace T = generateRandomTrace(sweepParams(Seed));

  std::set<VarId> Expected = oracleVarSet(T);

  GoldilocksReferenceDetector Ref;
  auto RefRaces = Ref.runTrace(T);
  EXPECT_PRED_FORMAT2(sameVerdicts, Expected, racyVarSet(RefRaces))
      << "reference vs oracle, seed " << Seed;

  GoldilocksDetector Engine;
  auto EngineRaces = Engine.runTrace(T);
  EXPECT_PRED_FORMAT2(sameVerdicts, Expected, racyVarSet(EngineRaces))
      << "engine vs oracle, seed " << Seed;

  // The engine and the reference must agree access-by-access.
  ASSERT_EQ(EngineRaces.size(), RefRaces.size()) << "seed " << Seed;
  for (size_t I = 0; I != EngineRaces.size(); ++I) {
    EXPECT_EQ(EngineRaces[I].Var, RefRaces[I].Var) << "seed " << Seed;
    EXPECT_EQ(EngineRaces[I].Thread, RefRaces[I].Thread) << "seed " << Seed;
    EXPECT_EQ(EngineRaces[I].IsWrite, RefRaces[I].IsWrite)
        << "seed " << Seed;
  }

  VectorClockDetector Vc;
  EXPECT_PRED_FORMAT2(sameVerdicts, Expected, racyVarSet(Vc.runTrace(T)))
      << "vector clock vs oracle, seed " << Seed;
}

TEST_P(DifferentialTest, EngineConfigurationsAgree) {
  RandomTraceParams P;
  P.Seed = GetParam() * 77 + 5;
  P.NumThreads = 3;
  P.NumObjects = 3;
  P.StepsPerThread = 60;
  P.WBeginTxn = 1;
  Trace T = generateRandomTrace(P);

  GoldilocksDetector Baseline;
  std::vector<RaceReport> BaselineRaces = Baseline.runTrace(T);
  std::set<VarId> Expected = racyVarSet(BaselineRaces);

  // No short circuits at all.
  EngineConfig NoSc;
  NoSc.EnableXactShortCircuit = false;
  NoSc.EnableSameThreadShortCircuit = false;
  NoSc.EnableALockShortCircuit = false;
  NoSc.EnableFilteredWalk = false;
  GoldilocksDetector A(NoSc);
  EXPECT_PRED_FORMAT2(sameVerdicts, Expected, racyVarSet(A.runTrace(T)))
      << "no short circuits";

  // Aggressive garbage collection exercising partially-eager evaluation.
  EngineConfig SmallGc;
  SmallGc.GcThreshold = 24;
  SmallGc.TrimFraction = 0.5;
  GoldilocksDetector B(SmallGc);
  EXPECT_PRED_FORMAT2(sameVerdicts, Expected, racyVarSet(B.runTrace(T)))
      << "aggressive gc";
  EXPECT_LT(B.engine().eventListLength(), 200u);

  // Both, combined.
  EngineConfig Both = NoSc;
  Both.GcThreshold = 24;
  GoldilocksDetector C(Both);
  EXPECT_PRED_FORMAT2(sameVerdicts, Expected, racyVarSet(C.runTrace(T)))
      << "gc + no short circuits";

  // Repeat reports: a racy variable stays checked and may report again,
  // but each variable's first report is the one the baseline makes, in the
  // baseline's order.
  EngineConfig Repeat;
  Repeat.DisableVarAfterRace = false;
  GoldilocksDetector D(Repeat);
  std::vector<RaceReport> First;
  std::set<VarId> Seen;
  for (const RaceReport &R : D.runTrace(T))
    if (Seen.insert(R.Var).second)
      First.push_back(R);
  ASSERT_EQ(First.size(), BaselineRaces.size()) << "repeat reports";
  for (size_t I = 0; I != First.size(); ++I) {
    EXPECT_EQ(First[I].Var, BaselineRaces[I].Var) << "repeat reports";
    EXPECT_EQ(First[I].Thread, BaselineRaces[I].Thread) << "repeat reports";
    EXPECT_EQ(First[I].IsWrite, BaselineRaces[I].IsWrite) << "repeat reports";
  }
}

TEST_P(DifferentialTest, EraserIsImpreciseButCatchesUnprotectedConflicts) {
  // No exact containment holds for Eraser (it both over- and under-reports
  // relative to happens-before races); this documents that it stays within
  // sane bounds: it never reports a variable that only one thread touched.
  RandomTraceParams P;
  P.Seed = GetParam() * 131 + 17;
  Trace T = generateRandomTrace(P);
  EraserDetector E;
  auto Races = E.runTrace(T);
  for (const RaceReport &R : Races) {
    std::set<ThreadId> Writers;
    for (size_t I = 0; I != T.Actions.size(); ++I)
      if (T.accesses(I, R.Var))
        Writers.insert(T.Actions[I].Thread);
    EXPECT_GT(Writers.size(), 1u) << "seed " << P.Seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(1, 41));
