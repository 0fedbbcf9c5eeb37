//===- tests/TxnSemanticsTest.cpp - Section 3 semantics variants ----------===//
///
/// The paper: "Other ways of specifying the interaction between strongly-
/// atomic transactions and the Java memory model can easily be
/// incorporated ... The algorithms and tools presented in this paper can
/// easily be adapted to such alternative interpretations." This suite
/// pins the three implemented interpretations with traces that tell them
/// apart, and differentially validates every precise detector against the
/// happens-before oracle under each interpretation.
///
//===----------------------------------------------------------------------===//

#include "detectors/GoldilocksDetectors.h"
#include "detectors/VectorClockDetector.h"
#include "event/RandomTrace.h"
#include "hb/HbOracle.h"

#include <gtest/gtest.h>

#include <set>

using namespace gold;

namespace {

constexpr TxnSyncSemantics AllSemantics[] = {
    TxnSyncSemantics::SharedVariable,
    TxnSyncSemantics::AtomicOrder,
    TxnSyncSemantics::WriterToReader,
};

size_t racesUnder(const Trace &T, TxnSyncSemantics S) {
  EngineConfig C;
  C.Semantics = S;
  GoldilocksDetector D(C);
  return D.runTrace(T).size();
}

size_t refRacesUnder(const Trace &T, TxnSyncSemantics S) {
  GoldilocksReference::Config C;
  C.Semantics = S;
  GoldilocksReferenceDetector D(C);
  return D.runTrace(T).size();
}

size_t vcRacesUnder(const Trace &T, TxnSyncSemantics S) {
  VectorClockDetector::Config C;
  C.Semantics = S;
  VectorClockDetector D(C);
  return D.runTrace(T).size();
}

/// T1 writes V plainly and commits a transaction on X; T2 commits a
/// *disjoint* transaction on Y, then reads V plainly. Only the atomic
/// order creates a T1-commit -> T2-commit edge.
Trace disjointCommitsTrace() {
  TraceBuilder B;
  B.write(1, 5, 0);
  B.commit(1, {}, {VarId{7, 0}});
  B.commit(2, {}, {VarId{8, 0}});
  B.read(2, 5, 0);
  return B.take();
}

/// T1 writes V plainly and commits a transaction that only *reads* X; T2
/// commits a transaction that also only reads X, then reads V plainly.
/// Shared-variable semantics orders the commits (common variable X);
/// writer-to-reader does not (nobody wrote X).
Trace readSharingCommitsTrace() {
  TraceBuilder B;
  B.write(1, 5, 0);
  B.commit(1, {VarId{7, 0}}, {});
  B.commit(2, {VarId{7, 0}}, {});
  B.read(2, 5, 0);
  return B.take();
}

/// T1 writes V plainly and commits a transaction *writing* X; T2 commits
/// a transaction *reading* X, then reads V plainly. A true dataflow edge:
/// every interpretation orders the commits.
Trace writerReaderCommitsTrace() {
  TraceBuilder B;
  B.write(1, 5, 0);
  B.commit(1, {}, {VarId{7, 0}});
  B.commit(2, {VarId{7, 0}}, {});
  B.read(2, 5, 0);
  return B.take();
}

} // namespace

TEST(TxnSemanticsTest, DisjointCommitsOnlyOrderedByAtomicOrder) {
  Trace T = disjointCommitsTrace();
  EXPECT_EQ(racesUnder(T, TxnSyncSemantics::SharedVariable), 1u);
  EXPECT_EQ(racesUnder(T, TxnSyncSemantics::AtomicOrder), 0u);
  EXPECT_EQ(racesUnder(T, TxnSyncSemantics::WriterToReader), 1u);
}

TEST(TxnSemanticsTest, ReadSharingDistinguishesWriterToReader) {
  Trace T = readSharingCommitsTrace();
  EXPECT_EQ(racesUnder(T, TxnSyncSemantics::SharedVariable), 0u);
  EXPECT_EQ(racesUnder(T, TxnSyncSemantics::AtomicOrder), 0u);
  EXPECT_EQ(racesUnder(T, TxnSyncSemantics::WriterToReader), 1u);
}

TEST(TxnSemanticsTest, TrueDataflowOrderedUnderAllInterpretations) {
  Trace T = writerReaderCommitsTrace();
  for (TxnSyncSemantics S : AllSemantics)
    EXPECT_EQ(racesUnder(T, S), 0u) << txnSemanticsName(S);
}

TEST(TxnSemanticsTest, OracleAgreesOnTheDistinguishingTraces) {
  // The engine, the reference algorithm and the vector-clock detector all
  // report the oracle's race count on each trace, under every semantics.
  for (TxnSyncSemantics S : AllSemantics)
    for (const Trace &T : {disjointCommitsTrace(), readSharingCommitsTrace(),
                           writerReaderCommitsTrace()}) {
      size_t Want = RaceOracle(T, S).races().size();
      EXPECT_EQ(Want, racesUnder(T, S)) << txnSemanticsName(S);
      EXPECT_EQ(Want, refRacesUnder(T, S)) << txnSemanticsName(S);
      EXPECT_EQ(Want, vcRacesUnder(T, S)) << txnSemanticsName(S);
    }
}

TEST(TxnSemanticsTest, TransactionalPairsNeverRaceInAnyInterpretation) {
  // Two commits writing the same variable with no other synchronization:
  // unordered under writer-to-reader, but commit/commit pairs are exempt
  // from the extended-race definition in every variant.
  TraceBuilder B;
  B.commit(1, {}, {VarId{5, 0}});
  B.commit(2, {}, {VarId{5, 0}});
  Trace T = B.take();
  for (TxnSyncSemantics S : AllSemantics) {
    EXPECT_EQ(racesUnder(T, S), 0u) << txnSemanticsName(S);
    EXPECT_EQ(RaceOracle(T, S).races().size(), 0u) << txnSemanticsName(S);
  }
}

namespace {

class TxnSemanticsDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

std::set<VarId> varSet(const std::vector<RaceReport> &Races) {
  std::set<VarId> Out;
  for (const RaceReport &R : Races)
    Out.insert(R.Var);
  return Out;
}

} // namespace

TEST_P(TxnSemanticsDifferentialTest, DetectorsMatchOracleUnderEachVariant) {
  RandomTraceParams P;
  P.Seed = GetParam() * 13 + 3;
  P.NumThreads = 3 + static_cast<ThreadId>(P.Seed % 3);
  P.NumObjects = 3;
  P.DataFields = 2;
  P.StepsPerThread = 50;
  P.WBeginTxn = 3; // transaction-heavy: the variants must matter
  Trace T = generateRandomTrace(P);

  for (TxnSyncSemantics S : AllSemantics) {
    RaceOracle Oracle(T, S);
    std::set<VarId> Expected(Oracle.racyVars().begin(),
                             Oracle.racyVars().end());

    EngineConfig EC;
    EC.Semantics = S;
    GoldilocksDetector Engine(EC);
    EXPECT_EQ(varSet(Engine.runTrace(T)), Expected)
        << "engine, " << txnSemanticsName(S) << ", seed " << P.Seed;

    GoldilocksReference::Config RC;
    RC.Semantics = S;
    GoldilocksReferenceDetector Ref(RC);
    EXPECT_EQ(varSet(Ref.runTrace(T)), Expected)
        << "reference, " << txnSemanticsName(S) << ", seed " << P.Seed;

    VectorClockDetector::Config VC;
    VC.Semantics = S;
    VectorClockDetector Vc(VC);
    EXPECT_EQ(varSet(Vc.runTrace(T)), Expected)
        << "vector clock, " << txnSemanticsName(S) << ", seed " << P.Seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TxnSemanticsDifferentialTest,
                         ::testing::Range<uint64_t>(1, 21));
