//===- tests/TraceTest.cpp - event model unit tests -----------------------===//

#include "event/PaperTraces.h"
#include "event/Trace.h"

#include <gtest/gtest.h>

using namespace gold;

TEST(VarIdTest, EqualityAndOrdering) {
  VarId A{1, 2}, B{1, 2}, C{1, 3}, D{2, 0};
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_LT(A, C);
  EXPECT_LT(C, D);
}

TEST(VarIdTest, KeyPacksBothComponents) {
  EXPECT_NE((VarId{1, 2}.key()), (VarId{2, 1}.key()));
  EXPECT_EQ((VarId{3, 4}.key()), (VarId{3, 4}.key()));
}

TEST(VarIdTest, Mix64IsSplitmix64) {
  // The first two outputs of splitmix64 seeded with 0. Variable hashing and
  // the service's shard routing both go through mix64, so a drift here
  // would silently move every object to another shard.
  EXPECT_EQ(mix64(0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(mix64(0x9e3779b97f4a7c15ull), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(VarIdHash()(VarId{3, 4}), mix64(VarId{3, 4}.key()));
}

TEST(VarIdTest, StrRendersLockField) {
  EXPECT_EQ((VarId{3, 1}).str(), "o3.f1");
  EXPECT_EQ(lockVar(3).str(), "o3.lock");
}

TEST(ActionTest, SyncKindClassification) {
  EXPECT_TRUE(isSyncKind(ActionKind::Acquire));
  EXPECT_TRUE(isSyncKind(ActionKind::Release));
  EXPECT_TRUE(isSyncKind(ActionKind::VolatileRead));
  EXPECT_TRUE(isSyncKind(ActionKind::VolatileWrite));
  EXPECT_TRUE(isSyncKind(ActionKind::Fork));
  EXPECT_TRUE(isSyncKind(ActionKind::Join));
  EXPECT_TRUE(isSyncKind(ActionKind::Commit));
  EXPECT_FALSE(isSyncKind(ActionKind::Read));
  EXPECT_FALSE(isSyncKind(ActionKind::Write));
  EXPECT_FALSE(isSyncKind(ActionKind::Alloc));
}

TEST(TraceBuilderTest, BuildsActionsInOrder) {
  TraceBuilder B;
  B.alloc(0, 1, 2).write(0, 1, 0).acq(0, 2).rel(0, 2).read(1, 1, 0);
  Trace T = B.take();
  ASSERT_EQ(T.Actions.size(), 5u);
  EXPECT_EQ(T.Actions[0].Kind, ActionKind::Alloc);
  EXPECT_EQ(T.Actions[1].Kind, ActionKind::Write);
  EXPECT_EQ(T.Actions[2].Kind, ActionKind::Acquire);
  EXPECT_EQ(T.Actions[2].Var, lockVar(2));
  EXPECT_EQ(T.Actions[4].Thread, 1u);
}

TEST(TraceBuilderTest, CommitSetsRoundTrip) {
  TraceBuilder B;
  VarId X{1, 0}, Y{2, 1};
  B.commit(3, {X}, {Y});
  Trace T = B.take();
  ASSERT_EQ(T.Actions.size(), 1u);
  const CommitSets &CS = T.commitSets(T.Actions[0]);
  EXPECT_TRUE(CS.touches(X));
  EXPECT_TRUE(CS.touches(Y));
  EXPECT_FALSE(CS.touches(VarId{9, 9}));
  EXPECT_TRUE(CS.writes(Y));
  EXPECT_FALSE(CS.writes(X));
}

TEST(TraceTest, ThreadAndObjectCounts) {
  Trace T = paperExample2Trace();
  EXPECT_EQ(T.threadCount(), 4u); // T0 unused but T3 present
  EXPECT_EQ(T.objectCount(), 4u); // Globals, O, MA, MB
}

TEST(TraceTest, AccessesCoversCommits) {
  Trace T = paperExample3Trace();
  // Action 2 is T1's commit writing o.nxt and head.
  ASSERT_EQ(T.Actions[2].Kind, ActionKind::Commit);
  EXPECT_TRUE(T.accesses(2, paper::oNxt()));
  EXPECT_TRUE(T.accesses(2, paper::head()));
  EXPECT_FALSE(T.accesses(2, paper::oData()));
  // Action 1 is the plain write to o.data.
  EXPECT_TRUE(T.accesses(1, paper::oData()));
}

TEST(TraceTest, StrMentionsEveryAction) {
  Trace T = paperExample4Trace(/*TxnFirst=*/true);
  std::string S = T.str();
  EXPECT_NE(S.find("commit"), std::string::npos);
  EXPECT_NE(S.find("acq"), std::string::npos);
  EXPECT_NE(S.find("fork"), std::string::npos);
}

TEST(TraceTest, EmptyTraceCountsAreZero) {
  Trace T;
  EXPECT_EQ(T.threadCount(), 0u);
  EXPECT_EQ(T.objectCount(), 0u);
}
