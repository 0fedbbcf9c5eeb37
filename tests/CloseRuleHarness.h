//===- tests/CloseRuleHarness.h - The close rule, any transport -*- C++ -*-===//
///
/// \file
/// One test body for the close rule of DESIGN.md §14 — a front end answers
/// `close` only with the session's complete verdict set — run by NetTest
/// over TCP and by ShmTest over the shm rings. The service runs its own
/// consumer threads and a fifth of all items stall between dequeue and
/// apply, so verdicts routinely arrive after the front end received the
/// close. The watchdog period outlasts the test, so no poll() runs while
/// sessions close: completing a close is the service's own finalization.
///
//===----------------------------------------------------------------------===//

#ifndef GOLD_TESTS_CLOSERULEHARNESS_H
#define GOLD_TESTS_CLOSERULEHARNESS_H

#include "client/GoldClient.h"
#include "event/RandomTrace.h"
#include "hb/HbOracle.h"
#include "service/Service.h"
#include "support/Failpoints.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

namespace gold {
namespace closerule {

/// Sessions streamed, one after another, per transport case.
inline constexpr unsigned Sessions = 20;

/// A service whose watchdog never runs during the test.
inline ServiceConfig serviceConfig() {
  ServiceConfig SC;
  SC.ShardSupervisor.SamplePeriodMillis = 60000;
  return SC;
}

/// Armed before the service starts: its consumers read the config.
inline FailpointConfig ingestStalls() {
  FailpointConfig FC;
  FC.rate(Failpoint::ServiceIngestStall, 200000);
  return FC;
}

/// Streams Sessions seeded random traces through GoldClient over the
/// transport \p Base selects; every close must succeed within 2 s with
/// exactly the oracle's racy variables.
inline void closeReturnsCompleteVerdicts(const client::GoldClientConfig &Base) {
  for (unsigned I = 0; I != Sessions; ++I) {
    RandomTraceParams P;
    P.Seed = 1500 + I;
    P.StepsPerThread = 40;
    P.NumThreads = 4;
    Trace T = generateRandomTrace(P);

    client::GoldClientConfig CC = Base;
    CC.ClientId = I + 1;
    CC.OpTimeoutNanos = 2ull * 1000000000;
    client::GoldClient GC(CC);
    std::string Err;
    ASSERT_TRUE(GC.connect(Err)) << Err;
    for (const Action &A : T.Actions)
      ASSERT_TRUE(GC.publish(A, A.Kind == ActionKind::Commit
                                    ? &T.commitSets(A)
                                    : nullptr));
    std::vector<std::string> Vars;
    ASSERT_TRUE(GC.closeAndCollect(Vars, Err))
        << "session " << CC.ClientId << ": " << Err;

    std::set<std::string> Got(Vars.begin(), Vars.end()), Want;
    RaceOracle O(T, TxnSyncSemantics::SharedVariable);
    for (const VarId &V : O.racyVars())
      Want.insert(V.str());
    EXPECT_EQ(Got, Want) << "session " << CC.ClientId;
  }
}

} // namespace closerule
} // namespace gold

#endif // GOLD_TESTS_CLOSERULEHARNESS_H
