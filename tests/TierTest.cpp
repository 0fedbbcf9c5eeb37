//===- tests/TierTest.cpp - Tiered-pipeline differential proofs -----------===//
///
/// The headline property of the adaptive-precision pipeline, proven over the
/// shared differential harness: the tiered mode (tier-0 prefilter + sticky
/// escalation to the precise engine) produces verdicts *identical* to pure
/// Goldilocks — same racy-variable sets, same report sequences — across a
/// wide seeded sweep of trace shapes, thread counts, and engine
/// configurations. Every paper kernel (the Table-1 suite through the VM)
/// runs race-free in tiered mode with no escalation.
///
/// A true-concurrency run drives the tiered engine through real OS threads
/// (the harness mixed workload), which is what the tsan/asan rows of the CI
/// sanitizer matrix exercise.
///
//===----------------------------------------------------------------------===//

#include "DifferentialHarness.h"
#include "vm/Vm.h"
#include "workloads/Workload.h"

#include <set>

using namespace gold;
using namespace gold::difftest;

namespace {

std::vector<RaceReport> run(const Trace &T, const EngineConfig &C,
                            EngineStats *Stats = nullptr) {
  GoldilocksDetector D(C);
  std::vector<RaceReport> Races = D.runTrace(T);
  if (Stats)
    *Stats = D.engine().stats();
  return Races;
}

/// Exact report-sequence equality: the tiered engine must not just find the
/// same racy variables but emit the very same reports in the same order.
void expectSameReports(const std::vector<RaceReport> &Precise,
                       const std::vector<RaceReport> &Tiered,
                       uint64_t Seed) {
  ASSERT_EQ(Precise.size(), Tiered.size()) << "seed " << Seed;
  for (size_t I = 0; I != Precise.size(); ++I) {
    EXPECT_EQ(Precise[I].Var, Tiered[I].Var) << "seed " << Seed;
    EXPECT_EQ(Precise[I].Thread, Tiered[I].Thread) << "seed " << Seed;
    EXPECT_EQ(Precise[I].IsWrite, Tiered[I].IsWrite) << "seed " << Seed;
  }
}

/// A deterministic race-free workload: every thread round-robins between
/// thread-private fields and a shared object guarded by one global lock.
/// No legal interleaving races, so the precise engine's pair checks here
/// are pure overhead — exactly what the tier-0 prefilter exists to remove.
Trace raceFreeTrace(unsigned NumThreads, unsigned Steps) {
  constexpr ObjectId SharedObj = 1;
  constexpr ObjectId Lock = 2;
  constexpr ObjectId PrivBase = 10;

  TraceBuilder B;
  B.append(mkAct(ActionKind::Alloc, 0, VarId{SharedObj, 4}));
  B.append(mkAct(ActionKind::Alloc, 0, lockVar(Lock)));
  for (unsigned T = 1; T <= NumThreads; ++T) {
    B.append(mkAct(ActionKind::Alloc, 0, VarId{PrivBase + T, 4}));
    B.append(mkAct(ActionKind::Fork, 0, VarId{}, T));
  }
  // Round-robin so consecutive accesses to the shared object really do come
  // from different threads and the lock is doing the ordering.
  for (unsigned S = 0; S != Steps; ++S) {
    for (unsigned T = 1; T <= NumThreads; ++T) {
      VarId Priv{PrivBase + T, static_cast<FieldId>(S % 4)};
      B.append(mkAct(ActionKind::Write, T, Priv));
      B.append(mkAct(ActionKind::Read, T, Priv));
      B.append(mkAct(ActionKind::Acquire, T, lockVar(Lock)));
      B.append(mkAct(ActionKind::Write, T,
                     VarId{SharedObj, static_cast<FieldId>(S % 4)}));
      B.append(mkAct(ActionKind::Release, T, lockVar(Lock)));
    }
  }
  for (unsigned T = 1; T <= NumThreads; ++T) {
    B.append(mkAct(ActionKind::Terminate, T));
    B.append(mkAct(ActionKind::Join, 0, VarId{}, T));
  }
  return B.take();
}

} // namespace

//===----------------------------------------------------------------------===//
// Escalation differential sweep: tiered == precise, exactly
//===----------------------------------------------------------------------===//

TEST(TierTest, TieredMatchesPreciseAcrossSweep) {
  // >= 64 seeds; thread counts 2..5 and transaction mixes vary with the
  // seed through the shared sweep shape. Each seed is checked under four
  // engine configurations so the tier-0 proofs are exercised with and
  // without the short circuits / GC pressure they must commute with.
  constexpr uint64_t NumSeeds = 96;
  uint64_t TotalFiltered = 0, TotalEscalations = 0;

  for (uint64_t Seed = 1; Seed <= NumSeeds; ++Seed) {
    Trace T = generateRandomTrace(sweepParams(Seed));
    std::set<VarId> Oracle = oracleVarSet(T);

    EngineConfig Precise; // defaults: TierMode::Precise
    std::vector<RaceReport> PreciseRaces = run(T, Precise);
    EXPECT_PRED_FORMAT2(sameVerdicts, Oracle, racyVarSet(PreciseRaces))
        << "precise vs oracle, seed " << Seed;

    // Plain tiered: verdict sets AND report sequences identical.
    EngineConfig TC;
    TC.Tier = TierMode::Tiered;
    EngineStats TS;
    std::vector<RaceReport> TieredRaces = run(T, TC, &TS);
    EXPECT_PRED_FORMAT2(sameVerdicts, racyVarSet(PreciseRaces),
                        racyVarSet(TieredRaces))
        << "tiered vs precise, seed " << Seed;
    expectSameReports(PreciseRaces, TieredRaces, Seed);
    TotalFiltered += TS.TierFiltered;
    TotalEscalations += TS.Escalations;

    // Tiered with every short circuit disabled: escalated variables take
    // the full-walk path, which must agree with the filtered one.
    EngineConfig NoSc = TC;
    NoSc.EnableXactShortCircuit = false;
    NoSc.EnableSameThreadShortCircuit = false;
    NoSc.EnableALockShortCircuit = false;
    NoSc.EnableFilteredWalk = false;
    EXPECT_PRED_FORMAT2(sameVerdicts, racyVarSet(PreciseRaces),
                        racyVarSet(run(T, NoSc)))
        << "tiered/no-sc vs precise, seed " << Seed;

    // Tiered under aggressive GC: the prefilter must commute with
    // partially-eager advancement.
    EngineConfig SmallGc = TC;
    SmallGc.GcThreshold = 24;
    SmallGc.TrimFraction = 0.5;
    EXPECT_PRED_FORMAT2(sameVerdicts, racyVarSet(PreciseRaces),
                        racyVarSet(run(T, SmallGc)))
        << "tiered/gc vs precise, seed " << Seed;

    // Repeat-report mode (DisableVarAfterRace off): the same-epoch memo is
    // gated off, so every repeated access must re-report exactly as the
    // precise engine does. Compare like with like.
    EngineConfig PreciseRpt;
    PreciseRpt.DisableVarAfterRace = false;
    EngineConfig TieredRpt = TC;
    TieredRpt.DisableVarAfterRace = false;
    std::vector<RaceReport> PR = run(T, PreciseRpt);
    std::vector<RaceReport> TR = run(T, TieredRpt);
    EXPECT_PRED_FORMAT2(sameVerdicts, racyVarSet(PR), racyVarSet(TR))
        << "tiered/repeat vs precise/repeat, seed " << Seed;
    expectSameReports(PR, TR, Seed);
  }

  // The sweep must actually exercise both halves of the tier machinery, or
  // the equalities above are vacuous.
  EXPECT_GT(TotalFiltered, 0u) << "tier 0 never filtered a check";
  EXPECT_GT(TotalEscalations, 0u) << "no variable ever escalated";
}

//===----------------------------------------------------------------------===//
// Pair-check reduction on race-free workloads
//===----------------------------------------------------------------------===//

TEST(TierTest, TieredCutsPairChecksTenfoldOnRaceFreeWorkload) {
  Trace T = raceFreeTrace(/*NumThreads=*/4, /*Steps=*/200);
  ASSERT_TRUE(oracleVarSet(T).empty()) << "workload is not race-free";

  EngineConfig Precise;
  EngineStats PS;
  EXPECT_TRUE(run(T, Precise, &PS).empty());

  EngineConfig TC;
  TC.Tier = TierMode::Tiered;
  EngineStats TS;
  EXPECT_TRUE(run(T, TC, &TS).empty());

  // The acceptance bar: >= 10x fewer precise pair checks, no escalations
  // (nothing is suspicious), and the filter accounted for every skip.
  EXPECT_GT(PS.PairChecks, 0u);
  EXPECT_GE(PS.PairChecks, 10 * (TS.PairChecks ? TS.PairChecks : 1))
      << "precise=" << PS.PairChecks << " tiered=" << TS.PairChecks;
  EXPECT_EQ(TS.Escalations, 0u);
  EXPECT_GT(TS.TierFiltered, 0u);
}

TEST(TierTest, PaperKernelsRunRaceFreeWithoutEscalation) {
  // The Table-1 kernels are race-free programs, so the precise engine
  // reports nothing on them and tiered mode must match it. Tier 0 proves
  // every access of these kernels ordered, so no variable escalates.
  EngineConfig TC;
  TC.Tier = TierMode::Tiered;
  for (const Workload &W : standardSuite(WorkloadScale{1})) {
    GoldilocksDetector D(TC);
    VmConfig Cfg;
    Cfg.Detector = &D;
    Vm V(W.Prog, Cfg);
    V.run();
    EngineStats S = D.engine().stats();
    EXPECT_TRUE(V.raceLog().empty()) << W.Name;
    EXPECT_EQ(S.Escalations, 0u) << W.Name;
    EXPECT_GT(S.TierFiltered, 0u) << W.Name;
  }
}

//===----------------------------------------------------------------------===//
// True concurrency: tiered engine under real OS threads
//===----------------------------------------------------------------------===//

TEST(TierTest, TieredMixedWorkloadUnderRealThreads) {
  // The harness mixed workload is verdict-stable by construction and
  // asserts engine == oracle == reference internally; running it with the
  // tiered engine proves the prefilter holds the exact verdict under real
  // interleavings — and gives tsan/asan a concurrent tier-state workout.
  for (unsigned Threads : {2u, 4u, 8u}) {
    for (uint64_t Seed : {1u, 2u}) {
      EngineConfig C;
      C.GcThreshold = 256;
      C.Tier = TierMode::Tiered;
      EngineStats St = runMixedWorkload(Threads, Seed, C);
      EXPECT_GT(St.TierFiltered, 0u)
          << "threads=" << Threads << " seed=" << Seed;
    }
  }
}
