//===- bench/BenchUtil.h - Shared benchmark harness helpers -----*- C++ -*-===//
///
/// \file
/// Helpers shared by the table-reproduction harnesses: run a workload under
/// a given instrumentation configuration, timing it and collecting the VM
/// and engine statistics the paper's tables report.
///
//===----------------------------------------------------------------------===//

#ifndef GOLD_BENCH_BENCHUTIL_H
#define GOLD_BENCH_BENCHUTIL_H

#include "analysis/StaticRace.h"
#include "bench/BenchJson.h"
#include "detectors/GoldilocksDetectors.h"
#include "support/Timer.h"
#include "vm/Vm.h"
#include "workloads/Workload.h"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace gold {

/// Result of one measured run.
struct RunResult {
  double Seconds = 0;
  VmStats Vm;
  EngineStats Engine;
  size_t DistinctVarsChecked = 0;
  size_t Races = 0;
};

/// Runs \p Prog once with optional Goldilocks instrumentation under the
/// production engine configuration.
inline RunResult runOnce(const Program &Prog, bool Instrument) {
  RunResult R;
  if (!Instrument) {
    Timer T;
    Vm V(Prog);
    V.run();
    R.Seconds = T.seconds();
    R.Vm = V.stats();
    return R;
  }
  GoldilocksDetector D;
  VmConfig Cfg;
  Cfg.Detector = &D;
  Timer T;
  Vm V(Prog, Cfg);
  V.run();
  R.Seconds = T.seconds();
  R.Vm = V.stats();
  R.Engine = D.engine().stats();
  R.DistinctVarsChecked = D.engine().distinctVarsChecked();
  R.Races = V.raceLog().size();
  return R;
}

/// Runs \p Prog \p Reps times, keeping the fastest run (the paper reports
/// steady-state runtimes; min-of-N suppresses scheduler noise).
inline RunResult runBest(const Program &Prog, bool Instrument, int Reps = 3) {
  RunResult Best;
  for (int I = 0; I != Reps; ++I) {
    RunResult R = runOnce(Prog, Instrument);
    if (I == 0 || R.Seconds < Best.Seconds)
      Best = R;
  }
  return Best;
}

/// The three instrumented program variants of Table 1.
struct ProgramVariants {
  Program Plain;    ///< all checks on ("without static information")
  Program Chord;    ///< Chord pre-elimination applied
  Program RccJava;  ///< RccJava pre-elimination applied
};

inline ProgramVariants makeVariants(const Workload &W) {
  ProgramVariants Out;
  Out.Plain = W.Prog;
  Out.Chord = W.Prog;
  applyStaticResult(Out.Chord, runChordAnalysis(W.Prog));
  Out.RccJava = W.Prog;
  applyStaticResult(Out.RccJava, runRccJavaAnalysis(W.Prog, W.Rcc));
  return Out;
}

/// Parses the scale factor from argv ("--scale N", default \p Default).
inline unsigned parseScale(int Argc, char **Argv, unsigned Default) {
  for (int I = 1; I + 1 < Argc; ++I)
    if (std::string(Argv[I]) == "--scale")
      return static_cast<unsigned>(std::strtoul(Argv[I + 1], nullptr, 10));
  return Default;
}

/// Parses "\p Flag N" from argv (default \p Default).
inline unsigned parseUintArg(int Argc, char **Argv, const char *Flag,
                             unsigned Default) {
  for (int I = 1; I + 1 < Argc; ++I)
    if (std::string(Argv[I]) == Flag)
      return static_cast<unsigned>(std::strtoul(Argv[I + 1], nullptr, 10));
  return Default;
}

/// Parses "\p Flag value" from argv (default \p Default).
inline std::string parseStrArg(int Argc, char **Argv, const char *Flag,
                               const char *Default) {
  for (int I = 1; I + 1 < Argc; ++I)
    if (std::string(Argv[I]) == Flag)
      return Argv[I + 1];
  return Default;
}

} // namespace gold

#endif // GOLD_BENCH_BENCHUTIL_H
