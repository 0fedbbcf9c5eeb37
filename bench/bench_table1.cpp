//===- bench/bench_table1.cpp - Reproduces Table 1 ------------------------===//
///
/// Table 1 of the paper: per benchmark, the uninstrumented (interpreted)
/// runtime, the runtime and slowdown of precise race checking without
/// static information, with Chord pre-elimination and with RccJava
/// pre-elimination, plus the percentage of happens-before checks resolved
/// by the constant-time short circuits.
///
/// Substitutions vs. the paper (see DESIGN.md): MiniJVM instead of Kaffe
/// (interpreter mode only — the JIT column is dropped), re-implemented
/// benchmark analogs preserving each program's synchronization idioms, and
/// wall-clock timing instead of PAPI counters. Compare *shapes* (who is
/// slow, which column fixes it), not absolute seconds.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "support/Table.h"

using namespace gold;

int main(int Argc, char **Argv) {
  unsigned Scale = parseScale(Argc, Argv, 3);
  const int Reps = static_cast<int>(parseUintArg(Argc, Argv, "--reps", 3));
  std::string JsonPath = parseStrArg(Argc, Argv, "--json", "");
  std::string Label = parseStrArg(Argc, Argv, "--label", "");
  std::printf("=== Table 1: race-aware runtime overhead "
              "(scale factor %u) ===\n\n",
              Scale);

  Table T({"Benchmark", "Thr", "Uninst(s)", "NoStatic(s)", "Slow",
           "Chord(s)", "Slow", "RccJava(s)", "Slow", "SC%(Chord)",
           "SC%(Rcc)"});

  JsonWriter J;
  jsonBenchHeader(J, "bench_table1");
  J.kv("scale", Scale);
  J.kv("reps", static_cast<uint64_t>(Reps));
  jsonEngineConfig(J, "config", EngineConfig());
  J.key("runs");
  J.beginArray();

  bool WrongVerdict = false;
  for (const Workload &W : standardSuite(WorkloadScale{Scale})) {
    // One progress line per kernel, flushed before and after its runs, so a
    // run killed by a timeout names the kernel it was on.
    std::printf("%s:", W.Name.c_str());
    std::fflush(stdout);
    ProgramVariants Var = makeVariants(W);
    RunResult Un = runBest(W.Prog, /*Instrument=*/false, Reps);
    RunResult Plain = runBest(Var.Plain, /*Instrument=*/true, Reps);
    RunResult Chord = runBest(Var.Chord, /*Instrument=*/true, Reps);
    RunResult Rcc = runBest(Var.RccJava, /*Instrument=*/true, Reps);
    std::printf(" done (nostatic %.3fs)\n", Plain.Seconds);
    std::fflush(stdout);

    auto Slow = [&](const RunResult &R) {
      return Un.Seconds > 0 ? R.Seconds / Un.Seconds : 0.0;
    };
    T.addRow({W.Name, Table::num(static_cast<long long>(W.Threads)),
              Table::num(Un.Seconds, 3), Table::num(Plain.Seconds, 3),
              Table::num(Slow(Plain), 1), Table::num(Chord.Seconds, 3),
              Table::num(Slow(Chord), 1), Table::num(Rcc.Seconds, 3),
              Table::num(Slow(Rcc), 1),
              Table::percent(Chord.Engine.shortCircuitFraction()),
              Table::percent(Rcc.Engine.shortCircuitFraction())});
    if (Plain.Races || Chord.Races || Rcc.Races) {
      std::printf("!! unexpected races in %s\n", W.Name.c_str());
      WrongVerdict = true;
    }

    auto EmitVariant = [&](const char *Variant, const RunResult &R,
                           bool Instrumented) {
      J.beginObject();
      if (!Label.empty())
        J.kv("label", Label);
      J.kv("workload", W.Name);
      J.kv("threads", W.Threads);
      J.kv("variant", Variant);
      J.kv("seconds", R.Seconds);
      J.kv("slowdown", Slow(R));
      J.kv("races", R.Races);
      if (Instrumented) {
        J.kv("distinct_vars_checked", R.DistinctVarsChecked);
        jsonEngineStats(J, "stats", R.Engine);
      }
      J.endObject();
    };
    EmitVariant("uninstrumented", Un, false);
    EmitVariant("nostatic", Plain, true);
    EmitVariant("chord", Chord, true);
    EmitVariant("rccjava", Rcc, true);
  }
  J.endArray();
  J.endObject();
  T.print();
  if (!JsonPath.empty()) {
    if (!J.writeFile(JsonPath)) {
      std::fprintf(stderr, "failed to write %s\n", JsonPath.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", JsonPath.c_str());
  }
  std::printf("\nPaper reference (Table 1, interpreted): slowdowns without "
              "static info ranged 1.0-17.9x;\nChord reduced most to 1.0-2.3x "
              "except the barrier-synchronized moldyn/raytracer (5.3/11.4),\n"
              "which only RccJava's annotations eliminated (1.6/2.1). "
              "Short-circuit rates ranged 0-99.9%%.\n");
  // The kernels are race-free programs: any reported race is a wrong
  // verdict, and the run fails on it.
  return WrongVerdict ? 1 : 0;
}
