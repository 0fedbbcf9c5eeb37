//===- tools/goldilocks-trace.cpp - Trace replay CLI ----------------------===//
///
/// Command-line race checker: reads a linearized execution in the TraceIO
/// text format (or generates a random one) and replays it through the
/// requested detectors. Run with --help for the full flag list — the usage
/// text and the parser are generated from one table (Options[] below) so
/// they cannot drift apart.
///
/// Exit code: number of distinct racy variables found by the last detector
/// run (capped at 125), or 126 on usage / parse errors / exceeded error
/// budget.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchJson.h"
#include "detectors/Eraser.h"
#include "detectors/GoldilocksDetectors.h"
#include "detectors/VectorClockDetector.h"
#include "event/RandomTrace.h"
#include "event/TraceIO.h"
#include "hb/HbOracle.h"
#include "support/Supervisor.h"
#include "support/Telemetry.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

using namespace gold;

namespace {

/// Set from the SIGINT/SIGTERM handler; polled by the replay loop between
/// actions. The shutdown is crash-only: the replay stops wherever it is,
/// the engine quiesces, and the tool still emits every requested artifact
/// (--stats-json, --metrics-json, --health) before exiting.
std::atomic<bool> Interrupted{false};

void onSignal(int) { Interrupted.store(true, std::memory_order_relaxed); }

void installSignalHandlers() {
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
}

//===----------------------------------------------------------------------===//
// Flag table: the single source of truth for the usage text AND the parser.
//===----------------------------------------------------------------------===//

enum class Opt {
  Detector,
  Semantics,
  Random,
  Dump,
  Stats,
  Health,
  MaxCells,
  MaxInfos,
  MaxBytes,
  Oracle,
  ResumeOnError,
  ErrorBudget,
  WatchdogMs,
  Events,
  StatsJson,
  Telemetry,
  MetricsJson,
  RaceReportPath,
  TraceOut,
  Help,
};

struct OptSpec {
  Opt Id;
  const char *Flag;
  const char *Arg;  ///< operand placeholder, or nullptr for a boolean flag
  const char *Help; ///< one-line description for the usage text
};

constexpr OptSpec Options[] = {
    {Opt::Detector, "--detector", "goldilocks|reference|eraser|vectorclock|all",
     "detector(s) to run (default: goldilocks)"},
    {Opt::Semantics, "--semantics", "shared|atomic|w2r",
     "commit synchronization semantics (default: shared)"},
    {Opt::Random, "--random", "<seed>", "generate a random trace instead"},
    {Opt::Dump, "--dump", nullptr, "print the (possibly generated) trace"},
    {Opt::Stats, "--stats", nullptr, "print engine statistics"},
    {Opt::Health, "--health", nullptr,
     "print the engine's resource/health snapshot"},
    {Opt::MaxCells, "--max-cells", "<n>", "cap the synchronization event list"},
    {Opt::MaxInfos, "--max-infos", "<n>", "cap the live Info records"},
    {Opt::MaxBytes, "--max-bytes", "<n>", "coarse detector byte budget"},
    {Opt::Oracle, "--oracle", nullptr,
     "also print the happens-before oracle verdict"},
    {Opt::ResumeOnError, "--resume-on-error", nullptr,
     "skip malformed trace lines (streaming ingestion) instead of aborting"},
    {Opt::ErrorBudget, "--error-budget", "<n>",
     "max malformed lines tolerated with --resume-on-error (default 10)"},
    {Opt::WatchdogMs, "--watchdog-ms", "<n>",
     "run the supervision watchdog at this sample period (goldilocks only)"},
    {Opt::Events, "--events", nullptr,
     "print the supervision event ring at exit"},
    {Opt::StatsJson, "--stats-json", "<path>",
     "write a gold-bench-v1 JSON artifact with the engine config, stats, "
     "health and verdicts of the goldilocks run (goldilocks only)"},
    {Opt::Telemetry, "--telemetry", "off|counters|full",
     "engine telemetry level: histograms and the flight recorder need "
     "'full' (default: counters)"},
    {Opt::MetricsJson, "--metrics-json", "<path>",
     "write a gold-metrics-v1 JSON snapshot of the engine telemetry "
     "(goldilocks only)"},
    {Opt::RaceReportPath, "--race-report", "<path>",
     "write every race as structured JSON (witness pair + provenance) and "
     "print the verbose human rendering (goldilocks only)"},
    {Opt::TraceOut, "--trace-out", "<path>",
     "write Chrome trace-event spans for engine phases (publish, lazy "
     "walk, GC, grace wait); load in Perfetto or chrome://tracing"},
    {Opt::Help, "--help", nullptr, "print this help"},
};

const OptSpec *findOpt(const std::string &Flag) {
  for (const OptSpec &S : Options)
    if (Flag == S.Flag)
      return &S;
  return nullptr;
}

int usage(FILE *To = stderr) {
  std::fprintf(To, "usage: goldilocks-trace [options] [trace-file]\n");
  for (const OptSpec &S : Options) {
    char Left[64];
    std::snprintf(Left, sizeof(Left), "%s%s%s", S.Flag, S.Arg ? " " : "",
                  S.Arg ? S.Arg : "");
    // Wrap the help text by hand only when it is long; one line per flag
    // keeps the block greppable.
    std::fprintf(To, "  %-52s %s\n", Left, S.Help);
  }
  return 126;
}

struct RunOutput {
  std::vector<RaceReport> Races;
  size_t RacyVars = 0;
};

RunOutput runDetector(RaceDetector &D, const Trace &T, bool WantStats,
                      bool WantHealth, bool Verbose,
                      GoldilocksEngine *Engine) {
  RunOutput Out;
  Out.Races = D.runTrace(T, &Interrupted);
  if (Interrupted.load(std::memory_order_relaxed))
    std::fprintf(stderr,
                 "%s: interrupted; replay stopped early, emitting final "
                 "artifacts\n",
                 D.name());
  std::set<uint64_t> Vars;
  for (const RaceReport &R : Out.Races) {
    std::printf("%-12s %s\n", D.name(),
                (Verbose ? R.strVerbose() : R.str()).c_str());
    Vars.insert(R.Var.key());
  }
  Out.RacyVars = Vars.size();
  std::printf("%-12s %zu race(s) on %zu variable(s)\n", D.name(),
              Out.Races.size(), Vars.size());
  if (WantHealth) {
    if (auto H = D.health())
      std::printf("%-12s health: %s\n", D.name(), H->str().c_str());
    else
      std::printf("%-12s health: not supported\n", D.name());
  }
  if (WantStats && Engine) {
    EngineStats S = Engine->stats();
    std::printf("%-12s accesses=%llu pair-checks=%llu sync-events=%llu "
                "short-circuit=%.2f%% full-walks=%llu cells-walked=%llu "
                "gc-runs=%llu\n",
                D.name(), (unsigned long long)S.Accesses,
                (unsigned long long)S.PairChecks,
                (unsigned long long)S.SyncEvents,
                S.shortCircuitFraction() * 100.0,
                (unsigned long long)S.FullWalks,
                (unsigned long long)S.CellsWalked,
                (unsigned long long)S.GcRuns);
  }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  installSignalHandlers();
  std::string DetectorName = "goldilocks";
  TxnSyncSemantics Semantics = TxnSyncSemantics::SharedVariable;
  bool Dump = false, WantStats = false, WantHealth = false, WantOracle = false;
  bool Random = false;
  bool ResumeOnError = false, WantEvents = false;
  size_t ErrorBudget = 10;
  unsigned WatchdogMs = 0;
  uint64_t Seed = 1;
  size_t MaxCells = 0, MaxInfos = 0, MaxBytes = 0;
  TelemetryLevel TelLevel = TelemetryLevel::Counters;
  std::string File, StatsJsonPath, MetricsJsonPath, RaceReportPath,
      TraceOutPath;

  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.empty() || Arg[0] != '-') {
      File = Arg;
      continue;
    }
    const OptSpec *S = findOpt(Arg);
    if (!S)
      return usage();
    const char *V = nullptr;
    if (S->Arg) {
      if (I + 1 >= Argc)
        return usage();
      V = Argv[++I];
    }
    // Shared operand parsers keyed off the table's placeholder text.
    auto ParseUnsigned = [&](bool AllowZero) -> size_t {
      char *End = nullptr;
      size_t N = std::strtoull(V, &End, 10);
      if (End == V || *End || (!AllowZero && !N)) {
        std::fprintf(stderr, "%s wants a %s integer, got '%s'\n", S->Flag,
                     AllowZero ? "non-negative" : "positive", V);
        std::exit(126);
      }
      return N;
    };
    switch (S->Id) {
    case Opt::Detector:
      DetectorName = V;
      break;
    case Opt::Semantics:
      if (!std::strcmp(V, "shared"))
        Semantics = TxnSyncSemantics::SharedVariable;
      else if (!std::strcmp(V, "atomic"))
        Semantics = TxnSyncSemantics::AtomicOrder;
      else if (!std::strcmp(V, "w2r"))
        Semantics = TxnSyncSemantics::WriterToReader;
      else
        return usage();
      break;
    case Opt::Random:
      Random = true;
      Seed = std::strtoull(V, nullptr, 10);
      break;
    case Opt::Dump:
      Dump = true;
      break;
    case Opt::Stats:
      WantStats = true;
      break;
    case Opt::Health:
      WantHealth = true;
      break;
    case Opt::MaxCells:
      MaxCells = ParseUnsigned(/*AllowZero=*/false);
      break;
    case Opt::MaxInfos:
      MaxInfos = ParseUnsigned(/*AllowZero=*/false);
      break;
    case Opt::MaxBytes:
      MaxBytes = ParseUnsigned(/*AllowZero=*/false);
      break;
    case Opt::Oracle:
      WantOracle = true;
      break;
    case Opt::ResumeOnError:
      ResumeOnError = true;
      break;
    case Opt::ErrorBudget:
      ErrorBudget = ParseUnsigned(/*AllowZero=*/true);
      break;
    case Opt::WatchdogMs:
      WatchdogMs = static_cast<unsigned>(ParseUnsigned(/*AllowZero=*/true));
      break;
    case Opt::Events:
      WantEvents = true;
      break;
    case Opt::StatsJson:
      StatsJsonPath = V;
      break;
    case Opt::Telemetry:
      if (!parseTelemetryLevel(V, TelLevel)) {
        std::fprintf(stderr, "--telemetry wants off|counters|full, got '%s'\n",
                     V);
        return 126;
      }
      break;
    case Opt::MetricsJson:
      MetricsJsonPath = V;
      break;
    case Opt::RaceReportPath:
      RaceReportPath = V;
      break;
    case Opt::TraceOut:
      TraceOutPath = V;
      break;
    case Opt::Help:
      usage(stdout);
      return 0;
    }
  }

  Trace T;
  if (Random) {
    RandomTraceParams P;
    P.Seed = Seed;
    T = generateRandomTrace(P);
  } else if (!File.empty()) {
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n", File.c_str());
      return 126;
    }
    // Streaming ingestion: one line at a time through TraceParser. A failed
    // feedLine leaves the trace unchanged, which is what lets
    // --resume-on-error skip the line and keep going.
    TraceParser P;
    size_t Bad = 0;
    std::string Line;
    while (std::getline(In, Line)) {
      if (P.feedLine(Line))
        continue;
      if (!ResumeOnError) {
        std::fprintf(stderr, "error: %s: line %zu: %s\n", File.c_str(),
                     P.lineNo(), P.error().c_str());
        return 126;
      }
      ++Bad;
      if (Bad <= 5)
        std::fprintf(stderr, "warning: %s: line %zu: %s (skipped)\n",
                     File.c_str(), P.lineNo(), P.error().c_str());
      if (Bad > ErrorBudget) {
        std::fprintf(stderr,
                     "error: %s: %zu malformed line(s) exceed the error "
                     "budget (%zu)\n",
                     File.c_str(), Bad, ErrorBudget);
        return 126;
      }
    }
    if (Bad > 0)
      std::fprintf(stderr,
                   "resume-on-error: skipped %zu malformed line(s) "
                   "(budget %zu)\n",
                   Bad, ErrorBudget);
    T = P.take();
  } else {
    std::fprintf(stderr, "error: no trace file (use --random <seed> to "
                         "generate one)\n");
    return usage();
  }

  if (Dump)
    std::fputs(serializeTrace(T).c_str(), stdout);

  size_t RacyVars = 0;
  auto RunOne = [&](const std::string &Name) -> bool {
    if (Name == "goldilocks") {
      EngineConfig C;
      C.Semantics = Semantics;
      C.MaxCells = MaxCells;
      C.MaxInfoRecords = MaxInfos;
      C.MaxBytes = MaxBytes;
      C.Telemetry = TelLevel;
      GoldilocksDetector D(C);
      TraceEventSink Sink;
      if (!TraceOutPath.empty())
        D.engine().attachTraceSink(&Sink);
      SupervisorConfig SC;
      if (WatchdogMs > 0)
        SC.SamplePeriodMillis = WatchdogMs;
      Supervisor Sup(superviseEngine(D.engine()), SC);
      if (WatchdogMs > 0)
        Sup.start();
      RunOutput R = runDetector(D, T, WantStats, WantHealth,
                                /*Verbose=*/!RaceReportPath.empty(),
                                &D.engine());
      RacyVars = R.RacyVars;
      Sup.stop();
      if (Interrupted.load(std::memory_order_relaxed))
        D.engine().quiesce(); // crash-only: settle state, then dump
      D.engine().attachTraceSink(nullptr);
      if (!StatsJsonPath.empty()) {
        JsonWriter J;
        jsonBenchHeader(J, "goldilocks-trace");
        J.kv("detector", "goldilocks");
        J.kv("trace_actions", static_cast<uint64_t>(T.Actions.size()));
        J.kv("trace_threads", static_cast<uint64_t>(T.threadCount()));
        J.kv("racy_vars", static_cast<uint64_t>(RacyVars));
        J.kv("interrupted", Interrupted.load(std::memory_order_relaxed));
        J.key("health");
        D.engine().health().toJson(J);
        jsonEngineConfig(J, "config", C);
        jsonEngineStats(J, "stats", D.engine().stats());
        J.endObject();
        if (!J.writeFile(StatsJsonPath)) {
          std::fprintf(stderr, "error: failed to write %s\n",
                       StatsJsonPath.c_str());
          std::exit(126);
        }
      }
      if (!MetricsJsonPath.empty()) {
        std::ofstream Out(MetricsJsonPath);
        if (Out)
          Out << D.engine().telemetry().json("goldilocks-trace") << '\n';
        if (!Out) {
          std::fprintf(stderr, "error: failed to write %s\n",
                       MetricsJsonPath.c_str());
          std::exit(126);
        }
      }
      if (!RaceReportPath.empty()) {
        JsonWriter J;
        J.beginObject();
        J.kv("schema", "gold-race-report-v1");
        J.kv("source", "goldilocks-trace");
        J.kv("detector", "goldilocks");
        J.kv("race_count", static_cast<uint64_t>(R.Races.size()));
        J.key("races");
        J.beginArray();
        for (const RaceReport &Rep : R.Races)
          Rep.toJson(J);
        J.endArray();
        J.endObject();
        if (!J.writeFile(RaceReportPath)) {
          std::fprintf(stderr, "error: failed to write %s\n",
                       RaceReportPath.c_str());
          std::exit(126);
        }
      }
      if (!TraceOutPath.empty() && !Sink.writeFile(TraceOutPath)) {
        std::fprintf(stderr, "error: failed to write %s\n",
                     TraceOutPath.c_str());
        std::exit(126);
      }
      if (WantEvents) {
        auto Events = Sup.events();
        std::printf("supervision events (%zu recorded, %llu dropped):\n",
                    Events.size(),
                    (unsigned long long)Sup.ring().dropped());
        for (const SupervisionEvent &E : Events)
          std::printf("%s\n", E.str().c_str());
      }
    } else if (Name == "reference") {
      GoldilocksReference::Config C;
      C.Semantics = Semantics;
      GoldilocksReferenceDetector D(C);
      RacyVars = runDetector(D, T, false, WantHealth, false, nullptr).RacyVars;
    } else if (Name == "eraser") {
      EraserDetector D;
      RacyVars = runDetector(D, T, false, WantHealth, false, nullptr).RacyVars;
    } else if (Name == "vectorclock") {
      VectorClockDetector::Config C;
      C.Semantics = Semantics;
      VectorClockDetector D(C);
      RacyVars = runDetector(D, T, false, WantHealth, false, nullptr).RacyVars;
    } else {
      return false;
    }
    return true;
  };

  if (DetectorName == "all") {
    for (const char *N : {"goldilocks", "reference", "eraser", "vectorclock"})
      RunOne(N);
  } else if (!RunOne(DetectorName)) {
    return usage();
  }

  if (WantOracle) {
    RaceOracle O(T, Semantics);
    std::printf("%-12s %zu racy variable(s)\n", "oracle", O.racyVars().size());
  }
  return static_cast<int>(RacyVars > 125 ? 125 : RacyVars);
}
