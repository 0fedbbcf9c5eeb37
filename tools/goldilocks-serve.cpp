//===- tools/goldilocks-serve.cpp - Always-on ingestion front-end ---------===//
///
/// Front-end for the sharded detection service (src/service/). Its line
/// protocol has one server, the poll()-based NetServer (DESIGN.md §16).
/// By default that server has no listener and serves stdin/stdout as its
/// one connection, so CI and tests can drive a long-running multi-client
/// service with a piped script, without sockets; the run ends when stdin
/// does, on `quit`, or on a signal. With --listen (and optionally
/// --scrape-port) it serves TCP clients instead — sequence-numbered lines,
/// wire-level backpressure replies, heartbeats, and a live HTTP /healthz +
/// /metrics scrape endpoint. With --shm <path> the same sessions are
/// served to co-located producers over the shared-memory ring transport
/// (DESIGN.md §17) — binary frames, crash-only producer reaping, drained
/// on SIGTERM exactly like the socket path. GoldClient (src/client/) is
/// the library counterpart for both transports.
///
/// Protocol (one command per line; §16 has the sequenced `line` form and
/// `stat`/`ping`):
///   open <client-id> [priority]   admit a session (ids are decimal)
///   line <client-id> <trace-line> stream one TraceIO line into the session
///   close <client-id>             orderly close; complete verdict set
///   verdicts <client-id>          print (and drain) verdicts delivered so far
///   health                        print a one-line service health snapshot
///   quit                          end the connection (`bye client-quit`)
///
/// Replies: "ok <cmd> ...", "err <cmd> ...", "race <client-id> <report>",
/// "health <snapshot>", "bye <reason>". Accepted `line` commands are silent
/// so a 10^6-line stream does not produce 10^6 acks. On stdin a line the
/// service refuses is settled, not bounced: it waits for the shards.
///
/// SIGINT/SIGTERM trigger a crash-only quiesce: the loop stops where it is,
/// every complete line already received is settled (`bye server-drain`),
/// the service drains and shuts down, and the final health line plus any
/// --metrics-json/--health-json artifacts are still emitted.
///
/// Exit code: 0 on clean (or interrupted-but-clean) shutdown, 126 on usage
/// errors.
///
//===----------------------------------------------------------------------===//

#include "service/Service.h"
#include "service/Snapshots.h"
#include "service/net/NetServer.h"
#include "service/shm/ShmServer.h"
#include "support/Failpoints.h"
#include "support/Json.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <unistd.h>

using namespace gold;

namespace {

//===----------------------------------------------------------------------===//
// Signals: crash-only quiesce, final artifacts still emitted.
//===----------------------------------------------------------------------===//

std::atomic<bool> Interrupted{false};

void onSignal(int) { Interrupted.store(true, std::memory_order_relaxed); }

/// Install WITHOUT SA_RESTART so a blocking poll() returns EINTR and the
/// serving loop observes the flag instead of sleeping on a quiet stdin —
/// that is what lets `kill -TERM` of a backgrounded serve produce a clean
/// exit with the final health/metrics dump.
void installSignalHandlers() {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onSignal;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0;
  sigaction(SIGINT, &SA, nullptr);
  sigaction(SIGTERM, &SA, nullptr);
}

bool interrupted() { return Interrupted.load(std::memory_order_relaxed); }

//===----------------------------------------------------------------------===//
// Flag table (same single-source-of-truth pattern as goldilocks-trace).
//===----------------------------------------------------------------------===//

enum class Opt {
  Shards,
  RingCapacity,
  MaxQueuedBytes,
  MaxSessions,
  ErrorBudget,
  IdleTimeoutMs,
  JournalCap,
  Threads,
  Telemetry,
  MetricsJson,
  HealthJson,
  MetricsIntervalMs,
  HistoryCapacity,
  TracePpm,
  TraceSeed,
  TraceOut,
  Listen,
  ScrapePort,
  ShmPath,
  ShmRings,
  ShmWedgeMs,
  Seed,
  FailpointArg,
  Help,
};

struct OptSpec {
  Opt Id;
  const char *Flag;
  const char *Arg;
  const char *Help;
};

constexpr OptSpec Options[] = {
    {Opt::Shards, "--shards", "<n>", "engine shards (default 4, max 64)"},
    {Opt::RingCapacity, "--ring-capacity", "<n>",
     "slots per shard ingestion ring (default 1024)"},
    {Opt::MaxQueuedBytes, "--max-queued-bytes", "<n>",
     "global queued-byte budget enforced by backpressure (default 8MiB)"},
    {Opt::MaxSessions, "--max-sessions", "<n>",
     "namespace slots ever admitted before recycling (default 512)"},
    {Opt::ErrorBudget, "--error-budget", "<n>",
     "malformed lines tolerated per session (default 10)"},
    {Opt::IdleTimeoutMs, "--idle-timeout-ms", "<n>",
     "reap sessions idle longer than this (0 disables)"},
    {Opt::JournalCap, "--journal-cap", "<n>",
     "journaled actions per session before replay is forfeited"},
    {Opt::Threads, "--threads", nullptr,
     "run real per-shard consumer threads + watchdog (default: inline "
     "pumping, fully deterministic)"},
    {Opt::Telemetry, "--telemetry", "off|counters|full",
     "service telemetry level; 'full' adds the ingest-latency histogram"},
    {Opt::MetricsJson, "--metrics-json", "<path>",
     "write a gold-metrics-v1 snapshot of the service telemetry at exit"},
    {Opt::HealthJson, "--health-json", "<path>",
     "write the final service health snapshot as JSON at exit"},
    {Opt::MetricsIntervalMs, "--metrics-interval-ms", "<n>",
     "additionally rewrite --metrics-json/--health-json (and print a "
     "health line) every n ms while running, not just at exit; also "
     "feeds the /metrics/history time-series ring"},
    {Opt::HistoryCapacity, "--history-capacity", "<n>",
     "delta samples retained by the /metrics/history ring (default 512)"},
    {Opt::TracePpm, "--trace-ppm", "<0..1000000>",
     "enable end-to-end pipeline tracing: this ppm sample of frames gets "
     "per-stage pipe.* histogram attribution plus Chrome spans (see "
     "DESIGN.md §18)"},
    {Opt::TraceSeed, "--trace-seed", "<n>",
     "sampling seed for span selection (default 1; give clients the same "
     "seed/ppm so client and server sample identical frames)"},
    {Opt::TraceOut, "--trace-out", "<path>",
     "write the sampled spans as a gold-trace-v1 (Chrome trace) file at "
     "exit (implies --trace-ppm 10000 unless given)"},
    {Opt::Listen, "--listen", "<port>",
     "socket mode: accept line-protocol clients on this TCP port "
     "(0 picks an ephemeral port; a 'listening port=...' line is printed)"},
    {Opt::ScrapePort, "--scrape-port", "<port>",
     "serve HTTP GET /healthz and /metrics on this port (implies socket "
     "mode; 0 picks an ephemeral port)"},
    {Opt::ShmPath, "--shm", "<path>",
     "serve the shared-memory ring transport at this segment path "
     "(tmpfs recommended; combinable with --listen — same sessions, "
     "same health; see DESIGN.md §17)"},
    {Opt::ShmRings, "--shm-rings", "<n>",
     "rings in the segment = concurrent co-located producers (default 16)"},
    {Opt::ShmWedgeMs, "--shm-wedge-ms", "<n>",
     "reap a live producer whose heartbeat is stale this long "
     "(default 5000; 0 disables wedge reaping, pid-death reaping stays)"},
    {Opt::Seed, "--seed", "<n>", "failpoint decision seed (default 1)"},
    {Opt::FailpointArg, "--failpoint", "<site>=<ppm>",
     "arm a failpoint at the given parts-per-million rate (repeatable); "
     "sites: service-ingest-stall, service-client-hang, service-shard-wedge,"
     " ..."},
    {Opt::Help, "--help", nullptr, "print this help"},
};

const OptSpec *findOpt(const std::string &Flag) {
  for (const OptSpec &S : Options)
    if (Flag == S.Flag)
      return &S;
  return nullptr;
}

int usage(FILE *To = stderr) {
  std::fprintf(To, "usage: goldilocks-serve [options]\n");
  for (const OptSpec &S : Options) {
    char Left[64];
    std::snprintf(Left, sizeof(Left), "%s%s%s", S.Flag, S.Arg ? " " : "",
                  S.Arg ? S.Arg : "");
    std::fprintf(To, "  %-28s %s\n", Left, S.Help);
  }
  return 126;
}

} // namespace

int main(int Argc, char **Argv) {
  installSignalHandlers();

  ServiceConfig SC;
  bool Threaded = false;
  uint64_t Seed = 1, IdleTimeoutMs = 0;
  uint64_t MetricsIntervalMs = 0;
  size_t HistoryCap = 512;
  bool TraceSet = false;
  bool TelemetrySet = false;
  std::string TraceOutPath;
  bool ListenSet = false, ScrapeSet = false;
  uint16_t ListenPort = 0, ScrapePortNum = 0;
  shm::ShmConfig ShmC;
  uint64_t ShmWedgeMs = 5000;
  std::string MetricsJsonPath, HealthJsonPath;
  FailpointConfig FC;
  bool AnyFailpoint = false;

  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    const OptSpec *S = findOpt(Arg);
    if (!S)
      return usage();
    const char *V = nullptr;
    if (S->Arg) {
      if (I + 1 >= Argc)
        return usage();
      V = Argv[++I];
    }
    auto ParseUnsigned = [&](bool AllowZero) -> uint64_t {
      char *End = nullptr;
      uint64_t N = std::strtoull(V, &End, 10);
      if (End == V || *End || (!AllowZero && !N)) {
        std::fprintf(stderr, "%s wants a %s integer, got '%s'\n", S->Flag,
                     AllowZero ? "non-negative" : "positive", V);
        std::exit(126);
      }
      return N;
    };
    switch (S->Id) {
    case Opt::Shards:
      SC.Shards = static_cast<unsigned>(ParseUnsigned(false));
      break;
    case Opt::RingCapacity:
      SC.RingCapacity = ParseUnsigned(false);
      break;
    case Opt::MaxQueuedBytes:
      SC.MaxQueuedBytes = ParseUnsigned(false);
      break;
    case Opt::MaxSessions:
      SC.MaxSessions = ParseUnsigned(false);
      break;
    case Opt::ErrorBudget:
      SC.SessionErrorBudget = ParseUnsigned(true);
      break;
    case Opt::IdleTimeoutMs:
      IdleTimeoutMs = ParseUnsigned(true);
      break;
    case Opt::JournalCap:
      SC.JournalCapActions = ParseUnsigned(false);
      break;
    case Opt::Threads:
      Threaded = true;
      break;
    case Opt::Telemetry:
      if (!parseTelemetryLevel(V, SC.Telemetry)) {
        std::fprintf(stderr, "--telemetry wants off|counters|full, got '%s'\n",
                     V);
        return 126;
      }
      TelemetrySet = true;
      break;
    case Opt::MetricsJson:
      MetricsJsonPath = V;
      break;
    case Opt::HealthJson:
      HealthJsonPath = V;
      break;
    case Opt::MetricsIntervalMs:
      MetricsIntervalMs = ParseUnsigned(false);
      break;
    case Opt::HistoryCapacity:
      HistoryCap = static_cast<size_t>(ParseUnsigned(false));
      break;
    case Opt::TracePpm: {
      uint64_t N = ParseUnsigned(true);
      if (N > 1000000) {
        std::fprintf(stderr, "--trace-ppm wants 0..1000000, got '%s'\n", V);
        return 126;
      }
      SC.Trace.SampleRatePpm = static_cast<uint32_t>(N);
      TraceSet = true;
      break;
    }
    case Opt::TraceSeed:
      SC.Trace.Seed = ParseUnsigned(true);
      break;
    case Opt::TraceOut:
      TraceOutPath = V;
      break;
    case Opt::Listen: {
      uint64_t N = ParseUnsigned(true);
      if (N > 65535) {
        std::fprintf(stderr, "--listen wants a port (0..65535), got '%s'\n",
                     V);
        return 126;
      }
      ListenSet = true;
      ListenPort = static_cast<uint16_t>(N);
      break;
    }
    case Opt::ScrapePort: {
      uint64_t N = ParseUnsigned(true);
      if (N > 65535) {
        std::fprintf(stderr,
                     "--scrape-port wants a port (0..65535), got '%s'\n", V);
        return 126;
      }
      ScrapeSet = true;
      ScrapePortNum = static_cast<uint16_t>(N);
      break;
    }
    case Opt::ShmPath:
      ShmC.Path = V;
      break;
    case Opt::ShmRings:
      ShmC.Rings = static_cast<uint32_t>(ParseUnsigned(false));
      break;
    case Opt::ShmWedgeMs:
      ShmWedgeMs = ParseUnsigned(true);
      break;
    case Opt::Seed:
      Seed = ParseUnsigned(true);
      break;
    case Opt::FailpointArg:
      if (!parseFailpointArg(V, FC)) {
        std::fprintf(stderr, "--failpoint wants <site>=<ppm>, got '%s'\n", V);
        return 126;
      }
      AnyFailpoint = true;
      break;
    case Opt::Help:
      usage(stdout);
      return 0;
    }
  }
  SC.IdleTimeoutNanos = IdleTimeoutMs * 1000000ull;
  if (TraceSet || !TraceOutPath.empty()) {
    SC.Trace.Enabled = true;
    // Stage attribution lands in pipe.* histograms, a full-telemetry
    // surface: tracing implies full unless the operator said otherwise.
    if (!TelemetrySet)
      SC.Telemetry = TelemetryLevel::Full;
  }

  std::optional<FailpointScope> Chaos;
  if (AnyFailpoint) {
    FC.Seed = Seed;
    Chaos.emplace(FC);
  }

  DetectionService Svc(SC);
  if (Threaded)
    Svc.start();

  // The line protocol has one server, NetServer. --listen or
  // --scrape-port binds its sockets; with no transport flag at all it has
  // no listener and serves stdin/stdout as its one connection, which ends
  // the run when it closes. optional<> because NetServer is neither
  // copyable nor movable; emplace constructs it in place.
  std::optional<net::NetServer> Net;
  const bool Stdio = !ListenSet && !ScrapeSet && ShmC.Path.empty();
  if (ListenSet || ScrapeSet || Stdio) {
    net::NetConfig NC;
    NC.Port = ListenPort;
    NC.Scrape = ScrapeSet;
    NC.ScrapePort = ScrapePortNum;
    Net.emplace(Svc, NC);
  }
  if (Stdio) {
    Net->adoptStream(STDIN_FILENO, STDOUT_FILENO);
  } else if (Net) {
    std::string Err;
    if (!Net->start(Err)) {
      std::fprintf(stderr, "goldilocks-serve: %s\n", Err.c_str());
      return 126;
    }
    std::printf("listening port=%u scrape-port=%u\n", Net->port(),
                ScrapeSet ? Net->scrapePort() : 0);
    std::fflush(stdout);
  }

  // Shared-memory mode: the ring front end serves the SAME service (and
  // the same client ids) as the socket front end, so a host can run both
  // — co-located producers on the segment, remote ones on TCP.
  std::optional<shm::ShmServer> Shm;
  if (!ShmC.Path.empty()) {
    ShmC.WedgeTimeoutNanos = ShmWedgeMs * 1000000ull;
    Shm.emplace(Svc, ShmC);
    std::string Err;
    if (!Shm->start(Err)) {
      std::fprintf(stderr, "goldilocks-serve: %s\n", Err.c_str());
      return 126;
    }
    std::printf("shm segment=%s rings=%u\n", Shm->path().c_str(), ShmC.Rings);
    std::fflush(stdout);
  }

  // One SnapshotProducer behind every live render path: the interval
  // emitter, both exit artifacts, and the scrape port's /healthz, /metrics
  // and /metrics/history all pull from this single source, so the
  // documents can never drift between paths. Each document is the service's
  // own plus one section per live front end: a host running both TCP and
  // shm serves one document carrying both the net and the shm sections.
  FrontEnds Fronts;
  if (Net)
    Fronts.push_back(&*Net);
  if (Shm)
    Fronts.push_back(&*Shm);
  SnapshotProducer::Config PC;
  PC.Source = Fronts.size() != 1 ? "goldilocks-serve"
              : Net              ? "goldilocks-netserver"
                                 : "goldilocks-shmserver";
  PC.HistoryCapacity = HistoryCap;
  PC.IntervalHintMillis = MetricsIntervalMs ? MetricsIntervalMs : 1000;
  SnapshotProducer Producer(
      PC, [&] { return composeMetrics(Svc, Fronts); },
      [&](bool Interrupted) {
        return composeHealthJson(Svc, PC.Source.c_str(), Interrupted, Fronts);
      });
  if (Net)
    Net->bindSnapshots(&Producer);

  auto EmitSnapshots = [&](bool Final) -> bool {
    bool Ok = true;
    if (!HealthJsonPath.empty()) {
      std::string Doc = Producer.healthJson(interrupted());
      std::ofstream Out(HealthJsonPath);
      if (Out)
        Out << Doc << '\n';
      if (!Out) {
        if (Final)
          std::fprintf(stderr, "error: failed to write %s\n",
                       HealthJsonPath.c_str());
        Ok = false;
      }
    }
    if (!MetricsJsonPath.empty()) {
      std::string Doc = Producer.metricsJson();
      std::ofstream Out(MetricsJsonPath);
      if (Out)
        Out << Doc << '\n';
      if (!Out) {
        if (Final)
          std::fprintf(stderr, "error: failed to write %s\n",
                       MetricsJsonPath.c_str());
        Ok = false;
      }
    }
    return Ok;
  };

  // --metrics-interval-ms: a snapshot thread keeps the JSON artifacts (and
  // a stdout health line) fresh while the server runs, so a long-lived
  // stdio deployment is observable without the scrape endpoint. health()
  // and telemetry() are thread-safe snapshots; file writes are exclusive
  // to this thread until it is joined.
  std::atomic<bool> SnapStop{false};
  std::thread SnapThread;
  if (MetricsIntervalMs) {
    SnapThread = std::thread([&] {
      uint64_t SliceMs = 20;
      for (;;) {
        for (uint64_t Slept = 0; Slept < MetricsIntervalMs;
             Slept += SliceMs) {
          if (SnapStop.load(std::memory_order_relaxed))
            return;
          std::this_thread::sleep_for(std::chrono::milliseconds(SliceMs));
        }
        if (SnapStop.load(std::memory_order_relaxed))
          return;
        Producer.sample(Svc.nowNanos());
        EmitSnapshots(/*Final=*/false);
        std::printf("health %s\n", Svc.health().str().c_str());
        std::fflush(stdout);
      }
    });
  }

  // One serving thread drives both front ends. Whichever found work last
  // round sets the pace: any busy front end drops every timeout to zero so
  // a hot ring is never throttled by the other side's poll sleep.
  size_t ShmBusy = 0;
  while (!interrupted() && !(Stdio && !Net->openConnections())) {
    if (Net)
      Net->pollOnce(Shm ? (ShmBusy ? 0 : 5) : 50);
    if (Shm)
      ShmBusy = Shm->pollOnce(Net || ShmBusy ? 0 : 50);
  }
  // Crash-only drain: settle every complete frame already on the wire (or
  // published in a ring) into the service before quiescing, so SIGTERM
  // loses nothing that reached us.
  if (Net)
    Net->drainAndStop();
  if (Shm)
    Shm->drainAndStop();

  // Crash-only quiesce, then the final dump. This path runs identically for
  // quit, EOF, SIGINT and SIGTERM.
  Svc.shutdown();
  if (interrupted())
    std::fprintf(stderr, "goldilocks-serve: interrupted; quiesced cleanly\n");

  if (SnapThread.joinable()) {
    SnapStop.store(true, std::memory_order_relaxed);
    SnapThread.join();
  }

  ServiceHealth H = Svc.health();
  std::printf("final %s\n", H.str().c_str());
  std::fflush(stdout);

  if (!TraceOutPath.empty() && Svc.spanSink()) {
    if (!Svc.spanSink()->writeFile(TraceOutPath)) {
      std::fprintf(stderr, "error: failed to write %s\n",
                   TraceOutPath.c_str());
      return 126;
    }
  }
  if (!EmitSnapshots(/*Final=*/true))
    return 126;
  return 0;
}
