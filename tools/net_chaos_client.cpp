//===- tools/net_chaos_client.cpp - Transport chaos harness ---------------===//
///
/// \file
/// Adversarial client harness for the detection service's two front ends:
/// K concurrent GoldClient producers each stream a seeded random trace over
/// TCP (--port) or the shared-memory ring (--shm), and every client's
/// delivered verdicts are checked against the happens-before oracle over
/// its own trace. The whole reliability loop (connect, reconnect- or
/// reclaim-resume, backpressure, close handshake) is GoldClient's; the
/// harness only publishes pre-parsed actions and diffs the verdicts.
///
/// --failpoint <site>=<ppm> arms a failpoint in THIS process, so only the
/// client-side sites bite here: net-client-drop (the client writes half a
/// frame and drops its connection), shm-producer-stall (a producer stalls
/// for --stall-micros without heartbeating; past the server's wedge
/// timeout its ring is reaped and reclaimed) and shm-slot-corrupt (a
/// decode-error kill). Clients whose session such chaos killed are
/// skipped-but-counted, mirroring the service soak's accounting.
///
/// Exit code: 0 when no surviving client diverged, at least one client was
/// compared and every armed failpoint fired; 1 on divergence, a harness
/// failure, nothing compared, or an armed site that never fired (a chaos
/// run that injected nothing proves nothing); 126 on usage errors.
///
//===----------------------------------------------------------------------===//

#include "client/GoldClient.h"
#include "event/RandomTrace.h"
#include "hb/HbOracle.h"
#include "support/Failpoints.h"
#include "support/Telemetry.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace gold;

namespace {

struct Params {
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;
  std::string ShmPath;        ///< non-empty: drive the shm ring transport
  size_t Clients = 8;
  unsigned Steps = 40;
  unsigned Threads = 4;
  uint64_t Seed = 1;
  uint64_t DeadlineMs = 120000;
  FailpointConfig Chaos;      ///< --failpoint rates, armed in this process
  bool AnyFailpoint = false;
  bool Trace = false;         ///< stamp origins + clock handshake on frames
  uint32_t TracePpm = 10000;  ///< client_e2e span sampling rate
  uint64_t TraceSeed = 1;     ///< must match the server's --trace-seed
  std::string TraceOut;       ///< gold-trace-v1 output path (client spans)
  TraceEventSink *TraceSink = nullptr; ///< shared across client threads
};

struct Result {
  bool Compared = false;
  bool Killed = false;   ///< session torn down by chaos
  bool Failed = false;   ///< harness failure (timeout, protocol surprise)
  bool Diverged = false;
  std::string Why;
  size_t Races = 0;
  size_t Reconnects = 0;
  size_t Resumes = 0;
  size_t Rewinds = 0; ///< resync/stall rewinds honored
};

Trace traceFor(const Params &P, uint64_t Id) {
  RandomTraceParams TP;
  TP.Seed = P.Seed + Id;
  TP.StepsPerThread = P.Steps;
  TP.NumThreads = static_cast<ThreadId>(P.Threads);
  return generateRandomTrace(TP);
}

/// Differential check of the delivered verdict set against the
/// happens-before oracle over the client's own trace.
void compareVerdicts(const Trace &T, const std::set<std::string> &GotVars,
                     uint64_t Id, Result &R) {
  R.Compared = true;
  std::set<std::string> WantVars;
  RaceOracle O(T, TxnSyncSemantics::SharedVariable);
  for (const VarId &V : O.racyVars())
    WantVars.insert(V.str());
  if (GotVars != WantVars) {
    R.Diverged = true;
    std::fprintf(stderr,
                 "net-chaos: client %llu DIVERGED: wire=%zu oracle=%zu racy "
                 "var(s)\n",
                 (unsigned long long)Id, GotVars.size(), WantVars.size());
  }
}

/// One producer: publish the client's trace through GoldClient over the
/// chosen transport, close, and diff the verdicts against the oracle.
void runClient(const Params &P, uint64_t Id, Result &R) {
  Trace T = traceFor(P, Id);

  client::GoldClientConfig CC;
  CC.ClientId = Id;
  // One transport per run, no fallback: the run measures that transport.
  if (P.ShmPath.empty()) {
    CC.Host = P.Host;
    CC.Port = P.Port;
  } else {
    CC.ShmPath = P.ShmPath;
  }
  // The soak may not shed: a shed action would diverge from the oracle.
  CC.BufferCapActions = T.Actions.size() + 8;
  CC.OpTimeoutNanos = P.DeadlineMs * 1000000ull;
  if (P.Trace) {
    CC.TraceFrames = true;
    CC.TraceSeed = P.TraceSeed;
    CC.TraceSampleRatePpm = P.TracePpm;
    CC.TraceSink = P.TraceSink;
  }
  client::GoldClient GC(CC);

  std::string Err;
  if (!GC.connect(Err)) {
    R.Failed = true;
    R.Why = Err;
    return;
  }
  for (const Action &A : T.Actions)
    if (!GC.publish(A, A.Kind == ActionKind::Commit ? &T.commitSets(A)
                                                    : nullptr))
      break; // stream died; closeAndCollect reports why

  std::vector<std::string> Vars;
  bool Ok = GC.closeAndCollect(Vars, Err);
  const client::GoldClientStats &S = GC.stats();
  R.Reconnects = S.Reconnects;
  R.Resumes = S.Resumes;
  R.Rewinds = S.Resyncs + S.StallRewinds;
  R.Races = Vars.size();
  if (!Ok) {
    if (Err.find("ring killed") != std::string::npos ||
        Err.find("session") != std::string::npos) {
      R.Killed = true; // chaos (slot corrupt / session death): counted
      return;
    }
    R.Failed = true;
    R.Why = Err;
    return;
  }
  std::set<std::string> GotVars(Vars.begin(), Vars.end());
  compareVerdicts(T, GotVars, Id, R);
}

int usage() {
  std::fprintf(
      stderr,
      "usage: net_chaos_client (--port <p> [--host <addr>] | --shm <path>)\n"
      "         [--clients <k>] [--steps <n>] [--threads <n>] [--seed <n>]\n"
      "         [--deadline-ms <n>]\n"
      "  chaos:   [--failpoint <site>=<ppm>]... [--stall-micros <n>]\n"
      "  tracing: [--trace] [--trace-ppm <n>] [--trace-seed <n>]\n"
      "           [--trace-out <client-spans.json>]\n");
  return 126;
}

} // namespace

int main(int Argc, char **Argv) {
  Params P;
  for (int I = 1; I != Argc; ++I) {
    std::string A = Argv[I];
    auto Val = [&]() -> const char * {
      if (I + 1 >= Argc)
        std::exit(usage());
      return Argv[++I];
    };
    if (A == "--host")
      P.Host = Val();
    else if (A == "--port")
      P.Port = static_cast<uint16_t>(std::strtoul(Val(), nullptr, 10));
    else if (A == "--clients")
      P.Clients = std::strtoull(Val(), nullptr, 10);
    else if (A == "--steps")
      P.Steps = static_cast<unsigned>(std::strtoul(Val(), nullptr, 10));
    else if (A == "--threads")
      P.Threads = static_cast<unsigned>(std::strtoul(Val(), nullptr, 10));
    else if (A == "--seed")
      P.Seed = std::strtoull(Val(), nullptr, 10);
    else if (A == "--deadline-ms")
      P.DeadlineMs = std::strtoull(Val(), nullptr, 10);
    else if (A == "--shm")
      P.ShmPath = Val();
    else if (A == "--failpoint") {
      const char *V = Val();
      if (!parseFailpointArg(V, P.Chaos)) {
        std::fprintf(stderr, "--failpoint wants <site>=<ppm>, got '%s'\n", V);
        return 126;
      }
      P.AnyFailpoint = true;
    } else if (A == "--stall-micros")
      P.Chaos.StallMicros =
          static_cast<unsigned>(std::strtoul(Val(), nullptr, 10));
    else if (A == "--trace")
      P.Trace = true;
    else if (A == "--trace-ppm") {
      P.TracePpm = static_cast<uint32_t>(std::strtoul(Val(), nullptr, 10));
      P.Trace = true;
    } else if (A == "--trace-seed")
      P.TraceSeed = std::strtoull(Val(), nullptr, 10);
    else if (A == "--trace-out") {
      P.TraceOut = Val();
      P.Trace = true;
    } else
      return usage();
  }
  if (P.ShmPath.empty() == !P.Port || !P.Clients)
    return usage();

  // The client-side failpoints fire in THIS process: the harness drops
  // its own connections or wedges/corrupts its own rings, and the server
  // must recover.
  std::unique_ptr<FailpointScope> FP;
  if (P.AnyFailpoint) {
    P.Chaos.Seed = P.Seed;
    FP = std::make_unique<FailpointScope>(P.Chaos);
  }

  // One span sink shared by every client thread (TraceEventSink is
  // thread-safe); written as a gold-trace-v1 file after the join so it can
  // be merged with the server's --trace-out via tools/merge_traces.py.
  std::unique_ptr<TraceEventSink> Sink;
  if (P.Trace && !P.TraceOut.empty()) {
    Sink = std::make_unique<TraceEventSink>(1u << 20,
                                            static_cast<uint32_t>(::getpid()));
    P.TraceSink = Sink.get();
  }

  std::vector<Result> Results(P.Clients);
  std::vector<std::thread> Threads;
  Threads.reserve(P.Clients);
  for (size_t I = 0; I != P.Clients; ++I)
    Threads.emplace_back(
        [&, I] { runClient(P, static_cast<uint64_t>(I + 1), Results[I]); });
  for (std::thread &T : Threads)
    T.join();

  size_t Compared = 0, Killed = 0, Failed = 0, Diverged = 0, Races = 0,
         Reconnects = 0, Resumes = 0, Rewinds = 0;
  for (size_t I = 0; I != Results.size(); ++I) {
    const Result &R = Results[I];
    Compared += R.Compared;
    Killed += R.Killed;
    Failed += R.Failed;
    Diverged += R.Diverged;
    Races += R.Races;
    Reconnects += R.Reconnects;
    Resumes += R.Resumes;
    Rewinds += R.Rewinds;
    if (R.Failed)
      std::fprintf(stderr, "net-chaos: client %zu failed: %s\n", I + 1,
                   R.Why.c_str());
  }
  std::printf("net-chaos clients=%zu compared=%zu killed=%zu failed=%zu "
              "diverged=%zu races=%zu reconnects=%zu resumes=%zu "
              "rewinds=%zu\n",
              P.Clients, Compared, Killed, Failed, Diverged, Races,
              Reconnects, Resumes, Rewinds);
  size_t SilentArms = 0;
  for (unsigned I = 0; FP && I != NumFailpoints; ++I) {
    Failpoint F = static_cast<Failpoint>(I);
    if (P.Chaos.RatePpm[I] && !Failpoints::instance().fires(F)) {
      std::fprintf(stderr,
                   "net-chaos: armed failpoint %s never fired in %llu "
                   "evaluations\n",
                   failpointName(F),
                   (unsigned long long)Failpoints::instance().evaluations(F));
      ++SilentArms;
    }
  }
  if (Sink && !Sink->writeFile(P.TraceOut)) {
    std::fprintf(stderr, "net-chaos: failed to write %s\n",
                 P.TraceOut.c_str());
    return 1;
  }
  if (Diverged || Failed || !Compared || SilentArms)
    return 1;
  return 0;
}
