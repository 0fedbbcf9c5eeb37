//===- perfbench/src/Svc.cpp - Detection-service workloads ---------------===//
///
/// svc-shm and svc-tcp drive GoldClient -> ShmServer/NetServer ->
/// DetectionService under default configs (4 shards, inline pumping on one
/// server-loop thread), with two producer threads streaming sessions that
/// cycle through a seeded pool of traces whose oracle verdicts are computed
/// before anything is timed.
///
/// A pass has three phases:
///  1. set-up, SetupReps times: service + server + listener/segment + one
///     client connect per producer, torn down again;
///  2. open loop, in windows of OpenWindowNs on fresh service instances:
///     each producer publishes on a fixed schedule (OfferedPerProducer
///     actions/s). Session turnover — close and reconnect — runs on a keeper
///     thread so it never pauses the schedule; acks are timed from each
///     action's due time, verdicts from the due time of the session's last
///     action;
///  3. closed loop: each producer streams one session at a time, as fast as
///     the client accepts it, and waits for its verdicts before starting the
///     next; a fresh service instance serves every SessionsPerBlock sessions
///     per producer so memory and admission stay bounded.
///
/// Threads doing work never exceed four: the server loop, two producers and
/// the keeper. Connections never exceed four: per producer one streaming and
/// one spare or closing.
///
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Stats.h"
#include "Workloads.h"

#include "client/GoldClient.h"
#include "event/RandomTrace.h"
#include "hb/HbOracle.h"
#include "service/Service.h"
#include "service/net/NetServer.h"
#include "service/shm/ShmServer.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>

using namespace gold;
using namespace pb;

namespace {

constexpr unsigned Producers = 2;
constexpr unsigned PoolSize = 16;
constexpr unsigned SetupReps = 21;
constexpr unsigned SessionsPerBlock = 12;
/// Open-loop sessions admitted per service instance, far below the
/// service's MaxSessions (512): nothing here recycles namespaces.
constexpr unsigned MaxOpenSessions = 400;
/// Length of one open-loop window (one service instance).
constexpr uint64_t OpenWindowNs = 1250ull * 1000000;
/// The tail percentile reported for session verdicts.
constexpr double TailQ = 0.90;

/// What a workload sends. The offered rates are fixed constants, never
/// derived at run time, so a faster build sees the same load. They sit well
/// below half the closed-loop capacity measured on a 4-vCPU x86-64 host
/// (svc-shm 560 000 actions/s, svc-tcp 290 000): open-loop producers flush
/// every action, and at half the capacity the generator could not keep its
/// schedule. At these rates it sent 2.3% (shm) and 1.0% (tcp) of actions a
/// gap or more late over a 20-second run.
struct Shape {
  bool Shm = false;
  RandomTraceParams Gen;
  double OfferedPerProducer = 0; ///< open-loop actions/s per producer
};

Shape shapeFor(const std::string &Name) {
  Shape S;
  RandomTraceParams &P = S.Gen;
  if (Name == "svc-shm") {
    // Read-mostly data traffic over many objects, little synchronisation:
    // nearly every action routes to one shard.
    S.Shm = true;
    P.NumThreads = 4;
    P.NumObjects = 1024;
    P.DataFields = 1;
    P.VolatileFields = 1;
    P.StepsPerThread = 500;
    P.WRead = 24, P.WWrite = 1, P.WAcquire = 1, P.WRelease = 1;
    P.WVolRead = 1, P.WVolWrite = 0, P.WBeginTxn = 0;
    S.OfferedPerProducer = 30000;
  } else {
    // Sync-heavy: locks, volatiles and commits over a small hot set; every
    // sync action is broadcast to all shards and every action is text.
    P.NumThreads = 4;
    P.NumObjects = 16;
    P.DataFields = 2;
    P.VolatileFields = 2;
    P.StepsPerThread = 600;
    P.WRead = 4, P.WWrite = 2, P.WAcquire = 4, P.WRelease = 4;
    P.WVolRead = 3, P.WVolWrite = 3, P.WBeginTxn = 2;
    S.OfferedPerProducer = 20000;
  }
  return S;
}

/// Offered open-loop rate, all producers together.
double offered(const Shape &S) { return S.OfferedPerProducer * Producers; }

struct PoolEntry {
  Trace T;
  std::set<std::string> Racy; ///< oracle verdicts, "o<obj>.f<field>"
};

/// The seeded trace pool and its oracle verdicts (harness work, untimed).
/// Traces with more racy variables than the shm verdict area holds are
/// skipped so no session can fail for a reason outside the system.
std::vector<PoolEntry> makePool(const Shape &S, uint64_t Seed) {
  std::vector<PoolEntry> Pool;
  for (uint64_t K = 0; Pool.size() < PoolSize; ++K) {
    RandomTraceParams P = S.Gen;
    P.Seed = Seed * 1000003 + K;
    PoolEntry E;
    E.T = generateRandomTrace(P);
    RaceOracle O(E.T, TxnSyncSemantics::SharedVariable);
    if (O.racyVars().size() > shm::VerdictCap)
      continue;
    for (const VarId &V : O.racyVars())
      E.Racy.insert(V.str());
    Pool.push_back(std::move(E));
  }
  return Pool;
}

/// Counters summed over every service instance of a pass.
struct ServerTotals {
  uint64_t BusyPolls = 0, BusyNs = 0, LoopNs = 0, Frames = 0;
  net::NetStats Net;
  shm::ShmStats ShmSt;
  uint64_t LinesAccepted = 0, ActionsRouted = 0, BackpressureRejects = 0,
           AdmissionRejects = 0, VerdictLoss = 0, QueuedBytesHwm = 0;
  uint64_t ApplyNs = 0, RingWaitNs = 0;
  std::vector<uint64_t> ShardAccesses;
  uint64_t EAccesses = 0, ESync = 0, ECommits = 0, EFast = 0, EWalks = 0,
           ECellsWalked = 0, EAppendRetries = 0, EGraceWaits = 0, EGcRuns = 0,
           ECellsHwm = 0;
};

/// One service instance with its transport and server-loop thread.
class Instance {
public:
  Instance(const Shape &S, const Options &O, bool Traced) : Traced(Traced) {
    static unsigned Serial = 0;
    ServiceConfig SC;
    if (Traced) {
      SC.Telemetry = TelemetryLevel::Full;
      SC.Trace.Enabled = true;
      SC.Trace.SampleRatePpm = 1000000;
    }
    Svc = std::make_unique<DetectionService>(SC);
    if (S.Shm) {
      shm::ShmConfig C;
      C.Path = O.WorkDir + "/seg-" + std::to_string(::getpid()) + "-" +
               std::to_string(Serial++) + ".ring";
      Shm = std::make_unique<shm::ShmServer>(*Svc, C);
    } else {
      Net = std::make_unique<net::NetServer>(*Svc);
    }
  }
  ~Instance() { stop(); }
  Instance(const Instance &) = delete;
  Instance &operator=(const Instance &) = delete;

  bool start(std::string &Err) {
    if (!(Shm ? Shm->start(Err) : Net->start(Err)))
      return false;
    Loop = std::thread([this] { loop(); });
    return true;
  }

  client::GoldClientConfig clientConfig(uint64_t Cid) const {
    client::GoldClientConfig C;
    C.ClientId = Cid;
    if (Shm) {
      C.ShmPath = Shm->path();
      C.Port = 0;
    } else {
      C.Port = Net->port();
    }
    if (Traced) {
      C.TraceFrames = true;
      C.TraceSampleRatePpm = 1000000;
    }
    return C;
  }

  /// Stops the loop, drains, shuts the service down and folds its counters
  /// into \p T (when given). Idempotent.
  void stop(ServerTotals *T = nullptr) {
    if (Stopped)
      return;
    Stopped = true;
    StopFlag.store(true);
    if (Loop.joinable())
      Loop.join();
    if (Shm)
      Shm->drainAndStop();
    else
      Net->drainAndStop();
    Svc->shutdown();
    if (T)
      fold(*T);
    if (Shm) {
      std::string Path = Shm->path();
      Shm.reset();
      ::unlink(Path.c_str());
    }
  }

private:
  void loop() {
    // The servers' own runLoop, unrolled so a traced pass can time each
    // pollOnce: shm parks on its doorbell (1 ms) only after an idle round;
    // TCP blocks in poll() for up to 50 ms.
    size_t Last = 1;
    uint64_t LoopStart = Tracer::nowNs();
    while (!StopFlag.load(std::memory_order_relaxed)) {
      uint64_t B = Traced ? Tracer::nowNs() : 0;
      size_t N = Shm ? Shm->pollOnce(Last ? 0 : 1) : Net->pollOnce(50);
      Last = N;
      if (!Traced)
        continue;
      uint64_t E = Tracer::nowNs();
      Tracer::record(Shm ? Bnd::ShmPoll : Bnd::NetPoll, B, E, 0, 0);
      if (N) {
        ++BusyPolls;
        BusyNs += E - B;
        Frames += N;
      }
    }
    LoopNs = Tracer::nowNs() - LoopStart;
  }

  void fold(ServerTotals &T) const {
    T.BusyPolls += BusyPolls;
    T.BusyNs += BusyNs;
    T.LoopNs += LoopNs;
    T.Frames += Frames;
    if (Shm) {
      shm::ShmStats X = Shm->stats();
      T.ShmSt.FramesIn += X.FramesIn;
      T.ShmSt.SlotsIn += X.SlotsIn;
      T.ShmSt.Wakeups += X.Wakeups;
      T.ShmSt.BackpressureWrites += X.BackpressureWrites;
    } else {
      net::NetStats X = Net->stats();
      T.Net.BackpressureReplies += X.BackpressureReplies;
      T.Net.DupFrames += X.DupFrames;
    }
    ServiceHealth H = Svc->health();
    T.LinesAccepted += H.LinesAccepted;
    T.ActionsRouted += H.ActionsRouted;
    T.BackpressureRejects += H.BackpressureRejects;
    T.AdmissionRejects += H.AdmissionRejects;
    T.VerdictLoss += H.VerdictLossEvents;
    T.QueuedBytesHwm = std::max<uint64_t>(T.QueuedBytesHwm,
                                          H.QueuedBytesHighWater);
    for (const HistogramSnapshot &Hs : Svc->telemetry().Histograms) {
      if (Hs.Name == "pipe.apply")
        T.ApplyNs += Hs.Sum;
      else if (Hs.Name == "pipe.ring_wait")
        T.RingWaitNs += Hs.Sum;
    }
    T.ShardAccesses.resize(Svc->shards(), 0);
    for (unsigned I = 0; I != Svc->shards(); ++I) {
      EngineStats ES = Svc->shardEngine(I).stats();
      T.ShardAccesses[I] += ES.Accesses;
      T.EAccesses += ES.Accesses;
      T.ESync += ES.SyncEvents;
      T.ECommits += ES.Commits;
      T.EFast += ES.Sc1Xact + ES.Sc2SameThread + ES.Sc3ALock;
      T.EWalks += ES.FilteredWalks + ES.FullWalks;
      T.ECellsWalked += ES.CellsWalked;
      T.EAppendRetries += ES.AppendRetries;
      T.EGraceWaits += ES.GraceWaits;
      T.EGcRuns += ES.GcRuns;
      T.ECellsHwm = std::max<uint64_t>(
          T.ECellsHwm, Svc->shardEngine(I).health().EventListHighWater);
    }
  }

  const bool Traced;
  std::unique_ptr<DetectionService> Svc;
  std::unique_ptr<net::NetServer> Net;
  std::unique_ptr<shm::ShmServer> Shm;
  std::atomic<bool> StopFlag{false};
  bool Stopped = false;
  // Written by the loop thread, read after it is joined.
  uint64_t BusyPolls = 0, BusyNs = 0, LoopNs = 0, Frames = 0;
  std::thread Loop; // last: started after everything it uses
};

/// One producer's (or the keeper's) tallies; merged after the threads join.
struct Acct {
  uint64_t Attempted = 0, Failed = 0, Actions = 0, Sessions = 0;
  LatencyHist Ack;
  LatenessAccount Late;
  std::vector<double> VerdictMs, SessionS;
  uint64_t Backpressures = 0, Shed = 0, Rewinds = 0;
  uint64_t AckedAtClose = 0; ///< open loop: acks first seen by the close
  double StreamS = 0; ///< closed loop: wall time spent streaming sessions

  void merge(const Acct &O) {
    Attempted += O.Attempted;
    AckedAtClose += O.AckedAtClose;
    Failed += O.Failed;
    Actions += O.Actions;
    Sessions += O.Sessions;
    Ack.merge(O.Ack);
    Late.merge(O.Late);
    VerdictMs.insert(VerdictMs.end(), O.VerdictMs.begin(), O.VerdictMs.end());
    SessionS.insert(SessionS.end(), O.SessionS.begin(), O.SessionS.end());
    Backpressures += O.Backpressures;
    Shed += O.Shed;
    Rewinds += O.Rewinds;
    StreamS = std::max(StreamS, O.StreamS);
  }
};

bool publishAction(client::GoldClient &C, const Trace &T, const Action &A,
                   uint64_t Req) {
  ScopedSpan Sp(Bnd::ClientPublish, Req, Req);
  return C.publish(A, A.Kind == ActionKind::Commit ? &T.commitSets(A)
                                                   : nullptr);
}

bool connectClient(client::GoldClient &C, uint64_t Req, std::string &Err) {
  ScopedSpan Sp(Bnd::ClientConnect, Req, Req);
  return C.connect(Err);
}

/// Closes a session and checks its verdicts against the oracle. Returns
/// true when the session succeeded; \p EndNs is when close returned.
bool closeAndCheck(client::GoldClient &C, const PoolEntry &P, uint64_t Req,
                   uint64_t &EndNs) {
  std::vector<std::string> Vars;
  std::string Err;
  bool Ok;
  {
    ScopedSpan Sp(Bnd::ClientClose, Req, Req);
    Ok = C.closeAndCollect(Vars, Err);
  }
  EndNs = Tracer::nowNs();
  if (!Ok) {
    std::fprintf(stderr, "perfbench: session close failed: %s\n",
                 Err.c_str());
    return false;
  }
  if (std::set<std::string>(Vars.begin(), Vars.end()) != P.Racy) {
    std::fprintf(stderr, "perfbench: session verdicts differ from the "
                         "oracle (%zu reported, %zu expected)\n",
                 Vars.size(), P.Racy.size());
    return false;
  }
  return true;
}

/// Folds a finished session's outcome into \p A: a session whose verdicts
/// were lost or wrong fails all its actions; otherwise shed or unacked
/// actions fail individually.
void account(Acct &A, const client::GoldClient &C, size_t Actions,
             bool SessionOk) {
  const client::GoldClientStats &St = C.stats();
  A.Attempted += Actions;
  A.Actions += Actions;
  ++A.Sessions;
  uint64_t Unacked = St.Acked < Actions ? Actions - St.Acked : 0;
  A.Failed += SessionOk ? std::min<uint64_t>(Actions, St.Shed + Unacked)
                        : Actions;
  A.Backpressures += St.Backpressures;
  A.Shed += St.Shed;
  A.Rewinds += St.Resyncs + St.StallRewinds;
}

//===----------------------------------------------------------------------===//
// Open loop
//===----------------------------------------------------------------------===//

/// A session the producer finished streaming, handed to the keeper.
struct Finished {
  std::unique_ptr<client::GoldClient> C;
  const PoolEntry *P = nullptr;
  uint64_t Req = 0;
  std::vector<uint64_t> Due; ///< due time of each action, by stream seq
  uint64_t AckCursor = 0;    ///< acks already timed by the producer
  unsigned Producer = 0;
};

/// Connects spare clients ahead of need and closes finished sessions, so
/// session turnover never pauses a producer's schedule.
class Keeper {
public:
  Keeper(Instance &I) : I(I) {}

  /// Blocks until producer \p P has a connected spare; null when the
  /// keeper could not connect one (counted as a failed operation).
  std::unique_ptr<client::GoldClient> take(unsigned P, uint64_t &Req) {
    std::unique_lock<std::mutex> L(Mu);
    Cv.wait(L, [&] { return Spare[P].Ready; });
    Spare[P].Ready = false;
    Req = Spare[P].Req;
    Cv.notify_all();
    return std::move(Spare[P].C);
  }

  void handOff(Finished F) {
    std::lock_guard<std::mutex> L(Mu);
    ToClose.push_back(std::move(F));
    Cv.notify_all();
  }

  void finish() {
    std::lock_guard<std::mutex> L(Mu);
    Done = true;
    Cv.notify_all();
  }

  void run(Acct &A) {
    for (;;) {
      std::unique_lock<std::mutex> L(Mu);
      Cv.wait(L, [&] { return Done || !ToClose.empty() || wantsSpare() >= 0; });
      if (!ToClose.empty()) {
        Finished F = std::move(ToClose.front());
        ToClose.pop_front();
        ++Closing[F.Producer];
        L.unlock();
        close(F, A);
        L.lock();
        --Closing[F.Producer];
        continue;
      }
      int P = wantsSpare();
      if (P >= 0) {
        Spare[P].Connecting = true;
        L.unlock();
        uint64_t Req = Tracer::newId();
        auto C = std::make_unique<client::GoldClient>(
            I.clientConfig(NextCid++));
        std::string Err;
        bool Ok = connectClient(*C, Req, Err);
        if (!Ok) {
          std::fprintf(stderr, "perfbench: connect failed: %s\n",
                       Err.c_str());
          ++A.Attempted;
          ++A.Failed;
        }
        L.lock();
        Spare[P].Connecting = false;
        Spare[P].C = Ok ? std::move(C) : nullptr;
        Spare[P].Req = Req;
        Spare[P].Ready = true;
        Cv.notify_all();
        continue;
      }
      if (Done)
        return;
    }
  }

private:
  /// A producer with no spare, none being connected and nothing closing.
  /// Requires Mu.
  int wantsSpare() const {
    if (Done)
      return -1;
    for (unsigned P = 0; P != Producers; ++P)
      if (!Spare[P].Ready && !Spare[P].Connecting && !Closing[P] &&
          !pendingClose(P))
        return int(P);
    return -1;
  }
  bool pendingClose(unsigned P) const {
    for (const Finished &F : ToClose)
      if (F.Producer == P)
        return true;
    return false;
  }

  void close(Finished &F, Acct &A) {
    uint64_t EndNs = 0;
    bool Ok = closeAndCheck(*F.C, *F.P, F.Req, EndNs);
    // Actions the producer never saw acked are acked by the close itself:
    // their wait is verdict latency, so they are counted, not timed.
    A.AckedAtClose += F.Due.size() - std::min<uint64_t>(F.AckCursor,
                                                        F.Due.size());
    if (!F.Due.empty())
      A.VerdictMs.push_back(double(sinceDue(F.Due.back(), EndNs)) / 1e6);
    account(A, *F.C, F.Due.size(), Ok);
    if (Tracer::on())
      Tracer::record(Bnd::Session, F.Due.empty() ? EndNs : F.Due.front(),
                     EndNs, F.Req, 0);
    F.C.reset();
  }

  struct SpareSlot {
    std::unique_ptr<client::GoldClient> C;
    uint64_t Req = 0;
    bool Ready = false, Connecting = false;
  };

  Instance &I;
  std::mutex Mu;
  std::condition_variable Cv;
  SpareSlot Spare[Producers];
  unsigned Closing[Producers] = {};
  std::deque<Finished> ToClose;
  bool Done = false;
  uint64_t NextCid = 1; ///< keeper thread only
};

/// Sleeps until \p DueNs (the thread's timer slack is 1 ns, so the
/// overshoot is the wake-up latency); returns the time on waking. Sleeping
/// rather than spinning keeps the generators off the cores the server and
/// the keeper need.
uint64_t sleepUntil(uint64_t DueNs) {
  for (;;) {
    uint64_t Now = Tracer::nowNs();
    if (Now >= DueNs)
      return Now;
    uint64_t Ns = DueNs - Now;
    timespec Ts{static_cast<time_t>(Ns / 1000000000),
                static_cast<long>(Ns % 1000000000)};
    ::nanosleep(&Ts, nullptr);
  }
}

void openLoopProducer(unsigned P, unsigned FirstRound,
                      const std::vector<PoolEntry> &Pool,
                      Keeper &K, const OpenLoopSchedule &Sched,
                      uint64_t EndNs, std::atomic<unsigned> &Sessions,
                      Acct &A) {
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  uint64_t J = 0; // this producer's action ordinal across sessions
  for (unsigned Round = 0;; ++Round) {
    if (Sched.due(J) >= EndNs ||
        Sessions.fetch_add(1) >= MaxOpenSessions)
      break;
    uint64_t Req = 0;
    std::unique_ptr<client::GoldClient> C = K.take(P, Req);
    const PoolEntry &E =
        Pool[(P + (FirstRound + Round) * Producers) % Pool.size()];
    if (!C)
      continue; // connect failure already counted by the keeper
    Finished F;
    F.P = &E;
    F.Req = Req;
    F.Producer = P;
    F.Due.reserve(E.T.Actions.size());
    const std::vector<Action> &Acts = E.T.Actions;
    for (size_t I = 0; I != Acts.size(); ++I, ++J) {
      uint64_t Due = Sched.due(J);
      uint64_t Now = sleepUntil(Due);
      A.Late.sent(Due, Now);
      F.Due.push_back(Due);
      publishAction(*C, E.T, Acts[I], Req);
      // Caught up with the schedule: push what is buffered onto the
      // transport now rather than waiting for a full client batch.
      if (Sched.due(J + 1) > Tracer::nowNs()) {
        std::string Err;
        ScopedSpan Sp(Bnd::ClientFlush, Req, Req);
        C->flush(Err);
      }
      // GoldClient refreshes Acked only inside publish and flush, and the
      // server cannot have consumed the action just flushed, so an ack is
      // first seen at the next publish: ack latency includes up to one
      // inter-arrival gap (33 us on svc-shm). Over TCP the client asks for
      // acks every 512 frames or 1 ms, so there they are seen up to about a
      // millisecond late.
      uint64_t Acked = C->stats().Acked;
      if (Acked > F.AckCursor) {
        uint64_t AckNs = Tracer::nowNs();
        for (; F.AckCursor < Acked && F.AckCursor < F.Due.size();
             ++F.AckCursor)
          A.Ack.record(sinceDue(F.Due[F.AckCursor], AckNs));
      }
    }
    F.C = std::move(C);
    K.handOff(std::move(F));
  }
}

//===----------------------------------------------------------------------===//
// Closed loop
//===----------------------------------------------------------------------===//

void closedLoopProducer(unsigned P, unsigned Block,
                        const std::vector<PoolEntry> &Pool, Instance &I,
                        uint64_t FirstCid, Acct &A) {
  uint64_t Start = Tracer::nowNs();
  for (unsigned K = 0; K != SessionsPerBlock; ++K) {
    unsigned Ordinal = Block * SessionsPerBlock + K;
    const PoolEntry &E = Pool[(P + Ordinal * Producers) % Pool.size()];
    uint64_t Req = Tracer::newId();
    uint64_t S = Tracer::nowNs();
    client::GoldClient C(I.clientConfig(FirstCid + K));
    std::string Err;
    if (!connectClient(C, Req, Err)) {
      std::fprintf(stderr, "perfbench: connect failed: %s\n", Err.c_str());
      ++A.Attempted;
      ++A.Failed;
      continue;
    }
    for (const Action &Act : E.T.Actions)
      publishAction(C, E.T, Act, Req);
    uint64_t EndNs = 0;
    bool Ok = closeAndCheck(C, E, Req, EndNs);
    A.SessionS.push_back(double(EndNs - S) / 1e9);
    account(A, C, E.T.Actions.size(), Ok);
    if (Tracer::on())
      Tracer::record(Bnd::Session, S, EndNs, Req, 0);
  }
  A.StreamS += double(Tracer::nowNs() - Start) / 1e9;
}

} // namespace

PassResult pb::runSvc(const Options &O, double Seconds, bool Traced) {
  Shape S = shapeFor(O.Workload);
  std::vector<PoolEntry> Pool = makePool(S, O.Seed);
  size_t PoolActions = 0;
  for (const PoolEntry &E : Pool)
    PoolActions += E.T.Actions.size();
  PassResult R;
  ServerTotals Tot;

  // 1. Set-up: service, server, segment or listener, one connect per
  // producer.
  std::vector<double> SetupS;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    uint64_t T0 = Tracer::nowNs();
    Instance I(S, O, Traced);
    std::string Err;
    bool Ok = I.start(Err);
    std::vector<std::unique_ptr<client::GoldClient>> Cs;
    for (unsigned P = 0; Ok && P != Producers; ++P) {
      Cs.push_back(std::make_unique<client::GoldClient>(I.clientConfig(P + 1)));
      Ok = Cs.back()->connect(Err);
    }
    SetupS.push_back(double(Tracer::nowNs() - T0) / 1e9);
    R.Attempted += 1;
    if (!Ok) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", Err.c_str());
      ++R.Failed;
      continue;
    }
    for (auto &C : Cs) {
      std::vector<std::string> Vars;
      if (!C->closeAndCollect(Vars, Err) || !Vars.empty()) {
        std::fprintf(stderr, "perfbench: empty session close failed: %s\n",
                     Err.c_str());
        ++R.Failed;
      }
    }
  }

  uint64_t PhaseNs = static_cast<uint64_t>(Seconds / 2 * 1e9);
  Acct Open, Closed;
  Open.Late = LatenessAccount(
      static_cast<uint64_t>(1e9 * Producers / offered(S)));

  // 2. Open loop, in windows of OpenWindowNs, each on a fresh instance so
  // the sessions one instance accumulates stay bounded.
  uint64_t OpenStart = Tracer::nowNs();
  for (unsigned Window = 0;
       Window == 0 || Tracer::nowNs() - OpenStart < PhaseNs; ++Window) {
    Instance I(S, O, Traced);
    std::string Err;
    if (!I.start(Err)) {
      std::fprintf(stderr, "perfbench: start failed: %s\n", Err.c_str());
      ++R.Attempted, ++R.Failed;
      break;
    }
    Keeper K(I);
    Acct KeeperAcct;
    OpenLoopSchedule Sched;
    Sched.GapNs = static_cast<uint64_t>(1e9 * Producers / offered(S));
    std::vector<Acct> PA(Producers);
    for (Acct &A : PA)
      A.Late = LatenessAccount(Sched.GapNs);
    Sched.StartNs = Tracer::nowNs() + 20 * 1000000; // spares connect first
    uint64_t EndNs =
        Sched.StartNs + std::min(OpenWindowNs, PhaseNs - std::min(PhaseNs,
                                     Tracer::nowNs() - OpenStart));
    std::atomic<unsigned> Sessions{0};
    std::thread KT([&] { K.run(KeeperAcct); });
    std::vector<std::thread> Ts;
    for (unsigned P = 0; P != Producers; ++P)
      Ts.emplace_back([&, P] {
        openLoopProducer(P, Window * 3, Pool, K, Sched, EndNs, Sessions,
                         PA[P]);
      });
    for (std::thread &T : Ts)
      T.join();
    K.finish();
    KT.join();
    for (const Acct &A : PA)
      Open.merge(A);
    Open.merge(KeeperAcct);
    I.stop(&Tot);
  }

  // 3. Closed loop, one fresh instance per block.
  uint64_t ClosedStart = Tracer::nowNs();
  double ClosedStreamS = 0; // wall time the blocks spent streaming
  for (unsigned Block = 0;
       Block == 0 || Tracer::nowNs() - ClosedStart < PhaseNs; ++Block) {
    Instance I(S, O, Traced);
    std::string Err;
    if (!I.start(Err)) {
      std::fprintf(stderr, "perfbench: start failed: %s\n", Err.c_str());
      ++R.Attempted, ++R.Failed;
      break;
    }
    std::vector<Acct> PA(Producers);
    std::vector<std::thread> Ts;
    for (unsigned P = 0; P != Producers; ++P)
      Ts.emplace_back([&, P] {
        closedLoopProducer(P, Block, Pool, I, 1 + P * SessionsPerBlock,
                           PA[P]);
      });
    for (std::thread &T : Ts)
      T.join();
    double BlockS = 0;
    for (const Acct &A : PA) {
      Closed.merge(A);
      BlockS = std::max(BlockS, A.StreamS);
    }
    ClosedStreamS += BlockS;
    I.stop(&Tot);
  }

  R.Attempted += Open.Attempted + Closed.Attempted;
  R.Failed += Open.Failed + Closed.Failed;
  if (Tot.AdmissionRejects || Tot.VerdictLoss) {
    std::fprintf(stderr,
                 "perfbench: %llu admission refusals, %llu verdict-loss "
                 "events\n",
                 (unsigned long long)Tot.AdmissionRejects,
                 (unsigned long long)Tot.VerdictLoss);
    R.Failed += Tot.AdmissionRejects + Tot.VerdictLoss;
  }

  R.Headline = medianOf(Closed.SessionS);
  auto &M = R.Metrics;
  M["setup_s"] = medianOf(SetupS);
  M["run_s"] = R.Headline;
  M["client.verdict_p50_ms"] = quantileOf(Open.VerdictMs, 0.5);
  M["client.verdict_tail_ms"] = quantileOf(Open.VerdictMs, TailQ);
  M["process.peak_rss_mb"] = peakRssMb();
  std::printf("%s: pool of %zu traces (%.0f actions each on average)\n"
              "  open loop: %llu sessions, %llu actions at %.0f/s offered; "
              "ack p50 %.1f us, p99 %.1f us; generator late %.2f%% (p99 "
              "%.1f us); %llu acks first seen at close; verdict tail = p%.0f "
              "of %zu sessions\n"
              "  closed loop: %llu sessions, %.0f actions/s\n",
              O.Workload.c_str(), Pool.size(),
              double(PoolActions) / double(Pool.size()),
              (unsigned long long)Open.Sessions,
              (unsigned long long)Open.Actions, offered(S),
              Open.Ack.quantile(0.5) / 1e3, Open.Ack.quantile(0.99) / 1e3,
              Open.Late.lateFrac() * 100, Open.Late.hist().quantile(0.99) / 1e3,
              (unsigned long long)Open.AckedAtClose, TailQ * 100,
              Open.VerdictMs.size(),
              (unsigned long long)Closed.Sessions,
              ClosedStreamS > 0 ? double(Closed.Actions) / ClosedStreamS : 0);
  if (!Traced)
    return R;

  // Per-layer figures. Counts and busy times are per session (open and
  // closed loop together); ratios and percentiles are over the whole pass.
  double Sess = double(std::max<uint64_t>(1, Open.Sessions + Closed.Sessions));
  auto PerSession = [&](double V) { return V / Sess; };
  Acct All = Open;
  All.merge(Closed);
  BoundaryAgg Pub = Tracer::aggregate(Bnd::ClientPublish);
  BoundaryAgg Cls = Tracer::aggregate(Bnd::ClientClose);
  M["client.publish.busy_s"] = PerSession(double(Pub.BusyNs) / 1e9);
  M["client.publish.p99_ns"] = Pub.Hist.quantile(0.99);
  M["client.ack_p50_us"] = Open.Ack.quantile(0.50) / 1e3;
  M["client.ack_p99_us"] = Open.Ack.quantile(0.99) / 1e3;
  M["client.backpressure_waits"] = PerSession(double(All.Backpressures));
  M["client.shed"] = double(All.Shed);
  M["client.rewinds"] = PerSession(double(All.Rewinds));
  M["client.close.busy_s"] = PerSession(double(Cls.BusyNs) / 1e9);
  double BusyS = double(Tot.BusyNs) / 1e9;
  double IdleFrac =
      Tot.LoopNs ? 1.0 - double(Tot.BusyNs) / double(Tot.LoopNs) : 0.0;
  double FramesPerPoll =
      Tot.BusyPolls ? double(Tot.Frames) / double(Tot.BusyPolls) : 0.0;
  const char *T = S.Shm ? "shm." : "net.";
  M[std::string(T) + "poll.busy_s"] = PerSession(BusyS);
  M[std::string(T) + "poll.idle_frac"] = IdleFrac;
  M[std::string(T) + "frames_per_poll"] = FramesPerPoll;
  if (S.Shm) {
    M["shm.slots_per_frame"] =
        Tot.ShmSt.FramesIn ? double(Tot.ShmSt.SlotsIn) /
                                 double(Tot.ShmSt.FramesIn)
                           : 0.0;
    M["shm.doorbell_wakeups"] = PerSession(double(Tot.ShmSt.Wakeups));
    M["shm.backpressure_writes"] =
        PerSession(double(Tot.ShmSt.BackpressureWrites));
  } else {
    M["net.backpressure_replies"] =
        PerSession(double(Tot.Net.BackpressureReplies));
    M["net.dup_frames"] = PerSession(double(Tot.Net.DupFrames));
  }
  M["service.actions_per_s"] =
      ClosedStreamS > 0 ? double(Closed.Actions) / ClosedStreamS : 0.0;
  M["service.broadcast_factor"] =
      Tot.LinesAccepted ? double(Tot.ActionsRouted) / double(Tot.LinesAccepted)
                        : 0.0;
  M["service.apply.busy_s"] = PerSession(double(Tot.ApplyNs) / 1e9);
  M["service.ring_wait_s"] = PerSession(double(Tot.RingWaitNs) / 1e9);
  M["service.backpressure_rejects"] =
      PerSession(double(Tot.BackpressureRejects));
  M["service.queued_bytes_hwm"] = double(Tot.QueuedBytesHwm);
  uint64_t MaxShard = 0, SumShard = 0;
  for (uint64_t X : Tot.ShardAccesses) {
    MaxShard = std::max(MaxShard, X);
    SumShard += X;
  }
  M["service.shard_skew"] =
      SumShard ? double(MaxShard) * double(Tot.ShardAccesses.size()) /
                     double(SumShard)
               : 0.0;
  M["goldilocks.access.calls"] = PerSession(double(Tot.EAccesses));
  M["goldilocks.sync.calls"] = PerSession(double(Tot.ESync));
  M["goldilocks.commit.calls"] = PerSession(double(Tot.ECommits));
  M["goldilocks.short_circuit_frac"] =
      Tot.EFast + Tot.EWalks
          ? double(Tot.EFast) / double(Tot.EFast + Tot.EWalks)
          : 1.0;
  M["goldilocks.cells_per_walk"] =
      Tot.EWalks ? double(Tot.ECellsWalked) / double(Tot.EWalks) : 0.0;
  M["goldilocks.append_retries"] = PerSession(double(Tot.EAppendRetries));
  M["goldilocks.grace_waits"] = PerSession(double(Tot.EGraceWaits));
  M["goldilocks.gc_runs"] = PerSession(double(Tot.EGcRuns));
  M["goldilocks.cells_high_water"] = double(Tot.ECellsHwm);
  M["loadgen.late_p99_us"] = Open.Late.hist().quantile(0.99) / 1e3;
  M["loadgen.late_frac"] = Open.Late.lateFrac();
  return R;
}
