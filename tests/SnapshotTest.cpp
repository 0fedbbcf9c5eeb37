//===- tests/SnapshotTest.cpp - Exported counter vocabulary tests ---------===//
///
/// Pins the names every snapshot document exports: the engine's telemetry
/// counters and its gold-bench-v1 stats block, the service's telemetry
/// counters and health body, and each transport's counter section in both
/// the metrics snapshot and the health document. Dashboards, the schema
/// checker and perfbench key on these names, so a rename or a silently
/// dropped counter must fail here first. A new counter is added to the
/// expected set below in the same change that exports it.
///
/// Armed failpoints add `failpoint.<site>.evals`/`.fires` to the composed
/// metrics, and only armed ones do.
///
/// Also runs one service behind both the TCP and the shm front end, with a
/// live client on each, and checks that the composed documents — built
/// directly and scraped from the TCP server's /healthz, /metrics and
/// /metrics/history — carry both transports' sections.
///
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "client/GoldClient.h"
#include "service/Service.h"
#include "service/Snapshots.h"
#include "service/net/NetServer.h"
#include "service/shm/ShmServer.h"
#include "support/Failpoints.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

using namespace gold;

namespace {

using NameSet = std::set<std::string>;

//===----------------------------------------------------------------------===//
// Minimal JSON reader (object keys and numbers are all these tests need)
//===----------------------------------------------------------------------===//

struct JVal {
  enum Kind { Null, Bool, Num, Str, Arr, Obj } K = Null;
  double N = 0;
  std::string S;
  std::vector<JVal> A;
  std::vector<std::pair<std::string, JVal>> O;

  const JVal *get(const std::string &Key) const {
    for (const auto &M : O)
      if (M.first == Key)
        return &M.second;
    return nullptr;
  }
  NameSet keys() const {
    NameSet Out;
    for (const auto &M : O)
      Out.insert(M.first);
    return Out;
  }
};

class JReader {
public:
  explicit JReader(const std::string &Text) : T(Text) {}

  bool parse(JVal &Out) {
    bool Ok = value(Out);
    ws();
    return Ok && P == T.size();
  }

private:
  void ws() {
    while (P < T.size() && std::isspace(static_cast<unsigned char>(T[P])))
      ++P;
  }
  bool lit(const char *W) {
    size_t N = std::char_traits<char>::length(W);
    if (T.compare(P, N, W) != 0)
      return false;
    P += N;
    return true;
  }
  bool str(std::string &Out) {
    if (P >= T.size() || T[P] != '"')
      return false;
    for (++P; P < T.size() && T[P] != '"'; ++P) {
      if (T[P] == '\\' && ++P >= T.size())
        return false;
      Out += T[P];
    }
    return P++ < T.size();
  }
  bool value(JVal &V) {
    ws();
    if (P >= T.size())
      return false;
    char C = T[P];
    if (C == '{') {
      V.K = JVal::Obj;
      ++P;
      ws();
      if (P < T.size() && T[P] == '}')
        return ++P, true;
      for (;;) {
        std::string Key;
        ws();
        if (!str(Key))
          return false;
        ws();
        if (P >= T.size() || T[P++] != ':')
          return false;
        V.O.emplace_back(std::move(Key), JVal());
        if (!value(V.O.back().second))
          return false;
        ws();
        if (P < T.size() && T[P] == ',') {
          ++P;
          continue;
        }
        return P < T.size() && T[P++] == '}';
      }
    }
    if (C == '[') {
      V.K = JVal::Arr;
      ++P;
      ws();
      if (P < T.size() && T[P] == ']')
        return ++P, true;
      for (;;) {
        V.A.emplace_back();
        if (!value(V.A.back()))
          return false;
        ws();
        if (P < T.size() && T[P] == ',') {
          ++P;
          continue;
        }
        return P < T.size() && T[P++] == ']';
      }
    }
    if (C == '"') {
      V.K = JVal::Str;
      return str(V.S);
    }
    if (lit("true") || lit("false")) {
      V.K = JVal::Bool;
      return true;
    }
    if (lit("null"))
      return true;
    size_t Start = P;
    while (P < T.size() && (std::isdigit(static_cast<unsigned char>(T[P])) ||
                            T[P] == '-' || T[P] == '+' || T[P] == '.' ||
                            T[P] == 'e' || T[P] == 'E'))
      ++P;
    if (P == Start)
      return false;
    V.K = JVal::Num;
    V.N = std::stod(T.substr(Start, P - Start));
    return true;
  }

  const std::string &T;
  size_t P = 0;
};

JVal parseJson(const std::string &Text) {
  JVal V;
  EXPECT_TRUE(JReader(Text).parse(V)) << Text;
  return V;
}

/// Keys of the object at \p Section of a document (the whole document
/// when \p Section is empty).
NameSet objectKeys(const std::string &Doc, const std::string &Section = "") {
  JVal V = parseJson(Doc);
  if (Section.empty())
    return V.keys();
  const JVal *S = V.get(Section);
  EXPECT_TRUE(S && S->K == JVal::Obj) << "no '" << Section << "' object";
  return S ? S->keys() : NameSet();
}

NameSet counterNames(const TelemetrySnapshot &Snap) {
  NameSet Out;
  for (const auto &C : Snap.Counters)
    Out.insert(C.first);
  return Out;
}

/// Names carrying \p Prefix, with the prefix stripped.
NameSet withPrefix(const NameSet &Names, const std::string &Prefix) {
  NameSet Out;
  for (const std::string &N : Names)
    if (N.compare(0, Prefix.size(), Prefix) == 0)
      Out.insert(N.substr(Prefix.size()));
  return Out;
}

NameSet without(NameSet Names, const NameSet &Drop) {
  for (const std::string &N : Drop)
    Names.erase(N);
  return Names;
}

NameSet prefixed(const NameSet &Names, const std::string &Prefix) {
  NameSet Out;
  for (const std::string &N : Names)
    Out.insert(Prefix + N);
  return Out;
}

//===----------------------------------------------------------------------===//
// The pinned vocabulary
//===----------------------------------------------------------------------===//

const NameSet EngineCounters = {
    "accesses",          "pair_checks",        "sc1_xact",
    "sc2_same_thread",   "sc3_alock",          "filtered_walks",
    "full_walks",        "cells_walked",       "cells_allocated",
    "cells_freed",       "gc_runs",            "eager_advances",
    "races",             "skipped_disabled",   "sync_events",
    "commits",           "degradation_events", "degraded_vars",
    "forced_gcs",        "append_retries",     "grace_waits",
    "grace_timeouts",    "cells_quarantined",  "reclaimed_dead_slots",
    "threads_registered", "threads_deregistered", "slot_fallbacks",
    "walk_memo_hits",
};

const NameSet ServiceCounters = {
    "sessions_opened",  "sessions_closed",  "sessions_shed",
    "lost_sessions",    "lines_accepted",   "parse_errors",
    "actions_routed",   "backpressure_rejects", "admission_rejects",
    "reincarnations",   "items_discarded",  "replayed_actions",
    "races_delivered",
};

const NameSet NetCounters = {
    "conns_accepted",       "conns_rejected",    "resumes",
    "frames_in",            "bytes_in",          "bytes_out",
    "oversize_frames",      "dup_frames",        "protocol_errors",
    "backpressure_replies", "resync_replies",    "fallout_frames",
    "replies_shed",         "verdict_replies_dropped",
    "partial_frames_dropped", "drain_dropped_frames", "heartbeats_sent",
    "conn_hangs",           "write_stalls",      "scrape_requests",
};

const NameSet NetClosedBy = {
    "client-quit",  "client-eof",   "read-timeout", "write-timeout",
    "write-overflow", "error-budget", "accept-shed", "server-drain",
    "socket-error", "scrape-done",
};

const NameSet ShmCounters = {
    "claims",           "resumes",         "opens_refused",
    "frames_in",        "slots_in",        "dup_frames",
    "decode_errors",    "seq_violations",  "backpressure_writes",
    "producers_reaped", "producers_wedged", "rings_recycled",
    "closes_served",    "verdicts_written", "verdicts_truncated",
    "drain_dropped_frames", "wakeups",
};

/// Derived service values published next to the table counters.
const NameSet ServiceDerivedCounters = {"verdict_loss_events"};

} // namespace

//===----------------------------------------------------------------------===//
// Engine
//===----------------------------------------------------------------------===//

TEST(VocabularyTest, EngineTelemetryCounters) {
  GoldilocksEngine E;
  NameSet Want = EngineCounters;
  Want.insert({"slab_cell_refills", "slab_var_refills", "slab_read_refills"});
  EXPECT_EQ(counterNames(E.telemetry()), Want);

  EngineConfig Full;
  Full.Telemetry = TelemetryLevel::Full;
  GoldilocksEngine F(Full);
  Want.insert({"flight_events", "flight_dropped"});
  EXPECT_EQ(counterNames(F.telemetry()), Want);
}

TEST(VocabularyTest, EngineStatsJsonKeys) {
  JsonWriter J;
  J.beginObject();
  jsonEngineStats(J, "stats", EngineStats());
  J.endObject();
  NameSet Want = EngineCounters;
  Want.insert("short_circuit_fraction");
  EXPECT_EQ(objectKeys(J.str(), "stats"), Want);
}

//===----------------------------------------------------------------------===//
// Service
//===----------------------------------------------------------------------===//

TEST(VocabularyTest, ServiceTelemetryCounters) {
  DetectionService Svc;
  NameSet Want = ServiceCounters;
  Want.insert(ServiceDerivedCounters.begin(), ServiceDerivedCounters.end());
  Want.insert({"idle_reaped", "wedge_requests", "verdicts_dropped_dead",
               "dropped_pending_actions"});
  EXPECT_EQ(counterNames(Svc.telemetry()), prefixed(Want, "service."));
}

TEST(VocabularyTest, ServiceHealthJsonKeys) {
  DetectionService Svc;
  JsonWriter J;
  Svc.health().toJson(J);
  NameSet Want = ServiceCounters;
  Want.insert(ServiceDerivedCounters.begin(), ServiceDerivedCounters.end());
  Want.insert({"shards", "ladder_state", "active_sessions", "queued_items",
               "queued_bytes", "queued_bytes_high_water",
               "max_shard_degradation", "any_shard_globally_degraded",
               "shard_health"});
  Want.insert({"verdicts_dropped_dead", "dropped_pending_actions",
               "idle_reaped", "wedge_requests"});
  EXPECT_EQ(objectKeys(J.str()), Want);
}

//===----------------------------------------------------------------------===//
// Transports
//===----------------------------------------------------------------------===//

TEST(VocabularyTest, NetMetricsAndHealthSections) {
  DetectionService Svc;
  net::NetServer Net(Svc);
  NameSet Service = counterNames(Svc.telemetry());
  NameSet Metrics = counterNames(Net.metricsSnapshot());

  NameSet Want = NetCounters;
  for (const std::string &R : NetClosedBy)
    Want.insert("closed_by." + R);
  EXPECT_EQ(withPrefix(Metrics, "net."), Want);
  EXPECT_EQ(without(Metrics, prefixed(Want, "net.")), Service)
      << "the net snapshot is service telemetry plus the net section";

  Want = NetCounters;
  Want.insert({"conns_open", "closed_by"});
  std::string Health = Net.healthJson(false);
  EXPECT_EQ(objectKeys(Health, "net"), Want);
  EXPECT_EQ(parseJson(Health).get("net")->get("closed_by")->keys(),
            NetClosedBy);
}

TEST(VocabularyTest, ShmMetricsAndHealthSections) {
  DetectionService Svc;
  shm::ShmServer Shm(Svc, shm::ShmConfig());
  NameSet Service = counterNames(Svc.telemetry());
  NameSet Metrics = counterNames(Shm.metricsSnapshot());

  EXPECT_EQ(withPrefix(Metrics, "shm."), ShmCounters);
  EXPECT_EQ(without(Metrics, prefixed(ShmCounters, "shm.")), Service)
      << "the shm snapshot is service telemetry plus the shm section";
  EXPECT_EQ(objectKeys(Shm.healthJson(false), "shm"), ShmCounters);
}

//===----------------------------------------------------------------------===//
// One service behind both transports
//===----------------------------------------------------------------------===//

namespace {

/// Blocking HTTP/1.0 GET against the scrape port; returns the body, or ""
/// on any socket failure or a non-200 status.
std::string httpGet(uint16_t Port, const char *Path) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return "";
  timeval Tv{10, 0};
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  sockaddr_in A{};
  A.sin_family = AF_INET;
  A.sin_port = htons(Port);
  A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string Resp;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) == 0) {
    std::string Req = std::string("GET ") + Path + " HTTP/1.0\r\n\r\n";
    if (::send(Fd, Req.data(), Req.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(Req.size())) {
      char Buf[4096];
      ssize_t N;
      while ((N = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0)
        Resp.append(Buf, static_cast<size_t>(N));
    }
  }
  ::close(Fd);
  size_t Body = Resp.find("\r\n\r\n");
  if (Resp.compare(0, 12, "HTTP/1.0 200") != 0 || Body == std::string::npos)
    return "";
  return Resp.substr(Body + 4);
}

/// The number at \p Key of object \p O, or -1 when either is missing.
double num(const JVal *O, const char *Key) {
  const JVal *V = O ? O->get(Key) : nullptr;
  return V && V->K == JVal::Num ? V->N : -1;
}

double counterValue(const TelemetrySnapshot &Snap, const std::string &Name) {
  for (const auto &C : Snap.Counters)
    if (C.first == Name)
      return double(C.second);
  return -1;
}

/// One racy three-action stream through \p GC; returns the race variables.
std::vector<std::string> publishRace(client::GoldClient &GC) {
  std::string Err;
  std::vector<std::string> Vars;
  EXPECT_TRUE(GC.connect(Err)) << Err;
  for (const char *L : {"fork 0 1", "write 0 5 0", "write 1 5 0"})
    EXPECT_TRUE(GC.publishLine(L)) << L;
  EXPECT_TRUE(GC.closeAndCollect(Vars, Err)) << Err;
  return Vars;
}

} // namespace

TEST(ComposedSnapshotTest, BothTransportSectionsInEveryDocument) {
  DetectionService Svc;
  net::NetConfig NC;
  NC.Scrape = true;
  net::NetServer Net(Svc, NC);
  shm::ShmConfig SC;
  SC.Path = "/tmp/gold-snapshottest-" + std::to_string(::getpid()) + ".ring";
  shm::ShmServer Shm(Svc, SC);
  std::string Err;
  ASSERT_TRUE(Net.start(Err)) << Err;
  ASSERT_TRUE(Shm.start(Err)) << Err;

  // The composition goldilocks-serve installs when both front ends run.
  FrontEnds Fronts = {&Net, &Shm};
  SnapshotProducer::Config PC;
  SnapshotProducer P(
      PC, [&] { return composeMetrics(Svc, Fronts); },
      [&](bool Interrupted) {
        return composeHealthJson(Svc, PC.Source.c_str(), Interrupted, Fronts);
      });
  Net.bindSnapshots(&P);
  P.sample(1000000000ull); // history baseline

  // One serving thread drives both front ends, as goldilocks-serve does.
  std::atomic<bool> Stop{false};
  std::thread Loop([&] {
    while (!Stop.load()) {
      Net.pollOnce(1);
      Shm.pollOnce(0);
    }
  });

  client::GoldClientConfig TcpC;
  TcpC.ClientId = 1;
  TcpC.Port = Net.port();
  client::GoldClient Tcp(TcpC);
  client::GoldClientConfig ShmC;
  ShmC.ClientId = 2;
  ShmC.ShmPath = SC.Path;
  ShmC.ShmClaimTimeoutNanos = 10ull * 1000000000;
  client::GoldClient ShmClient(ShmC);
  std::vector<std::string> TcpRaces = publishRace(Tcp);
  std::vector<std::string> ShmRaces = publishRace(ShmClient);
  EXPECT_TRUE(ShmClient.usingShm());
  P.sample(3000000000ull);

  std::string ScrapedHealth = httpGet(Net.scrapePort(), "/healthz");
  std::string ScrapedMetrics = httpGet(Net.scrapePort(), "/metrics");
  std::string ScrapedHistory = httpGet(Net.scrapePort(), "/metrics/history");
  Stop.store(true);
  Loop.join();
  Net.drainAndStop();
  Shm.drainAndStop();
  Svc.shutdown();
  ::unlink(SC.Path.c_str());

  EXPECT_EQ(TcpRaces, std::vector<std::string>{"o5.f0"});
  EXPECT_EQ(ShmRaces, std::vector<std::string>{"o5.f0"});

  TelemetrySnapshot Snap = composeMetrics(Svc, Fronts);
  EXPECT_GT(counterValue(Snap, "net.frames_in"), 0);
  EXPECT_GT(counterValue(Snap, "shm.frames_in"), 0);

  for (const std::string &Doc :
       {composeHealthJson(Svc, "goldilocks-serve", false, Fronts),
        ScrapedHealth}) {
    JVal H = parseJson(Doc);
    EXPECT_GT(num(H.get("net"), "frames_in"), 0) << Doc;
    EXPECT_GT(num(H.get("shm"), "frames_in"), 0) << Doc;
  }

  JVal M = parseJson(ScrapedMetrics);
  EXPECT_GT(num(M.get("counters"), "net.frames_in"), 0) << ScrapedMetrics;
  EXPECT_GT(num(M.get("counters"), "shm.frames_in"), 0) << ScrapedMetrics;

  JVal Hist = parseJson(ScrapedHistory);
  const JVal *Samples = Hist.get("samples");
  ASSERT_TRUE(Samples && Samples->A.size() == 1) << ScrapedHistory;
  const JVal *Rates = Samples->A[0].get("rates");
  EXPECT_GT(num(Rates, "net.frames_in"), 0) << ScrapedHistory;
  EXPECT_GT(num(Rates, "shm.frames_in"), 0) << ScrapedHistory;
}

//===----------------------------------------------------------------------===//
// Failpoints
//===----------------------------------------------------------------------===//

TEST(VocabularyTest, ArmedFailpointCountersInTheComposedMetrics) {
  DetectionService Svc;
  EXPECT_EQ(withPrefix(counterNames(composeMetrics(Svc, {})), "failpoint."),
            NameSet())
      << "disarmed: no failpoint counters";

  FailpointConfig FC;
  FC.rate(Failpoint::NetConnHang, 1000000)
      .rate(Failpoint::ServiceIngestStall, 1);
  FailpointScope Scope(FC);
  EXPECT_TRUE(failpoint(Failpoint::NetConnHang));
  TelemetrySnapshot Snap = composeMetrics(Svc, {});
  EXPECT_EQ(withPrefix(counterNames(Snap), "failpoint."),
            (NameSet{"net-conn-hang.evals", "net-conn-hang.fires",
                     "service-ingest-stall.evals",
                     "service-ingest-stall.fires"}))
      << "only armed sites, each with its evaluations and fires";
  EXPECT_EQ(counterValue(Snap, "failpoint.net-conn-hang.evals"), 1);
  EXPECT_EQ(counterValue(Snap, "failpoint.net-conn-hang.fires"), 1);
  EXPECT_EQ(counterValue(Snap, "failpoint.service-ingest-stall.fires"), 0);
}
