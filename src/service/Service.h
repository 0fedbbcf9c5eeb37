//===- service/Service.h - Always-on sharded detection service --*- C++ -*-===//
///
/// \file
/// The transport-agnostic, long-running ingestion core that turns the
/// Goldilocks engine into a supervised multi-client detection service
/// (DESIGN.md §14). Three layers:
///
///  * Session — the per-client unit of isolation. Wraps the streaming
///    TraceParser with its own error budget, idle deadline and crash-only
///    teardown, and namespaces the client's thread/object identifiers so no
///    two clients can ever create a synchronization edge between each
///    other's traces. The parser's accumulated trace doubles as the
///    session's *journal*: the durable state a shard reincarnation replays.
///
///  * ShardState / routing — N independent GoldilocksEngine shards, each
///    with its own resource-governor budget, supervisor and bounded
///    IngestRing. Each session is routed whole to one shard, fixed by its
///    namespace slot. Sessions share no identifiers, so a shard sees every
///    action of its sessions in order and computes exactly the verdicts a
///    lone engine gives for each session's trace, with no cross-shard
///    communication (DESIGN.md §14).
///
///  * The degradation ladder — backpressure first (bounded rings, producers
///    get retry-after), then admission pause and priority shedding when the
///    queued-byte budget saturates, and finally crash-only *reincarnation*
///    of a wedged or globally-degraded shard: quiesce, discard the queue,
///    swap in a fresh engine and rebuild its state by replaying the live
///    sessions' journals. Verdicts are deduplicated per variable, so a
///    reincarnation neither loses nor duplicates race reports; when a
///    journal was truncated (cap exceeded) the session is killed instead
///    and the loss is *counted* in ServiceHealth — never silent.
///
/// The core is deliberately free of any socket/transport code: front ends
/// wrap it (service/net/NetServer.h serves the line protocol over TCP and
/// stdio, service/shm/ShmServer.h the shared-memory rings), tests
/// drive it deterministically with pump()/poll(), and start() adds real
/// consumer threads for soak and bench runs.
///
//===----------------------------------------------------------------------===//

#ifndef GOLD_SERVICE_SERVICE_H
#define GOLD_SERVICE_SERVICE_H

#include "event/TraceIO.h"
#include "goldilocks/Engine.h"
#include "service/IngestRing.h"
#include "service/Tracing.h"
#include "support/Supervisor.h"
#include "support/Telemetry.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

namespace gold {

class DetectionService;

//===----------------------------------------------------------------------===//
// Configuration
//===----------------------------------------------------------------------===//

struct ServiceConfig {
  /// Number of engine shards (clamped to [1, 64]). Session slot i runs on
  /// shard i % Shards.
  unsigned Shards = 4;
  /// Slots per shard ingestion ring (rounded up to a power of two).
  size_t RingCapacity = 1024;
  /// Global cap on bytes queued across all shard rings. This is the hard
  /// bound backpressure enforces: pushes that would exceed it are rejected
  /// with retry-after, so a stalled shard can never grow the heap.
  size_t MaxQueuedBytes = 8u << 20;
  /// Malformed lines tolerated per session before crash-only teardown.
  size_t SessionErrorBudget = 10;
  /// Reap sessions idle longer than this (0 disables). Uses NowNanos, so
  /// deterministic tests drive it with a manual clock.
  uint64_t IdleTimeoutNanos = 0;
  /// Cap on journaled actions per session. Beyond it the journal is
  /// dropped: the session keeps streaming, but a later shard reincarnation
  /// can no longer replay it and must kill it (counted verdict loss).
  size_t JournalCapActions = 1u << 20;
  /// Maximum sessions ever admitted (dense namespace slots; each gets a
  /// disjoint thread/object id range of NamespaceStride). Reincarnating
  /// every shard recycles the slots of dead sessions (recycleNamespaces).
  size_t MaxSessions = 512;
  /// Template for every shard engine (each instance gets its own governor
  /// budget from these caps). Provenance defaults off in the service: the
  /// reports cross a session-remapping boundary where the rendered
  /// provenance text would leak namespaced ids.
  EngineConfig Engine;
  /// Per-shard supervisor knobs (poll-driven from DetectionService::poll;
  /// the watchdog threads stay off — the service is the watchdog).
  SupervisorConfig ShardSupervisor;
  /// Service-level telemetry (counters always kept; Full adds the ingest
  /// latency histogram).
  TelemetryLevel Telemetry = TelemetryLevel::Counters;
  /// End-to-end pipeline tracing (DESIGN.md §18). When enabled, transports
  /// thread per-frame FrameTrace contexts into sessions, stage boundaries
  /// feed the pipe.* histograms (registered when Telemetry is on), and
  /// deterministically sampled frames emit spans into spanSink().
  PipeTraceConfig Trace;
  /// Injectable monotonic clock (nanoseconds); defaults to steady_clock.
  /// Tests install a manual clock to drive idle timeouts deterministically.
  std::function<uint64_t()> NowNanos;

  ServiceConfig() {
    Engine.EnableProvenance = false;
  }
};

/// Disjoint id range handed to each session: client ids must be below this.
inline constexpr uint32_t NamespaceStride = 1u << 20;

/// Queued-byte fractions of MaxQueuedBytes above which new sessions are
/// refused (rung 1 of the service ladder) and live low-priority sessions
/// are shed (rung 2).
inline constexpr double AdmissionPauseFraction = 0.80;
inline constexpr double ShedFraction = 0.95;
/// Items drained per pump slice (bounds how long a consumer holds the
/// shard; reincarnation waits at most one slice).
inline constexpr unsigned PumpBatch = 128;

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

enum class SessionState : uint8_t {
  Open = 0, ///< accepting lines
  Draining, ///< client closed; queued items still apply, verdicts deliver
  Dead,     ///< finalized or torn down: items are skipped, verdicts drop
};

enum class CloseReason : uint8_t {
  None = 0,
  ClientClose,     ///< orderly close() (state becomes Draining, then Dead
                   ///< as soon as nothing of the session is queued)
  ErrorBudget,     ///< malformed-line budget exhausted
  IdleTimeout,     ///< no feed activity for IdleTimeoutNanos
  Shed,            ///< dropped by the overload ladder (lowest priority)
  ShardLost,       ///< shard reincarnated and the journal could not replay
  ServiceShutdown, ///< the whole service quiesced
};

const char *closeReasonName(CloseReason R);

/// What one feedLine() attempt produced.
struct FeedResult {
  enum class Status : uint8_t {
    Accepted = 0, ///< parsed and admitted to the session's shard
    Rejected,     ///< malformed; counted against the error budget
    Backpressure, ///< not admitted; retry the SAME line after RetryAfter
    Closed,       ///< session is no longer accepting (see Error)
  };
  Status St = Status::Accepted;
  uint64_t RetryAfterNanos = 0; ///< producer backoff hint (Backpressure)
  std::string Error;            ///< Rejected / Closed diagnostic
};

/// One queued action on its session's shard ring. CommitSets are immutable
/// after publication.
struct ShardItem {
  uint32_t SessionIdx = 0;
  uint64_t EnqueueNanos = 0;  ///< latency histogram sample (Full telemetry)
  uint32_t Bytes = 0;         ///< byte-budget accounting share
  /// Pipeline-trace context (0/false when the frame is untraced): the
  /// clock-corrected client origin, the admission stamp, and whether this
  /// frame was deterministically sampled for span emission.
  uint64_t TraceOrigin = 0;
  uint64_t TraceAdmit = 0;
  uint64_t TraceSeq = 0; ///< client frame ordinal (span args join key)
  bool TraceSpan = false;
  Action A;                   ///< ids already remapped into the namespace
  std::shared_ptr<const CommitSets> CS;
};

/// The per-client unit of isolation. All methods are thread-safe, but a
/// session is logically a single client stream: feedLine() calls must be
/// serialized per session (they are internally mutexed; interleaving two
/// producers on one session would interleave their half-traces).
///
/// Backpressure contract: when feedLine returns Backpressure, the line was
/// NOT consumed — the caller must present the *same* line again (after the
/// jittered backoff in RetryAfterNanos). The session remembers the parsed,
/// not-yet-admitted action and pushes it on the retry without re-parsing.
class Session {
public:
  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Streams one trace line (TraceIO format, no trailing newline). \p FT,
  /// when non-null, is the frame's pipeline-trace context (transport-
  /// corrected origin stamp + span sampling decision); the wire stage is
  /// recorded at admission and the context rides the ShardItem to apply.
  FeedResult feedLine(const std::string &Line,
                      const FrameTrace *FT = nullptr);

  /// Binary twin of feedLine() for transports carrying pre-parsed actions
  /// (the shared-memory ring): identical gate, retry, namespace, journal,
  /// and backpressure semantics, but the action skips the text parse —
  /// TraceParser::feedAction applies the same semantic validation. \p CS
  /// must be non-null exactly for ActionKind::Commit (ids still in the
  /// client's namespace). \p Bytes is the action's byte-budget share (its
  /// wire footprint; clamped to >= 1).
  FeedResult feedAction(const Action &A, const CommitSets *CS, uint32_t Bytes,
                        const FrameTrace *FT = nullptr);

  /// Orderly close: stop accepting; Dead once nothing of it is queued.
  void close();

  /// Drains the verdicts delivered so far, with thread/object ids mapped
  /// back into the client's own id space.
  std::vector<RaceReport> takeVerdicts();

  SessionState state() const;
  CloseReason closeReason() const;

  uint64_t clientId() const { return Client; }
  unsigned priority() const { return Priority; }
  uint32_t index() const { return Index; }

  uint64_t linesAccepted() const {
    return LinesAccepted.load(std::memory_order_relaxed);
  }
  uint64_t parseErrors() const {
    return ParseErrors.load(std::memory_order_relaxed);
  }
  uint64_t racesDelivered() const {
    return RacesDelivered.load(std::memory_order_relaxed);
  }
  /// True once the journal exceeded its cap and was dropped: the session
  /// can no longer survive a shard reincarnation.
  bool journalTruncated() const {
    return JournalTruncated.load(std::memory_order_relaxed);
  }

private:
  friend class DetectionService;

  Session(DetectionService &Svc, uint32_t Index, uint64_t Client,
          unsigned Priority);

  // Namespace mapping: client id <-> service-wide id.
  uint32_t mapId(uint32_t Raw) const { return Base + Raw; }
  uint32_t unmapId(uint32_t Raw) const { return Raw - Base; }
  Action mapAction(const Action &A) const;
  RaceReport unmapReport(RaceReport R) const;

  /// Pushes the pending action into the session's shard ring. Returns true
  /// when admitted. Requires Mu.
  bool pushPendingLocked();
  // feedLine/feedAction share everything but the parse step; the split
  // keeps the two entry points byte-for-byte equivalent in semantics.
  /// Liveness checks, feed timestamping, and the pending-retry protocol.
  /// Returns true when \p Res is already the final answer. Requires Mu.
  bool feedGateLocked(FeedResult &Res);
  /// Counts a parser rejection against the error budget. Requires Mu.
  FeedResult rejectParseLocked(FeedResult Res);
  /// Admits the newest journal action (appended by the parse step) into the
  /// session's shard: namespace mapping, commit-set remap, journal cap, and
  /// the first flush attempt. \p Before is the journal size pre-parse (a
  /// no-op parse, e.g. a comment line, is accepted outright). Requires Mu.
  FeedResult admitNewestLocked(FeedResult Res, size_t Before, uint32_t Bytes,
                               const FrameTrace *FT);
  FeedResult acceptedLocked(FeedResult Res);
  FeedResult backpressuredLocked(FeedResult Res);
  /// Crash-only teardown. Requires Mu.
  void closeLocked(CloseReason R);
  /// Draining with nothing queued means fully applied: Dead. Requires Mu.
  void finalizeIfDrainedLocked();
  /// Verdict delivery from a shard consumer (or a reincarnation replay,
  /// which already holds Mu — hence the Locked split). Dedups by variable.
  void deliver(const RaceReport &R);
  void deliverLocked(const RaceReport &R);

  DetectionService &Svc;
  const uint32_t Index;
  const uint32_t Base;  ///< (Index + 1) * NamespaceStride
  const unsigned Shard; ///< Index % shards(): the one ring and engine
  const uint64_t Client;
  const unsigned Priority;

  mutable std::mutex Mu;
  SessionState State = SessionState::Open;
  CloseReason Reason = CloseReason::None;
  TraceParser Parser;
  size_t ErrorsSeen = 0;
  unsigned BackoffAttempt = 0;

  // The parsed action a full ring refused (backpressure retry state). It
  // is always the newest journal entry while HasPending.
  bool HasPending = false;
  ShardItem Pending;

  std::vector<RaceReport> Verdicts;            ///< delivered, not yet taken
  std::unordered_set<uint64_t> RacyVarKeys;    ///< dedup across replays
  std::atomic<uint64_t> LastFeedNanos{0};
  /// Items of this session queued in shard rings, or lost by a wedge and
  /// not yet replayed. Only DetectionService::retireItem decrements it.
  std::atomic<uint64_t> QueuedItems{0};
  std::atomic<uint64_t> LinesAccepted{0};
  std::atomic<uint64_t> ParseErrors{0};
  std::atomic<uint64_t> RacesDelivered{0};
  std::atomic<bool> JournalTruncated{false};
};

//===----------------------------------------------------------------------===//
// Health
//===----------------------------------------------------------------------===//

/// The service's monotonic counters, one X(Field, "exported_name") row
/// each (DESIGN.md §13). ServiceHealth, the atomic block behind it, the
/// health JSON and the "service." telemetry counters are expanded from it.
#define GOLD_SERVICE_COUNTERS(X)                                               \
  X(SessionsOpened, "sessions_opened")                                         \
  X(SessionsClosed, "sessions_closed")                                         \
  X(SessionsShed, "sessions_shed")                                             \
  X(LostSessions, "lost_sessions")                    /* shard-lost kills */   \
  X(LinesAccepted, "lines_accepted")                                           \
  X(ParseErrors, "parse_errors")                                               \
  X(ActionsRouted, "actions_routed")                                           \
  X(BackpressureRejects, "backpressure_rejects")                               \
  X(AdmissionRejects, "admission_rejects")                                     \
  X(Reincarnations, "reincarnations")                                          \
  X(ItemsDiscarded, "items_discarded")                /* reincarnation drop */ \
  X(ReplayedActions, "replayed_actions")              /* journal re-feeds */   \
  X(RacesDelivered, "races_delivered")                                         \
  X(VerdictsDroppedDead, "verdicts_dropped_dead")     /* for dead sessions */  \
  X(DroppedPendingActions, "dropped_pending_actions") /* abandoned at close */ \
  X(IdleReaped, "idle_reaped")                        /* idle-timeout kills */ \
  X(WedgeRequests, "wedge_requests")                  /* shard-wedge fires */

/// Point-in-time service health: ladder state, queue bounds, session and
/// verdict-loss accounting, plus every shard engine's own health snapshot.
struct ServiceHealth {
  unsigned Shards = 0;
  unsigned LadderState = 0; ///< 0 normal, 1 admission-paused, 2 shedding
  size_t ActiveSessions = 0;
  size_t QueuedItems = 0;
  size_t QueuedBytes = 0;
  size_t QueuedBytesHighWater = 0;
  GOLD_COUNTER_FIELDS(GOLD_SERVICE_COUNTERS)
  /// Total accounted possible-verdict-loss events: lost sessions, dead
  /// drops and abandoned pendings. Zero means the service is provably
  /// exact.
  uint64_t VerdictLossEvents = 0;
  unsigned MaxShardDegradation = 0;
  bool AnyShardGloballyDegraded = false;
  std::vector<EngineHealth> ShardHealth;

  /// One-line render (shards' own lines available via ShardHealth).
  std::string str() const;
  /// Members of an (already begun) JSON object, shard healths included.
  void jsonBody(JsonWriter &J) const;
  void toJson(JsonWriter &J) const;
};

//===----------------------------------------------------------------------===//
// DetectionService
//===----------------------------------------------------------------------===//

/// The sharded always-on core. Construct, open() sessions, feed them, and
/// either drive deterministically — pumpAll()/poll() — or start() the
/// consumer threads. shutdown() is crash-only and idempotent.
class DetectionService {
public:
  explicit DetectionService(ServiceConfig C = ServiceConfig());
  ~DetectionService();

  DetectionService(const DetectionService &) = delete;
  DetectionService &operator=(const DetectionService &) = delete;

  struct OpenResult {
    Session *S = nullptr;         ///< null when admission was refused
    uint64_t RetryAfterNanos = 0; ///< backoff hint when refused for load
    std::string Error;            ///< refusal diagnostic
  };

  /// Admits a new client session. Refuses (with retry-after) while the
  /// ladder has paused admission or the namespace is exhausted. The
  /// returned session is owned by the service and stays valid until the
  /// service is destroyed.
  OpenResult open(uint64_t ClientId, unsigned Priority = 1);

  /// Drains up to PumpBatch items of one shard into its engine. Returns
  /// items applied. Safe to call from any thread; per-shard consumers are
  /// serialized internally. Returns 0 while the shard is wedged or paused.
  size_t pumpShard(unsigned Shard);
  /// One round over every shard; returns total items applied.
  size_t pumpAll();
  /// Pumps until every ring is empty (deterministic tests); returns items.
  size_t drain();

  /// One supervision step: per-shard engine supervisors, the service
  /// ladder (admission pause / shedding), idle reaping, and any requested
  /// reincarnations. The watchdog thread calls this on its period; tests
  /// call it directly.
  void poll();

  /// Starts per-shard consumer threads plus the service watchdog.
  void start();
  /// Stops and joins all service threads (idempotent).
  void stop();

  /// True between start() and stop(): consumer threads own the shards.
  /// Otherwise whoever holds refused work is the consumer and must pump.
  bool consumersRunning() const {
    return Running.load(std::memory_order_acquire);
  }
  /// One step of progress for a caller waiting on the shards (a refused
  /// frame, a closing session): pumpAll() + poll() when no consumer threads
  /// run, else a short wait for the consumers (DESIGN.md §14).
  void makeProgress();

  /// Crash-only quiesce: stop threads, drain what is queued, close every
  /// session (ServiceShutdown), quiesce every engine. Idempotent.
  void shutdown();

  /// Forces a crash-only engine swap on one shard (the path the
  /// service-shard-wedge failpoint and GloballyDegraded engines take).
  void reincarnateShard(unsigned Shard);

  /// Reincarnates every shard and recycles the namespace slots of dead
  /// sessions, so an always-on service can admit new clients indefinitely.
  /// Returns the number of slots recycled.
  size_t recycleNamespaces();

  ServiceHealth health() const;
  /// Service telemetry snapshot (counters mirror health; Full level adds
  /// the ingest-latency histogram). Shard engine telemetry is per-engine
  /// via shardEngine(i).telemetry().
  TelemetrySnapshot telemetry() const;

  unsigned shards() const { return NumShards; }
  GoldilocksEngine &shardEngine(unsigned Shard);

  const ServiceConfig &config() const { return Cfg; }
  uint64_t nowNanos() const { return Now(); }
  /// True when ingest-latency histogram samples are being collected (Full
  /// telemetry) — producers only stamp EnqueueNanos then.
  bool wantsLatencySamples() const { return HIngestLatency != nullptr; }
  /// True when the pipeline-tracing hooks are armed (Cfg.Trace.Enabled).
  bool pipeTracingEnabled() const { return TraceOn; }
  /// Sampled pipeline span ring; null when tracing is off. Spans carry
  /// tid = session index and args {client, seq}.
  TraceEventSink *spanSink() const { return SpanSink.get(); }

private:
  friend class Session;

  struct ShardState;

  /// Producer-side admission of one item into shard \p S's ring, enforcing
  /// the global byte budget. Called by sessions.
  PushResult pushItem(unsigned S, const ShardItem &It);

  /// Applies one queued item to a shard engine, delivering any verdicts.
  void applyItem(ShardState &Sh, const ShardItem &It);
  /// Retires one of \p Se's items (applied, skipped or discarded), which
  /// may finalize it. Under ConsumerMu; Se->Mu nests inside, as in deliver.
  void retireItem(Session *Se);
  /// Feeds one journal action into a freshly reincarnated shard.
  void replayAction(ShardState &Sh, Session &S, const Action &A,
                    const CommitSets *CS);
  /// The reincarnation body; requires the shard's consumer mutex.
  void reincarnateLocked(unsigned S, ShardState &Sh);
  void bindSupervisor(ShardState &Sh);

  Session *sessionAt(uint32_t Idx) const;
  uint64_t Now() const;

  ServiceConfig Cfg;
  const unsigned NumShards;
  std::vector<std::unique_ptr<ShardState>> ShardsVec;

  // Sessions: slots are preallocated so Session pointers are stable and
  // consumers can index without locks. Every slot is published through an
  // atomic pointer (release store on open, acquire load in sessionAt) —
  // the count alone would only cover fresh slots, not recycled ones, whose
  // unique_ptr reset would otherwise race lock-free readers.
  mutable std::mutex SessionsMu;
  std::vector<std::unique_ptr<Session>> Sessions;
  std::unique_ptr<std::atomic<Session *>[]> SessionSlots;
  std::vector<uint32_t> FreeSlots; ///< recycled namespace slots
  /// Consecutive admission refusals (guarded by SessionsMu). Drives the
  /// shared jittered backoff schedule for open()'s retry-after hints, so a
  /// herd of refused clients spreads out instead of re-knocking in lockstep
  /// at a flat cap. Reset on the next successful admission.
  unsigned AdmissionAttempt = 0;
  /// Sessions whose slot was recycled. Kept (never destroyed mid-run) so a
  /// stale client handle still answers state() == Dead instead of dangling.
  std::vector<std::unique_ptr<Session>> Retired;
  std::atomic<uint32_t> SessionCount{0};

  // Global queue accounting (the backpressure bound).
  std::atomic<size_t> QueuedBytes{0};
  std::atomic<size_t> QueuedBytesHighWater{0};

  // Ladder state.
  std::atomic<unsigned> LadderState{0};
  std::atomic<bool> ShuttingDown{false};

  // Service counters (source of truth; health and telemetry mirror them).
  struct Counters {
    GOLD_COUNTER_ATOMICS(GOLD_SERVICE_COUNTERS)
  };
  Counters C;

  // Telemetry.
  std::unique_ptr<Telemetry> Tel;
  Histogram *HIngestLatency = nullptr; ///< Full level only

  // Pipeline tracing (Cfg.Trace). The per-stage histograms are registered
  // in Tel so they ride the ordinary metrics snapshot; null when tracing is
  // off or telemetry is off — every recording site gates on the pointer.
  bool TraceOn = false;
  Histogram *HPipeWire = nullptr;     ///< origin -> admission
  Histogram *HPipeRingWait = nullptr; ///< admission -> shard pop
  Histogram *HPipeApply = nullptr;    ///< shard pop -> applied
  Histogram *HPipeVerdict = nullptr;  ///< origin -> verdict delivered
  std::unique_ptr<TraceEventSink> SpanSink;

  // Threads (start()/stop()).
  std::mutex LifecycleMu;
  std::vector<std::thread> Consumers;
  std::thread Watchdog;
  std::mutex WakeMu; ///< with WakeCv: stop() cuts the watchdog's sleep short
  std::condition_variable WakeCv;
  std::atomic<bool> StopFlag{false};
  std::atomic<bool> Running{false};
};

} // namespace gold

#endif // GOLD_SERVICE_SERVICE_H
