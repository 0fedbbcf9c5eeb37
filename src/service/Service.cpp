//===- service/Service.cpp ------------------------------------------------===//

#include "service/Service.h"

#include "support/Failpoints.h"

#include <cassert>
#include <chrono>
#include <utility>

#include <unistd.h>

using namespace gold;

const char *gold::closeReasonName(CloseReason R) {
  switch (R) {
  case CloseReason::None:
    return "none";
  case CloseReason::ClientClose:
    return "client-close";
  case CloseReason::ErrorBudget:
    return "error-budget";
  case CloseReason::IdleTimeout:
    return "idle-timeout";
  case CloseReason::Shed:
    return "shed";
  case CloseReason::ShardLost:
    return "shard-lost";
  case CloseReason::ServiceShutdown:
    return "service-shutdown";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Internal helpers
//===----------------------------------------------------------------------===//

namespace {

/// True when every identifier the action names fits below NamespaceStride
/// (commit sets are validated where they are available).
bool fitsNamespace(const Action &A) {
  if (A.Thread >= NamespaceStride)
    return false;
  switch (A.Kind) {
  case ActionKind::Alloc:
  case ActionKind::Read:
  case ActionKind::Write:
  case ActionKind::VolatileRead:
  case ActionKind::VolatileWrite:
  case ActionKind::Acquire:
  case ActionKind::Release:
    return A.Var.Object < NamespaceStride;
  case ActionKind::Fork:
  case ActionKind::Join:
    return A.Target < NamespaceStride;
  case ActionKind::Commit:
  case ActionKind::Terminate:
    return true;
  }
  return true;
}

/// Feeds one (already remapped) action into an engine, handing any verdicts
/// to \p Deliver. The single switch both the pump and the replay use, so the
/// two paths cannot drift.
template <typename DeliverFn>
void applyAction(GoldilocksEngine &E, const Action &A, const CommitSets *CS,
                 DeliverFn &&Deliver) {
  switch (A.Kind) {
  case ActionKind::Alloc:
    E.onAlloc(A.Thread, A.Var.Object, A.Var.Field);
    break;
  case ActionKind::Read:
    if (auto R = E.onRead(A.Thread, A.Var))
      Deliver(*R);
    break;
  case ActionKind::Write:
    if (auto R = E.onWrite(A.Thread, A.Var))
      Deliver(*R);
    break;
  case ActionKind::VolatileRead:
    E.onVolatileRead(A.Thread, A.Var);
    break;
  case ActionKind::VolatileWrite:
    E.onVolatileWrite(A.Thread, A.Var);
    break;
  case ActionKind::Acquire:
    E.onAcquire(A.Thread, A.Var.Object);
    break;
  case ActionKind::Release:
    E.onRelease(A.Thread, A.Var.Object);
    break;
  case ActionKind::Fork:
    E.onFork(A.Thread, A.Target);
    break;
  case ActionKind::Join:
    E.onJoin(A.Thread, A.Target);
    break;
  case ActionKind::Commit:
    assert(CS && "commit item without its sets");
    for (const RaceReport &R : E.onCommit(A.Thread, *CS))
      Deliver(R);
    break;
  case ActionKind::Terminate:
    E.onTerminate(A.Thread);
    break;
  }
}

uint64_t steadyNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

Session::Session(DetectionService &Svc, uint32_t Index, uint64_t Client,
                 unsigned Priority)
    : Svc(Svc), Index(Index), Base((Index + 1) * NamespaceStride),
      Shard(Index % Svc.shards()), Client(Client), Priority(Priority) {
  LastFeedNanos.store(Svc.nowNanos(), std::memory_order_relaxed);
}

Action Session::mapAction(const Action &Raw) const {
  Action A = Raw;
  A.Thread = mapId(Raw.Thread);
  switch (Raw.Kind) {
  case ActionKind::Alloc: // Var.Field is the field count, not an id
  case ActionKind::Read:
  case ActionKind::Write:
  case ActionKind::VolatileRead:
  case ActionKind::VolatileWrite:
  case ActionKind::Acquire:
  case ActionKind::Release:
    A.Var.Object = mapId(Raw.Var.Object);
    break;
  case ActionKind::Fork:
  case ActionKind::Join:
    A.Target = mapId(Raw.Target);
    break;
  case ActionKind::Commit:
  case ActionKind::Terminate:
    break;
  }
  return A;
}

RaceReport Session::unmapReport(RaceReport R) const {
  R.Var.Object = unmapId(R.Var.Object);
  if (R.Thread != NoThread)
    R.Thread = unmapId(R.Thread);
  if (R.PriorThread != NoThread)
    R.PriorThread = unmapId(R.PriorThread);
  return R;
}

SessionState Session::state() const {
  std::lock_guard<std::mutex> G(Mu);
  return State;
}

CloseReason Session::closeReason() const {
  std::lock_guard<std::mutex> G(Mu);
  return Reason;
}

void Session::close() {
  std::lock_guard<std::mutex> G(Mu);
  closeLocked(CloseReason::ClientClose);
}

void Session::closeLocked(CloseReason R) {
  if (State == SessionState::Dead)
    return;
  if (State == SessionState::Open)
    Svc.C.SessionsClosed.fetch_add(1, std::memory_order_relaxed);
  if (HasPending) {
    // A parsed action that never reached its shard dies with the session:
    // explicit, counted loss — never a silent one.
    HasPending = false;
    Svc.C.DroppedPendingActions.fetch_add(1, std::memory_order_relaxed);
  }
  if (R == CloseReason::ClientClose) {
    if (State == SessionState::Open) {
      State = SessionState::Draining;
      Reason = R;
      finalizeIfDrainedLocked();
    }
    return;
  }
  // Hard (crash-only) teardown. A Draining session finalized by shutdown
  // keeps its own reason; everything else records the killer.
  if (!(State == SessionState::Draining &&
        R == CloseReason::ServiceShutdown))
    Reason = R;
  State = SessionState::Dead;
  switch (R) {
  case CloseReason::Shed:
    Svc.C.SessionsShed.fetch_add(1, std::memory_order_relaxed);
    break;
  case CloseReason::ShardLost:
    Svc.C.LostSessions.fetch_add(1, std::memory_order_relaxed);
    break;
  case CloseReason::IdleTimeout:
    Svc.C.IdleReaped.fetch_add(1, std::memory_order_relaxed);
    break;
  default:
    break;
  }
  (void)Parser.take(); // a Dead session is never replayed; free the journal
}

void Session::finalizeIfDrainedLocked() {
  // Acquire pairs with retireItem's decrement: the last verdicts are in.
  if (State != SessionState::Draining ||
      QueuedItems.load(std::memory_order_acquire) != 0)
    return;
  State = SessionState::Dead;
  (void)Parser.take(); // fully applied: never replayed again
}

std::vector<RaceReport> Session::takeVerdicts() {
  std::lock_guard<std::mutex> G(Mu);
  std::vector<RaceReport> Out;
  Out.swap(Verdicts);
  return Out;
}

void Session::deliver(const RaceReport &R) {
  std::lock_guard<std::mutex> G(Mu);
  deliverLocked(R);
}

void Session::deliverLocked(const RaceReport &R) {
  if (State == SessionState::Dead) {
    Svc.C.VerdictsDroppedDead.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Dedup by variable: with DisableVarAfterRace (which the service forces)
  // an engine emits at most one verdict per variable, so a replayed journal
  // regenerating the same race after a reincarnation is dropped here — this
  // is the "zero duplicated verdicts" half of the recovery contract.
  if (!RacyVarKeys.insert(R.Var.key()).second)
    return;
  Verdicts.push_back(unmapReport(R));
  RacesDelivered.fetch_add(1, std::memory_order_relaxed);
  Svc.C.RacesDelivered.fetch_add(1, std::memory_order_relaxed);
}

bool Session::pushPendingLocked() {
  if (Svc.pushItem(Shard, Pending) != PushResult::Ok)
    return false; // Full and Closed both mean: retry this same line later
  QueuedItems.fetch_add(1, std::memory_order_relaxed);
  HasPending = false;
  BackoffAttempt = 0;
  return true;
}

FeedResult Session::backpressuredLocked(FeedResult Res) {
  Svc.C.BackpressureRejects.fetch_add(1, std::memory_order_relaxed);
  Res.St = FeedResult::Status::Backpressure;
  Res.RetryAfterNanos = backoffNanos(
      BackoffBaseNanos, BackoffAttempt++,
      Client ^ (static_cast<uint64_t>(Index) << 32), BackoffMaxNanos);
  return Res;
}

FeedResult Session::acceptedLocked(FeedResult Res) {
  LinesAccepted.fetch_add(1, std::memory_order_relaxed);
  Svc.C.LinesAccepted.fetch_add(1, std::memory_order_relaxed);
  return Res;
}

bool Session::feedGateLocked(FeedResult &Res) {
  if (State != SessionState::Open) {
    Res.St = FeedResult::Status::Closed;
    Res.Error =
        std::string("session closed (") + closeReasonName(Reason) + ")";
    return true;
  }
  if (Svc.ShuttingDown.load(std::memory_order_relaxed)) {
    // Refusing new lines here is what bounds the shutdown drain: rings can
    // only shrink once the flag is up. The session itself is not torn down;
    // its delivered verdicts stay takeable.
    Res.St = FeedResult::Status::Closed;
    Res.Error = "service is shutting down";
    return true;
  }
  LastFeedNanos.store(Svc.nowNanos(), std::memory_order_relaxed);
  failpointStall(Failpoint::ServiceClientHang);

  // A backpressured line was not consumed: the retry presents the same line
  // again, and we push the remembered action without re-parsing it.
  if (HasPending) {
    Res = pushPendingLocked() ? acceptedLocked(std::move(Res))
                               : backpressuredLocked(std::move(Res));
    return true;
  }
  return false;
}

FeedResult Session::rejectParseLocked(FeedResult Res) {
  ParseErrors.fetch_add(1, std::memory_order_relaxed);
  Svc.C.ParseErrors.fetch_add(1, std::memory_order_relaxed);
  ++ErrorsSeen;
  Res.St = FeedResult::Status::Rejected;
  Res.Error =
      "line " + std::to_string(Parser.lineNo()) + ": " + Parser.error();
  if (ErrorsSeen > Svc.config().SessionErrorBudget) {
    closeLocked(CloseReason::ErrorBudget);
    Res.Error += " (error budget exhausted; session closed)";
  }
  return Res;
}

FeedResult Session::admitNewestLocked(FeedResult Res, size_t Before,
                                      uint32_t Bytes, const FrameTrace *FT) {
  const Trace &J = Parser.peek();
  if (J.Actions.size() == Before)
    return acceptedLocked(std::move(Res)); // blank or comment line

  const Action &Raw = J.Actions.back();
  bool NsOk = fitsNamespace(Raw);
  std::shared_ptr<CommitSets> CS;
  if (NsOk && Raw.Kind == ActionKind::Commit) {
    const CommitSets &RawCS = J.commitSets(Raw);
    CS = std::make_shared<CommitSets>();
    for (const VarId &V : RawCS.Reads) {
      if (V.Object >= NamespaceStride) {
        NsOk = false;
        break;
      }
      CS->Reads.push_back(VarId{mapId(V.Object), V.Field});
    }
    for (const VarId &V : RawCS.Writes) {
      if (!NsOk || V.Object >= NamespaceStride) {
        NsOk = false;
        break;
      }
      CS->Writes.push_back(VarId{mapId(V.Object), V.Field});
    }
    if (NsOk)
      CS->prepareSorted();
  }
  if (!NsOk) {
    // The parser accepted the line, so it is already in the journal — and a
    // replay would trip over it the same way. Rather than track skip lists,
    // treat a namespace overflow as the client misbehaving and tear the
    // session down crash-only (it is the one client that cannot be isolated).
    ParseErrors.fetch_add(1, std::memory_order_relaxed);
    Svc.C.ParseErrors.fetch_add(1, std::memory_order_relaxed);
    closeLocked(CloseReason::ErrorBudget);
    Res.St = FeedResult::Status::Rejected;
    Res.Error = "line " + std::to_string(Parser.lineNo()) +
                ": identifier exceeds the per-session namespace (max " +
                std::to_string(NamespaceStride - 1) + "); session closed";
    return Res;
  }

  Pending = ShardItem();
  Pending.SessionIdx = Index;
  Pending.Bytes = Bytes ? Bytes : 1;
  Pending.EnqueueNanos = Svc.wantsLatencySamples() ? Svc.nowNanos() : 0;
  if (FT && FT->OriginNanos && Svc.TraceOn) {
    // The wire stage closes here: one record per frame, because the
    // backpressure-retry paths in feedGateLocked return before this point.
    Pending.TraceOrigin = FT->OriginNanos;
    Pending.TraceAdmit = Svc.nowNanos();
    Pending.TraceSeq = FT->FrameSeq;
    Pending.TraceSpan = FT->Span;
    if (Svc.HPipeWire)
      Svc.HPipeWire->record(Pending.TraceAdmit > FT->OriginNanos
                                ? Pending.TraceAdmit - FT->OriginNanos
                                : 0);
  }
  Pending.A = mapAction(Raw);
  Pending.CS = std::move(CS);
  HasPending = true;

  // Journal cap: beyond it the journal is dropped (the pending copy above
  // is self-contained). The session keeps streaming, but it can no longer
  // survive a shard reincarnation — recorded, so the loss is counted when
  // it actually happens. The parser stays usable after take(), so a
  // truncated journal that regrows past the cap is dropped again.
  if (J.Actions.size() > Svc.config().JournalCapActions) {
    (void)Parser.take();
    JournalTruncated.store(true, std::memory_order_relaxed);
  }

  return pushPendingLocked() ? acceptedLocked(std::move(Res))
                              : backpressuredLocked(std::move(Res));
}

FeedResult Session::feedLine(const std::string &Line, const FrameTrace *FT) {
  std::lock_guard<std::mutex> G(Mu);
  FeedResult Res;
  if (feedGateLocked(Res))
    return Res;
  size_t Before = Parser.peek().Actions.size();
  if (!Parser.feedLine(Line))
    return rejectParseLocked(std::move(Res));
  return admitNewestLocked(std::move(Res), Before,
                           static_cast<uint32_t>(Line.size() ? Line.size() : 1),
                           FT);
}

FeedResult Session::feedAction(const Action &A, const CommitSets *CS,
                               uint32_t Bytes, const FrameTrace *FT) {
  std::lock_guard<std::mutex> G(Mu);
  FeedResult Res;
  if (feedGateLocked(Res))
    return Res;
  size_t Before = Parser.peek().Actions.size();
  if (!Parser.feedAction(A, CS))
    return rejectParseLocked(std::move(Res));
  return admitNewestLocked(std::move(Res), Before, Bytes, FT);
}

//===----------------------------------------------------------------------===//
// ServiceHealth
//===----------------------------------------------------------------------===//

std::string ServiceHealth::str() const {
  std::string Out;
  Out.reserve(256);
  char Buf[96];
  auto Add = [&](const char *Key, unsigned long long V) {
    std::snprintf(Buf, sizeof(Buf), "%s=%llu", Key, V);
    if (!Out.empty())
      Out += ' ';
    Out += Buf;
  };
  static const char *LadderNames[] = {"normal", "admission-paused",
                                      "shedding"};
  std::snprintf(Buf, sizeof(Buf), "state=%s shards=%u",
                LadderState < 3 ? LadderNames[LadderState] : "?", Shards);
  Out += Buf;
  Add("sessions", ActiveSessions);
  Add("opened", SessionsOpened);
  Add("closed", SessionsClosed);
  Add("shed", SessionsShed);
  Add("lost", LostSessions);
  Add("lines", LinesAccepted);
  Add("parse-errors", ParseErrors);
  Add("routed", ActionsRouted);
  Add("backpressure", BackpressureRejects);
  Add("admission-rejects", AdmissionRejects);
  Add("queued", QueuedItems);
  std::snprintf(Buf, sizeof(Buf), " queued-bytes=%zu (hw %zu)", QueuedBytes,
                QueuedBytesHighWater);
  Out += Buf;
  Add("reincarnations", Reincarnations);
  Add("discarded", ItemsDiscarded);
  Add("replayed", ReplayedActions);
  Add("races", RacesDelivered);
  Add("verdict-loss-events", VerdictLossEvents);
  std::snprintf(Buf, sizeof(Buf), " max-shard-level=%u%s",
                MaxShardDegradation,
                AnyShardGloballyDegraded ? " SHARD-GLOBAL-DEGRADED" : "");
  Out += Buf;
  return Out;
}

void ServiceHealth::jsonBody(JsonWriter &J) const {
  J.kv("shards", Shards);
  J.kv("ladder_state", LadderState);
  J.kv("active_sessions", (uint64_t)ActiveSessions);
  J.kv("queued_items", (uint64_t)QueuedItems);
  J.kv("queued_bytes", (uint64_t)QueuedBytes);
  J.kv("queued_bytes_high_water", (uint64_t)QueuedBytesHighWater);
  jsonCounters(J, *this);
  J.kv("verdict_loss_events", VerdictLossEvents);
  J.kv("max_shard_degradation", MaxShardDegradation);
  J.kv("any_shard_globally_degraded", AnyShardGloballyDegraded);
  J.key("shard_health");
  J.beginArray();
  for (const EngineHealth &H : ShardHealth)
    H.toJson(J);
  J.endArray();
}

void ServiceHealth::toJson(JsonWriter &J) const {
  J.beginObject();
  jsonBody(J);
  J.endObject();
}

//===----------------------------------------------------------------------===//
// DetectionService
//===----------------------------------------------------------------------===//

/// One engine shard: the engine itself, its supervisor, its bounded inbox,
/// and the consumer serialization the reincarnation path piggybacks on.
struct DetectionService::ShardState {
  ShardState(unsigned Index, size_t RingCap) : Index(Index), Ring(RingCap) {}

  const unsigned Index;
  IngestRing<ShardItem> Ring;
  std::unique_ptr<GoldilocksEngine> Engine;
  std::unique_ptr<Supervisor> Sup;
  /// Serializes the consumer role: pump slices, reincarnation, supervisor
  /// polls and engine-pointer reads all hold this, so the engine swap can
  /// never race an application.
  std::mutex ConsumerMu;
  std::atomic<bool> WedgeRequested{false};
  /// Owner of the item the wedge lost; retired after the replay rebuilds it.
  Session *WedgeDropped = nullptr;
};

static unsigned clampShards(unsigned N) {
  // <= 64: each shard is an engine plus a consumer thread in threaded mode.
  return N < 1 ? 1 : (N > 64 ? 64 : N);
}

DetectionService::DetectionService(ServiceConfig CIn)
    : Cfg(std::move(CIn)), NumShards(clampShards(Cfg.Shards)) {
  // The verdict dedup across reincarnation replays keys on "at most one
  // race per variable per engine", which is exactly DisableVarAfterRace.
  Cfg.Engine.DisableVarAfterRace = true;
  if (!Cfg.NowNanos)
    Cfg.NowNanos = steadyNanos;
  // Base + Stride - 1 must fit a uint32 id: (Idx + 2) * Stride - 1.
  const size_t MaxSlots = (0xffffffffu / NamespaceStride) - 1;
  if (Cfg.MaxSessions > MaxSlots)
    Cfg.MaxSessions = MaxSlots;
  if (Cfg.MaxSessions < 1)
    Cfg.MaxSessions = 1;
  Sessions.resize(Cfg.MaxSessions);
  SessionSlots.reset(new std::atomic<Session *>[Cfg.MaxSessions]);
  for (size_t I = 0; I != Cfg.MaxSessions; ++I)
    SessionSlots[I].store(nullptr, std::memory_order_relaxed);
  if (Cfg.Telemetry != TelemetryLevel::Off) {
    Tel.reset(new Telemetry(Cfg.Telemetry));
    if (Tel->fullEnabled())
      HIngestLatency = &Tel->histogram("service.ingest_latency_nanos");
  }
  if (Cfg.Trace.Enabled) {
    TraceOn = true;
    // Histograms are a full-telemetry surface (gold-metrics-v1 forbids them
    // at lower levels), so stage attribution follows the same gate as
    // service.ingest_latency_nanos; spans are independent of the level.
    if (Tel && Tel->fullEnabled()) {
      HPipeWire = &Tel->histogram("pipe.wire");
      HPipeRingWait = &Tel->histogram("pipe.ring_wait");
      HPipeApply = &Tel->histogram("pipe.apply");
      HPipeVerdict = &Tel->histogram("pipe.verdict");
    }
    // Bounded capacity of the span ring (Chrome trace events).
    constexpr size_t SpanCapacity = 8192;
    SpanSink.reset(
        new TraceEventSink(SpanCapacity, static_cast<uint32_t>(::getpid())));
  }
  ShardsVec.reserve(NumShards);
  for (unsigned S = 0; S != NumShards; ++S) {
    ShardsVec.emplace_back(new ShardState(S, Cfg.RingCapacity));
    ShardState &Sh = *ShardsVec.back();
    Sh.Engine.reset(new GoldilocksEngine(Cfg.Engine));
    bindSupervisor(Sh);
  }
}

DetectionService::~DetectionService() { shutdown(); }

void DetectionService::bindSupervisor(ShardState &Sh) {
  // Bind through the ShardState, not the engine pointer, so the bundle
  // stays valid across reincarnation swaps (callbacks only ever run under
  // Sh.ConsumerMu, the same lock the swap holds).
  SupervisedEngine T;
  T.Sample = [&Sh] { return Sh.Engine->health(); };
  T.Escalate = [&Sh](unsigned Rung) { Sh.Engine->escalateLadder(Rung); };
  T.ReclaimDeadSlots = [&Sh] {
    return Sh.Engine->reclaimDeadSlotsIfExhausted();
  };
  T.DumpTelemetry = [&Sh] { return Sh.Engine->stallDump(); };
  Sh.Sup.reset(new Supervisor(std::move(T), Cfg.ShardSupervisor));
}

uint64_t DetectionService::Now() const { return Cfg.NowNanos(); }

GoldilocksEngine &DetectionService::shardEngine(unsigned Shard) {
  return *ShardsVec[Shard]->Engine;
}

Session *DetectionService::sessionAt(uint32_t Idx) const {
  if (Idx >= SessionCount.load(std::memory_order_acquire))
    return nullptr;
  // Acquire pairs with open()'s release store: readers of a recycled slot
  // see either the fully constructed new session or the retired (Dead, but
  // still alive) old one — never a half-built object or a torn pointer.
  return SessionSlots[Idx].load(std::memory_order_acquire);
}

DetectionService::OpenResult DetectionService::open(uint64_t ClientId,
                                                    unsigned Priority) {
  OpenResult R;
  std::lock_guard<std::mutex> G(SessionsMu);
  if (ShuttingDown.load(std::memory_order_relaxed)) {
    R.Error = "service is shutting down";
    return R;
  }
  if (LadderState.load(std::memory_order_relaxed) >= 1) {
    C.AdmissionRejects.fetch_add(1, std::memory_order_relaxed);
    R.Error = "admission paused (service overloaded)";
    // Same jittered schedule as ring producers and the wire: consecutive
    // refusals back off exponentially instead of re-knocking at a flat cap.
    R.RetryAfterNanos = backoffNanos(BackoffBaseNanos, AdmissionAttempt++,
                                     ClientId, BackoffMaxNanos);
    return R;
  }
  uint32_t Idx;
  if (!FreeSlots.empty()) {
    // recycleNamespaces already moved the old occupant to Retired.
    Idx = FreeSlots.back();
    FreeSlots.pop_back();
  } else if (SessionCount.load(std::memory_order_relaxed) <
             Sessions.size()) {
    Idx = SessionCount.load(std::memory_order_relaxed);
  } else {
    C.AdmissionRejects.fetch_add(1, std::memory_order_relaxed);
    R.Error = "session namespace exhausted (recycleNamespaces reclaims "
              "dead slots)";
    R.RetryAfterNanos = backoffNanos(BackoffBaseNanos, AdmissionAttempt++,
                                     ClientId, BackoffMaxNanos);
    return R;
  }
  Sessions[Idx].reset(new Session(*this, Idx, ClientId, Priority));
  SessionSlots[Idx].store(Sessions[Idx].get(), std::memory_order_release);
  if (Idx == SessionCount.load(std::memory_order_relaxed))
    SessionCount.store(Idx + 1, std::memory_order_release);
  C.SessionsOpened.fetch_add(1, std::memory_order_relaxed);
  AdmissionAttempt = 0;
  R.S = Sessions[Idx].get();
  return R;
}

PushResult DetectionService::pushItem(unsigned S, const ShardItem &It) {
  // The global byte budget is the hard backpressure bound: a stalled shard
  // turns into rejections here, never into heap growth. The bytes are
  // *reserved* before the push and rolled back on rejection — adding them
  // after publication would let a consumer pop the item and subtract its
  // bytes first, wrapping the unsigned counter below zero.
  size_t NewB =
      QueuedBytes.fetch_add(It.Bytes, std::memory_order_relaxed) + It.Bytes;
  if (NewB > Cfg.MaxQueuedBytes) {
    QueuedBytes.fetch_sub(It.Bytes, std::memory_order_relaxed);
    return PushResult::Full;
  }
  ShardState &Sh = *ShardsVec[S];
  PushResult R = Sh.Ring.tryPush(It);
  if (R != PushResult::Ok) {
    QueuedBytes.fetch_sub(It.Bytes, std::memory_order_relaxed);
    return R;
  }
  size_t HW = QueuedBytesHighWater.load(std::memory_order_relaxed);
  while (NewB > HW && !QueuedBytesHighWater.compare_exchange_weak(
                          HW, NewB, std::memory_order_relaxed))
    ;
  C.ActionsRouted.fetch_add(1, std::memory_order_relaxed);
  return PushResult::Ok;
}

void DetectionService::applyItem(ShardState &Sh, const ShardItem &It) {
  Session *Se = sessionAt(It.SessionIdx);
  assert(Se && "queued item for a session that was never opened");
  applyAction(*Sh.Engine, It.A, It.CS.get(), [&](const RaceReport &R) {
    Se->deliver(R);
    if (It.TraceOrigin) {
      uint64_t NowN = Now();
      uint64_t Dur = NowN > It.TraceOrigin ? NowN - It.TraceOrigin : 0;
      if (HPipeVerdict)
        HPipeVerdict->record(Dur);
      if (It.TraceSpan && SpanSink)
        SpanSink->spanTagged("verdict", "pipe", It.SessionIdx, It.TraceOrigin,
                             Dur, Se->clientId(), It.TraceSeq,
                             static_cast<int32_t>(Sh.Index));
    }
  });
}

void DetectionService::retireItem(Session *Se) {
  if (!Se || Se->QueuedItems.fetch_sub(1, std::memory_order_acq_rel) != 1)
    return;
  std::lock_guard<std::mutex> G(Se->Mu);
  Se->finalizeIfDrainedLocked();
}

size_t DetectionService::pumpShard(unsigned Shard) {
  ShardState &Sh = *ShardsVec[Shard];
  std::lock_guard<std::mutex> G(Sh.ConsumerMu);
  if (Sh.WedgeRequested.load(std::memory_order_relaxed))
    return 0; // wedged: nothing moves until the shard is reincarnated
  size_t N = 0;
  ShardItem It;
  while (N < PumpBatch && Sh.Ring.tryPop(It)) {
    QueuedBytes.fetch_sub(It.Bytes, std::memory_order_relaxed);
    Session *Se = sessionAt(It.SessionIdx);
    // Retired only after it was applied (or consciously skipped): retiring
    // the last item finalizes a Draining session, so an early retire would
    // drop its final action, still in flight, silently.
    ++N;
    failpointStall(Failpoint::ServiceIngestStall);
    if (failpoint(Failpoint::ServiceShardWedge)) {
      // Simulated consumer crash after dequeue, before apply: the item is
      // lost from the queue. The shard stops until poll() reincarnates it,
      // whose journal replay must recover the item — and only then retire it.
      Sh.WedgeDropped = Se;
      Sh.WedgeRequested.store(true, std::memory_order_relaxed);
      C.WedgeRequests.fetch_add(1, std::memory_order_relaxed);
      C.ItemsDiscarded.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (Se && Se->state() != SessionState::Dead) {
      uint64_t PopN = It.TraceOrigin ? Now() : 0;
      applyItem(Sh, It);
      if (HIngestLatency && It.EnqueueNanos) {
        uint64_t NowN = Now();
        HIngestLatency->record(NowN > It.EnqueueNanos
                                   ? NowN - It.EnqueueNanos
                                   : 0);
      }
      if (It.TraceOrigin) {
        // Monotone stage boundaries: clamping residual clock skew forward
        // makes wire+ring_wait+apply == e2e hold exactly per frame, so the
        // merged-trace consistency check is structural, not statistical.
        uint64_t O = It.TraceOrigin;
        uint64_t A = It.TraceAdmit > O ? It.TraceAdmit : O;
        uint64_t P = PopN > A ? PopN : A;
        uint64_t E = Now();
        E = E > P ? E : P;
        if (HPipeRingWait)
          HPipeRingWait->record(P - A);
        if (HPipeApply)
          HPipeApply->record(E - P);
        if (It.TraceSpan && SpanSink) {
          // One wire frame is one ShardItem, so it emits one stage chain;
          // the shard arg names the lane that applied it.
          uint64_t Client = Se->clientId();
          int32_t ShIdx = static_cast<int32_t>(Shard);
          SpanSink->spanTagged("wire", "pipe", It.SessionIdx, O, A - O,
                               Client, It.TraceSeq, ShIdx);
          SpanSink->spanTagged("ring_wait", "pipe", It.SessionIdx, A, P - A,
                               Client, It.TraceSeq, ShIdx);
          SpanSink->spanTagged("apply", "pipe", It.SessionIdx, P, E - P,
                               Client, It.TraceSeq, ShIdx);
          SpanSink->spanTagged("e2e", "pipe", It.SessionIdx, O, E - O,
                               Client, It.TraceSeq, ShIdx);
        }
      }
    } // else: a dead session's queued items are skipped, not applied
    retireItem(Se);
    It = ShardItem(); // drop the commit-set reference before the next pop
  }
  return N;
}

size_t DetectionService::pumpAll() {
  size_t N = 0;
  for (unsigned S = 0; S != NumShards; ++S)
    N += pumpShard(S);
  return N;
}

size_t DetectionService::drain() {
  size_t Total = 0;
  for (;;) {
    size_t N = pumpAll();
    Total += N;
    if (!N)
      break; // empty — or wedged, which only a poll() can clear
  }
  return Total;
}

void DetectionService::replayAction(ShardState &Sh, Session &Se,
                                    const Action &A, const CommitSets *CS) {
  C.ReplayedActions.fetch_add(1, std::memory_order_relaxed);
  applyAction(*Sh.Engine, A, CS, [&](const RaceReport &R) {
    Se.deliverLocked(R); // the replay loop already holds Se.Mu
  });
}

void DetectionService::reincarnateShard(unsigned Shard) {
  ShardState &Sh = *ShardsVec[Shard];
  std::lock_guard<std::mutex> G(Sh.ConsumerMu);
  reincarnateLocked(Shard, Sh);
}

void DetectionService::reincarnateLocked(unsigned S, ShardState &Sh) {
  // 1. Close the inbox: producers see Closed, which they treat exactly like
  //    backpressure (the line is not consumed; they retry after the swap).
  Sh.Ring.close();

  // 2. Discard the queue. The journal — not the queue — is the source of
  //    truth, so dropping items is safe; every drop is counted. They (and
  //    the item a wedge lost) retire only after the replay in step 4.
  std::vector<Session *> Dropped{std::exchange(Sh.WedgeDropped, nullptr)};
  ShardItem It;
  size_t Disc = 0;
  while (Sh.Ring.tryPop(It)) {
    QueuedBytes.fetch_sub(It.Bytes, std::memory_order_relaxed);
    Dropped.push_back(sessionAt(It.SessionIdx));
    ++Disc;
  }
  It = ShardItem();
  C.ItemsDiscarded.fetch_add(Disc, std::memory_order_relaxed);

  // 3. Crash-only quiesce of the old engine, then the fresh swap.
  Sh.Engine->shutdown();
  Sh.Sup.reset();
  Sh.Engine.reset(new GoldilocksEngine(Cfg.Engine));
  bindSupervisor(Sh);

  // 4. Rebuild from the journals of the live sessions on this shard.
  //    Sessions are ID-disjoint, so replaying them one after another
  //    (rather than in the original arrival interleaving) is sound: no
  //    lockset rule can couple two sessions' identifiers. Verdicts
  //    regenerate and dedup in the session; truncated journals cannot
  //    replay, so those sessions are killed with the loss counted. A
  //    pending action is the newest journal entry and never reached the
  //    ring: the replay stops before it, and the producer's retry pushes it
  //    into the reopened ring.
  uint32_t N = SessionCount.load(std::memory_order_acquire);
  for (uint32_t Idx = 0; Idx != N; ++Idx) {
    Session *Se = sessionAt(Idx);
    if (!Se || Se->Shard != S)
      continue;
    std::lock_guard<std::mutex> SG(Se->Mu);
    if (Se->State == SessionState::Dead)
      continue;
    if (Se->JournalTruncated.load(std::memory_order_relaxed)) {
      Se->closeLocked(CloseReason::ShardLost);
      continue;
    }
    const Trace &J = Se->Parser.peek();
    size_t Applied = J.Actions.size() - (Se->HasPending ? 1 : 0);
    for (size_t I = 0; I != Applied; ++I) {
      const Action &Raw = J.Actions[I];
      Action A = Se->mapAction(Raw);
      if (Raw.Kind == ActionKind::Commit) {
        const CommitSets &RawCS = J.commitSets(Raw);
        CommitSets MS;
        for (const VarId &V : RawCS.Reads)
          MS.Reads.push_back(VarId{Se->mapId(V.Object), V.Field});
        for (const VarId &V : RawCS.Writes)
          MS.Writes.push_back(VarId{Se->mapId(V.Object), V.Field});
        MS.prepareSorted();
        replayAction(Sh, *Se, A, &MS);
      } else {
        replayAction(Sh, *Se, A, nullptr);
      }
    }
  }

  // 5. Retire the dropped items, now replayed, and reopen for business.
  for (Session *Se : Dropped)
    retireItem(Se);
  Sh.Ring.reopen();
  Sh.WedgeRequested.store(false, std::memory_order_relaxed);
  C.Reincarnations.fetch_add(1, std::memory_order_relaxed);
}

size_t DetectionService::recycleNamespaces() {
  // Reincarnating every shard leaves fresh engines holding only the live
  // sessions' state — dead namespaces vanish, so their id ranges can be
  // reissued without any cross-session aliasing in lock stacks or Infos.
  // Only sessions already Dead before the swap qualify: one that dies
  // during it (a Draining session whose discarded items retire after its
  // replay) still has state in the fresh engine.
  std::vector<std::pair<uint32_t, Session *>> Dead;
  {
    std::lock_guard<std::mutex> G(SessionsMu);
    uint32_t Count = SessionCount.load(std::memory_order_relaxed);
    for (uint32_t Idx = 0; Idx != Count; ++Idx) {
      Session *Se = Sessions[Idx].get();
      if (Se && Se->state() == SessionState::Dead)
        Dead.emplace_back(Idx, Se);
    }
  }
  for (unsigned S = 0; S != NumShards; ++S)
    reincarnateShard(S);
  std::lock_guard<std::mutex> G(SessionsMu);
  size_t N = 0;
  for (auto [Idx, Se] : Dead) {
    if (Sessions[Idx].get() != Se)
      continue; // a concurrent recycle already took the slot
    FreeSlots.push_back(Idx);
    // SessionSlots[Idx] keeps pointing at the retired session (still alive
    // in Retired, permanently Dead) until open() republishes the slot.
    Retired.push_back(std::move(Sessions[Idx]));
    ++N;
  }
  return N;
}

void DetectionService::poll() {
  if (ShuttingDown.load(std::memory_order_relaxed))
    return;

  // Per-shard supervision and the reincarnation rung. The supervisor poll,
  // the health probe and the swap all run under the shard's consumer mutex,
  // so none of them can race the engine pointer.
  for (unsigned S = 0; S != NumShards; ++S) {
    ShardState &Sh = *ShardsVec[S];
    std::lock_guard<std::mutex> G(Sh.ConsumerMu);
    Sh.Sup->poll();
    if (Sh.WedgeRequested.load(std::memory_order_relaxed) ||
        Sh.Engine->health().GloballyDegraded)
      reincarnateLocked(S, Sh);
  }

  // The service ladder: admission pause, then shedding.
  size_t B = QueuedBytes.load(std::memory_order_relaxed);
  unsigned State = 0;
  if (static_cast<double>(B) >
      ShedFraction * static_cast<double>(Cfg.MaxQueuedBytes))
    State = 2;
  else if (static_cast<double>(B) >
           AdmissionPauseFraction * static_cast<double>(Cfg.MaxQueuedBytes))
    State = 1;
  LadderState.store(State, std::memory_order_relaxed);

  uint32_t N = SessionCount.load(std::memory_order_acquire);
  if (State == 2) {
    // Shed the lowest-priority open session (one per poll: pressure drains
    // as its queued items become skips, so shedding is deliberately slow).
    Session *Victim = nullptr;
    for (uint32_t Idx = 0; Idx != N; ++Idx) {
      Session *Se = sessionAt(Idx);
      if (!Se || Se->state() != SessionState::Open)
        continue;
      if (!Victim || Se->priority() < Victim->priority())
        Victim = Se;
    }
    if (Victim) {
      std::lock_guard<std::mutex> SG(Victim->Mu);
      Victim->closeLocked(CloseReason::Shed);
    }
  }

  if (!Cfg.IdleTimeoutNanos)
    return;
  uint64_t NowN = Now();
  for (uint32_t Idx = 0; Idx != N; ++Idx) {
    Session *Se = sessionAt(Idx);
    if (!Se)
      continue;
    std::lock_guard<std::mutex> SG(Se->Mu);
    uint64_t Last = Se->LastFeedNanos.load(std::memory_order_relaxed);
    if (Se->State == SessionState::Open && NowN > Last &&
        NowN - Last > Cfg.IdleTimeoutNanos)
      Se->closeLocked(CloseReason::IdleTimeout);
  }
}

void DetectionService::start() {
  std::lock_guard<std::mutex> G(LifecycleMu);
  if (!Consumers.empty() || Watchdog.joinable())
    return;
  StopFlag.store(false, std::memory_order_relaxed);
  for (unsigned S = 0; S != NumShards; ++S)
    Consumers.emplace_back([this, S] {
      while (!StopFlag.load(std::memory_order_relaxed)) {
        if (!pumpShard(S))
          std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  unsigned PeriodMs = Cfg.ShardSupervisor.SamplePeriodMillis;
  Watchdog = std::thread([this, PeriodMs] {
    std::unique_lock<std::mutex> L(WakeMu);
    while (!WakeCv.wait_for(
        L, std::chrono::milliseconds(PeriodMs ? PeriodMs : 50),
        [this] { return StopFlag.load(std::memory_order_relaxed); }))
      poll();
  });
  Running.store(true, std::memory_order_release);
}

void DetectionService::stop() {
  std::lock_guard<std::mutex> G(LifecycleMu);
  {
    std::lock_guard<std::mutex> W(WakeMu);
    StopFlag.store(true, std::memory_order_relaxed);
  }
  WakeCv.notify_all();
  for (std::thread &T : Consumers)
    if (T.joinable())
      T.join();
  Consumers.clear();
  if (Watchdog.joinable())
    Watchdog.join();
  Running.store(false, std::memory_order_release);
}

void DetectionService::makeProgress() {
  if (consumersRunning()) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    return;
  }
  pumpAll();
  poll();
}

void DetectionService::shutdown() {
  ShuttingDown.store(true, std::memory_order_relaxed);
  stop();
  // Final drain with the recovery ladder still honored: a shard that wedged
  // earlier — or wedges during this very drain — is reincarnated, and its
  // journal replay rebuilds everything the discarded queue held. Without
  // this, a wedge landing in the shutdown window would turn its discarded
  // items into *silent* verdict loss. Terminates because rings strictly
  // shrink: ShuttingDown makes feedLine refuse new lines, every wedge
  // consumes at least the item it dropped, and replay never refills a ring.
  for (;;) {
    drain();
    bool AnyWedge = false;
    for (unsigned S = 0; S != NumShards; ++S) {
      ShardState &Sh = *ShardsVec[S];
      if (!Sh.WedgeRequested.load(std::memory_order_relaxed))
        continue;
      AnyWedge = true;
      std::lock_guard<std::mutex> G(Sh.ConsumerMu);
      reincarnateLocked(S, Sh);
    }
    if (!AnyWedge)
      break;
  }
  uint32_t N = SessionCount.load(std::memory_order_acquire);
  for (uint32_t Idx = 0; Idx != N; ++Idx) {
    Session *Se = sessionAt(Idx);
    if (!Se)
      continue;
    std::lock_guard<std::mutex> SG(Se->Mu);
    Se->closeLocked(CloseReason::ServiceShutdown);
  }
  for (unsigned S = 0; S != NumShards; ++S) {
    ShardState &Sh = *ShardsVec[S];
    std::lock_guard<std::mutex> G(Sh.ConsumerMu);
    Sh.Engine->quiesce();
  }
}

ServiceHealth DetectionService::health() const {
  ServiceHealth H;
  H.Shards = NumShards;
  H.LadderState = LadderState.load(std::memory_order_relaxed);
  H.QueuedBytes = QueuedBytes.load(std::memory_order_relaxed);
  H.QueuedBytesHighWater =
      QueuedBytesHighWater.load(std::memory_order_relaxed);
  C.loadInto(H);
  H.VerdictLossEvents =
      H.LostSessions + H.VerdictsDroppedDead + H.DroppedPendingActions;
  uint32_t N = SessionCount.load(std::memory_order_acquire);
  for (uint32_t Idx = 0; Idx != N; ++Idx) {
    Session *Se = sessionAt(Idx);
    if (Se && Se->state() != SessionState::Dead)
      ++H.ActiveSessions;
  }
  for (unsigned S = 0; S != NumShards; ++S) {
    ShardState &Sh = *ShardsVec[S];
    H.QueuedItems += Sh.Ring.depth();
    std::lock_guard<std::mutex> G(Sh.ConsumerMu);
    EngineHealth EH = Sh.Engine->health();
    if (EH.DegradationLevel > H.MaxShardDegradation)
      H.MaxShardDegradation = EH.DegradationLevel;
    H.AnyShardGloballyDegraded |= EH.GloballyDegraded;
    H.ShardHealth.push_back(std::move(EH));
  }
  return H;
}

TelemetrySnapshot DetectionService::telemetry() const {
  if (!Tel)
    return TelemetrySnapshot();
  TelemetrySnapshot Snap = Tel->snapshot();
  ServiceHealth H = health();
  addCounters(Snap, "service.", H);
  Snap.addCounter("service.verdict_loss_events", H.VerdictLossEvents);
  Snap.addGauge("service.ladder_state", H.LadderState);
  Snap.addGauge("service.active_sessions",
                static_cast<int64_t>(H.ActiveSessions));
  Snap.addGauge("service.queued_items",
                static_cast<int64_t>(H.QueuedItems));
  Snap.addGauge("service.queued_bytes",
                static_cast<int64_t>(H.QueuedBytes));
  Snap.addGauge("service.queued_bytes_high_water",
                static_cast<int64_t>(H.QueuedBytesHighWater));
  Snap.addGauge("service.max_shard_degradation", H.MaxShardDegradation);
  for (unsigned S = 0; S != NumShards; ++S) {
    const EngineHealth &EH = H.ShardHealth[S];
    std::string P = "service.shard" + std::to_string(S) + ".";
    Snap.addGauge(P + "degradation_level", EH.DegradationLevel);
    Snap.addGauge(P + "cells", static_cast<int64_t>(EH.EventListLength));
    Snap.addGauge(P + "queue_depth",
                  static_cast<int64_t>(ShardsVec[S]->Ring.depth()));
  }
  return Snap;
}
