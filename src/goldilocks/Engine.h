//===- goldilocks/Engine.h - Optimized Goldilocks runtime ------*- C++ -*-===//
///
/// \file
/// The optimized, thread-safe implementation of the generalized Goldilocks
/// algorithm (Section 5, Figure 8 of the paper). Key mechanisms reproduced:
///
///  * a global, append-only *synchronization event list* of Cells holding
///    the extended synchronization order, appended with a lock-free CAS on
///    the tail (the paper's atomic-exchange design);
///  * *lazy lockset evaluation*: no lockset is updated when synchronization
///    happens; instead each data variable keeps Info records for its last
///    write (WriteInfo) and last read per thread since that write
///    (ReadInfo), each holding a position in the event list, and the
///    Figure 5 rules are replayed over the window between two accesses only
///    when the later access occurs;
///  * *short-circuit checks* (Section 5.1): (1) both accesses transactional,
///    (2) same thread, (3) a lock held at the previous access is held by the
///    current thread, and a thread-filtered fast walk before the full walk;
///  * per-variable serialization locks KL(o,d), realized as a fixed-size
///    striped lock table;
///  * reference-counted cells with garbage collection of the list prefix and
///    *partially-eager lockset evaluation* (Section 5.4) that advances old
///    Info records to a later position so long prefixes can be trimmed;
///  * transaction commits (Section 5.3): the commit(R,W) event enters the
///    event list, then every variable in R and W is checked like a regular
///    access with the xact flag set.
///
/// Concurrency architecture (see DESIGN.md §6 and §10 for the invariants):
///
///  * Appends are lock-free: a cell's sequence number is derived from its
///    predecessor and published by the linking CAS (release); `Last` is a
///    monotone hint swung by CAS after linking.
///  * Readers (access checks, window walks, commit anchoring) run inside an
///    *epoch section*: a per-thread slot publishes the global epoch on entry
///    (seq_cst) and zero on exit. No global lock is taken on the hot path.
///  * Cell reclamation is epoch-based: the collector snapshots `Last`,
///    bumps the global epoch, waits until every slot is quiescent or has
///    observed the new epoch, and only then frees the unreferenced list
///    prefix strictly before the snapshot. Sections entered after the bump
///    can only acquire positions at or after the snapshot, so trimming can
///    never race an in-flight window walk.
///  * KL(o,d) is a striped mutex table: it serializes checks on the same
///    variable (the algorithm requires this) and remains the lock under
///    which Info records are mutated, including by the collector's
///    partially-eager advance.
///
/// Deviation from Figure 8 noted for reviewers: Figure 8 line 6 refreshes
/// info.alock with a random lock held by the previous owner after a
/// successful lockset walk; we instead record, at Info creation, the
/// innermost lock the accessor holds. Both variants are sound (two critical
/// sections on one lock are totally ordered); ours needs no cross-thread
/// lock-stack queries.
///
//===----------------------------------------------------------------------===//

#ifndef GOLD_GOLDILOCKS_ENGINE_H
#define GOLD_GOLDILOCKS_ENGINE_H

#include "goldilocks/Health.h"
#include "goldilocks/Race.h"
#include "goldilocks/Rules.h"
#include "support/Slab.h"
#include "support/Telemetry.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

namespace gold {

/// Tuning knobs for the engine; defaults mirror the paper's implementation.
struct EngineConfig {
  /// Run garbage collection when the event list reaches this many cells
  /// (paper: one million). 0 disables automatic collection.
  size_t GcThreshold = 1u << 20;
  /// Fraction of the list the partially-eager pass advances past (paper:
  /// "trim the first 10% of the entries").
  double TrimFraction = 0.10;
  /// Short-circuit check toggles (for the ablation benchmarks).
  bool EnableXactShortCircuit = true;
  bool EnableSameThreadShortCircuit = true;
  bool EnableALockShortCircuit = true;
  bool EnableFilteredWalk = true;
  /// Stop checking a variable after its first race (paper, Section 6).
  bool DisableVarAfterRace = true;
  /// Commit-synchronization interpretation (Section 3 variants).
  TxnSyncSemantics Semantics = TxnSyncSemantics::SharedVariable;

  /// Allocate sync-event cells, Info records and variable states from the
  /// cache-line-aligned slab arena (src/support/Slab.h) with per-thread
  /// free caches, recycling retired cells through epoch/quarantine
  /// reclamation instead of returning them to the global heap. Disable for
  /// allocation-debugging runs (every record becomes an individual
  /// new/delete again, visible to heap tools); SlabTest covers both paths.
  bool EnableSlabPooling = true;

  /// Resource governor hard caps (0 = unlimited). When a cap is hit the
  /// engine climbs the degradation ladder instead of growing: (1) forced
  /// GC + partially-eager advance, (2) coarsening of old Info records to
  /// the list tail, (3) last-resort per-variable check disable. Rungs 1-2
  /// preserve exactness; rung 3 trades precision (missed races possible on
  /// the disabled variables, never false alarms) for bounded memory.
  size_t MaxCells = 0;        ///< cap on synchronization event list cells
  size_t MaxInfoRecords = 0;  ///< cap on live Info records across variables
  size_t MaxBytes = 0;        ///< coarse byte budget over cells+infos+vars

  /// Deadline for one GC grace period (epoch wait + fallback flush), in
  /// microseconds; 0 waits forever (the pre-supervision behaviour). On
  /// timeout the collector does not block: the unreferenced prefix is
  /// detached into a quarantine pool and freed by a later successful grace
  /// period, so a stuck or exited reader can delay reclamation but never
  /// wedge collection (see DESIGN.md "Supervision").
  unsigned GraceDeadlineMicros = 500000;

  /// Number of epoch-reclamation reader slots. Readers beyond this many
  /// concurrent OS threads fall back to a shared mutex (correct, slower).
  /// Tests shrink it to exercise exhaustion cheaply; values < 1 are
  /// clamped to 1.
  unsigned EpochSlotCount = 512;

  /// Observability level (src/support/Telemetry.h, DESIGN.md §13). Off
  /// constructs no telemetry objects at all (telemetry() returns an empty
  /// snapshot); Counters (the default) costs nothing on the hot path — the
  /// snapshot just mirrors EngineStats and the health gauges the engine
  /// keeps anyway; Full additionally enables the latency/size histograms
  /// and the flight recorder, each gated by a pointer cached at
  /// construction (one predictable branch per site when off).
  TelemetryLevel Telemetry = TelemetryLevel::Counters;

  /// Capture a structured RaceProvenance (the walked synchronization-event
  /// subsequence and the lockset evolution at each rule step) on every race
  /// verdict. Runs only on the race path — cold by construction when
  /// DisableVarAfterRace holds — so it is on at every telemetry level;
  /// disable for byte-stable differential tests or racy-workload benches.
  bool EnableProvenance = true;

  /// Cap on the rule steps a single provenance records (0 = unlimited).
  /// The verdict never truncates — only the replay record does.
  size_t MaxProvenanceSteps = 4096;
};

/// Per-stripe capacity of the flight recorder (Full level only).
inline constexpr size_t FlightRingCapacity = 256;

/// The engine's monotonic event counters, one X(Field, "exported_name")
/// row each (DESIGN.md §13). EngineStats, the atomic block behind it,
/// stats(), telemetry() and the gold-bench-v1 stats block are all expanded
/// from this table.
#define GOLD_ENGINE_COUNTERS(X)                                                \
  X(Accesses, "accesses")                        /* accesses presented */      \
  X(PairChecks, "pair_checks")                   /* happens-before checks */   \
  X(Sc1Xact, "sc1_xact")                         /* sc: both transactional */  \
  X(Sc2SameThread, "sc2_same_thread")            /* sc: same owner */          \
  X(Sc3ALock, "sc3_alock")                       /* sc: common lock held */    \
  X(FilteredWalks, "filtered_walks")             /* thread-filtered walks */   \
  X(FullWalks, "full_walks")                     /* full lockset walks */      \
  X(CellsWalked, "cells_walked")                 /* cells applied by walks */  \
  X(CellsAllocated, "cells_allocated")                                         \
  X(CellsFreed, "cells_freed")                                                 \
  X(GcRuns, "gc_runs")                                                         \
  X(EagerAdvances, "eager_advances")             /* eager Info advances */     \
  X(Races, "races")                                                            \
  X(SkippedDisabled, "skipped_disabled")         /* skipped: disabled var */   \
  X(SyncEvents, "sync_events")                   /* cells appended */          \
  X(Commits, "commits")                                                        \
  X(DegradationEvents, "degradation_events")     /* governor rungs fired */    \
  X(DegradedVars, "degraded_vars")               /* vars the governor cut */   \
  X(ForcedGcs, "forced_gcs")                     /* GCs forced by caps/OOM */  \
  X(AppendRetries, "append_retries")             /* tail-CAS retries */        \
  X(GraceWaits, "grace_waits")                   /* grace periods done */      \
  X(GraceTimeouts, "grace_timeouts")             /* grace deadlines hit */     \
  X(CellsQuarantined, "cells_quarantined")       /* cells ever quarantined */  \
  X(ReclaimedDeadSlots, "reclaimed_dead_slots")  /* dead threads' slots */     \
  X(ThreadsRegistered, "threads_registered")     /* new registerThread() */    \
  X(ThreadsDeregistered, "threads_deregistered") /* live deregisterThread() */ \
  X(SlotFallbacks, "slot_fallbacks")             /* fallback-mutex sections */ \
  X(WalkMemoHits, "walk_memo_hits")              /* walks ended by memo */

/// Monotonic event counters, readable while the engine runs.
struct EngineStats {
  GOLD_COUNTER_FIELDS(GOLD_ENGINE_COUNTERS)

  /// Fraction of happens-before pair checks resolved by the *constant-time*
  /// short circuits (the paper's Table 1 metric); the rest required lockset
  /// computation by traversal of the synchronization event list (whether
  /// the thread-filtered fast pass sufficed or not).
  double shortCircuitFraction() const {
    uint64_t Fast = Sc1Xact + Sc2SameThread + Sc3ALock;
    uint64_t Total = Fast + FilteredWalks + FullWalks;
    return Total ? static_cast<double>(Fast) / static_cast<double>(Total)
                 : 1.0;
  }
};

/// The optimized Goldilocks detector. All hooks are thread-safe; data access
/// hooks for one variable are serialized by that variable's KL stripe.
class GoldilocksEngine {
public:
  explicit GoldilocksEngine(EngineConfig C = EngineConfig());
  ~GoldilocksEngine();

  GoldilocksEngine(const GoldilocksEngine &) = delete;
  GoldilocksEngine &operator=(const GoldilocksEngine &) = delete;

  /// Data access hooks; a returned report means the access is about to race
  /// (the caller turns this into a DataRaceException).
  std::optional<RaceReport> onRead(ThreadId T, VarId V) {
    return accessImpl(T, V, /*IsWrite=*/false, /*Xact=*/false);
  }
  std::optional<RaceReport> onWrite(ThreadId T, VarId V) {
    return accessImpl(T, V, /*IsWrite=*/true, /*Xact=*/false);
  }

  /// Synchronization hooks (become cells of the event list).
  void onAcquire(ThreadId T, ObjectId O);
  void onRelease(ThreadId T, ObjectId O);
  void onVolatileRead(ThreadId T, VarId V);
  void onVolatileWrite(ThreadId T, VarId V);
  void onFork(ThreadId T, ThreadId Child);
  void onJoin(ThreadId T, ThreadId Child);
  void onTerminate(ThreadId T);

  /// alloc(o): rule 8 — the object's variables become fresh again.
  void onAlloc(ThreadId T, ObjectId O, uint32_t FieldCount);

  /// commit(R, W): enqueues the commit event, then checks every variable in
  /// R and W as a transactional access (Figure 8 lines 24-28).
  std::vector<RaceReport> onCommit(ThreadId T, const CommitSets &CS);

  /// Two-phase variant for online use: commitPoint() places the commit
  /// event in the synchronization order (call while the transaction's
  /// object locks are still held); finishCommit() performs the R ∪ W
  /// access checks (call after the locks are released, so the expensive
  /// work does not extend the critical section). Must be paired.
  void commitPoint(ThreadId T, const CommitSets &CS);
  std::vector<RaceReport> finishCommit(ThreadId T, const CommitSets &CS);

  /// Explicitly re-enables checking for a variable (used by tests).
  void enableVar(VarId V);

  /// Forces a garbage-collection / partially-eager evaluation cycle.
  void collectGarbage();

  /// Thread lifecycle registry. registerThread() announces a thread to the
  /// engine (onFork registers the child automatically); deregisterThread()
  /// must be a thread's *last* call into the engine: it releases any
  /// pending commit anchor the thread left behind (crash-only self-heal)
  /// and returns the calling OS thread's epoch slot to the free list with
  /// a bumped generation, so a stale cache entry anywhere can never
  /// re-enter it. onTerminate() deregisters implicitly.
  void registerThread(ThreadId T);
  void deregisterThread(ThreadId T);

  /// Recycles epoch slots whose owners exited without deregistering: every
  /// quiescent claimed slot is generation-bumped (a CAS, so a slot whose
  /// owner is mid-entry is skipped) and pushed onto the free list. Live
  /// but idle threads are swept too (a slot is not tied to a ThreadId, so
  /// "dead" cannot be told from "idle"); their next section transparently
  /// re-claims. Called automatically when the slot array is exhausted.
  /// Returns the number of slots reclaimed.
  size_t reclaimDeadSlots();

  /// The supervisor's reclamation hook: runs reclaimDeadSlots() only when
  /// slots are actually scarce (no fresh slots left and the free list
  /// empty), so a grace stall with plenty of slots does not invalidate
  /// every idle thread's cached slot for nothing. Returns 0 otherwise.
  size_t reclaimDeadSlotsIfExhausted();

  /// Climbs the degradation ladder to (at least) \p Rung: 1 forces a
  /// collection, 2 coarsens Info records to the tail, 3 disables variables
  /// that still pin old cells. The supervisor's escalation hook. Callers
  /// must not be inside an epoch section.
  void escalateLadder(unsigned Rung);

  /// Drains deferred work: runs a collection cycle and attempts to flush
  /// the quarantine pool. Returns true when the quarantine is empty (all
  /// deferred frees completed). Safe to call repeatedly.
  bool quiesce();

  /// Crash-only shutdown: stops recording new events (hooks become no-ops,
  /// verdicts are suppressed rather than invented from a truncated
  /// synchronization order) and drains via quiesce().
  void shutdown();

  /// Current event-list length (cells retained).
  size_t eventListLength() const;

  /// Live Info records (write infos + per-thread read infos).
  size_t infoRecordCount() const;

  /// Number of distinct data variables the engine has been asked to check
  /// (the "variables checked" statistic of Table 2).
  size_t distinctVarsChecked() const;

  /// Snapshot of the statistics counters.
  EngineStats stats() const;

  /// Snapshot of the resource governor's state (usage, high-water marks,
  /// degradation ladder level).
  EngineHealth health() const;

  /// Variables currently degraded by the governor (checking disabled for a
  /// resource reason, as opposed to disabled-after-race). onAlloc of the
  /// owning object makes a variable fresh — and exact — again.
  std::vector<VarId> degradedVars() const;

  /// Telemetry snapshot: counters mirror stats(), gauges mirror health()
  /// plus the slab arenas, histograms are populated at level Full. Returns
  /// an empty Off-level snapshot when telemetry is disabled.
  TelemetrySnapshot telemetry() const;

  /// The registry itself (for tests and external instruments); null at
  /// level Off.
  Telemetry *telemetryRegistry() const { return Tel.get(); }

  /// The flight recorder; null below level Full.
  const FlightRecorder *flightRecorder() const { return Flight.get(); }

  /// Attaches a Chrome trace-event sink recording engine phase spans
  /// (lazy walk, GC, grace wait); nullptr detaches. The sink must
  /// outlive the engine or be detached first. Works at any telemetry level.
  /// Release store paired with acquire loads at the recording sites, so a
  /// sink attached mid-run is fully constructed before another thread
  /// records into it.
  void attachTraceSink(TraceEventSink *Sink) {
    TraceSink.store(Sink, std::memory_order_release);
  }

  /// Multi-line post-mortem: health line, telemetry snapshot, flight
  /// recorder dump. What the supervisor captures on a grace stall and
  /// operators want from a wedged engine.
  std::string stallDump() const;

  const EngineConfig &config() const { return Cfg; }

private:
  struct Cell;
  struct Info;
  struct ReadRec;
  struct VarState;
  struct ThreadState;
  struct Shard;
  struct QuarantineBatch;
  class ReadGuard;
  friend class ReadGuard;

  /// \p PosOverride (used by commit replays) anchors the new Info and the
  /// check window at the cell that immediately precedes the commit's own
  /// cell: the check must not apply the commit's rule to itself, but future
  /// walks from the Info must still see it.
  std::optional<RaceReport> accessImpl(ThreadId T, VarId V, bool IsWrite,
                                       bool Xact, Cell *PosOverride = nullptr,
                                       const CommitSets *SelfCommit = nullptr);
  /// The throwing core of accessImpl; runs under the variable's KL stripe
  /// inside the caller's epoch section. accessImpl catches bad_alloc.
  /// \p TS is T's state; every thread-state read in the check goes through
  /// it.
  std::optional<RaceReport> accessLocked(ThreadId T, ThreadState &TS, VarId V,
                                         bool IsWrite, bool Xact,
                                         Cell *PosOverride,
                                         const CommitSets *SelfCommit);
  /// Constant-time short circuits of Check-Happens-Before (Figure 8):
  /// returns true when they prove Prev happens-before the current access.
  /// \p TS is the executing thread's state.
  bool orderedBefore(const Info &Prev, ThreadId T, bool Xact,
                     const ThreadState &TS);
  /// Walks the event-list window (From, ToSeq] applying the Figure 5 rules.
  /// When Filtered is set, only events of threads T and FilterA are applied
  /// (the sound fast pass of Section 5.1); a filtered walk given T's state
  /// in \p Proofs also consults and refreshes T's thread-pair walk memo
  /// (DESIGN.md §6.3). For transactional accesses,
  /// \p SelfCommit is the current commit's (R, W): rule 9's "if
  /// LS ∩ (R∪W) ≠ ∅ add t" clause is applied after the window, before the
  /// ownership check — the commit itself is not in the window.
  /// When \p Capture is non-null the walk additionally records every rule
  /// application (sequence, event, lockset after) into it — the provenance
  /// replay, used only on the already-decided race path.
  bool walkWindow(Lockset LS, const Cell *From, uint64_t ToSeq, ThreadId T,
                  bool Xact, VarId V, bool Filtered, ThreadId FilterA,
                  const CommitSets *SelfCommit, ThreadState *Proofs,
                  RaceProvenance *Capture = nullptr);
  /// Replays the losing full walk with capture enabled and packages the
  /// result. Runs under the variable's KL stripe inside the caller's epoch
  /// section (the window cells are stable). Returns null on bad_alloc —
  /// provenance is best-effort, the verdict stands without it.
  std::shared_ptr<const RaceProvenance>
  captureProvenance(const Lockset &PrevLS, const Cell *From, uint64_t ToSeq,
                    ThreadId T, bool Xact, VarId V,
                    const CommitSets *SelfCommit);

  /// Shared by enqueue (drop when stopped/degraded) and accessImpl.
  bool recordingStopped() const;
  /// Appends \p E's cell; false when it was dropped (recording stopped, or
  /// no memory even after a forced collection).
  bool enqueue(SyncEvent E, std::unique_ptr<CommitSets> Owned = nullptr);
  /// Lock-free tail append: derives the cell's Seq from its predecessor,
  /// publishes it with the linking CAS and swings the monotone Last hint.
  void appendCell(Cell *C);
  /// Slab-backed Cell construction (throws bad_alloc on pool exhaustion;
  /// \p Owned is only consumed on success so the caller can retry).
  Cell *allocCell(const SyncEvent &E, std::unique_ptr<CommitSets> &Owned);
  /// Destroys \p C and recycles its slot (or deletes it in passthrough
  /// mode). The only way cells die.
  void destroyCell(Cell *C);
  /// Finds or creates \p V's state in its object's shard.
  VarState &varState(VarId V);
  /// varState through \p TS's direct-mapped variable cache: a hit takes no
  /// lock (VarStates are never freed before teardown).
  VarState &cachedVarState(ThreadState &TS, VarId V);
  /// The variable-index shard of every variable of object \p O.
  static unsigned objectShard(ObjectId O);
  ThreadState &threadState(ThreadId T);
  /// Lookup without creation (deregistration must not allocate). A hit in
  /// the calling OS thread's cache (ThreadCache) takes no lock.
  ThreadState *findThreadState(ThreadId T) const;
  std::mutex &klFor(VarId V) const;
  /// The write-generation stripe of volatile \p V (volatile-read elision).
  std::atomic<uint64_t> &volWriteGen(VarId V) const;
  void retainCell(Cell *C);
  void releaseCell(Cell *C);
  void dropInfo(Info &I);
  void installInfo(Info &Slot, Info &&NI);
  /// Drops every read Info of \p St and recycles its ReadRec nodes.
  /// Requires St's KL stripe.
  void clearReads(VarState &St);
  void maybeCollect();
  /// The body of collectGarbage(); requires GcRunMu held by the caller.
  void runCollectionLocked();

  // Epoch-based reclamation.
  /// Returns the calling thread's cached slot for this engine (claiming one
  /// on a miss), with the generation the slot had when it was handed out.
  /// -1 means use the fallback shared mutex.
  int claimSlot(uint64_t &SlotGen);
  /// Hands out a slot: free-list pop, then fresh claim; on exhaustion
  /// self-heals once via reclaimDeadSlots() before giving up.
  int allocateSlot(uint64_t &SlotGen);
  /// Drops the calling thread's cached slot entry for this engine (the slot
  /// was reclaimed under us; re-claim on the next section).
  void forgetCachedSlot();
  /// Generation-bumps and frees the calling thread's cached slot (the
  /// deregistration path). Must not be called inside an epoch section.
  void releaseCurrentSlot();
  /// Pushes \p Slot onto the free list (idempotent per slot).
  void pushFreeSlot(int Slot);
  /// Permanently parks \p Slot whose 24-bit generation space is exhausted
  /// (see the wrap-bounds comment on the slot word below).
  void retireSlot(int Slot);
  /// Bumps the global epoch and waits — yield spins, then exponential
  /// backoff up to 1ms — until every epoch slot is quiescent or has
  /// observed the new epoch, then flushes overflow readers. Returns true
  /// on a completed grace period: no reader section entered before the
  /// call is still running. Returns false when Cfg.GraceDeadlineMicros
  /// elapsed first; the caller must then treat pre-existing readers as
  /// still live (quarantine instead of free).
  bool waitForReaders();
  /// Frees quarantine batches oldest-first, stopping at the first batch a
  /// stale reader still references. Requires GcRunMu and a grace period
  /// completed after the batches were detached.
  void flushQuarantineLocked();
  /// Detaches the chain [First .. First+Count) into a new FIFO quarantine
  /// batch (called instead of freeing when a grace period timed out).
  void quarantineChain(Cell *First, size_t Count);

  // Resource governor (see EngineConfig cap comments and DESIGN.md).
  size_t approxBytes() const;
  bool overCellBudget(size_t Incoming) const;
  bool overInfoBudget() const;
  void noteDegradationLevel(unsigned Level);
  void markGloballyDegraded();
  /// Ladder for event-list pressure: forced GC, then coarsening, then
  /// disabling variables that still pin cells. Callers must not be inside
  /// an epoch section or hold GcRunMu.
  void degradeForCells();
  /// Rung 2: advances every Info record to the list tail (replaying the
  /// lockset rules, so precision is preserved) and trims the prefix.
  void coarsenInfosToTail();
  /// Rung 3 for cells: disables variables whose records still pin old
  /// cells (only possible after a failed advance), then trims again.
  void disablePinnedVars();
  /// Rung 3 for infos: disables the variables with the oldest records
  /// until the Info budget has room again. Runs inside the caller's epoch
  /// section, before the variable's KL stripe is taken.
  void enforceInfoBudget(VarId Current);
  /// Marks \p St degraded and drops its records. Requires St's KL held.
  void degradeVarLocked(VarState &St);
  /// bad_alloc fallback for a data access that could not be recorded: the
  /// variable's future verdicts would be wrong, so degrade it.
  void noteAccessOom(VarId V);
  /// Clamps an advance boundary so it never passes a pending commit anchor
  /// (between commitPoint and finishCommit).
  Cell *pendingAnchorBound(Cell *Boundary) const;
  /// Advances every Info record to \p Boundary (clamped by pending commit
  /// anchors), replaying the lockset rules over the skipped window.
  /// Requires GcRunMu (so the prefix cannot be trimmed underneath it);
  /// Info mutation is covered by each variable's KL stripe.
  void advanceInfosLocked(Cell *Boundary);
  /// Frees the unreferenced list prefix strictly before a snapshot of
  /// Last, after an epoch grace period. Requires GcRunMu.
  void trimUnreferencedPrefix();

  EngineConfig Cfg;

  /// Monotonically increasing engine identity; lets the thread-local epoch
  /// slot cache survive engines being destroyed and their addresses reused.
  const uint64_t Gen;

  // Synchronization event list. Head is only moved by the collector (under
  // GcRunMu); Last is a monotone hint to a linked cell.
  Cell *Head = nullptr;                 // oldest retained cell (sentinel)
  std::atomic<Cell *> Last{nullptr};    // recently appended cell (hint)
  std::atomic<size_t> ListLen{0};

  // Epoch-based reclamation state. A slot's word packs
  //   (generation << SlotEpochBits) | observed-epoch
  // with epoch 0 meaning quiescent. Entry is a seq_cst CAS from
  // (gen, 0): it can only succeed against the exact generation the thread
  // was handed, so reclaiming a slot is just bumping its generation while
  // quiescent — every stale cache entry then fails its entry CAS and
  // re-claims, which is what makes slots of exited threads recyclable.
  //
  // Wrap bounds of the packed word:
  //  * generation: 24 bits. Each generation value is issued at most once
  //    per slot — when a bump would wrap to 0 the slot is *retired*
  //    (SlotInFree == 2; never free-listed again), so a dormant thread's
  //    stale cache entry can never ABA its entry CAS against a reissued
  //    generation. 2^24 recycles of one slot before retirement; retiring
  //    all 512 slots would take ~2^33 deregistrations, after which readers
  //    use the fallback mutex — degraded, never unsound.
  //  * epoch: 40 bits, one consumed per GC grace period. The grace scan's
  //    Ep >= NewE comparison is not wrap-safe; waitForReaders asserts the
  //    counter has not wrapped (2^40 grace periods is unreachable — at
  //    1000 GCs/s that is ~35 years).
  const unsigned NumEpochSlots; ///< EngineConfig::EpochSlotCount, clamped
  static constexpr unsigned SlotEpochBits = 40;
  static constexpr uint64_t SlotEpochMask = (1ull << SlotEpochBits) - 1;
  static constexpr uint64_t SlotGenMask = (1ull << (64 - SlotEpochBits)) - 1;
  struct alignas(64) EpochSlot {
    std::atomic<uint64_t> State{0};
  };
  std::unique_ptr<EpochSlot[]> EpochSlots;
  std::atomic<uint64_t> GlobalEpoch{2};
  std::atomic<unsigned> SlotsClaimed{0};
  /// Free-list of reclaimed slots plus a per-slot state byte: 0 = claimed
  /// or never issued, 1 = on the free list (so a slot is never pushed
  /// twice), 2 = retired (generation space exhausted; never reissued).
  std::mutex SlotFreeMu;
  std::vector<int> FreeSlots;
  std::unique_ptr<uint8_t[]> SlotInFree;
  /// Readers that could not claim a slot (more than NumEpochSlots OS
  /// threads, or a nested section) hold this shared; the collector flushes
  /// them with a brief (deadline-bounded) exclusive acquisition after the
  /// epoch scan.
  mutable std::shared_timed_mutex FallbackMu;
  /// Serializes collection / coarsening / rung-3 passes.
  std::mutex GcRunMu;

  // Quarantine pool: FIFO batches of detached, unreferenced prefix cells
  // whose grace period timed out. Guarded by GcRunMu; the gauge is atomic
  // so accounting (approxBytes, health) can read it anywhere.
  QuarantineBatch *QHead = nullptr;
  QuarantineBatch *QTail = nullptr;
  std::atomic<size_t> QuarantineCount{0};

  /// shutdown() latch: hooks stop recording, verdicts are suppressed.
  std::atomic<bool> Stopped{false};

  // Per-variable serialization locks KL(o,d): a fixed-size striped table.
  // Two variables may share a stripe; that only costs parallelism, never
  // correctness (the stripe is a superset of the per-variable lock).
  static constexpr unsigned NumKlStripes = 256;
  struct alignas(64) KlStripe {
    std::mutex Mu;
  };
  mutable std::unique_ptr<KlStripe[]> KlStripes;

  // Volatile-read elision (DESIGN.md §6.2): a striped count of the
  // volatile writes published per variable. A write bumps its stripe after
  // its cell is linked; a read whose stripe has not moved since the same
  // thread's last recorded read of that variable appends no cell. Two
  // variables sharing a stripe only cost extra recorded reads.
  static constexpr unsigned VolGenBits = 10;
  mutable std::unique_ptr<std::atomic<uint64_t>[]> VolWriteGens;

  // Variable states, sharded by object (objectShard): all of an object's
  // variables live in one shard, so rule 8 touches one shard mutex.
  static constexpr unsigned ShardBits = 6;
  static constexpr unsigned NumShards = 1u << ShardBits;
  std::unique_ptr<Shard[]> Shards;

  // Slab arenas for the three hot-path record types (DESIGN.md §12).
  // Constructed in the .cpp (the pooled types are incomplete here);
  // destroyed after every cell/var/read record, so slots outlive records.
  std::unique_ptr<SlabArena> CellArena; // Cell
  std::unique_ptr<SlabArena> VarArena;  // VarState
  std::unique_ptr<SlabArena> ReadArena; // ReadRec

  // Per-thread lock stacks for the alock short circuit. Lookups are
  // shared; only a first-seen thread takes the exclusive path. Entries are
  // never erased, so a ThreadState outlives every pointer to it.
  mutable std::shared_mutex ThreadsMu;
  std::unordered_map<ThreadId, std::unique_ptr<ThreadState>> Threads;

  /// Per-OS-thread cache of (engine Gen, ThreadId) -> ThreadState, filled
  /// by every locked lookup. Gen is never reused and ThreadStates are never
  /// erased, so a matching entry is always live; a miss takes ThreadsMu.
  struct ThreadCacheEntry {
    uint64_t EngineGen = 0;
    ThreadId Tid = NoThread;
    ThreadState *State = nullptr;
  };
  static constexpr unsigned ThreadCacheBits = 4;
  static thread_local ThreadCacheEntry ThreadCache[1u << ThreadCacheBits];
  ThreadCacheEntry &threadCacheEntry(ThreadId T) const;

  // Resource governor accounting (relaxed atomics; exact values are only
  // needed by single-threaded inspection, concurrent readers get estimates).
  std::atomic<size_t> InfoCount{0};
  std::atomic<size_t> InfoHighWater{0};
  std::atomic<size_t> AdvancedCount{0}; // records with an Advanced lockset
  std::atomic<size_t> ListHighWater{1}; // sentinel cell counts
  std::atomic<size_t> VarCount{0};
  std::atomic<unsigned> DegLevel{0};    // highest ladder rung reached
  std::atomic<bool> GlobalDegraded{false};

  // Statistics (relaxed atomics; snapshot via stats()).
  //
  // Memory-ordering policy (audited for this file as a whole): every
  // counter in AtomicStats and every governor gauge above is a *monotonic
  // tally with no reader that derives control flow requiring ordering*, so
  // all of their operations are explicitly memory_order_relaxed. The
  // deliberate exceptions — the only non-relaxed atomics in the engine —
  // are the ones the correctness arguments in DESIGN.md lean on:
  //
  //  * Cell::Next linking CAS: release (publishes the cell's Seq/payload)
  //    / acquire on traversal.
  //  * Last: seq_cst loads and CAS. Its monotonicity relative to the epoch
  //    entry CAS is the heart of the grace-period argument (§10): a reader
  //    section's first Last load must be ordered after its slot publish.
  //  * EpochSlot::State: seq_cst entry CAS and collector scan loads;
  //    release store on section exit (quiescence publishes the section's
  //    reads as done).
  //  * GlobalEpoch: seq_cst bump in waitForReaders (pairs with the entry
  //    CAS in the same total order).
  //  * SlotsClaimed: acq_rel fetch_add (slot handout is an ownership
  //    transfer).
  //  * Cell::RefCount: release decrement / acquire on the zero-check, the
  //    classic refcount protocol.
  //  * Stopped: seq_cst store in shutdown() (hooks must not reorder their
  //    recording past the latch), relaxed loads elsewhere.
  //  * ThreadState::PendingAnchor / Registered / Exited: acquire/release
  //    (anchor handoff between commitPoint and finishCommit).
  //  * VolWriteGens: seq_cst bump and load, ordered against the VM's
  //    seq_cst volatile store and load (the elision argument, §6.2).
  struct AtomicStats;
  std::unique_ptr<AtomicStats> S;

  // Observability (DESIGN.md §13). Tel exists at level >= Counters; Flight
  // and the histogram pointers only at Full — every hot-path recording
  // site is gated on one of these plain pointers, so the disabled cost is
  // a single predictable branch and no shared cache-line traffic.
  std::unique_ptr<Telemetry> Tel;
  std::unique_ptr<FlightRecorder> Flight;
  std::atomic<TraceEventSink *> TraceSink{nullptr};
  Histogram *HWalkLen = nullptr;      ///< cells applied per window walk
  Histogram *HLocksetSize = nullptr;  ///< prior lockset size at pair check
  Histogram *HCheckPath = nullptr;    ///< resolution path (CheckPath codes)
  Histogram *HAppendRetries = nullptr;///< tail-CAS retries per publication
  Histogram *HGraceMicros = nullptr;  ///< grace-period wait latency (us)
  Histogram *HGcReclaim = nullptr;    ///< cells reclaimed per trim pass
};

/// How a pair check was resolved, for the "check_path" histogram. Recorded
/// as (1 << code) so each path lands in its own log2 bucket and the bucket
/// counts stay exact per path.
enum class CheckPath : uint8_t {
  Sc1Xact = 0,      ///< both accesses transactional
  Sc2SameThread,    ///< same owner
  Sc3ALock,         ///< common lock held
  FilteredWalk,     ///< thread-filtered fast walk proved ordering
  FullWalk,         ///< full lockset walk proved ordering
  Race,             ///< nothing proved ordering: race verdict
};

struct SupervisedEngine; // support/Supervisor.h

/// Binds \p E's health sampling, ladder escalation and dead-slot
/// reclamation into the callback bundle a Supervisor watches. The caller
/// must keep \p E alive for as long as the supervisor runs.
SupervisedEngine superviseEngine(GoldilocksEngine &E);

} // namespace gold

#endif // GOLD_GOLDILOCKS_ENGINE_H
