//===- goldilocks/Engine.cpp ----------------------------------------------===//

#include "goldilocks/Engine.h"

#include "support/Failpoints.h"
#include "support/Supervisor.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <new>
#include <thread>

using namespace gold;

//===----------------------------------------------------------------------===//
// Internal data structures (Figure 8's Cell and Info records)
//===----------------------------------------------------------------------===//

/// One entry of the synchronization event list. Everything except Next and
/// RefCount is written by the appending thread before the linking CAS
/// publishes the cell (release), so readers that reach a cell through an
/// acquire load of Next (or a seq_cst load of Last) see it fully built.
struct GoldilocksEngine::Cell {
  SyncEvent Event;
  std::unique_ptr<CommitSets> OwnedCommit; // keeps commit (R,W) sets alive
  std::atomic<Cell *> Next{nullptr};
  uint64_t Seq = 0; ///< derived from the predecessor: monotone along links
  std::atomic<uint32_t> RefCount{0};
};

/// Figure 8's Info record (pos, owner, alock, xact): one remembered access
/// to a data variable. The lockset just after the access is always the
/// install lockset {Owner} (+TL when Xact), so the record stores none: a
/// window walk rebuilds it from Owner and Xact. Only partially-eager
/// evaluation (advanceInfosLocked) gives a record a different lockset, and
/// only then is one allocated into Advanced. Pos is atomic so the record's
/// position can be published/read without tearing; the variable's KL
/// stripe remains the lock under which the record as a whole is mutated.
struct GoldilocksEngine::Info {
  std::atomic<Cell *> Pos{nullptr}; ///< last sync event the access came after
  /// The lockset at Pos once an eager advance changed it; null while it is
  /// still the install lockset. Counted by AdvancedCount.
  std::unique_ptr<Lockset> Advanced;
  ThreadId Owner = NoThread;
  ObjectId ALock = 0;    ///< A lock held by Owner at the access
  bool HasALock = false;
  bool Xact = false;     ///< Access was inside a transaction
  bool Valid = false;

  Info() = default;
  Info(Info &&O) noexcept { *this = std::move(O); }
  Info &operator=(Info &&O) noexcept {
    Pos.store(O.Pos.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
    Advanced = std::move(O.Advanced);
    Owner = O.Owner;
    ALock = O.ALock;
    HasALock = O.HasALock;
    Xact = O.Xact;
    Valid = O.Valid;
    return *this;
  }

  /// The lockset at Pos.
  Lockset lockset() const {
    if (Advanced)
      return *Advanced;
    Lockset LS;
    LS.resetToOwner(Owner, Xact);
    return LS;
  }
  size_t locksetSize() const {
    return Advanced ? Advanced->size() : 1 + size_t(Xact);
  }
};

/// One per-thread ReadInfo node of a variable's reads-since-last-write
/// list. Slab-allocated (ReadArena) and linked intrusively off the
/// VarState, so the common one-or-two-readers case costs no vector
/// header or reallocation. Guarded by the variable's KL stripe.
struct GoldilocksEngine::ReadRec {
  Info RI;
  ReadRec *Next = nullptr;
  ThreadId Tid = NoThread;
};

/// Per-variable state: WriteInfo and per-thread ReadInfo. The serialization
/// lock KL(o,d) lives in the engine's striped lock table (klFor), not here,
/// so a VarState is just data. Slab-allocated (VarArena); never freed
/// before engine teardown, which is what lets the shard tables and the
/// per-object lists hold raw pointers with no tombstones. V comes first, so
/// an index probe that compares it loads the line the record lives on.
struct GoldilocksEngine::VarState {
  VarId V;
  Info Write;
  ReadRec *ReadsHead = nullptr; // reads since the last write (KL stripe)
  VarState *NextInObject = nullptr; // intrusive ByObject list (shard mutex)
  bool Disabled = false;  ///< disabled after its first race (Section 6)
  bool Degraded = false;  ///< disabled by the resource governor (rung 3)
};

/// Per-thread lock stack, consulted by the alock short circuit, plus the
/// pending commit anchor between commitPoint() and finishCommit(). Only
/// the owning thread reads or writes its own state.
struct GoldilocksEngine::ThreadState {
  std::vector<ObjectId> HeldLocks;
  /// Atomic so the collector can clamp its advance boundary on it (see
  /// pendingAnchorBound) while the owner installs/clears it.
  std::atomic<Cell *> PendingAnchor{nullptr};
  /// Lifecycle registry flags (registerThread / deregisterThread).
  std::atomic<bool> Registered{false};
  std::atomic<bool> Exited{false};
  /// Volatile-read elision: for the thread's recently *recorded* volatile
  /// reads, the variable and the write generation its stripe showed just
  /// before the read's cell was appended. Direct-mapped by variable; a
  /// miss only means the next read is recorded. Owner-only.
  struct VolReadMemo {
    uint64_t Key = 0;
    uint64_t Gen = 0;
    bool Valid = false;
  };
  static constexpr unsigned VolMemoBits = 4;
  VolReadMemo VolReads[1u << VolMemoBits];
  /// Thread-pair walk memo (DESIGN.md §6.3): for a prior owner A, a cell
  /// Seq at which a filtered (A, this thread) walk gained ownership, and
  /// the walk's lockset L just before that cell. A later filtered (A, this
  /// thread) walk whose lockset contains L before Seq, with Seq inside its
  /// window, is ordered. Direct-mapped by A; Seq 0 never applies, so a
  /// zeroed entry is empty. Holds no cell pointers. Owner-only.
  struct WalkProof {
    uint64_t Seq = 0;
    ThreadId A = NoThread;
    uint8_t N = 0; ///< |L|
    LocksetElem L[Lockset::InlineElems];
  };
  static constexpr unsigned WalkMemoBits = 3;
  WalkProof WalkMemo[1u << WalkMemoBits];
  /// Direct-mapped VarId -> VarState cache for accessLocked (a hit skips
  /// the index shard's mutex). An entry is checked against its VarState's
  /// own immutable V. Owner-only.
  static constexpr unsigned VarCacheBits = 8;
  VarState *VarCache[1u << VarCacheBits] = {};
};

thread_local GoldilocksEngine::ThreadCacheEntry
    GoldilocksEngine::ThreadCache[1u << ThreadCacheBits];

/// One quarantine batch: \p Count cells starting at \p First whose Next
/// links are intact (they flow through any younger batches into the live
/// list), detached under GcRunMu after a timed-out grace period.
struct GoldilocksEngine::QuarantineBatch {
  Cell *First = nullptr;
  size_t Count = 0;
  QuarantineBatch *Next = nullptr;
};

/// One shard of the variable-state index. It holds every variable of the
/// objects objectShard maps to it in two open-addressing flat tables
/// (linear probing, power-of-two size, null = empty, load factor at most
/// 3/4) over slab-allocated VarStates: Table by (object, field), and Heads
/// by object, holding each object's newest variable, which heads the
/// object's intrusive NextInObject list. VarStates are never deleted before
/// engine teardown, so the tables need no tombstones and probe chains never
/// break, and indexing a new variable allocates nothing per object.
struct GoldilocksEngine::Shard {
  std::mutex Mu;
  std::vector<VarState *> Table;
  size_t Count = 0; // occupied slots of Table
  std::vector<VarState *> Heads;
  size_t Objects = 0; // occupied slots of Heads

  static uint64_t varKey(const VarState *St) { return St->V.key(); }
  static uint64_t objectKey(const VarState *St) { return St->V.Object; }

  /// The slot of non-empty \p T holding the entry whose key is \p Key, or
  /// the empty slot where it belongs. The probe starts at the low bits of
  /// the key's full mix, so neither an object's fields nor a shard's
  /// objects (which share the high bits objectShard uses) pile up.
  template <uint64_t (*KeyOf)(const VarState *)>
  static VarState *&slot(std::vector<VarState *> &T, uint64_t Key) {
    size_t Mask = T.size() - 1;
    for (size_t I = mix64(Key) & Mask;; I = (I + 1) & Mask)
      if (!T[I] || KeyOf(T[I]) == Key)
        return T[I];
  }
  /// Doubles \p T, which has \p Used entries, if one more would pass the
  /// load factor.
  template <uint64_t (*KeyOf)(const VarState *)>
  static void reserveOne(std::vector<VarState *> &T, size_t Used) {
    if ((Used + 1) * 4 < T.size() * 3)
      return;
    std::vector<VarState *> Grown(T.empty() ? 16 : T.size() * 2, nullptr);
    for (VarState *St : T)
      if (St)
        slot<KeyOf>(Grown, KeyOf(St)) = St;
    T.swap(Grown);
  }
};

unsigned GoldilocksEngine::objectShard(ObjectId O) {
  // The high bits of mix64: every object bit reaches them, so an engine's
  // objects spread over all its index shards.
  return static_cast<unsigned>(mix64(O) >> (64 - ShardBits));
}

struct GoldilocksEngine::AtomicStats {
  GOLD_COUNTER_ATOMICS(GOLD_ENGINE_COUNTERS)
};

//===----------------------------------------------------------------------===//
// Epoch sections (quiescence-based reclamation)
//===----------------------------------------------------------------------===//

namespace {

/// Monotone engine identities for the thread-local slot cache, so a cache
/// entry can never alias a destroyed engine whose address was reused.
std::atomic<uint64_t> EngineGenCounter{1};

/// Small per-thread cache of (engine generation -> epoch slot index, slot
/// generation). A thread normally touches one or two engines, so four
/// entries suffice; a miss after eviction claims a fresh slot. Slots *are*
/// recycled (deregistration and dead-slot reclamation bump the slot
/// generation and free-list them), which is why the entry carries the
/// generation the slot was handed out with: entering a slot is a CAS
/// against exactly that generation, so a recycled slot simply rejects its
/// former owner.
struct SlotCacheEntry {
  uint64_t EngineGen = 0;
  int Slot = -1;
  uint64_t SlotGen = 0;
  /// For a cached allocation *failure* (Slot < 0): fallback sections left
  /// before the entry expires and allocation is retried. Slot exhaustion
  /// is usually transient (deregistration and dead-slot reclamation refill
  /// the free list), so a failed claim must not pin the thread to the
  /// fallback mutex for the engine's lifetime.
  unsigned NegTtl = 0;
};
constexpr unsigned NegativeSlotCacheTtl = 32;
thread_local SlotCacheEntry SlotCache[4];
thread_local unsigned SlotCacheNext = 0;

} // namespace

int GoldilocksEngine::claimSlot(uint64_t &SlotGen) {
  for (SlotCacheEntry &E : SlotCache)
    if (E.EngineGen == Gen) {
      if (E.Slot >= 0) {
        SlotGen = E.SlotGen;
        return E.Slot;
      }
      if (--E.NegTtl > 0) {
        SlotGen = 0;
        return -1;
      }
      E = SlotCacheEntry{}; // cached failure aged out: retry allocation
      break;
    }
  uint64_t SG = 0;
  int Slot = allocateSlot(SG);
  SlotCacheEntry NE;
  NE.EngineGen = Gen;
  NE.Slot = Slot;
  NE.SlotGen = SG;
  if (Slot < 0)
    NE.NegTtl = NegativeSlotCacheTtl;
  SlotCache[SlotCacheNext % 4] = NE;
  ++SlotCacheNext;
  SlotGen = SG;
  return Slot;
}

int GoldilocksEngine::allocateSlot(uint64_t &SlotGen) {
  for (int Attempt = 0; Attempt != 2; ++Attempt) {
    {
      std::lock_guard<std::mutex> L(SlotFreeMu);
      if (!FreeSlots.empty()) {
        int Slot = FreeSlots.back();
        FreeSlots.pop_back();
        SlotInFree[Slot] = 0;
        SlotGen = EpochSlots[Slot].State.load(std::memory_order_relaxed) >>
                  SlotEpochBits;
        return Slot;
      }
    }
    // Fresh claim, CAS-bounded so exhaustion cannot wrap the counter.
    unsigned Cur = SlotsClaimed.load(std::memory_order_relaxed);
    while (Cur < NumEpochSlots &&
           !SlotsClaimed.compare_exchange_weak(Cur, Cur + 1,
                                               std::memory_order_acq_rel)) {
    }
    if (Cur < NumEpochSlots) {
      SlotGen = EpochSlots[Cur].State.load(std::memory_order_relaxed) >>
                SlotEpochBits;
      return static_cast<int>(Cur);
    }
    // Exhausted: self-heal by recycling slots of exited threads, then
    // retry once. If nothing was reclaimable the caller falls back to the
    // shared mutex.
    if (Attempt == 0 && reclaimDeadSlots() == 0)
      break;
  }
  SlotGen = 0;
  return -1;
}

void GoldilocksEngine::forgetCachedSlot() {
  for (SlotCacheEntry &E : SlotCache)
    if (E.EngineGen == Gen)
      E = SlotCacheEntry{};
}

void GoldilocksEngine::pushFreeSlot(int Slot) {
  std::lock_guard<std::mutex> L(SlotFreeMu);
  if (SlotInFree[Slot])
    return;
  SlotInFree[Slot] = 1;
  FreeSlots.push_back(Slot);
}

void GoldilocksEngine::retireSlot(int Slot) {
  // The slot's generation space is exhausted: reissuing it would repeat a
  // generation some stale cache entry may still hold, letting that entry's
  // ABA'd entry CAS share the slot with a new owner. Park it permanently
  // instead — SlotInFree == 2 keeps it out of pushFreeSlot and
  // reclaimDeadSlots forever.
  std::lock_guard<std::mutex> L(SlotFreeMu);
  SlotInFree[Slot] = 2;
}

void GoldilocksEngine::releaseCurrentSlot() {
  for (SlotCacheEntry &E : SlotCache) {
    if (E.EngineGen != Gen)
      continue;
    if (E.Slot >= 0) {
      // Only a quiescent slot at our exact generation can be returned; a
      // failed CAS means a reclaimer already bumped it (and owns the
      // free-listing) — either way the cache entry must go.
      uint64_t NewGen = (E.SlotGen + 1) & SlotGenMask;
      uint64_t Expected = E.SlotGen << SlotEpochBits;
      uint64_t Bumped = NewGen << SlotEpochBits;
      if (EpochSlots[E.Slot].State.compare_exchange_strong(
              Expected, Bumped, std::memory_order_seq_cst)) {
        if (NewGen == 0)
          retireSlot(E.Slot); // generation wrapped: never reissue
        else
          pushFreeSlot(E.Slot);
      }
    }
    E = SlotCacheEntry{};
  }
}

size_t GoldilocksEngine::reclaimDeadSlotsIfExhausted() {
  // Supervisor entry point. A sweep invalidates every quiescent claimed
  // slot — including those of live-but-idle threads, which all then fault
  // their caches and stampede the free list on their next section. Only
  // pay that when readers are actually being pushed to the fallback mutex:
  // fresh slots gone and the free list empty.
  if (SlotsClaimed.load(std::memory_order_acquire) < NumEpochSlots)
    return 0;
  {
    std::lock_guard<std::mutex> L(SlotFreeMu);
    if (!FreeSlots.empty())
      return 0;
  }
  return reclaimDeadSlots();
}

size_t GoldilocksEngine::reclaimDeadSlots() {
  std::lock_guard<std::mutex> L(SlotFreeMu);
  unsigned Claimed = std::min(SlotsClaimed.load(std::memory_order_acquire),
                              NumEpochSlots);
  size_t Reclaimed = 0;
  for (unsigned I = 0; I != Claimed; ++I) {
    if (SlotInFree[I])
      continue;
    uint64_t St = EpochSlots[I].State.load(std::memory_order_relaxed);
    if ((St & SlotEpochMask) != 0)
      continue; // inside a section — live, not reclaimable
    uint64_t NewGen = ((St >> SlotEpochBits) + 1) & SlotGenMask;
    uint64_t Bumped = NewGen << SlotEpochBits;
    // seq_cst: a thread concurrently entering this slot either CASes first
    // (we see a nonzero epoch and skip) or loses its entry CAS to our bump
    // and re-claims elsewhere. Both owners never coexist.
    if (!EpochSlots[I].State.compare_exchange_strong(
            St, Bumped, std::memory_order_seq_cst))
      continue;
    if (NewGen == 0) {
      SlotInFree[I] = 2; // generation wrapped: retire, never reissue
      continue;
    }
    SlotInFree[I] = 1;
    FreeSlots.push_back(static_cast<int>(I));
    ++Reclaimed;
  }
  if (Reclaimed)
    S->ReclaimedDeadSlots.fetch_add(Reclaimed, std::memory_order_relaxed);
  return Reclaimed;
}

/// RAII epoch section. On entry the thread's slot publishes the current
/// global epoch (seq_cst); on exit it publishes quiescence. Every position
/// the section acquires from `Last` is then protected from reclamation: the
/// collector's grace period (waitForReaders) either waits the section out or
/// proves — via the seq_cst total order — that the section's `Last` loads
/// can only return cells at or after the collector's snapshot.
class GoldilocksEngine::ReadGuard {
public:
  explicit ReadGuard(GoldilocksEngine &E) : E(E) {
    // Entry is a CAS from (our generation, quiescent). It fails either
    // because the slot was reclaimed under us (generation moved on — forget
    // the cache entry and claim a fresh slot) or because this is a nested
    // section on the same engine (same generation, nonzero epoch; the
    // inner exit would strip the outer section's protection, so fall back).
    for (int Attempt = 0; Attempt != 2; ++Attempt) {
      uint64_t SG = 0;
      int Candidate = E.claimSlot(SG);
      if (Candidate < 0)
        break;
      uint64_t Expected = SG << SlotEpochBits;
      uint64_t Desired =
          Expected |
          (E.GlobalEpoch.load(std::memory_order_seq_cst) & SlotEpochMask);
      if (E.EpochSlots[Candidate].State.compare_exchange_strong(
              Expected, Desired, std::memory_order_seq_cst)) {
        Slot = Candidate;
        SlotGen = SG;
        break;
      }
      if ((Expected >> SlotEpochBits) == SG)
        break; // nested section
      E.forgetCachedSlot(); // reclaimed under us; retry with a fresh slot
    }
    if (Slot < 0) {
      E.S->SlotFallbacks.fetch_add(1, std::memory_order_relaxed);
      Fallback = std::shared_lock<std::shared_timed_mutex>(E.FallbackMu);
    }
  }
  ~ReadGuard() {
    if (Slot >= 0)
      E.EpochSlots[Slot].State.store(SlotGen << SlotEpochBits,
                                     std::memory_order_release);
  }
  ReadGuard(const ReadGuard &) = delete;
  ReadGuard &operator=(const ReadGuard &) = delete;

private:
  GoldilocksEngine &E;
  int Slot = -1;
  uint64_t SlotGen = 0;
  std::shared_lock<std::shared_timed_mutex> Fallback;
};

namespace {

/// One grace-wait backoff step: yields for the first rounds, then sleeps
/// exponentially up to ~1ms. Returns false once \p Deadline has passed.
bool graceBackoff(unsigned &Spins,
                  std::chrono::steady_clock::time_point Deadline) {
  if (std::chrono::steady_clock::now() >= Deadline)
    return false;
  if (Spins < 64)
    std::this_thread::yield();
  else
    std::this_thread::sleep_for(
        std::chrono::microseconds(1u << std::min(Spins - 64, 10u)));
  ++Spins;
  return true;
}

} // namespace

bool GoldilocksEngine::waitForReaders() {
  // Grace-wait latency instrumentation: the clock is read only when some
  // consumer (histogram, flight recorder, trace sink) is attached.
  TraceEventSink *Sink = TraceSink.load(std::memory_order_acquire);
  uint64_t T0 = (HGraceMicros || Flight || Sink) ? TraceEventSink::nowNanos()
                                                 : 0;
  auto Done = [&](bool Completed) {
    if (T0) {
      uint64_t Dur = TraceEventSink::nowNanos() - T0;
      if (HGraceMicros)
        HGraceMicros->record(Dur / 1000);
      if (Flight)
        Flight->record(NoThread, FlightKind::GraceWait, Completed, Dur / 1000,
                       !Completed);
      if (Sink)
        Sink->span(Completed ? "grace-wait" : "grace-wait-timeout", "gc",
                   NoThread, T0, Dur);
    }
    return Completed;
  };
  // Start the next epoch, then wait until every claimed slot is either
  // quiescent or provably entered after the bump. Sections the scan skips
  // as quiescent may in fact be entering concurrently — but then their
  // slot store is seq_cst-after our scan load, so their subsequent `Last`
  // loads return cells at or after the caller's snapshot (taken before the
  // bump), which trimming never frees.
  //
  // The wait is deadline-bounded: a reader parked (or died) inside its
  // section must not wedge collection. On timeout the caller quarantines
  // instead of freeing, so giving up here is always safe.
  uint64_t NewE = (GlobalEpoch.fetch_add(1, std::memory_order_seq_cst) + 1) &
                  SlotEpochMask;
  // The Ep >= NewE comparison below is unsound once the 40-bit epoch
  // counter wraps (pre-wrap readers then carry epochs larger than any
  // post-wrap NewE). One epoch is consumed per grace period, so 2^40 is
  // unreachable in practice; assert the bound instead of paying for
  // wrap-safe arithmetic on this path (see Engine.h, SlotEpochBits).
  assert(NewE != 0 && "global epoch wrapped SlotEpochMask");
  auto Deadline = std::chrono::steady_clock::time_point::max();
  if (Cfg.GraceDeadlineMicros)
    Deadline = std::chrono::steady_clock::now() +
               std::chrono::microseconds(Cfg.GraceDeadlineMicros);
  unsigned Claimed = std::min(SlotsClaimed.load(std::memory_order_acquire),
                              NumEpochSlots);
  unsigned Spins = 0;
  for (unsigned I = 0; I != Claimed; ++I) {
    while (true) {
      uint64_t St = EpochSlots[I].State.load(std::memory_order_seq_cst);
      uint64_t Ep = St & SlotEpochMask;
      if (Ep == 0 || Ep >= NewE)
        break;
      if (!graceBackoff(Spins, Deadline)) {
        S->GraceTimeouts.fetch_add(1, std::memory_order_relaxed);
        return Done(false);
      }
    }
  }
  // Flush readers that used the shared-mutex fallback path (slot overflow
  // or nesting), within whatever remains of the deadline.
  if (Cfg.GraceDeadlineMicros == 0) {
    FallbackMu.lock();
  } else if (!FallbackMu.try_lock_until(Deadline)) {
    S->GraceTimeouts.fetch_add(1, std::memory_order_relaxed);
    return Done(false);
  }
  FallbackMu.unlock();
  S->GraceWaits.fetch_add(1, std::memory_order_relaxed);
  return Done(true);
}

//===----------------------------------------------------------------------===//
// Construction / destruction
//===----------------------------------------------------------------------===//

GoldilocksEngine::GoldilocksEngine(EngineConfig C)
    : Cfg(C), Gen(EngineGenCounter.fetch_add(1, std::memory_order_relaxed)),
      NumEpochSlots(std::max(1u, C.EpochSlotCount)),
      EpochSlots(new EpochSlot[NumEpochSlots]),
      SlotInFree(new uint8_t[NumEpochSlots]()),
      KlStripes(new KlStripe[NumKlStripes]),
      VolWriteGens(new std::atomic<uint64_t>[1u << VolGenBits]()),
      Shards(new Shard[NumShards]),
      CellArena(new SlabArena(sizeof(Cell), C.EnableSlabPooling)),
      VarArena(new SlabArena(sizeof(VarState), C.EnableSlabPooling)),
      ReadArena(new SlabArena(sizeof(ReadRec), C.EnableSlabPooling)),
      S(new AtomicStats) {
  // One cache line per variable and per read record (one 64-byte slot).
  static_assert(sizeof(VarState) <= 64, "VarState must fit one cache line");
  static_assert(sizeof(ReadRec) <= 64, "ReadRec must fit one cache line");
  // Sentinel origin cell so Info.Pos is never null.
  Cell *Origin = slabNew<Cell>(*CellArena);
  Origin->Event.Kind = ActionKind::Terminate;
  Origin->Event.Thread = NoThread;
  Origin->Seq = 0;
  Head = Origin;
  Last.store(Origin, std::memory_order_relaxed);
  ListLen.store(1, std::memory_order_relaxed);

  // Observability (DESIGN.md §13): the registry exists from Counters up;
  // histograms and the flight recorder only at Full. Caching the raw
  // pointers here is what makes the disabled configurations cheap — every
  // hot-path site tests one plain member.
  if (Cfg.Telemetry >= TelemetryLevel::Counters)
    Tel.reset(new Telemetry(Cfg.Telemetry));
  if (Cfg.Telemetry >= TelemetryLevel::Full) {
    Flight.reset(new FlightRecorder(FlightRingCapacity));
    HWalkLen = &Tel->histogram("walk_cells");
    HLocksetSize = &Tel->histogram("lockset_size_at_check");
    HCheckPath = &Tel->histogram("check_path");
    HAppendRetries = &Tel->histogram("tail_cas_retries");
    HGraceMicros = &Tel->histogram("grace_wait_micros");
    HGcReclaim = &Tel->histogram("gc_reclaimed_cells");
    CellArena->setRefillHistogram(&Tel->histogram("slab_cell_refill"));
    VarArena->setRefillHistogram(&Tel->histogram("slab_var_refill"));
    ReadArena->setRefillHistogram(&Tel->histogram("slab_read_refill"));
  }
}

GoldilocksEngine::~GoldilocksEngine() {
  // The refill histograms die with Tel (declared after the arenas, so
  // destroyed first); detach them before anything else runs.
  CellArena->setRefillHistogram(nullptr);
  VarArena->setRefillHistogram(nullptr);
  ReadArena->setRefillHistogram(nullptr);
  // No readers by contract. Quarantined chains are disjoint from each
  // other and from the live list, but each batch's links flow *into* the
  // next batch / the live Head — so free exactly Count cells per batch,
  // then the live list.
  while (QHead) {
    Cell *C = QHead->First;
    for (size_t I = 0; I != QHead->Count; ++I) {
      Cell *Next = C->Next.load(std::memory_order_relaxed);
      destroyCell(C);
      C = Next;
    }
    QuarantineBatch *Next = QHead->Next;
    delete QHead;
    QHead = Next;
  }
  Cell *C = Head;
  while (C) {
    Cell *Next = C->Next.load(std::memory_order_relaxed);
    destroyCell(C);
    C = Next;
  }
  // Variable states and their read lists come from the arenas too; destroy
  // them explicitly before the arenas (members declared after Shards) go.
  for (unsigned I = 0; I != NumShards; ++I) {
    for (VarState *St : Shards[I].Table) {
      if (!St)
        continue;
      ReadRec *R = St->ReadsHead;
      while (R) {
        ReadRec *Next = R->Next;
        slabDelete(*ReadArena, R);
        R = Next;
      }
      slabDelete(*VarArena, St);
    }
    Shards[I].Table.clear();
  }
}

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

GoldilocksEngine::VarState &GoldilocksEngine::varState(VarId V) {
  Shard &Sh = Shards[objectShard(V.Object)];
  uint64_t Key = V.key();
  std::lock_guard<std::mutex> L(Sh.Mu);
  if (!Sh.Table.empty())
    if (VarState *St = Shard::slot<Shard::varKey>(Sh.Table, Key))
      return *St;
  // Miss: insert. Ordered so every throwing step precedes the no-fail
  // linking — grow both tables, allocate the state, then link; onAlloc
  // (rule 8) can then never miss a variable that made it into the table.
  Shard::reserveOne<Shard::varKey>(Sh.Table, Sh.Count);
  Shard::reserveOne<Shard::objectKey>(Sh.Heads, Sh.Objects);
  VarState *St = slabNew<VarState>(*VarArena);
  St->V = V;
  VarState *&Head = Shard::slot<Shard::objectKey>(Sh.Heads, V.Object);
  if (!Head)
    ++Sh.Objects;
  St->NextInObject = Head;
  Head = St;
  Shard::slot<Shard::varKey>(Sh.Table, Key) = St;
  ++Sh.Count;
  VarCount.fetch_add(1, std::memory_order_relaxed);
  return *St;
}

GoldilocksEngine::VarState &
GoldilocksEngine::cachedVarState(ThreadState &TS, VarId V) {
  VarState *&Entry =
      TS.VarCache[mix64(V.key()) >> (64 - ThreadState::VarCacheBits)];
  if (!Entry || Entry->V != V)
    Entry = &varState(V);
  return *Entry;
}

GoldilocksEngine::ThreadCacheEntry &
GoldilocksEngine::threadCacheEntry(ThreadId T) const {
  return ThreadCache[(T + Gen) & ((1u << ThreadCacheBits) - 1)];
}

GoldilocksEngine::ThreadState &GoldilocksEngine::threadState(ThreadId T) {
  if (ThreadState *TS = findThreadState(T))
    return *TS;
  std::unique_lock<std::shared_mutex> L(ThreadsMu);
  auto It = Threads.find(T);
  if (It == Threads.end())
    It = Threads.emplace(T, std::make_unique<ThreadState>()).first;
  threadCacheEntry(T) = {Gen, T, It->second.get()};
  return *It->second;
}

GoldilocksEngine::ThreadState *
GoldilocksEngine::findThreadState(ThreadId T) const {
  ThreadCacheEntry &E = threadCacheEntry(T);
  if (E.EngineGen == Gen && E.Tid == T)
    return E.State;
  std::shared_lock<std::shared_mutex> L(ThreadsMu);
  auto It = Threads.find(T);
  if (It == Threads.end())
    return nullptr;
  E = {Gen, T, It->second.get()};
  return E.State;
}

std::mutex &GoldilocksEngine::klFor(VarId V) const {
  // Mix the hash again so the stripe does not just repeat the index's
  // probe start (the low bits of the same hash).
  uint64_t H = VarIdHash()(V) * 0x9E3779B97F4A7C15ull;
  return KlStripes[(H >> 32) % NumKlStripes].Mu;
}

std::atomic<uint64_t> &GoldilocksEngine::volWriteGen(VarId V) const {
  return VolWriteGens[mix64(V.key()) >> (64 - VolGenBits)];
}

void GoldilocksEngine::retainCell(Cell *C) {
  // Relaxed is enough: a retain always happens inside an epoch section (or
  // under GcRunMu), and the collector's grace period orders the section's
  // end before the refcount scan.
  C->RefCount.fetch_add(1, std::memory_order_relaxed);
}

void GoldilocksEngine::releaseCell(Cell *C) {
  [[maybe_unused]] uint32_t Old =
      C->RefCount.fetch_sub(1, std::memory_order_release);
  assert(Old > 0 && "cell refcount underflow");
}

void GoldilocksEngine::dropInfo(Info &I) {
  if (!I.Valid)
    return;
  releaseCell(I.Pos.load(std::memory_order_relaxed));
  if (I.Advanced)
    AdvancedCount.fetch_sub(1, std::memory_order_relaxed);
  I = Info();
  InfoCount.fetch_sub(1, std::memory_order_relaxed);
}

void GoldilocksEngine::clearReads(VarState &St) {
  ReadRec *R = St.ReadsHead;
  St.ReadsHead = nullptr;
  while (R) {
    ReadRec *Next = R->Next;
    dropInfo(R->RI);
    slabDelete(*ReadArena, R);
    R = Next;
  }
}

void GoldilocksEngine::installInfo(Info &Slot, Info &&NI) {
  assert(NI.Valid && !NI.Advanced && "installs are compact and valid");
  // Takes the new position's reference. Replacing a valid record keeps the
  // record count (and so the high water) where it is, and replacing one at
  // the same position keeps its reference as well.
  Cell *NewPos = NI.Pos.load(std::memory_order_relaxed);
  if (Slot.Valid) {
    Cell *OldPos = Slot.Pos.load(std::memory_order_relaxed);
    if (OldPos != NewPos) {
      retainCell(NewPos);
      releaseCell(OldPos);
    }
    if (Slot.Advanced)
      AdvancedCount.fetch_sub(1, std::memory_order_relaxed);
    Slot = std::move(NI);
    return;
  }
  retainCell(NewPos);
  Slot = std::move(NI);
  size_t N = InfoCount.fetch_add(1, std::memory_order_relaxed) + 1;
  size_t HW = InfoHighWater.load(std::memory_order_relaxed);
  while (N > HW && !InfoHighWater.compare_exchange_weak(
                       HW, N, std::memory_order_relaxed)) {
  }
}

//===----------------------------------------------------------------------===//
// Event list
//===----------------------------------------------------------------------===//

void GoldilocksEngine::appendCell(Cell *C) {
  // Lock-free tail append (the paper's atomic-exchange design, realized as
  // a Michael-Scott-style CAS on the tail's Next). Sequence numbers are
  // derived from the actual predecessor *before* the linking CAS publishes
  // the cell, so Seq is strictly monotone along the links — windows
  // bounded by `Seq <= ToSeq` stay exact under any interleaving. A global
  // counter could not guarantee that: two appenders could link in the
  // opposite order of their tickets.
  uint64_t Retries = 0;
  Cell *Tail = Last.load(std::memory_order_seq_cst);
  while (true) {
    Cell *Next = Tail->Next.load(std::memory_order_acquire);
    if (Next) {
      Tail = Next;
      continue;
    }
    C->Seq = Tail->Seq + 1; // unpublished until the CAS; a plain store is fine
    Cell *Expected = nullptr;
    if (Tail->Next.compare_exchange_strong(Expected, C,
                                           std::memory_order_release,
                                           std::memory_order_acquire))
      break;
    ++Retries;
    Tail = Expected;
  }
  if (Retries)
    S->AppendRetries.fetch_add(Retries, std::memory_order_relaxed);
  if (HAppendRetries)
    HAppendRetries->record(Retries);
  // Swing the monotone Last hint; a stale hint only costs the next reader
  // a few Next hops, never correctness. Seq compare keeps it monotone.
  Cell *Hint = Last.load(std::memory_order_seq_cst);
  while (Hint->Seq < C->Seq &&
         !Last.compare_exchange_weak(Hint, C, std::memory_order_seq_cst,
                                     std::memory_order_seq_cst)) {
  }
}

GoldilocksEngine::Cell *
GoldilocksEngine::allocCell(const SyncEvent &E,
                            std::unique_ptr<CommitSets> &Owned) {
  if (failpoint(Failpoint::EngineCellAlloc))
    throw std::bad_alloc();
  Cell *C = slabNew<Cell>(*CellArena);
  C->OwnedCommit = std::move(Owned);
  C->Event = E;
  if (C->OwnedCommit) {
    // The engine owns this copy of the commit's (R, W); sort it once so
    // every window walk's LS ∩ (R∪W) test binary-searches it (unless the
    // caller's CommitSets came in already prepared and the copy kept it).
    CommitSets &CS = *C->OwnedCommit;
    if (CS.SortedReads.size() != CS.Reads.size() ||
        CS.SortedWrites.size() != CS.Writes.size())
      CS.prepareSorted();
    C->Event.Commit = C->OwnedCommit.get();
  }
  return C;
}

void GoldilocksEngine::destroyCell(Cell *C) { slabDelete(*CellArena, C); }

bool GoldilocksEngine::recordingStopped() const {
  return Stopped.load(std::memory_order_relaxed) ||
         GlobalDegraded.load(std::memory_order_relaxed);
}

bool GoldilocksEngine::enqueue(SyncEvent E, std::unique_ptr<CommitSets> Owned) {
  // Once the engine is stopped or globally degraded every verdict is
  // suppressed, so recording more synchronization is pure growth; dropping
  // events here is what bounds memory when degradation was the governor's
  // last answer (e.g. quarantine pinned by a permanently stuck reader).
  if (recordingStopped())
    return false;
  // Hard cap: climb the degradation ladder *before* appending, so the list
  // never grows past the budget (concurrent appenders can overshoot by at
  // most one cell each). Callers are outside any epoch section here, so
  // the ladder may collect.
  if ((Cfg.MaxCells || Cfg.MaxBytes) && overCellBudget(/*Incoming=*/1))
    degradeForCells();

  Cell *C = nullptr;
  for (int Attempt = 0; !C && Attempt != 2; ++Attempt) {
    try {
      C = allocCell(E, Owned);
    } catch (const std::bad_alloc &) {
      if (Attempt == 0) {
        // Dropping a synchronization event would poison every later
        // verdict (a missed hb-edge becomes a false alarm), so free
        // memory and retry once before giving up.
        S->ForcedGcs.fetch_add(1, std::memory_order_relaxed);
        collectGarbage();
      }
    }
  }
  if (!C) {
    // Still no memory: the synchronization order is now incomplete, and
    // any further verdict could be a false alarm. Disable checking
    // engine-wide rather than report garbage.
    markGloballyDegraded();
    return false;
  }

  if (Flight)
    Flight->record(E.Thread, FlightKind::SyncEvent, uint8_t(E.Kind),
                   E.Var.key(), E.Target);

  size_t Len;
  {
    ReadGuard G(*this);
    appendCell(C);
    Len = ListLen.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  // From here on this thread is outside its epoch section: a concurrent
  // collection may already be reclaiming C, so nothing below may touch it.
  failpointStall(Failpoint::EnginePublishStall);
  size_t HW = ListHighWater.load(std::memory_order_relaxed);
  while (Len > HW && !ListHighWater.compare_exchange_weak(
                         HW, Len, std::memory_order_relaxed)) {
  }
  S->SyncEvents.fetch_add(1, std::memory_order_relaxed);
  S->CellsAllocated.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void GoldilocksEngine::maybeCollect() {
  if (!Cfg.GcThreshold ||
      ListLen.load(std::memory_order_relaxed) < Cfg.GcThreshold)
    return;
  // Threshold collection is advisory: if another thread is already
  // collecting, piling up behind it would just convoy the hot path.
  std::unique_lock<std::mutex> L(GcRunMu, std::try_to_lock);
  if (L)
    runCollectionLocked();
}

size_t GoldilocksEngine::eventListLength() const {
  return ListLen.load(std::memory_order_relaxed);
}

size_t GoldilocksEngine::distinctVarsChecked() const {
  size_t Total = 0;
  for (unsigned I = 0; I != NumShards; ++I) {
    std::lock_guard<std::mutex> L(Shards[I].Mu);
    Total += Shards[I].Count;
  }
  return Total;
}

//===----------------------------------------------------------------------===//
// Synchronization hooks
//===----------------------------------------------------------------------===//

void GoldilocksEngine::onAcquire(ThreadId T, ObjectId O) {
  try {
    threadState(T).HeldLocks.push_back(O);
  } catch (const std::bad_alloc &) {
    // The lock stack only powers the alock short circuit and the recorded
    // ALock hint; a missing entry merely forces the exact walk.
  }
  SyncEvent E;
  E.Kind = ActionKind::Acquire;
  E.Thread = T;
  E.Var = lockVar(O);
  enqueue(E);
  maybeCollect();
}

void GoldilocksEngine::onRelease(ThreadId T, ObjectId O) {
  try {
    auto &Held = threadState(T).HeldLocks;
    auto It = std::find(Held.rbegin(), Held.rend(), O);
    if (It != Held.rend())
      Held.erase(std::next(It).base());
  } catch (const std::bad_alloc &) {
    // threadState() may allocate for a first-seen thread; see onAcquire.
  }
  SyncEvent E;
  E.Kind = ActionKind::Release;
  E.Thread = T;
  E.Var = lockVar(O);
  enqueue(E);
  maybeCollect();
}

void GoldilocksEngine::onVolatileRead(ThreadId T, VarId V) {
  // Elision (DESIGN.md §6.2): if no write of V was published since this
  // thread's last recorded read of V, that read's cell already applied
  // rule 2 for every write this one can synchronize with, so this cell
  // would be a no-op in every lockset. The load comes after the caller's
  // load of the value and before our own append.
  uint64_t WriteGen = volWriteGen(V).load(std::memory_order_seq_cst);
  ThreadState::VolReadMemo *Memo = nullptr;
  try {
    Memo = &threadState(T).VolReads[mix64(V.key()) >>
                                    (64 - ThreadState::VolMemoBits)];
  } catch (const std::bad_alloc &) {
    // No memo: record the read, as every read was before elision.
  }
  if (Memo && Memo->Valid && Memo->Key == V.key() && Memo->Gen == WriteGen)
    return;
  SyncEvent E;
  E.Kind = ActionKind::VolatileRead;
  E.Thread = T;
  E.Var = V;
  if (enqueue(E) && Memo)
    *Memo = {V.key(), WriteGen, true};
  maybeCollect();
}

void GoldilocksEngine::onVolatileWrite(ThreadId T, VarId V) {
  SyncEvent E;
  E.Kind = ActionKind::VolatileWrite;
  E.Thread = T;
  E.Var = V;
  enqueue(E);
  // Bump after our cell is linked and before the caller stores the value:
  // a reader that sees the value sees the bump, and a reader whose last
  // recorded read saw the bump was appended after our cell.
  volWriteGen(V).fetch_add(1, std::memory_order_seq_cst);
  maybeCollect();
}

void GoldilocksEngine::onFork(ThreadId T, ThreadId Child) {
  registerThread(Child);
  SyncEvent E;
  E.Kind = ActionKind::Fork;
  E.Thread = T;
  E.Target = Child;
  enqueue(E);
  maybeCollect();
}

void GoldilocksEngine::onJoin(ThreadId T, ThreadId Child) {
  SyncEvent E;
  E.Kind = ActionKind::Join;
  E.Thread = T;
  E.Target = Child;
  enqueue(E);
  maybeCollect();
}

void GoldilocksEngine::onTerminate(ThreadId T) {
  SyncEvent E;
  E.Kind = ActionKind::Terminate;
  E.Thread = T;
  enqueue(E);
  maybeCollect();
  deregisterThread(T);
}

void GoldilocksEngine::registerThread(ThreadId T) {
  try {
    ThreadState &TS = threadState(T);
    TS.Exited.store(false, std::memory_order_relaxed);
    if (!TS.Registered.exchange(true, std::memory_order_relaxed))
      S->ThreadsRegistered.fetch_add(1, std::memory_order_relaxed);
  } catch (const std::bad_alloc &) {
    // Registration is advisory; the thread still works unregistered.
  }
}

void GoldilocksEngine::deregisterThread(ThreadId T) {
  if (failpoint(Failpoint::EngineDeregisterDrop))
    return; // test-only: the thread "exits" without deregistering
  if (ThreadState *TS = findThreadState(T)) {
    if (!TS->Exited.exchange(true, std::memory_order_relaxed))
      S->ThreadsDeregistered.fetch_add(1, std::memory_order_relaxed);
    // A commit left pending by a dead thread would clamp the advance
    // boundary forever (pendingAnchorBound); release it. Deregistration is
    // the thread's last engine call by contract, so no finishCommit is
    // coming to pair with it.
    if (Cell *A = TS->PendingAnchor.exchange(nullptr,
                                             std::memory_order_acq_rel))
      releaseCell(A);
  }
  releaseCurrentSlot();
}

void GoldilocksEngine::onAlloc(ThreadId T, ObjectId O, uint32_t FieldCount) {
  (void)T;
  (void)FieldCount;
  // Rule 8: every variable of the (re)allocated object becomes fresh. All
  // of them live in the object's one shard, so this is one mutex and one
  // lookup, and nothing for an object never accessed. The hook is
  // allocation-free (the per-object index is only read), so it cannot fail
  // under memory pressure. It only drops retained positions (never
  // dereferences unretained cells), so no epoch section is needed.
  Shard &Sh = Shards[objectShard(O)];
  std::lock_guard<std::mutex> L(Sh.Mu);
  if (Sh.Heads.empty())
    return;
  for (VarState *St = Shard::slot<Shard::objectKey>(Sh.Heads, O); St;
       St = St->NextInObject) {
    std::lock_guard<std::mutex> KL(klFor(St->V));
    dropInfo(St->Write);
    clearReads(*St);
    St->Disabled = false;
    St->Degraded = false;
  }
}

//===----------------------------------------------------------------------===//
// Access checking (Figure 8 Handle-Action / Check-Happens-Before)
//===----------------------------------------------------------------------===//

bool GoldilocksEngine::walkWindow(Lockset LS, const Cell *From, uint64_t ToSeq,
                                  ThreadId T, bool Xact, VarId V,
                                  bool Filtered, ThreadId FilterA,
                                  const CommitSets *SelfCommit,
                                  ThreadState *Proofs,
                                  RaceProvenance *Capture) {
  auto Owned = [&]() {
    return LS.containsThread(T) || (Xact && LS.containsTxnLock());
  };
  // Thread-pair walk memo (DESIGN.md §6.3), filtered walks only. A proof
  // for FilterA whose cell lies inside the window ends the walk as soon as
  // the walk's lockset contains the proof's L before that cell: the rules
  // only insert, and only when an element is present, so that lockset
  // reaches T at the cell just as L did.
  ThreadState::WalkProof *Memo =
      Filtered && Proofs && !Capture
          ? &Proofs->WalkMemo[FilterA &
                              ((1u << ThreadState::WalkMemoBits) - 1)]
          : nullptr;
  const ThreadState::WalkProof *Proof =
      Memo && Memo->A == FilterA && Memo->Seq <= ToSeq ? Memo : nullptr;
  auto ProofApplies = [&](uint64_t At) {
    if (!Proof || At >= Proof->Seq)
      return false;
    for (uint8_t I = 0; I != Proof->N; ++I)
      if (!LS.contains(Proof->L[I]))
        return false;
    return true;
  };
  // Walk-length accounting: accumulate locally, publish once per walk (the
  // histogram needs the per-walk length anyway, and one fetch_add beats one
  // per cell). The provenance replay is excluded — it re-walks a window
  // already counted by the verdict's own walks. "lazy-walk" spans cover
  // only the full (unfiltered) walks: they are the expensive tail the
  // profile is after.
  uint64_t Walked = 0;
  TraceEventSink *Sink = (Filtered || Capture)
                             ? nullptr
                             : TraceSink.load(std::memory_order_acquire);
  uint64_t T0 = Sink ? TraceEventSink::nowNanos() : 0;
  auto Done = [&](bool Ordered) {
    if (!Capture) {
      if (Walked)
        S->CellsWalked.fetch_add(Walked, std::memory_order_relaxed);
      if (HWalkLen)
        HWalkLen->record(Walked);
      if (Sink)
        Sink->span("lazy-walk", "check", T, T0,
                   TraceEventSink::nowNanos() - T0);
    }
    return Ordered;
  };
  if (Capture)
    Capture->InitialLockset = LS.str();
  if (Owned())
    return Done(true);
  auto MemoHit = [&] {
    S->WalkMemoHits.fetch_add(1, std::memory_order_relaxed);
    return Done(true);
  };
  if (ProofApplies(From->Seq))
    return MemoHit();
  const Cell *C = From->Next.load(std::memory_order_acquire);
  while (C && C->Seq <= ToSeq) {
    if (!Filtered || C->Event.Thread == T || C->Event.Thread == FilterA) {
      size_t Before = LS.size();
      if (!Capture) {
        applyLocksetRule(LS, C->Event, V, Cfg.Semantics);
      } else if (Cfg.MaxProvenanceSteps &&
                 Capture->Steps.size() >= Cfg.MaxProvenanceSteps) {
        Capture->Truncated = true;
        applyLocksetRule(LS, C->Event, V, Cfg.Semantics);
      } else {
        // Replay mode (the already-decided race path): record the rule
        // application. The copy-compare is exact — the commit rule can
        // rewrite a lockset without changing its size.
        Lockset Before = LS;
        applyLocksetRule(LS, C->Event, V, Cfg.Semantics);
        ProvenanceStep PS;
        PS.Seq = C->Seq;
        PS.Kind = C->Event.Kind;
        PS.Thread = C->Event.Thread;
        PS.Var = C->Event.Var;
        PS.Target = C->Event.Target;
        PS.Changed = !(Before == LS);
        PS.LocksetAfter = LS.str();
        Capture->Steps.push_back(std::move(PS));
      }
      ++Walked;
      if (Owned()) {
        // Remember where T gained ownership (by the thread element, not
        // TL, which only a transactional walk may use) for the next
        // filtered walk against FilterA.
        if (Memo && LS.containsThread(T) && Before <= Lockset::InlineElems) {
          Memo->Seq = C->Seq;
          Memo->A = FilterA;
          Memo->N = static_cast<uint8_t>(Before);
          std::copy(LS.begin(), LS.begin() + Before, Memo->L);
        }
        return Done(true);
      }
      if (LS.size() != Before && ProofApplies(C->Seq))
        return MemoHit();
    }
    C = C->Next.load(std::memory_order_acquire);
  }
  // For a transactional access, the current commit synchronizes with the
  // earlier commits whose published variables its sets intersect (per the
  // configured semantics): rule 9's first clause, applied here because the
  // commit's own cell is excluded from the window.
  if (SelfCommit && commitGainsOwnership(LS, *SelfCommit, Cfg.Semantics)) {
    LS.insert(LocksetElem::thread(T));
    return Done(true);
  }
  return Done(false);
}

std::shared_ptr<const RaceProvenance>
GoldilocksEngine::captureProvenance(const Lockset &PrevLS, const Cell *From,
                                    uint64_t ToSeq, ThreadId T, bool Xact,
                                    VarId V, const CommitSets *SelfCommit) {
  try {
    auto P = std::make_shared<RaceProvenance>();
    // Re-run the losing full walk with recording on. Deterministic: the
    // window cells are immutable and stable (we are inside the verdict's
    // epoch section, under the variable's KL stripe) and the rules are
    // pure, so this replays exactly the walk that failed.
    walkWindow(PrevLS, From, ToSeq, T, Xact, V, /*Filtered=*/false, NoThread,
               SelfCommit, /*Proofs=*/nullptr, P.get());
    return P;
  } catch (const std::bad_alloc &) {
    return nullptr; // provenance is best-effort; the verdict stands
  }
}

bool GoldilocksEngine::orderedBefore(const Info &Prev, ThreadId T, bool Xact,
                                     const ThreadState &TS) {
  // Each resolution records (1 << path) into the check-path histogram so
  // every path owns a log2 bucket (see CheckPath in Engine.h).
  // Short circuit 1: both accesses transactional (Figure 8 line 1).
  if (Cfg.EnableXactShortCircuit && Prev.Xact && Xact) {
    S->Sc1Xact.fetch_add(1, std::memory_order_relaxed);
    if (HCheckPath)
      HCheckPath->record(1u << unsigned(CheckPath::Sc1Xact));
    return true;
  }
  // Short circuit 2: same thread — ordered by program order.
  if (Cfg.EnableSameThreadShortCircuit && Prev.Owner == T) {
    S->Sc2SameThread.fetch_add(1, std::memory_order_relaxed);
    if (HCheckPath)
      HCheckPath->record(1u << unsigned(CheckPath::Sc2SameThread));
    return true;
  }
  // Short circuit 3: a lock held at the previous access is held now.
  if (Cfg.EnableALockShortCircuit && Prev.HasALock) {
    const auto &Held = TS.HeldLocks;
    if (std::find(Held.begin(), Held.end(), Prev.ALock) != Held.end()) {
      S->Sc3ALock.fetch_add(1, std::memory_order_relaxed);
      if (HCheckPath)
        HCheckPath->record(1u << unsigned(CheckPath::Sc3ALock));
      return true;
    }
  }
  return false;
}

std::optional<RaceReport>
GoldilocksEngine::accessImpl(ThreadId T, VarId V, bool IsWrite, bool Xact,
                             Cell *PosOverride, const CommitSets *SelfCommit) {
  S->Accesses.fetch_add(1, std::memory_order_relaxed);
  if (recordingStopped()) {
    S->SkippedDisabled.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  // The whole check — position acquisition, window walks, Info install —
  // runs inside one epoch section, so the collector cannot free any cell
  // the check can reach.
  ReadGuard G(*this);
  failpointStall(Failpoint::EngineReaderPark);
  if (Flight)
    Flight->record(T, FlightKind::Access, IsWrite, V.key(), Xact);
  // Make room for the record this access will install *before* taking the
  // variable's KL stripe: eviction scans other variables' stripes, and two
  // threads each holding their own stripe while scanning would deadlock
  // (even more readily now that two variables can share a stripe).
  if ((Cfg.MaxInfoRecords || Cfg.MaxBytes) && overInfoBudget())
    enforceInfoBudget(V);
  try {
    if (failpoint(Failpoint::EngineInfoAlloc))
      throw std::bad_alloc();
    // The thread state is threaded through the whole check (variable
    // lookup, short circuit 3, walk memo, Info install); thread states are
    // never erased, so the pointer stays valid without ThreadsMu.
    return accessLocked(T, threadState(T), V, IsWrite, Xact, PosOverride,
                        SelfCommit);
  } catch (const std::bad_alloc &) {
    // The access could not be recorded; without its Info record the
    // variable's later verdicts could silently miss races, so degrade it
    // (visibly, via stats and degradedVars()).
    noteAccessOom(V);
    return std::nullopt;
  }
}

std::optional<RaceReport>
GoldilocksEngine::accessLocked(ThreadId T, ThreadState &TS, VarId V,
                               bool IsWrite, bool Xact, Cell *PosOverride,
                               const CommitSets *SelfCommit) {
  VarState &St = cachedVarState(TS, V);
  std::lock_guard<std::mutex> KL(klFor(V));
  if (St.Disabled || St.Degraded) {
    S->SkippedDisabled.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }

  // The access's position: the latest sync event it comes after. The
  // window checked against a previous access is (Prev.Pos, PosC]. seq_cst
  // so the epoch grace argument covers this load (see waitForReaders).
  Cell *PosC =
      PosOverride ? PosOverride : Last.load(std::memory_order_seq_cst);
  // Test-only: park in the window where PosC is loaded but not yet
  // retained. A grace period that times out in here quarantines PosC with
  // refcount 0; the retain below then resurrects it (the TOCTOU the
  // quarantine's per-batch refcount re-check and FIFO stop rule exist for).
  failpointStall(Failpoint::EngineRetainStall);
  uint64_t ToSeq = PosC->Seq;

  std::optional<RaceReport> Race;
  auto Check = [&](const Info &Prev, bool PrevIsWrite) {
    if (Race || !Prev.Valid)
      return;
    S->PairChecks.fetch_add(1, std::memory_order_relaxed);
    if (HLocksetSize)
      HLocksetSize->record(Prev.locksetSize());
    if (orderedBefore(Prev, T, Xact, TS))
      return;
    // Prev's position is retained by the record and stable under KL.
    Cell *PrevPos = Prev.Pos.load(std::memory_order_acquire);
    // Thread-filtered fast walk, then the full lockset computation.
    if (Cfg.EnableFilteredWalk &&
        walkWindow(Prev.lockset(), PrevPos, ToSeq, T, Xact, V,
                   /*Filtered=*/true, Prev.Owner, SelfCommit, &TS)) {
      S->FilteredWalks.fetch_add(1, std::memory_order_relaxed);
      if (HCheckPath)
        HCheckPath->record(1u << unsigned(CheckPath::FilteredWalk));
      return;
    }
    S->FullWalks.fetch_add(1, std::memory_order_relaxed);
    if (walkWindow(Prev.lockset(), PrevPos, ToSeq, T, Xact, V,
                   /*Filtered=*/false, Prev.Owner, SelfCommit,
                   /*Proofs=*/nullptr)) {
      if (HCheckPath)
        HCheckPath->record(1u << unsigned(CheckPath::FullWalk));
      return;
    }
    if (HCheckPath)
      HCheckPath->record(1u << unsigned(CheckPath::Race));
    RaceReport R;
    R.Var = V;
    R.Thread = T;
    R.IsWrite = IsWrite;
    R.Xact = Xact;
    R.PriorThread = Prev.Owner;
    R.PriorIsWrite = PrevIsWrite;
    R.PriorXact = Prev.Xact;
    R.Seq = ToSeq;
    R.PriorSeq = PrevPos->Seq;
    // The constructive evidence: replay the losing walk with capture on.
    // Cold by construction (DisableVarAfterRace means at most one per
    // variable), so the copy/string cost is invisible to the hot path.
    if (Cfg.EnableProvenance)
      R.Provenance =
          captureProvenance(Prev.lockset(), PrevPos, ToSeq, T, Xact, V,
                            SelfCommit);
    Race = R;
  };

  Check(St.Write, /*PrevIsWrite=*/true);
  if (IsWrite)
    for (ReadRec *R = St.ReadsHead; R; R = R->Next)
      Check(R->RI, /*PrevIsWrite=*/false);

  if (Race) {
    S->Races.fetch_add(1, std::memory_order_relaxed);
    if (Flight)
      Flight->record(T, FlightKind::Race, IsWrite, V.key(), ToSeq);
    if (Cfg.DisableVarAfterRace) {
      St.Disabled = true;
      dropInfo(St.Write);
      clearReads(St);
    }
    return Race;
  }

  // Install the new Info (Figure 8 lines 4-9 / 12-23): after the access the
  // variable's lockset is {t} (plus TL inside a transaction), which a
  // compact record implies. Everything that can throw — the slot
  // reservation — happens before installInfo takes the cell reference, so
  // the handoff cannot leak one under memory pressure.
  Info NI;
  NI.Owner = T;
  NI.Xact = Xact;
  if (!TS.HeldLocks.empty()) {
    NI.ALock = TS.HeldLocks.back();
    NI.HasALock = true;
  }
  Info *Slot = &St.Write;
  if (IsWrite) {
    clearReads(St);
  } else {
    Slot = nullptr;
    for (ReadRec *R = St.ReadsHead; R; R = R->Next)
      if (R->Tid == T)
        Slot = &R->RI;
    if (!Slot) {
      // May throw bad_alloc (caught by accessImpl); a node left with an
      // invalid RI on a later throw is harmless — checks skip !Valid.
      ReadRec *R = slabNew<ReadRec>(*ReadArena);
      R->Tid = T;
      R->Next = St.ReadsHead;
      St.ReadsHead = R;
      Slot = &R->RI;
    }
  }
  NI.Pos.store(PosC, std::memory_order_relaxed);
  NI.Valid = true;
  installInfo(*Slot, std::move(NI));
  return std::nullopt;
}

void GoldilocksEngine::commitPoint(ThreadId T, const CommitSets &CS) {
  S->Commits.fetch_add(1, std::memory_order_relaxed);
  if (recordingStopped())
    return; // finishCommit tolerates the missing anchor
  // Figure 8 line 25: insert the commit action into the event list. The
  // replayed checks will anchor at the cell *preceding* the commit so that
  // (a) the check window does not apply the commit's own rule-9 ownership
  // reset to itself (which would make every transactional check trivially
  // pass), and (b) future walks starting at the installed Infos do
  // traverse the commit cell, whose clause (c) publishes R∪W into the
  // locksets (the Figure 7 "end_tr" step).
  Cell *Anchor;
  {
    ReadGuard G(*this);
    Anchor = Last.load(std::memory_order_seq_cst);
    retainCell(Anchor);
  }
  try {
    auto Owned = std::make_unique<CommitSets>(CS);
    SyncEvent E;
    E.Kind = ActionKind::Commit;
    E.Thread = T;
    enqueue(E, std::move(Owned));
    ThreadState &TS = threadState(T);
    assert(!TS.PendingAnchor.load(std::memory_order_relaxed) &&
           "unbalanced commitPoint/finishCommit");
    TS.PendingAnchor.store(Anchor, std::memory_order_release);
    return;
  } catch (const std::bad_alloc &) {
    // Either the commit cell's (R, W) copy or the thread-state lookup
    // failed. A missing commit event breaks the synchronization order for
    // every variable it publishes, so fall to the engine-wide last resort.
  }
  releaseCell(Anchor);
  markGloballyDegraded();
}

std::vector<RaceReport> GoldilocksEngine::finishCommit(ThreadId T,
                                                       const CommitSets &CS) {
  // Figure 8 lines 26-28: check every variable in R and W like a regular
  // access with the xact flag set.
  Cell *Anchor = nullptr;
  try {
    ThreadState &TS = threadState(T);
    Anchor = TS.PendingAnchor.load(std::memory_order_relaxed);
    TS.PendingAnchor.store(nullptr, std::memory_order_relaxed);
  } catch (const std::bad_alloc &) {
    // Only reachable when commitPoint() already failed the same lookup.
  }
  if (!Anchor) {
    // commitPoint() hit the engine-wide last resort or the engine was
    // stopped; there is nothing to check against.
    assert(recordingStopped() && "finishCommit without commitPoint");
    return {};
  }

  std::vector<RaceReport> Races;
  try {
    for (VarId V : CS.Reads)
      if (auto R =
              accessImpl(T, V, /*IsWrite=*/false, /*Xact=*/true, Anchor, &CS))
        Races.push_back(*R);
    for (VarId V : CS.Writes)
      if (auto R =
              accessImpl(T, V, /*IsWrite=*/true, /*Xact=*/true, Anchor, &CS))
        Races.push_back(*R);
  } catch (const std::bad_alloc &) {
    // Races.push_back failed; report what fit. The per-variable checks
    // themselves handle their own memory pressure inside accessImpl.
  }
  releaseCell(Anchor);
  maybeCollect();
  return Races;
}

std::vector<RaceReport> GoldilocksEngine::onCommit(ThreadId T,
                                                   const CommitSets &CS) {
  commitPoint(T, CS);
  return finishCommit(T, CS);
}

void GoldilocksEngine::enableVar(VarId V) {
  try {
    VarState &St = varState(V);
    std::lock_guard<std::mutex> KL(klFor(V));
    St.Disabled = false;
    St.Degraded = false;
  } catch (const std::bad_alloc &) {
    // Could not materialize the state; the variable stays as it was.
  }
}

//===----------------------------------------------------------------------===//
// Garbage collection and partially-eager evaluation (Section 5.4)
//===----------------------------------------------------------------------===//

void GoldilocksEngine::trimUnreferencedPrefix() {
  // Requires GcRunMu. Snapshot the tail *before* the grace period: every
  // reader section the grace period does not wait out can only acquire
  // positions at or after this snapshot (see waitForReaders), and the loop
  // below never frees at or past it.
  Cell *LastSnap = Last.load(std::memory_order_seq_cst);
  bool HadQuarantine = QuarantineCount.load(std::memory_order_relaxed) != 0;
  if (Head == LastSnap && !HadQuarantine)
    return;
  bool Grace = waitForReaders();
  // A completed grace period also certifies the quarantine: every batch
  // was detached before this grace, so a reader that could still hold one
  // has now exited its section.
  if (Grace && HadQuarantine)
    flushQuarantineLocked();
  // Detach the unreferenced prefix. Without a grace period this is still
  // sound — the cells go to quarantine, not to the allocator, and a stale
  // reader that retains one after the refcount scan (the TOCTOU window)
  // is exactly what the flush's per-batch refcount re-check catches.
  Cell *First = Head;
  size_t N = 0;
  while (Head != LastSnap &&
         Head->RefCount.load(std::memory_order_acquire) == 0) {
    Head = Head->Next.load(std::memory_order_acquire);
    ++N;
  }
  if (!N)
    return;
  ListLen.fetch_sub(N, std::memory_order_relaxed);
  if (HGcReclaim)
    HGcReclaim->record(N);
  if (Flight)
    Flight->record(NoThread, FlightKind::GcRun, Grace, N,
                   QuarantineCount.load(std::memory_order_relaxed));
  // Direct free requires the quarantine to have fully drained as well: a
  // grace period only proves no *pre-grace* section is still running. A
  // cell retained during an earlier timed-out grace's TOCTOU window can
  // still sit referenced in quarantine, and it is older in walk order than
  // this prefix — a walk from it flows forward along Next through the
  // quarantine into these cells. Routing the prefix through the quarantine
  // as the youngest batch puts it behind the FIFO stop-at-first-referenced
  // rule that protects it.
  if (Grace && !QHead) {
    Cell *C = First;
    for (size_t I = 0; I != N; ++I) {
      Cell *Next = C->Next.load(std::memory_order_acquire);
      destroyCell(C);
      C = Next;
    }
    S->CellsFreed.fetch_add(N, std::memory_order_relaxed);
  } else {
    quarantineChain(First, N);
  }
}

void GoldilocksEngine::quarantineChain(Cell *First, size_t Count) {
  auto *B = new (std::nothrow) QuarantineBatch;
  if (!B) {
    // Cannot even defer: leave the chain where it is by re-attaching it.
    // (First is still linked to the detached cells and onward to Head, so
    // restoring Head and the length undoes the detach exactly.)
    Head = First;
    ListLen.fetch_add(Count, std::memory_order_relaxed);
    return;
  }
  B->First = First;
  B->Count = Count;
  if (QTail)
    QTail->Next = B;
  else
    QHead = B;
  QTail = B;
  QuarantineCount.fetch_add(Count, std::memory_order_relaxed);
  S->CellsQuarantined.fetch_add(Count, std::memory_order_relaxed);
}

void GoldilocksEngine::flushQuarantineLocked() {
  // Free batches oldest-first, stopping at the first batch a stale reader
  // still references: window walks only flow forward along Next, so a
  // reader holding a cell can reach younger batches and the live list but
  // never an *older* batch — older batches are safe to free even then.
  while (QHead) {
    Cell *C = QHead->First;
    bool Referenced = false;
    for (size_t I = 0; I != QHead->Count; ++I) {
      if (C->RefCount.load(std::memory_order_acquire) != 0) {
        Referenced = true;
        break;
      }
      C = C->Next.load(std::memory_order_acquire);
    }
    if (Referenced)
      break;
    C = QHead->First;
    for (size_t I = 0; I != QHead->Count; ++I) {
      Cell *Next = C->Next.load(std::memory_order_relaxed);
      destroyCell(C);
      C = Next;
    }
    QuarantineCount.fetch_sub(QHead->Count, std::memory_order_relaxed);
    S->CellsFreed.fetch_add(QHead->Count, std::memory_order_relaxed);
    QuarantineBatch *Next = QHead->Next;
    delete QHead;
    QHead = Next;
  }
  if (!QHead)
    QTail = nullptr;
}

GoldilocksEngine::Cell *
GoldilocksEngine::pendingAnchorBound(Cell *Boundary) const {
  // Never advance an Info past a pending commit anchor: the commit's
  // finish-phase checks window at that anchor, and replaying the commit's
  // own cell into a lockset would apply rule 9 to itself (missing races).
  std::shared_lock<std::shared_mutex> L(ThreadsMu);
  for (const auto &[Tid, TS] : Threads) {
    (void)Tid;
    Cell *A = TS->PendingAnchor.load(std::memory_order_acquire);
    if (A && A->Seq < Boundary->Seq)
      Boundary = A;
  }
  return Boundary;
}

void GoldilocksEngine::advanceInfosLocked(Cell *Boundary) {
  Boundary = pendingAnchorBound(Boundary);
  uint64_t BSeq = Boundary->Seq;
  auto Advance = [&](Info &I, VarId V) {
    if (!I.Valid)
      return;
    Cell *Pos = I.Pos.load(std::memory_order_relaxed);
    if (Pos->Seq >= BSeq)
      return;
    // Replay into a copy and commit only once nothing can throw: a record
    // left unadvanced by bad_alloc is still exact (rung 3 handles records
    // that keep pinning cells).
    try {
      Lockset LS = I.lockset();
      // Acquire loads: the walk can step one cell past the boundary into a
      // cell a concurrent appender just linked, and only the link-CAS's
      // release publishes that cell's Seq/Event.
      const Cell *C = Pos->Next.load(std::memory_order_acquire);
      while (C && C->Seq <= BSeq) {
        applyLocksetRule(LS, C->Event, V, Cfg.Semantics);
        C = C->Next.load(std::memory_order_acquire);
      }
      // The rules only insert, so an unchanged size is an unchanged set: a
      // compact record stays compact.
      if (I.Advanced) {
        *I.Advanced = std::move(LS);
      } else if (LS.size() != I.locksetSize()) {
        I.Advanced = std::make_unique<Lockset>(std::move(LS));
        AdvancedCount.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (const std::bad_alloc &) {
      return;
    }
    releaseCell(Pos);
    retainCell(Boundary);
    I.Pos.store(Boundary, std::memory_order_release);
    S->EagerAdvances.fetch_add(1, std::memory_order_relaxed);
  };

  for (unsigned I = 0; I != NumShards; ++I) {
    Shard &Sh = Shards[I];
    std::lock_guard<std::mutex> L(Sh.Mu);
    for (VarState *St : Sh.Table) {
      if (!St)
        continue;
      std::lock_guard<std::mutex> KL(klFor(St->V));
      Advance(St->Write, St->V);
      for (ReadRec *R = St->ReadsHead; R; R = R->Next)
        Advance(R->RI, St->V);
    }
  }
}

void GoldilocksEngine::runCollectionLocked() {
  // Requires GcRunMu (the only lock under which Head moves and cells are
  // freed).
  S->GcRuns.fetch_add(1, std::memory_order_relaxed);
  failpointStall(Failpoint::EngineGcStall);
  TraceEventSink *Sink = TraceSink.load(std::memory_order_acquire);
  uint64_t T0 = Sink ? TraceEventSink::nowNanos() : 0;

  // Phase 1: plain reference-count collection of the unreferenced prefix.
  trimUnreferencedPrefix();
  if (Cfg.GcThreshold &&
      ListLen.load(std::memory_order_relaxed) >= Cfg.GcThreshold) {
    // Phase 2: partially-eager lockset evaluation. Pick the boundary cell
    // at TrimFraction of the list, advance every Info anchored before it
    // to the boundary (computing its intermediate lockset on the way),
    // then trim.
    size_t Steps = static_cast<size_t>(
        static_cast<double>(ListLen.load(std::memory_order_relaxed)) *
        Cfg.TrimFraction);
    Steps = std::max<size_t>(Steps, 1);
    Cell *Boundary = Head;
    Cell *LastCell = Last.load(std::memory_order_seq_cst);
    for (size_t I = 0; I != Steps && Boundary != LastCell; ++I)
      Boundary = Boundary->Next.load(std::memory_order_acquire);
    advanceInfosLocked(Boundary);
    trimUnreferencedPrefix();
  }
  if (Sink)
    Sink->span("gc", "gc", NoThread, T0, TraceEventSink::nowNanos() - T0);
}

void GoldilocksEngine::collectGarbage() {
  std::lock_guard<std::mutex> L(GcRunMu);
  runCollectionLocked();
}

bool GoldilocksEngine::quiesce() {
  std::lock_guard<std::mutex> L(GcRunMu);
  trimUnreferencedPrefix();
  bool Drained = QuarantineCount.load(std::memory_order_relaxed) == 0;
  if (Flight)
    Flight->record(NoThread, FlightKind::Quiesce, Drained,
                   QuarantineCount.load(std::memory_order_relaxed), 0);
  return Drained;
}

void GoldilocksEngine::shutdown() {
  Stopped.store(true, std::memory_order_seq_cst);
  quiesce();
}

void GoldilocksEngine::escalateLadder(unsigned Rung) {
  if (Flight)
    Flight->record(NoThread, FlightKind::Degradation, Rung, 0, 0);
  if (Rung >= 1) {
    noteDegradationLevel(1);
    S->ForcedGcs.fetch_add(1, std::memory_order_relaxed);
    collectGarbage();
  }
  if (Rung >= 2) {
    noteDegradationLevel(2);
    coarsenInfosToTail();
  }
  if (Rung >= 3) {
    noteDegradationLevel(3);
    disablePinnedVars();
  }
}

//===----------------------------------------------------------------------===//
// Resource governor (the degradation ladder)
//===----------------------------------------------------------------------===//

size_t GoldilocksEngine::approxBytes() const {
  // Slab-aware accounting: the arenas report the bytes they actually hold
  // from the system (whole pages when pooled, live slots when passthrough),
  // which automatically covers live cells, quarantined cells, variable
  // records and read records. Outside the arenas live the locksets of
  // eagerly advanced records (charged at their inline size) and the shard
  // tables' pointer slots per variable (a constant stand-in).
  return CellArena->bytesReserved() + VarArena->bytesReserved() +
         ReadArena->bytesReserved() +
         AdvancedCount.load(std::memory_order_relaxed) * sizeof(Lockset) +
         VarCount.load(std::memory_order_relaxed) * 64;
}

bool GoldilocksEngine::overCellBudget(size_t Incoming) const {
  if (Cfg.MaxCells && ListLen.load(std::memory_order_relaxed) +
                              QuarantineCount.load(std::memory_order_relaxed) +
                              Incoming >
                          Cfg.MaxCells)
    return true;
  if (Cfg.MaxBytes &&
      approxBytes() + Incoming * CellArena->slotBytes() > Cfg.MaxBytes)
    return true;
  return false;
}

bool GoldilocksEngine::overInfoBudget() const {
  if (Cfg.MaxInfoRecords &&
      InfoCount.load(std::memory_order_relaxed) + 1 > Cfg.MaxInfoRecords)
    return true;
  if (Cfg.MaxBytes && approxBytes() + sizeof(Info) > Cfg.MaxBytes)
    return true;
  return false;
}

void GoldilocksEngine::noteDegradationLevel(unsigned Level) {
  S->DegradationEvents.fetch_add(1, std::memory_order_relaxed);
  unsigned Cur = DegLevel.load(std::memory_order_relaxed);
  while (Level > Cur &&
         !DegLevel.compare_exchange_weak(Cur, Level,
                                         std::memory_order_relaxed)) {
  }
}

void GoldilocksEngine::markGloballyDegraded() {
  if (!GlobalDegraded.exchange(true, std::memory_order_relaxed))
    noteDegradationLevel(3);
}

void GoldilocksEngine::degradeVarLocked(VarState &St) {
  if (St.Degraded)
    return;
  St.Degraded = true;
  dropInfo(St.Write);
  clearReads(St);
  S->DegradedVars.fetch_add(1, std::memory_order_relaxed);
  noteDegradationLevel(3);
}

void GoldilocksEngine::noteAccessOom(VarId V) {
  // Caller is inside an epoch section and holds no KL stripe.
  try {
    VarState &St = varState(V);
    std::lock_guard<std::mutex> KL(klFor(V));
    degradeVarLocked(St);
  } catch (const std::bad_alloc &) {
    // Cannot even record which variable is now unreliable — the only
    // honest answer left is the engine-wide one.
    markGloballyDegraded();
  }
}

void GoldilocksEngine::degradeForCells() {
  // Rung 1: forced reference-count collection (plus the partially-eager
  // phase when the list is past GcThreshold).
  noteDegradationLevel(1);
  S->ForcedGcs.fetch_add(1, std::memory_order_relaxed);
  collectGarbage();
  if (!overCellBudget(/*Incoming=*/1))
    return;
  // Rung 2: coarsen — advance every Info record to the list tail (exact:
  // the skipped window is replayed into each lockset) and trim. Trades
  // future walk length for immediate memory.
  noteDegradationLevel(2);
  coarsenInfosToTail();
  if (!overCellBudget(/*Incoming=*/1))
    return;
  // Rung 3: after a full advance only records that could not move still
  // pin cells; give up exactness for their variables.
  noteDegradationLevel(3);
  disablePinnedVars();
  // Backstop past the ladder: if the budget is still blown and the excess
  // sits in quarantine, nothing the ladder can do will shrink it — only a
  // successful grace period can, and a permanently stuck reader prevents
  // one forever. Degrade engine-wide: enqueue() then drops events, which
  // bounds memory while every verdict stays suppressed, never invented.
  if (overCellBudget(/*Incoming=*/1) &&
      QuarantineCount.load(std::memory_order_relaxed) > 0)
    markGloballyDegraded();
}

void GoldilocksEngine::coarsenInfosToTail() {
  std::lock_guard<std::mutex> L(GcRunMu);
  advanceInfosLocked(Last.load(std::memory_order_seq_cst));
  trimUnreferencedPrefix();
}

void GoldilocksEngine::disablePinnedVars() {
  std::lock_guard<std::mutex> L(GcRunMu);
  // Records at the clamped boundary cannot be advanced further; anything
  // older still pins prefix cells after a full advance, so give it up.
  Cell *Bound = pendingAnchorBound(Last.load(std::memory_order_seq_cst));
  for (unsigned I = 0; I != NumShards; ++I) {
    Shard &Sh = Shards[I];
    std::lock_guard<std::mutex> L2(Sh.Mu);
    for (VarState *St : Sh.Table) {
      if (!St)
        continue;
      std::lock_guard<std::mutex> KL(klFor(St->V));
      bool Pins =
          St->Write.Valid &&
          St->Write.Pos.load(std::memory_order_relaxed)->Seq < Bound->Seq;
      for (ReadRec *R = St->ReadsHead; R; R = R->Next)
        Pins |= R->RI.Valid &&
                R->RI.Pos.load(std::memory_order_relaxed)->Seq < Bound->Seq;
      if (Pins)
        degradeVarLocked(*St);
    }
  }
  trimUnreferencedPrefix();
}

void GoldilocksEngine::enforceInfoBudget(VarId Current) {
  // Degrade the variables holding the *oldest* records (they pin the most
  // list prefix and are the least likely to matter again) until there is
  // room for one more record. The variable being accessed is only chosen
  // when nothing else holds a record.
  while (overInfoBudget()) {
    VarState *Victim = nullptr;
    VarState *CurrentSt = nullptr;
    uint64_t VictimSeq = ~0ull;
    for (unsigned I = 0; I != NumShards; ++I) {
      Shard &Sh = Shards[I];
      std::lock_guard<std::mutex> L(Sh.Mu);
      for (VarState *St : Sh.Table) {
        if (!St)
          continue;
        std::lock_guard<std::mutex> KL(klFor(St->V));
        uint64_t Oldest = ~0ull;
        if (St->Write.Valid)
          Oldest = St->Write.Pos.load(std::memory_order_relaxed)->Seq;
        for (ReadRec *R = St->ReadsHead; R; R = R->Next)
          if (R->RI.Valid)
            Oldest = std::min(
                Oldest, R->RI.Pos.load(std::memory_order_relaxed)->Seq);
        if (Oldest == ~0ull)
          continue;
        if (St->V == Current) {
          CurrentSt = St;
          continue;
        }
        if (Oldest < VictimSeq) {
          VictimSeq = Oldest;
          Victim = St;
        }
      }
    }
    if (!Victim)
      Victim = CurrentSt;
    if (!Victim)
      return; // no records left to evict; the byte budget is cell-bound
    std::lock_guard<std::mutex> KL(klFor(Victim->V));
    // Raced with another enforcer: degrading dropped all of the victim's
    // records, so the re-scan cannot pick it again. Re-check the budget
    // rather than leave over it (the caller installs a record next).
    if (Victim->Degraded)
      continue;
    degradeVarLocked(*Victim);
  }
}

EngineStats GoldilocksEngine::stats() const {
  EngineStats Out;
  S->loadInto(Out);
  return Out;
}

size_t GoldilocksEngine::infoRecordCount() const {
  return InfoCount.load(std::memory_order_relaxed);
}

EngineHealth GoldilocksEngine::health() const {
  EngineHealth H;
  H.EventListLength = ListLen.load(std::memory_order_relaxed);
  H.InfoRecords = InfoCount.load(std::memory_order_relaxed);
  H.TrackedVars = VarCount.load(std::memory_order_relaxed);
  H.EventListHighWater = ListHighWater.load(std::memory_order_relaxed);
  H.InfoHighWater = InfoHighWater.load(std::memory_order_relaxed);
  H.ApproxBytes = approxBytes();
  H.DegradationLevel = DegLevel.load(std::memory_order_relaxed);
  H.GloballyDegraded = GlobalDegraded.load(std::memory_order_relaxed);
  H.DegradationEvents = S->DegradationEvents.load(std::memory_order_relaxed);
  H.DegradedVars = S->DegradedVars.load(std::memory_order_relaxed);
  H.ForcedGcs = S->ForcedGcs.load(std::memory_order_relaxed);
  H.GraceWaits = S->GraceWaits.load(std::memory_order_relaxed);
  H.AppendRetries = S->AppendRetries.load(std::memory_order_relaxed);
  H.Stalls = S->GraceTimeouts.load(std::memory_order_relaxed);
  H.QuarantinedCells = QuarantineCount.load(std::memory_order_relaxed);
  H.ReclaimedDeadSlots =
      S->ReclaimedDeadSlots.load(std::memory_order_relaxed);
  return H;
}

TelemetrySnapshot GoldilocksEngine::telemetry() const {
  // Start from the registry (histograms), then add the counter table (the
  // names jsonEngineStats emits too) and the health/arena gauges, so
  // --metrics-json readers see one flat vocabulary regardless of which
  // layer produced a number.
  TelemetrySnapshot Snap;
  if (Tel)
    Snap = Tel->snapshot();
  else
    Snap.Level = TelemetryLevel::Off;

  addCounters(Snap, "", stats());
  Snap.addCounter("slab_cell_refills", CellArena->magazineRefills());
  Snap.addCounter("slab_var_refills", VarArena->magazineRefills());
  Snap.addCounter("slab_read_refills", ReadArena->magazineRefills());
  if (Flight) {
    Snap.addCounter("flight_events", Flight->total());
    Snap.addCounter("flight_dropped", Flight->dropped());
  }

  Snap.addGauge("event_list_length", ListLen.load(std::memory_order_relaxed));
  Snap.addGauge("event_list_high_water",
                ListHighWater.load(std::memory_order_relaxed));
  Snap.addGauge("info_records", InfoCount.load(std::memory_order_relaxed));
  Snap.addGauge("info_high_water",
                InfoHighWater.load(std::memory_order_relaxed));
  Snap.addGauge("tracked_vars", VarCount.load(std::memory_order_relaxed));
  Snap.addGauge("approx_bytes", approxBytes());
  Snap.addGauge("quarantined_cells",
                QuarantineCount.load(std::memory_order_relaxed));
  Snap.addGauge("degradation_level", DegLevel.load(std::memory_order_relaxed));
  Snap.addGauge("slab_pages",
                CellArena->pagesAllocated() + VarArena->pagesAllocated() +
                    ReadArena->pagesAllocated());
  Snap.addGauge("slab_bytes_reserved",
                CellArena->bytesReserved() + VarArena->bytesReserved() +
                    ReadArena->bytesReserved());
  return Snap;
}

std::string GoldilocksEngine::stallDump() const {
  // The supervisor's stall forensic: one human-readable blob capturing the
  // governor state, every metric, and the per-thread flight-recorder tails
  // at the moment the stall was diagnosed (before reclamation/escalation
  // mutate any of it).
  std::string Out = "=== engine stall dump ===\nhealth: ";
  Out += health().str();
  Out += '\n';
  Out += telemetry().str();
  if (Flight) {
    Out += "--- flight recorder (most recent last) ---\n";
    Out += Flight->dump();
  }
  return Out;
}

SupervisedEngine gold::superviseEngine(GoldilocksEngine &E) {
  SupervisedEngine Out;
  Out.Sample = [&E] { return E.health(); };
  Out.Escalate = [&E](unsigned Rung) { E.escalateLadder(Rung); };
  Out.ReclaimDeadSlots = [&E] { return E.reclaimDeadSlotsIfExhausted(); };
  Out.DumpTelemetry = [&E] { return E.stallDump(); };
  return Out;
}

std::vector<VarId> GoldilocksEngine::degradedVars() const {
  std::vector<VarId> Out;
  for (unsigned I = 0; I != NumShards; ++I) {
    Shard &Sh = Shards[I];
    std::lock_guard<std::mutex> L(Sh.Mu);
    for (VarState *St : Sh.Table) {
      if (!St)
        continue;
      std::lock_guard<std::mutex> KL(klFor(St->V));
      if (St->Degraded)
        Out.push_back(St->V);
    }
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}
