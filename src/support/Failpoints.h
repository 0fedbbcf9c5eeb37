//===- support/Failpoints.h - Deterministic fault injection -----*- C++ -*-===//
///
/// \file
/// A seeded, deterministic failpoint framework for robustness testing. A
/// *failpoint* is a named site in production code where a fault can be
/// injected under test: a simulated allocation failure, a garbage-collection
/// stall, a lock-acquire conflict, a thread preemption. Sites are compiled
/// into the hot paths but cost exactly one relaxed atomic load and one
/// predictable branch while the registry is disarmed; all bookkeeping lives
/// behind that branch.
///
/// Decisions are deterministic: each site keeps an evaluation counter, and
/// the n-th evaluation of site s fires iff
///   mix64(mix64(Seed ^ hash(s)) ^ n) mod 1e6 < RatePpm[s],
/// so each (seed, site) pair selects its own decision stream.
/// Replaying the same single-threaded run with the same seed therefore
/// injects exactly the same faults. Under concurrency the counter interleaves
/// nondeterministically, which still yields a reproducible *distribution*.
///
/// Typical test usage:
/// \code
///   FailpointConfig C;
///   C.Seed = 42;
///   C.rate(Failpoint::EngineCellAlloc, 5000); // 0.5% of evaluations
///   FailpointScope Scope(C);                  // disarms on scope exit
///   ... run the system under test ...
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef GOLD_SUPPORT_FAILPOINTS_H
#define GOLD_SUPPORT_FAILPOINTS_H

#include <array>
#include <atomic>
#include <cstdint>

namespace gold {

/// Every injection site in the system. Keep failpointName() in sync.
enum class Failpoint : unsigned {
  EngineCellAlloc = 0, ///< sync-event list Cell allocation fails (bad_alloc)
  EngineInfoAlloc,     ///< Info-record / VarState allocation fails (bad_alloc)
  EngineGcStall,       ///< garbage collection stalls for StallMicros
  EngineReaderPark,    ///< a thread parks inside an epoch read section
  EngineRetainStall,   ///< a reader parks between loading its position from
                       ///< Last and retaining it (the grace TOCTOU window)
  EngineDeregisterDrop,///< a thread exits without deregistering its slot
  EnginePublishStall,  ///< the publisher parks between closing its epoch
                       ///< section after appending a cell and recording the
                       ///< publish accounting (the reclaim race window)
  StmLockConflict,     ///< STM object-lock acquisition reports a conflict
  StmLockDelay,        ///< STM object-lock acquisition is delayed
  VmPreempt,           ///< VM thread yields at an instrumentation point
  ServiceIngestStall,  ///< a shard consumer stalls between dequeue and apply
  ServiceClientHang,   ///< a client session hangs mid-feed (slow producer)
  ServiceShardWedge,   ///< a shard consumer wedges: the shard must be
                       ///< reincarnated (crash-only engine swap)
  NetAcceptFail,       ///< accept() of a new connection is refused (the
                       ///< socket is closed immediately after accept)
  NetPartialRead,      ///< a socket read delivers at most one byte, forcing
                       ///< frames to arrive fragmented across reads
  NetWriteStall,       ///< a connection's write flush is skipped this poll
                       ///< round (simulates a zero-window / slow reader)
  NetConnHang,         ///< a connection goes half-open: the server stops
                       ///< reading it until the read deadline closes it
  NetClientDrop,       ///< a TCP client writes half a frame and drops its
                       ///< connection (reconnect-resume path)
  ShmProducerStall,    ///< an shm producer skips its heartbeat bump and
                       ///< stalls mid-publish (wedged-producer reap path)
  ShmSlotCorrupt,      ///< an shm producer corrupts a slot's op byte before
                       ///< publishing it (decode-error kill path)
  Count_               ///< number of sites (not a site)
};

constexpr unsigned NumFailpoints = static_cast<unsigned>(Failpoint::Count_);

/// Short stable name for logs and CLI flags ("engine-cell-alloc", ...).
const char *failpointName(Failpoint F);

/// Injection plan: per-site firing rates in parts-per-million evaluations.
struct FailpointConfig {
  uint64_t Seed = 1;
  /// Fires per one million evaluations; 0 disables the site.
  std::array<uint32_t, NumFailpoints> RatePpm{};
  /// Stall duration for the delay-style sites (GC stall, lock delay).
  unsigned StallMicros = 20;

  FailpointConfig &rate(Failpoint F, uint32_t Ppm) {
    RatePpm[static_cast<unsigned>(F)] = Ppm;
    return *this;
  }
};

/// Parses one `<site>=<ppm>` CLI argument (`--failpoint`) into \p FC.
/// Returns false on an unknown site name, a missing `=`, or a rate above
/// 1000000 ppm.
bool parseFailpointArg(const char *Arg, FailpointConfig &FC);

/// Process-wide failpoint registry. Disarmed by default; production code
/// consults it only through the inline helpers below, whose fast path is a
/// single relaxed load of the armed flag.
class Failpoints {
public:
  /// The single branch production code pays when injection is off.
  static bool armed() { return Armed.load(std::memory_order_relaxed); }

  static Failpoints &instance();

  /// Arms the registry with \p C, resetting all counters.
  void arm(const FailpointConfig &C);

  /// Disarms every site (counters are preserved for inspection).
  void disarm();

  /// Deterministically decides whether site \p F fires this evaluation.
  /// Must only be called while armed (the inline helpers guarantee this).
  bool evaluate(Failpoint F);

  /// evaluate() for delay-style sites: sleeps StallMicros when it fires.
  /// Returns true if it stalled.
  bool maybeStall(Failpoint F);

  /// Site \p F's configured rate; nonzero means the site is armed while
  /// the registry is.
  uint32_t ratePpm(Failpoint F) const {
    return Cfg.RatePpm[static_cast<unsigned>(F)];
  }

  /// Times site \p F was consulted while armed.
  uint64_t evaluations(Failpoint F) const;
  /// Times site \p F fired.
  uint64_t fires(Failpoint F) const;

  /// Zeroes all counters (arm() also does this).
  void resetCounters();

private:
  Failpoints() = default;

  static std::atomic<bool> Armed;

  FailpointConfig Cfg; // written only while disarmed
  struct Site {
    std::atomic<uint64_t> Evals{0};
    std::atomic<uint64_t> Fires{0};
  };
  std::array<Site, NumFailpoints> Sites;
};

/// Hot-path check: one relaxed load + branch when disarmed.
inline bool failpoint(Failpoint F) {
  return Failpoints::armed() && Failpoints::instance().evaluate(F);
}

/// Hot-path stall: sleeps when the site fires; no-op when disarmed.
inline void failpointStall(Failpoint F) {
  if (Failpoints::armed())
    Failpoints::instance().maybeStall(F);
}

/// RAII arming for tests: arms on construction, disarms on destruction.
class FailpointScope {
public:
  explicit FailpointScope(const FailpointConfig &C) {
    Failpoints::instance().arm(C);
  }
  ~FailpointScope() { Failpoints::instance().disarm(); }

  FailpointScope(const FailpointScope &) = delete;
  FailpointScope &operator=(const FailpointScope &) = delete;
};

} // namespace gold

#endif // GOLD_SUPPORT_FAILPOINTS_H
