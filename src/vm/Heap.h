//===- vm/Heap.h - MiniJVM heap, objects and monitors -----------*- C++ -*-===//
///
/// \file
/// The MiniJVM heap: objects with 64-bit raw field slots, reentrant
/// monitors with wait/notify, and per-object transaction locks (the heap
/// implements the STM's StmStore interface). Field slots are relaxed
/// atomics so that the *programs under test* may race (that is the point of
/// this runtime) without the VM itself committing C++ undefined behaviour;
/// volatile fields are accessed with sequentially consistent ordering.
///
/// Object ids are never reused; id 0 is the null reference and id 1 is the
/// implicit globals object.
///
//===----------------------------------------------------------------------===//

#ifndef GOLD_VM_HEAP_H
#define GOLD_VM_HEAP_H

#include "stm/Stm.h"
#include "vm/Program.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>

namespace gold {

/// The null reference.
inline constexpr ObjectId NullRef = 0;
/// The implicit globals object.
inline constexpr ObjectId GlobalsRef = 1;

/// A reentrant monitor with a wait set, Java semantics (including spurious
/// wakeup tolerance: notify() may wake more than one waiter).
class Monitor {
public:
  /// Blocks until the monitor is free (or already owned by \p T), then
  /// enters. Returns the resulting depth (1 = first entry).
  uint32_t enter(ThreadId T);

  /// Leaves one level; returns false if \p T is not the owner. \p WasOuter
  /// is set when the monitor became free.
  bool exit(ThreadId T, bool &WasOuter);

  /// Java wait(): fully releases the monitor, blocks until a notify (or a
  /// spurious wakeup), then re-enters at the saved depth. Returns false if
  /// \p T is not the owner.
  bool wait(ThreadId T);

  /// Java notify()/notifyAll(). Returns false if \p T is not the owner.
  bool notify(ThreadId T, bool All);

  /// Current owner (racy snapshot, for diagnostics).
  ThreadId owner() const;

  /// Current re-entry depth as seen by \p T (0 if \p T is not the owner).
  /// Exact when called by the owning thread — only the owner changes it.
  uint32_t depth(ThreadId T) const;

private:
  mutable std::mutex Mu;
  std::condition_variable Cv;
  ThreadId Owner = NoThread;
  uint32_t Depth = 0;
  uint64_t NotifyEpoch = 0;
};

/// One heap object (or array).
struct ObjectRec {
  ClassId Class = 0;                 ///< ArrayClassId for arrays
  uint32_t FieldCount = 0;           ///< fields or array length
  std::unique_ptr<std::atomic<uint64_t>[]> Slots;
  Monitor Mon;
  std::atomic<ThreadId> StmOwner{NoThread}; ///< transaction lock

  ObjectRec(ClassId C, uint32_t N)
      : Class(C), FieldCount(N), Slots(new std::atomic<uint64_t>[N]) {
    for (uint32_t I = 0; I != N; ++I)
      Slots[I].store(0, std::memory_order_relaxed);
  }
};

/// The heap: a chunked, append-only object table. Reads are lock-free and
/// never invalidated by concurrent allocation.
class Heap final : public StmStore {
public:
  Heap();
  ~Heap() override;

  /// Allocates an object of \p Class with \p FieldCount slots (zeroed).
  ObjectId alloc(ClassId Class, uint32_t FieldCount);

  /// Returns the object record; \p O must be a valid non-null id.
  ObjectRec &get(ObjectId O);

  /// True if \p O names an allocated object.
  bool valid(ObjectId O) const;

  /// Number of objects allocated (excluding null).
  size_t size() const { return Count.load(std::memory_order_acquire) - 1; }

  // StmStore interface (per-object transaction locks + raw slots).
  bool tryLockObject(ObjectId O, ThreadId T) override;
  void unlockObject(ObjectId O, ThreadId T) override;
  uint64_t loadRaw(VarId V) override;
  void storeRaw(VarId V, uint64_t Value) override;

private:
  static constexpr size_t ChunkBits = 12;
  static constexpr size_t ChunkSize = size_t(1) << ChunkBits;
  static constexpr size_t MaxChunks = 1 << 16;

  using Chunk = std::atomic<ObjectRec *>; // array of ChunkSize entries

  /// Directory entry \p I, accessed atomically in place.
  std::atomic_ref<Chunk *> chunkAt(size_t I) const {
    return std::atomic_ref<Chunk *>(Chunks[I]);
  }

  std::mutex GrowMu;
  /// MaxChunks directory entries in an anonymous mapping that is never
  /// written up front: its pages read as zero (no chunk) until alloc()
  /// installs a chunk, so a VM does not pay to clear 512 KiB it never uses.
  Chunk **Chunks;
  std::atomic<size_t> Count{1}; // slot 0 is the null reference
};

} // namespace gold

#endif // GOLD_VM_HEAP_H
