//===- vm/Heap.cpp --------------------------------------------------------===//

#include "vm/Heap.h"

#include <cassert>
#include <new>

#include <sys/mman.h>

using namespace gold;

//===----------------------------------------------------------------------===//
// Monitor
//===----------------------------------------------------------------------===//

uint32_t Monitor::enter(ThreadId T) {
  std::unique_lock<std::mutex> L(Mu);
  if (Owner == T)
    return ++Depth;
  Cv.wait(L, [&] { return Owner == NoThread; });
  Owner = T;
  Depth = 1;
  return 1;
}

bool Monitor::exit(ThreadId T, bool &WasOuter) {
  std::lock_guard<std::mutex> L(Mu);
  if (Owner != T)
    return false;
  WasOuter = --Depth == 0;
  if (WasOuter) {
    Owner = NoThread;
    Cv.notify_all();
  }
  return true;
}

bool Monitor::wait(ThreadId T) {
  std::unique_lock<std::mutex> L(Mu);
  if (Owner != T)
    return false;
  uint32_t SavedDepth = Depth;
  uint64_t Epoch = NotifyEpoch;
  Owner = NoThread;
  Depth = 0;
  Cv.notify_all();
  // Wake on a notify (epoch bump). Spurious wakeups are permitted by Java
  // wait() semantics, so waiting for the epoch to change is merely the
  // common case, not a guarantee the caller may rely on.
  Cv.wait(L, [&] { return NotifyEpoch != Epoch && Owner == NoThread; });
  Owner = T;
  Depth = SavedDepth;
  return true;
}

bool Monitor::notify(ThreadId T, bool All) {
  std::lock_guard<std::mutex> L(Mu);
  if (Owner != T)
    return false;
  (void)All; // notify() wakes all waiters; legal under spurious-wakeup rules
  ++NotifyEpoch;
  Cv.notify_all();
  return true;
}

ThreadId Monitor::owner() const {
  std::lock_guard<std::mutex> L(Mu);
  return Owner;
}

uint32_t Monitor::depth(ThreadId T) const {
  std::lock_guard<std::mutex> L(Mu);
  return Owner == T ? Depth : 0;
}

//===----------------------------------------------------------------------===//
// Heap
//===----------------------------------------------------------------------===//

Heap::Heap() {
  void *Dir = mmap(nullptr, MaxChunks * sizeof(Chunk *), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Dir == MAP_FAILED)
    throw std::bad_alloc();
  Chunks = static_cast<Chunk **>(Dir);
}

Heap::~Heap() {
  size_t N = Count.load(std::memory_order_relaxed);
  for (size_t I = 1; I < N; ++I) {
    Chunk *C = chunkAt(I >> ChunkBits).load(std::memory_order_relaxed);
    delete C[I & (ChunkSize - 1)].load(std::memory_order_relaxed);
  }
  size_t NumChunks = (N + ChunkSize - 1) >> ChunkBits;
  for (size_t I = 0; I != NumChunks; ++I)
    delete[] chunkAt(I).load(std::memory_order_relaxed);
  munmap(Chunks, MaxChunks * sizeof(Chunk *));
}

ObjectId Heap::alloc(ClassId Class, uint32_t FieldCount) {
  std::lock_guard<std::mutex> L(GrowMu);
  size_t Id = Count.load(std::memory_order_relaxed);
  assert(Id >> ChunkBits < MaxChunks && "heap exhausted");
  std::atomic_ref<Chunk *> Slot = chunkAt(Id >> ChunkBits);
  Chunk *C = Slot.load(std::memory_order_relaxed);
  if (!C) {
    C = new Chunk[ChunkSize];
    for (size_t I = 0; I != ChunkSize; ++I)
      C[I].store(nullptr, std::memory_order_relaxed);
    Slot.store(C, std::memory_order_release);
  }
  C[Id & (ChunkSize - 1)].store(new ObjectRec(Class, FieldCount),
                                std::memory_order_release);
  Count.store(Id + 1, std::memory_order_release);
  return static_cast<ObjectId>(Id);
}

ObjectRec &Heap::get(ObjectId O) {
  assert(O != NullRef && "dereferencing null");
  Chunk *C = chunkAt(O >> ChunkBits).load(std::memory_order_acquire);
  assert(C && "invalid object id (chunk)");
  ObjectRec *R = C[O & (ChunkSize - 1)].load(std::memory_order_acquire);
  assert(R && "invalid object id (slot)");
  return *R;
}

bool Heap::valid(ObjectId O) const {
  return O != NullRef && O < Count.load(std::memory_order_acquire);
}

bool Heap::tryLockObject(ObjectId O, ThreadId T) {
  ObjectRec &R = get(O);
  ThreadId Expected = NoThread;
  if (R.StmOwner.compare_exchange_strong(Expected, T,
                                         std::memory_order_acquire))
    return true;
  return Expected == T;
}

void Heap::unlockObject(ObjectId O, ThreadId T) {
  ObjectRec &R = get(O);
  assert(R.StmOwner.load(std::memory_order_relaxed) == T &&
         "unlock by non-owner");
  (void)T;
  R.StmOwner.store(NoThread, std::memory_order_release);
}

uint64_t Heap::loadRaw(VarId V) {
  ObjectRec &R = get(V.Object);
  assert(V.Field < R.FieldCount && "field out of range");
  return R.Slots[V.Field].load(std::memory_order_relaxed);
}

void Heap::storeRaw(VarId V, uint64_t Value) {
  ObjectRec &R = get(V.Object);
  assert(V.Field < R.FieldCount && "field out of range");
  R.Slots[V.Field].store(Value, std::memory_order_relaxed);
}
