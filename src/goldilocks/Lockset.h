//===- goldilocks/Lockset.h - Goldilocks lockset values ---------*- C++ -*-===//
///
/// \file
/// The lockset domain of the generalized Goldilocks algorithm (Section 4).
/// A lockset LS(o,d) is a subset of
///
///   (Addr × Volatile) ∪ (Addr × Data) ∪ Tid ∪ { TL }
///
/// i.e. it may contain volatile variables (including the implicit lock
/// variable (o,l) of every object), data variables, thread identifiers, and
/// the special transaction-lock value TL. Unlike Eraser-style locksets,
/// Goldilocks locksets *grow* as synchronization events transfer ownership.
///
/// Representation (DESIGN.md §12): locksets in real executions are almost
/// always tiny — a thread element, a lock or two — so the element sequence
/// is a small-buffer vector holding the first 8 elements inline: building,
/// copying (window walks pass locksets by value) and membership-testing the
/// common case touches no heap. Sets that spill past the inline capacity
/// additionally maintain a *sorted shadow* of the elements (ordered by
/// (Kind, Object, Field)), switching contains() to binary search and giving
/// the commit rule's LS ∩ (R∪W) test a sorted DataVar range to probe.
///
//===----------------------------------------------------------------------===//

#ifndef GOLD_GOLDILOCKS_LOCKSET_H
#define GOLD_GOLDILOCKS_LOCKSET_H

#include "event/Ids.h"
#include "support/SmallVector.h"

#include <string>
#include <vector>

namespace gold {

/// One element of a lockset.
struct LocksetElem {
  enum KindTy : uint8_t {
    Thread,   ///< A thread identifier t ∈ Tid.
    VolVar,   ///< A volatile variable (o,v); (o,LockField) is the lock of o.
    DataVar,  ///< A data variable (o,d) (added by transaction commits).
    TxnLock,  ///< The fictitious global transaction lock TL.
  };

  KindTy Kind = Thread;
  VarId Var;          // VolVar/DataVar payload; Var.Object holds the tid for
                      // Thread elements.

  static LocksetElem thread(ThreadId T) {
    LocksetElem E;
    E.Kind = Thread;
    E.Var = VarId{T, 0};
    return E;
  }
  static LocksetElem lock(ObjectId O) { return volVar(lockVar(O)); }
  static LocksetElem volVar(VarId V) {
    LocksetElem E;
    E.Kind = VolVar;
    E.Var = V;
    return E;
  }
  static LocksetElem dataVar(VarId V) {
    LocksetElem E;
    E.Kind = DataVar;
    E.Var = V;
    return E;
  }
  static LocksetElem txnLock() {
    LocksetElem E;
    E.Kind = TxnLock;
    E.Var = VarId{0, 0}; // normalized so ordering/equality can use Var
    return E;
  }

  ThreadId threadId() const { return Var.Object; }

  friend bool operator==(const LocksetElem &A, const LocksetElem &B) {
    return A.Kind == B.Kind && A.Var == B.Var;
  }

  /// Total order for the sorted shadow: by kind, then packed variable id.
  /// Groups each kind — in particular all DataVar elements — into one
  /// contiguous, Var-sorted range.
  friend bool operator<(const LocksetElem &A, const LocksetElem &B) {
    if (A.Kind != B.Kind)
      return A.Kind < B.Kind;
    return A.Var.key() < B.Var.key();
  }

  /// Renders e.g. "T2", "o1.lock", "o3.f0", "TL".
  std::string str() const;
};

/// A small set of LocksetElems preserving insertion order (str() renders the
/// evolutions of Figures 6 and 7 verbatim, and race reports identify the
/// prior owner as the first Thread element). See the file comment for the
/// two-tier representation.
class Lockset {
public:
  /// Inline element capacity; also the size beyond which the sorted shadow
  /// kicks in.
  static constexpr unsigned InlineElems = 8;

  Lockset() = default;

  bool empty() const { return Elems.empty(); }
  size_t size() const { return Elems.size(); }
  void clear() {
    Elems.clear();
    Sorted.clear();
  }

  bool contains(const LocksetElem &E) const;
  bool containsThread(ThreadId T) const {
    return contains(LocksetElem::thread(T));
  }
  bool containsTxnLock() const { return contains(LocksetElem::txnLock()); }

  /// Inserts \p E if absent; returns true if it was inserted.
  bool insert(const LocksetElem &E);

  /// Resets to the singleton {t}, plus TL when \p Xact is set — the state of
  /// a variable's lockset immediately after an access (Section 4).
  void resetToOwner(ThreadId T, bool Xact);

  /// Returns true if the set contains any of the data variables in \p Vars
  /// (the commit rule's LS ∩ (R ∪ W) test). \p SortedVars, when non-null,
  /// is \p Vars sorted by VarId::key() (CommitSets::prepareSorted()); the
  /// probe then runs smaller-side-into-sorted-larger-side instead of the
  /// quadratic scan.
  bool intersectsDataVars(const std::vector<VarId> &Vars,
                          const std::vector<VarId> *SortedVars =
                              nullptr) const;

  /// Iteration in insertion order.
  const LocksetElem *begin() const { return Elems.begin(); }
  const LocksetElem *end() const { return Elems.end(); }

  /// Renders e.g. "{T1, o2.lock, T2}" preserving insertion order, so unit
  /// tests can assert the exact evolutions shown in Figures 6 and 7.
  std::string str() const;

  friend bool operator==(const Lockset &A, const Lockset &B);

private:
  /// Insertion-ordered elements; first InlineElems live inside the object.
  SmallVector<LocksetElem, InlineElems> Elems;
  /// Sorted shadow of Elems, maintained only once the set spills past the
  /// inline capacity (empty before that). Never consulted while small —
  /// a linear scan over one or two cache lines wins there.
  std::vector<LocksetElem> Sorted;
};

bool operator==(const Lockset &A, const Lockset &B);

} // namespace gold

#endif // GOLD_GOLDILOCKS_LOCKSET_H
