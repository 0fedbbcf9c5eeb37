//===- goldilocks/Reference.cpp -------------------------------------------===//

#include "goldilocks/Reference.h"

using namespace gold;

std::optional<RaceReport>
GoldilocksReference::access(ThreadId T, VarId V, bool IsWrite, bool Xact) {
  VarState &S = state(V);
  if (S.Disabled)
    return std::nullopt;

  // An access is race-free iff the checked lockset is empty, contains t, or
  // (for transactional accesses) contains TL (Section 4).
  auto CheckOne = [&](const Lockset &LS) -> std::optional<RaceReport> {
    if (LS.empty() || LS.containsThread(T))
      return std::nullopt;
    bool PriorXact = LS.containsTxnLock();
    if (Xact && PriorXact)
      return std::nullopt;
    RaceReport R;
    R.Var = V;
    R.Thread = T;
    R.IsWrite = IsWrite;
    R.Xact = Xact;
    R.PriorXact = PriorXact;
    // resetToOwner puts the accessor first and inserts never reorder, so
    // the first thread element is the conflicting access's owner.
    for (const LocksetElem &E : LS)
      if (E.Kind == LocksetElem::Thread) {
        R.PriorThread = E.threadId();
        break;
      }
    return R;
  };

  std::optional<RaceReport> Race;
  if (S.HasWrite) {
    Race = CheckOne(S.Write);
    if (Race)
      Race->PriorIsWrite = true;
  }
  if (!Race && IsWrite) {
    for (const auto &[ReaderTid, LS] : S.Reads) {
      Race = CheckOne(LS);
      if (Race) {
        Race->PriorIsWrite = false;
        Race->PriorThread = ReaderTid;
        break;
      }
    }
  }
  if (Race) {
    if (Cfg.DisableVarAfterRace)
      S.Disabled = true;
    return Race;
  }

  // Rule 1: after the access the lockset holds only the accessor (plus TL
  // for transactional accesses).
  if (IsWrite) {
    S.Write.resetToOwner(T, Xact);
    S.HasWrite = true;
    S.Reads.clear();
  } else {
    S.Reads[T].resetToOwner(T, Xact);
  }
  return std::nullopt;
}

void GoldilocksReference::applyToAll(const SyncEvent &E) {
  for (auto &[V, S] : Vars) {
    if (S.Disabled)
      continue;
    if (S.HasWrite)
      applyLocksetRule(S.Write, E, V, Cfg.Semantics);
    for (auto &[Tid, LS] : S.Reads) {
      (void)Tid;
      applyLocksetRule(LS, E, V, Cfg.Semantics);
    }
  }
}

void GoldilocksReference::onAcquire(ThreadId T, ObjectId O) {
  SyncEvent E;
  E.Kind = ActionKind::Acquire;
  E.Thread = T;
  E.Var = lockVar(O);
  applyToAll(E);
}

void GoldilocksReference::onRelease(ThreadId T, ObjectId O) {
  SyncEvent E;
  E.Kind = ActionKind::Release;
  E.Thread = T;
  E.Var = lockVar(O);
  applyToAll(E);
}

void GoldilocksReference::onVolatileRead(ThreadId T, VarId V) {
  SyncEvent E;
  E.Kind = ActionKind::VolatileRead;
  E.Thread = T;
  E.Var = V;
  applyToAll(E);
}

void GoldilocksReference::onVolatileWrite(ThreadId T, VarId V) {
  SyncEvent E;
  E.Kind = ActionKind::VolatileWrite;
  E.Thread = T;
  E.Var = V;
  applyToAll(E);
}

void GoldilocksReference::onFork(ThreadId T, ThreadId Child) {
  SyncEvent E;
  E.Kind = ActionKind::Fork;
  E.Thread = T;
  E.Target = Child;
  applyToAll(E);
}

void GoldilocksReference::onJoin(ThreadId T, ThreadId Child) {
  SyncEvent E;
  E.Kind = ActionKind::Join;
  E.Thread = T;
  E.Target = Child;
  applyToAll(E);
}

void GoldilocksReference::onTerminate(ThreadId T) { (void)T; }

void GoldilocksReference::onAlloc(ThreadId T, ObjectId O,
                                  uint32_t FieldCount) {
  (void)T;
  (void)FieldCount;
  // Rule 8: LS(x, d) := ∅ for every field of the fresh object.
  for (auto It = Vars.begin(); It != Vars.end();) {
    if (It->first.Object == O)
      It = Vars.erase(It);
    else
      ++It;
  }
}

std::vector<RaceReport> GoldilocksReference::onCommit(ThreadId T,
                                                      const CommitSets &CS) {
  // Rule 9, staged so the access race checks observe the intermediate
  // states exactly as Figure 5 prescribes:
  //   (a) every lockset intersecting R∪W gains t;
  //   (b) every variable in R (then W) is checked and reset as a
  //       transactional access;
  //   (c) every lockset containing t gains R∪W as data variables.
  std::vector<RaceReport> Races;
  LocksetElem Self = LocksetElem::thread(T);

  auto ForEachLockset = [&](auto &&Fn) {
    for (auto &[V, S] : Vars) {
      (void)V;
      if (S.Disabled)
        continue;
      if (S.HasWrite)
        Fn(S.Write);
      for (auto &[Tid, LS] : S.Reads) {
        (void)Tid;
        Fn(LS);
      }
    }
  };

  // (a)
  ForEachLockset([&](Lockset &LS) {
    if (commitGainsOwnership(LS, CS, Cfg.Semantics))
      LS.insert(Self);
  });

  // (b)
  for (VarId V : CS.Reads)
    if (auto R = access(T, V, /*IsWrite=*/false, /*Xact=*/true))
      Races.push_back(*R);
  for (VarId V : CS.Writes)
    if (auto R = access(T, V, /*IsWrite=*/true, /*Xact=*/true))
      Races.push_back(*R);

  // (c)
  ForEachLockset([&](Lockset &LS) {
    if (LS.contains(Self)) {
      if (Cfg.Semantics != TxnSyncSemantics::WriterToReader)
        for (VarId R : CS.Reads)
          LS.insert(LocksetElem::dataVar(R));
      for (VarId W : CS.Writes)
        LS.insert(LocksetElem::dataVar(W));
      if (Cfg.Semantics == TxnSyncSemantics::AtomicOrder)
        LS.insert(LocksetElem::txnLock());
    }
  });
  return Races;
}

const Lockset *GoldilocksReference::writeLockset(VarId V) const {
  auto It = Vars.find(V);
  if (It == Vars.end() || !It->second.HasWrite)
    return nullptr;
  return &It->second.Write;
}

const Lockset *GoldilocksReference::readLockset(VarId V, ThreadId T) const {
  auto It = Vars.find(V);
  if (It == Vars.end())
    return nullptr;
  auto RIt = It->second.Reads.find(T);
  return RIt == It->second.Reads.end() ? nullptr : &RIt->second;
}
