//===- event/Trace.cpp ----------------------------------------------------===//

#include "event/Trace.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace gold;

std::string VarId::str() const {
  char Buf[48];
  if (Field == LockField)
    std::snprintf(Buf, sizeof(Buf), "o%u.lock", Object);
  else
    std::snprintf(Buf, sizeof(Buf), "o%u.f%u", Object, Field);
  return Buf;
}

const char *gold::actionKindName(ActionKind K) {
  switch (K) {
  case ActionKind::Alloc:
    return "alloc";
  case ActionKind::Read:
    return "read";
  case ActionKind::Write:
    return "write";
  case ActionKind::VolatileRead:
    return "vread";
  case ActionKind::VolatileWrite:
    return "vwrite";
  case ActionKind::Acquire:
    return "acq";
  case ActionKind::Release:
    return "rel";
  case ActionKind::Fork:
    return "fork";
  case ActionKind::Join:
    return "join";
  case ActionKind::Commit:
    return "commit";
  case ActionKind::Terminate:
    return "terminate";
  }
  return "?";
}

std::string Action::str() const {
  char Buf[96];
  switch (Kind) {
  case ActionKind::Alloc:
    std::snprintf(Buf, sizeof(Buf), "T%u: alloc(o%u)", Thread, Var.Object);
    break;
  case ActionKind::Read:
  case ActionKind::Write:
  case ActionKind::VolatileRead:
  case ActionKind::VolatileWrite:
    std::snprintf(Buf, sizeof(Buf), "T%u: %s(%s)", Thread,
                  actionKindName(Kind), Var.str().c_str());
    break;
  case ActionKind::Acquire:
  case ActionKind::Release:
    std::snprintf(Buf, sizeof(Buf), "T%u: %s(o%u)", Thread,
                  actionKindName(Kind), Var.Object);
    break;
  case ActionKind::Fork:
  case ActionKind::Join:
    std::snprintf(Buf, sizeof(Buf), "T%u: %s(T%u)", Thread,
                  actionKindName(Kind), Target);
    break;
  case ActionKind::Commit:
    std::snprintf(Buf, sizeof(Buf), "T%u: commit(#%u)", Thread, CommitId);
    break;
  case ActionKind::Terminate:
    std::snprintf(Buf, sizeof(Buf), "T%u: terminate", Thread);
    break;
  }
  return Buf;
}

namespace {
bool varKeyLess(VarId A, VarId B) { return A.key() < B.key(); }

bool memberOf(const std::vector<VarId> &Vars,
              const std::vector<VarId> &Sorted, VarId V) {
  if (!Sorted.empty())
    return std::binary_search(Sorted.begin(), Sorted.end(), V, varKeyLess);
  return std::find(Vars.begin(), Vars.end(), V) != Vars.end();
}
} // namespace

void CommitSets::prepareSorted() {
  SortedReads = Reads;
  SortedWrites = Writes;
  std::sort(SortedReads.begin(), SortedReads.end(), varKeyLess);
  std::sort(SortedWrites.begin(), SortedWrites.end(), varKeyLess);
}

bool CommitSets::touches(VarId V) const {
  return memberOf(Reads, SortedReads, V) || memberOf(Writes, SortedWrites, V);
}

bool CommitSets::writes(VarId V) const {
  return memberOf(Writes, SortedWrites, V);
}

ThreadId Trace::threadCount() const {
  ThreadId Max = 0;
  for (const Action &A : Actions) {
    Max = std::max(Max, A.Thread);
    if ((A.Kind == ActionKind::Fork || A.Kind == ActionKind::Join) &&
        A.Target != NoThread)
      Max = std::max(Max, A.Target);
  }
  return Actions.empty() ? 0 : Max + 1;
}

ObjectId Trace::objectCount() const {
  ObjectId Max = 0;
  bool Any = false;
  auto Note = [&](ObjectId O) {
    Max = std::max(Max, O);
    Any = true;
  };
  for (const Action &A : Actions) {
    switch (A.Kind) {
    case ActionKind::Alloc:
    case ActionKind::Read:
    case ActionKind::Write:
    case ActionKind::VolatileRead:
    case ActionKind::VolatileWrite:
    case ActionKind::Acquire:
    case ActionKind::Release:
      Note(A.Var.Object);
      break;
    case ActionKind::Commit: {
      const CommitSets &CS = commitSets(A);
      for (VarId V : CS.Reads)
        Note(V.Object);
      for (VarId V : CS.Writes)
        Note(V.Object);
      break;
    }
    default:
      break;
    }
  }
  return Any ? Max + 1 : 0;
}

const CommitSets &Trace::commitSets(const Action &A) const {
  assert(A.Kind == ActionKind::Commit && "not a commit action");
  assert(A.CommitId < Commits.size() && "dangling commit id");
  return Commits[A.CommitId];
}

bool Trace::accesses(size_t Index, VarId V) const {
  assert(Index < Actions.size() && "action index out of range");
  const Action &A = Actions[Index];
  if (A.Kind == ActionKind::Read || A.Kind == ActionKind::Write)
    return A.Var == V;
  if (A.Kind == ActionKind::Commit)
    return commitSets(A).touches(V);
  return false;
}

std::string Trace::str() const {
  std::string Out;
  for (size_t I = 0; I != Actions.size(); ++I) {
    Out += std::to_string(I);
    Out += ": ";
    Out += Actions[I].str();
    if (Actions[I].Kind == ActionKind::Commit) {
      const CommitSets &CS = commitSets(Actions[I]);
      Out += " R={";
      for (VarId V : CS.Reads)
        Out += V.str() + " ";
      Out += "} W={";
      for (VarId V : CS.Writes)
        Out += V.str() + " ";
      Out += "}";
    }
    Out += '\n';
  }
  return Out;
}

TraceBuilder &TraceBuilder::alloc(ThreadId T, ObjectId O, FieldId FieldCount) {
  Action A;
  A.Kind = ActionKind::Alloc;
  A.Thread = T;
  A.Var = VarId{O, FieldCount};
  return append(A);
}

TraceBuilder &TraceBuilder::read(ThreadId T, ObjectId O, FieldId F) {
  Action A;
  A.Kind = ActionKind::Read;
  A.Thread = T;
  A.Var = VarId{O, F};
  return append(A);
}

TraceBuilder &TraceBuilder::write(ThreadId T, ObjectId O, FieldId F) {
  Action A;
  A.Kind = ActionKind::Write;
  A.Thread = T;
  A.Var = VarId{O, F};
  return append(A);
}

TraceBuilder &TraceBuilder::volRead(ThreadId T, ObjectId O, FieldId F) {
  Action A;
  A.Kind = ActionKind::VolatileRead;
  A.Thread = T;
  A.Var = VarId{O, F};
  return append(A);
}

TraceBuilder &TraceBuilder::volWrite(ThreadId T, ObjectId O, FieldId F) {
  Action A;
  A.Kind = ActionKind::VolatileWrite;
  A.Thread = T;
  A.Var = VarId{O, F};
  return append(A);
}

TraceBuilder &TraceBuilder::acq(ThreadId T, ObjectId O) {
  Action A;
  A.Kind = ActionKind::Acquire;
  A.Thread = T;
  A.Var = lockVar(O);
  return append(A);
}

TraceBuilder &TraceBuilder::rel(ThreadId T, ObjectId O) {
  Action A;
  A.Kind = ActionKind::Release;
  A.Thread = T;
  A.Var = lockVar(O);
  return append(A);
}

TraceBuilder &TraceBuilder::fork(ThreadId T, ThreadId Child) {
  Action A;
  A.Kind = ActionKind::Fork;
  A.Thread = T;
  A.Target = Child;
  return append(A);
}

TraceBuilder &TraceBuilder::join(ThreadId T, ThreadId Child) {
  Action A;
  A.Kind = ActionKind::Join;
  A.Thread = T;
  A.Target = Child;
  return append(A);
}

TraceBuilder &TraceBuilder::terminate(ThreadId T) {
  Action A;
  A.Kind = ActionKind::Terminate;
  A.Thread = T;
  return append(A);
}

TraceBuilder &TraceBuilder::commit(ThreadId T, std::vector<VarId> Reads,
                                   std::vector<VarId> Writes) {
  Action A;
  A.Kind = ActionKind::Commit;
  A.Thread = T;
  A.CommitId = static_cast<uint32_t>(Built.Commits.size());
  Built.Commits.push_back(
      CommitSets{std::move(Reads), std::move(Writes), {}, {}});
  Built.Commits.back().prepareSorted();
  return append(A);
}

TraceBuilder &TraceBuilder::append(Action A) {
  Built.Actions.push_back(A);
  return *this;
}

Trace TraceBuilder::take() {
  Trace Out = std::move(Built);
  Built = Trace();
  return Out;
}
