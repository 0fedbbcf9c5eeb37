//===- event/Ids.h - Thread, object and variable identities -----*- C++ -*-===//
///
/// \file
/// Identifier types shared by the whole system, mirroring Section 3 of the
/// paper: Tid (thread identifiers), Addr (object identifiers) and variables,
/// which are (object, field) pairs. A data variable uses a data field; a
/// synchronization variable uses a volatile field. The special field
/// `LockField` models the paper's reserved volatile field `l` that holds an
/// object's monitor state.
///
//===----------------------------------------------------------------------===//

#ifndef GOLD_EVENT_IDS_H
#define GOLD_EVENT_IDS_H

#include "support/Random.h"

#include <cstdint>
#include <functional>
#include <string>

namespace gold {

/// Thread identifier (the paper's Tid).
using ThreadId = uint32_t;

/// Object identifier (the paper's Addr). Identifiers are never reused by the
/// MiniJVM heap, but the detectors still implement the alloc-reset rule.
using ObjectId = uint32_t;

/// Field index within an object; array elements use their index as the field.
using FieldId = uint32_t;

/// The reserved pseudo-field modelling an object's monitor (the paper's
/// special volatile field `l`).
inline constexpr FieldId LockField = 0xffffffffu;

/// Sentinel for "no thread".
inline constexpr ThreadId NoThread = 0xffffffffu;

/// A variable: an (object, field) pair. Depending on the field's declaration
/// this is either a data variable or a synchronization (volatile) variable.
struct VarId {
  ObjectId Object = 0;
  FieldId Field = 0;

  friend bool operator==(const VarId &A, const VarId &B) {
    return A.Object == B.Object && A.Field == B.Field;
  }
  friend bool operator!=(const VarId &A, const VarId &B) { return !(A == B); }
  friend bool operator<(const VarId &A, const VarId &B) {
    return A.Object != B.Object ? A.Object < B.Object : A.Field < B.Field;
  }

  /// Packs the pair into one 64-bit key (used by hash maps).
  uint64_t key() const {
    return (static_cast<uint64_t>(Object) << 32) | Field;
  }

  /// Renders e.g. "o3.f1" or "o3.lock" for diagnostics.
  std::string str() const;
};

/// Returns the lock variable (o, l) of object \p O.
inline VarId lockVar(ObjectId O) { return VarId{O, LockField}; }

/// Hashes a variable with mix64 (support/Random.h), the system's one
/// integer mix.
struct VarIdHash {
  size_t operator()(const VarId &V) const {
    return static_cast<size_t>(mix64(V.key()));
  }
};

} // namespace gold

#endif // GOLD_EVENT_IDS_H
