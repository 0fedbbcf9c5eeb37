//===- service/Tracing.h - cross-process pipeline tracing -----------------===//
///
/// \file
/// Primitives for end-to-end pipeline tracing (DESIGN.md §18): the per-frame
/// trace context a transport threads into the service, the service-side
/// configuration, and the deterministic ppm sampling decision.
///
/// Sampling must be decidable independently on both sides of the process
/// boundary: the client decides whether to emit its own span for frame N and
/// the server decides whether to emit the pipeline spans for the same frame,
/// with no coordination beyond sharing (seed, ppm). Both sides hash the
/// (client-id, frame-ordinal) pair through the system's one integer mix
/// (mix64, support/Random.h), which makes the two decisions bit-identical,
/// so a merged cross-process trace always carries both halves of a sampled
/// frame.
///
//===----------------------------------------------------------------------===//

#ifndef GOLD_SERVICE_TRACING_H
#define GOLD_SERVICE_TRACING_H

#include "support/Random.h"

#include <cstddef>
#include <cstdint>

namespace gold {

/// Deterministic per-frame sampling: true when frame \p FrameSeq of client
/// \p ClientId is selected at \p Ppm parts-per-million under \p Seed. A
/// pure hash of (seed, client, ordinal), so the decision is reproducible
/// across processes and across runs.
inline bool traceSampled(uint64_t Seed, uint64_t ClientId, uint64_t FrameSeq,
                         uint32_t Ppm) {
  if (Ppm == 0)
    return false;
  if (Ppm >= 1000000u)
    return true;
  uint64_t H = mix64(Seed ^ (ClientId * 0x9E3779B97F4A7C15ull) ^
                     (FrameSeq * 0xFF51AFD7ED558CCDull));
  return (H % 1000000u) < Ppm;
}

/// Service-side tracing configuration (ServiceConfig::Trace).
struct PipeTraceConfig {
  /// Master switch. Off must ablate to within-noise overhead: every hook is
  /// a single predictable branch on this flag (or on a null histogram).
  bool Enabled = false;
  /// Shared sampling seed; the client must use the same one for its half of
  /// the merged trace to line up.
  uint64_t Seed = 1;
  /// Sampling rate in parts per million (default 1%). The whole per-frame
  /// trace path — origin stamping, stage histograms, and spans — applies
  /// only to sampled frames: unsampled frames cost one hash at the client
  /// and a zero-check at the server, which is what keeps tracing within
  /// noise even when enabled (the O(1)-samples discipline).
  uint32_t SampleRatePpm = 10000;
};

/// Per-frame trace context a transport threads into Session::feedLine /
/// feedAction. Null pointer = untraced frame (the common case).
struct FrameTrace {
  /// Client-stamped origin, already corrected into the server's monotonic
  /// domain via the transport's clock handshake. 0 = no stamp.
  uint64_t OriginNanos = 0;
  /// The client's own frame ordinal (TCP line seq / shm ClientSeq) — the
  /// args.seq join key that pairs server spans with the client's span for
  /// the same frame in a merged trace.
  uint64_t FrameSeq = 0;
  /// Deterministic span-sampling decision for this frame.
  bool Span = false;
};

} // namespace gold

#endif // GOLD_SERVICE_TRACING_H
