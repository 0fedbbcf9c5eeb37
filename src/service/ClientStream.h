//===- service/ClientStream.h - Transport-independent streams --*- C++ -*-===//
///
/// \file
/// The transport-independent half of a client stream — the contract of
/// DESIGN.md §14 that net::NetServer (TCP and the stdio connection) and
/// shm::ShmServer share: resume where the server says (StreamTable), drop
/// duplicates and never feed past a gap (ClientStream::classify), settle
/// frames through backpressure (feedFrame), close completely (settleClose).
///
/// Everything here runs on the transport's serving thread; the per-frame
/// calls are inline and allocation-free.
///
//===----------------------------------------------------------------------===//

#ifndef GOLD_SERVICE_CLIENTSTREAM_H
#define GOLD_SERVICE_CLIENTSTREAM_H

#include "service/Service.h"
#include "service/Tracing.h"

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

namespace gold {

/// Owner token of a stream that no transport endpoint currently feeds.
inline constexpr uint64_t NoStreamOwner = UINT64_MAX;

/// Progress steps for one refused frame on the settle path (then dropped
/// and counted) or one close (then retried): a wedged shard hangs neither.
inline constexpr unsigned SettleBound = 50000;

/// Where a frame seq stands relative to the stream's Expect.
enum class SeqClass : uint8_t {
  Dup,     ///< below Expect: a retransmit, already applied
  InOrder, ///< == Expect: feed it
  Ahead,   ///< above Expect: a gap; must not be fed
};

/// One client's stream state.
struct ClientStream {
  Session *S = nullptr;
  uint64_t Expect = 0;            ///< next frame seq the server will feed
  uint64_t Owner = NoStreamOwner; ///< transport endpoint feeding the stream
  /// Client->server monotonic clock offset (server now minus client now)
  /// measured by the open's clock handshake; 0 without one. Applied to
  /// origin stamps before they enter the service.
  int64_t ClockOffset = 0;
  /// TCP's stall gate: the Expect at which the stream last went
  /// un-consumable (a backpressure or resync reply sent). While Expect ==
  /// ResyncAt, further ahead frames are the client's in-flight pipeline
  /// tail and are dropped without a reply each.
  uint64_t ResyncAt = UINT64_MAX;

  SeqClass classify(uint64_t Seq) const {
    return Seq < Expect   ? SeqClass::Dup
           : Seq > Expect ? SeqClass::Ahead
                          : SeqClass::InOrder;
  }

  /// The in-order frame was consumed (accepted, rejected, closed, or
  /// dropped-and-counted): the next gap earns a fresh resync.
  void advance() {
    ++Expect;
    ResyncAt = UINT64_MAX;
  }

  /// The span context of frame \p Seq stamped with client clock
  /// \p RawOrigin (0 = unstamped), built in \p FT; null when untraced.
  /// The deterministic sampler is re-checked here, so a producer that
  /// stamps every frame still costs O(1) samples downstream.
  const FrameTrace *trace(const DetectionService &Svc, uint64_t Client,
                          uint64_t Seq, uint64_t RawOrigin,
                          FrameTrace &FT) const {
    if (!RawOrigin || !Svc.pipeTracingEnabled() ||
        !traceSampled(Svc.config().Trace.Seed, Client, Seq,
                      Svc.config().Trace.SampleRatePpm))
      return nullptr;
    // Correct the stamp onto the server clock; clamp to 1 so a wildly
    // skewed stamp cannot collapse to the "untraced" sentinel.
    int64_t Corr = static_cast<int64_t>(RawOrigin) + ClockOffset;
    FT.OriginNanos = Corr > 0 ? static_cast<uint64_t>(Corr) : 1;
    FT.FrameSeq = Seq;
    FT.Span = true;
    return &FT;
  }
};

/// What StreamTable::open decided.
struct StreamOpen {
  enum class Kind : uint8_t {
    New,     ///< a fresh session was admitted
    Resumed, ///< the live session was re-bound; the client resumes at Expect
    Busy,    ///< another live endpoint owns the stream
    Refused, ///< admission refused; retry after RetryAfterNanos
  };
  Kind K = Kind::Refused;
  ClientStream *St = nullptr; ///< New / Resumed
  bool Rebound = false;       ///< New, or resumed from another endpoint
  uint64_t RetryAfterNanos = 0;
  std::string Error; ///< Refused diagnostic
};

/// Client id -> stream. An entry outlives its session until erase() or a
/// new open replaces it.
class StreamTable {
public:
  /// Opens or resumes client \p Id's stream for endpoint \p Owner. A live
  /// stream bound to another endpoint is Busy unless \p OwnerGone(Old)
  /// returns true: the transport proved that endpoint dead and settled its
  /// frames (which may kill the session, so it is looked up again). A
  /// \p ClockOffset replaces the stored one; without it a resume keeps the
  /// old offset.
  template <typename OwnerGoneFn>
  StreamOpen open(DetectionService &Svc, uint64_t Id, unsigned Priority,
                  uint64_t Owner, std::optional<int64_t> ClockOffset,
                  OwnerGoneFn &&OwnerGone) {
    StreamOpen R;
    ClientStream *St = live(Id);
    if (St && St->Owner != NoStreamOwner && St->Owner != Owner) {
      if (!OwnerGone(St->Owner)) {
        R.K = StreamOpen::Kind::Busy;
        return R;
      }
      St = live(Id);
    }
    if (St) {
      R.K = StreamOpen::Kind::Resumed;
      R.Rebound = St->Owner != Owner;
      St->Owner = Owner;
      St->ResyncAt = UINT64_MAX; // fresh stream: the next gap earns a resync
      if (ClockOffset)
        St->ClockOffset = *ClockOffset;
      R.St = St;
      return R;
    }
    DetectionService::OpenResult O = Svc.open(Id, Priority);
    if (!O.S) {
      R.RetryAfterNanos = O.RetryAfterNanos;
      R.Error = std::move(O.Error);
      return R;
    }
    ClientStream &N = Streams[Id];
    N = ClientStream();
    N.S = O.S;
    N.Owner = Owner;
    N.ClockOffset = ClockOffset.value_or(0);
    R.K = StreamOpen::Kind::New;
    R.Rebound = true;
    R.St = &N;
    return R;
  }

  ClientStream *find(uint64_t Id) {
    auto It = Streams.find(Id);
    return It == Streams.end() ? nullptr : &It->second;
  }

  /// Releases \p Id's stream from \p Owner (if it still owns it). The
  /// session lives on for a resume; the service's idle timeout reaps an
  /// abandoned one with the loss accounted there.
  void unbind(uint64_t Id, uint64_t Owner) {
    if (ClientStream *St = find(Id))
      if (St->Owner == Owner)
        St->Owner = NoStreamOwner;
  }

  void erase(uint64_t Id) { Streams.erase(Id); }

private:
  ClientStream *live(uint64_t Id) {
    ClientStream *St = find(Id);
    return St && St->S->state() != SessionState::Dead ? St : nullptr;
  }

  std::unordered_map<uint64_t, ClientStream> Streams;
};

/// How feedFrame treats a refusal.
enum class FeedMode : uint8_t {
  Live,   ///< the client can retry: backpressure may reach the wire
  Settle, ///< the frame already arrived (drain, stdio): push it through
};

/// Presents one frame — \p Feed() calls the session's feedLine/feedAction —
/// until the session takes it (Accepted, Rejected or Closed), honoring the
/// retry-the-same-frame backpressure contract. A Backpressure answer means,
/// on the live path, that the frame was not consumed and the client retries
/// after RetryAfterNanos; on the settle path, that it could not land within
/// SettleBound and is dropped, which the caller counts.
template <typename FeedFn>
inline FeedResult feedFrame(DetectionService &Svc, FeedMode Mode,
                            FeedFn &&Feed) {
  FeedResult R;
  for (unsigned Attempts = 0;;) {
    R = Feed();
    if (R.St != FeedResult::Status::Backpressure)
      return R;
    if (Mode == FeedMode::Live) {
      // Serving thread as consumer: the ring likely just outran the last
      // pump slice. A pump costs microseconds; a wire-level refusal costs
      // the client a rewind plus a jittered sleep.
      if (Attempts++ < 2 && !Svc.consumersRunning()) {
        Svc.pumpAll();
        continue;
      }
      return R;
    }
    if (++Attempts > SettleBound)
      return R;
    Svc.makeProgress();
  }
}

/// Closes \p S and steps the service until the session is Dead: every
/// action it admitted applied, its verdict set complete. False after
/// SettleBound steps; the front end then answers with a retry, never a
/// partial set.
inline bool settleClose(DetectionService &Svc, Session &S) {
  S.close();
  for (unsigned Steps = 0; S.state() != SessionState::Dead; ++Steps) {
    if (Steps == SettleBound)
      return false;
    Svc.makeProgress();
  }
  return true;
}

} // namespace gold

#endif // GOLD_SERVICE_CLIENTSTREAM_H
