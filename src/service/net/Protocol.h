//===- service/net/Protocol.h - Shared wire-protocol vocabulary -*- C++ -*-===//
///
/// \file
/// The single home of the line-protocol literals (DESIGN.md §16) that were
/// previously copy-pasted between the server (NetServer.cpp) and its
/// clients. Both sides — the server and the one client library
/// (GoldClient) — build and recognize replies through these helpers, so a
/// wording change is a one-line edit instead of a cross-file grep, and the
/// client can never drift from what the server actually says.
///
/// Request grammar (client -> server), one frame per line:
///
///   open <id> [prio] [t=<client-now-ns>]
///   line <id> <seq> [@<origin-ns>] <trace-line>            stat <id>
///   close <id>            verdicts <id>                    quit
///   ping [token]          pong [token]                     health
///
/// The optional `t=` token on open is the tracing clock handshake: the
/// server subtracts it from its own monotonic now to learn the client<->
/// server clock offset. The optional `@<origin-ns>` token stamps a frame's
/// client-monotonic origin; it is unambiguous because trace lines always
/// start with an alphabetic keyword, never '@'.
///
/// Reply grammar (server -> client), the pieces clients key on:
///
///   ok open <id>                         ok open <id> resumed expect=<n>
///   err open <id> retry-after-ns=<n> …   err open <id> busy …
///   ok stat <id> state=… reason=… accepted=<n> expect=<n>
///   err line <id> seq=<s> resync expect=<n>
///   err line <id> [seq=<s>] backpressure retry-after-ns=<n>
///   ok close <id> races=<n>              ok verdicts <id> races=<n> state=…
///   err verdicts <id> backpressure retry-after-ns=<n>
///   race <id> <report text>              bye <reason>
///
/// `ok close` comes only once every accepted line was applied, after one
/// `race` line per racy variable: the complete set (DESIGN.md §14). Else
/// the reply is `err verdicts … backpressure` and the client re-sends the
/// idempotent close. `ok verdicts` carries what was delivered so far.
///
//===----------------------------------------------------------------------===//

#ifndef GOLD_SERVICE_NET_PROTOCOL_H
#define GOLD_SERVICE_NET_PROTOCOL_H

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace gold {
namespace net {
namespace proto {

//===----------------------------------------------------------------------===//
// Vocabulary
//===----------------------------------------------------------------------===//

// Request keywords.
inline constexpr const char *CmdOpen = "open";
inline constexpr const char *CmdLine = "line";
inline constexpr const char *CmdStat = "stat";
inline constexpr const char *CmdClose = "close";
inline constexpr const char *CmdVerdicts = "verdicts";
inline constexpr const char *CmdQuit = "quit";
inline constexpr const char *CmdPing = "ping";
inline constexpr const char *CmdPong = "pong";
inline constexpr const char *CmdHealth = "health";

// Reply prefixes clients dispatch on.
inline constexpr const char *OkOpen = "ok open";
inline constexpr const char *OkStat = "ok stat";
inline constexpr const char *OkClose = "ok close";
inline constexpr const char *OkVerdicts = "ok verdicts";
inline constexpr const char *ErrLine = "err line";
inline constexpr const char *Race = "race ";
inline constexpr const char *Bye = "bye";
inline constexpr const char *Ping = "ping";

// Key=value fields and verbs embedded in replies.
inline constexpr const char *KeyExpect = "expect=";
inline constexpr const char *KeyAccepted = "accepted=";
inline constexpr const char *KeySeq = " seq=";
inline constexpr const char *KeyRetryAfterNs = "retry-after-ns=";
inline constexpr const char *KeyClock = "t=";
inline constexpr const char *VerbBackpressure = " backpressure ";
inline constexpr const char *VerbResync = " resync ";
inline constexpr const char *VerbBusy = " busy ";
inline constexpr const char *StateDead = "state=dead";

//===----------------------------------------------------------------------===//
// Client-side recognizers
//===----------------------------------------------------------------------===//

inline bool hasPrefix(const std::string &L, const char *P) {
  return L.rfind(P, 0) == 0;
}

/// Parses the u64 following the first occurrence of \p Key ("expect=",
/// " seq=", "retry-after-ns=") in \p L. Returns false when absent.
inline bool findU64(const std::string &L, const char *Key, uint64_t &Out) {
  size_t At = L.find(Key);
  if (At == std::string::npos)
    return false;
  Out = std::strtoull(L.c_str() + At + std::char_traits<char>::length(Key),
                      nullptr, 10);
  return true;
}

inline bool parseExpect(const std::string &L, uint64_t &Out) {
  return findU64(L, KeyExpect, Out);
}
inline bool parseSeq(const std::string &L, uint64_t &Out) {
  return findU64(L, KeySeq, Out);
}
inline bool parseRetryAfter(const std::string &L, uint64_t &Out) {
  return findU64(L, KeyRetryAfterNs, Out);
}

inline bool isBackpressure(const std::string &L) {
  return L.find(VerbBackpressure) != std::string::npos;
}
inline bool isResync(const std::string &L) {
  return L.find(VerbResync) != std::string::npos;
}
/// `err open <id> busy`: the session is still owned by the client's
/// previous connection, which the server has not reaped yet.
inline bool isBusy(const std::string &L) {
  return L.find(VerbBusy) != std::string::npos;
}

/// Parses the clock-handshake token on an open ("t=<ns>"). Absent on
/// untraced clients; the server then treats the clock offset as 0.
inline bool parseClock(const std::string &L, uint64_t &Out) {
  return findU64(L, KeyClock, Out);
}

/// Strips a leading "@<origin-ns> " trace stamp off a line-frame payload.
/// Returns true (and advances \p Rest past the stamp) when one was
/// present. Trace lines never begin with '@', so this cannot misfire.
inline bool splitOrigin(const char *&Rest, uint64_t &Origin) {
  if (*Rest != '@')
    return false;
  char *End = nullptr;
  Origin = std::strtoull(Rest + 1, &End, 10);
  if (End == Rest + 1)
    return false;
  while (*End == ' ')
    ++End;
  Rest = End;
  return true;
}

/// Pulls "o3.f1" out of "race on o3.f1: T1 write vs T0 write" — the verdict
/// identity every differential harness compares against the oracle.
inline bool raceVar(const std::string &Report, std::string &Var) {
  const std::string Tag = "race on ";
  size_t B = Report.find(Tag);
  if (B == std::string::npos)
    return false;
  B += Tag.size();
  size_t E = Report.find(':', B);
  if (E == std::string::npos)
    return false;
  Var.assign(Report, B, E - B);
  return true;
}

//===----------------------------------------------------------------------===//
// Request formatters (client side; no trailing newline unless noted)
//===----------------------------------------------------------------------===//

inline int fmtOpenPrio(char *Buf, size_t N, uint64_t Id, unsigned Prio) {
  return std::snprintf(Buf, N, "%s %llu %u\n", CmdOpen,
                       (unsigned long long)Id, Prio);
}
inline int fmtOpenPrioClock(char *Buf, size_t N, uint64_t Id, unsigned Prio,
                            uint64_t NowNanos) {
  return std::snprintf(Buf, N, "%s %llu %u %s%llu\n", CmdOpen,
                       (unsigned long long)Id, Prio, KeyClock,
                       (unsigned long long)NowNanos);
}
inline int fmtLineHead(char *Buf, size_t N, uint64_t Id, uint64_t Seq) {
  return std::snprintf(Buf, N, "%s %llu %llu ", CmdLine,
                       (unsigned long long)Id, (unsigned long long)Seq);
}
inline int fmtLineHeadTraced(char *Buf, size_t N, uint64_t Id, uint64_t Seq,
                             uint64_t OriginNanos) {
  return std::snprintf(Buf, N, "%s %llu %llu @%llu ", CmdLine,
                       (unsigned long long)Id, (unsigned long long)Seq,
                       (unsigned long long)OriginNanos);
}
inline int fmtStat(char *Buf, size_t N, uint64_t Id) {
  return std::snprintf(Buf, N, "%s %llu\n", CmdStat, (unsigned long long)Id);
}
inline int fmtClose(char *Buf, size_t N, uint64_t Id) {
  return std::snprintf(Buf, N, "%s %llu\n", CmdClose, (unsigned long long)Id);
}

//===----------------------------------------------------------------------===//
// Reply formatters (server side)
//===----------------------------------------------------------------------===//

inline int fmtOkOpen(char *Buf, size_t N, uint64_t Id) {
  return std::snprintf(Buf, N, "%s %llu", OkOpen, (unsigned long long)Id);
}
inline int fmtOkOpenResumed(char *Buf, size_t N, uint64_t Id,
                            uint64_t Expect) {
  return std::snprintf(Buf, N, "%s %llu resumed %s%llu", OkOpen,
                       (unsigned long long)Id, KeyExpect,
                       (unsigned long long)Expect);
}
inline int fmtErrOpenBusy(char *Buf, size_t N, uint64_t Id) {
  return std::snprintf(Buf, N,
                       "err open %llu busy (owned by another connection)",
                       (unsigned long long)Id);
}
inline int fmtErrOpenRetry(char *Buf, size_t N, uint64_t Id, uint64_t Ns,
                           const char *Why) {
  return std::snprintf(Buf, N, "err open %llu %s%llu %s",
                       (unsigned long long)Id, KeyRetryAfterNs,
                       (unsigned long long)Ns, Why);
}
inline int fmtOkStat(char *Buf, size_t N, uint64_t Id, const char *State,
                     const char *Reason, uint64_t Accepted, uint64_t Expect) {
  return std::snprintf(Buf, N, "%s %llu state=%s reason=%s %s%llu %s%llu",
                       OkStat, (unsigned long long)Id, State, Reason,
                       KeyAccepted, (unsigned long long)Accepted, KeyExpect,
                       (unsigned long long)Expect);
}
inline int fmtErrLineResync(char *Buf, size_t N, uint64_t Id, uint64_t Seq,
                            uint64_t Expect) {
  return std::snprintf(Buf, N, "%s %llu seq=%llu resync %s%llu", ErrLine,
                       (unsigned long long)Id, (unsigned long long)Seq,
                       KeyExpect, (unsigned long long)Expect);
}
inline int fmtErrLineBackpressure(char *Buf, size_t N, uint64_t Id,
                                  uint64_t Seq, uint64_t Ns) {
  return std::snprintf(Buf, N, "%s %llu seq=%llu backpressure %s%llu",
                       ErrLine, (unsigned long long)Id,
                       (unsigned long long)Seq, KeyRetryAfterNs,
                       (unsigned long long)Ns);
}
inline int fmtErrLineBackpressureNoSeq(char *Buf, size_t N, uint64_t Id,
                                       uint64_t Ns) {
  return std::snprintf(Buf, N, "%s %llu backpressure %s%llu", ErrLine,
                       (unsigned long long)Id, KeyRetryAfterNs,
                       (unsigned long long)Ns);
}
inline int fmtOkClose(char *Buf, size_t N, uint64_t Id, size_t Races) {
  return std::snprintf(Buf, N, "%s %llu races=%zu", OkClose,
                       (unsigned long long)Id, Races);
}
inline int fmtOkVerdicts(char *Buf, size_t N, uint64_t Id, size_t Races,
                         const char *State) {
  return std::snprintf(Buf, N, "%s %llu races=%zu state=%s", OkVerdicts,
                       (unsigned long long)Id, Races, State);
}
inline int fmtErrVerdictsBackpressure(char *Buf, size_t N, uint64_t Id,
                                      uint64_t Ns) {
  return std::snprintf(Buf, N, "err verdicts %llu backpressure %s%llu",
                       (unsigned long long)Id, KeyRetryAfterNs,
                       (unsigned long long)Ns);
}
inline int fmtRaceHead(char *Buf, size_t N, uint64_t Id) {
  return std::snprintf(Buf, N, "%s%llu ", Race, (unsigned long long)Id);
}

} // namespace proto
} // namespace net
} // namespace gold

#endif // GOLD_SERVICE_NET_PROTOCOL_H
