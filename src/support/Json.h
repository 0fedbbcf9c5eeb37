//===- support/Json.h - Minimal JSON emission -------------------*- C++ -*-===//
///
/// \file
/// A small streaming JSON writer shared by the benchmark harnesses
/// (`bench_table1 --json`) and the goldilocks-trace CLI (--stats-json).
/// Deliberately write-only: the repo never parses JSON, it only has to emit
/// well-formed output that external tooling (CI validation, plotting
/// scripts) can load. Keys are emitted in call order; the writer
/// tracks nesting and comma placement so call sites stay linear.
///
//===----------------------------------------------------------------------===//

#ifndef GOLD_SUPPORT_JSON_H
#define GOLD_SUPPORT_JSON_H

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace gold {

/// Streaming JSON writer with an in-memory buffer. Usage:
///
/// \code
///   JsonWriter J;
///   J.beginObject();
///   J.kv("name", "bench_table1");
///   J.key("runs"); J.beginArray();
///   ...
///   J.endArray();
///   J.endObject();
///   J.writeFile("table1.json");
/// \endcode
class JsonWriter {
public:
  JsonWriter() { Stack.push_back(Frame{/*IsObject=*/false, /*First=*/true}); }

  void beginObject() {
    prefix();
    Buf += '{';
    Stack.push_back(Frame{true, true});
  }
  void endObject() {
    Stack.pop_back();
    Buf += '}';
  }
  void beginArray() {
    prefix();
    Buf += '[';
    Stack.push_back(Frame{false, true});
  }
  void endArray() {
    Stack.pop_back();
    Buf += ']';
  }

  /// Emits the key of the next object member.
  void key(const char *K) {
    comma();
    appendString(K);
    Buf += ':';
    HavePendingKey = true;
  }

  void value(const char *S) {
    prefix();
    appendString(S);
  }
  void value(const std::string &S) { value(S.c_str()); }
  void value(bool B) {
    prefix();
    Buf += B ? "true" : "false";
  }
  void value(uint64_t N) {
    char Tmp[32];
    std::snprintf(Tmp, sizeof(Tmp), "%llu", (unsigned long long)N);
    prefix();
    Buf += Tmp;
  }
  void value(int64_t N) {
    char Tmp[32];
    std::snprintf(Tmp, sizeof(Tmp), "%lld", (long long)N);
    prefix();
    Buf += Tmp;
  }
  void value(int N) { value(static_cast<int64_t>(N)); }
  void value(unsigned N) { value(static_cast<uint64_t>(N)); }
  /// Non-finite doubles are not representable in JSON; emit null.
  void value(double D) {
    if (!std::isfinite(D)) {
      prefix();
      Buf += "null";
      return;
    }
    char Tmp[40];
    std::snprintf(Tmp, sizeof(Tmp), "%.9g", D);
    prefix();
    Buf += Tmp;
  }

  template <typename T> void kv(const char *K, T V) {
    key(K);
    value(V);
  }

  const std::string &str() const { return Buf; }

  /// Writes the buffer (plus a trailing newline) to \p Path; returns false
  /// on I/O failure.
  bool writeFile(const std::string &Path) const {
    FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    bool Ok = std::fwrite(Buf.data(), 1, Buf.size(), F) == Buf.size() &&
              std::fputc('\n', F) != EOF;
    return std::fclose(F) == 0 && Ok;
  }

private:
  struct Frame {
    bool IsObject;
    bool First;
  };

  /// Comma handling for the enclosing container.
  void comma() {
    Frame &F = Stack.back();
    if (!F.First)
      Buf += ',';
    F.First = false;
  }

  /// Called before any value: inside an object a key() must have preceded
  /// it (the key already placed the comma); inside an array place one here.
  void prefix() {
    if (HavePendingKey) {
      HavePendingKey = false;
      return;
    }
    comma();
  }

  void appendString(const char *S) {
    Buf += '"';
    for (const char *P = S; *P; ++P) {
      unsigned char C = static_cast<unsigned char>(*P);
      switch (C) {
      case '"':
        Buf += "\\\"";
        break;
      case '\\':
        Buf += "\\\\";
        break;
      case '\n':
        Buf += "\\n";
        break;
      case '\t':
        Buf += "\\t";
        break;
      case '\r':
        Buf += "\\r";
        break;
      default:
        if (C < 0x20) {
          char Tmp[8];
          std::snprintf(Tmp, sizeof(Tmp), "\\u%04x", C);
          Buf += Tmp;
        } else {
          Buf += static_cast<char>(C);
        }
      }
    }
    Buf += '"';
  }

  std::string Buf;
  std::vector<Frame> Stack;
  bool HavePendingKey = false;
};

} // namespace gold

#endif // GOLD_SUPPORT_JSON_H
