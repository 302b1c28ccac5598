//===- perfbench/src/Trace.h - In-memory spans for the traced run ---------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its calls into each layer. A
/// span holds its name, start, end, parent span, workload and run id; all
/// spans stay in memory and are written at exit as Chrome trace-event
/// JSON ("ph":"X" complete events, microsecond timestamps), so a trace can
/// be opened in chrome://tracing or Perfetto.
///
/// A layer's self time is its span's duration minus the part of that
/// interval its child spans cover. Spans are recorded only while the
/// tracer is enabled, so the traced run can alternate traced and untraced
/// rounds and report the tracing overhead.
///
//===----------------------------------------------------------------------===//

#ifndef OM64_PERFBENCH_TRACE_H
#define OM64_PERFBENCH_TRACE_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace om64 {
namespace perfbench {

/// Seconds on the steady clock since the first call.
inline double nowSeconds() {
  static const auto Epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Epoch)
      .count();
}

struct Span {
  std::string Name;
  double Start = 0, End = 0; ///< seconds, nowSeconds() clock
  int Parent = -1;           ///< index into Tracer::spans(); -1 at the root
  unsigned Round = 0;        ///< benchmark round the span belongs to
};

class Tracer {
public:
  Tracer(std::string Workload, std::string RunId)
      : Workload(std::move(Workload)), RunId(std::move(RunId)) {}

  bool Enabled = false;
  unsigned Round = 0;

  /// Opens a span as a child of the innermost open one; returns its index,
  /// or -1 when tracing is off.
  int open(const std::string &Name) {
    if (!Enabled)
      return -1;
    Spans.push_back({Name, nowSeconds(), 0, Open.empty() ? -1 : Open.back(),
                     Round});
    Open.push_back(static_cast<int>(Spans.size()) - 1);
    return Open.back();
  }

  void close(int Id) {
    if (Id < 0)
      return;
    Spans[Id].End = nowSeconds();
    // Spans close in LIFO order; tolerate a skipped close on error paths.
    while (!Open.empty()) {
      int Top = Open.back();
      Open.pop_back();
      if (Top == Id)
        break;
    }
  }

  /// Records an already-measured span (for tests and synthetic layouts).
  int add(Span S) {
    Spans.push_back(std::move(S));
    return static_cast<int>(Spans.size()) - 1;
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Self time of every span: duration minus the union of its children's
  /// intervals clipped to it.
  std::vector<double> selfTimes() const {
    std::vector<std::vector<std::pair<double, double>>> Kids(Spans.size());
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Kids[S.Parent].push_back({S.Start, S.End});
    std::vector<double> Self(Spans.size());
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &P = Spans[I];
      std::vector<std::pair<double, double>> &K = Kids[I];
      std::sort(K.begin(), K.end());
      double Covered = 0, CurLo = 0, CurHi = 0;
      bool Have = false;
      for (auto [Lo, Hi] : K) {
        Lo = std::max(Lo, P.Start);
        Hi = std::min(Hi, P.End);
        if (Hi <= Lo)
          continue;
        if (Have && Lo <= CurHi) {
          CurHi = std::max(CurHi, Hi);
          continue;
        }
        if (Have)
          Covered += CurHi - CurLo;
        CurLo = Lo;
        CurHi = Hi;
        Have = true;
      }
      if (Have)
        Covered += CurHi - CurLo;
      Self[I] = std::max(0.0, (P.End - P.Start) - Covered);
    }
    return Self;
  }

  /// Writes every span as a Chrome trace-event complete event. Returns
  /// false when the file cannot be written.
  bool writeChromeJson(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", F);
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "  {\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                   "\"dur\": %.3f, \"pid\": 1, \"tid\": 1, \"args\": "
                   "{\"id\": %zu, \"parent\": %d, \"workload\": \"%s\", "
                   "\"run\": \"%s\", \"round\": %u}}%s\n",
                   S.Name.c_str(), S.Start * 1e6, (S.End - S.Start) * 1e6, I,
                   S.Parent, Workload.c_str(), RunId.c_str(), S.Round,
                   I + 1 < Spans.size() ? "," : "");
    }
    std::fputs("]}\n", F);
    return std::fclose(F) == 0;
  }

private:
  std::string Workload, RunId;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
public:
  Scope(Tracer &T, const std::string &Name) : T(T), Id(T.open(Name)) {}
  ~Scope() { T.close(Id); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  int Id;
};

} // namespace perfbench
} // namespace om64

#endif // OM64_PERFBENCH_TRACE_H
