//===- perfbench/Trace.h - Benchmark-side spans and the compile decorator -===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Host-time attribution from outside the program. The benchmark opens a
/// span around every call it makes into a layer (frontend, run, compile)
/// and keeps the spans in memory; the traced run turns them into per-layer
/// self times and writes them out at the end. Compile spans come from
/// TracingCompiler, a jit::Compiler decorator the runtime is handed in
/// place of the real compiler: it forwards compile(), name(),
/// compileCache() and the pass context, and only times what passes
/// through.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_PERFBENCH_TRACE_H
#define INCLINE_PERFBENCH_TRACE_H

#include "jit/Compiler.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One timed call into a layer. Spans of one operation (a request, a
/// program iteration, a replayed compile) share its Op id; Parent is the
/// index of the enclosing span, -1 at top level.
struct Span {
  const char *Layer = "";
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int64_t Parent = -1;
  uint64_t Op = 0;

  uint64_t nanos() const { return EndNs - StartNs; }
};

/// In-memory span recorder. Disabled, open() returns -1 and records
/// nothing, so untraced runs pay one branch per boundary.
class SpanLog {
public:
  void setEnabled(bool On) { Enabled = On; }
  void setOp(uint64_t Id) { Op = Id; }

  int64_t open(const char *Layer) {
    if (!Enabled)
      return -1;
    Span S;
    S.Layer = Layer;
    S.Parent = Top;
    S.Op = Op;
    Spans.push_back(S);
    Top = static_cast<int64_t>(Spans.size()) - 1;
    Spans.back().StartNs = nowNs();
    return Top;
  }

  void close(int64_t Index) {
    if (Index < 0)
      return;
    Span &S = Spans[static_cast<size_t>(Index)];
    S.EndNs = nowNs();
    Top = S.Parent;
  }

  const std::vector<Span> &spans() const { return Spans; }
  void clear() {
    Spans.clear();
    Top = -1;
  }

  /// One JSON object per line: layer, start/end (ns, steady clock), parent
  /// line index (-1 at top level) and operation id. \p FirstLine is the
  /// line index the first span lands on, so several logs can share a file.
  void writeJsonLines(std::FILE *Out, int64_t FirstLine = 0) const {
    for (const Span &S : Spans)
      std::fprintf(Out,
                   "{\"layer\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                   "\"parent\":%lld,\"op\":%llu}\n",
                   S.Layer, static_cast<unsigned long long>(S.StartNs),
                   static_cast<unsigned long long>(S.EndNs),
                   static_cast<long long>(S.Parent < 0 ? -1
                                                       : S.Parent + FirstLine),
                   static_cast<unsigned long long>(S.Op));
  }

private:
  bool Enabled = false;
  std::vector<Span> Spans;
  int64_t Top = -1;
  uint64_t Op = 0;
};

/// RAII span: closed on every exit path, exceptions included.
class ScopedSpan {
public:
  ScopedSpan(SpanLog &Log, const char *Layer)
      : Log(Log), Index(Log.open(Layer)) {}
  ~ScopedSpan() { Log.close(Index); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanLog &Log;
  int64_t Index;
};

/// Counters summed over every compile that passed through the decorator.
struct CompileTotals {
  uint64_t Compiles = 0;
  uint64_t Nanos = 0; ///< Host time inside Compiler::compile.
  uint64_t TrialNanos = 0;
  uint64_t Rounds = 0;
  uint64_t ExploredNodes = 0;
  uint64_t InlinedCallsites = 0;
};

/// Forwards to \p Inner and records one "inliner" span plus the host
/// latency of each compile. Single-threaded, like the Sync-mode runtime
/// that calls it.
class TracingCompiler : public incline::jit::Compiler {
public:
  TracingCompiler(incline::jit::Compiler &Inner, SpanLog &Log)
      : Inner(Inner), Log(Log) {
    setPassContext(Inner.passContext());
  }

  std::unique_ptr<incline::ir::Function>
  compile(const incline::ir::Function &Source, const incline::ir::Module &M,
          const incline::profile::ProfileTable &Profiles,
          incline::jit::CompileStats &Stats,
          const incline::opt::PassContext &Ctx) override {
    uint64_t Start = nowNs();
    std::unique_ptr<incline::ir::Function> Code;
    {
      ScopedSpan S(Log, "inliner");
      try {
        Code = Inner.compile(Source, M, Profiles, Stats, Ctx);
      } catch (...) {
        note(Start, Stats);
        throw;
      }
    }
    note(Start, Stats);
    return Code;
  }
  using incline::jit::Compiler::compile;

  std::string name() const override { return Inner.name(); }
  incline::jit::CompileCache *compileCache() override {
    return Inner.compileCache();
  }

  /// Per-compile host latency in ms, in arrival order.
  const std::vector<double> &latenciesMs() const { return LatencyMs; }
  const CompileTotals &totals() const { return Totals; }

private:
  void note(uint64_t Start, const incline::jit::CompileStats &Stats) {
    uint64_t Nanos = nowNs() - Start;
    LatencyMs.push_back(static_cast<double>(Nanos) / 1e6);
    ++Totals.Compiles;
    Totals.Nanos += Nanos;
    Totals.TrialNanos += Stats.TrialNanos;
    Totals.Rounds += Stats.Rounds;
    Totals.ExploredNodes += Stats.ExploredNodes;
    Totals.InlinedCallsites += Stats.InlinedCallsites;
  }

  incline::jit::Compiler &Inner;
  SpanLog &Log;
  std::vector<double> LatencyMs;
  CompileTotals Totals;
};

} // namespace perfbench

#endif // INCLINE_PERFBENCH_TRACE_H
