//===- perfbench/e2e.cpp - Outside-in end-to-end benchmark ----------------===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the product configuration — inliner::IncrementalCompiler under
/// jit::JitRuntime with the default JitConfig — through public entry
/// points only, on three workloads (NOTES.md says why each was chosen):
///
///  * steady-suite   — the 16 suite programs, each run to steady state.
///  * compile-replay — Compiler::compile replayed from frozen profiles.
///  * traffic-churn  — a seeded closed-loop multi-tenant request stream.
///
/// A run sets up several times (frontend, reference oracle, warm state),
/// then repeats the workload until --seconds have passed. Every operation's
/// output is checked against the JIT-off reference interpreter (or, for
/// replayed compiles, against the IR verifier), and every repeat's
/// deterministic digest must equal the first. With --trace 1 every other
/// repeat records spans around each call into a layer and the per-layer
/// metrics come from those traced repeats.
///
/// Usage:
///   incline_e2e --workload W --seed N --seconds S --trace 0|1
///               [--smoke] [--trace-out PATH] [--digest-only]
///
/// The last stdout line is one JSON object: correct, attempted, failed,
/// metrics and the run's digest. perfbench/run.py builds this binary,
/// repeats one digest-only run under a perturbed malloc, and prints the
/// final record.
///
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "frontend/Compiler.h"
#include "inliner/Compilers.h"
#include "ir/IRPrinter.h"
#include "ir/IRVerifier.h"
#include "jit/JitRuntime.h"
#include "opt/SpeculativeDevirt.h"
#include "support/Statistics.h"
#include "workloads/Traffic.h"
#include "workloads/Workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

using namespace incline;
using perfbench::nowNs;
using perfbench::ScopedSpan;
using perfbench::SpanLog;
using perfbench::TracingCompiler;

namespace {

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

constexpr uint64_t FnvBasis = 1469598103934665603ull;

uint64_t fnv1a(uint64_t Hash, std::string_view Data) {
  for (unsigned char C : Data) {
    Hash ^= C;
    Hash *= 1099511628211ull;
  }
  return Hash;
}

/// splitmix64 over (seed, draw index): every draw is a pure function of
/// the seed, so the same seed gives the same inputs.
uint64_t mix(uint64_t Seed, uint64_t N) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ull * (N + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

std::string hex(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", static_cast<unsigned long long>(V));
  return Buf;
}

/// Exact bit pattern of a double, for digests that must be byte-identical.
std::string bitsOf(double V) {
  uint64_t Bits = 0;
  std::memcpy(&Bits, &V, sizeof(Bits));
  return hex(Bits);
}

double percentile(const std::vector<double> &Xs, double P) {
  return workloads::latencyPercentile(Xs, P);
}
double median(const std::vector<double> &Xs) { return percentile(Xs, 50); }

/// Seeded Fisher-Yates permutation of 0..N-1.
std::vector<size_t> permutation(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), size_t{0});
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[mix(Seed, I) % I]);
  return Order;
}

double peakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

//===----------------------------------------------------------------------===//
// Configurations
//===----------------------------------------------------------------------===//

/// The product configuration: the default JitConfig (Sync mode) at the
/// harness's compile threshold, as in the paper's Fig. 9 setup.
jit::JitConfig productConfig() {
  jit::JitConfig Config;
  Config.CompileThreshold = 10;
  return Config;
}

/// The oracle: JIT off, reference interpreter core.
jit::JitConfig referenceConfig() {
  jit::JitConfig Config;
  Config.Enabled = false;
  Config.Interp.Mode = interp::InterpMode::Reference;
  return Config;
}

/// Sentinel expected output of an entry point whose reference run trapped:
/// it never equals a printed output, so every run of it counts as failed.
const char *const ReferenceTrapped = "\x01reference-trapped";

/// Runs \p Symbol once on the oracle and returns its output.
std::string referenceOutput(ir::Module &M, const std::string &Symbol) {
  inliner::IncrementalCompiler Unused;
  jit::JitRuntime Runtime(M, Unused, referenceConfig());
  interp::ExecResult R = Runtime.run(Symbol);
  if (!R.ok()) {
    std::fprintf(stderr, "reference run of %s trapped: %s\n", Symbol.c_str(),
                 R.TrapMessage.c_str());
    return ReferenceTrapped;
  }
  return R.Output;
}

//===----------------------------------------------------------------------===//
// Per-repeat record and the layer accounting of traced repeats
//===----------------------------------------------------------------------===//

/// Runtime counters summed over the runtimes of one repeat.
struct RuntimeTotals {
  uint64_t CompileRequests = 0;
  uint64_t StallNanos = 0;
  uint64_t Installs = 0;
  uint64_t Evictions = 0;
  uint64_t Bailouts = 0;
  uint64_t Deopts = 0;
  uint64_t OsrEntries = 0;

  void add(const jit::JitRuntime &Runtime) {
    jit::JitRuntimeStats S = Runtime.stats();
    const jit::CodeCacheStats &C = Runtime.codeCacheStats();
    CompileRequests += S.CompileRequests + S.OsrCompileRequests;
    StallNanos += S.MutatorStallNanos;
    Installs += C.MethodInstalls + C.OsrInstalls;
    Evictions += C.Evictions + C.OsrEvictions;
    Bailouts += S.Bailouts;
    Deopts += S.GuardFailures + S.ColdBranchDeopts;
    OsrEntries += S.OsrEntries;
  }
};

/// Host time of one suite program within a repeat.
struct ProgramTime {
  double HostMs = 0;
  double CompileMs = 0;
};

/// What one timed repeat of a workload produced.
struct Repeat {
  bool Traced = false;
  double WallNs = 0;
  uint64_t Ops = 0;
  uint64_t Failed = 0;
  std::vector<double> OpUs;      ///< Host latency of each operation.
  std::vector<double> CompileMs; ///< Host latency of each compile.
  double SimCycles = 0;
  double CodeIr = 0;
  uint64_t Steps = 0;
  RuntimeTotals Runtime;
  perfbench::CompileTotals Compiles;
  std::map<std::string, ProgramTime> PerProgram;
  /// Deterministic parts of the repeat (label -> value); the digest is
  /// their hash, and a mismatch is reported part by part.
  std::map<std::string, std::string> DigestParts;
  std::map<std::string, double> Layers; ///< Traced repeats only.

  void addCompiles(const TracingCompiler &TC) {
    CompileMs.insert(CompileMs.end(), TC.latenciesMs().begin(),
                     TC.latenciesMs().end());
    const perfbench::CompileTotals &T = TC.totals();
    Compiles.Compiles += T.Compiles;
    Compiles.Nanos += T.Nanos;
    Compiles.TrialNanos += T.TrialNanos;
    Compiles.Rounds += T.Rounds;
    Compiles.ExploredNodes += T.ExploredNodes;
    Compiles.InlinedCallsites += T.InlinedCallsites;
  }

  std::string digest() const {
    uint64_t Hash = FnvBasis;
    for (const auto &[Label, Value] : DigestParts)
      Hash = fnv1a(fnv1a(Hash, Label), Value);
    return hex(Hash);
  }
};

/// The optimizer passes reported per pass (their registry names).
const char *const ReportedPasses[] = {
    "canonicalize", "canonicalize-2", "canonicalize-trial", "dce",
    "gvn",          "loop-peel",      "rwe",                "speculative-devirt"};

/// Turns a traced repeat's spans, pass metrics and counters into the
/// per-layer metrics. Self times partition the repeat's wall time:
///   interp  = run spans - mutator stall inside them
///   jit     = stall - compile spans nested in runs (verify + install)
///   inliner = compile spans - pass time
///   opt     = pass time
///   bench   = wall - top-level spans (the benchmark's own loop)
void computeLayers(Repeat &Rep, const SpanLog &Log,
                   const opt::PassInstrumentation &Sink) {
  double RunNs = 0, CompileNs = 0, NestedCompileNs = 0, TopCompileNs = 0;
  // Operations are the top-level spans: run calls, or replayed compiles
  // (which always compile). A run's compile spans follow it in the log.
  uint64_t TopOps = 0, CompilingOps = 0;
  int64_t LastCompilingRun = -1;
  for (const perfbench::Span &S : Log.spans()) {
    double Ns = static_cast<double>(S.nanos());
    if (S.Parent < 0)
      ++TopOps;
    if (std::strcmp(S.Layer, "interp") == 0 && S.Parent < 0)
      RunNs += Ns;
    if (std::strcmp(S.Layer, "inliner") != 0)
      continue;
    CompileNs += Ns;
    if (S.Parent < 0) {
      TopCompileNs += Ns;
      ++CompilingOps;
      continue;
    }
    NestedCompileNs += Ns;
    if (S.Parent != LastCompilingRun) {
      LastCompilingRun = S.Parent;
      ++CompilingOps;
    }
  }

  opt::PassMetrics PassTotals = Sink.totals();
  double PassNs = static_cast<double>(PassTotals.Nanos);
  double StallNs = static_cast<double>(Rep.Runtime.StallNanos);
  double InterpSelf = RunNs - StallNs;
  double JitSelf = StallNs - NestedCompileNs;
  double InlinerSelf = CompileNs - PassNs;
  double BenchSelf = Rep.WallNs - RunNs - TopCompileNs;

  auto &L = Rep.Layers;
  L["interp.self_ms"] = InterpSelf / 1e6;
  L["interp.steps"] = static_cast<double>(Rep.Steps);
  L["interp.ns_per_step"] =
      Rep.Steps ? InterpSelf / static_cast<double>(Rep.Steps) : 0;
  L["inliner.compile_ms"] = CompileNs / 1e6;
  L["inliner.trial_ms"] = static_cast<double>(Rep.Compiles.TrialNanos) / 1e6;
  L["inliner.self_ms"] = InlinerSelf / 1e6;
  L["inliner.rounds"] = static_cast<double>(Rep.Compiles.Rounds);
  L["inliner.explored_nodes"] = static_cast<double>(Rep.Compiles.ExploredNodes);
  L["inliner.inlined_callsites"] =
      static_cast<double>(Rep.Compiles.InlinedCallsites);
  L["inliner.inline_yield"] =
      Rep.Compiles.ExploredNodes
          ? static_cast<double>(Rep.Compiles.InlinedCallsites) /
                static_cast<double>(Rep.Compiles.ExploredNodes)
          : 0;
  auto Passes = Sink.passes();
  for (const char *Name : ReportedPasses) {
    opt::PassMetrics M;
    if (auto It = Passes.find(Name); It != Passes.end())
      M = It->second;
    std::string Prefix = std::string("opt.") + Name;
    L[Prefix + ".ms"] = static_cast<double>(M.Nanos) / 1e6;
    L[Prefix + ".runs"] = static_cast<double>(M.Runs);
    L[Prefix + ".ir_removed"] = static_cast<double>(M.IRRemoved);
  }
  uint64_t Lookups = PassTotals.CacheHits + PassTotals.CacheMisses;
  L["opt.analysis_hit_rate"] =
      Lookups ? static_cast<double>(PassTotals.CacheHits) /
                    static_cast<double>(Lookups)
              : 0;
  L["jit.compile_requests"] = static_cast<double>(Rep.Runtime.CompileRequests);
  L["jit.stall_ms"] = StallNs / 1e6;
  L["jit.publish_ms"] = JitSelf / 1e6;
  L["jit.installs"] = static_cast<double>(Rep.Runtime.Installs);
  L["jit.evictions"] = static_cast<double>(Rep.Runtime.Evictions);
  L["jit.bailouts"] = static_cast<double>(Rep.Runtime.Bailouts);
  L["jit.deopts"] = static_cast<double>(Rep.Runtime.Deopts);
  L["jit.osr_entries"] = static_cast<double>(Rep.Runtime.OsrEntries);
  L["jit.compiling_req_frac"] =
      TopOps ? static_cast<double>(CompilingOps) / static_cast<double>(TopOps)
             : 0;
  L["share.interp"] = InterpSelf / Rep.WallNs;
  L["share.jit"] = JitSelf / Rep.WallNs;
  L["share.inliner"] = InlinerSelf / Rep.WallNs;
  L["share.opt"] = PassNs / Rep.WallNs;
  L["share.bench"] = BenchSelf / Rep.WallNs;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// One benchmark workload. setup() may run several times; each call
/// rebuilds all state from scratch. runOnce() performs one timed repeat.
class Workload {
public:
  virtual ~Workload() = default;

  virtual void setup(SpanLog &Log) = 0;
  /// \p Sink, when set, receives per-pass metrics of every compile.
  virtual Repeat runOnce(uint64_t Index, SpanLog &Log,
                         opt::PassInstrumentation *Sink) = 0;

  double FrontendMs = 0;  ///< Frontend host time of the last setup.
  uint64_t IrInsts = 0;   ///< |ir| the frontend produced in the last setup.
  uint64_t SetupFailed = 0;

protected:
  explicit Workload(uint64_t Seed) : Seed(Seed) {}

  std::unique_ptr<ir::Module> parse(std::string_view Source, SpanLog &Log) {
    uint64_t Start = nowNs();
    frontend::CompileResult R;
    {
      ScopedSpan S(Log, "frontend");
      R = frontend::compileProgram(Source);
    }
    FrontendMs += static_cast<double>(nowNs() - Start) / 1e6;
    if (!R.succeeded())
      throw std::runtime_error("frontend: " +
                               frontend::renderDiagnostics(R.Diags));
    for (const auto &[Name, F] : R.Mod->functions())
      IrInsts += F->instructionCount();
    return std::move(R.Mod);
  }

  void resetSetupCounters() {
    FrontendMs = 0;
    IrInsts = 0;
    SetupFailed = 0;
  }

  /// Routes the per-pass metrics of every compile through \p TC into
  /// \p Sink (null: none).
  static void attachSink(TracingCompiler &TC, opt::PassInstrumentation *Sink) {
    opt::PassContext Ctx = TC.passContext();
    Ctx.Instr = Sink;
    TC.setPassContext(Ctx);
  }

  uint64_t Seed;
};

/// All 16 suite programs, each in a fresh runtime run for its own
/// Iterations: the paper's steady-state setup. The seed orders the
/// programs within a repeat.
class SteadySuite : public Workload {
public:
  explicit SteadySuite(uint64_t Seed) : Workload(Seed) {}

  void setup(SpanLog &Log) override {
    resetSetupCounters();
    Programs.clear();
    for (const workloads::Workload &W : workloads::allWorkloads()) {
      Program P;
      P.W = &W;
      P.Mod = parse(W.Source, Log);
      P.Expected = referenceOutput(*P.Mod, "main");
      SetupFailed += P.Expected == ReferenceTrapped;
      Programs.push_back(std::move(P));
    }
  }

  Repeat runOnce(uint64_t Index, SpanLog &Log,
                 opt::PassInstrumentation *Sink) override {
    Repeat Rep;
    std::vector<double> Steady;
    uint64_t Start = nowNs();
    for (size_t I : permutation(Programs.size(), mix(Seed, Index))) {
      Program &P = Programs[I];
      inliner::IncrementalCompiler Real;
      TracingCompiler TC(Real, Log);
      attachSink(TC, Sink);
      jit::JitRuntime Runtime(*P.Mod, TC, productConfig());
      std::vector<double> Cycles;
      ProgramTime &Time = Rep.PerProgram[P.W->Name];
      uint64_t OutputHash = FnvBasis;
      for (int Iter = 0; Iter < P.W->Iterations; ++Iter) {
        Log.setOp(Rep.Ops);
        uint64_t OpStart = nowNs();
        interp::ExecResult R;
        {
          ScopedSpan S(Log, "interp");
          R = Runtime.runMain();
        }
        double Us = static_cast<double>(nowNs() - OpStart) / 1e3;
        Rep.OpUs.push_back(Us);
        Time.HostMs += Us / 1e3;
        ++Rep.Ops;
        if (!R.ok() || R.Output != P.Expected)
          ++Rep.Failed;
        Cycles.push_back(Runtime.effectiveCycles(R));
        Rep.Steps += R.Steps;
        OutputHash = fnv1a(OutputHash, R.Output);
      }
      double SteadyCycles = steadyStateMean(Cycles);
      Steady.push_back(SteadyCycles);
      Rep.CodeIr += static_cast<double>(Runtime.installedCodeSize());
      Rep.DigestParts[P.W->Name] =
          bitsOf(SteadyCycles) + " " +
          std::to_string(Runtime.installedCodeSize()) + " " +
          hex(fnv1a(FnvBasis,
                    jit::streamFingerprint(Runtime.compilations()))) +
          " " + hex(OutputHash);
      Time.CompileMs = static_cast<double>(TC.totals().Nanos) / 1e6;
      Rep.Runtime.add(Runtime);
      Rep.addCompiles(TC);
    }
    Rep.WallNs = static_cast<double>(nowNs() - Start);
    Rep.SimCycles = geomean(Steady);
    return Rep;
  }

  /// One run of \p Name for its Iterations in a fresh runtime, with the
  /// JIT on or off (fast interpreter core either way).
  struct ModeReading {
    double HostMs = 0;
    double CompileMs = 0;
    uint64_t Steps = 0;
  };
  ModeReading runProgram(const std::string &Name, bool Jit) {
    ModeReading Reading;
    for (Program &P : Programs) {
      if (P.W->Name != Name)
        continue;
      inliner::IncrementalCompiler Real;
      SpanLog Off;
      TracingCompiler TC(Real, Off);
      jit::JitConfig Config = productConfig();
      Config.Enabled = Jit;
      jit::JitRuntime Runtime(*P.Mod, TC, Config);
      uint64_t Start = nowNs();
      for (int Iter = 0; Iter < P.W->Iterations; ++Iter)
        Reading.Steps += Runtime.runMain().Steps;
      Reading.HostMs = static_cast<double>(nowNs() - Start) / 1e6;
      Reading.CompileMs = static_cast<double>(TC.totals().Nanos) / 1e6;
    }
    return Reading;
  }

private:
  struct Program {
    const workloads::Workload *W = nullptr;
    std::unique_ptr<ir::Module> Mod;
    std::string Expected;
  };
  std::vector<Program> Programs;
};

/// Compile time in isolation: setup warms every suite program to steady
/// state and freezes its profiles, blacklists and compiled-symbol list;
/// each repeat recompiles every symbol from those frozen inputs.
class CompileReplay : public Workload {
public:
  explicit CompileReplay(uint64_t Seed) : Workload(Seed) {}

  void setup(SpanLog &Log) override {
    resetSetupCounters();
    Programs.clear();
    SteadyCycles.clear();
    for (const workloads::Workload &W : workloads::allWorkloads()) {
      Program P;
      P.Name = W.Name;
      P.Mod = parse(W.Source, Log);
      inliner::IncrementalCompiler Real;
      jit::JitRuntime Runtime(*P.Mod, Real, productConfig());
      std::vector<double> Cycles;
      for (int Iter = 0; Iter < W.Iterations; ++Iter) {
        interp::ExecResult R = Runtime.runMain();
        SetupFailed += !R.ok();
        Cycles.push_back(Runtime.effectiveCycles(R));
      }
      SteadyCycles.push_back(steadyStateMean(Cycles));
      P.Profiles = Runtime.profileTable();
      P.Blacklist = Runtime.speculationBlacklist();
      P.PruneBlacklist = Runtime.pruneBlacklist();
      for (const jit::CompilationRecord &Rec : Runtime.compilations())
        P.Symbols.push_back(Rec.Symbol);
      Programs.push_back(std::move(P));
    }
  }

  Repeat runOnce(uint64_t Index, SpanLog &Log,
                 opt::PassInstrumentation *Sink) override {
    Repeat Rep;
    uint64_t Start = nowNs();
    for (size_t I : permutation(Programs.size(), mix(Seed, Index))) {
      Program &P = Programs[I];
      uint64_t ProgramStart = nowNs();
      inliner::IncrementalCompiler Real;
      TracingCompiler TC(Real, Log);
      attachSink(TC, Sink);
      // The context a Sync-mode runtime hands its compiler.
      opt::PassContext Ctx = TC.passContext();
      Ctx.Blacklist = &P.Blacklist;
      Ctx.PruneBlacklist = &P.PruneBlacklist;
      uint64_t BodyHash = FnvBasis;
      for (const std::string &Symbol : P.Symbols) {
        const ir::Function *Source = P.Mod->function(Symbol);
        jit::CompileStats Stats;
        std::unique_ptr<ir::Function> Code;
        Log.setOp(Rep.Ops);
        uint64_t OpStart = nowNs();
        try {
          Code = TC.compile(*Source, *P.Mod, P.Profiles, Stats, Ctx);
        } catch (const std::exception &E) {
          std::fprintf(stderr, "compile of %s threw: %s\n", Symbol.c_str(),
                       E.what());
        }
        Rep.OpUs.push_back(static_cast<double>(nowNs() - OpStart) / 1e3);
        ++Rep.Ops;
        if (!Code || !ir::verifyFunction(*Code).empty() ||
            !ir::verifyFrameStates(*Code, *P.Mod).empty()) {
          ++Rep.Failed;
          BodyHash = fnv1a(BodyHash, "<failed>");
          continue;
        }
        Rep.CodeIr += static_cast<double>(Code->instructionCount());
        BodyHash = fnv1a(BodyHash, ir::printFunction(*Code));
      }
      Rep.DigestParts[P.Name] = hex(BodyHash);
      ProgramTime &Time = Rep.PerProgram[P.Name];
      Time.HostMs = static_cast<double>(nowNs() - ProgramStart) / 1e6;
      Time.CompileMs = static_cast<double>(TC.totals().Nanos) / 1e6;
      Rep.addCompiles(TC);
    }
    Rep.WallNs = static_cast<double>(nowNs() - Start);
    Rep.SimCycles = geomean(SteadyCycles);
    return Rep;
  }

private:
  struct Program {
    std::string Name;
    std::unique_ptr<ir::Module> Mod;
    profile::ProfileTable Profiles;
    opt::SpeculationBlacklist Blacklist;
    opt::SpeculationBlacklist PruneBlacklist;
    std::vector<std::string> Symbols;
  };
  std::vector<Program> Programs;
  std::vector<double> SteadyCycles;
};

/// A seeded closed-loop single-client request stream over the generated
/// multi-tenant program: hot set, phase shifts and tenant churn under a
/// code-cache budget of half the unbounded peak, with decay and OSR on.
class TrafficChurn : public Workload {
public:
  TrafficChurn(uint64_t Seed, bool Smoke)
      : Workload(Seed), Requests(Smoke ? 3000 : 30000) {}

  void setup(SpanLog &Log) override {
    resetSetupCounters();
    unsigned Handlers = Tenants + Requests / ChurnInterval;
    Mod = parse(workloads::buildTrafficProgram(Handlers), Log);
    Schedule = makeSchedule(Handlers);
    Symbols.clear();
    Expected.clear();
    for (unsigned H = 0; H < Handlers; ++H) {
      Symbols.push_back("handler" + std::to_string(H));
      Expected.push_back(referenceOutput(*Mod, Symbols.back()));
      SetupFailed += Expected.back() == ReferenceTrapped;
    }
    // Budget: half the peak installed |ir| of an unbounded run.
    inliner::IncrementalCompiler Real;
    jit::JitRuntime Unbounded(*Mod, Real, config(0));
    for (unsigned H : Schedule)
      SetupFailed += !Unbounded.run(Symbols[H]).ok();
    Budget = std::max<uint64_t>(1, Unbounded.codeCacheStats().PeakLiveBytes / 2);
  }

  Repeat runOnce(uint64_t, SpanLog &Log,
                 opt::PassInstrumentation *Sink) override {
    Repeat Rep;
    uint64_t Start = nowNs();
    inliner::IncrementalCompiler Real;
    TracingCompiler TC(Real, Log);
    attachSink(TC, Sink);
    jit::JitRuntime Runtime(*Mod, TC, config(Budget));
    double Cycles = 0;
    uint64_t OutputHash = FnvBasis;
    for (unsigned H : Schedule) {
      Log.setOp(Rep.Ops);
      uint64_t OpStart = nowNs();
      interp::ExecResult R;
      {
        ScopedSpan S(Log, "interp");
        R = Runtime.run(Symbols[H]);
      }
      Rep.OpUs.push_back(static_cast<double>(nowNs() - OpStart) / 1e3);
      ++Rep.Ops;
      if (!R.ok() || R.Output != Expected[H])
        ++Rep.Failed;
      Cycles += Runtime.effectiveCycles(R);
      Rep.Steps += R.Steps;
      OutputHash = fnv1a(fnv1a(OutputHash, Symbols[H]), R.Output);
    }
    Rep.WallNs = static_cast<double>(nowNs() - Start);
    Rep.SimCycles = Cycles / static_cast<double>(Schedule.size());
    const jit::CodeCacheStats &Cache = Runtime.codeCacheStats();
    Rep.CodeIr = static_cast<double>(Cache.PeakLiveBytes);
    Rep.DigestParts["stream"] =
        bitsOf(Cycles) + " " + std::to_string(Cache.PeakLiveBytes) + " " +
        std::to_string(Cache.Evictions + Cache.OsrEvictions) + " " +
        hex(fnv1a(FnvBasis, jit::streamFingerprint(Runtime.compilations()))) +
        " " + hex(OutputHash);
    Rep.Runtime.add(Runtime);
    Rep.addCompiles(TC);
    return Rep;
  }

private:
  static constexpr unsigned Tenants = 40;
  static constexpr unsigned HotSetSize = 5;
  static constexpr unsigned HotSharePercent = 90;
  static constexpr unsigned PhaseLength = 1200;
  static constexpr unsigned ChurnInterval = 150;

  jit::JitConfig config(uint64_t CacheBudget) const {
    jit::JitConfig Config = productConfig();
    Config.Osr = true;
    Config.OsrBackedgeThreshold = 400;
    Config.CodeCacheBudget = CacheBudget;
    Config.ProfileDecayHalflife = CacheBudget ? 50000 : 0;
    return Config;
  }

  /// The request stream: handler index per request. A pool of Tenants
  /// slots; every ChurnInterval requests one slot gets a never-seen
  /// handler; HotSharePercent of requests hit a HotSetSize window of slots
  /// that shifts every PhaseLength requests, the rest a uniform slot.
  std::vector<unsigned> makeSchedule(unsigned Handlers) const {
    std::vector<unsigned> Pool(Tenants);
    std::iota(Pool.begin(), Pool.end(), 0u);
    unsigned NextFresh = Tenants;
    uint64_t Draws = 0;
    auto Draw = [&] { return mix(Seed, ++Draws); };
    std::vector<unsigned> Out;
    Out.reserve(Requests);
    for (unsigned I = 0; I < Requests; ++I) {
      if (I != 0 && I % ChurnInterval == 0 && NextFresh < Handlers)
        Pool[Draw() % Pool.size()] = NextFresh++;
      unsigned PhaseBase = (I / PhaseLength) * HotSetSize;
      unsigned Slot = Draw() % 100 < HotSharePercent
                          ? (PhaseBase + Draw() % HotSetSize) % Tenants
                          : Draw() % Tenants;
      Out.push_back(Pool[Slot]);
    }
    return Out;
  }

  unsigned Requests;
  std::unique_ptr<ir::Module> Mod;
  std::vector<unsigned> Schedule;
  std::vector<std::string> Symbols;
  std::vector<std::string> Expected;
  uint64_t Budget = 1;
};

//===----------------------------------------------------------------------===//
// Command line and reporting
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Smoke = false;
  bool DigestOnly = false;
  std::string TraceOut;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: incline_e2e --workload "
               "steady-suite|compile-replay|traffic-churn --seed N "
               "--seconds S --trace 0|1 [--smoke] [--trace-out PATH] "
               "[--digest-only]\n",
               Msg);
  std::exit(2);
}

Options parseOptions(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + Arg).c_str());
      return Argv[++I];
    };
    try {
      if (Arg == "--workload")
        O.Workload = Value();
      else if (Arg == "--seed")
        O.Seed = std::stoull(Value());
      else if (Arg == "--seconds")
        O.Seconds = std::stod(Value());
      else if (Arg == "--trace")
        O.Trace = std::stoi(Value()) != 0;
      else if (Arg == "--trace-out")
        O.TraceOut = Value();
      else if (Arg == "--smoke")
        O.Smoke = true;
      else if (Arg == "--digest-only")
        O.DigestOnly = true;
      else
        usage(("unknown argument " + Arg).c_str());
    } catch (const std::logic_error &) {
      usage(("bad value for " + Arg).c_str());
    }
  }
  if (O.Seconds <= 0)
    usage("--seconds must be positive");
  return O;
}

std::unique_ptr<Workload> makeWorkload(const Options &O) {
  if (O.Workload == "steady-suite")
    return std::make_unique<SteadySuite>(O.Seed);
  if (O.Workload == "compile-replay")
    return std::make_unique<CompileReplay>(O.Seed);
  if (O.Workload == "traffic-churn")
    return std::make_unique<TrafficChurn>(O.Seed, O.Smoke);
  usage(("unknown workload '" + O.Workload + "'").c_str());
}

/// Appends `"name": {"value": v, "unit": "u"}` to \p Out.
void emitMetric(std::string &Out, const std::string &Name, double Value,
                const char *Unit) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  if (Out.back() != '{')
    Out += ", ";
  Out += "\"" + Name + "\": {\"value\": " + Buf + ", \"unit\": \"" + Unit +
         "\"}";
}

const char *unitOf(const std::string &Layer) {
  auto EndsWith = [&](std::string_view Suffix) {
    return Layer.size() >= Suffix.size() &&
           Layer.compare(Layer.size() - Suffix.size(), Suffix.size(),
                         Suffix) == 0;
  };
  if (EndsWith("_ms") || EndsWith(".ms"))
    return "ms";
  if (EndsWith("ns_per_step"))
    return "ns";
  if (EndsWith("_frac") || EndsWith("_rate") || EndsWith("_yield") ||
      Layer.rfind("share.", 0) == 0)
    return "ratio";
  return "count";
}

/// Median over \p Reps of a per-repeat quantity.
template <typename Fn>
double medianOf(const std::vector<const Repeat *> &Reps, Fn &&Get) {
  std::vector<double> Xs;
  for (const Repeat *R : Reps)
    Xs.push_back(Get(*R));
  return median(Xs);
}

void printLayerTable(const std::string &Workload, const Repeat &Rep) {
  std::fprintf(stderr, "\n%s: layer self time (one traced repeat, %.1f ms)\n",
               Workload.c_str(), Rep.WallNs / 1e6);
  for (const char *Layer : {"interp", "jit", "inliner", "opt", "bench"}) {
    double Share = Rep.Layers.at(std::string("share.") + Layer);
    std::fprintf(stderr, "  %-8s %10.2f ms %6.1f%%\n", Layer,
                 Share * Rep.WallNs / 1e6, 100 * Share);
  }
}

void printProgramTable(const std::vector<const Repeat *> &Reps) {
  double TotalCompile = medianOf(Reps, [](const Repeat &R) {
    return static_cast<double>(R.Compiles.Nanos) / 1e6;
  });
  std::fprintf(stderr, "\n%-14s %10s %10s %8s\n", "program", "host ms",
               "compile ms", "compile%");
  for (const auto &[Name, Unused] : Reps.front()->PerProgram) {
    const std::string &Key = Name;
    double Host = medianOf(
        Reps, [&](const Repeat &R) { return R.PerProgram.at(Key).HostMs; });
    double Compile = medianOf(
        Reps, [&](const Repeat &R) { return R.PerProgram.at(Key).CompileMs; });
    std::fprintf(stderr, "%-14s %10.2f %10.2f %7.1f%%\n", Name.c_str(), Host,
                 Compile, TotalCompile > 0 ? 100 * Compile / TotalCompile : 0);
  }
}

int run(const Options &O) {
  std::unique_ptr<Workload> W = makeWorkload(O);
  SpanLog SetupLog;
  SetupLog.setEnabled(O.Trace);
  const int SetupReps = O.DigestOnly ? 1 : 5;
  std::vector<double> SetupS, FrontendMs;
  for (int I = 0; I < SetupReps; ++I) {
    SetupLog.clear();
    uint64_t Start = nowNs();
    W->setup(SetupLog);
    SetupS.push_back(static_cast<double>(nowNs() - Start) / 1e9);
    FrontendMs.push_back(W->FrontendMs);
  }

  SpanLog Log;
  if (O.DigestOnly) {
    Repeat Rep = W->runOnce(0, Log, nullptr);
    std::printf("{\"digest\": \"%s\"}\n", Rep.digest().c_str());
    return 0;
  }

  // Timed repeats until the time is up; with tracing, every other repeat
  // is traced, so both halves see the same drift.
  std::vector<Repeat> Reps;
  opt::PassInstrumentation Sink;
  uint64_t Deadline = nowNs() + static_cast<uint64_t>(O.Seconds * 1e9);
  const size_t MinReps = O.Trace ? 4 : 2;
  double PeakRssMb = 0;
  for (uint64_t I = 0; Reps.size() < MinReps || nowNs() < Deadline; ++I) {
    bool Traced = O.Trace && I % 2 == 1;
    Log.setEnabled(Traced);
    if (Traced) {
      Log.clear();
      Sink.reset();
    }
    Repeat Rep = W->runOnce(I, Log, Traced ? &Sink : nullptr);
    Rep.Traced = Traced;
    // Later repeats rebuild the same state, so the high-water mark after
    // the first one is the footprint; the benchmark's own records keep
    // growing after it.
    if (I == 0)
      PeakRssMb = peakRssMb();
    if (Traced)
      computeLayers(Rep, Log, Sink);
    Reps.push_back(std::move(Rep));
  }

  // Checks: operation failures, and every repeat's digest against the
  // first (traced and untraced alike).
  uint64_t Attempted = 0, Failed = W->SetupFailed;
  const Repeat &First = Reps.front();
  for (const Repeat &Rep : Reps) {
    Attempted += Rep.Ops + 1;
    Failed += Rep.Failed;
    if (Rep.DigestParts == First.DigestParts)
      continue;
    ++Failed;
    for (const auto &[Label, Value] : Rep.DigestParts)
      if (First.DigestParts.count(Label) == 0 ||
          First.DigestParts.at(Label) != Value)
        std::fprintf(stderr, "nondeterministic: %s differs between repeats\n",
                     Label.c_str());
  }

  std::vector<const Repeat *> Untraced, Traced;
  for (const Repeat &Rep : Reps)
    (Rep.Traced ? Traced : Untraced).push_back(&Rep);

  std::string Metrics = "{";
  if (!O.Trace) {
    // Every quantity is taken per repeat and reported as its median over
    // the repeats: a latency percentile within one repeat keeps its rank
    // among a fixed population of operations, and the median removes the
    // host's bursts.
    auto Median = [&](auto &&Get) { return medianOf(Untraced, Get); };
    auto Percentile = [&](std::vector<double> Repeat::*Samples, double P) {
      return Median([&](const Repeat &R) { return percentile(R.*Samples, P); });
    };
    emitMetric(Metrics, "setup_s", median(SetupS), "s");
    emitMetric(Metrics, "wall_s",
               Median([](const Repeat &R) { return R.WallNs / 1e9; }), "s");
    emitMetric(Metrics, "sim_cycles",
               Median([](const Repeat &R) { return R.SimCycles; }), "cycles");
    emitMetric(Metrics, "code_ir",
               Median([](const Repeat &R) { return R.CodeIr; }), "ir");
    emitMetric(Metrics, "compile_ms_p50", Percentile(&Repeat::CompileMs, 50),
               "ms");
    emitMetric(Metrics, "compile_ms_p99", Percentile(&Repeat::CompileMs, 99),
               "ms");
    emitMetric(Metrics, "compiles_per_s", Median([](const Repeat &R) {
                 return static_cast<double>(R.Compiles.Compiles) /
                        (static_cast<double>(R.Compiles.Nanos) / 1e9);
               }),
               "1/s");
    emitMetric(Metrics, "req_per_s", Median([](const Repeat &R) {
                 return static_cast<double>(R.Ops) / (R.WallNs / 1e9);
               }),
               "1/s");
    emitMetric(Metrics, "req_p50_us", Percentile(&Repeat::OpUs, 50), "us");
    emitMetric(Metrics, "req_p99_us", Percentile(&Repeat::OpUs, 99), "us");
    emitMetric(Metrics, "req_p999_us", Percentile(&Repeat::OpUs, 99.9), "us");
    emitMetric(Metrics, "peak_rss_mb", PeakRssMb, "MB");
    std::vector<double> WallMs;
    for (const Repeat *R : Untraced)
      WallMs.push_back(R->WallNs / 1e6);
    std::fprintf(stderr,
                 "%s: %zu repeats of %llu ops and %llu compiles (wall ms min "
                 "%.1f median %.1f max %.1f)\n",
                 O.Workload.c_str(), WallMs.size(),
                 static_cast<unsigned long long>(First.Ops),
                 static_cast<unsigned long long>(First.Compiles.Compiles),
                 minOf(WallMs), median(WallMs), maxOf(WallMs));
  } else {
    emitMetric(Metrics, "frontend.ms", median(FrontendMs), "ms");
    emitMetric(Metrics, "frontend.ir_insts", static_cast<double>(W->IrInsts),
               "count");
    for (const auto &[Name, Unused] : Traced.front()->Layers) {
      const std::string &Key = Name;
      emitMetric(Metrics, Name,
                 medianOf(Traced,
                          [&](const Repeat &R) { return R.Layers.at(Key); }),
                 unitOf(Name));
    }
    double TracedWall =
        medianOf(Traced, [](const Repeat &R) { return R.WallNs; });
    double UntracedWall =
        medianOf(Untraced, [](const Repeat &R) { return R.WallNs; });
    emitMetric(Metrics, "trace_overhead", TracedWall / UntracedWall, "ratio");

    printLayerTable(O.Workload, *Traced.back());
    if (!Untraced.front()->PerProgram.empty())
      printProgramTable(Untraced);
    // ROADMAP question 1: xalan with the JIT against the JIT off, in
    // alternating pairs so both sides see the same host.
    if (auto *Suite = dynamic_cast<SteadySuite *>(W.get())) {
      std::vector<double> JitMs, CompileMs, InterpMs;
      SteadySuite::ModeReading Jit, Interp;
      for (int Pair = 0; Pair < 7; ++Pair) {
        Jit = Suite->runProgram("xalan", true);
        Interp = Suite->runProgram("xalan", false);
        JitMs.push_back(Jit.HostMs);
        CompileMs.push_back(Jit.CompileMs);
        InterpMs.push_back(Interp.HostMs);
      }
      std::fprintf(stderr,
                   "\nxalan, median of 7 pairs: jit %.2f ms (compile %.2f ms, "
                   "%llu steps), interp-fast %.2f ms (%llu steps)\n",
                   median(JitMs), median(CompileMs),
                   static_cast<unsigned long long>(Jit.Steps),
                   median(InterpMs),
                   static_cast<unsigned long long>(Interp.Steps));
    }
    // Spans of the last setup, then of the last traced repeat.
    if (!O.TraceOut.empty()) {
      std::FILE *Out = std::fopen(O.TraceOut.c_str(), "w");
      if (Out) {
        SetupLog.writeJsonLines(Out);
        Log.writeJsonLines(Out,
                           static_cast<int64_t>(SetupLog.spans().size()));
      }
      if (!Out || std::fclose(Out) != 0)
        std::fprintf(stderr, "warning: could not write %s\n",
                     O.TraceOut.c_str());
    }
  }
  Metrics += "}";

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s, \"digest\": \"%s\"}\n",
              Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed), Metrics.c_str(),
              First.digest().c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseOptions(Argc, Argv);
  try {
    return run(O);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }
}
