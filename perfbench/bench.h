//===- perfbench/bench.h - Shared pieces of the repository benchmark -----===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark drives the library only through its public entry points
/// (ir, engine, transform, api, omega, analysis, presburger) and checks
/// every answer against references the oracle library computes untimed
/// during the benchmark's own set-up. Each workload fills a Report; main()
/// prints it, one metric per line, then as the one-line JSON result.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "omega/OmegaStats.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace omega {
namespace obs {
class Tracer;
} // namespace obs
} // namespace omega

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

struct Options {
  std::string Workload;
  unsigned Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Client threads of serve_edits: min(4, nproc), so the load generator
  /// never runs more threads than the machine has.
  unsigned Clients = 4;
};

/// What one workload run measured. Metric names must appear in the
/// metric table of main.cpp, which owns units and the layer mapping.
struct Report {
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<std::string> Failures; ///< first few, for the log
  std::map<std::string, double> Metrics;
  std::vector<std::string> Notes; ///< printed as "# ..." lines

  void fail(const std::string &Why) {
    ++Failed;
    if (Failures.size() < 8)
      Failures.push_back(Why);
  }
  void set(const std::string &Name, double V) { Metrics[Name] = V; }
};

/// Fills the end-to-end metrics every workload reports. Each operation is
/// timed at the fastest of its samples (one per pass): the machine's speed
/// drifts by 10-40% over seconds and can stay low for a whole run, so the
/// fastest sample is the least disturbed one, and it moves the least from
/// run to run (the lower quartile spread about twice as wide). The latency
/// percentiles are taken over those per-operation times; \p OpsPerS is the
/// caller's throughput.
void setEndToEnd(Report &R, double OpsPerS,
                 const std::vector<std::vector<double>> &PerOpMs,
                 std::vector<double> SetupSeconds);

/// The smallest of \p Samples.
double fastest(const std::vector<double> &Samples);

/// Operations per second of one pass over \p PerOpMs.size() sequential
/// operations, each at the fastest of its samples.
double opsPerSecond(const std::vector<std::vector<double>> &PerOpMs);

double median(std::vector<double> V);

/// Runs whole passes, \p Pass(Traced), until the next one would end more
/// than half a pass after --seconds. A traced run alternates an untraced
/// pass with a traced one and has at least one of each. Returns the number
/// of traced passes.
unsigned runPasses(const Options &O,
                   const std::function<void(bool Traced)> &Pass);

/// Peak resident set of this process (VmHWM), in MiB.
double peakRssMb();

/// Allocation counting: the benchmark binary replaces global operator
/// new; it counts only between startCounting() and stopCounting(), which
/// only the traced run calls, from a single thread.
void startCountingAllocations();
std::uint64_t stopCountingAllocations();

/// Consistently renames every identifier of a tiny-language program
/// (arrays, loop variables, symbolic constants; keywords and comments are
/// kept) to fresh names drawn from \p Rng. Renaming changes the source
/// bytes but neither the dependence structure nor the analysis work.
/// \p Map receives old -> new when non-null.
std::string renameProgram(const std::string &Src, std::mt19937 &Rng,
                          std::map<std::string, std::string> *Map = nullptr);

/// Adds one to a numeric literal of \p Src chosen by \p Rng, preferring
/// loop upper bounds (the literal after `to`). Returns false when the
/// program has no numeric literal.
bool bumpConstant(std::string &Src, std::mt19937 &Rng);

/// The programs analyze_cold and serve_edits draw from: the 30-kernel
/// corpus and a fixed population of generated programs. The population
/// seed is fixed so that every --seed sees the same dependence structure,
/// and so the same analysis work; --seed renames.
struct SourceProgram {
  std::string Name;
  std::string Source;
};
std::vector<SourceProgram> corpusPrograms();
std::vector<SourceProgram> generatedPrograms(unsigned Count, unsigned MaxDepth);

/// What one obs::Tracer recorded, in milliseconds.
struct TracerTimes {
  /// Self time per span kind, keyed by per-layer metric name
  /// (omega.sat_ms, analysis.kill_ms, ...).
  std::map<std::string, double> SelfMs;
  double SelfTotalMs = 0; ///< self times of every span kind
  double SpannedMs = 0;   ///< durations of the top-level spans
};
TracerTimes tracerTimes(const omega::obs::Tracer &T);

/// Renders every OmegaStats counter; equal strings mean equal counters.
std::string statsKey(const omega::OmegaStats &S);

/// FNV-1a of \p Bytes, printed so two runs can compare exact counters.
std::uint64_t fnv1a(const std::string &Bytes);

/// The OmegaStats-derived per-layer metrics (exact counts and ratios).
void setStatsMetrics(Report &R, const omega::OmegaStats &S);

Report runAnalyzeCold(const Options &O);
Report runServeEdits(const Options &O);
Report runCoreQueries(const Options &O);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
