//===- perfbench/main.cpp - Repository benchmark entry point -------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//   perfbench --workload analyze_cold|serve_edits|core_queries
//             [--seed N] [--seconds S] [--trace 0|1]
//   perfbench --list-metrics
//
// Prints the run context, one line per metric ("metric NAME VALUE UNIT"),
// and as its last line one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics with no
// tracer attached and no allocation counted; --trace 1 reports the
// per-layer metrics of a separate traced run.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

/// Every metric the benchmark reports. For a per-layer metric, Moves names
/// the end-to-end metric and workload it should move; a traced run of
/// another workload reports it as 0 when that workload never runs the
/// layer.
struct MetricSpec {
  const char *Name;
  const char *Unit;
  bool EndToEnd;
  const char *Moves;
};

#define COLD_OPS "analyze_cold ops_per_s"
#define COLD_FLAT COLD_OPS " (stays flat: the engine holds ~98%)"
#define COLD_TAIL                                                            \
  COLD_OPS ", latency_p99_ms; serve_edits latency_p50_ms stays flat"
#define SERVE                                                                \
  "serve_edits ops_per_s, latency_p50_ms; analyze_cold, core_queries "    \
  "stay flat"
#define CORE_OPS "core_queries ops_per_s"

const MetricSpec Metrics[] = {
    {"ops_per_s", "1/s", true, ""},
    {"latency_p50_ms", "ms", true, ""},
    {"latency_p99_ms", "ms", true, ""},
    {"setup_s", "s", true, ""},
    {"peak_rss_mb", "MiB", true, ""},

    // Timers around the public calls of the omega-analyze path (per pass).
    {"ir.analyze_source_ms", "ms", false, COLD_FLAT},
    {"engine.analyze_ms", "ms", false, COLD_OPS},
    {"transform.pipelines_ms", "ms", false, COLD_FLAT},
    {"api.render_ms", "ms", false, COLD_FLAT},
    // obs::Tracer self times (per pass).
    {"omega.sat_ms", "ms", false, COLD_TAIL},
    {"omega.projection_ms", "ms", false, COLD_TAIL},
    {"omega.fm_ms", "ms", false, COLD_TAIL},
    {"omega.eq_solve_ms", "ms", false, COLD_TAIL},
    {"omega.splinter_ms", "ms", false, COLD_TAIL},
    {"omega.gist_self_ms", "ms", false, CORE_OPS},
    {"analysis.kill_ms", "ms", false, COLD_TAIL},
    {"analysis.cover_ms", "ms", false, COLD_TAIL},
    {"analysis.refine_ms", "ms", false, COLD_TAIL},
    {"deps.snapshot_build_ms", "ms", false, COLD_TAIL},
    {"deps.quicktest_ms", "ms", false, COLD_TAIL},
    {"engine.task_self_ms", "ms", false, COLD_OPS},
    {"engine.unattributed_ms", "ms", false, COLD_OPS},
    // Exact counts from AnalysisResult::Stats / OmegaContext::Stats (per
    // pass); removing a reuse tier must not worsen them.
    {"omega.sat_calls", "count", false, COLD_OPS},
    {"omega.projection_calls", "count", false, COLD_OPS},
    {"omega.exact_eliminations", "count", false, COLD_OPS},
    {"omega.inexact_eliminations", "count", false, COLD_OPS},
    {"omega.splinters", "count", false, COLD_OPS},
    {"omega.mod_hat_substitutions", "count", false, COLD_OPS},
    {"deps.snapshot_reuse_ratio", "ratio", false, COLD_OPS},
    {"deps.quicktest_decided", "count", false, COLD_OPS},
    {"omega.query_cache.sat_hit_ratio", "ratio", false, COLD_OPS},
    // The counting operator new.
    {"engine.allocs_per_program", "count", false,
     COLD_OPS ", peak_rss_mb"},
    {"omega.allocs_per_query", "count", false, CORE_OPS ", peak_rss_mb"},
    // Server::metricsSnapshot() once the server is quiescent.
    {"api.queue_wait_ms", "ms", false, "serve_edits latency_p99_ms"},
    {"api.parse_ms", "ms", false, SERVE},
    {"engine.solve_ms", "ms", false, SERVE},
    {"api.serialize_ms", "ms", false, SERVE},
    {"engine.result_store.hit_ratio", "ratio", false, SERVE},
    {"engine.result_store.evictions", "count", false, SERVE},
    {"engine.delta.reused_ratio", "ratio", false, SERVE},
    {"api.coalesced", "count", false, SERVE},
    {"engine.analyses", "count", false, SERVE},
    // Call-kind timers (per pass) and OmegaContext::Stats of core_queries.
    {"omega.gist_ms", "ms", false, CORE_OPS},
    {"omega.implies_ms", "ms", false, CORE_OPS},
    {"presburger.validity_ms", "ms", false, CORE_OPS},
    {"omega.gist_fast_drops", "count", false, CORE_OPS},
    {"omega.gist_sat_tests", "count", false, CORE_OPS},
    {"omega.dark_shadow_decided", "count", false, CORE_OPS},
    // The tracing itself.
    {"obs.trace_overhead_pct", "%", false, "none (cost of the traced run)"},
    {"obs.layer_gap_max_pct", "%", false, "none (layer accounting check)"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload analyze_cold|serve_edits|"
               "core_queries [--seed N] [--seconds S] [--trace 0|1]\n"
               "       perfbench --list-metrics\n");
  return 2;
}

bool parseUnsigned(const char *S, unsigned long &Out) {
  char *End = nullptr;
  Out = std::strtoul(S, &End, 10);
  return *S && *End == '\0';
}

void printContext(const Options &O) {
  unsigned Nproc = std::thread::hardware_concurrency();
#ifdef NDEBUG
  const char *Asserts = "off";
#else
  const char *Asserts = "on";
#endif
  std::printf("# context: nproc=%u compiler=\"%s\" build_type=%s "
              "assertions=%s\n",
              Nproc, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, Asserts);
  std::printf("# context: flags=\"%s\"\n", PERFBENCH_CXX_FLAGS);
  std::printf("# context: workload=%s seed=%u seconds=%g trace=%d "
              "load_threads=%u (never more than nproc)\n",
              O.Workload.c_str(), O.Seed, O.Seconds, O.Trace ? 1 : 0,
              O.Workload == "serve_edits" ? O.Clients : 1);
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--list-metrics") {
      for (const MetricSpec &M : Metrics)
        std::printf("%s\t%s\t%s\t%s\n", M.EndToEnd ? "end_to_end" : "per_layer",
                    M.Name, M.Unit, M.Moves);
      return 0;
    }
    if (I + 1 == Argc)
      return usage();
    const char *Val = Argv[++I];
    unsigned long N = 0;
    if (Arg == "--workload") {
      O.Workload = Val;
    } else if (Arg == "--seed" && parseUnsigned(Val, N)) {
      O.Seed = static_cast<unsigned>(N);
    } else if (Arg == "--seconds" && parseUnsigned(Val, N) && N > 0) {
      O.Seconds = static_cast<double>(N);
    } else if (Arg == "--trace" && parseUnsigned(Val, N) && N <= 1) {
      O.Trace = N == 1;
    } else {
      return usage();
    }
  }
  unsigned Nproc = std::max(1u, std::thread::hardware_concurrency());
  O.Clients = std::min(4u, Nproc);

  Report R;
  if (O.Workload == "analyze_cold")
    R = runAnalyzeCold(O);
  else if (O.Workload == "serve_edits")
    R = runServeEdits(O);
  else if (O.Workload == "core_queries")
    R = runCoreQueries(O);
  else
    return usage();

  printContext(O);
  for (const std::string &N : R.Notes)
    std::printf("# %s\n", N.c_str());
  for (const std::string &F : R.Failures)
    std::printf("# FAILED: %s\n", F.c_str());
  for (const auto &[Name, Value] : R.Metrics) {
    bool Known = false;
    for (const MetricSpec &M : Metrics)
      Known |= Name == M.Name;
    if (!Known) {
      std::fprintf(stderr, "internal error: metric %s is not in the table\n",
                   Name.c_str());
      return 1;
    }
  }

  std::string Json;
  for (const MetricSpec &M : Metrics) {
    if (M.EndToEnd == O.Trace)
      continue;
    auto It = R.Metrics.find(M.Name);
    double V = It == R.Metrics.end() ? 0 : It->second;
    std::printf("metric %-34s %.6f %s%s%s\n", M.Name, V, M.Unit,
                *M.Moves ? "  moves: " : "", M.Moves);
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  Json.empty() ? "" : ", ", M.Name, V, M.Unit);
    Json += Buf;
  }
  double FailedFrac =
      R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 1;
  std::printf("metric %-34s %.6f fraction\n", "failed_frac", FailedFrac);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              R.Failed == 0 && R.Attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), Json.c_str());
  return 0;
}
