//===- api/Options.h - One option surface for every analysis front end ---===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Before this layer existed, each tool grew its own flag soup:
/// omega-analyze parsed --jobs/--json/--trace/... by hand, omega-calc had
/// script directives, and a server would have invented a third spelling.
/// AnalysisOptions is the single request surface shared by omega-analyze,
/// omega-calc, and omega-serve -- one struct, one defaults table, one
/// --help text source, and one JSON spelling (the "options" object of an
/// omega-serve request uses the same descriptor table as the CLI flags,
/// so `--no-refine` and `"refine": false` can never drift apart).
///
/// Parsing is table-driven: optionSpecs() enumerates every option with its
/// CLI spelling, JSON key, the tools it applies to, and its help line.
/// Tool-specific positional arguments (the input file, --sym bindings)
/// stay in the tools; everything request-shaped lives here.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_API_OPTIONS_H
#define OMEGA_API_OPTIONS_H

#include "engine/DependenceEngine.h"

#include <cstdint>
#include <string>
#include <vector>

namespace omega {
namespace api {

namespace json {
class Value;
} // namespace json

/// Which front ends an option applies to.
enum ToolMask : unsigned {
  ToolAnalyze = 1u << 0,
  ToolCalc = 1u << 1,
  ToolServe = 1u << 2,
};

/// The unified request options: everything a front end may ask of one
/// analysis. Defaults here ARE the defaults table -- the CLI parser, the
/// JSON request parser, and the help text all derive from this struct plus
/// optionSpecs().
struct AnalysisOptions {
  // -- Section 4 pipeline toggles (engine::AnalysisRequest) --------------
  bool Refine = true;     ///< --no-refine        / "refine": false
  bool Cover = true;      ///< --no-cover         / "cover": false
  bool Kill = true;       ///< --no-kill          / "kill": false
  bool QuickTests = true; ///< --no-quick         / "quick": false
  bool Terminate = false; ///< --terminate        / "terminate": true

  // -- solver tiers ------------------------------------------------------
  bool PairQuickTests = true; ///< --no-quicktests / "quicktests": false

  // -- execution ---------------------------------------------------------
  unsigned Jobs = 1;         ///< --jobs N (0 = hardware)
  bool UseQueryCache = true; ///< --no-cache
  std::string CacheFile;     ///< --cache-file=PATH persistence
  uint64_t SnapshotCacheCap = 0; ///< unread; kept until next bench change

  // -- global result store ----------------------------------------------
  /// Persist the cross-request pair-result store: load from PATH at
  /// startup (corruption -> warned cold start), save back on exit.
  std::string ResultCacheFile; ///< --result-cache-file=PATH
  /// Result-store bound: at most N solved pair/kill-group outcomes stay
  /// resident, LRU-evicted beyond that (0 = unbounded).
  uint64_t ResultStoreCap = 1 << 16; ///< --result-store-cap N

  // -- output selection --------------------------------------------------
  bool All = false;      ///< --all: also anti/output tables
  bool Compress = false; ///< --compress split rows
  bool Stats = false;    ///< --stats: per-pair cost classes
  bool Json = false;     ///< --json: schema-5 machine output
  enum ProfileMode : uint8_t { ProfileOff, ProfileText, ProfileJson };
  ProfileMode Profile = ProfileOff; ///< --profile[=json] / "profile": true
  bool Explain = false;             ///< --explain
  std::string TraceFile;            ///< --trace=FILE (Chrome trace JSON)

  // -- analyze-only extras ----------------------------------------------
  bool Transforms = false; ///< --transforms
  bool Restraints = false; ///< --restraints
  bool Schedule = false;   ///< --schedule
  bool Run = false;        ///< --run (interpret)

  // -- pipeline partitioning --------------------------------------------
  /// Plan a PS-DSWP pipeline partition for every loop (stages over the
  /// SCC-DAG of the live dependence PDG) and report it: staged schedule
  /// text for omega-analyze, the schema-5 "pipeline" result block for
  /// JSON and serve responses.
  bool Pipeline = false; ///< --pipeline / "pipeline": true

  // -- serve-only --------------------------------------------------------
  std::string SocketPath;        ///< --socket=PATH (default: stdin JSONL)
  unsigned ServeWorkers = 4;     ///< --workers N concurrent requests
  unsigned MaxQueue = 64;        ///< --max-queue N admission bound
  uint64_t DeadlineMs = 0;       ///< --deadline-ms N (0 = none)
  /// Incremental sessions whose fingerprints stay retained (LRU beyond N).
  unsigned MaxSessions = 64;     ///< --max-sessions N
  /// Singleflight: concurrent sessionless requests with identical source
  /// and options share one solve and response document.
  bool Coalesce = true;          ///< --no-coalesce

  // -- serve-only telemetry ---------------------------------------------
  std::string MetricsFile;   ///< --metrics-file=PATH Prometheus exposition
  std::string AccessLogFile; ///< --access-log=PATH JSONL request records
  /// Requests at or above this wall time are flagged slow (and traced
  /// when SlowTraceDir is set). 0 disables slow-request capture.
  uint64_t SlowMs = 0;          ///< --slow-ms MS
  std::string SlowTraceDir;     ///< --slow-trace-dir=DIR Chrome traces
  /// Rotate the access log (rename to PATH.1) when it exceeds this many
  /// megabytes; 0 disables rotation.
  uint64_t AccessLogMaxMB = 0;  ///< --access-log-max-mb MB
  /// Request-latency histogram bucket upper bounds in microseconds,
  /// strictly increasing; empty uses the server's built-in boundaries.
  std::vector<uint64_t> LatencyBucketsUs; ///< --latency-buckets-us US,...

  /// Lowers the option set into the engine's request struct.
  engine::AnalysisRequest toEngineRequest() const;
};

/// One entry of the shared option table.
struct OptionSpec {
  const char *Flag;    ///< CLI spelling without value ("--jobs")
  const char *JsonKey; ///< request-object key, null if CLI-only
  unsigned Tools;      ///< ToolMask union
  bool TakesValue;     ///< --flag N / --flag=V
  const char *Meta;    ///< value placeholder for help ("N"), null if none
  const char *Help;    ///< one-line help (shared by every tool)
};

/// The full option table (the single source of flag spellings, JSON keys
/// and help lines).
const std::vector<OptionSpec> &optionSpecs();

/// Result of parsing a CLI argument vector.
struct ParsedArgs {
  AnalysisOptions Options;
  /// Arguments the shared table did not consume, in order (tool-specific
  /// flags and positionals like the input file).
  std::vector<std::string> Rest;
  bool Help = false; ///< --help / -h was seen
};

/// Parses \p Args (argv[1..]) against the shared table for \p Tool.
/// Unrecognized "--flag" arguments and positionals are passed through in
/// Rest for the tool to interpret. Returns false and sets \p Err on a
/// malformed shared option (bad number, missing value).
bool parseArgs(const std::vector<std::string> &Args, unsigned Tool,
               ParsedArgs &Out, std::string &Err);

/// Applies a JSON "options" object to \p Opts using the same table
/// (ToolServe scope). Unknown keys or mistyped values fail with \p Err.
bool optionsFromJson(const json::Value &Obj, AnalysisOptions &Opts,
                     std::string &Err);

/// The shared flag help text for \p Tool, one option per line, derived
/// from the table (so every tool's --help agrees with the parser).
std::string optionsHelp(unsigned Tool);

} // namespace api
} // namespace omega

#endif // OMEGA_API_OPTIONS_H
