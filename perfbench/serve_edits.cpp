//===- perfbench/serve_edits.cpp - Edit sessions against api::Server -----===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
// Workload serve_edits: an in-process api::Server (4 workers, engine
// jobs=1) and closed-loop client threads, each owning its sessions. A
// session is a base program followed by three seeded edits:
//
//   1. the base, with the session          (a write: misses, fills the
//                                            result store and query cache)
//   2. a consistent rename, no session     (reuse through the result store)
//   3. one bound or constant bumped, with the session
//                                          (reuse through the session's
//                                            DeltaPlanner baseline)
//   4. the edited program renamed, with the session
//
// Reuse tiers, JSON parsing, rendering and queueing dominate; the solver
// does little. One pass runs every session once on a freshly constructed
// server, so each pass starts from the same cold state.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "api/Json.h"
#include "api/Response.h"
#include "api/Serve.h"
#include "engine/DependenceEngine.h"
#include "ir/Sema.h"
#include "obs/Metrics.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

using namespace omega;

namespace perfbench {
namespace {

/// Generated bases are at most two loops deep: edit sessions on small
/// programs, so that reuse and serving costs, not the solver, dominate.
/// For the same reason cholsky (a 4-deep nest whose cold solve alone is
/// about half of a pass's solve time) is not a session base.
constexpr unsigned GeneratedSessions = 35;
constexpr unsigned WarmupRequests = 16;

struct Request {
  std::string Session; ///< empty: sent without a session
  std::string Source;
  std::string Expected; ///< one-shot api::renderResult of Source
};

/// A client's sessions, in the order it sends them.
using Script = std::vector<Request>;

std::string requestLine(std::uint64_t Id, const Request &R) {
  std::string Line = "{\"id\": " + std::to_string(Id);
  if (!R.Session.empty())
    Line += ", \"session\": \"" + R.Session + "\"";
  return Line + ", \"source\": \"" + api::json::escape(R.Source) + "\"}";
}

/// The one-shot reference: a fresh engine with the server's defaults.
std::string oneShot(const std::string &Source) {
  ir::AnalyzedProgram AP = ir::analyzeSource(Source);
  if (!AP.ok())
    return "";
  engine::DependenceEngine Engine(api::AnalysisOptions().toEngineRequest());
  return api::renderResult(Engine.analyze(AP));
}

std::vector<Script> makeScripts(unsigned Seed, unsigned Clients) {
  std::mt19937 Rng(Seed);
  std::vector<SourceProgram> Bases;
  for (SourceProgram &P : corpusPrograms())
    if (P.Name != "cholsky")
      Bases.push_back(std::move(P));
  for (SourceProgram &P : generatedPrograms(GeneratedSessions, 2))
    Bases.push_back(std::move(P));

  // Which client owns a base, and which constant its edit bumps, do not
  // depend on the seed, so every seed gives each client the same work;
  // the seed orders a client's sessions and draws the renamings.
  std::vector<std::vector<std::size_t>> Owned(Clients);
  for (std::size_t S = 0; S != Bases.size(); ++S)
    Owned[S % Clients].push_back(S);
  std::vector<Script> Scripts(Clients);
  for (unsigned C = 0; C != Clients; ++C) {
    std::shuffle(Owned[C].begin(), Owned[C].end(), Rng);
    for (std::size_t S : Owned[C]) {
      std::string Session = "c" + std::to_string(C) + "-s" + std::to_string(S);
      std::string Base = renameProgram(Bases[S].Source, Rng);
      std::string Renamed = renameProgram(Base, Rng);
      std::string Edited = Base;
      std::mt19937 EditRng(static_cast<unsigned>(S));
      bumpConstant(Edited, EditRng);
      std::string Resubmit = renameProgram(Edited, Rng);
      Scripts[C].push_back({Session, Base, ""});
      Scripts[C].push_back({"", Renamed, ""});
      Scripts[C].push_back({Session, Edited, ""});
      Scripts[C].push_back({Session, Resubmit, ""});
    }
  }
  std::map<std::string, std::string> Memo;
  for (Script &Sc : Scripts)
    for (Request &R : Sc) {
      auto [It, Fresh] = Memo.try_emplace(R.Source);
      if (Fresh)
        It->second = oneShot(R.Source);
      R.Expected = It->second;
    }
  return Scripts;
}

/// Sends one line and blocks until its response arrives.
std::string roundTrip(api::Server &S, std::string Line) {
  std::mutex M;
  std::condition_variable CV;
  bool Done = false;
  std::string Response;
  S.submit(std::move(Line), [&](std::string R) {
    std::lock_guard<std::mutex> Lock(M);
    Response = std::move(R);
    Done = true;
    CV.notify_one();
  });
  std::unique_lock<std::mutex> Lock(M);
  CV.wait(Lock, [&] { return Done; });
  return Response;
}

struct ClientResult {
  std::vector<double> LatencyMs;
  std::vector<std::string> Failures;
};

void runClient(api::Server &S, const Script &Sc, std::uint64_t FirstId,
               ClientResult &Out) {
  std::uint64_t Id = FirstId;
  for (const Request &R : Sc) {
    Clock::time_point A = Clock::now();
    std::string Response = roundTrip(S, requestLine(Id, R));
    Out.LatencyMs.push_back(msBetween(A, Clock::now()));
    // Byte-for-byte: everything up to "metrics" equals the server
    // rendering of the one-shot result.
    std::string Want = api::renderServerOk(Id, R.Expected, "");
    Want.pop_back(); // the closing brace after the empty metrics
    if (R.Expected.empty() || Response.compare(0, Want.size(), Want) != 0)
      Out.Failures.push_back("request " + std::to_string(Id) +
                             ": response differs from the one-shot result: " +
                             Response.substr(0, 160));
    ++Id;
  }
}

double histogramMeanMs(const obs::MetricsSnapshot &S, const char *Name) {
  const obs::MetricsSnapshot::HistogramView *H = S.histogram(Name);
  return H && H->Count ? H->Sum / 1000.0 / H->Count : 0;
}

double counter(const obs::MetricsSnapshot &S, const char *Name) {
  const obs::MetricsSnapshot::CounterView *C = S.counter(Name);
  return C ? static_cast<double>(C->Value) : 0;
}

} // namespace

Report runServeEdits(const Options &O) {
  Report Rep;
  std::vector<Script> Scripts = makeScripts(O.Seed, O.Clients);
  // Warm-up programs come from the same population, after the bases.
  std::vector<std::string> Warmup;
  std::vector<SourceProgram> More =
      generatedPrograms(GeneratedSessions + WarmupRequests, 2);
  for (std::size_t I = GeneratedSessions; I != More.size(); ++I)
    Warmup.push_back(requestLine(0, {"", More[I].Source, ""}));

  api::Server::Config Cfg;
  Cfg.Workers = 4;

  std::size_t NumRequests = 0;
  for (const Script &Sc : Scripts)
    NumRequests += Sc.size();
  std::vector<std::vector<double>> PerRequest(NumRequests);
  std::vector<double> Setup, PassMs;
  obs::MetricsSnapshot Totals;
  // The server records its layers in every pass and the traced run
  // attaches nothing, so traced and untraced passes are the same.
  runPasses(O, [&](bool) {
    // Set-up: construct the server and push the warm-up requests through
    // every worker.
    Clock::time_point SetupStart = Clock::now();
    api::Server Server(Cfg);
    {
      std::vector<std::thread> Warm;
      for (unsigned C = 0; C != O.Clients; ++C)
        Warm.emplace_back([&, C] {
          for (std::size_t I = C; I < Warmup.size(); I += O.Clients)
            roundTrip(Server, Warmup[I]);
        });
      for (std::thread &T : Warm)
        T.join();
    }
    Setup.push_back(msBetween(SetupStart, Clock::now()) / 1000);
    // Zero the server's instruments so its snapshot covers the pass alone.
    roundTrip(Server, "{\"op\": \"metrics\", \"reset\": true}");

    std::vector<ClientResult> Results(Scripts.size());
    Clock::time_point PassStart = Clock::now();
    {
      std::vector<std::thread> Clients;
      std::uint64_t NextId = 1;
      for (std::size_t C = 0; C != Scripts.size(); ++C) {
        Clients.emplace_back(runClient, std::ref(Server),
                             std::cref(Scripts[C]), NextId,
                             std::ref(Results[C]));
        NextId += Scripts[C].size();
      }
      for (std::thread &T : Clients)
        T.join();
    }
    PassMs.push_back(msBetween(PassStart, Clock::now()));
    Server.stop();
    obs::MetricsSnapshot Snap = Server.metricsSnapshot();
    if (PassMs.size() == 1)
      Totals = Snap;
    else
      Totals.merge(Snap);
    std::size_t Sent = 0;
    for (ClientResult &R : Results) {
      for (double Ms : R.LatencyMs)
        PerRequest[Sent++].push_back(Ms);
      Rep.Attempted += R.LatencyMs.size();
      for (const std::string &F : R.Failures)
        Rep.fail(F);
    }
  });
  unsigned Passes = PassMs.size();
  double Requests = counter(Totals, "omega_serve_requests_analyze_total");
  double Errors = counter(Totals, "omega_serve_requests_total") -
                  counter(Totals, "omega_serve_responses_ok_total");
  if (Errors != 0)
    Rep.fail("server reported " + std::to_string(Errors) + " error responses");
  Rep.Notes.push_back(
      "serve_edits: " + std::to_string(Passes) + " passes of " +
      std::to_string(static_cast<long long>(Requests / Passes)) +
      " requests, " + std::to_string(O.Clients) + " clients, 4 workers");

  if (!O.Trace) {
    // Every pass is the same request mix on a fresh server: throughput at
    // the fastest pass.
    setEndToEnd(Rep, 1000 * NumRequests / fastest(PassMs), PerRequest,
                std::move(Setup));
    return Rep;
  }
  // Per-layer numbers: mean milliseconds per request, counts per pass.
  // The server records them always; nothing is attached for the traced
  // run, so it has no tracing overhead to report.
  Rep.set("api.queue_wait_ms",
          histogramMeanMs(Totals, "omega_serve_queue_wait_us"));
  Rep.set("api.parse_ms", histogramMeanMs(Totals, "omega_serve_parse_us"));
  Rep.set("engine.solve_ms", histogramMeanMs(Totals, "omega_serve_solve_us"));
  Rep.set("api.serialize_ms",
          histogramMeanMs(Totals, "omega_serve_serialize_us"));
  double Hits = counter(Totals, "omega_result_store_hits_total");
  double Misses = counter(Totals, "omega_result_store_misses_total");
  Rep.set("engine.result_store.hit_ratio",
          Hits + Misses ? Hits / (Hits + Misses) : 0);
  Rep.set("engine.result_store.evictions",
          counter(Totals, "omega_result_store_evictions_total") / Passes);
  double Reused = counter(Totals, "omega_engine_delta_pairs_reused_total");
  double Classified =
      Reused + counter(Totals, "omega_engine_delta_pairs_resolved_total") +
      counter(Totals, "omega_engine_delta_pairs_new_total");
  Rep.set("engine.delta.reused_ratio", Classified ? Reused / Classified : 0);
  Rep.set("api.coalesced",
          counter(Totals, "omega_serve_requests_coalesced_total") / Passes);
  Rep.set("engine.analyses",
          counter(Totals, "omega_engine_analyses_total") / Passes);
  Rep.set("obs.trace_overhead_pct", 0);
  // Layer accounting over all requests: queue wait, parse, solve and
  // serialize against the server's admission-to-response total.
  double Parts = 0;
  for (const char *H : {"omega_serve_queue_wait_us", "omega_serve_parse_us",
                        "omega_serve_solve_us", "omega_serve_serialize_us"})
    if (const auto *V = Totals.histogram(H))
      Parts += V->Sum;
  const auto *Total = Totals.histogram("omega_serve_request_us");
  if (Total && Total->Sum)
    Rep.set("obs.layer_gap_max_pct",
            100.0 * std::abs(double(Total->Sum) - Parts) / Total->Sum);
  return Rep;
}

} // namespace perfbench
