//===- tests/ServeTest.cpp - The analysis server's contract ---------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
// omega-serve's core promises, exercised in-process: concurrent clients
// over the whole corpus get responses whose "result" section is
// byte-identical to a one-shot engine run (any jobs value, warm or cold
// cache); admission control sheds with typed errors; per-request metrics
// attribute cache traffic to the request that caused it; identical
// concurrent sessionless requests coalesce onto one solve; the global
// result store persists across server restarts (corruption degrades to
// a cold start); metrics reset on request; the access log rotates by
// size without tearing records.
//
//===----------------------------------------------------------------------===//

#include "api/Json.h"
#include "api/Response.h"
#include "api/Serve.h"
#include "kernels/Kernels.h"
#include "omega/QueryCache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

using namespace omega;

namespace {

/// Submits one request and blocks until its response arrives.
std::string ask(api::Server &Server, const std::string &Line) {
  std::mutex Mu;
  std::condition_variable CV;
  std::string Response;
  bool Done = false;
  Server.submit(Line, [&](std::string R) {
    std::lock_guard<std::mutex> Lock(Mu);
    Response = std::move(R);
    Done = true;
    CV.notify_one();
  });
  std::unique_lock<std::mutex> Lock(Mu);
  CV.wait(Lock, [&] { return Done; });
  return Response;
}

std::string requestLine(uint64_t Id, const std::string &Source,
                        const std::string &OptionsJson = std::string()) {
  std::string Line = "{\"id\": " + std::to_string(Id) + ", \"source\": \"" +
                     api::json::escape(Source) + "\"";
  if (!OptionsJson.empty())
    Line += ", \"options\": " + OptionsJson;
  return Line + "}";
}

/// Extracts the raw bytes of the top-level "result" object from a
/// response line -- the section the bit-identity gate diffs.
std::string resultBytes(const std::string &Response) {
  std::size_t At = Response.find("\"result\": ");
  if (At == std::string::npos)
    return std::string();
  At += 10;
  // Balance braces; response strings never embed unescaped '{' or '}'.
  int Depth = 0;
  bool InString = false;
  for (std::size_t I = At; I != Response.size(); ++I) {
    char C = Response[I];
    if (InString) {
      if (C == '\\')
        ++I;
      else if (C == '"')
        InString = false;
      continue;
    }
    if (C == '"')
      InString = true;
    else if (C == '{')
      ++Depth;
    else if (C == '}' && --Depth == 0)
      return Response.substr(At, I + 1 - At);
  }
  return std::string();
}

std::string errorCode(const std::string &Response) {
  api::json::Value Doc;
  std::string Err;
  if (!api::json::parse(Response, Doc, Err))
    return "<unparseable: " + Err + ">";
  if (const api::json::Value *E = Doc.get("error"))
    if (const api::json::Value *C = E->get("code"))
      return C->asString();
  return std::string();
}

/// One-shot reference: a fresh engine run rendered through the same
/// schema-5 result renderer (what `omega-analyze --json` emits).
std::string oneShotResult(const ir::AnalyzedProgram &AP, unsigned Jobs,
                          bool Cache) {
  engine::AnalysisRequest Req;
  Req.Jobs = Jobs;
  Req.UseQueryCache = Cache;
  engine::DependenceEngine Engine(Req);
  return api::renderResult(Engine.analyze(AP));
}

api::Server::Config basicConfig(unsigned Workers = 4) {
  api::Server::Config Cfg;
  Cfg.Workers = Workers;
  Cfg.Defaults.Jobs = 1;
  return Cfg;
}

/// metrics.counters.<Name> of a metrics-op response, or -1 when absent.
int64_t counterOf(const std::string &Response, const std::string &Name) {
  api::json::Value Doc;
  std::string Err;
  if (!api::json::parse(Response, Doc, Err))
    return -1;
  if (const api::json::Value *M = Doc.get("metrics"))
    if (const api::json::Value *C = M->get("counters"))
      if (const api::json::Value *V = C->get(Name))
        return V->asInt();
  return -1;
}

/// metrics.stats.<Field> of an analyze response, or -1 when absent.
int64_t statsOf(const std::string &Response, const std::string &Field) {
  api::json::Value Doc;
  std::string Err;
  if (!api::json::parse(Response, Doc, Err))
    return -1;
  if (const api::json::Value *M = Doc.get("metrics"))
    if (const api::json::Value *S = M->get("stats"))
      if (const api::json::Value *F = S->get(Field))
        return F->asInt();
  return -1;
}

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

} // namespace

// The tentpole gate: concurrent clients hammering the full corpus receive
// responses byte-identical (in "result") to one-shot runs -- cold cache,
// warm cache, and different per-request jobs values all interleaved.
TEST(Serve, ConcurrentClientsMatchOneShotByteForByte) {
  std::vector<std::string> Sources;
  std::vector<std::string> Expected;
  for (const kernels::Kernel &K : kernels::corpus()) {
    ir::AnalyzedProgram AP = ir::analyzeSource(K.Source);
    if (!AP.ok())
      continue;
    Sources.push_back(K.Source);
    Expected.push_back(oneShotResult(AP, /*Jobs=*/1, /*Cache=*/false));
  }
  ASSERT_GE(Sources.size(), 10u);

  api::Server Server(basicConfig(4));
  constexpr unsigned Clients = 4;
  constexpr unsigned Rounds = 2; // round 2 is fully warm
  std::atomic<unsigned> Mismatches{0}, Responses{0};
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != Clients; ++C) {
    Threads.emplace_back([&, C] {
      for (unsigned R = 0; R != Rounds; ++R)
        for (std::size_t I = 0; I != Sources.size(); ++I) {
          std::size_t Pick = (I + C) % Sources.size();
          // Vary jobs across clients; results must not.
          std::string Opts = "{\"jobs\": " + std::to_string(1 + C % 3) + "}";
          std::string Resp = ask(
              Server, requestLine(C * 1000 + I, Sources[Pick], Opts));
          Responses.fetch_add(1);
          if (resultBytes(Resp) != Expected[Pick])
            Mismatches.fetch_add(1);
        }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0u);
  EXPECT_EQ(Responses.load(), Clients * Rounds * Sources.size());

  // The shared cache really was shared: the second round hit it.
  ASSERT_NE(Server.cache(), nullptr);
  EXPECT_GT(Server.cache()->stats().SatHits, 0u);
  Server.stop();
}

// Per-request metrics attribute cache traffic to the requesting client;
// summed over every response they reconstruct the shared cache's global
// counters exactly, even with interleaved concurrent clients.
TEST(Serve, MetricsAttributeCacheTrafficPerRequest) {
  std::vector<std::string> Sources;
  for (const kernels::Kernel &K : kernels::corpus()) {
    if (ir::analyzeSource(K.Source).ok())
      Sources.push_back(K.Source);
    if (Sources.size() == 8)
      break;
  }
  ASSERT_GE(Sources.size(), 4u);

  api::Server Server(basicConfig(4));
  std::atomic<uint64_t> SatHits{0}, SatMisses{0}, GistHits{0}, GistMisses{0};
  std::atomic<unsigned> BadResponses{0};
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != 4; ++C) {
    Threads.emplace_back([&, C] {
      for (unsigned R = 0; R != 3; ++R)
        for (std::size_t I = 0; I != Sources.size(); ++I) {
          std::string Resp = ask(
              Server, requestLine(1, Sources[(I + C) % Sources.size()]));
          api::json::Value Doc;
          std::string Err;
          const api::json::Value *Cache = nullptr;
          if (api::json::parse(Resp, Doc, Err))
            if (const api::json::Value *M = Doc.get("metrics"))
              Cache = M->get("cache");
          if (!Cache) {
            BadResponses.fetch_add(1);
            continue;
          }
          SatHits += Cache->get("satHits")->asInt();
          SatMisses += Cache->get("satMisses")->asInt();
          GistHits += Cache->get("gistHits")->asInt();
          GistMisses += Cache->get("gistMisses")->asInt();
        }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(BadResponses.load(), 0u);

  QueryCacheStats Global = Server.cache()->stats();
  EXPECT_EQ(SatHits.load(), Global.SatHits);
  EXPECT_EQ(SatMisses.load(), Global.SatMisses);
  EXPECT_EQ(GistHits.load(), Global.GistHits);
  EXPECT_EQ(GistMisses.load(), Global.GistMisses);
  EXPECT_GT(SatHits.load(), 0u);
  Server.stop();
}

// Typed protocol errors: malformed JSON, bad fields, analysis failures.
TEST(Serve, TypedErrorsForBadRequests) {
  api::Server Server(basicConfig(1));
  EXPECT_EQ(errorCode(ask(Server, "not json at all")), "parse_error");
  EXPECT_EQ(errorCode(ask(Server, "[1, 2]")), "parse_error");
  EXPECT_EQ(errorCode(ask(Server, "{\"id\": 1}")), "bad_request");
  EXPECT_EQ(errorCode(ask(Server, "{\"id\": 1, \"source\": 7}")),
            "bad_request");
  EXPECT_EQ(errorCode(ask(Server, "{\"id\": 1, \"op\": \"frobnicate\", "
                                  "\"source\": \"x\"}")),
            "bad_request");
  EXPECT_EQ(errorCode(ask(Server,
                          "{\"id\": 1, \"source\": \"a := 1;\", "
                          "\"options\": {\"nonsense\": true}}")),
            "bad_request");
  EXPECT_EQ(errorCode(ask(Server,
                          "{\"id\": 1, \"source\": \"for broken {\"}")),
            "analysis_error");

  // Responses carry the request id back; unparseable ids become null.
  std::string WithId = ask(Server, "{\"id\": 42}");
  EXPECT_NE(WithId.find("\"id\": 42"), std::string::npos);
  std::string NoId = ask(Server, "{\"source\": 3}");
  EXPECT_NE(NoId.find("\"id\": null"), std::string::npos);
  Server.stop();
}

// Admission control: with one worker wedged on real work and the queue
// bounded at 2, a burst beyond capacity is shed with "overloaded" --
// and the admitted requests still complete correctly.
TEST(Serve, OverloadShedsWithTypedError) {
  api::Server::Config Cfg = basicConfig(1);
  Cfg.MaxQueue = 2;
  api::Server Server(Cfg);

  const std::string Source = kernels::corpus().front().Source;
  constexpr unsigned Burst = 16;
  std::mutex Mu;
  std::condition_variable CV;
  unsigned Done = 0, Overloaded = 0, Ok = 0;
  for (unsigned I = 0; I != Burst; ++I) {
    Server.submit(requestLine(I, Source), [&](std::string Resp) {
      std::lock_guard<std::mutex> Lock(Mu);
      ++Done;
      std::string Code = errorCode(Resp);
      if (Code == "overloaded")
        ++Overloaded;
      else if (Code.empty() && !resultBytes(Resp).empty())
        ++Ok;
      CV.notify_one();
    });
  }
  std::unique_lock<std::mutex> Lock(Mu);
  CV.wait(Lock, [&] { return Done == Burst; });
  // The burst was synchronous, so at most 1 (running) + 2 (queued) + a
  // race margin of nothing can succeed; everything else shed.
  EXPECT_GT(Overloaded, 0u);
  EXPECT_GT(Ok, 0u);
  EXPECT_EQ(Ok + Overloaded, Burst);
  Lock.unlock();
  Server.stop();
}

// A request whose deadline expires while queued is answered with
// "deadline_exceeded" instead of being run.
TEST(Serve, ExpiredDeadlinesAreShed) {
  api::Server::Config Cfg = basicConfig(1);
  Cfg.MaxQueue = 64;
  api::Server Server(Cfg);
  const std::string Source = kernels::corpus().front().Source;

  // Wedge the single worker behind a pile of work, then enqueue a request
  // that can only be reached after its 1ms deadline has long passed.
  std::mutex Mu;
  std::condition_variable CV;
  unsigned Done = 0;
  std::string DeadlineCode;
  auto Count = [&](std::string) {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Done;
    CV.notify_one();
  };
  for (unsigned I = 0; I != 8; ++I)
    Server.submit(requestLine(I, Source), Count);
  Server.submit(requestLine(99, Source) , Count); // placeholder keeps order
  std::string Line = requestLine(100, Source);
  Line.insert(Line.size() - 1, ", \"deadlineMs\": 1");
  Server.submit(Line, [&](std::string Resp) {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Done;
    DeadlineCode = errorCode(Resp);
    CV.notify_one();
  });
  std::unique_lock<std::mutex> Lock(Mu);
  CV.wait(Lock, [&] { return Done == 10; });
  // Some earlier requests may themselves be shed only if overloaded -- the
  // queue is large enough that they are not; the deadlined one must be.
  EXPECT_EQ(DeadlineCode, "deadline_exceeded");
  Lock.unlock();
  Server.stop();
}

// After stop(), new submissions are refused with the "shutdown" code.
TEST(Serve, SubmitAfterStopIsRefused) {
  api::Server Server(basicConfig(1));
  Server.stop();
  EXPECT_EQ(errorCode(ask(Server, requestLine(1, "a := 1;"))), "shutdown");
}

// Per-request option ablations are honored and still result-identical.
TEST(Serve, PerRequestOptionsAreHonored) {
  api::Server Server(basicConfig(2));
  const std::string Source = kernels::corpus().front().Source;
  ir::AnalyzedProgram AP = ir::analyzeSource(Source);
  ASSERT_TRUE(AP.ok());
  std::string Expected = oneShotResult(AP, 1, false);

  for (const char *Opts :
       {"{\"quicktests\": false}", "{\"jobs\": 3}",
        "{\"quicktests\": false, \"jobs\": 3}"}) {
    std::string Resp = ask(Server, requestLine(7, Source, Opts));
    EXPECT_EQ(resultBytes(Resp), Expected) << Opts;
  }

  // Ablations do change the reported work profile: with quick tests off
  // the solver answers every pair the hard way.
  api::json::Value Doc;
  std::string Err;
  std::string Ablated =
      ask(Server, requestLine(8, Source, "{\"quicktests\": false}"));
  ASSERT_TRUE(api::json::parse(Ablated, Doc, Err)) << Err;
  EXPECT_EQ(Doc.get("metrics")
                ->get("stats")
                ->get("quicktestDecided")
                ->asInt(),
            0);
  Server.stop();
}

// In-flight coalescing: identical sessionless requests submitted while
// the pool is wedged collapse onto one engine solve. Every client's
// "result" bytes are identical, at least one follower coalesced, and
// the accounting witness holds exactly: engine analyses performed plus
// requests coalesced equals analyze_ok.
TEST(Serve, CoalescingSharesOneSolve) {
  api::Server::Config Cfg = basicConfig(2);
  Cfg.MaxQueue = 64;
  api::Server Server(Cfg);

  // A deliberately expensive burst program (four 3-D nests, quick tests
  // disabled per-request): its solve takes tens of milliseconds,
  // dwarfing the cheap wedge below.
  std::string Heavy = "symbolic n, m, p;\n";
  for (int K = 0; K != 4; ++K) {
    std::string S = std::to_string(K);
    Heavy += "for i := 2 to n do\n"
             "  for j := 2 to m do\n"
             "    for k := 2 to p do\n"
             "      a" + S + "(i,j,k) := a" + S + "(i-1,j,k) + a" + S +
             "(i,j-1,k) + b" + S + "(i-1,j-1,k) + c" + S + "(i,j,k-1);\n"
             "      b" + S + "(i,j,k) := a" + S + "(i,j,k) + b" + S +
             "(i-1,j,k-1) + c" + S + "(i,j-1,k);\n"
             "      c" + S + "(i,j,k) := b" + S + "(i,j-1,k) + c" + S +
             "(i-1,j,k) + a" + S + "(i-1,j,k-1);\n"
             "      d" + S + "(i,j,k) := d" + S + "(i-1,j-1,k-1) + c" + S +
             "(i,j,k) + b" + S + "(i,j,k);\n"
             "    endfor\n"
             "  endfor\n"
             "endfor\n";
  }
  ASSERT_TRUE(ir::analyzeSource(Heavy).ok());

  std::mutex Mu;
  std::condition_variable CV;
  unsigned Done = 0;
  // Wedge exactly one of the two workers with a trivial session request
  // (sessions never coalesce). The other worker picks up the first
  // heavy request and becomes its leader; the wedge clears in well
  // under a millisecond, and its worker then dequeues the rest of the
  // burst while the leader is deep in its tens-of-milliseconds solve,
  // so every remaining request parks on the leader.
  const std::string Wedge =
      "for i := 1 to 8 do\n  t(i) := t(i-1) + 1;\nendfor\n";
  ASSERT_TRUE(ir::analyzeSource(Wedge).ok());
  Server.submit("{\"id\": 100, \"session\": \"w\", \"source\": \"" +
                    api::json::escape(Wedge) + "\"}",
                [&](std::string) {
                  std::lock_guard<std::mutex> Lock(Mu);
                  ++Done;
                  CV.notify_one();
                });

  constexpr unsigned K = 8;
  std::vector<std::string> Resps(K);
  for (unsigned I = 0; I != K; ++I)
    Server.submit(requestLine(I, Heavy, "{\"quicktests\": false}"),
                  [&, I](std::string R) {
                    std::lock_guard<std::mutex> Lock(Mu);
                    Resps[I] = std::move(R);
                    ++Done;
                    CV.notify_one();
                  });
  {
    std::unique_lock<std::mutex> Lock(Mu);
    CV.wait(Lock, [&] { return Done == K + 1; });
  }

  std::string First = resultBytes(Resps[0]);
  ASSERT_FALSE(First.empty());
  for (unsigned I = 1; I != K; ++I)
    EXPECT_EQ(resultBytes(Resps[I]), First) << "response " << I;

  std::string M = ask(Server, "{\"id\": 9, \"op\": \"metrics\"}");
  int64_t Analyses = counterOf(M, "omega_engine_analyses_total");
  int64_t Coalesced = counterOf(M, "omega_serve_requests_coalesced_total");
  int64_t Ok = counterOf(M, "omega_serve_analyze_ok_total");
  EXPECT_GT(Coalesced, 0);
  EXPECT_EQ(Analyses + Coalesced, Ok);
  EXPECT_EQ(Ok, int64_t(K + 1));
  Server.stop();
}

// With coalescing disabled, every request is its own solve: nothing
// coalesces and engine analyses equal analyze_ok.
TEST(Serve, CoalescingDisabledByConfig) {
  api::Server::Config Cfg = basicConfig(2);
  Cfg.MaxQueue = 64;
  Cfg.Coalesce = false;
  api::Server Server(Cfg);
  const std::string Source = kernels::corpus().front().Source;

  std::mutex Mu;
  std::condition_variable CV;
  unsigned Done = 0;
  constexpr unsigned K = 6;
  for (unsigned I = 0; I != K; ++I)
    Server.submit(requestLine(I, Source), [&](std::string) {
      std::lock_guard<std::mutex> Lock(Mu);
      ++Done;
      CV.notify_one();
    });
  {
    std::unique_lock<std::mutex> Lock(Mu);
    CV.wait(Lock, [&] { return Done == K; });
  }
  std::string M = ask(Server, "{\"id\": 9, \"op\": \"metrics\"}");
  EXPECT_EQ(counterOf(M, "omega_serve_requests_coalesced_total"), 0);
  EXPECT_EQ(counterOf(M, "omega_engine_analyses_total"),
            counterOf(M, "omega_serve_analyze_ok_total"));
  Server.stop();
}

// The metrics op with "reset": true answers with the pre-reset snapshot,
// then zeroes counters and histograms; a non-bool "reset" is rejected.
TEST(Serve, MetricsResetOp) {
  api::Server Server(basicConfig(1));
  const std::string Source = kernels::corpus().front().Source;
  ask(Server, requestLine(1, Source));

  std::string Pre =
      ask(Server, "{\"id\": 2, \"op\": \"metrics\", \"reset\": true}");
  EXPECT_EQ(counterOf(Pre, "omega_engine_analyses_total"), 1);
  EXPECT_GE(counterOf(Pre, "omega_serve_requests_total"), 2);

  std::string Post = ask(Server, "{\"id\": 3, \"op\": \"metrics\"}");
  EXPECT_EQ(counterOf(Post, "omega_engine_analyses_total"), 0);
  EXPECT_EQ(counterOf(Post, "omega_serve_analyze_ok_total"), 0);
  // The post-reset metrics request itself is the only one on record.
  EXPECT_EQ(counterOf(Post, "omega_serve_requests_total"), 1);

  EXPECT_EQ(errorCode(ask(
                Server, "{\"id\": 4, \"op\": \"metrics\", \"reset\": 1}")),
            "bad_request");
  Server.stop();
}

// The global result store survives a restart through the versioned
// checksummed --result-cache-file: the second server warm-starts and
// materializes every pair from the store, saving again is bit-identical,
// and a corrupted file degrades to a warned cold start -- never a wrong
// answer.
TEST(Serve, ResultStorePersistsAcrossRestart) {
  std::string Path = ::testing::TempDir() + "serve_test.resultstore";
  std::remove(Path.c_str());
  const std::string Source = kernels::corpus().front().Source;

  std::string First;
  {
    api::Server::Config Cfg = basicConfig(1);
    Cfg.ResultCacheFile = Path;
    api::Server Server(Cfg);
    EXPECT_NE(Server.startupNote().find("result store cold start"),
              std::string::npos)
        << Server.startupNote();
    std::string R1 = ask(Server, requestLine(1, Source));
    First = resultBytes(R1);
    ASSERT_FALSE(First.empty());
    EXPECT_EQ(statsOf(R1, "resultStoreHits"), 0);
    EXPECT_GT(statsOf(R1, "resultStoreMisses"), 0);
    Server.stop(); // persists the store
  }
  std::string Saved = readFileBytes(Path);
  ASSERT_FALSE(Saved.empty());

  {
    api::Server::Config Cfg = basicConfig(1);
    Cfg.ResultCacheFile = Path;
    api::Server Server(Cfg);
    EXPECT_NE(Server.startupNote().find("result store warm start"),
              std::string::npos)
        << Server.startupNote();
    EXPECT_GT(Server.resultStore().size(), 0u);
    std::string R2 = ask(Server, requestLine(2, Source));
    EXPECT_EQ(resultBytes(R2), First);
    EXPECT_GT(statsOf(R2, "resultStoreHits"), 0);
    EXPECT_EQ(statsOf(R2, "resultStoreMisses"), 0);
    Server.stop();
  }
  // Same population, same sorted dump: save -> load -> save is
  // bit-identical.
  EXPECT_EQ(readFileBytes(Path), Saved);

  // Corruption: truncate the file; the next server cold-starts with a
  // warning and still answers correctly from scratch.
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Saved.data(),
              static_cast<std::streamsize>(Saved.size() / 2));
  }
  {
    api::Server::Config Cfg = basicConfig(1);
    Cfg.ResultCacheFile = Path;
    api::Server Server(Cfg);
    EXPECT_NE(Server.startupNote().find("result store cold start"),
              std::string::npos)
        << Server.startupNote();
    EXPECT_EQ(Server.resultStore().size(), 0u);
    EXPECT_EQ(resultBytes(ask(Server, requestLine(3, Source))), First);
    Server.stop();
  }
  std::remove(Path.c_str());
}

// Size-based access-log rotation: once the live file crosses the bound
// it is renamed to ".1" and a fresh file is started. Every record lands
// in exactly one of the two files, and each is a complete JSON line --
// flushed records are never torn.
TEST(Serve, AccessLogRotatesBySize) {
  std::string Path = ::testing::TempDir() + "serve_test.access.log";
  std::string Rolled = Path + ".1";
  std::remove(Path.c_str());
  std::remove(Rolled.c_str());

  api::Server::Config Cfg = basicConfig(1);
  Cfg.AccessLog = Path;
  Cfg.AccessLogMaxMB = 1;
  api::Server Server(Cfg);

  // Inflate each record with a ~120 KB session name: record 9 crosses
  // the 1 MB bound and rotates; records 10..13 land in the fresh file.
  const std::string Source = kernels::corpus().front().Source;
  std::string Session(120 * 1024, 's');
  constexpr unsigned N = 13;
  for (unsigned I = 0; I != N; ++I)
    ask(Server, "{\"id\": " + std::to_string(I) + ", \"session\": \"" +
                    Session + "\", \"source\": \"" +
                    api::json::escape(Source) + "\"}");
  Server.stop();

  std::ifstream Old(Rolled), Live(Path);
  ASSERT_TRUE(Old.is_open()) << "no rotation happened";
  ASSERT_TRUE(Live.is_open());
  unsigned Count = 0;
  for (std::ifstream *F : {&Old, &Live}) {
    std::string Line;
    while (std::getline(*F, Line)) {
      api::json::Value Doc;
      std::string Err;
      ASSERT_TRUE(api::json::parse(Line, Doc, Err)) << Err;
      const api::json::Value *S = Doc.get("session");
      ASSERT_NE(S, nullptr);
      EXPECT_EQ(S->asString(), Session);
      ++Count;
    }
  }
  EXPECT_EQ(Count, N);
  std::remove(Path.c_str());
  std::remove(Rolled.c_str());
}

// A warm server and a cold server produce identical result bytes (the
// determinism guarantee behind response caching across requests).
TEST(Serve, WarmAndColdServersAgree) {
  const std::string Source = kernels::corpus().front().Source;
  std::string First, Warm, Cold;
  {
    api::Server Server(basicConfig(2));
    First = resultBytes(ask(Server, requestLine(1, Source)));
    Warm = resultBytes(ask(Server, requestLine(2, Source)));
    Server.stop();
  }
  {
    api::Server Server(basicConfig(2));
    Cold = resultBytes(ask(Server, requestLine(3, Source)));
    Server.stop();
  }
  ASSERT_FALSE(First.empty());
  EXPECT_EQ(First, Warm);
  EXPECT_EQ(First, Cold);
}
