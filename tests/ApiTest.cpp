//===- tests/ApiTest.cpp - The shared option/response surface -------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
// The api layer's contract: one option table drives the CLI parser, the
// JSON request parser, and the help text (spellings can never drift); the
// response document is schema 5 with a deterministic "result" section.
//
//===----------------------------------------------------------------------===//

#include "api/Json.h"
#include "api/Options.h"
#include "api/Response.h"
#include "kernels/Kernels.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

using namespace omega;
using namespace omega::api;

namespace {

ParsedArgs parsed(std::vector<std::string> Args, unsigned Tool) {
  ParsedArgs Out;
  std::string Err;
  EXPECT_TRUE(parseArgs(Args, Tool, Out, Err)) << Err;
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Option table
//===----------------------------------------------------------------------===//

TEST(ApiOptions, DefaultsMatchStruct) {
  AnalysisOptions O;
  EXPECT_TRUE(O.Refine);
  EXPECT_TRUE(O.Cover);
  EXPECT_TRUE(O.Kill);
  EXPECT_TRUE(O.QuickTests);
  EXPECT_FALSE(O.Terminate);
  EXPECT_TRUE(O.PairQuickTests);
  EXPECT_EQ(O.Jobs, 1u);
  EXPECT_TRUE(O.UseQueryCache);

  engine::AnalysisRequest R = O.toEngineRequest();
  EXPECT_TRUE(R.Refine);
  EXPECT_TRUE(R.PairQuickTests);
  EXPECT_EQ(R.Jobs, 1u);
}

TEST(ApiOptions, TableHasUniqueSpellings) {
  std::set<std::string> Flags, JsonKeys;
  for (const OptionSpec &S : optionSpecs()) {
    EXPECT_TRUE(Flags.insert(S.Flag).second) << "duplicate flag " << S.Flag;
    if (S.JsonKey)
      EXPECT_TRUE(JsonKeys.insert(S.JsonKey).second)
          << "duplicate JSON key " << S.JsonKey;
    EXPECT_NE(S.Tools & (ToolAnalyze | ToolCalc | ToolServe), 0u) << S.Flag;
    EXPECT_NE(S.Help, nullptr) << S.Flag;
  }
}

TEST(ApiOptions, CliFlagsApply) {
  ParsedArgs P = parsed({"--jobs", "8", "--no-quicktests", "--no-cache",
                         "--json", "--terminate", "--cache-file=/tmp/x.qc",
                         "input.tiny"},
                        ToolAnalyze);
  EXPECT_EQ(P.Options.Jobs, 8u);
  EXPECT_FALSE(P.Options.PairQuickTests);
  EXPECT_FALSE(P.Options.UseQueryCache);
  EXPECT_TRUE(P.Options.Json);
  EXPECT_TRUE(P.Options.Terminate);
  EXPECT_EQ(P.Options.CacheFile, "/tmp/x.qc");
  ASSERT_EQ(P.Rest.size(), 1u);
  EXPECT_EQ(P.Rest[0], "input.tiny");
}

TEST(ApiOptions, EqualsAndSpaceValuesAgree) {
  ParsedArgs A = parsed({"--jobs=4"}, ToolAnalyze);
  ParsedArgs B = parsed({"--jobs", "4"}, ToolAnalyze);
  EXPECT_EQ(A.Options.Jobs, B.Options.Jobs);
  EXPECT_EQ(A.Options.Jobs, 4u);
}

TEST(ApiOptions, ProfileSelector) {
  EXPECT_EQ(parsed({"--profile"}, ToolAnalyze).Options.Profile,
            AnalysisOptions::ProfileText);
  EXPECT_EQ(parsed({"--profile=json"}, ToolAnalyze).Options.Profile,
            AnalysisOptions::ProfileJson);
}

TEST(ApiOptions, ToolScopingRoutesUnknownFlagsToRest) {
  // --socket is serve-only: the analyze parser passes it through.
  ParsedArgs P = parsed({"--socket", "/tmp/s"}, ToolAnalyze);
  ASSERT_EQ(P.Rest.size(), 2u);
  EXPECT_EQ(P.Rest[0], "--socket");

  ParsedArgs S = parsed({"--socket", "/tmp/s", "--workers", "9"}, ToolServe);
  EXPECT_EQ(S.Options.SocketPath, "/tmp/s");
  EXPECT_EQ(S.Options.ServeWorkers, 9u);
  EXPECT_TRUE(S.Rest.empty());

  // The calc surface is just the ablations.
  ParsedArgs C = parsed({"--no-quicktests", "script.calc"}, ToolCalc);
  EXPECT_FALSE(C.Options.PairQuickTests);
  ASSERT_EQ(C.Rest.size(), 1u);
}

TEST(ApiOptions, MalformedValuesAreRejected) {
  ParsedArgs Out;
  std::string Err;
  EXPECT_FALSE(parseArgs({"--jobs", "lots"}, ToolAnalyze, Out, Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(parseArgs({"--jobs"}, ToolAnalyze, Out, Err));
  EXPECT_FALSE(parseArgs({"--workers", "0"}, ToolServe, Out, Err));
  EXPECT_FALSE(parseArgs({"--all=yes"}, ToolAnalyze, Out, Err));
}

TEST(ApiOptions, PipelineFlagAndJsonKeyAgree) {
  EXPECT_FALSE(AnalysisOptions().Pipeline);
  EXPECT_TRUE(parsed({"--pipeline"}, ToolAnalyze).Options.Pipeline);

  AnalysisOptions FromJson;
  std::string Err;
  json::Value V;
  ASSERT_TRUE(json::parse("{\"pipeline\": true}", V, Err)) << Err;
  ASSERT_TRUE(optionsFromJson(V, FromJson, Err)) << Err;
  EXPECT_TRUE(FromJson.Pipeline);
}

TEST(ApiOptions, LatencyBucketsParseAndValidate) {
  ParsedArgs P =
      parsed({"--latency-buckets-us", "50,500,5000"}, ToolServe);
  EXPECT_EQ(P.Options.LatencyBucketsUs,
            (std::vector<uint64_t>{50, 500, 5000}));
  EXPECT_TRUE(parsed({}, ToolServe).Options.LatencyBucketsUs.empty());

  ParsedArgs Out;
  std::string Err;
  EXPECT_FALSE(
      parseArgs({"--latency-buckets-us", "100,100"}, ToolServe, Out, Err));
  EXPECT_NE(Err.find("strictly increasing"), std::string::npos);
  EXPECT_FALSE(
      parseArgs({"--latency-buckets-us", "500,100"}, ToolServe, Out, Err));
  EXPECT_FALSE(
      parseArgs({"--latency-buckets-us", "1,,2"}, ToolServe, Out, Err));
  EXPECT_FALSE(
      parseArgs({"--latency-buckets-us", "abc"}, ToolServe, Out, Err));
}

TEST(ApiOptions, HelpTextCoversEveryToolFlag) {
  for (unsigned Tool : {unsigned(ToolAnalyze), unsigned(ToolCalc),
                        unsigned(ToolServe)}) {
    std::string Help = optionsHelp(Tool);
    for (const OptionSpec &S : optionSpecs()) {
      bool Applies = (S.Tools & Tool) != 0;
      // Match the flag at a token boundary (space, or '[' for the
      // --profile[=json] spelling) so --no-quick does not count as present
      // just because --no-quicktests is.
      bool Found = false;
      for (std::size_t At = Help.find(S.Flag); At != std::string::npos;
           At = Help.find(S.Flag, At + 1)) {
        char Next = Help[At + std::string(S.Flag).size()];
        if (Next == ' ' || Next == '[') {
          Found = true;
          break;
        }
      }
      EXPECT_EQ(Found, Applies) << "tool " << Tool << " flag " << S.Flag;
    }
  }
}

TEST(ApiOptions, JsonOptionsShareTheTable) {
  json::Value Obj;
  std::string Err;
  ASSERT_TRUE(json::parse("{\"jobs\": 6, \"refine\": false, "
                          "\"quicktests\": false, \"pipeline\": true}",
                          Obj, Err))
      << Err;
  AnalysisOptions O;
  ASSERT_TRUE(optionsFromJson(Obj, O, Err)) << Err;
  EXPECT_EQ(O.Jobs, 6u);
  EXPECT_FALSE(O.Refine);
  EXPECT_FALSE(O.PairQuickTests);
  EXPECT_TRUE(O.Pipeline);

  // Unknown keys and mistyped values are hard errors, not silent noise.
  ASSERT_TRUE(json::parse("{\"refinement\": false}", Obj, Err));
  EXPECT_FALSE(optionsFromJson(Obj, O, Err));
  ASSERT_TRUE(json::parse("{\"incremental\": false}", Obj, Err));
  EXPECT_FALSE(optionsFromJson(Obj, O, Err));
  ASSERT_TRUE(json::parse("{\"jobs\": \"many\"}", Obj, Err));
  EXPECT_FALSE(optionsFromJson(Obj, O, Err));
  ASSERT_TRUE(json::parse("{\"jobs\": -2}", Obj, Err));
  EXPECT_FALSE(optionsFromJson(Obj, O, Err));
}

//===----------------------------------------------------------------------===//
// JSON reader
//===----------------------------------------------------------------------===//

TEST(ApiJson, ParsesTheProtocolSubset) {
  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse("{\"id\": 3, \"nested\": {\"a\": [1, 2.5, -4]}, "
                          "\"t\": true, \"n\": null, \"s\": \"x\\n\\\"y\"}",
                          V, Err))
      << Err;
  EXPECT_EQ(V.get("id")->asInt(), 3);
  EXPECT_EQ(V.get("nested")->get("a")->asArray().size(), 3u);
  EXPECT_DOUBLE_EQ(V.get("nested")->get("a")->asArray()[1].asNumber(), 2.5);
  EXPECT_TRUE(V.get("t")->asBool());
  EXPECT_TRUE(V.get("n")->isNull());
  EXPECT_EQ(V.get("s")->asString(), "x\n\"y");
  EXPECT_EQ(V.get("missing"), nullptr);
}

TEST(ApiJson, RejectsMalformedDocuments) {
  json::Value V;
  std::string Err;
  for (const char *Bad :
       {"", "{", "{\"a\": }", "{\"a\": 1,}", "[1 2]", "{\"a\": 1} trailing",
        "\"unterminated", "{\"a\": 01}", "nul"}) {
    EXPECT_FALSE(json::parse(Bad, V, Err)) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad;
  }
}

TEST(ApiJson, EscapeRoundTripsThroughParse) {
  std::string Nasty = "quote\" slash\\ newline\n tab\t ctrl\x01 end";
  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse("{\"s\": \"" + json::escape(Nasty) + "\"}", V, Err))
      << Err;
  EXPECT_EQ(V.get("s")->asString(), Nasty);
}

//===----------------------------------------------------------------------===//
// Response documents
//===----------------------------------------------------------------------===//

TEST(ApiResponse, DocumentsAreSchema3AndParse) {
  ir::AnalyzedProgram AP = ir::analyzeSource(kernels::example1());
  ASSERT_TRUE(AP.ok());
  engine::DependenceEngine Engine((engine::AnalysisRequest()));
  engine::AnalysisResult R = Engine.analyze(AP);

  std::string Doc = renderDocument(renderResult(R),
                                   renderMetrics(R, 1, 1.25, "", ""));
  ASSERT_FALSE(Doc.empty());
  EXPECT_EQ(Doc.back(), '\n');

  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse(Doc, V, Err)) << Err;
  EXPECT_EQ(V.get("schema")->asInt(), SchemaVersion);
  EXPECT_EQ(SchemaVersion, 5);
  EXPECT_TRUE(V.get("ok")->asBool());
  ASSERT_NE(V.get("result"), nullptr);
  ASSERT_NE(V.get("metrics"), nullptr);

  // The result section is structural only -- no timing keys anywhere.
  EXPECT_EQ(Doc.find("Secs"), std::string::npos);
  EXPECT_EQ(renderResult(R).find("wallMs"), std::string::npos);

  // Metrics carry the run profile: jobs, wall clock, stats, cache.
  const json::Value *M = V.get("metrics");
  EXPECT_EQ(M->get("jobs")->asInt(), 1);
  EXPECT_DOUBLE_EQ(M->get("wallMs")->asNumber(), 1.25);
  ASSERT_NE(M->get("stats"), nullptr);
  ASSERT_NE(M->get("stats")->get("quicktestDecided"), nullptr);
  ASSERT_NE(M->get("cache"), nullptr);
}

// The renderer and the checked-in schema list the same "stats" counters:
// the schema closes the object (additionalProperties false) and requires
// every key, so a counter added to or dropped from one side only fails
// here rather than in a CI schema run.
TEST(ApiResponse, StatsKeysMatchTheSchema) {
  std::ifstream In(std::string(OMEGA_SCHEMA_DIR) +
                   "/analysis_response.schema.json");
  ASSERT_TRUE(In.is_open());
  std::stringstream Buf;
  Buf << In.rdbuf();
  json::Value Schema;
  std::string Err;
  ASSERT_TRUE(json::parse(Buf.str(), Schema, Err)) << Err;
  const json::Value *Stats = Schema.get("definitions")
                                 ->get("metrics")
                                 ->get("properties")
                                 ->get("stats");
  ASSERT_NE(Stats, nullptr);
  ASSERT_NE(Stats->get("additionalProperties"), nullptr);
  EXPECT_FALSE(Stats->get("additionalProperties")->asBool());
  std::vector<std::string> Required;
  for (const json::Value &K : Stats->get("required")->asArray())
    Required.push_back(K.asString());
  std::set<std::string> Declared;
  for (const auto &[Key, Def] : Stats->get("properties")->asObject())
    Declared.insert(Key);

  engine::AnalysisResult R;
  json::Value Metrics;
  ASSERT_TRUE(json::parse(renderMetrics(R, 1, 0, "", ""), Metrics, Err))
      << Err;
  std::vector<std::string> Rendered;
  for (const auto &[Key, V] : Metrics.get("stats")->asObject())
    Rendered.push_back(Key);

  EXPECT_EQ(Rendered, Required); // same keys, same order
  EXPECT_EQ(std::set<std::string>(Rendered.begin(), Rendered.end()),
            Declared);
}

TEST(ApiResponse, ResultIsDeterministicAcrossJobsAndCache) {
  ir::AnalyzedProgram AP = ir::analyzeSource(kernels::example1());
  ASSERT_TRUE(AP.ok());
  std::string Reference;
  for (unsigned Jobs : {1u, 4u})
    for (bool Cache : {false, true}) {
      engine::AnalysisRequest Req;
      Req.Jobs = Jobs;
      Req.UseQueryCache = Cache;
      engine::DependenceEngine Engine(Req);
      std::string Bytes = renderResult(Engine.analyze(AP));
      if (Reference.empty())
        Reference = Bytes;
      EXPECT_EQ(Bytes, Reference) << "jobs " << Jobs << " cache " << Cache;
    }
}

TEST(ApiResponse, ServerVariantsCarryIdAndTypedErrors) {
  std::string Ok = renderServerOk(7, "{}", "{}");
  EXPECT_NE(Ok.find("\"schema\": 5"), std::string::npos);
  EXPECT_NE(Ok.find("\"id\": 7"), std::string::npos);
  EXPECT_NE(Ok.find("\"ok\": true"), std::string::npos);

  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse(
      renderServerError(false, 0, "overloaded", "queue \"full\""), V, Err))
      << Err;
  EXPECT_TRUE(V.get("id")->isNull());
  EXPECT_FALSE(V.get("ok")->asBool());
  EXPECT_EQ(V.get("error")->get("code")->asString(), "overloaded");
  EXPECT_EQ(V.get("error")->get("message")->asString(), "queue \"full\"");
}
