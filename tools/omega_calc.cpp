//===- tools/omega_calc.cpp - Interactive Omega calculator ---------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
// An interactive (or scripted) calculator over integer constraint sets,
// in the spirit of the Omega Calculator:
//
//   $ omega-calc
//   > P := {[i,j] : 1 <= i <= n && i < j && j <= 10};
//   > sat P;
//   P is satisfiable
//   > project P onto [i];
//   projection: { i >= 1; -i >= -9; ... }
//
// With a file argument (or piped stdin) the whole script runs at once.
// The ablation toggle is the shared api option surface (--help); the
// matching script directive (`quicktests off;`) steers the same context
// switch mid-script.
//
//===----------------------------------------------------------------------===//

#include "api/Options.h"
#include "calc/Calc.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <unistd.h>

using namespace omega;

namespace {

int usage(FILE *To) {
  std::fprintf(To, "usage: omega-calc [options] [script]\n"
                   "\nShared analysis options:\n%s",
               api::optionsHelp(api::ToolCalc).c_str());
  return To == stderr ? 2 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  api::ParsedArgs Parsed;
  std::string Err;
  if (!api::parseArgs(Args, api::ToolCalc, Parsed, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return usage(stderr);
  }
  if (Parsed.Help)
    return usage(stdout);

  std::string Script;
  for (const std::string &Arg : Parsed.Rest) {
    if (!Arg.empty() && Arg[0] == '-' && Arg != "-") {
      std::fprintf(stderr, "error: unknown option %s\n", Arg.c_str());
      return usage(stderr);
    }
    if (!Script.empty())
      return usage(stderr);
    Script = Arg;
  }

  calc::Calculator Calc;
  Calc.context().PairQuickTests = Parsed.Options.PairQuickTests;

  if (!Script.empty() && Script != "-") {
    std::ifstream In(Script);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n", Script.c_str());
      return 1;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    std::fputs(Calc.run(SS.str()).c_str(), stdout);
    return Calc.hadError() ? 1 : 0;
  }

  bool Interactive = isatty(STDIN_FILENO);
  if (Interactive)
    std::fputs("omega-calc (sat / solution / project / gist / simplify / "
               "print / trace on|off; ctrl-d quits)\n",
               stdout);
  std::string Line;
  std::string Pending;
  while (true) {
    if (Interactive)
      std::fputs("> ", stdout), std::fflush(stdout);
    if (!std::getline(std::cin, Line))
      break;
    Pending += Line + "\n";
    // Execute once the statement is closed by a ';'.
    if (Line.find(';') == std::string::npos)
      continue;
    std::fputs(Calc.run(Pending).c_str(), stdout);
    Pending.clear();
  }
  if (!Pending.empty())
    std::fputs(Calc.run(Pending).c_str(), stdout);
  return Calc.hadError() ? 1 : 0;
}
