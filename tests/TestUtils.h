//===- tests/TestUtils.h - Shared helpers for the test suites ------------===//
//
// Thin aliases over the oracle library (src/oracle/): the brute-force
// evaluators and random-problem generator the property tests use are the
// same code the omega-fuzz driver runs, so a seed that fails in CI
// reproduces locally through either entry point (see oracle::fuzzSeed
// and the OMEGA_FUZZ_SEED environment variable).
//
//===----------------------------------------------------------------------===//

#ifndef OMEGA_TESTS_TESTUTILS_H
#define OMEGA_TESTS_TESTUTILS_H

#include "oracle/Generate.h"
#include "oracle/ModelOracle.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <vector>

namespace omega {
namespace testutil {

using oracle::evalConstraint;
using oracle::evalProblem;
using oracle::forEachPoint;
using oracle::forEachPointFrom;
using oracle::fuzzSeed;
using oracle::RandomProblemConfig;
using oracle::randomProblem;
using oracle::seedMessage;

/// Exhaustive satisfiability oracle over an explicit [Lo, Hi] box on every
/// variable (the historical test-suite signature; oracle::bruteForceSat
/// takes a symmetric box and skips dead columns).
inline bool bruteForceSat(const Problem &P, int64_t Lo, int64_t Hi) {
  std::vector<VarId> Vars;
  for (VarId V = 0, E = P.getNumVars(); V != static_cast<VarId>(E); ++V)
    Vars.push_back(V);
  return forEachPoint(P.getNumVars(), Vars, Lo, Hi,
                      [&](const std::vector<int64_t> &Pt) {
                        return evalProblem(P, Pt);
                      });
}

/// Prints a property-test parameter the way gtest prints a type without
/// a PrintTo ("48-byte object <02-00 00-00 ...>"), with every padding byte
/// zero. ctest names value-parameterized tests by that print, and the
/// padding after RandomProblemConfig::NumGEQs is otherwise whatever the
/// stack held, so the names changed from one run to the next. Callers
/// put() each field at its offsetof(); the bytes between stay zero.
class ParamBytes {
public:
  explicit ParamBytes(size_t Size) : Bytes(Size, 0) {}

  template <typename T> void put(size_t Offset, const T &Value) {
    std::memcpy(&Bytes[Offset], &Value, sizeof(Value));
  }

  void put(size_t Offset, const RandomProblemConfig &Cfg) {
    put(Offset + offsetof(RandomProblemConfig, NumVars), Cfg.NumVars);
    put(Offset + offsetof(RandomProblemConfig, NumEQs), Cfg.NumEQs);
    put(Offset + offsetof(RandomProblemConfig, NumGEQs), Cfg.NumGEQs);
    put(Offset + offsetof(RandomProblemConfig, CoeffRange), Cfg.CoeffRange);
    put(Offset + offsetof(RandomProblemConfig, ConstRange), Cfg.ConstRange);
    put(Offset + offsetof(RandomProblemConfig, Box), Cfg.Box);
  }

  void print(std::ostream *OS) const {
    ::testing::internal::PrintBytesInObjectTo(Bytes.data(), Bytes.size(), OS);
  }

private:
  std::vector<unsigned char> Bytes;
};

} // namespace testutil
} // namespace omega

#endif // OMEGA_TESTS_TESTUTILS_H
