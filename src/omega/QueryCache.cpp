//===- omega/QueryCache.cpp -----------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "omega/QueryCache.h"

#include "support/Hashing.h"

#include <algorithm>
#include <istream>
#include <iterator>
#include <map>
#include <ostream>

using namespace omega;

//===----------------------------------------------------------------------===//
// Sharded store
//===----------------------------------------------------------------------===//

struct QueryCache::Shard {
  std::mutex M;
  std::unordered_map<std::string, bool> Sat;
  std::unordered_map<std::string, std::vector<Constraint>> Gist;
};

QueryCache::QueryCache(unsigned ShardCount) {
  if (ShardCount == 0)
    ShardCount = 1;
  Shards.reserve(ShardCount);
  for (unsigned I = 0; I != ShardCount; ++I)
    Shards.push_back(std::make_unique<Shard>());
}

QueryCache::~QueryCache() = default;

QueryCache::Shard &QueryCache::shardFor(const std::string &Key) {
  return *Shards[std::hash<std::string>{}(Key) % Shards.size()];
}

std::optional<bool> QueryCache::lookupSat(const std::string &Key,
                                          OmegaStats *Stats) {
  Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Sat.find(Key);
  if (It == S.Sat.end()) {
    SatMisses.fetch_add(1, std::memory_order_relaxed);
    if (Stats)
      ++Stats->SatCacheMisses;
    return std::nullopt;
  }
  SatHits.fetch_add(1, std::memory_order_relaxed);
  if (Stats)
    ++Stats->SatCacheHits;
  return It->second;
}

void QueryCache::storeSat(const std::string &Key, bool Satisfiable) {
  Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> Lock(S.M);
  S.Sat.emplace(Key, Satisfiable);
}

std::optional<std::vector<Constraint>>
QueryCache::lookupGist(const std::string &Key, OmegaStats *Stats) {
  Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Gist.find(Key);
  if (It == S.Gist.end()) {
    GistMisses.fetch_add(1, std::memory_order_relaxed);
    if (Stats)
      ++Stats->GistCacheMisses;
    return std::nullopt;
  }
  GistHits.fetch_add(1, std::memory_order_relaxed);
  if (Stats)
    ++Stats->GistCacheHits;
  return It->second;
}

void QueryCache::storeGist(const std::string &Key,
                           std::vector<Constraint> Rows) {
  Shard &S = shardFor(Key);
  std::lock_guard<std::mutex> Lock(S.M);
  S.Gist.emplace(Key, std::move(Rows));
}

QueryCacheStats QueryCache::stats() const {
  QueryCacheStats R;
  R.SatHits = SatHits.load(std::memory_order_relaxed);
  R.SatMisses = SatMisses.load(std::memory_order_relaxed);
  R.GistHits = GistHits.load(std::memory_order_relaxed);
  R.GistMisses = GistMisses.load(std::memory_order_relaxed);
  return R;
}

std::size_t QueryCache::size() const {
  std::size_t N = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->M);
    N += S->Sat.size() + S->Gist.size();
  }
  return N;
}

void QueryCache::clear() {
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->M);
    S->Sat.clear();
    S->Gist.clear();
  }
}

//===----------------------------------------------------------------------===//
// Key construction
//===----------------------------------------------------------------------===//

namespace {

void appendI64(std::string &Out, int64_t V) {
  uint64_t U = static_cast<uint64_t>(V);
  for (unsigned I = 0; I != 8; ++I)
    Out.push_back(static_cast<char>((U >> (8 * I)) & 0xff));
}

void appendU32(std::string &Out, uint32_t V) {
  for (unsigned I = 0; I != 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

/// Serializes one row over an explicit column order (fixed width given the
/// column count, so sorted rows concatenate unambiguously).
std::string rowKey(const Constraint &Row, const std::vector<VarId> &Columns) {
  std::string Out;
  Out.reserve(9 + 8 * Columns.size());
  Out.push_back(Row.isEquality() ? 'E' : 'G');
  appendI64(Out, Row.getConstant());
  for (VarId V : Columns)
    appendI64(Out, Row.getCoeff(V));
  return Out;
}

} // namespace

std::optional<std::string> omega::canonicalSatKey(const Problem &P,
                                                  int ModeTag) {
  // Key construction must be free of observable side effects: save the
  // thread's sticky overflow flag and restore it exactly (an OverflowScope
  // would OR a canonicalization overflow back into the caller's view and
  // change the caller's conservative-fallback behavior depending on
  // whether a cache is attached).
  bool &Flag = arithOverflowFlag();
  bool Saved = Flag;
  Flag = false;

  Problem Q = P;
  Problem::NormalizeResult NR = Q.normalize();
  bool Overflowed = Flag;
  Flag = Saved;
  if (Overflowed)
    return std::nullopt;

  std::string Key;
  Key.push_back('S');
  Key.push_back(static_cast<char>(ModeTag));
  if (NR == Problem::NormalizeResult::False) {
    // Every trivially inconsistent system shares one key.
    Key.push_back('F');
    return Key;
  }

  // Live columns only: dead or mentioned-nowhere variables cannot affect
  // satisfiability, and protection is irrelevant to it.
  std::vector<VarId> Live;
  for (VarId V = 0, E = Q.getNumVars(); V != static_cast<VarId>(E); ++V)
    if (Q.involves(V))
      Live.push_back(V);

  // Structural signature per column, independent of row and column order:
  // a commutative accumulation (shared mix64 from support/Hashing.h) over
  // the rows the column appears in. One pass over the rows fills every
  // column's accumulator.
  std::vector<uint64_t> ColSig(Q.getNumVars(), 0);
  for (const Constraint &Row : Q.constraints()) {
    const uint64_t RowTag =
        static_cast<uint64_t>(Row.getConstant()) ^
        (Row.isEquality() ? 0x45ull : 0x47ull) * 0x9e3779b97f4a7c15ull;
    const int64_t *C = Row.coeffs().data();
    for (unsigned V = 0, E = Row.getNumVars(); V != E; ++V)
      if (C[V] != 0)
        ColSig[V] += mix64(mix64(static_cast<uint64_t>(C[V])) ^ RowTag);
  }
  struct ColOrder {
    uint64_t Sig;
    VarId V;
  };
  std::vector<ColOrder> Order;
  Order.reserve(Live.size());
  for (VarId V : Live)
    Order.push_back({ColSig[V], V});
  // Ties between structurally identical columns fall back to the original
  // index: deterministic, and at worst a cache miss for a permuted twin.
  std::sort(Order.begin(), Order.end(), [](const ColOrder &A, const ColOrder &B) {
    return A.Sig != B.Sig ? A.Sig < B.Sig : A.V < B.V;
  });
  std::vector<VarId> Columns;
  Columns.reserve(Order.size());
  for (const ColOrder &C : Order)
    Columns.push_back(C.V);

  appendU32(Key, static_cast<uint32_t>(Columns.size()));
  appendU32(Key, static_cast<uint32_t>(Q.getNumConstraints()));
  // Sort rows into a canonical order. The comparisons are prescreened by a
  // row hash over the canonical column positions -- the same
  // hashCoeffTerm scheme as Constraint's structural signature -- so only
  // hash-equal rows pay a byte-wise key comparison.
  struct RowOrder {
    uint64_t H;
    std::string K;
  };
  std::vector<RowOrder> Rows;
  Rows.reserve(Q.getNumConstraints());
  for (const Constraint &Row : Q.constraints()) {
    uint64_t H = mix64(static_cast<uint64_t>(Row.getConstant()) ^
                       (Row.isEquality() ? 0x45ull : 0x47ull));
    for (unsigned I = 0, E = Columns.size(); I != E; ++I) {
      int64_t C = Row.getCoeff(Columns[I]);
      if (C != 0)
        H += hashCoeffTerm(I, C);
    }
    Rows.push_back({H, rowKey(Row, Columns)});
  }
  std::sort(Rows.begin(), Rows.end(), [](const RowOrder &A, const RowOrder &B) {
    return A.H != B.H ? A.H < B.H : A.K < B.K;
  });
  for (const RowOrder &R : Rows)
    Key += R.K;
  return Key;
}

//===----------------------------------------------------------------------===//
// Persistence
//===----------------------------------------------------------------------===//

namespace {

constexpr char PersistMagic[4] = {'O', 'M', 'Q', 'C'};

/// FNV-1a 64 over the payload; cheap, deterministic, and enough to reject
/// torn or bit-flipped warm-start files (integrity, not security).
uint64_t checksum64(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (char C : S) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x100000001b3ull;
  }
  return H;
}

void appendBytes(std::string &Out, const void *P, std::size_t N) {
  Out.append(static_cast<const char *>(P), N);
}

void appendU64(std::string &Out, uint64_t V) {
  for (unsigned I = 0; I != 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void appendLenString(std::string &Out, const std::string &S) {
  appendU32(Out, static_cast<uint32_t>(S.size()));
  Out += S;
}

/// Bounds-checked little-endian reader over a loaded payload.
struct Reader {
  const std::string &Buf;
  std::size_t Pos = 0;
  bool Ok = true;

  bool take(void *Out, std::size_t N) {
    if (!Ok || Pos + N > Buf.size()) {
      Ok = false;
      return false;
    }
    std::copy_n(Buf.data() + Pos, N, static_cast<char *>(Out));
    Pos += N;
    return true;
  }
  uint32_t u32() {
    uint32_t V = 0;
    for (unsigned I = 0; I != 4; ++I) {
      unsigned char B = 0;
      if (!take(&B, 1))
        return 0;
      V |= static_cast<uint32_t>(B) << (8 * I);
    }
    return V;
  }
  uint64_t u64() {
    uint64_t V = 0;
    for (unsigned I = 0; I != 8; ++I) {
      unsigned char B = 0;
      if (!take(&B, 1))
        return 0;
      V |= static_cast<uint64_t>(B) << (8 * I);
    }
    return V;
  }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  uint8_t u8() {
    unsigned char B = 0;
    take(&B, 1);
    return B;
  }
  std::string lenString(uint32_t MaxLen = 1u << 24) {
    uint32_t N = u32();
    if (!Ok || N > MaxLen || Pos + N > Buf.size()) {
      Ok = false;
      return std::string();
    }
    std::string S = Buf.substr(Pos, N);
    Pos += N;
    return S;
  }
};

void appendConstraintRow(std::string &Out, const Constraint &Row) {
  Out.push_back(Row.isEquality() ? 'E' : 'G');
  Out.push_back(Row.isRed() ? 1 : 0);
  appendU32(Out, Row.getNumVars());
  appendI64(Out, Row.getConstant());
  for (VarId V = 0, E = Row.getNumVars(); V != static_cast<VarId>(E); ++V)
    appendI64(Out, Row.getCoeff(V));
}

bool readConstraintRow(Reader &R, std::vector<Constraint> &Rows) {
  uint8_t KindTag = R.u8();
  uint8_t Red = R.u8();
  uint32_t NumVars = R.u32();
  if (!R.Ok || (KindTag != 'E' && KindTag != 'G') || Red > 1 ||
      NumVars > (1u << 20))
    return false;
  Constraint Row(KindTag == 'E' ? ConstraintKind::EQ : ConstraintKind::GEQ,
                 NumVars);
  Row.setConstant(R.i64());
  for (uint32_t V = 0; V != NumVars; ++V)
    Row.setCoeff(static_cast<VarId>(V), R.i64());
  Row.setRed(Red != 0);
  if (!R.Ok)
    return false;
  Rows.push_back(std::move(Row));
  return true;
}

} // namespace

bool QueryCache::save(std::ostream &Out) const {
  // Gather under the shard locks, then emit sorted by key so the byte
  // stream is independent of hash-map iteration order (save -> load ->
  // save round-trips bit-identically; the persistence test pins this).
  std::map<std::string, bool> Sat;
  std::map<std::string, const std::vector<Constraint> *> Gist;
  std::vector<std::unique_lock<std::mutex>> Locks;
  Locks.reserve(Shards.size());
  for (const auto &S : Shards) {
    Locks.emplace_back(S->M);
    for (const auto &[K, V] : S->Sat)
      Sat.emplace(K, V);
    for (const auto &[K, V] : S->Gist)
      Gist.emplace(K, &V);
  }

  std::string Payload;
  appendU64(Payload, Sat.size());
  for (const auto &[K, V] : Sat) {
    appendLenString(Payload, K);
    Payload.push_back(V ? 1 : 0);
  }
  appendU64(Payload, Gist.size());
  for (const auto &[K, Rows] : Gist) {
    appendLenString(Payload, K);
    appendU32(Payload, static_cast<uint32_t>(Rows->size()));
    for (const Constraint &Row : *Rows)
      appendConstraintRow(Payload, Row);
  }
  Locks.clear();

  std::string Header;
  appendBytes(Header, PersistMagic, sizeof(PersistMagic));
  appendU32(Header, PersistFormatVersion);
  Out.write(Header.data(), static_cast<std::streamsize>(Header.size()));
  Out.write(Payload.data(), static_cast<std::streamsize>(Payload.size()));
  std::string Tail;
  appendU64(Tail, checksum64(Payload));
  Out.write(Tail.data(), static_cast<std::streamsize>(Tail.size()));
  return static_cast<bool>(Out);
}

bool QueryCache::load(std::istream &In, std::string &Err) {
  clear();
  auto Reject = [&](const std::string &Why) {
    clear();
    Err = "query-cache file rejected: " + Why;
    return false;
  };

  std::string All((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  if (All.size() < sizeof(PersistMagic) + 4 + 8 + 8)
    return Reject("truncated header");
  if (All.compare(0, sizeof(PersistMagic), PersistMagic,
                  sizeof(PersistMagic)) != 0)
    return Reject("bad magic");
  Reader Head{All, sizeof(PersistMagic)};
  uint32_t Version = Head.u32();
  if (Version != PersistFormatVersion)
    return Reject("unsupported format version " + std::to_string(Version));

  std::string Payload = All.substr(Head.Pos, All.size() - Head.Pos - 8);
  Reader Tail{All, All.size() - 8};
  if (checksum64(Payload) != Tail.u64())
    return Reject("checksum mismatch");

  Reader R{Payload, 0};
  uint64_t SatCount = R.u64();
  if (SatCount > (1ull << 32))
    return Reject("implausible sat entry count");
  for (uint64_t I = 0; I != SatCount && R.Ok; ++I) {
    std::string Key = R.lenString();
    uint8_t V = R.u8();
    if (!R.Ok || V > 1)
      return Reject("malformed sat entry");
    storeSat(Key, V != 0);
  }
  uint64_t GistCount = R.u64();
  if (!R.Ok || GistCount > (1ull << 32))
    return Reject("implausible gist entry count");
  for (uint64_t I = 0; I != GistCount && R.Ok; ++I) {
    std::string Key = R.lenString();
    uint32_t NumRows = R.u32();
    if (!R.Ok || NumRows > (1u << 20))
      return Reject("malformed gist entry");
    std::vector<Constraint> Rows;
    Rows.reserve(NumRows);
    for (uint32_t Row = 0; Row != NumRows; ++Row)
      if (!readConstraintRow(R, Rows))
        return Reject("malformed gist row");
    storeGist(Key, std::move(Rows));
  }
  if (!R.Ok || R.Pos != Payload.size())
    return Reject("trailing or missing payload bytes");
  return true;
}

std::string omega::gistCacheKey(const Problem &P, const Problem &Given,
                                bool UseFastChecks) {
  assert(P.getNumVars() == Given.getNumVars() &&
         "gist arguments share one layout");
  std::string Key;
  Key.push_back('g');
  Key.push_back(UseFastChecks ? '1' : '0');
  appendU32(Key, P.getNumVars());
  for (VarId V = 0, E = P.getNumVars(); V != static_cast<VarId>(E); ++V)
    Key.push_back(static_cast<char>((P.isProtected(V) ? 1 : 0) |
                                    (P.isDead(V) ? 2 : 0)));
  auto appendRows = [&Key](const Problem &Q) {
    appendU32(Key, Q.getNumConstraints());
    for (const Constraint &Row : Q.constraints()) {
      Key.push_back(Row.isEquality() ? 'E' : 'G');
      Key.push_back(Row.isRed() ? 'r' : 'b');
      appendI64(Key, Row.getConstant());
      for (VarId V = 0, E = Row.getNumVars(); V != static_cast<VarId>(E); ++V)
        appendI64(Key, Row.getCoeff(V));
    }
  };
  appendRows(P);
  appendRows(Given);
  return Key;
}
