#include "src/crypto/sha256.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/crypto/sha256_simd.h"

namespace ac3::crypto {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }
inline uint32_t Ch(uint32_t x, uint32_t y, uint32_t z) {
  return (x & y) ^ (~x & z);
}
inline uint32_t Maj(uint32_t x, uint32_t y, uint32_t z) {
  return (x & y) ^ (x & z) ^ (y & z);
}
inline uint32_t BigSigma0(uint32_t x) {
  return Rotr(x, 2) ^ Rotr(x, 13) ^ Rotr(x, 22);
}
inline uint32_t BigSigma1(uint32_t x) {
  return Rotr(x, 6) ^ Rotr(x, 11) ^ Rotr(x, 25);
}
inline uint32_t SmallSigma0(uint32_t x) {
  return Rotr(x, 7) ^ Rotr(x, 18) ^ (x >> 3);
}
inline uint32_t SmallSigma1(uint32_t x) {
  return Rotr(x, 17) ^ Rotr(x, 19) ^ (x >> 10);
}

/// The portable reference compression — the bottom rung of the dispatch
/// ladder and the oracle every hardware kernel is tested against.
void CompressScalar(uint32_t* state, const uint8_t* block) {
  uint32_t w[64];
  for (int t = 0; t < 16; ++t) {
    w[t] = static_cast<uint32_t>(block[t * 4]) << 24 |
           static_cast<uint32_t>(block[t * 4 + 1]) << 16 |
           static_cast<uint32_t>(block[t * 4 + 2]) << 8 |
           static_cast<uint32_t>(block[t * 4 + 3]);
  }
  for (int t = 16; t < 64; ++t) {
    w[t] = SmallSigma1(w[t - 2]) + w[t - 7] + SmallSigma0(w[t - 15]) + w[t - 16];
  }

  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int t = 0; t < 64; ++t) {
    uint32_t t1 = h + BigSigma1(e) + Ch(e, f, g) + kK[t] + w[t];
    uint32_t t2 = BigSigma0(a) + Maj(a, b, c);
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

/// The portable two-lane round-interleaved compression (scalar rung).
void Compress2Scalar(uint32_t* state_a, const uint8_t* block_a,
                     uint32_t* state_b, const uint8_t* block_b) {
  // Identical math to Compress(), with lane A and lane B statements
  // interleaved so the two (mutually independent) round dependency chains
  // overlap in the pipeline. Keep the two lanes textually in lockstep when
  // editing: the per-lane results must equal Compress() exactly.
  uint32_t wa[64];
  uint32_t wb[64];
  for (int t = 0; t < 16; ++t) {
    wa[t] = static_cast<uint32_t>(block_a[t * 4]) << 24 |
            static_cast<uint32_t>(block_a[t * 4 + 1]) << 16 |
            static_cast<uint32_t>(block_a[t * 4 + 2]) << 8 |
            static_cast<uint32_t>(block_a[t * 4 + 3]);
    wb[t] = static_cast<uint32_t>(block_b[t * 4]) << 24 |
            static_cast<uint32_t>(block_b[t * 4 + 1]) << 16 |
            static_cast<uint32_t>(block_b[t * 4 + 2]) << 8 |
            static_cast<uint32_t>(block_b[t * 4 + 3]);
  }
  for (int t = 16; t < 64; ++t) {
    wa[t] =
        SmallSigma1(wa[t - 2]) + wa[t - 7] + SmallSigma0(wa[t - 15]) + wa[t - 16];
    wb[t] =
        SmallSigma1(wb[t - 2]) + wb[t - 7] + SmallSigma0(wb[t - 15]) + wb[t - 16];
  }

  uint32_t aa = state_a[0], ba = state_a[1], ca = state_a[2], da = state_a[3];
  uint32_t ea = state_a[4], fa = state_a[5], ga = state_a[6], ha = state_a[7];
  uint32_t ab = state_b[0], bb = state_b[1], cb = state_b[2], db = state_b[3];
  uint32_t eb = state_b[4], fb = state_b[5], gb = state_b[6], hb = state_b[7];

  for (int t = 0; t < 64; ++t) {
    const uint32_t t1a = ha + BigSigma1(ea) + Ch(ea, fa, ga) + kK[t] + wa[t];
    const uint32_t t1b = hb + BigSigma1(eb) + Ch(eb, fb, gb) + kK[t] + wb[t];
    const uint32_t t2a = BigSigma0(aa) + Maj(aa, ba, ca);
    const uint32_t t2b = BigSigma0(ab) + Maj(ab, bb, cb);
    ha = ga;
    hb = gb;
    ga = fa;
    gb = fb;
    fa = ea;
    fb = eb;
    ea = da + t1a;
    eb = db + t1b;
    da = ca;
    db = cb;
    ca = ba;
    cb = bb;
    ba = aa;
    bb = ab;
    aa = t1a + t2a;
    ab = t1b + t2b;
  }

  state_a[0] += aa;
  state_a[1] += ba;
  state_a[2] += ca;
  state_a[3] += da;
  state_a[4] += ea;
  state_a[5] += fa;
  state_a[6] += ga;
  state_a[7] += ha;
  state_b[0] += ab;
  state_b[1] += bb;
  state_b[2] += cb;
  state_b[3] += db;
  state_b[4] += eb;
  state_b[5] += fb;
  state_b[6] += gb;
  state_b[7] += hb;
}

// ---- runtime dispatch -----------------------------------------------------

/// The kernel set of one dispatch level. `compress8` is null on levels
/// without a message-parallel kernel (CompressBatch then runs pairs).
struct DispatchTable {
  Sha256::Dispatch level;
  void (*compress)(uint32_t*, const uint8_t*);
  void (*compress2)(uint32_t*, const uint8_t*, uint32_t*, const uint8_t*);
  void (*compress8)(uint32_t* const*, const uint8_t* const*);
  size_t mining_lanes;
};

constexpr DispatchTable kScalarTable{Sha256::Dispatch::kScalar,
                                     &CompressScalar, &Compress2Scalar,
                                     nullptr, 2};

#if defined(__x86_64__) || defined(__i386__)
constexpr DispatchTable kShaNiTable{Sha256::Dispatch::kShaNi,
                                    &simd::CompressShaNi,
                                    &simd::Compress2ShaNi, nullptr, 2};
// The AVX2 level only has a batch kernel; single/pair compressions stay
// scalar, which keeps each level's behavior attributable to one kernel.
constexpr DispatchTable kAvx2Table{Sha256::Dispatch::kAvx2, &CompressScalar,
                                   &Compress2Scalar, &simd::Compress8Avx2, 8};
#endif

const DispatchTable* TableFor(Sha256::Dispatch level) {
  switch (level) {
    case Sha256::Dispatch::kScalar:
      return &kScalarTable;
#if defined(__x86_64__) || defined(__i386__)
    case Sha256::Dispatch::kShaNi:
      return simd::CpuHasShaNi() ? &kShaNiTable : nullptr;
    case Sha256::Dispatch::kAvx2:
      return simd::CpuHasAvx2() ? &kAvx2Table : nullptr;
#else
    case Sha256::Dispatch::kShaNi:
    case Sha256::Dispatch::kAvx2:
      return nullptr;
#endif
  }
  return nullptr;
}

/// Parses an AC3_SHA256_DISPATCH value; null for unknown/absent names.
const DispatchTable* PinnedTable() {
  const char* pin = std::getenv("AC3_SHA256_DISPATCH");
  if (pin == nullptr) return nullptr;
  for (Sha256::Dispatch level :
       {Sha256::Dispatch::kScalar, Sha256::Dispatch::kShaNi,
        Sha256::Dispatch::kAvx2}) {
    if (std::strcmp(pin, Sha256::DispatchName(level)) == 0) {
      return TableFor(level);  // Null when pinned level is unavailable.
    }
  }
  return nullptr;
}

/// One-time probe: the env pin when valid, else the widest rung of the
/// ladder (SHA-NI beats AVX2 8-way for double-SHA-256 on every CPU that
/// has both, and also wins on single-message hashing). A set-but-unusable
/// pin (typo, or a level this CPU lacks) is loudly ignored — a silent
/// fallback would let a forced-scalar sanitizer shard quietly cover the
/// hardware path instead.
const DispatchTable* ProbeInitialTable() {
  if (const char* pin = std::getenv("AC3_SHA256_DISPATCH")) {
    if (const DispatchTable* pinned = PinnedTable()) return pinned;
    std::fprintf(stderr,
                 "AC3_SHA256_DISPATCH='%s' is not an available level "
                 "(want scalar, shani, or avx2); using the default "
                 "dispatch ladder\n",
                 pin);
  }
  for (Sha256::Dispatch level :
       {Sha256::Dispatch::kShaNi, Sha256::Dispatch::kAvx2}) {
    if (const DispatchTable* table = TableFor(level)) return table;
  }
  return &kScalarTable;
}

/// Remembers whether an env pin restricted availability (made once,
/// alongside the first active-table read).
bool EnvPinActive() {
  static const bool pinned = PinnedTable() != nullptr;
  return pinned;
}

std::atomic<const DispatchTable*> g_active_table{nullptr};

const DispatchTable* ActiveTable() {
  const DispatchTable* table = g_active_table.load(std::memory_order_acquire);
  if (table == nullptr) {
    // Benign race: every loser computes the same deterministic answer.
    table = ProbeInitialTable();
    g_active_table.store(table, std::memory_order_release);
  }
  return table;
}

}  // namespace

bool Sha256::DispatchAvailable(Dispatch dispatch) {
  ActiveTable();  // Force the one-time probe so EnvPinActive is settled.
  if (EnvPinActive()) return TableFor(dispatch) == PinnedTable();
  return TableFor(dispatch) != nullptr;
}

Sha256::Dispatch Sha256::ActiveDispatch() { return ActiveTable()->level; }

const char* Sha256::DispatchName(Dispatch dispatch) {
  switch (dispatch) {
    case Dispatch::kScalar:
      return "scalar";
    case Dispatch::kShaNi:
      return "shani";
    case Dispatch::kAvx2:
      return "avx2";
  }
  return "?";
}

bool Sha256::SetDispatch(Dispatch dispatch) {
  if (!DispatchAvailable(dispatch)) return false;
  g_active_table.store(TableFor(dispatch), std::memory_order_release);
  return true;
}

size_t Sha256::PreferredMiningLanes() { return ActiveTable()->mining_lanes; }

Sha256::Sha256() {
  // Single source of truth for H(0): the same constant the raw
  // compression path (HeaderHasher) starts from.
  for (int i = 0; i < 8; ++i) state_[i] = kInitialState[static_cast<size_t>(i)];
}

void Sha256::Compress(uint32_t* state, const uint8_t* block) {
  ActiveTable()->compress(state, block);
}

void Sha256::Compress2(uint32_t* state_a, const uint8_t* block_a,
                       uint32_t* state_b, const uint8_t* block_b) {
  ActiveTable()->compress2(state_a, block_a, state_b, block_b);
}

void Sha256::CompressBatch(uint32_t* const* states,
                           const uint8_t* const* blocks, size_t n) {
  const DispatchTable* table = ActiveTable();
  size_t i = 0;
  if (table->compress8 != nullptr) {
    for (; i + 8 <= n; i += 8) table->compress8(states + i, blocks + i);
  }
  for (; i + 2 <= n; i += 2) {
    table->compress2(states[i], blocks[i], states[i + 1], blocks[i + 1]);
  }
  if (i < n) table->compress(states[i], blocks[i]);
}

void Sha256::ProcessBlock(const uint8_t* block) { Compress(state_, block); }

void Sha256::Update(const uint8_t* data, size_t len) {
  bit_count_ += static_cast<uint64_t>(len) * 8;
  while (len > 0) {
    if (buffer_len_ == 0 && len >= kBlockSize) {
      // Fast path: hash directly from the input.
      ProcessBlock(data);
      data += kBlockSize;
      len -= kBlockSize;
      continue;
    }
    size_t take = kBlockSize - buffer_len_;
    if (take > len) take = len;
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == kBlockSize) {
      ProcessBlock(buffer_);
      buffer_len_ = 0;
    }
  }
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::Finish() {
  // Append 0x80, pad with zeros to 56 mod 64, then the 64-bit big-endian
  // message bit length. The buffer always has room for the 0x80 (a full
  // block is compressed as soon as it fills); when fewer than 8 bytes are
  // left after it, the zeros spill into a second block.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kBlockSize - 8) {
    std::memset(buffer_ + buffer_len_, 0, kBlockSize - buffer_len_);
    ProcessBlock(buffer_);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, kBlockSize - 8 - buffer_len_);
  for (size_t i = 0; i < 8; ++i) {
    buffer_[kBlockSize - 8 + i] =
        static_cast<uint8_t>(bit_count_ >> (56 - 8 * i));
  }
  ProcessBlock(buffer_);

  std::array<uint8_t, kDigestSize> digest;
  for (int i = 0; i < 8; ++i) {
    digest[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    digest[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::Digest(
    std::span<const uint8_t> data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

}  // namespace ac3::crypto
