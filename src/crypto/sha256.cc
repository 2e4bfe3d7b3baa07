#include "src/crypto/sha256.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/crypto/sha256_simd.h"

namespace ac3::crypto {

namespace {

constexpr const std::array<uint32_t, 64>& kK = simd::kRoundConstants;

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

/// The big-endian message word holding four little-endian nonce bytes.
inline uint32_t NonceWord(uint32_t half) {
  return (half >> 24) | ((half >> 8) & 0xff00) | ((half << 8) & 0xff0000) |
         (half << 24);
}

/// Reads a 64-byte block as 16 big-endian words.
void LoadBlock(const uint8_t* block, uint32_t* w) {
  for (int t = 0; t < 16; ++t) {
    w[t] = static_cast<uint32_t>(block[t * 4]) << 24 |
           static_cast<uint32_t>(block[t * 4 + 1]) << 16 |
           static_cast<uint32_t>(block[t * 4 + 2]) << 8 |
           static_cast<uint32_t>(block[t * 4 + 3]);
  }
}

/// Expands w[0..15] into the full message schedule and adds the round
/// constants: w[t] becomes K[t] + W[t].
void ScheduleWithConstants(uint32_t* w) {
  for (int t = 16; t < 64; ++t) {
    w[t] = SmallSigma1(w[t - 2]) + w[t - 7] + SmallSigma0(w[t - 15]) + w[t - 16];
  }
  for (int t = 0; t < 64; ++t) w[t] += kK[t];
}

/// Rounds [first, last) over the working variables s = {a, ..., h}, with
/// wk[t] = K[t] + W[t].
void Rounds(uint32_t* s, const uint32_t* wk, int first, int last) {
  uint32_t a = s[0], b = s[1], c = s[2], d = s[3];
  uint32_t e = s[4], f = s[5], g = s[6], h = s[7];
  for (int t = first; t < last; ++t) {
    uint32_t t1 = h + BigSigma1(e) + Ch(e, f, g) + wk[t];
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
  s[0] = a;
  s[1] = b;
  s[2] = c;
  s[3] = d;
  s[4] = e;
  s[5] = f;
  s[6] = g;
  s[7] = h;
}

/// The portable reference compression — the bottom rung of the dispatch
/// ladder and the oracle every hardware kernel is tested against.
void CompressScalar(uint32_t* state, const uint8_t* block) {
  uint32_t w[64] = {};
  LoadBlock(block, w);
  ScheduleWithConstants(w);
  uint32_t s[8] = {};
  for (int i = 0; i < 8; ++i) s[i] = state[i];
  Rounds(s, w, 0, 64);
  for (int i = 0; i < 8; ++i) state[i] += s[i];
}

/// The portable Sha256::HashNonce: the same three blocks ScanNonces runs
/// per lane, one nonce at a time.
void HashNonceScalar(const Sha256::NonceScanJob& job, uint64_t nonce,
                     uint32_t* digest) {
  uint32_t w[64] = {};
  for (int t = 0; t < 14; ++t) w[t] = job.words[t];
  w[14] = NonceWord(static_cast<uint32_t>(nonce));
  w[15] = NonceWord(static_cast<uint32_t>(nonce >> 32));
  ScheduleWithConstants(w);
  uint32_t s[8] = {};
  for (int i = 0; i < 8; ++i) s[i] = job.state14[i];
  Rounds(s, w, 14, 64);
  uint32_t inner[8] = {};
  for (int i = 0; i < 8; ++i) {
    inner[i] = job.midstate[i] + s[i];
    s[i] = inner[i];
  }
  Rounds(s, job.pad_wk, 0, 64);
  for (int i = 0; i < 8; ++i) w[i] = inner[i] + s[i];
  for (int t = 8; t < 16; ++t) w[t] = simd::kDigestPadWords[t - 8];
  ScheduleWithConstants(w);
  for (int i = 0; i < 8; ++i) s[i] = Sha256::kInitialState[i];
  Rounds(s, w, 0, 64);
  for (int i = 0; i < 8; ++i) digest[i] = Sha256::kInitialState[i] + s[i];
}

/// The one-lane scan of levels without a vector kernel: `hash` (the
/// level's HashNonce) and the pre-filter, for nonce `start` alone.
template <void (*hash)(const Sha256::NonceScanJob&, uint64_t, uint32_t*)>
uint32_t ScanOneNonce(const Sha256::NonceScanJob& job, uint64_t start,
                      uint32_t prefix_mask) {
  uint32_t digest[8] = {};
  hash(job, start, digest);
  return (digest[0] & prefix_mask) == 0 ? 1 : 0;
}

// ---- runtime dispatch -----------------------------------------------------

/// The kernel set of one dispatch level.
struct DispatchTable {
  Sha256::Dispatch level;
  void (*compress)(uint32_t*, const uint8_t*);
  void (*hash_nonce)(const Sha256::NonceScanJob&, uint64_t, uint32_t*);
  uint32_t (*scan)(const Sha256::NonceScanJob&, uint64_t, uint32_t);
  size_t scan_lanes;
};

constexpr DispatchTable kScalarTable{
    Sha256::Dispatch::kScalar, &CompressScalar, &HashNonceScalar,
    &ScanOneNonce<&HashNonceScalar>, 1};

#if defined(__x86_64__) || defined(__i386__)
constexpr DispatchTable kShaNiTable{
    Sha256::Dispatch::kShaNi, &simd::CompressShaNi, &simd::HashNonceShaNi,
    &ScanOneNonce<&simd::HashNonceShaNi>, 1};
// The AVX2 level only has the scan; single-nonce hashing stays scalar,
// which keeps each level's behavior attributable to one kernel.
constexpr DispatchTable kAvx2Table{Sha256::Dispatch::kAvx2, &CompressScalar,
                                   &HashNonceScalar, &simd::ScanNoncesAvx2,
                                   8};
// The AVX-512 scan pairs with the fastest single-block kernels present.
constexpr DispatchTable kAvx512ShaNiTable{
    Sha256::Dispatch::kAvx512, &simd::CompressShaNi, &simd::HashNonceShaNi,
    &simd::ScanNoncesAvx512, 16};
constexpr DispatchTable kAvx512ScalarTable{
    Sha256::Dispatch::kAvx512, &CompressScalar, &HashNonceScalar,
    &simd::ScanNoncesAvx512, 16};
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
    case Sha256::Dispatch::kAvx512:
      if (!simd::CpuHasAvx512()) return nullptr;
      return simd::CpuHasShaNi() ? &kAvx512ShaNiTable : &kAvx512ScalarTable;
#else
    case Sha256::Dispatch::kShaNi:
    case Sha256::Dispatch::kAvx2:
    case Sha256::Dispatch::kAvx512:
      return nullptr;
#endif
  }
  return nullptr;
}

/// Parses an AC3_SHA256_DISPATCH value; null for unknown/absent names.
const DispatchTable* PinnedTable() {
  const char* pin = std::getenv("AC3_SHA256_DISPATCH");
  if (pin == nullptr) return nullptr;
  for (Sha256::Dispatch level : Sha256::kDispatchLadder) {
    if (std::strcmp(pin, Sha256::DispatchName(level)) == 0) {
      return TableFor(level);  // Null when pinned level is unavailable.
    }
  }
  return nullptr;
}

/// One-time probe: the env pin when valid, else the top available rung of
/// the ladder. A set-but-unusable pin (typo, or a level this CPU lacks) is
/// loudly ignored — a silent fallback would let a forced-scalar sanitizer
/// shard quietly cover the hardware path instead.
const DispatchTable* ProbeInitialTable() {
  if (const char* pin = std::getenv("AC3_SHA256_DISPATCH")) {
    if (const DispatchTable* pinned = PinnedTable()) return pinned;
    std::fprintf(stderr,
                 "AC3_SHA256_DISPATCH='%s' is not an available level (want",
                 pin);
    for (Sha256::Dispatch level : Sha256::kDispatchLadder) {
      std::fprintf(stderr, " %s", Sha256::DispatchName(level));
    }
    std::fprintf(stderr, "); using the default dispatch ladder\n");
  }
  for (Sha256::Dispatch level : Sha256::kDispatchLadder) {
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
    case Dispatch::kAvx512:
      return "avx512";
  }
  return "?";
}

bool Sha256::SetDispatch(Dispatch dispatch) {
  if (!DispatchAvailable(dispatch)) return false;
  g_active_table.store(TableFor(dispatch), std::memory_order_release);
  return true;
}

Sha256::Sha256() {
  // Single source of truth for H(0): the same constant the raw
  // compression path (HeaderHasher) starts from.
  for (int i = 0; i < 8; ++i) state_[i] = kInitialState[static_cast<size_t>(i)];
}

void Sha256::Compress(uint32_t* state, const uint8_t* block) {
  ActiveTable()->compress(state, block);
}

void Sha256::PrepareNonceScan(const uint32_t* midstate,
                              const uint8_t* blocks, NonceScanJob* job) {
  uint32_t w[64] = {};
  LoadBlock(blocks, w);
  for (int t = 0; t < 14; ++t) job->words[t] = w[t];
  // Only rounds 0..13 run here, and their words hold no nonce byte.
  ScheduleWithConstants(w);
  for (int i = 0; i < 8; ++i) {
    job->midstate[i] = midstate[i];
    job->state14[i] = midstate[i];
  }
  Rounds(job->state14, w, 0, 14);
  LoadBlock(blocks + kBlockSize, w);
  ScheduleWithConstants(w);
  for (int t = 0; t < 64; ++t) job->pad_wk[t] = w[t];
}

void Sha256::HashNonce(const NonceScanJob& job, uint64_t nonce,
                       uint32_t* digest) {
  ActiveTable()->hash_nonce(job, nonce, digest);
}

size_t Sha256::NonceScanLanes() { return ActiveTable()->scan_lanes; }

uint32_t Sha256::ScanNonces(const NonceScanJob& job, uint64_t start,
                            uint32_t prefix_mask) {
  return ActiveTable()->scan(job, start, prefix_mask);
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
