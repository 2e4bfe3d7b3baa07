#include "src/crypto/primes.h"

#include <array>
#include <cassert>
#include <stdexcept>

#include "src/common/random.h"

namespace ac3::crypto {

uint64_t MulMod(uint64_t a, uint64_t b, uint64_t m) {
  return static_cast<uint64_t>(
      static_cast<unsigned __int128>(a) * b % m);
}

uint64_t PowMod(uint64_t base, uint64_t exp, uint64_t m) {
  assert(m > 0);
  if (m == 1) return 0;
  uint64_t result = 1;
  base %= m;
  while (exp > 0) {
    if (exp & 1) result = MulMod(result, base, m);
    base = MulMod(base, base, m);
    exp >>= 1;
  }
  return result;
}

namespace {

/// One Miller–Rabin round with witness a; n - 1 = d * 2^r, d odd.
bool MillerRabinWitness(uint64_t n, uint64_t a, uint64_t d, int r) {
  uint64_t x = PowMod(a % n, d, n);
  if (x == 1 || x == n - 1) return true;  // Probably prime for this witness.
  for (int i = 1; i < r; ++i) {
    x = MulMod(x, x, n);
    if (x == n - 1) return true;
  }
  return false;  // Composite.
}

}  // namespace

bool IsPrime(uint64_t n) {
  if (n < 2) return false;
  for (uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                     23ULL, 29ULL, 31ULL, 37ULL}) {
    if (n == p) return true;
    if (n % p == 0) return false;
  }
  uint64_t d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  // This witness set is deterministic-exact for all n < 2^64
  // (Sorenson & Webster, 2015).
  for (uint64_t a : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                     23ULL, 29ULL, 31ULL, 37ULL}) {
    if (!MillerRabinWitness(n, a, d, r)) return false;
  }
  return true;
}

uint64_t NextPrime(uint64_t n) {
  if (n <= 2) return 2;
  if ((n & 1) == 0) ++n;
  while (!IsPrime(n)) n += 2;
  return n;
}

GroupParams GenerateGroup(uint64_t seed) {
  Rng rng(seed);

  // 1. Pick a ~31-bit prime q.
  uint64_t q = NextPrime((1ULL << 30) | rng.NextBelow(1ULL << 30));

  // 2. Find p = k * q + 1 prime with p around 2^61. Scanning k upward from a
  //    random start converges in a handful of steps by the prime density.
  uint64_t k = (1ULL << 30) | rng.NextBelow(1ULL << 29);
  if (k % 2 == 1) ++k;  // Keep p = k*q + 1 odd-friendly: k even => p odd.
  uint64_t p;
  for (;;) {
    p = k * q + 1;
    if (IsPrime(p)) break;
    k += 2;
  }

  // 3. Find a generator of the order-q subgroup: g = h^((p-1)/q) != 1.
  const uint64_t cofactor = (p - 1) / q;
  uint64_t g = 1;
  for (uint64_t h = 2; h < p; ++h) {
    g = PowMod(h, cofactor, p);
    if (g != 1) break;
  }
  assert(g != 1);
  assert(PowMod(g, q, p) == 1);
  return GroupParams{p, q, g};
}

const GroupParams& DefaultGroup() {
  // Any fixed seed works; this one is the project name in ASCII-ish.
  static const GroupParams params = GenerateGroup(0xAC3'AC3'AC3ULL);
  return params;
}

Montgomery::Montgomery(uint64_t m) : m_(m) {
  if (m % 2 == 0 || m >= (1ULL << 62)) {
    throw std::invalid_argument("Montgomery modulus must be odd and < 2^62");
  }
  // Newton's iteration doubles the correct low bits of m^-1 mod 2^64; an
  // odd m is its own inverse mod 8, so five steps reach 96 >= 64 bits.
  m_inv_ = m;
  for (int i = 0; i < 5; ++i) m_inv_ *= 2 - m * m_inv_;
  one_ = (0 - m) % m;  // 2^64 mod m.
  r2_ = MulMod(one_, one_, m);
}

uint64_t Montgomery::Pow(uint64_t a, uint64_t exp) const {
  uint64_t result = one_;
  while (exp > 0) {
    if (exp & 1) result = Mul(result, a);
    a = Mul(a, a);
    exp >>= 1;
  }
  return result;
}

namespace {

/// DefaultGroup()'s arithmetic: the Montgomery context for p and the
/// fixed-base table for g, windows[w][d] = g^(d·2^(8w)) in Montgomery form.
struct GroupArith {
  Montgomery mont;
  std::array<std::array<uint64_t, 256>, 4> windows;

  explicit GroupArith(const GroupParams& grp) : mont(grp.p), windows{} {
    uint64_t base = mont.ToMont(grp.g);  // g^(2^(8w)) for the current w.
    for (auto& window : windows) {
      window[0] = mont.One();
      for (size_t d = 1; d < window.size(); ++d) {
        window[d] = mont.Mul(window[d - 1], base);
      }
      base = mont.Mul(window.back(), base);
    }
  }
};

const GroupArith& DefaultGroupArith() {
  static const GroupArith arith(DefaultGroup());
  return arith;
}

}  // namespace

const Montgomery& GroupMont() { return DefaultGroupArith().mont; }

uint64_t PowG(uint64_t x) {
  const GroupArith& arith = DefaultGroupArith();
  if (x >> 32 != 0) {
    return arith.mont.Pow(arith.windows[0][1], x);
  }
  const Montgomery& mont = arith.mont;
  return mont.Mul(mont.Mul(arith.windows[0][x & 0xFF],
                           arith.windows[1][(x >> 8) & 0xFF]),
                  mont.Mul(arith.windows[2][(x >> 16) & 0xFF],
                           arith.windows[3][x >> 24]));
}

}  // namespace ac3::crypto
