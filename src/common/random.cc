#include "src/common/random.h"

#include <cassert>
#include <cmath>

namespace ac3 {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& lane : s_) lane = SplitMix64(&sm);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling over the largest multiple of bound.
  const uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::NextExponential(double mean) {
  assert(mean > 0);
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

Bytes Rng::NextBytes(size_t n) {
  Bytes out;
  out.reserve(n);
  while (out.size() < n) {
    uint64_t r = NextU64();
    for (int i = 0; i < 8 && out.size() < n; ++i) {
      out.push_back(static_cast<uint8_t>(r >> (8 * i)));
    }
  }
  return out;
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace ac3
