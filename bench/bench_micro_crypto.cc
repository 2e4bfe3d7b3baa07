// Engineering micro-benchmarks (google-benchmark): the cryptographic
// substrate every protocol operation rests on — SHA-256, Schnorr
// signatures, ms(D) multisignatures, Merkle trees, and the commitment
// schemes.

#include <benchmark/benchmark.h>

#include "src/common/random.h"
#include "src/crypto/commitment.h"
#include "src/crypto/merkle.h"
#include "src/crypto/multisig.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/sha256.h"

namespace ac3::crypto {
namespace {

void BM_Sha256(benchmark::State& state) {
  Rng rng(1);
  Bytes data = rng.NextBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hash256::Of(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(32)->Arg(256)->Arg(4096)->Arg(65536);

void BM_KeyPairFromSeed(benchmark::State& state) {
  uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(KeyPair::FromSeed(seed++));
  }
}
BENCHMARK(BM_KeyPairFromSeed);

void BM_SchnorrSign(benchmark::State& state) {
  KeyPair key = KeyPair::FromSeed(7);
  Rng rng(2);
  Bytes message = rng.NextBytes(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.Sign(message));
  }
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  KeyPair key = KeyPair::FromSeed(7);
  Rng rng(2);
  Bytes message = rng.NextBytes(64);
  Signature sig = key.Sign(message);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Verify(key.public_key(), message, sig));
  }
}
BENCHMARK(BM_SchnorrVerify);

/// Decoding an ms(D) of N parts, where each part's signature is verified
/// (VerifyAll then only checks which signers are present): what an SCw
/// deploy and a registration with Trent pay for the multisignature.
void BM_MultisigDecode(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  Bytes message = rng.NextBytes(128);
  Multisignature ms(message);
  for (int i = 0; i < n; ++i) {
    (void)ms.AddSignature(KeyPair::FromSeed(100 + static_cast<uint64_t>(i)));
  }
  const Bytes encoded = Encode(ms);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Decode<Multisignature>(encoded));
  }
}
BENCHMARK(BM_MultisigDecode)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_MerkleBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(4);
  std::vector<Hash256> leaves;
  for (size_t i = 0; i < n; ++i) leaves.push_back(Hash256::Of(rng.NextBytes(32)));
  for (auto _ : state) {
    MerkleTree tree(leaves);
    benchmark::DoNotOptimize(tree.root());
  }
}
BENCHMARK(BM_MerkleBuild)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_MerkleProveVerify(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(5);
  std::vector<Hash256> leaves;
  for (size_t i = 0; i < n; ++i) leaves.push_back(Hash256::Of(rng.NextBytes(32)));
  MerkleTree tree(leaves);
  auto proof = tree.Prove(n / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        VerifyMerkleProof(leaves[n / 2], *proof, tree.root()));
  }
}
BENCHMARK(BM_MerkleProveVerify)->Arg(64)->Arg(1024);

void BM_HashlockVerify(benchmark::State& state) {
  Rng rng(6);
  Bytes secret = rng.NextBytes(32);
  HashlockCommitment lock = HashlockCommitment::FromSecret(secret);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lock.VerifySecret(secret));
  }
}
BENCHMARK(BM_HashlockVerify);

void BM_SignatureCommitmentVerify(benchmark::State& state) {
  KeyPair trent = KeyPair::FromSeed(9);
  Hash256 ms_id = Hash256::Of(Bytes{1, 2, 3});
  SignatureCommitment commitment(ms_id, trent.public_key(),
                                 CommitmentTag::kRedeem);
  Signature secret =
      trent.Sign(SignatureCommitmentMessage(ms_id, CommitmentTag::kRedeem));
  for (auto _ : state) {
    benchmark::DoNotOptimize(commitment.VerifySecret(secret));
  }
}
BENCHMARK(BM_SignatureCommitmentVerify);

}  // namespace
}  // namespace ac3::crypto

BENCHMARK_MAIN();
