// Shared helpers for tests that iterate the SHA-256 dispatch ladder
// (tests/crypto_test.cc and tests/hotpath_test.cc): a RAII guard that
// restores the entry dispatch level, and the enumeration of levels
// available in this process. Kept in one place so adding a dispatch
// level extends every equivalence suite at once.

#ifndef AC3_TESTS_DISPATCH_TEST_UTIL_H_
#define AC3_TESTS_DISPATCH_TEST_UTIL_H_

#include <vector>

#include "src/crypto/sha256.h"

namespace ac3::testutil {

/// Restores the entry SHA-256 dispatch level on scope exit, so a failing
/// equivalence test cannot leak a forced level into later tests.
class DispatchGuard {
 public:
  DispatchGuard() : saved_(crypto::Sha256::ActiveDispatch()) {}
  ~DispatchGuard() { crypto::Sha256::SetDispatch(saved_); }

 private:
  crypto::Sha256::Dispatch saved_;
};

/// Every dispatch level this process can run, top rung first (honors the
/// AC3_SHA256_DISPATCH pin, under which only the pinned level lists).
inline std::vector<crypto::Sha256::Dispatch> AvailableDispatches() {
  std::vector<crypto::Sha256::Dispatch> levels;
  for (crypto::Sha256::Dispatch level : crypto::Sha256::kDispatchLadder) {
    if (crypto::Sha256::DispatchAvailable(level)) levels.push_back(level);
  }
  return levels;
}

}  // namespace ac3::testutil

#endif  // AC3_TESTS_DISPATCH_TEST_UTIL_H_
