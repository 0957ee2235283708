// The block kernels a crypto test covers on this CPU: the scalar reference
// always, and the SHA-NI / AES-NI kernel where the CPU has it.  Tests that
// compare against the hardware kernel itself GTEST_SKIP without it.
#pragma once

#include <vector>

#include "crypto/kernels.hpp"

namespace sgfs::crypto {

inline std::vector<const ShaKernel*> sha_kernels() {
  std::vector<const ShaKernel*> kernels{&kShaScalar};
  if (const ShaKernel* ni = sha_ni_kernel()) kernels.push_back(ni);
  return kernels;
}

inline std::vector<const AesKernel*> aes_kernels() {
  std::vector<const AesKernel*> kernels{&kAesScalar};
  if (const AesKernel* ni = aes_ni_kernel()) kernels.push_back(ni);
  return kernels;
}

}  // namespace sgfs::crypto
