// Shared test helper: the SIMD dispatch levels this CPU can execute, so
// every differential wall runs each level's kernel against its reference.
#pragma once

#include <vector>

#include "common/simd.hpp"

namespace gpf::tests {

/// kScalar and every higher level up to simd::detect_level().  The
/// GPF_SIMD_MAX cap bounds dispatch only, not the levels a test calls
/// explicitly, so a capped run still checks every level the CPU has.
inline std::vector<simd::Level> runnable_levels() {
  std::vector<simd::Level> levels;
  for (const simd::Level level :
       {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (level <= simd::detect_level()) levels.push_back(level);
  }
  return levels;
}

}  // namespace gpf::tests
