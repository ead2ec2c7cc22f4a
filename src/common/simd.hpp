// Portable SIMD/SWAR support for the hot codec and alignment kernels.
//
// Three dispatch levels: a pure-C++ 64-bit SWAR path that compiles and runs
// everywhere (the only level off x86-64 or without AVX2), and guarded AVX2
// and AVX-512 paths picked at runtime from CPUID.  A level gates intrinsics
// only: pure-C++ fast paths (table codecs, SWAR loops) run at every level.
// GPF_SIMD_MAX=scalar|avx2|avx512 caps dispatch at that level (the perf
// harness and the tests use it to measure and check every level on one
// binary).  Only the two batched DP kernels (pair-HMM, glocal_batch) have
// an AVX-512 build; every other kernel runs its AVX2 path at kAvx512.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>

#if defined(__x86_64__) || defined(_M_X64)
#define GPF_SIMD_X86 1
#include <immintrin.h>
#endif

namespace gpf::simd {

/// Dispatch levels, ordered so `level >= kAvx2` style comparisons work.
enum class Level : int {
  kScalar = 0,  // 64-bit SWAR, no intrinsics
  kAvx2 = 1,    // 256-bit AVX2
  kAvx512 = 2,  // 512-bit AVX-512 F/BW/DQ/VL
};

inline const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
  }
  return "?";
}

/// Highest level this CPU supports (compile-time gated, then CPUID; the
/// AVX-512 check also requires the OS to save the zmm state).
inline Level detect_level() {
#if defined(GPF_SIMD_X86) && (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl")) {
    return Level::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
  return Level::kScalar;
}

/// Parses a GPF_SIMD_MAX value into the highest level dispatch may use.
/// A level name caps at that level; an empty value means no cap.  Any
/// other value throws std::invalid_argument rather than running uncapped.
inline Level parse_level_cap(std::string_view value) {
  if (value.empty()) return Level::kAvx512;
  for (const Level level : {Level::kScalar, Level::kAvx2, Level::kAvx512}) {
    if (value == level_name(level)) return level;
  }
  std::string msg = "GPF_SIMD_MAX: unknown level '";
  msg.append(value);
  msg.append("' (expected scalar, avx2 or avx512)");
  throw std::invalid_argument(msg);
}

/// Active dispatch level: detect_level(), capped by GPF_SIMD_MAX when it is
/// set.  Cached after the first call (env + CPUID cost once); a bad
/// GPF_SIMD_MAX throws from every call.
inline Level active_level() {
  static const Level cached = [] {
    const char* cap = std::getenv("GPF_SIMD_MAX");
    return std::min(detect_level(),
                    parse_level_cap(cap != nullptr ? cap : ""));
  }();
  return cached;
}

// --- 64-bit SWAR primitives -------------------------------------------------
//
// Treat a std::uint64_t as eight byte lanes.  All helpers are branch-free
// and exact per lane (no carry bleed between lanes).

inline constexpr std::uint64_t kLaneLsb = 0x0101010101010101ULL;
inline constexpr std::uint64_t kLaneMsb = 0x8080808080808080ULL;

/// Replicates `b` into all eight lanes.
inline constexpr std::uint64_t broadcast(std::uint8_t b) {
  return kLaneLsb * b;
}

/// Unaligned little-endian 64-bit load/store.
inline std::uint64_t load_u64(const void* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store_u64(void* p, std::uint64_t v) { std::memcpy(p, &v, sizeof v); }

/// 0x80 in every lane whose byte is zero, 0x00 elsewhere.  Exact per lane
/// (uses the carry-free Hacker's Delight form, not the cheaper variant that
/// over-reports after a zero lane).
inline constexpr std::uint64_t zero_lanes(std::uint64_t v) {
  return ~(((v & ~kLaneMsb) + ~kLaneMsb) | v) & kLaneMsb;
}

/// 0x80 in every lane equal to `b`.
inline constexpr std::uint64_t eq_lanes(std::uint64_t v, std::uint8_t b) {
  return zero_lanes(v ^ broadcast(b));
}

/// 0x80 in every lane whose byte is (unsigned) less than `b`.  Valid for
/// b in [1, 128].  Uses the carry-free Bit Twiddling Hacks "countless"
/// form — the cheaper "hasless" form lets a borrow bleed into the next
/// lane when a low lane underflows, corrupting its neighbor's bit.
inline constexpr std::uint64_t lt_lanes(std::uint64_t v, std::uint8_t b) {
  return (broadcast(static_cast<std::uint8_t>(127 + b)) - (v & ~kLaneMsb)) &
         ~v & kLaneMsb;
}

/// 0x80 in every lane whose byte is (unsigned) greater than `b`.  Valid
/// for b in [0, 127].  Carry-free "countmore" form, for the same reason.
inline constexpr std::uint64_t gt_lanes(std::uint64_t v, std::uint8_t b) {
  return (((v & ~kLaneMsb) + broadcast(static_cast<std::uint8_t>(127 - b))) |
          v) &
         kLaneMsb;
}

/// Compresses a lane mask (0x80 per flagged lane, as produced by eq_lanes
/// and friends) into one bit per lane: bit i set iff lane i was flagged.
/// The SWAR analogue of SSE's movemask.
inline constexpr std::uint8_t movemask_lanes(std::uint64_t lane_mask) {
  return static_cast<std::uint8_t>(
      ((lane_mask & kLaneMsb) * 0x0002040810204081ULL) >> 56);
}

}  // namespace gpf::simd
