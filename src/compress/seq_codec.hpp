// 2-bit base-sequence compression with the Deorowicz N-escape (paper
// Sec 4.2, Fig 4).
//
// The stored base sequence uses A:00 G:01 C:10 T:11.  A special character
// (N or any non-ACGT letter) is rewritten to 'A' in the sequence and its
// quality score is set to 0 (character SOH, Phred+33 value 33 is quality 0
// — the paper uses "quality score 0" as the sentinel, which is below the
// legal range [33,126] of normal reads).  Decompression recognizes an 'A'
// whose quality char is the sentinel and restores 'N'.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/simd.hpp"

namespace gpf {

/// Quality character reserved for escaped special bases.  SOH (0x01), as
/// in the paper's example ("changes the corresponding quality score to 0...
/// CCCB(SOH)FFFF").
inline constexpr char kEscapeQuality = 0x01;

/// Result of compressing one sequence: the packed 2-bit payload and the
/// possibly-rewritten quality string (escape sentinels inserted).
struct CompressedSequence {
  std::uint32_t length = 0;  // bases before compression
  std::vector<std::uint8_t> packed;
};

/// Packs `sequence` (A/C/G/T/N...) into 2-bit codes.  `quality` must be the
/// same length; sentinel characters are written into it wherever a special
/// base was escaped.
CompressedSequence compress_sequence(std::string_view sequence,
                                     std::string& quality);

/// Unpacks; wherever `quality[i]` equals the sentinel, the base is restored
/// to 'N' and the quality char to '#' (Phred 2, matching the paper's
/// example sequence "CCCB#FFFF").
std::string decompress_sequence(const CompressedSequence& compressed,
                                std::string& quality);

/// Encoded size in bytes for `bases` bases: ceil(bases/4).
std::size_t packed_size(std::size_t bases);

namespace detail {

/// compress_sequence() at an explicit level, which picks only the AVX2
/// pack (kAvx2 and up) over the SWAR one; tests and the perf harness call
/// it to check and time each level on one machine.
CompressedSequence compress_sequence_at(simd::Level level,
                                        std::string_view sequence,
                                        std::string& quality);
/// Test oracles and benchmark baselines: one base at a time, with the same
/// outputs and exceptions as the public functions.
CompressedSequence compress_sequence_reference(std::string_view sequence,
                                               std::string& quality);
std::string decompress_sequence_reference(
    const CompressedSequence& compressed, std::string& quality);

}  // namespace detail

}  // namespace gpf
