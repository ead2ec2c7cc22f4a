// Differential fuzzing for the block-parallel text parsers: for thousands
// of generated inputs — valid writer output plus mutated blobs — the fast
// path (dispatched SIMD level, optionally with a tiny parallel threshold)
// must agree with the byte-at-a-time reference parser byte for byte:
// identical records on success, identical std::invalid_argument messages
// on failure.
//
// The suite runs under GPF_FUZZ_SEED (see .github/workflows/ci.yml, which
// sweeps seeds under ASan with dispatch uncapped and capped by
// GPF_SIMD_MAX=avx2 and =scalar); any
// failure message includes the seed and the offending blob.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "engine/fault_injector.hpp"
#include "formats/fastq.hpp"
#include "formats/sam.hpp"
#include "formats/scan.hpp"
#include "formats/vcf.hpp"
#include "test_levels.hpp"

namespace gpf {
namespace {

constexpr int kCasesPerFormat = 1200;

std::uint64_t fuzz_seed() {
  // Strict parse: a malformed GPF_FUZZ_SEED aborts the suite instead of
  // silently collapsing the CI sweep onto one default seed.
  return engine::seed_from_env("GPF_FUZZ_SEED", 42);
}

/// Outcome of a parse attempt: the value, or the error message.
template <typename T>
struct Outcome {
  std::optional<T> value;
  std::string error;

  bool operator==(const Outcome&) const = default;
};

template <typename Fn>
auto run_catch(Fn&& fn) -> Outcome<decltype(fn())> {
  try {
    return {fn(), {}};
  } catch (const std::invalid_argument& e) {
    return {std::nullopt, e.what()};
  }
}

/// `prefix + std::to_string(n)` via append; the operator+ spelling trips
/// a GCC 12 -Wrestrict false positive when fully inlined at -O3.
std::string numbered(const char* prefix, std::uint64_t n) {
  std::string s(prefix);
  s += std::to_string(n);
  return s;
}

/// Printable (mostly) random name for headers/qnames.
std::string random_name(Rng& rng, std::size_t max_len) {
  std::string s;
  const std::size_t len = 1 + rng.below(max_len);
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('!' + rng.below(94)));  // [0x21, 0x7E]
  }
  return s;
}

std::string random_bases(Rng& rng, std::size_t max_len) {
  static constexpr char kBases[] = {'A', 'C', 'G', 'T', 'N'};
  std::string s;
  const std::size_t len = rng.below(max_len + 1);
  for (std::size_t i = 0; i < len; ++i) s.push_back(kBases[rng.below(5)]);
  return s;
}

/// Applies `count` random byte-level mutations: substitute, insert,
/// delete, truncate, duplicate a slice, or flip a newline.
void mutate(Rng& rng, std::string& text, int count) {
  for (int m = 0; m < count && !text.empty(); ++m) {
    const std::size_t at = rng.below(text.size());
    switch (rng.below(7)) {
      case 0:  // substitute with an arbitrary byte (NUL..0xFF)
        text[at] = static_cast<char>(rng.below(256));
        break;
      case 1:  // insert an arbitrary byte
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                    static_cast<char>(rng.below(256)));
        break;
      case 2:  // delete one byte
        text.erase(at, 1);
        break;
      case 3:  // truncate
        text.resize(at);
        break;
      case 4: {  // duplicate a short slice
        const std::size_t len = std::min(text.size() - at, rng.below(16) + 1);
        text.insert(at, text.substr(at, len));
        break;
      }
      case 5:  // inject a newline (reframes every later line)
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), '\n');
        break;
      default:  // smash a newline into a space
        if (const std::size_t nl = text.find('\n', at);
            nl != std::string::npos) {
          text[nl] = ' ';
        }
        break;
    }
  }
}

/// Randomly rewrites "\n" as "\r\n" (the parsers accept CRLF transparently
/// on *valid* inputs).
std::string with_crlf(Rng& rng, const std::string& text) {
  std::string out;
  out.reserve(text.size() + text.size() / 4);
  for (const char c : text) {
    if (c == '\n' && rng.below(2) == 0) out.push_back('\r');
    out.push_back(c);
  }
  return out;
}

// --- FASTQ -------------------------------------------------------------

std::string random_fastq_text(Rng& rng) {
  std::vector<FastqRecord> records;
  const std::size_t n = rng.below(12);
  for (std::size_t i = 0; i < n; ++i) {
    FastqRecord r;
    r.name = random_name(rng, 12);
    r.sequence = random_bases(rng, 40);
    r.quality.resize(r.sequence.size());
    for (auto& q : r.quality) {
      q = static_cast<char>(kPhredBase + rng.below(kPhredMax - kPhredBase + 1));
    }
    records.push_back(std::move(r));
  }
  return write_fastq(records);
}

void check_fastq_agreement(std::uint64_t seed, const std::string& text,
                           std::size_t threshold) {
  const simd::Level level = simd::active_level();
  const auto ref =
      run_catch([&] { return detail::parse_fastq_reference(text); });
  const auto fast =
      run_catch([&] { return detail::parse_fastq_at(level, text, threshold); });
  ASSERT_EQ(ref, fast) << "seed=" << seed << " threshold=" << threshold
                       << " blob:\n"
                       << text;
  // The validation-only scan must agree with the full parse exactly.
  const auto scan =
      run_catch([&] { return detail::scan_fastq_at(level, text, threshold); });
  ASSERT_EQ(scan.error, ref.error) << "seed=" << seed << " blob:\n" << text;
  if (ref.value.has_value()) {
    FastqScanStats expected;
    expected.records = ref.value->size();
    for (const auto& r : *ref.value) expected.bases += r.sequence.size();
    ASSERT_EQ(scan.value.value(), expected) << "seed=" << seed;
  }
}

TEST(FormatsFuzz, FastqDifferential) {
  const std::uint64_t seed = fuzz_seed();
  Rng rng(seed * 0x9E37'79B9ULL + 1);
  for (int c = 0; c < kCasesPerFormat; ++c) {
    std::string text = random_fastq_text(rng);
    if (rng.below(4) == 0) text = with_crlf(rng, text);
    if (rng.below(8) != 0) {
      mutate(rng, text, 1 + static_cast<int>(rng.below(3)));
    }
    // Every 8th case forces the parallel driver (threshold 1) so chunked
    // line indexing and cross-chunk record stitching run on small blobs.
    const std::size_t threshold = c % 8 == 0 ? 1 : fmt::kParallelParseBytes;
    check_fastq_agreement(seed, text, threshold);
  }
}

TEST(FormatsFuzz, FastqValidInputsAlwaysParse) {
  const std::uint64_t seed = fuzz_seed();
  Rng rng(seed * 0x9E37'79B9ULL + 2);
  for (int c = 0; c < 200; ++c) {
    const std::string text = random_fastq_text(rng);
    const auto parsed = parse_fastq(text);  // must not throw
    EXPECT_EQ(write_fastq(parsed), text) << "seed=" << seed;
  }
}

// --- SAM ---------------------------------------------------------------

std::string random_sam_text(Rng& rng) {
  SamHeader header;
  const std::size_t n_contigs = 1 + rng.below(3);
  for (std::size_t c = 0; c < n_contigs; ++c) {
    header.contigs.push_back(
        {numbered("c", c), static_cast<std::int64_t>(1000 + rng.below(9000))});
  }
  header.coordinate_sorted = rng.below(2) == 0;
  std::vector<SamRecord> records;
  const std::size_t n = rng.below(10);
  for (std::size_t i = 0; i < n; ++i) {
    SamRecord r;
    r.qname = random_name(rng, 10);
    r.flag = static_cast<std::uint16_t>(rng.below(0x1000));
    r.contig_id = static_cast<std::int32_t>(rng.below(n_contigs + 1)) - 1;
    r.pos = static_cast<std::int64_t>(rng.below(10'000)) - 1;
    r.mapq = static_cast<std::uint8_t>(rng.below(255));
    const std::string seq = random_bases(rng, 30);
    if (!seq.empty()) {
      r.cigar = {{CigarOp::kSoftClip, 2},
                 {CigarOp::kMatch, static_cast<std::uint32_t>(seq.size())}};
    }
    r.mate_contig_id = static_cast<std::int32_t>(rng.below(n_contigs + 1)) - 1;
    r.mate_pos = static_cast<std::int64_t>(rng.below(10'000)) - 1;
    r.tlen = static_cast<std::int64_t>(rng.below(600)) - 300;
    r.sequence = seq;
    r.quality = std::string(seq.size(), static_cast<char>('!' + rng.below(90)));
    records.push_back(std::move(r));
  }
  return write_sam(header, records);
}

TEST(FormatsFuzz, SamDifferential) {
  const std::uint64_t seed = fuzz_seed();
  Rng rng(seed * 0x9E37'79B9ULL + 3);
  const simd::Level level = simd::active_level();
  for (int c = 0; c < kCasesPerFormat; ++c) {
    std::string text = random_sam_text(rng);
    if (rng.below(4) == 0) text = with_crlf(rng, text);
    if (rng.below(8) != 0) {
      mutate(rng, text, 1 + static_cast<int>(rng.below(3)));
    }
    const std::size_t threshold = c % 8 == 0 ? 1 : fmt::kParallelParseBytes;
    const auto ref =
        run_catch([&] { return detail::parse_sam_reference(text); });
    const auto fast =
        run_catch([&] { return detail::parse_sam_at(level, text, threshold); });
    ASSERT_EQ(ref, fast) << "seed=" << seed << " threshold=" << threshold
                         << " blob:\n"
                         << text;
  }
}

// --- VCF ---------------------------------------------------------------

std::string random_vcf_text(Rng& rng) {
  VcfHeader header;
  const std::size_t n_contigs = 1 + rng.below(3);
  for (std::size_t c = 0; c < n_contigs; ++c) {
    header.contigs.push_back(
        {numbered("c", c), static_cast<std::int64_t>(1000 + rng.below(9000))});
  }
  header.sample_name = random_name(rng, 8);
  std::vector<VcfRecord> records;
  const std::size_t n = rng.below(10);
  for (std::size_t i = 0; i < n; ++i) {
    VcfRecord v;
    v.contig_id = static_cast<std::int32_t>(rng.below(n_contigs));
    v.pos = static_cast<std::int64_t>(rng.below(10'000));
    v.id = rng.below(2) == 0 ? "." : numbered("rs", rng.below(100000));
    v.ref = random_bases(rng, 4);
    if (v.ref.empty()) v.ref.push_back('A');
    v.alt = random_bases(rng, 4);
    if (v.alt.empty()) v.alt.push_back('C');
    v.qual = static_cast<double>(rng.below(10'000)) / 100.0;  // %.2f-exact
    v.genotype = static_cast<Genotype>(rng.below(3));
    records.push_back(std::move(v));
  }
  return write_vcf(header, records);
}

TEST(FormatsFuzz, VcfDifferential) {
  const std::uint64_t seed = fuzz_seed();
  Rng rng(seed * 0x9E37'79B9ULL + 4);
  const simd::Level level = simd::active_level();
  for (int c = 0; c < kCasesPerFormat; ++c) {
    std::string text = random_vcf_text(rng);
    if (rng.below(4) == 0) text = with_crlf(rng, text);
    if (rng.below(8) != 0) {
      mutate(rng, text, 1 + static_cast<int>(rng.below(3)));
    }
    const std::size_t threshold = c % 8 == 0 ? 1 : fmt::kParallelParseBytes;
    const auto ref =
        run_catch([&] { return detail::parse_vcf_reference(text); });
    const auto fast =
        run_catch([&] { return detail::parse_vcf_at(level, text, threshold); });
    ASSERT_EQ(ref, fast) << "seed=" << seed << " threshold=" << threshold
                         << " blob:\n"
                         << text;
  }
}

// --- scan-layer kernels ------------------------------------------------

TEST(FormatsFuzz, ScanKernelsAgreeWithByteLoops) {
  const std::uint64_t seed = fuzz_seed();
  Rng rng(seed * 0x9E37'79B9ULL + 5);
  const simd::Level level = simd::active_level();
  for (int c = 0; c < 500; ++c) {
    std::string buf(64 + rng.below(192), '\0');
    for (auto& ch : buf) ch = static_cast<char>(rng.below(256));
    const char needle = static_cast<char>(rng.below(256));
    const auto lo = static_cast<std::uint8_t>(1 + rng.below(120));
    const auto hi = static_cast<std::uint8_t>(lo + rng.below(127u - lo + 1));

    // Block kernels: every dispatch level yields the byte-loop mask.
    std::uint64_t expected_eq = 0;
    std::uint64_t expected_bad = 0;
    for (int i = 0; i < 64; ++i) {
      const auto b =
          static_cast<std::uint8_t>(buf[static_cast<std::size_t>(i)]);
      if (static_cast<char>(b) == needle) expected_eq |= std::uint64_t{1} << i;
      if (b < lo || b > hi) expected_bad |= std::uint64_t{1} << i;
    }
    for (const simd::Level l : tests::runnable_levels()) {
      ASSERT_EQ(fmt::eq_block_mask(l, buf.data(), needle), expected_eq)
          << "seed=" << seed << " level=" << simd::level_name(l);
      ASSERT_EQ(fmt::range_violation_block_mask(l, buf.data(), lo, hi),
                expected_bad)
          << "seed=" << seed << " level=" << simd::level_name(l);
    }

    ASSERT_EQ(fmt::bytes_in_range(level, buf, lo, hi),
              fmt::detail::bytes_in_range_reference(buf, lo, hi))
        << "seed=" << seed;

    std::vector<std::string_view> fast_fields;
    std::vector<std::string_view> ref_fields;
    fmt::split_fields(level, buf, needle, fast_fields);
    fmt::detail::split_fields_reference(buf, needle, ref_fields);
    ASSERT_EQ(fast_fields, ref_fields) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace gpf
