// Tests for the alignment substrate: suffix array, FM-index,
// Smith-Waterman, the BWA-MEM-like aligner and the SNAP-like hash aligner.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <numeric>

#include "align/bwamem.hpp"
#include "align/fm_index.hpp"
#include "align/hash_aligner.hpp"
#include "align/smith_waterman.hpp"
#include "align/suffix_array.hpp"
#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "engine/fault_injector.hpp"
#include "simdata/read_sim.hpp"
#include "simdata/reference_gen.hpp"
#include "test_levels.hpp"

namespace gpf::align {
namespace {

// --- suffix array ------------------------------------------------------------

std::vector<std::uint32_t> naive_suffix_array(
    const std::vector<std::uint8_t>& text) {
  std::vector<std::uint32_t> sa(text.size());
  std::iota(sa.begin(), sa.end(), 0);
  std::sort(sa.begin(), sa.end(), [&](std::uint32_t a, std::uint32_t b) {
    return std::lexicographical_compare(text.begin() + a, text.end(),
                                        text.begin() + b, text.end());
  });
  return sa;
}

TEST(SuffixArray, MatchesNaiveOnBanana) {
  const std::string s = "banana";
  std::vector<std::uint8_t> text(s.begin(), s.end());
  text.push_back(0);
  EXPECT_EQ(build_suffix_array(text), naive_suffix_array(text));
}

TEST(SuffixArray, MatchesNaiveOnRandomTexts) {
  Rng rng(61);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.below(500);
    std::vector<std::uint8_t> text(n);
    // Small alphabet with repeated zeros — the hardest case for doubling
    // implementations (multiple identical separators).
    for (auto& c : text) c = static_cast<std::uint8_t>(rng.below(4));
    ASSERT_EQ(build_suffix_array(text), naive_suffix_array(text))
        << "trial " << trial;
  }
}

TEST(SuffixArray, EmptyText) {
  EXPECT_TRUE(build_suffix_array({}).empty());
}

TEST(SuffixArray, BwtFollowsDefinition) {
  const std::string s = "mississippi";
  std::vector<std::uint8_t> text(s.begin(), s.end());
  text.push_back(0);
  const auto sa = build_suffix_array(text);
  const auto bwt = bwt_from_suffix_array(text, sa);
  for (std::size_t i = 0; i < sa.size(); ++i) {
    const std::uint8_t expected =
        sa[i] == 0 ? text.back() : text[sa[i] - 1];
    EXPECT_EQ(bwt[i], expected);
  }
}

// --- FM-index ------------------------------------------------------------------

Reference small_reference() {
  return simdata::generate_reference(
      simdata::ReferenceSpec::genome(120'000, 3, 77));
}

TEST(FmIndex, FindsEverySampledSubstring) {
  const Reference ref = small_reference();
  const FmIndex index(ref);
  Rng rng(71);
  for (int trial = 0; trial < 200; ++trial) {
    const auto cid = static_cast<std::int32_t>(rng.below(ref.contig_count()));
    const auto& seq = ref.contig(cid).sequence;
    const std::size_t len = 20 + rng.below(30);
    if (seq.size() < len + 1) continue;
    const std::size_t pos = rng.below(seq.size() - len);
    const std::string pattern = seq.substr(pos, len);
    if (pattern.find('N') != std::string::npos) continue;
    const SaInterval iv = index.search(pattern);
    ASSERT_FALSE(iv.empty()) << pattern;
    // One of the hits must be the sampled position.
    bool found = false;
    for (std::uint32_t row = iv.lo; row < iv.hi; ++row) {
      const RefPosition rp = index.locate(row);
      if (rp.contig_id == cid &&
          rp.offset == static_cast<std::int64_t>(pos)) {
        found = true;
      }
      // Every hit must actually match the pattern.
      if (rp.contig_id >= 0) {
        EXPECT_EQ(ref.slice(rp.contig_id, rp.offset,
                            static_cast<std::int64_t>(len)),
                  pattern);
      }
    }
    EXPECT_TRUE(found) << "hit list missed source position";
  }
}

TEST(FmIndex, AbsentPatternReturnsEmpty) {
  Reference ref(std::vector<FastaContig>{{"c", "ACACACACACACACACAC"}});
  const FmIndex index(ref);
  EXPECT_TRUE(index.search("GGGGG").empty());
}

TEST(FmIndex, PatternWithNNeverMatches) {
  Reference ref(std::vector<FastaContig>{{"c", "ACGTACGTACGT"}});
  const FmIndex index(ref);
  EXPECT_TRUE(index.search("ACGN").empty());
}

TEST(FmIndex, CrossContigMatchesExcluded) {
  // A pattern spanning the end of contig 1 and start of contig 2 must not
  // match, thanks to the separator.
  Reference ref(std::vector<FastaContig>{{"c1", "AAAACCCC"}, {"c2", "GGGGTTTT"}});
  const FmIndex index(ref);
  EXPECT_TRUE(index.search("CCCCGGGG").empty());
  EXPECT_FALSE(index.search("CCCC").empty());
  EXPECT_FALSE(index.search("GGGG").empty());
}

// --- Smith-Waterman ---------------------------------------------------------

TEST(SmithWaterman, PerfectMatchGlobal) {
  const auto r = banded_global("ACGTACGT", "ACGTACGT", {}, 8);
  EXPECT_EQ(r.score, 8);
  EXPECT_EQ(cigar_to_string(r.cigar), "8M");
  EXPECT_EQ(r.mismatches, 0);
}

TEST(SmithWaterman, GlobalWithMismatch) {
  const auto r = banded_global("ACGTACGT", "ACGAACGT", {}, 8);
  EXPECT_EQ(cigar_to_string(r.cigar), "8M");
  EXPECT_EQ(r.mismatches, 1);
  EXPECT_EQ(r.score, 7 * 1 + 1 * -4);
}

TEST(SmithWaterman, GlobalWithDeletion) {
  // Query lacks 2 bases present in ref.
  const auto r = banded_global("AAAATTTT", "AAAACCTTTT", {}, 8);
  EXPECT_EQ(cigar_to_string(r.cigar), "4M2D4M");
}

TEST(SmithWaterman, GlobalWithInsertion) {
  const auto r = banded_global("AAAACCTTTT", "AAAATTTT", {}, 8);
  EXPECT_EQ(cigar_to_string(r.cigar), "4M2I4M");
}

TEST(SmithWaterman, AffineGapPreferredOverScattered) {
  // One 3-base gap should beat three scattered 1-base gaps under affine
  // scoring: verify the CIGAR has a single indel run.
  const auto r = banded_global("AAAAAAAATTTTTTTT", "AAAAAAAACCCTTTTTTTT", {},
                               12);
  int indel_runs = 0;
  for (const auto& el : r.cigar) {
    if (el.op == CigarOp::kDeletion || el.op == CigarOp::kInsertion) {
      ++indel_runs;
    }
  }
  EXPECT_EQ(indel_runs, 1);
}

TEST(SmithWaterman, GlocalFindsEmbeddedQuery) {
  const std::string ref = "TTTTTTTTTTACGTACGTACGTTTTTTTTTT";
  const auto r = glocal("ACGTACGTACGT", ref, {}, 8);
  EXPECT_EQ(r.score, 12);
  EXPECT_EQ(r.ref_start, 10);
  EXPECT_EQ(r.query_start, 0);
  EXPECT_EQ(cigar_to_string(r.cigar), "12M");
}

TEST(SmithWaterman, GlocalSoftClipsGarbageEnds) {
  // Query has 4 junk bases at the front that should not align ("GA" and
  // "GG" never occur in the ACGT-repeat reference, so no prefix base can
  // profitably extend the local alignment).
  const std::string ref = "ACGTACGTACGTACGTACGT";
  const auto r = glocal("GGGGACGTACGTACGT", ref, {}, 8);
  EXPECT_EQ(r.query_start, 4);
  EXPECT_EQ(r.query_end, 16);
}

TEST(SmithWaterman, GlocalNoMatchReturnsEmpty) {
  const auto r = glocal("AAAA", "TTTT", {}, 4);
  EXPECT_TRUE(r.cigar.empty());
}

TEST(SmithWaterman, EmptyInputs) {
  EXPECT_THROW(banded_global("", "ACGT", {}, 4), std::invalid_argument);
  EXPECT_TRUE(glocal("", "ACGT", {}, 4).cigar.empty());
}

/// The banded-workspace kernels must reproduce the original full-matrix DP
/// exactly: same score, same span, same CIGAR, same mismatch count.
void expect_same_alignment(const AlignmentResult& fast,
                           const AlignmentResult& slow,
                           const std::string& label) {
  EXPECT_EQ(fast.score, slow.score) << label;
  EXPECT_EQ(fast.query_start, slow.query_start) << label;
  EXPECT_EQ(fast.query_end, slow.query_end) << label;
  EXPECT_EQ(fast.ref_start, slow.ref_start) << label;
  EXPECT_EQ(fast.ref_end, slow.ref_end) << label;
  EXPECT_EQ(fast.mismatches, slow.mismatches) << label;
  EXPECT_EQ(cigar_to_string(fast.cigar), cigar_to_string(slow.cigar))
      << label;
}

TEST(SmithWaterman, WorkspaceMatchesReferenceOnFuzzedPairs) {
  Rng rng(181);
  const char bases[] = {'A', 'C', 'G', 'T'};
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t rlen = 8 + rng.below(120);
    std::string ref(rlen, 'A');
    for (auto& c : ref) c = bases[rng.below(4)];
    const std::size_t qlen = 1 + rng.below(rlen);
    std::string query = ref.substr(rng.below(rlen - qlen + 1), qlen);
    // Mutations: substitutions plus an occasional 1-base indel.
    for (int m = 0; m < 4; ++m) {
      query[rng.below(query.size())] = bases[rng.below(4)];
    }
    if (rng.below(3) == 0 && query.size() > 3) {
      query.erase(rng.below(query.size() - 1), 1);
    }
    if (rng.below(3) == 0) {
      query.insert(rng.below(query.size()), 1, bases[rng.below(4)]);
    }
    const int band = 1 + static_cast<int>(rng.below(16));
    const std::string label = "trial " + std::to_string(trial) + " band " +
                              std::to_string(band);
    expect_same_alignment(
        banded_global(query, ref, {}, band),
        detail::banded_global_reference(query, ref, {}, band),
        "global " + label);
    expect_same_alignment(glocal(query, ref, {}, band),
                          detail::glocal_reference(query, ref, {}, band),
                          "glocal " + label);
  }
}

TEST(SmithWaterman, WorkspaceMatchesReferenceOnEdgeShapes) {
  // Degenerate shapes: single-base inputs, query longer than ref, band
  // wider than both sequences, band of 1.
  const struct {
    const char* query;
    const char* ref;
    int band;
  } cases[] = {
      {"A", "A", 1},         {"A", "T", 1},
      {"ACGT", "A", 8},      {"A", "ACGT", 8},
      {"ACGTACGT", "TGCA", 2}, {"ACACACAC", "ACACACAC", 64},
      {"GGGG", "CCCC", 1},
  };
  for (const auto& c : cases) {
    const std::string label =
        std::string(c.query) + "/" + c.ref + " band " + std::to_string(c.band);
    expect_same_alignment(
        banded_global(c.query, c.ref, {}, c.band),
        detail::banded_global_reference(c.query, c.ref, {}, c.band),
        "global " + label);
    expect_same_alignment(glocal(c.query, c.ref, {}, c.band),
                          detail::glocal_reference(c.query, c.ref, {}, c.band),
                          "glocal " + label);
  }
  // Empty inputs behave identically too.
  EXPECT_THROW(detail::banded_global_reference("", "ACGT", {}, 4),
               std::invalid_argument);
  EXPECT_TRUE(detail::glocal_reference("", "ACGT", {}, 4).cigar.empty());
}

TEST(SmithWaterman, CigarConsistencyProperty) {
  Rng rng(83);
  const char bases[] = {'A', 'C', 'G', 'T'};
  for (int trial = 0; trial < 50; ++trial) {
    std::string ref(100, 'A');
    for (auto& c : ref) c = bases[rng.below(4)];
    // Query = mutated slice of ref.
    const std::size_t start = rng.below(40);
    std::string query = ref.substr(start, 50);
    for (int m = 0; m < 3; ++m) {
      query[rng.below(query.size())] = bases[rng.below(4)];
    }
    const auto r = glocal(query, ref, {}, 10);
    if (r.cigar.empty()) continue;
    EXPECT_EQ(cigar_read_length(r.cigar),
              static_cast<std::uint32_t>(r.query_end - r.query_start));
    EXPECT_EQ(cigar_reference_length(r.cigar),
              static_cast<std::uint32_t>(r.ref_end - r.ref_start));
  }
}

TEST(SmithWaterman, NegativeBandIsInvalidArgument) {
  for (const int band : {-1, -3}) {
    EXPECT_THROW(banded_global("ACGT", "ACGT", {}, band),
                 std::invalid_argument);
    EXPECT_THROW(glocal("ACGT", "ACGT", {}, band), std::invalid_argument);
    EXPECT_THROW(detail::banded_global_reference("ACGT", "ACGT", {}, band),
                 std::invalid_argument);
    EXPECT_THROW(detail::glocal_reference("ACGT", "ACGT", {}, band),
                 std::invalid_argument);
    EXPECT_THROW(detail::glocal_at(simd::Level::kScalar, "ACGT", "ACGT", {},
                                   band),
                 std::invalid_argument);
    EXPECT_THROW(detail::banded_global_at(simd::Level::kScalar, "ACGT", "ACGT",
                                          {}, band),
                 std::invalid_argument);
    // Checked before the empty-input rules.
    EXPECT_THROW(glocal("", "ACGT", {}, band), std::invalid_argument);
  }
}

// --- Smith-Waterman differential wall ---------------------------------------
//
// The anti-diagonal kernel must reproduce the full-matrix reference DP at
// every dispatch level this CPU runs: score, spans, mismatches and CIGAR.
// Inputs are drawn under GPF_FUZZ_SEED, which CI sweeps under ASan with
// dispatch uncapped and capped by GPF_SIMD_MAX.

using tests::runnable_levels;

std::uint64_t fuzz_seed() {
  return engine::seed_from_env("GPF_FUZZ_SEED", 42);
}

std::string printable(std::string_view s) {
  std::string out;
  for (const char c : s) {
    const auto b = static_cast<unsigned char>(c);
    if (b >= 0x20 && b < 0x7f) {
      out += c;
    } else {
      out += "\\x" + std::string(1, "0123456789abcdef"[b >> 4]) +
             "0123456789abcdef"[b & 15];
    }
  }
  return out;
}

/// Checks glocal and banded_global at every runnable level, plus the
/// dispatched entry points, against the reference kernels.
void expect_levels_match_reference(std::string_view query,
                                   std::string_view ref,
                                   const ScoringScheme& s, int band) {
  const std::string label =
      "seed " + std::to_string(fuzz_seed()) + " band " +
      std::to_string(band) + " scoring {" + std::to_string(s.match) + "," +
      std::to_string(s.mismatch) + "," + std::to_string(s.gap_open) + "," +
      std::to_string(s.gap_extend) + "," + std::to_string(s.n_score) +
      "} query '" + printable(query) + "' ref '" + printable(ref) + "'";
  const AlignmentResult want_local =
      detail::glocal_reference(query, ref, s, band);
  const AlignmentResult want_global =
      detail::banded_global_reference(query, ref, s, band);
  for (const simd::Level level : runnable_levels()) {
    const std::string at = std::string(simd::level_name(level)) + " " + label;
    expect_same_alignment(detail::glocal_at(level, query, ref, s, band),
                          want_local, "glocal " + at);
    expect_same_alignment(
        detail::banded_global_at(level, query, ref, s, band), want_global,
        "global " + at);
  }
  expect_same_alignment(glocal(query, ref, s, band), want_local,
                        "glocal dispatched " + label);
  expect_same_alignment(banded_global(query, ref, s, band), want_global,
                        "global dispatched " + label);
}

std::string random_seq(Rng& rng, std::size_t n, std::string_view alphabet) {
  std::string s(n, 'A');
  for (auto& c : s) c = alphabet[rng.below(alphabet.size())];
  return s;
}

/// The query as a mutated slice of `ref`: substitutions from `alphabet`
/// plus occasional short indels, so alignments have real structure.
std::string mutated_slice(Rng& rng, const std::string& ref, std::size_t len,
                          std::string_view alphabet) {
  len = std::min(len, ref.size());
  std::string q = ref.substr(rng.below(ref.size() - len + 1), len);
  for (std::size_t k = rng.below(6); k > 0; --k) {
    q[rng.below(q.size())] = alphabet[rng.below(alphabet.size())];
  }
  if (rng.below(2) == 0 && q.size() > 4) {
    q.erase(rng.below(q.size() - 2), 1 + rng.below(3));
  }
  if (rng.below(2) == 0) {
    q.insert(rng.below(q.size() + 1),
             random_seq(rng, 1 + rng.below(3), alphabet));
  }
  return q;
}

std::int32_t draw(Rng& rng, std::int32_t lo, std::int32_t hi) {
  return lo + static_cast<std::int32_t>(
                  rng.below(static_cast<std::uint64_t>(hi - lo + 1)));
}

/// Any small integer scheme: zero scores, gap_open above gap_extend,
/// N scoring above a match.
ScoringScheme random_scoring(Rng& rng) {
  ScoringScheme s;
  s.match = draw(rng, 0, 5);
  s.mismatch = draw(rng, -8, 1);
  s.gap_open = draw(rng, -12, 0);
  s.gap_extend = draw(rng, -6, 0);
  s.n_score = draw(rng, -5, 2);
  return s;
}

TEST(SmithWatermanDifferential, EveryByteValue) {
  Rng rng(fuzz_seed());
  std::string all_bytes(256, '\0');
  for (int b = 0; b < 256; ++b) all_bytes[b] = static_cast<char>(b);
  // Every byte value appears in both roles, against itself and against N.
  for (std::size_t start = 0; start < 256; start += 32) {
    const std::string chunk = all_bytes.substr(start, 32);
    expect_levels_match_reference(chunk, chunk, {}, 4);
    expect_levels_match_reference(chunk, std::string(32, 'N'), {}, 4);
    expect_levels_match_reference(std::string(32, 'n'), chunk, {}, 4);
  }
  for (int trial = 0; trial < 150; ++trial) {
    const std::string_view alphabet =
        trial % 3 == 0 ? std::string_view(all_bytes)
                       : std::string_view(trial % 3 == 1 ? "ACGTNnx" : "AN");
    const std::string ref = random_seq(rng, 1 + rng.below(90), alphabet);
    const std::string query =
        rng.below(2) == 0 ? mutated_slice(rng, ref, 1 + rng.below(80), alphabet)
                          : random_seq(rng, 1 + rng.below(80), alphabet);
    const ScoringScheme s =
        rng.below(2) == 0 ? ScoringScheme{} : random_scoring(rng);
    expect_levels_match_reference(query, ref, s,
                                  static_cast<int>(rng.below(20)));
  }
}

TEST(SmithWatermanDifferential, RandomScoringSchemes) {
  Rng rng(fuzz_seed() + 1);
  for (int trial = 0; trial < 200; ++trial) {
    ScoringScheme s = random_scoring(rng);
    if (trial % 4 == 0) {
      // Extension dearer than opening, and a zero-cost gap open.
      s.gap_extend = draw(rng, -9, -3);
      s.gap_open = draw(rng, s.gap_extend + 1, 0);
    }
    const std::string ref = random_seq(rng, 2 + rng.below(120), "ACGTN");
    const std::string query =
        mutated_slice(rng, ref, 1 + rng.below(100), "ACGTN");
    expect_levels_match_reference(query, ref, s,
                                  static_cast<int>(rng.below(40)));
  }
}

TEST(SmithWatermanDifferential, BandZeroAndBandsWiderThanInputs) {
  Rng rng(fuzz_seed() + 2);
  for (int trial = 0; trial < 120; ++trial) {
    const std::string ref = random_seq(rng, 1 + rng.below(70), "ACGT");
    const std::string query =
        rng.below(2) == 0 ? mutated_slice(rng, ref, 1 + rng.below(70), "ACGT")
                          : random_seq(rng, 1 + rng.below(70), "ACGT");
    const int band = trial % 3 == 0   ? 0
                     : trial % 3 == 1 ? 1
                                      : 100 + static_cast<int>(rng.below(900));
    const ScoringScheme s =
        rng.below(2) == 0 ? ScoringScheme{} : random_scoring(rng);
    expect_levels_match_reference(query, ref, s, band);
  }
}

TEST(SmithWatermanDifferential, QueryLongerThanReference) {
  Rng rng(fuzz_seed() + 3);
  for (int trial = 0; trial < 120; ++trial) {
    const std::string ref = random_seq(rng, 1 + rng.below(60), "ACGT");
    std::string query = ref;
    for (std::size_t k = 1 + rng.below(60); k > 0; --k) {
      query.insert(rng.below(query.size() + 1), 1, "ACGT"[rng.below(4)]);
    }
    for (std::size_t k = rng.below(4); k > 0; --k) {
      query[rng.below(query.size())] = "ACGTN"[rng.below(5)];
    }
    const ScoringScheme s =
        rng.below(2) == 0 ? ScoringScheme{} : random_scoring(rng);
    expect_levels_match_reference(query, ref, s,
                                  static_cast<int>(rng.below(24)));
  }
}

TEST(SmithWatermanDifferential, OneBaseInputs) {
  Rng rng(fuzz_seed() + 4);
  const std::string_view alphabet = "ACNn";
  for (const char a : alphabet) {
    for (const char b : alphabet) {
      for (const int band : {0, 1, 5}) {
        expect_levels_match_reference(std::string(1, a), std::string(1, b), {},
                                      band);
      }
    }
  }
  for (int trial = 0; trial < 60; ++trial) {
    const std::string one(1, "ACGTN"[rng.below(5)]);
    const std::string other = random_seq(rng, 1 + rng.below(40), "ACGTN");
    const ScoringScheme s =
        rng.below(2) == 0 ? ScoringScheme{} : random_scoring(rng);
    const int band = static_cast<int>(rng.below(8));
    expect_levels_match_reference(one, other, s, band);
    expect_levels_match_reference(other, one, s, band);
  }
}

TEST(SmithWatermanDifferential, RepeatRichTiedMaxima) {
  // Periodic sequences and homopolymers give many cells with the same best
  // local score; the kernel must pick the reference's row-major first one.
  Rng rng(fuzz_seed() + 5);
  const std::string_view units[] = {"A", "AC", "ACG", "AAC", "ACGT"};
  for (int trial = 0; trial < 150; ++trial) {
    const std::string_view unit = units[rng.below(std::size(units))];
    const std::size_t rlen = 10 + rng.below(120);
    std::string ref;
    while (ref.size() < rlen) ref += unit;
    const std::string_view qunit = units[rng.below(std::size(units))];
    const std::size_t qlen = 1 + rng.below(60);
    std::string query;
    while (query.size() < qlen) query += qunit;
    if (rng.below(2) == 0) query[rng.below(query.size())] = 'T';
    ScoringScheme s;
    if (trial % 2 == 0) {
      s.match = 1;
      s.mismatch = -1;
      s.gap_open = draw(rng, -2, 0);
      s.gap_extend = draw(rng, -1, 0);
    }
    expect_levels_match_reference(query, ref, s,
                                  static_cast<int>(rng.below(30)));
  }
}

TEST(SmithWatermanDifferential, PipelineShapes) {
  // The callers' shapes: read extension (100 x 148, band 16), mate rescue
  // (100 x 1020, band 16), realignment (100 x 260, band 24) and haplotype
  // scoring (300 x 300 global, band 24).
  Rng rng(fuzz_seed() + 6);
  const struct {
    std::size_t qlen, rlen;
    int band;
  } shapes[] = {{100, 148, 16}, {100, 1020, 16}, {100, 260, 24},
                {300, 300, 24}};
  for (const auto& shape : shapes) {
    for (int trial = 0; trial < 4; ++trial) {
      const std::string ref = random_seq(rng, shape.rlen, "ACGT");
      std::string query = shape.qlen == shape.rlen
                              ? mutated_slice(rng, ref, shape.qlen, "ACGT")
                              : ref.substr(rng.below(shape.rlen - shape.qlen),
                                           shape.qlen);
      for (std::size_t k = rng.below(5); k > 0; --k) {
        query[rng.below(query.size())] = "ACGTN"[rng.below(5)];
      }
      expect_levels_match_reference(query, ref, {}, shape.band);
    }
  }
}

// --- batch kernel: glocal_batch against the reference -----------------------
//
// glocal_batch must return, for every job, the full-matrix reference's
// glocal result at every dispatch level: 32 lanes under AVX-512, 16 under
// AVX2, 1 at kScalar, with the int32 kernel taking the jobs int16 cannot
// hold and the groups too small to fill half a vector.

struct BatchCase {
  std::string query;
  std::string ref;
};

void expect_batch_matches_reference(const std::vector<BatchCase>& cases,
                                    const ScoringScheme& s, int band,
                                    const std::string& what) {
  std::vector<GlocalJob> jobs;
  for (const auto& c : cases) jobs.push_back({c.query, c.ref});
  std::vector<AlignmentResult> want;
  for (const auto& c : cases) {
    want.push_back(detail::glocal_reference(c.query, c.ref, s, band));
  }
  const std::string label =
      what + " seed " + std::to_string(fuzz_seed()) + " band " +
      std::to_string(band) + " scoring {" + std::to_string(s.match) + "," +
      std::to_string(s.mismatch) + "," + std::to_string(s.gap_open) + "," +
      std::to_string(s.gap_extend) + "," + std::to_string(s.n_score) + "}";
  auto check = [&](const std::vector<AlignmentResult>& got,
                   const std::string& at) {
    ASSERT_EQ(got.size(), cases.size()) << at;
    for (std::size_t k = 0; k < cases.size(); ++k) {
      expect_same_alignment(got[k], want[k],
                            at + " job " + std::to_string(k) + " query '" +
                                printable(cases[k].query) + "' ref '" +
                                printable(cases[k].ref) + "'");
    }
  };
  std::vector<AlignmentResult> got;
  for (const simd::Level level : runnable_levels()) {
    detail::glocal_batch_at(level, jobs, s, band, got);
    check(got, std::string(simd::level_name(level)) + " " + label);
  }
  glocal_batch(jobs, s, band, got);
  check(got, "dispatched " + label);
}

/// `count` read-extension jobs of one shape: mutated slices of random
/// windows, some with N bytes.
std::vector<BatchCase> extension_cases(Rng& rng, std::size_t count,
                                       std::size_t qlen, std::size_t wlen) {
  std::vector<BatchCase> cases;
  while (cases.size() < count) {
    BatchCase c;
    c.ref = random_seq(rng, wlen, "ACGT");
    c.query = c.ref.substr(rng.below(wlen - qlen + 1), qlen);
    for (std::size_t k = rng.below(6); k > 0; --k) {
      c.query[rng.below(qlen)] = "ACGTN"[rng.below(5)];
    }
    if (qlen > 8 && rng.below(3) == 0) {
      // A 1-3 base deletion padded back to length, so the shape holds.
      const std::size_t at = rng.below(qlen - 4);
      const std::size_t len = 1 + rng.below(3);
      c.query.erase(at, len);
      c.query += random_seq(rng, len, "ACGT");
    }
    if (rng.below(4) == 0) c.ref[rng.below(wlen)] = 'N';
    cases.push_back(std::move(c));
  }
  return cases;
}

TEST(SmithWatermanDifferential, BatchSizes) {
  // Below, at and past one and two 16- and 32-lane vectors: padded lanes,
  // full vectors, the 32-lane half-vector cutoff at 16, int32 tails and a
  // two-vector tail.
  Rng rng(fuzz_seed() + 20);
  for (const std::size_t count : {1, 15, 16, 17, 31, 32, 33, 48, 65}) {
    expect_batch_matches_reference(extension_cases(rng, count, 100, 148), {},
                                   16, "size " + std::to_string(count));
  }
}

TEST(SmithWatermanDifferential, BatchMixedShapes) {
  // Several shapes interleaved in one call, some groups big enough for a
  // vector and some not, plus empty jobs.
  Rng rng(fuzz_seed() + 21);
  const struct {
    std::size_t qlen, wlen, count;
  } shapes[] = {{100, 148, 20}, {100, 140, 9},  {60, 90, 5},
                {30, 30, 12},   {40, 20, 10},   {100, 1020, 8},
                {1, 5, 9},      {7, 120, 3}};
  std::vector<BatchCase> cases;
  for (const auto& shape : shapes) {
    auto group = extension_cases(rng, shape.count,
                                 std::min(shape.qlen, shape.wlen),
                                 shape.wlen);
    if (shape.qlen > shape.wlen) {
      for (auto& c : group) {
        c.query += random_seq(rng, shape.qlen - shape.wlen, "ACGT");
      }
    }
    cases.insert(cases.end(), group.begin(), group.end());
  }
  cases.push_back({"", "ACGT"});
  cases.push_back({"ACGT", ""});
  for (std::size_t k = cases.size(); k > 1; --k) {
    std::swap(cases[k - 1], cases[rng.below(k)]);
  }
  expect_batch_matches_reference(cases, {}, 16, "mixed");
  expect_batch_matches_reference(cases, random_scoring(rng),
                                 static_cast<int>(rng.below(24)), "mixed");
}

TEST(SmithWatermanDifferential, BatchNBytesAndUnrelatedQueries) {
  Rng rng(fuzz_seed() + 22);
  std::vector<BatchCase> cases;
  for (int k = 0; k < 24; ++k) {
    // N-rich jobs: N scores n_score against anything, N included.
    BatchCase c;
    c.ref = random_seq(rng, 80, "ACGTN");
    c.query = random_seq(rng, 50, k % 2 == 0 ? "ACGTN" : "NNNNA");
    cases.push_back(std::move(c));
  }
  for (int k = 0; k < 20; ++k) {
    // Unrelated queries: nothing scores above zero.
    cases.push_back({std::string(50, "AC"[k % 2]), std::string(80, 'G')});
  }
  expect_batch_matches_reference(cases, {}, 8, "N and unrelated");
  std::vector<GlocalJob> jobs;
  for (const auto& c : cases) jobs.push_back({c.query, c.ref});
  std::vector<AlignmentResult> got;
  glocal_batch(jobs, {}, 8, got);
  for (std::size_t k = 24; k < cases.size(); ++k) {
    EXPECT_TRUE(got[k].cigar.empty()) << k;
    EXPECT_EQ(got[k].score, 0) << k;
  }
}

TEST(SmithWatermanDifferential, BatchEveryByteValue) {
  // Bytes load as unsigned codes, so bytes >= 0x80 score by equality like
  // any other, not as N.
  Rng rng(fuzz_seed() + 26);
  std::string all_bytes(256, '\0');
  for (int b = 0; b < 256; ++b) all_bytes[b] = static_cast<char>(b);
  std::vector<BatchCase> cases;
  for (std::size_t start = 0; start < 256; start += 16) {
    BatchCase c;
    c.query = all_bytes.substr(start, 32 - start / 16);
    c.ref = random_seq(rng, 8, all_bytes) + c.query +
            random_seq(rng, 8 + start / 16, all_bytes);
    c.query[rng.below(c.query.size())] = 'N';
    cases.push_back(std::move(c));
  }
  // One shape for all: 16 jobs of 16..31 query bytes padded to 32.
  for (auto& c : cases) {
    c.query += random_seq(rng, 32 - c.query.size(), all_bytes);
    c.ref.resize(48);
  }
  expect_batch_matches_reference(cases, {}, 4, "every byte");
  expect_batch_matches_reference(cases, random_scoring(rng), 6, "every byte");
}

TEST(SmithWatermanDifferential, BatchTiedMaxima) {
  // Periodic sequences: many cells share the best score, and each lane
  // must keep the reference's row-major first one.
  Rng rng(fuzz_seed() + 23);
  const std::string_view units[] = {"A", "AC", "ACG", "AAC", "ACGT"};
  for (int round = 0; round < 6; ++round) {
    std::vector<BatchCase> cases;
    for (int k = 0; k < 20; ++k) {
      std::string ref, query;
      const std::string_view unit = units[rng.below(std::size(units))];
      while (ref.size() < 90) ref += unit;
      const std::string_view qunit = units[rng.below(std::size(units))];
      while (query.size() < 40) query += qunit;
      ref.resize(90);
      query.resize(40);
      if (rng.below(2) == 0) query[rng.below(query.size())] = 'T';
      cases.push_back({std::move(query), std::move(ref)});
    }
    ScoringScheme s;
    if (round % 2 == 0) {
      s.match = 1;
      s.mismatch = -1;
      s.gap_open = draw(rng, -2, 0);
      s.gap_extend = draw(rng, -1, 0);
    }
    expect_batch_matches_reference(cases, s, static_cast<int>(rng.below(30)),
                                   "tied");
  }
}

TEST(SmithWatermanDifferential, BatchRandomScoringSchemes) {
  Rng rng(fuzz_seed() + 24);
  for (int round = 0; round < 12; ++round) {
    ScoringScheme s = random_scoring(rng);
    if (round % 4 == 0) {
      // Extension dearer than opening, and a zero-cost gap open.
      s.gap_extend = draw(rng, -9, -3);
      s.gap_open = draw(rng, s.gap_extend + 1, 0);
    }
    const std::size_t qlen = 1 + rng.below(80);
    const std::size_t wlen = qlen + rng.below(60);
    expect_batch_matches_reference(extension_cases(rng, 18, qlen, wlen), s,
                                   static_cast<int>(rng.below(30)),
                                   "random scoring");
  }
}

TEST(SmithWatermanDifferential, BatchInt16Boundary) {
  // Schemes on either side of the int16 bound: the largest score a
  // 100-base query can reach, and the gap magnitudes below the sentinel.
  // Inside, the lanes run at the edge of int16; outside, the int32 kernel
  // must take the job.
  Rng rng(fuzz_seed() + 25);
  const auto cases = extension_cases(rng, 17, 100, 148);
  ScoringScheme top_in;
  top_in.match = 327;  // 100 x 327 = 32700 <= 32767
  ScoringScheme top_out = top_in;
  top_out.match = 328;  // 32800
  ScoringScheme gaps_in;
  gaps_in.gap_open = -8191;
  gaps_in.gap_extend = -8191;
  gaps_in.mismatch = -8191;
  ScoringScheme gaps_out = gaps_in;
  gaps_out.gap_open = -8192;
  ScoringScheme positive_gap;
  positive_gap.gap_extend = 1;
  EXPECT_TRUE(detail::glocal_batch_fits_int16(100, 148, top_in));
  EXPECT_FALSE(detail::glocal_batch_fits_int16(100, 148, top_out));
  EXPECT_FALSE(detail::glocal_batch_fits_int16(101, 148, top_in));
  EXPECT_TRUE(detail::glocal_batch_fits_int16(100, 148, gaps_in));
  EXPECT_FALSE(detail::glocal_batch_fits_int16(100, 148, gaps_out));
  EXPECT_FALSE(detail::glocal_batch_fits_int16(100, 148, positive_gap));
  for (const ScoringScheme& s :
       {top_in, top_out, gaps_in, gaps_out, positive_gap}) {
    expect_batch_matches_reference(cases, s, 16, "bound");
  }
  // One call whose query lengths straddle the bound.
  std::vector<BatchCase> straddle = extension_cases(rng, 10, 100, 148);
  const auto longer = extension_cases(rng, 10, 101, 148);
  straddle.insert(straddle.end(), longer.begin(), longer.end());
  expect_batch_matches_reference(straddle, top_in, 16, "straddle");
}

// --- FM-index differential wall --------------------------------------------
//
// search() and every stepwise extend() must return exactly the SA interval
// that a binary search of the suffix array finds
// (detail::sa_interval_reference, which never reads the occurrence blocks),
// and locate() must agree with the suffix array on every row.  Inputs are
// drawn under GPF_FUZZ_SEED; CI runs the wall uncapped and with
// GPF_SIMD_MAX=scalar, which covers both popcount builds of search().

/// A reference with its index and the oracle's inputs.  Not copyable: the
/// index points at `ref`.
struct FmOracle {
  explicit FmOracle(Reference reference)
      : ref(std::move(reference)),
        text(detail::index_text(ref)),
        sa(build_suffix_array(text)),
        index(ref) {}
  FmOracle(const FmOracle&) = delete;
  FmOracle& operator=(const FmOracle&) = delete;

  Reference ref;
  std::vector<std::uint8_t> text;
  std::vector<std::uint32_t> sa;
  FmIndex index;
};

std::pair<std::uint32_t, std::uint32_t> lohi(SaInterval iv) {
  return {iv.lo, iv.hi};
}

/// search() and the stepwise extend() chain for `pattern` against the
/// oracle.
void expect_search_matches_oracle(const FmOracle& o, std::string_view pattern,
                                  const std::string& what) {
  std::string label = "seed " + std::to_string(fuzz_seed());
  label += " " + what + " pattern '" + printable(pattern) + "'";
  const SaInterval want = detail::sa_interval_reference(o.text, o.sa, pattern);
  // search() reports every miss as {0, 0}.
  const SaInterval got = o.index.search(pattern);
  EXPECT_EQ(lohi(got), lohi(want.empty() ? SaInterval{} : want)) << label;
  SaInterval iv = o.index.whole();
  for (std::size_t j = pattern.size(); j-- > 0;) {
    iv = o.index.extend(iv, pattern[j]);
    const SaInterval step =
        detail::sa_interval_reference(o.text, o.sa, pattern.substr(j));
    ASSERT_EQ(lohi(iv), lohi(step)) << label << " extend step at " << j;
    if (iv.empty()) break;
  }
}

/// locate() of every row against the suffix array.
void expect_locate_matches_sa(const FmOracle& o) {
  ASSERT_EQ(o.index.text_length(), o.text.size());
  ASSERT_EQ(o.index.whole().lo, 0u);
  ASSERT_EQ(o.index.whole().hi, o.text.size());
  std::vector<std::uint64_t> starts;
  std::uint64_t at = 0;
  for (const auto& contig : o.ref.contigs()) {
    starts.push_back(at);
    at += contig.sequence.size() + 1;
  }
  for (std::uint32_t row = 0; row < o.sa.size(); ++row) {
    const std::uint64_t p = o.sa[row];
    const auto it = std::upper_bound(starts.begin(), starts.end(), p) - 1;
    const auto cid = static_cast<std::int32_t>(it - starts.begin());
    const auto offset = static_cast<std::int64_t>(p - *it);
    const std::size_t len = o.ref.contig(cid).sequence.size();
    const bool separator = offset == static_cast<std::int64_t>(len);
    const RefPosition rp = o.index.locate(row);
    ASSERT_EQ(rp.contig_id, separator ? -1 : cid) << "row " << row;
    ASSERT_EQ(rp.offset, separator ? -1 : offset) << "row " << row;
  }
}

/// Random contig bases: ACGT with homopolymer runs, N runs and lowercase
/// (soft-masked) stretches mixed in.
std::string fm_contig(Rng& rng, std::size_t len) {
  std::string s = random_seq(rng, len, "ACGT");
  for (std::size_t at = 0; at < len; at += 1 + rng.below(400)) {
    const std::size_t run = std::min(len - at, 1 + rng.below(60));
    switch (rng.below(4)) {
      case 0:
        std::fill_n(s.begin() + at, run, "ACGT"[rng.below(4)]);
        break;
      case 1:
        std::fill_n(s.begin() + at, run, 'N');
        break;
      case 2:
        for (std::size_t k = at; k < at + run; ++k) {
          s[k] = "acgtn"[rng.below(5)];
        }
        break;
      default:
        break;
    }
  }
  return s;
}

/// A random reference whose indexed text (bases plus one separator per
/// contig) is exactly `text_length` bytes over `contigs` contigs.
Reference fm_reference(Rng& rng, std::size_t text_length,
                       std::size_t contigs) {
  std::size_t spare = text_length - 2 * contigs;  // every contig >= 1 base
  std::vector<FastaContig> out;
  for (std::size_t i = 0; i < contigs; ++i) {
    const std::size_t extra = i + 1 == contigs ? spare : rng.below(spare + 1);
    spare -= extra;
    out.push_back({"c" + std::to_string(i), fm_contig(rng, 1 + extra)});
  }
  return Reference(std::move(out));
}

/// One query drawn from `ref`: a text slice (as is, mutated, with an N or
/// lowercase byte, or with N read as A), a slice across a contig
/// separator, or random bases.  Lengths 1-40.
std::string fm_pattern(Rng& rng, const Reference& ref) {
  const std::size_t len = 1 + rng.below(40);
  const auto& contigs = ref.contigs();
  const std::size_t cid = rng.below(contigs.size());
  const std::string& seq = contigs[cid].sequence;
  std::string p = seq.substr(rng.below(seq.size()), len);
  switch (rng.below(6)) {
    case 0:
      return p;
    case 1:
      for (std::size_t k = 1 + rng.below(3); k > 0; --k) {
        p[rng.below(p.size())] = "ACGT"[rng.below(4)];
      }
      return p;
    case 2:
      p[rng.below(p.size())] = "Nacgtn"[rng.below(6)];
      return p;
    case 3:
      std::replace(p.begin(), p.end(), 'N', 'A');
      return p;
    case 4: {
      // The tail of one contig, then the head of the next.
      const std::string& next = contigs[(cid + 1) % contigs.size()].sequence;
      const std::size_t tail = 1 + rng.below(std::min<std::size_t>(20, len));
      return seq.substr(seq.size() - std::min(tail, seq.size())) +
             next.substr(0, 1 + rng.below(20));
    }
    default:
      return random_seq(rng, len, "ACGT");
  }
}

void expect_index_matches_oracle(const FmOracle& o, Rng& rng, int patterns,
                                 const std::string& what) {
  expect_locate_matches_sa(o);
  expect_search_matches_oracle(o, "", what);
  for (const char* base : {"A", "C", "G", "T", "N", "a"}) {
    expect_search_matches_oracle(o, base, what);
  }
  for (int i = 0; i < patterns; ++i) {
    expect_search_matches_oracle(o, fm_pattern(rng, o.ref), what);
  }
}

TEST(FmIndexDifferential, TextLengthsAroundBlockMultiples) {
  Rng rng(fuzz_seed());
  // 64k - 1, 64k and 64k + 1 rows, and the small lengths around one and
  // two 64-row blocks.
  const std::size_t lengths[] = {2, 63, 64, 65, 128, 65535, 65536, 65537};
  for (const std::size_t n : lengths) {
    const std::size_t most = std::min<std::size_t>(n / 2, 6);
    const FmOracle o(fm_reference(rng, n, 1 + rng.below(most)));
    expect_index_matches_oracle(o, rng, n > 1000 ? 600 : 100,
                                "text length " + std::to_string(n));
  }
}

TEST(FmIndexDifferential, RandomMultiContig) {
  Rng rng(fuzz_seed() + 1);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t contigs = 1 + rng.below(12);
    const std::size_t n = 2 * contigs + rng.below(6000);
    const FmOracle o(fm_reference(rng, n, contigs));
    expect_index_matches_oracle(o, rng, 300,
                                "random reference " + std::to_string(trial));
  }
}

TEST(FmIndexDifferential, OneBaseContigs) {
  Rng rng(fuzz_seed() + 2);
  std::vector<FastaContig> contigs;
  for (int i = 0; i < 40; ++i) {
    const std::string base(1, "ACGTN"[rng.below(5)]);
    contigs.push_back({std::string("b").append(std::to_string(i)), base});
  }
  contigs.push_back({"long", fm_contig(rng, 300)});
  contigs.push_back({"last", "G"});
  const FmOracle o{Reference(std::move(contigs))};
  expect_index_matches_oracle(o, rng, 300, "one-base contigs");
}

TEST(FmIndexDifferential, HomopolymerAndNRuns) {
  Rng rng(fuzz_seed() + 3);
  std::string repeat;
  for (int i = 0; i < 90; ++i) repeat += "ACGTT";
  std::string gap(50, 'N');
  gap += random_seq(rng, 100, "ACGT") + std::string(200, 'N');
  std::vector<FastaContig> contigs = {
      {"polyA", std::string(700, 'A')},
      {"polyC", std::string(129, 'C')},
      {"gap", gap},
      {"repeat", repeat},
      {"mixed", fm_contig(rng, 2000)},
  };
  const FmOracle o{Reference(std::move(contigs))};
  expect_index_matches_oracle(o, rng, 400, "runs");
  // Long runs probe intervals that shrink one row per step.
  for (std::size_t len : {1, 2, 63, 64, 65, 128, 699, 700, 701}) {
    expect_search_matches_oracle(o, std::string(len, 'A'), "polyA");
  }
  expect_search_matches_oracle(o, std::string(40, 'N'), "N run");
}

TEST(FmIndexDifferential, SimulatedGenomeSeeds) {
  // The aligner's shape: 19-mers of a simulated genome, most present.
  Rng rng(fuzz_seed() + 4);
  const auto spec =
      simdata::ReferenceSpec::genome(60'000, 3, 1 + fuzz_seed() % 1000);
  const FmOracle o(simdata::generate_reference(spec));
  for (int i = 0; i < 500; ++i) {
    const std::string& seq =
        o.ref.contigs()[rng.below(o.ref.contig_count())].sequence;
    std::string seed = seq.substr(rng.below(seq.size() - 19), 19);
    if (rng.below(4) == 0) seed[rng.below(19)] = "ACGT"[rng.below(4)];
    expect_search_matches_oracle(o, seed, "19-mer");
  }
}

// --- read aligner -------------------------------------------------------------

struct AlignerFixture : public ::testing::Test {
  void SetUp() override {
    reference = simdata::generate_reference(
        simdata::ReferenceSpec::genome(200'000, 2, 91));
    index = std::make_unique<FmIndex>(reference);
    aligner = std::make_unique<ReadAligner>(*index);
  }

  Reference reference;
  std::unique_ptr<FmIndex> index;
  std::unique_ptr<ReadAligner> aligner;
};

TEST_F(AlignerFixture, AlignsExactRead) {
  const std::string seq(reference.slice(0, 5000, 100));
  FastqRecord read{"r", seq, std::string(100, 'I')};
  const SamRecord rec = aligner->align_single(read);
  EXPECT_FALSE(rec.is_unmapped());
  EXPECT_EQ(rec.contig_id, 0);
  EXPECT_EQ(rec.pos, 5000);
  EXPECT_FALSE(rec.is_reverse());
  EXPECT_GT(rec.mapq, 0);
}

TEST_F(AlignerFixture, AlignsReverseComplementRead) {
  const std::string fwd(reference.slice(1, 3000, 100));
  FastqRecord read{"r", reverse_complement(fwd), std::string(100, 'I')};
  const SamRecord rec = aligner->align_single(read);
  EXPECT_FALSE(rec.is_unmapped());
  EXPECT_EQ(rec.contig_id, 1);
  EXPECT_EQ(rec.pos, 3000);
  EXPECT_TRUE(rec.is_reverse());
  // Sequence is stored reference-oriented.
  EXPECT_EQ(rec.sequence, fwd);
}

TEST_F(AlignerFixture, ToleratesMismatches) {
  std::string seq(reference.slice(0, 20000, 100));
  seq[10] = seq[10] == 'A' ? 'C' : 'A';
  seq[60] = seq[60] == 'G' ? 'T' : 'G';
  const SamRecord rec =
      aligner->align_single({"r", seq, std::string(100, 'I')});
  EXPECT_FALSE(rec.is_unmapped());
  EXPECT_EQ(rec.pos, 20000);
}

TEST_F(AlignerFixture, RandomReadUnmapped) {
  Rng rng(97);
  std::string junk(100, 'A');
  const char bases[] = {'A', 'C', 'G', 'T'};
  for (auto& c : junk) c = bases[rng.below(4)];
  // A uniformly random read is overwhelmingly unlikely to align with a
  // decent score against a 200kb genome.
  const SamRecord rec =
      aligner->align_single({"r", junk, std::string(100, 'I')});
  // Either unmapped, or mapped with low score evidence (soft clips).
  if (!rec.is_unmapped()) {
    std::uint32_t clipped = 0;
    for (const auto& el : rec.cigar) {
      if (el.op == CigarOp::kSoftClip) clipped += el.length;
    }
    EXPECT_GT(clipped, 30u);
  }
}

TEST_F(AlignerFixture, PairedEndProperPairFlags) {
  const std::string frag(reference.slice(0, 40000, 350));
  FastqPair pair;
  pair.first = {"p/1", frag.substr(0, 100), std::string(100, 'I')};
  pair.second = {"p/2", reverse_complement(frag.substr(250, 100)),
                 std::string(100, 'I')};
  const auto [r1, r2] = aligner->align_pair(pair);
  EXPECT_TRUE(r1.flag & SamFlags::kPaired);
  EXPECT_TRUE(r1.flag & SamFlags::kProperPair);
  EXPECT_TRUE(r1.flag & SamFlags::kFirstOfPair);
  EXPECT_TRUE(r2.flag & SamFlags::kSecondOfPair);
  EXPECT_EQ(r1.pos, 40000);
  EXPECT_EQ(r2.pos, 40250);
  EXPECT_FALSE(r1.is_reverse());
  EXPECT_TRUE(r2.is_reverse());
  EXPECT_EQ(r1.tlen, 350);
  EXPECT_EQ(r2.tlen, -350);
  EXPECT_EQ(r1.mate_pos, r2.pos);
}

TEST_F(AlignerFixture, SimulatedReadsAlignAccurately) {
  const simdata::Donor donor(reference, {});
  simdata::ReadSimSpec spec;
  spec.coverage = 1.0;
  spec.seed = 3;
  const auto sample = simdata::simulate_reads(reference, donor, spec);
  ASSERT_GT(sample.pairs.size(), 100u);

  std::size_t correct = 0, total = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(200, sample.pairs.size());
       ++i) {
    const auto& pair = sample.pairs[i];
    const auto [r1, r2] = aligner->align_pair(pair);
    // Truth from the read name: sim:<contig>:<pos>:<serial>.
    const auto& name = pair.first.name;
    const auto p1 = name.find(':');
    const auto p2 = name.find(':', p1 + 1);
    const auto p3 = name.find(':', p2 + 1);
    const std::string contig = name.substr(p1 + 1, p2 - p1 - 1);
    const std::int64_t pos = std::stoll(name.substr(p2 + 1, p3 - p2 - 1));
    const auto cid = reference.find_contig(contig).value();
    ++total;
    if (!r1.is_unmapped() && r1.contig_id == cid &&
        std::abs(r1.pos - pos) <= 12) {
      ++correct;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.93);
}

// --- hash aligner (SNAP-like) --------------------------------------------------

TEST(HashAligner, AlignsExactReads) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::genome(150'000, 2, 101));
  const HashAligner aligner(ref);
  Rng rng(103);
  int correct = 0;
  const int trials = 100;
  for (int i = 0; i < trials; ++i) {
    const auto cid = static_cast<std::int32_t>(rng.below(2));
    const auto& seq = ref.contig(cid).sequence;
    const std::size_t pos = rng.below(seq.size() - 120);
    const std::string read = seq.substr(pos, 100);
    if (read.find('N') != std::string::npos) {
      ++correct;  // skip gap reads
      continue;
    }
    const SamRecord rec =
        aligner.align({"r", read, std::string(100, 'I')});
    if (!rec.is_unmapped() && rec.contig_id == cid &&
        std::abs(rec.pos - static_cast<std::int64_t>(pos)) <= 8) {
      ++correct;
    }
  }
  EXPECT_GT(correct, 92);
}

TEST(HashAligner, ReverseStrand) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(50'000, 107));
  const HashAligner aligner(ref);
  const std::string fwd(ref.slice(0, 1000, 100));
  const SamRecord rec = aligner.align(
      {"r", reverse_complement(fwd), std::string(100, 'I')});
  EXPECT_FALSE(rec.is_unmapped());
  EXPECT_TRUE(rec.is_reverse());
  EXPECT_EQ(rec.pos, 1000);
}

TEST(HashAligner, ReportsIndexFootprint) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(20'000, 109));
  const HashAligner aligner(ref);
  EXPECT_GT(aligner.index_bytes(), 20'000u);
}


TEST_F(AlignerFixture, MateRescueRecoversJunkMate) {
  // First mate aligns cleanly; second mate is corrupted enough that
  // seeding fails, but SW rescue in the insert window recovers it.
  const std::string frag(reference.slice(0, 60'000, 350));
  FastqPair pair;
  pair.first = {"p/1", frag.substr(0, 100), std::string(100, 'I')};
  std::string mate = reverse_complement(frag.substr(250, 100));
  // Corrupt every 8th base: seeds of length 19 cannot survive, SW can.
  Rng rng(601);
  for (std::size_t i = 0; i < mate.size(); i += 8) {
    mate[i] = mate[i] == 'A' ? 'C' : 'A';
  }
  pair.second = {"p/2", mate, std::string(100, 'I')};
  const auto [r1, r2] = aligner->align_pair(pair);
  EXPECT_FALSE(r1.is_unmapped());
  EXPECT_FALSE(r2.is_unmapped()) << "mate rescue failed";
  EXPECT_NEAR(static_cast<double>(r2.pos), 60'250.0, 16.0);
  EXPECT_TRUE(r2.flag & SamFlags::kProperPair);
}

TEST_F(AlignerFixture, BothMatesJunkStayUnmapped) {
  Rng rng(607);
  auto junk = [&rng] {
    std::string s(100, 'A');
    for (auto& c : s) c = "ACGT"[rng.below(4)];
    return s;
  };
  FastqPair pair;
  pair.first = {"j/1", junk(), std::string(100, 'I')};
  pair.second = {"j/2", junk(), std::string(100, 'I')};
  const auto [r1, r2] = aligner->align_pair(pair);
  // Mate flags must be consistent even when unmapped.
  if (r1.is_unmapped()) {
    EXPECT_TRUE(r2.flag & SamFlags::kMateUnmapped);
  }
  EXPECT_TRUE(r1.flag & SamFlags::kPaired);
  EXPECT_TRUE(r2.flag & SamFlags::kPaired);
}

/// A fixed sample for the aligner goldens: simulated pairs, some with N
/// bases; pairs whose second mate is corrupted past seeding, so only the
/// mate rescue can place it; pairs of junk; and pairs at both ends of each
/// contig, whose extension windows are clamped.
std::vector<FastqPair> golden_pairs(const Reference& reference) {
  const simdata::Donor donor(reference, {});
  simdata::ReadSimSpec spec;
  spec.coverage = 1.0;
  spec.seed = 5;
  std::vector<FastqPair> pairs =
      simdata::simulate_reads(reference, donor, spec).pairs;
  pairs.resize(std::min<std::size_t>(pairs.size(), 700));
  Rng rng(613);
  for (std::size_t k = 4; k < pairs.size(); k += 13) {
    pairs[k].first.sequence[17] = 'N';
    pairs[k].first.sequence[60] = 'N';
  }
  for (std::size_t k = 0; k < pairs.size(); k += 9) {
    std::string& mate = pairs[k].second.sequence;
    for (std::size_t i = rng.below(8); i < mate.size(); i += 8) {
      mate[i] = mate[i] == 'A' ? 'C' : 'A';
    }
  }
  const auto junk = [&rng] {
    std::string s(100, 'A');
    for (auto& c : s) c = "ACGT"[rng.below(4)];
    return s;
  };
  const std::string qual(100, 'I');
  for (int k = 0; k < 12; ++k) {
    const std::string name = "junk" + std::to_string(k);
    pairs.push_back({{name + "/1", junk(), qual}, {name + "/2", junk(), qual}});
  }
  const auto contigs = static_cast<std::int32_t>(reference.contig_count());
  for (std::int32_t c = 0; c < contigs; ++c) {
    const auto len =
        static_cast<std::int64_t>(reference.contig(c).sequence.size());
    for (const std::int64_t start : {std::int64_t{0}, std::int64_t{7},
                                     len - 350, len - 357}) {
      const std::string frag(reference.slice(c, start, 350));
      const std::string name =
          "end" + std::to_string(c) + ":" + std::to_string(start);
      pairs.push_back(
          {{name + "/1", frag.substr(0, 100), qual},
           {name + "/2", reverse_complement(frag.substr(250, 100)), qual}});
    }
  }
  return pairs;
}

/// FNV-1a of the SAM text of `records` against `reference`.
std::uint64_t sam_digest(const Reference& reference,
                         const std::vector<SamRecord>& records) {
  SamHeader header;
  for (const auto& c : reference.contigs()) {
    header.contigs.push_back(
        {c.name, static_cast<std::int64_t>(c.sequence.size())});
  }
  const std::string sam = write_sam(header, records);
  return fnv1a64(std::span(reinterpret_cast<const std::uint8_t*>(sam.data()),
                           sam.size()));
}

TEST_F(AlignerFixture, SamDigestGolden) {
  // The digest was recorded with the one-pair aligner that extended each
  // cluster with its own glocal() call; the batched extension must
  // reproduce it byte for byte at every dispatch level (CI runs this suite
  // uncapped and with GPF_SIMD_MAX=avx2 and =scalar).
  const auto pairs = golden_pairs(reference);
  std::vector<SamRecord> records;
  aligner->align_pairs(pairs, records);
  ASSERT_EQ(records.size(), 2 * pairs.size());
  std::size_t unmapped = 0;
  for (const auto& r : records) unmapped += r.is_unmapped() ? 1 : 0;
  EXPECT_EQ(unmapped, 24u);  // the junk pairs
  const std::uint64_t digest = sam_digest(reference, records);
  EXPECT_EQ(digest, 0xb9a6859f9f55eb24ULL)
      << simd::level_name(simd::active_level()) << ", digest 0x" << std::hex
      << digest;
}

TEST_F(AlignerFixture, AlignPairsIsChunkInvariant) {
  // Batch boundaries change which jobs share a vector, never a record.
  const auto pairs = golden_pairs(reference);
  std::vector<SamRecord> all;
  aligner->align_pairs(pairs, all);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}}) {
    std::vector<SamRecord> chunked;
    for (std::size_t at = 0; at < pairs.size(); at += chunk) {
      aligner->align_pairs(
          std::span(pairs).subspan(at, std::min(chunk, pairs.size() - at)),
          chunked);
    }
    EXPECT_EQ(chunked, all) << "chunks of " << chunk;
  }
  // align_pair is the one-pair call.
  for (std::size_t p = 0; p < pairs.size(); p += 37) {
    const auto [r1, r2] = aligner->align_pair(pairs[p]);
    EXPECT_EQ(r1, all[2 * p]) << p;
    EXPECT_EQ(r2, all[2 * p + 1]) << p;
  }
}

TEST_F(AlignerFixture, ShortReadBelowSeedLengthUnmapped) {
  const SamRecord rec = aligner->align_single(
      {"tiny", "ACGTACGTAC", std::string(10, 'I')});
  EXPECT_TRUE(rec.is_unmapped());
}

}  // namespace
}  // namespace gpf::align
