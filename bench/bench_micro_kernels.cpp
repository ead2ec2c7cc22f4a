// Micro-benchmarks (google-benchmark) for the compute kernels behind the
// pipeline stages: FM-index search, Smith-Waterman extension, pair-HMM,
// the genomic codecs, and duplicate marking.
//
// Two modes:
//  * default — the usual google-benchmark CLI (filters, repetitions, ...).
//  * --json[=path] — the perf-regression harness: times each hot kernel on
//    its scalar/reference implementation and on the dispatched fast path,
//    checks the two produce identical output, and writes a machine-readable
//    report (default BENCH_kernels.json).  Exit code 2 if any kernel's fast
//    path disagrees with its reference, so CI can use it as a smoke test.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string_view>

#include "align/bwamem.hpp"
#include "align/fm_index.hpp"
#include "align/smith_waterman.hpp"
#include "align/suffix_array.hpp"
#include "caller/pairhmm.hpp"
#include "cleaner/markdup.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "compress/bitio.hpp"
#include "compress/qual_codec.hpp"
#include "compress/record_codec.hpp"
#include "compress/seq_codec.hpp"
#include "formats/fastq.hpp"
#include "formats/sam.hpp"
#include "formats/scan.hpp"
#include "formats/vcf.hpp"
#include "simdata/read_sim.hpp"
#include "simdata/reference_gen.hpp"

using namespace gpf;

namespace {

const Reference& bench_reference() {
  static Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::genome(200'000, 2, 777));
  return ref;
}

const align::FmIndex& bench_index() {
  static align::FmIndex index(bench_reference());
  return index;
}

std::vector<FastqRecord> bench_reads(std::size_t n) {
  const auto& ref = bench_reference();
  Rng rng(778);
  std::vector<FastqRecord> reads;
  while (reads.size() < n) {
    const auto cid = static_cast<std::int32_t>(rng.below(2));
    const auto& seq = ref.contig(cid).sequence;
    const std::size_t pos = rng.below(seq.size() - 120);
    std::string s = seq.substr(pos, 100);
    if (s.find('N') != std::string::npos) continue;
    reads.push_back({"r" + std::to_string(reads.size()), std::move(s),
                     std::string(100, 'I')});
  }
  return reads;
}

void BM_FmIndexSearch(benchmark::State& state) {
  const auto& index = bench_index();
  const auto reads = bench_reads(256);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& r = reads[i++ % reads.size()];
    benchmark::DoNotOptimize(
        index.search(std::string_view(r.sequence).substr(0, 19)));
  }
}
BENCHMARK(BM_FmIndexSearch);

void BM_BandedGlobal(benchmark::State& state) {
  const auto& ref = bench_reference();
  const std::string query(ref.slice(0, 1000, 100));
  const std::string target(ref.slice(0, 995, 110));
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::banded_global(query, target, {}, 16));
  }
}
BENCHMARK(BM_BandedGlobal);

void BM_GlocalExtension(benchmark::State& state) {
  const auto& ref = bench_reference();
  const std::string query(ref.slice(0, 2000, 100));
  const std::string target(ref.slice(0, 1976, 148));
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::glocal(query, target, {}, 16));
  }
}
BENCHMARK(BM_GlocalExtension);

void BM_AlignPairedRead(benchmark::State& state) {
  const align::ReadAligner aligner(bench_index());
  const auto& ref = bench_reference();
  const std::string frag(ref.slice(0, 40'000, 350));
  FastqPair pair;
  pair.first = {"p/1", frag.substr(0, 100), std::string(100, 'I')};
  pair.second = {"p/2", reverse_complement(frag.substr(250, 100)),
                 std::string(100, 'I')};
  for (auto _ : state) {
    benchmark::DoNotOptimize(aligner.align_pair(pair));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_AlignPairedRead);

void BM_PairHmm(benchmark::State& state) {
  const auto& ref = bench_reference();
  const std::string hap(ref.slice(0, 5000, 300));
  const std::string read(ref.slice(0, 5050, 100));
  const std::string qual(100, 'I');
  caller::PairHmm hmm;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmm.log10_likelihood(read, qual, hap));
  }
}
BENCHMARK(BM_PairHmm);

void BM_EncodeFastq(benchmark::State& state) {
  const auto codec = static_cast<Codec>(state.range(0));
  const auto reads = bench_reads(512);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto out = encode_fastq_batch(reads, codec);
    bytes = out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * bytes));
  state.SetLabel(codec_name(codec));
}
BENCHMARK(BM_EncodeFastq)->Arg(0)->Arg(1)->Arg(2);

void BM_DecodeFastq(benchmark::State& state) {
  const auto codec = static_cast<Codec>(state.range(0));
  const auto bytes = encode_fastq_batch(bench_reads(512), codec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_fastq_batch(bytes, codec));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * bytes.size()));
  state.SetLabel(codec_name(codec));
}
BENCHMARK(BM_DecodeFastq)->Arg(0)->Arg(1)->Arg(2);

void BM_MarkDuplicates(benchmark::State& state) {
  const auto reads = bench_reads(1024);
  Rng rng(779);
  std::vector<SamRecord> records;
  for (const auto& r : reads) {
    SamRecord rec;
    rec.qname = r.name;
    rec.contig_id = 0;
    rec.pos = static_cast<std::int64_t>(rng.below(10'000));  // many dups
    rec.cigar = {{CigarOp::kMatch, 100}};
    rec.sequence = r.sequence;
    rec.quality = r.quality;
    records.push_back(std::move(rec));
  }
  for (auto _ : state) {
    std::vector<SamRecord> work = records;
    benchmark::DoNotOptimize(cleaner::mark_duplicates(work));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * records.size()));
}
BENCHMARK(BM_MarkDuplicates);

// --- perf-regression harness (--json mode) ---------------------------------

/// Seconds per call of `fn`, min of three repetitions; the iteration count
/// is grown until a repetition lasts at least ~100ms.
template <typename Fn>
double seconds_per_call(Fn&& fn) {
  fn();  // warm-up (touches caches, trains the branch predictors)
  std::size_t iters = 1;
  double best;
  for (;;) {
    Timer t;
    for (std::size_t i = 0; i < iters; ++i) fn();
    const double s = t.seconds();
    if (s >= 0.1) {
      best = s / static_cast<double>(iters);
      break;
    }
    iters *= 4;
  }
  for (int rep = 0; rep < 2; ++rep) {
    Timer t;
    for (std::size_t i = 0; i < iters; ++i) fn();
    best = std::min(best, t.seconds() / static_cast<double>(iters));
  }
  return best;
}

/// Clean ACGT reads with varied lengths (crossing the 4/8/32-base stride
/// boundaries); with_specials additionally injects N runs, an empty read,
/// and an all-N read to exercise the escape fallback.
std::vector<std::string> harness_sequences(bool with_specials) {
  const auto& ref = bench_reference();
  Rng rng(991);
  std::vector<std::string> seqs;
  while (seqs.size() < 512) {
    const auto& contig =
        ref.contig(static_cast<std::int32_t>(rng.below(2))).sequence;
    const std::size_t len = 120 + rng.below(64);
    const std::size_t pos = rng.below(contig.size() - len - 1);
    std::string s = contig.substr(pos, len);
    for (auto& c : s) {
      if (c != 'A' && c != 'C' && c != 'G' && c != 'T') c = 'A';
    }
    if (with_specials && rng.below(4) == 0) {
      const std::size_t at = rng.below(s.size() - 4);
      const std::size_t run = 1 + rng.below(4);
      for (std::size_t i = at; i < at + run; ++i) s[i] = 'N';
    }
    seqs.push_back(std::move(s));
  }
  if (with_specials) {
    seqs.push_back("");
    seqs.push_back(std::string(31, 'N'));
    seqs.push_back("ACGTN");
  }
  return seqs;
}

/// Correlated quality walks (the delta distribution the codec is built
/// for), one per sequence.
std::vector<std::string> harness_qualities(
    const std::vector<std::string>& seqs) {
  Rng rng(992);
  std::vector<std::string> quals;
  quals.reserve(seqs.size());
  for (const auto& s : seqs) {
    std::string q(s.size(), 'I');
    int cur = 'I';
    for (auto& c : q) {
      cur += static_cast<int>(rng.below(5)) - 2;
      cur = std::clamp(cur, '#' + 0, 'J' + 0);
      c = static_cast<char>(cur);
    }
    quals.push_back(std::move(q));
  }
  return quals;
}

struct SwCase {
  std::string query;
  std::string target;
};

/// Fuzzed query/target pairs: the query is a mutated slice of the target
/// (substitutions plus an occasional 1-base indel).
std::vector<SwCase> harness_sw_cases(std::size_t n, std::size_t qlen,
                                     std::size_t tlen) {
  const auto& ref = bench_reference();
  Rng rng(993);
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  std::vector<SwCase> cases;
  const auto& contig = ref.contig(0).sequence;
  while (cases.size() < n) {
    const std::size_t pos = rng.below(contig.size() - tlen - 1);
    std::string target = contig.substr(pos, tlen);
    if (target.find('N') != std::string::npos) continue;
    std::string query = target.substr((tlen - qlen) / 2, qlen);
    for (int k = 0; k < 5; ++k) {
      query[rng.below(query.size())] = kBases[rng.below(4)];
    }
    if (rng.below(2) == 0) {
      query.erase(rng.below(query.size() - 2), 1);
      query.push_back(kBases[rng.below(4)]);
    }
    cases.push_back({std::move(query), std::move(target)});
  }
  return cases;
}

bool same_alignment(const align::AlignmentResult& a,
                    const align::AlignmentResult& b) {
  return a.score == b.score && a.query_start == b.query_start &&
         a.query_end == b.query_end && a.ref_start == b.ref_start &&
         a.ref_end == b.ref_end && a.mismatches == b.mismatches &&
         cigar_to_string(a.cigar) == cigar_to_string(b.cigar);
}

struct KernelReport {
  std::string name;
  std::string unit;
  double baseline = 0.0;   // reference / scalar implementation
  double optimized = 0.0;  // dispatched fast path
  bool outputs_match = false;
};

KernelReport report_seq_pack(const simd::Level fast) {
  const auto seqs = harness_sequences(/*with_specials=*/false);
  const auto quals = harness_qualities(seqs);
  double bases = 0;
  for (const auto& s : seqs) bases += static_cast<double>(s.size());

  auto pack_all = [&](simd::Level level) {
    // Clean reads leave the quality untouched, so the persistent strings
    // can be passed straight through.
    auto q = quals;
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      benchmark::DoNotOptimize(
          gpf::detail::compress_sequence_at(level, seqs[i], q[i]));
    }
  };
  KernelReport r{"seq_pack", "MB/s"};
  const double base_s =
      seconds_per_call([&] { pack_all(simd::Level::kScalar); });
  const double fast_s = seconds_per_call([&] { pack_all(fast); });
  r.baseline = bases / base_s / 1e6;
  r.optimized = bases / fast_s / 1e6;

  // Equivalence over the special-laden set: packed bytes and the rewritten
  // quality must be byte-identical.
  r.outputs_match = true;
  const auto mixed = harness_sequences(/*with_specials=*/true);
  const auto mixed_quals = harness_qualities(mixed);
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    std::string qa = mixed_quals[i];
    std::string qb = mixed_quals[i];
    const auto ca =
        gpf::detail::compress_sequence_at(simd::Level::kScalar, mixed[i], qa);
    const auto cb = gpf::detail::compress_sequence_at(fast, mixed[i], qb);
    if (ca.packed != cb.packed || ca.length != cb.length || qa != qb) {
      r.outputs_match = false;
    }
  }
  return r;
}

KernelReport report_seq_unpack(const simd::Level fast) {
  const auto seqs = harness_sequences(/*with_specials=*/false);
  auto quals = harness_qualities(seqs);
  std::vector<CompressedSequence> packed;
  packed.reserve(seqs.size());
  double bases = 0;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    packed.push_back(gpf::detail::compress_sequence_at(simd::Level::kScalar,
                                                       seqs[i], quals[i]));
    bases += static_cast<double>(seqs[i].size());
  }

  auto unpack_all = [&](simd::Level level) {
    for (std::size_t i = 0; i < packed.size(); ++i) {
      benchmark::DoNotOptimize(
          gpf::detail::decompress_sequence_at(level, packed[i], quals[i]));
    }
  };
  KernelReport r{"seq_unpack", "MB/s"};
  const double base_s =
      seconds_per_call([&] { unpack_all(simd::Level::kScalar); });
  const double fast_s = seconds_per_call([&] { unpack_all(fast); });
  r.baseline = bases / base_s / 1e6;
  r.optimized = bases / fast_s / 1e6;

  r.outputs_match = true;
  const auto mixed = harness_sequences(/*with_specials=*/true);
  const auto mixed_quals = harness_qualities(mixed);
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    std::string enc_q = mixed_quals[i];
    const auto comp = gpf::detail::compress_sequence_at(simd::Level::kScalar,
                                                        mixed[i], enc_q);
    std::string qa = enc_q;
    std::string qb = enc_q;
    const std::string sa =
        gpf::detail::decompress_sequence_at(simd::Level::kScalar, comp, qa);
    const std::string sb =
        gpf::detail::decompress_sequence_at(fast, comp, qb);
    if (sa != sb || qa != qb) r.outputs_match = false;
  }
  return r;
}

KernelReport report_qual_decode(const simd::Level fast) {
  const auto seqs = harness_sequences(/*with_specials=*/false);
  const auto quals = harness_qualities(seqs);
  const QualityCodec codec = QualityCodec::train(quals);
  BitWriter bw;
  for (const auto& q : quals) codec.encode(q, bw);
  const auto bits = bw.finish();
  double chars = 0;
  for (const auto& q : quals) chars += static_cast<double>(q.size());

  auto decode_all = [&](simd::Level level) {
    BitReader br(std::span(bits.data(), bits.size()));
    for (std::size_t i = 0; i < quals.size(); ++i) {
      benchmark::DoNotOptimize(codec.decode_at(level, br));
    }
  };
  KernelReport r{"qual_decode", "MB/s"};
  const double base_s =
      seconds_per_call([&] { decode_all(simd::Level::kScalar); });
  const double fast_s = seconds_per_call([&] { decode_all(fast); });
  r.baseline = chars / base_s / 1e6;
  r.optimized = chars / fast_s / 1e6;

  r.outputs_match = true;
  BitReader ba(std::span(bits.data(), bits.size()));
  BitReader bb(std::span(bits.data(), bits.size()));
  for (std::size_t i = 0; i < quals.size(); ++i) {
    const std::string da = codec.decode_at(simd::Level::kScalar, ba);
    const std::string db = codec.decode_at(fast, bb);
    if (da != quals[i] || db != quals[i]) r.outputs_match = false;
  }
  return r;
}

KernelReport report_sw(const char* name, bool glocal_mode) {
  const auto cases = glocal_mode ? harness_sw_cases(32, 100, 148)
                                 : harness_sw_cases(32, 100, 110);
  const align::ScoringScheme scoring;
  const int band = 16;

  auto run_fast = [&](const SwCase& c) {
    return glocal_mode ? align::glocal(c.query, c.target, scoring, band)
                       : align::banded_global(c.query, c.target, scoring,
                                              band);
  };
  auto run_ref = [&](const SwCase& c) {
    return glocal_mode
               ? align::detail::glocal_reference(c.query, c.target, scoring,
                                                 band)
               : align::detail::banded_global_reference(c.query, c.target,
                                                        scoring, band);
  };

  KernelReport r{name, "alignments/s"};
  const double base_s = seconds_per_call([&] {
    for (const auto& c : cases) benchmark::DoNotOptimize(run_ref(c));
  });
  const double fast_s = seconds_per_call([&] {
    for (const auto& c : cases) benchmark::DoNotOptimize(run_fast(c));
  });
  r.baseline = static_cast<double>(cases.size()) / base_s;
  r.optimized = static_cast<double>(cases.size()) / fast_s;

  r.outputs_match = true;
  for (const auto& c : cases) {
    if (!same_alignment(run_ref(c), run_fast(c))) r.outputs_match = false;
  }
  return r;
}

/// The aligner's batched extension: 256 read-extension jobs of one shape
/// (100 x 148, band 16) through glocal_batch, against the reference DP one
/// job at a time.
KernelReport report_sw_batch() {
  const auto cases = harness_sw_cases(256, 100, 148);
  const align::ScoringScheme scoring;
  const int band = 16;
  std::vector<align::GlocalJob> jobs;
  for (const auto& c : cases) jobs.push_back({c.query, c.target});
  std::vector<align::AlignmentResult> got;

  KernelReport r{"sw_glocal_batch", "alignments/s"};
  const double base_s = seconds_per_call([&] {
    for (const auto& c : cases) {
      benchmark::DoNotOptimize(align::detail::glocal_reference(
          c.query, c.target, scoring, band));
    }
  });
  const double fast_s = seconds_per_call([&] {
    align::glocal_batch(jobs, scoring, band, got);
    benchmark::DoNotOptimize(got.data());
  });
  r.baseline = static_cast<double>(cases.size()) / base_s;
  r.optimized = static_cast<double>(cases.size()) / fast_s;

  align::glocal_batch(jobs, scoring, band, got);
  r.outputs_match = got.size() == cases.size();
  for (std::size_t k = 0; k < cases.size() && r.outputs_match; ++k) {
    r.outputs_match = same_alignment(
        got[k], align::detail::glocal_reference(cases[k].query,
                                                cases[k].target, scoring,
                                                band));
  }
  return r;
}

KernelReport report_pair_hmm(const simd::Level fast) {
  // One active region's read x haplotype matrix, the shape call_region
  // fills: 100-base reads with a few substitutions and correlated quality
  // walks against four 300-420 base haplotypes.  61 reads leave a short
  // last batch at 4 and 8 lanes.
  const auto& ref = bench_reference();
  Rng rng(998);
  const std::string window(ref.slice(1, 20'000, 420));
  std::vector<std::string> haps;
  for (std::size_t h = 0; h < 4; ++h) {
    std::string hap = window.substr(0, 300 + 40 * h);
    hap[150 + h] = hap[150 + h] == 'A' ? 'G' : 'A';
    haps.push_back(std::move(hap));
  }
  std::vector<std::string> reads;
  while (reads.size() < 61) {
    std::string read = window.substr(rng.below(window.size() - 100), 100);
    for (int k = 0; k < 2; ++k) read[rng.below(100)] = "ACGT"[rng.below(4)];
    reads.push_back(std::move(read));
  }
  const auto quals = harness_qualities(reads);
  const std::vector<std::string_view> read_views(reads.begin(), reads.end());
  const std::vector<std::string_view> qual_views(quals.begin(), quals.end());
  double cells = 0;
  for (const auto& h : haps) {
    cells += static_cast<double>(h.size() * reads.size() * 100);
  }

  const caller::PairHmmOptions options;
  std::vector<double> ref_ll(reads.size() * haps.size());
  std::vector<double> fast_ll(ref_ll.size());
  auto run_ref = [&] {
    for (std::size_t h = 0; h < haps.size(); ++h) {
      for (std::size_t r = 0; r < reads.size(); ++r) {
        ref_ll[h * reads.size() + r] =
            caller::detail::log10_likelihood_reference(
                options, read_views[r], qual_views[r], haps[h]);
      }
    }
    benchmark::DoNotOptimize(ref_ll.data());
  };
  auto run_fast = [&] {
    for (std::size_t h = 0; h < haps.size(); ++h) {
      caller::detail::log10_likelihoods_at(
          fast, options, read_views, qual_views, haps[h],
          std::span(fast_ll).subspan(h * reads.size(), reads.size()));
    }
    benchmark::DoNotOptimize(fast_ll.data());
  };
  KernelReport r{"pair_hmm", "GCUPS"};
  r.baseline = cells / seconds_per_call(run_ref) / 1e9;
  r.optimized = cells / seconds_per_call(run_fast) / 1e9;

  // Bit equality, not tolerance: the batched kernel is exact by design.
  run_ref();
  run_fast();
  r.outputs_match = std::memcmp(ref_ll.data(), fast_ll.data(),
                                ref_ll.size() * sizeof(double)) == 0;
  return r;
}

KernelReport report_fm_search() {
  // The aligner's seeds: 19-mers every 11 bases of both strands of 100-base
  // reads, a quarter of the reads carrying one substitution.  The baseline
  // is the test oracle, a binary search of the suffix array.
  Rng rng(999);
  std::vector<std::string> seeds;
  for (auto& read : bench_reads(256)) {
    std::string& s = read.sequence;
    if (rng.below(4) == 0) s[rng.below(s.size())] = "ACGT"[rng.below(4)];
    for (const std::string& strand : {s, reverse_complement(s)}) {
      for (std::size_t at = 0; at + 19 <= strand.size(); at += 11) {
        seeds.push_back(strand.substr(at, 19));
      }
    }
  }
  const auto& index = bench_index();
  const std::vector<std::uint8_t> text =
      align::detail::index_text(bench_reference());
  const std::vector<std::uint32_t> sa = align::build_suffix_array(text);

  std::vector<align::SaInterval> want(seeds.size());
  std::vector<align::SaInterval> got(seeds.size());
  auto run_ref = [&] {
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      want[i] = align::detail::sa_interval_reference(text, sa, seeds[i]);
    }
    benchmark::DoNotOptimize(want.data());
  };
  auto run_fast = [&] {
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      got[i] = index.search(seeds[i]);
    }
    benchmark::DoNotOptimize(got.data());
  };
  KernelReport r{"fm_search", "seeds/s"};
  r.baseline = static_cast<double>(seeds.size()) / seconds_per_call(run_ref);
  r.optimized = static_cast<double>(seeds.size()) / seconds_per_call(run_fast);

  // search() reports every miss as {0, 0}; the oracle gives the empty
  // interval at the insertion row.
  run_ref();
  run_fast();
  r.outputs_match = true;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const align::SaInterval miss{};
    if (!(got[i] == (want[i].empty() ? miss : want[i]))) {
      r.outputs_match = false;
    }
  }
  return r;
}

// --- text-parsing kernels (block-parallel front-end) -----------------------

/// Synthetic FASTQ with varied read lengths (crossing 64-byte block and
/// chunk boundaries at all phases).
std::string synth_fastq_text(std::size_t target_bytes) {
  Rng rng(995);
  std::string text;
  text.reserve(target_bytes + 512);
  std::size_t i = 0;
  while (text.size() < target_bytes) {
    const std::size_t len = 80 + rng.below(73);
    text += "@read";
    text += std::to_string(i++);
    text += '\n';
    for (std::size_t k = 0; k < len; ++k) {
      text += "ACGT"[rng.below(4)];
    }
    text += "\n+\n";
    for (std::size_t k = 0; k < len; ++k) {
      text += static_cast<char>('!' + rng.below(70));
    }
    text += '\n';
  }
  return text;
}

KernelReport report_fastq_scan(const simd::Level fast) {
  // Validation-only scan over >=64 MB: the parse front-end (line index,
  // record grouping, structural + byte-range checks) without record
  // materialization.  The reference is the deliberately byte-at-a-time
  // parser; the fast path adds mask kernels and, past 1 MiB, the chunked
  // ThreadPool driver.
  const std::string text = synth_fastq_text(std::size_t{64} << 20);
  const double bytes = static_cast<double>(text.size());

  KernelReport r{"fastq_scan", "MB/s"};
  const double base_s = seconds_per_call([&] {
    benchmark::DoNotOptimize(gpf::detail::scan_fastq_reference(text));
  });
  const double fast_s = seconds_per_call([&] {
    benchmark::DoNotOptimize(gpf::detail::scan_fastq_at(fast, text));
  });
  r.baseline = bytes / base_s / 1e6;
  r.optimized = bytes / fast_s / 1e6;

  r.outputs_match =
      gpf::detail::scan_fastq_reference(text) ==
      gpf::detail::scan_fastq_at(fast, text);
  // Error-outcome agreement on malformed variants of the same blob.
  const std::string bad[] = {
      text + "@tail\nACGT\n+\nII\n",          // length mismatch
      text + "@tail\nACGT\n+\n",              // truncated
      text.substr(0, text.size() / 2 + 1),    // random mid-record cut
      "\n" + text,                            // leading blank line
  };
  for (const auto& b : bad) {
    std::string ref_err;
    std::string fast_err;
    try {
      gpf::detail::scan_fastq_reference(b);
    } catch (const std::invalid_argument& e) {
      ref_err = e.what();
    }
    try {
      gpf::detail::scan_fastq_at(fast, b);
    } catch (const std::invalid_argument& e) {
      fast_err = e.what();
    }
    if (ref_err != fast_err) r.outputs_match = false;
  }
  return r;
}

KernelReport report_sam_fields(const simd::Level fast) {
  // Tab-splitting of SAM record lines: separator masks vs the byte-loop
  // reference splitter.
  Rng rng(996);
  std::vector<std::string> lines;
  double bytes = 0;
  for (int i = 0; i < 40'000; ++i) {
    std::string seq;
    std::string qual;
    const std::size_t len = 60 + rng.below(90);
    for (std::size_t k = 0; k < len; ++k) {
      seq += "ACGT"[rng.below(4)];
      qual += static_cast<char>('!' + rng.below(70));
    }
    std::string line = "q" + std::to_string(i) + "\t99\tchr1\t" +
                       std::to_string(1 + rng.below(1'000'000)) + "\t60\t" +
                       std::to_string(len) + "M\t=\t" +
                       std::to_string(1 + rng.below(1'000'000)) + "\t150\t" +
                       seq + "\t" + qual;
    bytes += static_cast<double>(line.size());
    lines.push_back(std::move(line));
  }

  std::vector<std::string_view> fields;
  KernelReport r{"sam_fields", "MB/s"};
  const double base_s = seconds_per_call([&] {
    for (const auto& line : lines) {
      fmt::detail::split_fields_reference(line, '\t', fields);
      benchmark::DoNotOptimize(fields.data());
    }
  });
  const double fast_s = seconds_per_call([&] {
    for (const auto& line : lines) {
      fmt::split_fields(fast, line, '\t', fields);
      benchmark::DoNotOptimize(fields.data());
    }
  });
  r.baseline = bytes / base_s / 1e6;
  r.optimized = bytes / fast_s / 1e6;

  r.outputs_match = true;
  std::vector<std::string_view> ref_fields;
  for (const auto& line : lines) {
    fmt::detail::split_fields_reference(line, '\t', ref_fields);
    fmt::split_fields(fast, line, '\t', fields);
    if (ref_fields != fields) r.outputs_match = false;
  }
  return r;
}

KernelReport report_vcf_records(const simd::Level fast) {
  // Full VCF parse (field split + strict POS/QUAL + record build).
  Rng rng(997);
  std::string text =
      "##fileformat=VCFv4.2\n##contig=<ID=chr1,length=249000000>\n"
      "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\n";
  for (int i = 0; i < 120'000; ++i) {
    text += "chr1\t";
    text += std::to_string(1 + rng.below(200'000'000));
    text += rng.below(2) == 0 ? std::string("\t.\t")
                              : "\trs" + std::to_string(i) + "\t";
    text += "ACGT"[rng.below(4)];
    text += '\t';
    text += "ACGT"[rng.below(4)];
    text += '\t';
    text += std::to_string(rng.below(4000));
    text += "\tPASS\t.\tGT\t0/1\n";
  }
  const double bytes = static_cast<double>(text.size());

  KernelReport r{"vcf_records", "MB/s"};
  const double base_s = seconds_per_call([&] {
    benchmark::DoNotOptimize(gpf::detail::parse_vcf_reference(text));
  });
  const double fast_s = seconds_per_call([&] {
    benchmark::DoNotOptimize(gpf::detail::parse_vcf_at(fast, text));
  });
  r.baseline = bytes / base_s / 1e6;
  r.optimized = bytes / fast_s / 1e6;

  const VcfFile a = gpf::detail::parse_vcf_reference(text);
  const VcfFile b = gpf::detail::parse_vcf_at(fast, text);
  r.outputs_match = a == b;
  return r;
}

int run_json_harness(const std::string& path) {
  const simd::Level fast = simd::active_level();
  std::vector<KernelReport> reports;
  reports.push_back(report_seq_pack(fast));
  reports.push_back(report_seq_unpack(fast));
  reports.push_back(report_qual_decode(fast));
  reports.push_back(report_sw("sw_banded_global", /*glocal_mode=*/false));
  reports.push_back(report_sw("sw_glocal", /*glocal_mode=*/true));
  reports.push_back(report_sw_batch());
  reports.push_back(report_pair_hmm(fast));
  reports.push_back(report_fm_search());
  reports.push_back(report_fastq_scan(fast));
  reports.push_back(report_sam_fields(fast));
  reports.push_back(report_vcf_records(fast));

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  char buf[256];
  out << "{\n  \"simd_level\": \"" << simd::level_name(fast)
      << "\",\n  \"threads\": " << ThreadPool::global().size()
      << ",\n  \"kernels\": [\n";
  bool all_match = true;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const KernelReport& r = reports[i];
    const double speedup = r.baseline > 0 ? r.optimized / r.baseline : 0.0;
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"unit\": \"%s\", "
                  "\"baseline\": %.2f, \"optimized\": %.2f, "
                  "\"speedup\": %.2f, \"outputs_match\": %s}%s\n",
                  r.name.c_str(), r.unit.c_str(), r.baseline, r.optimized,
                  speedup, r.outputs_match ? "true" : "false",
                  i + 1 < reports.size() ? "," : "");
    out << buf;
    std::printf("%-18s %10.2f -> %10.2f %-13s %5.2fx  %s\n", r.name.c_str(),
                r.baseline, r.optimized, r.unit.c_str(), speedup,
                r.outputs_match ? "ok" : "MISMATCH");
    all_match = all_match && r.outputs_match;
  }
  out << "  ]\n}\n";
  std::printf("wrote %s (simd level: %s)\n", path.c_str(),
              simd::level_name(fast));
  return all_match ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") return run_json_harness("BENCH_kernels.json");
    if (arg.rfind("--json=", 0) == 0) {
      return run_json_harness(std::string(arg.substr(7)));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
