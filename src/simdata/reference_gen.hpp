// Synthetic reference genomes.
//
// The paper aligns against hg19; we generate references with realistic
// base composition (GC content ~41%), short tandem repeats and occasional
// N-runs (assembly gaps), which is what the aligner's seeding and the
// partitioner's contig tables care about.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "formats/fasta.hpp"

namespace gpf::simdata {

struct ReferenceSpec {
  /// Contig names and lengths.  Defaults mimic a small multi-chromosome
  /// genome; benches scale lengths up.
  std::vector<std::pair<std::string, std::int64_t>> contigs = {
      {"chr1", 1'000'000}, {"chr2", 800'000}, {"chr3", 600'000}};
  double gc_content = 0.41;
  /// Probability per base of starting a short tandem repeat.
  double repeat_rate = 0.0005;
  /// Probability per base of starting an N-gap.
  double gap_rate = 0.00001;
  std::uint64_t seed = 42;

  /// Convenience constructor for a single-contig genome.
  static ReferenceSpec single(std::int64_t length, std::uint64_t seed = 42);
  /// A `k`-contig genome totalling roughly `total_length` bases with
  /// hg19-like decreasing chromosome sizes.
  static ReferenceSpec genome(std::int64_t total_length, int k,
                              std::uint64_t seed = 42);
};

Reference generate_reference(const ReferenceSpec& spec);

}  // namespace gpf::simdata
