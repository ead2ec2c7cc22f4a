#include "simdata/reference_gen.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace gpf::simdata {

ReferenceSpec ReferenceSpec::single(std::int64_t length, std::uint64_t seed) {
  ReferenceSpec spec;
  spec.contigs = {{"chr1", length}};
  spec.seed = seed;
  return spec;
}

ReferenceSpec ReferenceSpec::genome(std::int64_t total_length, int k,
                                    std::uint64_t seed) {
  ReferenceSpec spec;
  spec.contigs.clear();
  spec.seed = seed;
  // hg19-like size decay: chr(i) length proportional to 1/(i+2) — the
  // largest chromosome is several times the smallest.
  double weight_sum = 0.0;
  for (int i = 0; i < k; ++i) weight_sum += 1.0 / static_cast<double>(i + 2);
  for (int i = 0; i < k; ++i) {
    const double w = (1.0 / static_cast<double>(i + 2)) / weight_sum;
    spec.contigs.emplace_back(
        "chr" + std::to_string(i + 1),
        std::max<std::int64_t>(
            1000, static_cast<std::int64_t>(w *
                                            static_cast<double>(total_length))));
  }
  return spec;
}

Reference generate_reference(const ReferenceSpec& spec) {
  Rng rng(spec.seed);
  std::vector<FastaContig> contigs;
  contigs.reserve(spec.contigs.size());
  const double at = (1.0 - spec.gc_content) / 2.0;
  const double gc = spec.gc_content / 2.0;

  for (const auto& [name, length] : spec.contigs) {
    std::string seq;
    seq.reserve(static_cast<std::size_t>(length));
    while (static_cast<std::int64_t>(seq.size()) < length) {
      const double r = rng.uniform();
      if (r < spec.gap_rate) {
        // Assembly gap: run of N, 50-500 bases.
        const auto run = static_cast<std::size_t>(rng.range(50, 500));
        seq.append(std::min<std::size_t>(
                       run, static_cast<std::size_t>(length) - seq.size()),
                   'N');
        continue;
      }
      if (r < spec.gap_rate + spec.repeat_rate && seq.size() >= 4) {
        // Short tandem repeat: repeat the last 2-6 bases 3-12 times.
        const auto unit_len =
            std::min<std::size_t>(seq.size(),
                                  static_cast<std::size_t>(rng.range(2, 6)));
        const std::string unit = seq.substr(seq.size() - unit_len);
        const int copies = static_cast<int>(rng.range(3, 12));
        for (int c = 0; c < copies &&
                        static_cast<std::int64_t>(seq.size()) < length;
             ++c) {
          seq.append(unit.substr(
              0, std::min<std::size_t>(unit.size(),
                                       static_cast<std::size_t>(length) -
                                           seq.size())));
        }
        continue;
      }
      // Plain base with the configured GC content.
      const double b = rng.uniform();
      if (b < at) {
        seq.push_back('A');
      } else if (b < 2 * at) {
        seq.push_back('T');
      } else if (b < 2 * at + gc) {
        seq.push_back('G');
      } else {
        seq.push_back('C');
      }
    }
    contigs.push_back({name, std::move(seq)});
  }
  return Reference(std::move(contigs));
}

}  // namespace gpf::simdata
