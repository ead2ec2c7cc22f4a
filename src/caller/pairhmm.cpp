#include "caller/pairhmm.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace gpf::caller {
namespace {

constexpr double kScaleThreshold = 1e-200;
constexpr double kScaleFactor = 1e200;

double error_prob(char qual_char) {
  const int q = std::max(1, qual_char - 33);
  return std::pow(10.0, -q / 10.0);
}

/// error_prob() of every byte value, so the kernels index instead of
/// calling pow once per read base.
const std::array<double, 256>& error_probs() {
  static const std::array<double, 256> table = [] {
    std::array<double, 256> t{};
    for (std::size_t b = 0; b < t.size(); ++b) {
      t[b] = error_prob(static_cast<char>(b));
    }
    return t;
  }();
  return table;
}

// One read per lane.  Vec2 is the portable build: one register of the
// baseline ISA (SSE2 on x86-64, NEON on AArch64).  Vec4 is only compiled
// inside the AVX2 target and Vec8 inside the AVX-512 one; without their ISA
// the compiler splits and spills them, which measured slower than the
// scalar kernel.
typedef double Vec2 __attribute__((vector_size(2 * sizeof(double))));
typedef double Vec4 __attribute__((vector_size(4 * sizeof(double))));
typedef double Vec8 __attribute__((vector_size(8 * sizeof(double))));

/// Per-thread buffers, grown on demand and never shrunk.
struct Workspace {
  std::vector<std::uint8_t> hap_code;  // haplotype position -> emission code
  std::vector<char> code_byte;         // emission code -> haplotype byte
  std::vector<double> emit;            // one row: codes x lanes
  std::vector<double> state;           // columns 0..n x {M, X, Y} x lanes
  std::vector<std::size_t> order;      // read indices sorted by length
};

thread_local Workspace tls_workspace;

/// Renames the haplotype's bytes to dense emission codes: A, C, G, T, N
/// take 0-4 and every other distinct byte its own code, so a read byte
/// equal to an unusual haplotype byte still scores as a match, exactly as
/// the reference's byte comparison does.
void encode_haplotype(std::string_view haplotype, Workspace& s) {
  std::array<int, 256> code_of;
  code_of.fill(-1);
  s.code_byte.assign({'A', 'C', 'G', 'T', 'N'});
  for (std::size_t c = 0; c < s.code_byte.size(); ++c) {
    code_of[static_cast<unsigned char>(s.code_byte[c])] = static_cast<int>(c);
  }
  s.hap_code.resize(haplotype.size());
  for (std::size_t j = 0; j < haplotype.size(); ++j) {
    int& code = code_of[static_cast<unsigned char>(haplotype[j])];
    if (code < 0) {
      code = static_cast<int>(s.code_byte.size());
      s.code_byte.push_back(haplotype[j]);
    }
    s.hap_code[j] = static_cast<std::uint8_t>(code);
  }
}

/// Evaluates W equal-length, non-empty reads against the encoded
/// haplotype of length n >= 1, one read per lane of V.  Each lane performs
/// the reference recurrence's operations in the reference's order; the
/// per-lane row scaling multiplies unscaled lanes by an exact 1.0, and a
/// lane whose row underflows to zero keeps computing zeros until its
/// result is overwritten with the reference's -300.  Never compile this
/// file with FMA contraction: it would change the bits.
template <typename V, std::size_t W = sizeof(V) / sizeof(double)>
[[gnu::always_inline]] inline void run_batch(
    const PairHmmOptions& options, const std::array<const char*, W>& read,
    const std::array<const char*, W>& qual, std::size_t m, std::size_t n,
    Workspace& s, double* out) {
  constexpr std::size_t kCol = 3 * W;  // one column: M, X, Y
  const double mm = 1.0 - 2.0 * options.gap_open;
  const double gm = 1.0 - options.gap_extend;
  const double go = options.gap_open;
  const double ge = options.gap_extend;
  const auto& err = error_probs();
  const std::size_t codes = s.code_byte.size();
  if (s.emit.size() < codes * W) s.emit.resize(codes * W);
  if (s.state.size() < (n + 1) * kCol) s.state.resize((n + 1) * kCol);
  double* const emit = s.emit.data();
  double* const state = s.state.data();
  const std::uint8_t* const hap_code = s.hap_code.data();

  // Free start anywhere along the haplotype: initial mass in the D (Y)
  // state spread uniformly.
  const V zero = {};
  const V init = zero + 1.0 / static_cast<double>(n);
  for (std::size_t j = 0; j <= n; ++j) {
    std::memcpy(state + j * kCol, &zero, sizeof(V));
    std::memcpy(state + j * kCol + W, &zero, sizeof(V));
    std::memcpy(state + j * kCol + 2 * W, &init, sizeof(V));
  }

  std::array<double, W> log10_scale{};
  std::array<bool, W> underflow{};
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t c = 0; c < codes; ++c) {
      const char hb = s.code_byte[c];
      for (std::size_t l = 0; l < W; ++l) {
        const char rb = read[l][i];
        const double e = err[static_cast<unsigned char>(qual[l][i])];
        emit[c * W + l] = (rb == 'N' || hb == 'N')
                                   ? 0.25
                                   : (rb == hb ? 1.0 - e : e / 3.0);
      }
    }

    // Updated in place: the previous row's column j - 1 rides in
    // diag_*, the current row's in left_*.
    V diag_m, diag_x, diag_y;
    std::memcpy(&diag_m, state, sizeof(V));
    std::memcpy(&diag_x, state + W, sizeof(V));
    std::memcpy(&diag_y, state + 2 * W, sizeof(V));
    std::memcpy(state, &zero, sizeof(V));
    std::memcpy(state + W, &zero, sizeof(V));
    std::memcpy(state + 2 * W, &zero, sizeof(V));
    V left_m = zero;
    V left_y = zero;
    V row_max = zero;
    for (std::size_t j = 1; j <= n; ++j) {
      double* const col = state + j * kCol;
      V up_m, up_x, up_y, e;
      std::memcpy(&up_m, col, sizeof(V));
      std::memcpy(&up_x, col + W, sizeof(V));
      std::memcpy(&up_y, col + 2 * W, sizeof(V));
      std::memcpy(&e, emit + hap_code[j - 1] * W, sizeof(V));
      const V cur_m = e * (mm * diag_m + gm * diag_x + gm * diag_y);
      const V cur_x = go * up_m + ge * up_x;
      const V cur_y = go * left_m + ge * left_y;
      std::memcpy(col, &cur_m, sizeof(V));
      std::memcpy(col + W, &cur_x, sizeof(V));
      std::memcpy(col + 2 * W, &cur_y, sizeof(V));
      const V xy = cur_x > cur_y ? cur_x : cur_y;
      const V mxy = cur_m > xy ? cur_m : xy;
      row_max = row_max > mxy ? row_max : mxy;
      diag_m = up_m;
      diag_x = up_x;
      diag_y = up_y;
      left_m = cur_m;
      left_y = cur_y;
    }

    std::array<double, W> lane_max;
    std::memcpy(lane_max.data(), &row_max, sizeof(V));
    std::array<double, W> factor;
    bool scale = false;
    bool all_underflow = true;
    for (std::size_t l = 0; l < W; ++l) {
      factor[l] = 1.0;
      if (lane_max[l] > 0.0 && lane_max[l] < kScaleThreshold) {
        factor[l] = kScaleFactor;
        log10_scale[l] -= std::log10(kScaleFactor);
        scale = true;
      }
      if (lane_max[l] == 0.0) underflow[l] = true;
      all_underflow = all_underflow && underflow[l];
    }
    if (scale) {
      V f;
      std::memcpy(&f, factor.data(), sizeof(V));
      for (std::size_t k = 0; k < (n + 1) * 3; ++k) {
        V v;
        std::memcpy(&v, state + k * W, sizeof(V));
        v *= f;
        std::memcpy(state + k * W, &v, sizeof(V));
      }
    }
    if (all_underflow) break;
  }

  // Free end anywhere along the haplotype.
  V total = zero;
  for (std::size_t j = 1; j <= n; ++j) {
    V cur_m, cur_x;
    std::memcpy(&cur_m, state + j * kCol, sizeof(V));
    std::memcpy(&cur_x, state + j * kCol + W, sizeof(V));
    total += cur_m + cur_x;
  }
  std::array<double, W> lane_total;
  std::memcpy(lane_total.data(), &total, sizeof(V));
  for (std::size_t l = 0; l < W; ++l) {
    out[l] = (underflow[l] || lane_total[l] <= 0.0)
                 ? -300.0
                 : std::log10(lane_total[l]) + log10_scale[l];
  }
}

/// Groups the reads by length and runs them W at a time; a short last
/// batch of a length repeats the batch's first read and drops those lanes.
template <typename V, std::size_t W = sizeof(V) / sizeof(double)>
[[gnu::always_inline]] inline void run_reads(
    const PairHmmOptions& options, std::span<const std::string_view> reads,
    std::span<const std::string_view> quals, std::string_view haplotype,
    std::span<double> out) {
  Workspace& s = tls_workspace;
  encode_haplotype(haplotype, s);
  s.order.clear();
  for (std::size_t r = 0; r < reads.size(); ++r) {
    if (reads[r].empty()) {
      out[r] = -300.0;
    } else {
      s.order.push_back(r);
    }
  }
  std::sort(s.order.begin(), s.order.end(),
            [&reads](std::size_t a, std::size_t b) {
              return reads[a].size() != reads[b].size()
                         ? reads[a].size() < reads[b].size()
                         : a < b;
            });

  std::array<const char*, W> read;
  std::array<const char*, W> qual;
  std::array<double, W> result;
  for (std::size_t b = 0; b < s.order.size();) {
    const std::size_t m = reads[s.order[b]].size();
    std::size_t lanes = 0;
    while (lanes < W && b + lanes < s.order.size() &&
           reads[s.order[b + lanes]].size() == m) {
      ++lanes;
    }
    for (std::size_t l = 0; l < W; ++l) {
      const std::size_t r = s.order[l < lanes ? b + l : b];
      read[l] = reads[r].data();
      qual[l] = quals[r].data();
    }
    run_batch<V>(options, read, qual, m, haplotype.size(), s, result.data());
    for (std::size_t l = 0; l < lanes; ++l) out[s.order[b + l]] = result[l];
    b += lanes;
  }
}

#if defined(GPF_SIMD_X86)
// No "fma" here: contracting a multiply-add changes the rounding.
__attribute__((target("avx2"))) void run_reads_avx2(
    const PairHmmOptions& options, std::span<const std::string_view> reads,
    std::span<const std::string_view> quals, std::string_view haplotype,
    std::span<double> out) {
  run_reads<Vec4>(options, reads, quals, haplotype, out);
}

__attribute__((target("avx512f,avx512dq,avx512vl"))) void run_reads_avx512(
    const PairHmmOptions& options, std::span<const std::string_view> reads,
    std::span<const std::string_view> quals, std::string_view haplotype,
    std::span<double> out) {
  run_reads<Vec8>(options, reads, quals, haplotype, out);
}
#endif

}  // namespace

PairHmm::PairHmm(PairHmmOptions options) : options_(options) {}

double PairHmm::log10_likelihood(std::string_view read,
                                 std::string_view quality,
                                 std::string_view haplotype) const {
  double out = 0.0;
  detail::log10_likelihoods_at(simd::Level::kScalar, options_, {&read, 1},
                               {&quality, 1}, haplotype, {&out, 1});
  return out;
}

void PairHmm::log10_likelihoods(std::span<const std::string_view> reads,
                                std::span<const std::string_view> quals,
                                std::string_view haplotype,
                                std::span<double> out) const {
  detail::log10_likelihoods_at(simd::active_level(), options_, reads, quals,
                               haplotype, out);
}

namespace detail {

void log10_likelihoods_at(simd::Level level, const PairHmmOptions& options,
                          std::span<const std::string_view> reads,
                          std::span<const std::string_view> quals,
                          std::string_view haplotype, std::span<double> out) {
  if (quals.size() != reads.size() || out.size() != reads.size()) {
    throw std::invalid_argument("pairhmm: reads/quals/out size mismatch");
  }
  for (std::size_t r = 0; r < reads.size(); ++r) {
    if (reads[r].size() != quals[r].size()) {
      throw std::invalid_argument("pairhmm: read/quality length mismatch");
    }
  }
  if (haplotype.empty()) {
    std::fill(out.begin(), out.end(), -300.0);
    return;
  }
  switch (level) {
    case simd::Level::kScalar:
      run_reads<double>(options, reads, quals, haplotype, out);
      return;
    case simd::Level::kSse4:
      run_reads<Vec2>(options, reads, quals, haplotype, out);
      return;
    case simd::Level::kAvx2:
#if defined(GPF_SIMD_X86)
      run_reads_avx2(options, reads, quals, haplotype, out);
#else
      run_reads<Vec2>(options, reads, quals, haplotype, out);
#endif
      return;
    case simd::Level::kAvx512:
#if defined(GPF_SIMD_X86)
      run_reads_avx512(options, reads, quals, haplotype, out);
#else
      run_reads<Vec2>(options, reads, quals, haplotype, out);
#endif
      return;
  }
}

double log10_likelihood_reference(const PairHmmOptions& options,
                                  std::string_view read,
                                  std::string_view quality,
                                  std::string_view haplotype) {
  if (read.size() != quality.size()) {
    throw std::invalid_argument("pairhmm: read/quality length mismatch");
  }
  if (read.empty() || haplotype.empty()) return -300.0;

  const std::size_t n = haplotype.size();
  std::vector<double> m_[2], x_[2], y_[2];
  for (auto& row : m_) row.assign(n + 1, 0.0);
  for (auto& row : x_) row.assign(n + 1, 0.0);
  for (auto& row : y_) row.assign(n + 1, 0.0);

  // Transition probabilities.
  const double mm = 1.0 - 2.0 * options.gap_open;
  const double gm = 1.0 - options.gap_extend;
  const double go = options.gap_open;
  const double ge = options.gap_extend;

  // Free start anywhere along the haplotype: initial mass in the D (Y)
  // state spread uniformly.
  const double init = 1.0 / static_cast<double>(n);
  for (std::size_t j = 0; j <= n; ++j) y_[0][j] = init;

  double log10_scale = 0.0;
  int cur = 0;
  for (std::size_t i = 1; i <= read.size(); ++i) {
    const int prev = cur;
    cur ^= 1;
    const char rb = read[i - 1];
    const double e = error_prob(quality[i - 1]);
    m_[cur][0] = 0.0;
    x_[cur][0] = 0.0;
    y_[cur][0] = 0.0;
    double row_max = 0.0;
    for (std::size_t j = 1; j <= n; ++j) {
      const char hb = haplotype[j - 1];
      const double emit =
          (rb == 'N' || hb == 'N') ? 0.25 : (rb == hb ? 1.0 - e : e / 3.0);
      m_[cur][j] = emit * (mm * m_[prev][j - 1] + gm * x_[prev][j - 1] +
                           gm * y_[prev][j - 1]);
      x_[cur][j] = go * m_[prev][j] + ge * x_[prev][j];
      y_[cur][j] = go * m_[cur][j - 1] + ge * y_[cur][j - 1];
      row_max = std::max({row_max, m_[cur][j], x_[cur][j], y_[cur][j]});
    }
    if (row_max > 0.0 && row_max < kScaleThreshold) {
      for (std::size_t j = 0; j <= n; ++j) {
        m_[cur][j] *= kScaleFactor;
        x_[cur][j] *= kScaleFactor;
        y_[cur][j] *= kScaleFactor;
      }
      log10_scale -= std::log10(kScaleFactor);
    }
    if (row_max == 0.0) return -300.0;  // underflow: effectively impossible
  }

  // Free end anywhere along the haplotype.
  double total = 0.0;
  for (std::size_t j = 1; j <= n; ++j) total += m_[cur][j] + x_[cur][j];
  if (total <= 0.0) return -300.0;
  return std::log10(total) + log10_scale;
}

}  // namespace detail
}  // namespace gpf::caller
