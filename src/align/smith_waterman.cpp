#include "align/smith_waterman.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace gpf::align {
namespace {

constexpr std::int32_t kNegInf = std::numeric_limits<std::int32_t>::min() / 4;

std::int32_t substitution(char a, char b, const ScoringScheme& s) {
  if (a == 'N' || b == 'N') return s.n_score;
  return a == b ? s.match : s.mismatch;
}

/// Traceback direction codes for the H matrix.
enum : std::uint8_t {
  kStop = 0,
  kDiag = 1,
  kFromE = 2,  // deletion run ends here
  kFromF = 3,  // insertion run ends here
};

// --- production kernel ------------------------------------------------------
//
// Banded Gotoh DP swept by anti-diagonals.  The cells (i, j) with
// i + j = d depend only on diagonals d-1 (E, F and the open moves) and d-2
// (the diagonal move), never on each other, so one SIMD vector holds
// consecutive rows i of one diagonal in int32 lanes.  Each lane evaluates
// the row-major recurrence's integer expressions in the same order, so
// every score, direction and tie-break equals the reference DP's.
//
// H lives in three rotating diagonals and E and F in two each, all indexed
// by row i.  Around each diagonal's band, the rows ilo-1 and ihi+1 hold
// exactly what the reference DP has there: the row-0 / column-0 boundary
// or kNegInf.  The traceback state (direction + gap-extension flags) is
// packed into one byte per banded cell, stored diagonal by diagonal.  All
// buffers come from a per-thread workspace whose capacity survives across
// calls, so the steady-state kernel performs no heap allocation.

/// Packed traceback cell: direction in the low 2 bits, gap-extension flags
/// above.  Zero means "stop, no extensions", matching the reference DP's
/// initialization, so out-of-band cells read as kStop.
constexpr std::uint8_t kDirMask = 0x3;
constexpr std::uint8_t kEExtBit = 0x4;
constexpr std::uint8_t kFExtBit = 0x8;

/// Widest vector the kernel runs; every buffer is padded by this many
/// entries so the last vector of a diagonal may run past its band.
constexpr std::size_t kMaxLanes = 8;

// int32 lanes.  Vec4i is the portable build (one register of the baseline
// ISA); Vec8i is only compiled inside the AVX2 target.
typedef std::int32_t Vec4i __attribute__((vector_size(16)));
typedef std::int32_t Vec8i __attribute__((vector_size(32)));

template <typename V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(std::int32_t);

typedef std::uint8_t Bytes16 __attribute__((vector_size(16)));
typedef std::uint8_t Bytes32 __attribute__((vector_size(32)));

// Vectors pass by reference: a by-value Vec8i outside the AVX2 target
// would change the ABI.
template <typename V>
[[gnu::always_inline]] inline void load(V& v, const std::int32_t* p) {
  std::memcpy(&v, p, sizeof v);
}

template <typename V>
[[gnu::always_inline]] inline void store(std::int32_t* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

/// Stores the low byte of each lane.
template <typename V>
[[gnu::always_inline]] inline void store_bytes(std::uint8_t* p, const V& v) {
  if constexpr (kLanes<V> == 1) {
    *p = static_cast<std::uint8_t>(v);
  } else if constexpr (kLanes<V> == 4) {
    const auto b = reinterpret_cast<Bytes16>(v);
    const auto low = __builtin_shufflevector(b, b, 0, 4, 8, 12);
    std::memcpy(p, &low, sizeof low);
  } else {
    static_assert(kLanes<V> == 8);
    // Gather within each 128-bit half, then join the halves: two
    // instructions under AVX2, where a direct 8-byte shuffle takes four.
    const auto b = reinterpret_cast<Bytes32>(v);
    const auto halves = reinterpret_cast<V>(__builtin_shufflevector(
        b, b, 0, 4, 8, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 16, 20, 24, 28,
        16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16));
    const auto low = __builtin_shufflevector(halves, halves, 0, 4);
    std::memcpy(p, &low, sizeof low);
  }
}

/// The largest lane.
template <typename V>
[[gnu::always_inline]] inline std::int32_t max_lane(const V& v) {
  if constexpr (kLanes<V> == 1) {
    return v;
  } else if constexpr (kLanes<V> == 4) {
    const V a = __builtin_shufflevector(v, v, 2, 3, 0, 1);
    const V m = v > a ? v : a;
    const V b = __builtin_shufflevector(m, m, 1, 0, 3, 2);
    return (m > b ? m : b)[0];
  } else {
    static_assert(kLanes<V> == 8);
    const V a = __builtin_shufflevector(v, v, 4, 5, 6, 7, 0, 1, 2, 3);
    const V m = v > a ? v : a;
    const V b = __builtin_shufflevector(m, m, 2, 3, 0, 1, 6, 7, 4, 5);
    const V m2 = m > b ? m : b;
    const V c = __builtin_shufflevector(m2, m2, 1, 0, 3, 2, 5, 4, 7, 6);
    return (m2 > c ? m2 : c)[0];
  }
}

struct SwWorkspace {
  std::vector<std::int32_t> h[3];  // H on diagonals d, d-1, d-2
  std::vector<std::int32_t> e[2];  // E on diagonals d, d-1
  std::vector<std::int32_t> f[2];  // F on diagonals d, d-1
  std::vector<std::int32_t> query;  // query bytes (N as kQueryN)
  std::vector<std::int32_t> rev;    // reversed reference (N as kRefN)
  std::vector<std::uint8_t> cells;  // packed traceback, diagonal-major
  std::vector<std::size_t> base;    // first cell of diagonal d in `cells`
  std::vector<std::int64_t> ilo;    // first banded row of diagonal d
};

thread_local SwWorkspace tls_sw_workspace;

/// The kernel's codes for N.  Other bytes load as 0..255, so these equal
/// no byte nor each other, and (q | r) < 0 flags the n_score case.
constexpr std::int32_t kQueryN = -1000;
constexpr std::int32_t kRefN = -2000;

struct Wavefront {
  std::string_view query, ref;
  ScoringScheme scoring;
  bool local = false;

  std::int64_t m = 0, n = 0;
  std::int64_t lo_w = 0, hi_w = 0;  // band half-widths (see Wavefront())
  SwWorkspace& ws;

  // Best cell for local mode: the reference full-matrix sweep's first
  // strict maximum in row-major order.
  std::int32_t best = 0;
  std::int64_t best_i = 0, best_j = 0;
  std::int32_t h_mn = kNegInf;  // H(m, n) for the global traceback

  Wavefront(std::string_view q, std::string_view r, const ScoringScheme& s,
            int band, bool local_mode)
      : query(q), ref(r), scoring(s), local(local_mode),
        ws(tls_sw_workspace) {
    m = static_cast<std::int64_t>(query.size());
    n = static_cast<std::int64_t>(ref.size());
    // Band bounds: keep |j - i| within band, widened by the length
    // difference so a global path always fits.
    lo_w = band + std::max<std::int64_t>(0, m - n);
    hi_w = band + std::max<std::int64_t>(0, n - m);
    layout();
  }

  std::int64_t jlo(std::int64_t i) const {
    return std::max<std::int64_t>(1, i - lo_w);
  }
  std::int64_t jhi(std::int64_t i) const {
    return std::min<std::int64_t>(n, i + hi_w);
  }

  /// Sizes the workspace and fills the per-diagonal row range: diagonal d
  /// holds rows ilo(d) .. ilo(d) + (base[d+1] - base[d]) - 1, the rows i
  /// with 1 <= i <= m, 1 <= d-i <= n and -lo_w <= d-2i <= hi_w.
  void layout() {
    const auto rows = static_cast<std::size_t>(m) + 2 + kMaxLanes;
    for (auto& v : ws.h) v.resize(std::max(v.size(), rows), kNegInf);
    for (auto& v : ws.e) v.resize(std::max(v.size(), rows), kNegInf);
    for (auto& v : ws.f) v.resize(std::max(v.size(), rows), kNegInf);
    // Zero padding past the end is read only by lanes beyond the band.
    auto code = [](char c, std::int32_t n_code) -> std::int32_t {
      return c == 'N' ? n_code : static_cast<unsigned char>(c);
    };
    ws.query.assign(query.size() + kMaxLanes, 0);
    for (std::size_t k = 0; k < query.size(); ++k) {
      ws.query[k] = code(query[k], kQueryN);
    }
    ws.rev.assign(ref.size() + kMaxLanes, 0);
    for (std::size_t k = 0; k < ref.size(); ++k) {
      ws.rev[k] = code(ref[ref.size() - 1 - k], kRefN);
    }

    const auto diagonals = static_cast<std::size_t>(m + n) + 2;
    ws.ilo.resize(diagonals);
    ws.base.resize(diagonals);
    std::size_t total = 0;
    for (std::int64_t d = 2; d <= m + n; ++d) {
      const std::int64_t from_band = d - hi_w;  // d - 2i <= hi_w
      const std::int64_t lo = std::max<std::int64_t>(
          {1, d - n, from_band > 0 ? (from_band + 1) / 2 : 0});
      const std::int64_t hi =
          std::min<std::int64_t>({m, d - 1, (d + lo_w) / 2});
      ws.ilo[d] = lo;
      ws.base[d] = total;
      total += static_cast<std::size_t>(std::max<std::int64_t>(0, hi - lo + 1));
    }
    ws.base[m + n + 1] = total;
    if (ws.cells.size() < total + kMaxLanes) ws.cells.resize(total + kMaxLanes);
  }

  /// H of the row-0 / column-0 boundary cell k steps from the origin.
  std::int32_t boundary(std::int64_t k) const {
    if (local || k == 0) return 0;
    return scoring.gap_open +
           scoring.gap_extend * static_cast<std::int32_t>(k - 1);
  }

  /// Writes the out-of-band cell (i, d - i) as the reference DP holds it:
  /// H is the boundary value on row 0 and column 0 and kNegInf elsewhere.
  /// E and F are kNegInf.  (The reference's global-mode F(i, 0) = H(i, 0)
  /// is never read: band cells read F at columns >= 1.)
  void put_edge(std::int64_t d, std::int64_t i, std::int32_t* h,
                std::int32_t* e, std::int32_t* f) const {
    h[i] = i == 0 || i == d ? boundary(d) : kNegInf;
    e[i] = kNegInf;
    f[i] = kNegInf;
  }

  /// Traceback view of cell (i, j): boundary rows/columns are synthesized
  /// (their direction pattern is fixed by the DP initialization), in-band
  /// cells come from storage, anything else reads as kStop — exactly the
  /// reference DP's untouched-cell state.
  std::uint8_t cell(std::int64_t i, std::int64_t j) const {
    if (i == 0 || j == 0) {
      if (local || (i == 0 && j == 0)) return kStop;
      if (i == 0) return kFromE | kEExtBit;
      return kFromF | kFExtBit;
    }
    if (j < jlo(i) || j > jhi(i)) return kStop;
    const auto d = static_cast<std::size_t>(i + j);
    return ws.cells[ws.base[d] + static_cast<std::size_t>(i - ws.ilo[d])];
  }

  AlignmentResult traceback(std::int64_t i, std::int64_t j,
                            std::int32_t score) const {
    AlignmentResult out;
    out.score = score;
    out.query_end = static_cast<std::int32_t>(i);
    out.ref_end = static_cast<std::int32_t>(j);

    Cigar reversed;
    auto push = [&reversed](CigarOp op, std::uint32_t len) {
      if (!reversed.empty() && reversed.back().op == op) {
        reversed.back().length += len;
      } else {
        reversed.push_back({op, len});
      }
    };

    while (i > 0 || j > 0) {
      const std::uint8_t dir = cell(i, j) & kDirMask;
      if (dir == kStop) break;
      if (dir == kDiag) {
        push(CigarOp::kMatch, 1);
        if (query[i - 1] != ref[j - 1]) ++out.mismatches;
        --i;
        --j;
      } else if (dir == kFromE) {
        // Walk the deletion run.
        while (j > 0) {
          push(CigarOp::kDeletion, 1);
          const bool extended = (cell(i, j) & kEExtBit) != 0;
          --j;
          if (!extended) break;
        }
      } else {  // kFromF
        while (i > 0) {
          push(CigarOp::kInsertion, 1);
          const bool extended = (cell(i, j) & kFExtBit) != 0;
          --i;
          if (!extended) break;
        }
      }
    }
    out.query_start = static_cast<std::int32_t>(i);
    out.ref_start = static_cast<std::int32_t>(j);
    out.cigar.assign(reversed.rbegin(), reversed.rend());
    return out;
  }
};

/// The anti-diagonal sweep, kLanes<V> rows per step.  V is std::int32_t
/// (one lane), Vec4i or Vec8i.  The last vector of a diagonal may run past
/// its band.  Those lanes store kNegInf, so stale values never feed a later
/// vector, and their traceback bytes land where the next diagonal's cells
/// will overwrite them.
template <typename V, bool kLocal>
[[gnu::always_inline]] inline void sweep(Wavefront& w) {
  constexpr auto kW = static_cast<std::int64_t>(kLanes<V>);
  SwWorkspace& ws = w.ws;
  const std::int64_t m = w.m, n = w.n;
  const V zero = {};
  const V ones = zero - 1;
  const V neg_inf = zero + kNegInf;
  const V gap_open = zero + w.scoring.gap_open;
  const V gap_extend = zero + w.scoring.gap_extend;
  const V match = zero + w.scoring.match;
  const V mismatch = zero + w.scoring.mismatch;
  const V n_score = zero + w.scoring.n_score;
  static_assert(kDiag + 1 == kFromE && (kDiag | kFromF) == kFromF &&
                (kFromE | kFromF) == kFromF);
  const V dir_diag = zero + static_cast<std::int32_t>(kDiag);
  const V dir_f = zero + static_cast<std::int32_t>(kFromF);
  const V e_bit = zero + static_cast<std::int32_t>(kEExtBit);
  const V f_bit = zero + static_cast<std::int32_t>(kFExtBit);
  V lane = zero;
  if constexpr (kW > 1) {
    for (std::int64_t l = 0; l < kW; ++l) {
      lane[l] = static_cast<std::int32_t>(l);
    }
  }
  std::int32_t* h_cur = ws.h[0].data();
  std::int32_t* h_d1 = ws.h[1].data();
  std::int32_t* h_d2 = ws.h[2].data();
  std::int32_t* e_cur = ws.e[0].data();
  std::int32_t* e_d1 = ws.e[1].data();
  std::int32_t* f_cur = ws.f[0].data();
  std::int32_t* f_d1 = ws.f[1].data();
  const std::int32_t* const qry = ws.query.data();
  const std::int32_t* const rev = ws.rev.data();

  // Diagonal 0 is the origin; diagonal 1 is (0, 1) and (1, 0).
  w.put_edge(0, 0, h_d2, e_cur, f_cur);
  w.put_edge(1, 0, h_d1, e_d1, f_d1);
  w.put_edge(1, 1, h_d1, e_d1, f_d1);

  for (std::int64_t d = 2; d <= m + n; ++d) {
    const std::int64_t lo = ws.ilo[d];
    const auto cells = static_cast<std::int64_t>(ws.base[d + 1] - ws.base[d]);
    const std::int64_t hi = lo + cells - 1;
    std::uint8_t* const tb = ws.cells.data() + ws.base[d];
    const V row_hi = zero + static_cast<std::int32_t>(hi);
    V diag_max = zero;  // local mode: this diagonal's best H per lane
    // Rows i .. i + kW - 1; a true `tail` masks the rows past hi.
    const auto step = [&](std::int64_t i, auto tail)
                          __attribute__((always_inline)) {
      V h_left, e_left, h_up, f_up, h_diag, q, r;
      load(h_left, h_d1 + i);
      load(e_left, e_d1 + i);
      load(h_up, h_d1 + i - 1);
      load(f_up, f_d1 + i - 1);
      load(h_diag, h_d2 + i - 1);
      load(q, qry + i - 1);
      load(r, rev + (n - d + i));  // ref[j - 1] for j = d - i
      // E: gap in query (deletion), consumes ref.
      const V e_open = h_left + gap_open;
      const V e_extend = e_left + gap_extend;
      V e = e_open > e_extend ? e_open : e_extend;
      // F: gap in ref (insertion), consumes query.
      const V f_open = h_up + gap_open;
      const V f_extend = f_up + gap_extend;
      V f = f_open > f_extend ? f_open : f_extend;
      // H.
      const V sub = (q | r) < zero ? n_score : (q == r ? match : mismatch);
      // Masks are all-ones lanes; max and mask arithmetic pick the same
      // value and direction as the reference's if-chain.
      const V h_match = h_diag + sub;
      const V take_e = e > h_match ? ones : zero;
      V h = e > h_match ? e : h_match;
      const V take_f = f > h ? ones : zero;
      h = f > h ? f : h;
      V dir = (dir_diag - take_e) | (take_f & dir_f);  // kFromF wins
      if constexpr (kLocal) {
        dir &= h > zero ? ones : zero;
        h = h > zero ? h : zero;
      }
      const V packed = dir | (e_extend > e_open ? e_bit : zero) |
                       (f_extend > f_open ? f_bit : zero);
      store_bytes(tb + (i - lo), packed);
      if constexpr (decltype(tail)::value) {
        const auto live = lane + static_cast<std::int32_t>(i) <= row_hi;
        h = live ? h : neg_inf;
        e = live ? e : neg_inf;
        f = live ? f : neg_inf;
      }
      store(h_cur + i, h);
      store(e_cur + i, e);
      store(f_cur + i, f);
      if constexpr (kLocal) diag_max = diag_max > h ? diag_max : h;
    };
    std::int64_t i = lo;
    for (; i + kW - 1 <= hi; i += kW) step(i, std::false_type{});
    if (i <= hi) step(i, std::true_type{});
    if constexpr (kLocal) {
      // The reference keeps the first strict maximum in row-major order:
      // the best score, then the lowest row (a later diagonal on the same
      // row has a larger column).  Only a diagonal reaching the running
      // best can hold it; its first row with that score is the candidate.
      const std::int32_t top = max_lane(diag_max);
      if (top > 0 && top >= w.best) {
        std::int64_t r = lo;
        while (h_cur[r] != top) ++r;
        if (top > w.best || r < w.best_i) {
          w.best = top;
          w.best_i = r;
          w.best_j = d - r;
        }
      }
    }
    w.put_edge(d, lo - 1, h_cur, e_cur, f_cur);
    w.put_edge(d, hi + 1, h_cur, e_cur, f_cur);
    std::int32_t* const recycled = h_d2;
    h_d2 = h_d1;
    h_d1 = h_cur;
    h_cur = recycled;
    std::swap(e_cur, e_d1);
    std::swap(f_cur, f_d1);
  }
  // After the final rotation h_d1 holds diagonal m + n.
  w.h_mn = h_d1[m];
}

template <typename V>
[[gnu::always_inline]] inline void sweep_mode(Wavefront& w) {
  if (w.local) {
    sweep<V, true>(w);
  } else {
    sweep<V, false>(w);
  }
}

#if defined(GPF_SIMD_X86)
__attribute__((target("avx2"))) void sweep_avx2(Wavefront& w) {
  sweep_mode<Vec8i>(w);
}
#endif

void sweep_at(simd::Level level, Wavefront& w) {
  switch (level) {
    case simd::Level::kScalar:
      sweep_mode<std::int32_t>(w);
      return;
    case simd::Level::kSse4:
      sweep_mode<Vec4i>(w);
      return;
    case simd::Level::kAvx2:
#if defined(GPF_SIMD_X86)
      sweep_avx2(w);
#else
      sweep_mode<Vec4i>(w);
#endif
      return;
  }
}

void check_band(int band) {
  if (band < 0) throw std::invalid_argument("smith_waterman: negative band");
}

// --- reference kernel -------------------------------------------------------
//
// The original full-matrix Gotoh DP, kept verbatim so tests can assert the
// anti-diagonal kernel above is result-identical (see
// detail::banded_global_reference / detail::glocal_reference).

/// Gotoh DP shared by both reference entry points.  `local` toggles the
/// 0-floor and free ends; for global mode, boundaries are gap-initialized
/// and the traceback starts at (m, n).
struct Dp {
  std::string_view query, ref;
  ScoringScheme scoring;
  int band;
  bool local;

  std::size_t m, n;
  // Row-major (m+1) x (n+1).
  std::vector<std::int32_t> h, e, f;
  std::vector<std::uint8_t> h_dir;
  std::vector<std::uint8_t> e_ext, f_ext;  // 1 = came from gap extension

  std::size_t idx(std::size_t i, std::size_t j) const {
    return i * (n + 1) + j;
  }

  void run() {
    m = query.size();
    n = ref.size();
    const std::size_t cells = (m + 1) * (n + 1);
    h.assign(cells, kNegInf);
    e.assign(cells, kNegInf);
    f.assign(cells, kNegInf);
    h_dir.assign(cells, kStop);
    e_ext.assign(cells, 0);
    f_ext.assign(cells, 0);

    h[idx(0, 0)] = 0;
    if (!local) {
      for (std::size_t j = 1; j <= n; ++j) {
        h[idx(0, j)] = scoring.gap_open +
                       scoring.gap_extend * static_cast<std::int32_t>(j - 1);
        h_dir[idx(0, j)] = kFromE;
        e[idx(0, j)] = h[idx(0, j)];
        e_ext[idx(0, j)] = 1;
      }
      for (std::size_t i = 1; i <= m; ++i) {
        h[idx(i, 0)] = scoring.gap_open +
                       scoring.gap_extend * static_cast<std::int32_t>(i - 1);
        h_dir[idx(i, 0)] = kFromF;
        f[idx(i, 0)] = h[idx(i, 0)];
        f_ext[idx(i, 0)] = 1;
      }
    } else {
      for (std::size_t j = 1; j <= n; ++j) h[idx(0, j)] = 0;
      for (std::size_t i = 1; i <= m; ++i) h[idx(i, 0)] = 0;
    }

    // Band bounds: keep |j - i| within band, widened by the length
    // difference so a global path always fits.
    const std::int64_t diff = static_cast<std::int64_t>(n) -
                              static_cast<std::int64_t>(m);
    const std::int64_t lo_w = band + std::max<std::int64_t>(0, -diff);
    const std::int64_t hi_w = band + std::max<std::int64_t>(0, diff);

    for (std::size_t i = 1; i <= m; ++i) {
      const auto jlo = static_cast<std::size_t>(
          std::max<std::int64_t>(1, static_cast<std::int64_t>(i) - lo_w));
      const auto jhi = static_cast<std::size_t>(std::min<std::int64_t>(
          static_cast<std::int64_t>(n), static_cast<std::int64_t>(i) + hi_w));
      for (std::size_t j = jlo; j <= jhi; ++j) {
        const std::size_t c = idx(i, j);
        // E: gap in query (deletion), consumes ref.
        const std::int32_t e_open = h[idx(i, j - 1)] + scoring.gap_open;
        const std::int32_t e_extend = e[idx(i, j - 1)] + scoring.gap_extend;
        e[c] = std::max(e_open, e_extend);
        e_ext[c] = e_extend > e_open ? 1 : 0;
        // F: gap in ref (insertion), consumes query.
        const std::int32_t f_open = h[idx(i - 1, j)] + scoring.gap_open;
        const std::int32_t f_extend = f[idx(i - 1, j)] + scoring.gap_extend;
        f[c] = std::max(f_open, f_extend);
        f_ext[c] = f_extend > f_open ? 1 : 0;
        // H.
        const std::int32_t diag =
            h[idx(i - 1, j - 1)] +
            substitution(query[i - 1], ref[j - 1], scoring);
        std::int32_t best = diag;
        std::uint8_t dir = kDiag;
        if (e[c] > best) {
          best = e[c];
          dir = kFromE;
        }
        if (f[c] > best) {
          best = f[c];
          dir = kFromF;
        }
        if (local && best <= 0) {
          best = 0;
          dir = kStop;
        }
        h[c] = best;
        h_dir[c] = dir;
      }
    }
  }

  AlignmentResult traceback(std::size_t i, std::size_t j) const {
    AlignmentResult out;
    out.score = h[idx(i, j)];
    out.query_end = static_cast<std::int32_t>(i);
    out.ref_end = static_cast<std::int32_t>(j);

    Cigar reversed;
    auto push = [&reversed](CigarOp op, std::uint32_t len) {
      if (!reversed.empty() && reversed.back().op == op) {
        reversed.back().length += len;
      } else {
        reversed.push_back({op, len});
      }
    };

    while (i > 0 || j > 0) {
      const std::size_t c = idx(i, j);
      const std::uint8_t dir = h_dir[c];
      if (dir == kStop) break;
      if (dir == kDiag) {
        push(CigarOp::kMatch, 1);
        if (query[i - 1] != ref[j - 1]) ++out.mismatches;
        --i;
        --j;
      } else if (dir == kFromE) {
        // Walk the deletion run.
        while (j > 0) {
          push(CigarOp::kDeletion, 1);
          const bool extended = e_ext[idx(i, j)] != 0;
          --j;
          if (!extended) break;
        }
      } else {  // kFromF
        while (i > 0) {
          push(CigarOp::kInsertion, 1);
          const bool extended = f_ext[idx(i, j)] != 0;
          --i;
          if (!extended) break;
        }
      }
    }
    out.query_start = static_cast<std::int32_t>(i);
    out.ref_start = static_cast<std::int32_t>(j);
    out.cigar.assign(reversed.rbegin(), reversed.rend());
    return out;
  }
};

}  // namespace

AlignmentResult banded_global(std::string_view query, std::string_view ref,
                              const ScoringScheme& scoring, int band) {
  return detail::banded_global_at(simd::active_level(), query, ref, scoring,
                                  band);
}

AlignmentResult glocal(std::string_view query, std::string_view ref,
                       const ScoringScheme& scoring, int band) {
  return detail::glocal_at(simd::active_level(), query, ref, scoring, band);
}

namespace detail {

AlignmentResult banded_global_at(simd::Level level, std::string_view query,
                                 std::string_view ref,
                                 const ScoringScheme& scoring, int band) {
  check_band(band);
  if (query.empty() || ref.empty()) {
    throw std::invalid_argument("banded_global: empty input");
  }
  Wavefront w(query, ref, scoring, band, /*local_mode=*/false);
  sweep_at(level, w);
  return w.traceback(w.m, w.n, w.h_mn);
}

AlignmentResult glocal_at(simd::Level level, std::string_view query,
                          std::string_view ref, const ScoringScheme& scoring,
                          int band) {
  check_band(band);
  if (query.empty() || ref.empty()) return {};
  Wavefront w(query, ref, scoring, band, /*local_mode=*/true);
  sweep_at(level, w);
  if (w.best <= 0) return {};
  return w.traceback(w.best_i, w.best_j, w.best);
}

AlignmentResult banded_global_reference(std::string_view query,
                                        std::string_view ref,
                                        const ScoringScheme& scoring,
                                        int band) {
  check_band(band);
  if (query.empty() || ref.empty()) {
    throw std::invalid_argument("banded_global: empty input");
  }
  Dp dp{query, ref, scoring, band, /*local=*/false, 0, 0, {}, {}, {}, {}, {},
        {}};
  dp.run();
  return dp.traceback(dp.m, dp.n);
}

AlignmentResult glocal_reference(std::string_view query, std::string_view ref,
                                 const ScoringScheme& scoring, int band) {
  check_band(band);
  if (query.empty() || ref.empty()) return {};
  Dp dp{query, ref, scoring, band, /*local=*/true, 0, 0, {}, {}, {}, {}, {},
        {}};
  dp.run();
  // Find the best cell anywhere (true local optimum).
  std::int32_t best = 0;
  std::size_t bi = 0, bj = 0;
  for (std::size_t i = 1; i <= dp.m; ++i) {
    for (std::size_t j = 1; j <= dp.n; ++j) {
      if (dp.h[dp.idx(i, j)] > best) {
        best = dp.h[dp.idx(i, j)];
        bi = i;
        bj = j;
      }
    }
  }
  if (best <= 0) return {};
  return dp.traceback(bi, bj);
}

}  // namespace detail

}  // namespace gpf::align
