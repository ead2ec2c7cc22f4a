#include "align/smith_waterman.hpp"

#include <algorithm>
#include <cstdlib>
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

/// Walks the packed traceback from (i, j) back to a kStop cell; `cell(i, j)`
/// returns the packed byte the reference DP would hold there.  Shared by
/// the anti-diagonal kernel and the batch kernel, which store the same
/// bytes in different orders.
template <typename CellFn>
AlignmentResult traceback_cells(std::string_view query, std::string_view ref,
                                std::int64_t i, std::int64_t j,
                                std::int32_t score, const CellFn& cell) {
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

/// The band of one (query length, window length) shape: row i holds
/// columns jlo(i) .. jhi(i), the reference DP's band.  It keeps |j - i|
/// within `band`, widened by the length difference so a global path
/// always fits.
struct BandShape {
  std::int64_t m = 0, n = 0;
  std::int64_t lo_w = 0, hi_w = 0;  // band half-widths

  BandShape(std::int64_t qlen, std::int64_t wlen, int band)
      : m(qlen), n(wlen) {
    lo_w = band + std::max<std::int64_t>(0, m - n);
    hi_w = band + std::max<std::int64_t>(0, n - m);
  }
  std::int64_t jlo(std::int64_t i) const {
    return std::max<std::int64_t>(1, i - lo_w);
  }
  std::int64_t jhi(std::int64_t i) const {
    return std::min<std::int64_t>(n, i + hi_w);
  }
};

struct Wavefront : BandShape {
  std::string_view query, ref;
  ScoringScheme scoring;
  bool local = false;
  SwWorkspace& ws;

  // Best cell for local mode: the reference full-matrix sweep's first
  // strict maximum in row-major order.
  std::int32_t best = 0;
  std::int64_t best_i = 0, best_j = 0;
  std::int32_t h_mn = kNegInf;  // H(m, n) for the global traceback

  Wavefront(std::string_view q, std::string_view r, const ScoringScheme& s,
            int band, bool local_mode)
      : BandShape(static_cast<std::int64_t>(q.size()),
                  static_cast<std::int64_t>(r.size()), band),
        query(q), ref(r), scoring(s), local(local_mode),
        ws(tls_sw_workspace) {
    layout();
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
    return traceback_cells(
        query, ref, i, j, score,
        [this](std::int64_t ci, std::int64_t cj) { return cell(ci, cj); });
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
    case simd::Level::kAvx512:  // a wider vector measured no faster here
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

// --- inter-sequence batch kernel --------------------------------------------
//
// glocal_batch puts one (query, window) job in each int16 lane, as SWIPE
// does (Rognes, BMC Bioinformatics 2011): jobs of one shape share the band
// geometry, so every lane sweeps its own band row by row in lockstep, with
// no lane idle on any cell.  Each lane evaluates the reference recurrence's
// expressions in row-major order, with its tie-breaks and its first strict
// maximum, and keeps the same packed traceback byte per cell, so the
// results equal glocal()'s.  int16 is exact only while every value the DP
// compares fits (see detail::glocal_batch_fits_int16); other jobs take the
// int32 kernel.

/// The batch kernel's out-of-band value.  Sentinel-derived values sit at
/// most two gap terms away from it, finite ones at least two magnitudes
/// below zero, and glocal_batch_fits_int16 keeps the two ranges apart.
constexpr std::int16_t kNegInf16 = std::numeric_limits<std::int16_t>::min() / 2;

// Vec16s is only compiled inside the AVX2 target and Vec32s inside the
// AVX-512 one.
typedef std::int16_t Vec8s __attribute__((vector_size(16)));
typedef std::int16_t Vec16s __attribute__((vector_size(32)));
typedef std::int16_t Vec32s __attribute__((vector_size(64)));
typedef std::uint8_t Bytes8 __attribute__((vector_size(8)));

/// Jobs per vector: 1 for std::int16_t, 8 for Vec8s, 16 for Vec16s, 32 for
/// Vec32s.
template <typename V>
constexpr std::size_t kJobLanes = sizeof(V) / sizeof(std::int16_t);

template <typename V>
[[gnu::always_inline]] inline void load(V& v, const std::int16_t* p) {
  std::memcpy(&v, p, sizeof v);
}

template <typename V>
[[gnu::always_inline]] inline void store(std::int16_t* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

/// Stores the low byte of each int16 lane.
template <typename V>
[[gnu::always_inline]] inline void store_lane_bytes(std::uint8_t* p,
                                                    const V& v) {
  if constexpr (kJobLanes<V> == 1) {
    *p = static_cast<std::uint8_t>(v);
  } else if constexpr (kJobLanes<V> == 8) {
    const Bytes8 b = __builtin_convertvector(v, Bytes8);
    std::memcpy(p, &b, sizeof b);
  } else if constexpr (kJobLanes<V> == 16) {
    const Bytes16 b = __builtin_convertvector(v, Bytes16);
    std::memcpy(p, &b, sizeof b);
  } else {
    static_assert(kJobLanes<V> == 32);
    const Bytes32 b = __builtin_convertvector(v, Bytes32);
    std::memcpy(p, &b, sizeof b);
  }
}

/// Lane-interleaved buffers for one vector of jobs: entry k of lane l sits
/// at [k * lanes + l].  Capacity survives across calls.
struct BatchWorkspace {
  std::vector<std::int16_t> query;  // query codes by row
  std::vector<std::int16_t> ref;    // window codes by column
  std::vector<std::int16_t> h, f;   // H and F of the last row, by column
  std::vector<std::uint8_t> cells;  // packed traceback, row-major
  std::vector<std::size_t> row_base;  // first cell of row i
  std::vector<std::int16_t> best, best_i, best_j;  // per lane
  bool ref_n = false;  // some window holds an N
};

thread_local BatchWorkspace tls_batch_workspace;

/// Fills the workspace for `lanes` jobs of one shape; lanes past `count`
/// repeat job 0 and their results are dropped.
void prepare_batch(BatchWorkspace& ws, const BandShape& s,
                   const GlocalJob* const* jobs, std::size_t count,
                   std::size_t lanes) {
  const auto m = static_cast<std::size_t>(s.m);
  const auto n = static_cast<std::size_t>(s.n);
  ws.query.resize(m * lanes);
  ws.ref.resize(n * lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    const GlocalJob& job = *jobs[l < count ? l : 0];
    for (std::size_t i = 0; i < m; ++i) {
      ws.query[i * lanes + l] = static_cast<std::int16_t>(
          job.query[i] == 'N' ? kQueryN
                              : static_cast<unsigned char>(job.query[i]));
    }
    for (std::size_t j = 0; j < n; ++j) {
      ws.ref[j * lanes + l] = static_cast<std::int16_t>(
          job.ref[j] == 'N' ? kRefN : static_cast<unsigned char>(job.ref[j]));
    }
  }
  ws.ref_n = std::find(ws.ref.begin(), ws.ref.end(),
                       static_cast<std::int16_t>(kRefN)) != ws.ref.end();
  // Row 0 is the local-mode boundary: H = 0, F = -inf.
  ws.h.assign((n + 1) * lanes, 0);
  ws.f.assign((n + 1) * lanes, kNegInf16);
  ws.row_base.resize(m + 1);
  std::size_t total = 0;
  for (std::int64_t i = 1; i <= s.m; ++i) {
    ws.row_base[static_cast<std::size_t>(i)] = total;
    total += static_cast<std::size_t>(s.jhi(i) - s.jlo(i) + 1);
  }
  if (ws.cells.size() < total * lanes) ws.cells.resize(total * lanes);
  ws.best.resize(lanes);
  ws.best_i.resize(lanes);
  ws.best_j.resize(lanes);
}

/// The row-major sweep of kJobLanes<V> jobs at once; kRefN compiles in the
/// window-N check.  Around each row's band, H and F hold what the reference
/// DP has there: the row-0 and column-0 boundary, or kNegInf16.  Bands
/// only move right, so F past the band was never written, and H's column
/// jhi + 1, the furthest the next row reads, is reset after each row.
template <typename V, bool kRefN>
[[gnu::always_inline]] inline void sweep_batch(const BandShape& s,
                                               const ScoringScheme& sc,
                                               BatchWorkspace& ws) {
  constexpr auto kL = static_cast<std::int64_t>(kJobLanes<V>);
  const V zero = {};
  const V ones = zero - 1;
  const V neg_inf = zero + kNegInf16;
  const V gap_open = zero + static_cast<std::int16_t>(sc.gap_open);
  const V gap_extend = zero + static_cast<std::int16_t>(sc.gap_extend);
  const V match = zero + static_cast<std::int16_t>(sc.match);
  const V mismatch = zero + static_cast<std::int16_t>(sc.mismatch);
  const V n_score = zero + static_cast<std::int16_t>(sc.n_score);
  const V dir_diag = zero + static_cast<std::int16_t>(kDiag);
  const V dir_f = zero + static_cast<std::int16_t>(kFromF);
  const V e_bit = zero + static_cast<std::int16_t>(kEExtBit);
  const V f_bit = zero + static_cast<std::int16_t>(kFExtBit);
  std::int16_t* const hrow = ws.h.data();
  std::int16_t* const frow = ws.f.data();
  const std::int16_t* const qry = ws.query.data();
  const std::int16_t* const ref = ws.ref.data();
  V best = zero, best_i = zero, best_j = zero;

  for (std::int64_t i = 1; i <= s.m; ++i) {
    const std::int64_t lo = s.jlo(i);
    const std::int64_t hi = s.jhi(i);
    std::uint8_t* tb =
        ws.cells.data() + ws.row_base[static_cast<std::size_t>(i)] * kL;
    V q;
    load(q, qry + (i - 1) * kL);
    // This row's scores against a non-N window base.  The two N codes
    // equal no byte nor each other, so q == r never holds at an N.
    const V q_n = q < zero ? ones : zero;
    const V q_match = q_n ? n_score : match;
    const V q_mismatch = q_n ? n_score : mismatch;
    const V row = zero + static_cast<std::int16_t>(i);
    V col = zero + static_cast<std::int16_t>(lo);
    // H(i, lo - 1) is the column-0 boundary or out of band; E is -inf.
    V h_left = lo == 1 ? zero : neg_inf;
    V e_left = neg_inf;
    V row_best = zero, row_j = zero;
    V h_diag;
    load(h_diag, hrow + (lo - 1) * kL);  // H(i - 1, lo - 1)
    for (std::int64_t j = lo; j <= hi; ++j) {
      V h_up, f_up, r;
      load(h_up, hrow + j * kL);
      load(f_up, frow + j * kL);
      load(r, ref + (j - 1) * kL);
      // E: gap in query (deletion), consumes ref.
      const V e_open = h_left + gap_open;
      const V e_extend = e_left + gap_extend;
      const V e = e_open > e_extend ? e_open : e_extend;
      // F: gap in ref (insertion), consumes query.
      const V f_open = h_up + gap_open;
      const V f_extend = f_up + gap_extend;
      const V f = f_open > f_extend ? f_open : f_extend;
      // H, with the reference's if-chain as max and mask arithmetic.
      V sub = q == r ? q_match : q_mismatch;
      if constexpr (kRefN) sub = r < zero ? n_score : sub;
      const V h_match = h_diag + sub;
      const V take_e = e > h_match ? ones : zero;
      V h = e > h_match ? e : h_match;
      const V take_f = f > h ? ones : zero;
      h = f > h ? f : h;
      V dir = (dir_diag - take_e) | (take_f & dir_f);  // kFromF wins
      dir &= h > zero ? ones : zero;
      h = h > zero ? h : zero;
      const V packed = dir | (e_extend > e_open ? e_bit : zero) |
                       (f_extend > f_open ? f_bit : zero);
      store_lane_bytes(tb, packed);
      tb += kL;
      store(hrow + j * kL, h);
      store(frow + j * kL, f);
      // The row's first strict maximum.
      row_j = h > row_best ? col : row_j;
      row_best = h > row_best ? h : row_best;
      h_diag = h_up;
      h_left = h;
      e_left = e;
      col += 1;
    }
    // The first strict maximum in row-major order.
    best_i = row_best > best ? row : best_i;
    best_j = row_best > best ? row_j : best_j;
    best = row_best > best ? row_best : best;
    if (hi < s.n) store(hrow + (hi + 1) * kL, neg_inf);
  }
  store(ws.best.data(), best);
  store(ws.best_i.data(), best_i);
  store(ws.best_j.data(), best_j);
}

/// sweep_batch, with the window-N check only when some window holds an N.
template <typename V>
[[gnu::always_inline]] inline void sweep_batch_ref(const BandShape& s,
                                                   const ScoringScheme& sc,
                                                   BatchWorkspace& ws) {
  if (ws.ref_n) {
    sweep_batch<V, true>(s, sc, ws);
  } else {
    sweep_batch<V, false>(s, sc, ws);
  }
}

#if defined(GPF_SIMD_X86)
__attribute__((target("avx2"))) void sweep_batch_avx2(
    const BandShape& s, const ScoringScheme& sc, BatchWorkspace& ws) {
  sweep_batch_ref<Vec16s>(s, sc, ws);
}

__attribute__((target("avx512f,avx512bw,avx512vl"))) void sweep_batch_avx512(
    const BandShape& s, const ScoringScheme& sc, BatchWorkspace& ws) {
  sweep_batch_ref<Vec32s>(s, sc, ws);
}
#endif

/// Jobs per vector at `level`.
std::size_t batch_lanes(simd::Level level) {
  switch (level) {
    case simd::Level::kScalar:
      return 1;
    case simd::Level::kSse4:
      return kJobLanes<Vec8s>;
    case simd::Level::kAvx2:
#if defined(GPF_SIMD_X86)
      return kJobLanes<Vec16s>;
#else
      return kJobLanes<Vec8s>;
#endif
    case simd::Level::kAvx512:
#if defined(GPF_SIMD_X86)
      return kJobLanes<Vec32s>;
#else
      return kJobLanes<Vec8s>;
#endif
  }
  return 1;
}

/// Aligns `count` jobs of shape `s` (at most batch_lanes(level)) in one
/// sweep and writes each lane's result to out[index[l]].
void run_batch(simd::Level level, const BandShape& s, const ScoringScheme& sc,
               const GlocalJob* const* jobs, const std::uint32_t* index,
               std::size_t count, std::vector<AlignmentResult>& out) {
  BatchWorkspace& ws = tls_batch_workspace;
  const std::size_t lanes = batch_lanes(level);
  prepare_batch(ws, s, jobs, count, lanes);
  if (lanes == 1) {
    sweep_batch_ref<std::int16_t>(s, sc, ws);
  } else if (lanes == kJobLanes<Vec8s>) {
    sweep_batch_ref<Vec8s>(s, sc, ws);
  } else {
#if defined(GPF_SIMD_X86)
    if (lanes == kJobLanes<Vec16s>) {
      sweep_batch_avx2(s, sc, ws);
    } else {
      sweep_batch_avx512(s, sc, ws);
    }
#endif
  }
  for (std::size_t l = 0; l < count; ++l) {
    const std::int32_t best = ws.best[l];
    if (best <= 0) {
      out[index[l]] = {};
      continue;
    }
    const auto cell = [&ws, &s, l, lanes](std::int64_t i, std::int64_t j) {
      if (i == 0 || j == 0 || j < s.jlo(i) || j > s.jhi(i)) {
        return std::uint8_t{kStop};
      }
      const std::size_t c =
          ws.row_base[static_cast<std::size_t>(i)] +
          static_cast<std::size_t>(j - s.jlo(i));
      return ws.cells[c * lanes + l];
    };
    out[index[l]] = traceback_cells(jobs[l]->query, jobs[l]->ref,
                                    ws.best_i[l], ws.best_j[l], best, cell);
  }
}

// --- reference kernel -------------------------------------------------------
//
// The original full-matrix Gotoh DP, kept verbatim so tests can assert the
// kernels above are result-identical (see
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

void glocal_batch(std::span<const GlocalJob> jobs,
                  const ScoringScheme& scoring, int band,
                  std::vector<AlignmentResult>& out) {
  detail::glocal_batch_at(simd::active_level(), jobs, scoring, band, out);
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

void glocal_batch_at(simd::Level level, std::span<const GlocalJob> jobs,
                     const ScoringScheme& scoring, int band,
                     std::vector<AlignmentResult>& out) {
  check_band(band);
  out.assign(jobs.size(), AlignmentResult{});
  // Jobs the int16 lanes hold exactly, grouped by shape; the rest take
  // the int32 kernel.
  std::vector<std::uint32_t> order;
  order.reserve(jobs.size());
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const GlocalJob& job = jobs[k];
    if (job.query.empty() || job.ref.empty()) continue;
    if (glocal_batch_fits_int16(job.query.size(), job.ref.size(), scoring)) {
      order.push_back(static_cast<std::uint32_t>(k));
    } else {
      out[k] = glocal_at(level, job.query, job.ref, scoring, band);
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [&jobs](std::uint32_t a, std::uint32_t b) {
                     return std::pair(jobs[a].query.size(),
                                      jobs[a].ref.size()) <
                            std::pair(jobs[b].query.size(),
                                      jobs[b].ref.size());
                   });
  const std::size_t lanes = batch_lanes(level);
  std::vector<const GlocalJob*> vec(lanes);
  for (std::size_t g = 0; g < order.size();) {
    const GlocalJob& first = jobs[order[g]];
    std::size_t end = g + 1;
    while (end < order.size() &&
           jobs[order[end]].query.size() == first.query.size() &&
           jobs[order[end]].ref.size() == first.ref.size()) {
      ++end;
    }
    const BandShape shape(static_cast<std::int64_t>(first.query.size()),
                          static_cast<std::int64_t>(first.ref.size()), band);
    for (; g < end; g += lanes) {
      const std::size_t count = std::min(lanes, end - g);
      if (2 * count < lanes) {
        // Less than half a vector: the int32 kernel is cheaper.
        for (std::size_t k = g; k < end; ++k) {
          out[order[k]] = glocal_at(level, jobs[order[k]].query,
                                    jobs[order[k]].ref, scoring, band);
        }
        break;
      }
      for (std::size_t l = 0; l < count; ++l) vec[l] = &jobs[order[g + l]];
      run_batch(level, shape, scoring, vec.data(), order.data() + g, count,
                out);
    }
    g = end;
  }
}

/// True when int16 holds every value a local-mode DP of a `qlen`-base query
/// compares: scores up to qlen times the largest substitution score, and
/// values down to kNegInf16 plus two gap terms, with the finite ones (no
/// lower than two score magnitudes below zero) above kNegInf16.  Positive
/// gap scores break those bounds and take the int32 kernel.
bool glocal_batch_fits_int16(std::size_t qlen, std::size_t wlen,
                             const ScoringScheme& s) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int16_t>::max();
  if (s.gap_open > 0 || s.gap_extend > 0) return false;
  if (qlen > static_cast<std::size_t>(kMax) ||
      wlen > static_cast<std::size_t>(kMax)) {
    return false;
  }
  const std::int64_t magnitude = std::max<std::int64_t>(
      {std::abs(std::int64_t{s.match}), std::abs(std::int64_t{s.mismatch}),
       std::abs(std::int64_t{s.n_score}), -std::int64_t{s.gap_open},
       -std::int64_t{s.gap_extend}});
  if (2 * magnitude >= -std::int64_t{kNegInf16}) return false;
  const std::int64_t top =
      std::max<std::int64_t>({0, s.match, s.mismatch, s.n_score});
  return static_cast<std::int64_t>(qlen) * top <= kMax;
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
