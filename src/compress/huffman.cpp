#include "compress/huffman.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace gpf {
namespace {

constexpr int kMaxBits = 32;

struct Node {
  std::uint64_t freq;
  std::uint32_t tiebreak;  // deterministic ordering across runs
  int left = -1;
  int right = -1;
  std::int32_t symbol = -1;
};

}  // namespace

HuffmanCoder HuffmanCoder::from_frequencies(
    std::span<const std::uint64_t> frequencies) {
  HuffmanCoder coder;
  coder.lengths_.assign(frequencies.size(), 0);

  // Build the Huffman tree with a min-heap.  Ties are broken by node
  // creation order so the table is deterministic.
  std::vector<Node> nodes;
  auto cmp = [&nodes](int a, int b) {
    if (nodes[a].freq != nodes[b].freq) return nodes[a].freq > nodes[b].freq;
    return nodes[a].tiebreak > nodes[b].tiebreak;
  };
  std::priority_queue<int, std::vector<int>, decltype(cmp)> heap(cmp);

  for (std::size_t s = 0; s < frequencies.size(); ++s) {
    if (frequencies[s] == 0) continue;
    nodes.push_back({frequencies[s], static_cast<std::uint32_t>(nodes.size()),
                     -1, -1, static_cast<std::int32_t>(s)});
    heap.push(static_cast<int>(nodes.size() - 1));
  }
  if (nodes.empty()) {
    throw std::invalid_argument("Huffman: all frequencies zero");
  }
  if (nodes.size() == 1) {
    // Degenerate single-symbol alphabet: assign a 1-bit code.
    coder.lengths_[nodes[0].symbol] = 1;
    coder.build_canonical();
    return coder;
  }
  while (heap.size() > 1) {
    const int a = heap.top();
    heap.pop();
    const int b = heap.top();
    heap.pop();
    nodes.push_back({nodes[a].freq + nodes[b].freq,
                     static_cast<std::uint32_t>(nodes.size()), a, b, -1});
    heap.push(static_cast<int>(nodes.size() - 1));
  }

  // Depth-first walk to collect code lengths.
  struct Frame {
    int node;
    std::uint8_t depth;
  };
  std::vector<Frame> stack{{heap.top(), 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const Node& n = nodes[f.node];
    if (n.symbol >= 0) {
      coder.lengths_[n.symbol] = std::max<std::uint8_t>(1, f.depth);
    } else {
      if (f.depth + 1 > kMaxBits) {
        throw std::runtime_error("Huffman: code length overflow");
      }
      stack.push_back({n.left, static_cast<std::uint8_t>(f.depth + 1)});
      stack.push_back({n.right, static_cast<std::uint8_t>(f.depth + 1)});
    }
  }
  coder.build_canonical();
  return coder;
}

HuffmanCoder HuffmanCoder::from_code_lengths(
    std::span<const std::uint8_t> lengths) {
  // The lengths usually come straight off the wire, and build_canonical
  // indexes its tables by them: reject any length past kMaxBits and any
  // over-subscribed set (Kraft sum above 1), whose canonical codes would
  // overflow their lengths.  An incomplete set stays valid; the
  // single-symbol coder is one.
  std::uint64_t kraft = 0;  // in units of 2^-kMaxBits
  for (const std::uint8_t len : lengths) {
    if (len > kMaxBits) {
      throw std::invalid_argument("Huffman: code length exceeds 32 bits");
    }
    if (len > 0) kraft += std::uint64_t{1} << (kMaxBits - len);
    if (kraft > (std::uint64_t{1} << kMaxBits)) {
      throw std::invalid_argument("Huffman: over-subscribed code lengths");
    }
  }
  HuffmanCoder coder;
  coder.lengths_.assign(lengths.begin(), lengths.end());
  coder.build_canonical();
  return coder;
}

void HuffmanCoder::build_canonical() {
  // Canonical code assignment: symbols sorted by (length, symbol).
  sorted_symbols_.clear();
  for (std::uint32_t s = 0; s < lengths_.size(); ++s) {
    if (lengths_[s] > 0) sorted_symbols_.push_back(s);
  }
  std::sort(sorted_symbols_.begin(), sorted_symbols_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              if (lengths_[a] != lengths_[b]) return lengths_[a] < lengths_[b];
              return a < b;
            });

  count_per_length_.assign(kMaxBits + 1, 0);
  for (const std::uint32_t s : sorted_symbols_) ++count_per_length_[lengths_[s]];

  first_code_.assign(kMaxBits + 1, 0);
  first_index_.assign(kMaxBits + 1, 0);
  std::uint32_t code = 0;
  std::uint32_t index = 0;
  for (int len = 1; len <= kMaxBits; ++len) {
    first_code_[len] = code;
    first_index_[len] = index;
    index += count_per_length_[len];
    code = (code + count_per_length_[len]) << 1;
  }

  codes_.assign(lengths_.size(), 0);
  std::vector<std::uint32_t> next = first_code_;
  for (const std::uint32_t s : sorted_symbols_) {
    codes_[s] = next[lengths_[s]]++;
  }

  // Prefix table: every kTableBits-wide window starting with a short code
  // maps directly to (symbol, length).
  table_.assign(1u << kTableBits, TableEntry{});
  for (const std::uint32_t s : sorted_symbols_) {
    const std::uint8_t len = lengths_[s];
    if (len > kTableBits) continue;
    const std::uint32_t base = codes_[s] << (kTableBits - len);
    const std::uint32_t span = 1u << (kTableBits - len);
    for (std::uint32_t i = 0; i < span; ++i) {
      table_[base + i] = {static_cast<std::uint16_t>(s), len};
    }
  }

  // Multi-symbol table: greedily re-decode each window through table_ and
  // record every symbol whose code fits entirely in the known bits.  One
  // probe of this table then yields several symbols (short codes dominate
  // for the skewed genomic alphabets), amortizing the per-symbol
  // peek/skip bookkeeping.
  multi_.assign(1u << kTableBits, MultiEntry{});
  constexpr std::uint32_t kWindowMask = (1u << kTableBits) - 1;
  for (std::uint32_t w = 0; w <= kWindowMask; ++w) {
    MultiEntry& e = multi_[w];
    std::uint8_t used = 0;
    while (e.count < kMultiSymbols) {
      const std::uint32_t sub = (w << used) & kWindowMask;
      const TableEntry t = table_[sub];
      if (t.length == 0 || used + t.length > kTableBits) break;
      used = static_cast<std::uint8_t>(used + t.length);
      e.symbols[e.count] = t.symbol;
      e.bit_ends[e.count] = used;
      ++e.count;
    }
  }
}

std::uint32_t HuffmanCoder::decode_long(BitReader& in) const {
  // Rare path: codes longer than kTableBits, resolved canonically from a
  // 32-bit peek.
  const std::uint32_t window = in.peek(32);
  for (int len = kTableBits + 1; len <= kMaxBits; ++len) {
    const std::uint32_t code = window >> (32 - len);
    const std::uint32_t count = count_per_length_[len];
    if (count != 0 && code >= first_code_[len] &&
        code < first_code_[len] + count) {
      in.skip(len);
      return sorted_symbols_[first_index_[len] + (code - first_code_[len])];
    }
  }
  throw std::runtime_error("Huffman: invalid code");
}

}  // namespace gpf
