// Shared test codec: shuffles of plain-old-data records round-trip through
// a memcpy of the bucket, so engine tests exercise the encode/checksum/
// decode path without dragging in the genomic record formats.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "engine/dataset.hpp"

namespace gpf::tests {

template <typename T>
engine::ShuffleCodec<T> pod_codec() {
  static_assert(std::is_trivially_copyable_v<T>);
  engine::ShuffleCodec<T> c;
  c.encode = [](std::span<const T> xs, std::vector<std::uint8_t>& out) {
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(xs.data());
    out.assign(bytes, bytes + xs.size_bytes());
  };
  c.decode = [](std::span<const std::uint8_t> bytes) {
    std::vector<T> out(bytes.size() / sizeof(T));
    if (!out.empty()) {
      std::memcpy(out.data(), bytes.data(), out.size() * sizeof(T));
    }
    return out;
  };
  return c;
}

}  // namespace gpf::tests
