// Flat byte-buffer serialization primitives.
//
// The engine stores every partition either as live objects or as one large
// serialized byte array (the paper's "store each RDD partition as one large
// byte array").  ByteWriter/ByteReader are the low-level primitives all
// record codecs build on: little-endian fixed-width integers, varints, and
// length-prefixed strings.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace gpf {

/// Append-only byte sink backed by a std::vector.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }
  /// Adopts `buf`'s storage (cleared, capacity kept) so encode paths can
  /// reuse pooled buffers instead of reallocating; pair with take().
  explicit ByteWriter(std::vector<std::uint8_t>&& buf)
      : buf_(std::move(buf)) {
    buf_.clear();
  }

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) { append_raw(&v, sizeof v); }
  void u32(std::uint32_t v) { append_raw(&v, sizeof v); }
  void u64(std::uint64_t v) { append_raw(&v, sizeof v); }
  void i32(std::int32_t v) { append_raw(&v, sizeof v); }
  void i64(std::int64_t v) { append_raw(&v, sizeof v); }
  void f32(float v) { append_raw(&v, sizeof v); }
  void f64(double v) { append_raw(&v, sizeof v); }

  /// LEB128-style unsigned varint: 1 byte for values < 128, which covers
  /// the vast majority of genomic record fields (flags, small lengths).
  void uvarint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  /// Zig-zag signed varint.
  void svarint(std::int64_t v) {
    uvarint((static_cast<std::uint64_t>(v) << 1) ^
            static_cast<std::uint64_t>(v >> 63));
  }

  /// Length-prefixed byte string.
  void str(std::string_view s) {
    uvarint(s.size());
    append_raw(s.data(), s.size());
  }

  /// Raw bytes without a length prefix.
  void raw(std::span<const std::uint8_t> bytes) {
    append_raw(bytes.data(), bytes.size());
  }

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  void append_raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  std::vector<std::uint8_t> buf_;
};

/// Sequential reader over a byte span; throws std::out_of_range on
/// truncated input so corrupt shuffle blocks surface immediately.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return data_[need(1)]; }
  std::uint16_t u16() { return fixed<std::uint16_t>(); }
  std::uint32_t u32() { return fixed<std::uint32_t>(); }
  std::uint64_t u64() { return fixed<std::uint64_t>(); }
  std::int32_t i32() { return fixed<std::int32_t>(); }
  std::int64_t i64() { return fixed<std::int64_t>(); }
  float f32() { return fixed<float>(); }
  double f64() { return fixed<double>(); }

  std::uint64_t uvarint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      const std::uint8_t b = u8();
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) return v;
      shift += 7;
      if (shift >= 64) throw std::out_of_range("uvarint overflow");
    }
  }

  std::int64_t svarint() {
    const std::uint64_t u = uvarint();
    return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
  }

  std::string str() {
    const std::size_t n = uvarint();
    const std::size_t at = need(n);
    return std::string(reinterpret_cast<const char*>(data_.data() + at), n);
  }

  /// Returns a view of `n` raw bytes and advances.
  std::span<const std::uint8_t> raw(std::size_t n) {
    const std::size_t at = need(n);
    return data_.subspan(at, n);
  }

  bool done() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  T fixed() {
    const std::size_t at = need(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + at, sizeof(T));
    return v;
  }

  /// Reserves `n` bytes, returning the start offset.  Compares against
  /// remaining() so a huge varint-decoded `n` cannot wrap `pos_ + n`.
  std::size_t need(std::size_t n) {
    if (n > remaining()) {
      throw std::out_of_range("ByteReader: truncated input");
    }
    const std::size_t at = pos_;
    pos_ += n;
    return at;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace gpf
