// Binary serialization primitives.
//
// All wire formats in this library (piggybacked metadata, checkpoint images,
// packet payloads) are little-endian, fixed-width encodings written through
// ByteWriter and read back through ByteReader.  The encoding is deliberately
// simple: the simulated fabric moves bytes inside one address space, but the
// piggyback *sizes* feed directly into the paper's Fig. 6/7 overhead
// measurements, so every field is encoded exactly as it would be on a real
// wire.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.h"

namespace windar::util {

using Bytes = std::vector<std::uint8_t>;

/// Little-endian bulk copies between u32 words and bytes (one memcpy on a
/// little-endian host).
inline void store_u32s(std::uint8_t* out, std::span<const std::uint32_t> v) {
  if constexpr (std::endian::native == std::endian::little) {
    if (!v.empty()) std::memcpy(out, v.data(), 4 * v.size());
  } else {
    for (std::uint32_t x : v) {
      for (int i = 0; i < 4; ++i) {
        *out++ = static_cast<std::uint8_t>(x >> (8 * i));
      }
    }
  }
}

inline void load_u32s(std::span<std::uint32_t> out, const std::uint8_t* in) {
  if constexpr (std::endian::native == std::endian::little) {
    if (!out.empty()) std::memcpy(out.data(), in, 4 * out.size());
  } else {
    for (std::uint32_t& x : out) {
      x = static_cast<std::uint32_t>(in[0]) |
          (static_cast<std::uint32_t>(in[1]) << 8) |
          (static_cast<std::uint32_t>(in[2]) << 16) |
          (static_cast<std::uint32_t>(in[3]) << 24);
      in += 4;
    }
  }
}

/// Appends little-endian fixed-width values to a byte vector.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(Bytes initial) : buf_(std::move(initial)) {}

  void u8(std::uint8_t v) {
    ensure(1);
    buf_.push_back(v);
  }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i32(std::int32_t v) { put_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    put_le(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed raw bytes.
  void bytes(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    raw(data);
  }

  /// Raw bytes without a length prefix (caller knows the framing).
  void raw(std::span<const std::uint8_t> data) {
    ensure(data.size());
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    ensure(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Length-prefixed vector of u32 (the shape of a depend_interval vector).
  /// Reserves the whole section once and writes the words in bulk: a fresh
  /// writer encoding an n-entry vector makes exactly one allocation of
  /// 4 + 4n bytes.
  void u32_vec(std::span<const std::uint32_t> v) {
    ensure(4 + 4 * v.size());
    u32(static_cast<std::uint32_t>(v.size()));
    const std::size_t at = buf_.size();
    buf_.resize(at + 4 * v.size());
    store_u32s(buf_.data() + at, v);
  }

  void u64_vec(std::span<const std::uint64_t> v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (auto x : v) u64(x);
  }

  std::size_t size() const { return buf_.size(); }
  const Bytes& view() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  template <typename T>
  void put_le(T v) {
    ensure(sizeof(T));
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  /// Grows straight to a useful capacity instead of letting the vector
  /// double through 1/2/4/8-byte steps — a fresh writer encoding a small
  /// piggyback or header costs one allocation, not five.
  void ensure(std::size_t extra) {
    const std::size_t need = buf_.size() + extra;
    if (need > buf_.capacity()) {
      buf_.reserve(std::max({std::size_t{48}, need, 2 * buf_.capacity()}));
    }
  }

  Bytes buf_;
};

/// Reads values written by ByteWriter, bounds-checked.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    WINDAR_CHECK_LE(pos_ + 1, data_.size()) << "ByteReader underflow";
    return data_[pos_++];
  }
  std::uint16_t u16() { return get_le<std::uint16_t>(); }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(get_le<std::uint32_t>()); }
  std::int64_t i64() { return static_cast<std::int64_t>(get_le<std::uint64_t>()); }
  double f64() {
    std::uint64_t bits = get_le<std::uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  bool boolean() { return u8() != 0; }

  Bytes bytes() {
    std::uint32_t n = u32();
    WINDAR_CHECK_LE(n, remaining()) << "ByteReader underflow";
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  std::string str() {
    std::uint32_t n = u32();
    WINDAR_CHECK_LE(n, remaining()) << "ByteReader underflow";
    std::string out(reinterpret_cast<const char*>(data_.data()) + pos_, n);
    pos_ += n;
    return out;
  }

  std::vector<std::uint32_t> u32_vec() {
    std::uint32_t n = u32();
    // Validate the whole section against remaining() BEFORE reserving: a
    // corrupt length prefix must die on the bounds check, not first attempt
    // a multi-gigabyte reserve.
    WINDAR_CHECK_LE(std::size_t{n} * sizeof(std::uint32_t), remaining())
        << "ByteReader underflow";
    std::vector<std::uint32_t> out(n);
    load_u32s(out, raw(std::size_t{n} * sizeof(std::uint32_t)).data());
    return out;
  }

  std::vector<std::uint64_t> u64_vec() {
    std::uint32_t n = u32();
    WINDAR_CHECK_LE(std::size_t{n} * sizeof(std::uint64_t), remaining())
        << "ByteReader underflow";
    std::vector<std::uint64_t> out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) out.push_back(u64());
    return out;
  }

  /// Consumes `n` raw bytes and returns a view into the underlying data
  /// (valid as long as the span the reader was built over).
  std::span<const std::uint8_t> raw(std::size_t n) {
    WINDAR_CHECK_LE(n, remaining()) << "ByteReader underflow";
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return remaining() == 0; }

 private:
  template <typename T>
  T get_le() {
    WINDAR_CHECK_LE(pos_ + sizeof(T), data_.size()) << "ByteReader underflow";
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Convenience: serialize a trivially-copyable struct as raw bytes.  Used for
/// fixed-layout application state snapshots in tests and examples.
template <typename T>
  requires std::is_trivially_copyable_v<T>
Bytes to_bytes(const T& v) {
  Bytes out(sizeof(T));
  std::memcpy(out.data(), &v, sizeof(T));
  return out;
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
T from_bytes(std::span<const std::uint8_t> data) {
  WINDAR_CHECK_EQ(data.size(), sizeof(T)) << "from_bytes size mismatch";
  T v;
  std::memcpy(&v, data.data(), sizeof(T));
  return v;
}

}  // namespace windar::util
