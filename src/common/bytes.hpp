// Byte-buffer utilities: big-endian writer/reader used by every on-wire codec.
//
// All protocol encodings in this project (CoAP, adapter PDUs, security
// envelopes, CRDT deltas) go through these helpers so that measured byte
// overheads are real serialized sizes, not sizeof(struct) guesses.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace iiot {

using Buffer = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Appends big-endian encoded integers and raw bytes to a Buffer.
class BufWriter {
 public:
  explicit BufWriter(Buffer& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void bytes(BytesView b) { out_.insert(out_.end(), b.begin(), b.end()); }
  void str(std::string_view s) {
    out_.insert(out_.end(), s.begin(), s.end());
  }
  /// Length-prefixed (u16) string.
  void lp_str(std::string_view s) {
    // One resize, then filled in place: GCC 12 flags a push_back followed
    // by an insert here with a false -Wstringop-overflow once inlined.
    const std::size_t at = out_.size();
    out_.resize(at + 2 + s.size());
    out_[at] = static_cast<std::uint8_t>(s.size() >> 8);
    out_[at + 1] = static_cast<std::uint8_t>(s.size());
    std::copy(s.begin(), s.end(),
              out_.begin() + static_cast<std::ptrdiff_t>(at + 2));
  }
  /// Length-prefixed (u16) byte blob.
  void lp_bytes(BytesView b) {
    u16(static_cast<std::uint16_t>(b.size()));
    bytes(b);
  }

  [[nodiscard]] std::size_t size() const { return out_.size(); }

 private:
  Buffer& out_;
};

/// Consumes big-endian encoded integers and raw bytes from a view.
/// All accessors return std::nullopt on underflow; once an underflow has
/// occurred the reader stays in the failed state (ok() == false).
class BufReader {
 public:
  explicit BufReader(BytesView in) : in_(in) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return in_.size() - pos_; }

  std::optional<std::uint8_t> u8() {
    if (!ensure(1)) return std::nullopt;
    return in_[pos_++];
  }
  std::optional<std::uint16_t> u16() {
    if (!ensure(2)) return std::nullopt;
    auto v = static_cast<std::uint16_t>((in_[pos_] << 8) | in_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::optional<std::uint32_t> u32() {
    auto hi = u16();
    auto lo = u16();
    if (!hi || !lo) return std::nullopt;
    return (static_cast<std::uint32_t>(*hi) << 16) | *lo;
  }
  std::optional<std::uint64_t> u64() {
    auto hi = u32();
    auto lo = u32();
    if (!hi || !lo) return std::nullopt;
    return (static_cast<std::uint64_t>(*hi) << 32) | *lo;
  }
  std::optional<double> f64() {
    auto bits = u64();
    if (!bits) return std::nullopt;
    double v = 0;
    std::memcpy(&v, &*bits, sizeof(v));
    return v;
  }
  std::optional<BytesView> bytes(std::size_t n) {
    if (!ensure(n)) return std::nullopt;
    BytesView v = in_.subspan(pos_, n);
    pos_ += n;
    return v;
  }
  std::optional<std::string> str(std::size_t n) {
    auto b = bytes(n);
    if (!b) return std::nullopt;
    return std::string(reinterpret_cast<const char*>(b->data()), b->size());
  }
  std::optional<std::string> lp_str() {
    auto n = u16();
    if (!n) return std::nullopt;
    return str(*n);
  }
  std::optional<Buffer> lp_bytes() {
    auto n = u16();
    if (!n) return std::nullopt;
    auto b = bytes(*n);
    if (!b) return std::nullopt;
    return Buffer(b->begin(), b->end());
  }
  /// Remaining bytes as a view (does not consume).
  [[nodiscard]] BytesView rest() const { return in_.subspan(pos_); }
  void skip(std::size_t n) { ensure(n) ? void(pos_ += n) : void(); }

 private:
  bool ensure(std::size_t n) {
    if (pos_ + n > in_.size()) {
      ok_ = false;
      return false;
    }
    return ok_;
  }

  BytesView in_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

inline Buffer to_buffer(std::string_view s) {
  return Buffer(s.begin(), s.end());
}

inline std::string to_string(BytesView b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

}  // namespace iiot
