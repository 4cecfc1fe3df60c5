// Varint / zigzag primitives for the binary SDDF encoding.
//
// LEB128-style base-128 varints (7 payload bits per byte, continuation in
// the high bit) and zigzag mapping of signed values onto unsigned ones so
// small-magnitude deltas of either sign stay one byte.  All arithmetic is on
// fixed-width unsigned types with explicit wraparound, so encode/decode round
// trips are exact for every 64-bit pattern and identical across platforms.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace sio::pablo::varint {

/// Maps a signed value onto an unsigned one with small magnitudes first:
/// 0, -1, 1, -2, 2, ... -> 0, 1, 2, 3, 4, ...
constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

/// Inverse of zigzag().
constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Appends `v` to `out` as a base-128 varint (1..10 bytes).
inline void put(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// Appends zigzag(v) as a varint.
inline void put_signed(std::string& out, std::int64_t v) { put(out, zigzag(v)); }

/// Reads one varint from data[pos...], advancing pos.  Throws on truncation
/// or a varint longer than 10 bytes (i.e. more than 64 payload bits).
inline std::uint64_t get(std::string_view data, std::size_t& pos) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos >= data.size()) throw std::runtime_error("binary SDDF: truncated varint");
    const auto byte = static_cast<std::uint8_t>(data[pos++]);
    if (shift == 63 && byte > 1) throw std::runtime_error("binary SDDF: varint overflows 64 bits");
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
  }
  throw std::runtime_error("binary SDDF: varint overflows 64 bits");
}

/// Reads one zigzag varint.
inline std::int64_t get_signed(std::string_view data, std::size_t& pos) {
  return unzigzag(get(data, pos));
}

}  // namespace sio::pablo::varint
