#include "pablo/blockcomp.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "pablo/varint.hpp"

namespace sio::pablo::blockcomp {

namespace {

constexpr std::size_t kMinMatch = 4;
/// Output bytes one encoded byte may justify when reserving up front; the
/// declared raw length of a corrupt frame can be anything.
constexpr std::size_t kMaxReserveRatio = 255;
constexpr int kHashBits = 13;
constexpr std::size_t kHashSize = 1u << kHashBits;

std::uint32_t load32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t load64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Length of the common prefix of a[0, limit) and b[0, limit), compared
/// eight bytes at a time.
std::size_t common_prefix(const char* a, const char* b, std::size_t limit) {
  std::size_t len = 0;
  while (limit - len >= sizeof(std::uint64_t)) {
    const std::uint64_t diff = load64(a + len) ^ load64(b + len);
    if (diff != 0) {
      const int bit = std::endian::native == std::endian::little ? std::countr_zero(diff)
                                                                 : std::countl_zero(diff);
      return len + static_cast<std::size_t>(bit) / 8;
    }
    len += sizeof(std::uint64_t);
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

std::size_t hash4(std::uint32_t v) {
  // Multiplicative hash; the constant is the 32-bit golden-ratio prime.
  return (v * 2654435761u) >> (32 - kHashBits);
}

void put_sequence(std::string& out, std::string_view raw, std::size_t lit_begin,
                  std::size_t lit_len, std::size_t distance, std::size_t match_len) {
  const std::size_t lit_nib = lit_len < 15 ? lit_len : 15;
  const std::size_t match_extra = match_len == 0 ? 0 : match_len - kMinMatch;
  const std::size_t match_nib = match_extra < 15 ? match_extra : 15;
  out.push_back(static_cast<char>((lit_nib << 4) | match_nib));
  if (lit_nib == 15) varint::put(out, lit_len - 15);
  out.append(raw.substr(lit_begin, lit_len));
  varint::put(out, distance);  // 0 = no match (final literal flush)
  if (distance != 0 && match_nib == 15) varint::put(out, match_extra - 15);
}

/// Reads one run length: the token nibble `nib` (15 = a varint extension
/// follows) plus `bias`.  Throws unless the run fits in the `left` bytes the
/// frame still owes, checked before any sum can overflow.
std::size_t run_length(std::string_view data, std::size_t& pos, std::size_t nib,
                       std::size_t bias, std::size_t left) {
  const std::uint64_t ext = nib == 15 ? varint::get(data, pos) : 0;
  if (ext > left || nib + bias > left - ext) {
    throw std::runtime_error("blockcomp: run exceeds frame length");
  }
  return nib + bias + static_cast<std::size_t>(ext);
}

}  // namespace

void compress(std::string_view raw, std::string& out, HashTable& table) {
  table.assign(kHashSize, -1);
  const char* base = raw.data();
  const std::size_t n = raw.size();
  std::size_t pos = 0;
  std::size_t lit_begin = 0;
  // Matches never start within the last kMinMatch bytes (nothing to hash).
  while (n >= kMinMatch && pos + kMinMatch <= n) {
    const std::size_t h = hash4(load32(base + pos));
    const std::int32_t cand = table[h];
    table[h] = static_cast<std::int32_t>(pos);
    if (cand >= 0 && load32(base + cand) == load32(base + pos)) {
      const std::size_t len =
          kMinMatch + common_prefix(base + cand + kMinMatch, base + pos + kMinMatch,
                                    n - pos - kMinMatch);
      put_sequence(out, raw, lit_begin, pos - lit_begin,
                   pos - static_cast<std::size_t>(cand), len);
      // Seed the table through the match so repeats right after it hit too.
      const std::size_t end = pos + len;
      for (std::size_t s = pos + 1; s < end && s + kMinMatch <= n; ++s) {
        table[hash4(load32(base + s))] = static_cast<std::int32_t>(s);
      }
      pos = end;
      lit_begin = end;
      continue;
    }
    ++pos;
  }
  put_sequence(out, raw, lit_begin, n - lit_begin, 0, 0);
}

void decompress(std::string_view enc, std::size_t raw_len, std::string& out) {
  std::size_t pos = 0;
  const std::size_t out_base = out.size();
  out.reserve(out_base + std::min(raw_len, enc.size() * kMaxReserveRatio));
  while (true) {
    if (pos >= enc.size()) throw std::runtime_error("blockcomp: truncated frame");
    const auto token = static_cast<std::uint8_t>(enc[pos++]);
    const std::size_t lit_len =
        run_length(enc, pos, token >> 4, 0, raw_len - (out.size() - out_base));
    if (lit_len > enc.size() - pos) throw std::runtime_error("blockcomp: truncated literals");
    out.append(enc.substr(pos, lit_len));
    pos += lit_len;
    const std::uint64_t distance = varint::get(enc, pos);
    if (distance == 0) break;  // final sequence
    const std::size_t produced = out.size() - out_base;
    const std::size_t match_len =
        run_length(enc, pos, token & 0x0f, kMinMatch, raw_len - produced);
    if (distance > produced) throw std::runtime_error("blockcomp: match distance out of range");
    const std::size_t from = out.size() - static_cast<std::size_t>(distance);
    if (distance >= match_len) {
      // The source lies wholly in bytes already written.
      out.append(out, from, match_len);
    } else {
      // Overlapping match: byte by byte, so it replicates the bytes it has
      // just written, RLE-style.
      for (std::size_t i = 0; i < match_len; ++i) out.push_back(out[from + i]);
    }
  }
  if (out.size() - out_base != raw_len || pos != enc.size()) {
    throw std::runtime_error("blockcomp: frame length mismatch");
  }
}

}  // namespace sio::pablo::blockcomp
