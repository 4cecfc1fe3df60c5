// Tests for the binary-SDDF frame compressor: seeded compress/decompress
// round trips, hand-built frames for every match-distance/length relation
// the decoder distinguishes, decoding from a slice of a larger buffer, and
// rejection of truncated or misdeclared frames.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "pablo/blockcomp.hpp"
#include "pablo/varint.hpp"
#include "sim/random.hpp"

namespace sio::pablo::blockcomp {
namespace {

/// Appends one sequence in the documented encoding: `literals`, then a
/// match of `len` bytes starting `distance` bytes back (distance 0 = final
/// sequence, no match).
void put_seq(std::string& enc, std::string_view literals, std::uint64_t distance,
             std::size_t len) {
  const std::size_t lit_nib = literals.size() < 15 ? literals.size() : 15;
  const std::size_t extra = distance == 0 ? 0 : len - 4;
  const std::size_t match_nib = extra < 15 ? extra : 15;
  enc.push_back(static_cast<char>((lit_nib << 4) | match_nib));
  if (lit_nib == 15) varint::put(enc, literals.size() - 15);
  enc.append(literals);
  varint::put(enc, distance);
  if (distance != 0 && match_nib == 15) varint::put(enc, extra - 15);
}

/// The decoded form of the same sequence, one byte at a time.
void apply_seq(std::string& raw, std::string_view literals, std::uint64_t distance,
               std::size_t len) {
  raw.append(literals);
  for (std::size_t i = 0; i < len && distance != 0; ++i) raw.push_back(raw[raw.size() - distance]);
}

std::string decompressed(std::string_view enc, std::size_t raw_len) {
  std::string out;
  decompress(enc, raw_len, out);
  return out;
}

std::string compressed(std::string_view raw) {
  HashTable table;
  std::string enc;
  compress(raw, enc, table);
  return enc;
}

/// A frame mixing fresh bytes, single-byte runs and copies of earlier bytes
/// at distances both shorter and longer than the copy.
std::string seeded_frame(sim::Rng& rng) {
  std::string raw;
  const auto target = static_cast<std::size_t>(rng.uniform_int(0, 6'000));
  while (raw.size() < target) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(1, 300));
    switch (rng.uniform_int(0, 3)) {
      case 0:
        for (std::size_t i = 0; i < len; ++i) {
          raw.push_back(static_cast<char>(rng.uniform_int(0, 255)));
        }
        break;
      case 1: raw.append(len, static_cast<char>(rng.uniform_int(0, 3))); break;
      default:
        if (raw.empty()) break;
        const auto distance = static_cast<std::size_t>(
            rng.uniform_int(1, static_cast<std::int64_t>(raw.size())));
        for (std::size_t i = 0; i < len; ++i) raw.push_back(raw[raw.size() - distance]);
        break;
    }
  }
  return raw;
}

TEST(Blockcomp, SeededFramesRoundTrip) {
  sim::Rng rng(7'654'321);
  HashTable reused;
  for (int i = 0; i < 300; ++i) {
    const std::string raw = seeded_frame(rng);
    std::string enc;
    compress(raw, enc, reused);
    // A table left over from the previous frame changes nothing.
    EXPECT_EQ(enc, compressed(raw)) << "frame " << i;
    EXPECT_LE(enc.size(), raw.size() + raw.size() / 255 + 16) << "frame " << i;
    EXPECT_EQ(decompressed(enc, raw.size()), raw) << "frame " << i;
  }
}

TEST(Blockcomp, DecodesEveryDistanceToLengthRelation) {
  struct Case {
    const char* what;
    std::uint64_t distance;
    std::size_t len;
  };
  const Case cases[] = {
      {"distance 1 (a run)", 1, 40},
      {"distance < length", 3, 10},
      {"distance = length", 16, 16},
      {"distance > length", 20, 4},
      {"long match with extension bytes", 500, 300},
      {"long overlapping match", 7, 1'000},
  };
  const std::string lits = "0123456789abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOPQRSTUV";
  for (const Case& c : cases) {
    std::string enc;
    std::string raw;
    // Enough literal bytes that every distance lands inside the frame.
    std::string head;
    while (head.size() < c.distance) head += lits;
    put_seq(enc, head, c.distance, c.len);
    apply_seq(raw, head, c.distance, c.len);
    put_seq(enc, "tail", c.distance, c.len);
    apply_seq(raw, "tail", c.distance, c.len);
    put_seq(enc, "end", 0, 0);
    apply_seq(raw, "end", 0, 0);
    EXPECT_EQ(decompressed(enc, raw.size()), raw) << c.what;
  }
}

TEST(Blockcomp, CompressorEmitsMatchesThatRoundTrip) {
  // Runs compress to distance-1 matches and repeats to long-distance ones;
  // either way the frame must shrink and decode to the input.
  for (const std::string& raw :
       {std::string(1'000, 'a'), std::string("abc") + std::string(997, 'c'),
        [] {
          std::string s;
          for (int i = 0; i < 64; ++i) s += "record-" + std::to_string(i % 5) + ";";
          return s;
        }()}) {
    const std::string enc = compressed(raw);
    EXPECT_LT(enc.size(), raw.size() / 4) << raw.substr(0, 16);
    EXPECT_EQ(decompressed(enc, raw.size()), raw) << raw.substr(0, 16);
  }
  EXPECT_EQ(decompressed(compressed(""), 0), "");
}

TEST(Blockcomp, DecodesASliceOfALargerBuffer) {
  sim::Rng rng(99);
  const std::string raw = seeded_frame(rng) + std::string(500, 'z');
  const std::string enc = compressed(raw);
  const std::string buffer = "leading garbage" + enc + "trailing garbage";
  const std::string_view slice = std::string_view(buffer).substr(15, enc.size());
  // Decoding appends: bytes already in `out` stay and are never matched.
  std::string out = "kept";
  decompress(slice, raw.size(), out);
  EXPECT_EQ(out, "kept" + raw);
}

TEST(Blockcomp, RejectsTruncatedFrames) {
  sim::Rng rng(5);
  const std::string raw = seeded_frame(rng) + std::string(300, 'q');
  const std::string enc = compressed(raw);
  for (std::size_t cut = 0; cut < enc.size(); ++cut) {
    std::string out;
    EXPECT_THROW(decompress(std::string_view(enc).substr(0, cut), raw.size(), out),
                 std::runtime_error)
        << "cut at " << cut;
  }
}

TEST(Blockcomp, RejectsFramesThatMisstateTheirLength) {
  std::string enc;
  put_seq(enc, "abcd", 4, 40);
  put_seq(enc, "!", 0, 0);
  std::string raw;
  apply_seq(raw, "abcd", 4, 40);
  apply_seq(raw, "!", 0, 0);
  ASSERT_EQ(decompressed(enc, raw.size()), raw);

  for (const std::size_t claimed : {raw.size() - 1, raw.size() + 1, std::size_t{0},
                                    std::size_t{1} << 40}) {
    std::string out;
    EXPECT_THROW(decompress(enc, claimed, out), std::runtime_error) << claimed;
  }
  // Bytes after the final sequence.
  std::string out;
  EXPECT_THROW(decompress(enc + "x", raw.size(), out), std::runtime_error);
  // A match reaching before the frame's first byte.
  std::string far;
  put_seq(far, "abcd", 5, 4);
  put_seq(far, "", 0, 0);
  out.clear();
  EXPECT_THROW(decompress(far, 8, out), std::runtime_error);
}

}  // namespace
}  // namespace sio::pablo::blockcomp
