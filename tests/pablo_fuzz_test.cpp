// Seeded mutation fuzzer for the two trace decoders.
//
// The seed input is a small traced, faulted ESCAT run (bit-rot under
// integrity=repair with QoS on, so the trace carries events, #fault, #qos,
// #integrity and #span records).  Mutated copies go through both dialects:
//
//   binary container  byte flips, truncations, insertions, and rewritten
//                     LZ77 match distances (zero, past the output, ~2^64)
//   binary records    the same flips/truncations/insertions plus varints
//                     rewritten to values near 2^64, applied to the
//                     decompressed record stream and re-wrapped in a stored
//                     frame so they reach the record decoder
//   text              byte flips, truncations, insertions, and numeric
//                     fields rewritten to values near or past 2^64
//
// Every input must either be rejected with std::runtime_error or round-trip:
// a decoded binary trace goes binary -> text -> binary to the same bytes, and
// a decoded text trace rewrites text -> text and text -> binary -> text to
// the same bytes.  Anything
// else (another exception type, an unreadable rewrite, a changed trace) is a
// decoder bug.  All randomness comes from one seeded sim::Rng, so a failure
// replays exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/experiment.hpp"
#include "pablo/binsddf.hpp"
#include "pablo/blockcomp.hpp"
#include "pablo/sddf.hpp"
#include "pablo/varint.hpp"
#include "sim/random.hpp"

namespace sio::pablo {
namespace {

template <class T>
void keep_first(std::vector<T>& v, std::size_t n) {
  v.resize(std::min(v.size(), n));
}

const TraceFile& seed_trace() {
  static const TraceFile tf = [] {
    apps::escat::Workload w;
    w.nodes = 8;
    w.quad_cycles = 8;
    w.init_small_reads = 4;
    w.result_writes = 8;
    w.reload_record = 16 * 1024;
    auto plan = fault::FaultPlan::bit_rot_plan(3, pfs::IntegrityMode::kRepair);
    plan.qos.enabled = true;
    plan.qos.service_slots = 1;
    plan.qos.queue_limit = 1;
    core::TraceOptions topt;
    topt.spans = true;
    auto r = core::run_escat(apps::escat::make_config(apps::escat::Version::C, w), plan, topt, 1);
    TraceFile t{r.file_names,      r.events,           r.fault_events, r.qos_events,
                r.loss_events,     r.integrity_events, r.span_events};
    // Keep every record kind but few enough records for cheap iterations.
    keep_first(t.events, 150);
    keep_first(t.qos, 60);
    keep_first(t.integrity, 60);
    keep_first(t.spans, 150);
    return t;
  }();
  return tf;
}

std::string text_of(const TraceFile& t) {
  std::ostringstream out;
  write_sddf(out, t.file_names, t.events, t.faults, t.qos, t.losses, t.integrity, t.spans);
  return out.str();
}

std::string binary_of(const TraceFile& t) {
  return to_binary_sddf(t.file_names, t.events, t.faults, t.qos, t.losses, t.integrity, t.spans);
}

// ---- the round-trip oracles ----

struct Verdict {
  bool accepted = false;
  std::string failure;  ///< empty when the input was rejected or round-tripped
};

Verdict check_binary(const std::string& bin) {
  TraceFile tf;
  try {
    tf = from_binary_sddf(bin);
  } catch (const std::runtime_error&) {
    return {};
  }
  TraceFile back;
  try {
    back = from_sddf_string(text_of(tf));
  } catch (const std::runtime_error& e) {
    return {true, std::string("the text form of an accepted binary trace is unreadable: ") +
                      e.what()};
  }
  if (binary_of(back) != binary_of(tf)) return {true, "binary -> text -> binary changed it"};
  return {true, ""};
}

Verdict check_text(const std::string& text) {
  TraceFile tf;
  try {
    tf = from_sddf_string(text);
  } catch (const std::runtime_error&) {
    return {};
  }
  const std::string once = text_of(tf);
  TraceFile again;
  try {
    again = from_sddf_string(once);
  } catch (const std::runtime_error& e) {
    return {true, std::string("the rewrite of an accepted text trace is unreadable: ") +
                      e.what()};
  }
  if (text_of(again) != once) return {true, "text -> text changed it"};
  TraceFile via_binary;
  try {
    via_binary = from_binary_sddf(binary_of(tf));
  } catch (const std::runtime_error& e) {
    return {true, std::string("the binary form of an accepted text trace is unreadable: ") +
                      e.what()};
  }
  if (text_of(via_binary) != once) return {true, "text -> binary -> text changed it"};
  return {true, ""};
}

// ---- container framing ----

struct Frame {
  std::uint64_t raw_len = 0;
  std::string payload;  ///< stored bytes, or the LZ77 stream when compressed
  bool compressed = false;
};

std::vector<Frame> frames_of(const std::string& container) {
  std::vector<Frame> frames;
  std::size_t pos = kBinarySddfMagic.size();
  while (pos < container.size()) {
    Frame f;
    f.raw_len = varint::get(container, pos);
    const std::uint64_t enc_len = varint::get(container, pos);
    f.compressed = enc_len != 0;
    const std::size_t n = f.compressed ? enc_len : f.raw_len;
    f.payload = container.substr(pos, n);
    pos += n;
    frames.push_back(std::move(f));
  }
  return frames;
}

std::string container_of(const std::vector<Frame>& frames) {
  std::string c(kBinarySddfMagic);
  for (const auto& f : frames) {
    varint::put(c, f.raw_len);
    varint::put(c, f.compressed ? f.payload.size() : 0);
    c += f.payload;
  }
  return c;
}

std::string records_of(const std::string& container) {
  std::string raw;
  for (const auto& f : frames_of(container)) {
    if (f.compressed) {
      blockcomp::decompress(f.payload, f.raw_len, raw);
    } else {
      raw += f.payload;
    }
  }
  return raw;
}

std::string stored_container(const std::string& records) {
  return container_of({Frame{records.size(), records, false}});
}

// ---- mutators ----

std::size_t pick(sim::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

std::string random_bytes(sim::Rng& rng, int lo, int hi) {
  std::string s(static_cast<std::size_t>(rng.uniform_int(lo, hi)), '\0');
  for (auto& c : s) c = static_cast<char>(rng.uniform_int(0, 255));
  return s;
}

/// A value at or just below 2^64, or just past 2^63.
std::uint64_t near_wrap(sim::Rng& rng) {
  const auto k = static_cast<std::uint64_t>(rng.uniform_int(0, 64));
  return rng.bernoulli(0.75) ? ~std::uint64_t{0} - k : (std::uint64_t{1} << 63) + k;
}

/// Byte flips, a truncation, or an insertion.  Returns a description.
std::string mutate_bytes(sim::Rng& rng, std::string& s) {
  switch (rng.uniform_int(0, 2)) {
    case 0: {
      const int flips = static_cast<int>(rng.uniform_int(1, 4));
      for (int i = 0; i < flips; ++i) {
        s[pick(rng, s.size())] ^= static_cast<char>(1 << rng.uniform_int(0, 7));
      }
      return std::to_string(flips) + " bit flip(s)";
    }
    case 1: {
      const std::size_t n = pick(rng, s.size());
      s.resize(n);
      return "truncation to " + std::to_string(n) + " bytes";
    }
    default: {
      const std::size_t at = pick(rng, s.size() + 1);
      s.insert(at, random_bytes(rng, 1, 8));
      return "insertion at byte " + std::to_string(at);
    }
  }
}

/// Rewrites one match distance of the first compressed frame.
std::string mutate_lz77(sim::Rng& rng, std::string& container) {
  auto frames = frames_of(container);
  const auto it = std::find_if(frames.begin(), frames.end(),
                               [](const Frame& f) { return f.compressed; });
  if (it == frames.end()) return mutate_bytes(rng, container);
  const std::string& enc = it->payload;

  struct Match {
    std::size_t at, len;     ///< the distance varint's bytes
    std::uint64_t produced;  ///< output bytes before the match
  };
  std::vector<Match> matches;
  std::size_t pos = 0;
  std::uint64_t produced = 0;
  while (pos < enc.size()) {
    const auto token = static_cast<std::uint8_t>(enc[pos++]);
    std::uint64_t lit = token >> 4;
    if (lit == 15) lit += varint::get(enc, pos);
    pos += lit;
    produced += lit;
    const std::size_t at = pos;
    const std::uint64_t distance = varint::get(enc, pos);
    matches.push_back({at, pos - at, produced});
    if (distance == 0) break;
    std::uint64_t len = (token & 0x0f) + 4;
    if ((token & 0x0f) == 15) len += varint::get(enc, pos);
    produced += len;
  }
  const Match m = matches[pick(rng, matches.size())];
  std::uint64_t distance = 0;
  switch (rng.uniform_int(0, 3)) {
    case 0: distance = 0; break;
    case 1: distance = m.produced + 1; break;
    case 2: distance = m.produced + static_cast<std::uint64_t>(rng.uniform_int(2, 1 << 20)); break;
    default: distance = near_wrap(rng); break;
  }
  std::string fresh;
  varint::put(fresh, distance);
  it->payload = enc.substr(0, m.at) + fresh + enc.substr(m.at + m.len);
  container = container_of(frames);
  return "match distance at byte " + std::to_string(m.at) + " -> " + std::to_string(distance);
}

/// Overwrites bytes of the record stream with a 10-byte varint near 2^64.
std::string mutate_varint(sim::Rng& rng, std::string& records) {
  const std::size_t at = 1 + pick(rng, records.size() - 1);
  const std::size_t span = std::min<std::size_t>(records.size() - at, 1 + pick(rng, 10));
  const std::uint64_t v = near_wrap(rng);
  std::string fresh;
  varint::put(fresh, v);
  records.replace(at, span, fresh);
  return "varint " + std::to_string(v) + " at byte " + std::to_string(at);
}

/// Replaces one run of digits with a number at or past the 64-bit range.
std::string mutate_number(sim::Rng& rng, std::string& text) {
  static const char* const kNumbers[] = {"18446744073709551615", "18446744073709551616",
                                         "9223372036854775807", "9223372036854775808",
                                         "-1", "-9223372036854775809",
                                         "4294967295", "4294967296",
                                         "340282366920938463463374607431768211456"};
  std::size_t at = pick(rng, text.size());
  while (at < text.size() && (text[at] < '0' || text[at] > '9')) ++at;
  if (at == text.size()) return mutate_bytes(rng, text);
  std::size_t end = at;
  while (end < text.size() && text[end] >= '0' && text[end] <= '9') ++end;
  const char* n = kNumbers[pick(rng, std::size(kNumbers))];
  text.replace(at, end - at, n);
  return std::string("number at byte ") + std::to_string(at) + " -> " + n;
}

// ---- the fuzz loops ----

TEST(DecoderFuzz, SeedTraceRoundTripsInBothDialects) {
  const TraceFile& t = seed_trace();
  EXPECT_FALSE(t.faults.empty());
  EXPECT_FALSE(t.qos.empty());
  EXPECT_FALSE(t.integrity.empty());
  EXPECT_FALSE(t.spans.empty());
  EXPECT_TRUE(check_binary(binary_of(t)).accepted);
  EXPECT_EQ(check_binary(binary_of(t)).failure, "");
  EXPECT_EQ(check_text(text_of(t)).failure, "");
  EXPECT_EQ(binary_of(from_binary_sddf(binary_of(t))), binary_of(t));
  EXPECT_EQ(text_of(from_sddf_string(text_of(t))), text_of(t));
}

/// Mutates `seed` `iterations` times; every verdict must be clean, and the
/// mutations must produce both rejected and accepted inputs.  The counts keep
/// each test to a few seconds under ASan+UBSan.
/// An exception other than std::runtime_error is a failure too.
template <class Mutate>
void fuzz(std::uint64_t rng_seed, int iterations, const std::string& seed, Mutate mutate,
          Verdict (*check)(const std::string&)) {
  sim::Rng rng(rng_seed);
  int taken = 0;
  for (int i = 0; i < iterations; ++i) {
    std::string input = seed;
    const std::string what = mutate(rng, input);
    Verdict v;
    try {
      v = check(input);
    } catch (const std::exception& e) {
      v.failure = std::string("escaped as ") + typeid(e).name() + ": " + e.what();
    }
    ASSERT_EQ(v.failure, "") << "iteration " << i << ": " << what;
    taken += v.accepted ? 1 : 0;
  }
  EXPECT_GT(taken, 0) << "no mutation was accepted";
  EXPECT_LT(taken, iterations) << "no mutation was rejected";
}

TEST(DecoderFuzz, BinaryContainerMutationsAreRejectedOrRoundTrip) {
  fuzz(
      0xB1A5, 8000, binary_of(seed_trace()),
      [](sim::Rng& rng, std::string& s) {
        return rng.bernoulli(0.5) ? mutate_lz77(rng, s) : mutate_bytes(rng, s);
      },
      check_binary);
}

TEST(DecoderFuzz, BinaryRecordMutationsAreRejectedOrRoundTrip) {
  const std::string records = records_of(binary_of(seed_trace()));
  fuzz(
      0x5EC0, 4000, records,
      [](sim::Rng& rng, std::string& s) {
        const std::string what = rng.bernoulli(0.5) ? mutate_varint(rng, s) : mutate_bytes(rng, s);
        s = stored_container(s);
        return what;
      },
      check_binary);
}

TEST(DecoderFuzz, TextMutationsAreRejectedOrRoundTrip) {
  fuzz(
      0x7E47, 2000, text_of(seed_trace()),
      [](sim::Rng& rng, std::string& s) {
        return rng.bernoulli(0.5) ? mutate_number(rng, s) : mutate_bytes(rng, s);
      },
      check_text);
}

}  // namespace
}  // namespace sio::pablo
