// Deterministic byte-oriented block compressor for binary SDDF frames.
//
// The delta/varint record encoding leaves highly repetitive byte runs on the
// table (steady-state phases re-encode near-identical record patterns), so
// the binary container squeezes each flushed frame through this LZ77 stage.
// The scheme is LZ4-flavored and dependency-free:
//
//   sequence := token | literals | [distance varint] [extra match varint]
//   token    := high nibble = literal count (15 = varint extension follows
//               the token), low nibble = match length - 4 (15 = varint
//               extension follows the distance)
//   distance := varint; 0 means "no match" (only valid as the final
//               sequence, flushing trailing literals)
//
// Compression is greedy over a hash of 4-byte prefixes with last-occurrence
// chaining inside the block; there is no RNG and no heuristics that depend
// on anything but the input bytes, so identical frames compress identically
// on every platform.  Blocks are independent: a frame can be decompressed
// without its predecessors (live capture can drop a tail without corrupting
// what was already sunk).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sio::pablo::blockcomp {

/// The match finder's hash table.  A caller that compresses many frames
/// keeps one and passes it to every call, so no call allocates it anew;
/// its contents between calls do not affect the output.
using HashTable = std::vector<std::int32_t>;

/// Appends the compressed form of `raw` to `out`.  The encoding never
/// expands beyond raw.size() + raw.size()/255 + 16 bytes.
void compress(std::string_view raw, std::string& out, HashTable& table);

/// Appends exactly `raw_len` decompressed bytes to `out`; throws
/// std::runtime_error if `enc` is corrupt or decodes to a different length.
void decompress(std::string_view enc, std::size_t raw_len, std::string& out);

}  // namespace sio::pablo::blockcomp
