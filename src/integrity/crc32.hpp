#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace ipregel::integrity {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-16.
///
/// This is the framework's one CRC: the ft binary framing, the shard/net
/// wire headers, and the paged store's page seals all chain through it, so
/// a corruption test proven against one layer transfers to the others.
/// It lives in the integrity subsystem (home of the corruption-defense
/// machinery) and is re-exported as ft::crc32 for the original call
/// sites.
///
/// `seed` chains incremental computations: crc32(b, crc32(a)) ==
/// crc32(ab).
///
/// Slicing-by-16 computes exactly the byte-at-a-time table loop's value,
/// 16 bytes per step: table k maps a byte to its contribution after k
/// further zero bytes, so XOR-ing the 16 lookups (the running CRC folded
/// into the first word) equals feeding the 16 bytes one at a time. Words
/// are read with memcpy, so any alignment works; the tail under 16 bytes,
/// and all input on a big-endian target, take the byte loop.

namespace detail {

inline constexpr auto kCrcTables = [] {
  std::array<std::array<std::uint32_t, 256>, 16> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}();

}  // namespace detail

[[nodiscard]] inline std::uint32_t crc32(const void* data, std::size_t bytes,
                                         std::uint32_t seed = 0) noexcept {
  const auto& t = detail::kCrcTables;
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  if constexpr (std::endian::native == std::endian::little) {
    for (; bytes >= 16; bytes -= 16, p += 16) {
      std::uint32_t w[4];
      std::memcpy(w, p, sizeof(w));
      w[0] ^= c;
      c = t[15][w[0] & 0xFFu] ^ t[14][(w[0] >> 8) & 0xFFu] ^
          t[13][(w[0] >> 16) & 0xFFu] ^ t[12][w[0] >> 24] ^
          t[11][w[1] & 0xFFu] ^ t[10][(w[1] >> 8) & 0xFFu] ^
          t[9][(w[1] >> 16) & 0xFFu] ^ t[8][w[1] >> 24] ^
          t[7][w[2] & 0xFFu] ^ t[6][(w[2] >> 8) & 0xFFu] ^
          t[5][(w[2] >> 16) & 0xFFu] ^ t[4][w[2] >> 24] ^
          t[3][w[3] & 0xFFu] ^ t[2][(w[3] >> 8) & 0xFFu] ^
          t[1][(w[3] >> 16) & 0xFFu] ^ t[0][w[3] >> 24];
    }
  }
  for (; bytes != 0; --bytes, ++p) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace ipregel::integrity
