// CRC-32 (ISO-HDLC polynomial, the zlib/PNG variant) for the on-disk
// store's per-section integrity checks. Software slicing-by-8: eight
// table lookups advance eight bytes, several times the byte-at-a-time
// rate, which matters because every warm boot checksums every section it
// loads. The values are the standard CRC-32 ones (Crc32("123456789") ==
// 0xCBF43926), so stored files are unaffected by the table layout.

#ifndef ZIGGY_COMMON_CHECKSUM_H_
#define ZIGGY_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ziggy {

/// \brief CRC-32 of a raw span, optionally chained from a previous value
/// (pass the prior return as `seed` to checksum discontiguous spans).
/// Named distinctly from the string_view overload: a string literal would
/// otherwise convert to const void* and silently bind a seed as a size.
uint32_t Crc32Bytes(const void* data, size_t size, uint32_t seed = 0);

inline uint32_t Crc32(std::string_view data, uint32_t seed = 0) {
  return Crc32Bytes(data.data(), data.size(), seed);
}

}  // namespace ziggy

#endif  // ZIGGY_COMMON_CHECKSUM_H_
