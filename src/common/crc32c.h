// CRC32C (Castagnoli) checksums, used to verify SSTable blocks, state
// store manifests and reservoir chunks on read.
#ifndef RAILGUN_COMMON_CRC32C_H_
#define RAILGUN_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace railgun::crc32c {

// Returns the crc32c of concat(A, data[0,n-1]) where init_crc is the
// crc32c of some string A. Uses the CPU's crc32 instruction (x86-64
// SSE4.2) when it has one, and a table loop otherwise.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

// The two paths Extend chooses between, exposed so tests can check each.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);
bool HardwareAvailable();
// REQUIRES: HardwareAvailable().
uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n);

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

// Masking makes it safe to store a CRC of a string that itself contains
// embedded CRCs (same scheme as LevelDB).
inline uint32_t Mask(uint32_t crc) {
  constexpr uint32_t kMaskDelta = 0xa282ead8ul;
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

inline uint32_t Unmask(uint32_t masked_crc) {
  constexpr uint32_t kMaskDelta = 0xa282ead8ul;
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace railgun::crc32c

#endif  // RAILGUN_COMMON_CRC32C_H_
