#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace railgun::crc32c {

namespace {

// Table-driven CRC32C (polynomial 0x82f63b78, reflected).
std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = MakeTable();
  return table;
}

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes the same CRC, 8 bytes a step.
// Compiled for SSE4.2 whatever the build targets; Extend calls it only
// when the CPU reports the instruction.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                        const char* data,
                                                        size_t n) {
  uint64_t crc = init_crc ^ 0xffffffffu;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  for (; n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0; --n) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
  }
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  for (; n > 0; --n) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
  }
  return static_cast<uint32_t>(crc) ^ 0xffffffffu;
}
#endif

}  // namespace

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  const auto& table = Table();
  uint32_t crc = init_crc ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ static_cast<unsigned char>(data[i])) & 0xff] ^
          (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

bool HardwareAvailable() {
#if defined(__x86_64__)
  static const bool available = __builtin_cpu_supports("sse4.2");
  return available;
#else
  return false;
#endif
}

uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n) {
#if defined(__x86_64__)
  return ExtendSse42(init_crc, data, n);
#else
  return ExtendPortable(init_crc, data, n);
#endif
}

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  return HardwareAvailable() ? ExtendHardware(init_crc, data, n)
                             : ExtendPortable(init_crc, data, n);
}

}  // namespace railgun::crc32c
