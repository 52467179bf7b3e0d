// Binary encoding primitives: little-endian fixed-width integers and
// LEB128 varints, shared by the SSTable, manifest and reservoir chunk formats.
#ifndef RAILGUN_COMMON_CODING_H_
#define RAILGUN_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/slice.h"

namespace railgun {

inline void EncodeFixed32(char* dst, uint32_t value) {
  memcpy(dst, &value, sizeof(value));  // Little-endian hosts only.
}

inline void EncodeFixed64(char* dst, uint64_t value) {
  memcpy(dst, &value, sizeof(value));
}

inline uint32_t DecodeFixed32(const char* ptr) {
  uint32_t result;
  memcpy(&result, ptr, sizeof(result));
  return result;
}

inline uint64_t DecodeFixed64(const char* ptr) {
  uint64_t result;
  memcpy(&result, ptr, sizeof(result));
  return result;
}

void PutFixed32(std::string* dst, uint32_t value);
void PutFixed64(std::string* dst, uint64_t value);
void PutVarint32(std::string* dst, uint32_t value);
void PutVarint64(std::string* dst, uint64_t value);
void PutLengthPrefixedSlice(std::string* dst, const Slice& value);
void PutDouble(std::string* dst, double value);

// Zig-zag encoding so small negative numbers stay small on the wire.
inline uint64_t ZigZagEncode64(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode64(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}
void PutVarsint64(std::string* dst, int64_t value);

// Decoders return true on success and advance *input past the value.
bool GetFixed32(Slice* input, uint32_t* value);
bool GetFixed64(Slice* input, uint64_t* value);
bool GetVarint32(Slice* input, uint32_t* value);
bool GetVarint64(Slice* input, uint64_t* value);
bool GetVarsint64(Slice* input, int64_t* value);
bool GetLengthPrefixedSlice(Slice* input, Slice* result);
bool GetDouble(Slice* input, double* value);

// Lower-level varint pointer interface: returns nullptr on parse failure.
const char* GetVarint32Ptr(const char* p, const char* limit, uint32_t* v);
const char* GetVarint64Ptr(const char* p, const char* limit, uint64_t* v);

int VarintLength(uint64_t v);

}  // namespace railgun

#endif  // RAILGUN_COMMON_CODING_H_
