// Event model: schema'd rows with a timestamp and a deduplication id.
// Serialization is schema-directed (field order and types come from the
// Schema, so the wire form stores no per-field metadata) with varint /
// zig-zag packing — the "data format ... efficient in terms of
// deserialization time and size" of paper §3.
#ifndef RAILGUN_RESERVOIR_EVENT_H_
#define RAILGUN_RESERVOIR_EVENT_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/clock.h"
#include "common/slice.h"
#include "common/status.h"

namespace railgun::reservoir {

enum class FieldType : uint8_t {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,
  kBool = 3,
};

struct FieldValue {
  std::variant<int64_t, double, std::string, bool> value;

  FieldValue() : value(int64_t{0}) {}
  FieldValue(int64_t v) : value(v) {}            // NOLINT
  FieldValue(double v) : value(v) {}             // NOLINT
  FieldValue(std::string v) : value(std::move(v)) {}  // NOLINT
  FieldValue(const char* v) : value(std::string(v)) {}  // NOLINT
  FieldValue(bool v) : value(v) {}               // NOLINT

  bool is_int() const { return std::holds_alternative<int64_t>(value); }
  bool is_double() const { return std::holds_alternative<double>(value); }
  bool is_string() const { return std::holds_alternative<std::string>(value); }
  bool is_bool() const { return std::holds_alternative<bool>(value); }

  int64_t as_int() const { return std::get<int64_t>(value); }
  double as_double() const { return std::get<double>(value); }
  const std::string& as_string() const { return std::get<std::string>(value); }
  bool as_bool() const { return std::get<bool>(value); }

  // Numeric coercion used by aggregators (int -> double).
  double ToNumber() const {
    if (is_int()) return static_cast<double>(as_int());
    if (is_double()) return as_double();
    if (is_bool()) return as_bool() ? 1.0 : 0.0;
    return 0.0;
  }

  std::string ToString() const;

  bool operator==(const FieldValue& other) const { return value == other.value; }
};

struct SchemaField {
  std::string name;
  FieldType type;
};

// An immutable, versioned event schema.
class Schema {
 public:
  Schema() = default;
  Schema(uint32_t id, std::vector<SchemaField> fields);

  uint32_t id() const { return id_; }
  const std::vector<SchemaField>& fields() const { return fields_; }
  size_t num_fields() const { return fields_.size(); }

  // Returns the field index, or -1.
  int FieldIndex(const std::string& name) const;

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice* input, Schema* schema);

 private:
  uint32_t id_ = 0;
  std::vector<SchemaField> fields_;
};

// One stream event. `offset` is the position in the source message log
// (used to correlate checkpoints with replay positions); `id` is the
// deduplication key.
struct Event {
  Micros timestamp = 0;
  uint64_t id = 0;
  uint64_t offset = 0;
  std::vector<FieldValue> values;

  const FieldValue& value(size_t field_index) const {
    return values[field_index];
  }
};

// Schema-directed event codec.
class EventCodec {
 public:
  explicit EventCodec(const Schema* schema) : schema_(schema) {}

  // Appends the event (timestamp delta-encoded against base_ts).
  void Encode(const Event& event, Micros base_ts, std::string* dst) const;
  Status Decode(Slice* input, Micros base_ts, Event* event) const;
  // Checks every field of one encoded event and moves past it without
  // materializing values; reports the event's timestamp.
  Status Skip(Slice* input, Micros base_ts, Micros* timestamp) const;

 private:
  const Schema* schema_;
};

}  // namespace railgun::reservoir

#endif  // RAILGUN_RESERVOIR_EVENT_H_
