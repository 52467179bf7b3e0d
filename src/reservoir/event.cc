#include "reservoir/event.h"

#include <cstdio>

#include "common/coding.h"

namespace railgun::reservoir {

std::string FieldValue::ToString() const {
  if (is_int()) return std::to_string(as_int());
  if (is_double()) {
    char buf[32];
    snprintf(buf, sizeof(buf), "%.6g", as_double());
    return buf;
  }
  if (is_bool()) return as_bool() ? "true" : "false";
  return as_string();
}

Schema::Schema(uint32_t id, std::vector<SchemaField> fields)
    : id_(id), fields_(std::move(fields)) {}

int Schema::FieldIndex(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

void Schema::EncodeTo(std::string* dst) const {
  PutVarint32(dst, id_);
  PutVarint32(dst, static_cast<uint32_t>(fields_.size()));
  for (const auto& f : fields_) {
    PutLengthPrefixedSlice(dst, f.name);
    dst->push_back(static_cast<char>(f.type));
  }
}

Status Schema::DecodeFrom(Slice* input, Schema* schema) {
  uint32_t id, num_fields;
  if (!GetVarint32(input, &id) || !GetVarint32(input, &num_fields)) {
    return Status::Corruption("bad schema header");
  }
  std::vector<SchemaField> fields;
  fields.reserve(num_fields);
  for (uint32_t i = 0; i < num_fields; ++i) {
    Slice name;
    if (!GetLengthPrefixedSlice(input, &name) || input->empty()) {
      return Status::Corruption("bad schema field");
    }
    const FieldType type = static_cast<FieldType>((*input)[0]);
    input->remove_prefix(1);
    fields.push_back({name.ToString(), type});
  }
  *schema = Schema(id, std::move(fields));
  return Status::OK();
}

void EventCodec::Encode(const Event& event, Micros base_ts,
                        std::string* dst) const {
  PutVarsint64(dst, event.timestamp - base_ts);
  PutVarint64(dst, event.id);
  PutVarint64(dst, event.offset);
  const auto& fields = schema_->fields();
  for (size_t i = 0; i < fields.size(); ++i) {
    const FieldValue& v = event.values[i];
    switch (fields[i].type) {
      case FieldType::kInt64:
        PutVarsint64(dst, v.is_int() ? v.as_int()
                                     : static_cast<int64_t>(v.ToNumber()));
        break;
      case FieldType::kDouble:
        PutDouble(dst, v.ToNumber());
        break;
      case FieldType::kString:
        PutLengthPrefixedSlice(dst, v.is_string() ? Slice(v.as_string())
                                                  : Slice(v.ToString()));
        break;
      case FieldType::kBool:
        dst->push_back(v.is_bool() ? (v.as_bool() ? 1 : 0)
                                   : (v.ToNumber() != 0 ? 1 : 0));
        break;
    }
  }
}

Status EventCodec::Decode(Slice* input, Micros base_ts, Event* event) const {
  int64_t ts_delta;
  uint64_t id, offset;
  if (!GetVarsint64(input, &ts_delta) || !GetVarint64(input, &id) ||
      !GetVarint64(input, &offset)) {
    return Status::Corruption("bad event header");
  }
  event->timestamp = static_cast<Micros>(static_cast<uint64_t>(base_ts) +
                                        static_cast<uint64_t>(ts_delta));
  event->id = id;
  event->offset = offset;
  // Overwrite the value slots in place: a reused event keeps its string
  // capacity, so decoding into warm scratch allocates nothing.
  const auto& fields = schema_->fields();
  event->values.resize(fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    FieldValue& slot = event->values[i];
    switch (fields[i].type) {
      case FieldType::kInt64: {
        int64_t v;
        if (!GetVarsint64(input, &v)) return Status::Corruption("bad int");
        slot.value = v;
        break;
      }
      case FieldType::kDouble: {
        double v;
        if (!GetDouble(input, &v)) return Status::Corruption("bad double");
        slot.value = v;
        break;
      }
      case FieldType::kString: {
        Slice v;
        if (!GetLengthPrefixedSlice(input, &v)) {
          return Status::Corruption("bad string");
        }
        if (slot.is_string()) {
          std::get<std::string>(slot.value).assign(v.data(), v.size());
        } else {
          slot.value = v.ToString();
        }
        break;
      }
      case FieldType::kBool: {
        if (input->empty()) return Status::Corruption("bad bool");
        slot.value = (*input)[0] != 0;
        input->remove_prefix(1);
        break;
      }
    }
  }
  return Status::OK();
}

Status EventCodec::Skip(Slice* input, Micros base_ts,
                        Micros* timestamp) const {
  int64_t ts_delta = 0;
  uint64_t id = 0, offset = 0;
  if (!GetVarsint64(input, &ts_delta) || !GetVarint64(input, &id) ||
      !GetVarint64(input, &offset)) {
    return Status::Corruption("bad event header");
  }
  // A wrapping add, as in Decode: the delta comes from unchecked bytes.
  *timestamp = static_cast<Micros>(static_cast<uint64_t>(base_ts) +
                                   static_cast<uint64_t>(ts_delta));
  for (const SchemaField& field : schema_->fields()) {
    switch (field.type) {
      case FieldType::kInt64: {
        int64_t v = 0;
        if (!GetVarsint64(input, &v)) return Status::Corruption("bad int");
        break;
      }
      case FieldType::kDouble: {
        double v = 0;
        if (!GetDouble(input, &v)) return Status::Corruption("bad double");
        break;
      }
      case FieldType::kString: {
        Slice v;
        if (!GetLengthPrefixedSlice(input, &v)) {
          return Status::Corruption("bad string");
        }
        break;
      }
      case FieldType::kBool: {
        if (input->empty()) return Status::Corruption("bad bool");
        input->remove_prefix(1);
        break;
      }
    }
  }
  return Status::OK();
}

}  // namespace railgun::reservoir
