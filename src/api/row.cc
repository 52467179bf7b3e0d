#include "api/row.h"

namespace railgun::api {

namespace {

// Checks the value against the schema type, applying the int -> double
// coercion aggregators rely on elsewhere.
StatusOr<reservoir::FieldValue> CoerceTo(const reservoir::FieldValue& value,
                                         reservoir::FieldType type,
                                         const std::string& field) {
  switch (type) {
    case reservoir::FieldType::kString:
      if (value.is_string()) return value;
      break;
    case reservoir::FieldType::kDouble:
      if (value.is_double()) return value;
      if (value.is_int()) {
        return reservoir::FieldValue(static_cast<double>(value.as_int()));
      }
      break;
    case reservoir::FieldType::kInt64:
      if (value.is_int()) return value;
      break;
    case reservoir::FieldType::kBool:
      if (value.is_bool()) return value;
      break;
  }
  return Status::InvalidArgument("type mismatch for field '" + field +
                                 "': got " + value.ToString());
}

}  // namespace

StatusOr<reservoir::Event> Row::Bind(const reservoir::Schema& schema) const {
  reservoir::Event event;
  event.values.resize(schema.num_fields());
  std::vector<bool> seen(schema.num_fields(), false);

  // Rows usually set fields in schema order: try the position after
  // the last bound field before the linear name lookup.
  size_t next = 0;
  for (const auto& [name, value] : values_) {
    int index = static_cast<int>(next);
    if (next >= schema.num_fields() || schema.fields()[next].name != name) {
      index = schema.FieldIndex(name);
    }
    if (index < 0) {
      return Status::InvalidArgument("unknown field: " + name);
    }
    const auto i = static_cast<size_t>(index);
    if (seen[i]) {
      return Status::InvalidArgument("field set twice: " + name);
    }
    RAILGUN_ASSIGN_OR_RETURN(
        event.values[i], CoerceTo(value, schema.fields()[i].type, name));
    seen[i] = true;
    next = i + 1;
  }

  for (size_t i = 0; i < seen.size(); ++i) {
    if (!seen[i]) {
      return Status::InvalidArgument("missing field: " +
                                     schema.fields()[i].name);
    }
  }
  return event;
}

}  // namespace railgun::api
