#include "engine/column_batch.h"

#include "common/coding.h"

namespace railgun::engine {

using reservoir::FieldType;

void ColumnBatch::Reset(const reservoir::Schema& schema) {
  request_ids_.clear();
  reply_topics_.clear();
  trailers_.clear();
  timestamps_.clear();
  ids_.clear();
  offsets_.clear();
  ok_.clear();
  const auto& fields = schema.fields();
  columns_.resize(fields.size());
  for (size_t j = 0; j < fields.size(); ++j) {
    Column& col = columns_[j];
    col.type = fields[j].type;
    col.ints.clear();
    col.nums.clear();
    col.strs.clear();
    col.bools.clear();
  }
}

void ColumnBatch::AlignRows(size_t rows) {
  request_ids_.resize(rows, 0);
  reply_topics_.resize(rows, Slice());
  trailers_.resize(rows, Slice());
  timestamps_.resize(rows, 0);
  ids_.resize(rows, 0);
  offsets_.resize(rows, 0);
  for (Column& col : columns_) {
    switch (col.type) {
      case FieldType::kInt64:
        col.ints.resize(rows, 0);
        break;
      case FieldType::kDouble:
        col.nums.resize(rows, 0.0);
        break;
      case FieldType::kString:
        col.strs.resize(rows, Slice());
        break;
      case FieldType::kBool:
        col.bools.resize(rows, 0);
        break;
    }
  }
}

size_t ColumnBatch::Decode(const std::vector<msg::MessageView>& messages,
                           const reservoir::Schema& schema) {
  Reset(schema);
  size_t good = 0;
  for (size_t r = 0; r < messages.size(); ++r) {
    Slice in = messages[r].payload;
    uint64_t request_id = 0;
    Slice reply_topic;
    int64_t ts_delta = 0;
    uint64_t id = 0, wire_offset = 0;
    bool row_ok = GetFixed64(&in, &request_id) &&
                  GetLengthPrefixedSlice(&in, &reply_topic) &&
                  GetVarsint64(&in, &ts_delta) && GetVarint64(&in, &id) &&
                  GetVarint64(&in, &wire_offset);
    if (row_ok) {
      request_ids_.push_back(request_id);
      reply_topics_.push_back(reply_topic);
      timestamps_.push_back(ts_delta);  // Envelopes encode base_ts = 0.
      ids_.push_back(id);
      // The log position wins over the offset encoded in the envelope
      // (producers do not know it yet when they encode).
      offsets_.push_back(messages[r].offset);
      for (Column& col : columns_) {
        switch (col.type) {
          case FieldType::kInt64: {
            int64_t v;
            if ((row_ok = GetVarsint64(&in, &v))) col.ints.push_back(v);
            break;
          }
          case FieldType::kDouble: {
            double v;
            if ((row_ok = GetDouble(&in, &v))) col.nums.push_back(v);
            break;
          }
          case FieldType::kString: {
            Slice v;
            if ((row_ok = GetLengthPrefixedSlice(&in, &v))) {
              col.strs.push_back(v);
            }
            break;
          }
          case FieldType::kBool: {
            if ((row_ok = !in.empty())) {
              col.bools.push_back(in[0] != 0 ? 1 : 0);
              in.remove_prefix(1);
            }
            break;
          }
        }
        if (!row_ok) break;
      }
      if (row_ok) trailers_.push_back(in);  // Unconsumed trailer bytes.
    }
    // A partial row leaves ragged columns; rewind them to a zero-filled
    // row so every column stays index-aligned.
    AlignRows(r + 1);
    ok_.push_back(row_ok ? 1 : 0);
    if (row_ok) ++good;
  }
  return good;
}

void ColumnBatch::MaterializeRow(size_t i, reservoir::Event* event) const {
  event->timestamp = timestamps_[i];
  event->id = ids_[i];
  event->offset = offsets_[i];
  event->values.resize(columns_.size());
  for (size_t j = 0; j < columns_.size(); ++j) {
    const Column& col = columns_[j];
    reservoir::FieldValue& v = event->values[j];
    switch (col.type) {
      case FieldType::kInt64:
        v.value = col.ints[i];
        break;
      case FieldType::kDouble:
        v.value = col.nums[i];
        break;
      case FieldType::kString:
        // Assign in place when the slot already holds a string, reusing
        // its capacity instead of re-allocating per event.
        if (v.is_string()) {
          std::get<std::string>(v.value).assign(col.strs[i].data(),
                                                col.strs[i].size());
        } else {
          v.value = col.strs[i].ToString();
        }
        break;
      case FieldType::kBool:
        v.value = col.bools[i] != 0;
        break;
    }
  }
}

}  // namespace railgun::engine
