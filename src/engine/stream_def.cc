#include "engine/stream_def.h"

#include <algorithm>
#include <utility>

#include "common/coding.h"

namespace railgun::engine {

StatusOr<std::string> StreamDef::PartitionerForQuery(
    const query::QueryDef& query) const {
  if (query.group_by.empty()) {
    // Global metrics can live on any single topic; use the first.
    if (partitioners.empty()) {
      return Status::InvalidArgument("stream has no partitioners");
    }
    return partitioners[0];
  }
  for (const auto& p : partitioners) {
    if (std::find(query.group_by.begin(), query.group_by.end(), p) !=
        query.group_by.end()) {
      return p;
    }
  }
  return Status::InvalidArgument(
      "no partitioner covers the query's group-by fields");
}

StreamDef StreamDefFromSchema(query::StreamSchemaDef schema) {
  StreamDef def;
  def.name = std::move(schema.name);
  def.fields = std::move(schema.fields);
  def.partitioners = std::move(schema.partitioners);
  def.partitions_per_topic = schema.partitions_per_topic;
  return def;
}

bool FoldDdl(query::DdlStatement ddl,
             std::map<std::string, StreamDef>* streams) {
  if (ddl.kind == query::DdlKind::kCreateStream) {
    const std::string name = ddl.create_stream.name;
    return streams
        ->try_emplace(name, StreamDefFromSchema(std::move(ddl.create_stream)))
        .second;
  }
  const bool metric = ddl.kind == query::DdlKind::kAddMetric;
  auto it = streams->find(metric ? ddl.metric.stream : ddl.pipeline.stream);
  if (it == streams->end()) return false;
  StreamDef& def = it->second;
  if (metric) {
    if (ContainsRaw(def.queries, ddl.metric.raw)) return false;
    def.queries.push_back(std::move(ddl.metric));
  } else {
    if (ContainsRaw(def.pipelines, ddl.pipeline.raw)) return false;
    def.pipelines.push_back(std::move(ddl.pipeline));
  }
  return true;
}

void EncodeStreamDef(const StreamDef& def, std::string* out) {
  PutLengthPrefixedSlice(out, def.name);
  PutVarint32(out, static_cast<uint32_t>(def.fields.size()));
  for (const auto& field : def.fields) {
    PutLengthPrefixedSlice(out, field.name);
    out->push_back(static_cast<char>(field.type));
  }
  PutVarint32(out, static_cast<uint32_t>(def.partitioners.size()));
  for (const auto& p : def.partitioners) PutLengthPrefixedSlice(out, p);
  PutVarint32(out, static_cast<uint32_t>(def.partitions_per_topic));
  PutVarint32(out, static_cast<uint32_t>(def.queries.size()));
  for (const auto& q : def.queries) PutLengthPrefixedSlice(out, q.raw);
  // Pipelines travel as raw statements, exactly like metric queries.
  PutVarint32(out, static_cast<uint32_t>(def.pipelines.size()));
  for (const auto& p : def.pipelines) PutLengthPrefixedSlice(out, p.raw);
}

Status DecodeStreamDef(Slice* in, StreamDef* def) {
  Slice name;
  uint32_t num_fields;
  if (!GetLengthPrefixedSlice(in, &name) || !GetVarint32(in, &num_fields)) {
    return Status::Corruption("malformed stream definition");
  }
  def->name = name.ToString();
  def->fields.clear();
  for (uint32_t i = 0; i < num_fields; ++i) {
    Slice field_name;
    if (!GetLengthPrefixedSlice(in, &field_name) || in->empty()) {
      return Status::Corruption("malformed stream field");
    }
    const uint8_t type = static_cast<uint8_t>((*in)[0]);
    in->remove_prefix(1);
    if (type > static_cast<uint8_t>(reservoir::FieldType::kBool)) {
      return Status::Corruption("unknown stream field type");
    }
    def->fields.push_back(
        {field_name.ToString(), static_cast<reservoir::FieldType>(type)});
  }
  uint32_t num_partitioners;
  if (!GetVarint32(in, &num_partitioners)) {
    return Status::Corruption("malformed stream definition");
  }
  def->partitioners.clear();
  for (uint32_t i = 0; i < num_partitioners; ++i) {
    Slice p;
    if (!GetLengthPrefixedSlice(in, &p)) {
      return Status::Corruption("malformed stream partitioner");
    }
    def->partitioners.push_back(p.ToString());
  }
  uint32_t partitions, num_queries;
  if (!GetVarint32(in, &partitions) || partitions == 0 ||
      partitions > static_cast<uint32_t>(INT32_MAX) ||
      !GetVarint32(in, &num_queries)) {
    return Status::Corruption("malformed stream definition");
  }
  def->partitions_per_topic = static_cast<int>(partitions);
  def->queries.clear();
  for (uint32_t i = 0; i < num_queries; ++i) {
    Slice raw;
    if (!GetLengthPrefixedSlice(in, &raw)) {
      return Status::Corruption("malformed stream metric");
    }
    auto metric = query::ParseQuery(raw.ToString());
    if (!metric.ok()) {
      return Status::Corruption("stream definition carries an unparseable "
                                "metric: " +
                                metric.status().ToString());
    }
    def->queries.push_back(std::move(metric).value());
  }
  def->pipelines.clear();
  uint32_t num_pipelines;
  if (!GetVarint32(in, &num_pipelines)) {
    return Status::Corruption("malformed stream definition");
  }
  for (uint32_t i = 0; i < num_pipelines; ++i) {
    Slice raw;
    if (!GetLengthPrefixedSlice(in, &raw)) {
      return Status::Corruption("malformed stream pipeline");
    }
    auto pipeline = query::ParsePipeline(raw.ToString());
    if (!pipeline.ok()) {
      return Status::Corruption(
          "stream definition carries an unparseable pipeline: " +
          pipeline.status().ToString());
    }
    def->pipelines.push_back(std::move(pipeline).value());
  }
  return Status::OK();
}

void EncodeStreamDefList(const std::vector<StreamDef>& defs,
                         std::string* out) {
  PutVarint32(out, static_cast<uint32_t>(defs.size()));
  for (const auto& def : defs) EncodeStreamDef(def, out);
}

Status DecodeStreamDefList(Slice* in, std::vector<StreamDef>* defs) {
  uint32_t count;
  // Every definition takes more than one byte, so a count beyond the
  // remaining input is hostile: reject it before reserving anything.
  if (!GetVarint32(in, &count) || count > in->size()) {
    return Status::Corruption("malformed stream listing");
  }
  defs->clear();
  defs->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    StreamDef def;
    RAILGUN_RETURN_IF_ERROR(DecodeStreamDef(in, &def));
    defs->push_back(std::move(def));
  }
  return Status::OK();
}

void EncodeEventEnvelope(const EventEnvelope& env,
                         const reservoir::Schema& schema, std::string* out) {
  PutFixed64(out, env.request_id);
  PutLengthPrefixedSlice(out, env.reply_topic);
  const reservoir::EventCodec codec(&schema);
  codec.Encode(env.event, /*base_ts=*/0, out);
}

Status DecodeEventEnvelope(const Slice& data,
                           const reservoir::Schema& schema,
                           EventEnvelope* env, Slice* rest) {
  Slice in = data;
  uint64_t request_id;
  Slice reply_topic;
  if (!GetFixed64(&in, &request_id) ||
      !GetLengthPrefixedSlice(&in, &reply_topic)) {
    return Status::Corruption("bad event envelope");
  }
  env->request_id = request_id;
  env->reply_topic.assign(reply_topic.data(), reply_topic.size());
  const reservoir::EventCodec codec(&schema);
  RAILGUN_RETURN_IF_ERROR(codec.Decode(&in, /*base_ts=*/0, &env->event));
  if (rest != nullptr) *rest = in;  // Unconsumed trailer bytes, if any.
  return Status::OK();
}

void EncodeFieldValue(const reservoir::FieldValue& v, std::string* out) {
  if (v.is_int()) {
    out->push_back(0);
    PutVarsint64(out, v.as_int());
  } else if (v.is_double()) {
    out->push_back(1);
    PutDouble(out, v.as_double());
  } else if (v.is_bool()) {
    out->push_back(2);
    out->push_back(v.as_bool() ? 1 : 0);
  } else {
    out->push_back(3);
    PutLengthPrefixedSlice(out, v.as_string());
  }
}

Status DecodeFieldValue(Slice* in, reservoir::FieldValue* v) {
  if (in->empty()) return Status::Corruption("bad field value");
  const char tag = (*in)[0];
  in->remove_prefix(1);
  switch (tag) {
    case 0: {
      int64_t x;
      if (!GetVarsint64(in, &x)) return Status::Corruption("bad int value");
      *v = reservoir::FieldValue(x);
      return Status::OK();
    }
    case 1: {
      double x;
      if (!GetDouble(in, &x)) return Status::Corruption("bad double value");
      *v = reservoir::FieldValue(x);
      return Status::OK();
    }
    case 2: {
      if (in->empty()) return Status::Corruption("bad bool value");
      *v = reservoir::FieldValue((*in)[0] != 0);
      in->remove_prefix(1);
      return Status::OK();
    }
    case 3: {
      Slice s;
      if (!GetLengthPrefixedSlice(in, &s)) {
        return Status::Corruption("bad string value");
      }
      *v = reservoir::FieldValue(s.ToString());
      return Status::OK();
    }
  }
  return Status::Corruption("unknown field value tag");
}

void EncodeReplyEnvelope(const ReplyEnvelope& env, std::string* out) {
  PutFixed64(out, env.request_id);
  PutVarint32(out, static_cast<uint32_t>(env.results.size()));
  for (const auto& r : env.results) {
    PutLengthPrefixedSlice(out, r.metric_name);
    PutLengthPrefixedSlice(out, r.group_key);
    EncodeFieldValue(r.value, out);
  }
}

Status DecodeReplyEnvelope(const Slice& data, ReplyEnvelope* env,
                           Slice* rest) {
  Slice in = data;
  uint64_t request_id;
  uint32_t count;
  // Every result takes more than one byte, so a count beyond the
  // remaining input is hostile: reject it before reserving anything.
  if (!GetFixed64(&in, &request_id) || !GetVarint32(&in, &count) ||
      count > in.size()) {
    return Status::Corruption("bad reply envelope");
  }
  env->request_id = request_id;
  env->results.clear();
  env->results.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    MetricReply r;
    Slice name, group;
    if (!GetLengthPrefixedSlice(&in, &name) ||
        !GetLengthPrefixedSlice(&in, &group)) {
      return Status::Corruption("bad metric reply");
    }
    r.metric_name = name.ToString();
    r.group_key = group.ToString();
    RAILGUN_RETURN_IF_ERROR(DecodeFieldValue(&in, &r.value));
    env->results.push_back(std::move(r));
  }
  if (rest != nullptr) *rest = in;  // Unconsumed trailer bytes, if any.
  return Status::OK();
}

}  // namespace railgun::engine
