// Stream registration model and the wire format used on the message bus.
//
// A stream maps to one topic per *partitioner* (top-level group-by
// entity, paper §4): topic name "<stream>.<partitioner>", keyed by that
// field's value so all events of an entity land in one partition.
#ifndef RAILGUN_ENGINE_STREAM_DEF_H_
#define RAILGUN_ENGINE_STREAM_DEF_H_

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/ddl.h"
#include "query/pipeline.h"
#include "query/query.h"
#include "reservoir/event.h"
#include "trace/trace_context.h"

namespace railgun::engine {

struct StreamDef {
  std::string name;
  std::vector<reservoir::SchemaField> fields;
  // Partitioner fields (each becomes a topic). Must cover a subset of
  // every metric's group-by keys (paper §4: metrics hash by a subset).
  std::vector<std::string> partitioners;
  int partitions_per_topic = 1;
  // Registered metric statements over this stream.
  std::vector<query::QueryDef> queries;
  // Registered operator pipelines sourced from this stream (see
  // src/ops/). Like queries they travel as raw statements.
  std::vector<query::PipelineSpec> pipelines;

  std::string TopicFor(const std::string& partitioner) const {
    return name + "." + partitioner;
  }

  // The partitioner whose topic a query's metrics should be computed on:
  // the first partitioner contained in the query's group-by set.
  StatusOr<std::string> PartitionerForQuery(
      const query::QueryDef& query) const;
};

// The definition a CREATE STREAM statement declares (no metrics or
// pipelines yet).
StreamDef StreamDefFromSchema(query::StreamSchemaDef schema);

// True when `items` (queries or pipelines) holds the raw statement.
template <typename T>
bool ContainsRaw(const std::vector<T>& items, const std::string& raw) {
  return std::any_of(items.begin(), items.end(),
                     [&raw](const T& item) { return item.raw == raw; });
}

// Folds one accepted DDL statement into a stream registry: CREATE
// STREAM adds an unknown stream (a known one keeps its metrics), ADD
// METRIC / ADD PIPELINE append to a known stream unless the same raw
// statement is there. Returns whether the registry changed. The
// api::Client's view and the metadata service's registry both fold
// through here, so they agree on reattach and foreign-stream DDL.
bool FoldDdl(query::DdlStatement ddl,
             std::map<std::string, StreamDef>* streams);

// Wire form of a stream definition, used by the metadata service so a
// client or worker process can learn streams it did not declare. Metric
// queries travel as their raw SELECT statements and are re-parsed on
// decode, so both sides always agree with the DDL grammar.
void EncodeStreamDef(const StreamDef& def, std::string* out);
Status DecodeStreamDef(Slice* in, StreamDef* def);
// A stream listing: varint32 count, then that many definitions.
void EncodeStreamDefList(const std::vector<StreamDef>& defs,
                         std::string* out);
Status DecodeStreamDefList(Slice* in, std::vector<StreamDef>* defs);

// ----- Wire envelopes -----

// Event envelope published to every partitioner topic.
struct EventEnvelope {
  uint64_t request_id = 0;
  std::string reply_topic;  // Empty = fire-and-forget (no reply).
  reservoir::Event event;
};

// Envelopes may carry a trace-context trailer after the codec bytes
// (see trace/trace_context.h). Decoders ignore unconsumed bytes, so the
// trailer interops with peers predating it; pass `rest` to receive the
// remainder and recover the context with trace::ParseTraceTrailer.
void EncodeEventEnvelope(const EventEnvelope& env,
                         const reservoir::Schema& schema, std::string* out);
Status DecodeEventEnvelope(const Slice& data,
                           const reservoir::Schema& schema,
                           EventEnvelope* env, Slice* rest = nullptr);

// Aggregation reply from a task processor to the originating front-end.
struct MetricReply {
  std::string metric_name;
  std::string group_key;
  reservoir::FieldValue value;
};

struct ReplyEnvelope {
  uint64_t request_id = 0;
  // Routing hint filled in by the task processor when it decodes the
  // event envelope; not part of the encoded reply wire format.
  std::string reply_topic;
  std::vector<MetricReply> results;
  // Trace context carried forward from the event envelope (encoded as a
  // trailer by the unit so the front end's completion span links).
  trace::TraceContext trace;
};

void EncodeReplyEnvelope(const ReplyEnvelope& env, std::string* out);
Status DecodeReplyEnvelope(const Slice& data, ReplyEnvelope* env,
                           Slice* rest = nullptr);

// Self-describing field-value codec (1-byte type tag + payload), shared
// by the reply envelope above and the subscription push records
// (ops/sub_wire.h).
void EncodeFieldValue(const reservoir::FieldValue& v, std::string* out);
Status DecodeFieldValue(Slice* in, reservoir::FieldValue* v);

}  // namespace railgun::engine

#endif  // RAILGUN_ENGINE_STREAM_DEF_H_
