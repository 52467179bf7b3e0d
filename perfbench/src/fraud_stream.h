// The benchmark's stream and metric set, shared by the workloads and
// the standalone layer drives.
//
// One fraud stream with the paper's 103 fields, partitioned by card and
// by merchant, carrying two metric sets:
//   sum, count, avg, max(amount) by cardId over sliding 60 minutes
//   count, sum(amount)           by merchantId over sliding 5 minutes
// Event time is virtual: event i is stamped kTimeBase + i * step, with
// step chosen so the pre-filled history spans exactly one 60-minute
// window. Each arrival then enters one event and expires about one.
#ifndef PERFBENCH_FRAUD_STREAM_H_
#define PERFBENCH_FRAUD_STREAM_H_

#include <string>
#include <vector>

#include "common/clock.h"
#include "engine/stream_def.h"
#include "query/ddl.h"
#include "query/query.h"
#include "reservoir/event.h"

namespace perfbench {

inline constexpr const char* kStream = "payments";
inline constexpr int kPartitions = 4;
inline constexpr railgun::Micros kCardWindow = railgun::kMicrosPerHour;
inline constexpr railgun::Micros kMerchantWindow =
    5 * railgun::kMicrosPerMinute;
// Virtual time of the first event; far enough from zero that window
// lower bounds never go negative.
inline constexpr railgun::Micros kTimeBase = railgun::kMicrosPerDay;
// Replies per event: four card metrics plus two merchant metrics.
inline constexpr size_t kMetricsPerEvent = 6;

inline const char* CardMetricSql() {
  return "ADD METRIC SELECT sum(amount), count(*), avg(amount), "
         "max(amount) FROM payments GROUP BY cardId "
         "OVER sliding 60 minutes";
}

inline const char* MerchantMetricSql() {
  return "ADD METRIC SELECT count(*), sum(amount) FROM payments "
         "GROUP BY merchantId OVER sliding 5 minutes";
}

inline std::string CreateStreamDdl(
    const std::vector<railgun::reservoir::SchemaField>& fields) {
  std::string ddl = std::string("CREATE STREAM ") + kStream + " (";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) ddl += ", ";
    ddl += fields[i].name;
    ddl += ' ';
    ddl += railgun::query::FieldTypeName(fields[i].type);
  }
  ddl += ") PARTITION BY cardId, merchantId PARTITIONS " +
         std::to_string(kPartitions);
  return ddl;
}

// The same stream as an engine definition, for drives that bypass the
// client (the metric statements without their "ADD METRIC " prefix).
inline railgun::engine::StreamDef MakeStreamDef(
    const std::vector<railgun::reservoir::SchemaField>& fields) {
  railgun::engine::StreamDef stream;
  stream.name = kStream;
  stream.fields = fields;
  stream.partitioners = {"cardId", "merchantId"};
  stream.partitions_per_topic = kPartitions;
  const std::string prefix = "ADD METRIC ";
  for (const char* sql : {CardMetricSql(), MerchantMetricSql()}) {
    stream.queries.push_back(
        railgun::query::ParseQuery(std::string(sql).substr(prefix.size()))
            .value());
  }
  return stream;
}

}  // namespace perfbench

#endif  // PERFBENCH_FRAUD_STREAM_H_
