// DDL statements: the textual surface for declaring streams and their
// metrics, consumed by the client API (api/client.h) and compiled into
// engine StreamDefs there.
//
//   CREATE STREAM payments (cardId STRING, merchantId STRING,
//                           amount DOUBLE)
//     PARTITION BY cardId, merchantId [PARTITIONS 4]
//
//   ADD METRIC SELECT sum(amount) FROM payments
//     GROUP BY cardId OVER sliding 5 minutes
//
//   ADD PIPELINE alerts ON payments | filter(amount > 100) | by(cardId)
//     | threshold(amount, 500) | route_to_stream(big_payments)
#ifndef RAILGUN_QUERY_DDL_H_
#define RAILGUN_QUERY_DDL_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "query/pipeline.h"
#include "query/query.h"
#include "reservoir/event.h"

namespace railgun::query {

// The schema half of a CREATE STREAM statement. The api layer combines
// it with registered metrics into an engine::StreamDef.
struct StreamSchemaDef {
  std::string name;
  std::vector<reservoir::SchemaField> fields;
  std::vector<std::string> partitioners;
  int partitions_per_topic = 1;
};

enum class DdlKind : uint8_t {
  kCreateStream = 0,
  kAddMetric = 1,
  kAddPipeline = 2,
};

struct DdlStatement {
  DdlKind kind = DdlKind::kCreateStream;
  StreamSchemaDef create_stream;  // Valid when kind == kCreateStream.
  QueryDef metric;                // Valid when kind == kAddMetric.
  PipelineSpec pipeline;          // Valid when kind == kAddPipeline.
};

// True when the statement starts with a DDL verb (CREATE or ADD),
// case-insensitively. SELECT statements are not DDL.
bool IsDdlStatement(const std::string& statement);

// Parses either DDL form. ADD METRIC delegates the SELECT body to
// ParseQuery, so the metric grammar is identical to ad-hoc queries.
StatusOr<DdlStatement> ParseDdl(const std::string& statement);

// ParseDdl, also reading a bare SELECT as the ADD METRIC it means: the
// statement forms the client's DDL entry points accept.
StatusOr<DdlStatement> ParseDdlOrMetric(const std::string& statement);

// Parses only the CREATE STREAM form. Validates that field names are
// unique, types are known, PARTITION BY is present and every
// partitioner is a declared field.
StatusOr<StreamSchemaDef> ParseCreateStream(const std::string& statement);

// Field type names accepted by CREATE STREAM (case-insensitive):
// STRING/TEXT, DOUBLE/FLOAT, INT/INT64/LONG/BIGINT, BOOL/BOOLEAN.
StatusOr<reservoir::FieldType> ParseFieldType(const std::string& name);
const char* FieldTypeName(reservoir::FieldType type);

}  // namespace railgun::query

#endif  // RAILGUN_QUERY_DDL_H_
