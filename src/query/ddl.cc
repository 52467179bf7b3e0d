#include "query/ddl.h"

#include <cctype>

#include "query/tokenizer.h"

namespace railgun::query {

StatusOr<reservoir::FieldType> ParseFieldType(const std::string& name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower.push_back(static_cast<char>(tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "string" || lower == "text") {
    return reservoir::FieldType::kString;
  }
  if (lower == "double" || lower == "float") {
    return reservoir::FieldType::kDouble;
  }
  if (lower == "int" || lower == "int64" || lower == "long" ||
      lower == "bigint") {
    return reservoir::FieldType::kInt64;
  }
  if (lower == "bool" || lower == "boolean") {
    return reservoir::FieldType::kBool;
  }
  return Status::InvalidArgument("unknown field type: " + name);
}

const char* FieldTypeName(reservoir::FieldType type) {
  switch (type) {
    case reservoir::FieldType::kString:
      return "STRING";
    case reservoir::FieldType::kDouble:
      return "DOUBLE";
    case reservoir::FieldType::kInt64:
      return "INT64";
    case reservoir::FieldType::kBool:
      return "BOOL";
  }
  return "UNKNOWN";
}

bool IsDdlStatement(const std::string& statement) {
  Tokenizer tokens(statement);
  const Token& first = tokens.Peek();
  if (first.type != TokenType::kIdentifier) return false;
  return first.text == "create" || first.text == "add";
}

namespace {

StatusOr<StreamSchemaDef> ParseCreateStreamBody(Tokenizer* tokens) {
  StreamSchemaDef def;
  RAILGUN_RETURN_IF_ERROR(tokens->Expect("stream"));
  RAILGUN_ASSIGN_OR_RETURN(Token name,
                           tokens->ExpectIdentifier("stream name"));
  def.name = name.raw;

  RAILGUN_RETURN_IF_ERROR(tokens->Expect("("));
  while (true) {
    RAILGUN_ASSIGN_OR_RETURN(Token field,
                             tokens->ExpectIdentifier("field name"));
    RAILGUN_ASSIGN_OR_RETURN(Token type,
                             tokens->ExpectIdentifier("field type"));
    RAILGUN_ASSIGN_OR_RETURN(reservoir::FieldType field_type,
                             ParseFieldType(type.raw));
    for (const auto& existing : def.fields) {
      if (existing.name == field.raw) {
        return Status::InvalidArgument("duplicate field: " + field.raw);
      }
    }
    def.fields.push_back({field.raw, field_type});
    if (!tokens->TryConsume(",")) break;
  }
  RAILGUN_RETURN_IF_ERROR(tokens->Expect(")"));

  if (!tokens->TryConsume("partition")) {
    return Status::InvalidArgument(
        "CREATE STREAM requires a PARTITION BY clause");
  }
  RAILGUN_RETURN_IF_ERROR(tokens->Expect("by"));
  while (true) {
    RAILGUN_ASSIGN_OR_RETURN(Token partitioner,
                             tokens->ExpectIdentifier("partitioner field"));
    bool known = false;
    for (const auto& field : def.fields) {
      if (field.name == partitioner.raw) {
        known = true;
        break;
      }
    }
    if (!known) {
      return Status::InvalidArgument("partitioner is not a declared field: " +
                                     partitioner.raw);
    }
    for (const auto& existing : def.partitioners) {
      if (existing == partitioner.raw) {
        return Status::InvalidArgument("duplicate partitioner: " +
                                       partitioner.raw);
      }
    }
    def.partitioners.push_back(partitioner.raw);
    if (!tokens->TryConsume(",")) break;
  }

  if (tokens->TryConsume("partitions")) {
    RAILGUN_ASSIGN_OR_RETURN(int64_t partitions,
                             tokens->ExpectInteger("partition count"));
    if (partitions < 1) {
      return Status::InvalidArgument("PARTITIONS must be at least 1");
    }
    def.partitions_per_topic = static_cast<int>(partitions);
  }

  if (!tokens->AtEnd()) {
    return Status::InvalidArgument("trailing tokens after CREATE STREAM: '" +
                                   tokens->Peek().raw + "'");
  }
  return def;
}

}  // namespace

StatusOr<StreamSchemaDef> ParseCreateStream(const std::string& statement) {
  Tokenizer tokens(statement);
  RAILGUN_RETURN_IF_ERROR(tokens.status());
  RAILGUN_RETURN_IF_ERROR(tokens.Expect("create"));
  return ParseCreateStreamBody(&tokens);
}

StatusOr<DdlStatement> ParseDdl(const std::string& statement) {
  Tokenizer tokens(statement);
  RAILGUN_RETURN_IF_ERROR(tokens.status());

  DdlStatement ddl;
  if (tokens.TryConsume("create")) {
    ddl.kind = DdlKind::kCreateStream;
    RAILGUN_ASSIGN_OR_RETURN(ddl.create_stream,
                             ParseCreateStreamBody(&tokens));
    return ddl;
  }
  if (tokens.TryConsume("add")) {
    if (tokens.TryConsume("metric")) {
      // The remainder is a plain SELECT statement; hand the unconsumed
      // suffix to the query parser so both grammars stay identical.
      if (tokens.Peek().text != "select") {
        return Status::InvalidArgument("expected SELECT after ADD METRIC");
      }
      ddl.kind = DdlKind::kAddMetric;
      RAILGUN_ASSIGN_OR_RETURN(
          ddl.metric, ParseQuery(statement.substr(tokens.NextTokenOffset())));
      return ddl;
    }
    if (tokens.Peek().text == "pipeline") {
      ddl.kind = DdlKind::kAddPipeline;
      RAILGUN_ASSIGN_OR_RETURN(ddl.pipeline, ParsePipeline(statement));
      return ddl;
    }
    return Status::InvalidArgument(
        "expected METRIC or PIPELINE after ADD, found '" +
        tokens.Peek().raw + "'");
  }
  return Status::InvalidArgument(
      "expected a DDL statement (CREATE STREAM, ADD METRIC or ADD "
      "PIPELINE), found '" +
      tokens.Peek().raw + "'");
}

StatusOr<DdlStatement> ParseDdlOrMetric(const std::string& statement) {
  if (IsDdlStatement(statement)) return ParseDdl(statement);
  DdlStatement ddl;
  ddl.kind = DdlKind::kAddMetric;
  RAILGUN_ASSIGN_OR_RETURN(ddl.metric, ParseQuery(statement));
  return ddl;
}

}  // namespace railgun::query
