// Tests for the query parser (paper Fig. 4 grammar), the filter
// expression language and the stream DDL.
#include <gtest/gtest.h>

#include "query/ddl.h"
#include "query/expr.h"
#include "query/query.h"

namespace railgun::query {
namespace {

using reservoir::Event;
using reservoir::FieldType;
using reservoir::FieldValue;
using reservoir::Schema;

Schema TestSchema() {
  return Schema(1, {{"cardId", FieldType::kString},
                    {"amount", FieldType::kDouble},
                    {"count", FieldType::kInt64},
                    {"flagged", FieldType::kBool}});
}

Event TestEvent(const std::string& card, double amount, int64_t count,
                bool flagged) {
  Event e;
  e.values = {FieldValue(card), FieldValue(amount), FieldValue(count),
              FieldValue(flagged)};
  return e;
}

TEST(ExprTest, ArithmeticAndComparison) {
  auto expr_or = ParseExpr("amount * 2 + 1 > 10");
  ASSERT_TRUE(expr_or.ok());
  auto expr = std::move(expr_or).value();
  const Schema schema = TestSchema();
  ASSERT_TRUE(expr->Bind(schema).ok());
  EXPECT_TRUE(expr->EvalBool(TestEvent("c", 5.0, 0, false)));
  EXPECT_FALSE(expr->EvalBool(TestEvent("c", 4.0, 0, false)));
  EXPECT_FALSE(expr->EvalBool(TestEvent("c", 4.5, 0, false)));  // 10 > 10.
}

TEST(ExprTest, BooleanLogicAndPrecedence) {
  auto expr = ParseExpr("amount > 100 and flagged or count == 3").value();
  ASSERT_TRUE(expr->Bind(TestSchema()).ok());
  EXPECT_TRUE(expr->EvalBool(TestEvent("c", 200, 0, true)));
  EXPECT_FALSE(expr->EvalBool(TestEvent("c", 200, 0, false)));
  EXPECT_TRUE(expr->EvalBool(TestEvent("c", 1, 3, false)));
  EXPECT_FALSE(expr->EvalBool(TestEvent("c", 1, 4, false)));
}

TEST(ExprTest, StringComparisonAndNot) {
  auto expr = ParseExpr("not (cardId == 'card7')").value();
  ASSERT_TRUE(expr->Bind(TestSchema()).ok());
  EXPECT_FALSE(expr->EvalBool(TestEvent("card7", 0, 0, false)));
  EXPECT_TRUE(expr->EvalBool(TestEvent("card8", 0, 0, false)));
}

TEST(ExprTest, UnaryMinusAndDivision) {
  auto expr = ParseExpr("-amount / 2").value();
  ASSERT_TRUE(expr->Bind(TestSchema()).ok());
  auto v = expr->Eval(TestEvent("c", 10, 0, false));
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->ToNumber(), -5.0);
}

TEST(ExprTest, DivisionByZeroYieldsZero) {
  auto expr = ParseExpr("amount / count").value();
  ASSERT_TRUE(expr->Bind(TestSchema()).ok());
  auto v = expr->Eval(TestEvent("c", 10, 0, false));
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->ToNumber(), 0.0);
}

TEST(ExprTest, UnknownFieldFailsBind) {
  auto expr = ParseExpr("nonexistent > 1").value();
  EXPECT_FALSE(expr->Bind(TestSchema()).ok());
}

TEST(ExprTest, ParseErrors) {
  EXPECT_FALSE(ParseExpr("1 +").ok());
  EXPECT_FALSE(ParseExpr("(a > 1").ok());
  EXPECT_FALSE(ParseExpr("a > 1 extra junk").ok());
  EXPECT_FALSE(ParseExpr("'unterminated").ok());
}

TEST(ExprTest, CanonicalToString) {
  auto expr = ParseExpr("amount > 10 and flagged").value();
  EXPECT_EQ(expr->ToString(), "((amount > 10) and flagged)");
}

TEST(QueryParserTest, PaperQ1) {
  auto q = ParseQuery(
      "SELECT SUM(amount), COUNT(*) FROM payments "
      "GROUP BY cardId OVER sliding 5 minutes");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->stream, "payments");
  ASSERT_EQ(q->aggs.size(), 2u);
  EXPECT_EQ(q->aggs[0].kind, agg::AggKind::kSum);
  EXPECT_EQ(q->aggs[0].field, "amount");
  EXPECT_EQ(q->aggs[1].kind, agg::AggKind::kCount);
  EXPECT_TRUE(q->aggs[1].field.empty());
  ASSERT_EQ(q->group_by.size(), 1u);
  EXPECT_EQ(q->group_by[0], "cardId");
  EXPECT_EQ(q->window, window::WindowSpec::Sliding(5 * kMicrosPerMinute));
}

TEST(QueryParserTest, PaperQ2) {
  auto q = ParseQuery(
      "SELECT AVG(amount) FROM payments "
      "GROUP BY merchantId OVER sliding 5 minutes");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->aggs[0].kind, agg::AggKind::kAvg);
  EXPECT_EQ(q->group_by[0], "merchantId");
}

TEST(QueryParserTest, WhereClauseAndMultiGroupBy) {
  auto q = ParseQuery(
      "SELECT countDistinct(merchantId) FROM payments "
      "WHERE amount > 100 and cardId != 'test' "
      "GROUP BY cardId, merchantId OVER sliding 6 hours");
  ASSERT_TRUE(q.ok());
  ASSERT_NE(q->filter, nullptr);
  EXPECT_EQ(q->group_by.size(), 2u);
  EXPECT_EQ(q->window.size, 6 * kMicrosPerHour);
}

TEST(QueryParserTest, WindowVariants) {
  EXPECT_EQ(ParseQuery("SELECT count(*) FROM s OVER tumbling 1 hour")
                ->window,
            window::WindowSpec::Tumbling(kMicrosPerHour));
  EXPECT_EQ(ParseQuery("SELECT count(*) FROM s OVER infinite")->window,
            window::WindowSpec::Infinite());
  EXPECT_EQ(ParseQuery("SELECT count(*) FROM s OVER sliding 100 events")
                ->window,
            window::WindowSpec::CountSliding(100));
  EXPECT_EQ(ParseQuery("SELECT count(*) FROM s OVER sliding 7 days")
                ->window,
            window::WindowSpec::Sliding(7 * kMicrosPerDay));

  const auto delayed = ParseQuery(
      "SELECT count(*) FROM s OVER sliding 5 minutes delayed by 30 seconds");
  ASSERT_TRUE(delayed.ok());
  EXPECT_EQ(delayed->window.delay, 30 * kMicrosPerSecond);
}

TEST(QueryParserTest, TimeUnits) {
  EXPECT_EQ(ParseQuery("SELECT count(*) FROM s OVER sliding 500 ms")
                ->window.size,
            500 * kMicrosPerMilli);
  EXPECT_EQ(ParseQuery("SELECT count(*) FROM s OVER sliding 2 weeks")
                ->window.size,
            14 * kMicrosPerDay);
}

TEST(QueryParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("SELECT FROM s OVER infinite").ok());
  EXPECT_FALSE(ParseQuery("SELECT sum(amount) OVER infinite").ok());
  EXPECT_FALSE(ParseQuery("SELECT sum(amount) FROM s").ok());  // No window.
  EXPECT_FALSE(
      ParseQuery("SELECT sum(*) FROM s OVER infinite").ok());  // * not count.
  EXPECT_FALSE(
      ParseQuery("SELECT sum(amount) FROM s OVER sliding 5 fortnights").ok());
  EXPECT_FALSE(
      ParseQuery("SELECT sum(amount) FROM s OVER sliding 5 minutes junk")
          .ok());
  EXPECT_FALSE(ParseQuery("SELECT median(amount) FROM s OVER infinite").ok());
}

TEST(QueryParserTest, CaseInsensitiveKeywords) {
  auto q = ParseQuery(
      "select Sum(amount) from payments group by cardId "
      "over Sliding 5 Minutes");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->aggs[0].kind, agg::AggKind::kSum);
}

TEST(DdlTest, ParseCreateStream) {
  auto def = ParseCreateStream(
      "CREATE STREAM payments (cardId STRING, merchantId STRING, "
      "amount DOUBLE) PARTITION BY cardId, merchantId PARTITIONS 4");
  ASSERT_TRUE(def.ok()) << def.status().ToString();
  EXPECT_EQ(def->name, "payments");
  ASSERT_EQ(def->fields.size(), 3u);
  EXPECT_EQ(def->fields[0].name, "cardId");
  EXPECT_EQ(def->fields[0].type, FieldType::kString);
  EXPECT_EQ(def->fields[2].name, "amount");
  EXPECT_EQ(def->fields[2].type, FieldType::kDouble);
  ASSERT_EQ(def->partitioners.size(), 2u);
  EXPECT_EQ(def->partitioners[0], "cardId");
  EXPECT_EQ(def->partitioners[1], "merchantId");
  EXPECT_EQ(def->partitions_per_topic, 4);
}

TEST(DdlTest, CreateStreamDefaultsAndCaseInsensitivity) {
  auto def = ParseCreateStream(
      "create stream s (a int, b bool, c text, d BIGINT) partition by a");
  ASSERT_TRUE(def.ok()) << def.status().ToString();
  EXPECT_EQ(def->partitions_per_topic, 1);  // No PARTITIONS clause.
  EXPECT_EQ(def->fields[0].type, FieldType::kInt64);
  EXPECT_EQ(def->fields[1].type, FieldType::kBool);
  EXPECT_EQ(def->fields[2].type, FieldType::kString);
  EXPECT_EQ(def->fields[3].type, FieldType::kInt64);
}

TEST(DdlTest, CreateStreamErrors) {
  // Bad field type.
  EXPECT_FALSE(ParseCreateStream(
                   "CREATE STREAM s (a BLOB) PARTITION BY a")
                   .ok());
  // Duplicate field.
  EXPECT_FALSE(ParseCreateStream(
                   "CREATE STREAM s (a INT, a DOUBLE) PARTITION BY a")
                   .ok());
  // Missing PARTITION BY.
  EXPECT_FALSE(ParseCreateStream("CREATE STREAM s (a INT)").ok());
  // Partitioner not a declared field.
  EXPECT_FALSE(ParseCreateStream(
                   "CREATE STREAM s (a INT) PARTITION BY b")
                   .ok());
  // Duplicate partitioner.
  EXPECT_FALSE(ParseCreateStream(
                   "CREATE STREAM s (a INT, b INT) PARTITION BY a, a")
                   .ok());
  // Bad partition count.
  EXPECT_FALSE(ParseCreateStream(
                   "CREATE STREAM s (a INT) PARTITION BY a PARTITIONS 0")
                   .ok());
  EXPECT_FALSE(ParseCreateStream(
                   "CREATE STREAM s (a INT) PARTITION BY a PARTITIONS 1.5")
                   .ok());
  // Trailing junk / malformed clauses.
  EXPECT_FALSE(ParseCreateStream(
                   "CREATE STREAM s (a INT) PARTITION BY a junk")
                   .ok());
  EXPECT_FALSE(ParseCreateStream("CREATE STREAM s a INT PARTITION BY a")
                   .ok());
  EXPECT_FALSE(ParseCreateStream("CREATE TABLE s (a INT) PARTITION BY a")
                   .ok());
}

TEST(DdlTest, ParseDdlRoutesBothForms) {
  auto create = ParseDdl(
      "CREATE STREAM s (a STRING, v DOUBLE) PARTITION BY a");
  ASSERT_TRUE(create.ok());
  EXPECT_EQ(create->kind, DdlKind::kCreateStream);
  EXPECT_EQ(create->create_stream.name, "s");

  auto metric = ParseDdl(
      "ADD METRIC SELECT sum(v) FROM s GROUP BY a OVER sliding 5 minutes");
  ASSERT_TRUE(metric.ok()) << metric.status().ToString();
  EXPECT_EQ(metric->kind, DdlKind::kAddMetric);
  EXPECT_EQ(metric->metric.stream, "s");
  ASSERT_EQ(metric->metric.aggs.size(), 1u);
  EXPECT_EQ(metric->metric.aggs[0].kind, agg::AggKind::kSum);
  EXPECT_EQ(metric->metric.window,
            window::WindowSpec::Sliding(5 * kMicrosPerMinute));

  EXPECT_FALSE(ParseDdl("ADD METRIC sum(v) FROM s OVER infinite").ok());
  EXPECT_FALSE(ParseDdl("DROP STREAM s").ok());
  EXPECT_FALSE(
      ParseDdl("SELECT sum(v) FROM s GROUP BY a OVER infinite").ok());
}

TEST(DdlTest, ParseDdlOrMetricReadsABareSelectAsAddMetric) {
  auto bare = ParseDdlOrMetric("SELECT sum(v) FROM s GROUP BY a OVER infinite");
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  EXPECT_EQ(bare->kind, DdlKind::kAddMetric);
  EXPECT_EQ(bare->metric.stream, "s");
  auto create = ParseDdlOrMetric("CREATE STREAM s (a INT) PARTITION BY a");
  ASSERT_TRUE(create.ok());
  EXPECT_EQ(create->kind, DdlKind::kCreateStream);
  EXPECT_TRUE(ParseDdlOrMetric("DROP STREAM s").status().IsInvalidArgument());
}

TEST(DdlTest, IsDdlStatement) {
  EXPECT_TRUE(IsDdlStatement("CREATE STREAM s (a INT) PARTITION BY a"));
  EXPECT_TRUE(IsDdlStatement("  add metric select count(*) from s"));
  EXPECT_FALSE(IsDdlStatement("SELECT count(*) FROM s OVER infinite"));
  EXPECT_FALSE(IsDdlStatement(""));
  EXPECT_FALSE(IsDdlStatement("42"));
}

}  // namespace
}  // namespace railgun::query
