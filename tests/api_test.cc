// Tests for the public client API (api/client.h): DDL-driven stream
// creation, row binding, future-based submission, typed error statuses
// and the admin surface.
#include <gtest/gtest.h>

#include "api/client.h"
#include "common/clock.h"

namespace railgun::api {
namespace {

using reservoir::FieldType;
using reservoir::FieldValue;

ClientOptions TestOptions(const std::string& name) {
  ClientOptions options;
  options.num_nodes = 1;
  options.processor_units_per_node = 2;
  options.base_dir = "/tmp/railgun-api-test-" + name;
  return options;
}

constexpr const char* kPaymentsDdl =
    "CREATE STREAM payments (cardId STRING, merchantId STRING, "
    "amount DOUBLE) PARTITION BY cardId, merchantId PARTITIONS 2";

TEST(ClientTest, CreateStreamSubmitAggregateRoundTrip) {
  Client client(TestOptions("roundtrip"));
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.CreateStream(kPaymentsDdl).ok());
  ASSERT_TRUE(client
                  .Query("ADD METRIC SELECT sum(amount), count(*) FROM "
                         "payments GROUP BY cardId OVER sliding 5 minutes")
                  .ok());

  EventResult first = client.SubmitSync(
      "payments", Row()
                      .At(1 * kMicrosPerMinute)
                      .Set("cardId", "card1")
                      .Set("merchantId", "m1")
                      .Set("amount", 10.0));
  ASSERT_TRUE(first.ok()) << first.status.ToString();
  ASSERT_NE(first.Find("count(*)", "card1"), nullptr);
  EXPECT_DOUBLE_EQ(first.Find("count(*)", "card1")->value.ToNumber(), 1.0);
  EXPECT_DOUBLE_EQ(first.Find("sum(amount)", "card1")->value.ToNumber(),
                   10.0);

  EventResult second = client.SubmitSync(
      "payments", Row()
                      .At(2 * kMicrosPerMinute)
                      .Set("cardId", "card1")
                      .Set("merchantId", "m2")
                      .Set("amount", 4.5));
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(second.Find("count(*)", "card1")->value.ToNumber(), 2.0);
  EXPECT_DOUBLE_EQ(second.Find("sum(amount)", "card1")->value.ToNumber(),
                   14.5);
  client.Stop();
}

TEST(ClientTest, SubmitBatchCompletesEveryRowInOrder) {
  Client client(TestOptions("submit-batch"));
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.CreateStream(kPaymentsDdl).ok());
  ASSERT_TRUE(client
                  .Query("ADD METRIC SELECT sum(amount), count(*) FROM "
                         "payments GROUP BY cardId OVER sliding 5 minutes")
                  .ok());

  std::vector<Row> rows;
  for (int i = 1; i <= 16; ++i) {
    rows.push_back(Row()
                       .At(i * kMicrosPerSecond)
                       .Set("cardId", "cardB")
                       .Set("merchantId", "m" + std::to_string(i % 3))
                       .Set("amount", 2.0));
  }
  std::vector<ResultFuture> futures = client.SubmitBatch("payments", rows);
  ASSERT_EQ(futures.size(), rows.size());
  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_TRUE(futures[i].valid());
    EventResult r = futures[i].Get();
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    ASSERT_NE(r.Find("count(*)", "cardB"), nullptr);
    // Events were produced in batch order: the per-key counts ascend.
    EXPECT_DOUBLE_EQ(r.Find("count(*)", "cardB")->value.ToNumber(),
                     static_cast<double>(i + 1));
    EXPECT_DOUBLE_EQ(r.Find("sum(amount)", "cardB")->value.ToNumber(),
                     2.0 * static_cast<double>(i + 1));
  }
  client.Stop();
}

TEST(ClientTest, SubmitBatchRejectsBadRowsWithoutSinkingTheBatch) {
  Client client(TestOptions("submit-batch-mixed"));
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.CreateStream(kPaymentsDdl).ok());
  ASSERT_TRUE(client
                  .Query("ADD METRIC SELECT count(*) FROM payments "
                         "GROUP BY cardId OVER sliding 5 minutes")
                  .ok());

  std::vector<Row> rows = {
      Row().Set("cardId", "cardC").Set("merchantId", "m").Set("amount", 1.0),
      Row().Set("cardId", "cardC"),  // Missing fields: rejected.
      Row().Set("cardId", "cardC").Set("merchantId", "m").Set("amount", 3.0),
  };
  std::vector<ResultFuture> futures = client.SubmitBatch("payments", rows);
  ASSERT_EQ(futures.size(), 3u);
  EXPECT_TRUE(futures[0].Get().ok());
  EXPECT_TRUE(futures[1].Get().status.IsInvalidArgument());
  EventResult last = futures[2].Get();
  ASSERT_TRUE(last.ok());
  EXPECT_DOUBLE_EQ(last.Find("count(*)", "cardC")->value.ToNumber(), 2.0);

  // Whole-batch synchronous rejection: unknown stream.
  std::vector<ResultFuture> rejected = client.SubmitBatch("nope", rows);
  ASSERT_EQ(rejected.size(), 3u);
  for (auto& future : rejected) {
    ASSERT_TRUE(future.valid());
    EXPECT_TRUE(future.ready());
    EXPECT_TRUE(future.Get().status.IsNotFound());
  }
  client.Stop();
}

TEST(ClientTest, SubmitToUnknownStreamIsNotFound) {
  Client client(TestOptions("unknown-stream"));
  ASSERT_TRUE(client.Start().ok());

  ResultFuture future =
      client.Submit("nope", Row().Set("cardId", "c").Set("amount", 1.0));
  ASSERT_TRUE(future.valid());
  EXPECT_TRUE(future.ready());  // Rejected synchronously.
  EXPECT_TRUE(future.Get().status.IsNotFound());

  EXPECT_TRUE(client.SubmitSync("nope", Row()).status.IsNotFound());
  EXPECT_TRUE(client.SubmitNoReply("nope", Row()).IsNotFound());
  client.Stop();
}

TEST(ClientTest, BadRowsAreRejectedWithInvalidArgument) {
  Client client(TestOptions("bad-row"));
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.CreateStream(kPaymentsDdl).ok());

  // Missing fields.
  EXPECT_TRUE(client.SubmitSync("payments", Row().Set("cardId", "c"))
                  .status.IsInvalidArgument());
  // Unknown field.
  EXPECT_TRUE(client
                  .SubmitSync("payments", Row()
                                              .Set("cardId", "c")
                                              .Set("merchantId", "m")
                                              .Set("amount", 1.0)
                                              .Set("bogus", 1.0))
                  .status.IsInvalidArgument());
  // Type mismatch: string where a double is declared.
  EXPECT_TRUE(client
                  .SubmitSync("payments", Row()
                                              .Set("cardId", "c")
                                              .Set("merchantId", "m")
                                              .Set("amount", "a lot"))
                  .status.IsInvalidArgument());
  // Field set twice.
  EXPECT_TRUE(client
                  .SubmitSync("payments", Row()
                                              .Set("cardId", "c")
                                              .Set("cardId", "d")
                                              .Set("merchantId", "m")
                                              .Set("amount", 1.0))
                  .status.IsInvalidArgument());
  // Int coerces to a declared double.
  ASSERT_TRUE(client
                  .Query("SELECT count(*) FROM payments GROUP BY cardId "
                         "OVER infinite")
                  .ok());
  EXPECT_TRUE(client
                  .SubmitSync("payments", Row()
                                              .Set("cardId", "c")
                                              .Set("merchantId", "m")
                                              .Set("amount", int64_t{3}))
                  .ok());
  client.Stop();
}

TEST(ClientTest, DdlErrorsAreTyped) {
  Client client(TestOptions("ddl-errors"));
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.CreateStream(kPaymentsDdl).ok());

  // Duplicate stream.
  EXPECT_TRUE(client.CreateStream(kPaymentsDdl).IsAlreadyExists());
  // Metric over an unknown stream.
  EXPECT_TRUE(client
                  .Query("SELECT count(*) FROM nope GROUP BY cardId "
                         "OVER infinite")
                  .IsNotFound());
  // Metric whose group-by is not covered by any partitioner.
  EXPECT_FALSE(client
                   .Query("SELECT count(*) FROM payments GROUP BY amount "
                          "OVER infinite")
                   .ok());
  // Duplicate metric registration.
  const char* metric =
      "SELECT count(*) FROM payments GROUP BY cardId OVER infinite";
  ASSERT_TRUE(client.Query(metric).ok());
  EXPECT_TRUE(client.Query(metric).IsAlreadyExists());
  // CreateStream() refuses non-CREATE statements, Query() refuses
  // CREATE STREAM.
  EXPECT_TRUE(client.CreateStream(metric).IsInvalidArgument());
  EXPECT_TRUE(client.Query(kPaymentsDdl).IsInvalidArgument());
  client.Stop();
}

TEST(ClientTest, ExecuteRoutesDdlAndListsStreams) {
  Client client(TestOptions("execute"));
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.Execute(kPaymentsDdl).ok());
  ASSERT_TRUE(client
                  .Execute("ADD METRIC SELECT count(*) FROM payments "
                           "GROUP BY cardId OVER sliding 1 hour")
                  .ok());
  // The built-in internals stream is queryable out of the box, so it
  // shows up alongside user streams.
  const std::vector<std::string> expected = {"__railgun.internals",
                                             "payments"};
  EXPECT_EQ(client.ListStreams(), expected);

  auto schema = client.GetSchema("payments");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->num_fields(), 3u);
  EXPECT_EQ(schema->fields()[2].name, "amount");
  EXPECT_EQ(schema->fields()[2].type, FieldType::kDouble);
  EXPECT_TRUE(client.GetSchema("nope").status().IsNotFound());
  client.Stop();
}

// With no processor units, no aggregation replies ever arrive: the
// request must complete with a typed Unavailable, both through the
// front-end deadline and through a shorter future-side wait.
TEST(ClientTest, ResultFutureTimesOutWithTypedStatus) {
  ClientOptions options = TestOptions("timeout");
  options.processor_units_per_node = 0;
  options.request_timeout = 300 * kMicrosPerMilli;
  Client client(options);
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.CreateStream(kPaymentsDdl).ok());

  Row row = Row()
                .At(kMicrosPerMinute)
                .Set("cardId", "c")
                .Set("merchantId", "m")
                .Set("amount", 1.0);

  // Future-side wait shorter than the request deadline.
  ResultFuture impatient = client.Submit("payments", row);
  ASSERT_TRUE(impatient.valid());
  EXPECT_FALSE(impatient.ready());
  EXPECT_TRUE(impatient.Get(10 * kMicrosPerMilli).status.IsUnavailable());

  // Front-end deadline: the same future completes with Unavailable.
  EXPECT_TRUE(impatient.Wait(5 * kMicrosPerSecond));
  EXPECT_TRUE(impatient.Get().status.IsUnavailable());

  // The blocking submit path reports the same typed status.
  EXPECT_TRUE(client.SubmitSync("payments", row).status.IsUnavailable());
  client.Stop();
}

TEST(ClientTest, AdminSurfaceReportsTopologyAndScalesOut) {
  ClientOptions options = TestOptions("admin");
  options.processor_units_per_node = 1;
  Client client(options);
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.CreateStream(kPaymentsDdl).ok());
  ASSERT_TRUE(client
                  .Query("SELECT count(*) FROM payments GROUP BY cardId "
                         "OVER sliding 1 hour")
                  .ok());

  EXPECT_EQ(client.admin().num_nodes(), 1);
  EXPECT_TRUE(client.admin().NodeAlive(0));
  EXPECT_FALSE(client.admin().NodeAlive(7));

  auto added = client.admin().AddNode();
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(added.value(), 1);
  EXPECT_EQ(client.admin().num_nodes(), 2);

  // The scaled-out node serves submissions too (round-robin picks it).
  for (int i = 0; i < 4; ++i) {
    EventResult result = client.SubmitSync(
        "payments", Row()
                        .At((i + 1) * kMicrosPerMinute)
                        .Set("cardId", "c")
                        .Set("merchantId", "m")
                        .Set("amount", 2.0));
    ASSERT_TRUE(result.ok()) << result.status.ToString();
  }

  ClusterStats stats = client.admin().TotalStats();
  EXPECT_EQ(stats.nodes_total, 2);
  EXPECT_EQ(stats.nodes_alive, 2);
  EXPECT_GE(stats.events_processed, 4u);
  EXPECT_FALSE(client.admin().Describe().empty());

  EXPECT_TRUE(client.admin().KillNode(42).IsNotFound());
  ASSERT_TRUE(client.admin().KillNode(1).ok());
  EXPECT_FALSE(client.admin().NodeAlive(1));
  EXPECT_EQ(client.admin().TotalStats().nodes_alive, 1);

  // Submissions keep flowing through the surviving node.
  EventResult after = client.SubmitSync(
      "payments", Row()
                      .At(10 * kMicrosPerMinute)
                      .Set("cardId", "c")
                      .Set("merchantId", "m")
                      .Set("amount", 2.0));
  EXPECT_TRUE(after.ok()) << after.status.ToString();
  client.Stop();
}

TEST(ClientTest, AttachesToExternallyOwnedCluster) {
  engine::ClusterOptions cluster_options;
  cluster_options.num_nodes = 1;
  cluster_options.base_dir = "/tmp/railgun-api-test-attach";
  engine::Cluster cluster(cluster_options);
  ASSERT_TRUE(cluster.Start().ok());

  Client client(&cluster);
  ASSERT_TRUE(client.Start().ok());  // No-op for attached clusters.
  ASSERT_TRUE(client.CreateStream(kPaymentsDdl).ok());
  ASSERT_TRUE(client
                  .Query("SELECT count(*) FROM payments GROUP BY cardId "
                         "OVER infinite")
                  .ok());
  EventResult result = client.SubmitSync(
      "payments", Row()
                      .At(kMicrosPerMinute)
                      .Set("cardId", "c")
                      .Set("merchantId", "m")
                      .Set("amount", 1.0));
  EXPECT_TRUE(result.ok()) << result.status.ToString();
  client.Stop();  // Must not stop the externally owned cluster.
  EXPECT_TRUE(cluster.node(0)->alive());
  cluster.Stop();
}

// The front end commits the replies it has read once per sweep
// (kPollWait, 5 ms), so soon after a run its reply topic holds only the
// few replies in flight, however many events went through. A bus that
// keeps every reply holds two per event.
TEST(ClientTest, ReplyTopicHoldsOnlyUnreadReplies) {
  engine::ClusterOptions cluster_options;
  cluster_options.num_nodes = 1;
  cluster_options.base_dir = "/tmp/railgun-api-test-reply-retention";
  cluster_options.bus.delivery_delay = 0;
  engine::Cluster cluster(cluster_options);
  ASSERT_TRUE(cluster.Start().ok());
  Client client(&cluster);
  ASSERT_TRUE(client.CreateStream(kPaymentsDdl).ok());
  ASSERT_TRUE(client
                  .Query("SELECT count(*) FROM payments GROUP BY cardId "
                         "OVER sliding 5 minutes")
                  .ok());
  const msg::TopicPartition replies{
      cluster.node(0)->frontend()->reply_topic(), 0};
  int submitted = 0;
  for (const int n : {2000, 8000}) {
    for (int i = 0; i < n; ++i, ++submitted) {
      EventResult result = client.SubmitSync(
          "payments", Row()
                          .At(submitted * kMicrosPerMilli)
                          .Set("cardId", "c" + std::to_string(i % 16))
                          .Set("merchantId", "m")
                          .Set("amount", 1.0));
      ASSERT_TRUE(result.ok()) << result.status.ToString();
    }
    const uint64_t end = cluster.bus()->EndOffset(replies).value();
    EXPECT_EQ(end, 2u * static_cast<uint64_t>(submitted));
    // The next sweep commits the last replies read; allow it a second.
    uint64_t base = 0;
    for (int wait_ms = 0; wait_ms < 1000; ++wait_ms) {
      base = cluster.bus()->BaseOffset(replies).value();
      if (end - base <= 8) break;
      MonotonicClock::Default()->SleepMicros(kMicrosPerMilli);
    }
    EXPECT_LE(end - base, 8u) << "after " << submitted << " events";
  }
  client.Stop();
  cluster.Stop();
}

TEST(ResultFutureTest, DefaultFutureIsInvalid) {
  ResultFuture future;
  EXPECT_FALSE(future.valid());
  EXPECT_FALSE(future.ready());
  EXPECT_FALSE(future.Wait(0));
  EXPECT_TRUE(future.Get(0).status.IsUnavailable());
}

TEST(ResultFutureTest, ReadyFutureCompletesImmediately) {
  EventResult result;
  result.status = Status::NotFound("nope");
  ResultFuture future = ResultFuture::Ready(std::move(result));
  EXPECT_TRUE(future.valid());
  EXPECT_TRUE(future.ready());
  EXPECT_TRUE(future.Wait(0));
  EXPECT_TRUE(future.Get(0).status.IsNotFound());
}

TEST(RowTest, BindsBySchemaOrderWithCoercion) {
  const reservoir::Schema schema(0, {{"a", FieldType::kInt64},
                                     {"b", FieldType::kDouble},
                                     {"c", FieldType::kBool},
                                     {"d", FieldType::kString}});
  auto event = Row()
                   .Set("d", "x")
                   .Set("b", int64_t{2})  // int -> double coercion
                   .Set("a", int64_t{1})
                   .Set("c", true)
                   .Bind(schema);
  ASSERT_TRUE(event.ok()) << event.status().ToString();
  EXPECT_EQ(event->values[0].as_int(), 1);
  EXPECT_DOUBLE_EQ(event->values[1].as_double(), 2.0);
  EXPECT_TRUE(event->values[2].as_bool());
  EXPECT_EQ(event->values[3].as_string(), "x");

  // Double does not silently narrow to int.
  EXPECT_FALSE(Row()
                   .Set("a", 1.5)
                   .Set("b", 1.0)
                   .Set("c", true)
                   .Set("d", "x")
                   .Bind(schema)
                   .ok());
}

TEST(RowTest, BindKeepsTypedErrorsOffTheSchemaOrderPath) {
  const reservoir::Schema schema(0, {{"a", FieldType::kInt64},
                                     {"b", FieldType::kDouble},
                                     {"c", FieldType::kString}});
  // Out of schema order still binds by name.
  auto event = Row()
                   .Set("c", "x")
                   .Set("a", int64_t{1})
                   .Set("b", 2.0)
                   .Bind(schema);
  ASSERT_TRUE(event.ok()) << event.status().ToString();
  EXPECT_EQ(event->values[0].as_int(), 1);
  EXPECT_DOUBLE_EQ(event->values[1].as_double(), 2.0);
  EXPECT_EQ(event->values[2].as_string(), "x");

  auto missing = Row().Set("a", int64_t{1}).Set("c", "x").Bind(schema);
  EXPECT_TRUE(missing.status().IsInvalidArgument());
  EXPECT_EQ(missing.status().message(), "missing field: b");

  auto unknown = Row()
                     .Set("a", int64_t{1})
                     .Set("b", 2.0)
                     .Set("bogus", 3.0)
                     .Set("c", "x")
                     .Bind(schema);
  EXPECT_TRUE(unknown.status().IsInvalidArgument());
  EXPECT_EQ(unknown.status().message(), "unknown field: bogus");

  // The in-order guess for the field after "a" is "b"; a repeated "a"
  // must still be caught.
  auto twice = Row()
                   .Set("a", int64_t{1})
                   .Set("a", int64_t{2})
                   .Set("b", 2.0)
                   .Set("c", "x")
                   .Bind(schema);
  EXPECT_TRUE(twice.status().IsInvalidArgument());
  EXPECT_EQ(twice.status().message(), "field set twice: a");
  auto twice_last = Row()
                        .Set("a", int64_t{1})
                        .Set("b", 2.0)
                        .Set("c", "x")
                        .Set("c", "y")
                        .Bind(schema);
  EXPECT_EQ(twice_last.status().message(), "field set twice: c");
}

}  // namespace
}  // namespace railgun::api
