// Tests for the membership & metadata subsystem: wire codecs
// (StreamDef / ClusterView round trips, truncation robustness), the
// MetadataService's lease lifecycle under a SimulatedClock (expiry
// after exactly the configured timeout ages only the listing: units that
// keep polling keep their bus sessions and partitions), DDL absorption
// into the schema registry and the kMetaExecuteDdl RPC (truncated
// requests execute nothing; typed errors cross the loopback
// unchanged), and the full multi-process topology over loopback TCP:
// broker + worker nodes + remote clients, including a client
// submitting to a stream it did not create and a graceful node leave
// that preserves every acked event.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "api/client.h"
#include "common/coding.h"
#include "engine/cluster.h"
#include "engine/coordinator.h"
#include "engine/stream_def.h"
#include "meta/broker.h"
#include "meta/cluster_view.h"
#include "meta/meta_client.h"
#include "meta/metadata_service.h"
#include "meta/worker_node.h"
#include "msg/remote/remote_bus.h"
#include "msg/remote/wire.h"
#include "query/query.h"

namespace railgun::meta {
namespace {

engine::StreamDef SampleStreamDef() {
  engine::StreamDef def;
  def.name = "payments";
  def.fields = {{"cardId", reservoir::FieldType::kString},
                {"merchantId", reservoir::FieldType::kString},
                {"amount", reservoir::FieldType::kDouble}};
  def.partitioners = {"cardId", "merchantId"};
  def.partitions_per_topic = 4;
  def.queries.push_back(
      query::ParseQuery("SELECT sum(amount), count(*) FROM payments "
                        "GROUP BY cardId OVER sliding 5 minutes")
          .value());
  def.pipelines.push_back(
      query::ParsePipeline("ADD PIPELINE big ON payments "
                           "| filter(amount > 100) | by(cardId) "
                           "| route_to_stream(alerts)")
          .value());
  return def;
}

TEST(MetaWireTest, StreamDefRoundTrip) {
  const engine::StreamDef def = SampleStreamDef();
  std::string encoded;
  engine::EncodeStreamDef(def, &encoded);

  Slice in(encoded);
  engine::StreamDef decoded;
  ASSERT_TRUE(engine::DecodeStreamDef(&in, &decoded).ok());
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(decoded.name, def.name);
  ASSERT_EQ(decoded.fields.size(), def.fields.size());
  for (size_t i = 0; i < def.fields.size(); ++i) {
    EXPECT_EQ(decoded.fields[i].name, def.fields[i].name);
    EXPECT_EQ(decoded.fields[i].type, def.fields[i].type);
  }
  EXPECT_EQ(decoded.partitioners, def.partitioners);
  EXPECT_EQ(decoded.partitions_per_topic, def.partitions_per_topic);
  ASSERT_EQ(decoded.queries.size(), 1u);
  // Queries travel as raw statements and are re-parsed on decode.
  EXPECT_EQ(decoded.queries[0].raw, def.queries[0].raw);
  EXPECT_EQ(decoded.queries[0].stream, "payments");
  EXPECT_EQ(decoded.queries[0].group_by,
            std::vector<std::string>{"cardId"});
  // Pipelines travel the same way: raw statements, re-parsed on decode.
  ASSERT_EQ(decoded.pipelines.size(), 1u);
  EXPECT_EQ(decoded.pipelines[0].raw, def.pipelines[0].raw);
  EXPECT_EQ(decoded.pipelines[0].name, "big");
  ASSERT_EQ(decoded.pipelines[0].ops.size(), 3u);
  EXPECT_EQ(decoded.pipelines[0].ops.back().target, "alerts");
}

TEST(MetaWireTest, StreamDefTruncationsAreCorruptionNeverACrash) {
  std::string encoded;
  engine::EncodeStreamDef(SampleStreamDef(), &encoded);
  for (size_t len = 0; len < encoded.size(); ++len) {
    const std::string prefix = encoded.substr(0, len);
    Slice in(prefix);
    engine::StreamDef decoded;
    EXPECT_FALSE(engine::DecodeStreamDef(&in, &decoded).ok())
        << "prefix length " << len;
  }
}

std::vector<engine::StreamDef> SampleStreamList() {
  std::vector<engine::StreamDef> defs = {SampleStreamDef(),
                                         SampleStreamDef()};
  defs[1].name = "refunds";
  defs[1].queries.clear();
  return defs;
}

TEST(MetaWireTest, StreamListRoundTrip) {
  std::string encoded;
  engine::EncodeStreamDefList(SampleStreamList(), &encoded);
  Slice in(encoded);
  std::vector<engine::StreamDef> decoded;
  ASSERT_TRUE(engine::DecodeStreamDefList(&in, &decoded).ok());
  EXPECT_TRUE(in.empty());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].name, "payments");
  EXPECT_EQ(decoded[1].name, "refunds");
  EXPECT_TRUE(decoded[1].queries.empty());
}

TEST(MetaWireTest, StreamListHostileCountIsCorruptionNotAnAbort) {
  std::string encoded;
  PutVarint32(&encoded, 0xffffffffu);  // 2^32-1 definitions, no bytes.
  Slice in(encoded);
  std::vector<engine::StreamDef> decoded;
  EXPECT_TRUE(engine::DecodeStreamDefList(&in, &decoded).IsCorruption());
}

TEST(MetaWireTest, StreamListTruncationsAndBitFlipsYieldTypedStatuses) {
  std::string encoded;
  engine::EncodeStreamDefList(SampleStreamList(), &encoded);
  for (size_t len = 0; len < encoded.size(); ++len) {
    Slice in(encoded.data(), len);
    std::vector<engine::StreamDef> decoded;
    EXPECT_TRUE(engine::DecodeStreamDefList(&in, &decoded).IsCorruption())
        << "prefix length " << len;
  }
  for (size_t i = 0; i < encoded.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = encoded;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      Slice in(mutated);
      std::vector<engine::StreamDef> decoded;
      const Status status = engine::DecodeStreamDefList(&in, &decoded);
      EXPECT_TRUE(status.ok() || status.IsCorruption())
          << "byte " << i << " bit " << bit << ": " << status.ToString();
    }
  }
}

TEST(MetaWireTest, AnnouncementAndViewRoundTrip) {
  NodeAnnouncement announcement;
  announcement.node_id = "w1";
  announcement.address = "10.0.0.7:7411";
  announcement.unit_ids = {"w1/u0", "w1/u1"};
  std::string encoded;
  EncodeNodeAnnouncement(announcement, &encoded);
  Slice in(encoded);
  NodeAnnouncement decoded_announcement;
  ASSERT_TRUE(DecodeNodeAnnouncement(&in, &decoded_announcement).ok());
  EXPECT_EQ(decoded_announcement.node_id, "w1");
  EXPECT_EQ(decoded_announcement.address, "10.0.0.7:7411");
  EXPECT_EQ(decoded_announcement.unit_ids, announcement.unit_ids);

  ClusterView view;
  view.generation = 42;
  view.nodes = {{"node0", "broker-local", 2, true},
                {"w1", "", 2, false}};
  view.streams = {"payments"};
  encoded.clear();
  EncodeClusterView(view, &encoded);
  in = Slice(encoded);
  ClusterView decoded_view;
  ASSERT_TRUE(DecodeClusterView(&in, &decoded_view).ok());
  EXPECT_EQ(decoded_view.generation, 42u);
  ASSERT_EQ(decoded_view.nodes.size(), 2u);
  EXPECT_EQ(decoded_view.nodes[0].node_id, "node0");
  EXPECT_TRUE(decoded_view.nodes[0].alive);
  EXPECT_FALSE(decoded_view.nodes[1].alive);
  EXPECT_EQ(decoded_view.streams, std::vector<std::string>{"payments"});

  // Truncations must never crash.
  for (size_t len = 0; len < encoded.size(); ++len) {
    const std::string prefix = encoded.substr(0, len);
    Slice truncated(prefix);
    ClusterView scratch;
    EXPECT_FALSE(DecodeClusterView(&truncated, &scratch).ok());
  }
}

// ----- Membership on simulated time ----------------------------------

class MembershipTest : public ::testing::Test {
 protected:
  static constexpr Micros kLease = 5 * kMicrosPerSecond;

  void SetUp() override {
    engine::ClusterOptions options;
    options.num_nodes = 0;  // Pure broker: all capacity is remote.
    options.base_dir = "/tmp/railgun-meta-membership";
    options.clock = &clock_;
    options.bus.delivery_delay = 0;
    // Shorter than the lease, as by default: a unit that keeps polling
    // keeps its session whatever its node's lease does.
    options.bus.session_timeout = 2 * kMicrosPerSecond;
    cluster_ = std::make_unique<engine::Cluster>(options);
    ASSERT_TRUE(cluster_->Start().ok());

    MetadataServiceOptions meta_options;
    meta_options.lease_timeout = kLease;
    meta_ = std::make_unique<MetadataService>(meta_options, cluster_.get());
  }

  void TearDown() override { cluster_->Stop(); }

  // Registers a fake worker unit in the active group, the way a
  // ProcessorUnit subscribing through a RemoteBus looks to the broker.
  void SubscribeUnit(const std::string& node, const std::string& unit) {
    ASSERT_TRUE(cluster_->bus()
                    ->Subscribe(unit, engine::kActiveGroup, {"pay.cardId"},
                                "node=" + node + ";unit=" + unit, {})
                    .ok());
  }

  Status Announce(const std::string& node,
                  const std::vector<std::string>& units) {
    NodeAnnouncement announcement;
    announcement.node_id = node;
    announcement.unit_ids = units;
    return meta_->Announce(announcement).status();
  }

  const NodeMember* FindNode(const ClusterView& view,
                             const std::string& node_id) {
    for (const auto& node : view.nodes) {
      if (node.node_id == node_id) return &node;
    }
    return nullptr;
  }

  SimulatedClock clock_;
  std::unique_ptr<engine::Cluster> cluster_;
  std::unique_ptr<MetadataService> meta_;
};

TEST_F(MembershipTest, AnnounceHeartbeatLeaveLifecycle) {
  const uint64_t generation0 = meta_->View().generation;
  ASSERT_TRUE(Announce("w1", {"w1/u0"}).ok());
  ClusterView view = meta_->View();
  EXPECT_GT(view.generation, generation0);
  const NodeMember* w1 = FindNode(view, "w1");
  ASSERT_NE(w1, nullptr);
  EXPECT_TRUE(w1->alive);
  EXPECT_EQ(w1->num_units, 1);

  // A second holder of the same id is rejected while the lease lives.
  EXPECT_TRUE(Announce("w1", {"w1/u0"}).IsAlreadyExists());
  // Heartbeats renew and report the generation; unknown nodes must
  // re-announce.
  EXPECT_TRUE(meta_->Heartbeat("w1").ok());
  EXPECT_TRUE(meta_->Heartbeat("ghost").status().IsNotFound());

  // Graceful leave: dead in the view, generation bumped, id reusable.
  const uint64_t generation1 = meta_->View().generation;
  ASSERT_TRUE(meta_->Leave("w1").ok());
  view = meta_->View();
  EXPECT_GT(view.generation, generation1);
  EXPECT_FALSE(FindNode(view, "w1")->alive);
  EXPECT_TRUE(meta_->Heartbeat("w1").status().IsNotFound());
  EXPECT_TRUE(Announce("w1", {"w1/u0"}).ok());
  EXPECT_TRUE(FindNode(meta_->View(), "w1")->alive);
}

TEST_F(MembershipTest, LeaseExpiresAfterExactlyTheTimeoutAndLeavesTheBusAlone) {
  msg::InProcessBus* bus = cluster_->bus();
  ASSERT_TRUE(bus->CreateTopic("pay.cardId", 4).ok());
  SubscribeUnit("wA", "wA/u0");
  SubscribeUnit("wB", "wB/u0");
  ASSERT_TRUE(Announce("wA", {"wA/u0"}).ok());
  ASSERT_TRUE(Announce("wB", {"wB/u0"}).ok());
  ASSERT_EQ(bus->AssignmentOf("wA/u0").size(), 2u);
  const uint64_t rebalances = bus->rebalance_count();

  // One tick before the lease boundary nothing expires...
  clock_.Advance(kLease - 1);
  ASSERT_TRUE(meta_->Heartbeat("wB").ok());  // B renews, A stays silent.
  EXPECT_TRUE(FindNode(meta_->View(), "wA")->alive);
  EXPECT_EQ(meta_->leases_expired(), 0u);

  // ...and exactly at it (virtual time), A is dead in the listing: the
  // view shows it at once, and B's next heartbeat records the expiry.
  clock_.Advance(1);
  EXPECT_FALSE(FindNode(meta_->View(), "wA")->alive);
  const uint64_t generation = meta_->View().generation;
  ASSERT_TRUE(meta_->Heartbeat("wB").ok());
  EXPECT_EQ(meta_->leases_expired(), 1u);
  EXPECT_GT(meta_->View().generation, generation);
  EXPECT_FALSE(FindNode(meta_->View(), "wA")->alive);
  EXPECT_TRUE(FindNode(meta_->View(), "wB")->alive);
  // The lease never touches the bus. Whether A's unit keeps its tasks
  // is the bus session's call: see
  // UnitsThatKeepPollingOutliveTheirNodesLease.
  EXPECT_EQ(bus->rebalance_count(), rebalances);

  // The expired node cannot heartbeat its way back; re-announcing
  // works, and the expiry was counted once.
  EXPECT_TRUE(meta_->Heartbeat("wA").status().IsNotFound());
  EXPECT_TRUE(Announce("wA", {"wA/u0"}).ok());
  EXPECT_TRUE(FindNode(meta_->View(), "wA")->alive);
  EXPECT_EQ(meta_->leases_expired(), 1u);
  EXPECT_EQ(bus->rebalance_count(), rebalances);
}

TEST_F(MembershipTest, UnitsThatKeepPollingOutliveTheirNodesLease) {
  // Partial failure: wA's heartbeats stop (its heartbeat thread died)
  // while its unit keeps polling. The listing ages wA out at the lease;
  // the unit keeps its bus session and its partitions.
  msg::InProcessBus* bus = cluster_->bus();
  ASSERT_TRUE(bus->CreateTopic("pay.cardId", 4).ok());
  SubscribeUnit("wA", "wA/u0");
  SubscribeUnit("wB", "wB/u0");
  ASSERT_TRUE(Announce("wA", {"wA/u0"}).ok());
  ASSERT_TRUE(Announce("wB", {"wB/u0"}).ok());
  msg::MessageBatch batch;
  const auto poll_units = [&] {
    EXPECT_TRUE(bus->PollBatch("wA/u0", 16, &batch).ok());
    EXPECT_TRUE(bus->PollBatch("wB/u0", 16, &batch).ok());
  };
  poll_units();  // Delivers the initial assignment.
  const std::vector<msg::TopicPartition> a_tasks = bus->AssignmentOf("wA/u0");
  ASSERT_EQ(a_tasks.size(), 2u);
  const uint64_t rebalances = bus->rebalance_count();

  // Both units poll every tenth of the lease; only wB heartbeats, and
  // its heartbeats run the lease check.
  for (int step = 0; step < 10; ++step) {
    clock_.Advance(kLease / 10);
    poll_units();
    ASSERT_TRUE(meta_->Heartbeat("wB").ok());
  }
  EXPECT_FALSE(FindNode(meta_->View(), "wA")->alive);
  EXPECT_TRUE(FindNode(meta_->View(), "wB")->alive);
  EXPECT_EQ(meta_->leases_expired(), 1u);

  poll_units();
  EXPECT_EQ(bus->AssignmentOf("wA/u0"), a_tasks);
  EXPECT_EQ(bus->rebalance_count(), rebalances);
}

TEST_F(MembershipTest, DeadNodeRecordsArePrunedAfterRetention) {
  // Workers restart under fresh generated ids: tombstones must not
  // accumulate forever. Announce and Heartbeat run the pruning.
  ASSERT_TRUE(Announce("w1", {"w1/u0"}).ok());
  ASSERT_TRUE(meta_->Leave("w1").ok());
  EXPECT_NE(FindNode(meta_->View(), "w1"), nullptr);  // Visible tombstone.

  clock_.Advance(kDeadNodeRetention - 1);
  ASSERT_TRUE(Announce("w2", {"w2/u0"}).ok());
  EXPECT_NE(FindNode(meta_->View(), "w1"), nullptr);

  clock_.Advance(1);
  ASSERT_TRUE(meta_->Heartbeat("w2").ok());
  EXPECT_EQ(FindNode(meta_->View(), "w1"), nullptr);
}

// ----- DDL absorption -------------------------------------------------

TEST(MetadataDdlTest, ExecuteDdlPopulatesTheSchemaRegistry) {
  engine::ClusterOptions options;
  options.num_nodes = 0;
  options.base_dir = "/tmp/railgun-meta-ddl";
  options.bus.delivery_delay = 0;
  engine::Cluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  MetadataService meta(MetadataServiceOptions(), &cluster);

  EXPECT_TRUE(meta.GetStream("payments").status().IsNotFound());
  const uint64_t generation0 = meta.View().generation;
  ASSERT_TRUE(meta.ExecuteDdl("CREATE STREAM payments (cardId STRING, "
                              "amount DOUBLE) PARTITION BY cardId "
                              "PARTITIONS 2")
                  .ok());
  auto def = meta.GetStream("payments");
  ASSERT_TRUE(def.ok());
  EXPECT_EQ(def.value().fields.size(), 2u);
  EXPECT_EQ(def.value().partitions_per_topic, 2);
  EXPECT_TRUE(def.value().queries.empty());
  EXPECT_GT(meta.View().generation, generation0);

  ASSERT_TRUE(meta.ExecuteDdl("ADD METRIC SELECT sum(amount) FROM "
                              "payments GROUP BY cardId OVER sliding "
                              "5 minutes")
                  .ok());
  EXPECT_EQ(meta.GetStream("payments").value().queries.size(), 1u);

  // Typed errors flow through; the registry stays consistent.
  EXPECT_TRUE(meta.ExecuteDdl("CREATE STREAM payments (cardId STRING) "
                              "PARTITION BY cardId")
                  .IsAlreadyExists());
  EXPECT_EQ(meta.GetStream("payments").value().fields.size(), 2u);
  EXPECT_TRUE(meta.ExecuteDdl("ADD METRIC SELECT count(*) FROM nope "
                              "GROUP BY x OVER sliding 1 minutes")
                  .IsNotFound());
  EXPECT_EQ(meta.ListStreamDefs().size(), 1u);
  EXPECT_EQ(meta.View().streams, std::vector<std::string>{"payments"});
}

TEST(MetadataDdlTest, EveryTruncatedExecuteDdlRequestIsCorruption) {
  engine::ClusterOptions options;
  options.num_nodes = 0;
  options.base_dir = "/tmp/railgun-meta-ddl-truncation";
  options.bus.delivery_delay = 0;
  engine::Cluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  MetadataService meta(MetadataServiceOptions(), &cluster);
  const uint8_t opcode =
      static_cast<uint8_t>(msg::remote::OpCode::kMetaExecuteDdl);

  std::string payload;
  PutLengthPrefixedSlice(&payload,
                         "CREATE STREAM payments (cardId STRING) "
                         "PARTITION BY cardId");
  for (size_t len = 0; len < payload.size(); ++len) {
    Status status;
    std::string result;
    ASSERT_TRUE(meta.HandleWire(opcode, Slice(payload.data(), len), &status,
                                &result));
    EXPECT_TRUE(status.IsCorruption())
        << "prefix length " << len << ": " << status.ToString();
  }
  // No prefix executed anything: neither a statement nor a stream.
  EXPECT_EQ(meta.ddl_executed(), 0u);
  EXPECT_TRUE(meta.ListStreamDefs().empty());

  Status status;
  std::string result;
  ASSERT_TRUE(meta.HandleWire(opcode, Slice(payload), &status, &result));
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(result.empty());  // The response is the status only.
  EXPECT_TRUE(meta.GetStream("payments").ok());
  cluster.Stop();
}

TEST(MetadataDdlTest, ExecuteDdlStatusesCrossTheLoopbackUnchanged) {
  BrokerOptions options;
  options.cluster.base_dir = "/tmp/railgun-meta-ddl-loopback";
  options.cluster.bus.delivery_delay = 0;
  Broker broker(options);
  ASSERT_TRUE(broker.Start().ok());
  msg::remote::RemoteBusOptions bus_options;
  bus_options.address = broker.address();
  msg::remote::RemoteBus bus(bus_options);
  ASSERT_TRUE(bus.Connect().ok());
  MetaClient client(&bus);

  const std::string create =
      "CREATE STREAM payments (cardId STRING, amount DOUBLE) "
      "PARTITION BY cardId";
  ASSERT_TRUE(client.ExecuteDdl(create).ok());
  ASSERT_TRUE(broker.metadata()->GetStream("payments").ok());

  // Each failure is deterministic, so re-running the statement on the
  // service directly yields the status the RPC must have carried.
  const std::vector<std::pair<std::string, bool (Status::*)() const>>
      failures = {
          {create, &Status::IsAlreadyExists},
          {"ADD METRIC SELECT count(*) FROM nope GROUP BY cardId "
           "OVER sliding 1 minutes",
           &Status::IsNotFound},
          {"CREATE STREAM broken (cardId STRING) PARTITION BY nope",
           &Status::IsInvalidArgument},
      };
  for (const auto& [statement, has_code] : failures) {
    const Status remote = client.ExecuteDdl(statement);
    EXPECT_TRUE((remote.*has_code)()) << statement << ": " << remote.ToString();
    EXPECT_EQ(remote.ToString(),
              broker.metadata()->ExecuteDdl(statement).ToString());
  }
  broker.Stop();
}

}  // namespace
}  // namespace railgun::meta

// ----- Multi-process topology over loopback TCP ----------------------

namespace railgun::api {
namespace {

constexpr const char* kStreamDdl =
    "CREATE STREAM payments (cardId STRING, merchantId STRING, "
    "amount DOUBLE) PARTITION BY cardId, merchantId PARTITIONS 4";
constexpr const char* kMetricDdl =
    "ADD METRIC SELECT sum(amount), count(*) FROM payments "
    "GROUP BY cardId OVER sliding 30 minutes";

meta::BrokerOptions TestBrokerOptions(const std::string& name) {
  meta::BrokerOptions options;
  options.cluster.base_dir = "/tmp/railgun-meta-e2e-" + name;
  options.cluster.bus.delivery_delay = 0;
  return options;
}

meta::WorkerNodeOptions TestWorkerOptions(const std::string& address,
                                          const std::string& name,
                                          const std::string& id) {
  meta::WorkerNodeOptions options;
  options.broker_address = address;
  options.node_id = id;
  options.num_units = 2;
  options.base_dir = "/tmp/railgun-meta-e2e-" + name + "-" + id;
  options.heartbeat_period = 50 * kMicrosPerMilli;
  return options;
}

double CountFor(Client& client, double minute) {
  const EventResult result = client.SubmitSync(
      "payments", Row()
                      .At(static_cast<Micros>(minute * kMicrosPerMinute))
                      .Set("cardId", "card1")
                      .Set("merchantId", "storeA")
                      .Set("amount", 1.0));
  EXPECT_TRUE(result.ok()) << result.status.ToString();
  const MetricValue* count = result.Find("count(*)", "card1");
  if (count == nullptr) return -1;
  return count->value.ToNumber();
}

TEST(MultiProcessTest, ClientSubmitsToAStreamAnotherClientCreated) {
  meta::Broker broker(TestBrokerOptions("foreign"));
  ASSERT_TRUE(broker.Start().ok());
  meta::WorkerNode worker(
      TestWorkerOptions(broker.address(), "foreign", "w1"));
  ASSERT_TRUE(worker.Start().ok());

  ClientOptions options;
  options.remote_address = broker.address();
  {
    Client creator(options);
    ASSERT_TRUE(creator.Start().ok());
    ASSERT_TRUE(creator.CreateStream(kStreamDdl).ok());
    ASSERT_TRUE(creator.Query(kMetricDdl).ok());
    EXPECT_DOUBLE_EQ(CountFor(creator, 1), 1.0);
    creator.Stop();
  }

  // A fresh client that never saw the DDL: the schema must come from
  // the metadata service for binding to even work, and its counts
  // include the creator's acked event. (This also exercises per-client
  // event-id salting: without it the foreign client's first auto-minted
  // id collides with the creator's and the reservoir dedups the event.)
  Client foreign(options);
  ASSERT_TRUE(foreign.Start().ok());
  EXPECT_DOUBLE_EQ(CountFor(foreign, 2), 2.0);

  // Foreign streams show up in listings and accept new metrics.
  const std::vector<std::string> streams = foreign.ListStreams();
  EXPECT_NE(std::find(streams.begin(), streams.end(), "payments"),
            streams.end());
  EXPECT_TRUE(foreign
                  .Query("ADD METRIC SELECT avg(amount) FROM payments "
                         "GROUP BY merchantId OVER sliding 30 minutes")
                  .ok());

  // Admin answers topology from the metadata view: worker w1 is there.
  auto view = foreign.admin().FetchView();
  ASSERT_TRUE(view.ok());
  bool saw_worker = false;
  for (const auto& node : view.value().nodes) {
    if (node.node_id == "w1") {
      saw_worker = true;
      EXPECT_TRUE(node.alive);
      EXPECT_EQ(node.num_units, 2);
    }
  }
  EXPECT_TRUE(saw_worker);
  EXPECT_GE(foreign.admin().num_nodes(), 1);

  // Submitting to a stream nobody declared stays a typed NotFound.
  EventResult missing = foreign.SubmitSync(
      "ghost", Row().Set("cardId", "c").Set("amount", 1.0));
  EXPECT_TRUE(missing.status.IsNotFound());

  foreign.Stop();
  worker.Stop();
  broker.Stop();
}

TEST(MultiProcessTest, GracefulNodeLeaveRebalancesWithoutLosingAckedEvents) {
  meta::Broker broker(TestBrokerOptions("leave"));
  ASSERT_TRUE(broker.Start().ok());
  meta::WorkerNode w1(TestWorkerOptions(broker.address(), "leave", "w1"));
  meta::WorkerNode w2(TestWorkerOptions(broker.address(), "leave", "w2"));
  ASSERT_TRUE(w1.Start().ok());
  ASSERT_TRUE(w2.Start().ok());

  ClientOptions options;
  options.remote_address = broker.address();
  Client client(options);
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.CreateStream(kStreamDdl).ok());
  ASSERT_TRUE(client.Query(kMetricDdl).ok());

  for (int i = 1; i <= 5; ++i) {
    EXPECT_DOUBLE_EQ(CountFor(client, i), static_cast<double>(i));
  }

  // Graceful departure: w2 leaves the view and its units unsubscribe
  // cleanly; its tasks rebalance onto w1, which rebuilds their state by
  // replaying the partition logs — no acked event may disappear.
  const uint64_t rebalances = broker.cluster()->bus()->rebalance_count();
  w2.Stop();
  EXPECT_GT(broker.cluster()->bus()->rebalance_count(), rebalances);
  auto view = broker.metadata()->View();
  for (const auto& node : view.nodes) {
    if (node.node_id == "w2") {
      EXPECT_FALSE(node.alive);
    }
    if (node.node_id == "w1") {
      EXPECT_TRUE(node.alive);
    }
  }

  for (int i = 6; i <= 8; ++i) {
    EXPECT_DOUBLE_EQ(CountFor(client, i), static_cast<double>(i));
  }

  client.Stop();
  w1.Stop();
  broker.Stop();
}

}  // namespace
}  // namespace railgun::api
