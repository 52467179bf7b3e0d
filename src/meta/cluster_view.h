// Plain-data membership model shared by the metadata service, its wire
// protocol and the admin surface: what a node announces when it joins,
// and the generation-numbered cluster view everyone else reads.
#ifndef RAILGUN_META_CLUSTER_VIEW_H_
#define RAILGUN_META_CLUSTER_VIEW_H_

#include <string>
#include <vector>

#include "common/clock.h"
#include "common/slice.h"
#include "common/status.h"

namespace railgun::meta {

// What a worker process sends when it joins the cluster.
struct NodeAnnouncement {
  std::string node_id;
  // Informational contact string ("host:port" or empty); the data path
  // always flows through the shared bus, so nothing dials this.
  std::string address;
  // Consumer ids of the node's processor units (the view counts them;
  // their liveness is the bus session's).
  std::vector<std::string> unit_ids;
};

// One row of the cluster view.
struct NodeMember {
  std::string node_id;
  std::string address;
  int num_units = 0;
  bool alive = true;
};

// Generation-numbered snapshot of the whole deployment. The generation
// advances on every membership or schema change, so workers detect
// staleness with one integer compare (piggybacked on heartbeats).
struct ClusterView {
  uint64_t generation = 0;
  std::vector<NodeMember> nodes;
  std::vector<std::string> streams;  // Registered stream names.
};

// What Announce returns to the joining node.
struct AnnounceResult {
  Micros lease_timeout = 0;  // Heartbeat faster than this.
  uint64_t generation = 0;
};

// Wire codecs (length-prefixed strings + varints, like the rest of the
// remote protocol). Decoders return Corruption on malformed input.
void EncodeNodeAnnouncement(const NodeAnnouncement& announcement,
                            std::string* out);
Status DecodeNodeAnnouncement(Slice* in, NodeAnnouncement* announcement);

void EncodeClusterView(const ClusterView& view, std::string* out);
Status DecodeClusterView(Slice* in, ClusterView* view);

}  // namespace railgun::meta

#endif  // RAILGUN_META_CLUSTER_VIEW_H_
