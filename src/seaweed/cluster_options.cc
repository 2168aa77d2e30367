#include "seaweed/cluster_options.h"

#include "common/logging.h"
#include "sim/transport_stack.h"

namespace seaweed {

namespace {

Status Bad(const std::string& what) { return Status::InvalidArgument(what); }

}  // namespace

Result<ClusterConfig> ClusterOptions::Build() const {
  const ClusterConfig& c = config_;
  if (c.num_endsystems < 2) {
    return Bad("num_endsystems must be >= 2");
  }
  if (c.message_loss_rate < 0.0 || c.message_loss_rate >= 1.0) {
    return Bad("message_loss_rate must be in [0, 1)");
  }
  if (c.pastry.b < 1 || c.pastry.b > 8) {
    return Bad("pastry.b must be in [1, 8]");
  }
  if (c.pastry.l < 2 || c.pastry.l % 2 != 0) {
    return Bad("pastry.l must be even and >= 2");
  }
  if (c.pastry.heartbeat_period <= 0) {
    return Bad("pastry.heartbeat_period must be > 0");
  }
  if (c.pastry.failure_timeout_multiple <= 1.0) {
    return Bad("pastry.failure_timeout_multiple must be > 1");
  }
  if (c.seaweed.metadata_replicas < 1 ||
      c.seaweed.metadata_replicas > c.pastry.l) {
    return Bad("seaweed.metadata_replicas must be in [1, pastry.l]");
  }
  if (c.seaweed.vertex_backups < 0) {
    return Bad("seaweed.vertex_backups must be >= 0");
  }
  if (c.seaweed.summary_push_period <= 0) {
    return Bad("seaweed.summary_push_period must be > 0");
  }
  if (c.seaweed.child_timeout <= 0 || c.seaweed.result_ack_timeout <= 0) {
    return Bad("seaweed timeouts must be > 0");
  }
  if (c.seaweed.max_child_retries < 0 || c.seaweed.max_result_retries < 0) {
    return Bad("seaweed retry limits must be >= 0");
  }
  if (c.seaweed.max_retry_backoff < c.seaweed.child_timeout ||
      c.seaweed.max_retry_backoff < c.seaweed.result_ack_timeout) {
    return Bad("seaweed.max_retry_backoff must be >= the base timeouts");
  }
  if (c.seaweed.max_active_queries < 0) {
    return Bad("seaweed.max_active_queries must be >= 0");
  }
  if (c.topology.num_core_routers < 1 || c.topology.regions_per_core < 1 ||
      c.topology.branches_per_region < 1) {
    return Bad("topology router counts must be >= 1");
  }

  auto layers = ParseTransportSpec(c.transport);
  if (!layers.ok()) {
    return Bad("transport spec: " + layers.status().message());
  }
  for (const auto& layer : *layers) {
    if (layer.kind == "faulty" && !layer.arg.empty() &&
        !c.fault_plan.empty()) {
      return Bad("both WithFaultPlan and a faulty:<file> layer given");
    }
  }
  Status plan_ok = c.fault_plan.Validate(c.num_endsystems);
  if (!plan_ok.ok()) {
    return Bad("fault plan: " + plan_ok.message());
  }
  return c;
}

ClusterConfig ClusterOptions::BuildOrDie() const {
  Result<ClusterConfig> built = Build();
  SEAWEED_CHECK_MSG(built.ok(),
                    "invalid cluster options: " + built.status().message());
  return std::move(built).value();
}

}  // namespace seaweed
