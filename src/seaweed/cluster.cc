#include "seaweed/cluster.h"

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/logging.h"
#include "seaweed/cluster_options.h"

namespace seaweed {

SeaweedCluster::SeaweedCluster(const ClusterOptions& options)
    : SeaweedCluster(options.BuildOrDie()) {}

SeaweedCluster::SeaweedCluster(const ClusterOptions& options,
                               std::shared_ptr<DataProvider> data)
    : SeaweedCluster(options.BuildOrDie(), std::move(data)) {}

SeaweedCluster::SeaweedCluster(const ClusterConfig& config)
    : config_(config),
      topology_(config.topology, config.num_endsystems),
      meter_(config.num_endsystems, &obs_.metrics),
      network_(&sim_, &topology_, &meter_, config.message_loss_rate,
               config.seed ^ 0xbeef, &obs_) {
  Construct(std::make_shared<AnemoneDataProvider>(
      config.anemone, config.num_endsystems, config.keep_tables,
      config.summary_wire_bytes));
}

SeaweedCluster::SeaweedCluster(const ClusterConfig& config,
                               std::shared_ptr<DataProvider> data)
    : config_(config),
      topology_(config.topology, config.num_endsystems),
      meter_(config.num_endsystems, &obs_.metrics),
      network_(&sim_, &topology_, &meter_, config.message_loss_rate,
               config.seed ^ 0xbeef, &obs_) {
  Construct(std::move(data));
}

void SeaweedCluster::Construct(std::shared_ptr<DataProvider> data) {
  if (config_.encode_in_flight) network_.SetEncodeInFlight(true);

  queue_depth_gauge_ = obs_.metrics.GetGauge("sim.event_queue_depth");
  online_gauge_ = obs_.metrics.GetGauge("sim.online_endsystems");
  data_ = std::move(data);

  // Ids must exist before the transport stack: namespace-range partitions in
  // the fault plan resolve against them.
  Rng id_rng(config_.seed);
  ids_.reserve(static_cast<size_t>(config_.num_endsystems));
  for (int i = 0; i < config_.num_endsystems; ++i) {
    ids_.push_back(NodeId::Random(id_rng));
  }

  stack_ = BuildTransportStack();
  overlay_ = std::make_unique<overlay::OverlayNetwork>(
      &sim_, &transport(), config_.pastry, config_.seed ^ 0xfeed);
  overlay_->CreateNodes(ids_);

  seaweed_.reserve(ids_.size());
  for (int i = 0; i < config_.num_endsystems; ++i) {
    seaweed_.push_back(std::make_unique<SeaweedNode>(
        overlay_.get(), overlay_->node(static_cast<EndsystemIndex>(i)),
        data_.get(), config_.seaweed, &seaweed_metrics_));
  }

  ScheduleCrashEpochs();
}

std::unique_ptr<TransportStack> SeaweedCluster::BuildTransportStack() {
  auto layers = ParseTransportSpec(config_.transport);
  SEAWEED_CHECK_MSG(layers.ok(), "bad transport spec '" + config_.transport +
                                     "': " + layers.status().message());
  // WithFaultPlan without naming "faulty" in the spec still means "inject
  // these faults": append the layer innermost so serializing (a debug
  // wrapper) stays outside it.
  bool has_faulty = false;
  for (const auto& l : *layers) has_faulty = has_faulty || l.kind == "faulty";
  if (!config_.fault_plan.empty() && !has_faulty) {
    layers->push_back({"faulty", ""});
  }

  std::vector<Transport::DecoratorFactory> factories;
  for (const auto& layer : *layers) {
    if (layer.kind == "serializing") {
      factories.push_back([](Transport* inner) {
        return std::make_unique<SerializingTransport>(inner);
      });
    } else if (layer.kind == "faulty") {
      FaultPlan plan = config_.fault_plan;
      if (!layer.arg.empty()) {
        SEAWEED_CHECK_MSG(plan.empty(),
                          "both fault_plan and faulty:<file> given");
        auto loaded = FaultPlan::FromJsonFile(layer.arg);
        SEAWEED_CHECK_MSG(loaded.ok(), "fault plan '" + layer.arg +
                                           "': " + loaded.status().message());
        plan = std::move(loaded).value();
      }
      Status valid = plan.Validate(config_.num_endsystems);
      SEAWEED_CHECK_MSG(valid.ok(), "fault plan: " + valid.message());
      plan.Resolve(config_.num_endsystems, ids_);
      config_.fault_plan = plan;  // keep crashes/resolution visible
      uint64_t salt = config_.seed ^ 0x5ea3eedULL;
      factories.push_back([plan = std::move(plan), salt](Transport* inner) {
        return std::make_unique<FaultInjectingTransport>(inner, plan, salt);
      });
    } else if (layer.kind == "udp") {
      SEAWEED_CHECK_MSG(false,
                        "transport layer \"udp\" is the live socket "
                        "transport and only seaweedd can host it; "
                        "simulations use: serializing, faulty");
    } else {
      SEAWEED_CHECK_MSG(false, "unknown transport layer: " + layer.kind);
    }
  }
  return Transport::Stack(std::move(factories), &network_);
}

void SeaweedCluster::ScheduleCrashEpochs() {
  for (const auto& c : config_.fault_plan.crashes) {
    const int e = static_cast<int>(c.endsystem);
    sim_.At(c.down_at, [this, e] {
      if (!network_.IsUp(static_cast<EndsystemIndex>(e))) return;
      AccumulateOnline(sim_.Now());
      --current_up_;
      BringDown(e);
    });
    if (c.up_at > 0) {
      sim_.At(c.up_at, [this, e] {
        if (network_.IsUp(static_cast<EndsystemIndex>(e))) return;
        AccumulateOnline(sim_.Now());
        ++current_up_;
        BringUp(e);
      });
    }
  }
}

void SeaweedCluster::AccumulateOnline(SimTime now) {
  if (queue_depth_gauge_ != nullptr) {
    queue_depth_gauge_->Set(static_cast<int64_t>(sim_.pending_events()));
    online_gauge_->Set(current_up_);
  }
  if (now <= last_population_change_) {
    last_population_change_ = now;
    return;
  }
  // Spread current_up_ * dt across the covered hours.
  SimTime t = last_population_change_;
  while (t < now) {
    int64_t hour = t / kHour;
    SimTime hour_end = (hour + 1) * kHour;
    SimTime seg_end = std::min(now, hour_end);
    if (static_cast<size_t>(hour) >= online_seconds_by_hour_.size()) {
      online_seconds_by_hour_.resize(static_cast<size_t>(hour) + 1, 0.0);
    }
    online_seconds_by_hour_[static_cast<size_t>(hour)] +=
        static_cast<double>(current_up_) * ToSeconds(seg_end - t);
    t = seg_end;
  }
  last_population_change_ = now;
}

void SeaweedCluster::PublishStatsGauges() {
  const EventQueue::Stats& st = sim_.queue_stats();
  obs_.metrics.GetGauge("sim.events.scheduled")
      ->Set(static_cast<int64_t>(st.scheduled));
  obs_.metrics.GetGauge("sim.events.executed")
      ->Set(static_cast<int64_t>(st.executed));
  obs_.metrics.GetGauge("sim.events.cancelled")
      ->Set(static_cast<int64_t>(st.cancelled));

  obs_.metrics.GetGauge("mem.overlay.routing_bytes")
      ->Set(static_cast<int64_t>(overlay_->ApproxRoutingBytes()));
  uint64_t meta_records = 0;
  // A record buffer is shared by its owner's replicas: the census counts
  // it once.
  uint64_t meta_bytes = seaweed_metrics_.meta_census->buffer_bytes();
  uint64_t query_entries = 0;
  uint64_t vertices = 0;
  uint64_t vertex_bytes = 0;
  for (const auto& node : seaweed_) {
    meta_records += node->metadata_store().size();
    meta_bytes += node->metadata_store().TableBytes();
    query_entries += node->active_query_count();
    const SeaweedNode::VertexFootprint v = node->vertex_footprint();
    vertices += v.vertices;
    vertex_bytes += v.bytes;
  }
  obs_.metrics.GetGauge("mem.seaweed.query_entries")
      ->Set(static_cast<int64_t>(query_entries));
  obs_.metrics.GetGauge("mem.seaweed.vertices")
      ->Set(static_cast<int64_t>(vertices));
  obs_.metrics.GetGauge("mem.seaweed.vertex_bytes")
      ->Set(static_cast<int64_t>(vertex_bytes));
  obs_.metrics.GetGauge("mem.meta.store_bytes")
      ->Set(static_cast<int64_t>(meta_bytes));
  obs_.metrics.GetGauge("mem.meta.store_records")
      ->Set(static_cast<int64_t>(meta_records));
  obs_.metrics.GetGauge("mem.net.inflight_bytes")
      ->Set(static_cast<int64_t>(network_.inflight_bytes()));
  obs_.metrics.GetGauge("mem.sim.event_queue_bytes")
      ->Set(static_cast<int64_t>(sim_.ApproxQueueBytes()));
}

void SeaweedCluster::DriveFromTrace(const AvailabilityTrace& trace,
                                    SimTime until) {
  SEAWEED_CHECK(trace.num_endsystems() >= config_.num_endsystems);
  const SimTime now = sim_.Now();
  // Hourly engine/memory gauge snapshots. Bounded by `until` so runs that
  // drain the schedule to completion still terminate.
  for (SimTime t = ((now / kHour) + 1) * kHour; t < until; t += kHour) {
    sim_.At(t, [this] { PublishStatsGauges(); });
  }
  for (int e = 0; e < config_.num_endsystems; ++e) {
    const auto& avail = trace.endsystem(e);
    if (avail.IsUp(now)) {
      // Stagger the initial joins a little to avoid a join storm at t=0.
      SimDuration stagger = (static_cast<SimDuration>(e) * 37) %
                            (5 * kSecond);
      sim_.At(now + stagger, [this, e] {
        AccumulateOnline(sim_.Now());
        ++current_up_;
        BringUp(e);
      });
    }
    for (const auto& iv : avail.intervals()) {
      if (iv.start > now && iv.start < until) {
        sim_.At(iv.start, [this, e] {
          AccumulateOnline(sim_.Now());
          ++current_up_;
          BringUp(e);
        });
      }
      if (iv.end > now && iv.end < until) {
        sim_.At(iv.end, [this, e] {
          AccumulateOnline(sim_.Now());
          --current_up_;
          BringDown(e);
        });
      }
    }
  }
}

void SeaweedCluster::BringUpAll(SimDuration window) {
  for (int e = 0; e < config_.num_endsystems; ++e) {
    SimDuration at = (window * e) / std::max(1, config_.num_endsystems);
    sim_.After(at, [this, e] {
      AccumulateOnline(sim_.Now());
      ++current_up_;
      BringUp(e);
    });
  }
}

Result<NodeId> SeaweedCluster::InjectQuery(int e, const std::string& sql,
                                           QueryObserver observer,
                                           SimDuration ttl,
                                           const std::string& id_salt) {
  return seaweed_[static_cast<size_t>(e)]->InjectQuery(sql,
                                                       std::move(observer),
                                                       ttl, id_salt);
}

int SeaweedCluster::CountUp() const {
  int n = 0;
  for (int e = 0; e < config_.num_endsystems; ++e) {
    if (network_.IsUp(static_cast<EndsystemIndex>(e))) ++n;
  }
  return n;
}

double SeaweedCluster::OnlineSecondsInHour(int64_t hour) const {
  // Flush the integration up to 'now' lazily.
  const_cast<SeaweedCluster*>(this)->AccumulateOnline(sim_.Now());
  if (hour < 0 ||
      static_cast<size_t>(hour) >= online_seconds_by_hour_.size()) {
    return 0;
  }
  return online_seconds_by_hour_[static_cast<size_t>(hour)];
}

double SeaweedCluster::MeanTxPerOnline(int64_t h0, int64_t h1, int cat) const {
  const_cast<SeaweedCluster*>(this)->AccumulateOnline(sim_.Now());
  double bytes = 0;
  double online_seconds = 0;
  for (int64_t h = h0; h <= h1; ++h) {
    if (cat < 0) {
      for (int c = 0; c < kNumTrafficCategories; ++c) {
        const auto& tl = meter_.CategoryTimeline(static_cast<TrafficCategory>(c));
        if (static_cast<size_t>(h) < tl.size() && h >= 0) {
          bytes += static_cast<double>(tl[static_cast<size_t>(h)]);
        }
      }
    } else {
      const auto& tl = meter_.CategoryTimeline(static_cast<TrafficCategory>(cat));
      if (static_cast<size_t>(h) < tl.size() && h >= 0) {
        bytes += static_cast<double>(tl[static_cast<size_t>(h)]);
      }
    }
    if (h >= 0 &&
        static_cast<size_t>(h) < online_seconds_by_hour_.size()) {
      online_seconds += online_seconds_by_hour_[static_cast<size_t>(h)];
    }
  }
  return online_seconds > 0 ? bytes / online_seconds : 0;
}

}  // namespace seaweed
