#include "seaweed/node.h"

#include <algorithm>
#include <deque>

#include "common/logging.h"

namespace seaweed {

using overlay::NodeHandle;

namespace {

// Exponential backoff: base * 2^(tries-1), capped. tries counts from 1.
SimDuration RetryBackoff(SimDuration base, int tries, SimDuration cap) {
  SimDuration d = base;
  for (int i = 1; i < tries && d < cap; ++i) d *= 2;
  return std::min(d, cap);
}

using ChildEntry = SeaweedMessage::ReplicaEntry;
using ChildList = PoolVector<ChildEntry>;

ChildEntry* LowerBound(ChildList& children, const NodeId& child) {
  return std::lower_bound(
      children.begin(), children.end(), child,
      [](const ChildEntry& e, const NodeId& key) { return e.child < key; });
}

// The entry held for `child`, or nullptr.
ChildEntry* FindChild(ChildList& children, const NodeId& child) {
  auto it = LowerBound(children, child);
  return it != children.end() && it->child == child ? &*it : nullptr;
}

// The entry to overwrite with `child`'s result at `version`, inserted in key
// order if new (a grown vector's new buffer comes from `pool` and is added
// to `pool_bytes`); nullptr when the held entry is already at `version` or
// newer (a stale or replayed update — the dedup that makes retries safe).
ChildEntry* AdvanceChild(ChildList& children, const NodeId& child,
                         uint64_t version, std::pmr::memory_resource* pool,
                         size_t& pool_bytes) {
  auto it = LowerBound(children, child);
  if (it == children.end() || it->child != child) {
    const size_t capacity = children.capacity();
    it = children.insert(pool, it, ChildEntry{child, version, nullptr});
    if (children.capacity() != capacity) {
      pool_bytes += children.capacity() * sizeof(ChildEntry);
    }
    return &*it;
  }
  if (it->version >= version) return nullptr;
  it->version = version;
  return &*it;
}

}  // namespace

SeaweedMetrics::SeaweedMetrics(obs::MetricsRegistry* reg)
    : queries_injected(reg->GetCounter("seaweed.queries_injected")),
      metadata_pushes(reg->GetCounter("seaweed.metadata_pushes")),
      metadata_rereplications(reg->GetCounter(
          "seaweed.metadata_rereplications")),
      predictor_merges(reg->GetCounter("seaweed.predictor_merges")),
      dissem_reissues(reg->GetCounter("seaweed.dissem_reissues")),
      vertex_updates(reg->GetCounter("seaweed.vertex_updates")),
      vertex_handovers(reg->GetCounter("seaweed.vertex_handovers")),
      vertex_repropagations(reg->GetCounter("seaweed.vertex_repropagations")),
      vertex_fn_invocations(reg->GetCounter("seaweed.vertex_fn_invocations")),
      fold_passes(reg->GetCounter("seaweed.fold_passes")),
      fold_vertices(reg->GetCounter("seaweed.fold_vertices")),
      replicate_msgs(reg->GetCounter("seaweed.replicate_msgs")),
      replicate_bytes(reg->GetCounter("seaweed.replicate_bytes")),
      leaf_retries(reg->GetCounter("seaweed.leaf_retries")),
      leaf_giveups(reg->GetCounter("seaweed.leaf_giveups")),
      vertex_retries(reg->GetCounter("seaweed.vertex_retries")),
      vertex_giveups(reg->GetCounter("seaweed.vertex_giveups")),
      handovers_suppressed(reg->GetCounter("seaweed.handovers_suppressed")),
      duplicates_suppressed(reg->GetCounter("seaweed.duplicates_suppressed")),
      dissem_fastpath_reissues(reg->GetCounter(
          "seaweed.dissem_fastpath_reissues")),
      dissem_refreshes(reg->GetCounter("seaweed.dissem_refreshes")),
      dissem_guard_trips(reg->GetCounter("seaweed.dissem_guard_trips")),
      result_reroutes(reg->GetCounter("seaweed.result_reroutes")),
      queries_shed(reg->GetCounter("seaweed.queries_shed")),
      sketch_results(reg->GetCounter("seaweed.sketch.results")),
      sketch_merges(reg->GetCounter("seaweed.sketch.merges")),
      sketch_state_bytes(reg->GetCounter("seaweed.sketch.state_bytes")),
      dissem_fanout(reg->GetHistogram("seaweed.dissem_fanout")),
      predictor_latency_us(reg->GetHistogram("seaweed.predictor_latency_us")),
      result_latency_us(reg->GetHistogram("seaweed.result_latency_us")) {}

SeaweedNode::SeaweedNode(overlay::OverlayNetwork* overlay,
                         overlay::PastryNode* pastry, DataProvider* data,
                         const SeaweedConfig& config,
                         const SeaweedMetrics* metrics)
    : overlay_(overlay),
      pastry_(pastry),
      data_(data),
      config_(config),
      metrics_(metrics),
      rng_(pastry->id().lo() ^ 0xc0ffee) {
  pastry_->set_app(this);
  metadata_.AttachCensus(metrics_->meta_census.get());
  obs::Observability* o = overlay_->obs();
  tracer_ = &o->trace;
  plan_cache_.AttachMetrics(&o->metrics);
}

void SeaweedNode::StartQueryTrace(ActiveQuery& aq, const char* kind) {
  metrics_->queries_injected->Add();
  const SimTime now = sim()->Now();
  const uint64_t key = obs::TraceKey(aq.query.query_id);
  aq.root_span = tracer_->StartSpan("query", key, now);
  tracer_->AddAttr(aq.root_span, "query",
                   aq.query.query_id.ToShortString());
  tracer_->AddAttr(aq.root_span, "kind", std::string(kind));
  tracer_->AddAttr(aq.root_span, "origin", static_cast<int64_t>(index()));
  if (!aq.query.sql.empty()) {
    tracer_->AddAttr(aq.root_span, "sql", aq.query.sql);
  }
  aq.dissem_span = tracer_->StartSpan("disseminate", key, now, aq.root_span);
  tracer_->AddAttr(aq.dissem_span, "query",
                   aq.query.query_id.ToShortString());
  aq.result_span =
      tracer_->StartSpan("result_delivery", key, now, aq.root_span);
}

void SeaweedNode::DeliverResult(ActiveQuery& aq,
                                const db::AggregateResult& result) {
  const SimTime now = sim()->Now();
  if (aq.result_span != obs::kNoSpan) {
    tracer_->EndSpan(aq.result_span, now);
    metrics_->result_latency_us->Record(
        static_cast<uint64_t>(now - aq.query.injected_at));
    aq.result_span = obs::kNoSpan;
  }
  if (aq.query.IsViewSnapshot() && aq.dissem_span != obs::kNoSpan) {
    tracer_->EndSpan(aq.dissem_span, now);
    aq.dissem_span = obs::kNoSpan;
  }
  if (aq.observer.on_result) aq.observer.on_result(aq.query.query_id, result);
}

void SeaweedNode::DeliverPredictor(ActiveQuery& aq,
                                   const CompletenessPredictor& predictor) {
  const SimTime now = sim()->Now();
  if (aq.dissem_span != obs::kNoSpan) {
    tracer_->EndSpan(aq.dissem_span, now);
    metrics_->predictor_latency_us->Record(
        static_cast<uint64_t>(now - aq.query.injected_at));
    aq.dissem_span = obs::kNoSpan;
  }
  if (aq.observer.on_predictor) {
    aq.observer.on_predictor(aq.query.query_id, predictor);
  }
}

void SeaweedNode::SendSeaweed(const NodeHandle& to, const SeaweedMessagePtr& msg,
                              TrafficCategory category) {
  pastry_->SendApp(to, msg, category);
}

void SeaweedNode::RouteSeaweed(const NodeId& key, const SeaweedMessagePtr& msg,
                               TrafficCategory category) {
  pastry_->RouteApp(key, msg, category);
}

void SeaweedNode::ChargeQueryTx(ActiveQuery& aq, uint32_t bytes) {
  if (aq.tx_bytes == nullptr) {
    aq.tx_bytes = overlay_->obs()->metrics.GetCounter(
        "query." + aq.query.query_id.ToShortString() + ".tx_bytes");
  }
  aq.tx_bytes->Add(bytes);
}

bool SeaweedNode::AtAdmissionLimit() const {
  if (config_.max_active_queries <= 0) return false;
  int origins = 0;
  for (const auto& [qid, aq] : active_) {
    if (aq.is_origin) ++origins;
  }
  return origins >= config_.max_active_queries;
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

void SeaweedNode::OnJoined() {
  const SimTime now = sim()->Now();
  metadata_.SetNow(now);
  if (went_down_at_ >= 0) {
    own_model_.RecordDownPeriod(went_down_at_, now);
    went_down_at_ = -1;
  }
  ++generation_;
  uint64_t gen = generation_;

  // Replicate our metadata right away (§3.2.2: pushed on (re)join), then
  // periodically.
  PushMetadataTick(gen);

  // Learn about queries that went active while we were away. Ask both ring
  // neighbors (either could itself be a stale entry for a dead node), and
  // retry once against fresh neighbors after the leafset settles.
  auto request_query_list = [this] {
    auto req = std::make_shared<SeaweedMessage>();
    req->kind = SeaweedMessage::Kind::kQueryListRequest;
    auto cw = pastry_->leafset().NearestCw();
    auto ccw = pastry_->leafset().NearestCcw();
    if (cw.has_value()) SendSeaweed(*cw, req, TrafficCategory::kResult);
    if (ccw.has_value() && (!cw.has_value() || ccw->id != cw->id)) {
      SendSeaweed(*ccw, req, TrafficCategory::kResult);
    }
  };
  request_query_list();
  sim()->After(30 * kSecond, [this, gen, request_query_list] {
    if (gen != generation_ || !pastry_->joined()) return;
    request_query_list();
  });

  sim()->After(config_.query_sweep_period,
               [this, gen] { SweepExpiredTick(gen); });
}

void SeaweedNode::OnStopping() {
  went_down_at_ = sim()->Now();
  ++generation_;
  metadata_.Clear();
  active_.clear();
  recent_handovers_.clear();
  plan_cache_.Clear();
}

void SeaweedNode::OnNeighborFailed(const NodeHandle& neighbor) {
  metadata_.MarkDown(neighbor.id, sim()->Now());
  if (!pastry_->joined()) return;
  // Re-replication on failure (§3.2: "the metadata held by the leaving
  // endsystem must be re-replicated on some other endsystem" — the churn
  // term Nck(h+a)/f_on of the analytic model). For each record we are the
  // primary holder of, the failed node may have been a replica; restore the
  // k-th copy on the member that now qualifies, on the failed node's side.
  for (const auto* rec : metadata_.All()) {
    const NodeId& owner = rec->owner;
    if (owner == id() || owner == neighbor.id) continue;
    if (!IsLikelyRootFor(owner)) continue;
    // Pick the qualifying member farthest from the owner: the one most
    // recently pulled into the replica set by the failure.
    std::optional<NodeHandle> target;
    NodeId target_dist;
    pastry_->leafset().ForEachMember([&](const NodeHandle& m) {
      if (!LikelyReplicaFor(owner, m)) return;
      NodeId d = m.id.RingDistanceTo(owner);
      if (!target.has_value() || d > target_dist) {
        target = m;
        target_dist = d;
      }
    });
    if (target.has_value()) {
      metrics_->metadata_rereplications->Add();
      PushRecordTo(*target, *rec);
    }
  }
}

void SeaweedNode::OnNeighborAdded(const NodeHandle& neighbor) {
  if (!pastry_->joined()) return;
  metadata_.MarkUp(neighbor.id);
  // Anti-entropy: hand the newcomer the replicas it should now hold, and our
  // own metadata if it entered our replica set.
  if (LikelyReplicaFor(id(), neighbor)) {
    PushMetadataTo(neighbor);
  }
  for (const auto* rec : metadata_.All()) {
    const NodeId& owner = rec->owner;
    if (owner == neighbor.id) continue;
    // Push only records the newcomer is responsible for, and only if we are
    // the closest live holder (the "primary" of the record) — otherwise all
    // k holders would re-push the same record on every join, amplifying the
    // churn re-replication cost k-fold over the model's k(h+a) per event.
    if (!IsLikelyRootFor(owner)) continue;
    if (LikelyReplicaFor(owner, neighbor)) PushRecordTo(neighbor, *rec);
  }
  // The newcomer shifted the replica boundary: drop records we are no longer
  // a likely replica for. Waiting for the periodic push tick is fine in
  // steady state, but during a join storm leafsets shift on every arrival
  // and a node can accumulate hundreds of stale records between ticks —
  // O(N) aggregate store growth instead of O(k) per node.
  EvictLiveOwnerRecords();
}

void SeaweedNode::EvictLiveOwnerRecords() {
  // Storm-time eviction is restricted to owners believed UP: a live owner
  // re-pushes every summary_push_period, so dropping its record costs at
  // most one period of under-replication. Records of DOWN owners are the
  // coverage-critical ones (§3.2.1 answers for unavailable endsystems from
  // replicas, and a down owner cannot re-push) — those are left to the
  // periodic tick's eviction, whose rare sampling tolerates transient
  // leafset views that would wrongly purge them here.
  metadata_.EvictIf(
      [this](const NodeId& owner, const MetadataStore::Record& rec) {
        return rec.down_since >= 0 ||
               LikelyReplicaFor(owner, pastry_->handle());
      });
}

void SeaweedNode::OnAppSendFailed(const NodeHandle& dead,
                                  WireMessagePtr payload) {
  (void)dead;  // routing state was already purged by the overlay
  if (!pastry_->up() || payload == nullptr) return;
  auto msg = WireMessageCast<SeaweedMessage>(payload);
  switch (msg->kind) {
    case SeaweedMessage::Kind::kBroadcast:
      // A child range we handed to a now-dead contact: take its reissue
      // step now instead of waiting out the child timeout.
      StepChild(msg->query_id, "", msg->range.Token(), 0);
      return;
    case SeaweedMessage::Kind::kResultSubmit:
      // A handover forward hit a dead node. Re-handle locally: the dead
      // member is gone from the leafset now, so this either picks the next
      // closer member or folds the submission into our own vertex state.
      metrics_->result_reroutes->Add();
      HandleResultSubmit(pastry_->handle(), msg);
      return;
    default:
      // The periodic planes (metadata pushes, predictor reports, acks,
      // vertex replication) have their own repair cycles; reacting here
      // would only duplicate them.
      return;
  }
}

// ---------------------------------------------------------------------------
// Metadata plane
// ---------------------------------------------------------------------------

std::vector<NodeHandle> SeaweedNode::ReplicaSet() const {
  const auto& ls = pastry_->leafset();
  const int k = config_.metadata_replicas;
  std::vector<NodeHandle> out;
  const auto& cw = ls.cw();
  const auto& ccw = ls.ccw();
  size_t i = 0, j = 0;
  // k/2 a side, spilling over when one side is short.
  while (static_cast<int>(out.size()) < k && (i < cw.size() || j < ccw.size())) {
    if (i < cw.size() && (i <= j || j >= ccw.size())) {
      out.push_back(cw[i++]);
    } else if (j < ccw.size()) {
      out.push_back(ccw[j++]);
    }
  }
  return out;
}

bool SeaweedNode::LikelyReplicaFor(const NodeId& owner,
                                   const NodeHandle& holder) const {
  // `holder` belongs to owner's replica set iff it is among the k/2
  // numerically closest live nodes on its side of owner. Judged from this
  // node's leafset view: owner must lie within leafset coverage (otherwise
  // we know nothing about its neighborhood — and should not be holding its
  // metadata either), and fewer than k/2 live members may sit strictly
  // between holder and owner. Without the coverage requirement a purely
  // rank-based test accepts arbitrarily distant owners (the local candidate
  // set is tiny), anti-entropy then spreads every record to every node, and
  // the stores grow O(N^2).
  const auto& ls = pastry_->leafset();
  if (holder.id == owner) return false;
  if (!ls.Covers(owner) && owner != id()) return false;

  int between = 0;
  // Count live members, this node included, strictly inside the arc
  // between holder and owner (on holder's side, i.e. the short way from
  // holder to owner).
  NodeId cw = holder.id.ClockwiseDistanceTo(owner);
  NodeId ccw = owner.ClockwiseDistanceTo(holder.id);
  bool holder_ccw_of_owner = cw <= ccw;
  auto count = [&](const NodeId& m) {
    if (m == holder.id || m == owner) return;
    bool inside = holder_ccw_of_owner
                      ? (holder.id.ClockwiseDistanceTo(m) < cw && m != owner)
                      : (owner.ClockwiseDistanceTo(m) < ccw);
    if (inside) ++between;
  };
  count(id());
  ls.ForEachMember([&](const NodeHandle& h) { count(h.id); });
  return between < config_.metadata_replicas / 2;
}

MetadataRecord SeaweedNode::BuildOwnRecord() {
  Metadata metadata;
  metadata.owner = id();
  metadata.version = metadata_version_;
  metadata.summary = data_->Summary(index());
  metadata.availability = own_model_;
  for (const auto& view : config_.views) {
    db::ParseOptions opts;
    opts.now_unix_seconds = sim()->Now() / kSecond;
    auto parsed = db::ParseSelect(view.sql, opts);
    if (!parsed.ok()) {
      SEAWEED_LOG(kWarn) << "bad view sql '" << view.sql
                         << "': " << parsed.status().ToString();
      continue;
    }
    auto value = data_->Execute(index(), *parsed);
    if (value.ok()) {
      metadata.views.emplace_back(view.name, std::move(value).value());
    }
  }
  return MetadataRecord::Make(metadata);
}

void SeaweedNode::PushMetadataTo(const NodeHandle& to) {
  metrics_->metadata_pushes->Add();
  PushRecordTo(to, own_record_);
}

void SeaweedNode::PushRecordTo(const NodeHandle& to,
                               const MetadataRecord& rec) {
  auto msg = std::make_shared<SeaweedMessage>();
  msg->kind = SeaweedMessage::Kind::kMetadataPush;
  msg->metadata = rec;
  // Another owner's record is charged at our own summary's size too:
  // summaries are of the same order.
  msg->metadata_wire_bytes = own_summary_wire_bytes_;
  SendSeaweed(to, msg, TrafficCategory::kMetadata);
}

void SeaweedNode::PushMetadataTick(uint64_t generation) {
  if (generation != generation_ || !pastry_->joined()) return;
  ++metadata_version_;
  own_record_ = BuildOwnRecord();
  own_summary_wire_bytes_ = data_->SummaryWireBytes(index());
  for (const auto& replica : ReplicaSet()) {
    PushMetadataTo(replica);
  }
  // Evict records we are no longer responsible for (the owner's replica set
  // drifted away from us as nodes joined); keeps the store O(k). Unlike the
  // storm-time sweeps this one also drops records of down owners: by tick
  // time leafset views have settled, so the predicate is trustworthy.
  metadata_.EvictIf(
      [this](const NodeId& owner, const MetadataStore::Record&) {
        return LikelyReplicaFor(owner, pastry_->handle());
      });
  // Randomize each period slightly to avoid system-wide synchronization
  // (§4.3: "each endsystem choosing its push time randomly").
  SimDuration period = config_.summary_push_period;
  SimDuration jitter = static_cast<SimDuration>(
      rng_.NextBelow(static_cast<uint64_t>(period / 4 + 1)));
  sim()->After(period - period / 8 + jitter,
               [this, generation] { PushMetadataTick(generation); });
}

// ---------------------------------------------------------------------------
// Query lifecycle
// ---------------------------------------------------------------------------

Status SeaweedNode::CheckCanOriginate() {
  if (!pastry_->up()) {
    return Status::Unavailable("injecting endsystem is down");
  }
  if (AtAdmissionLimit()) {
    metrics_->queries_shed->Add();
    return Status::Unavailable("load shed: admission limit reached");
  }
  return Status::OK();
}

Result<NodeId> SeaweedNode::Originate(const Query& query,
                                      QueryObserver observer,
                                      const char* kind) {
  const NodeId qid = query.query_id;
  ActiveQuery* entry = EnsureQueryActive(query);
  if (entry == nullptr) {
    return Status::FailedPrecondition(
        "query " + qid.ToHex() + " has ended here: cancelled or past its TTL");
  }
  ActiveQuery& aq = *entry;
  aq.is_origin = true;
  aq.observer = std::move(observer);
  StartQueryTrace(aq, kind);
  // The origin's own task: the full range is its one child, routed toward
  // the node closest to the queryId, the tree root, which reports back.
  const IdRange none = IdRange::Empty(qid);
  RangeTask& task = aq.tasks[none.Token()];
  task.range = none;
  ChildRange& root = task.children[IdRange::Full(qid).Token()];
  root.range = IdRange::Full(qid);
  root.via_routing = true;
  DispatchChild(aq, task, root);
  return qid;
}

Result<NodeId> SeaweedNode::InjectQuery(const std::string& sql,
                                        QueryObserver observer,
                                        SimDuration ttl,
                                        const std::string& id_salt) {
  if (Status s = CheckCanOriginate(); !s.ok()) return s;
  SEAWEED_ASSIGN_OR_RETURN(
      Query query,
      Query::Create(sql, sim()->Now(), pastry_->handle(), ttl, id_salt));
  return Originate(query, std::move(observer), "oneshot");
}

Result<NodeId> SeaweedNode::InjectContinuousQuery(const std::string& sql,
                                                  SimDuration period,
                                                  QueryObserver observer,
                                                  SimDuration ttl) {
  if (period <= 0) {
    return Status::InvalidArgument("continuous period must be positive");
  }
  if (Status s = CheckCanOriginate(); !s.ok()) return s;
  SEAWEED_ASSIGN_OR_RETURN(
      Query query, Query::Create(sql, sim()->Now(), pastry_->handle(), ttl));
  query.continuous = true;
  query.reexec_period = period;
  return Originate(query, std::move(observer), "continuous");
}

void SeaweedNode::CancelQuery(const NodeId& query_id) {
  auto it = active_.find(query_id);
  EndQuery(query_id, it != active_.end()
                         ? it->second.query.injected_at + it->second.query.ttl
                         : sim()->Now() + 48 * kHour);
  // Seed the epidemic: notify all leafset members; each recipient forwards
  // once (dedup via its own tombstone).
  auto msg = std::make_shared<SeaweedMessage>();
  msg->kind = SeaweedMessage::Kind::kQueryCancel;
  msg->query_id = query_id;
  for (const auto& member : pastry_->leafset().All()) {
    SendSeaweed(member, msg, TrafficCategory::kResult);
  }
}

Result<NodeId> SeaweedNode::QueryViewSnapshot(const std::string& view_name,
                                              QueryObserver observer) {
  if (Status s = CheckCanOriginate(); !s.ok()) return s;
  const ReplicatedView* view = nullptr;
  for (const auto& v : config_.views) {
    if (v.name == view_name) view = &v;
  }
  if (view == nullptr) {
    return Status::NotFound("no replicated view named '" + view_name + "'");
  }
  SEAWEED_ASSIGN_OR_RETURN(
      Query query, Query::Create(view->sql, sim()->Now(), pastry_->handle(),
                                 /*ttl=*/kHour));
  query.view_name = view_name;
  // Distinct id space from the equivalent one-shot query.
  query.query_id = Sha1ToNodeId("view:" + view_name + "@" +
                                std::to_string(sim()->Now()));
  return Originate(query, std::move(observer), "view_snapshot");
}

void SeaweedNode::HandleQueryCancel(const SeaweedMessagePtr& msg) {
  if (cancelled_.count(msg->query_id)) return;  // already seen: stop flood
  CancelQuery(msg->query_id);
}

void SeaweedNode::EndQuery(const NodeId& query_id, SimTime tombstone_until) {
  active_.erase(query_id);
  plan_cache_.Erase(query_id.ToHex());
  cancelled_[query_id] = tombstone_until;
}

SeaweedNode::ActiveQuery* SeaweedNode::EnsureQueryActive(const Query& query) {
  if (cancelled_.count(query.query_id) || query.ExpiredAt(sim()->Now())) {
    return nullptr;
  }
  auto it = active_.find(query.query_id);
  if (it != active_.end()) {
    if (it->second.query.sql.empty() && !query.sql.empty()) {
      // A vertex-only entry learns its query: from now on the refresh also
      // covers our leaf, on the query's own period, and ends the entry.
      it->second.query = query;
      ScheduleLocalExecution(query.query_id);
      ArmRefresh(it->second);
    }
    return &it->second;
  }
  ActiveQuery& aq = active_[query.query_id];
  aq.query = query;
  if (!query.sql.empty()) {
    if (!query.IsViewSnapshot()) ScheduleLocalExecution(query.query_id);
    ArmRefresh(aq);
  }
  return &aq;
}

void SeaweedNode::ScheduleLocalExecution(const NodeId& query_id) {
  auto it = active_.find(query_id);
  if (it == active_.end() || it->second.executed) return;
  it->second.executed = true;
  uint64_t gen = generation_;
  sim()->After(config_.exec_delay, [this, gen, query_id] {
    if (gen != generation_) return;
    ExecuteAndSubmit(query_id);
  });
}

void SeaweedNode::ExecuteAndSubmit(const NodeId& query_id) {
  auto it = active_.find(query_id);
  if (it == active_.end() || it->second.query.sql.empty()) return;
  ActiveQuery& aq = it->second;
  if (aq.query.ExpiredAt(sim()->Now())) return;
  obs::SpanId span = tracer_->StartSpan(
      "local_exec", obs::TraceKey(query_id), sim()->Now());
  tracer_->AddAttr(span, "node", static_cast<int64_t>(index()));
  auto result = data_->ExecuteCached(index(), aq.query.parsed, &plan_cache_,
                                     query_id.ToHex());
  tracer_->EndSpan(span, sim()->Now());
  if (!result.ok()) {
    SEAWEED_LOG(kWarn) << "local execution failed: "
                       << result.status().ToString();
    return;
  }
  aq.leaf_result =
      std::make_shared<const db::AggregateResult>(std::move(result).value());
  aq.leaf.version = sim()->Now() > 0 ? static_cast<uint64_t>(sim()->Now()) : 1;
  SubmitLeafResult(query_id);
}

void SeaweedNode::HandleQueryListRequest(const NodeHandle& from) {
  auto reply = std::make_shared<SeaweedMessage>();
  reply->kind = SeaweedMessage::Kind::kQueryList;
  const SimTime now = sim()->Now();
  for (const auto& [qid, aq] : active_) {
    if (aq.query.sql.empty() || aq.query.ExpiredAt(now)) continue;
    reply->queries.push_back(aq.query);
  }
  SendSeaweed(from, reply, TrafficCategory::kResult);
}

void SeaweedNode::HandleQueryList(const SeaweedMessagePtr& msg) {
  for (const auto& q : msg->queries) EnsureQueryActive(q);
}

void SeaweedNode::SweepExpiredTick(uint64_t generation) {
  if (generation != generation_ || !pastry_->up()) return;
  const SimTime now = sim()->Now();
  for (auto it = cancelled_.begin(); it != cancelled_.end();) {
    if (now > it->second) {
      it = cancelled_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = recent_handovers_.begin(); it != recent_handovers_.end();) {
    if (now - it->second > config_.handover_loop_window) {
      it = recent_handovers_.erase(it);
    } else {
      ++it;
    }
  }
  sim()->After(config_.query_sweep_period,
               [this, generation] { SweepExpiredTick(generation); });
}

// ---------------------------------------------------------------------------
// Dissemination + completeness prediction
// ---------------------------------------------------------------------------

IdRange SeaweedNode::MyCell() const {
  const auto& ls = pastry_->leafset();
  auto left = ls.NearestCcw();
  auto right = ls.NearestCw();
  if (!left.has_value() && !right.has_value()) {
    return IdRange::Full(id());
  }
  NodeId left_id = left.has_value() ? left->id : right->id;
  NodeId right_id = right.has_value() ? right->id : left->id;
  NodeId lo = left_id.MidpointTo(id());
  NodeId hi = id().MidpointTo(right_id);
  if (lo == hi) return IdRange::Full(id());
  return IdRange{lo, hi, false};
}

bool SeaweedNode::CoveredByLeafset(const IdRange& range) const {
  if (range.full) return false;
  const auto& ls = pastry_->leafset();
  auto fccw = ls.FarthestCcw();
  auto fcw = ls.FarthestCw();
  if (!fccw.has_value() || !fcw.has_value()) return false;
  NodeId start = fccw->id;
  NodeId span = start.ClockwiseDistanceTo(fcw->id);
  NodeId off_lo = start.ClockwiseDistanceTo(range.lo);
  NodeId off_hi = start.ClockwiseDistanceTo(range.hi);
  return off_lo <= off_hi && off_hi <= span;
}

void SeaweedNode::HandleBroadcast(const SeaweedMessagePtr& msg) {
  SEAWEED_CHECK(!msg->queries.empty());
  if (msg->range.IsEmpty()) return;  // names the origin's own task
  ActiveQuery* entry = EnsureQueryActive(msg->queries[0]);
  if (entry == nullptr) return;  // ended here: cancelled or past its TTL
  ActiveQuery& aq = *entry;

  const std::string token = msg->range.Token();
  auto existing = aq.tasks.find(token);
  if (existing != aq.tasks.end()) {
    // Duplicate (parent reissued while our report was in flight): if we
    // already finished, re-report; otherwise keep working.
    if (existing->second.finished) {
      existing->second.parent = msg->parent;
      ReportTask(aq, existing->second);
    }
    return;
  }
  ProcessRange(aq, msg->range, msg->parent);
}

void SeaweedNode::ProcessRange(ActiveQuery& aq, const IdRange& range,
                               const NodeHandle& parent) {
  const std::string token = range.Token();
  RangeTask& task = aq.tasks[token];
  task.range = range;
  task.parent = parent;

  // Worklist of subranges this node resolves locally; anything covered by a
  // remote node becomes a child entry with a network dispatch.
  std::deque<IdRange> work;
  work.push_back(range);
  const IdRange cell = MyCell();
  int guard = 0;

  while (!work.empty()) {
    IdRange r = work.front();
    work.pop_front();
    if (r.IsEmpty()) continue;
    if (++guard > 4 * kIdBits) {
      SEAWEED_LOG(kWarn) << "range subdivision guard tripped";
      metrics_->dissem_guard_trips->Add();
      break;
    }

    // Terminal: the range is inside the region we are numerically closest
    // to, which is exactly where our metadata replicas live.
    bool terminal = cell.full;
    if (!terminal && !r.full) {
      terminal = cell.Contains(r.lo) &&
                 (r.lo.ClockwiseDistanceTo(r.hi) <=
                  r.lo.ClockwiseDistanceTo(cell.hi));
    }
    if (terminal) {
      if (aq.query.IsViewSnapshot()) {
        GenerateViewFor(aq, r, &task.view_acc);
      } else {
        GeneratePredictorFor(aq, r, &task.acc);
      }
      continue;
    }

    if (CoveredByLeafset(r)) {
      // Partition r among the cells of {me} ∪ leafset members, assigning
      // each piece to the member numerically closest to it (= the member
      // holding the metadata replicas for dead ids in that piece).
      std::vector<NodeHandle> members = pastry_->leafset().All();
      members.push_back(pastry_->handle());
      std::sort(members.begin(), members.end(),
                [](const NodeHandle& a, const NodeHandle& b) {
                  return a.id < b.id;
                });
      std::vector<NodeId> member_ids;
      member_ids.reserve(members.size());
      for (const auto& m : members) member_ids.push_back(m.id);
      for (const RangePart& part :
           PartitionByClosestMember(r, member_ids)) {
        const NodeHandle& m = members[part.member_index];
        if (m.id == id()) {
          work.push_back(part.range);
        } else {
          ChildRange child;
          child.range = part.range;
          child.contact = m;
          aq.tasks[token].children[part.range.Token()] = child;
        }
      }
      continue;
    }

    // Too wide for local knowledge: divide and conquer.
    auto [first, second] = r.Split();
    for (const IdRange& half : {first, second}) {
      if (half.IsEmpty()) continue;
      if (half.Contains(id())) {
        work.push_back(half);
        continue;
      }
      // Prefer a known contact inside the half (O(1) hop, §3.3); fall back
      // to routing toward the midpoint.
      ChildRange child;
      child.range = half;
      auto contacts = pastry_->routing_table().EntriesInArc(half.lo, half.hi);
      for (const auto& h : pastry_->leafset().All()) {
        if (half.Contains(h.id)) contacts.push_back(h);
      }
      if (!contacts.empty()) {
        NodeId mid = half.Mid();
        std::sort(contacts.begin(), contacts.end(),
                  [&mid](const NodeHandle& a, const NodeHandle& b) {
                    return a.id.RingDistanceTo(mid) < b.id.RingDistanceTo(mid);
                  });
        // Drop contacts not actually in the half (EntriesInArc uses the
        // inclusive arc; re-check half-open membership).
        if (half.Contains(contacts.front().id)) {
          child.contact = contacts.front();
          aq.tasks[token].children[half.Token()] = child;
          continue;
        }
      }
      if (IsLikelyRootFor(half.Mid())) {
        // Routing would come straight back to us: keep subdividing locally.
        work.push_back(half);
        continue;
      }
      child.via_routing = true;
      aq.tasks[token].children[half.Token()] = child;
    }
  }

  RangeTask& final_task = aq.tasks[token];
  metrics_->dissem_fanout->Record(final_task.children.size());
  obs::SpanId span = tracer_->StartSpan(
      "disseminate_range", obs::TraceKey(aq.query.query_id), sim()->Now());
  tracer_->AddAttr(span, "node", static_cast<int64_t>(index()));
  tracer_->AddAttr(span, "fanout",
                   static_cast<int64_t>(final_task.children.size()));
  for (auto& [child_token, child] : final_task.children) {
    DispatchChild(aq, final_task, child);
  }
  FinishTaskIfDone(aq, final_task);
  tracer_->EndSpan(span, sim()->Now());
}

std::pair<SeaweedNode::RangeTask*, SeaweedNode::ChildRange*>
SeaweedNode::FindChildRange(ActiveQuery& aq, const std::string& task_token,
                            const std::string& child_token) {
  auto t = task_token.empty() ? aq.tasks.begin() : aq.tasks.find(task_token);
  for (; t != aq.tasks.end(); ++t) {
    auto c = t->second.children.find(child_token);
    if (c != t->second.children.end()) return {&t->second, &c->second};
    if (!task_token.empty()) break;
  }
  return {nullptr, nullptr};
}

void SeaweedNode::DispatchChild(ActiveQuery& aq, const RangeTask& task,
                                ChildRange& child) {
  ++child.tries;
  ++child.attempt;
  if (child.tries > 1) metrics_->dissem_reissues->Add();
  auto msg = std::make_shared<SeaweedMessage>();
  msg->kind = SeaweedMessage::Kind::kBroadcast;
  msg->queries.push_back(aq.query);
  msg->query_id = aq.query.query_id;
  msg->range = child.range;
  msg->parent = pastry_->handle();
  ChargeQueryTx(aq, msg->WireBytes());
  // The fast retries back off per try, so an injected loss burst does not
  // turn every child into a fixed-rate retry storm; past the give-up the
  // refresh keeps its own cadence.
  const SimDuration wait =
      child.tries > config_.max_child_retries + 1
          ? config_.dissem_refresh_period
          : RetryBackoff(config_.child_timeout, child.tries,
                         config_.max_retry_backoff);
  const NodeId query_id = aq.query.query_id;
  const int attempt = child.attempt;
  std::string task_token = task.range.Token();
  std::string child_token = child.range.Token();
  // A routed range may land here (an origin that is the tree root) and run
  // on to the delivery, whose observer may end the query: past the send,
  // nothing touches `aq` or `child`.
  if (child.via_routing) {
    // The full range heads for its anchor, the queryId; others for their
    // midpoint.
    RouteSeaweed(child.range.full ? child.range.lo : child.range.Mid(), msg,
                 TrafficCategory::kDissemination);
  } else {
    SendSeaweed(child.contact, msg, TrafficCategory::kDissemination);
  }
  ArmChildTimer(query_id, std::move(task_token), std::move(child_token),
                attempt, wait);
}

void SeaweedNode::ArmChildTimer(const NodeId& query_id,
                                std::string task_token,
                                std::string child_token, int attempt,
                                SimDuration wait) {
  uint64_t gen = generation_;
  sim()->After(wait, [this, gen, query_id, task_token = std::move(task_token),
                      child_token = std::move(child_token), attempt] {
    if (gen != generation_) return;
    StepChild(query_id, task_token, child_token, attempt);
  });
}

void SeaweedNode::StepChild(const NodeId& query_id,
                            const std::string& task_token,
                            const std::string& child_token, int attempt) {
  auto it = active_.find(query_id);
  if (it == active_.end()) return;
  ActiveQuery& aq = it->second;
  auto [task, child] = FindChildRange(aq, task_token, child_token);
  if (child == nullptr || child->reported) return;
  const bool exhausted = child->tries > config_.max_child_retries;
  if (task_token.empty()) {
    if (child->done || exhausted) return;
    metrics_->dissem_fastpath_reissues->Add();
  } else if (attempt != child->attempt) {
    // Superseded: a drop notice already reissued this child and armed a
    // fresh timer; going on here would double-reissue.
    return;
  } else if (exhausted && !child->done && !IsOriginTask(*task)) {
    // Give up on this subrange: report what we have (coverage loss is
    // visible to the user as a slightly low predictor). The range is not
    // abandoned outright — the refresh keeps re-sending the descriptor so
    // a crashed-and-restarted subtree, which lost every in-flight query
    // with its process, eventually learns it again and its results flow
    // through the self-healing result plane. The origin has nothing to
    // report without its one child, so it goes straight on to the refresh.
    child->done = true;
    FinishTaskIfDone(aq, *task);
    if (config_.dissem_refresh_period > 0) {
      ArmChildTimer(query_id, task_token, child_token, attempt,
                    config_.dissem_refresh_period);
    }
    return;
  } else if (exhausted) {
    if (config_.dissem_refresh_period <= 0 ||
        aq.query.ExpiredAt(sim()->Now())) {
      return;
    }
    metrics_->dissem_refreshes->Add();
  }
  // Reissue by routing: the contact may be dead, and the overlay picks
  // whoever now owns the range (possibly a restarted node under a fresh
  // handle).
  child->via_routing = true;
  DispatchChild(aq, *task, *child);
}

void SeaweedNode::GeneratePredictorFor(ActiveQuery& aq, const IdRange& range,
                                       CompletenessPredictor* out) {
  const SimTime now = sim()->Now();
  const SimTime injected = aq.query.injected_at;
  obs::SpanId span = tracer_->StartSpan(
      "metadata_lookup", obs::TraceKey(aq.query.query_id), now);

  int64_t records = 0;
  if (range.Contains(id())) {
    // Our own contribution: row-count estimate from the local DBMS.
    double rows = data_->Summary(index()).EstimateRows(aq.query.parsed);
    out->AddRowsAt(0, rows);
    out->AddEndsystems(1);
  }
  // Unavailable endsystems whose metadata we replicate.
  for (const auto* rec : metadata_.InRange(range, /*only_down=*/false)) {
    const NodeId& owner = rec->owner;
    if (owner == id()) continue;
    if (rec->down_since < 0) {
      // Believed up: if it is a live leafset member it covers itself; only
      // predict for it when we have positively marked it down.
      if (pastry_->leafset().Contains(owner)) continue;
      // Not in our leafset but in our terminal range: treat as down since
      // we acquired the record.
    }
    SimTime down_since = rec->down_since >= 0 ? rec->down_since
                                              : rec->acquired_at;
    Metadata meta = rec->Decoded();
    double rows = meta.summary.EstimateRows(aq.query.parsed);
    if (rows <= 0) {
      out->AddEndsystems(1);
      ++records;
      continue;
    }
    const AvailabilityModel& model = meta.availability;
    out->AddRowsWithAvailability(
        rows, [&](SimDuration edge) {
          return model.ProbUpBy(now, down_since, injected + edge);
        });
    out->AddEndsystems(1);
    ++records;
  }
  tracer_->AddAttr(span, "node", static_cast<int64_t>(index()));
  tracer_->AddAttr(span, "replica_records", records);
  tracer_->EndSpan(span, now);
}

void SeaweedNode::GenerateViewFor(ActiveQuery& aq, const IdRange& range,
                                  db::AggregateResult* out) {
  if (range.Contains(id())) {
    // Our own (fresh) view value.
    auto own = data_->Execute(index(), aq.query.parsed);
    if (own.ok()) {
      out->Merge(*own);
    }
  }
  // Stored view values for every other owner in the range, up or down —
  // live owners in a terminal range would be leafset members handling their
  // own cells, so these are the unavailable ones.
  for (const auto* rec : metadata_.InRange(range, /*only_down=*/false)) {
    const NodeId& owner = rec->owner;
    if (owner == id()) continue;
    if (rec->down_since < 0 && pastry_->leafset().Contains(owner)) continue;
    Metadata meta = rec->Decoded();
    const db::AggregateResult* value = meta.FindView(aq.query.view_name);
    if (value != nullptr) {
      out->Merge(*value);
    }
  }
}

void SeaweedNode::FinishTaskIfDone(ActiveQuery& aq, RangeTask& task) {
  if (task.finished) return;
  for (const auto& [token, child] : task.children) {
    if (!child.done) return;
  }
  task.finished = true;
  ReportTask(aq, task);
}

void SeaweedNode::ReportTask(ActiveQuery& aq, RangeTask& task) {
  if (IsOriginTask(task)) {
    if (aq.query.IsViewSnapshot()) {
      DeliverResult(aq, task.view_acc);
    } else {
      DeliverPredictor(aq, task.acc);
    }
    return;
  }
  auto msg = std::make_shared<SeaweedMessage>();
  msg->kind = SeaweedMessage::Kind::kPredictorReport;
  msg->query_id = aq.query.query_id;
  msg->range = task.range;
  msg->predictor = task.acc;
  msg->result = task.view_acc;  // non-empty only for view snapshots
  // Charged first: a report to ourselves (the tree root is the origin) runs
  // on to the delivery, whose observer may end the query.
  ChargeQueryTx(aq, msg->WireBytes());
  SendSeaweed(task.parent, msg, TrafficCategory::kPredictor);
}

void SeaweedNode::HandlePredictorReport(const SeaweedMessagePtr& msg) {
  auto it = active_.find(msg->query_id);
  if (it == active_.end()) return;
  // A report names only its range, and several of this node's tasks may
  // hold that range as a child (overlapping ranges from different parents
  // partition to the same cell): it resolves every one of them.
  const std::string child_token = msg->range.Token();
  std::vector<std::string> holders;
  for (const auto& [token, task] : it->second.tasks) {
    if (task.children.contains(child_token)) holders.push_back(token);
  }
  for (const std::string& task_token : holders) {
    // A task's report to itself (the origin is the tree root) may have
    // ended the query.
    it = active_.find(msg->query_id);
    if (it == active_.end()) return;
    ActiveQuery& aq = it->second;
    auto [task, child] = FindChildRange(aq, task_token, child_token);
    if (child == nullptr) continue;
    // Even a late report (after give-up marked the child done) counts as
    // contact: it ends the refresh. The data is not merged late — the task
    // already reported upward — but the result plane carries the actual
    // rows regardless.
    child->reported = true;
    if (!child->done) {
      child->done = true;
      // The origin only hands the root's report on; merges are tree work.
      if (!IsOriginTask(*task)) {
        metrics_->predictor_merges->Add();
        obs::SpanId span = tracer_->StartSpan(
            "predictor_merge", obs::TraceKey(msg->query_id), sim()->Now());
        tracer_->AddAttr(span, "node", static_cast<int64_t>(index()));
        tracer_->EndSpan(span, sim()->Now());
      }
      task->acc.Merge(msg->predictor);
      task->view_acc.Merge(msg->result);
    }
    FinishTaskIfDone(aq, *task);
  }
}

// ---------------------------------------------------------------------------
// Result aggregation
// ---------------------------------------------------------------------------

bool SeaweedNode::IsLikelyRootFor(const NodeId& key) const {
  return !pastry_->leafset().CloserMemberThanOwner(key).has_value();
}

NodeId SeaweedNode::LeafParentVertex(const Query& query) const {
  const int b = pastry_->config().b;
  const NodeId& qid = query.query_id;
  if (id() == qid) return qid;
  // Always the immediate parent: the tree shape must be a pure function of
  // (queryId, nodeId), never of the local ring view. Skipping vertices we
  // are currently primary for (the §3.4 shortcut) files this leaf under a
  // view-dependent vertexId — after a partition or restart a different view
  // picks a different vertex, and the old contribution still sitting in the
  // first vertex gets counted twice. The shortcut's saving is kept by
  // folding locally in SubmitLeafResult when we are primary for the parent.
  return VertexParent(qid, id(), b);
}

void SeaweedNode::SubmitLeafResult(const NodeId& query_id) {
  auto it = active_.find(query_id);
  if (it == active_.end()) return;
  ActiveQuery& aq = it->second;
  if (aq.query.sql.empty() || aq.query.ExpiredAt(sim()->Now())) return;
  if (aq.leaf_result == nullptr) return;  // not executed yet

  const NodeId vertex = LeafParentVertex(aq.query);
  aq.leaf.sends = 0;  // fresh submit round, fresh retry budget
  if (aq.leaf_result->HasSketchStates()) metrics_->sketch_results->Add();
  if (IsLikelyRootFor(vertex)) {
    // We are (or believe we are) the vertex primary: fold locally. If the
    // view is wrong, replication and re-propagation reconcile ownership once
    // views converge; the vertexId, and so the tree shape, is the same
    // either way.
    if (cancelled_.count(query_id) == 0) {
      ApplyChild(aq, aq.vertices.Emplace(vertex).first, id(), aq.leaf.version,
                 aq.leaf_result);
    }
    aq.leaf.pending_version = 0;
  } else {
    SubmitToParent(aq, vertex, id(), aq.leaf, *aq.leaf_result);
  }
}

void SeaweedNode::SubmitToParent(ActiveQuery& aq, const NodeId& parent,
                                 const NodeId& child, SubmitState& submit,
                                 const db::AggregateResult& result) {
  const NodeId& query_id = aq.query.query_id;
  auto msg = std::make_shared<SeaweedMessage>();
  msg->kind = SeaweedMessage::Kind::kResultSubmit;
  msg->query_id = query_id;
  msg->vertex_id = parent;
  msg->child_key = child;
  msg->version = submit.version;
  AttachResult(*msg, result);
  submit.pending_version = submit.version;
  ++submit.sends;
  RouteSeaweed(parent, msg, TrafficCategory::kResult);
  ChargeQueryTx(aq, msg->WireBytes());
  uint64_t gen = generation_;
  SimDuration timeout = RetryBackoff(config_.result_ack_timeout, submit.sends,
                                     config_.max_retry_backoff);
  sim()->After(timeout, [this, gen, query_id, child, version = msg->version] {
    if (gen != generation_) return;
    OnAckTimeout(query_id, child, version);
  });
}

SeaweedNode::SubmitState* SeaweedNode::FindSubmitState(ActiveQuery& aq,
                                                       const NodeId& child) {
  if (child == id()) return &aq.leaf;
  const VertexSlot slot = aq.vertices.Find(child);
  return slot == VertexTable::kNone ? nullptr : &aq.vertices[slot].submit;
}

void SeaweedNode::OnAckTimeout(const NodeId& query_id, const NodeId& child,
                               uint64_t version) {
  auto it = active_.find(query_id);
  if (it == active_.end()) return;
  ActiveQuery& aq = it->second;
  SubmitState* submit = FindSubmitState(aq, child);
  if (submit == nullptr || submit->pending_version != version) {
    return;  // acked or superseded
  }
  if (aq.query.ExpiredAt(sim()->Now())) return;
  const bool leaf = child == id();
  if (submit->sends > config_.max_result_retries) {
    // Stop burning bandwidth into a black hole (partition, dead replica
    // group); the periodic refresh or re-propagation starts a fresh round.
    (leaf ? metrics_->leaf_giveups : metrics_->vertex_giveups)->Add();
    submit->pending_version = 0;
    submit->sends = 0;
    return;
  }
  (leaf ? metrics_->leaf_retries : metrics_->vertex_retries)->Add();
  if (leaf) {
    // The same version and result, re-routed: the primary may have changed.
    SubmitToParent(aq, LeafParentVertex(aq.query), id(), aq.leaf,
                   *aq.leaf_result);
  } else {
    // Re-merged with a fresh version, so dedup at the parent keeps the
    // retries exactly-once.
    PropagateVertex(aq, aq.vertices.Find(child));
  }
}

void SeaweedNode::AttachResult(SeaweedMessage& msg,
                               const db::AggregateResult& result) {
  msg.result = result;
  if (result.HasSketchStates()) {
    metrics_->sketch_state_bytes->Add(result.SketchStateBytes());
  }
}

SeaweedNode::ResultPtr SeaweedNode::MergedVertexResult(
    const VertexState& state) const {
  if (state.children.size() == 1) return state.children.front().result;
  auto merged = std::make_shared<db::AggregateResult>();
  for (const ChildEntry& child : state.children) merged->Merge(*child.result);
  return merged;
}

void SeaweedNode::HandleResultSubmit(const NodeHandle& from,
                                     const SeaweedMessagePtr& msg) {
  const NodeId& vertex = msg->vertex_id;
  // If our view says someone else is closer to the vertexId, hand it over —
  // unless we already forwarded this exact submission moments ago. A repeat
  // within the window means ownership views disagree (leafsets mid-repair
  // after churn or a partition heal) and the submission is ping-ponging;
  // accept it here instead, and let replication + repropagation reconcile
  // ownership once views converge.
  if (!IsLikelyRootFor(vertex)) {
    auto closer = pastry_->leafset().CloserMemberThanOwner(vertex);
    if (closer.has_value()) {
      const auto key = std::make_tuple(msg->query_id, vertex, msg->child_key,
                                       msg->version);
      const SimTime now = sim()->Now();
      auto seen = recent_handovers_.find(key);
      if (seen == recent_handovers_.end() ||
          now - seen->second > config_.handover_loop_window) {
        recent_handovers_[key] = now;
        metrics_->vertex_handovers->Add();
        SendSeaweed(*closer, msg, TrafficCategory::kResult);
        return;
      }
      metrics_->handovers_suppressed->Add();
    }
  }
  ActiveQuery* entry = AdoptQuery(msg->query_id);
  if (entry == nullptr) return;
  ActiveQuery& aq = *entry;
  // Ack the submitter, a duplicate too. The ack leaves in the same event as
  // a new entry's replication, so ack-after-replicate holds.
  if (from.id != id()) {
    auto ack = std::make_shared<SeaweedMessage>();
    ack->kind = SeaweedMessage::Kind::kResultAck;
    ack->query_id = msg->query_id;
    ack->vertex_id = vertex;
    ack->child_key = msg->child_key;
    ack->version = msg->version;
    SendSeaweed(from, ack, TrafficCategory::kResult);
  }
  ApplyChild(aq, aq.vertices.Emplace(vertex).first, msg->child_key,
             msg->version,
             std::make_shared<const db::AggregateResult>(msg->result));
}

SeaweedNode::ActiveQuery* SeaweedNode::AdoptQuery(const NodeId& query_id) {
  if (cancelled_.count(query_id)) return nullptr;
  auto [it, adopted] = active_.try_emplace(query_id);
  if (adopted) {
    it->second.query.query_id = query_id;
    it->second.query.injected_at = sim()->Now();
    ArmRefresh(it->second);
  }
  return &it->second;
}

void SeaweedNode::ArmRefresh(ActiveQuery& aq) {
  aq.refresh_serial = ++refresh_serial_;
  const Query& q = aq.query;
  SimTime due = sim()->Now() + (q.continuous ? q.reexec_period
                                             : config_.result_refresh_period);
  // A known query's entry ends on this timer, one tick past its TTL.
  if (!q.sql.empty()) due = std::min(due, q.injected_at + q.ttl + 1);
  sim()->At(due, [this, gen = generation_, qid = q.query_id,
                  serial = aq.refresh_serial] {
    if (gen != generation_) return;
    RefreshQuery(qid, serial);
  });
}

void SeaweedNode::RefreshQuery(const NodeId& query_id, uint64_t serial) {
  auto it = active_.find(query_id);
  if (it == active_.end() || it->second.refresh_serial != serial) return;
  ActiveQuery& aq = it->second;
  const SimTime now = sim()->Now();
  if (aq.query.ExpiredAt(now)) {
    // A vertex-only entry's TTL is a placeholder: it stops refreshing but
    // is not ended on it.
    if (!aq.query.sql.empty()) {
      EndQuery(query_id, now + config_.query_sweep_period);
    }
    return;
  }
  ArmRefresh(aq);
  if (aq.query.continuous) {
    // Recompute the local result; the new version replaces the old one in
    // the vertex tree.
    ExecuteAndSubmit(query_id);
  } else {
    SubmitLeafResult(query_id);
  }
  // Only the current primary speaks for a vertex; a backup that took one
  // over is refreshed like any other.
  for (VertexSlot slot = 0; slot < aq.vertices.size(); ++slot) {
    if (aq.vertices[slot].children.empty() ||
        !IsLikelyRootFor(aq.vertices.id(slot))) {
      continue;
    }
    metrics_->vertex_repropagations->Add();
    MarkVertexDirty(aq, slot);
  }
}

void SeaweedNode::ApplyChild(ActiveQuery& aq, VertexSlot vertex,
                             const NodeId& child, uint64_t version,
                             ResultPtr result) {
  ChildEntry* entry =
      AdvanceChild(aq.vertices[vertex].children, child, version,
                   &aq.vertex_pool, aq.vertex_vector_bytes);
  if (entry == nullptr) {
    metrics_->duplicates_suppressed->Add();
    return;
  }
  entry->result = std::move(result);
  metrics_->vertex_updates->Add();
  OnVertexUpdated(aq, vertex, *entry);
}

void SeaweedNode::OnVertexUpdated(ActiveQuery& aq, VertexSlot vertex,
                                  const ChildEntry& changed) {
  // Inside a fold pass the replication joins the pass's per-backup
  // messages; a submit outside one replicates before it returns.
  ReplicateVertex(aq, vertex, changed);
  if (!aq.folding) FlushReplicates(aq);
  MarkVertexDirty(aq, vertex);
}

void SeaweedNode::MarkVertexDirty(ActiveQuery& aq, VertexSlot vertex) {
  VertexState& state = aq.vertices[vertex];
  if (state.dirty) return;
  state.dirty = true;
  const NodeId& qid = aq.query.query_id;
  const NodeId& vertex_id = aq.vertices.id(vertex);
  aq.fold_queue.emplace_back(
      vertex_id.CommonPrefixLength(qid, pastry_->config().b), vertex_id,
      vertex);
  std::push_heap(aq.fold_queue.begin(), aq.fold_queue.end(), std::greater<>());
  if (aq.fold_scheduled || aq.folding) return;
  aq.fold_scheduled = true;
  uint64_t gen = generation_;
  sim()->After(config_.result_deliver_debounce, [this, gen, qid] {
    if (gen != generation_) return;
    RunFoldPass(qid);
  });
}

void SeaweedNode::RunFoldPass(const NodeId& query_id) {
  auto it = active_.find(query_id);
  if (it == active_.end()) return;
  ActiveQuery& aq = it->second;
  aq.fold_scheduled = false;
  if (aq.fold_queue.empty()) return;
  metrics_->fold_passes->Add();
  aq.folding = true;
  VertexSlot root = VertexTable::kNone;
  while (!aq.fold_queue.empty()) {
    std::pop_heap(aq.fold_queue.begin(), aq.fold_queue.end(),
                  std::greater<>());
    const VertexSlot vertex = std::get<VertexSlot>(aq.fold_queue.back());
    aq.fold_queue.pop_back();
    aq.vertices[vertex].dirty = false;
    metrics_->fold_vertices->Add();
    if (aq.vertices.id(vertex) == query_id) {
      // The root sorts last: nothing is left to fold into it.
      root = vertex;
      break;
    }
    PropagateVertex(aq, vertex);
  }
  aq.folding = false;
  FlushReplicates(aq);
  // Last, because delivery may run the origin's observer, which can end the
  // query and erase `aq`.
  if (root != VertexTable::kNone) PropagateVertex(aq, root);
}

void SeaweedNode::ReplicateVertex(ActiveQuery& aq, VertexSlot vertex,
                                  const ChildEntry& changed) {
  // Replicas: the m leafset members closest to the vertexId, nearest first,
  // found in one scan of the leafset. A backup that has the baseline
  // receives only the changed child entry (delta replication — full-state
  // would cost O(fan-in) per update); a backup seen for the first time gets
  // the full state, otherwise it would reconstruct a partial subtree after
  // primary failover.
  const NodeId& vertex_id = aq.vertices.id(vertex);
  VertexState& state = aq.vertices[vertex];
  const size_t m = static_cast<size_t>(config_.vertex_backups);
  auto& closest = closest_scratch_;
  closest.clear();
  auto consider = [&](const NodeHandle& member) {
    NodeId d = member.id.RingDistanceTo(vertex_id);
    if (closest.size() == m && !(d < closest.back().first)) return;
    // A small ring lists a member on both sides; keep one copy.
    for (const auto& c : closest) {
      if (c.second->id == member.id) return;
    }
    auto at = std::upper_bound(
        closest.begin(), closest.end(), d,
        [](const NodeId& dist, const auto& c) { return dist < c.first; });
    closest.insert(at, {d, &member});
    if (closest.size() > m) closest.pop_back();
  };
  if (m > 0) {
    for (const NodeHandle& member : pastry_->leafset().cw()) consider(member);
    for (const NodeHandle& member : pastry_->leafset().ccw()) consider(member);
  }
  // The scan is a pure function of the leafset, which nothing in a pass
  // changes, so every call in a pass picks the same backups in the same
  // order: the first appends the vertex to each backup's message and
  // records where, and later calls append their entries there.
  const bool first_in_pass = state.replica_slots_at == 0;
  if (first_in_pass) {
    state.replica_slots_at = static_cast<uint32_t>(aq.replica_slots.size()) + 1;
    aq.replicated.push_back(vertex);
  }
  for (size_t j = 0; j < closest.size(); ++j) {
    const NodeHandle& backup = *closest[j].second;
    auto out = std::find_if(aq.replicates.begin(), aq.replicates.end(),
                            [&backup](const PendingReplicate& p) {
                              return p.backup.id == backup.id;
                            });
    if (out == aq.replicates.end()) {
      auto msg = std::make_shared<SeaweedMessage>();
      msg->kind = SeaweedMessage::Kind::kVertexReplicate;
      msg->query_id = aq.query.query_id;
      aq.replicates.push_back({backup, std::move(msg)});
      out = aq.replicates.end() - 1;
    }
    auto& replicas = out->msg->replicas;
    if (first_in_pass) {
      aq.replica_slots.push_back(static_cast<uint32_t>(replicas.size()));
      replicas.push_back({vertex_id, {}});
    }
    const size_t at = state.replica_slots_at - 1 + j;
    SEAWEED_DCHECK(at < aq.replica_slots.size() &&
                   aq.replica_slots[at] < replicas.size() &&
                   replicas[aq.replica_slots[at]].vertex_id == vertex_id);
    auto& entries = replicas[aq.replica_slots[at]].entries;
    auto& synced = state.synced_backups;
    if (std::find(synced.begin(), synced.end(), backup.id) != synced.end()) {
      entries.push_back(changed);
      continue;
    }
    entries.insert(entries.end(), state.children.begin(),
                   state.children.end());
    const size_t capacity = synced.capacity();
    synced.push_back(&aq.vertex_pool, backup.id);
    if (synced.capacity() != capacity) {
      aq.vertex_vector_bytes += synced.capacity() * sizeof(NodeId);
    }
  }
}

void SeaweedNode::FlushReplicates(ActiveQuery& aq) {
  for (const PendingReplicate& out : aq.replicates) {
    metrics_->replicate_msgs->Add();
    metrics_->replicate_bytes->Add(out.msg->WireBytes());
    SendSeaweed(out.backup, out.msg, TrafficCategory::kResult);
  }
  aq.replicates.clear();
  aq.replica_slots.clear();
  for (VertexSlot v : aq.replicated) aq.vertices[v].replica_slots_at = 0;
  aq.replicated.clear();
}

void SeaweedNode::PropagateVertex(ActiveQuery& aq, VertexSlot vertex) {
  const NodeId& query_id = aq.query.query_id;
  const NodeId& vertex_id = aq.vertices.id(vertex);
  VertexState& state = aq.vertices[vertex];
  ResultPtr merged = MergedVertexResult(state);
  if (state.children.size() > 1 && merged->HasSketchStates()) {
    metrics_->sketch_merges->Add();
  }
  const bool root = vertex_id == query_id;
  const int b = pastry_->config().b;
  const int depth = vertex_id.CommonPrefixLength(query_id, b);
  // Always the immediate parent — see LeafParentVertex for why the tree
  // shape must not depend on the local ring view. When we are primary for
  // the parent too, the fold stays local and, inside a fold pass, joins the
  // same pass.
  const NodeId parent = root ? NodeId() : VertexParent(query_id, vertex_id, b);
  const bool local_parent = !root && IsLikelyRootFor(parent);
  obs::SpanId span = tracer_->StartSpan(
      "aggregation_round", obs::TraceKey(query_id), sim()->Now());
  tracer_->AddAttr(span, "node", static_cast<int64_t>(index()));
  tracer_->AddAttr(span, "vertex_children",
                   static_cast<int64_t>(state.children.size()));
  tracer_->AddAttr(span, "root", root ? 1 : 0);
  tracer_->AddAttr(span, "depth", static_cast<int64_t>(depth));
  tracer_->AddAttr(span, "local", local_parent && aq.folding ? 1 : 0);
  tracer_->EndSpan(span, sim()->Now());

  if (root) {
    // Root vertex: deliver the incremental result to the query origin.
    if (aq.is_origin && aq.observer.on_result) {
      DeliverResult(aq, *merged);
      return;
    }
    if (aq.query.origin.id != NodeId()) {
      auto msg = std::make_shared<SeaweedMessage>();
      msg->kind = SeaweedMessage::Kind::kResultDeliver;
      msg->query_id = query_id;
      msg->vertex_id = vertex_id;
      AttachResult(*msg, *merged);
      SendSeaweed(aq.query.origin, msg, TrafficCategory::kResult);
      ChargeQueryTx(aq, msg->WireBytes());
    }
    return;
  }

  metrics_->vertex_fn_invocations->Add();
  if (local_parent) {
    // A backup that took over this vertex and its parent holds the parent's
    // entry for it, replicated at the old primary's version, while its own
    // counter restarts at 0. Continue past that version so the fold is not
    // dropped as a replay.
    VertexSlot parent_slot = aq.vertices.Find(parent);
    const ChildEntry* entry =
        parent_slot == VertexTable::kNone
            ? nullptr
            : FindChild(aq.vertices[parent_slot].children, vertex_id);
    SubmitState& submit = state.submit;
    if (entry != nullptr) {
      submit.version = std::max(submit.version, entry->version);
    }
    const uint64_t version = ++submit.version;
    submit.pending_version = 0;
    submit.sends = 0;
    if (cancelled_.count(query_id)) return;
    if (parent_slot == VertexTable::kNone) {
      parent_slot = aq.vertices.Emplace(parent).first;
    }
    ApplyChild(aq, parent_slot, vertex_id, version, std::move(merged));
    return;
  }
  ++state.submit.version;
  SubmitToParent(aq, parent, vertex_id, state.submit, *merged);
}

SeaweedNode::VertexFootprint SeaweedNode::vertex_footprint() const {
  VertexFootprint out;
  for (const auto& [qid, aq] : active_) {
    out.vertices += aq.vertices.size();
    out.bytes += aq.vertices.ApproxBytes() + aq.vertex_vector_bytes;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------------

void SeaweedNode::OnAppMessage(const NodeHandle& from, bool routed,
                               const NodeId& key, WireMessagePtr payload) {
  (void)routed;
  (void)key;
  auto msg = WireMessageCast<SeaweedMessage>(payload);
  switch (msg->kind) {
    case SeaweedMessage::Kind::kMetadataPush: {
      metadata_.SetNow(sim()->Now());
      metadata_.Upsert(msg->metadata);
      if (msg->metadata.owner != from.id &&
          !pastry_->leafset().Contains(msg->metadata.owner)) {
        // Anti-entropy record for an owner we cannot see: leave its
        // down-state to be set by failure detection or assumed from
        // acquisition time.
        metadata_.MarkDown(msg->metadata.owner, sim()->Now());
      }
      // Soft cap: while the ring is churning, pushes from stale sender
      // views pile up faster than neighbor-add sweeps run. Once the store
      // exceeds a few replica sets' worth, sweep live-owner records so it
      // stays O(k) instead of O(churn).
      if (static_cast<int>(metadata_.size()) >
          4 * config_.metadata_replicas) {
        EvictLiveOwnerRecords();
      }
      break;
    }
    case SeaweedMessage::Kind::kBroadcast:
      HandleBroadcast(msg);
      break;
    case SeaweedMessage::Kind::kPredictorReport:
      HandlePredictorReport(msg);
      break;
    case SeaweedMessage::Kind::kResultSubmit:
      HandleResultSubmit(from, msg);
      break;
    case SeaweedMessage::Kind::kResultAck: {
      auto it = active_.find(msg->query_id);
      if (it == active_.end()) break;
      // Acked: the send's ack timer stops, and the next round starts fresh.
      SubmitState* submit = FindSubmitState(it->second, msg->child_key);
      if (submit != nullptr && submit->pending_version == msg->version) {
        submit->pending_version = 0;
        submit->sends = 0;
      }
      break;
    }
    case SeaweedMessage::Kind::kVertexReplicate: {
      ActiveQuery* aq = AdoptQuery(msg->query_id);
      if (aq == nullptr) break;
      for (const auto& replica : msg->replicas) {
        const VertexSlot slot = aq->vertices.Emplace(replica.vertex_id).first;
        auto& children = aq->vertices[slot].children;
        for (const auto& e : replica.entries) {
          if (ChildEntry* entry =
                  AdvanceChild(children, e.child, e.version,
                               &aq->vertex_pool, aq->vertex_vector_bytes)) {
            entry->result = e.result;
          }
        }
      }
      break;
    }
    case SeaweedMessage::Kind::kResultDeliver: {
      auto it = active_.find(msg->query_id);
      if (it != active_.end() && it->second.is_origin) {
        DeliverResult(it->second, msg->result);
      }
      break;
    }
    case SeaweedMessage::Kind::kQueryListRequest:
      HandleQueryListRequest(from);
      break;
    case SeaweedMessage::Kind::kQueryList:
      HandleQueryList(msg);
      break;
    case SeaweedMessage::Kind::kQueryCancel:
      HandleQueryCancel(msg);
      break;
  }
}

}  // namespace seaweed
