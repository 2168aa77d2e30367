// SeaweedNode: the per-endsystem Seaweed protocol engine (§3).
//
// One SeaweedNode is attached to each PastryNode as its application. It
// implements the three protocol planes:
//
//  1. Metadata replication — periodic pushes of the local data summary and
//     availability model to the k numerically closest neighbors, plus
//     anti-entropy on neighbor arrival and down-time bookkeeping on
//     neighbor failure (§3.2).
//  2. Query dissemination and completeness prediction — divide-and-conquer
//     namespace-range broadcast; terminal ranges are those inside the
//     handling node's "cell" (the region it is numerically closest to,
//     derived from its leafset), which is exactly where its metadata
//     replicas live; per-range predictors are aggregated back up the
//     dynamically built distribution tree with timeout-driven reissue
//     (§3.3).
//  3. Result aggregation — results flow up the vertex tree defined by the
//     function V; each interior vertex is a replica group (primary + m
//     backups) holding versioned per-child results, giving exactly-once
//     counting with incremental updates (§3.4).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <unordered_map>

#include "obs/obs.h"
#include "overlay/overlay_network.h"
#include "seaweed/data_provider.h"
#include "seaweed/metadata.h"
#include "seaweed/vertex_function.h"
#include "seaweed/wire.h"

namespace seaweed {

// A selectively-replicated view (§3.2.2): `sql` is an aggregate query each
// endsystem evaluates locally at metadata-push time; the result rides along
// with the metadata to the replica set.
struct ReplicatedView {
  std::string name;
  std::string sql;
};

struct SeaweedConfig {
  int metadata_replicas = 8;            // k of Table 1 (sim uses 8)
  int vertex_backups = 3;               // m (§4.3.1)
  SimDuration summary_push_period = static_cast<SimDuration>(17.5 * kMinute);
  SimDuration child_timeout = 10 * kSecond;  // predictor reissue window
  int max_child_retries = 4;
  // After max_child_retries the subrange is reported as uncovered, but not
  // abandoned: while the query lives, the descriptor is re-sent at this
  // cadence until the child finally reports. A crashed-and-restarted node
  // loses every in-flight query with its process, so this refresh is the
  // only way it ever learns the query again. 0 disables.
  SimDuration dissem_refresh_period = 5 * kMinute;
  SimDuration exec_delay = 500 * kMillisecond;  // local query execution time
  SimDuration result_ack_timeout = 10 * kSecond;
  // Result-plane retry bounds: unacked submits back off exponentially from
  // result_ack_timeout up to max_retry_backoff and give up (until the next
  // periodic refresh) after max_result_retries attempts. Unbounded fixed-
  // interval retries melt down under injected loss bursts; no bound at all
  // silently loses contributions.
  int max_result_retries = 8;
  SimDuration max_retry_backoff = 2 * kMinute;
  // A vertex handover of the same (query, vertex, child, version) seen twice
  // within this window means two nodes disagree about vertex ownership
  // (mid-repair leafsets); the second arrival is accepted locally instead of
  // bouncing forever.
  SimDuration handover_loop_window = 5 * kSecond;
  SimDuration result_refresh_period = 15 * kMinute;
  // Delay before a query's fold pass on this node: the first vertex update
  // arms it, and updates arriving meanwhile join the same pass. The pass
  // folds every dirty vertex, and the locally owned ancestors they feed, in
  // one step, so a result pays this once per network hop, not once per
  // vertex level.
  SimDuration result_deliver_debounce = 2 * kSecond;
  SimDuration query_sweep_period = 10 * kMinute;
  // Views included in every metadata push (empty = none).
  std::vector<ReplicatedView> views;

  // Admission control: > 0 bounds queries this node will originate
  // concurrently; injections beyond the bound are load-shed with
  // Status::Unavailable (distinguishable from execution failures).
  // 0 = unbounded.
  int max_active_queries = 0;
};

// Origin-side observation hooks, invoked on the injecting endsystem.
struct QueryObserver {
  // Aggregated completeness predictor arrived (T_e after injection).
  std::function<void(const NodeId& query_id,
                     const CompletenessPredictor& predictor)>
      on_predictor;
  // Updated incremental result arrived from the root vertex.
  std::function<void(const NodeId& query_id, const db::AggregateResult&)>
      on_result;
};

// The Seaweed protocol's counters and histograms, resolved by name once per
// registry: a cluster builds one and every node it owns records through it.
struct SeaweedMetrics {
  explicit SeaweedMetrics(obs::MetricsRegistry* reg);

  obs::Counter* queries_injected;
  obs::Counter* metadata_pushes;
  obs::Counter* metadata_rereplications;
  obs::Counter* predictor_merges;
  obs::Counter* dissem_reissues;
  obs::Counter* vertex_updates;
  obs::Counter* vertex_handovers;
  obs::Counter* vertex_repropagations;
  obs::Counter* vertex_fn_invocations;
  obs::Counter* fold_passes;
  obs::Counter* fold_vertices;
  obs::Counter* replicate_msgs;
  obs::Counter* replicate_bytes;
  obs::Counter* leaf_retries;
  obs::Counter* leaf_giveups;
  obs::Counter* vertex_retries;
  obs::Counter* vertex_giveups;
  obs::Counter* handovers_suppressed;
  obs::Counter* duplicates_suppressed;
  obs::Counter* dissem_fastpath_reissues;
  obs::Counter* dissem_refreshes;
  // ProcessRange gave up subdividing a range (its WARN), leaving the rest
  // of the range out of the task's predictor.
  obs::Counter* dissem_guard_trips;
  obs::Counter* result_reroutes;
  obs::Counter* queries_shed;
  // Approximate-aggregate traffic: leaf submissions carrying sketch
  // states, merges of two or more sketch-carrying children, and the
  // encoded sketch bytes of every result put into a message.
  obs::Counter* sketch_results;
  obs::Counter* sketch_merges;
  obs::Counter* sketch_state_bytes;
  obs::Histogram* dissem_fanout;
  obs::Histogram* predictor_latency_us;
  obs::Histogram* result_latency_us;
};

class SeaweedNode : public overlay::PastryApp {
 public:
  SeaweedNode(overlay::OverlayNetwork* overlay, overlay::PastryNode* pastry,
              DataProvider* data, const SeaweedConfig& config,
              const SeaweedMetrics* metrics);

  const NodeId& id() const { return pastry_->id(); }
  int index() const { return static_cast<int>(pastry_->address()); }

  // Injects a query from this endsystem. The observer's hooks fire as the
  // predictor and incremental results arrive. Fails on parse errors or
  // non-aggregate queries. A non-empty `id_salt` pins the queryId (and so
  // the aggregation-tree shape) — see Query::Create.
  Result<NodeId> InjectQuery(const std::string& sql, QueryObserver observer,
                             SimDuration ttl = 48 * kHour,
                             const std::string& id_salt = "");

  // Injects a continuous query: every endsystem re-executes the query each
  // `period` and the origin keeps receiving refreshed aggregates until the
  // TTL expires or the query is cancelled.
  Result<NodeId> InjectContinuousQuery(const std::string& sql,
                                       SimDuration period,
                                       QueryObserver observer,
                                       SimDuration ttl = 48 * kHour);

  // Cancels an active query (normally called on the origin). The
  // cancellation spreads epidemically through leafset gossip; every node
  // drops the query's state on notice, and a tombstone suppresses
  // re-adoption from stragglers until the original TTL passes.
  void CancelQuery(const NodeId& query_id);

  // Queries a replicated view (§3.2.2 selective replication): the answer is
  // assembled from the view values stored in the metadata plane, so it
  // arrives with dissemination latency (seconds), covers every endsystem
  // ever seen — up or down — and is stale by at most a push period.
  // The observer's on_result fires once with the assembled snapshot.
  Result<NodeId> QueryViewSnapshot(const std::string& view_name,
                                   QueryObserver observer);

  // --- PastryApp ---
  void OnAppMessage(const overlay::NodeHandle& from, bool routed,
                    const NodeId& key, WireMessagePtr payload) override;
  void OnJoined() override;
  void OnStopping() override;
  void OnNeighborFailed(const overlay::NodeHandle& neighbor) override;
  void OnNeighborAdded(const overlay::NodeHandle& neighbor) override;
  void OnAppSendFailed(const overlay::NodeHandle& dead,
                       WireMessagePtr payload) override;

  // --- Introspection (tests, benches) ---
  const AvailabilityModel& own_availability_model() const { return own_model_; }
  const MetadataStore& metadata_store() const { return metadata_; }
  size_t active_query_count() const { return active_.size(); }
  bool HasActiveQuery(const NodeId& query_id) const {
    return active_.count(query_id) > 0;
  }
  // Result-plane vertex state held as primary or backup: entries, and their
  // heap bytes (table nodes and buckets, children and backup vectors; the
  // shared results themselves are not counted).
  struct VertexFootprint {
    uint64_t vertices = 0;
    uint64_t bytes = 0;
  };
  VertexFootprint vertex_footprint() const;
  // Admission control: true when this node already originates
  // max_active_queries queries and a new injection would be shed.
  bool AtAdmissionLimit() const;

 private:
  struct ChildRange {
    IdRange range;
    overlay::NodeHandle contact;  // where we sent it (may be re-resolved)
    bool via_routing = false;     // sent by key-routing (no known contact)
    int tries = 0;
    // Dispatch epoch: each dispatch bumps it and arms a timer carrying the
    // new value; a firing timer whose epoch is stale was superseded by a
    // drop notice's earlier reissue and must not double-dispatch.
    int attempt = 0;
    bool done = false;
    // A predictor report actually arrived (done alone can also mean "gave
    // up"); ends the child's timer chain.
    bool reported = false;
  };

  // One outstanding dissemination task: a range this node must cover and
  // report a predictor for. The origin's own task covers the empty range at
  // the queryId; its one child is the full range, and its report is the
  // delivery to the query's observer.
  struct RangeTask {
    IdRange range;
    overlay::NodeHandle parent;
    CompletenessPredictor acc;
    db::AggregateResult view_acc;   // view-snapshot queries accumulate here
    std::map<std::string, ChildRange> children;
    bool finished = false;
  };

  // Results in the vertex tree are immutable and shared: a single-child
  // vertex's merged result is its child's pointer, so a chain of locally
  // folded vertices holds one copy. Copies are made only at the wire edge.
  using ResultPtr = std::shared_ptr<const db::AggregateResult>;

  // One child's latest result at a vertex; the same layout a
  // kVertexReplicate carries, so a full sync copies the vector.
  using ChildEntry = SeaweedMessage::ReplicaEntry;

  // A child's submits to its parent vertex, leaf or vertex alike: its latest
  // version, the version sent and not yet acked (0 = none), and the sends
  // the current round has made.
  struct SubmitState {
    uint64_t version = 0;
    uint64_t pending_version = 0;
    int sends = 0;
  };

  struct VertexState {
    // Sorted by child key: the merge order and the full-sync order. A
    // vertex's children differ from each other in one digit, so fan-in is
    // small, and most vertices (a leaf's private chain) have exactly one.
    std::vector<ChildEntry> children;
    // Backups known to hold this vertex's full state; others get a full
    // sync before deltas (a delta-only backup would reconstruct a partial
    // subtree after primary failover).
    std::vector<NodeId> synced_backups;
    // Our submits to our parent. The flag below fills its tail padding.
    [[no_unique_address]] SubmitState submit;
    bool dirty = false;  // queued for the query's next fold pass
  };
  using VertexTable = std::unordered_map<NodeId, VertexState, NodeIdHash>;

  // One kVertexReplicate being collected for a backup during a fold pass;
  // `index` maps a vertex to its slot in msg->replicas.
  struct PendingReplicate {
    overlay::NodeHandle backup;
    SeaweedMessagePtr msg;
    std::unordered_map<NodeId, size_t, NodeIdHash> index;
  };

  struct ActiveQuery {
    Query query;
    std::map<std::string, RangeTask> tasks;
    // Only RefreshQuery iterates this table, to mark vertices for a fold
    // pass, which pops them in (depth, id) order, so hashing cannot leak
    // into output; entries are node-based, so a held VertexState& survives
    // the insertion of its parent.
    VertexTable vertices;
    // Heap bytes of every vertex's children and backup vectors, kept as
    // they grow so the memory gauges need not walk the table.
    size_t vertex_vector_bytes = 0;
    // Fold pass state: dirty vertices as a min-heap on (common-prefix length
    // with the queryId, vertexId), so a pass folds the deepest first and
    // the root last; whether the pass timer is armed or the pass running;
    // and the replication it has collected, one message per backup.
    std::vector<std::pair<int, NodeId>> fold_queue;
    bool fold_scheduled = false;
    bool folding = false;
    std::vector<PendingReplicate> replicates;
    // Our own contribution as a leaf, and its submits to our leaf vertex.
    ResultPtr leaf_result;
    SubmitState leaf;
    bool executed = false;
    // Names the entry's one refresh timer (see ArmRefresh); a firing timer
    // with another serial was replaced, or outlived the entry it served.
    uint64_t refresh_serial = 0;
    // Origin-side state (only on the injecting endsystem).
    bool is_origin = false;
    QueryObserver observer;
    // Origin-side lifecycle spans: the query root, injection -> first
    // aggregated predictor, and injection -> first delivered result.
    obs::SpanId root_span = obs::kNoSpan;
    obs::SpanId dissem_span = obs::kNoSpan;
    obs::SpanId result_span = obs::kNoSpan;
    // Per-query egress accounting ("query.<id>.tx_bytes"), resolved lazily
    // on the first send this node makes for the query.
    obs::Counter* tx_bytes = nullptr;
  };

  Scheduler* sim() const { return overlay_->simulator(); }

  // --- Metadata plane ---
  void PushMetadataTick(uint64_t generation);
  void PushMetadataTo(const overlay::NodeHandle& to);
  // Anti-entropy and re-replication: pushes a stored record to `to`.
  void PushRecordTo(const overlay::NodeHandle& to,
                    const MetadataStore::Record& rec);
  // Drops records of owners believed up that we no longer qualify as a
  // replica for (safe any time: live owners re-push every period). Records
  // of down owners are only evicted by the periodic tick.
  void EvictLiveOwnerRecords();
  std::vector<overlay::NodeHandle> ReplicaSet() const;
  bool LikelyReplicaFor(const NodeId& owner,
                        const overlay::NodeHandle& holder) const;

  // --- Dissemination plane ---
  void HandleBroadcast(const SeaweedMessagePtr& msg);
  void ProcessRange(ActiveQuery& aq, const IdRange& range,
                    const overlay::NodeHandle& parent);
  // Terminal handling: fills `out` with this node's predictor for `range`.
  void GeneratePredictorFor(ActiveQuery& aq, const IdRange& range,
                            CompletenessPredictor* out);
  // Terminal handling for view snapshots: merges this node's own view value
  // (if in range) and the stored view values of down owners into `out`.
  void GenerateViewFor(ActiveQuery& aq, const IdRange& range,
                       db::AggregateResult* out);
  IdRange MyCell() const;
  bool CoveredByLeafset(const IdRange& range) const;
  static bool IsOriginTask(const RangeTask& t) { return t.range.IsEmpty(); }
  // Child `child_token` of task `task_token` or, if that is empty, of the
  // first task in token order that has one; nullptrs if none.
  static std::pair<RangeTask*, ChildRange*> FindChildRange(
      ActiveQuery& aq, const std::string& task_token,
      const std::string& child_token);
  // Sends the child's kBroadcast, directly or by routing, and arms its timer.
  void DispatchChild(ActiveQuery& aq, const RangeTask& task,
                     ChildRange& child);
  void ArmChildTimer(const NodeId& query_id, std::string task_token,
                     std::string child_token, int attempt, SimDuration wait);
  // A child range's one reissue step, taken when the timer of its dispatch
  // `attempt` fires, or early on a drop notice, which names no task: a
  // routed reissue, the give-up after max_child_retries, or a refresh.
  void StepChild(const NodeId& query_id, const std::string& task_token,
                 const std::string& child_token, int attempt);
  void FinishTaskIfDone(ActiveQuery& aq, RangeTask& task);
  void ReportTask(ActiveQuery& aq, RangeTask& task);
  void HandlePredictorReport(const SeaweedMessagePtr& msg);

  // --- Origination ---
  // This endsystem is up and admission control admits one more query.
  Status CheckCanOriginate();
  // Makes this node `query`'s origin and dispatches the full range toward
  // the tree root as its own task's one child.
  NodeId Originate(const Query& query, QueryObserver observer,
                   const char* kind);
  // Origin-side delivery: ends the span the arrival closes, records its
  // latency and runs the observer, which may erase `aq`. A view snapshot
  // has no predictor phase, so its result also ends dissemination.
  void DeliverResult(ActiveQuery& aq, const db::AggregateResult& result);
  void DeliverPredictor(ActiveQuery& aq,
                        const CompletenessPredictor& predictor);

  // --- Result plane ---
  void EnsureQueryActive(const Query& query);
  // The query's entry, adopted vertex-only when we never saw its broadcast.
  ActiveQuery& AdoptQuery(const NodeId& query_id);
  // Soft-state refresh (§3.4): each entry keeps one timer, due every
  // result_refresh_period (a continuous query's reexec_period); arming
  // again replaces it. A tick resubmits our leaf result (a continuous query
  // re-executes) and marks dirty every vertex we are primary for, so one
  // fold pass re-propagates them all. That repairs aggregates lost to a
  // primary failover anywhere above us within one period.
  void ArmRefresh(ActiveQuery& aq);
  void RefreshQuery(const NodeId& query_id, uint64_t serial);
  void ScheduleLocalExecution(const NodeId& query_id);
  void ExecuteAndSubmit(const NodeId& query_id);
  NodeId LeafParentVertex(const Query& query) const;
  bool IsLikelyRootFor(const NodeId& key) const;
  void SubmitLeafResult(const NodeId& query_id);
  // Sends `child`'s result at `submit.version` to vertex `parent`; the k-th
  // send of a round waits RetryBackoff(result_ack_timeout, k) for its ack.
  void SubmitToParent(ActiveQuery& aq, const NodeId& parent,
                      const NodeId& child, SubmitState& submit,
                      const db::AggregateResult& result);
  // Our leaf's submit state when `child` is our id, else vertex `child`'s.
  SubmitState* FindSubmitState(ActiveQuery& aq, const NodeId& child);
  // Unless the send was acked or superseded: gives up after
  // max_result_retries + 1 sends, else the leaf resends its version and a
  // vertex re-propagates with a fresh one.
  void OnAckTimeout(const NodeId& query_id, const NodeId& child,
                    uint64_t version);
  // Applies a child's submission that arrived in a message, handing it to
  // a closer node when this one does not own the vertex.
  void HandleResultSubmit(const overlay::NodeHandle& from,
                          const SeaweedMessagePtr& msg);
  // Stores `child`'s result in a vertex we own if `version` is newer than
  // the held one (then OnVertexUpdated), else counts a duplicate.
  void ApplyChild(ActiveQuery& aq, const NodeId& vertex_id,
                  VertexState& state, const NodeId& child, uint64_t version,
                  ResultPtr result);
  // After a child entry changed: replicates it and queues the vertex for
  // the fold pass.
  void OnVertexUpdated(ActiveQuery& aq, const NodeId& vertex_id,
                       VertexState& state, const ChildEntry& changed);
  // Queues the vertex for the query's fold pass, arming the pass timer
  // unless a pass is armed or running.
  void MarkVertexDirty(ActiveQuery& aq, const NodeId& vertex_id,
                       VertexState& state);
  // Folds the dirty vertices deepest first; a fold into a locally owned
  // parent marks it dirty in the same pass. Sends the collected replication
  // before delivering the root's result.
  void RunFoldPass(const NodeId& query_id);
  // Submits the vertex's merged result to its parent, or delivers it to
  // the origin from the root. Root delivery may run the origin's observer,
  // which can erase `aq`.
  void PropagateVertex(ActiveQuery& aq, const NodeId& vertex_id,
                       VertexState& state);
  // Adds the vertex's changed child (or, for a backup not yet synced, its
  // full state) to each backup's pending kVertexReplicate.
  void ReplicateVertex(ActiveQuery& aq, const NodeId& vertex_id,
                       VertexState& state, const ChildEntry& changed);
  void FlushReplicates(ActiveQuery& aq);
  // Copies `result` into an outgoing message, charging its sketch bytes.
  void AttachResult(SeaweedMessage& msg, const db::AggregateResult& result);
  ResultPtr MergedVertexResult(const VertexState& state) const;

  // --- Query lifecycle ---
  void HandleQueryListRequest(const overlay::NodeHandle& from);
  void HandleQueryList(const SeaweedMessagePtr& msg);
  void HandleQueryCancel(const SeaweedMessagePtr& msg);
  void SweepExpiredTick(uint64_t generation);

  void SendSeaweed(const overlay::NodeHandle& to, const SeaweedMessagePtr& msg,
                   TrafficCategory category);
  void RouteSeaweed(const NodeId& key, const SeaweedMessagePtr& msg,
                    TrafficCategory category);
  // Charges `bytes` of egress to the query's "query.<id>.tx_bytes" counter.
  void ChargeQueryTx(ActiveQuery& aq, uint32_t bytes);

  // Opens the origin-side lifecycle spans and bumps injection metrics.
  void StartQueryTrace(ActiveQuery& aq, const char* kind);

  overlay::OverlayNetwork* overlay_;
  overlay::PastryNode* pastry_;
  DataProvider* data_;
  SeaweedConfig config_;

  // Shared by every node recording into the same registry.
  const SeaweedMetrics* metrics_;
  obs::TraceSink* tracer_;

  // Compiled plans keyed by query id: a long-running query re-executes
  // against local data every time the endsystem's contribution changes, and
  // re-binding the predicate each time would dominate small tables. Views
  // are NOT cached (their SQL re-parses with a fresh NOW() each push).
  db::PlanCache plan_cache_;

  // Persistent across down periods (§3.2.1: persisted at the endsystem).
  AvailabilityModel own_model_;
  SimTime went_down_at_ = -1;
  uint64_t metadata_version_ = 0;

  // Volatile (lost on failure, rebuilt on rejoin).
  MetadataStore metadata_;
  std::map<NodeId, ActiveQuery> active_;
  // Cancelled-query tombstones: query_id -> expiry of the suppression.
  std::map<NodeId, SimTime> cancelled_;
  // (query, vertex, child, version) -> time we last forwarded that exact
  // submission to a "closer" node. Breaks handover ping-pong when two nodes'
  // leafsets disagree about vertex ownership mid-repair.
  std::map<std::tuple<NodeId, NodeId, NodeId, uint64_t>, SimTime>
      recent_handovers_;
  // The last refresh serial handed out (see ActiveQuery::refresh_serial).
  uint64_t refresh_serial_ = 0;
  // ReplicateVertex's scratch: the closest backups, as (distance, member).
  std::vector<std::pair<NodeId, const overlay::NodeHandle*>> closest_scratch_;
  uint64_t generation_ = 0;
  Rng rng_;
};

}  // namespace seaweed
