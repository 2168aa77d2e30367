// QueryService: seaweedd's line-delimited JSON control protocol over TCP.
//
// One request per line, one JSON object per response line. The full
// protocol (every op, field, event, and client exit code) is specified in
// PROTOCOL.md at the repository root; the summary below is a quick map.
//
// Versioning: requests and responses carry "v":<int> (kProtocolVersion,
// currently 1). A request whose "v" differs from the server's is refused
// with a distinct error ({"ok":false,"mismatch":true,"server_v":N,...},
// counted in server.protocol_mismatches) so a client can tell "I am too
// old/new" apart from "my request was malformed". A request with no "v"
// is accepted as v1 — pre-versioning clients keep working.
//
//   {"op":"submit","sql":"SELECT ...","ttl_s":3600,"salt":"...","v":1}
//       -> {"ok":true,"query_id":"<hex>","origin":<endsystem>}
//       -> {"ok":false,"shed":true,"error":"load shed: ..."} when the
//          admission limit (--max-active-queries) is reached: back-pressure,
//          not a failure — retry later; counted in server.queries_shed
//   {"op":"status","query_id":"<hex>"}
//       -> {"ok":true,"query_id":...,"endsystems":n,"total":N,
//           "rows":r,"complete":bool,"predictor_rows":x,"cancelled":bool}
//   {"op":"cancel","query_id":"<hex>"}       -> {"ok":true}
//   {"op":"stream","query_id":"<hex>"}       -> {"ok":true} then events:
//       {"event":"predictor","query_id":...,"total_rows":x,"endsystems":n,
//        "complete_now":f,"line":"PREDICTOR ..."}
//       {"event":"result","query_id":...,"rows":r,"endsystems":n,"total":N,
//        "complete":bool,"final":"FINAL ..."}
//   {"op":"stats"}
//       -> {"ok":true,"shard":p,"endsystems":N,"local":m,"joined":k,
//           "queries":q,"counters":{...every obs counter...}}
//   {"op":"drop_clients"}                    -> {"ok":true,"dropped":n},
//       then every control connection (the requester included) is severed —
//       a chaos/maintenance op that exercises client
//       reconnect-with-resubscribe; drops count in
//       server.clients_disconnected like any other disconnect
//   {"op":"shutdown"}                        -> {"ok":true}, loop stops
//
// Every parse failure or unknown op is answered with
// {"ok":false,"error":"..."} and counted in server.bad_requests; malformed
// client input can never take the daemon down. The "final" field carries
// the canonical FormatAggregateLine text — the exact string the loopback
// differential compares against seaweedd --reference.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "net/live_cluster.h"
#include "net/result_format.h"

namespace seaweed::net {

// Version of the line-JSON control protocol spoken by QueryService and
// seaweed-cli. Bump when a field or op changes incompatibly; PROTOCOL.md
// documents what each version means.
inline constexpr int kProtocolVersion = 1;

class QueryService {
 public:
  // Listens on `port` (all interfaces) using `cluster`'s event loop.
  QueryService(LiveCluster* cluster, uint16_t port);
  ~QueryService();

  int listen_fd() const { return listen_fd_; }
  uint64_t requests() const;
  uint64_t bad_requests() const;

 private:
  struct Conn {
    int fd = -1;
    std::string inbuf;
    std::string outbuf;
    bool want_write = false;
  };

  struct QueryState {
    NodeId id;
    int origin = 0;
    std::string sql;
    db::SelectQuery parsed;
    // Latest observations.
    double predictor_rows = 0;
    int64_t predictor_endsystems = 0;
    double predictor_complete_now = 0;
    std::string predictor_line;
    int64_t rows = 0;
    int64_t endsystems = 0;
    bool have_result = false;
    bool complete = false;
    bool cancelled = false;
    std::string final_line;
    std::set<int> subscribers;  // conn fds streaming this query
  };

  void OnAcceptable();
  void OnConnEvent(int fd, uint32_t events);
  void CloseConn(int fd);
  void SendLine(Conn& conn, const std::string& json_line);
  void FlushConn(Conn& conn);

  void HandleLine(Conn& conn, const std::string& line);
  void HandleSubmit(Conn& conn, const std::string& sql, SimDuration ttl,
                    const std::string& salt);
  void ReplyError(Conn& conn, const std::string& error);

  QueryState* FindQuery(const std::string& hex_id);
  void OnPredictor(const std::string& key,
                   const CompletenessPredictor& predictor);
  void OnResult(const std::string& key, const db::AggregateResult& result);
  void Broadcast(QueryState& q, const std::string& event_line);

  std::string StatusJson(const QueryState& q) const;
  std::string PredictorJson(const QueryState& q) const;
  std::string StatsJson() const;

  LiveCluster* cluster_;
  EventLoop* loop_;
  int listen_fd_ = -1;
  std::map<int, Conn> conns_;
  std::map<std::string, QueryState> queries_;  // by hex query id

  // server.* observability counters/gauges.
  obs::Counter* requests_ = nullptr;
  obs::Counter* bad_requests_ = nullptr;
  obs::Counter* protocol_mismatches_ = nullptr;
  obs::Counter* queries_submitted_ = nullptr;
  obs::Counter* queries_shed_ = nullptr;
  obs::Counter* events_pushed_ = nullptr;
  obs::Counter* clients_disconnected_ = nullptr;
  obs::Gauge* clients_connected_ = nullptr;
  obs::Gauge* queries_inflight_ = nullptr;
};

}  // namespace seaweed::net
