#include "net/query_service.h"

#include <netinet/in.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "db/sql_parser.h"
#include "obs/export.h"
#include "obs/jsonl_reader.h"

namespace seaweed::net {

namespace {

// A client line longer than this without a newline is hostile or broken.
constexpr size_t kMaxLineBytes = 1 << 20;

std::string JsonDouble(double d) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", d);
  // JSON has no inf/nan literals; clamp to null-ish zero (predictors and
  // aggregates never legitimately produce them).
  for (const char* bad : {"inf", "nan", "-inf", "-nan"}) {
    if (strcmp(buf, bad) == 0) return "0";
  }
  return std::string(buf);
}

// Every response line leads with this so clients can gate on the protocol
// version before trusting any other field.
std::string RespHead() {
  return "{\"v\":" + std::to_string(kProtocolVersion) + ",";
}

}  // namespace

QueryService::QueryService(LiveCluster* cluster, uint16_t port)
    : cluster_(cluster), loop_(&cluster->loop()) {
  obs::MetricsRegistry* reg = &cluster_->obs().metrics;
  requests_ = reg->GetCounter("server.requests");
  bad_requests_ = reg->GetCounter("server.bad_requests");
  protocol_mismatches_ = reg->GetCounter("server.protocol_mismatches");
  queries_submitted_ = reg->GetCounter("server.queries_submitted");
  queries_shed_ = reg->GetCounter("server.queries_shed");
  events_pushed_ = reg->GetCounter("server.events_pushed");
  clients_disconnected_ = reg->GetCounter("server.clients_disconnected");
  clients_connected_ = reg->GetGauge("server.clients_connected");
  queries_inflight_ = reg->GetGauge("server.queries_inflight");

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  SEAWEED_CHECK_MSG(listen_fd_ >= 0, "cannot create control socket");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  SEAWEED_CHECK_MSG(
      bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
      "cannot bind control port " + std::to_string(port));
  SEAWEED_CHECK(listen(listen_fd_, 16) == 0);
  loop_->WatchFd(listen_fd_, /*want_write=*/false,
                 [this](uint32_t) { OnAcceptable(); });
}

QueryService::~QueryService() {
  for (auto& [fd, conn] : conns_) {
    loop_->UnwatchFd(fd);
    close(fd);
  }
  if (listen_fd_ >= 0) {
    loop_->UnwatchFd(listen_fd_);
    close(listen_fd_);
  }
}

uint64_t QueryService::requests() const { return requests_->value(); }
uint64_t QueryService::bad_requests() const { return bad_requests_->value(); }

void QueryService::OnAcceptable() {
  while (true) {
    int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;
    Conn conn;
    conn.fd = fd;
    conns_.emplace(fd, std::move(conn));
    clients_connected_->Set(static_cast<int64_t>(conns_.size()));
    loop_->WatchFd(fd, /*want_write=*/false,
                   [this, fd](uint32_t ev) { OnConnEvent(fd, ev); });
  }
}

void QueryService::OnConnEvent(int fd, uint32_t events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = it->second;

  if (events & POLLIN) {
    char buf[16384];
    while (true) {
      ssize_t n = recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn.inbuf.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) {  // peer closed
        CloseConn(fd);
        return;
      }
      break;  // EAGAIN: drained
    }
    size_t nl;
    while ((nl = conn.inbuf.find('\n')) != std::string::npos) {
      std::string line = conn.inbuf.substr(0, nl);
      conn.inbuf.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) HandleLine(conn, line);
      if (conns_.find(fd) == conns_.end()) return;  // handler closed us
    }
    if (conn.inbuf.size() > kMaxLineBytes) {
      bad_requests_->Add();
      CloseConn(fd);
      return;
    }
  }
  if (events & (POLLOUT)) FlushConn(conn);
  if (events & (POLLERR | POLLHUP | POLLNVAL)) CloseConn(fd);
}

void QueryService::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  // Subscriptions die with the connection: a client that vanished
  // mid-stream must never hold a stale fd in any subscriber set.
  for (auto& [key, q] : queries_) q.subscribers.erase(fd);
  loop_->UnwatchFd(fd);
  close(fd);
  conns_.erase(it);
  clients_disconnected_->Add();
  clients_connected_->Set(static_cast<int64_t>(conns_.size()));
}

void QueryService::SendLine(Conn& conn, const std::string& json_line) {
  conn.outbuf += json_line;
  conn.outbuf += '\n';
  FlushConn(conn);
}

void QueryService::FlushConn(Conn& conn) {
  while (!conn.outbuf.empty()) {
    ssize_t n = send(conn.fd, conn.outbuf.data(), conn.outbuf.size(),
                     MSG_NOSIGNAL);
    if (n <= 0) break;  // EAGAIN or error: wait for POLLOUT
    conn.outbuf.erase(0, static_cast<size_t>(n));
  }
  const bool want_write = !conn.outbuf.empty();
  if (want_write != conn.want_write) {
    conn.want_write = want_write;
    const int fd = conn.fd;
    loop_->WatchFd(fd, want_write,
                   [this, fd](uint32_t ev) { OnConnEvent(fd, ev); });
  }
}

void QueryService::ReplyError(Conn& conn, const std::string& error) {
  bad_requests_->Add();
  std::string line = RespHead() + "\"ok\":false,\"error\":\"";
  obs::AppendJsonEscaped(&line, error);
  SendLine(conn, line + "\"}");
}

void QueryService::HandleLine(Conn& conn, const std::string& line) {
  requests_->Add();
  auto parsed = obs::ParseJson(line);
  if (!parsed.ok()) {
    ReplyError(conn, "bad JSON: " + parsed.status().message());
    return;
  }
  const obs::Json& root = *parsed;

  // Version gate before anything else: a client speaking a different
  // protocol revision must learn that first, through a shape it can always
  // recognise ("mismatch":true plus the server's version). A request
  // without "v" predates versioning and is accepted as v1.
  if (const obs::Json* v = root.Find("v")) {
    const int64_t client_v = v->AsInt();
    if (client_v != kProtocolVersion) {
      protocol_mismatches_->Add();
      bad_requests_->Add();
      SendLine(conn,
               RespHead() + "\"ok\":false,\"mismatch\":true,\"server_v\":" +
                   std::to_string(kProtocolVersion) +
                   ",\"error\":\"protocol version mismatch: client v=" +
                   std::to_string(client_v) + ", server v=" +
                   std::to_string(kProtocolVersion) + "\"}");
      return;
    }
  }

  const obs::Json* op = root.Find("op");
  if (op == nullptr) {
    ReplyError(conn, "missing \"op\"");
    return;
  }
  const std::string op_name = op->AsString();

  if (op_name == "submit") {
    const obs::Json* sql = root.Find("sql");
    if (sql == nullptr) {
      ReplyError(conn, "submit: missing \"sql\"");
      return;
    }
    SimDuration ttl = 48 * kHour;
    if (const obs::Json* t = root.Find("ttl_s")) {
      ttl = static_cast<SimDuration>(t->AsInt()) * kSecond;
    }
    std::string salt;
    if (const obs::Json* s = root.Find("salt")) salt = s->AsString();
    HandleSubmit(conn, sql->AsString(), ttl, salt);
    return;
  }

  if (op_name == "stats") {
    SendLine(conn, StatsJson());
    return;
  }

  if (op_name == "drop_clients") {
    // Chaos/maintenance: sever every control connection, the requester
    // included, after the reply had a beat to flush. Clients with an
    // active stream exercise reconnect-with-resubscribe; the daemon's own
    // query state is untouched.
    SendLine(conn, RespHead() + "\"ok\":true,\"dropped\":" +
                       std::to_string(conns_.size()) + "}");
    loop_->After(50 * kMillisecond, [this] {
      std::vector<int> fds;
      fds.reserve(conns_.size());
      for (const auto& [fd, c] : conns_) fds.push_back(fd);
      for (int fd : fds) CloseConn(fd);
    });
    return;
  }

  if (op_name == "shutdown") {
    SendLine(conn, RespHead() + "\"ok\":true}");
    // Leave a beat for the reply to flush before the loop exits.
    loop_->After(50 * kMillisecond, [this] { loop_->Stop(); });
    return;
  }

  // The remaining ops address an existing query.
  const obs::Json* qid = root.Find("query_id");
  if (qid == nullptr) {
    ReplyError(conn, op_name + ": missing \"query_id\"");
    return;
  }
  QueryState* q = FindQuery(qid->AsString());
  if (q == nullptr) {
    ReplyError(conn, op_name + ": unknown query_id");
    return;
  }

  if (op_name == "status") {
    SendLine(conn, StatusJson(*q));
  } else if (op_name == "cancel") {
    if (!q->cancelled) {
      q->cancelled = true;
      cluster_->CancelQuery(q->origin, q->id);
      queries_inflight_->Add(-1);
    }
    SendLine(conn, RespHead() + "\"ok\":true}");
  } else if (op_name == "stream") {
    q->subscribers.insert(conn.fd);
    SendLine(conn, RespHead() + "\"ok\":true}");
    // Replay the latest state so a late subscriber does not hang waiting
    // for an event that already fired. The predictor deliver in particular
    // can beat the subscribe request when the whole tree lives on fast
    // loopback links.
    if (!q->predictor_line.empty()) {
      SendLine(conn, PredictorJson(*q));
    }
    if (q->have_result) {
      SendLine(conn, StatusJson(*q));
    }
  } else {
    ReplyError(conn, "unknown op \"" + op_name + "\"");
  }
}

void QueryService::HandleSubmit(Conn& conn, const std::string& sql,
                                SimDuration ttl, const std::string& salt) {
  std::optional<int> origin = cluster_->LowestJoinedLocal();
  if (!origin.has_value()) {
    ReplyError(conn, "no local endsystem has joined the overlay yet");
    return;
  }
  auto parsed_sql = db::ParseSelect(
      sql, {.now_unix_seconds = loop_->Now() / kSecond});
  if (!parsed_sql.ok()) {
    ReplyError(conn, "parse: " + parsed_sql.status().message());
    return;
  }

  QueryObserver observer;
  // The key is resolved after InjectQuery returns the id; observers fire
  // strictly later (delivery is always an After() hop), so capturing the
  // slot via a shared string is race-free on the single loop thread.
  auto key = std::make_shared<std::string>();
  observer.on_predictor = [this, key](const NodeId&,
                                      const CompletenessPredictor& p) {
    if (!key->empty()) OnPredictor(*key, p);
  };
  observer.on_result = [this, key](const NodeId&,
                                   const db::AggregateResult& r) {
    if (!key->empty()) OnResult(*key, r);
  };

  auto id = cluster_->InjectQuery(*origin, sql, std::move(observer), ttl,
                                  salt);
  if (!id.ok()) {
    // Admission-control shedding is back-pressure, not a failure: the reply
    // carries "shed":true so clients (and the load driver) can distinguish
    // "try again later" from a malformed or broken request, and it does not
    // count against server.bad_requests.
    if (id.status().code() == StatusCode::kUnavailable &&
        id.status().message().rfind("load shed", 0) == 0) {
      queries_shed_->Add();
      std::string line =
          RespHead() + "\"ok\":false,\"shed\":true,\"error\":\"";
      obs::AppendJsonEscaped(&line, id.status().message());
      SendLine(conn, line + "\"}");
      return;
    }
    ReplyError(conn, "inject: " + id.status().message());
    return;
  }
  *key = id->ToHex();

  QueryState q;
  q.id = *id;
  q.origin = *origin;
  q.sql = sql;
  q.parsed = std::move(*parsed_sql);
  queries_.emplace(*key, std::move(q));
  queries_submitted_->Add();
  queries_inflight_->Add(1);

  SendLine(conn, RespHead() + "\"ok\":true,\"query_id\":\"" + *key +
                     "\",\"origin\":" + std::to_string(*origin) + "}");
}

QueryService::QueryState* QueryService::FindQuery(const std::string& hex_id) {
  auto it = queries_.find(hex_id);
  return it == queries_.end() ? nullptr : &it->second;
}

void QueryService::OnPredictor(const std::string& key,
                               const CompletenessPredictor& predictor) {
  QueryState* q = FindQuery(key);
  if (q == nullptr) return;
  q->predictor_rows = predictor.TotalRows();
  q->predictor_endsystems = predictor.endsystems();
  q->predictor_complete_now = predictor.CompletenessAt(0);
  q->predictor_line = FormatPredictorLine(predictor);
  Broadcast(*q, PredictorJson(*q));
}

std::string QueryService::PredictorJson(const QueryState& q) const {
  std::string out =
      RespHead() + "\"event\":\"predictor\",\"query_id\":\"" + q.id.ToHex() +
      "\",\"total_rows\":" + JsonDouble(q.predictor_rows) +
      ",\"endsystems\":" + std::to_string(q.predictor_endsystems) +
      ",\"complete_now\":" + JsonDouble(q.predictor_complete_now) +
      ",\"line\":\"";
  obs::AppendJsonEscaped(&out, q.predictor_line);
  return out + "\"}";
}

void QueryService::OnResult(const std::string& key,
                            const db::AggregateResult& result) {
  QueryState* q = FindQuery(key);
  if (q == nullptr) return;
  q->rows = result.rows_matched;
  q->endsystems = result.endsystems;
  q->have_result = true;
  q->final_line = FormatAggregateLine(q->parsed, result);
  const bool was_complete = q->complete;
  q->complete =
      result.endsystems == static_cast<int64_t>(cluster_->num_endsystems());
  if (q->complete && !was_complete && !q->cancelled) {
    queries_inflight_->Add(-1);
  }
  Broadcast(*q, StatusJson(*q));
}

void QueryService::Broadcast(QueryState& q, const std::string& event_line) {
  for (auto it = q.subscribers.begin(); it != q.subscribers.end();) {
    auto conn = conns_.find(*it);
    if (conn == conns_.end()) {
      it = q.subscribers.erase(it);
      continue;
    }
    events_pushed_->Add();
    SendLine(conn->second, event_line);
    ++it;
  }
}

std::string QueryService::StatusJson(const QueryState& q) const {
  std::string out = RespHead() + "\"event\":\"result\",\"ok\":true,\"query_id\":\"" +
                    q.id.ToHex() + "\",\"rows\":" + std::to_string(q.rows) +
                    ",\"endsystems\":" + std::to_string(q.endsystems) +
                    ",\"total\":" +
                    std::to_string(cluster_->num_endsystems()) +
                    ",\"predictor_rows\":" + JsonDouble(q.predictor_rows) +
                    ",\"complete\":" + (q.complete ? "true" : "false") +
                    ",\"cancelled\":" + (q.cancelled ? "true" : "false");
  if (q.have_result) {
    out += ",\"final\":\"";
    obs::AppendJsonEscaped(&out, q.final_line);
    out += "\"";
  }
  out += "}";
  return out;
}

std::string QueryService::StatsJson() const {
  std::string out = RespHead() + "\"ok\":true,\"shard\":" +
                    std::to_string(cluster_->map().self_shard) +
                    ",\"endsystems\":" +
                    std::to_string(cluster_->num_endsystems()) +
                    ",\"local\":" +
                    std::to_string(cluster_->map().LocalEndsystems().size()) +
                    ",\"joined\":" +
                    std::to_string(cluster_->CountJoinedLocal()) +
                    ",\"queries\":" + std::to_string(queries_.size());
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : cluster_->obs().metrics.counters()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    obs::AppendJsonEscaped(&out, name);
    out += "\":" + std::to_string(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : cluster_->obs().metrics.gauges()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    obs::AppendJsonEscaped(&out, name);
    out += "\":" + std::to_string(g->value());
  }
  out += "}}";
  return out;
}

}  // namespace seaweed::net
