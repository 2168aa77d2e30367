// seaweed-cli: command-line client for seaweedd's line-JSON control port.
//
//   seaweed-cli [--host H] [--port P] submit "SELECT ..." [--ttl-s N]
//   seaweed-cli ... query "SELECT ..." [--timeout-s N] [--no-check-monotone]
//                   [--max-reconnect-s N]
//   seaweed-cli ... status <query_id>
//   seaweed-cli ... cancel <query_id>
//   seaweed-cli ... stats
//   seaweed-cli ... drop-clients
//   seaweed-cli ... shutdown
//
// `query` is the end-to-end verb the loopback harness drives: submit, then
// stream predictor/result events until the aggregate covers every
// endsystem, checking on the way that the §2.1 delay-aware contract holds —
// the predicted row total and the covered-endsystem count must both grow
// monotonically, and the covered count can never exceed the population
// (never-overcount). The canonical FINAL line is the last thing on stdout,
// so `seaweed-cli query ... | tail -1` is directly diffable against
// `seaweedd --reference`.
//
// A dropped control connection mid-stream is survivable: the client
// reconnects with bounded exponential backoff and re-issues `stream` for
// the same query id — the daemon's replay-on-subscribe makes that
// idempotent, and the monotonicity state carries across the reconnect (the
// replayed snapshot must be >= everything seen before the drop). Exit
// codes: 0 complete, 1 timeout/daemon error, 2 usage, 3 delay-aware
// contract violation (non-monotone or overcount), 4 server gone for good
// (reconnect budget exhausted, or the daemon restarted without our query).
//
// Every request carries the protocol version ("v":1); a daemon speaking a
// different version refuses it with a distinct mismatch error, reported
// here as exit 1 with an "upgrade whichever side is older" message. The
// full wire contract lives in PROTOCOL.md.
#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "net/query_service.h"
#include "obs/export.h"
#include "obs/jsonl_reader.h"

namespace {

using namespace seaweed;

[[noreturn]] void Usage(const std::string& error) {
  if (!error.empty()) std::cerr << "seaweed-cli: " << error << "\n";
  std::cerr <<
      "usage: seaweed-cli [--host 127.0.0.1] [--port 9500] COMMAND ...\n"
      "  submit SQL [--ttl-s N] [--salt S]\n"
      "                           inject a query, print its id; --salt pins\n"
      "                           the query id (and so the aggregation-tree\n"
      "                           shape) for differential testing\n"
      "  query SQL [--timeout-s N] [--no-check-monotone]\n"
      "            [--max-reconnect-s N] [--salt S]\n"
      "                           inject and stream until complete;\n"
      "                           prints the canonical FINAL line last;\n"
      "                           reconnects + resubscribes on a dropped\n"
      "                           connection (exit 4 = server gone for good,\n"
      "                           exit 3 = non-monotone or overcounting\n"
      "                           stream)\n"
      "  status QUERY_ID          one status snapshot\n"
      "  cancel QUERY_ID          cancel an active query\n"
      "  stats                    daemon counters as JSON\n"
      "  drop-clients             sever every control connection (chaos)\n"
      "  shutdown                 stop the daemon\n";
  exit(error.empty() ? 0 : 2);
}

class Client {
 public:
  Client(const std::string& host, uint16_t port) : host_(host), port_(port) {
    const char* h = host_ == "localhost" ? "127.0.0.1" : host_.c_str();
    memset(&addr_, 0, sizeof(addr_));
    addr_.sin_family = AF_INET;
    addr_.sin_port = htons(port_);
    if (inet_pton(AF_INET, h, &addr_.sin_addr) != 1) {
      Fail("bad host (IPv4 dotted quad expected): " + host_);
    }
  }
  ~Client() { Close(); }

  bool connected() const { return fd_ >= 0; }

  // Opens (or re-opens) the TCP connection; false on failure. Any buffered
  // partial line from a previous connection is discarded — the daemon's
  // protocol is line-delimited and a torn line is unusable.
  bool TryConnect() {
    Close();
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr_), sizeof(addr_)) !=
        0) {
      Close();
      return false;
    }
    if (recv_timeout_s_ > 0) SetRecvTimeout(recv_timeout_s_);
    return true;
  }

  void ConnectOrDie() {
    if (!TryConnect()) {
      Fail("cannot connect to " + host_ + ":" + std::to_string(port_));
    }
  }

  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
    buf_.clear();
  }

  // False on any connection error (the fd is closed so connected() turns
  // false); callers decide between failover and death.
  bool TrySendLine(const std::string& json) {
    if (fd_ < 0) return false;
    std::string line = json + "\n";
    size_t off = 0;
    while (off < line.size()) {
      ssize_t n = send(fd_, line.data() + off, line.size() - off,
                       MSG_NOSIGNAL);
      if (n <= 0) {
        Close();
        return false;
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }

  void SendLine(const std::string& json) {
    if (!TrySendLine(json)) Fail("send failed");
  }

  // Blocks until one full line arrives; exits on EOF/timeout.
  std::string RecvLine() {
    std::string line;
    if (TryRecvLine(&line) != RecvResult::kLine) {
      Fail("connection closed by daemon");
    }
    return line;
  }

  enum class RecvResult { kLine, kTimeout, kClosed };

  // kTimeout when the recv timeout (SetRecvTimeout) elapses with no full
  // line, so callers can poll a deadline of their own; kClosed on EOF or
  // error (the fd is closed).
  RecvResult TryRecvLine(std::string* line) {
    if (fd_ < 0) return RecvResult::kClosed;
    while (true) {
      size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return RecvResult::kLine;
      }
      char chunk[8192];
      ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return RecvResult::kTimeout;
      }
      if (n <= 0) {
        Close();
        return RecvResult::kClosed;
      }
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  obs::Json Request(const std::string& json) {
    SendLine(json);
    return ParsedLine(RecvLine());
  }

  obs::Json ParsedLine(const std::string& line) {
    auto parsed = obs::ParseJson(line);
    if (!parsed.ok()) Fail("bad response: " + line);
    return std::move(*parsed);
  }

  void SetRecvTimeout(int seconds) {
    recv_timeout_s_ = seconds;
    if (fd_ < 0) return;
    timeval tv{seconds, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

 private:
  [[noreturn]] void Fail(const std::string& msg) {
    std::cerr << "seaweed-cli: " << msg << "\n";
    exit(1);
  }

  std::string host_;
  uint16_t port_;
  sockaddr_in addr_;
  int recv_timeout_s_ = 0;
  int fd_ = -1;
  std::string buf_;
};

// Every request leads with the protocol version so a mismatched daemon can
// refuse it before interpreting anything else (see PROTOCOL.md).
std::string ReqHead(const std::string& op) {
  return "{\"v\":" + std::to_string(net::kProtocolVersion) + ",\"op\":\"" +
         op + "\"";
}

// Exits non-zero unless the response says ok:true. A protocol-version
// refusal gets its own message — "upgrade one side" is actionable in a way
// a generic daemon error is not.
const obs::Json& CheckOk(const obs::Json& resp) {
  const obs::Json* ok = resp.Find("ok");
  if (ok == nullptr || !ok->b) {
    const obs::Json* mismatch = resp.Find("mismatch");
    if (mismatch != nullptr && mismatch->b) {
      const obs::Json* sv = resp.Find("server_v");
      std::cerr << "seaweed-cli: protocol version mismatch: this client "
                   "speaks v" << net::kProtocolVersion << ", the daemon v"
                << (sv != nullptr ? std::to_string(sv->AsInt()) : "?")
                << " — upgrade whichever side is older\n";
      exit(1);
    }
    const obs::Json* err = resp.Find("error");
    std::cerr << "seaweed-cli: daemon error: "
              << (err != nullptr ? err->AsString() : "unknown") << "\n";
    exit(1);
  }
  return resp;
}

std::string SubmitJson(const std::string& sql, int ttl_s,
                       const std::string& salt) {
  std::string req = ReqHead("submit") + ",\"sql\":\"";
  obs::AppendJsonEscaped(&req, sql);
  req += '"';
  if (ttl_s > 0) req += ",\"ttl_s\":" + std::to_string(ttl_s);
  if (!salt.empty()) {
    req += ",\"salt\":\"";
    obs::AppendJsonEscaped(&req, salt);
    req += '"';
  }
  req += "}";
  return req;
}

// How long to keep the stream open for a completeness predictor after the
// final aggregate already arrived.
constexpr int kPredictorGraceS = 15;

// Reconnect backoff bounds: 250 ms doubling to a 4 s ceiling.
constexpr long kBackoffFirstMs = 250;
constexpr long kBackoffCapMs = 4000;

void SleepMs(long ms) {
  timespec ts{ms / 1000, (ms % 1000) * 1000000L};
  nanosleep(&ts, nullptr);
}

// Reconnects and re-issues `stream` for `qid`, with bounded exponential
// backoff, for up to `budget_s` seconds (and never past `deadline`).
// Returns true once resubscribed. A daemon that answers but no longer
// knows the query restarted without our state: that is "server gone for
// good", reported through `query_lost`.
bool ReconnectAndResubscribe(Client& client, const std::string& qid,
                             int budget_s, time_t deadline,
                             bool* query_lost) {
  *query_lost = false;
  const time_t give_up_base = time(nullptr) + budget_s;
  long backoff_ms = kBackoffFirstMs;
  int attempt = 0;
  while (true) {
    const time_t give_up = give_up_base < deadline ? give_up_base : deadline;
    if (time(nullptr) >= give_up) return false;
    ++attempt;
    if (client.TryConnect()) {
      std::string resp_line;
      if (client.TrySendLine(ReqHead("stream") + ",\"query_id\":\"" + qid +
                             "\"}") &&
          client.TryRecvLine(&resp_line) == Client::RecvResult::kLine) {
        const obs::Json resp = client.ParsedLine(resp_line);
        const obs::Json* ok = resp.Find("ok");
        if (ok != nullptr && ok->b) {
          std::cerr << "seaweed-cli: reconnected (attempt " << attempt
                    << ")\n";
          return true;
        }
        // The daemon is alive but our query does not exist there any more
        // (cold restart): no amount of retrying brings the state back.
        *query_lost = true;
        return false;
      }
      // Connected but the resubscribe round trip failed: treat like a
      // failed connect and back off.
    }
    SleepMs(backoff_ms);
    backoff_ms = backoff_ms * 2 < kBackoffCapMs ? backoff_ms * 2
                                                : kBackoffCapMs;
  }
}

int RunQuery(Client& client, const std::string& sql, int ttl_s, int timeout_s,
             bool check_monotone, int max_reconnect_s,
             const std::string& salt) {
  client.ConnectOrDie();
  const obs::Json resp =
      CheckOk(client.Request(SubmitJson(sql, ttl_s, salt)));
  const std::string qid = resp.Find("query_id")->AsString();
  std::cerr << "query_id=" << qid
            << " origin=" << resp.Find("origin")->AsInt() << "\n";
  CheckOk(client.Request(ReqHead("stream") + ",\"query_id\":\"" + qid +
                         "\"}"));

  // Short recv timeout so the loop can re-check its deadlines even when
  // the daemon is quiet between push events.
  client.SetRecvTimeout(2);
  time_t deadline = time(nullptr) + (timeout_s > 0 ? timeout_s : 600);

  double prev_rows = -1;
  int64_t prev_endsystems = -1;
  int predictor_events = 0;
  bool complete = false;
  std::string final_line;
  // Stream until the aggregate covers every endsystem AND the delay-aware
  // half of the protocol has shown up: at least one completeness predictor
  // (in fast profiles the predictor can trail the final result). The
  // predictor deliver is a single unacked datagram, so once the result is
  // complete we only linger a short grace window for it rather than the
  // whole deadline.
  while (time(nullptr) < deadline && !(complete && predictor_events > 0)) {
    std::string raw;
    const Client::RecvResult rr = client.TryRecvLine(&raw);
    if (rr == Client::RecvResult::kTimeout) continue;
    if (rr == Client::RecvResult::kClosed) {
      // The daemon (or its network) dropped us mid-stream. The query keeps
      // executing server-side; reconnect and resubscribe — the replayed
      // snapshot re-enters this loop through the normal event path, so the
      // monotonicity state survives the outage.
      std::cerr << "seaweed-cli: connection lost, reconnecting\n";
      bool query_lost = false;
      if (!ReconnectAndResubscribe(client, qid, max_reconnect_s, deadline,
                                   &query_lost)) {
        std::cerr << "seaweed-cli: server gone for good ("
                  << (query_lost ? "daemon no longer knows this query"
                                 : "reconnect budget exhausted")
                  << ")\n";
        return 4;
      }
      continue;
    }
    const obs::Json ev = client.ParsedLine(raw);
    const obs::Json* kind = ev.Find("event");
    if (kind == nullptr) continue;
    if (kind->AsString() == "predictor") {
      const double rows = ev.Find("total_rows")->AsDouble();
      const int64_t endsystems = ev.Find("endsystems")->AsInt();
      std::cerr << ev.Find("line")->AsString() << "\n";
      ++predictor_events;
      if (check_monotone) {
        // Allow a hair of float slack on rows: predictors merge doubles.
        if (rows < prev_rows - 1e-6 || endsystems < prev_endsystems) {
          std::cerr << "seaweed-cli: MONOTONICITY VIOLATION: rows "
                    << prev_rows << " -> " << rows << ", endsystems "
                    << prev_endsystems << " -> " << endsystems << "\n";
          return 3;
        }
        prev_rows = rows;
        prev_endsystems = endsystems;
      }
    } else if (kind->AsString() == "result") {
      const obs::Json* final_field = ev.Find("final");
      if (final_field != nullptr) final_line = final_field->AsString();
      const int64_t got = ev.Find("endsystems")->AsInt();
      const int64_t total = ev.Find("total")->AsInt();
      std::cerr << "result: endsystems=" << got << "/" << total << "\n";
      if (check_monotone && got > total) {
        // Never-overcount is the paper's hard consistency property: a
        // result claiming more endsystems than exist means some endsystem
        // was double-counted.
        std::cerr << "seaweed-cli: OVERCOUNT VIOLATION: " << got << "/"
                  << total << " endsystems\n";
        return 3;
      }
      const obs::Json* complete_field = ev.Find("complete");
      const bool was_complete = complete;
      complete = complete_field != nullptr && complete_field->b;
      if (complete && !was_complete) {
        const time_t grace = time(nullptr) + kPredictorGraceS;
        if (grace < deadline) deadline = grace;
      }
    }
  }
  if (complete) {
    if (predictor_events == 0) {
      std::cerr << "seaweed-cli: warning: no predictor event before the "
                   "deadline\n";
    }
    std::cout << final_line << std::endl;
    return 0;
  }
  std::cerr << "seaweed-cli: timed out waiting for completion\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 9500;
  std::string command;
  std::string arg;
  int ttl_s = 0;
  int timeout_s = 600;
  int max_reconnect_s = 30;
  bool check_monotone = true;
  std::string salt;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--host") host = value();
    else if (flag == "--port") port = static_cast<uint16_t>(std::stoi(value()));
    else if (flag == "--ttl-s") ttl_s = std::stoi(value());
    else if (flag == "--timeout-s") timeout_s = std::stoi(value());
    else if (flag == "--max-reconnect-s") max_reconnect_s = std::stoi(value());
    else if (flag == "--salt") salt = value();
    else if (flag == "--no-check-monotone") check_monotone = false;
    else if (flag == "--help" || flag == "-h") Usage("");
    else if (command.empty()) command = flag;
    else if (arg.empty()) arg = flag;
    else Usage("unexpected argument " + flag);
  }
  if (command.empty()) Usage("missing command");

  Client client(host, port);

  if (command == "query") {
    if (arg.empty()) Usage("query needs a SQL string");
    return RunQuery(client, arg, ttl_s, timeout_s, check_monotone,
                    max_reconnect_s, salt);
  }

  client.ConnectOrDie();

  if (command == "submit") {
    if (arg.empty()) Usage("submit needs a SQL string");
    const obs::Json resp =
        CheckOk(client.Request(SubmitJson(arg, ttl_s, salt)));
    std::cout << resp.Find("query_id")->AsString() << std::endl;
    return 0;
  }
  if (command == "status" || command == "cancel") {
    if (arg.empty()) Usage(command + " needs a query id");
    const obs::Json resp = CheckOk(client.Request(
        ReqHead(command) + ",\"query_id\":\"" + arg + "\"}"));
    if (command == "status") {
      std::cout << "endsystems=" << resp.Find("endsystems")->AsInt()
                << "/" << resp.Find("total")->AsInt() << " complete="
                << (resp.Find("complete")->b ? "true" : "false") << "\n";
      const obs::Json* final_field = resp.Find("final");
      if (final_field != nullptr) {
        std::cout << final_field->AsString() << std::endl;
      }
    }
    return 0;
  }
  if (command == "stats" || command == "shutdown" ||
      command == "drop-clients") {
    const std::string op =
        command == "drop-clients" ? "drop_clients" : command;
    client.SendLine(ReqHead(op) + "}");
    std::cout << client.RecvLine() << std::endl;
    return 0;
  }
  Usage("unknown command " + command);
}
