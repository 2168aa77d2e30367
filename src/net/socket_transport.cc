#include "net/socket_transport.h"

#include <arpa/inet.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/logging.h"
#include "common/serialize.h"

namespace seaweed::net {

namespace {

sockaddr_in ResolvePeer(const PeerAddress& peer) {
  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(peer.udp_port);
  const char* host =
      peer.host == "localhost" ? "127.0.0.1" : peer.host.c_str();
  SEAWEED_CHECK_MSG(inet_pton(AF_INET, host, &addr.sin_addr) == 1,
                    "cannot resolve peer host (IPv4 dotted quad expected): " +
                        peer.host);
  return addr;
}

}  // namespace

SocketTransport::SocketTransport(EventLoop* loop, const ShardMap& map,
                                 const Topology* topology,
                                 BandwidthMeter* meter,
                                 obs::Observability* obs)
    : loop_(loop),
      map_(map),
      topology_(topology),
      meter_(meter),
      obs_(obs != nullptr ? obs : obs::FallbackObservability()) {
  SEAWEED_CHECK(map_.Validate().ok());
  up_.assign(static_cast<size_t>(map_.num_endsystems), 0);

  peer_addr_.reserve(map_.peers.size());
  for (const PeerAddress& p : map_.peers) peer_addr_.push_back(ResolvePeer(p));

  obs::MetricsRegistry* reg = &obs_->metrics;
  datagrams_tx_ = reg->GetCounter("net.datagrams_tx");
  datagrams_rx_ = reg->GetCounter("net.datagrams_rx");
  bytes_tx_ = reg->GetCounter("net.bytes_tx");
  bytes_rx_ = reg->GetCounter("net.bytes_rx");
  decode_rejects_ = reg->GetCounter("net.decode_rejects");
  oversize_drops_ = reg->GetCounter("net.oversize_drops");
  send_errors_ = reg->GetCounter("net.send_errors");
  tx_fragmented_ = reg->GetCounter("net.tx_fragmented");
  frags_rx_ = reg->GetCounter("net.frags_rx");
  reassembled_ = reg->GetCounter("net.reassembled");
  reassembly_drops_ = reg->GetCounter("net.reassembly_drops");

  fd_ = socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  SEAWEED_CHECK_MSG(fd_ >= 0, "cannot create UDP socket");
  // One socket carries traffic for every local endsystem, so bursts (join
  // storms, result fan-in) overrun the default receive buffer and the
  // kernel drops datagrams invisibly — no counter on either side moves.
  // Ask for a few megabytes; the kernel clamps to rmem_max, which is fine.
  const int kSocketBufBytes = 8 * 1024 * 1024;
  setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &kSocketBufBytes,
             sizeof(kSocketBufBytes));
  setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &kSocketBufBytes,
             sizeof(kSocketBufBytes));
  const sockaddr_in& self = peer_addr_[static_cast<size_t>(map_.self_shard)];
  SEAWEED_CHECK_MSG(
      bind(fd_, reinterpret_cast<const sockaddr*>(&self), sizeof(self)) == 0,
      "cannot bind UDP port " +
          std::to_string(map_.peers[static_cast<size_t>(map_.self_shard)]
                             .udp_port));
  loop_->WatchFd(fd_, /*want_write=*/false,
                 [this](uint32_t) { OnReadable(); });
}

SocketTransport::~SocketTransport() {
  if (fd_ >= 0) {
    loop_->UnwatchFd(fd_);
    close(fd_);
  }
}

void SocketTransport::SetDeliveryHandler(EndsystemIndex e,
                                         DeliveryHandler handler) {
  if (handlers_.size() <= e) handlers_.resize(e + 1);
  handlers_[e] = std::move(handler);
}

void SocketTransport::SetUniformDeliveryHandler(
    UniformDeliveryHandler handler) {
  uniform_handler_ = std::move(handler);
}

void SocketTransport::SetDropHandler(DropHandler handler,
                                     SimDuration drop_notice_delay) {
  drop_handler_ = std::move(handler);
  drop_notice_delay_ = drop_notice_delay;
}

void SocketTransport::SetUp(EndsystemIndex e, bool up) {
  // Remote up/down writes come from CreateNodes initializing everyone down;
  // ownership of that state lives with the hosting process.
  if (!IsLocal(e)) return;
  up_[e] = up ? 1 : 0;
}

bool SocketTransport::IsUp(EndsystemIndex e) const {
  if (e >= up_.size()) return false;
  // No oracle for remote endsystems: optimistically reachable, and let the
  // overlay's heartbeat timeouts decide otherwise.
  if (!IsLocal(e)) return true;
  return up_[e] != 0;
}

bool SocketTransport::Send(EndsystemIndex from, EndsystemIndex to,
                           TrafficCategory cat, WireMessagePtr msg) {
  SEAWEED_CHECK_MSG(msg != nullptr, "SocketTransport::Send requires a message");
  if (!IsUp(from)) return false;
  const uint32_t charged = msg->WireBytes() + kMessageHeaderBytes;
  meter_->RecordTx(from, cat, loop_->Now(), charged);
  ++messages_sent_;

  Writer w;
  w.PutU32(kFrameMagic);
  w.PutU32(from);
  w.PutU32(to);
  w.PutU8(static_cast<uint8_t>(cat));
  msg->Encode(w);
  if (w.size() - kFrameHeaderBytes > kMaxMessageBytes) {
    oversize_drops_->Add();
    ++messages_lost_;
    return true;
  }

  if (IsLocal(to)) {
    // Same codec round trip as the wire, minus the socket: decode a fresh
    // message so the receiver never shares mutable state with the sender.
    Reader r(w.data() + kFrameHeaderBytes,
             w.size() - kFrameHeaderBytes);
    auto decoded = DecodeWireMessage(r);
    SEAWEED_CHECK_MSG(decoded.ok(),
                      "local loopback decode failed: " +
                          decoded.status().message());
    // Asynchronous like every real delivery; up/down is re-checked at
    // delivery time, as the in-memory Network does.
    WireMessagePtr delivered = std::move(*decoded);
    loop_->After(0, [this, from, to, cat, delivered]() {
      DeliverLocal(from, to, cat, delivered);
    });
    return true;
  }

  if (w.size() <= kMaxDatagramBytes) {
    if (!SendDatagram(w, to)) ++messages_lost_;
    return true;
  }

  // Too big for one datagram: split the encoded message (everything after
  // the frame header) into kFragMagic fragments the receiver reassembles.
  // Any lost fragment loses the whole message, exactly like a lost whole
  // frame; retries remain the protocol's job.
  const uint8_t* payload = w.data() + kFrameHeaderBytes;
  const size_t payload_len = w.size() - kFrameHeaderBytes;
  const size_t chunk_max = kMaxDatagramBytes - kFragHeaderBytes;
  const size_t count = (payload_len + chunk_max - 1) / chunk_max;
  const uint32_t msg_id = next_frag_msg_id_++;
  tx_fragmented_->Add();
  bool all_sent = true;
  for (size_t i = 0; i < count; ++i) {
    const size_t off = i * chunk_max;
    const size_t chunk = std::min(chunk_max, payload_len - off);
    Writer fw;
    fw.PutU32(kFragMagic);
    fw.PutU32(from);
    fw.PutU32(to);
    fw.PutU8(static_cast<uint8_t>(cat));
    fw.PutU32(msg_id);
    fw.PutU16(static_cast<uint16_t>(i));
    fw.PutU16(static_cast<uint16_t>(count));
    fw.PutBytes(payload + off, chunk);
    all_sent = SendDatagram(fw, to) && all_sent;
  }
  if (!all_sent) ++messages_lost_;
  return true;
}

bool SocketTransport::SendDatagram(const Writer& w, EndsystemIndex to) {
  const sockaddr_in& addr = peer_addr_[static_cast<size_t>(map_.ShardOf(to))];
  ssize_t n = sendto(fd_, w.data(), w.size(), 0,
                     reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (n != static_cast<ssize_t>(w.size())) {
    // Full socket buffer or transient kernel refusal: the datagram is lost
    // exactly as a congested wire would lose it.
    send_errors_->Add();
    return false;
  }
  datagrams_tx_->Add();
  bytes_tx_->Add(static_cast<uint64_t>(w.size()));
  return true;
}

void SocketTransport::DeliverLocal(EndsystemIndex from, EndsystemIndex to,
                                   TrafficCategory cat, WireMessagePtr msg) {
  if (!IsUp(to)) {
    ++messages_lost_;
    if (drop_handler_ && IsUp(from)) {
      loop_->After(drop_notice_delay_,
                   [this, from, to, msg]() {
                     if (IsUp(from)) drop_handler_(from, to, msg);
                   });
    }
    return;
  }
  meter_->RecordRx(to, cat, loop_->Now(), msg->WireBytes() + kMessageHeaderBytes);
  ++messages_delivered_;
  if (uniform_handler_) {
    uniform_handler_(from, to, std::move(msg));
  } else if (to < handlers_.size() && handlers_[to]) {
    handlers_[to](from, std::move(msg));
  }
}

void SocketTransport::OnReadable() {
  uint8_t buf[65536];
  while (true) {
    ssize_t n = recvfrom(fd_, buf, sizeof(buf), 0, nullptr, nullptr);
    if (n < 0) return;  // EAGAIN/EWOULDBLOCK: drained
    if (n == 0) continue;
    HandleDatagram(buf, static_cast<size_t>(n));
  }
}

void SocketTransport::HandleDatagram(const uint8_t* data, size_t len) {
  datagrams_rx_->Add();
  bytes_rx_->Add(static_cast<uint64_t>(len));

  Reader r(data, len);
  auto magic = r.GetU32();
  if (!magic.ok() || (*magic != kFrameMagic && *magic != kFragMagic)) {
    decode_rejects_->Add();
    return;
  }
  if (*magic == kFragMagic) {
    HandleFragment(data, len);
    return;
  }
  auto from = r.GetU32();
  auto to = r.GetU32();
  auto cat_raw = r.GetU8();
  if (!from.ok() || !to.ok() || !cat_raw.ok() ||
      *from >= static_cast<uint32_t>(map_.num_endsystems) ||
      *to >= static_cast<uint32_t>(map_.num_endsystems) ||
      *cat_raw >= kNumTrafficCategories || !IsLocal(*to)) {
    decode_rejects_->Add();
    return;
  }
  auto msg = DecodeWireMessage(r);
  // Reject both undecodable bodies and trailing garbage: a frame must be
  // exactly one message.
  if (!msg.ok() || !r.AtEnd()) {
    decode_rejects_->Add();
    return;
  }
  DeliverRemote(*from, *to, static_cast<TrafficCategory>(*cat_raw),
                std::move(*msg));
}

void SocketTransport::DeliverRemote(EndsystemIndex from, EndsystemIndex to,
                                    TrafficCategory cat, WireMessagePtr msg) {
  if (!IsUp(to)) {
    ++messages_lost_;
    return;
  }
  meter_->RecordRx(to, cat, loop_->Now(),
                   msg->WireBytes() + kMessageHeaderBytes);
  ++messages_delivered_;
  if (uniform_handler_) {
    uniform_handler_(from, to, std::move(msg));
  } else if (to < handlers_.size() && handlers_[to]) {
    handlers_[to](from, std::move(msg));
  }
}

void SocketTransport::HandleFragment(const uint8_t* data, size_t len) {
  Reader r(data, len);
  (void)r.GetU32();  // magic, already validated by the caller
  auto from = r.GetU32();
  auto to = r.GetU32();
  auto cat_raw = r.GetU8();
  auto msg_id = r.GetU32();
  auto index = r.GetU16();
  auto count = r.GetU16();
  // Reject malformed headers, and fragment counts no honest sender would
  // produce: count == 1 never fragments, and a count whose minimum payload
  // already exceeds kMaxMessageBytes is a memory-exhaustion probe.
  constexpr size_t kChunkMax = kMaxDatagramBytes - kFragHeaderBytes;
  if (!from.ok() || !to.ok() || !cat_raw.ok() || !msg_id.ok() ||
      !index.ok() || !count.ok() ||
      *from >= static_cast<uint32_t>(map_.num_endsystems) ||
      *to >= static_cast<uint32_t>(map_.num_endsystems) ||
      *cat_raw >= kNumTrafficCategories || !IsLocal(*to) ||
      *count < 2 || *index >= *count || r.remaining() == 0 ||
      (static_cast<size_t>(*count) - 1) * kChunkMax > kMaxMessageBytes) {
    decode_rejects_->Add();
    return;
  }
  frags_rx_->Add();

  const uint64_t key = (static_cast<uint64_t>(*from) << 32) | *msg_id;
  auto it = reassembly_.find(key);
  if (it == reassembly_.end()) {
    Reassembly entry;
    entry.to = *to;
    entry.cat = static_cast<TrafficCategory>(*cat_raw);
    entry.frag_count = *count;
    entry.chunks.resize(*count);
    it = reassembly_.emplace(key, std::move(entry)).first;
    ScheduleReassemblySweep();
  }
  Reassembly& entry = it->second;
  if (entry.to != *to || entry.frag_count != *count) {
    // A different message is squatting on this (sender, id) — sender
    // restarted and reused ids, or the datagram is forged. Drop both.
    decode_rejects_->Add();
    reassembly_drops_->Add();
    DropReassembly(it);
    return;
  }
  entry.deadline = loop_->Now() + kReassemblyTimeout;
  std::vector<uint8_t>& slot = entry.chunks[*index];
  if (!slot.empty()) return;  // duplicate fragment
  const size_t chunk = r.remaining();
  if (reassembly_bytes_ + chunk > kMaxReassemblyBytes) {
    // Memory pressure: shed this whole reassembly rather than the socket.
    reassembly_drops_->Add();
    DropReassembly(it);
    return;
  }
  slot.assign(data + (len - chunk), data + len);
  entry.bytes += chunk;
  reassembly_bytes_ += chunk;
  if (++entry.received < entry.frag_count) return;

  // Whole message present: stitch and decode exactly like a single frame.
  std::vector<uint8_t> payload;
  payload.reserve(entry.bytes);
  for (const std::vector<uint8_t>& c : entry.chunks) {
    payload.insert(payload.end(), c.begin(), c.end());
  }
  const EndsystemIndex mfrom = *from;
  const EndsystemIndex mto = entry.to;
  const TrafficCategory mcat = entry.cat;
  DropReassembly(it);
  Reader mr(payload.data(), payload.size());
  auto msg = DecodeWireMessage(mr);
  if (!msg.ok() || !mr.AtEnd()) {
    decode_rejects_->Add();
    return;
  }
  reassembled_->Add();
  DeliverRemote(mfrom, mto, mcat, std::move(*msg));
}

void SocketTransport::DropReassembly(
    std::map<uint64_t, Reassembly>::iterator it) {
  reassembly_bytes_ -= it->second.bytes;
  reassembly_.erase(it);
}

void SocketTransport::ScheduleReassemblySweep() {
  if (sweep_scheduled_) return;
  sweep_scheduled_ = true;
  loop_->After(kReassemblyTimeout / 2, [this]() {
    sweep_scheduled_ = false;
    const SimTime now = loop_->Now();
    for (auto it = reassembly_.begin(); it != reassembly_.end();) {
      auto next = std::next(it);
      if (it->second.deadline <= now) {
        reassembly_drops_->Add();
        DropReassembly(it);
      }
      it = next;
    }
    if (!reassembly_.empty()) ScheduleReassemblySweep();
  });
}

uint64_t SocketTransport::datagrams_rx() const {
  return static_cast<uint64_t>(datagrams_rx_->value());
}

uint64_t SocketTransport::decode_rejects() const {
  return static_cast<uint64_t>(decode_rejects_->value());
}

uint64_t SocketTransport::tx_fragmented() const {
  return static_cast<uint64_t>(tx_fragmented_->value());
}

}  // namespace seaweed::net
