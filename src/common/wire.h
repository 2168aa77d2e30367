// Typed wire envelope for every message the simulated network carries.
//
// A WireMessage serializes itself (1-byte type tag + body) through
// common/serialize.h, and its encoded length — counted once by a counting
// Writer, without a buffer, and cached — is what the bandwidth meter
// charges. Concrete messages (overlay::Packet, SeaweedMessage) register a
// body decoder for their type tag, so any transport can reconstruct a
// message from raw bytes without depending on the concrete message types.
#pragma once

#include <cstdint>
#include <memory>

#include "common/logging.h"
#include "common/result.h"
#include "common/serialize.h"

namespace seaweed {

// Transport-level type tags. Tag 0 is reserved for "no payload" in nested
// framing (a Packet without an application payload).
namespace wire_type {
inline constexpr uint8_t kPadding = 1;         // tests/benches filler
inline constexpr uint8_t kOverlayPacket = 2;   // overlay::Packet
inline constexpr uint8_t kSeaweedMessage = 3;  // SeaweedMessage
}  // namespace wire_type

class WireMessage {
 public:
  virtual ~WireMessage() = default;

  virtual uint8_t wire_type() const = 0;

  // Serializes the full message: type tag + body. A counting writer adds
  // the cached EncodedBytes() instead, so a frame nested in another (a
  // packet's payload) is walked once however often its host is sized.
  void Encode(Writer& w) const {
    if (w.counting()) {
      w.AddCount(EncodedBytes());
      return;
    }
    w.PutU8(wire_type());
    EncodeBody(w);
  }

  // Exact encoded size in bytes (tag + body), counted once and cached. A
  // message must not change in an encoding-visible way after its first
  // Encode/EncodedBytes — the one field mutated in flight (Packet::hops) is
  // fixed-width on the wire for exactly this reason.
  uint32_t EncodedBytes() const;

  // Bytes charged to the bandwidth meter for this message. Defaults to the
  // encoded size; overridden only where the simulation calibrates a
  // different charge (paper-measured summary sizes, test padding).
  virtual uint32_t WireBytes() const { return EncodedBytes(); }

 protected:
  virtual void EncodeBody(Writer& w) const = 0;

 private:
  mutable uint32_t encoded_bytes_ = 0;  // 0 = not yet computed
};

using WireMessagePtr = std::shared_ptr<WireMessage>;

// Decoder for one message type; consumes the body (the tag was already
// read) and nothing more.
using WireDecoder = Result<WireMessagePtr> (*)(Reader& r);

// Registers the body decoder for `type`. Called from namespace-scope
// initializers in the message TUs; re-registration CHECK-fails.
void RegisterWireDecoder(uint8_t type, WireDecoder decoder);

// Decodes one framed message (tag + body) from `r`.
Result<WireMessagePtr> DecodeWireMessage(Reader& r);

// Decodes the body of a message whose tag has already been read.
Result<WireMessagePtr> DecodeWireBody(uint8_t type, Reader& r);

// Checked downcast: CHECK-fails on a null message or a tag mismatch,
// turning what used to be silent shared_ptr<void> type confusion into a
// loud stop at the cast site.
template <typename T>
std::shared_ptr<T> WireMessageCast(const WireMessagePtr& msg) {
  SEAWEED_CHECK_MSG(msg != nullptr, "WireMessageCast on null message");
  SEAWEED_CHECK_MSG(msg->wire_type() == T::kWireType,
                    "WireMessageCast wire-type mismatch");
  return std::static_pointer_cast<T>(msg);
}

// Fixed-charge stand-in payload for tests and benches: the meter sees
// exactly `wire_bytes` regardless of the (tiny) encoded form, replacing the
// old "nullptr payload + explicit byte count" convention.
class PaddingMessage : public WireMessage {
 public:
  static constexpr uint8_t kWireType = wire_type::kPadding;

  explicit PaddingMessage(uint32_t wire_bytes) : wire_bytes_(wire_bytes) {}

  uint8_t wire_type() const override { return kWireType; }
  uint32_t WireBytes() const override { return wire_bytes_; }

 protected:
  void EncodeBody(Writer& w) const override { w.PutVarint(wire_bytes_); }

 private:
  uint32_t wire_bytes_ = 0;
};

}  // namespace seaweed
