#include "sim/serializing_transport.h"

#include <string>
#include <utility>

#include "common/logging.h"

namespace seaweed {

bool SerializingTransport::Send(EndsystemIndex from, EndsystemIndex to,
                                TrafficCategory cat, WireMessagePtr msg) {
  SEAWEED_CHECK_MSG(msg != nullptr,
                    "SerializingTransport::Send requires a message");

  Writer w;
  msg->Encode(w);
  // The size the meter charges is counted, not encoded: it must be the
  // real encoding's.
  SEAWEED_CHECK_MSG(w.size() == msg->EncodedBytes(),
                    "counted wire size differs from the encoding");

  Reader r(w.bytes());
  Result<WireMessagePtr> decoded = DecodeWireMessage(r);
  SEAWEED_CHECK_MSG(decoded.ok(),
                    "wire decode failed: " + decoded.status().ToString());
  SEAWEED_CHECK_MSG(r.AtEnd(), "wire decode left trailing bytes");
  WireMessagePtr copy = std::move(decoded).value();

  // Re-encode the copy: the codec must be a fixpoint on its own output.
  Writer w2;
  copy->Encode(w2);
  SEAWEED_CHECK_MSG(w2.bytes() == w.bytes(),
                    "wire re-encode differs from original encoding");
  // The decoded copy must charge the meter exactly what the original would
  // have — calibrated overrides (metadata summary sizes) travel on the wire.
  SEAWEED_CHECK_MSG(copy->WireBytes() == msg->WireBytes(),
                    "decoded message charges different wire bytes");

  ++messages_roundtripped_;
  bytes_roundtripped_ += w.size();

  // Forward the decoded copy: downstream state is built purely from bytes.
  return inner()->Send(from, to, cat, std::move(copy));
}

}  // namespace seaweed
