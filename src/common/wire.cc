#include "common/wire.h"

#include <array>
#include <string>

namespace seaweed {

namespace {

std::array<WireDecoder, 256>& Registry() {
  static std::array<WireDecoder, 256> registry{};
  return registry;
}

Result<WireMessagePtr> DecodePadding(Reader& r) {
  SEAWEED_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  if (n > UINT32_MAX) {
    return Status::ParseError("padding size overflows uint32");
  }
  return WireMessagePtr(
      std::make_shared<PaddingMessage>(static_cast<uint32_t>(n)));
}

[[maybe_unused]] const bool kPaddingRegistered = [] {
  RegisterWireDecoder(wire_type::kPadding, &DecodePadding);
  return true;
}();

}  // namespace

uint32_t WireMessage::EncodedBytes() const {
  if (encoded_bytes_ == 0) {
    Writer w(Writer::CountOnly{});
    w.PutU8(wire_type());
    EncodeBody(w);
    encoded_bytes_ = static_cast<uint32_t>(w.size());
  }
  return encoded_bytes_;
}

void RegisterWireDecoder(uint8_t type, WireDecoder decoder) {
  SEAWEED_CHECK_MSG(type != 0, "wire type 0 is reserved (no payload)");
  SEAWEED_CHECK_MSG(decoder != nullptr, "null wire decoder");
  SEAWEED_CHECK_MSG(Registry()[type] == nullptr,
                    "duplicate wire decoder registration");
  Registry()[type] = decoder;
}

Result<WireMessagePtr> DecodeWireBody(uint8_t type, Reader& r) {
  WireDecoder decoder = Registry()[type];
  if (decoder == nullptr) {
    return Status::ParseError("unknown wire type " + std::to_string(type));
  }
  return decoder(r);
}

Result<WireMessagePtr> DecodeWireMessage(Reader& r) {
  SEAWEED_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
  if (type == 0) {
    return Status::ParseError("wire type 0 is reserved");
  }
  return DecodeWireBody(type, r);
}

}  // namespace seaweed
