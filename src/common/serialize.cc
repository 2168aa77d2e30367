#include "common/serialize.h"

#include <algorithm>

namespace seaweed {

void Writer::Grow(size_t n) {
  buf_.resize(std::max({size_ + n, 2 * buf_.size(), size_t{64}}));
}

void Writer::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    PutU8(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  PutU8(static_cast<uint8_t>(v));
}

Result<uint8_t> Reader::GetU8() {
  SEAWEED_RETURN_NOT_OK(Need(1));
  return data_[pos_++];
}

Result<uint16_t> Reader::GetU16() {
  SEAWEED_RETURN_NOT_OK(Need(2));
  uint16_t v;
  std::memcpy(&v, data_ + pos_, 2);
  pos_ += 2;
  return v;
}

Result<uint32_t> Reader::GetU32() {
  SEAWEED_RETURN_NOT_OK(Need(4));
  uint32_t v;
  std::memcpy(&v, data_ + pos_, 4);
  pos_ += 4;
  return v;
}

Result<uint64_t> Reader::GetU64() {
  SEAWEED_RETURN_NOT_OK(Need(8));
  uint64_t v;
  std::memcpy(&v, data_ + pos_, 8);
  pos_ += 8;
  return v;
}

Result<int64_t> Reader::GetI64() {
  SEAWEED_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

Result<double> Reader::GetDouble() {
  SEAWEED_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

Result<bool> Reader::GetBool() {
  SEAWEED_ASSIGN_OR_RETURN(uint8_t v, GetU8());
  return v != 0;
}

Result<uint64_t> Reader::GetVarint() {
  uint64_t v = 0;
  int shift = 0;
  for (;;) {
    SEAWEED_ASSIGN_OR_RETURN(uint8_t byte, GetU8());
    if (shift >= 64) {
      return Status::ParseError("varint too long");
    }
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

Result<NodeId> Reader::GetNodeId() {
  SEAWEED_ASSIGN_OR_RETURN(uint64_t hi, GetU64());
  SEAWEED_ASSIGN_OR_RETURN(uint64_t lo, GetU64());
  return NodeId(hi, lo);
}

Result<std::string> Reader::GetString() {
  SEAWEED_ASSIGN_OR_RETURN(uint64_t n, GetVarint());
  SEAWEED_RETURN_NOT_OK(Need(n));
  std::string s(reinterpret_cast<const char*>(data_ + pos_),
                static_cast<size_t>(n));
  pos_ += static_cast<size_t>(n);
  return s;
}

}  // namespace seaweed
