// Binary serialization for overlay and Seaweed wire messages.
//
// Little-endian, length-prefixed, with varint encoding for integers that are
// usually small. Message sizes computed from these encoders drive the
// simulator's bandwidth accounting, so encoders are the single source of
// truth for "how many bytes does this message cost".
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/node_id.h"
#include "common/result.h"

namespace seaweed {

// Append-only byte sink.
class Writer {
 public:
  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> TakeBytes() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }
  // Drops everything written after the first `n` bytes.
  void Truncate(size_t n) { buf_.resize(n); }

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { PutLittleEndian(&v, 2); }
  void PutU32(uint32_t v) { PutLittleEndian(&v, 4); }
  void PutU64(uint64_t v) { PutLittleEndian(&v, 8); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    PutU64(bits);
  }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  // LEB128 varint; 1 byte for values < 128.
  void PutVarint(uint64_t v);

  void PutNodeId(const NodeId& id) {
    PutU64(id.hi());
    PutU64(id.lo());
  }

  void PutString(const std::string& s) {
    PutVarint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void PutBytes(const uint8_t* data, size_t n) {
    buf_.insert(buf_.end(), data, data + n);
  }

 private:
  void PutLittleEndian(const void* p, size_t n) {
    const uint8_t* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);  // host is little-endian on all targets
  }
  std::vector<uint8_t> buf_;
};

// Sequential byte source with bounds checking. All getters return Status on
// truncation rather than asserting, so malformed messages are survivable.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit Reader(const std::vector<uint8_t>& buf)
      : data_(buf.data()), size_(buf.size()) {}

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<bool> GetBool();
  Result<uint64_t> GetVarint();
  Result<NodeId> GetNodeId();
  Result<std::string> GetString();

 private:
  Status Need(size_t n) {
    if (remaining() < n) {
      return Status::OutOfRange("truncated message: need " +
                                std::to_string(n) + " bytes, have " +
                                std::to_string(remaining()));
    }
    return Status::OK();
  }
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace seaweed
