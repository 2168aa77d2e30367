// Binary serialization for overlay and Seaweed wire messages.
//
// Little-endian, length-prefixed, with varint encoding for integers that are
// usually small. Message sizes counted from these encoders drive the
// simulator's bandwidth accounting, so encoders are the single source of
// truth for "how many bytes does this message cost". A counting Writer
// (Writer(Writer::CountOnly{})) runs the same encoder and only advances a
// byte count, so a size costs no buffer.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/node_id.h"
#include "common/result.h"

namespace seaweed {

// Append-only byte sink, or, built with CountOnly, a byte counter that runs
// the same Put* calls and writes nothing.
class Writer {
 public:
  struct CountOnly {};

  Writer() = default;
  explicit Writer(CountOnly) : counting_(true) {}

  // True for a counting writer: it holds no bytes, size() is the count.
  bool counting() const { return counting_; }
  // The bytes written (none for a counting writer).
  const std::vector<uint8_t>& bytes() {
    Trim();
    return buf_;
  }
  std::vector<uint8_t> TakeBytes() {
    Trim();
    size_ = 0;
    return std::move(buf_);
  }
  // The first of the size() bytes written, valid until the next Put*.
  const uint8_t* data() const { return buf_.data(); }
  size_t size() const { return size_; }
  // Drops everything written after the first `n` bytes.
  void Truncate(size_t n) { size_ = n; }

  void PutU8(uint8_t v) { Append(&v, 1); }
  void PutU16(uint16_t v) { Append(&v, 2); }
  void PutU32(uint32_t v) { Append(&v, 4); }
  void PutU64(uint64_t v) { Append(&v, 8); }
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
    PutBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  void PutBytes(const uint8_t* data, size_t n) {
    if (n > 0) Append(data, n);
  }

  // Counts `n` bytes whose encoding is already known; counting writers only.
  void AddCount(size_t n) { size_ += n; }

 private:
  // Integers are copied in host order: little-endian on all targets.
  void Append(const void* p, size_t n) {
    if (!counting_) {
      if (buf_.size() - size_ < n) Grow(n);
      std::memcpy(buf_.data() + size_, p, n);
    }
    size_ += n;
  }
  // Makes room for `n` more bytes past size_.
  void Grow(size_t n);
  // Drops the slack past the bytes written.
  void Trim() { buf_.resize(counting_ ? 0 : size_); }

  std::vector<uint8_t> buf_;  // bytes [0, size_), then slack
  size_t size_ = 0;
  bool counting_ = false;
};

// Encoded size of `x` (anything with `void Encode(Writer&) const`), counted
// without writing a byte.
template <typename T>
size_t CountedBytes(const T& x) {
  Writer w(Writer::CountOnly{});
  x.Encode(w);
  return w.size();
}

// Sequential byte source with bounds checking. All getters return Status on
// truncation rather than asserting, so malformed messages are survivable.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit Reader(const std::vector<uint8_t>& buf)
      : data_(buf.data()), size_(buf.size()) {}

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }
  // The next unread byte.
  const uint8_t* cursor() const { return data_ + pos_; }

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
