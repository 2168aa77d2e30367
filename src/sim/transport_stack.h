// TransportStack: ownership + composition for transport decorator chains.
//
// Transport::Stack({A, B}, base) builds A(B(base)) and returns a stack that
// owns the decorators it built (never the base). Callers talk to top() and
// can locate a specific layer with Find<T>() — e.g. the serializing layer's
// round-trip stats or the fault layer's drop counts — without threading
// per-layer pointers through every constructor.
//
// ParseTransportSpec understands the command-line form used by simctl and
// ClusterOptions::WithTransport: a comma-separated decorator list, outermost
// first, each `name` or `name:arg` — e.g. "serializing,faulty:plan.json".
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "sim/transport.h"

namespace seaweed {

class TransportStack {
 public:
  // `layers` are innermost-first (layers.back() is outermost); `base` is not
  // owned and must outlive the stack.
  TransportStack(std::vector<std::unique_ptr<Transport>> layers,
                 Transport* base)
      : layers_(std::move(layers)), base_(base) {}

  // The outermost transport — what the overlay should send through.
  Transport* top() const {
    return layers_.empty() ? base_ : layers_.back().get();
  }
  Transport* base() const { return base_; }
  size_t num_layers() const { return layers_.size(); }

  // First layer of dynamic type T, outermost-first; nullptr if absent.
  template <typename T>
  T* Find() const {
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
      if (T* t = dynamic_cast<T*>(it->get())) return t;
    }
    return nullptr;
  }

 private:
  std::vector<std::unique_ptr<Transport>> layers_;
  Transport* base_;
};

// One element of a parsed transport spec: `kind[:arg]`.
struct TransportLayerSpec {
  std::string kind;
  std::string arg;

  bool operator==(const TransportLayerSpec&) const = default;
};

// Splits "serializing,faulty:plan.json" into layer specs (outermost first)
// and rejects unknown kinds. Known kinds: "serializing" (no arg), "faulty"
// (optional fault-plan JSON path), "udp" (optional peer-config path; a base
// transport usable only by seaweedd, and only as the innermost layer —
// decorators such as "serializing,faulty:plan.json,udp" stack on top of the
// real sockets; see src/net). The empty spec parses to no layers.
Result<std::vector<TransportLayerSpec>> ParseTransportSpec(
    const std::string& spec);

// The comma-separated list of layer kinds ParseTransportSpec accepts —
// keep error messages and --help text pointing at one source of truth.
const char* KnownTransportLayers();

}  // namespace seaweed
