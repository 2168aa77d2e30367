#include "sim/transport_stack.h"

#include <utility>

namespace seaweed {

std::unique_ptr<TransportStack> Transport::Stack(
    std::vector<DecoratorFactory> decorators, Transport* base) {
  std::vector<std::unique_ptr<Transport>> layers;
  layers.reserve(decorators.size());
  Transport* current = base;
  // Factories are outermost-first; build from the inside out.
  for (auto it = decorators.rbegin(); it != decorators.rend(); ++it) {
    layers.push_back((*it)(current));
    current = layers.back().get();
  }
  return std::make_unique<TransportStack>(std::move(layers), base);
}

Result<std::vector<TransportLayerSpec>> ParseTransportSpec(
    const std::string& spec) {
  std::vector<TransportLayerSpec> layers;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    std::string item = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (item.empty()) {
      if (spec.empty()) break;
      return Status::InvalidArgument("transport spec has an empty layer: \"" +
                                     spec + "\"");
    }
    TransportLayerSpec layer;
    size_t colon = item.find(':');
    layer.kind = item.substr(0, colon);
    if (colon != std::string::npos) layer.arg = item.substr(colon + 1);
    if (layer.kind == "serializing") {
      if (!layer.arg.empty()) {
        return Status::InvalidArgument(
            "transport layer \"serializing\" takes no argument");
      }
    } else if (layer.kind == "faulty") {
      // Optional arg: fault-plan JSON path, loaded by the cluster.
    } else if (layer.kind == "udp") {
      // Real-datagram transport (net::SocketTransport). Parsed here so
      // every tool reports it consistently, but it is a base transport,
      // not a decorator: only seaweedd can instantiate it. Optional arg:
      // peer-config JSON path.
    } else {
      return Status::InvalidArgument("unknown transport layer \"" +
                                     layer.kind + "\" (known: " +
                                     KnownTransportLayers() + ")");
    }
    layers.push_back(std::move(layer));
  }
  // "udp" replaces the network itself, so decorators may stack on top of
  // it but nothing can sit underneath: it must be the innermost (last)
  // layer, and there can be only one of it.
  for (size_t i = 0; i < layers.size(); ++i) {
    if (layers[i].kind == "udp" && i + 1 != layers.size()) {
      return Status::InvalidArgument(
          "transport layer \"udp\" replaces the network and must be the "
          "innermost (last) layer in the spec");
    }
  }
  return layers;
}

const char* KnownTransportLayers() {
  return "serializing, faulty, udp";
}

}  // namespace seaweed
