// JSONL export of metrics snapshots and trace spans.
//
// One JSON object per line; the "kind" field discriminates:
//   {"kind":"counter","name":...,"value":N}
//   {"kind":"gauge","name":...,"value":N,"max":N}
//   {"kind":"histogram","name":...,"count":N,"sum":N,"min":N,"max":N,
//    "buckets":[[bit_width,count],...]}            (sparse: empty omitted)
//   {"kind":"timeseries","name":...,"bucket_us":N,"total":N,"buckets":[...]}
//   {"kind":"span","id":N,"parent":N,"trace":"<16 hex>","name":...,
//    "start":N,"end":N|null,"attrs":{...}}
//
// Trace keys are emitted as hex strings because uint64 values do not survive
// a double-typed JSON number; simulated timestamps (µs) comfortably fit.
#pragma once

#include <ostream>
#include <string>
#include <string_view>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace seaweed::obs {

// Appends `s` with JSON string escaping (no surrounding quotes).
void AppendJsonEscaped(std::string* out, std::string_view s);

void WriteMetricsJsonl(const MetricsRegistry& registry, std::ostream& os);
void WriteTraceJsonl(const TraceSink& sink, std::ostream& os);

// Writes metrics then spans to `path`; either source may be null. A sink
// also contributes two counter records ahead of its spans:
// obs.trace.started and obs.trace.dropped (spans lost to ring wrap-around).
Status DumpToFile(const MetricsRegistry* registry, const TraceSink* sink,
                  const std::string& path);

}  // namespace seaweed::obs
