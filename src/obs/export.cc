#include "obs/export.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>

namespace seaweed::obs {

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

namespace {

void AppendQuoted(std::string* out, std::string_view s) {
  *out += '"';
  AppendJsonEscaped(out, s);
  *out += '"';
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

void AppendI64(std::string* out, int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  *out += buf;
}

void WriteCounterLine(std::string_view name, uint64_t value,
                      std::ostream& os) {
  std::string line = "{\"kind\":\"counter\",\"name\":";
  AppendQuoted(&line, name);
  line += ",\"value\":";
  AppendU64(&line, value);
  line += "}\n";
  os << line;
}

}  // namespace

void WriteMetricsJsonl(const MetricsRegistry& registry, std::ostream& os) {
  for (const auto& [name, c] : registry.counters()) {
    WriteCounterLine(name, c->value(), os);
  }
  std::string line;
  for (const auto& [name, g] : registry.gauges()) {
    line = "{\"kind\":\"gauge\",\"name\":";
    AppendQuoted(&line, name);
    line += ",\"value\":";
    AppendI64(&line, g->value());
    line += ",\"max\":";
    AppendI64(&line, g->max());
    line += "}\n";
    os << line;
  }
  for (const auto& [name, h] : registry.histograms()) {
    line = "{\"kind\":\"histogram\",\"name\":";
    AppendQuoted(&line, name);
    line += ",\"count\":";
    AppendU64(&line, h->count());
    line += ",\"sum\":";
    AppendU64(&line, h->sum());
    line += ",\"min\":";
    AppendU64(&line, h->min());
    line += ",\"max\":";
    AppendU64(&line, h->max());
    line += ",\"buckets\":[";
    bool first = true;
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      if (h->buckets()[b] == 0) continue;
      if (!first) line += ',';
      first = false;
      line += '[';
      AppendI64(&line, b);
      line += ',';
      AppendU64(&line, h->buckets()[b]);
      line += ']';
    }
    line += "]}\n";
    os << line;
  }
  for (const auto& [name, ts] : registry.timeseries()) {
    line = "{\"kind\":\"timeseries\",\"name\":";
    AppendQuoted(&line, name);
    line += ",\"bucket_us\":";
    AppendI64(&line, ts->bucket_width());
    line += ",\"total\":";
    AppendU64(&line, ts->total());
    line += ",\"buckets\":[";
    for (size_t i = 0; i < ts->buckets().size(); ++i) {
      if (i) line += ',';
      AppendU64(&line, ts->buckets()[i]);
    }
    line += "]}\n";
    os << line;
  }
}

void WriteTraceJsonl(const TraceSink& sink, std::ostream& os) {
  std::string line;
  sink.ForEach([&](const SpanRecord& span) {
    line = "{\"kind\":\"span\",\"id\":";
    AppendU64(&line, span.id);
    line += ",\"parent\":";
    AppendU64(&line, span.parent);
    line += ",\"trace\":";
    char hex[20];
    std::snprintf(hex, sizeof(hex), "\"%016" PRIx64 "\"", span.trace);
    line += hex;
    line += ",\"name\":";
    AppendQuoted(&line, span.name);
    line += ",\"start\":";
    AppendI64(&line, span.start);
    line += ",\"end\":";
    if (span.end == kOpenSpan) {
      line += "null";
    } else {
      AppendI64(&line, span.end);
    }
    if (!span.attrs.empty() || !span.str_attrs.empty()) {
      line += ",\"attrs\":{";
      bool first = true;
      for (const auto& [k, v] : span.attrs) {
        if (!first) line += ',';
        first = false;
        AppendQuoted(&line, k);
        line += ':';
        AppendI64(&line, v);
      }
      for (const auto& [k, v] : span.str_attrs) {
        if (!first) line += ',';
        first = false;
        AppendQuoted(&line, k);
        line += ':';
        AppendQuoted(&line, v);
      }
      line += '}';
    }
    line += "}\n";
    os << line;
  });
}

Status DumpToFile(const MetricsRegistry* registry, const TraceSink* sink,
                  const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path);
  if (registry != nullptr) WriteMetricsJsonl(*registry, out);
  if (sink != nullptr) {
    WriteCounterLine("obs.trace.started", sink->started(), out);
    WriteCounterLine("obs.trace.dropped", sink->dropped(), out);
    WriteTraceJsonl(*sink, out);
  }
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace seaweed::obs
