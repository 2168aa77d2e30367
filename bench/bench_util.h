// Shared helpers for the figure/table reproduction benches.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/status.h"
#include "common/time_types.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "sim/bandwidth_meter.h"

namespace seaweed::bench {

// Benches scale their default problem sizes by SEAWEED_BENCH_SCALE (a
// positive double; 1.0 = laptop defaults, larger = closer to paper scale).
inline double Scale() {
  if (const char* env = std::getenv("SEAWEED_BENCH_SCALE")) {
    double v = std::atof(env);
    if (v > 0) return v;
  }
  return 1.0;
}

inline int ScaledN(int base) {
  double n = base * Scale();
  return n < 2 ? 2 : static_cast<int>(n);
}

// Peak resident-set size of this process in bytes (getrusage ru_maxrss;
// Linux reports KiB, macOS bytes). Process-monotone: fork a child per
// configuration when measuring several footprints in one bench.
inline double PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<double>(ru.ru_maxrss);
#else
  return static_cast<double>(ru.ru_maxrss) * 1024.0;
#endif
#else
  return 0;
#endif
}

// Wall-clock stopwatch for bench phases; pairs with ResultWriter::Scalar:
//   WallTimer t;  ...work...;  results.Scalar("wall_seconds", t.Seconds());
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void Reset() { start_ = std::chrono::steady_clock::now(); }
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void Header(const char* id, const char* title) {
  std::printf("\n==============================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("==============================================================\n");
}

inline void Note(const std::string& text) {
  std::printf("# %s\n", text.c_str());
}

// Pretty-prints bytes/second with engineering units.
inline std::string Rate(double bytes_per_sec) {
  char buf[64];
  if (bytes_per_sec >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2f GB/s", bytes_per_sec / 1e9);
  } else if (bytes_per_sec >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f MB/s", bytes_per_sec / 1e6);
  } else if (bytes_per_sec >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2f KB/s", bytes_per_sec / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f B/s", bytes_per_sec);
  }
  return buf;
}

// Prints an hourly breakdown table: column 0 of each row is the hour, the
// remaining columns line up under `value_cols`. Shared by the benches that
// report per-hour bandwidth components (fig9, fig10).
inline void HourlyTable(const std::vector<const char*>& value_cols,
                        const std::vector<std::vector<double>>& rows) {
  std::printf("%6s", "hour");
  for (const char* c : value_cols) std::printf(" %12s", c);
  std::printf("\n");
  for (const auto& row : rows) {
    std::printf("%6.0f", row[0]);
    for (size_t i = 1; i < row.size(); ++i) std::printf(" %12.3f", row[i]);
    std::printf("\n");
  }
}

// Prints the standard percentile table the figure benches share.
inline void PercentileTable(const std::vector<double>& samples,
                            const char* value_name) {
  std::printf("%12s %14s\n", "percentile", value_name);
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
    std::printf("%11.1f%% %14.2f\n", p, Percentile(samples, p));
  }
}

// Collects named scalars and tables from one bench run and writes them to a
// machine-readable file, replacing the per-figure emitters the benches used
// to hand-roll. The JSON goes to the path in SEAWEED_BENCH_OUT; env var
// unset = no file written, the bench only prints its usual tables.
class ResultWriter {
 public:
  explicit ResultWriter(std::string bench) : bench_(std::move(bench)) {}

  void Scalar(const std::string& name, double value) {
    scalars_.emplace_back(name, value);
  }
  void Table(std::string name, std::vector<std::string> columns,
             std::vector<std::vector<double>> rows) {
    tables_.push_back({std::move(name), std::move(columns), std::move(rows)});
  }

  Status WriteJson(const std::string& path) const {
    std::string out = "{\"bench\":";
    Quote(&out, bench_);
    out += ",\"scalars\":{";
    for (size_t i = 0; i < scalars_.size(); ++i) {
      if (i) out += ',';
      Quote(&out, scalars_[i].first);
      out += ':';
      Num(&out, scalars_[i].second);
    }
    out += "},\"tables\":{";
    for (size_t t = 0; t < tables_.size(); ++t) {
      if (t) out += ',';
      Quote(&out, tables_[t].name);
      out += ":{\"columns\":[";
      for (size_t c = 0; c < tables_[t].columns.size(); ++c) {
        if (c) out += ',';
        Quote(&out, tables_[t].columns[c]);
      }
      out += "],\"rows\":[";
      for (size_t r = 0; r < tables_[t].rows.size(); ++r) {
        if (r) out += ',';
        out += '[';
        for (size_t c = 0; c < tables_[t].rows[r].size(); ++c) {
          if (c) out += ',';
          Num(&out, tables_[t].rows[r][c]);
        }
        out += ']';
      }
      out += "]}";
    }
    out += "}}\n";
    return WriteAll(path, out);
  }

  // Writes to $SEAWEED_BENCH_OUT if set; failures warn but never abort the
  // bench (the printed tables are the primary output).
  void WriteFromEnv() const {
    const char* path = std::getenv("SEAWEED_BENCH_OUT");
    if (path == nullptr || *path == '\0') return;
    Status st = WriteJson(path);
    if (!st.ok()) {
      std::fprintf(stderr, "warning: bench result write failed: %s\n",
                   std::string(st.message()).c_str());
    } else {
      std::printf("# machine-readable results written to %s\n", path);
    }
  }

 private:
  struct TableData {
    std::string name;
    std::vector<std::string> columns;
    std::vector<std::vector<double>> rows;
  };

  static void Quote(std::string* out, const std::string& s) {
    *out += '"';
    obs::AppendJsonEscaped(out, s);
    *out += '"';
  }
  static void Num(std::string* out, double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    *out += buf;
  }
  static Status WriteAll(const std::string& path, const std::string& body) {
    std::ofstream f(path, std::ios::trunc);
    if (!f) return Status::IoError("cannot open " + path);
    f << body;
    f.flush();
    if (!f) return Status::IoError("write failed: " + path);
    return Status::OK();
  }

  std::string bench_;
  std::vector<std::pair<std::string, double>> scalars_;
  std::vector<TableData> tables_;
};

// Dumps a run's metrics registry + trace spans to a JSONL file readable by
// tools/obs_report. The path comes from $SEAWEED_OBS_DUMP when set, else
// `default_path`; pass nullptr to dump only when the env var is set.
inline void DumpObs(const obs::Observability& o, const char* default_path) {
  const char* path = std::getenv("SEAWEED_OBS_DUMP");
  if (path == nullptr || *path == '\0') path = default_path;
  if (path == nullptr) return;
  Status st = obs::DumpToFile(&o.metrics, &o.trace, path);
  if (!st.ok()) {
    std::fprintf(stderr, "warning: obs dump failed: %s\n",
                 std::string(st.message()).c_str());
    return;
  }
  std::printf("# obs dump written to %s (inspect with tools/obs_report)\n",
              path);
}

}  // namespace seaweed::bench
