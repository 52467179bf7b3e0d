// Machine-readable results for every bench_* binary: alongside the
// human tables on stdout, each bench writes one
// <results_dir>/<name>.json (default the git-ignored bench/fresh/,
// override with $RAILGUN_BENCH_RESULTS_DIR) so CI smoke jobs and
// regression tooling can assert on numbers without scraping stdout.
// The checked-in baselines under bench/results/ are only rewritten on
// purpose: RAILGUN_BENCH_RESULTS_DIR=bench/results.
#ifndef RAILGUN_BENCH_BENCH_JSON_H_
#define RAILGUN_BENCH_BENCH_JSON_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/histogram.h"

namespace railgun::bench {

class JsonResult {
 public:
  explicit JsonResult(std::string name) : name_(std::move(name)) {
    AddString("bench", name_);
  }

  JsonResult& Add(const std::string& key, double value) {
    char buf[64];
    // Non-finite values are not valid JSON; null keeps the key visible.
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.6g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    fields_.emplace_back(key, buf);
    return *this;
  }

  JsonResult& Add(const std::string& key, int64_t value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }

  JsonResult& Add(const std::string& key, uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }

  JsonResult& Add(const std::string& key, int value) {
    return Add(key, static_cast<int64_t>(value));
  }

  JsonResult& AddString(const std::string& key, const std::string& value) {
    std::string escaped = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') escaped.push_back('\\');
      escaped.push_back(c);
    }
    escaped.push_back('"');
    fields_.emplace_back(key, std::move(escaped));
    return *this;
  }

  // Expands a latency histogram into <key>_p50/_p99/_p999/_max
  // microsecond fields plus <key>_count.
  JsonResult& AddLatency(const std::string& key,
                         const LatencyHistogram& hist) {
    Add(key + "_count", static_cast<uint64_t>(hist.Count()));
    Add(key + "_p50_us", static_cast<double>(hist.ValueAtPercentile(50)));
    Add(key + "_p99_us", static_cast<double>(hist.ValueAtPercentile(99)));
    Add(key + "_p999_us", static_cast<double>(hist.ValueAtPercentile(99.9)));
    Add(key + "_max_us", static_cast<double>(hist.ValueAtPercentile(100)));
    return *this;
  }

  // Writes <results_dir>/<name>.json. Best effort by design: an
  // unwritable results dir must not fail a bench whose numbers already
  // printed, so failures are reported on stderr and swallowed.
  void Write() const {
    const char* override_dir = getenv("RAILGUN_BENCH_RESULTS_DIR");
    const std::string dir =
        override_dir != nullptr ? override_dir : "bench/fresh";
    Env* env = Env::Default();
    Status status = env->CreateDir(dir);
    if (status.ok()) {
      std::string json = "{";
      for (size_t i = 0; i < fields_.size(); ++i) {
        if (i > 0) json += ",";
        json += "\n  \"" + fields_[i].first + "\": " + fields_[i].second;
      }
      json += "\n}\n";
      const std::string path = JoinPath(dir, name_ + ".json");
      status = WriteStringToFile(env, Slice(json), path);
      if (status.ok()) {
        printf("results: %s\n", path.c_str());
        return;
      }
    }
    fprintf(stderr, "bench results not written: %s\n",
            status.ToString().c_str());
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace railgun::bench

#endif  // RAILGUN_BENCH_BENCH_JSON_H_
