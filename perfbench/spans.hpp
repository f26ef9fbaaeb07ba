// In-memory span recorder for the benchmark's traced run.
//
// A span brackets one call from the runner into a library layer: its name
// ("congest.run", "lowerbound.bloom_probe", ...), steady-clock start and end,
// the span open around it (its parent), and the phase/index of the runner
// step that made it (setup repetition, measured iteration, check, extra).
// Spans are appended to a vector while the run goes on and written out once
// at the end. Self time is a span's duration minus the time its direct
// children cover; children never overlap because the runner opens spans
// from one thread only.
#pragma once

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string phase;
    int index = 0;
    double start = 0;
    double end = 0;
    int parent = -1;
  };

  /// Spans are recorded only while enabled; the phase and index label every
  /// span opened until the next call.
  void set_context(bool enabled, std::string phase, int index) {
    enabled_ = enabled;
    phase_ = std::move(phase);
    index_ = index;
  }

  /// RAII span: opened on construction, closed on destruction. A no-op
  /// while the log is disabled.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name) : log_(log) {
      if (!log_.enabled_) return;
      id_ = static_cast<int>(log_.spans_.size());
      log_.spans_.push_back({std::move(name), log_.phase_, log_.index_,
                             now_s(), 0.0,
                             log_.stack_.empty() ? -1 : log_.stack_.back()});
      log_.stack_.push_back(id_);
    }
    ~Scope() {
      if (id_ < 0) return;
      log_.spans_[static_cast<std::size_t>(id_)].end = now_s();
      log_.stack_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int id_ = -1;
  };

  /// Duration minus the time covered by direct children, per span.
  std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end - spans_[i].start;
    for (const Span& s : spans_)
      if (s.parent >= 0)
        self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    return self;
  }

  /// Median duration of a `name` span; 0 when none was opened.
  double span_median(const std::string& name) const {
    std::vector<double> values;
    for (const Span& s : spans_)
      if (s.name == name) values.push_back(s.end - s.start);
    return median(std::move(values));
  }

  /// Summed self time of every span opened in `phase`.
  double self_time_in(const std::string& phase) const {
    const std::vector<double> self = self_times();
    double total = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].phase == phase) total += self[i];
    return total;
  }

  csd::obs::Json to_json(const std::string& workload) const {
    const std::vector<double> self = self_times();
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    csd::obs::Json rows = csd::obs::Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      csd::obs::Json row = csd::obs::Json::object();
      row.set("name", s.name);
      row.set("workload", workload);
      row.set("phase", s.phase);
      row.set("index", s.index);
      row.set("start_s", s.start - origin);
      row.set("end_s", s.end - origin);
      row.set("parent", s.parent);
      row.set("self_s", self[i]);
      rows.push(std::move(row));
    }
    return rows;
  }

 private:
  bool enabled_ = false;
  std::string phase_;
  int index_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
