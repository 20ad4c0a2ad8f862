// trace.h — spans the benchmark records around its calls into each layer.
//
// A span has a name, start, end, the span that was open when it began and
// the run id.  Spans stay in memory and are written out once, when the
// run ends.  With tracing off, Scope records nothing.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "util.h"

namespace e2ebench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  Tracer(bool enabled, std::uint64_t run_id)
      : enabled_(enabled), run_id_(run_id) {}

  bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
      if (!tracer_->enabled_) return;
      index_ = static_cast<int>(tracer_->spans_.size());
      const int parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
      tracer_->spans_.push_back(Span{name, NowNs(), 0, parent});
      tracer_->open_.push_back(index_);
    }
    ~Scope() {
      if (index_ < 0) return;
      tracer_->spans_[static_cast<std::size_t>(index_)].end_ns = NowNs();
      tracer_->open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  /// Sum of the durations of every span called `name`, in seconds.
  double TotalSeconds(const std::string& name) const {
    std::int64_t total = 0;
    for (const Span& span : spans_) {
      if (span.name == name) total += span.end_ns - span.start_ns;
    }
    return static_cast<double>(total) * 1e-9;
  }

  /// Sum over spans called `name` of their duration minus the time their
  /// direct children cover, in seconds.
  double SelfSeconds(const std::string& name) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
      }
    }
    std::int64_t total = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) {
        total += spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
      }
    }
    return static_cast<double>(total) * 1e-9;
  }

  /// Writes every span plus per-name total and self time as JSON.
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"run_id\": " << run_id_ << ", \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << (i ? ",\n  " : "\n  ") << "{\"id\": " << i
          << ", \"name\": " << JsonString(span.name)
          << ", \"parent\": " << span.parent
          << ", \"start_us\": " << (span.start_ns - origin) / 1000
          << ", \"end_us\": " << (span.end_ns - origin) / 1000 << "}";
    }
    out << "\n], \"by_name\": {";
    std::map<std::string, int> names;
    for (const Span& span : spans_) ++names[span.name];
    bool first = true;
    for (const auto& [name, count] : names) {
      out << (first ? "\n  " : ",\n  ") << JsonString(name)
          << ": {\"count\": " << count
          << ", \"total_s\": " << JsonNumber(TotalSeconds(name))
          << ", \"self_s\": " << JsonNumber(SelfSeconds(name)) << "}";
      first = false;
    }
    out << "\n}}\n";
    return static_cast<bool>(out);
  }

 private:
  bool enabled_;
  std::uint64_t run_id_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace e2ebench
