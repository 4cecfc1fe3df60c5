// Host-time spans for the traced run.
//
// The benchmark wraps each call it makes into a simulator layer in a span
// (name, run, parent, start, end).  Spans stay in memory while the run
// measures and are written out once, at exit.  A span's layer is the text of
// its name before the first '.', e.g. `sim` for `sim.run`.

#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;  ///< "<layer>.<call>", e.g. "sim.run".
  std::string run;   ///< Sub-run the call belongs to ("" for pass-level spans).
  int parent = -1;   ///< Index of the enclosing span; -1 for a root.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::string_view layer() const { return std::string_view(name).substr(0, name.find('.')); }
  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class SpanLog {
 public:
  /// Opens a span on construction and closes it on destruction.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name, std::string run, int parent)
        : log_(log), id_(log.open(std::move(name), std::move(run), parent)) {}
    ~Scope() { log_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    SpanLog& log_;
    int id_;
  };

  int open(std::string name, std::string run, int parent) {
    spans_.push_back(Span{std::move(name), std::move(run), parent, host_ns(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_ns = host_ns(); }

  const std::vector<Span>& spans() const { return spans_; }
  const Span& at(int id) const { return spans_[static_cast<std::size_t>(id)]; }

  /// Seconds of span `id` covered by its direct children.
  double child_seconds(int id) const {
    double covered = 0.0;
    for (const Span& s : spans_) {
      if (s.parent == id) covered += s.seconds();
    }
    return covered;
  }

  /// Self time (duration minus the direct children's durations) summed per
  /// layer over the tree rooted at `root`.
  std::map<std::string, double> self_seconds_by_layer(int root) const {
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].seconds();
      if (spans_[i].parent >= 0) self[static_cast<std::size_t>(spans_[i].parent)] -= spans_[i].seconds();
    }
    std::map<std::string, double> by_layer;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (in_tree(static_cast<int>(i), root)) by_layer[std::string(spans_[i].layer())] += self[i];
    }
    return by_layer;
  }

  /// Summed duration of the spans named `name` in the tree rooted at `root`.
  double seconds_named(int root, std::string_view name) const {
    double total = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name && in_tree(static_cast<int>(i), root)) total += spans_[i].seconds();
    }
    return total;
  }

  /// Writes one JSON object per span and line: id, parent, name, run, and
  /// start/end in host nanoseconds relative to the first span.
  bool write_jsonl(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
          << "\", \"run\": \"" << s.run << "\", \"start_ns\": " << s.start_ns - base
          << ", \"end_ns\": " << s.end_ns - base << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  bool in_tree(int id, int root) const {
    for (int cur = id; cur >= 0; cur = spans_[static_cast<std::size_t>(cur)].parent) {
      if (cur == root) return true;
    }
    return false;
  }

  std::vector<Span> spans_;
};

}  // namespace perfbench
