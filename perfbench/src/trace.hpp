// In-memory span recorder for the benchmark's traced runs.
//
// The benchmark records spans only around its own calls into the program's
// public functions; the program itself carries no instrumentation. A span is
// named "<layer>.<what>" — the layer is one of the repository's modules
// (topology, traffic, baselines, core, driver, sim, hypervisor, util) or
// "bench" for the benchmark's own root span and for time a thread spends
// blocked on its own inputs, which counts toward no layer. Every span records its start,
// end, parent and the run id; a layer's self time is its spans' durations
// minus the time their child spans cover.
//
// With tracing off a Span is one branch on a global flag. With tracing on,
// per-name aggregates (count, total, self, every duration for percentiles)
// are kept for all spans and the first kMaxKeptSpans records are kept
// verbatim for the JSON dump written when the run ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace perf {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A time budget started at construction.
struct Deadline {
  Clock::time_point start = Clock::now();
  double seconds = 0.0;
  bool passed() const { return seconds_since(start) >= seconds; }
};

struct SpanStats {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::vector<double> durations_s;
};

class Tracer {
 public:
  static Tracer& instance();

  /// Start recording (sets the run id and the time origin).
  void enable(std::uint64_t run_id);
  /// Pause or resume recording, e.g. for an untraced comparison rep.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Per-name aggregates, keyed by span name.
  std::map<std::string, SpanStats> stats() const;
  /// Self time summed per layer (the name prefix before the first '.').
  std::map<std::string, double> layer_self_s() const;
  /// Write every kept span as JSON; returns false when the file cannot be
  /// written.
  bool write_json(const std::string& path) const;

  // Called by Span.
  std::uint32_t next_id();
  void record(const char* name, std::uint32_t id, std::uint32_t parent,
              Clock::time_point start, Clock::time_point end, double self_s);

  static constexpr std::size_t kMaxKeptSpans = 100000;

 private:
  struct Record {
    const char* name;
    std::uint32_t id;
    std::uint32_t parent;
    std::uint32_t thread;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::atomic<bool> enabled_{false};
  std::uint64_t run_id_ = 0;
  Clock::time_point epoch_{};
  mutable std::mutex mu_;  // guards everything below
  std::uint32_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
  std::vector<Record> kept_;
  // Keyed by the name literal's address; stats() merges equal names.
  std::unordered_map<const char*, SpanStats> stats_;
};

/// RAII span. Nesting is tracked per thread: a span opened while another is
/// open on the same thread is its child.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Records a span that has already ended, as a child of the span open on
  /// this thread: for waits the benchmark can only see after the fact.
  static void record_closed(const char* name, Clock::time_point start,
                            Clock::time_point end);

 private:
  const char* name_;
  bool on_ = false;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  Span* outer_ = nullptr;
  double child_s_ = 0.0;
  Clock::time_point start_{};
};

}  // namespace perf
