#include "trace.hpp"

#include <fstream>
#include <functional>
#include <thread>

namespace perf {
namespace {

thread_local Span* t_current = nullptr;

std::uint32_t thread_tag() {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffffffu);
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(std::uint64_t run_id) {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = true;
  run_id_ = run_id;
  epoch_ = Clock::now();
}

std::uint32_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::record(const char* name, std::uint32_t id, std::uint32_t parent,
                    Clock::time_point start, Clock::time_point end,
                    double self_s) {
  const double dur = std::chrono::duration<double>(end - start).count();
  std::lock_guard<std::mutex> lock(mu_);
  SpanStats& s = stats_[name];
  ++s.count;
  s.total_s += dur;
  s.self_s += self_s;
  s.durations_s.push_back(dur);
  if (kept_.size() < kMaxKeptSpans) {
    kept_.push_back(
        {name, id, parent, thread_tag(),
         std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_)
             .count(),
         std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
             .count()});
  } else {
    ++dropped_;
  }
}

std::map<std::string, SpanStats> Tracer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SpanStats> out;
  for (const auto& [name, s] : stats_) {
    SpanStats& o = out[name];
    o.count += s.count;
    o.total_s += s.total_s;
    o.self_s += s.self_s;
    o.durations_s.insert(o.durations_s.end(), s.durations_s.begin(),
                         s.durations_s.end());
  }
  return out;
}

std::map<std::string, double> Tracer::layer_self_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, s] : stats_) {
    const std::string n(name);
    out[n.substr(0, n.find('.'))] += s.self_s;
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"run_id\": " << run_id_ << ", \"dropped_spans\": " << dropped_
      << ", \"spans\": [";
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Record& r = kept_[i];
    out << (i ? ",\n" : "\n") << "{\"name\": \"" << r.name
        << "\", \"id\": " << r.id << ", \"parent\": " << r.parent
        << ", \"thread\": " << r.thread << ", \"start_ns\": " << r.start_ns
        << ", \"end_ns\": " << r.end_ns << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Span::Span(const char* name) : name_(name) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  on_ = true;
  id_ = tracer.next_id();
  outer_ = t_current;
  parent_ = outer_ != nullptr ? outer_->id_ : 0;
  t_current = this;
  start_ = Clock::now();
}

Span::~Span() {
  if (!on_) return;
  const Clock::time_point end = Clock::now();
  const double dur = std::chrono::duration<double>(end - start_).count();
  t_current = outer_;
  if (outer_ != nullptr) outer_->child_s_ += dur;
  Tracer::instance().record(name_, id_, parent_, start_, end, dur - child_s_);
}

void Span::record_closed(const char* name, Clock::time_point start,
                         Clock::time_point end) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  const double dur = std::chrono::duration<double>(end - start).count();
  std::uint32_t parent = 0;
  if (t_current != nullptr) {
    t_current->child_s_ += dur;
    parent = t_current->id_;
  }
  tracer.record(name, tracer.next_id(), parent, start, end, dur);
}

}  // namespace perf
