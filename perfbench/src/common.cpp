#include "common.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "checks.hpp"
#include "traffic/generator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perf {

const std::vector<MetricDef>& e2e_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"converge_s", "s"},
      {"cost_reduction_pct", "%"},
      {"ops_per_s", "1/s"},
      {"rss_bytes_per_vm", "B"},
  };
  return defs;
}

const std::vector<MetricDef>& layer_metrics() {
  static const std::vector<MetricDef> defs = {
      // topology
      {"topology.build_ms", "ms"},
      {"topology.self_s", "s"},
      // traffic
      {"traffic.generate_ms", "ms"},
      {"traffic.staleness_ms.p50", "ms"},
      {"traffic.staleness_ms.p99", "ms"},
      {"traffic.apply_us.p50", "us"},
      {"traffic.apply_us.p99", "us"},
      {"traffic.ns_per_delta", "ns"},
      {"traffic.queue_wait_ms.p50", "ms"},
      {"traffic.queue_wait_ms.p99", "ms"},
      {"traffic.backlog_max", "count"},
      {"traffic.deltas_folded", "count"},
      {"traffic.generator_lag_ms", "ms"},
      {"traffic.sustained_deltas_per_s", "1/s"},
      {"traffic.self_s", "s"},
      // baselines
      {"baselines.placement_ms", "ms"},
      {"baselines.self_s", "s"},
      // core
      {"core.bind_ms", "ms"},
      {"core.cache_rebuilds", "count"},
      {"core.evaluate_ns", "ns"},
      {"core.migration_delta_ns", "ns"},
      {"core.apply_migration_ns", "ns"},
      {"core.begin_pass_ms", "ms"},
      {"core.reconcile_ms", "ms"},
      {"core.computed_share", "ratio"},
      {"core.oracle_ms", "ms"},
      {"core.self_s", "s"},
      // driver
      {"driver.run_s", "s"},
      {"driver.passes", "count"},
      {"driver.holds", "count"},
      {"driver.migrations", "count"},
      {"driver.useful_ratio", "ratio"},
      {"driver.reopts", "count"},
      {"driver.reopt_ms.p50", "ms"},
      {"driver.reopt_ms.p99", "ms"},
      {"driver.reopt_holds", "count"},
      {"driver.reopt_useful_ratio", "ratio"},
      {"driver.reopt_gain_pct", "%"},
      {"driver.trigger_us.p50", "us"},
      {"driver.trigger_us.p99", "us"},
      {"driver.cost_vs_fresh", "ratio"},
      {"driver.self_s", "s"},
      // util
      {"util.exec_speedup", "ratio"},
      {"util.frame_write_us.p50", "us"},
      {"util.frame_write_us.p99", "us"},
      {"util.frame_read_wait_us.p50", "us"},
      {"util.frame_read_wait_us.p99", "us"},
      {"util.frames", "count"},
      {"util.wire_bytes", "B"},
      {"util.wire_bytes_per_hold", "B"},
      {"util.acks", "count"},
      {"util.retransmits", "count"},
      {"util.self_s", "s"},
      // hypervisor
      {"hypervisor.token_deliver_us.p50", "us"},
      {"hypervisor.token_deliver_us.p99", "us"},
      {"hypervisor.task_rtt_us.p50", "us"},
      {"hypervisor.task_rtt_us.p99", "us"},
      {"hypervisor.probe_deliver_us.p50", "us"},
      {"hypervisor.probe_deliver_us.p99", "us"},
      {"hypervisor.probe_await_us.p50", "us"},
      {"hypervisor.probe_await_us.p99", "us"},
      {"hypervisor.holds", "count"},
      {"hypervisor.token_msgs", "count"},
      {"hypervisor.token_bytes", "B"},
      {"hypervisor.control_bytes", "B"},
      {"hypervisor.ctrl_bytes_per_hold", "B"},
      {"hypervisor.probe_timeouts", "count"},
      {"hypervisor.token_reinjections", "count"},
      {"hypervisor.daemon_busy_s", "s"},
      {"hypervisor.daemon_handshake_ms", "ms"},
      {"hypervisor.tasks", "count"},
      {"hypervisor.apply_frames", "count"},
      {"hypervisor.resyncs", "count"},
      {"hypervisor.self_s", "s"},
      // sim
      {"sim.runtime_self_s", "s"},
      {"sim.self_s", "s"},
      // the trace itself
      {"trace.unattributed_pct", "%"},
      {"trace_overhead_pct", "%"},
  };
  return defs;
}

double percentile_or_zero(const std::vector<double>& samples, double p) {
  return samples.empty() ? 0.0 : score::util::percentile(samples, p);
}

double span_mean_s(const std::map<std::string, SpanStats>& stats,
                   const std::string& name) {
  const auto it = stats.find(name);
  if (it == stats.end() || it->second.count == 0) return 0.0;
  return it->second.total_s / static_cast<double>(it->second.count);
}

void put_p50_p99(std::map<std::string, double>& out, const std::string& base,
                 const std::vector<double>& samples, double scale) {
  out[base + ".p50"] = percentile_or_zero(samples, 50.0) * scale;
  out[base + ".p99"] = percentile_or_zero(samples, 99.0) * scale;
}

double median_percentile(const std::vector<std::vector<double>>& rounds, double p) {
  std::vector<double> per_round;
  for (const std::vector<double>& r : rounds) {
    if (!r.empty()) per_round.push_back(score::util::percentile(r, p));
  }
  return median(per_round);
}

void log_samples(const std::string& what, const std::vector<double>& samples) {
  std::cerr << what << ":";
  for (const double v : samples) std::cerr << " " << v;
  std::cerr << "\n";
}

std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::uint64_t kb = 0;
      for (const char c : line) {
        if (c >= '0' && c <= '9') kb = kb * 10 + static_cast<std::uint64_t>(c - '0');
      }
      return kb * 1024;
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

void record_peak_rss(Result& out) {
  if (out.e2e.count("rss_bytes_per_vm") == 0) {
    out.e2e["rss_bytes_per_vm"] =
        static_cast<double>(peak_rss_bytes()) / static_cast<double>(out.num_vms);
  }
}

void reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (clear_refs) clear_refs << "5\n";
}

Fleet build_fleet(
    const FleetSpec& spec,
    const std::function<std::unique_ptr<score::topo::Topology>()>& make_topology) {
  using namespace score;
  Fleet f;
  {
    Span span("topology.build");
    f.topology = make_topology();
  }
  f.cap.vm_slots = spec.slots;
  f.cap.ram_mb = static_cast<double>(spec.slots) * 256.0;
  f.cap.cpu_cores = static_cast<double>(spec.slots);
  const std::size_t num_vms = spec.num_vms != 0
                                  ? spec.num_vms
                                  : f.topology->num_hosts() * spec.slots / 2;
  {
    Span span("traffic.generate");
    traffic::GeneratorConfig gen;
    gen.num_vms = num_vms;
    gen.mean_service_size = spec.mean_service_size;
    gen.intra_service_degree = spec.intra_service_degree;
    gen.cross_service_prob = spec.cross_service_prob;
    gen.seed = spec.seed;
    f.tm = std::make_unique<traffic::TrafficMatrix>(traffic::generate_traffic(gen));
  }
  {
    Span span("baselines.placement");
    util::Rng rng(spec.seed + 1);
    f.alloc = std::make_unique<core::Allocation>(baselines::make_allocation(
        *f.topology, f.cap, num_vms, core::VmSpec{},
        baselines::PlacementStrategy::kRandom, rng));
  }
  {
    Span span("core.bind");
    f.model = std::make_unique<core::CachedCostModel>(
        *f.topology, core::LinkWeights::exponential(f.topology->max_level()));
    f.model->bind(*f.alloc, *f.tm);
  }
  return f;
}

Fleet setup_fleet(
    const FleetSpec& spec,
    const std::function<std::unique_ptr<score::topo::Topology>()>& make_topology,
    Result& out) {
  constexpr std::size_t kMinReps = 5;
  constexpr std::size_t kMaxReps = 400;
  constexpr double kMinSeconds = 1.0;
  std::vector<double> times;
  Fleet fleet;
  const Deadline deadline{Clock::now(), kMinSeconds};
  while (times.size() < kMinReps || (times.size() < kMaxReps && !deadline.passed())) {
    fleet = Fleet{};  // release the previous build before the next one
    const Clock::time_point t0 = Clock::now();
    fleet = build_fleet(spec, make_topology);
    times.push_back(seconds_since(t0));
  }
  log_samples("setup_s reps", times);
  out.e2e["setup_s"] = *std::min_element(times.begin(), times.end());
  out.num_vms = fleet.alloc->num_vms();
  return fleet;
}

void put_span_metrics(Result& out) {
  const std::map<std::string, SpanStats> stats = Tracer::instance().stats();
  out.layer["topology.build_ms"] = 1e3 * span_mean_s(stats, "topology.build");
  out.layer["traffic.generate_ms"] = 1e3 * span_mean_s(stats, "traffic.generate");
  out.layer["baselines.placement_ms"] =
      1e3 * span_mean_s(stats, "baselines.placement");
  out.layer["core.bind_ms"] = 1e3 * span_mean_s(stats, "core.bind");
  const auto oracle = stats.find("core.oracle");
  out.layer["core.oracle_ms"] =
      oracle == stats.end() ? 0.0 : 1e3 * oracle->second.total_s;
  for (const auto& [layer, self_s] : Tracer::instance().layer_self_s()) {
    if (layer != "bench") out.layer[layer + ".self_s"] = self_s;
  }
  const auto root = stats.find("bench.timed");
  const auto idle = stats.find("bench.idle");
  if (root != stats.end()) {
    out.layer["trace.unattributed_pct"] = checks::unattributed_pct(
        root->second.total_s, root->second.self_s,
        idle == stats.end() ? 0.0 : idle->second.total_s);
  }
}

}  // namespace perf
