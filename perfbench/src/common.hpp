// Shared pieces of the benchmark: the run options, the result every workload
// fills, the metric tables, statistics and the paper-fleet world builder.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/placement.hpp"
#include "core/allocation.hpp"
#include "core/cached_cost_model.hpp"
#include "topology/topology.hpp"
#include "trace.hpp"
#include "traffic/traffic_matrix.hpp"

namespace perf {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one workload run produced. `e2e` and `layer` map metric names (see
/// the tables below) to measured values; `failures` lists failed checks.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::size_t num_vms = 0;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  bool correct() const { return failures.empty(); }
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every workload reports every one of them.
const std::vector<MetricDef>& e2e_metrics();
/// Per-layer metrics: every traced run reports every one of them (0 where
/// the workload bypasses the layer).
const std::vector<MetricDef>& layer_metrics();

// ---- statistics ------------------------------------------------------------

/// util::percentile, or 0 for no samples.
double percentile_or_zero(const std::vector<double>& samples, double p);
inline double median(const std::vector<double>& v) { return percentile_or_zero(v, 50.0); }

/// Mean duration of the spans named `name`, in seconds (0 if none ran).
double span_mean_s(const std::map<std::string, SpanStats>& stats,
                   const std::string& name);
/// Puts `<base>.p50` and `<base>.p99` of `samples` × `scale` into `out`.
void put_p50_p99(std::map<std::string, double>& out, const std::string& base,
                 const std::vector<double>& samples, double scale);

/// The median over rounds of each round's p-th percentile: a slowdown
/// during a minority of rounds (reps) does not move it.
double median_percentile(const std::vector<std::vector<double>>& rounds, double p);

/// Prints `samples` to stderr (diagnostics; stdout carries the result).
void log_samples(const std::string& what, const std::vector<double>& samples);

/// Peak resident set (VmHWM) of this process in bytes, and its reset.
std::uint64_t peak_rss_bytes();
void reset_peak_rss();
/// Sets rss_bytes_per_vm from the peak so far, once: workloads call it after
/// their first timed rep, so the figure does not depend on how many reps fit
/// in the time budget.
void record_peak_rss(Result& out);

// ---- worlds ----------------------------------------------------------------

/// A paper-style fleet: one server per host with `slots` VM slots, the fleet
/// at half slot occupancy (unless `num_vms` is set), the service-structured
/// traffic generator and a random initial placement, all derived from `seed`.
struct Fleet {
  std::unique_ptr<score::topo::Topology> topology;
  std::unique_ptr<score::traffic::TrafficMatrix> tm;
  std::unique_ptr<score::core::Allocation> alloc;
  std::unique_ptr<score::core::CachedCostModel> model;
  score::core::ServerCapacity cap;
};

struct FleetSpec {
  std::size_t slots = 16;
  std::size_t num_vms = 0;
  std::size_t mean_service_size = 24;
  double intra_service_degree = 4.0;
  double cross_service_prob = 0.3;
  std::uint64_t seed = 1;
};

/// Builds the fleet in the order topology → traffic → placement → bind, with
/// one span per layer. `make_topology` builds the topology.
Fleet build_fleet(
    const FleetSpec& spec,
    const std::function<std::unique_ptr<score::topo::Topology>()>& make_topology);

/// Builds the fleet repeatedly for about a second (keeping only the last
/// build alive) and records the fastest build as `setup_s`.
Fleet setup_fleet(
    const FleetSpec& spec,
    const std::function<std::unique_ptr<score::topo::Topology>()>& make_topology,
    Result& out);

/// Fills the span-derived per-layer metrics of a traced run: set-up phase
/// times, the oracle time, self time per layer and the unattributed share
/// of the root span "bench.timed".
void put_span_metrics(Result& out);

void run_stream_drift(const Options& opt, Result& out);
void run_dist_inproc(const Options& opt, Result& out);
void run_dist_sockets(const Options& opt, Result& out);
/// Toy-scale proof that every correctness check rejects a wrong answer.
int run_self_test();

}  // namespace perf
