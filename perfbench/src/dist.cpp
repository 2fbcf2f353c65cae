// dist-inproc and dist-sockets: the message-passing control plane.
//
// dist-inproc runs DistributedScoreRuntime with every agent in-process
// (LocalAgentExecutor) on a paper-occupancy fat-tree k=16 (8,192 VMs), round
// cap 2. Its work is the hypervisor layer (token encode/decode on every hold,
// agent decisions, probes) and the sim event queue.
//
// dist-sockets runs the same runtime through RemoteAgentExecutor to three
// in-process AgentDaemons, one thread each, over unix socket pairs with a
// ReliableLink and no fault injection, on the control-plane test's canonical
// world (128 racks x 5 hosts, 1,024 VMs, 2 rounds). Its work is the task
// codec, the remote executor, the daemon replicas and the util link/socket
// stack.
//
// Both wrap the executor in a decorator that times every delivery, split by
// control message type; dist-sockets also puts a FrameTransport decorator
// under each daemon's ReliableLink to time frame writes and read waits.
//
// RemoteAgentExecutor pipelines probe requests: deliver() only sends them,
// and the scheduler awaits their results later, in a drain run from the
// event queue or at the start of the next blocking delivery. dist-sockets
// finds those waits through the executor's wire tap and records each as a
// "hypervisor.probe_await" span under whatever span is open at the time, so
// they are booked neither to the sim event queue nor to the delivery that
// happened to drain them.
#include <sys/socket.h>

#include <exception>
#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "common.hpp"
#include "core/migration_engine.hpp"
#include "core/token_policy.hpp"
#include "driver/simulation.hpp"
#include "hypervisor/agent.hpp"
#include "hypervisor/agent_daemon.hpp"
#include "hypervisor/distributed_runtime.hpp"
#include "hypervisor/remote_executor.hpp"
#include "sim/network.hpp"
#include "topology/canonical_tree.hpp"
#include "topology/fat_tree.hpp"
#include "util/reliable_link.hpp"
#include "util/socket.hpp"
#include "util/transport.hpp"

namespace perf {
namespace {

using namespace score;

constexpr std::size_t kMinReps = 2;

/// Times every delivery of the wrapped executor, split by CtrlMsg. A
/// delivery's time excludes `awaited_s` accrued during it: waits for earlier
/// pipelined probe results, which the wire tap books separately.
class TimedExecutor final : public hypervisor::AgentExecutor {
 public:
  explicit TimedExecutor(hypervisor::AgentExecutor& inner) : inner_(&inner) {}

  void start(hypervisor::RuntimeCore& core) override { inner_->start(core); }
  void deliver(const sim::Message& msg) override {
    const bool token = msg.type == static_cast<int>(hypervisor::CtrlMsg::kToken);
    Span span(token ? "hypervisor.deliver_token" : "hypervisor.deliver_probe");
    const double awaited0 = awaited_s;
    in_probe = !token;
    const Clock::time_point t0 = Clock::now();
    inner_->deliver(msg);
    (token ? token_s : probe_s).push_back(seconds_since(t0) - (awaited_s - awaited0));
    in_probe = false;
  }
  void fire_probe_timer(topo::HostId host, std::uint32_t nonce, int stage) override {
    Span span("hypervisor.probe_timer");
    inner_->fire_probe_timer(host, nonce, stage);
  }
  void host_left(topo::HostId host) override { inner_->host_left(host); }
  void host_joined(topo::HostId host) override { inner_->host_joined(host); }
  void finish() override {
    Span span("hypervisor.finish");
    inner_->finish();
  }

  std::vector<double> token_s;
  std::vector<double> probe_s;
  /// Set while a probe request is being delivered.
  bool in_probe = false;
  /// Total wait for pipelined probe results so far (set by the wire tap).
  double awaited_s = 0.0;

 private:
  hypervisor::AgentExecutor* inner_;
};

std::size_t total_holds(const hypervisor::RuntimeResult& r) {
  std::size_t holds = 0;
  for (const auto& it : r.iterations) holds += it.holds;
  return holds;
}

/// One timed runtime run; the executor is wrapped in a TimedExecutor.
hypervisor::RuntimeResult run_runtime(const core::CostModel& model,
                                      core::Allocation& alloc,
                                      const traffic::TrafficMatrix& tm,
                                      const hypervisor::RuntimeConfig& cfg,
                                      TimedExecutor& executor, double* wall_s) {
  const Clock::time_point t0 = Clock::now();
  hypervisor::RuntimeResult res;
  {
    Span span("sim.runtime_run");
    hypervisor::DistributedScoreRuntime runtime(model, alloc, tm, cfg, executor);
    res = runtime.run();
  }
  *wall_s = seconds_since(t0);
  return res;
}

void put_runtime_counts(const hypervisor::RuntimeResult& r, Result& out) {
  const double holds = static_cast<double>(total_holds(r));
  out.layer["hypervisor.holds"] = holds;
  out.layer["hypervisor.token_msgs"] = static_cast<double>(r.token_messages);
  out.layer["hypervisor.token_bytes"] = static_cast<double>(r.token_bytes);
  out.layer["hypervisor.control_bytes"] = static_cast<double>(r.control_bytes);
  out.layer["hypervisor.ctrl_bytes_per_hold"] =
      static_cast<double>(r.control_bytes) / holds;
  out.layer["hypervisor.probe_timeouts"] = static_cast<double>(r.probe_timeouts);
  out.layer["hypervisor.token_reinjections"] =
      static_cast<double>(r.token_reinjections);
}

void put_runtime_span_metrics(Result& out) {
  const std::map<std::string, SpanStats> stats = Tracer::instance().stats();
  const auto run = stats.find("sim.runtime_run");
  if (run != stats.end()) out.layer["sim.runtime_self_s"] = run->second.self_s;
}

}  // namespace

// ---- dist-inproc -----------------------------------------------------------

void run_dist_inproc(const Options& opt, Result& out) {
  constexpr std::size_t kK = 16;
  constexpr std::size_t kRounds = 2;
  constexpr std::size_t kMaxReps = 30;
  constexpr double kCentralizedBand = 1.01;

  FleetSpec spec;
  spec.seed = opt.seed;
  Fleet fleet = setup_fleet(
      spec, [] { return std::make_unique<topo::FatTree>(topo::FatTreeConfig{.k = kK}); },
      out);
  const core::Allocation initial = *fleet.alloc;
  const core::CostModel model(*fleet.topology, fleet.model->weights());
  hypervisor::RuntimeConfig cfg;
  cfg.iterations = kRounds;

  const bool traced = Tracer::instance().enabled();
  Tracer::instance().set_enabled(false);
  std::vector<double> walls;
  hypervisor::RuntimeResult first;
  const Deadline deadline = {Clock::now(), opt.seconds};
  while (walls.size() < kMinReps || (walls.size() < kMaxReps && !deadline.passed())) {
    core::Allocation alloc = initial;
    hypervisor::LocalAgentExecutor local;
    TimedExecutor executor(local);
    double wall = 0.0;
    hypervisor::RuntimeResult res = run_runtime(model, alloc, *fleet.tm, cfg, executor, &wall);
    walls.push_back(wall);
    if (walls.size() == 1) {
      record_peak_rss(out);
      first = std::move(res);
    } else {
      out.check(first.trace_hash == res.trace_hash,
                "dist-inproc: trace hash differs between reps");
    }
  }
  Tracer::instance().set_enabled(traced);
  log_samples("dist-inproc converge_s reps", walls);

  const double converge_s = *std::min_element(walls.begin(), walls.end());
  const std::size_t holds = total_holds(first);
  out.e2e["converge_s"] = converge_s;
  out.e2e["cost_reduction_pct"] = 100.0 * first.reduction();
  out.e2e["ops_per_s"] = static_cast<double>(holds) / converge_s;
  out.attempted = holds * walls.size();
  out.failed = first.probe_timeouts + first.token_reinjections;
  put_runtime_counts(first, out);

  if (traced) {
    Span root("bench.timed");
    core::Allocation alloc = initial;
    hypervisor::LocalAgentExecutor local;
    TimedExecutor executor(local);
    double wall = 0.0;
    run_runtime(model, alloc, *fleet.tm, cfg, executor, &wall);
    put_p50_p99(out.layer, "hypervisor.token_deliver_us", executor.token_s, 1e6);
    put_p50_p99(out.layer, "hypervisor.probe_deliver_us", executor.probe_s, 1e6);
    out.layer["trace_overhead_pct"] = 100.0 * (wall - converge_s) / converge_s;
    put_runtime_span_metrics(out);
  }

  // Checks, after timing: the centralized run of the same world.
  {
    Span span("core.oracle");
    core::Allocation alloc = initial;
    core::CachedCostModel cached(*fleet.topology, fleet.model->weights());
    cached.bind(alloc, *fleet.tm);
    core::MigrationEngine engine(cached);
    core::RoundRobinPolicy rr;
    driver::SimConfig scfg;
    scfg.iterations = kRounds;
    driver::ScoreSimulation sim(engine, rr, alloc, *fleet.tm);
    const double centralized = sim.run(scfg).final_cost;
    out.check(checks::within_band(first.final_cost, centralized, kCentralizedBand),
              "dist-inproc: final cost above 1.01 x the centralized run");
  }
}

// ---- dist-sockets ----------------------------------------------------------

namespace {

/// Times frame writes and read waits of the transport under a daemon's
/// ReliableLink, and counts the bytes it moves.
class TimedTransport final : public util::FrameTransport {
 public:
  explicit TimedTransport(util::FrameTransport& inner) : inner_(&inner) {}
  void write_frame(const std::vector<std::uint8_t>& bytes) override {
    Span span("util.frame_write");
    const Clock::time_point t0 = Clock::now();
    inner_->write_frame(bytes);
    write_s.push_back(seconds_since(t0));
    bytes_moved += bytes.size() + 4;  // u32 length prefix
  }
  std::optional<std::vector<std::uint8_t>> read_frame(double timeout_s) override {
    // Mostly the daemon waiting for the scheduler: idle, not util work.
    Span span("bench.daemon_read");
    const Clock::time_point t0 = Clock::now();
    auto frame = inner_->read_frame(timeout_s);
    read_wait_s.push_back(seconds_since(t0));
    if (frame) bytes_moved += frame->size() + 4;
    return frame;
  }

  std::vector<double> write_s;
  std::vector<double> read_wait_s;
  std::uint64_t bytes_moved = 0;

 private:
  util::FrameTransport* inner_;
};

/// One daemon replica serving on its own thread over one socket pair end.
struct DaemonSide {
  core::Allocation alloc;
  traffic::TrafficMatrix tm;
  std::unique_ptr<hypervisor::AgentDaemon> daemon;
  util::Socket socket;
  std::unique_ptr<util::SocketTransport> base;
  std::unique_ptr<TimedTransport> timed;
  std::unique_ptr<util::ReliableLink> link;
  util::LinkStats link_stats;
  double serve_s = 0.0;
  std::exception_ptr error;
};

/// Joins every daemon thread on every exit path.
struct DaemonThreads {
  std::vector<std::thread> threads;
  ~DaemonThreads() {
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
  }
};

struct SocketRun {
  hypervisor::RuntimeResult result;
  std::unique_ptr<core::Allocation> final_alloc;
  double setup_s = 0.0;     ///< replica build + handshake up to the first task
  double converge_s = 0.0;  ///< first task to the end of the run
  double handshake_s = 0.0;
  std::vector<double> rtt_s;
  std::vector<double> token_s, probe_s, probe_await_s;
  std::vector<double> write_s, read_wait_s;
  double daemon_busy_s = 0.0;
  std::uint64_t tasks = 0, apply_frames = 0, wire_bytes = 0;
  std::uint64_t frames = 0, acks = 0, retransmits = 0, resyncs = 0;
};

SocketRun run_sockets_once(const core::CostModel& model, const core::Allocation& initial,
                           const traffic::TrafficMatrix& tm,
                           const hypervisor::RuntimeConfig& cfg, std::size_t agents) {
  SocketRun run;
  run.final_alloc = std::make_unique<core::Allocation>(initial);
  const Clock::time_point t0 = Clock::now();
  std::vector<std::unique_ptr<DaemonSide>> sides;
  std::vector<util::Socket> scheduler_ends;
  {
    Span span("hypervisor.daemon_build");
    for (std::size_t a = 0; a < agents; ++a) {
      int fds[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        throw std::runtime_error("socketpair failed");
      }
      scheduler_ends.emplace_back(fds[0]);
      auto side = std::make_unique<DaemonSide>(DaemonSide{initial, tm});
      side->socket = util::Socket(fds[1]);
      side->daemon = std::make_unique<hypervisor::AgentDaemon>(model, side->alloc,
                                                               side->tm, cfg);
      side->base = std::make_unique<util::SocketTransport>(side->socket);
      side->timed = std::make_unique<TimedTransport>(*side->base);
      side->link = std::make_unique<util::ReliableLink>(*side->timed);
      sides.push_back(std::move(side));
    }
  }
  using TaskKey = std::pair<std::uint32_t, std::uint32_t>;  // agent, seq
  std::map<TaskKey, Clock::time_point> sent;
  std::set<TaskKey> pipelined;
  Clock::time_point first_task{};
  Clock::time_point last_tap{};
  // Declared before the executor: if the run throws, the executor closes the
  // scheduler ends first, so every blocked daemon sees EOF before the join.
  DaemonThreads threads;
  core::Allocation& alloc = *run.final_alloc;
  hypervisor::RemoteAgentExecutor remote(
      std::move(scheduler_ends), hypervisor::world_fingerprint(model, alloc, tm, cfg));
  TimedExecutor executor(remote);
  remote.set_wire_tap([&](const hypervisor::RemoteAgentExecutor::WireRecord& r) {
    const Clock::time_point now = Clock::now();
    const TaskKey key{r.agent, r.seq};
    if (r.to_agent) {
      if (r.type == hypervisor::TaskType::kDeliver ||
          r.type == hypervisor::TaskType::kTimer) {
        if (run.tasks++ == 0) first_task = now;
        sent[key] = now;
        if (executor.in_probe) pipelined.insert(key);
      }
      if (r.type == hypervisor::TaskType::kApply) ++run.apply_frames;
    } else if (r.type == hypervisor::TaskType::kResult) {
      const auto it = sent.find(key);
      if (it != sent.end()) {
        run.rtt_s.push_back(std::chrono::duration<double>(now - it->second).count());
        if (pipelined.erase(key) != 0) {
          // The scheduler began awaiting this result after the later of its
          // send and the previous frame it handled.
          const Clock::time_point await_start = std::max(it->second, last_tap);
          const double waited = std::chrono::duration<double>(now - await_start).count();
          Span::record_closed("hypervisor.probe_await", await_start, now);
          executor.awaited_s += waited;
          run.probe_await_s.push_back(waited);
        }
        sent.erase(it);
      }
    }
    last_tap = Clock::now();
  });
  for (auto& side : sides) {
    DaemonSide* s = side.get();
    threads.threads.emplace_back([s] {
      try {
        Span span("hypervisor.daemon_serve");
        const Clock::time_point start = Clock::now();
        s->daemon->serve(*s->link);
        s->serve_s = seconds_since(start);
        s->link_stats = s->link->stats();
      } catch (...) {
        s->error = std::current_exception();
      }
    });
  }
  const Clock::time_point run_start = Clock::now();
  double wall = 0.0;
  run.result = run_runtime(model, alloc, tm, cfg, executor, &wall);
  run.setup_s = std::chrono::duration<double>(first_task - t0).count();
  run.handshake_s = std::chrono::duration<double>(first_task - run_start).count();
  run.converge_s = seconds_since(first_task);
  for (std::thread& t : threads.threads) t.join();
  for (auto& side : sides) {
    if (side->error) std::rethrow_exception(side->error);
    double read_wait = 0.0;
    for (const double v : side->timed->read_wait_s) read_wait += v;
    run.daemon_busy_s += side->serve_s - read_wait;
    run.write_s.insert(run.write_s.end(), side->timed->write_s.begin(),
                       side->timed->write_s.end());
    run.read_wait_s.insert(run.read_wait_s.end(), side->timed->read_wait_s.begin(),
                           side->timed->read_wait_s.end());
    run.wire_bytes += side->timed->bytes_moved;
    run.frames += side->link_stats.data_sent + side->link_stats.data_received;
    run.acks += side->link_stats.acks_sent + side->link_stats.acks_received;
    run.retransmits += side->link_stats.retransmitted_frames;
  }
  const hypervisor::RecoveryStats& rs = remote.recovery_stats();
  run.retransmits += rs.link_retransmitted_frames;
  run.resyncs = rs.full_resyncs + rs.reconnects + rs.tasks_resent;
  run.token_s = std::move(executor.token_s);
  run.probe_s = std::move(executor.probe_s);
  if (!pipelined.empty()) throw std::logic_error("dist-sockets: a pipelined probe got no result");
  return run;
}

}  // namespace

void run_dist_sockets(const Options& opt, Result& out) {
  constexpr std::size_t kAgents = 3;
  constexpr std::size_t kRounds = 2;
  constexpr std::size_t kMaxReps = 40;

  FleetSpec spec;
  spec.seed = opt.seed;
  spec.slots = 4;
  spec.num_vms = 1024;
  spec.mean_service_size = 8;
  spec.intra_service_degree = 3.0;
  spec.cross_service_prob = 0.08;
  Fleet fleet = setup_fleet(
      spec,
      [] {
        topo::CanonicalTreeConfig c;
        c.racks = 128;
        c.hosts_per_rack = 5;
        c.racks_per_pod = 4;
        c.cores = 4;
        return std::make_unique<topo::CanonicalTree>(c);
      },
      out);
  const double fleet_setup_s = out.e2e["setup_s"];
  const core::Allocation initial = *fleet.alloc;
  const core::CostModel model(*fleet.topology, fleet.model->weights());
  hypervisor::RuntimeConfig cfg;
  cfg.policy = "highest-level-first";
  cfg.iterations = kRounds;

  const bool traced = Tracer::instance().enabled();
  Tracer::instance().set_enabled(false);
  std::vector<SocketRun> runs;
  const Deadline deadline = {Clock::now(), opt.seconds};
  std::vector<double> setups, converges;
  std::vector<std::vector<double>> rtts;
  while (runs.size() < kMinReps || (runs.size() < kMaxReps && !deadline.passed())) {
    runs.push_back(run_sockets_once(model, initial, *fleet.tm, cfg, kAgents));
    record_peak_rss(out);
    const SocketRun& r = runs.back();
    setups.push_back(r.setup_s);
    converges.push_back(r.converge_s);
    rtts.push_back(r.rtt_s);
    out.check(runs.front().result.trace_hash == r.result.trace_hash,
              "dist-sockets: trace hash differs between reps");
  }
  Tracer::instance().set_enabled(traced);
  log_samples("dist-sockets converge_s reps", converges);

  const SocketRun& first = runs.front();
  const std::size_t holds = total_holds(first.result);
  const double converge_s = *std::min_element(converges.begin(), converges.end());
  out.e2e["setup_s"] = fleet_setup_s + *std::min_element(setups.begin(), setups.end());
  out.e2e["converge_s"] = converge_s;
  out.e2e["cost_reduction_pct"] = 100.0 * first.result.reduction();
  out.e2e["ops_per_s"] = static_cast<double>(holds) / converge_s;
  out.layer["hypervisor.task_rtt_us.p50"] = 1e6 * median_percentile(rtts, 50.0);
  out.layer["hypervisor.task_rtt_us.p99"] = 1e6 * median_percentile(rtts, 99.0);
  out.attempted = 0;
  out.failed = 0;
  for (const SocketRun& r : runs) {
    out.attempted += r.tasks;
    out.failed += r.retransmits + r.resyncs;
  }
  put_runtime_counts(first.result, out);

  if (traced) {
    SocketRun r;
    {
      Span root("bench.timed");
      r = run_sockets_once(model, initial, *fleet.tm, cfg, kAgents);
    }
    put_p50_p99(out.layer, "hypervisor.token_deliver_us", r.token_s, 1e6);
    put_p50_p99(out.layer, "hypervisor.probe_deliver_us", r.probe_s, 1e6);
    put_p50_p99(out.layer, "hypervisor.probe_await_us", r.probe_await_s, 1e6);
    put_p50_p99(out.layer, "util.frame_write_us", r.write_s, 1e6);
    put_p50_p99(out.layer, "util.frame_read_wait_us", r.read_wait_s, 1e6);
    out.layer["util.frames"] = static_cast<double>(r.frames);
    out.layer["util.wire_bytes"] = static_cast<double>(r.wire_bytes);
    out.layer["util.wire_bytes_per_hold"] =
        static_cast<double>(r.wire_bytes) / static_cast<double>(holds);
    out.layer["util.acks"] = static_cast<double>(r.acks);
    out.layer["util.retransmits"] = static_cast<double>(r.retransmits);
    out.layer["hypervisor.daemon_busy_s"] = r.daemon_busy_s;
    out.layer["hypervisor.daemon_handshake_ms"] = 1e3 * r.handshake_s;
    out.layer["hypervisor.tasks"] = static_cast<double>(r.tasks);
    out.layer["hypervisor.apply_frames"] = static_cast<double>(r.apply_frames);
    out.layer["hypervisor.resyncs"] = static_cast<double>(r.resyncs);
    out.layer["trace_overhead_pct"] = 100.0 * (r.converge_s - converge_s) / converge_s;
    put_runtime_span_metrics(out);
  }

  // Checks, after timing: the in-process run of the same world.
  {
    Span span("core.oracle");
    core::Allocation alloc = initial;
    hypervisor::LocalAgentExecutor local;
    TimedExecutor executor(local);
    double wall = 0.0;
    const hypervisor::RuntimeResult ref =
        run_runtime(model, alloc, *fleet.tm, cfg, executor, &wall);
    out.check(first.result.trace_hash == ref.trace_hash,
              "dist-sockets: trace hash differs from the in-process run");
    out.check(first.result.final_cost == ref.final_cost,
              "dist-sockets: final cost differs from the in-process run");
    out.check(checks::allocations_equal(*first.final_alloc, alloc),
              "dist-sockets: final allocation differs from the in-process run");
  }
}

}  // namespace perf
