// stream-drift: open-loop flow-delta ingest on a converged canonical-2560
// fleet (20,480 VMs). Every FlowDeltaBatch is generated from the seed before
// timing starts; a producer thread pushes batch i into an unbounded
// IngestQueue at its due time t0 + i / rate. The consumer folds one batch at
// a time (TrafficMatrix::apply, which folds into the bound CachedCostModel),
// checks the DriftTrigger after each batch and, on a trigger, re-optimises
// with MultiTokenSimulation. Staleness runs from a batch's due time until it
// is folded and any re-optimisation it triggered has finished.
//
// StreamingEngine::run is not used: its producer is internal and throttled
// by backpressure, so staleness at a fixed arrival rate cannot be measured
// through it. The same public calls reproduce its single-trigger sequence.
#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "common.hpp"
#include "core/migration_engine.hpp"
#include "core/sharded_cost_oracle.hpp"
#include "driver/multi_token.hpp"
#include "driver/simulation.hpp"
#include "driver/streaming.hpp"
#include "topology/canonical_tree.hpp"
#include "traffic/ingest.hpp"
#include "util/rng.hpp"

namespace perf {
namespace {

using namespace score;

constexpr std::size_t kEventsPerBatch = 512;
constexpr std::size_t kBatches = 200;
constexpr double kDriftThreshold = 0.01;
constexpr std::size_t kReoptTokens = 4;
constexpr std::size_t kReoptThreads = 2;
/// One token pass per trigger, always run in full.
constexpr std::size_t kReoptPasses = 1;
/// Pass cap of the initial convergence (and of the fresh reference); both
/// stop earlier once a pass commits no migration.
constexpr std::size_t kInitialPasses = 40;
/// VMs the traced run times the core operations on.
constexpr std::size_t kCoreOpSamples = 4000;
/// Expected net cost drift per batch, as a share of the converged cost: with
/// the 1% trigger, about every 16th batch triggers a re-optimisation.
constexpr double kDriftPerBatch = kDriftThreshold / 16.0;
constexpr double kFreshBand = 1.05;
/// Reference offered rate, batches per second: low enough that most batches
/// do not queue behind a re-optimisation.
constexpr double kReferenceRate = 60.0;
/// Staleness p99 limit a rate must meet to count as sustained.
constexpr double kStalenessLimitS = 0.5;
/// Fewest and most reference-rate trials one run makes.
constexpr std::size_t kMinTrials = 3;
constexpr std::size_t kMaxTrials = 20;
/// The closing trial is offered at this share of the measured capacity.
constexpr double kLoadShare = 0.8;
/// A run whose producer ran later than this share of the batch period (p90
/// over the reference-rate batches) is invalid.
constexpr double kMaxLagShare = 0.5;
/// The producer spins for the last stretch before each due time.
constexpr std::chrono::microseconds kSpin{300};
/// Bisection steps of the traced run's sustained-rate search.
constexpr int kSearchSteps = 6;

/// The converged starting state every trial copies.
struct Start {
  const topo::Topology* topology;
  const core::Allocation* alloc;
  const traffic::TrafficMatrix* tm;
  core::LinkWeights weights;
};

struct Trial {
  double rate = 0.0;  ///< batches per second
  std::vector<double> staleness_s, queue_wait_s, apply_s, trigger_s, reopt_s,
      lag_s;
  std::vector<std::size_t> triggers;  ///< batch indices that fired
  std::size_t backlog_max = 0;
  std::uint64_t deltas = 0;
  std::uint64_t rebuilds = 0;
  std::size_t reopt_holds = 0;
  std::size_t reopt_migrations = 0;
  /// Over all triggers fired by a cost increase: the drift since the trigger
  /// was armed, and how much of it the re-optimisation removed.
  double drift_added = 0.0;
  double drift_removed = 0.0;
  double final_cost = 0.0;
  double busy_s = 0.0;  ///< consumer time spent folding, checking, re-optimising
  // Final state, kept for the fresh-reference check.
  std::unique_ptr<traffic::TrafficMatrix> tm;
  std::unique_ptr<core::Allocation> alloc;

  bool sustained() const {
    return checks::rate_sustained(busy_s, rate, staleness_s, kStalenessLimitS);
  }
  /// Batches per second of consumer busy time: above this offered rate the
  /// backlog grows.
  double capacity() const { return static_cast<double>(staleness_s.size()) / busy_s; }
  /// Consumer time spent folding and checking the trigger (re-optimisations
  /// excluded).
  double fold_s() const {
    double s = 0.0;
    for (std::size_t i = 0; i < apply_s.size(); ++i) s += apply_s[i] + trigger_s[i];
    return s;
  }
};

/// Closes the queue and joins the producer on every exit path.
struct ProducerGuard {
  traffic::IngestQueue& queue;
  std::thread thread;
  ~ProducerGuard() {
    queue.close();
    if (thread.joinable()) thread.join();
  }
};

/// One open-loop trial at `rate`; the caller checks the folded total after
/// timing.
Trial run_trial(const Start& start,
                const std::vector<traffic::FlowDeltaBatch>& batches,
                double rate) {
  Trial t;
  t.rate = rate;
  {
    Span span("traffic.copy");
    t.tm = std::make_unique<traffic::TrafficMatrix>(*start.tm);
  }
  {
    Span span("core.copy");
    t.alloc = std::make_unique<core::Allocation>(*start.alloc);
  }
  core::CachedCostModel model(*start.topology, start.weights);
  {
    Span span("core.bind");
    model.bind(*t.alloc, *t.tm);
  }
  core::MigrationEngine engine(model);
  driver::DriftTrigger trigger(kDriftThreshold);
  trigger.arm(model.total_cost(*t.alloc, *t.tm));
  const std::uint64_t rebuilds0 = model.rebuilds();
  std::vector<traffic::FlowDeltaBatch> pending = batches;
  const std::size_t n = pending.size();
  t.lag_s.assign(n, 0.0);
  const double period_s = 1.0 / rate;

  traffic::IngestQueue queue;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  auto due = [t0, period_s](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(period_s * static_cast<double>(i)));
  };
  {
    ProducerGuard producer{queue, std::thread([&] {
                             try {
                               for (std::size_t i = 0; i < n; ++i) {
                                 // Sleep to just before the due time, then
                                 // spin: the producer stays punctual.
                                 std::this_thread::sleep_until(due(i) - kSpin);
                                 while (Clock::now() < due(i)) {
                                 }
                                 t.lag_s[i] = std::chrono::duration<double>(
                                                  Clock::now() - due(i))
                                                  .count();
                                 queue.push(std::move(pending[i]));
                               }
                             } catch (const std::logic_error&) {
                               return;  // consumer gone: queue closed under us
                             }
                             queue.close();
                           })};

    traffic::FlowDeltaBatch batch;
    for (std::size_t i = 0;; ++i) {
      bool got = false;
      {
        // Waiting for the producer is idle time, not traffic work.
        Span span("bench.idle");
        got = queue.pop(batch);
      }
      if (!got) break;
      const Clock::time_point popped = Clock::now();
      t.backlog_max = std::max(t.backlog_max, queue.size());
      t.queue_wait_s.push_back(
          std::chrono::duration<double>(popped - due(i)).count());
      {
        Span span("traffic.apply");
        t.tm->apply(batch);
      }
      const Clock::time_point applied = Clock::now();
      t.apply_s.push_back(std::chrono::duration<double>(applied - popped).count());
      t.deltas += batch.size();
      bool fire = false;
      double cost_before = 0.0;
      {
        Span span("driver.trigger");
        cost_before = model.total_cost(*t.alloc, *t.tm);
        fire = trigger.should_reoptimize(cost_before);
      }
      const Clock::time_point checked = Clock::now();
      t.trigger_s.push_back(std::chrono::duration<double>(checked - applied).count());
      if (fire) {
        driver::MultiTokenConfig cfg;
        cfg.tokens = kReoptTokens;
        cfg.iterations = kReoptPasses;
        cfg.stop_when_stable = false;
        cfg.policy = util::ExecPolicy::par(kReoptThreads);
        driver::MultiTokenSimulation sim(engine, *t.alloc, *t.tm);
        driver::SimResult res;
        {
          Span span("driver.reopt");
          res = sim.run(cfg);
        }
        const double cost_after = model.total_cost(*t.alloc, *t.tm);
        if (cost_before > trigger.baseline()) {
          t.drift_added += cost_before - trigger.baseline();
          t.drift_removed += cost_before - cost_after;
        }
        trigger.arm(cost_after);
        t.reopt_s.push_back(seconds_since(checked));
        t.triggers.push_back(i);
        for (const auto& it : res.iterations) t.reopt_holds += it.holds;
        t.reopt_migrations += res.total_migrations;
      }
      t.staleness_s.push_back(
          std::chrono::duration<double>(Clock::now() - due(i)).count());
    }
  }
  t.busy_s = t.fold_s();
  for (const double v : t.reopt_s) t.busy_s += v;
  t.rebuilds = model.rebuilds() - rebuilds0;
  t.final_cost = model.total_cost(*t.alloc, *t.tm);
  return t;
}

/// Runs one trial under the root span, then checks its folded total against
/// a brute-force rebuild outside it; drops the final state unless `keep`.
Trial timed_trial(const Start& start,
                  const std::vector<traffic::FlowDeltaBatch>& batches,
                  double rate, bool keep, Result& out) {
  Trial t;
  {
    Span root("bench.timed");
    t = run_trial(start, batches, rate);
  }
  {
    Span span("core.oracle");
    const core::CostModel brute(*start.topology, start.weights);
    out.check(checks::totals_agree(t.final_cost, brute.total_cost(*t.alloc, *t.tm)),
              "stream-drift: folded total differs from brute-force Eq. (2) at rate " +
                  std::to_string(rate));
  }
  if (!keep) {
    t.tm.reset();
    t.alloc.reset();
  }
  return t;
}

std::vector<core::VmId> sample_vms(std::size_t num_vms, std::uint64_t seed,
                                   std::size_t n) {
  util::Rng rng(seed);
  std::vector<core::VmId> out(n);
  for (auto& vm : out) vm = static_cast<core::VmId>(rng.index(num_vms));
  return out;
}

/// Direct single-call timings of the core operations on the converged world
/// (the driver's run is one opaque call, so these are computed, not spans).
void time_core_ops(Fleet& fleet, const std::vector<core::VmId>& vms,
                   const driver::SimResult& res, double par_wall_s,
                   Result& out) {
  core::MigrationEngine engine(*fleet.model);
  const core::Allocation& alloc = *fleet.alloc;
  const traffic::TrafficMatrix& tm = *fleet.tm;
  double sink = 0.0;

  Clock::time_point t0 = Clock::now();
  for (const core::VmId u : vms) sink += engine.evaluate(alloc, tm, u).delta;
  const double eval_ns = 1e9 * seconds_since(t0) / static_cast<double>(vms.size());

  std::vector<std::pair<core::VmId, core::ServerId>> moves;
  for (const core::VmId u : vms) {
    for (const core::ServerId s : engine.candidate_servers(alloc, tm, u)) {
      if (s != alloc.server_of(u) && alloc.can_host(s, alloc.spec(u))) {
        moves.emplace_back(u, s);
        break;
      }
    }
  }
  t0 = Clock::now();
  for (const auto& [u, s] : moves) {
    sink += fleet.model->migration_delta(alloc, tm, u, s);
  }
  const double delta_ns =
      moves.empty() ? 0.0 : 1e9 * seconds_since(t0) / static_cast<double>(moves.size());

  // Each move is applied and undone at once, so every target keeps room.
  t0 = Clock::now();
  for (const auto& [u, s] : moves) {
    const core::ServerId from = alloc.server_of(u);
    fleet.model->apply_migration(*fleet.alloc, tm, u, s);
    fleet.model->apply_migration(*fleet.alloc, tm, u, from);
  }
  const double apply_ns =
      moves.empty() ? 0.0
                    : 1e9 * seconds_since(t0) / (2.0 * static_cast<double>(moves.size()));

  core::ShardedCostOracle oracle(
      *fleet.topology, fleet.model->weights(),
      core::partition_vms(alloc.num_vms(), kReoptTokens));
  const util::ExecPolicy par = util::ExecPolicy::par(kReoptThreads);
  t0 = Clock::now();
  oracle.begin_pass(alloc, tm, par);
  const double begin_ms = 1e3 * seconds_since(t0);
  t0 = Clock::now();
  sink += oracle.reconcile(alloc, tm, par);
  const double reconcile_ms = 1e3 * seconds_since(t0);

  std::size_t holds = 0;
  for (const auto& it : res.iterations) holds += it.holds;
  const double passes = static_cast<double>(res.iterations.size());
  out.layer["core.evaluate_ns"] = eval_ns;
  out.layer["core.migration_delta_ns"] = delta_ns;
  out.layer["core.apply_migration_ns"] = apply_ns;
  out.layer["core.begin_pass_ms"] = begin_ms;
  out.layer["core.reconcile_ms"] = reconcile_ms;
  // Evaluations are spread over kReoptThreads workers; begin_pass and
  // reconcile were timed under the same par policy the driver uses.
  out.layer["core.computed_share"] =
      (static_cast<double>(holds) * eval_ns * 1e-9 / kReoptThreads +
       passes * (begin_ms + reconcile_ms) * 1e-3) /
      par_wall_s;
  out.check(std::isfinite(sink), "stream-drift: non-finite core operation result");
}

/// Fresh re-optimisation reference: the placement the fleet started from,
/// re-optimised to stability on `tm` with the same optimiser as the initial
/// convergence. Starting from the same placement compares incremental
/// adaptation with starting over, without the luck of a different random
/// start (local search from two random placements can end 1.9x apart).
double fresh_cost(const topo::Topology& topology, const core::LinkWeights& weights,
                  const core::Allocation& random_start, const traffic::TrafficMatrix& tm,
                  const driver::MultiTokenConfig& cfg) {
  Span span("core.oracle");
  core::Allocation fresh = random_start;
  core::CachedCostModel model(topology, weights);
  model.bind(fresh, tm);
  core::MigrationEngine engine(model);
  return driver::MultiTokenSimulation(engine, fresh, tm).run(cfg).final_cost;
}

}  // namespace

void run_stream_drift(const Options& opt, Result& out) {
  FleetSpec spec;
  spec.seed = opt.seed;
  Fleet fleet = setup_fleet(
      spec,
      [] {
        return std::make_unique<topo::CanonicalTree>(
            topo::CanonicalTreeConfig::paper_scale());
      },
      out);

  // Converge the fleet from its random placement (a batch re-optimisation),
  // then generate every batch before timing starts. A traced run first
  // converges a copy sequentially, for util.exec_speedup and the seq-vs-par
  // log check.
  const core::Allocation random_start = *fleet.alloc;
  const bool traced = Tracer::instance().enabled();
  driver::MultiTokenConfig conv_cfg;
  conv_cfg.tokens = kReoptTokens;
  conv_cfg.iterations = kInitialPasses;
  driver::SimResult seq_res;
  double seq_wall = 0.0;
  if (traced) {
    core::Allocation alloc = random_start;
    core::CachedCostModel model(*fleet.topology, fleet.model->weights());
    model.bind(alloc, *fleet.tm);
    core::MigrationEngine engine(model);
    driver::MultiTokenSimulation sim(engine, alloc, *fleet.tm);
    const Clock::time_point t0 = Clock::now();
    Span span("driver.run");
    seq_res = sim.run(conv_cfg);
    seq_wall = seconds_since(t0);
  }
  driver::SimResult conv;
  double conv_wall = 0.0;
  {
    core::MigrationEngine engine(*fleet.model);
    conv_cfg.policy = util::ExecPolicy::par(kReoptThreads);
    driver::MultiTokenSimulation sim(engine, *fleet.alloc, *fleet.tm);
    const Clock::time_point t0 = Clock::now();
    Span span("driver.run");
    conv = sim.run(conv_cfg);
    conv_wall = seconds_since(t0);
  }
  std::size_t conv_holds = 0;
  for (const auto& it : conv.iterations) conv_holds += it.holds;
  out.layer["driver.run_s"] = conv_wall;
  out.layer["driver.passes"] = static_cast<double>(conv.iterations.size());
  out.layer["driver.holds"] = static_cast<double>(conv_holds);
  out.layer["driver.migrations"] = static_cast<double>(conv.total_migrations);
  out.layer["driver.useful_ratio"] =
      static_cast<double>(conv.total_migrations) / static_cast<double>(conv_holds);
  if (traced) {
    out.check(seq_res.migration_log == conv.migration_log,
              "stream-drift: seq convergence log differs from par(2)");
    out.layer["util.exec_speedup"] = seq_wall / conv_wall;
  }
  const double start_cost = fleet.model->total_cost(*fleet.alloc, *fleet.tm);
  std::vector<traffic::FlowDeltaBatch> batches;
  {
    // The repository's default flow-event mix (FlowEventConfig: 15% new
    // flows, 10% drops, 0.3 rate jitter, as StreamingEngine and the
    // bench_runner streaming rows use), with one change: the new-flow rate.
    // Drops remove, and jitter (mean e^(sigma^2/2) > 1) adds, a mean flow's
    // share of the converged cost per event; new flows between random VM
    // pairs (mostly top-level paths) are sized so that the expected net
    // drift is kDriftPerBatch of the converged cost per batch, so triggers
    // come at about the same cadence on every seed.
    traffic::FlowEventConfig ecfg;
    ecfg.events_per_tick = kEventsPerBatch;
    ecfg.seed = opt.seed * 7919 + 97;
    traffic::FlowEventStream stream(*fleet.tm, ecfg);
    const double events = static_cast<double>(kEventsPerBatch);
    const double flow_cost = start_cost / static_cast<double>(stream.num_flows());
    const double jitter_gain =
        std::exp(0.5 * ecfg.rate_jitter_sigma * ecfg.rate_jitter_sigma) - 1.0;
    const double existing_drift =
        events * flow_cost *
        ((1.0 - ecfg.new_flow_prob - ecfg.drop_flow_prob) * jitter_gain -
         ecfg.drop_flow_prob);
    const double new_flow_cost =
        (kDriftPerBatch * start_cost - existing_drift) / (events * ecfg.new_flow_prob);
    const double mean_rate =
        new_flow_cost / (2.0 * fleet.model->weights().prefix(fleet.topology->max_level()));
    // Lognormal mean = mean_rate at the default sigma.
    ecfg.new_flow_rate_mu =
        std::log(mean_rate) - 0.5 * ecfg.new_flow_rate_sigma * ecfg.new_flow_rate_sigma;
    stream = traffic::FlowEventStream(*fleet.tm, ecfg);
    for (std::size_t i = 0; i < kBatches; ++i) batches.push_back(stream.next_batch());
  }
  const Start start{fleet.topology.get(), fleet.alloc.get(), fleet.tm.get(),
                    fleet.model->weights()};

  double untraced_p50 = 0.0;
  if (traced) {
    // Untraced reference trial, for the tracing overhead.
    Tracer::instance().set_enabled(false);
    untraced_p50 = percentile_or_zero(run_trial(start, batches, kReferenceRate).staleness_s, 50.0);
    Tracer::instance().set_enabled(true);
  }

  // Reference-rate trials while another fits in the time budget, then one
  // trial at kLoadShare x the best measured capacity: the trigger sequence
  // must not depend on the offered rate.
  const Clock::time_point started = Clock::now();
  std::vector<Trial> trials;
  do {
    trials.push_back(timed_trial(start, batches, kReferenceRate, trials.empty(), out));
    record_peak_rss(out);
  } while (trials.size() < kMinTrials ||
           (trials.size() < kMaxTrials &&
            seconds_since(started) * static_cast<double>(trials.size() + 1) /
                    static_cast<double>(trials.size()) <=
                opt.seconds));
  std::vector<double> capacity, reopt_medians;
  double deltas = 0.0;
  double fold_s = 0.0;
  for (const Trial& t : trials) {
    capacity.push_back(t.capacity());
    reopt_medians.push_back(median(t.reopt_s));
    deltas += static_cast<double>(t.deltas);
    fold_s += t.fold_s();
  }
  const double best_capacity = *std::max_element(capacity.begin(), capacity.end());
  out.e2e["ops_per_s"] = deltas / fold_s;
  // A trial's median re-optimisation spans about a second of re-opt work, and
  // a lucky second can read 25% fast; the median over trials is steadier
  // than the fastest trial.
  out.e2e["converge_s"] = median(reopt_medians);
  log_samples("stream-drift capacity per trial", capacity);
  log_samples("stream-drift reopt medians per trial", reopt_medians);
  const double load_rate = std::max(kLoadShare * best_capacity, 2.0 * kReferenceRate);
  trials.push_back(timed_trial(start, batches, load_rate, false, out));

  if (traced) {
    // The highest sustained rate, by bisection between the reference rate
    // and 1.5 x the capacity, starting from the load trial's verdict;
    // untraced.
    Tracer::instance().set_enabled(false);
    double lo = kReferenceRate;
    double hi = std::max(1.5 * best_capacity, 2.0 * load_rate);
    (trials.back().sustained() ? lo : hi) = load_rate;
    for (int step = 1; step < kSearchSteps; ++step) {
      const double mid = std::sqrt(lo * hi);
      trials.push_back(timed_trial(start, batches, mid, false, out));
      (trials.back().sustained() ? lo : hi) = mid;
    }
    Tracer::instance().set_enabled(true);
    out.layer["traffic.sustained_deltas_per_s"] = lo * static_cast<double>(kEventsPerBatch);
  }
  const Trial& ref = trials.front();
  std::vector<double> ref_staleness_s;
  std::vector<double> ref_lag_s;
  for (const Trial& t : trials) {
    if (t.rate != kReferenceRate) continue;
    out.check(t.sustained(), "stream-drift: reference rate not sustained");
    ref_staleness_s.insert(ref_staleness_s.end(), t.staleness_s.begin(),
                           t.staleness_s.end());
    ref_lag_s.insert(ref_lag_s.end(), t.lag_s.begin(), t.lag_s.end());
  }

  // Checks, after timing.
  std::vector<std::vector<std::size_t>> trigger_runs;
  std::vector<double> reopt_s;
  std::uint64_t rebuilds = 0;
  for (const Trial& t : trials) {
    trigger_runs.push_back(t.triggers);
    reopt_s.insert(reopt_s.end(), t.reopt_s.begin(), t.reopt_s.end());
    rebuilds += t.rebuilds;
  }
  out.check(rebuilds == 0, "stream-drift: cache rebuilt on ingest");
  out.check(checks::same_triggers(trigger_runs),
            "stream-drift: trigger sequence differs between offered rates");
  out.check(!ref.triggers.empty(), "stream-drift: no re-optimisation triggered");
  out.check(checks::producer_punctual(ref_lag_s, 1.0 / kReferenceRate, kMaxLagShare),
            "stream-drift: generator lag p90 " +
                std::to_string(percentile_or_zero(ref_lag_s, 90.0)) +
                " s exceeds the limit; run invalid");
  const double fresh =
      fresh_cost(*fleet.topology, fleet.model->weights(), random_start, *ref.tm, conv_cfg);
  out.check(checks::within_band(ref.final_cost, fresh, kFreshBand),
            "stream-drift: final cost outside the 1.05 band of a fresh re-opt");
  log_samples("stream-drift trial rates (negative: not sustained)", [&] {
    std::vector<double> v;
    for (const Trial& t : trials) v.push_back(t.sustained() ? t.rate : -t.rate);
    return v;
  }());
  log_samples("stream-drift reference triggers", [&] {
    std::vector<double> v(ref.triggers.begin(), ref.triggers.end());
    return v;
  }());
  // Streaming quality itself is gated by the fresh-reference band check.
  double random_cost = 0.0;
  {
    Span span("core.oracle");
    random_cost = core::CostModel(*fleet.topology, fleet.model->weights())
                      .total_cost(random_start, *ref.tm);
  }
  out.e2e["cost_reduction_pct"] = 100.0 * (1.0 - ref.final_cost / random_cost);
  out.layer["driver.reopt_gain_pct"] = 100.0 * ref.drift_removed / ref.drift_added;
  out.layer["traffic.staleness_ms.p50"] = 1e3 * percentile_or_zero(ref_staleness_s, 50.0);
  out.layer["traffic.staleness_ms.p99"] = 1e3 * percentile_or_zero(ref_staleness_s, 99.0);
  out.attempted = kBatches * trials.size();

  put_p50_p99(out.layer, "traffic.apply_us", ref.apply_s, 1e6);
  double apply_total = 0.0;
  for (const double v : ref.apply_s) apply_total += v;
  out.layer["traffic.ns_per_delta"] = 1e9 * apply_total / static_cast<double>(ref.deltas);
  put_p50_p99(out.layer, "traffic.queue_wait_ms", ref.queue_wait_s, 1e3);
  out.layer["traffic.backlog_max"] = static_cast<double>(ref.backlog_max);
  out.layer["traffic.deltas_folded"] = static_cast<double>(ref.deltas);
  out.layer["traffic.generator_lag_ms"] = 1e3 * percentile_or_zero(ref_lag_s, 99.0);
  out.layer["core.cache_rebuilds"] = static_cast<double>(rebuilds);
  out.layer["driver.reopts"] = static_cast<double>(ref.triggers.size());
  put_p50_p99(out.layer, "driver.reopt_ms", reopt_s, 1e3);
  out.layer["driver.reopt_holds"] = static_cast<double>(ref.reopt_holds);
  out.layer["driver.reopt_useful_ratio"] =
      ref.reopt_holds ? static_cast<double>(ref.reopt_migrations) / ref.reopt_holds : 0.0;
  put_p50_p99(out.layer, "driver.trigger_us", ref.trigger_s, 1e6);
  out.layer["driver.cost_vs_fresh"] = ref.final_cost / fresh;
  if (traced) {
    time_core_ops(fleet, sample_vms(fleet.alloc->num_vms(), opt.seed + 11, kCoreOpSamples),
                  conv, conv_wall, out);
    out.layer["trace_overhead_pct"] =
        100.0 * (percentile_or_zero(ref_staleness_s, 50.0) - untraced_p50) / untraced_p50;
  }
}

}  // namespace perf
