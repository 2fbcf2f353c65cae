// Toy-scale self-test of the correctness checks: each check must accept the
// right answer and reject a wrong one. Run with `score_perf --self-test`
// (or `python3 perfbench/run.py --self-test`); exits 0 when every check
// behaves, 1 otherwise.
#include <cmath>
#include <iostream>
#include <limits>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "topology/fat_tree.hpp"

namespace perf {

int run_self_test() {
  using namespace score;
  int bad = 0;
  auto expect = [&bad](const char* check, bool accepts_right, bool rejects_wrong) {
    std::cout << check << ": " << (accepts_right ? "accepts" : "REJECTS")
              << " the right answer, " << (rejects_wrong ? "rejects" : "ACCEPTS")
              << " a wrong one\n";
    if (!accepts_right || !rejects_wrong) ++bad;
  };

  FleetSpec spec;
  spec.slots = 4;
  spec.num_vms = 32;
  spec.seed = 5;
  Fleet f = build_fleet(
      spec, [] { return std::make_unique<topo::FatTree>(topo::FatTreeConfig{.k = 4}); });
  const core::Allocation initial = *f.alloc;
  const core::CostModel brute(*f.topology, f.model->weights());

  // Cached total vs brute force.
  const double cached = f.model->total_cost(*f.alloc, *f.tm);
  const double exact = brute.total_cost(*f.alloc, *f.tm);
  expect("totals_agree", checks::totals_agree(cached, exact),
         !checks::totals_agree(cached * (1.0 + 1e-6), exact));

  expect("same_triggers", checks::same_triggers({{3, 7}, {3, 7}, {3, 7}}),
         !checks::same_triggers({{3, 7}, {3, 8}}) && !checks::same_triggers({}));

  expect("within_band", checks::within_band(1.04, 1.0, 1.05),
         !checks::within_band(1.06, 1.0, 1.05) &&
             !checks::within_band(std::numeric_limits<double>::quiet_NaN(), 1.0, 1.05));

  const core::Allocation a = initial;
  const core::Allocation b = initial;
  core::Allocation moved = a;
  for (core::ServerId s = 0; s < moved.num_servers(); ++s) {
    if (s != moved.server_of(0) && moved.can_host(s, moved.spec(0))) {
      moved.migrate(0, s);
      break;
    }
  }
  expect("allocations_equal", checks::allocations_equal(a, b),
         !checks::allocations_equal(a, moved));

  // The producer's p90 lag against half a 10 ms period: one late batch in
  // ten is tolerated, two are not.
  const std::vector<double> punctual = {0, 0, 0, 0, 0, 0, 0, 0, 0, 0.020};
  const std::vector<double> late = {0, 0, 0, 0, 0, 0, 0, 0, 0.020, 0.020};
  expect("producer_punctual", checks::producer_punctual(punctual, 0.010, 0.5),
         !checks::producer_punctual(late, 0.010, 0.5) &&
             !checks::producer_punctual({}, 0.010, 0.5));

  // 100 batches offered at 100/s (1 s): a consumer busy for 0.9 s with a
  // low staleness keeps up; one busy for 1.1 s, or whose staleness p99
  // breaks the 0.5 s limit, does not.
  const std::vector<double> fresh(100, 0.01);
  std::vector<double> stale = fresh;
  stale[98] = stale[99] = 0.8;
  expect("rate_sustained", checks::rate_sustained(0.9, 100.0, fresh, 0.5),
         !checks::rate_sustained(1.1, 100.0, fresh, 0.5) &&
             !checks::rate_sustained(0.9, 100.0, stale, 0.5));

  // A 10 s root span, 6 s of it waiting for inputs, 0.5 s unattributed:
  // 12.5% of the busy time, not the 5% a share of the wall time would show.
  expect("unattributed_pct",
         std::abs(checks::unattributed_pct(10.0, 0.5, 0.0) - 5.0) < 1e-9,
         checks::unattributed_pct(10.0, 0.5, 6.0) > 10.0);

  std::cout << (bad == 0 ? "self-test passed\n" : "self-test FAILED\n");
  return bad == 0 ? 0 : 1;
}

}  // namespace perf
