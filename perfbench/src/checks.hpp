// Correctness and validity checks the benchmark runs after timing ends. Each
// one is a pure predicate over values the run produced, so the self-test can
// hand it a wrong answer and confirm it rejects it. Plain equality checks
// (trace hashes, migration logs, rebuild counts) are written inline at their
// call sites.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "core/allocation.hpp"
#include "util/stats.hpp"

namespace perf::checks {

/// Cached Eq. (2) total against the brute-force one (rel ≤ 1e-7).
inline bool totals_agree(double cached, double brute) {
  return std::abs(cached - brute) <= 1e-7 * (1.0 + std::abs(brute));
}

/// Every offered rate saw the same trigger sequence (batch indices).
inline bool same_triggers(const std::vector<std::vector<std::size_t>>& runs) {
  for (const auto& r : runs) {
    if (r != runs.front()) return false;
  }
  return !runs.empty();
}

/// `cost` is within `band` × `reference` (a fresh re-optimisation or the
/// centralized run of the same world).
inline bool within_band(double cost, double reference, double band) {
  return reference > 0.0 && std::isfinite(cost) && cost <= band * reference;
}

/// Two allocations place every VM on the same server.
inline bool allocations_equal(const score::core::Allocation& a,
                              const score::core::Allocation& b) {
  if (a.num_vms() != b.num_vms()) return false;
  for (score::core::VmId vm = 0; vm < a.num_vms(); ++vm) {
    if (a.server_of(vm) != b.server_of(vm)) return false;
  }
  return true;
}

/// The open-loop producer was punctual: the p90 of its lag behind the due
/// times is at most `max_share` of the batch period.
inline bool producer_punctual(const std::vector<double>& lag_s, double period_s,
                              double max_share) {
  return !lag_s.empty() &&
         score::util::percentile(lag_s, 90.0) <= max_share * period_s;
}

/// An offered rate is sustained when the backlog does not grow (the
/// consumer was busy for less than the span the batches were offered over)
/// and the staleness p99 meets `limit_s`.
inline bool rate_sustained(double busy_s, double rate,
                           const std::vector<double>& staleness_s, double limit_s) {
  return !staleness_s.empty() && rate > 0.0 &&
         busy_s < static_cast<double>(staleness_s.size()) / rate &&
         score::util::percentile(staleness_s, 99.0) <= limit_s;
}

/// Share (%) of the traced root span's busy time that no layer span covers.
/// `idle_s` is time the root spent blocked on its own inputs (for example
/// waiting for the open-loop producer); it counts neither as layer work nor
/// as unattributed time.
inline double unattributed_pct(double root_total_s, double root_self_s,
                               double idle_s) {
  const double busy_s = root_total_s - idle_s;
  return busy_s > 0.0 ? 100.0 * root_self_s / busy_s : 100.0;
}

}  // namespace perf::checks
