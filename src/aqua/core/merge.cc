#include "aqua/core/merge.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "aqua/common/status.h"

namespace aqua::merge {

Interval MergeIntervalSum(const std::vector<ShardPartial>& parts) {
  Interval total{0.0, 0.0};
  for (const ShardPartial& p : parts) {
    total.low += p.range.low;
    total.high += p.range.high;
  }
  return total;
}

double MergeExpectedSum(const std::vector<ShardPartial>& parts) {
  double total = 0.0;
  for (const ShardPartial& p : parts) total += p.expected;
  return total;
}

NormalApproximation MergeMoments(
    const std::vector<NormalApproximation>& parts) {
  NormalApproximation total;
  for (const NormalApproximation& p : parts) {
    total.mean += p.mean;
    total.variance += p.variance;
  }
  return total;
}

Result<Distribution> MergeCountDistributions(
    const std::vector<ShardPartial>& parts, ExecContext* ctx) {
  // Dense DP vector indexed by count, folded one shard at a time in shard
  // order. Starting from the point mass at zero makes an all-empty input
  // merge to COUNT = 0 with probability 1, matching the serial DP on an
  // empty row set.
  std::vector<double> acc{1.0};
  for (size_t s = 0; s < parts.size(); ++s) {
    const Distribution& dist = parts[s].dist;
    if (dist.empty()) continue;  // convolution identity
    long long max_count = 0;
    for (const Distribution::Entry& e : dist.entries()) {
      const long long c = std::llround(e.outcome);
      if (c < 0 || static_cast<double>(c) != e.outcome) {  // aqua-lint: allow(float-equality) integral-outcome validation
        return Status::InvalidArgument(
            "MergeCountDistributions: shard " + std::to_string(s) +
            " has non-integer or negative COUNT outcome " +
            std::to_string(e.outcome));
      }
      max_count = std::max(max_count, c);
    }
    if (s > 0) {
      AQUA_RETURN_NOT_OK(ExecCharge(ctx, acc.size() * dist.entries().size()));
    }
    std::vector<double> next(acc.size() + static_cast<size_t>(max_count),
                             0.0);
    for (size_t i = 0; i < acc.size(); ++i) {
      if (acc[i] == 0.0) continue;  // aqua-lint: allow(float-equality) exact-zero skip
      for (const Distribution::Entry& e : dist.entries()) {
        const size_t c = static_cast<size_t>(std::llround(e.outcome));
        next[i + c] += acc[i] * e.prob;
      }
    }
    acc = std::move(next);
  }
  // Emit in ascending count order, skipping zero cells, exactly as the
  // serial DP emits its final band.
  Distribution out;
  for (size_t c = 0; c < acc.size(); ++c) {
    if (acc[c] > 0.0) out.AddMass(static_cast<double>(c), acc[c]);
  }
  return out;
}

Result<NaiveAnswer> MergeExtremeDistributions(
    const std::vector<ShardPartial>& parts, bool is_max, ExecContext* ctx) {
  const size_t num_shards = parts.size();

  // Union grid of outcomes, swept ascending for MAX (CDF product) and
  // descending for MIN (survival-function product).
  std::vector<double> grid;
  for (const ShardPartial& p : parts) {
    for (const Distribution::Entry& e : p.dist.entries()) {
      grid.push_back(e.outcome);
    }
  }
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
  if (!is_max) std::reverse(grid.begin(), grid.end());
  if (num_shards > 1) {
    AQUA_RETURN_NOT_OK(ExecCharge(ctx, grid.size() * (num_shards - 1)));
  }

  // Per-shard running mass g[s] = Pr(shard extremum undefined or already
  // passed on the sweep), seeded with the shard's undefined mass. The
  // product over shards at grid point x is Pr(combined extremum undefined
  // or <= x) for MAX (>= x for MIN); successive differences are the atoms.
  std::vector<double> g(num_shards);
  std::vector<size_t> pos(num_shards, 0);
  double prev = 1.0;
  for (size_t s = 0; s < num_shards; ++s) {
    g[s] = parts[s].undefined_mass;
    prev *= parts[s].undefined_mass;
  }
  const double undefined = prev;

  Distribution out;
  for (const double x : grid) {
    for (size_t s = 0; s < num_shards; ++s) {
      const std::vector<Distribution::Entry>& entries =
          parts[s].dist.entries();
      if (is_max) {
        while (pos[s] < entries.size() && entries[pos[s]].outcome <= x) {
          g[s] += entries[pos[s]].prob;
          ++pos[s];
        }
      } else {
        // MIN sweeps the sorted entries from the top down.
        while (pos[s] < entries.size() &&
               entries[entries.size() - 1 - pos[s]].outcome >= x) {
          g[s] += entries[entries.size() - 1 - pos[s]].prob;
          ++pos[s];
        }
      }
    }
    double cdf = 1.0;
    for (size_t s = 0; s < num_shards; ++s) cdf *= g[s];
    const double atom = cdf - prev;
    if (atom > 0.0) out.AddMass(x, atom);
    prev = cdf;
  }

  // Atoms for MIN were emitted in descending outcome order; AddMass keeps
  // the entry list sorted, so `out` is already canonical.
  NaiveAnswer answer;
  answer.distribution = std::move(out);
  answer.undefined_mass = undefined;
  return answer;
}

}  // namespace aqua::merge
