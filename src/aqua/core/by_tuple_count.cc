#include "aqua/core/by_tuple_count.h"

#include <algorithm>
#include <cmath>

#include "aqua/common/check.h"
#include "aqua/core/by_tuple_common.h"
#include "aqua/obs/trace.h"

namespace aqua {
namespace {

using by_tuple_internal::TupleSatisfies;

/// Tuples folded per wavefront block of the COUNT distribution DP, and
/// cells per chunk within a block. Both are fixed constants — the
/// partition is a pure function of the problem size, never of the thread
/// count, which is what makes the answer bit-identical for any --threads.
constexpr size_t kDpBlockTuples = 256;
constexpr size_t kDpChunkCells = 4096;

/// Rows per chunk of the O(n*m) occurrence-probability scan.
constexpr size_t kOccChunkRows = 4096;

/// Paranoid invariant (Theorem 2): after every wavefront block the DP row
/// is a probability distribution — each cell in [0, 1] and the row mass 1.
/// The recurrence preserves mass *algebraically* for any occ (occ +
/// (1 - occ) = 1), so a drifting mass means FP corruption or a halo bug in
/// the parallel schedule, exactly the failure TSan cannot see. Tolerance
/// scales with the number of folds: each of the n updates contributes a
/// few ulps of rounding on a mass of ~1.
void ParanoidCheckDpRowMass(const std::vector<double>& row, size_t block,
                            size_t tuples_folded) {
  double mass = 0.0;
  for (const double p : row) {
    AQUA_CHECK_PROB(p) << "(DP cell after block at tuple " << block << ")";
    mass += p;
  }
  AQUA_CHECK(std::fabs(mass - 1.0) <=
             1e-9 + 1e-13 * static_cast<double>(tuples_folded))
      << "COUNT DP row mass drifted to " << mass << " after folding "
      << tuples_folded << " tuples (block at " << block << ")";
}

/// One chunk of one wavefront block: folds `tuples` tuples (occurrence
/// probabilities `occs[first_tuple ...]`) into cells [chunk.begin,
/// chunk.end) of the next DP array, reading the previous array `cur`.
///
/// The fold is the serial recurrence run on a local window with a halo of
/// `tuples` extra cells on the left: an in-place descending update leaves
/// the window's leftmost cell stale, so after k tuples the cells
/// [ext_lo, ext_lo + k) are garbage — but the garbage front advances one
/// cell per tuple, so after `tuples` tuples the cells [chunk.begin,
/// chunk.end) are exactly what the serial fold would have produced. Every
/// thread count runs this same function over the same chunks, so the bits
/// match.
Status CountDpChunk(const std::vector<double>& occs, size_t first_tuple,
                    size_t tuples, const exec::Chunk& chunk,
                    const std::vector<double>& cur, std::vector<double>* nxt,
                    ExecContext* child) {
  const size_t lo = chunk.begin;
  const size_t hi = chunk.end;
  const size_t ext_lo = lo > tuples ? lo - tuples : 0;
  const size_t len = hi - ext_lo;
  // One step per (tuple, window cell) — the same order of work the serial
  // DP charges, plus the halo.
  AQUA_RETURN_NOT_OK(ExecCharge(child, tuples * len));
  std::vector<double> buf(cur.begin() + static_cast<ptrdiff_t>(ext_lo),
                          cur.begin() + static_cast<ptrdiff_t>(hi));
  for (size_t k = 0; k < tuples; ++k) {
    const double occ = occs[first_tuple + k];
    const double not_occ = 1.0 - occ;
    // Descending in-place update so buf[j-1] is still the pre-tuple value.
    for (size_t j = len - 1; j >= 1; --j) {
      buf[j] = buf[j] * not_occ + buf[j - 1] * occ;
    }
    if (ext_lo == 0) buf[0] *= not_occ;
  }
  std::copy(buf.begin() + static_cast<ptrdiff_t>(lo - ext_lo), buf.end(),
            nxt->begin() + static_cast<ptrdiff_t>(lo));
  return Status::OK();
}

Result<std::vector<Reformulator::MappingBinding>> BindCountQuery(
    const AggregateQuery& query, const PMapping& pmapping,
    const Table& source) {
  if (query.func != AggregateFunction::kCount) {
    return Status::InvalidArgument("ByTupleCount requires a COUNT query");
  }
  if (query.distinct) {
    return Status::Unimplemented(
        "COUNT(DISTINCT) has no PTIME by-tuple algorithm");
  }
  return Reformulator::BindAll(query, pmapping, source);
}

}  // namespace

Result<Interval> ByTupleCount::Range(const AggregateQuery& query,
                                     const PMapping& pmapping,
                                     const Table& source,
                                     RowSpan rows,
                                     ExecContext* ctx) {
  obs::TraceSpan span("ByTupleCount::Range");
  AQUA_ASSIGN_OR_RETURN(std::vector<Reformulator::MappingBinding> bindings,
                        BindCountQuery(query, pmapping, source));
  // O(n*m) single pass: charge the whole scan up front (exact for the step
  // budget, one clock read for the deadline).
  AQUA_RETURN_NOT_OK(
      ExecCharge(ctx, rows.size(source.num_rows()) * bindings.size()));
  AQUA_RETURN_NOT_OK(ExecCheckNow(ctx));
  // Paper Figure 2: low counts tuples satisfying under all mappings, up
  // counts tuples satisfying under at least one.
  int64_t low = 0;
  int64_t up = 0;
  rows.ForEach(source.num_rows(), [&](size_t r) {
    bool all = true;
    bool any = false;
    for (const auto& b : bindings) {
      if (TupleSatisfies(b, source, r)) {
        any = true;
      } else {
        all = false;
      }
    }
    if (all) ++low;
    if (any) ++up;
  });
  return Interval{static_cast<double>(low), static_cast<double>(up)};
}

Result<Distribution> ByTupleCount::Dist(const AggregateQuery& query,
                                        const PMapping& pmapping,
                                        const Table& source,
                                        RowSpan rows,
                                        ExecContext* ctx,
                                        const exec::ExecPolicy& policy) {
  obs::TraceSpan span("ByTupleCount::Dist");
  if (ParanoidChecksEnabled()) pmapping.CheckInvariants();
  AQUA_ASSIGN_OR_RETURN(std::vector<Reformulator::MappingBinding> bindings,
                        BindCountQuery(query, pmapping, source));
  // Paper Figure 3: pd[c] = Pr(count over processed tuples == c).
  // Processing tuple i folds in occProb_i, the total probability of the
  // mappings under which tuple i satisfies the condition:
  //   pd[c] <- pd[c] * (1 - occ) + pd[c-1] * occ.
  const size_t n = rows.size(source.num_rows());
  const size_t m = bindings.size();

  // Phase 1: per-tuple occurrence probabilities — an embarrassingly
  // parallel O(n*m) scan.
  AQUA_RETURN_NOT_OK(ExecChargeBytes(ctx, n * sizeof(double)));
  std::vector<double> occs(n, 0.0);
  AQUA_RETURN_NOT_OK(exec::ParallelFor(
      policy, n, kOccChunkRows, ctx,
      [&](const exec::Chunk& chunk, ExecContext* child) -> Status {
        AQUA_RETURN_NOT_OK(ExecCharge(child, chunk.size() * m));
        for (size_t i = chunk.begin; i < chunk.end; ++i) {
          const size_t r = rows.row(i);
          double occ = 0.0;
          for (const auto& b : bindings) {
            if (TupleSatisfies(b, source, r)) occ += b.probability;
          }
          occs[i] = occ;
        }
        return Status::OK();
      }));
  // occProb_i sums candidate probabilities, so a corrupt p-mapping (mass
  // over 1, negative entries) surfaces here as an out-of-range occurrence
  // probability before it can poison the DP.
  if (ParanoidChecksEnabled()) {
    for (size_t i = 0; i < n; ++i) {
      AQUA_CHECK_PROB(occs[i]) << "(occurrence probability of tuple " << i
                               << ")";
    }
  }

  // Phase 2: the quadratic recurrence — the loop the paper's Figure 9
  // shows going intractable — as a blocked wavefront: fold kDpBlockTuples
  // tuples per block, with the cells of each block partitioned into
  // independent chunks (each recomputing a halo; see CountDpChunk). Cells
  // above the number of processed tuples hold exact zeros and the
  // recurrence keeps them zero, so folding the full band every block is
  // the serial recurrence in a different (deterministic) schedule.
  AQUA_RETURN_NOT_OK(ExecChargeBytes(ctx, 2 * (n + 1) * sizeof(double)));
  std::vector<double> cur(n + 1, 0.0);
  std::vector<double> nxt(n + 1, 0.0);
  cur[0] = 1.0;
  for (size_t block = 0; block < n; block += kDpBlockTuples) {
    const size_t tuples = std::min(kDpBlockTuples, n - block);
    const size_t cells = block + tuples + 1;
    AQUA_RETURN_NOT_OK(exec::ParallelFor(
        policy, cells, kDpChunkCells, ctx,
        [&](const exec::Chunk& chunk, ExecContext* child) -> Status {
          return CountDpChunk(occs, block, tuples, chunk, cur, &nxt, child);
        }));
    std::swap(cur, nxt);
    // The check runs on the merged array after the join, so it covers the
    // serial and every parallel schedule identically.
    if (ParanoidChecksEnabled()) {
      ParanoidCheckDpRowMass(cur, block, block + tuples);
    }
  }
  Distribution d;
  for (size_t c = 0; c <= n; ++c) {
    if (cur[c] > 0.0) d.AddMass(static_cast<double>(c), cur[c]);
  }
  AQUA_DCHECK(d.IsNormalized(1e-6))
      << "COUNT distribution mass " << d.TotalMass();
  return d;
}

Result<double> ByTupleCount::Expected(const AggregateQuery& query,
                                      const PMapping& pmapping,
                                      const Table& source,
                                      RowSpan rows,
                                      ExecContext* ctx) {
  obs::TraceSpan span("ByTupleCount::Expected");
  AQUA_ASSIGN_OR_RETURN(std::vector<Reformulator::MappingBinding> bindings,
                        BindCountQuery(query, pmapping, source));
  AQUA_RETURN_NOT_OK(
      ExecCharge(ctx, rows.size(source.num_rows()) * bindings.size()));
  AQUA_RETURN_NOT_OK(ExecCheckNow(ctx));
  // Linearity of expectation: E[COUNT] = sum_i Pr(tuple i satisfies C).
  double expected = 0.0;
  rows.ForEach(source.num_rows(), [&](size_t r) {
    for (const auto& b : bindings) {
      if (TupleSatisfies(b, source, r)) expected += b.probability;
    }
  });
  return expected;
}

Result<double> ByTupleCount::ExpectedViaDistribution(
    const AggregateQuery& query, const PMapping& pmapping,
    const Table& source, RowSpan rows, ExecContext* ctx,
    const exec::ExecPolicy& policy) {
  AQUA_ASSIGN_OR_RETURN(Distribution d,
                        Dist(query, pmapping, source, rows, ctx, policy));
  return d.Expectation();
}

}  // namespace aqua
