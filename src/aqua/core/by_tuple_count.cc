#include "aqua/core/by_tuple_count.h"

#include <cmath>
#include <cstring>

#include "aqua/common/check.h"
#include "aqua/core/tuple_scan.h"
#include "aqua/obs/trace.h"

namespace aqua {
namespace {

/// Rows per chunk of the O(n*m) occurrence-probability scan.
constexpr size_t kOccChunkRows = 4096;

/// Folded tuples between two paranoid row-mass sweeps of the COUNT DP.
constexpr size_t kDpCheckTuples = 256;

/// Two DP cells in one vector register.
using Cells2 = double __attribute__((vector_size(16)));

/// Folds a tuple into cells [lo, hi + 1] of `pd` (all others are exactly
/// 0), descending and in place so that pd[c-1] is still the pre-tuple
/// value. Each vector lane computes the scalar expression, so pairing the
/// cells changes no bit; it halves the instructions, and with them the x86
/// microcode assists that subnormal cells in the underflowing tails cost.
void FoldTuple(double* pd, size_t lo, size_t hi, double occ) {
  const double not_occ = 1.0 - occ;
  const Cells2 occ2 = {occ, occ};
  const Cells2 not_occ2 = {not_occ, not_occ};
  const size_t first = lo == 0 ? 1 : lo;
  size_t c = hi + 1;
  for (; c > first; c -= 2) {  // cells c - 1 and c
    Cells2 cur{};
    Cells2 left{};
    std::memcpy(&cur, pd + c - 1, sizeof(cur));
    std::memcpy(&left, pd + c - 2, sizeof(left));
    cur = cur * not_occ2 + left * occ2;
    std::memcpy(pd + c - 1, &cur, sizeof(cur));
  }
  if (c == first) pd[c] = pd[c] * not_occ + pd[c - 1] * occ;
  if (lo == 0) pd[0] *= not_occ;
}

/// Paranoid invariant (Theorem 2): the band [lo, hi] holds the whole row
/// (cells outside it are exactly 0), each cell in [0, 1] and mass 1. The
/// recurrence preserves mass algebraically (occ + (1 - occ) = 1), so drift
/// means FP corruption or a band-tracking bug. Tolerance grows with the
/// folds, each contributing a few ulps of rounding.
void ParanoidCheckDpRowMass(const std::vector<double>& row, size_t lo,
                            size_t hi, size_t tuples_folded) {
  double mass = 0.0;
  for (size_t c = lo; c <= hi; ++c) {
    AQUA_CHECK_PROB(row[c]) << "(DP cell " << c << " after folding "
                            << tuples_folded << " tuples)";
    mass += row[c];
  }
  AQUA_CHECK(std::fabs(mass - 1.0) <=
             1e-9 + 1e-13 * static_cast<double>(tuples_folded))
      << "COUNT DP row mass drifted to " << mass << " after folding "
      << tuples_folded << " tuples (band [" << lo << ", " << hi << "])";
}

// The range and expected-value folds, one block per `Add` (not inlined:
// see `TupleScan::Run`).

/// Paper Figure 2: tuples satisfying under every mapping, and under at
/// least one.
struct RangeCountFold {
  int64_t low = 0;
  int64_t up = 0;

  [[gnu::noinline]] void Add(const TupleBlock& block) {
    const TupleBlock::Summary s = block.AnyAll();
    low += CountOnes(s.all, block.size());
    up += CountOnes(s.any, block.size());
  }

  /// The number of 1s among `n` 0/1 bytes, eight at a time: the bytes of
  /// a word times 0x0101...01 sum into its top byte.
  static int64_t CountOnes(const uint8_t* bytes, size_t n) {
    constexpr uint64_t kOnes = 0x0101010101010101u;
    int64_t count = 0;
    size_t i = 0;
    for (; i + sizeof(uint64_t) <= n; i += sizeof(uint64_t)) {
      uint64_t word = 0;
      std::memcpy(&word, bytes + i, sizeof word);
      count += static_cast<int64_t>((word * kOnes) >> 56);
    }
    for (; i < n; ++i) count += bytes[i];
    return count;
  }
};

/// E[COUNT] = sum over (tuple, mapping) of Pr(m_j) * [satisfies], rows in
/// order and mappings in binding order. prob * sat is exactly prob or
/// +0.0, so the total keeps the bits of a sum over the satisfying
/// mappings, without a data-dependent branch.
struct ExpectedCountFold {
  double sum = 0.0;

  [[gnu::noinline]] void Add(const TupleBlock& block) {
    const double* const prob = block.prob();
    double total = sum;
    for (size_t i = 0; i < block.size(); ++i) {
      for (size_t j = 0; j < block.m(); ++j) {
        total += prob[j] * block.sat(j)[i];
      }
    }
    sum = total;
  }
};

}  // namespace

Result<Interval> ByTupleCount::Range(const AggregateQuery& query,
                                     const PMapping& pmapping,
                                     const Table& source,
                                     RowSpan rows,
                                     ExecContext* ctx) {
  obs::TraceSpan span("ByTupleCount::Range");
  AQUA_ASSIGN_OR_RETURN(
      TupleScan scan,
      TupleScan::Bind(query, AggregateFunction::kCount, pmapping, source));
  // Paper Figure 2: low counts tuples satisfying under all mappings, up
  // counts tuples satisfying under at least one.
  RangeCountFold fold;
  AQUA_RETURN_NOT_OK(scan.Run(rows, ctx, [&](const TupleBlock& block) {
    fold.Add(block);
  }));
  return Interval{static_cast<double>(fold.low), static_cast<double>(fold.up)};
}

Result<Distribution> ByTupleCount::Dist(const AggregateQuery& query,
                                        const PMapping& pmapping,
                                        const Table& source,
                                        RowSpan rows,
                                        ExecContext* ctx,
                                        const exec::ExecPolicy& policy) {
  obs::TraceSpan span("ByTupleCount::Dist");
  if (ParanoidChecksEnabled()) pmapping.CheckInvariants();
  AQUA_ASSIGN_OR_RETURN(
      TupleScan scan,
      TupleScan::Bind(query, AggregateFunction::kCount, pmapping, source));
  // Paper Figure 3: pd[c] = Pr(count over processed tuples == c).
  // Processing tuple i folds in occProb_i, the total probability of the
  // mappings under which tuple i satisfies the condition:
  //   pd[c] <- pd[c] * (1 - occ) + pd[c-1] * occ.
  const size_t n = rows.size(source.num_rows());

  // Phase 1: per-tuple occurrence probabilities — an embarrassingly
  // parallel O(n*m) scan.
  AQUA_RETURN_NOT_OK(ExecChargeBytes(ctx, n * sizeof(double)));
  std::vector<double> occs(n, 0.0);
  AQUA_RETURN_NOT_OK(exec::ParallelFor(
      policy, n, kOccChunkRows, ctx,
      [&](const exec::Chunk& chunk, ExecContext* child) -> Status {
        double* out = occs.data() + chunk.begin;
        return scan.Run(rows.Sub(chunk.begin, chunk.end), child,
                        [&](const TupleBlock& block) {
                          block.Occ(out);
                          out += block.size();
                        });
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

  // Phase 2: the quadratic recurrence of the paper's Figure 9 wall, over
  // the uncertain tuples only. On finite non-negative cells an occ = 0
  // update is x*1 + y*0 = x and an occ = 1 update is x*0 + y*1 = y, a
  // shift by one cell: certain tuples become a count offset. Occs at
  // 1 - eps (a float sum of mapping probabilities) stay in the DP.
  size_t certain = 0;
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    // aqua-lint: allow(float-equality) — exact 0/1 occs are the algebraic no-op and shift; anything else folds.
    if (occs[i] == 1.0) {
      ++certain;
    } else if (occs[i] != 0.0) {  // aqua-lint: allow(float-equality)
      occs[kept++] = occs[i];
    }
  }
  // A zero cell whose left neighbour is zero stays zero, so each fold
  // updates only the live band [lo, hi] and the cell above it, by the same
  // expression as the full recurrence; then the band sheds end cells that
  // became exactly 0 (underflowed tails).
  AQUA_RETURN_NOT_OK(ExecChargeBytes(ctx, (kept + 1) * sizeof(double)));
  std::vector<double> pd(kept + 1, 0.0);
  pd[0] = 1.0;
  size_t lo = 0;
  size_t hi = 0;
  for (size_t i = 0; i < kept; ++i) {
    AQUA_RETURN_NOT_OK(ExecCharge(ctx, hi + 2 - lo));
    FoldTuple(pd.data(), lo, hi, occs[i]);
    ++hi;
    while (hi > lo && pd[hi] == 0.0) --hi;  // aqua-lint: allow(float-equality)
    while (lo < hi && pd[lo] == 0.0) ++lo;  // aqua-lint: allow(float-equality)
    if (ParanoidChecksEnabled() &&
        ((i + 1) % kDpCheckTuples == 0 || i + 1 == kept)) {
      ParanoidCheckDpRowMass(pd, lo, hi, i + 1);
    }
  }
  Distribution d;
  for (size_t c = lo; c <= hi; ++c) {
    if (pd[c] > 0.0) d.AddMass(static_cast<double>(certain + c), pd[c]);
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
  AQUA_ASSIGN_OR_RETURN(
      TupleScan scan,
      TupleScan::Bind(query, AggregateFunction::kCount, pmapping, source));
  // Linearity of expectation: E[COUNT] = sum_i Pr(tuple i satisfies C).
  ExpectedCountFold fold;
  AQUA_RETURN_NOT_OK(scan.Run(rows, ctx, [&](const TupleBlock& block) {
    fold.Add(block);
  }));
  return fold.sum;
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
