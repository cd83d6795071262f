#include "aqua/core/tuple_scan.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "aqua/core/row_lanes.h"

namespace aqua {

Status TupleScan::CheckShape(const AggregateQuery& query,
                             AggregateFunction func) {
  const std::string name(AggregateFunctionToString(func));
  if (query.func != func) {
    return Status::InvalidArgument(
        "expected a " + name + " query, got " +
        std::string(AggregateFunctionToString(query.func)));
  }
  if (query.distinct && func != AggregateFunction::kMin &&
      func != AggregateFunction::kMax) {
    return Status::Unimplemented(name +
                                 "(DISTINCT) has no PTIME by-tuple algorithm");
  }
  return Status::OK();
}

Result<TupleScan> TupleScan::Bind(const AggregateQuery& query,
                                  AggregateFunction func,
                                  const PMapping& pmapping,
                                  const Table& source) {
  AQUA_RETURN_NOT_OK(CheckShape(query, func));
  return Bind(query, pmapping, source);
}

Result<TupleScan> TupleScan::Bind(const AggregateQuery& query,
                                  const PMapping& pmapping,
                                  const Table& source) {
  TupleScan scan;
  scan.source_ = &source;
  AQUA_ASSIGN_OR_RETURN(scan.bindings_,
                        Reformulator::BindAll(query, pmapping, source));
  for (size_t j = 0; j < scan.bindings_.size(); ++j) {
    const BoundPredicate& predicate = scan.bindings_[j].predicate;
    scan.prob_.push_back(scan.bindings_[j].probability);
    size_t slot = 0;
    while (slot < scan.distinct_.size() &&
           !(scan.bindings_[scan.distinct_[slot]].predicate == predicate)) {
      ++slot;
    }
    if (slot == scan.distinct_.size()) scan.distinct_.push_back(j);
    scan.slot_.push_back(slot);
  }
  return scan;
}

namespace {

using lanes::Blend;
using lanes::kByteOnes;
using lanes::kGroup;
using lanes::kPairs;
using lanes::Less;
using lanes::Load2;
using lanes::LoadWord;
using lanes::SpreadMasks;
using lanes::Store2;
using lanes::Vec2d;
using lanes::Vec2l;

/// What COUNT(*) reads as its value: it has no attribute.
constexpr double kZeros[BoundPredicate::kBlock] = {};

/// A value block needs its own buffer unless it is a slice of a double
/// column: int64 and date cells widen, and an id list is gathered.
bool GathersValues(const Column* attribute, bool contiguous) {
  return attribute != nullptr &&
         (!contiguous || attribute->type() != ValueType::kDouble);
}

/// `out[i]` = `NumericAt` of the block's i-th row, one typed loop.
template <typename T>
void Gather(const T* cells, const uint32_t* ids, size_t first, size_t n,
            double* out) {
  if (ids != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<double>(cells[ids[first + i]]);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<double>(cells[first + i]);
    }
  }
}

void GatherNumeric(const Column& column, const uint32_t* ids, size_t first,
                   size_t n, double* out) {
  switch (column.type()) {
    case ValueType::kInt64:
      return Gather(column.ints().data(), ids, first, n, out);
    case ValueType::kDouble:
      return Gather(column.doubles().data(), ids, first, n, out);
    case ValueType::kDate:
      return Gather(column.date_days().data(), ids, first, n, out);
    default:
      // Binding admits only numeric aggregated attributes.
      std::fill(out, out + n, 0.0);
  }
}

}  // namespace

TupleScan::BlockScratch::BlockScratch(const TupleScan& scan, size_t block,
                                      bool contiguous)
    : block(block), lanes(scan.bindings_.size()) {
  const size_t m = scan.bindings_.size();
  size_t null_blocks = 0;
  size_t value_blocks = 0;
  for (const Reformulator::MappingBinding& b : scan.bindings_) {
    null_blocks += b.attribute != nullptr && b.attribute->has_nulls();
    value_blocks += GathersValues(b.attribute, contiguous);
  }
  bytes.resize((scan.distinct_.size() + null_blocks + 2) * block);
  values.resize((value_blocks + 2) * block);
  view.m_ = m;
  view.lanes_ = lanes.data();
  view.prob_ = scan.prob_.data();
  view.any_ = bytes.data() + bytes.size() - 2 * block;
  view.all_ = view.any_ + block;
  view.vmin_ = values.data() + values.size() - 2 * block;
  view.vmax_ = view.vmin_ + block;
}

const TupleBlock& TupleScan::FillBlock(const uint32_t* ids, size_t first,
                                       size_t n,
                                       BlockScratch* scratch) const {
  const size_t block = scratch->block;
  uint8_t* const match = scratch->bytes.data();
  for (size_t p = 0; p < distinct_.size(); ++p) {
    bindings_[distinct_[p]].predicate.MatchBlock(
        *source_, ids, first, n, match + p * block, &scratch->nodes);
  }
  uint8_t* own_sat = match + distinct_.size() * block;
  double* own_value = scratch->values.data();
  for (size_t j = 0; j < bindings_.size(); ++j) {
    const Column* const attribute = bindings_[j].attribute;
    TupleBlock::Lane& lane = scratch->lanes[j];
    lane.sat = match + slot_[j] * block;
    if (attribute != nullptr && attribute->has_nulls()) {
      // SQL aggregates skip NULLs: AND the match with not-NULL.
      const uint8_t* const nulls = attribute->nulls().data();
      for (size_t i = 0; i < n; ++i) {
        const size_t r = ids != nullptr ? ids[first + i] : first + i;
        own_sat[i] = lane.sat[i] & (nulls[r] ^ 1);
      }
      lane.sat = own_sat;
      own_sat += block;
    }
    if (attribute == nullptr) {
      lane.value = kZeros;
    } else if (!GathersValues(attribute, ids == nullptr)) {
      lane.value = attribute->doubles().data() + first;  // zero-copy
    } else {
      GatherNumeric(*attribute, ids, first, n, own_value);
      lane.value = own_value;
      own_value += block;
    }
  }
  TupleBlock& view = scratch->view;
  view.ids_ = ids;
  view.first_ = first;
  view.n_ = n;
  return view;
}

TupleBlock::Summary TupleBlock::AnyAll() const {
  uint8_t* const any = any_;
  uint8_t* const all = all_;
  // OR and AND act on each byte of a word alone.
  const uint64_t all_init = m_ > 0 ? kByteOnes : 0;
  size_t i = 0;
  for (; i + kGroup <= n_; i += kGroup) {
    uint64_t a = 0;
    uint64_t l = all_init;
    for (size_t j = 0; j < m_; ++j) {
      const uint64_t s = LoadWord(lanes_[j].sat + i);
      a |= s;
      l &= s;
    }
    std::memcpy(any + i, &a, sizeof a);
    std::memcpy(all + i, &l, sizeof l);
  }
  for (; i < n_; ++i) {
    uint8_t a = 0;
    auto l = static_cast<uint8_t>(all_init & 1);
    for (size_t j = 0; j < m_; ++j) {
      a |= lanes_[j].sat[i];
      l &= lanes_[j].sat[i];
    }
    any[i] = a;
    all[i] = l;
  }
  return Summary{any, all, vmin_, vmax_};
}

TupleBlock::Summary TupleBlock::Extremes() const {
  // A row's first satisfying value starts both extremes; later ones
  // replace them as std::min(vmin, x) / std::max(vmax, x) would, NaNs
  // included: vmin takes x where x < vmin, vmax where vmax < x.
  const Summary out = AnyAll();
  size_t i = 0;
  for (; i + kGroup <= n_ && m_ > 0; i += kGroup) {
    Vec2l s[kPairs] = {};
    Vec2l unseen[kPairs] = {};
    Vec2d lo[kPairs] = {};
    Vec2d hi[kPairs] = {};
    SpreadMasks(LoadWord(lanes_[0].sat + i), s);
    lanes::EachPair([&](size_t k) {
      lo[k] = Blend(s[k], Load2(lanes_[0].value + i + 2 * k), Vec2d{});
      hi[k] = lo[k];
      unseen[k] = ~s[k];
    });
    for (size_t j = 1; j < m_; ++j) {
      SpreadMasks(LoadWord(lanes_[j].sat + i), s);
      const double* const v = lanes_[j].value + i;
      lanes::EachPair([&](size_t k) {
        const Vec2d x = Load2(v + 2 * k);
        lo[k] = Blend(s[k] & (unseen[k] | Less(x, lo[k])), x, lo[k]);
        hi[k] = Blend(s[k] & (unseen[k] | Less(hi[k], x)), x, hi[k]);
        unseen[k] &= ~s[k];
      });
    }
    lanes::EachPair([&](size_t k) {
      Store2(vmin_ + i + 2 * k, lo[k]);
      Store2(vmax_ + i + 2 * k, hi[k]);
    });
  }
  for (; i < n_; ++i) {
    uint8_t seen = 0;
    double lo = 0.0;
    double hi = 0.0;
    for (size_t j = 0; j < m_; ++j) {
      const uint8_t s = lanes_[j].sat[i];
      const double x = lanes_[j].value[i];
      const uint8_t first = s & (seen ^ 1);
      lo = Select(s & (first | static_cast<uint8_t>(x < lo)), x, lo);
      hi = Select(s & (first | static_cast<uint8_t>(hi < x)), x, hi);
      seen |= s;
    }
    vmin_[i] = lo;
    vmax_[i] = hi;
  }
  return out;
}

void TupleBlock::Occ(double* occ) const {
  // Each sum starts at +0.0 and a non-satisfying mapping adds +0.0, which
  // leaves its bits.
  size_t i = 0;
  for (; i + kGroup <= n_; i += kGroup) {
    Vec2d sum[kPairs] = {};
    for (size_t j = 0; j < m_; ++j) {
      Vec2l s[kPairs] = {};
      SpreadMasks(LoadWord(lanes_[j].sat + i), s);
      const Vec2d p = {prob_[j], prob_[j]};
      lanes::EachPair([&](size_t k) { sum[k] += Blend(s[k], p, Vec2d{}); });
    }
    lanes::EachPair([&](size_t k) { Store2(occ + i + 2 * k, sum[k]); });
  }
  for (; i < n_; ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < m_; ++j) {
      sum += Select(lanes_[j].sat[i], prob_[j], 0.0);
    }
    occ[i] = sum;
  }
}

Result<TupleMappingGrid> BuildTupleMappingGrid(const AggregateQuery& query,
                                               const PMapping& pmapping,
                                               const Table& source,
                                               RowSpan rows) {
  AQUA_ASSIGN_OR_RETURN(TupleScan scan,
                        TupleScan::Bind(query, query.func, pmapping, source));
  TupleMappingGrid grid;
  grid.n = rows.size(source.num_rows());
  grid.m = scan.num_mappings();
  grid.prob = scan.probabilities();
  grid.satisfies.reserve(grid.n * grid.m);
  grid.value.reserve(grid.n * grid.m);
  AQUA_RETURN_NOT_OK(
      scan.Run(rows, /*ctx=*/nullptr, [&](const TupleBlock& block) {
        for (size_t i = 0; i < block.size(); ++i) {
          for (size_t j = 0; j < block.m(); ++j) {
            const uint8_t sat = block.sat(j)[i];
            grid.satisfies.push_back(sat);
            grid.value.push_back(
                TupleBlock::Select(sat, block.value(j)[i], 0.0));
          }
        }
      }));
  return grid;
}

}  // namespace aqua
