#include "aqua/expr/predicate.h"

#include <cstring>
#include <type_traits>

namespace aqua {

std::string_view CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

PredicatePtr Predicate::True() {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kTrue;
  return p;
}

PredicatePtr Predicate::Comparison(std::string attribute, CompareOp op,
                                   Value literal) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kComparison;
  p->attribute_ = std::move(attribute);
  p->op_ = op;
  p->literal_ = std::move(literal);
  return p;
}

PredicatePtr Predicate::And(PredicatePtr left, PredicatePtr right) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kAnd;
  p->left_ = std::move(left);
  p->right_ = std::move(right);
  return p;
}

PredicatePtr Predicate::Or(PredicatePtr left, PredicatePtr right) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kOr;
  p->left_ = std::move(left);
  p->right_ = std::move(right);
  return p;
}

PredicatePtr Predicate::Not(PredicatePtr operand) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kNot;
  p->left_ = std::move(operand);
  return p;
}

void Predicate::CollectAttributes(std::vector<std::string>* out) const {
  switch (kind_) {
    case Kind::kTrue:
      return;
    case Kind::kComparison:
      out->push_back(attribute_);
      return;
    case Kind::kAnd:
    case Kind::kOr:
      left_->CollectAttributes(out);
      right_->CollectAttributes(out);
      return;
    case Kind::kNot:
      left_->CollectAttributes(out);
      return;
  }
}

Result<PredicatePtr> Predicate::RenameAttributes(
    const PredicatePtr& pred,
    const std::function<Result<std::string>(const std::string&)>& rename) {
  switch (pred->kind_) {
    case Kind::kTrue:
      return pred;
    case Kind::kComparison: {
      AQUA_ASSIGN_OR_RETURN(std::string name, rename(pred->attribute_));
      return Comparison(std::move(name), pred->op_, pred->literal_);
    }
    case Kind::kAnd: {
      AQUA_ASSIGN_OR_RETURN(PredicatePtr l,
                            RenameAttributes(pred->left_, rename));
      AQUA_ASSIGN_OR_RETURN(PredicatePtr r,
                            RenameAttributes(pred->right_, rename));
      return And(std::move(l), std::move(r));
    }
    case Kind::kOr: {
      AQUA_ASSIGN_OR_RETURN(PredicatePtr l,
                            RenameAttributes(pred->left_, rename));
      AQUA_ASSIGN_OR_RETURN(PredicatePtr r,
                            RenameAttributes(pred->right_, rename));
      return Or(std::move(l), std::move(r));
    }
    case Kind::kNot: {
      AQUA_ASSIGN_OR_RETURN(PredicatePtr l,
                            RenameAttributes(pred->left_, rename));
      return Not(std::move(l));
    }
  }
  return Status::Internal("corrupt predicate kind");
}

std::string Predicate::ToString() const {
  switch (kind_) {
    case Kind::kTrue:
      return "TRUE";
    case Kind::kComparison:
      return attribute_ + " " + std::string(CompareOpToString(op_)) + " " +
             literal_.ToString();
    case Kind::kAnd:
      return "(" + left_->ToString() + " AND " + right_->ToString() + ")";
    case Kind::kOr:
      return "(" + left_->ToString() + " OR " + right_->ToString() + ")";
    case Kind::kNot:
      return "(NOT " + left_->ToString() + ")";
  }
  return "?";
}

namespace {

bool TypesComparable(ValueType column, ValueType literal) {
  if (IsNumeric(column) && IsNumeric(literal)) return true;
  return column == literal;
}

// Kleene's connectives on the bits of truth bytes, eight bytes to a
// 64-bit word: TRUE (1) is bit 0, UNKNOWN (2) bit 1, FALSE (0) neither.
// Every operation acts on each byte alone, with no branch on the data;
// predicate_test checks them against TriAnd/TriOr/TriNot on all nine
// pairs.
constexpr uint64_t kLowBits = 0x0101010101010101u;  // bit 0 of every byte

uint64_t TrueBits(uint64_t x) { return x & kLowBits; }
uint64_t UnknownBits(uint64_t x) { return (x >> 1) & kLowBits; }
uint64_t TruthBytes(uint64_t true_bits, uint64_t unknown_bits) {
  return true_bits | (unknown_bits << 1);
}

/// FALSE if either side is, TRUE if both are, UNKNOWN otherwise.
constexpr auto kKleeneAnd = [](uint64_t a, uint64_t b) {
  const uint64_t t = TrueBits(a) & TrueBits(b);
  const uint64_t not_false =
      (TrueBits(a) | UnknownBits(a)) & (TrueBits(b) | UnknownBits(b));
  return TruthBytes(t, not_false & ~t);
};

/// TRUE if either side is, FALSE if both are, UNKNOWN otherwise.
constexpr auto kKleeneOr = [](uint64_t a, uint64_t b) {
  const uint64_t t = TrueBits(a) | TrueBits(b);
  return TruthBytes(t, (UnknownBits(a) | UnknownBits(b)) & ~t & kLowBits);
};

/// TRUE and FALSE swap; UNKNOWN stays. The right operand is ignored.
constexpr auto kKleeneNot = [](uint64_t a, uint64_t) {
  return TruthBytes(~(TrueBits(a) | UnknownBits(a)) & kLowBits,
                    UnknownBits(a));
};

/// `out[k] = op(l[k], r[k])` over a block of bytes, a word at a time.
template <typename Op, typename L, typename R, typename Out>
void CombineBlock(Op op, const L* l, const R* r, size_t n, Out* out) {
  static_assert(sizeof(L) == 1 && sizeof(R) == 1 && sizeof(Out) == 1);
  size_t k = 0;
  for (; k + sizeof(uint64_t) <= n; k += sizeof(uint64_t)) {
    uint64_t a = 0;
    uint64_t b = 0;
    std::memcpy(&a, l + k, sizeof a);
    std::memcpy(&b, r + k, sizeof b);
    const uint64_t c = op(a, b);
    std::memcpy(out + k, &c, sizeof c);
  }
  for (; k < n; ++k) {
    out[k] = static_cast<Out>(
        op(static_cast<uint64_t>(l[k]), static_cast<uint64_t>(r[k])));
  }
}

bool ApplyOp(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

// Two double cells per vector register (GCC/Clang vector extensions),
// and the integer vectors that narrow their compare masks to bytes.
using Vec2d = double __attribute__((vector_size(16)));
using Vec2l = int64_t __attribute__((vector_size(16)));
using Vec4i = int32_t __attribute__((vector_size(16)));
using Vec8s = int16_t __attribute__((vector_size(16)));
using Vec16b = int8_t __attribute__((vector_size(16)));

/// A cell's order against the literal as two masks, all ones where true
/// and zero where false: one int64 per cell, or one vector lane per cell.
/// `Value::Compare` returns -1 exactly where `lt`, +1 exactly where `gt`.
template <typename M>
struct Order {
  M lt;
  M gt;
};

template <typename M>
Order<M> MakeOrder(M lt, M gt) {
  return {lt, gt};
}
Order<int64_t> MakeOrder(bool lt, bool gt) {
  return {-static_cast<int64_t>(lt), -static_cast<int64_t>(gt)};
}

/// `ApplyOp` on an order: the mask of the cells where `op` holds.
template <CompareOp kOp, typename M>
M Holds(const Order<M>& o) {
  if constexpr (kOp == CompareOp::kEq) {
    return ~(o.lt | o.gt);
  } else if constexpr (kOp == CompareOp::kNe) {
    return o.lt | o.gt;
  } else if constexpr (kOp == CompareOp::kLt) {
    return o.lt;
  } else if constexpr (kOp == CompareOp::kLe) {
    return ~o.gt;
  } else if constexpr (kOp == CompareOp::kGt) {
    return o.gt;
  } else {
    static_assert(kOp == CompareOp::kGe);
    return ~o.lt;
  }
}

/// `Value::Compare`'s rule for a mixed or double pair: the sign of the
/// difference, so a NaN difference compares equal.
template <typename D>
auto DiffOrder(D x, double y) {
  const D d = x - y;
  return MakeOrder(d < 0.0, d > 0.0);
}

/// Sixteen 0/1 bytes, in lane order, from eight two-lane masks.
void NarrowMasks(const Vec2l (&m)[8], Tri* out) {
  auto half = [](Vec2l a, Vec2l b) {
    return __builtin_shufflevector(reinterpret_cast<Vec4i>(a),
                                   reinterpret_cast<Vec4i>(b), 0, 2, 4, 6);
  };
  auto quarter = [](Vec4i a, Vec4i b) {
    return __builtin_shufflevector(reinterpret_cast<Vec8s>(a),
                                   reinterpret_cast<Vec8s>(b), 0, 2, 4, 6, 8,
                                   10, 12, 14);
  };
  const Vec8s lo = quarter(half(m[0], m[1]), half(m[2], m[3]));
  const Vec8s hi = quarter(half(m[4], m[5]), half(m[6], m[7]));
  const Vec16b bytes =
      __builtin_shufflevector(reinterpret_cast<Vec16b>(lo),
                              reinterpret_cast<Vec16b>(hi), 0, 2, 4, 6, 8, 10,
                              12, 14, 16, 18, 20, 22, 24, 26, 28, 30) &
      1;
  std::memcpy(out, &bytes, sizeof bytes);
}

/// Writes TRUE where `op` holds between each of the `n` cells of `cells`
/// at rows `ids[first + i]` (or `first + i` when `ids` is null) and the
/// literal, FALSE elsewhere; `order(cell)` relates one cell to it. A
/// contiguous run of doubles is ordered two cells per vector, sixteen per
/// step, each lane computing exactly the scalar expression.
template <CompareOp kOp, typename T, typename OrderFn>
void CompareCells(const T* cells, const uint32_t* ids, size_t first,
                  size_t n, Tri* out, OrderFn order) {
  auto scalar = [&](const T& x) {
    return Holds<kOp>(order(x)) != 0 ? Tri::kTrue : Tri::kFalse;
  };
  if (ids != nullptr) {
    ids += first;
    for (size_t i = 0; i < n; ++i) out[i] = scalar(cells[ids[i]]);
    return;
  }
  cells += first;
  size_t i = 0;
  if constexpr (std::is_same_v<T, double>) {
    constexpr size_t kStep = 16;
    for (; i + kStep <= n; i += kStep) {
      Vec2l masks[kStep / 2];
      for (size_t k = 0; k < kStep / 2; ++k) {
        Vec2d x;
        std::memcpy(&x, cells + i + 2 * k, sizeof x);
        masks[k] = Holds<kOp>(order(x));
      }
      NarrowMasks(masks, out + i);
    }
  }
  for (; i < n; ++i) out[i] = scalar(cells[i]);
}

/// `CompareCells` with the operator fixed outside the loop.
template <typename T, typename OrderFn>
void CompareCells(CompareOp op, const T* cells, const uint32_t* ids,
                  size_t first, size_t n, Tri* out, OrderFn order) {
  switch (op) {
    case CompareOp::kEq:
      return CompareCells<CompareOp::kEq>(cells, ids, first, n, out, order);
    case CompareOp::kNe:
      return CompareCells<CompareOp::kNe>(cells, ids, first, n, out, order);
    case CompareOp::kLt:
      return CompareCells<CompareOp::kLt>(cells, ids, first, n, out, order);
    case CompareOp::kLe:
      return CompareCells<CompareOp::kLe>(cells, ids, first, n, out, order);
    case CompareOp::kGt:
      return CompareCells<CompareOp::kGt>(cells, ids, first, n, out, order);
    case CompareOp::kGe:
      return CompareCells<CompareOp::kGe>(cells, ids, first, n, out, order);
  }
}

}  // namespace

Result<int> BoundPredicate::Compile(const PredicatePtr& pred,
                                    const Schema& schema) {
  Node node;
  node.kind = pred->kind();
  switch (pred->kind()) {
    case Predicate::Kind::kTrue:
      break;
    case Predicate::Kind::kComparison: {
      AQUA_ASSIGN_OR_RETURN(size_t col, schema.IndexOf(pred->attribute()));
      const ValueType col_type = schema.attribute(col).type;
      if (pred->literal().is_null()) {
        return Status::InvalidArgument(
            "comparison with NULL literal on attribute '" +
            pred->attribute() + "' (always UNKNOWN)");
      }
      Value literal = pred->literal();
      // SQL writes date literals as quoted strings ('2008-1-20'); coerce
      // them when the column side is a date.
      if (col_type == ValueType::kDate &&
          literal.type() == ValueType::kString) {
        AQUA_ASSIGN_OR_RETURN(Date d, Date::Parse(literal.str()));
        literal = Value::FromDate(d);
      }
      if (!TypesComparable(col_type, literal.type())) {
        return Status::InvalidArgument(
            "literal " + literal.ToString() +
            " is not comparable with attribute '" + pred->attribute() +
            "' of type " + std::string(ValueTypeToString(col_type)));
      }
      node.column = col;
      node.op = pred->op();
      // The literal in the form the block compare reads, as
      // `Value::Compare` would convert it.
      switch (col_type) {
        case ValueType::kInt64:
          if (literal.type() == ValueType::kInt64) {
            node.compare = CellCompare::kInt64;
            node.int_literal = literal.int64();
          } else {
            node.compare = CellCompare::kIntToDouble;
            node.double_literal = literal.dbl();
          }
          break;
        case ValueType::kDouble:
          node.compare = CellCompare::kDouble;
          node.double_literal = literal.type() == ValueType::kInt64
                                    ? static_cast<double>(literal.int64())
                                    : literal.dbl();
          break;
        case ValueType::kDate:
          node.compare = CellCompare::kDate;
          node.int_literal = literal.date().days_since_epoch();
          break;
        default:
          node.compare = CellCompare::kString;
          break;
      }
      node.literal = std::move(literal);
      break;
    }
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr: {
      AQUA_ASSIGN_OR_RETURN(node.left, Compile(pred->left(), schema));
      AQUA_ASSIGN_OR_RETURN(node.right, Compile(pred->right(), schema));
      break;
    }
    case Predicate::Kind::kNot: {
      AQUA_ASSIGN_OR_RETURN(node.left, Compile(pred->left(), schema));
      break;
    }
  }
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

Result<BoundPredicate> BoundPredicate::Bind(const PredicatePtr& pred,
                                            const Schema& schema) {
  if (pred == nullptr) {
    return Status::InvalidArgument("null predicate");
  }
  BoundPredicate bound;
  AQUA_ASSIGN_OR_RETURN(bound.root_, bound.Compile(pred, schema));
  return bound;
}

Tri BoundPredicate::Eval(const Table& table, size_t row) const {
  // Children precede parents in nodes_, so one forward pass suffices.
  // Predicates are tiny (a handful of nodes); a fixed local buffer avoids
  // allocation. Deep trees fall back to heap.
  constexpr size_t kInlineNodes = 16;
  Tri inline_buf[kInlineNodes];
  std::vector<Tri> heap_buf;
  Tri* vals = inline_buf;
  if (nodes_.size() > kInlineNodes) {
    heap_buf.resize(nodes_.size());
    vals = heap_buf.data();
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    switch (node.kind) {
      case Predicate::Kind::kTrue:
        vals[i] = Tri::kTrue;
        break;
      case Predicate::Kind::kComparison: {
        const Column& col = table.column(node.column);
        if (col.IsNull(row)) {
          vals[i] = Tri::kUnknown;
          break;
        }
        const Result<int> cmp =
            Value::Compare(col.GetValue(row), node.literal);
        // Bind() guarantees comparability, so a failure here is a bug; be
        // conservative and treat it as UNKNOWN.
        vals[i] = !cmp.ok()               ? Tri::kUnknown
                  : ApplyOp(node.op, *cmp) ? Tri::kTrue
                                           : Tri::kFalse;
        break;
      }
      case Predicate::Kind::kAnd:
        vals[i] = TriAnd(vals[node.left], vals[node.right]);
        break;
      case Predicate::Kind::kOr:
        vals[i] = TriOr(vals[node.left], vals[node.right]);
        break;
      case Predicate::Kind::kNot:
        vals[i] = TriNot(vals[node.left]);
        break;
    }
  }
  return vals[root_];
}

void BoundPredicate::MatchBlock(const Table& table, const uint32_t* ids,
                                size_t first, size_t n, uint8_t* out,
                                Scratch* scratch) const {
  if (scratch->size() < nodes_.size() * n) scratch->resize(nodes_.size() * n);
  Tri* const vals = scratch->data();
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    Tri* const v = vals + i * n;
    auto child = [&](int index) -> const Tri* {
      return vals + static_cast<size_t>(index) * n;
    };
    switch (node.kind) {
      case Predicate::Kind::kTrue:
        std::fill(v, v + n, Tri::kTrue);
        break;
      case Predicate::Kind::kComparison: {
        const Column& col = table.column(node.column);
        const CompareOp op = node.op;
        switch (node.compare) {
          case CellCompare::kInt64: {
            const int64_t y = node.int_literal;
            CompareCells(op, col.ints().data(), ids, first, n, v,
                         [y](int64_t x) { return MakeOrder(x < y, x > y); });
            break;
          }
          case CellCompare::kIntToDouble: {
            const double y = node.double_literal;
            CompareCells(op, col.ints().data(), ids, first, n, v,
                         [y](int64_t x) {
                           return DiffOrder(static_cast<double>(x), y);
                         });
            break;
          }
          case CellCompare::kDouble: {
            const double y = node.double_literal;
            CompareCells(op, col.doubles().data(), ids, first, n, v,
                         [y](auto x) { return DiffOrder(x, y); });
            break;
          }
          case CellCompare::kDate: {
            const auto y = static_cast<int32_t>(node.int_literal);
            CompareCells(op, col.date_days().data(), ids, first, n, v,
                         [y](int32_t x) { return MakeOrder(x < y, x > y); });
            break;
          }
          case CellCompare::kString: {
            // Views into the column's storage: no copy per cell.
            const std::string_view y = node.literal.str();
            CompareCells(op, col.strings().data(), ids, first, n, v,
                         [y](const std::string& x) {
                           const int c = std::string_view(x).compare(y);
                           return MakeOrder(c < 0, c > 0);
                         });
            break;
          }
        }
        if (col.has_nulls()) {
          // A NULL cell is UNKNOWN whatever the compare said: a byte
          // select on the 0/1 NULL flag, with no branch on the data.
          const uint8_t* const nulls = col.nulls().data();
          auto unknown_where = [](uint64_t truth, uint64_t null) {
            const uint64_t mask = null * 0xff;  // 0x00 or 0xff per byte
            return (truth & ~mask) | TruthBytes(0, null);
          };
          if (ids != nullptr) {
            for (size_t k = 0; k < n; ++k) {
              v[k] = static_cast<Tri>(unknown_where(
                  static_cast<uint64_t>(v[k]), nulls[ids[first + k]]));
            }
          } else {
            CombineBlock(unknown_where, v, nulls + first, n, v);
          }
        }
        break;
      }
      case Predicate::Kind::kAnd:
        CombineBlock(kKleeneAnd, child(node.left), child(node.right), n, v);
        break;
      case Predicate::Kind::kOr:
        CombineBlock(kKleeneOr, child(node.left), child(node.right), n, v);
        break;
      case Predicate::Kind::kNot:
        CombineBlock(kKleeneNot, child(node.left), child(node.left), n, v);
        break;
    }
  }
  // TRUE is exactly the bytes with bit 0 set.
  const Tri* const root = vals + static_cast<size_t>(root_) * n;
  CombineBlock([](uint64_t a, uint64_t) { return TrueBits(a); }, root, root,
               n, out);
}

}  // namespace aqua
