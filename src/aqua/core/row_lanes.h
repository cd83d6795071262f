#ifndef AQUA_CORE_ROW_LANES_H_
#define AQUA_CORE_ROW_LANES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

namespace aqua::lanes {

// The block folds of the by-tuple scan walk a block eight rows at a time,
// one 64-bit word of 0/1 bytes, with two rows per SSE2 register (GCC/Clang
// vector extensions); the rows after the last full group go one at a
// time. Each lane computes exactly the scalar expression, so grouping the
// rows changes no bit. A lane mask is all ones where true, zero where not.

using Vec2d = double __attribute__((vector_size(16)));
using Vec2l = int64_t __attribute__((vector_size(16)));

constexpr size_t kGroup = 8;           // rows per group
constexpr size_t kPairs = kGroup / 2;  // registers per group
constexpr uint64_t kByteOnes = 0x0101010101010101u;

/// The group's eight bytes as one word.
inline uint64_t LoadWord(const uint8_t* bytes) {
  uint64_t word = 0;
  std::memcpy(&word, bytes, sizeof word);
  return word;
}

/// The eight 0/1 bytes of `word`, in row order, as four pairs of lane
/// masks: each byte negated to 0x00/0xff, then widened to 64 bits by
/// unpacking it with itself.
inline void SpreadMasks(uint64_t word, Vec2l (&masks)[kPairs]) {
  using Vec4i = int32_t __attribute__((vector_size(16)));
  using Vec8s = int16_t __attribute__((vector_size(16)));
  using Vec16b = int8_t __attribute__((vector_size(16)));
  const Vec16b bytes =
      -reinterpret_cast<Vec16b>(Vec2l{static_cast<int64_t>(word), 0});
  const auto words = reinterpret_cast<Vec8s>(__builtin_shufflevector(
      bytes, bytes, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7));
  const Vec4i lo = reinterpret_cast<Vec4i>(
      __builtin_shufflevector(words, words, 0, 0, 1, 1, 2, 2, 3, 3));
  const Vec4i hi = reinterpret_cast<Vec4i>(
      __builtin_shufflevector(words, words, 4, 4, 5, 5, 6, 6, 7, 7));
  masks[0] =
      reinterpret_cast<Vec2l>(__builtin_shufflevector(lo, lo, 0, 0, 1, 1));
  masks[1] =
      reinterpret_cast<Vec2l>(__builtin_shufflevector(lo, lo, 2, 2, 3, 3));
  masks[2] =
      reinterpret_cast<Vec2l>(__builtin_shufflevector(hi, hi, 0, 0, 1, 1));
  masks[3] =
      reinterpret_cast<Vec2l>(__builtin_shufflevector(hi, hi, 2, 2, 3, 3));
}

inline Vec2d Load2(const double* v) {
  Vec2d x;
  std::memcpy(&x, v, sizeof x);
  return x;
}

inline void Store2(double* out, Vec2d x) { std::memcpy(out, &x, sizeof x); }

inline Vec2d Splat(double x) { return Vec2d{x, x}; }

/// The lane mask of `a < b`. (A vector compare's element type is the
/// compiler's choice of 64-bit integer; this names it.)
inline Vec2l Less(Vec2d a, Vec2d b) { return reinterpret_cast<Vec2l>(a < b); }

/// `mask ? a : b`, lane by lane, on the bits.
inline Vec2d Blend(Vec2l mask, Vec2d a, Vec2d b) {
  return reinterpret_cast<Vec2d>((reinterpret_cast<Vec2l>(a) & mask) |
                                 (reinterpret_cast<Vec2l>(b) & ~mask));
}

/// `step(k)` for the group's pairs k = 0..3, unrolled, so that arrays
/// indexed by k stay in registers.
template <typename Step>
void EachPair(Step&& step) {
  [&]<size_t... k>(std::index_sequence<k...>) {
    (step(k), ...);
  }(std::make_index_sequence<kPairs>{});
}

}  // namespace aqua::lanes

#endif  // AQUA_CORE_ROW_LANES_H_
