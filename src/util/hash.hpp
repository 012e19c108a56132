#pragma once
// FNV-1a fingerprinting for cache keys. Not cryptographic — a ROM-model key
// is one hash over the exact bits of every local-stage input, and the
// factorization keys are a readable prefix (block counts, solver options)
// plus a hash of the bulk numeric inputs (element matrices, constrained-dof
// sets, conductivity fields), so two scenarios collide only if every keyed
// input matches.

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace ms::util {

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Fold `size` bytes into a running FNV-1a state.
inline std::uint64_t fnv1a_bytes(const void* data, std::size_t size,
                                 std::uint64_t state = kFnvOffsetBasis) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state ^= bytes[i];
    state *= kFnvPrime;
  }
  return state;
}

/// Fold one scalar's bits: two doubles fold alike only when they are the
/// same value, which a rounded rendering such as %.3g does not guarantee.
template <typename T>
std::uint64_t fnv1a_value(T value, std::uint64_t state = kFnvOffsetBasis) {
  static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>,
                "fold struct fields one by one: padding bytes are indeterminate");
  return fnv1a_bytes(&value, sizeof(T), state);
}

/// Fold a trivially-copyable vector's payload (raw object bytes).
template <typename T>
std::uint64_t fnv1a(const std::vector<T>& values,
                    std::uint64_t state = kFnvOffsetBasis) {
  return values.empty() ? state
                        : fnv1a_bytes(values.data(), values.size() * sizeof(T), state);
}

}  // namespace ms::util
