// Determinism-and-initialization vocabulary: the typed primitives that
// make the byte-identity contract auditable by a dumb grep.
//
// The whole system promises that payloads are byte-identical on every
// execution path (docs/architecture.md, "Invariants"). Two silent ways to
// break that promise survive every runtime sanitizer:
//
//   1. NONDETERMINISTIC ITERATION — walking a std::unordered_map /
//      std::unordered_set (or a pointer-keyed map: addresses vary run to
//      run) on a path that feeds CellAggregate::Merge, a gather fold, a
//      wire encoder or MetricRegistry::RenderText. The output is correct
//      per run and different across runs — no sanitizer fires.
//   2. UNINITIALIZED PADDING — memcpy'ing a whole struct into a wire
//      buffer copies its padding bytes, which are indeterminate. The
//      frame parses fine; its bytes differ across runs (and leak stack
//      contents to the peer). MSan catches it dynamically; this header
//      makes it a compile error.
//
// scripts/check_determinism.sh enforces the discipline textually (raw
// memcpy and unordered iteration are forbidden in the audited dirs
// unless routed through this header or carrying an audited
// `dbsa-lint-allow` tag), and scripts/determinism_probe.cc proves the
// static_asserts here are live — a bad instantiation must not compile.
//
// Everything here is C++17; std::bit_cast is C++20 and memcpy through a
// size/trivially-copyable-checked template is the standard pre-20
// spelling (the single sanctioned memcpy in the audited tree).

#ifndef DBSA_UTIL_DETERMINISM_H_
#define DBSA_UTIL_DETERMINISM_H_

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

namespace dbsa::util {

// ------------------------------------------------- padding-free copies

/// A type whose object representation has no padding bits that could
/// carry indeterminate values onto the wire: arithmetic types and enums
/// only. Aggregates — even "obviously packed" ones — are deliberately
/// excluded: field order, alignment and therefore padding are ABI
/// details, and the wire format encodes field-wise precisely so no ABI
/// detail can reach a frame.
template <typename T>
inline constexpr bool kIsWirePrimitive =
    std::is_arithmetic_v<std::remove_cv_t<T>> ||
    std::is_enum_v<std::remove_cv_t<T>>;

/// Bit-exact reinterpretation between two padding-free types of the same
/// size (double <-> uint64_t for IEEE-754 wire travel, hashing). The
/// C++17 spelling of std::bit_cast, restricted to wire primitives so a
/// struct can never smuggle padding through it.
template <typename To, typename From>
inline To BitCast(const From& from) {
  static_assert(sizeof(To) == sizeof(From),
                "BitCast: size mismatch — this is not a conversion");
  static_assert(kIsWirePrimitive<From> && kIsWirePrimitive<To>,
                "BitCast: wire primitives only — structs have padding whose "
                "bytes are indeterminate (encode field-wise instead)");
  To to;
  std::memcpy(&to, &from, sizeof(To));  // dbsa-lint-allow(memcpy): the one blessed copy — both sides statically proven padding-free above.
  return to;
}

/// Stores one wire primitive's object representation at `dst`
/// (host-endian; the supported targets are little-endian, same
/// convention as service/transport.h). Whole-struct stores do not
/// compile — THE guarantee that a padding byte can never reach a frame.
template <typename T>
inline void StoreWire(void* dst, const T& v) {
  static_assert(kIsWirePrimitive<T>,
                "StoreWire: field-wise encode only — a whole-struct store "
                "would copy indeterminate padding bytes into the frame");
  std::memcpy(dst, &v, sizeof(T));  // dbsa-lint-allow(memcpy): source statically proven padding-free above.
}

/// Loads one wire primitive from possibly-unaligned bytes at `src`.
template <typename T>
inline T LoadWire(const void* src) {
  static_assert(kIsWirePrimitive<T>,
                "LoadWire: field-wise decode only — whole-struct loads would "
                "bless reading a frame through an ABI-dependent layout");
  T v{};
  std::memcpy(&v, src, sizeof(T));  // dbsa-lint-allow(memcpy): destination statically proven padding-free above.
  return v;
}

// ------------------------------------------- deterministic iteration

namespace internal {
template <typename C, typename = void>
struct HasHasher : std::false_type {};
/// Every std::unordered_* container (and any hash container modeled on
/// them) exposes a `hasher` member type; the ordered associative
/// containers do not.
template <typename C>
struct HasHasher<C, std::void_t<typename C::hasher>> : std::true_type {};
}  // namespace internal

/// True for hash-ordered containers, whose iteration order depends on
/// hash seeding, insertion history and rehash points — never on the
/// keys alone.
template <typename C>
inline constexpr bool kIsHashOrdered =
    internal::HasHasher<std::remove_cv_t<std::remove_reference_t<C>>>::value;

/// Compile-time gate for generic code that iterates a container into a
/// merge, an encoder or a render: instantiating this on an unordered
/// container is a build failure (proven live by determinism_probe.cc).
template <typename C>
constexpr void RequireOrderedIteration() {
  static_assert(!kIsHashOrdered<C>,
                "deterministic path: iterating a hash-ordered container "
                "here would make the output depend on hash seeding — take "
                "a SortedKeys/SortedItems snapshot instead");
}

/// The blessed way to walk an unordered set-like container on a
/// deterministic path: a sorted snapshot of its keys. O(n log n) and an
/// extra copy — deliberately paid, because the alternative is output
/// bytes that depend on the hash seed.
template <typename C>
std::vector<typename C::key_type> SortedKeys(const C& container) {
  std::vector<typename C::key_type> keys;
  keys.reserve(container.size());
  for (const auto& entry : container) {
    if constexpr (std::is_same_v<typename C::value_type,
                                 typename C::key_type>) {
      keys.push_back(entry);
    } else {
      keys.push_back(entry.first);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// The blessed way to walk an unordered map on a deterministic path:
/// a (key, value) snapshot sorted by key.
template <typename C>
std::vector<std::pair<typename C::key_type, typename C::mapped_type>>
SortedItems(const C& container) {
  std::vector<std::pair<typename C::key_type, typename C::mapped_type>> items;
  items.reserve(container.size());
  for (const auto& [key, value] : container) items.emplace_back(key, value);
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return items;
}

}  // namespace dbsa::util

#endif  // DBSA_UTIL_DETERMINISM_H_
