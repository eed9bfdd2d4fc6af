#ifndef QDCBIR_SERVE_JSON_MINI_H_
#define QDCBIR_SERVE_JSON_MINI_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "qdcbir/core/status.h"

namespace qdcbir {
namespace serve {

/// A minimal JSON document model for the admin server's request bodies.
/// Covers all of RFC 8259 except that numbers are held as doubles (the
/// API's ids and seeds fit a double's 53-bit integer range). Not a
/// general-purpose JSON library — no streaming, no comments, inputs are
/// bounded by the HTTP body limit.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> items;                           ///< kArray
  std::vector<std::pair<std::string, JsonValue>> fields;  ///< kObject

  /// First field with the given key (objects preserve insertion order);
  /// nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// The field's value, or `fallback` when the field is absent or is not
  /// an integer in u64 range. For trusted documents (server replies).
  std::uint64_t U64Field(std::string_view key, std::uint64_t fallback) const;

  /// The field's value for a client-supplied field: `fallback` when the
  /// field is absent, InvalidArgument naming the field when it is present
  /// but not an integer in [0, max].
  StatusOr<std::uint64_t> UintField(
      std::string_view key, std::uint64_t fallback,
      std::uint64_t max = UINT64_MAX) const;

  /// Stores the value and returns true when this is a number holding an
  /// integer in [0, max]; false (for fractions, negatives, out-of-range
  /// values and non-numbers) otherwise. Never converts an unrepresentable
  /// double.
  bool AsUint(std::uint64_t max, std::uint64_t* out) const;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
};

/// Parses one JSON document (with optional surrounding whitespace).
/// Trailing non-whitespace bytes are an error.
StatusOr<JsonValue> ParseJson(std::string_view text);

/// `s` as a quoted, escaped JSON string literal (`obs::AppendJsonString`).
std::string JsonQuote(std::string_view s);

}  // namespace serve
}  // namespace qdcbir

#endif  // QDCBIR_SERVE_JSON_MINI_H_
