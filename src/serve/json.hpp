// Minimal JSON for the evaluation daemon's wire protocol (DESIGN.md §16).
//
// awe_serve speaks line-delimited JSON; this is the self-contained parser
// and serializer behind it.  Deliberately small: UTF-8 pass-through (no
// surrogate handling beyond \uXXXX → UTF-8), numbers are always double,
// objects preserve insertion order so serialization is deterministic.
// Depth-limited so a hostile request ("[[[[[...") cannot blow the stack —
// the daemon parses attacker-supplied bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace awe::serve::json {

/// Thrown by parse() with a byte offset and reason.
class ParseError : public std::runtime_error {
 public:
  ParseError(std::size_t offset, const std::string& what)
      : std::runtime_error("json: offset " + std::to_string(offset) + ": " + what),
        offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

struct Value {
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  ///< insertion order

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Object member lookup (first match); nullptr when absent or not an object.
  const Value* find(std::string_view key) const;
};

/// Parse one complete JSON document; trailing non-whitespace is an error.
/// `max_depth` bounds array/object nesting.
Value parse(std::string_view text, std::size_t max_depth = 64);

/// Serialize deterministically: members in insertion order, numbers as
/// append_number writes them, no whitespace.
std::string dump(const Value& v);

/// Escape and quote a string literal per JSON rules.
std::string quote(std::string_view s);
void append_quoted(std::string& out, std::string_view s);

/// The wire form of a double, byte-stable (DESIGN.md §16.1): "null" when
/// not finite; "%.0f" for integral values below 1e15; otherwise the
/// shortest of "%.15g", "%.16g" and "%.17g" that reads back as `d`.
void append_number(std::string& out, double d);
std::string number_to_string(double d);

/// Decimal digits of an unsigned integer.
void append_uint(std::string& out, std::uint64_t v);

}  // namespace awe::serve::json
