// The text layer every library shares (DESIGN.md §16.1): the JSON of the
// evaluation daemon's wire protocol, and the two ways a double leaves the
// process as text.
//
// The parser and serializer are deliberately small: UTF-8 pass-through
// (no surrogate handling beyond \uXXXX → UTF-8), numbers are always double,
// objects preserve insertion order so serialization is deterministic.
// Depth-limited so a hostile request ("[[[[[...") cannot blow the stack —
// the daemon parses attacker-supplied bytes.  A leaf library: it depends
// on nothing else in the tree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace awe::json {

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

/// The rows consumer (DESIGN.md §16.1): the first `key` member of the
/// top-level object, when its value is a non-empty array of arrays of
/// exactly `width` numbers, is read straight into `values` (row-major)
/// and left out of the returned tree.  Any other shape, or any error inside
/// it, rewinds to the value's first byte and parses it into the tree, so
/// every accepted double, error message and offset is the tree's own.
struct Rows {
  Rows(std::string_view key, std::size_t width) : key(key), width(width) {}

  std::string_view key;
  std::size_t width;           ///< numbers per row; 0 never captures
  std::vector<double> values;  ///< count * width numbers, row-major
  std::size_t count = 0;       ///< rows captured; 0 when the tree holds the member
};

/// parse(), with `rows` capturing the member it names.
Value parse(std::string_view text, Rows& rows, std::size_t max_depth = 64);

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

/// The exact form of a double, what "%.17g" prints (std::to_chars at 17
/// significant digits, which the standard defines to print the same
/// bytes): every finite value reads back bit-identical.  Non-finite values
/// print as "inf", "-inf", "nan" or "-nan", so this is not JSON for them.
void append_exact(std::string& out, double d);
std::string exact(double d);

/// Decimal digits of an unsigned integer.
void append_uint(std::string& out, std::uint64_t v);

}  // namespace awe::json
