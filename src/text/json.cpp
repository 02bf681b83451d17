#include "text/json.hpp"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace awe::json {

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::size_t max_depth, Rows* rows)
      : text_(text), max_depth_(max_depth), rows_(rows) {}

  Value run() {
    Value v;
    parse_value(v, 0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const { throw ParseError(pos_, what); }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  /// Parse the next value into `v`, a default (null) Value.
  void parse_value(Value& v, std::size_t depth) {
    if (depth > max_depth_) fail("nesting too deep");
    skip_ws();
    switch (peek()) {
      case '{': return parse_object(v, depth);
      case '[': return parse_array(v, depth);
      case '"':
        v.kind = Value::Kind::kString;
        v.str = parse_string();
        return;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        v.kind = Value::Kind::kBool;
        v.boolean = true;
        return;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        v.kind = Value::Kind::kBool;
        return;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return;
      default:
        v.kind = Value::Kind::kNumber;
        v.number = parse_number();
    }
  }

  void parse_object(Value& v, std::size_t depth) {
    ++pos_;  // '{'
    v.kind = Value::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      skip_ws();
      if (peek() != ':') fail("expected ':'");
      ++pos_;
      // Only the first top-level member of that name is offered to the rows
      // consumer; a captured one is left out of the tree.
      Rows* const rows = depth == 0 && rows_ && key == rows_->key
                             ? std::exchange(rows_, nullptr) : nullptr;
      if (!rows || !read_rows(*rows, depth + 1))
        parse_value(v.object.emplace_back(std::move(key), Value{}).second, depth + 1);
      skip_ws();
      const char sep = peek();
      ++pos_;
      if (sep == '}') return;
      if (sep != ',') fail("expected ',' or '}'");
    }
  }

  void parse_array(Value& v, std::size_t depth) {
    ++pos_;  // '['
    v.kind = Value::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    for (;;) {
      parse_value(v.array.emplace_back(), depth + 1);
      skip_ws();
      const char sep = peek();
      ++pos_;
      if (sep == ']') return;
      if (sep != ',') fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    ++pos_;  // '"'
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Encode as UTF-8; unpaired surrogates pass through as-is bytes
          // of their code point — the daemon never round-trips them.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  /// The characters a number token is made of.
  static bool in_number_token(char c) {
    return is_digit(c) || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-';
  }

  /// The one number routine of both consumers.  from_chars reads the
  /// number in place when it takes a whole token: it succeeds, stops where
  /// the token ends, and its last character is a digit or '.' (it read
  /// digits, not "inf" or "nan").  Otherwise ("+1", "1e-400", "1-2",
  /// "inf") the token is scanned and strtod decides, as it always has.
  double parse_number() {
    const std::size_t start = pos_;
    const char* const first = text_.data() + start;
    const char* const text_end = text_.data() + text_.size();
    double d = 0.0;
    if (const auto [ptr, ec] = std::from_chars(first, text_end, d);
        ec == std::errc{} && (is_digit(ptr[-1]) || ptr[-1] == '.') &&
        (ptr == text_end || !in_number_token(*ptr))) {
      pos_ = static_cast<std::size_t>(ptr - text_.data());
      return d;
    }
    while (pos_ < text_.size() && in_number_token(text_[pos_])) ++pos_;
    if (pos_ == start) fail("expected value");
    // strtod accepts what from_chars rejects ("+1") and reads underflow
    // ("1e-400") as a value where from_chars reports out of range.
    const std::string token(first, text_.data() + pos_);
    char* end = nullptr;
    d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(d)) {
      pos_ = start;
      fail("bad number");
    }
    return d;
  }

  /// The rows consumer: reads the member value at pos_ into `rows` when it
  /// is a non-empty array of arrays of rows.width numbers.  Anything else,
  /// including a ParseError, puts pos_ back, captures nothing and returns
  /// false, so the tree parses the same bytes as if this had never run.
  bool read_rows(Rows& rows, std::size_t depth) {
    const std::size_t start = pos_;
    // The tree would check the depth of the array, a row and a cell.
    if (rows.width != 0 && depth + 2 <= max_depth_) {
      try {
        if (read_rows_body(rows)) return true;
      } catch (const ParseError&) {
      }
    }
    pos_ = start;
    rows.values.clear();
    rows.count = 0;
    return false;
  }

  bool read_rows_body(Rows& rows) {
    skip_ws();
    if (peek() != '[') return false;
    ++pos_;
    for (;;) {
      skip_ws();
      if (peek() != '[') return false;
      ++pos_;
      for (std::size_t i = 0; i < rows.width; ++i) {
        skip_ws();
        const char c = peek();
        if (!is_digit(c) && c != '-' && c != '.') return false;  // not a number
        rows.values.push_back(parse_number());
        skip_ws();
        if (peek() != (i + 1 < rows.width ? ',' : ']')) return false;
        ++pos_;
      }
      ++rows.count;
      skip_ws();
      const char sep = peek();
      ++pos_;
      if (sep == ']') return true;
      if (sep != ',') return false;
    }
  }

  std::string_view text_;
  std::size_t max_depth_;
  Rows* rows_;  ///< the member still wanted by the rows consumer, if any
  std::size_t pos_ = 0;
};

void dump_to(const Value& v, std::string& out) {
  switch (v.kind) {
    case Value::Kind::kNull: out += "null"; break;
    case Value::Kind::kBool: out += v.boolean ? "true" : "false"; break;
    case Value::Kind::kNumber: append_number(out, v.number); break;
    case Value::Kind::kString: append_quoted(out, v.str); break;
    case Value::Kind::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i) out.push_back(',');
        dump_to(v.array[i], out);
      }
      out.push_back(']');
      break;
    }
    case Value::Kind::kObject: {
      out.push_back('{');
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        if (i) out.push_back(',');
        append_quoted(out, v.object[i].first);
        out.push_back(':');
        dump_to(v.object[i].second, out);
      }
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

Value parse(std::string_view text, std::size_t max_depth) {
  return Parser(text, max_depth, nullptr).run();
}

Value parse(std::string_view text, Rows& rows, std::size_t max_depth) {
  rows.values.clear();
  rows.count = 0;
  return Parser(text, max_depth, &rows).run();
}

std::string dump(const Value& v) {
  std::string out;
  dump_to(v, out);
  return out;
}

std::string quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_quoted(out, s);
  return out;
}

void append_quoted(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_number(std::string& out, double d) {
  if (!std::isfinite(d)) {  // JSON has no NaN/Inf; be explicit
    out += "null";
    return;
  }
  char buf[32];
  // Integral values within the exact-double range print as integers: the
  // wire protocol is full of counts and the short form is stable.
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::fixed, 0).ptr);
    return;
  }
  // Subnormals and exact powers of two: their shortest round-trip digits
  // need not be the correctly rounded ones "%.*g" prints (2^-1017 is
  // 7.1202363472230444e-307 at 17 digits but 7.120236347223045e-307 at its
  // shortest), so probe 15, 16, 17 digits as printf would.
  const bool pow2 = (std::bit_cast<std::uint64_t>(d) & ((std::uint64_t{1} << 52) - 1)) == 0;
  if (pow2 || std::fabs(d) < DBL_MIN) {
    char* end = buf;
    for (int prec = 15; prec <= 17; ++prec) {
      end = std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::general, prec).ptr;
      double back = 0.0;
      const auto [ptr, ec] = std::from_chars(buf, end, back);
      if (ec == std::errc{} && back == d) break;
    }
    out.append(buf, end);
    return;
  }
  // Everywhere else the shortest round-trip digits D (k of them) are the
  // "%.{P}g" digits for P = max(k, 15): a correctly rounded P-digit string
  // is no farther from d than D, so it rounds back to d too and is the
  // first probe that does.  Lay D out the way "%.{P}g" would.
  const char* const sci_end =
      std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::scientific).ptr;
  const char* p = buf;
  if (*p == '-') out.push_back(*p++);
  const char* const mantissa = p;
  char digits[20];
  int k = 0;
  for (; *p != 'e'; ++p)
    if (*p != '.') digits[k++] = *p;
  int x = 0;
  std::from_chars(p + (p[1] == '+' ? 2 : 1), sci_end, x);
  if (x < -4 || x >= std::max(k, 15)) {
    // Scientific: to_chars already wrote d[.ddd]e±XX exactly as %g does.
    out.append(mantissa, sci_end);
    return;
  }
  if (x < 0) {
    out += "0.";
    out.append(static_cast<std::size_t>(-x - 1), '0');
    out.append(digits, static_cast<std::size_t>(k));
    return;
  }
  // 0 <= x < P: d is no integer below 1e15, so all x + 1 integer digits
  // are significant (k > x).
  const int whole = x + 1;
  out.append(digits, static_cast<std::size_t>(whole));
  if (k > whole) {
    out.push_back('.');
    out.append(digits + whole, static_cast<std::size_t>(k - whole));
  }
}

std::string number_to_string(double d) {
  std::string out;
  append_number(out, d);
  return out;
}

void append_exact(std::string& out, double d) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::general, 17).ptr);
}

std::string exact(double d) {
  std::string out;
  append_exact(out, d);
  return out;
}

void append_uint(std::string& out, std::uint64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace awe::json
