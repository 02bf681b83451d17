// Differential tests for the wire number codec (text/json, DESIGN.md §16.1).
//
// The daemon's number encoding is wire-frozen: clients and goldens compare
// bytes.  These tests hold json::number_to_string to a test-local copy of
// the printf/strtod formatter it replaced (probe "%.15g", "%.16g", "%.17g"
// and keep the first that strtod reads back as the same double) over more
// than ten million doubles drawn where shortest-digit printing and "%.*g"
// are most likely to part: random bit patterns, subnormals, every power of
// two and power of ten a few ulps either side, the 1e15 integer cutoff and
// the extremes.  Every printed number must also parse back bit for bit, and
// the decoder must accept, reject and place errors exactly as strtod did.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <sstream>
#include <string>

#include "text/json.hpp"

namespace awe::json {
namespace {

/// The printf/strtod formatter the codec must match byte for byte.
std::string oracle_number(double d) {
  if (!std::isfinite(d)) return "null";
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", d);
    return buf;
  }
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  return buf;
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// Checks one double and counts it; keeps the first few failures.
class Checker {
 public:
  void check(double d) {
    ++checked_;
    const std::string got = number_to_string(d);
    const std::string want = oracle_number(d);
    if (got != want) {
      report("bytes", d, got + " vs printf " + want);
      return;
    }
    if (!std::isfinite(d)) return;
    const Value v = parse(got);
    if (!v.is_number() || bits(v.number) != bits(d)) report("round trip", d, got);
  }

  /// d and `ulps` neighbours on either side.
  void check_around(double d, int ulps) {
    check(d);
    double up = d, down = d;
    for (int i = 0; i < ulps; ++i) {
      up = std::nextafter(up, HUGE_VAL);
      down = std::nextafter(down, -HUGE_VAL);
      check(up);
      check(down);
    }
  }

  std::size_t checked() const { return checked_; }
  std::size_t failures() const { return failures_; }

 private:
  void report(const char* what, double d, const std::string& detail) {
    if (failures_++ < 10) {
      char hex[40];
      std::snprintf(hex, sizeof(hex), "%a", d);
      ADD_FAILURE() << what << " mismatch for " << hex << ": " << detail;
    }
  }

  std::size_t checked_ = 0;
  std::size_t failures_ = 0;
};

TEST(ServeJsonNumber, MatchesPrintfFormatterOnTenMillionDoubles) {
  Checker c;
  std::mt19937_64 rng(0x5e7e1f5);

  for (int i = 0; i < 8'000'000; ++i) c.check(std::bit_cast<double>(rng()));

  std::lognormal_distribution<double> lognormal(0.0, 20.0);
  for (int i = 0; i < 1'000'000; ++i) c.check((i & 1 ? -1.0 : 1.0) * lognormal(rng));

  // Subnormals: random mantissas, the smallest few hundred, the largest.
  const std::uint64_t mantissa = (std::uint64_t{1} << 52) - 1;
  for (int i = 0; i < 500'000; ++i) {
    const double d = std::bit_cast<double>(rng() & mantissa);
    c.check(d);
    c.check(-d);
  }
  for (std::uint64_t m = 1; m <= 512; ++m) c.check(std::bit_cast<double>(m));
  c.check_around(std::bit_cast<double>(mantissa), 3);

  for (int e = -1074; e <= 1023; ++e) {
    c.check_around(std::ldexp(1.0, e), 3);
    c.check_around(-std::ldexp(1.0, e), 3);
  }
  for (int k = -323; k <= 308; ++k) {
    const double p = std::strtod(("1e" + std::to_string(k)).c_str(), nullptr);
    c.check_around(p, 2);
    c.check_around(-p, 2);
    c.check_around(9.5 * p, 2);  // mid-decade, where 15 digits start to fail
  }

  // The integer cutoff and the fixed/scientific switch of %g.
  for (const double d : {1e15, 1e15 - 0.5, 1e15 + 0.5, 999999999999999.0, 1e16, 1e17}) {
    c.check_around(d, 8);
    c.check_around(-d, 8);
  }
  for (const double d : {1e-4, 1e-5, 0.1, 0.5, 1.0, 2.0, 3.0}) c.check_around(d, 3);
  for (const double d : {0.0, -0.0, DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN, DBL_TRUE_MIN,
                         -DBL_TRUE_MIN, DBL_EPSILON, std::numeric_limits<double>::quiet_NaN(),
                         HUGE_VAL, -HUGE_VAL})
    c.check(d);

  EXPECT_GE(c.checked(), 10'000'000u);
  EXPECT_EQ(c.failures(), 0u) << "of " << c.checked() << " doubles";
}

// append_exact is the one "%.17g" of the tree: exported C constants,
// written decks and fuzz reports print through it.  It must print what
// snprintf("%.17g") and an ostream at precision(17) print, byte for byte.
TEST(ServeJsonNumber, ExactMatchesPrintfAndOstream) {
  std::size_t checked = 0, failures = 0;
  std::ostringstream os;
  os.precision(17);
  const auto check = [&](double d) {
    ++checked;
    const std::string got = exact(d);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    os.str("");
    os << d;
    if ((got != buf || got != os.str()) && failures++ < 10)
      ADD_FAILURE() << "exact " << got << " vs printf " << buf << " vs ostream " << os.str();
  };
  std::uint64_t state = 0x17e8c7;
  const auto splitmix64 = [&state] {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };

  for (int i = 0; i < 1'000'000; ++i) check(std::bit_cast<double>(splitmix64()));
  const std::uint64_t mantissa = (std::uint64_t{1} << 52) - 1;
  for (int i = 0; i < 100'000; ++i) {
    const double d = std::bit_cast<double>(splitmix64() & mantissa);
    check(d);
    check(-d);
  }
  for (std::uint64_t m = 1; m <= 512; ++m) check(std::bit_cast<double>(m));
  for (int e = -1074; e <= 1023; ++e) {
    check(std::ldexp(1.0, e));
    check(-std::ldexp(1.0, e));
  }
  // Integers from 1e15 to 1e17, where %g's fixed/scientific switch at 17
  // digits sits and doubles stop being able to hold every integer.
  for (int i = 0; i < 100'000; ++i)
    check(static_cast<double>(1'000'000'000'000'000ull +
                              splitmix64() % 99'000'000'000'000'000ull));
  for (const double d : {1e15, 1e16, 1e17, 99999999999999999.0, 9007199254740993.0})
    for (const double s : {1.0, -1.0}) check(s * d);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double d : {0.0, -0.0, HUGE_VAL, -HUGE_VAL, nan, -nan}) check(d);

  EXPECT_GE(checked, 1'000'000u);
  EXPECT_EQ(failures, 0u) << "of " << checked << " doubles";
}

TEST(ServeJsonNumber, KnownWireForms) {
  EXPECT_EQ(number_to_string(0.0), "0");
  EXPECT_EQ(number_to_string(-0.0), "-0");
  EXPECT_EQ(number_to_string(75.0), "75");
  EXPECT_EQ(number_to_string(1e15), "1e+15");
  EXPECT_EQ(number_to_string(0.1), "0.1");
  EXPECT_EQ(number_to_string(1e-5), "1e-05");
  EXPECT_EQ(number_to_string(1.5e-5), "1.5e-05");
  EXPECT_EQ(number_to_string(0.00015), "0.00015");
  EXPECT_EQ(number_to_string(1e15 + 0.5), "1000000000000000.5");
  EXPECT_EQ(number_to_string(std::ldexp(1.0, -1017)), "7.1202363472230444e-307");
  EXPECT_EQ(number_to_string(DBL_TRUE_MIN), "4.94065645841247e-324");
  EXPECT_EQ(number_to_string(std::numeric_limits<double>::quiet_NaN()), "null");

  std::string s = "[";
  append_number(s, 2.5);
  s += ',';
  append_uint(s, 18446744073709551615u);
  EXPECT_EQ(s, "[2.5,18446744073709551615");
  EXPECT_EQ(dump(parse(R"({"a":[1.5,-0,1e300,"x\n"]})")), R"({"a":[1.5,-0,1e+300,"x\n"]})");
}

/// What the decoder did with one document: a value or an error.
struct Outcome {
  bool ok = false;
  std::uint64_t value_bits = 0;
  std::size_t offset = 0;
  std::string message;
};

Outcome decode(const std::string& text) {
  Outcome o;
  try {
    const Value v = parse(text);
    o.ok = v.is_number();
    o.value_bits = bits(v.number);
  } catch (const ParseError& e) {
    o.offset = e.offset();
    o.message = e.what();
  }
  return o;
}

TEST(ServeJsonNumber, AcceptanceMatrixMatchesStrtod) {
  const auto value = [](const char* text, double want) {
    const Outcome o = decode(text);
    EXPECT_TRUE(o.ok) << text << ": " << o.message;
    EXPECT_EQ(o.value_bits, bits(want)) << text;
  };
  const auto error = [](const char* text, std::size_t offset, const char* message) {
    const Outcome o = decode(text);
    EXPECT_FALSE(o.ok) << text;
    EXPECT_EQ(o.offset, offset) << text;
    EXPECT_EQ(o.message, message) << text;
  };
  value("+1", 1.0);
  value("-1e-400", -0.0);
  value("1e-400", 0.0);
  value("1.", 1.0);
  value(".5", 0.5);
  value("00012", 12.0);
  value("4.9406564584124654e-324", DBL_TRUE_MIN);
  value("2.2250738585072011e-308", std::nextafter(DBL_MIN, 0.0));
  error("1e999", 0, "json: offset 0: bad number");
  error("-1e999", 0, "json: offset 0: bad number");
  error("1e", 0, "json: offset 0: bad number");
  error("-", 0, "json: offset 0: bad number");
  error("+-1", 0, "json: offset 0: bad number");
  error("--1", 0, "json: offset 0: bad number");
  error("1e5-3", 0, "json: offset 0: bad number");
  error("[1,+-1]", 3, "json: offset 3: bad number");
  error("0x10", 1, "json: offset 1: trailing characters after document");
}

TEST(ServeJsonNumber, RandomTokensDecodeAsStrtodDid) {
  // Every token over the number alphabet is one whole number token, which
  // the strtod decoder accepted exactly when strtod consumed all of it and
  // the value was finite.
  const std::string alphabet = "0123456789000111.eE+-";
  std::mt19937_64 rng(0x70c3);
  std::size_t mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    std::string tok(1 + rng() % 10, '0');
    for (char& ch : tok) ch = alphabet[rng() % alphabet.size()];
    char* end = nullptr;
    const double want = std::strtod(tok.c_str(), &end);
    const bool want_ok = end == tok.c_str() + tok.size() && std::isfinite(want);
    const Outcome o = decode(tok);
    const bool same = want_ok ? o.ok && o.value_bits == bits(want)
                              : !o.ok && o.offset == 0 &&
                                    o.message == "json: offset 0: bad number";
    if (!same && mismatches++ < 10)
      ADD_FAILURE() << "token '" << tok << "': strtod " << (want_ok ? "accepts" : "rejects")
                    << ", decoder says " << (o.ok ? "ok" : o.message);
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace awe::json
