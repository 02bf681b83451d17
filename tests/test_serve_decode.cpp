// Differential test for the one-pass eval decode (DESIGN.md §16.1).
//
// parse_request reads "points" through the parser's rows consumer and falls
// back to the json::Value tree for any other shape.  This file keeps the
// tree-only decoder it replaced as a test-local reference and holds
// parse_request to it: on success the same points_soa bits, num_points and
// every other field; on failure the same ProtocolError::what(), byte for
// byte.  Inputs: every request line of the wire golden, each truncated at
// every byte, seeded splitmix64 byte flips, the number acceptance-matrix
// tokens spliced into a points cell, and hand cases for duplicate keys,
// member order, whitespace, arity and nesting.  The reference shares the
// parser's number routine, so that routine is held separately to a
// test-local copy of the scan-then-strtod routine it replaced.
#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "testing/netlist_gen.hpp"

namespace awe::serve {
namespace {

namespace fs = std::filesystem;

// -- the reference: the tree-only decoder ----------------------------------

std::uint64_t ref_uint_field(const json::Value& v, const char* name, std::uint64_t max) {
  if (!v.is_number() || v.number < 0 || v.number != std::floor(v.number))
    throw ProtocolError(std::string(name) + " must be a non-negative integer");
  if (v.number > static_cast<double>(max))
    throw ProtocolError(std::string(name) + " too large");
  return static_cast<std::uint64_t>(v.number);
}

Request reference_parse_request(const std::string& line, std::size_t num_symbols,
                                std::size_t max_points) {
  json::Value doc;
  try {
    doc = json::parse(line);
  } catch (const json::ParseError& e) {
    throw ProtocolError(e.what());
  }
  if (!doc.is_object()) throw ProtocolError("request must be a JSON object");

  Request req;
  const json::Value* op = doc.find("op");
  if (!op || !op->is_string()) throw ProtocolError("missing \"op\"");
  if (op->str == "ping") req.op = Op::kPing;
  else if (op->str == "info") req.op = Op::kInfo;
  else if (op->str == "status") req.op = Op::kStatus;
  else if (op->str == "eval") req.op = Op::kEval;
  else if (op->str == "reload") req.op = Op::kReload;
  else if (op->str == "sleep") req.op = Op::kSleep;
  else throw ProtocolError("unknown op \"" + op->str + "\"");

  if (const json::Value* id = doc.find("id"))
    req.id = ref_uint_field(*id, "id", UINT64_MAX / 2);

  if (req.op == Op::kSleep) {
    if (const json::Value* ms = doc.find("ms"))
      req.sleep_ms = ref_uint_field(*ms, "ms", 60'000);
    return req;
  }
  if (req.op != Op::kEval) return req;

  EvalRequest& ev = req.eval;
  const json::Value* points = doc.find("points");
  const json::Value* mc = doc.find("mc");
  if ((points == nullptr) == (mc == nullptr))
    throw ProtocolError("eval needs exactly one of \"points\" or \"mc\"");

  if (points) {
    if (!points->is_array() || points->array.empty())
      throw ProtocolError("\"points\" must be a non-empty array of arrays");
    const std::size_t n = points->array.size();
    if (n > max_points) throw ProtocolError("too many points");
    ev.num_points = n;
    ev.points_soa.assign(num_symbols * n, 0.0);
    for (std::size_t p = 0; p < n; ++p) {
      const json::Value& row = points->array[p];
      if (!row.is_array() || row.array.size() != num_symbols)
        throw ProtocolError("each point must list exactly " +
                            std::to_string(num_symbols) + " symbol values");
      for (std::size_t i = 0; i < num_symbols; ++i) {
        const json::Value& cell = row.array[i];
        if (!cell.is_number()) throw ProtocolError("point values must be numbers");
        ev.points_soa[i * n + p] = cell.number;
      }
    }
  } else {
    ev.mc = ref_uint_field(*mc, "mc", max_points);
    if (ev.mc == 0) throw ProtocolError("\"mc\" must be at least 1");
    if (const json::Value* seed = doc.find("seed"))
      ev.seed = ref_uint_field(*seed, "seed", UINT64_MAX / 2);
  }

  if (const json::Value* dl = doc.find("deadline_ms"))
    ev.deadline_ms = ref_uint_field(*dl, "deadline_ms", 3'600'000);
  if (const json::Value* cac = doc.find("cancel_after_checks"))
    ev.cancel_after_checks = ref_uint_field(*cac, "cancel_after_checks", 1u << 30);
  if (const json::Value* s = doc.find("summary")) {
    if (!s->is_bool()) throw ProtocolError("\"summary\" must be a boolean");
    ev.summary = s->boolean;
  }
  return req;
}

// -- the comparison -------------------------------------------------------

/// A decode as text: every field, doubles as bit patterns, or the error.
std::string describe(const Request& r) {
  std::string s = "op " + std::to_string(static_cast<int>(r.op)) + " id " +
                  (r.id ? std::to_string(*r.id) : "-") + " sleep " +
                  std::to_string(r.sleep_ms) + " n " + std::to_string(r.eval.num_points) +
                  " mc " + std::to_string(r.eval.mc) + " seed " +
                  std::to_string(r.eval.seed) + " deadline " +
                  std::to_string(r.eval.deadline_ms) + " summary " +
                  std::to_string(r.eval.summary) + " cancel " +
                  std::to_string(r.eval.cancel_after_checks) + " soa";
  for (const double d : r.eval.points_soa)
    s += " " + std::to_string(std::bit_cast<std::uint64_t>(d));
  return s;
}

template <typename Decode>
std::string outcome(Decode decode, const std::string& line, std::size_t num_symbols,
                    std::size_t max_points) {
  try {
    return describe(decode(line, num_symbols, max_points));
  } catch (const ProtocolError& e) {
    return std::string("error: ") + e.what();
  }
}

/// Decodes lines both ways at 1, 2 and 4 symbols and two point limits;
/// reports the first few differences and counts how each side ended.
class Differ {
 public:
  void check(const std::string& line) {
    for (const std::size_t symbols : {1u, 2u, 4u})
      for (const std::size_t max_points : {3u, 4096u}) {
        ++checked_;
        const std::string want =
            outcome(reference_parse_request, line, symbols, max_points);
        const std::string got = outcome(parse_request, line, symbols, max_points);
        if (want.rfind("error: ", 0) == 0) ++errors_;
        if (got != want && mismatches_++ < 10)
          ADD_FAILURE() << "line '" << line << "' at " << symbols << " symbols, max "
                        << max_points << " points:\n  reference " << want
                        << "\n  decoder   " << got;
      }
  }

  std::size_t checked() const { return checked_; }
  std::size_t errors() const { return errors_; }
  std::size_t mismatches() const { return mismatches_; }

 private:
  std::size_t checked_ = 0;
  std::size_t errors_ = 0;
  std::size_t mismatches_ = 0;
};

std::vector<std::string> golden_requests() {
  std::ifstream in(fs::path(AWE_DATA_DIR) / "serve_wire_golden.txt");
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);)
    if (line.rfind("> ", 0) == 0) lines.push_back(line.substr(2));
  return lines;
}

/// Tokens of the number acceptance matrix (test_serve_json) and their
/// neighbours: each is accepted or rejected by the tree exactly as strtod
/// decided.
const std::vector<std::string> kNumberTokens = {
    "+1", "-1e-400", "1e-400", "1e400", "1.", ".5", "-.5", "00012", "-0",
    "4.9406564584124654e-324", "2.2250738585072011e-308", "1e999", "-1e999", "1e", "-",
    "+-1", "--1", "1e5-3", "1-2", "0x10", "0x1p3", "inf", "-inf", "nan", "-nan",
    "Infinity", "1e+", "1E5", ".", "-.", "1.5e+3", "true", "null", "\"1\"", "[1]", "{}",
    ""};

TEST(ServeDecode, GoldenRequestsAndEveryTruncation) {
  const std::vector<std::string> lines = golden_requests();
  ASSERT_GE(lines.size(), 20u);
  Differ d;
  for (const std::string& line : lines)
    for (std::size_t cut = 0; cut <= line.size(); ++cut) d.check(line.substr(0, cut));
  EXPECT_EQ(d.mismatches(), 0u) << "of " << d.checked();
  EXPECT_GT(d.errors(), d.checked() / 2);  // the truncations mostly fail
}

TEST(ServeDecode, SeededByteFlips) {
  const std::vector<std::string> lines = golden_requests();
  ASSERT_FALSE(lines.empty());
  // Flipped-in bytes come from the JSON alphabet half the time, so the
  // mutants stay near the rows consumer's edges instead of failing early.
  const std::string alphabet = "[]{},:\" \t-+.eE0123456789ntf";
  Differ d;
  std::uint64_t draw = 0;
  const auto next = [&draw] { return testing::case_seed(0xdec0de, draw++); };
  for (int round = 0; round < 40; ++round)
    for (const std::string& line : lines) {
      std::string m = line;
      const int flips = 1 + static_cast<int>(next() % 3);
      for (int f = 0; f < flips; ++f) {
        const std::uint64_t r = next();
        char& c = m[r % m.size()];
        c = (r >> 32) & 1 ? alphabet[(r >> 40) % alphabet.size()]
                          : static_cast<char>(c ^ (1 << ((r >> 48) % 8)));
      }
      d.check(m);
    }
  EXPECT_EQ(d.mismatches(), 0u) << "of " << d.checked();
}

TEST(ServeDecode, NumberTokensInPointCells) {
  Differ d;
  for (const std::string& tok : kNumberTokens) {
    d.check(R"({"op":"eval","points":[[)" + tok + "]]}");
    d.check(R"({"op":"eval","points":[[)" + tok + ",2],[3,4]]}");
    d.check(R"({"op":"eval","points":[[1,2],[3,)" + tok + "]]}");
    d.check(R"({"op":"eval","points":[[1,2,3,)" + tok + "]],\"id\":1}");
    d.check(R"({"op":"eval","points":[[ )" + tok + " ]]}");
  }
  EXPECT_EQ(d.mismatches(), 0u) << "of " << d.checked();
}

TEST(ServeDecode, HandCases) {
  Differ d;
  for (const char* line : {
           // duplicate points keys: the first one counts, whatever its shape
           R"({"op":"eval","points":[[1]],"points":[[2]]})",
           R"({"op":"eval","points":"x","points":[[2]]})",
           R"({"op":"eval","points":[[1,2]],"points":[[3,4],[5,6]]})",
           R"({"op":"eval","points":[],"points":[[2]]})",
           // points before op, and a nested points that is not top level
           R"({"points":[[1,2],[3,4]],"op":"eval","id":7})",
           R"({"points":[[1]],"op":"info"})",
           R"({"op":"eval","x":{"points":[[1]]},"mc":3})",
           R"([{"op":"eval","points":[[1]]}])",
           // whitespace between every token
           " { \"op\" : \"eval\" , \"points\" : [ [ 1 , 2 ] , [ 3 , 4 ] ] } ",
           "\t{\"op\":\"eval\",\"points\":\r\n[\n[\t1\t]\n,\n[\r2\r]\n]\n}\n",
           // 1 and 4 symbols
           R"({"op":"eval","points":[[1],[2],[3]]})",
           R"({"op":"eval","points":[[1,2,3,4],[5,6,7,8]]})",
           R"({"op":"eval","points":[[1,2,3,4],[5,6,7]]})",
           // shapes the rows consumer turns down
           R"({"op":"eval","points":[]})",
           R"({"op":"eval","points":[[]]})",
           R"({"op":"eval","points":[[[1]]]})",
           R"({"op":"eval","points":[[1],[[2]]]})",
           R"({"op":"eval","points":[[1,"2"]]})",
           R"({"op":"eval","points":[[1,null]]})",
           R"({"op":"eval","points":[[1,2],{}]})",
           R"({"op":"eval","points":{}})",
           R"({"op":"eval","points":7})",
           R"({"op":"eval","points":[[1,2],]})",
           R"({"op":"eval","points":[[1,2,]]})",
           R"({"op":"eval","points":[[1 2]]})",
           R"({"op":"eval","points":[[1,2]] "mc":3})",
           R"({"op":"eval","points":[[1,2]],"mc":3})",
           R"({"op":"eval","points":[[1,2],[3,4],[5,6],[7,8]]})",
           // number spellings in a cell
           R"({"op":"eval","points":[[+1,1e-400]]})",
           R"({"op":"eval","points":[[1e400,0]]})",
           R"({"op":"eval","points":[[inf,0]]})",
           R"({"op":"eval","points":[[-nan,0]]})",
           R"({"op":"eval","points":[[0x1p3,0]]})",
           R"({"op":"eval","points":[[.5,-.5]]})",
           R"({"op":"eval","points":[[1-2,0]]})",
           // every other op keeps the tree
           R"({"op":"info","id":3})",
           R"({"op":"sleep","ms":5})",
           R"({"op":"eval","mc":8,"seed":1,"summary":true,"deadline_ms":10})",
           R"({"op":"eval","points":[[1,2]],"summary":1})",
       })
    d.check(line);
  EXPECT_EQ(d.mismatches(), 0u) << "of " << d.checked();

  // The fast path itself: points arrive transposed to SoA.
  const Request r = parse_request(R"({"op":"eval","points":[[1,2],[3,4],[5,6]]})", 2, 8);
  EXPECT_EQ(r.eval.num_points, 3u);
  EXPECT_EQ(r.eval.points_soa, (std::vector<double>{1, 3, 5, 2, 4, 6}));
}

/// Today's number routine as a reference, on a document that is one
/// token: scan '-'? and the number alphabet, let from_chars or else strtod
/// read the token, then require the document to end there.
std::string reference_number_document(const std::string& text) {
  const auto in_token = [](char c) {
    return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' ||
           c == '-';
  };
  const auto error = [](std::size_t offset, const char* what) {
    return "error: json: offset " + std::to_string(offset) + ": " + what;
  };
  std::size_t pos = 0;
  if (pos < text.size() && text[pos] == '-') ++pos;
  while (pos < text.size() && in_token(text[pos])) ++pos;
  if (pos == 0) return error(0, "expected value");
  const std::string token = text.substr(0, pos);
  double d = 0.0;
  const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), d);
  if (ptr != token.data() + token.size() || ec != std::errc{}) {
    char* end = nullptr;
    d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(d)) return error(0, "bad number");
  }
  if (pos != text.size()) return error(pos, "trailing characters after document");
  return "number " + std::to_string(std::bit_cast<std::uint64_t>(d));
}

std::string number_document(const std::string& text) {
  try {
    const json::Value v = json::parse(text);
    return v.is_number() ? "number " + std::to_string(std::bit_cast<std::uint64_t>(v.number))
                         : "not a number";
  } catch (const json::ParseError& e) {
    return std::string("error: ") + e.what();
  }
}

TEST(ServeDecode, NumberRoutineDecodesAsTheScanAndStrtodDid) {
  // from_chars reads more than a JSON number ("inf", "nan(1)", "0x" is
  // not one of them but "0" is); the one number routine must still take
  // exactly what the scan-then-strtod routine took.  Tokens that open with
  // a character the tree sends elsewhere ('{', '[', '"', 't', 'f', 'n',
  // whitespace) are not number documents and are skipped.
  const std::string opens_elsewhere = "{[\"tfn \t\r\n";
  std::size_t checked = 0, mismatches = 0;
  const auto check = [&](const std::string& tok) {
    if (tok.empty() || opens_elsewhere.find(tok[0]) != std::string::npos) return;
    ++checked;
    const std::string want = reference_number_document(tok);
    const std::string got = number_document(tok);
    if (got != want && mismatches++ < 10)
      ADD_FAILURE() << "token '" << tok << "': reference " << want << ", decoder " << got;
  };
  for (const std::string& tok : kNumberTokens) check(tok);
  for (const char* tok : {"Inf", "-Infinity", "-nan(1)", "-NaN", "1e5x", "1.5.5", "-0x1p3",
                          "1e+5]", "7)", "12ab"})
    check(tok);
  const std::string alphabet = "0123456789.eE+-xpinfatyINFATY()]";
  std::uint64_t draw = 0;
  for (int i = 0; i < 200'000; ++i) {
    std::string tok(1 + testing::case_seed(0x70c3, draw++) % 9, '0');
    for (char& ch : tok) ch = alphabet[testing::case_seed(0x70c3, draw++) % alphabet.size()];
    check(tok);
  }
  EXPECT_EQ(mismatches, 0u) << "of " << checked;
  EXPECT_GT(checked, 100'000u);
}

TEST(ServeDecode, RowsConsumerKeepsTheDepthLimit) {
  // At max_depth 2 the tree fails on the cell (depth 3); so must the
  // rows consumer's fallback, with the tree's message and offset.
  const std::string text = R"({"points":[[1]]})";
  for (const std::size_t depth : {1u, 2u, 3u}) {
    json::Rows rows{"points", 1};
    std::string want, got;
    try {
      want = json::dump(json::parse(text, depth));
    } catch (const json::ParseError& e) {
      want = e.what();
    }
    try {
      got = json::dump(json::parse(text, rows, depth));
      if (rows.count) got += " captured";
    } catch (const json::ParseError& e) {
      got = e.what();
    }
    if (depth < 3) EXPECT_EQ(got, want) << "max_depth " << depth;
    else EXPECT_EQ(got, "{} captured");
  }
}

TEST(ServeDecode, RowsConsumerCapturesOnlyTheFirstTopLevelMember) {
  json::Rows rows{"points", 2};
  const json::Value doc = json::parse(R"({"points":[[1,2]],"x":{"points":[[3,4]]}})", rows);
  EXPECT_EQ(rows.count, 1u);
  EXPECT_EQ(rows.values, (std::vector<double>{1, 2}));
  EXPECT_EQ(doc.find("points"), nullptr);
  ASSERT_NE(doc.find("x"), nullptr);
  EXPECT_NE(doc.find("x")->find("points"), nullptr);

  // A shape it turns down stays in the tree, with nothing captured.
  const json::Value tree = json::parse(R"({"points":[[1,2,3]]})", rows);
  EXPECT_EQ(rows.count, 0u);
  EXPECT_TRUE(rows.values.empty());
  ASSERT_NE(tree.find("points"), nullptr);
  EXPECT_EQ(json::dump(tree), R"({"points":[[1,2,3]]})");
}

}  // namespace
}  // namespace awe::serve
