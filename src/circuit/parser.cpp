#include "circuit/parser.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace awe::circuit {
namespace {

constexpr int kMaxSubcktDepth = 20;

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string t;
  while (is >> t) tokens.push_back(t);
  return tokens;
}

[[noreturn]] void fail(std::size_t line_no, const std::string& msg) {
  throw std::runtime_error("netlist line " + std::to_string(line_no) + ": " + msg);
}

struct Card {
  std::vector<std::string> tokens;
  std::size_t line_no = 0;
};

struct SubcktDef {
  std::vector<std::string> ports;  // lowercase port node names
  std::vector<Card> cards;
};

/// Name resolution inside one level of hierarchy.
struct NameScope {
  std::string prefix;  // "" at top level, "x1." inside instance x1, ...
  // Maps a subcircuit-local port node name to the instantiation's node.
  std::unordered_map<std::string, std::string> port_map;

  std::string node(const std::string& raw) const {
    const std::string n = lower(raw);
    if (n == "0" || n == "gnd") return "0";
    const auto it = port_map.find(n);
    if (it != port_map.end()) return it->second;
    return prefix + n;
  }
  std::string element(const std::string& raw) const { return prefix + lower(raw); }
};

class DeckBuilder {
 public:
  explicit DeckBuilder(ParsedDeck& deck) : deck_(deck) {}

  void collect_subckt(const std::string& name, SubcktDef def) {
    subckts_.emplace(name, std::move(def));
  }

  bool has_subckt(const std::string& name) const { return subckts_.contains(name); }

  void process(const Card& card, const NameScope& scope, int depth) {
    const auto& tokens = card.tokens;
    const std::size_t line_no = card.line_no;
    const std::string head = lower(tokens[0]);
    // Classify by the basename after the last '.': a flattened-hierarchy
    // name like "x1.r2" (as the writer emits for expanded subcircuit
    // instances) is a resistor card, not an X instance card.
    const std::size_t basename_at = head.find_last_of('.') + 1;
    if (basename_at >= head.size())
      fail(line_no, "unknown element card '" + tokens[0] + "'");

    auto need = [&](std::size_t n) {
      if (tokens.size() < n)
        fail(line_no, "expected at least " + std::to_string(n - 1) + " fields after '" +
                          tokens[0] + "'");
    };
    auto value = [&](const std::string& tok) {
      try {
        return parse_spice_value(tok);
      } catch (const std::exception& e) {
        fail(line_no, e.what());
      }
    };
    auto node = [&](const std::string& raw) { return deck_.netlist.node(scope.node(raw)); };

    Netlist& nl = deck_.netlist;
    const std::string name = scope.element(tokens[0]);
    try {
      switch (head[basename_at]) {
        case 'r':
          need(4);
          nl.add_resistor(name, node(tokens[1]), node(tokens[2]), value(tokens[3]));
          break;
        case 'c':
          need(4);
          nl.add_capacitor(name, node(tokens[1]), node(tokens[2]), value(tokens[3]));
          break;
        case 'l':
          need(4);
          nl.add_inductor(name, node(tokens[1]), node(tokens[2]), value(tokens[3]));
          break;
        case 'v':
          need(4);
          nl.add_voltage_source(name, node(tokens[1]), node(tokens[2]), value(tokens[3]));
          break;
        case 'i':
          need(4);
          nl.add_current_source(name, node(tokens[1]), node(tokens[2]), value(tokens[3]));
          break;
        case 'g':
          need(6);
          nl.add_vccs(name, node(tokens[1]), node(tokens[2]), node(tokens[3]),
                      node(tokens[4]), value(tokens[5]));
          break;
        case 'e':
          need(6);
          nl.add_vcvs(name, node(tokens[1]), node(tokens[2]), node(tokens[3]),
                      node(tokens[4]), value(tokens[5]));
          break;
        case 'f':
          need(5);
          nl.add_cccs(name, node(tokens[1]), node(tokens[2]),
                      scope.element(tokens[3]), value(tokens[4]));
          break;
        case 'h':
          need(5);
          nl.add_ccvs(name, node(tokens[1]), node(tokens[2]),
                      scope.element(tokens[3]), value(tokens[4]));
          break;
        case 'k':
          need(4);
          nl.add_mutual(name, scope.element(tokens[1]), scope.element(tokens[2]),
                        value(tokens[3]));
          break;
        case 'x':
          expand_instance(card, scope, depth);
          break;
        default:
          fail(line_no, "unknown element card '" + tokens[0] + "'");
      }
    } catch (const std::invalid_argument& e) {
      fail(line_no, e.what());
    }
  }

 private:
  void expand_instance(const Card& card, const NameScope& scope, int depth) {
    const auto& tokens = card.tokens;
    if (depth >= kMaxSubcktDepth)
      fail(card.line_no, "subcircuit nesting deeper than " +
                             std::to_string(kMaxSubcktDepth) + " levels");
    if (tokens.size() < 3)
      fail(card.line_no, "X card needs at least one node and a subcircuit name");
    const std::string subckt_name = lower(tokens.back());
    const auto it = subckts_.find(subckt_name);
    if (it == subckts_.end())
      fail(card.line_no, "unknown subcircuit '" + tokens.back() + "'");
    const SubcktDef& def = it->second;
    const std::size_t nargs = tokens.size() - 2;
    if (nargs != def.ports.size())
      fail(card.line_no, "subcircuit '" + subckt_name + "' expects " +
                             std::to_string(def.ports.size()) + " nodes, got " +
                             std::to_string(nargs));
    NameScope inner;
    inner.prefix = scope.element(tokens[0]) + ".";
    for (std::size_t i = 0; i < nargs; ++i)
      inner.port_map.emplace(def.ports[i], scope.node(tokens[1 + i]));
    for (const Card& c : def.cards) process(c, inner, depth + 1);
  }

  ParsedDeck& deck_;
  std::unordered_map<std::string, SubcktDef> subckts_;
};

}  // namespace

double parse_spice_value(const std::string& token) {
  const std::string t = lower(token);
  char* end = nullptr;
  const double base = std::strtod(t.c_str(), &end);
  if (end == t.c_str()) throw std::runtime_error("bad numeric value: '" + token + "'");
  std::string suffix(end);
  double scale = 1.0;
  if (!suffix.empty()) {
    if (suffix.rfind("meg", 0) == 0) {
      scale = 1e6;
    } else {
      switch (suffix[0]) {
        case 't': scale = 1e12; break;
        case 'g': scale = 1e9; break;
        case 'k': scale = 1e3; break;
        case 'm': scale = 1e-3; break;
        case 'u': scale = 1e-6; break;
        case 'n': scale = 1e-9; break;
        case 'p': scale = 1e-12; break;
        case 'f': scale = 1e-15; break;
        default:
          // Trailing unit text like "ohm", "v", "a" — only valid when it is
          // purely alphabetic.
          for (char c : suffix)
            if (!std::isalpha(static_cast<unsigned char>(c)))
              throw std::runtime_error("bad numeric value: '" + token + "'");
          return base;
      }
    }
  }
  return base * scale;
}

ParsedDeck parse_deck(std::istream& in) {
  ParsedDeck deck;
  DeckBuilder builder(deck);

  // ---- Pass 1: read cards, split out .subckt bodies. -------------------
  std::vector<Card> top_level;
  std::string line;
  std::size_t line_no = 0;
  bool first_line = true;
  bool ended = false;
  struct OpenSubckt {
    std::string name;
    SubcktDef def;
    std::size_t line_no;  ///< the .subckt line, for unterminated-block errors
  };
  std::vector<OpenSubckt> subckt_stack;

  std::vector<Card> directives;
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto semi = line.find(';'); semi != std::string::npos) line.resize(semi);
    if (!line.empty() && line[0] == '*') {
      if (first_line) deck.title = line.substr(1);
      first_line = false;
      continue;
    }
    first_line = false;
    auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    if (ended) fail(line_no, "content after .end");
    const std::string head = lower(tokens[0]);

    if (head == ".subckt") {
      if (tokens.size() < 3) fail(line_no, ".subckt needs a name and at least one port");
      const std::string name = lower(tokens[1]);
      if (builder.has_subckt(name)) fail(line_no, "duplicate .subckt '" + tokens[1] + "'");
      for (const auto& open : subckt_stack)
        if (open.name == name) fail(line_no, "duplicate .subckt '" + tokens[1] + "'");
      SubcktDef def;
      for (std::size_t i = 2; i < tokens.size(); ++i) def.ports.push_back(lower(tokens[i]));
      subckt_stack.push_back({name, std::move(def), line_no});
      continue;
    }
    if (head == ".ends") {
      if (subckt_stack.empty()) fail(line_no, ".ends without .subckt");
      auto open = std::move(subckt_stack.back());
      subckt_stack.pop_back();
      builder.collect_subckt(open.name, std::move(open.def));
      continue;
    }
    if (!subckt_stack.empty()) {
      if (head[0] == '.') fail(line_no, "directive '" + tokens[0] + "' inside .subckt");
      subckt_stack.back().def.cards.push_back({std::move(tokens), line_no});
      continue;
    }

    if (head[0] == '.') {
      if (head == ".end") {
        ended = true;
      } else if (head == ".symbol" || head == ".input" || head == ".output") {
        directives.push_back({std::move(tokens), line_no});
      } else {
        fail(line_no, "unknown directive '" + tokens[0] + "'");
      }
      continue;
    }
    top_level.push_back({std::move(tokens), line_no});
  }
  if (!subckt_stack.empty())
    fail(subckt_stack.back().line_no,
         "unterminated .subckt '" + subckt_stack.back().name + "' (no matching .ends)");

  // ---- Pass 2: expand top-level cards. ----------------------------------
  const NameScope top_scope;
  for (const Card& card : top_level) builder.process(card, top_scope, 0);

  // ---- Directives (after expansion so they can reference anything). -----
  for (const Card& card : directives) {
    const std::string head = lower(card.tokens[0]);
    if (card.tokens.size() < 2)
      fail(card.line_no, "expected at least 1 field after '" + card.tokens[0] + "'");
    if (head == ".symbol") {
      for (std::size_t i = 1; i < card.tokens.size(); ++i)
        deck.symbol_elements.push_back(lower(card.tokens[i]));
    } else {
      // A model is one transfer: a second .input or .output is an error,
      // not a silent override of the first.
      std::string& target = head == ".input" ? deck.input_source : deck.output_node;
      if (!target.empty()) fail(card.line_no, "repeated '" + card.tokens[0] + "'");
      target = lower(card.tokens[1]);
    }
  }
  return deck;
}

ParsedDeck parse_deck_string(const std::string& text) {
  std::istringstream is(text);
  return parse_deck(is);
}

}  // namespace awe::circuit
