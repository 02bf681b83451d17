#include "circuit/writer.hpp"

#include <sstream>
#include <stdexcept>

#include "text/json.hpp"

namespace awe::circuit {
namespace {

void write_element(std::ostream& os, const Netlist& nl, const Element& e,
                   const WriteOptions& opts) {
  const auto node = [&](NodeId n) { return nl.node_name(n); };
  switch (e.kind) {
    case ElementKind::kResistor:
      os << e.name << ' ' << node(e.pos) << ' ' << node(e.neg) << ' ' << json::exact(e.value);
      break;
    case ElementKind::kConductance:
      if (opts.strict)
        throw std::invalid_argument("write_deck: conductance '" + e.name +
                                    "' has no SPICE card (strict mode)");
      if (e.value <= 0.0)
        throw std::invalid_argument("write_deck: non-positive conductance '" + e.name +
                                    "' cannot be written as a resistor");
      os << e.name << ' ' << node(e.pos) << ' ' << node(e.neg) << ' ' << json::exact(1.0 / e.value)
         << " ; conductance " << json::exact(e.value) << " S written as resistance";
      break;
    case ElementKind::kCapacitor:
    case ElementKind::kInductor:
    case ElementKind::kVoltageSource:
    case ElementKind::kCurrentSource:
      os << e.name << ' ' << node(e.pos) << ' ' << node(e.neg) << ' ' << json::exact(e.value);
      break;
    case ElementKind::kVccs:
    case ElementKind::kVcvs:
      os << e.name << ' ' << node(e.pos) << ' ' << node(e.neg) << ' ' << node(e.ctrl_pos)
         << ' ' << node(e.ctrl_neg) << ' ' << json::exact(e.value);
      break;
    case ElementKind::kCccs:
    case ElementKind::kCcvs:
      os << e.name << ' ' << node(e.pos) << ' ' << node(e.neg) << ' ' << e.ctrl_source
         << ' ' << json::exact(e.value);
      break;
    case ElementKind::kMutual:
      os << e.name << ' ' << e.ctrl_source << ' ' << e.ctrl_source2 << ' ' << json::exact(e.value);
      break;
  }
  os << '\n';
}

bool needs_r_prefix(const Element& e) {
  // A conductance written as a resistance needs a leading 'r' to parse.
  return e.kind == ElementKind::kConductance && !e.name.empty() && e.name[0] != 'r';
}

}  // namespace

void write_netlist(std::ostream& os, const Netlist& netlist, const WriteOptions& opts) {
  os << '*' << opts.title << '\n';
  for (const auto& e : netlist.elements()) {
    if (needs_r_prefix(e)) {
      // Prefix preserves parse-ability; the original name is recorded.
      Element renamed = e;
      renamed.name = "r" + e.name;
      write_element(os, netlist, renamed, opts);
    } else {
      write_element(os, netlist, e, opts);
    }
  }
}

void write_deck(std::ostream& os, const ParsedDeck& deck, const WriteOptions& opts) {
  WriteOptions titled = opts;
  if (!deck.title.empty()) titled.title = deck.title;
  write_netlist(os, deck.netlist, titled);
  for (const auto& s : deck.symbol_elements) os << ".symbol " << s << '\n';
  if (!deck.input_source.empty()) os << ".input " << deck.input_source << '\n';
  if (!deck.output_node.empty()) os << ".output " << deck.output_node << '\n';
  os << ".end\n";
}

std::string deck_to_string(const ParsedDeck& deck, const WriteOptions& opts) {
  std::ostringstream os;
  write_deck(os, deck, opts);
  return os.str();
}

}  // namespace awe::circuit
