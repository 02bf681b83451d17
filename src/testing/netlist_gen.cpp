#include "testing/netlist_gen.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "circuit/mna.hpp"
#include "testing/wellposed.hpp"
#include "text/json.hpp"

namespace awe::testing {
namespace {

/// splitmix64 — tiny, portable, and identical on every platform.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Deterministic RNG with explicitly-defined draw semantics (the standard
/// distributions are implementation-defined, which would make committed
/// corpus decks unreproducible across toolchains).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed ^ 0xD1B54A32D192ED03ull) {
    // Warm up so low-entropy seeds (0, 1, 2, ...) decorrelate.
    splitmix64(state_);
    splitmix64(state_);
  }
  std::uint64_t bits() { return splitmix64(state_); }
  /// Uniform in [0, n).
  std::size_t index(std::size_t n) { return static_cast<std::size_t>(bits() % n); }
  /// Uniform in [0, 1).
  double real() { return static_cast<double>(bits() >> 11) * 0x1.0p-53; }
  bool coin(double p) { return real() < p; }
  /// Log-uniform in [lo, hi] — element values spread over decades.
  double log_uniform(double lo, double hi) {
    return std::exp(std::log(lo) + (std::log(hi) - std::log(lo)) * real());
  }

 private:
  std::uint64_t state_;
};

class DeckGen {
 public:
  DeckGen(const GenOptions& opts) : opts_(opts), rng_(opts.seed) {
    opts_.max_mna_dim = std::min<std::size_t>(opts_.max_mna_dim, 16);
    // Room for at least one node, the input's aux current and one spare.
    opts_.max_mna_dim = std::max<std::size_t>(opts_.max_mna_dim, 3);
    if (opts_.max_spine_nodes < opts_.min_spine_nodes)
      opts_.max_spine_nodes = opts_.min_spine_nodes;
    if (opts_.min_spine_nodes < 1) opts_.min_spine_nodes = 1;
  }

  GeneratedDeck run() {
    cards_ << "* awe_fuzz generated deck seed=" << opts_.seed << '\n';
    maybe_define_subckt();
    build_spine();
    add_input();
    decorate();
    instantiate_subckts();
    choose_output_and_symbols();
    cards_ << ".end\n";

    GeneratedDeck out;
    out.seed = opts_.seed;
    out.text = cards_.str();
    out.parsed = circuit::parse_deck_string(out.text);
    check_invariants(out);
    return out;
  }

 private:
  std::size_t dim() const { return nodes_.size() + extra_nodes_ + aux_; }
  bool fits(std::size_t extra) const { return dim() + extra <= opts_.max_mna_dim; }

  const std::string& any_node() { return nodes_[rng_.index(nodes_.size())]; }
  /// A node or ground, never equal to `not_this`.
  std::string other_node(const std::string& not_this) {
    for (int tries = 0; tries < 8; ++tries) {
      std::string cand = rng_.coin(0.3) ? "0" : any_node();
      if (cand != not_this) return cand;
    }
    return "0";
  }

  std::string fresh(const char* stem) {
    return std::string(stem) + std::to_string(uid_++);
  }

  void maybe_define_subckt() {
    use_subckt_ = opts_.allow_subckt && rng_.coin(0.35);
    if (!use_subckt_) return;
    // RC-pi two-port: one internal node per instance, no aux unknowns.
    cards_ << ".subckt rcpi a b\n"
           << "rs1 a m " << json::exact(rng_.log_uniform(50.0, 5e3)) << '\n'
           << "rs2 m b " << json::exact(rng_.log_uniform(50.0, 5e3)) << '\n'
           << "cs1 m 0 " << json::exact(rng_.log_uniform(1e-13, 1e-9)) << '\n'
           << ".ends\n";
  }

  void build_spine() {
    const std::size_t span = opts_.max_spine_nodes - opts_.min_spine_nodes + 1;
    const std::size_t n = opts_.min_spine_nodes + rng_.index(span);
    // fits(2): keep one dimension spare for the ballast branch below.
    for (std::size_t i = 0; i < n && fits(2); ++i) {
      const std::string node = "n" + std::to_string(i + 1);
      const std::string parent =
          (i == 0 || rng_.coin(0.3)) ? "0" : nodes_[rng_.index(nodes_.size())];
      nodes_.push_back(node);
      const std::string r = fresh("rsp");
      cards_ << r << ' ' << node << ' ' << parent << ' '
             << json::exact(rng_.log_uniform(10.0, 1e5)) << '\n';
      symbol_pool_.push_back(r);
    }
    // Ballast: a two-resistor chain to a fresh node.  The far resistor is
    // always extractable as a port — removing it leaves the node connected
    // through the near one, and a resistor-only node pair can never be
    // DC-shorted by an L/V/E/H path — so every deck has at least one
    // admissible symbol even when the spanning tree itself has none (a
    // pure spine with a V input shorts its only grounded pair).
    ballast_node_ = fresh("nb");
    ballast_ = fresh("rb");
    nodes_.push_back(ballast_node_);
    cards_ << fresh("rb") << ' ' << nodes_.front() << ' ' << ballast_node_ << ' '
           << json::exact(rng_.log_uniform(10.0, 1e5)) << '\n'
           << ballast_ << ' ' << ballast_node_ << " 0 "
           << json::exact(rng_.log_uniform(10.0, 1e5)) << '\n';
    symbol_pool_.push_back(ballast_);
  }

  void add_input() {
    // A V input costs one aux current; fall back to an I input when the
    // budget is tight.
    voltage_input_ = fits(1) && rng_.coin(0.65);
    input_name_ = voltage_input_ ? "vin" : "iin";
    cards_ << input_name_ << ' ' << nodes_.front() << " 0 1\n";
    if (voltage_input_) ++aux_;
  }

  void decorate() {
    const std::size_t n = rng_.index(opts_.max_decorations + 1);
    for (std::size_t i = 0; i < n; ++i) {
      switch (rng_.index(9)) {
        case 0:
        case 1: add_capacitor(); break;
        case 2: add_extra_resistor(); break;
        case 3: add_series_rl(); break;
        case 4: add_vccs(); break;
        case 5: add_vcvs(); break;
        case 6: add_cccs(); break;
        case 7: add_mutual(); break;
        case 8: add_ccvs(); break;
      }
    }
  }

  void add_capacitor() {
    const std::string a = any_node();
    const std::string b = rng_.coin(0.6) ? "0" : other_node(a);
    const std::string c = fresh("cd");
    cards_ << c << ' ' << a << ' ' << b << ' ' << json::exact(rng_.log_uniform(1e-13, 1e-8))
           << '\n';
    symbol_pool_.push_back(c);
  }

  void add_extra_resistor() {
    const std::string a = any_node();
    const std::string b = other_node(a);
    const std::string r = fresh("rx");
    cards_ << r << ' ' << a << ' ' << b << ' ' << json::exact(rng_.log_uniform(10.0, 1e5))
           << '\n';
    symbol_pool_.push_back(r);
  }

  void add_series_rl() {
    // R from an existing node to a FRESH middle node, L onward: the
    // inductor's voltage-defined branch can never close a loop, and the
    // middle node keeps a resistive DC path.
    if (!opts_.allow_inductors || !fits(2)) return;
    const std::string a = any_node();
    const std::string b = other_node(a);
    const std::string mid = fresh("m");
    const std::string r = fresh("rl");
    const std::string l = fresh("ll");
    nodes_.push_back(mid);
    ++aux_;
    cards_ << r << ' ' << a << ' ' << mid << ' ' << json::exact(rng_.log_uniform(10.0, 2e3))
           << '\n'
           << l << ' ' << mid << ' ' << b << ' ' << json::exact(rng_.log_uniform(1e-9, 1e-5))
           << '\n';
    symbol_pool_.push_back(r);
    symbol_pool_.push_back(l);
    free_inductors_.push_back(l);
  }

  void add_vccs() {
    if (!opts_.allow_controlled) return;
    const std::string a = any_node();
    const std::string b = other_node(a);
    const std::string cp = any_node();
    const std::string cn = other_node(cp);
    const std::string g = fresh("gd");
    cards_ << g << ' ' << a << ' ' << b << ' ' << cp << ' ' << cn << ' '
           << json::exact(rng_.log_uniform(1e-5, 1e-2)) << '\n';
    symbol_pool_.push_back(g);
  }

  void add_vcvs() {
    if (!opts_.allow_controlled || !fits(2)) return;
    const std::string out = fresh("ne");
    const std::string back = any_node();
    const std::string cp = any_node();
    const std::string cn = other_node(cp);
    nodes_.push_back(out);
    ++aux_;
    cards_ << fresh("ed") << ' ' << out << ' ' << back << ' ' << cp << ' ' << cn << ' '
           << json::exact(rng_.log_uniform(0.1, 10.0)) << '\n';
  }

  /// F/H control currents flow through a dedicated 0 V sense source — never
  /// through the input source, which the compiled path removes as the
  /// excitation port (leaving a dangling control reference).  The sense
  /// branch is R from an existing node to a fresh node, then the 0 V source
  /// onward to a second existing non-ground node: no rail, no V loop, and
  /// the fresh node keeps a DC path through the source itself.
  bool ensure_sense_source() {
    if (!sense_source_.empty()) return true;
    if (nodes_.size() < 2 || !fits(2)) return false;
    const std::string a = any_node();
    std::string b;
    for (int tries = 0; tries < 8 && b.empty(); ++tries) {
      const std::string& cand = any_node();
      if (cand != a) b = cand;
    }
    if (b.empty()) return false;
    const std::string mid = fresh("ms");
    const std::string r = fresh("rsn");
    sense_source_ = fresh("vsn");
    nodes_.push_back(mid);
    ++aux_;
    cards_ << r << ' ' << a << ' ' << mid << ' ' << json::exact(rng_.log_uniform(50.0, 5e3))
           << '\n'
           << sense_source_ << ' ' << mid << ' ' << b << " 0\n";
    symbol_pool_.push_back(r);
    return true;
  }

  void add_cccs() {
    if (!opts_.allow_controlled) return;
    if (!ensure_sense_source()) return;
    const std::string a = any_node();
    const std::string b = other_node(a);
    cards_ << fresh("fd") << ' ' << a << ' ' << b << ' ' << sense_source_ << ' '
           << json::exact(rng_.log_uniform(0.05, 2.0)) << '\n';
  }

  void add_ccvs() {
    if (!opts_.allow_controlled) return;
    if (!fits(sense_source_.empty() ? 4 : 2)) return;
    if (!ensure_sense_source()) return;
    const std::string out = fresh("nh");
    const std::string back = any_node();
    nodes_.push_back(out);
    ++aux_;
    cards_ << fresh("hd") << ' ' << out << ' ' << back << ' ' << sense_source_ << ' '
           << json::exact(rng_.log_uniform(1.0, 1e3)) << '\n';
  }

  void add_mutual() {
    if (!opts_.allow_mutual || free_inductors_.size() < 2) return;
    const std::size_t i = rng_.index(free_inductors_.size());
    std::size_t j = rng_.index(free_inductors_.size() - 1);
    if (j >= i) ++j;
    const std::string l1 = free_inductors_[i];
    const std::string l2 = free_inductors_[j];
    cards_ << fresh("kd") << ' ' << l1 << ' ' << l2 << ' '
           << json::exact(0.2 + 0.75 * rng_.real()) << '\n';
    // Coupled inductors may not be symbolic; drop them from both pools.
    for (const auto& l : {l1, l2}) {
      std::erase(free_inductors_, l);
      std::erase(symbol_pool_, l);
    }
  }

  void instantiate_subckts() {
    if (!use_subckt_) return;
    const std::size_t n = 1 + (rng_.coin(0.4) ? 1 : 0);
    for (std::size_t i = 0; i < n && fits(1); ++i) {
      const std::string inst = fresh("x");
      const std::string a = any_node();
      const std::string b = other_node(a);
      ++extra_nodes_;  // the instance's internal node "<inst>.m"
      cards_ << inst << ' ' << a << ' ' << b << " rcpi\n";
      output_candidates_.push_back(inst + ".m");
      symbol_pool_.push_back(inst + ".rs1");
      symbol_pool_.push_back(inst + ".cs1");
    }
  }

  void choose_output_and_symbols() {
    for (const auto& n : nodes_) output_candidates_.push_back(n);

    // Fisher–Yates shuffles of the output candidates and the symbol pool,
    // then a greedy admissibility filter: the OUTPUT node is a port too, so
    // it must be co-selected with the symbols (an output sitting on a
    // grounded inductor closes a rigid loop no matter which symbols we
    // pick).  The ballast node/resistor pair is admissible by construction
    // — every rigid branch the generator emits has a then-fresh endpoint,
    // so the ballast node's rigid component is just itself — which makes
    // the final fallback total.
    std::vector<std::string> outs = output_candidates_;
    for (std::size_t i = outs.size(); i > 1; --i)
      std::swap(outs[i - 1], outs[rng_.index(i)]);
    std::vector<std::string> pool = symbol_pool_;
    for (std::size_t i = pool.size(); i > 1; --i)
      std::swap(pool[i - 1], pool[rng_.index(i)]);
    const std::size_t max_k = std::min(opts_.max_symbols, pool.size());
    const std::size_t k = 1 + rng_.index(std::max<std::size_t>(max_k, 1));

    circuit::ParsedDeck flat = circuit::parse_deck_string(cards_.str() + ".end\n");
    flat.input_source = input_name_;
    std::string out;
    std::vector<std::string> chosen;
    for (const auto& out_cand : outs) {
      flat.output_node = out_cand;
      chosen.clear();
      for (const auto& cand : pool) {
        if (chosen.size() >= k) break;
        chosen.push_back(cand);
        if (!symbols_extractable(flat, chosen)) chosen.pop_back();
      }
      if (chosen.empty() && symbols_extractable(flat, {ballast_}))
        chosen.push_back(ballast_);
      if (!chosen.empty()) {
        out = out_cand;
        break;
      }
    }
    if (out.empty()) {
      out = ballast_node_;
      chosen.assign(1, ballast_);
    }

    cards_ << ".symbol";
    for (const auto& s : chosen) cards_ << ' ' << s;
    cards_ << '\n';
    cards_ << ".input " << input_name_ << '\n';
    cards_ << ".output " << out << '\n';
  }

  void check_invariants(GeneratedDeck& out) const {
    const auto problems = out.parsed.netlist.validate();
    if (!problems.empty())
      throw std::logic_error("netlist_gen seed " + std::to_string(opts_.seed) +
                             " produced an ill-posed deck: " + problems.front());
    const circuit::MnaAssembler assembler(out.parsed.netlist);
    out.mna_dim = assembler.layout().dim();
    if (out.mna_dim > opts_.max_mna_dim)
      throw std::logic_error("netlist_gen seed " + std::to_string(opts_.seed) +
                             " busted its MNA budget: dim " +
                             std::to_string(out.mna_dim) + " > " +
                             std::to_string(opts_.max_mna_dim));
    if (out.parsed.symbol_elements.empty() || out.parsed.input_source.empty() ||
        out.parsed.output_node.empty())
      throw std::logic_error("netlist_gen: missing directives");
  }

  GenOptions opts_;
  Rng rng_;
  std::ostringstream cards_;
  std::vector<std::string> nodes_;             ///< attachable non-ground nodes
  std::vector<std::string> output_candidates_; ///< nodes_ + subckt internals
  std::vector<std::string> symbol_pool_;       ///< R/C/L(uncoupled)/VCCS names
  std::vector<std::string> free_inductors_;    ///< not yet mutually coupled
  std::size_t aux_ = 0;
  std::size_t extra_nodes_ = 0;
  std::size_t uid_ = 1;
  bool use_subckt_ = false;
  bool voltage_input_ = false;
  std::string input_name_;
  std::string sense_source_;  ///< shared 0 V control source for F/H cards
  std::string ballast_;       ///< guaranteed-extractable symbol fallback
  std::string ballast_node_;  ///< the ballast chain's middle node
};

}  // namespace

GeneratedDeck generate_deck(const GenOptions& opts) { return DeckGen(opts).run(); }

std::uint64_t case_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t s = seed + 0x632BE59BD9B4E019ull * (index + 1);
  std::uint64_t a = splitmix64(s);
  return a ? a : 1;  // seed 0 is reserved as "unset" in reports
}

}  // namespace awe::testing
