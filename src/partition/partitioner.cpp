#include "partition/partitioner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "circuit/content_hash.hpp"

#include "circuit/mna.hpp"
#include "health/report.hpp"
#include "health/status.hpp"
#include "partition/block_store.hpp"
#include "partition/cells.hpp"
#include "partition/port_moments.hpp"

namespace awe::part {

using circuit::Element;
using circuit::ElementKind;
using circuit::kGround;
using circuit::Netlist;
using circuit::NodeId;
using symbolic::Polynomial;
using symbolic::PolyMatrix;
using symbolic::RationalFunction;

std::vector<std::string> SymbolicMoments::symbol_names() const {
  std::vector<std::string> names;
  names.reserve(symbols.size());
  for (const auto& s : symbols) names.push_back(s.name);
  return names;
}

RationalFunction SymbolicMoments::moment(std::size_t k) const {
  Polynomial den = Polynomial::constant(det_y0.nvars(), 1.0);
  for (std::size_t i = 0; i <= k; ++i) den = den * det_y0;
  return RationalFunction(numerators.at(k), std::move(den));
}

std::vector<double> SymbolicMoments::to_symbol_values(
    std::span<const double> element_values) const {
  if (element_values.size() != symbols.size())
    throw std::invalid_argument("SymbolicMoments: wrong number of element values");
  std::vector<double> vals(element_values.begin(), element_values.end());
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    if (symbols[i].reciprocal) {
      if (vals[i] == 0.0)
        throw std::domain_error("SymbolicMoments: zero value for reciprocal symbol");
      vals[i] = 1.0 / vals[i];
    }
  }
  return vals;
}

std::vector<double> SymbolicMoments::evaluate(std::span<const double> element_values) const {
  const auto vals = to_symbol_values(element_values);
  const double d = det_y0.evaluate(vals);
  if (d == 0.0) throw std::domain_error("SymbolicMoments: det(Y0) vanishes at this point");
  std::vector<double> m(numerators.size());
  double dp = d;
  for (std::size_t k = 0; k < numerators.size(); ++k) {
    m[k] = numerators[k].evaluate(vals) / dp;
    dp *= d;
  }
  return m;
}

namespace {

bool symbolic_kind_supported(ElementKind kind) {
  switch (kind) {
    case ElementKind::kResistor:
    case ElementKind::kConductance:
    case ElementKind::kCapacitor:
    case ElementKind::kInductor:
    case ElementKind::kVccs:
      return true;
    default:
      return false;
  }
}

}  // namespace

void require_distinct_symbols(const std::vector<std::string>& symbol_elements) {
  std::unordered_set<std::string_view> seen;
  for (const std::string& name : symbol_elements)
    if (!seen.insert(name).second)
      throw std::invalid_argument("symbolic element '" + name + "' listed twice");
}

MomentPartitioner::MomentPartitioner(const Netlist& netlist,
                                     std::vector<std::string> symbol_elements,
                                     std::string input_source, NodeId output_node)
    : netlist_(&netlist), output_node_(output_node) {
  if (output_node_ == kGround)
    throw std::invalid_argument("MomentPartitioner: output node cannot be ground");
  if (output_node_ > netlist.num_nodes())
    throw std::invalid_argument("MomentPartitioner: output node is not in the netlist");
  if (symbol_elements.empty())
    throw std::invalid_argument("MomentPartitioner: need at least one symbolic element");
  require_distinct_symbols(symbol_elements);

  const auto input_idx = netlist.find_element(input_source);
  if (!input_idx)
    throw std::invalid_argument("MomentPartitioner: unknown input source '" + input_source +
                                "'");
  const auto input_kind = netlist.elements()[*input_idx].kind;
  if (input_kind != ElementKind::kVoltageSource && input_kind != ElementKind::kCurrentSource)
    throw std::invalid_argument("MomentPartitioner: input '" + input_source +
                                "' is not an independent source");
  input_element_ = *input_idx;

  for (auto& name : symbol_elements) {
    const auto idx = netlist.find_element(name);
    if (!idx)
      throw std::invalid_argument("MomentPartitioner: unknown symbolic element '" + name +
                                  "'");
    const Element& e = netlist.elements()[*idx];
    if (!symbolic_kind_supported(e.kind))
      throw std::invalid_argument("MomentPartitioner: element '" + name + "' of kind " +
                                  circuit::to_string(e.kind) +
                                  " cannot be symbolic (supported: R, G, C, L, VCCS)");
    if (*idx == input_element_)
      throw std::invalid_argument("MomentPartitioner: input source cannot be symbolic");
    if (e.kind == ElementKind::kInductor) {
      // A symbolic inductor must not participate in a mutual coupling:
      // the M = k sqrt(L1 L2) stamp would not be linear in the symbol.
      for (const auto& other : netlist.elements())
        if (other.kind == ElementKind::kMutual &&
            (other.ctrl_source == e.name || other.ctrl_source2 == e.name))
          throw std::invalid_argument("MomentPartitioner: inductor '" + e.name +
                                      "' is mutually coupled ('" + other.name +
                                      "') and cannot be symbolic");
    }
    SymbolSpec spec;
    spec.element_index = *idx;
    spec.name = e.name;
    spec.reciprocal = (e.kind == ElementKind::kResistor);
    symbols_.push_back(std::move(spec));
  }

  // Supply rails: nodes pinned to ground by an ideal V source (other than
  // the input) are AC ground for the small-signal analysis.
  rail_nodes_.assign(netlist.num_nodes() + 1, false);
  for (std::size_t i = 0; i < netlist.elements().size(); ++i) {
    if (i == input_element_) continue;
    const Element& e = netlist.elements()[i];
    if (e.kind != ElementKind::kVoltageSource) continue;
    if (e.neg == kGround && e.pos != kGround) rail_nodes_[e.pos] = true;
    if (e.pos == kGround && e.neg != kGround) rail_nodes_[e.neg] = true;
  }
  if (rail_nodes_[output_node_])
    throw std::invalid_argument(
        "MomentPartitioner: output node is pinned by an ideal source (AC ground); "
        "its small-signal transfer is identically zero");
  {
    const Element& in = netlist.elements()[input_element_];
    if ((in.pos != kGround && rail_nodes_[in.pos]) ||
        (in.neg != kGround && rail_nodes_[in.neg]))
      throw std::invalid_argument(
          "MomentPartitioner: input source terminal is pinned by another ideal "
          "source");
  }

  // Port set: terminals of symbolic elements (incl. VCCS controls), input
  // source terminals, output node.  Ground and AC-ground rails never
  // become ports.
  auto add_port = [&](NodeId n) {
    if (!ac_grounded(n)) ports_.push_back(n);
  };
  for (const auto& s : symbols_) {
    const Element& e = netlist.elements()[s.element_index];
    add_port(e.pos);
    add_port(e.neg);
    if (e.kind == ElementKind::kVccs) {
      add_port(e.ctrl_pos);
      add_port(e.ctrl_neg);
    }
  }
  {
    const Element& in = netlist.elements()[input_element_];
    add_port(in.pos);
    add_port(in.neg);
  }
  add_port(output_node_);
  std::sort(ports_.begin(), ports_.end());
  ports_.erase(std::unique(ports_.begin(), ports_.end()), ports_.end());
}

bool MomentPartitioner::ac_grounded(NodeId node) const {
  return node == kGround || (node < rail_nodes_.size() && rail_nodes_[node]);
}

std::size_t MomentPartitioner::port_index(NodeId node) const {
  const auto it = std::lower_bound(ports_.begin(), ports_.end(), node);
  if (it == ports_.end() || *it != node)
    throw std::logic_error("MomentPartitioner: node is not a port");
  return static_cast<std::size_t>(it - ports_.begin());
}

namespace {

using CellBlocks = std::shared_ptr<const std::vector<std::vector<double>>>;

/// Sum the per-cell blocks over the expanded boundary space
/// [ports, promoted] in fixed cell order (superposition of grounded-
/// boundary extractions is exact, and the fixed order keeps the
/// floating-point sums bit-stable), then Schur-reduce back to the port
/// space.  Returns an empty optional when the DC seam block is singular.
std::optional<std::vector<std::vector<double>>> sum_and_reduce(
    const CellPlan& plan, const std::vector<NodeId>& remapped_ports,
    const std::vector<CellBlocks>& cell_blocks, std::size_t count) {
  const std::size_t np = remapped_ports.size();
  const std::size_t ne = plan.promoted.size();
  const std::size_t dim = np + ne;

  std::unordered_map<NodeId, std::size_t> global_index;
  for (std::size_t p = 0; p < np; ++p) global_index.emplace(remapped_ports[p], p);
  for (std::size_t e = 0; e < ne; ++e) global_index.emplace(plan.promoted[e], np + e);

  std::vector<std::vector<double>> yk_full(count, std::vector<double>(dim * dim, 0.0));
  for (std::size_t ci = 0; ci < plan.cells.size(); ++ci) {
    const Cell& cell = plan.cells[ci];
    const std::size_t nb = cell.boundary.size();
    if (nb == 0) continue;
    std::vector<std::size_t> gidx(nb);
    for (std::size_t b = 0; b < nb; ++b) gidx[b] = global_index.at(cell.boundary[b]);
    for (std::size_t k = 0; k < count; ++k) {
      const std::vector<double>& block = (*cell_blocks[ci])[k];
      std::vector<double>& full = yk_full[k];
      for (std::size_t i = 0; i < nb; ++i)
        for (std::size_t j = 0; j < nb; ++j)
          full[gidx[i] * dim + gidx[j]] += block[i * nb + j];
    }
  }
  return schur_reduce_series(yk_full, np, count);
}

/// Extract every cell of `plan` (block-store-aware), sum the per-cell
/// blocks over the expanded boundary space [ports, promoted] in fixed
/// cell order, and Schur-reduce back to the port space.  Returns an empty
/// optional when the Schur DC seam block is singular; a cell extraction
/// failure propagates from the first failing cell.  With `out_blocks`
/// non-null, the per-cell blocks are handed out for the plan memo.
std::optional<std::vector<std::vector<double>>> extract_plan(
    circuit::Netlist& numeric, const CellPlan& plan,
    const std::vector<NodeId>& remapped_ports, std::size_t count, BlockStore* store,
    std::vector<CellBlocks>* out_blocks = nullptr) {
  std::vector<CellBlocks> cell_blocks(plan.cells.size());
  std::uint64_t reused = 0, built = 0;
  for (std::size_t ci = 0; ci < plan.cells.size(); ++ci) {
    const Cell& cell = plan.cells[ci];
    const std::size_t nb = cell.boundary.size();
    if (nb == 0) continue;  // no boundary contact: zero contribution
    std::string key;
    if (store) {
      key = cell_key(cell, count);
      if (auto cached = store->load(key, nb, count)) {
        cell_blocks[ci] =
            std::make_shared<const std::vector<std::vector<double>>>(std::move(*cached));
        ++reused;
        continue;
      }
    }
    CellCircuit cc = build_cell_circuit(numeric, cell, plan);
    auto fresh = std::make_shared<const std::vector<std::vector<double>>>(
        port_admittance_moments_inplace(cc.circuit, cc.boundary_local, count));
    ++built;
    if (store) store->store(key, nb, *fresh);
    cell_blocks[ci] = std::move(fresh);
  }
  // The reused/built counters describe block-store traffic, so they only
  // move when a store is attached: plain builds stay counter-silent and
  // run-twice health reports stay byte-identical.
  if (store != nullptr) {
    auto& counters = health::global_counters();
    counters.partition_blocks_reused.fetch_add(reused, std::memory_order_relaxed);
    counters.partition_blocks_built.fetch_add(built, std::memory_order_relaxed);
  }

  auto reduced = sum_and_reduce(plan, remapped_ports, cell_blocks, count);
  if (reduced && out_blocks) *out_blocks = std::move(cell_blocks);
  return reduced;
}

// ---- Process-wide plan/block memo.
//
// Planning, the numeric-netlist remap and the clean-cell disk round trip
// are all O(circuit) — they would cap the incremental speedup no matter
// how little actually changed.  The memo keys the *structure* of the
// numeric partition (element kinds/names/terminals, ports, moment count,
// cell target, block dir — everything except element values) and caches
// the remapped netlist, the cell plan and the latest per-cell blocks.  A
// rebuild after a value edit then reduces to: diff the value vectors,
// re-key and re-extract only the dirty cells, and re-run the fixed-order
// summation — identical arithmetic to a cold build of the edited netlist,
// because clean blocks are the very vectors a cold build would reload
// from the store and dirty cells are extracted from the same canonical
// cell circuits.  Entries are immutable and shared; a hit installs a
// fresh entry with updated values/blocks.

struct PlanMemoStructure {
  circuit::Netlist numeric;  ///< element values are the creation snapshot
  std::vector<NodeId> remapped_ports;
  CellPlan plan;
  std::vector<std::size_t> cell_of;  ///< numeric element -> owning cell
};

struct PlanMemoEntry {
  std::shared_ptr<const PlanMemoStructure> structure;
  std::vector<double> values;  ///< per numeric element, netlist order
  std::vector<CellBlocks> blocks;  ///< per cell; null when no boundary
};

std::mutex g_plan_memo_mu;
/// Small LRU, most recently used last.  The memo holds whole numeric
/// netlists and moment blocks, so the cap stays low; an evicted entry
/// costs one re-plan, never correctness.
std::vector<std::pair<std::string, std::shared_ptr<const PlanMemoEntry>>> g_plan_memo;
constexpr std::size_t kPlanMemoCap = 8;

std::shared_ptr<const PlanMemoEntry> plan_memo_find(const std::string& key) {
  std::lock_guard<std::mutex> lock(g_plan_memo_mu);
  for (auto it = g_plan_memo.begin(); it != g_plan_memo.end(); ++it) {
    if (it->first != key) continue;
    auto entry = it->second;
    std::rotate(it, it + 1, g_plan_memo.end());
    return entry;
  }
  return nullptr;
}

void plan_memo_put(const std::string& key, std::shared_ptr<const PlanMemoEntry> entry) {
  std::lock_guard<std::mutex> lock(g_plan_memo_mu);
  for (auto it = g_plan_memo.begin(); it != g_plan_memo.end(); ++it) {
    if (it->first != key) continue;
    it->second = std::move(entry);
    std::rotate(it, it + 1, g_plan_memo.end());
    return;
  }
  g_plan_memo.emplace_back(key, std::move(entry));
  if (g_plan_memo.size() > kPlanMemoCap) g_plan_memo.erase(g_plan_memo.begin());
}

void plan_memo_insert(const std::string& key, circuit::Netlist numeric,
                      std::vector<NodeId> remapped_ports, CellPlan plan,
                      std::vector<double> values, std::vector<CellBlocks> blocks) {
  auto structure = std::make_shared<PlanMemoStructure>();
  structure->cell_of.assign(numeric.elements().size(), 0);
  for (std::size_t ci = 0; ci < plan.cells.size(); ++ci)
    for (const std::size_t i : plan.cells[ci].elements) structure->cell_of[i] = ci;
  structure->numeric = std::move(numeric);
  structure->remapped_ports = std::move(remapped_ports);
  structure->plan = std::move(plan);
  auto entry = std::make_shared<PlanMemoEntry>();
  entry->structure = std::move(structure);
  entry->values = std::move(values);
  entry->blocks = std::move(blocks);
  plan_memo_put(key, std::move(entry));
}

/// Rebuild from a memo entry: re-extract only the cells whose member
/// values changed.  Returns an empty optional when the hit path cannot
/// prove cold-equivalence cheaply — a dirty cell hits the singular-Y0
/// ladder or the seam pivot degenerates — in which case the caller runs
/// the full path, whose fallback ladder is a pure function of the edited
/// netlist (exactly what a cold build would do).
std::optional<std::vector<std::vector<double>>> plan_memo_rebuild(
    const PlanMemoEntry& e, const std::string& memo_key,
    const std::vector<double>& cur, std::size_t count, const ExtractOptions& opts) {
  const PlanMemoStructure& s = *e.structure;
  if (cur.size() != e.values.size()) return std::nullopt;

  std::vector<char> dirty(s.plan.cells.size(), 0);
  for (std::size_t i = 0; i < cur.size(); ++i)
    if (cur[i] != e.values[i]) dirty[s.cell_of[i]] = 1;

  BlockStore store(opts.block_dir);
  std::vector<CellBlocks> blocks = e.blocks;
  std::uint64_t reused = 0, built = 0;
  try {
    for (std::size_t ci = 0; ci < s.plan.cells.size(); ++ci) {
      const Cell& cell = s.plan.cells[ci];
      const std::size_t nb = cell.boundary.size();
      if (nb == 0) continue;
      if (!dirty[ci]) {
        ++reused;
        continue;
      }
      const std::string key = cell_key_with_values(cell, cur, count);
      if (auto cached = store.load(key, nb, count)) {
        blocks[ci] =
            std::make_shared<const std::vector<std::vector<double>>>(std::move(*cached));
        ++reused;
        continue;
      }
      CellCircuit cc = build_cell_circuit(s.numeric, cell, s.plan, cur);
      auto fresh = std::make_shared<const std::vector<std::vector<double>>>(
          port_admittance_moments_inplace(cc.circuit, cc.boundary_local, count));
      store.store(key, nb, *fresh);
      blocks[ci] = std::move(fresh);
      ++built;
    }
  } catch (const health::FailError& err) {
    if (err.fail_class() != health::FailClass::kSingularY0) throw;
    return std::nullopt;
  }

  auto reduced = sum_and_reduce(s.plan, s.remapped_ports, blocks, count);
  if (!reduced) return std::nullopt;

  auto& counters = health::global_counters();
  counters.partition_blocks_reused.fetch_add(reused, std::memory_order_relaxed);
  counters.partition_blocks_built.fetch_add(built, std::memory_order_relaxed);

  auto next = std::make_shared<PlanMemoEntry>();
  next->structure = e.structure;
  next->values = cur;
  next->blocks = std::move(blocks);
  plan_memo_put(memo_key, std::move(next));
  return reduced;
}

}  // namespace

void clear_plan_cache() {
  std::lock_guard<std::mutex> lock(g_plan_memo_mu);
  g_plan_memo.clear();
}

std::vector<std::vector<double>> MomentPartitioner::numeric_port_moments(
    std::size_t count, const ExtractOptions& opts) const {
  const std::size_t m = ports_.size();

  std::vector<bool> is_symbolic(netlist_->elements().size(), false);
  for (const auto& s : symbols_) is_symbolic[s.element_index] = true;

  // With a block store attached, try the process-wide plan memo first: a
  // structural fingerprint of the numeric partition (values excluded)
  // keyed against the cached plan lets a value edit skip the remap, the
  // planning pass and every clean cell.  The fingerprint streams node
  // *ids* rather than names — interning is per-name, so the id pattern
  // pins the numeric netlist's structure, and cell extraction only ever
  // sees canonical labels.
  const bool use_memo = !opts.block_dir.empty();
  std::string memo_key;
  std::vector<double> cur_values;
  if (use_memo) {
    std::string buf;
    buf.reserve(64 * netlist_->elements().size() + 256);
    enc::put_str(buf, "plan-memo-v1");
    enc::put_u64(buf, count);
    enc::put_u64(buf, opts.cell_target);
    enc::put_str(buf, opts.block_dir);
    enc::put_u64(buf, netlist_->num_nodes());
    enc::put_u64(buf, ports_.size());
    for (const NodeId p : ports_) enc::put_u64(buf, p);
    for (std::size_t i = 0; i < netlist_->elements().size(); ++i) {
      if (is_symbolic[i] || i == input_element_) continue;
      const Element& e = netlist_->elements()[i];
      if (e.kind == ElementKind::kCurrentSource) continue;  // open in numeric
      enc::put_u8(buf, static_cast<std::uint8_t>(e.kind));
      enc::put_str(buf, e.name);
      enc::put_u64(buf, e.pos);
      enc::put_u64(buf, e.neg);
      switch (e.kind) {
        case ElementKind::kVccs:
        case ElementKind::kVcvs:
          enc::put_u64(buf, e.ctrl_pos);
          enc::put_u64(buf, e.ctrl_neg);
          break;
        case ElementKind::kCccs:
        case ElementKind::kCcvs:
          enc::put_str(buf, e.ctrl_source);
          break;
        case ElementKind::kMutual:
          enc::put_str(buf, e.ctrl_source);
          enc::put_str(buf, e.ctrl_source2);
          break;
        default:
          break;
      }
      // Values that survive into the numeric netlist, in its element
      // order: non-input V sources are zeroed there, so a parent V-source
      // value edit correctly dirties nothing.
      cur_values.push_back(e.kind == ElementKind::kVoltageSource ? 0.0 : e.value);
    }
    memo_key = enc::digest_hex(buf);
    if (const auto entry = plan_memo_find(memo_key)) {
      if (auto reduced = plan_memo_rebuild(*entry, memo_key, cur_values, count, opts))
        return std::move(*reduced);
    }
  }

  // Numeric partition: every element except the symbolic ones and the
  // input source, plus one grounding voltage source per port.  Node names
  // are re-interned, so ports are re-resolved by name.
  Netlist numeric;

  auto remap = [&](NodeId n) { return numeric.node(netlist_->node_name(n)); };
  for (std::size_t i = 0; i < netlist_->elements().size(); ++i) {
    if (is_symbolic[i] || i == input_element_) continue;
    const Element& e = netlist_->elements()[i];
    switch (e.kind) {
      case ElementKind::kResistor:
        numeric.add_resistor(e.name, remap(e.pos), remap(e.neg), e.value);
        break;
      case ElementKind::kConductance:
        numeric.add_conductance(e.name, remap(e.pos), remap(e.neg), e.value);
        break;
      case ElementKind::kCapacitor:
        numeric.add_capacitor(e.name, remap(e.pos), remap(e.neg), e.value);
        break;
      case ElementKind::kInductor:
        numeric.add_inductor(e.name, remap(e.pos), remap(e.neg), e.value);
        break;
      case ElementKind::kVoltageSource:
        // Non-input V sources stay as 0-valued sources (shorts) — their
        // branch is part of the numeric partition topology.
        numeric.add_voltage_source(e.name, remap(e.pos), remap(e.neg), 0.0);
        break;
      case ElementKind::kCurrentSource:
        break;  // zeroed current source = open circuit
      case ElementKind::kVccs:
        numeric.add_vccs(e.name, remap(e.pos), remap(e.neg), remap(e.ctrl_pos),
                         remap(e.ctrl_neg), e.value);
        break;
      case ElementKind::kVcvs:
        numeric.add_vcvs(e.name, remap(e.pos), remap(e.neg), remap(e.ctrl_pos),
                         remap(e.ctrl_neg), e.value);
        break;
      case ElementKind::kCccs:
        numeric.add_cccs(e.name, remap(e.pos), remap(e.neg), e.ctrl_source, e.value);
        break;
      case ElementKind::kCcvs:
        numeric.add_ccvs(e.name, remap(e.pos), remap(e.neg), e.ctrl_source, e.value);
        break;
      case ElementKind::kMutual:
        numeric.add_mutual(e.name, e.ctrl_source, e.ctrl_source2, e.value);
        break;
    }
  }
  std::vector<NodeId> remapped_ports;
  remapped_ports.reserve(m);
  for (std::size_t p = 0; p < m; ++p) remapped_ports.push_back(remap(ports_[p]));

  BlockStore store(opts.block_dir);
  BlockStore* store_ptr = opts.block_dir.empty() ? nullptr : &store;

  // Promoted plan first; when a BFS seam makes a cell extraction or the
  // Schur DC pivot singular, fall back to whole connected components (no
  // promotion) — the exact grounded-port system of the unsplit partition.
  // Both decisions are pure functions of the netlist, never of the block
  // cache (blocks are only stored after a successful extraction), so cold
  // and incremental builds walk the same ladder.  Only a plan that
  // succeeded without falling back is memoized: a hit replays that plan
  // directly, and cold takes the same branch by purity.
  std::vector<CellBlocks> memo_blocks;
  auto memo_blocks_ptr = use_memo ? &memo_blocks : nullptr;
  bool fell_back = false;
  CellPlan plan =
      plan_cells(numeric, remapped_ports, opts.cell_target, /*allow_promotion=*/true);
  if (!plan.promoted.empty()) {
    try {
      if (auto reduced =
              extract_plan(numeric, plan, remapped_ports, count, store_ptr, memo_blocks_ptr)) {
        if (use_memo)
          plan_memo_insert(memo_key, std::move(numeric), std::move(remapped_ports),
                           std::move(plan), std::move(cur_values),
                           std::move(memo_blocks));
        return std::move(*reduced);
      }
    } catch (const health::FailError& e) {
      if (e.fail_class() != health::FailClass::kSingularY0) throw;
    }
    fell_back = true;
    plan = plan_cells(numeric, remapped_ports, opts.cell_target,
                      /*allow_promotion=*/false);
  }
  const CellPlan& component_plan = plan;
  auto reduced = extract_plan(numeric, component_plan, remapped_ports, count, store_ptr,
                              fell_back ? nullptr : memo_blocks_ptr);
  if (!reduced)
    throw health::FailError(health::FailClass::kSingularY0,
                            "numeric_port_moments: seam elimination is singular");
  if (use_memo && !fell_back)
    plan_memo_insert(memo_key, std::move(numeric), std::move(remapped_ports),
                     std::move(plan), std::move(cur_values), std::move(memo_blocks));
  return std::move(*reduced);
}

SymbolicMoments MomentPartitioner::compute(std::size_t count,
                                           const ExtractOptions& opts) const {
  if (count == 0) throw std::invalid_argument("MomentPartitioner: count must be >= 1");
  const std::size_t m = ports_.size();
  const std::size_t nvars = symbols_.size();
  const auto yk_numeric = numeric_port_moments(count, opts);

  // ---- Global layout: ports, then aux currents (input V source, symbolic
  // inductor branches).
  GlobalLayout lay;
  lay.num_ports = m;
  std::size_t dim = m;
  const Element& input = netlist_->elements()[input_element_];
  const bool v_input = input.kind == ElementKind::kVoltageSource;
  if (v_input) lay.input_aux = dim++;
  lay.inductor_aux.assign(symbols_.size(), SIZE_MAX);
  for (std::size_t si = 0; si < symbols_.size(); ++si) {
    if (netlist_->elements()[symbols_[si].element_index].kind == ElementKind::kInductor)
      lay.inductor_aux[si] = dim++;
  }
  lay.dim = dim;

  // ---- Assemble global Y_k as polynomial matrices.
  std::vector<PolyMatrix> yg;
  yg.reserve(count);
  for (std::size_t k = 0; k < count; ++k) yg.emplace_back(dim, dim, nvars);

  // Numeric partition blocks (constants).
  for (std::size_t k = 0; k < count; ++k)
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < m; ++j) {
        const double v = yk_numeric[k][i * m + j];
        if (v != 0.0) yg[k](i, j) += Polynomial::constant(nvars, v);
      }

  // Symbolic element stamps (exactly one term per element, paper eqn (10)).
  // AC-grounded rail nodes behave as ground.
  auto pidx = [&](NodeId n) { return port_index(n); };
  auto gnd = [&](NodeId n) { return ac_grounded(n); };
  for (std::size_t si = 0; si < symbols_.size(); ++si) {
    const Element& e = netlist_->elements()[symbols_[si].element_index];
    const Polynomial sym = Polynomial::variable(nvars, si);
    auto stamp2 = [&](PolyMatrix& y, NodeId a, NodeId b) {
      if (!gnd(a)) y(pidx(a), pidx(a)) += sym;
      if (!gnd(b)) y(pidx(b), pidx(b)) += sym;
      if (!gnd(a) && !gnd(b)) {
        y(pidx(a), pidx(b)) -= sym;
        y(pidx(b), pidx(a)) -= sym;
      }
    };
    switch (e.kind) {
      case ElementKind::kResistor:      // symbol is the conductance 1/R
      case ElementKind::kConductance:
        stamp2(yg[0], e.pos, e.neg);
        break;
      case ElementKind::kCapacitor:
        if (count > 1) stamp2(yg[1], e.pos, e.neg);
        break;
      case ElementKind::kInductor: {
        const std::size_t aux = lay.inductor_aux[si];
        const Polynomial one = Polynomial::constant(nvars, 1.0);
        if (!gnd(e.pos)) {
          yg[0](pidx(e.pos), aux) += one;
          yg[0](aux, pidx(e.pos)) += one;
        }
        if (!gnd(e.neg)) {
          yg[0](pidx(e.neg), aux) -= one;
          yg[0](aux, pidx(e.neg)) -= one;
        }
        if (count > 1) yg[1](aux, aux) -= sym;
        break;
      }
      case ElementKind::kVccs: {
        auto add = [&](NodeId r, NodeId c2, double sign) {
          if (gnd(r) || gnd(c2)) return;
          Polynomial t = sym;
          t *= sign;
          yg[0](pidx(r), pidx(c2)) += t;
        };
        add(e.pos, e.ctrl_pos, 1.0);
        add(e.pos, e.ctrl_neg, -1.0);
        add(e.neg, e.ctrl_pos, -1.0);
        add(e.neg, e.ctrl_neg, 1.0);
        break;
      }
      default:
        throw std::logic_error("unsupported symbolic kind slipped through");
    }
  }

  // Input source stamp + excitation vector I_0.
  std::vector<Polynomial> i0(dim, Polynomial(nvars));
  if (v_input) {
    const Polynomial one = Polynomial::constant(nvars, 1.0);
    if (input.pos != kGround) {
      yg[0](pidx(input.pos), lay.input_aux) += one;
      yg[0](lay.input_aux, pidx(input.pos)) += one;
    }
    if (input.neg != kGround) {
      yg[0](pidx(input.neg), lay.input_aux) -= one;
      yg[0](lay.input_aux, pidx(input.neg)) -= one;
    }
    i0[lay.input_aux] = Polynomial::constant(nvars, 1.0);
  } else {
    if (input.pos != kGround) i0[pidx(input.pos)] = Polynomial::constant(nvars, -1.0);
    if (input.neg != kGround) i0[pidx(input.neg)] = Polynomial::constant(nvars, 1.0);
  }

  // ---- Symbolic moment recursion via the adjugate.
  const Polynomial d = determinant(yg[0]);
  if (d.is_zero())
    throw std::runtime_error("MomentPartitioner: det(Y0) is identically zero");
  const PolyMatrix adj = adjugate(yg[0]);

  // N_0 = adj * I_0;  N_k = adj * ( - sum_{j=1..k} Y_j N_{k-j} d^{j-1} ).
  std::vector<std::vector<Polynomial>> n(count);
  n[0] = adj.multiply(i0);
  std::vector<Polynomial> d_pow{Polynomial::constant(nvars, 1.0)};  // d^0, d^1, ...
  for (std::size_t k = 1; k < count; ++k) {
    while (d_pow.size() < k) d_pow.push_back(d_pow.back() * d);
    std::vector<Polynomial> rhs(dim, Polynomial(nvars));
    for (std::size_t j = 1; j <= k; ++j) {
      const auto yj_n = yg[j].multiply(n[k - j]);
      for (std::size_t r = 0; r < dim; ++r) {
        if (yj_n[r].is_zero()) continue;
        rhs[r] -= yj_n[r] * d_pow[j - 1];
      }
    }
    n[k] = adj.multiply(rhs);
  }

  SymbolicMoments out;
  out.symbols = symbols_;
  out.det_y0 = d;
  out.port_count = m;
  out.global_dim = dim;
  const std::size_t out_idx = port_index(output_node_);
  out.numerators.reserve(count);
  for (std::size_t k = 0; k < count; ++k) out.numerators.push_back(std::move(n[k][out_idx]));
  return out;
}

}  // namespace awe::part
