#include "core/awesymbolic.hpp"

#include <limits>
#include <optional>
#include <stdexcept>

#include "awe/sensitivity.hpp"
#include "core/model_cache.hpp"
#include "engine/thread_pool.hpp"
#include "health/report.hpp"
#include "symbolic/serialize.hpp"

namespace awe::core {

using symbolic::CompiledProgram;
using symbolic::ExprGraph;

namespace {

/// Pack a lane block of element values (SoA, point stride `stride`) into
/// ws.symbol_values (lane stride `count`), applying the reciprocal
/// transforms.  Lanes where a reciprocal symbol is exactly zero — the
/// scalar path's throw condition — get ok[p] = 0 and a zero input.
void pack_symbol_block(std::span<const part::SymbolSpec> symbols,
                       std::span<const double> element_values, std::size_t stride,
                       std::size_t count, BatchWorkspace& ws,
                       std::span<unsigned char> ok) {
  for (std::size_t p = 0; p < count; ++p) ok[p] = 1;
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    const double* const src = element_values.data() + i * stride;
    double* const dst = ws.symbol_values.data() + i * count;
    if (symbols[i].reciprocal) {
      for (std::size_t p = 0; p < count; ++p) {
        if (src[p] == 0.0) {
          ok[p] = 0;
          dst[p] = 0.0;
        } else {
          dst[p] = 1.0 / src[p];
        }
      }
    } else {
      for (std::size_t p = 0; p < count; ++p) dst[p] = src[p];
    }
  }
}

void check_batch_args(std::size_t nsym, std::size_t out_rows,
                      std::span<const double> element_values, std::size_t stride,
                      std::size_t count, const BatchWorkspace& ws,
                      std::span<const double> moments_out, std::size_t out_stride,
                      std::span<const unsigned char> ok) {
  if (count > ws.width)
    throw std::invalid_argument("moments_batch: count exceeds workspace width");
  if (stride < count || out_stride < count)
    throw std::invalid_argument("moments_batch: stride smaller than count");
  if (nsym > 0 && element_values.size() < (nsym - 1) * stride + count)
    throw std::invalid_argument("moments_batch: element_values span too small");
  if (out_rows > 0 && moments_out.size() < (out_rows - 1) * out_stride + count)
    throw std::invalid_argument("moments_batch: moments_out span too small");
  if (ok.size() < count)
    throw std::invalid_argument("moments_batch: ok span too small");
}

/// Resolve BuildOptions to the pool a build should run with: the caller's
/// pool when supplied, a build-scoped pool when threads != 1, else serial.
/// `local` owns the build-scoped pool so it outlives the extraction.
sweep::ThreadPool* resolve_pool(const BuildOptions& build_opts,
                                std::optional<sweep::ThreadPool>& local) {
  if (build_opts.pool) return build_opts.pool;
  if (build_opts.threads == 1) return nullptr;
  local.emplace(build_opts.threads);
  return &*local;
}

/// Extraction knobs for a build: the resolved pool plus the per-cell
/// block store directory (explicit partition_block_dir, or derived from
/// cache_dir when the incremental flag is set).
part::ExtractOptions resolve_extract_options(const BuildOptions& build_opts,
                                             sweep::ThreadPool* pool) {
  part::ExtractOptions eo;
  eo.pool = pool;
  eo.block_dir = build_opts.partition_block_dir;
  if (eo.block_dir.empty() && build_opts.incremental && !build_opts.cache_dir.empty())
    eo.block_dir = build_opts.cache_dir + "/blocks";
  return eo;
}

}  // namespace

CompiledModel CompiledModel::build(const circuit::Netlist& netlist,
                                   std::vector<std::string> symbol_elements,
                                   const std::string& input_source,
                                   circuit::NodeId output_node, const ModelOptions& opts,
                                   const BuildOptions& build_opts) {
  if (opts.order == 0) throw std::invalid_argument("CompiledModel: order must be >= 1");

  // Cache probe before any expensive work: a hit skips partitioning,
  // adjugate recursion and compilation entirely.  A corrupt entry is
  // quarantined to .bad inside load_file and the build proceeds cold —
  // cache damage must never surface to the caller as an exception.
  std::string cache_key;
  bool cache_quarantined = false;
  if (!build_opts.cache_dir.empty()) {
    const circuit::NodeId outs[] = {output_node};
    cache_key = model_cache_key(netlist, symbol_elements, input_source, outs, opts);
    const std::string path = ModelCache::entry_path(build_opts.cache_dir, cache_key);
    // map_model mmap-opens a hit in place (O(pages touched)) instead of
    // stream-reading it; a corrupt or pre-v4 entry is quarantined and
    // rebuilt exactly as on the stream path.
    auto cached = build_opts.map_model ? ModelCache::map_file(path, &cache_quarantined)
                                       : ModelCache::load_file(path, &cache_quarantined);
    if (cached) return std::move(*cached);
  }

  std::optional<sweep::ThreadPool> local_pool;
  sweep::ThreadPool* pool = resolve_pool(build_opts, local_pool);

  part::MomentPartitioner partitioner(netlist, std::move(symbol_elements), input_source,
                                      output_node);
  part::SymbolicMoments sym =
      partitioner.compute(2 * opts.order, resolve_extract_options(build_opts, pool));

  // Lower [N_0 .. N_{2q-1}, det(Y0)] onto one shared DAG so the CSE pass
  // works across all moments, then compile.
  ExprGraph graph;
  const std::size_t nvars = sym.symbols.size();
  std::vector<symbolic::NodeId> vars;
  vars.reserve(nvars);
  for (std::size_t i = 0; i < nvars; ++i)
    vars.push_back(graph.input(static_cast<std::uint32_t>(i)));
  std::vector<symbolic::NodeId> roots;
  roots.reserve(sym.numerators.size() + 1);
  for (const auto& numerator : sym.numerators)
    roots.push_back(lower_polynomial(graph, numerator, vars));
  roots.push_back(lower_polynomial(graph, sym.det_y0, vars));
  CompiledProgram program(graph, roots);

  std::optional<CompiledProgram> grad_program;
  if (opts.with_gradients) {
    // Reverse-mode differentiation over the SAME graph (DESIGN.md §14):
    // one backward sweep per root yields its derivative with respect to
    // every symbol at once, and hash-consing shares all primal subterms
    // between the forward values and the adjoint expressions.  The
    // gradient program's roots embed the primal block first, so a single
    // run produces moments and gradients together:
    //   [N_0..N_{2q-1}, det, per symbol i: dN_0/ds_i..dN_{2q-1}/ds_i,
    //    d det/ds_i].
    const std::vector<symbolic::NodeId> jac = symbolic::reverse_gradients(graph, roots);
    std::vector<symbolic::NodeId> groots(roots.begin(), roots.end());
    groots.reserve(roots.size() * (nvars + 1));
    for (std::size_t i = 0; i < nvars; ++i)
      for (std::size_t r = 0; r < roots.size(); ++r)
        groots.push_back(jac[r * nvars + i]);
    grad_program.emplace(graph, groots);
  }
  CompiledModel model(std::move(sym), std::move(program), std::move(grad_program), opts);
  if (!cache_key.empty()) {
    ModelCache::store_file(build_opts.cache_dir, cache_key, model);
    if (cache_quarantined)
      health::global_counters().cache_rebuilds.fetch_add(1, std::memory_order_relaxed);
  }
  return model;
}

// ---- model format v4: zero-copy open (DESIGN.md §15) ---------------------

CompiledModel CompiledModel::from_blob(std::shared_ptr<const ModelBlob> blob,
                                       bool verify_checksum) {
  const ModelView view = ModelView::open(blob->bytes());
  if (verify_checksum && !view.verify_checksum())
    throw health::FailError(health::FailClass::kCacheCorrupt,
                            "CompiledModel::load: payload checksum mismatch");
  const v4::Meta& meta = view.meta();
  if (meta.order == 0 || meta.order > (1u << 16))
    throw std::runtime_error("CompiledModel::load: bad model order");

  ModelOptions opts;
  opts.order = static_cast<std::size_t>(meta.order);
  opts.enforce_stability = meta.enforce_stability != 0;
  opts.allow_order_fallback = meta.allow_order_fallback != 0;
  opts.with_gradients = meta.with_gradients != 0;

  // Eager side: the tiny symbol table (needed by every batch for the
  // reciprocal transforms).  The polynomial side stays raw until full_sym().
  part::SymbolicMoments sym;
  sym.port_count = static_cast<std::size_t>(meta.port_count);
  sym.global_dim = static_cast<std::size_t>(meta.global_dim);
  sym.symbols.reserve(view.symbols().size());
  for (const v4::SymbolEntry& s : view.symbols()) {
    part::SymbolSpec spec;
    spec.element_index = static_cast<std::size_t>(s.element_index);
    spec.name = std::string(view.symbol_name(s));
    spec.reciprocal = s.reciprocal != 0;
    sym.symbols.push_back(std::move(spec));
  }

  // from_code validates register/constant/input bounds over the mapped
  // streams — a damaged region throws here, it can never index out of the
  // register file at run time.
  CompiledProgram program = CompiledProgram::from_code(view.program_code());
  std::optional<CompiledProgram> grad_program;
  if (view.has_gradient())
    grad_program.emplace(CompiledProgram::from_code(view.gradient_code()));

  // Cross-field consistency between the meta, symbol and program sections.
  if (meta.numerator_count != 2 * meta.order)
    throw std::runtime_error("CompiledModel::load: moment count mismatch");
  if (program.input_count() != sym.symbols.size() ||
      program.output_count() != meta.numerator_count + 1)
    throw std::runtime_error("CompiledModel::load: program/moments mismatch");
  if (grad_program &&
      (grad_program->input_count() != sym.symbols.size() ||
       grad_program->output_count() !=
           (sym.symbols.size() + 1) * (meta.numerator_count + 1)))
    throw std::runtime_error("CompiledModel::load: gradient program layout mismatch");

  CompiledModel model(std::move(sym), std::move(program), std::move(grad_program), opts);
  model.symbolics_raw_ = view.symbolics_blob();
  model.lazy_ = std::make_shared<LazySymbolics>();
  model.blob_ = std::move(blob);  // pin the region last: nothing above escapes it
  return model;
}

CompiledModel CompiledModel::map_file(const std::filesystem::path& path,
                                      bool verify_checksum) {
  return from_blob(map_file_blob(path), verify_checksum);
}

const part::SymbolicMoments& CompiledModel::full_sym() const {
  if (!lazy_) return sym_;
  std::lock_guard<std::mutex> lock(lazy_->mu);
  if (!lazy_->parsed) {
    namespace io = symbolic::io;
    io::imemstream is(reinterpret_cast<const char*>(symbolics_raw_.data()),
                      symbolics_raw_.size());
    part::SymbolicMoments full;
    full.symbols = sym_.symbols;
    full.port_count = sym_.port_count;
    full.global_dim = sym_.global_dim;
    const std::uint64_t nnum = io::read_count(is);
    if (nnum != moment_count())
      throw std::runtime_error("CompiledModel::load: moment count mismatch");
    full.numerators.reserve(nnum);
    for (std::uint64_t k = 0; k < nnum; ++k)
      full.numerators.push_back(io::load_polynomial(is));
    full.det_y0 = io::load_polynomial(is);
    lazy_->full = std::move(full);
    lazy_->parsed = true;
  }
  return lazy_->full;
}

CompiledModel CompiledModel::build(const circuit::Netlist& netlist,
                                   std::vector<std::string> symbol_elements,
                                   const std::string& input_source,
                                   const std::string& output_node,
                                   const ModelOptions& opts, const BuildOptions& build_opts) {
  const auto node = netlist.find_node(output_node);
  if (!node)
    throw std::invalid_argument("CompiledModel: unknown output node '" + output_node + "'");
  return build(netlist, std::move(symbol_elements), input_source, *node, opts, build_opts);
}

CompiledModel::Workspace CompiledModel::make_workspace() const {
  Workspace ws;
  ws.symbol_values.resize(sym_.symbols.size());
  ws.program_outputs.resize(program_.output_count());
  ws.registers.resize(program_.register_count());
  ws.moments.resize(moment_count());
  return ws;
}

void CompiledModel::moments_at(std::span<const double> element_values, Workspace& ws) const {
  if (element_values.size() != sym_.symbols.size())
    throw std::invalid_argument("CompiledModel: wrong number of element values");
  // Precondition (documented in the header): ws comes from THIS model's
  // make_workspace().  A workspace built for a different model would make
  // the writes below run out of bounds, so reject it outright.
  if (ws.symbol_values.size() != sym_.symbols.size() ||
      ws.program_outputs.size() != program_.output_count() ||
      ws.registers.size() < program_.register_count() || ws.moments.size() != moment_count())
    throw std::invalid_argument(
        "CompiledModel: workspace does not match this model (use make_workspace())");
  for (std::size_t i = 0; i < sym_.symbols.size(); ++i) {
    double v = element_values[i];
    if (sym_.symbols[i].reciprocal) {
      if (v == 0.0) throw std::domain_error("CompiledModel: zero resistance symbol value");
      v = 1.0 / v;
    }
    ws.symbol_values[i] = v;
  }
  program_.run_with_scratch(ws.symbol_values, ws.program_outputs, ws.registers);
  const double d = ws.program_outputs.back();
  if (d == 0.0) throw std::domain_error("CompiledModel: det(Y0) vanishes at this point");
  double dp = d;
  for (std::size_t k = 0; k < moment_count(); ++k) {
    ws.moments[k] = ws.program_outputs[k] / dp;
    dp *= d;
  }
}

std::vector<double> CompiledModel::moments_at(std::span<const double> element_values) const {
  Workspace ws = make_workspace();
  moments_at(element_values, ws);
  return ws.moments;
}

BatchWorkspace CompiledModel::make_batch_workspace(std::size_t width) const {
  if (width == 0) throw std::invalid_argument("make_batch_workspace: width must be >= 1");
  BatchWorkspace ws;
  ws.width = width;
  ws.symbol_values.resize(sym_.symbols.size() * width);
  ws.program_outputs.resize(program_.output_count() * width);
  ws.registers.resize(program_.register_count() * width);
  return ws;
}

void CompiledModel::moments_batch(std::span<const double> element_values, std::size_t stride,
                                  std::size_t count, BatchWorkspace& ws,
                                  std::span<double> moments_out, std::size_t out_stride,
                                  std::span<unsigned char> ok, EvalMode mode) const {
  if (count == 0) return;
  const std::size_t nsym = sym_.symbols.size();
  const std::size_t nm = moment_count();
  check_batch_args(nsym, nm, element_values, stride, count, ws, moments_out, out_stride, ok);
  if (ws.symbol_values.size() < nsym * count ||
      ws.program_outputs.size() < program_.output_count() * count ||
      ws.registers.size() < program_.register_count() * count)
    throw std::invalid_argument(
        "CompiledModel: batch workspace does not match this model (use "
        "make_batch_workspace())");

  pack_symbol_block(sym_.symbols, element_values, stride, count, ws, ok);
  program_.run_batch(std::span<const double>(ws.symbol_values.data(), nsym * count),
                     std::span<double>(ws.program_outputs.data(),
                                       program_.output_count() * count),
                     std::span<double>(ws.registers.data(),
                                       program_.register_count() * count),
                     count, mode);
  const double* const det = ws.program_outputs.data() + nm * count;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t p = 0; p < count; ++p) {
    if (det[p] == 0.0) ok[p] = 0;
    if (!ok[p]) {
      for (std::size_t k = 0; k < nm; ++k) moments_out[k * out_stride + p] = kNaN;
      continue;
    }
    double dp = det[p];
    for (std::size_t k = 0; k < nm; ++k) {
      moments_out[k * out_stride + p] = ws.program_outputs[k * count + p] / dp;
      dp *= det[p];
    }
  }
}

engine::ReducedOrderModel CompiledModel::evaluate(
    std::span<const double> element_values) const {
  const auto m = moments_at(element_values);
  engine::RomOptions ropts;
  ropts.order = opts_.order;
  ropts.enforce_stability = opts_.enforce_stability;
  ropts.allow_order_fallback = opts_.allow_order_fallback;
  return engine::ReducedOrderModel::from_moments(m, ropts);
}

CompiledModel::MomentsAndGradients CompiledModel::moments_and_gradients(
    std::span<const double> element_values) const {
  if (!grad_program_)
    throw std::logic_error(
        "CompiledModel: build with ModelOptions::with_gradients for gradients");
  const std::size_t nvars = sym_.symbols.size();
  const std::size_t count = moment_count();
  if (element_values.size() != nvars)
    throw std::invalid_argument("CompiledModel: wrong number of element values");

  // Internal symbol values + chain-rule factors d(symbol)/d(element value).
  std::vector<double> inputs(nvars), chain(nvars, 1.0);
  for (std::size_t i = 0; i < nvars; ++i) {
    double v = element_values[i];
    if (sym_.symbols[i].reciprocal) {
      if (v == 0.0) throw std::domain_error("CompiledModel: zero resistance symbol value");
      chain[i] = -1.0 / (v * v);  // d(1/v)/dv
      v = 1.0 / v;
    }
    inputs[i] = v;
  }

  // ONE run of the gradient program yields the primal block and every
  // adjoint block (the primal roots are embedded first — DESIGN.md §14).
  std::vector<double> goutputs(grad_program_->output_count());
  grad_program_->run(inputs, goutputs);
  const double d = goutputs[count];  // det(Y0) closes the primal block
  if (d == 0.0) throw std::domain_error("CompiledModel: det(Y0) vanishes at this point");

  MomentsAndGradients out;
  out.moments.resize(count);
  double dp = d;
  for (std::size_t k = 0; k < count; ++k) {
    out.moments[k] = goutputs[k] / dp;
    dp *= d;
  }
  out.dm.assign(count, std::vector<double>(nvars, 0.0));
  for (std::size_t i = 0; i < nvars; ++i) {
    const double* per_sym = goutputs.data() + (i + 1) * (count + 1);
    const double dd = per_sym[count];  // d det / d symbol_i
    double dpk = d;                    // d^{k+1}
    for (std::size_t k = 0; k < count; ++k) {
      // m_k = N_k / d^{k+1}:
      //   dm_k = dN_k / d^{k+1} - (k+1) m_k (dd / d).
      const double dm_sym =
          per_sym[k] / dpk - static_cast<double>(k + 1) * out.moments[k] * (dd / d);
      out.dm[k][i] = dm_sym * chain[i];
      dpk *= d;
    }
  }
  return out;
}

BatchWorkspace CompiledModel::make_gradient_batch_workspace(std::size_t width) const {
  if (!grad_program_)
    throw std::logic_error(
        "CompiledModel: build with ModelOptions::with_gradients for gradients");
  if (width == 0) throw std::invalid_argument("make_gradient_batch_workspace: width must be >= 1");
  BatchWorkspace ws;
  ws.width = width;
  ws.symbol_values.resize(sym_.symbols.size() * width);
  ws.program_outputs.resize(grad_program_->output_count() * width);
  ws.registers.resize(grad_program_->register_count() * width);
  return ws;
}

void CompiledModel::moments_and_gradients_batch(
    std::span<const double> element_values, std::size_t stride, std::size_t count,
    BatchWorkspace& ws, std::span<double> moments_out, std::size_t out_stride,
    std::span<double> grads_out, std::size_t grad_stride, std::span<unsigned char> ok,
    EvalMode mode) const {
  if (!grad_program_)
    throw std::logic_error(
        "CompiledModel: build with ModelOptions::with_gradients for gradients");
  if (count == 0) return;
  const std::size_t nsym = sym_.symbols.size();
  const std::size_t nm = moment_count();
  check_batch_args(nsym, nm, element_values, stride, count, ws, moments_out, out_stride, ok);
  if (grad_stride < count)
    throw std::invalid_argument("moments_and_gradients_batch: grad_stride smaller than count");
  if (nsym * nm > 0 && grads_out.size() < (nsym * nm - 1) * grad_stride + count)
    throw std::invalid_argument("moments_and_gradients_batch: grads_out span too small");
  if (ws.symbol_values.size() < nsym * count ||
      ws.program_outputs.size() < grad_program_->output_count() * count ||
      ws.registers.size() < grad_program_->register_count() * count)
    throw std::invalid_argument(
        "CompiledModel: batch workspace does not match the gradient program (use "
        "make_gradient_batch_workspace())");

  pack_symbol_block(sym_.symbols, element_values, stride, count, ws, ok);
  grad_program_->run_batch(
      std::span<const double>(ws.symbol_values.data(), nsym * count),
      std::span<double>(ws.program_outputs.data(), grad_program_->output_count() * count),
      std::span<double>(ws.registers.data(), grad_program_->register_count() * count),
      count, mode);

  const double* const det = ws.program_outputs.data() + nm * count;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t p = 0; p < count; ++p) {
    if (det[p] == 0.0) ok[p] = 0;
    if (!ok[p]) {
      for (std::size_t k = 0; k < nm; ++k) moments_out[k * out_stride + p] = kNaN;
      for (std::size_t row = 0; row < nsym * nm; ++row)
        grads_out[row * grad_stride + p] = kNaN;
      continue;
    }
    const double d = det[p];
    double dp = d;
    for (std::size_t k = 0; k < nm; ++k) {
      moments_out[k * out_stride + p] = ws.program_outputs[k * count + p] / dp;
      dp *= d;
    }
    for (std::size_t i = 0; i < nsym; ++i) {
      // Chain factor d(symbol)/d(element value), computed from the element
      // value with the EXACT expression the scalar path uses, so strict
      // lanes bit-agree with moments_and_gradients().
      double chain = 1.0;
      if (sym_.symbols[i].reciprocal) {
        const double v = element_values[i * stride + p];
        chain = -1.0 / (v * v);
      }
      const double* const per_sym = ws.program_outputs.data() + (i + 1) * (nm + 1) * count;
      const double dd = per_sym[nm * count + p];  // d det / d symbol_i
      double dpk = d;
      for (std::size_t k = 0; k < nm; ++k) {
        const double m_k = moments_out[k * out_stride + p];
        const double dm_sym =
            per_sym[k * count + p] / dpk - static_cast<double>(k + 1) * m_k * (dd / d);
        grads_out[(i * nm + k) * grad_stride + p] = dm_sym * chain;
        dpk *= d;
      }
    }
  }
}

std::vector<double> CompiledModel::moments_uncompiled(
    std::span<const double> element_values) const {
  return full_sym().evaluate(element_values);
}

symbolic::RationalFunction CompiledModel::dc_gain_expression() const {
  return full_sym().moment(0).normalized();
}

symbolic::RationalFunction CompiledModel::first_order_pole_expression() const {
  // Order-1 Padé: H(s) = m0 / (1 - (m1/m0) s), pole p1 = m0 / m1.
  // With m_k = N_k / d^{k+1} this cancels to  p1 = N_0 d / N_1.
  const part::SymbolicMoments& sym = full_sym();
  const auto& n = sym.numerators;
  return symbolic::RationalFunction(n.at(0) * sym.det_y0, n.at(1)).normalized();
}

std::vector<symbolic::RationalFunction> CompiledModel::symbolic_denominator() const {
  // All moments share the structured denominator m_k = N_k / d^{k+1}, so
  // the Cramer solutions cancel to compact forms instead of accumulating
  // blind d^k factors through generic rational arithmetic.
  using symbolic::Polynomial;
  using symbolic::RationalFunction;
  const part::SymbolicMoments& sym = full_sym();
  const auto& n = sym.numerators;
  const Polynomial& d = sym.det_y0;
  const RationalFunction one = RationalFunction::constant(sym_.symbols.size(), 1.0);
  if (opts_.order == 1) {
    // b1 = -m1/m0 = -N1 / (d N0).
    return {one, RationalFunction(-n.at(1), d * n.at(0)).normalized()};
  }
  if (opts_.order == 2) {
    // [m1 m0; m2 m1][b1; b2] = [-m2; -m3]; with the shared d-powers the
    // 2x2 determinant is (N1^2 - N0 N2)/d^4 and
    //   b1 = (N0 N3 - N1 N2) / (d  (N1^2 - N0 N2)),
    //   b2 = (N2^2 - N1 N3) / (d^2 (N1^2 - N0 N2)).
    const Polynomial det = n.at(1) * n.at(1) - n.at(0) * n.at(2);
    const Polynomial b1_num = n.at(0) * n.at(3) - n.at(1) * n.at(2);
    const Polynomial b2_num = n.at(2) * n.at(2) - n.at(1) * n.at(3);
    return {one, RationalFunction(b1_num, d * det).normalized(),
            RationalFunction(b2_num, d * d * det).normalized()};
  }
  throw std::invalid_argument(
      "symbolic_denominator: closed forms supported for orders 1 and 2 only");
}

std::vector<symbolic::RationalFunction> CompiledModel::symbolic_numerator() const {
  using symbolic::Polynomial;
  using symbolic::RationalFunction;
  const part::SymbolicMoments& sym = full_sym();
  const auto& n = sym.numerators;
  const Polynomial& d = sym.det_y0;
  if (opts_.order == 1) return {RationalFunction(n.at(0), d).normalized()};
  if (opts_.order == 2) {
    // a0 = m0 = N0/d;
    // a1 = m1 + b1 m0 = [N1 (N1^2 - N0 N2) + N0 (N0 N3 - N1 N2)]
    //                   / (d^2 (N1^2 - N0 N2)).
    const Polynomial det = n.at(1) * n.at(1) - n.at(0) * n.at(2);
    const Polynomial a1_num =
        n.at(1) * det + n.at(0) * (n.at(0) * n.at(3) - n.at(1) * n.at(2));
    return {RationalFunction(n.at(0), d).normalized(),
            RationalFunction(a1_num, d * d * det).normalized()};
  }
  throw std::invalid_argument(
      "symbolic_numerator: closed forms supported for orders 1 and 2 only");
}

MultiOutputModel MultiOutputModel::build(const circuit::Netlist& netlist,
                                         std::vector<std::string> symbol_elements,
                                         const std::string& input_source,
                                         std::vector<circuit::NodeId> output_nodes,
                                         const ModelOptions& opts,
                                         const BuildOptions& build_opts) {
  if (opts.order == 0) throw std::invalid_argument("MultiOutputModel: order must be >= 1");
  std::optional<sweep::ThreadPool> local_pool;
  sweep::ThreadPool* pool = resolve_pool(build_opts, local_pool);
  part::MomentPartitioner partitioner(netlist, std::move(symbol_elements), input_source,
                                      std::move(output_nodes));
  part::MultiSymbolicMoments sym =
      partitioner.compute_all(2 * opts.order, resolve_extract_options(build_opts, pool));

  ExprGraph graph;
  std::vector<symbolic::NodeId> vars;
  for (std::size_t i = 0; i < sym.symbols.size(); ++i)
    vars.push_back(graph.input(static_cast<std::uint32_t>(i)));
  std::vector<symbolic::NodeId> roots;
  for (const auto& per_output : sym.numerators)
    for (const auto& numerator : per_output)
      roots.push_back(lower_polynomial(graph, numerator, vars));
  roots.push_back(lower_polynomial(graph, sym.det_y0, vars));

  CompiledProgram program(graph, roots);
  return MultiOutputModel(std::move(sym), std::move(program), opts);
}

std::vector<std::string> MultiOutputModel::symbol_names() const {
  std::vector<std::string> names;
  for (const auto& s : sym_.symbols) names.push_back(s.name);
  return names;
}

std::vector<double> MultiOutputModel::moments_at(
    std::size_t o, std::span<const double> element_values) const {
  if (o >= sym_.outputs.size()) throw std::out_of_range("MultiOutputModel: output index");
  if (element_values.size() != sym_.symbols.size())
    throw std::invalid_argument("MultiOutputModel: wrong number of element values");
  std::vector<double> inputs(element_values.begin(), element_values.end());
  for (std::size_t i = 0; i < sym_.symbols.size(); ++i)
    if (sym_.symbols[i].reciprocal) {
      if (inputs[i] == 0.0)
        throw std::domain_error("MultiOutputModel: zero resistance symbol value");
      inputs[i] = 1.0 / inputs[i];
    }
  const std::size_t count = 2 * opts_.order;
  std::vector<double> outputs(program_.output_count());
  program_.run(inputs, outputs);
  const double d = outputs.back();
  if (d == 0.0) throw std::domain_error("MultiOutputModel: det(Y0) vanishes");
  std::vector<double> m(count);
  double dp = d;
  for (std::size_t k = 0; k < count; ++k) {
    m[k] = outputs[o * count + k] / dp;
    dp *= d;
  }
  return m;
}

BatchWorkspace MultiOutputModel::make_batch_workspace(std::size_t width) const {
  if (width == 0) throw std::invalid_argument("make_batch_workspace: width must be >= 1");
  BatchWorkspace ws;
  ws.width = width;
  ws.symbol_values.resize(sym_.symbols.size() * width);
  ws.program_outputs.resize(program_.output_count() * width);
  ws.registers.resize(program_.register_count() * width);
  return ws;
}

void MultiOutputModel::moments_batch(std::span<const double> element_values,
                                     std::size_t stride, std::size_t count,
                                     BatchWorkspace& ws, std::span<double> moments_out,
                                     std::size_t out_stride,
                                     std::span<unsigned char> ok, EvalMode mode) const {
  if (count == 0) return;
  const std::size_t nsym = sym_.symbols.size();
  const std::size_t nm = moment_count();
  const std::size_t nout = sym_.outputs.size();
  check_batch_args(nsym, nout * nm, element_values, stride, count, ws, moments_out,
                   out_stride, ok);
  if (ws.symbol_values.size() < nsym * count ||
      ws.program_outputs.size() < program_.output_count() * count ||
      ws.registers.size() < program_.register_count() * count)
    throw std::invalid_argument(
        "MultiOutputModel: batch workspace does not match this model (use "
        "make_batch_workspace())");

  pack_symbol_block(sym_.symbols, element_values, stride, count, ws, ok);
  program_.run_batch(std::span<const double>(ws.symbol_values.data(), nsym * count),
                     std::span<double>(ws.program_outputs.data(),
                                       program_.output_count() * count),
                     std::span<double>(ws.registers.data(), program_.register_count() * count),
                     count, mode);
  const double* const det = ws.program_outputs.data() + nout * nm * count;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t p = 0; p < count; ++p) {
    if (det[p] == 0.0) ok[p] = 0;
    if (!ok[p]) {
      for (std::size_t row = 0; row < nout * nm; ++row)
        moments_out[row * out_stride + p] = kNaN;
      continue;
    }
    for (std::size_t o = 0; o < nout; ++o) {
      double dp = det[p];
      for (std::size_t k = 0; k < nm; ++k) {
        moments_out[(o * nm + k) * out_stride + p] =
            ws.program_outputs[(o * nm + k) * count + p] / dp;
        dp *= det[p];
      }
    }
  }
}

engine::ReducedOrderModel MultiOutputModel::evaluate(
    std::size_t o, std::span<const double> element_values) const {
  engine::RomOptions ropts;
  ropts.order = opts_.order;
  ropts.enforce_stability = opts_.enforce_stability;
  ropts.allow_order_fallback = opts_.allow_order_fallback;
  return engine::ReducedOrderModel::from_moments(moments_at(o, element_values), ropts);
}

std::string CompiledModel::export_c_source(std::string_view function_name) const {
  std::string src = "/* AWEsymbolic compiled moment program.\n";
  src += " * inputs : ";
  for (const auto& s : sym_.symbols) {
    src += s.name;
    if (s.reciprocal) src += " (as conductance 1/value)";
    src += "  ";
  }
  src += "\n * outputs: N_0..N_" + std::to_string(moment_count() - 1) +
         ", det(Y0); moment k = out[k] / out[" + std::to_string(moment_count()) +
         "]^(k+1)\n */\n";
  return src + program_.to_c_source(function_name);
}

std::vector<std::string> select_symbols(const circuit::Netlist& netlist,
                                        const std::string& input_source,
                                        circuit::NodeId output_node, std::size_t order,
                                        std::size_t how_many) {
  const auto ranked =
      engine::rank_symbol_candidates(netlist, input_source, output_node, order);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < ranked.size() && names.size() < how_many; ++i)
    names.push_back(ranked[i].name);
  return names;
}

}  // namespace awe::core
