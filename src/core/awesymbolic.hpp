// AWEsymbolic — compiled symbolic AWE analysis (the paper's contribution).
//
// Build once:   netlist + symbolic elements  ->  symbolic moments (via
// moment-level partitioning)  ->  compiled register program.
// Evaluate many:  symbol values  ->  program run  ->  numeric moments  ->
// Padé  ->  reduced-order model, at a per-iteration cost orders of
// magnitude below a full AWE re-analysis (paper Table 1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "awe/rom.hpp"
#include "circuit/netlist.hpp"
#include "core/model_blob.hpp"
#include "health/status.hpp"
#include "partition/partitioner.hpp"
#include "symbolic/compile.hpp"

namespace awe::sweep {
class ThreadPool;
}

namespace awe::core {

/// Numeric contract of the batched interpreter (re-exported from
/// symbolic::EvalMode): kStrict is bit-identical to the scalar path,
/// kFast runs the peephole-fused stream within a small ULP bound.
using symbolic::EvalMode;

/// Structure-of-arrays scratch for batched evaluation: `width` points per
/// lane-block, arrays sized field_count * width with lane stride equal to
/// the block's point count.  Built by make_batch_workspace(); one per
/// worker thread keeps the parallel sweep hot path allocation-free.
struct BatchWorkspace {
  std::size_t width = 0;
  std::vector<double> symbol_values;    ///< nsym * width
  std::vector<double> program_outputs;  ///< program output count * width
  std::vector<double> registers;        ///< register count * width
};

struct ModelOptions {
  std::size_t order = 2;
  bool enforce_stability = true;
  bool allow_order_fallback = true;
  /// Also compile the exact symbolic gradients via reverse-mode
  /// differentiation over the compiled DAG (DESIGN.md §14): one backward
  /// sweep per moment root yields dN_k/de for ALL symbols at once, appended
  /// to the same hash-consed graph so the gradient program shares every
  /// primal subterm.  Enables moments_and_gradients() and
  /// moments_and_gradients_batch() — sensitivity information over the
  /// whole symbol range at compiled-evaluation cost.
  bool with_gradients = false;
};

/// How a build RUNS, orthogonal to what it computes (ModelOptions): worker
/// threads for the numeric-partition extraction, and the persistent
/// compiled-model cache.  Every combination yields bit-identical models —
/// parallel extraction writes disjoint slots in a fixed order, and cached
/// loads restore the exact serialized bytes (DESIGN.md §10).
struct BuildOptions {
  /// Workers for the port-moment extraction (the m port RHS columns fan
  /// out against one shared LU factor).  1 = serial (default); 0 = one
  /// per hardware thread.  Ignored when `pool` is supplied.
  std::size_t threads = 1;
  /// Reuse an existing pool across builds instead of spawning one per
  /// call (same pattern as sweep::SweepOptions::pool).  Not owned.
  sweep::ThreadPool* pool = nullptr;
  /// When non-empty: look the model up in the content-addressed on-disk
  /// cache under this directory before building, and store it there after
  /// a cold build.  The directory is created on demand.  See
  /// core/model_cache.hpp for the key derivation and ModelCache for the
  /// in-process LRU layered on top.
  std::string cache_dir;
  /// Incremental partition-level rebuild (DESIGN.md §13): persist per-cell
  /// port-moment blocks under <cache_dir>/blocks (or partition_block_dir
  /// when set) and reuse the blocks of unedited cells on the next build.
  /// The rebuilt model is bit-identical to a cold build either way — the
  /// flag only trades disk for extraction time.  Default off: a plain
  /// cache directory stays exactly one entry per model, byte-comparable
  /// across runs.
  bool incremental = false;
  /// Explicit block-store directory for the incremental path; empty means
  /// derive <cache_dir>/blocks when `incremental` is set.
  std::string partition_block_dir;
  /// When set (requires cache_dir): satisfy a warm cache hit by
  /// mmap-opening the v4 entry in place (CompiledModel::map_file) instead
  /// of stream-parsing it — O(pages touched) instead of O(model size).
  /// Evaluation results are bit-identical either way (asserted by the
  /// determinism matrix's backing rows); a corrupt or pre-v4 entry is
  /// quarantined and rebuilt exactly as on the parsing path.
  bool map_model = false;
};

class CompiledModel {
 public:
  /// Build the compiled symbolic model of the transfer from `input_source`
  /// to v(`output_node`), with the named elements treated symbolically.
  static CompiledModel build(const circuit::Netlist& netlist,
                             std::vector<std::string> symbol_elements,
                             const std::string& input_source,
                             circuit::NodeId output_node, const ModelOptions& opts = {},
                             const BuildOptions& build_opts = {});
  static CompiledModel build(const circuit::Netlist& netlist,
                             std::vector<std::string> symbol_elements,
                             const std::string& input_source,
                             const std::string& output_node, const ModelOptions& opts = {},
                             const BuildOptions& build_opts = {});

  std::size_t order() const { return opts_.order; }
  const ModelOptions& options() const { return opts_; }
  /// 2*order — NOT derived from the polynomial side, which view-backed
  /// models parse lazily (see full_sym()).
  std::size_t moment_count() const { return 2 * opts_.order; }
  std::size_t symbol_count() const { return sym_.symbols.size(); }
  /// The full symbolic side (numerator/denominator polynomials included).
  /// For a view-backed model this parses the cold kSymbolics section on
  /// first use (thread-safe, shared across copies); evaluation never needs
  /// it.
  const part::SymbolicMoments& symbolic_moments() const { return full_sym(); }
  std::vector<std::string> symbol_names() const { return sym_.symbol_names(); }

  /// Reusable allocation-free evaluation scratch for the hot path.
  struct Workspace {
    std::vector<double> symbol_values;
    std::vector<double> program_outputs;
    std::vector<double> registers;
    std::vector<double> moments;
  };
  Workspace make_workspace() const;

  /// Numeric moments m_0..m_{2q-1} at the given element values (one per
  /// symbol, in symbolic_moments().symbols order), via the compiled
  /// program.
  std::vector<double> moments_at(std::span<const double> element_values) const;
  /// Allocation-free variant; result lives in ws.moments.
  /// Precondition: `ws` must have been produced by THIS model's
  /// make_workspace() — a workspace sized for a different model is
  /// rejected with std::invalid_argument.
  void moments_at(std::span<const double> element_values, Workspace& ws) const;

  /// Batched structure-of-arrays scratch sized for lane blocks of up to
  /// `width` points.
  BatchWorkspace make_batch_workspace(std::size_t width) const;

  /// Evaluate moments for `count` points at once (count <= ws.width).
  /// Element value i of point p is read from element_values[i*stride + p];
  /// moment k of point p lands in moments_out[k*out_stride + p].  ok[p]
  /// (size count) is set to 0 — and the point's moments to NaN — exactly
  /// where the scalar moments_at() would throw (zero resistance value or
  /// vanishing det(Y0)); in EvalMode::kStrict every other lane is
  /// bit-identical to the scalar path, in EvalMode::kFast it is within the
  /// fused interpreter's ULP bound.  Thread-safe for concurrent callers
  /// with distinct workspaces.
  void moments_batch(std::span<const double> element_values, std::size_t stride,
                     std::size_t count, BatchWorkspace& ws, std::span<double> moments_out,
                     std::size_t out_stride, std::span<unsigned char> ok,
                     EvalMode mode = EvalMode::kStrict) const;

  /// Full evaluation: compiled moments -> Padé -> reduced-order model.
  engine::ReducedOrderModel evaluate(std::span<const double> element_values) const;

  /// Moments plus their exact gradients with respect to the ELEMENT
  /// values (reciprocal transforms chain-ruled).  Requires
  /// ModelOptions::with_gradients at build time.
  struct MomentsAndGradients {
    std::vector<double> moments;              ///< m_0..m_{2q-1}
    std::vector<std::vector<double>> dm;      ///< dm[k][i] = dm_k/d(value_i)
  };
  MomentsAndGradients moments_and_gradients(
      std::span<const double> element_values) const;
  bool has_gradients() const { return grad_program_.has_value(); }

  /// Batched structure-of-arrays scratch sized for the GRADIENT program
  /// (same shape as make_batch_workspace, but with the gradient stream's
  /// larger output block and register file).  Requires with_gradients.
  BatchWorkspace make_gradient_batch_workspace(std::size_t width) const;

  /// Batched moments AND gradients: ONE gradient-program run per lane
  /// block evaluates the primal moments and d(moments)/d(element value)
  /// for every symbol simultaneously (the gradient stream embeds the
  /// primal outputs — DESIGN.md §14).  Same layout contract as
  /// moments_batch for element_values/moments_out/ok; gradient (k, i) of
  /// point p lands at grads_out[(i*moment_count() + k)*grad_stride + p],
  /// chain-ruled to ELEMENT values (reciprocal symbols included) exactly
  /// as moments_and_gradients().  Failed lanes (ok[p] == 0) get NaN
  /// moments and gradients.  In EvalMode::kStrict every lane is
  /// bit-identical to the scalar moments_and_gradients() regardless of
  /// count or thread.  Requires with_gradients (throws
  /// std::logic_error otherwise).
  void moments_and_gradients_batch(std::span<const double> element_values,
                                   std::size_t stride, std::size_t count,
                                   BatchWorkspace& ws, std::span<double> moments_out,
                                   std::size_t out_stride, std::span<double> grads_out,
                                   std::size_t grad_stride, std::span<unsigned char> ok,
                                   EvalMode mode = EvalMode::kStrict) const;

  /// Reference (uncompiled) moment evaluation — term-by-term polynomial
  /// evaluation; used by tests and the compilation ablation bench.
  std::vector<double> moments_uncompiled(std::span<const double> element_values) const;

  // -- closed forms (first-order analysis, paper eqn (14)) --------------
  /// DC gain A_0 = m_0 as an explicit rational function of the symbols.
  symbolic::RationalFunction dc_gain_expression() const;
  /// First-order dominant pole p_1 = m_0 / m_1.
  symbolic::RationalFunction first_order_pole_expression() const;

  /// Symbolic Padé denominator coefficients [1, b_1, .., b_q] as rational
  /// functions of the symbols (the paper's factorable symbolic forms;
  /// orders 1 and 2 supported, higher orders throw — by then the
  /// closed forms are no longer "algebraically compact").
  std::vector<symbolic::RationalFunction> symbolic_denominator() const;
  /// Symbolic Padé numerator coefficients [a_0, .., a_{q-1}], same orders.
  std::vector<symbolic::RationalFunction> symbolic_numerator() const;

  // -- program statistics (the "reduced set of operations") -------------
  std::size_t instruction_count() const { return program_.instruction_count(); }
  std::size_t fused_instruction_count() const { return program_.fused_instruction_count(); }
  std::size_t register_count() const { return program_.register_count(); }
  /// Strict-stream length of the reverse-mode gradient program (0 when the
  /// model was built without gradients) — the work-rate normalizer for the
  /// gradient-sweep bench rows.
  std::size_t gradient_instruction_count() const {
    return grad_program_ ? grad_program_->instruction_count() : 0;
  }
  std::size_t port_count() const { return sym_.port_count; }

  /// Export the compiled moment program as standalone C source:
  ///   void <name>(const double* symbols, double* out)
  /// with out = [N_0 .. N_{2q-1}, det(Y0)]; moment k is out[k]/out[2q]^{k+1}.
  /// Symbol inputs are the *internal* variables (resistor symbols enter as
  /// conductances — see SymbolSpec::reciprocal).
  std::string export_c_source(std::string_view function_name) const;

  /// Binary serialization of the COMPLETE model state — ModelOptions, the
  /// symbolic moments (symbol specs + numerator/denominator polynomials)
  /// and the compiled program(s) — so a loaded model is fully functional:
  /// moments_at/moments_batch/evaluate and the closed forms all work and
  /// are bit-identical to the freshly built model.  The byte stream is
  /// versioned and deterministic: save(load(save(m))) == save(m).
  void save(std::ostream& os) const;
  /// The bytes save() writes.
  std::string pack() const;
  /// Reads the v4 blob whole into an aligned buffer and opens it like
  /// from_blob(verify_checksum=true).  Throws std::runtime_error on
  /// truncated input, FailError(kModelFormat) on any format version but
  /// v4, and FailError(kCacheCorrupt) when the payload checksum does not
  /// match (bit damage on otherwise well-formed bytes).  The cache layer
  /// turns any of these into quarantine + miss.
  static CompiledModel load(std::istream& is);

  /// Open a v4 blob IN PLACE: structural validation + program views over
  /// the region, no stream parsing, no per-instruction allocation.  The
  /// blob is pinned by the returned model (and all its copies) via
  /// shared_ptr.  `verify_checksum` additionally recomputes the payload
  /// FNV — O(model size), publish/audit paths only.  Throws like load(),
  /// plus FailError(kModelFormat) for endianness/alignment guard trips.
  static CompiledModel from_blob(std::shared_ptr<const ModelBlob> blob,
                                 bool verify_checksum = false);
  /// mmap(MAP_PRIVATE) `path` and from_blob() it: the zero-copy open path
  /// (O(pages touched)).  Same validation/throw contract as from_blob.
  static CompiledModel map_file(const std::filesystem::path& path,
                                bool verify_checksum = false);
  /// True when this model executes out of an external region (mmap/shm/
  /// heap blob) rather than owned vectors.
  bool view_backed() const { return blob_ != nullptr; }
  /// Region provenance for health/audit output ("heap", file path, or
  /// "shm:/name"); empty for built/parsed models.
  std::string blob_origin() const { return blob_ ? blob_->origin() : std::string(); }

 private:
  /// Serialize the kSymbolics section payload ({u64 nnum, polynomial[nnum],
  /// polynomial det_y0}); view-backed models copy the raw section instead
  /// of parse+reserialize, preserving byte determinism for free.
  std::string symbolics_payload() const;

  /// Lazily-parsed polynomial side for view-backed models.  Shared across
  /// copies of the model: the cold section is parsed at most once.
  struct LazySymbolics {
    std::mutex mu;
    bool parsed = false;
    part::SymbolicMoments full;
  };
  const part::SymbolicMoments& full_sym() const;

  CompiledModel(part::SymbolicMoments sym, symbolic::CompiledProgram program,
                std::optional<symbolic::CompiledProgram> grad_program, ModelOptions opts)
      : sym_(std::move(sym)),
        program_(std::move(program)),
        grad_program_(std::move(grad_program)),
        opts_(opts) {}

  part::SymbolicMoments sym_;
  symbolic::CompiledProgram program_;  // outputs: [N_0 .. N_{2q-1}, det(Y0)]
  /// Reverse-mode gradient program (DESIGN.md §14).  Outputs embed the
  /// primal block first, then one adjoint block per symbol:
  ///   [N_0 .. N_{2q-1}, det,
  ///    per symbol i: dN_0/ds_i .. dN_{2q-1}/ds_i, d det/ds_i]
  /// over the INTERNAL symbol variables s (resistors enter as
  /// conductances; the element-value chain rule is applied at evaluation
  /// time).  One run yields moments and all gradients.
  std::optional<symbolic::CompiledProgram> grad_program_;
  ModelOptions opts_;
  /// v4 region this model executes out of (null for built/parsed models).
  /// Keeps the mapped/shared pages alive for as long as any copy of the
  /// model exists — the hot-swap retirement contract of SharedModelStore.
  std::shared_ptr<const ModelBlob> blob_;
  /// Lazy polynomial side + raw section for view-backed models.
  std::shared_ptr<LazySymbolics> lazy_;
  std::span<const std::byte> symbolics_raw_;  ///< into *blob_
};

/// Several outputs compiled from ONE partition: the numeric reduction,
/// det(Y0)/adjugate and the cross-moment CSE are all shared, so modeling
/// e.g. both the direct and the cross-talk end of a coupled-line pair
/// costs barely more than one of them (the hash-consed DAG dedupes the
/// common subexpressions across outputs automatically).
class MultiOutputModel {
 public:
  /// `build_opts`: threads/pool parallelize the partition extraction;
  /// cache_dir is ignored here (multi-output models are not cached —
  /// they're built once per composite analysis, not per sweep).
  static MultiOutputModel build(const circuit::Netlist& netlist,
                                std::vector<std::string> symbol_elements,
                                const std::string& input_source,
                                std::vector<circuit::NodeId> output_nodes,
                                const ModelOptions& opts = {},
                                const BuildOptions& build_opts = {});

  std::size_t output_count() const { return sym_.outputs.size(); }
  circuit::NodeId output_node(std::size_t o) const { return sym_.outputs.at(o); }
  std::size_t order() const { return opts_.order; }
  const ModelOptions& options() const { return opts_; }
  std::size_t moment_count() const { return 2 * opts_.order; }
  std::size_t symbol_count() const { return sym_.symbols.size(); }
  const part::MultiSymbolicMoments& symbolic_moments() const { return sym_; }
  std::size_t instruction_count() const { return program_.instruction_count(); }
  std::size_t port_count() const { return sym_.port_count; }
  std::vector<std::string> symbol_names() const;

  /// Moments of output `o` at the given element values.
  std::vector<double> moments_at(std::size_t o, std::span<const double> element_values) const;
  /// Reduced-order model of output `o`.
  engine::ReducedOrderModel evaluate(std::size_t o,
                                     std::span<const double> element_values) const;

  /// Batched scratch for lane blocks of up to `width` points.
  BatchWorkspace make_batch_workspace(std::size_t width) const;

  /// Batched evaluation of ALL outputs: one shared program run per lane
  /// block.  Same layout contract as CompiledModel::moments_batch, except
  /// moment k of output o for point p lands at
  /// moments_out[(o*moment_count() + k)*out_stride + p].
  void moments_batch(std::span<const double> element_values, std::size_t stride,
                     std::size_t count, BatchWorkspace& ws, std::span<double> moments_out,
                     std::size_t out_stride, std::span<unsigned char> ok,
                     EvalMode mode = EvalMode::kStrict) const;

 private:
  MultiOutputModel(part::MultiSymbolicMoments sym, symbolic::CompiledProgram program,
                   ModelOptions opts)
      : sym_(std::move(sym)), program_(std::move(program)), opts_(opts) {}

  part::MultiSymbolicMoments sym_;
  symbolic::CompiledProgram program_;  // outputs: [o0: N_0..N_{2q-1}]... , det(Y0)
  ModelOptions opts_;
};

/// Automatic symbolic-element selection (paper §2.3): run AWEsensitivity
/// and return the `how_many` differentiable elements with the largest
/// normalized pole sensitivities.
std::vector<std::string> select_symbols(const circuit::Netlist& netlist,
                                        const std::string& input_source,
                                        circuit::NodeId output_node, std::size_t order,
                                        std::size_t how_many);

}  // namespace awe::core
