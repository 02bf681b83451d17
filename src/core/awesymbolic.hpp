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

namespace awe::core {

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

/// How a build RUNS, orthogonal to what it computes (ModelOptions): the
/// persistent compiled-model cache and the per-cell block store.  Every
/// combination yields bit-identical models — cached loads restore the
/// exact serialized bytes and reused blocks are the very vectors a cold
/// build computes (DESIGN.md §10, §13).  The build itself is serial.
struct BuildOptions {
  /// When non-empty: look the model up in the content-addressed on-disk
  /// cache under this directory before building, and store it there after
  /// a cold build.  The directory is created on demand.  See
  /// core/model_cache.hpp for the key derivation.
  std::string cache_dir;
  /// Incremental partition-level rebuild (DESIGN.md §13): when non-empty,
  /// persist per-cell port-moment blocks under this directory and reuse
  /// the blocks of unedited cells on the next build.  The rebuilt model is
  /// bit-identical to a cold build either way — the store only trades disk
  /// for extraction time.
  std::string partition_block_dir;
  /// When set (requires cache_dir): satisfy a warm cache hit by
  /// mmap-opening the v5 entry in place (CompiledModel::map_file) instead
  /// of stream-parsing it — O(pages touched) instead of O(model size).
  /// Evaluation results are bit-identical either way (asserted by the
  /// determinism matrix's backing rows); a corrupt or pre-v5 entry is
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

  /// Numeric moments m_0..m_{2q-1} at the given element values (one per
  /// symbol, in symbolic_moments().symbols order): one moments_batch() lane
  /// block of count 1.  Throws std::invalid_argument on a wrong number of
  /// values and std::domain_error where moments_batch() fails the lane
  /// (zero resistance value, vanishing det(Y0)).
  std::vector<double> moments_at(std::span<const double> element_values) const;

  /// Batched structure-of-arrays scratch sized for lane blocks of up to
  /// `width` points.
  BatchWorkspace make_batch_workspace(std::size_t width) const;

  /// Evaluate moments for `count` points at once (count <= ws.width).
  /// Element value i of point p is read from element_values[i*stride + p];
  /// moment k of point p lands in moments_out[k*out_stride + p].  ok[p]
  /// (size count) is set to 0 — and the point's moments to NaN — exactly
  /// where moments_at() throws (zero resistance value or vanishing
  /// det(Y0)); every other lane is bit-identical whatever `count`.
  /// Thread-safe for concurrent callers with distinct workspaces.
  void moments_batch(std::span<const double> element_values, std::size_t stride,
                     std::size_t count, BatchWorkspace& ws, std::span<double> moments_out,
                     std::size_t out_stride, std::span<unsigned char> ok) const;

  /// Full evaluation: compiled moments -> Padé -> reduced-order model.
  engine::ReducedOrderModel evaluate(std::span<const double> element_values) const;

  /// Moments plus their exact gradients with respect to the ELEMENT
  /// values (reciprocal transforms chain-ruled): one
  /// moments_and_gradients_batch() lane block of count 1, with the error
  /// contract of moments_at().  Requires ModelOptions::with_gradients at
  /// build time (std::logic_error otherwise).
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
  /// moments and gradients.  Every lane is bit-identical regardless of
  /// count or thread.  Requires with_gradients (throws std::logic_error
  /// otherwise).
  void moments_and_gradients_batch(std::span<const double> element_values,
                                   std::size_t stride, std::size_t count,
                                   BatchWorkspace& ws, std::span<double> moments_out,
                                   std::size_t out_stride, std::span<double> grads_out,
                                   std::size_t grad_stride,
                                   std::span<unsigned char> ok) const;

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
  /// Alias of instruction_count(); its only caller is the benchmark's
  /// symbolic.fused_instructions row (perfbench/src/workload.cpp).
  std::size_t fused_instruction_count() const { return instruction_count(); }
  std::size_t register_count() const { return program_.register_count(); }
  /// Instruction count of the reverse-mode gradient program (0 when the
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
  /// Reads the v5 blob whole into an aligned buffer and opens it like
  /// from_blob(verify_checksum=true).  Throws std::runtime_error on
  /// truncated input, FailError(kModelFormat) on any format version but
  /// v5, and FailError(kCacheCorrupt) when the payload checksum does not
  /// match (bit damage on otherwise well-formed bytes).  The cache layer
  /// turns any of these into quarantine + miss.
  static CompiledModel load(std::istream& is);

  /// Open a v5 blob IN PLACE: structural validation + program views over
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
  /// True when this model executes out of an external region (mmap or
  /// heap blob) rather than owned vectors.
  bool view_backed() const { return blob_ != nullptr; }
  /// Region provenance for health/audit output ("heap" or the file
  /// path); empty for built/parsed models.
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

  /// The lane block both batch calls share: argument and workspace checks
  /// (`ws_mismatch` is the workspace error text), the symbol pack with the
  /// reciprocal transforms, one run of `program`, and the moment division
  /// of its primal block (NaN moments on failed lanes).
  void run_lane_block(const symbolic::CompiledProgram& program,
                      std::span<const double> element_values, std::size_t stride,
                      std::size_t count, BatchWorkspace& ws, std::span<double> moments_out,
                      std::size_t out_stride, std::span<unsigned char> ok,
                      const char* ws_mismatch) const;
  /// The scalar entry points' arity check (exactly one value per symbol).
  void check_point(std::span<const double> element_values) const;
  /// Rethrow a failed count-1 lane as the std::domain_error its point hit.
  [[noreturn]] void throw_point_failure(std::span<const double> element_values) const;

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
  /// v5 region this model executes out of (null for built/parsed models).
  /// Keeps the mapped/shared pages alive for as long as any copy of the
  /// model exists — the hot-swap retirement contract of SharedModelStore.
  std::shared_ptr<const ModelBlob> blob_;
  /// Lazy polynomial side + raw section for view-backed models.
  std::shared_ptr<LazySymbolics> lazy_;
  std::span<const std::byte> symbolics_raw_;  ///< into *blob_
};

/// Automatic symbolic-element selection (paper §2.3): run AWEsensitivity
/// and return the `how_many` differentiable elements with the largest
/// normalized pole sensitivities.
std::vector<std::string> select_symbols(const circuit::Netlist& netlist,
                                        const std::string& input_source,
                                        circuit::NodeId output_node, std::size_t order,
                                        std::size_t how_many);

}  // namespace awe::core
