// Compilation of an expression DAG into a flat register program.
//
// This realizes the paper's central efficiency claim: "the symbolic form
// provides a compiled set of operations which can quickly produce a final
// AWE approximation, where the operands are the values of the symbols."
// The program is a straight-line instruction vector over a small register
// file; registers are recycled after the last use of each intermediate, so
// the working set stays cache resident even for thousand-operation models.
//
// Two instruction streams are built from the same DAG:
//   - the STRICT stream: one instruction per DAG node, exactly the scalar
//     operation order, bit-for-bit reproducible (EvalMode::kStrict);
//   - the FUSED stream: a post-compilation peephole pass contracts the
//     kMul+kAdd/kSub pairs emitted by Horner lowering into kFma/kFms ops,
//     folds single-use kNeg into consuming adds/subs, and renumbers
//     registers by liveness over the shorter sequence (EvalMode::kFast).
// kFast trades the bit-for-bit guarantee for throughput: fused ops may be
// contracted to hardware FMA (single rounding), so results can drift from
// strict by a few ULP per fused operation.  See DESIGN.md "Fused
// evaluation and the strict/fast contract".
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "symbolic/expr.hpp"
#include "symbolic/polynomial.hpp"
#include "symbolic/rational.hpp"

namespace awe::symbolic {

struct Instr {
  OpCode op{};
  std::uint32_t dst = 0;
  std::uint32_t a = 0;  // register, input index (kInput) or constant index (kConst)
  std::uint32_t b = 0;
  std::uint32_t c = 0;  // third operand register (kFma/kFms only)
};

/// Non-owning executable view of a compiled program: the exact spans the
/// interpreter and the C emitters read.  For an owning CompiledProgram the
/// spans alias its internal vectors; for a view-backed one (model format
/// v4, DESIGN.md §15) they point straight into a mapped file or shared
/// memory region — the region's records ARE the instruction stream, so
/// opening a model touches no per-instruction allocation at all.  The
/// backing region must outlive every program built over it (CompiledModel
/// pins it with a shared handle).
struct ProgramCode {
  std::span<const Instr> strict;
  std::span<const Instr> fused;
  std::span<const double> constants;
  std::span<const std::uint32_t> outputs;        ///< strict-stream output registers
  std::span<const std::uint32_t> fused_outputs;  ///< fused-stream output registers
  std::size_t input_count = 0;
  std::size_t register_count = 0;  ///< max of the two streams' register files
};

/// Numeric evaluation contract for the batched interpreter.
enum class EvalMode : std::uint8_t {
  /// Unfused instruction stream; every lane is bit-identical to run().
  kStrict,
  /// Fused (peephole) stream with FMA contraction permitted: faster, and
  /// within a small ULP bound of kStrict, but not bit-reproducible across
  /// hardware or batch geometry.
  kFast,
};

class CompiledProgram {
 public:
  /// Compile the subgraph reachable from `roots`.  Output k of run() is the
  /// value of roots[k].
  CompiledProgram(const ExprGraph& graph, std::span<const NodeId> roots);

  std::size_t output_count() const { return output_regs_.size(); }
  std::size_t input_count() const { return input_count_; }
  std::size_t instruction_count() const { return instrs_.size(); }
  /// Length of the peephole-fused stream (<= instruction_count()).
  std::size_t fused_instruction_count() const { return fused_instrs_.size(); }
  /// Scratch registers per lane.  Sized for BOTH streams (max of the two
  /// register files), so one scratch allocation serves either EvalMode.
  std::size_t register_count() const { return register_count_; }

  /// Evaluate: inputs are the symbol values; outputs receives the root
  /// values.  Always strict.  Thread-safe (no internal mutable state) when
  /// each caller supplies its own scratch via run_with_scratch.
  void run(std::span<const double> inputs, std::span<double> outputs) const;

  /// Same, with caller-provided scratch — the allocation-free hot path for
  /// iterative evaluation.
  /// Preconditions (validated, std::invalid_argument on violation):
  ///   inputs.size() >= input_count(), outputs.size() == output_count(),
  ///   scratch.size() >= register_count().
  void run_with_scratch(std::span<const double> inputs, std::span<double> outputs,
                        std::span<double> scratch) const;

  /// Batched structure-of-arrays execution of `count` independent points.
  /// Lane stride is `count`: input i of point p sits at inputs[i*count + p],
  /// output k of point p lands at outputs[k*count + p].
  ///
  /// Preconditions (validated, std::invalid_argument on violation):
  ///   inputs.size()  >= input_count()*count,
  ///   outputs.size() >= output_count()*count,
  ///   scratch.size() >= register_count()*count.
  ///
  /// EvalMode::kStrict interprets the unfused stream, each instruction
  /// executed across all lanes in exactly the scalar operation order, so
  /// every lane's result is bit-identical to run() on that point regardless
  /// of `count`.  EvalMode::kFast interprets the fused stream through
  /// width-8 unrolled kernels; results are within a small ULP bound of
  /// strict (see EvalMode).
  void run_batch(std::span<const double> inputs, std::span<double> outputs,
                 std::span<double> scratch, std::size_t count,
                 EvalMode mode = EvalMode::kStrict) const;

  /// Emit the program as a standalone C function
  ///   void <name>(const double* in, double* out);
  /// so a compiled model can be exported from the tool and linked into a
  /// downstream application with zero interpreter overhead.  kFast emits
  /// the fused stream using C99 fma() (the caller must include <math.h>).
  std::string to_c_source(std::string_view function_name,
                          EvalMode mode = EvalMode::kStrict) const;

  /// Binary serialization of the full program state: both instruction
  /// streams, the constant pool (bit-exact doubles) and both output maps.
  /// Deterministic and write-only: model format v4 hashes these bytes
  /// into its program_checksum meta field (DESIGN.md §15.1).
  void save(std::ostream& os) const;

  /// The executable view of this program.  For an owning program the spans
  /// alias internal storage and stay valid as long as the program lives;
  /// for a view-backed program they alias the external region it was built
  /// over.
  ProgramCode code() const {
    return {instrs_,      fused_instrs_, constants_,     output_regs_,
            fused_output_regs_, input_count_,  register_count_};
  }

  /// Construct a program that executes directly out of `code` without
  /// copying any stream — the model-format-v4 zero-copy path.  The caller
  /// owns the backing region and must keep it alive and immutable for the
  /// program's lifetime.  Runs the full structural validation
  /// (register/constant/input bounds on every instruction); throws
  /// std::runtime_error on violation so a corrupt mapped file can never
  /// index out of the register file.
  static CompiledProgram from_code(const ProgramCode& code);

  /// True when the instruction streams alias an external region (mapped
  /// file / shared memory) rather than internal storage.
  bool view_backed() const { return external_; }

 private:
  CompiledProgram() = default;  // for from_code()

  /// Structural validation of the current streams: every operand register,
  /// constant index and input index in bounds, output maps in bounds.
  /// Throws std::runtime_error with a "CompiledProgram::load:" message.
  void validate() const;
  /// Point the execution spans at the owned vectors (after the owned
  /// storage has been (re)filled or copied/moved).
  void rebind();

  void run_batch_strict(std::span<const double> inputs, std::span<double> outputs,
                        std::span<double> scratch, std::size_t count) const;
  void run_batch_fast(std::span<const double> inputs, std::span<double> outputs,
                      std::span<double> scratch, std::size_t count) const;

  // Owned storage.  Empty for view-backed programs (external_ == true),
  // where the execution spans below alias a caller-owned region instead.
  std::vector<Instr> own_instrs_;
  std::vector<Instr> own_fused_instrs_;
  std::vector<double> own_constants_;
  std::vector<std::uint32_t> own_output_regs_;
  std::vector<std::uint32_t> own_fused_output_regs_;

  // Execution views — the only thing the run/emit paths ever read.
  std::span<const Instr> instrs_;        // strict stream
  std::span<const Instr> fused_instrs_;  // peephole-fused stream
  std::span<const double> constants_;
  std::span<const std::uint32_t> output_regs_;        // strict stream
  std::span<const std::uint32_t> fused_output_regs_;  // fused stream
  std::size_t register_count_ = 0;  // max of the two streams' register files
  std::size_t input_count_ = 0;
  bool external_ = false;

 public:
  // Copy/move must re-point the spans at the destination's own_* storage
  // (or keep aliasing the external region for view-backed programs);
  // defaulted versions would leave a copy's spans dangling into the source.
  CompiledProgram(const CompiledProgram& other);
  CompiledProgram(CompiledProgram&& other) noexcept;
  CompiledProgram& operator=(const CompiledProgram& other);
  CompiledProgram& operator=(CompiledProgram&& other) noexcept;
  ~CompiledProgram() = default;
};

static_assert(sizeof(Instr) == 20, "Instr layout is part of model format v4");
static_assert(alignof(Instr) == 4, "Instr alignment is part of model format v4");
static_assert(offsetof(Instr, op) == 0 && offsetof(Instr, dst) == 4 &&
                  offsetof(Instr, a) == 8 && offsetof(Instr, b) == 12 &&
                  offsetof(Instr, c) == 16,
              "Instr field offsets are part of model format v4");
static_assert(std::is_trivially_copyable_v<Instr>,
              "mapped instruction streams are reinterpreted in place");

/// Reverse-mode differentiation over the DAG (DESIGN.md §14): for each
/// root, one backward sweep appends adjoint expression nodes computing
/// d(root)/d(input i) for ALL inputs simultaneously, into the SAME graph —
/// hash-consing shares every primal subterm with the forward pass and CSEs
/// adjoint terms across roots, so compiling [roots..., jac...] as one
/// CompiledProgram evaluates primals and gradients in a single stream.
///
/// Returns jac with jac[r * graph.input_count() + i] = node for
/// d(roots[r])/d(input i); inputs a root does not depend on map to the
/// constant-0 node.  Operand ids are always smaller than their consumer's
/// id (nodes are interned bottom-up), so one descending id sweep per root
/// is a valid reverse-topological order even while adjoint nodes are being
/// appended.  Throws std::invalid_argument if the graph contains fused ops
/// (kFma/kFms never appear in an ExprGraph).
std::vector<NodeId> reverse_gradients(ExprGraph& graph, std::span<const NodeId> roots);

/// Lower a polynomial into the DAG with recursive Horner factoring:
/// repeatedly pull out the variable of highest degree, emitting
/// (((c_d x + c_{d-1}) x + ...) x + c_0) with polynomial coefficients
/// lowered recursively.  var_nodes[i] is the DAG node for variable i.
NodeId lower_polynomial(ExprGraph& graph, const Polynomial& poly,
                        std::span<const NodeId> var_nodes);

/// Lower a rational function: lower_polynomial(num) / lower_polynomial(den).
NodeId lower_rational(ExprGraph& graph, const RationalFunction& rf,
                      std::span<const NodeId> var_nodes);

}  // namespace awe::symbolic
