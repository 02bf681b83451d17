// Compilation of an expression DAG into a flat register program.
//
// This realizes the paper's central efficiency claim: "the symbolic form
// provides a compiled set of operations which can quickly produce a final
// AWE approximation, where the operands are the values of the symbols."
// The program is a straight-line instruction vector over a small register
// file, one instruction per DAG node in the scalar operation order.  It
// has one interpreter, run_batch(): each instruction runs across a block
// of lanes (one point per lane), and a single point is a block of one, so
// every lane is bit-for-bit reproducible whatever the block width.
// Registers are recycled after the last use of each intermediate, so the
// working set stays cache resident even for thousand-operation models.
#pragma once

#include <cstddef>
#include <memory>
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
};

/// Non-owning executable view of a compiled program: the exact spans the
/// interpreter and the C emitter read.  For a compiled CompiledProgram the
/// spans alias its shared immutable storage; for one opened from a model
/// (format v5, DESIGN.md §15) they point straight into a mapped file or
/// heap region — the region's records ARE the instruction stream,
/// so opening a model touches no per-instruction allocation at all.  The
/// backing region must outlive every program built over it (CompiledModel
/// pins it with a shared handle).
struct ProgramCode {
  std::span<const Instr> instrs;
  std::span<const double> constants;
  std::span<const std::uint32_t> outputs;  ///< output registers
  std::size_t input_count = 0;
  std::size_t register_count = 0;
};

class CompiledProgram {
 public:
  /// Compile the subgraph reachable from `roots`.  Output k of run_batch()
  /// is the value of roots[k].
  CompiledProgram(const ExprGraph& graph, std::span<const NodeId> roots);

  std::size_t output_count() const { return code_.outputs.size(); }
  std::size_t input_count() const { return code_.input_count; }
  std::size_t instruction_count() const { return code_.instrs.size(); }
  /// Scratch registers per lane.
  std::size_t register_count() const { return code_.register_count; }

  /// Structure-of-arrays execution of `count` independent points, the one
  /// interpreter.  Lane stride is `count`: input i of point p sits at
  /// inputs[i*count + p], output k of point p lands at outputs[k*count + p].
  /// Thread-safe: the program is immutable, and each caller supplies its
  /// own scratch.
  ///
  /// Preconditions (validated, std::invalid_argument on violation):
  ///   inputs.size()  >= input_count()*count,
  ///   outputs.size() >= output_count()*count,
  ///   scratch.size() >= register_count()*count.
  ///
  /// Each instruction is executed across all lanes in exactly the scalar
  /// operation order, so every lane's result is bit-identical regardless of
  /// `count`.  count == 0 is a no-op.
  void run_batch(std::span<const double> inputs, std::span<double> outputs,
                 std::span<double> scratch, std::size_t count) const;

  /// Emit the program as a standalone C function
  ///   void <name>(const double* in, double* out);
  /// so a compiled model can be exported from the tool and linked into a
  /// downstream application with zero interpreter overhead.
  std::string to_c_source(std::string_view function_name) const;

  /// The executable view of this program, valid as long as the program (or
  /// any copy of it) lives, or, for a program built by from_code(), as long
  /// as the external region lives.
  ProgramCode code() const { return code_; }

  /// Construct a program that executes directly out of `code` without
  /// copying any stream — the model-format zero-copy path.  The caller
  /// owns the backing region and must keep it alive and immutable for the
  /// program's lifetime.  Runs the full structural validation
  /// (register/constant/input bounds on every instruction); throws
  /// std::runtime_error on violation so a corrupt mapped file can never
  /// index out of the register file.
  static CompiledProgram from_code(const ProgramCode& code);

 private:
  /// The streams a compiled program owns.  Immutable once compiled and
  /// shared by every copy, so the spans in code_ stay valid across copies
  /// and moves.
  struct Storage {
    std::vector<Instr> instrs;
    std::vector<double> constants;
    std::vector<std::uint32_t> outputs;
  };

  CompiledProgram() = default;  // for from_code()

  /// Structural validation of the current stream: every operand register,
  /// constant index and input index in bounds, output maps in bounds.
  /// Throws std::runtime_error with a "CompiledProgram::load:" message.
  void validate() const;

  std::shared_ptr<const Storage> storage_;  ///< null for from_code() programs
  ProgramCode code_;  ///< the only thing the run/emit paths read
};

static_assert(sizeof(Instr) == 16, "Instr layout is part of model format v5");
static_assert(alignof(Instr) == 4, "Instr alignment is part of model format v5");
static_assert(offsetof(Instr, op) == 0 && offsetof(Instr, dst) == 4 &&
                  offsetof(Instr, a) == 8 && offsetof(Instr, b) == 12,
              "Instr field offsets are part of model format v5");
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
/// appended.
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
