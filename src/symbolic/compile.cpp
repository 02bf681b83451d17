#include "symbolic/compile.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "text/json.hpp"

namespace awe::symbolic {
namespace {

constexpr std::uint32_t kUnassigned = 0xffffffffu;

/// One SSA-form instruction over DAG node ids, before register allocation.
/// `id` is the defining node; operands reference other defining nodes.
struct VInstr {
  OpCode op{};
  NodeId id = 0;
  std::uint32_t imm = 0;  // const index (kConst) or input index (kInput)
  NodeId a = 0, b = 0, c = 0;
};

/// How many register operands an instruction-level op reads.
int operand_count(OpCode op) {
  switch (op) {
    case OpCode::kConst:
    case OpCode::kInput:
      return 0;
    case OpCode::kNeg:
      return 1;
    case OpCode::kAdd:
    case OpCode::kSub:
    case OpCode::kMul:
    case OpCode::kDiv:
      return 2;
    case OpCode::kFma:
    case OpCode::kFms:
      return 3;
  }
  return 0;
}

/// Liveness-based register assignment over an SSA sequence: registers are
/// recycled at each value's last read, and the register file is renumbered
/// from scratch for THIS sequence — so the fused stream's working set
/// shrinks along with its instruction count.
struct AllocResult {
  std::vector<Instr> instrs;
  std::vector<std::uint32_t> output_regs;
  std::size_t register_count = 0;
};

AllocResult allocate_registers(const std::vector<VInstr>& seq,
                               std::span<const NodeId> roots, std::size_t node_count) {
  constexpr std::size_t kLiveToEnd = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> last_use(node_count, 0);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const VInstr& v = seq[i];
    const int n = operand_count(v.op);
    if (n >= 1) last_use[v.a] = i;
    if (n >= 2) last_use[v.b] = i;
    if (n >= 3) last_use[v.c] = i;
  }
  for (const NodeId r : roots) last_use[r] = kLiveToEnd;

  std::vector<std::uint32_t> reg_of(node_count, kUnassigned);
  std::vector<std::uint32_t> free_regs;
  std::uint32_t next_reg = 0;
  auto alloc_reg = [&]() -> std::uint32_t {
    if (!free_regs.empty()) {
      const std::uint32_t r = free_regs.back();
      free_regs.pop_back();
      return r;
    }
    return next_reg++;
  };
  // Sequence positions whose emitting instruction releases a register.
  std::multimap<std::size_t, std::uint32_t> frees;

  AllocResult out;
  out.instrs.reserve(seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const VInstr& v = seq[i];
    Instr ins;
    ins.op = v.op;
    const int n = operand_count(v.op);
    if (n == 0) {
      ins.a = v.imm;
    } else {
      ins.a = reg_of[v.a];
      if (n >= 2) ins.b = reg_of[v.b];
      if (n >= 3) ins.c = reg_of[v.c];
      assert(ins.a != kUnassigned);
      assert(n < 2 || ins.b != kUnassigned);
      assert(n < 3 || ins.c != kUnassigned);
    }
    // Release registers whose owning value was last read here; the freed
    // register may immediately become this instruction's dst (the batch
    // kernels read each lane before writing it, so dst==src is safe).
    for (auto it = frees.find(i); it != frees.end() && it->first == i;) {
      free_regs.push_back(it->second);
      it = frees.erase(it);
    }
    const std::uint32_t dst = alloc_reg();
    ins.dst = dst;
    reg_of[v.id] = dst;
    frees.emplace(last_use[v.id], dst);
    out.instrs.push_back(ins);
  }
  out.register_count = next_reg;

  out.output_regs.reserve(roots.size());
  for (const NodeId r : roots) {
    assert(reg_of[r] != kUnassigned);
    out.output_regs.push_back(reg_of[r]);
  }
  return out;
}

}  // namespace

CompiledProgram::CompiledProgram(const ExprGraph& graph, std::span<const NodeId> roots) {
  input_count_ = graph.input_count();
  const std::size_t nnodes = graph.node_count();

  // Nodes are created bottom-up, so ascending NodeId is a topological
  // order.  Mark the reachable subgraph.
  std::vector<unsigned char> reachable(nnodes, 0);
  {
    std::vector<NodeId> stack(roots.begin(), roots.end());
    while (!stack.empty()) {
      const NodeId id = stack.back();
      stack.pop_back();
      if (reachable[id]) continue;
      reachable[id] = 1;
      const ExprNode& n = graph.node(id);
      switch (n.op) {
        case OpCode::kConst:
        case OpCode::kInput:
          break;
        case OpCode::kNeg:
          stack.push_back(n.a);
          break;
        default:
          stack.push_back(n.a);
          stack.push_back(n.b);
      }
    }
  }

  auto const_index = [&](double v) -> std::uint32_t {
    const auto it = std::find(own_constants_.begin(), own_constants_.end(), v);
    if (it != own_constants_.end())
      return static_cast<std::uint32_t>(it - own_constants_.begin());
    own_constants_.push_back(v);
    return static_cast<std::uint32_t>(own_constants_.size() - 1);
  };

  // ---- strict stream: one VInstr per reachable node, scalar op order ----
  std::vector<VInstr> strict_seq;
  strict_seq.reserve(nnodes);
  for (NodeId id = 0; id < nnodes; ++id) {
    if (!reachable[id]) continue;
    const ExprNode& n = graph.node(id);
    VInstr v;
    v.op = n.op;
    v.id = id;
    switch (n.op) {
      case OpCode::kConst:
        v.imm = const_index(n.value);
        break;
      case OpCode::kInput:
        v.imm = n.a;
        break;
      default:
        v.a = n.a;
        v.b = n.b;
    }
    strict_seq.push_back(v);
  }
  AllocResult strict = allocate_registers(strict_seq, roots, nnodes);
  own_instrs_ = std::move(strict.instrs);
  own_output_regs_ = std::move(strict.output_regs);

  // ---- peephole fusion for the fast stream ------------------------------
  // Operand-occurrence counts over the reachable subgraph (roots count as
  // uses): a value feeding exactly one consumer can be folded into it.
  std::vector<std::uint32_t> uses(nnodes, 0);
  for (NodeId id = 0; id < nnodes; ++id) {
    if (!reachable[id]) continue;
    const ExprNode& n = graph.node(id);
    const int nops = operand_count(n.op);
    if (nops >= 1) ++uses[n.a];
    if (nops >= 2) ++uses[n.b];
  }
  std::vector<unsigned char> is_root(nnodes, 0);
  for (const NodeId r : roots) {
    ++uses[r];
    is_root[r] = 1;
  }

  std::vector<unsigned char> fused_away(nnodes, 0);
  auto fusable = [&](NodeId x, OpCode want) {
    return !is_root[x] && uses[x] == 1 && !fused_away[x] && graph.node(x).op == want;
  };

  // Per-add/sub rewrite decisions.  Folding a single-use kNeg operand flips
  // add<->sub (bit-identical over IEEE doubles); a single-use kMul operand
  // of the (possibly flipped) add/sub then contracts to kFma / kFms.
  struct Rewrite {
    OpCode op{};
    NodeId a = 0, b = 0, c = 0;
  };
  std::vector<Rewrite> rewrite(nnodes);
  std::vector<unsigned char> has_rewrite(nnodes, 0);
  for (NodeId id = 0; id < nnodes; ++id) {
    if (!reachable[id]) continue;
    const ExprNode& n = graph.node(id);
    if (n.op != OpCode::kAdd && n.op != OpCode::kSub) continue;
    OpCode op = n.op;
    NodeId a = n.a, b = n.b;
    for (;;) {  // neg folding can cascade at most twice (both operands)
      if (op == OpCode::kAdd && fusable(b, OpCode::kNeg)) {
        op = OpCode::kSub;
        fused_away[b] = 1;
        b = graph.node(b).a;
      } else if (op == OpCode::kAdd && fusable(a, OpCode::kNeg)) {
        op = OpCode::kSub;
        fused_away[a] = 1;
        const NodeId na = graph.node(a).a;
        a = b;
        b = na;
      } else if (op == OpCode::kSub && fusable(b, OpCode::kNeg)) {
        op = OpCode::kAdd;
        fused_away[b] = 1;
        b = graph.node(b).a;
      } else {
        break;
      }
    }
    Rewrite rw;
    if (op == OpCode::kAdd && fusable(a, OpCode::kMul)) {
      fused_away[a] = 1;
      rw = {OpCode::kFma, graph.node(a).a, graph.node(a).b, b};
    } else if (op == OpCode::kAdd && fusable(b, OpCode::kMul)) {
      fused_away[b] = 1;
      rw = {OpCode::kFma, graph.node(b).a, graph.node(b).b, a};
    } else if (op == OpCode::kSub && fusable(a, OpCode::kMul)) {
      fused_away[a] = 1;
      rw = {OpCode::kFms, graph.node(a).a, graph.node(a).b, b};
    } else if (op != n.op || a != n.a || b != n.b) {
      rw = {op, a, b, 0};
    } else {
      continue;
    }
    rewrite[id] = rw;
    has_rewrite[id] = 1;
  }

  std::vector<VInstr> fused_seq;
  fused_seq.reserve(strict_seq.size());
  for (NodeId id = 0; id < nnodes; ++id) {
    if (!reachable[id] || fused_away[id]) continue;
    const ExprNode& n = graph.node(id);
    VInstr v;
    v.id = id;
    if (has_rewrite[id]) {
      const Rewrite& rw = rewrite[id];
      v.op = rw.op;
      v.a = rw.a;
      v.b = rw.b;
      v.c = rw.c;
    } else {
      v.op = n.op;
      switch (n.op) {
        case OpCode::kConst:
          v.imm = const_index(n.value);
          break;
        case OpCode::kInput:
          v.imm = n.a;
          break;
        default:
          v.a = n.a;
          v.b = n.b;
      }
    }
    fused_seq.push_back(v);
  }
  AllocResult fused = allocate_registers(fused_seq, roots, nnodes);
  own_fused_instrs_ = std::move(fused.instrs);
  own_fused_output_regs_ = std::move(fused.output_regs);

  // One scratch allocation serves either stream.
  register_count_ = std::max(strict.register_count, fused.register_count);
  rebind();
}

void CompiledProgram::rebind() {
  instrs_ = own_instrs_;
  fused_instrs_ = own_fused_instrs_;
  constants_ = own_constants_;
  output_regs_ = own_output_regs_;
  fused_output_regs_ = own_fused_output_regs_;
}

CompiledProgram::CompiledProgram(const CompiledProgram& other)
    : own_instrs_(other.own_instrs_),
      own_fused_instrs_(other.own_fused_instrs_),
      own_constants_(other.own_constants_),
      own_output_regs_(other.own_output_regs_),
      own_fused_output_regs_(other.own_fused_output_regs_),
      instrs_(other.instrs_),
      fused_instrs_(other.fused_instrs_),
      constants_(other.constants_),
      output_regs_(other.output_regs_),
      fused_output_regs_(other.fused_output_regs_),
      register_count_(other.register_count_),
      input_count_(other.input_count_),
      external_(other.external_) {
  if (!external_) rebind();
}

CompiledProgram::CompiledProgram(CompiledProgram&& other) noexcept
    : own_instrs_(std::move(other.own_instrs_)),
      own_fused_instrs_(std::move(other.own_fused_instrs_)),
      own_constants_(std::move(other.own_constants_)),
      own_output_regs_(std::move(other.own_output_regs_)),
      own_fused_output_regs_(std::move(other.own_fused_output_regs_)),
      instrs_(other.instrs_),
      fused_instrs_(other.fused_instrs_),
      constants_(other.constants_),
      output_regs_(other.output_regs_),
      fused_output_regs_(other.fused_output_regs_),
      register_count_(other.register_count_),
      input_count_(other.input_count_),
      external_(other.external_) {
  // vector move transfers the heap buffer, so the copied spans still alias
  // valid storage; rebind anyway to keep the invariant trivially auditable.
  if (!external_) rebind();
}

CompiledProgram& CompiledProgram::operator=(const CompiledProgram& other) {
  if (this == &other) return *this;
  CompiledProgram tmp(other);
  *this = std::move(tmp);
  return *this;
}

CompiledProgram& CompiledProgram::operator=(CompiledProgram&& other) noexcept {
  if (this == &other) return *this;
  own_instrs_ = std::move(other.own_instrs_);
  own_fused_instrs_ = std::move(other.own_fused_instrs_);
  own_constants_ = std::move(other.own_constants_);
  own_output_regs_ = std::move(other.own_output_regs_);
  own_fused_output_regs_ = std::move(other.own_fused_output_regs_);
  instrs_ = other.instrs_;
  fused_instrs_ = other.fused_instrs_;
  constants_ = other.constants_;
  output_regs_ = other.output_regs_;
  fused_output_regs_ = other.fused_output_regs_;
  register_count_ = other.register_count_;
  input_count_ = other.input_count_;
  external_ = other.external_;
  if (!external_) rebind();
  return *this;
}

CompiledProgram CompiledProgram::from_code(const ProgramCode& code) {
  CompiledProgram p;
  p.instrs_ = code.strict;
  p.fused_instrs_ = code.fused;
  p.constants_ = code.constants;
  p.output_regs_ = code.outputs;
  p.fused_output_regs_ = code.fused_outputs;
  p.input_count_ = code.input_count;
  p.register_count_ = code.register_count;
  p.external_ = true;
  p.validate();
  return p;
}

void CompiledProgram::run(std::span<const double> inputs, std::span<double> outputs) const {
  std::vector<double> scratch(register_count_);
  run_with_scratch(inputs, outputs, scratch);
}

void CompiledProgram::run_with_scratch(std::span<const double> inputs,
                                       std::span<double> outputs,
                                       std::span<double> scratch) const {
  if (inputs.size() < input_count_)
    throw std::invalid_argument("CompiledProgram::run: too few inputs");
  if (outputs.size() != output_regs_.size())
    throw std::invalid_argument("CompiledProgram::run: output size mismatch");
  if (scratch.size() < register_count_)
    throw std::invalid_argument("CompiledProgram::run: scratch too small");

  double* const r = scratch.data();
  for (const Instr& ins : instrs_) {
    switch (ins.op) {
      case OpCode::kConst:
        r[ins.dst] = constants_[ins.a];
        break;
      case OpCode::kInput:
        r[ins.dst] = inputs[ins.a];
        break;
      case OpCode::kAdd:
        r[ins.dst] = r[ins.a] + r[ins.b];
        break;
      case OpCode::kSub:
        r[ins.dst] = r[ins.a] - r[ins.b];
        break;
      case OpCode::kMul:
        r[ins.dst] = r[ins.a] * r[ins.b];
        break;
      case OpCode::kDiv:
        r[ins.dst] = r[ins.a] / r[ins.b];
        break;
      case OpCode::kNeg:
        r[ins.dst] = -r[ins.a];
        break;
      case OpCode::kFma:  // never emitted into the strict stream
        r[ins.dst] = std::fma(r[ins.a], r[ins.b], r[ins.c]);
        break;
      case OpCode::kFms:
        r[ins.dst] = std::fma(r[ins.a], r[ins.b], -r[ins.c]);
        break;
    }
  }
  for (std::size_t k = 0; k < output_regs_.size(); ++k) outputs[k] = r[output_regs_[k]];
}

void CompiledProgram::run_batch(std::span<const double> inputs, std::span<double> outputs,
                                std::span<double> scratch, std::size_t count,
                                EvalMode mode) const {
  if (count == 0) return;
  if (inputs.size() < input_count_ * count)
    throw std::invalid_argument("CompiledProgram::run_batch: too few inputs");
  if (outputs.size() < output_regs_.size() * count)
    throw std::invalid_argument("CompiledProgram::run_batch: output size mismatch");
  if (scratch.size() < register_count_ * count)
    throw std::invalid_argument("CompiledProgram::run_batch: scratch too small");
  if (mode == EvalMode::kFast)
    run_batch_fast(inputs, outputs, scratch, count);
  else
    run_batch_strict(inputs, outputs, scratch, count);
}

void CompiledProgram::run_batch_strict(std::span<const double> inputs,
                                       std::span<double> outputs, std::span<double> scratch,
                                       std::size_t count) const {
  double* const r = scratch.data();
  const double* const in = inputs.data();
  const std::size_t w = count;
  for (const Instr& ins : instrs_) {
    double* const d = r + ins.dst * w;
    switch (ins.op) {
      case OpCode::kConst: {
        const double c = constants_[ins.a];
        for (std::size_t l = 0; l < w; ++l) d[l] = c;
        break;
      }
      case OpCode::kInput: {
        const double* const s = in + ins.a * w;
        for (std::size_t l = 0; l < w; ++l) d[l] = s[l];
        break;
      }
      case OpCode::kAdd: {
        const double* const a = r + ins.a * w;
        const double* const b = r + ins.b * w;
        for (std::size_t l = 0; l < w; ++l) d[l] = a[l] + b[l];
        break;
      }
      case OpCode::kSub: {
        const double* const a = r + ins.a * w;
        const double* const b = r + ins.b * w;
        for (std::size_t l = 0; l < w; ++l) d[l] = a[l] - b[l];
        break;
      }
      case OpCode::kMul: {
        const double* const a = r + ins.a * w;
        const double* const b = r + ins.b * w;
        for (std::size_t l = 0; l < w; ++l) d[l] = a[l] * b[l];
        break;
      }
      case OpCode::kDiv: {
        const double* const a = r + ins.a * w;
        const double* const b = r + ins.b * w;
        for (std::size_t l = 0; l < w; ++l) d[l] = a[l] / b[l];
        break;
      }
      case OpCode::kNeg: {
        const double* const a = r + ins.a * w;
        for (std::size_t l = 0; l < w; ++l) d[l] = -a[l];
        break;
      }
      case OpCode::kFma: {  // never emitted into the strict stream
        const double* const a = r + ins.a * w;
        const double* const b = r + ins.b * w;
        const double* const c = r + ins.c * w;
        for (std::size_t l = 0; l < w; ++l) d[l] = std::fma(a[l], b[l], c[l]);
        break;
      }
      case OpCode::kFms: {
        const double* const a = r + ins.a * w;
        const double* const b = r + ins.b * w;
        const double* const c = r + ins.c * w;
        for (std::size_t l = 0; l < w; ++l) d[l] = std::fma(a[l], b[l], -c[l]);
        break;
      }
    }
  }
  for (std::size_t k = 0; k < output_regs_.size(); ++k) {
    const double* const s = r + output_regs_[k] * w;
    double* const d = outputs.data() + k * w;
    for (std::size_t l = 0; l < w; ++l) d[l] = s[l];
  }
}

// Width-8 manually unrolled lane kernels for the fused stream.  The
// fixed-trip inner loops vectorize cleanly without intrinsics; AWE_SIMD
// adds an `omp simd` hint where -fopenmp-simd (or OpenMP proper) is on.
// FMA expressions are written as a*b + c so the compiler may contract them
// to hardware FMA under its fp-contract rules — that contraction is exactly
// the rounding freedom EvalMode::kFast grants.
#if defined(_OPENMP) || defined(AWE_HAVE_OPENMP_SIMD)
#define AWE_SIMD _Pragma("omp simd")
#else
#define AWE_SIMD
#endif

namespace {

constexpr std::size_t kUnroll = 8;

#define AWE_LANE_KERNEL(expr)                                              \
  do {                                                                     \
    std::size_t l = 0;                                                     \
    for (; l + kUnroll <= w; l += kUnroll) {                               \
      AWE_SIMD                                                             \
      for (std::size_t u = 0; u < kUnroll; ++u) {                          \
        const std::size_t j = l + u;                                       \
        d[j] = (expr);                                                     \
      }                                                                    \
    }                                                                      \
    for (; l < w; ++l) {                                                   \
      const std::size_t j = l;                                             \
      d[j] = (expr);                                                       \
    }                                                                      \
  } while (0)

}  // namespace

void CompiledProgram::run_batch_fast(std::span<const double> inputs,
                                     std::span<double> outputs, std::span<double> scratch,
                                     std::size_t count) const {
  double* const r = scratch.data();
  const double* const in = inputs.data();
  const std::size_t w = count;
  for (const Instr& ins : fused_instrs_) {
    double* const d = r + ins.dst * w;
    switch (ins.op) {
      case OpCode::kConst: {
        const double cv = constants_[ins.a];
        AWE_LANE_KERNEL(cv);
        break;
      }
      case OpCode::kInput: {
        const double* const a = in + ins.a * w;
        AWE_LANE_KERNEL(a[j]);
        break;
      }
      case OpCode::kAdd: {
        const double* const a = r + ins.a * w;
        const double* const b = r + ins.b * w;
        AWE_LANE_KERNEL(a[j] + b[j]);
        break;
      }
      case OpCode::kSub: {
        const double* const a = r + ins.a * w;
        const double* const b = r + ins.b * w;
        AWE_LANE_KERNEL(a[j] - b[j]);
        break;
      }
      case OpCode::kMul: {
        const double* const a = r + ins.a * w;
        const double* const b = r + ins.b * w;
        AWE_LANE_KERNEL(a[j] * b[j]);
        break;
      }
      case OpCode::kDiv: {
        const double* const a = r + ins.a * w;
        const double* const b = r + ins.b * w;
        AWE_LANE_KERNEL(a[j] / b[j]);
        break;
      }
      case OpCode::kNeg: {
        const double* const a = r + ins.a * w;
        AWE_LANE_KERNEL(-a[j]);
        break;
      }
      case OpCode::kFma: {
        const double* const a = r + ins.a * w;
        const double* const b = r + ins.b * w;
        const double* const c = r + ins.c * w;
        AWE_LANE_KERNEL(a[j] * b[j] + c[j]);
        break;
      }
      case OpCode::kFms: {
        const double* const a = r + ins.a * w;
        const double* const b = r + ins.b * w;
        const double* const c = r + ins.c * w;
        AWE_LANE_KERNEL(a[j] * b[j] - c[j]);
        break;
      }
    }
  }
  for (std::size_t k = 0; k < fused_output_regs_.size(); ++k) {
    const double* const s = r + fused_output_regs_[k] * w;
    double* const d = outputs.data() + k * w;
    for (std::size_t l = 0; l < w; ++l) d[l] = s[l];
  }
}

#undef AWE_LANE_KERNEL
#undef AWE_SIMD

namespace {

/// Format a double as a self-contained C expression.  The exact form
/// round-trips every finite value; infinities and NaN have no portable C
/// literal, so they are emitted as IEEE division expressions (no <math.h>
/// required).
std::string c_literal(double v) {
  if (std::isnan(v)) return "(0.0 / 0.0)";
  if (std::isinf(v)) return v > 0.0 ? "(1.0 / 0.0)" : "(-1.0 / 0.0)";
  return json::exact(v);
}

}  // namespace

std::string CompiledProgram::to_c_source(std::string_view function_name,
                                         EvalMode mode) const {
  const std::span<const Instr> stream =
      mode == EvalMode::kFast ? fused_instrs_ : instrs_;
  const std::span<const std::uint32_t> out_regs =
      mode == EvalMode::kFast ? fused_output_regs_ : output_regs_;

  std::string src;
  if (mode == EvalMode::kFast)
    src += "/* fused stream: requires <math.h> for fma() */\n";
  src += "void " + std::string(function_name) + "(const double* in, double* out) {\n";
  if (input_count_ == 0) src += "  (void)in;\n";  // a constant program reads no inputs
  src += "  double r[" + std::to_string(register_count_ == 0 ? 1 : register_count_) +
         "];\n";
  auto num = [](double v) { return c_literal(v); };
  for (const Instr& ins : stream) {
    const std::string d = "  r[" + std::to_string(ins.dst) + "] = ";
    const std::string a = "r[" + std::to_string(ins.a) + "]";
    const std::string b = "r[" + std::to_string(ins.b) + "]";
    const std::string c = "r[" + std::to_string(ins.c) + "]";
    switch (ins.op) {
      case OpCode::kConst:
        src += d + num(constants_[ins.a]) + ";\n";
        break;
      case OpCode::kInput:
        src += d + "in[" + std::to_string(ins.a) + "];\n";
        break;
      case OpCode::kAdd:
        src += d + a + " + " + b + ";\n";
        break;
      case OpCode::kSub:
        src += d + a + " - " + b + ";\n";
        break;
      case OpCode::kMul:
        src += d + a + " * " + b + ";\n";
        break;
      case OpCode::kDiv:
        src += d + a + " / " + b + ";\n";
        break;
      case OpCode::kNeg:
        src += d + "-" + a + ";\n";
        break;
      case OpCode::kFma:
        src += d + "fma(" + a + ", " + b + ", " + c + ");\n";
        break;
      case OpCode::kFms:
        src += d + "fma(" + a + ", " + b + ", -" + c + ");\n";
        break;
    }
  }
  for (std::size_t k = 0; k < out_regs.size(); ++k)
    src += "  out[" + std::to_string(k) + "] = r[" + std::to_string(out_regs[k]) +
           "];\n";
  src += "}\n";
  return src;
}

std::vector<NodeId> reverse_gradients(ExprGraph& graph, std::span<const NodeId> roots) {
  constexpr NodeId kNone = 0xffffffffu;
  const std::uint32_t ninputs = graph.input_count();

  // Map input index -> defining node.  Scanned once up front: the adjoint
  // nodes appended below never introduce new inputs.
  const std::size_t primal_nodes = graph.node_count();
  std::vector<NodeId> input_node(ninputs, kNone);
  for (NodeId id = 0; id < primal_nodes; ++id) {
    const ExprNode& n = graph.node(id);
    if (n.op == OpCode::kInput) input_node[n.a] = id;
  }
  const NodeId zero = graph.constant(0.0);
  const NodeId one = graph.constant(1.0);

  std::vector<NodeId> jac(roots.size() * ninputs, zero);
  std::vector<NodeId> adj(primal_nodes, kNone);
  std::vector<NodeId> touched;  // adjoint slots to reset between roots
  for (std::size_t r = 0; r < roots.size(); ++r) {
    const NodeId root = roots[r];
    if (root >= primal_nodes)
      throw std::invalid_argument("reverse_gradients: root is not a primal node");
    for (const NodeId id : touched) adj[id] = kNone;
    touched.clear();
    adj[root] = one;
    touched.push_back(root);

    auto accumulate = [&](NodeId x, NodeId g) {
      if (adj[x] == kNone) {
        adj[x] = g;
        touched.push_back(x);
      } else {
        adj[x] = graph.add(adj[x], g);
      }
    };

    // Operand ids are strictly smaller than their consumer's id, so one
    // descending sweep from the root reaches every node only after all of
    // its consumers: each adjoint is final at the moment it is propagated.
    for (NodeId id = root + 1; id-- > 0;) {
      if (adj[id] == kNone) continue;
      const NodeId g = adj[id];
      // Copied BY VALUE: the graph.add/mul/div/neg calls below append nodes
      // and may reallocate the node store, which would leave a reference
      // dangling mid-case and propagate garbage operand ids.
      const ExprNode n = graph.node(id);
      switch (n.op) {
        case OpCode::kConst:
        case OpCode::kInput:
          break;
        case OpCode::kAdd:
          accumulate(n.a, g);
          accumulate(n.b, g);
          break;
        case OpCode::kSub:
          accumulate(n.a, g);
          accumulate(n.b, graph.neg(g));
          break;
        case OpCode::kMul:
          accumulate(n.a, graph.mul(g, n.b));
          accumulate(n.b, graph.mul(g, n.a));
          break;
        case OpCode::kDiv:
          // q = a/b: dq/da = 1/b, dq/db = -q/b.  Expressing db's term
          // through the primal quotient node `id` (instead of a/b^2) lets
          // hash-consing share it with the forward value.
          accumulate(n.a, graph.div(g, n.b));
          accumulate(n.b, graph.neg(graph.div(graph.mul(g, id), n.b)));
          break;
        case OpCode::kNeg:
          accumulate(n.a, graph.neg(g));
          break;
        case OpCode::kFma:
        case OpCode::kFms:
          throw std::invalid_argument("reverse_gradients: fused node in graph");
      }
    }

    for (std::uint32_t i = 0; i < ninputs; ++i) {
      const NodeId in = input_node[i];
      if (in != kNone && adj[in] != kNone) jac[r * ninputs + i] = adj[in];
    }
  }
  return jac;
}

namespace {

/// Recursive Horner lowering. `terms` all share the ambient nvars.
NodeId lower_terms(ExprGraph& graph, std::span<const Term> terms, std::size_t nvars,
                   std::span<const NodeId> var_nodes) {
  if (terms.empty()) return graph.constant(0.0);

  // Content factoring: pull out the largest monomial dividing every term
  // (common in moment numerators, where whole symbol products factor out);
  // the remainder then Horner-factors with smaller exponents.
  if (terms.size() > 1) {
    Monomial common(nvars, 0);
    bool any = false;
    for (std::size_t v = 0; v < nvars; ++v) {
      std::uint16_t mn = terms[0].exponents[v];
      for (const Term& t : terms) mn = std::min(mn, t.exponents[v]);
      common[v] = mn;
      any = any || mn > 0;
    }
    if (any) {
      std::vector<Term> reduced(terms.begin(), terms.end());
      for (Term& t : reduced)
        for (std::size_t v = 0; v < nvars; ++v)
          t.exponents[v] = static_cast<std::uint16_t>(t.exponents[v] - common[v]);
      NodeId factor = graph.constant(1.0);
      for (std::size_t v = 0; v < nvars; ++v)
        if (common[v] > 0) factor = graph.mul(factor, graph.pow(var_nodes[v], common[v]));
      return graph.mul(factor, lower_terms(graph, reduced, nvars, var_nodes));
    }
  }

  // Constant polynomial?
  if (terms.size() == 1) {
    const Term& t = terms[0];
    NodeId node = graph.constant(t.coeff);
    for (std::size_t v = 0; v < nvars; ++v)
      if (t.exponents[v] > 0) node = graph.mul(node, graph.pow(var_nodes[v], t.exponents[v]));
    return node;
  }

  // Pick the variable with the highest degree across these terms; ties go
  // to the variable appearing in the most terms (maximizes sharing).
  std::size_t best_var = nvars;
  std::size_t best_deg = 0, best_count = 0;
  for (std::size_t v = 0; v < nvars; ++v) {
    std::size_t deg = 0, count = 0;
    for (const Term& t : terms) {
      deg = std::max<std::size_t>(deg, t.exponents[v]);
      if (t.exponents[v] > 0) ++count;
    }
    if (deg == 0) continue;
    if (deg > best_deg || (deg == best_deg && count > best_count)) {
      best_deg = deg;
      best_count = count;
      best_var = v;
    }
  }
  if (best_var == nvars) {
    // All terms are constants (can only be one after normalization).
    double sum = 0.0;
    for (const Term& t : terms) sum += t.coeff;
    return graph.constant(sum);
  }

  // Bucket terms by exponent of best_var (exponent cleared in the bucket).
  std::vector<std::vector<Term>> buckets(best_deg + 1);
  for (const Term& t : terms) {
    Term reduced = t;
    const std::size_t e = t.exponents[best_var];
    reduced.exponents[best_var] = 0;
    buckets[e].push_back(std::move(reduced));
  }

  // Horner: result = (((c_d x + c_{d-1}) x + c_{d-2}) x + ...) with gaps
  // handled by repeated multiplication.
  const NodeId x = var_nodes[best_var];
  NodeId acc = lower_terms(graph, buckets[best_deg], nvars, var_nodes);
  for (std::size_t e = best_deg; e-- > 0;) {
    acc = graph.mul(acc, x);
    if (!buckets[e].empty())
      acc = graph.add(acc, lower_terms(graph, buckets[e], nvars, var_nodes));
  }
  return acc;
}

}  // namespace

NodeId lower_polynomial(ExprGraph& graph, const Polynomial& poly,
                        std::span<const NodeId> var_nodes) {
  if (var_nodes.size() != poly.nvars())
    throw std::invalid_argument("lower_polynomial: var_nodes size mismatch");
  return lower_terms(graph, poly.terms(), poly.nvars(), var_nodes);
}

NodeId lower_rational(ExprGraph& graph, const RationalFunction& rf,
                      std::span<const NodeId> var_nodes) {
  const NodeId num = lower_polynomial(graph, rf.num(), var_nodes);
  if (rf.den().is_constant() && rf.den().constant_value() == 1.0) return num;
  return graph.div(num, lower_polynomial(graph, rf.den(), var_nodes));
}

}  // namespace awe::symbolic
