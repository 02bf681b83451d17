// CompiledProgram binary save and structural validation.
//
// save() format (version 1, all little-endian):
//   magic "AWEP", u32 version,
//   u64 input_count, u64 register_count,
//   u64 nconstants, f64[nconstants],
//   stream x2 (strict, fused): u64 ninstr, per instr {u8 op, u32 dst,a,b,c},
//   outputs x2 (strict, fused): u64 n, u32[n].
// Nothing reads these bytes back: model format v4 stores the program as
// executable sections (core/model_blob.hpp).  The v4 meta still records
// fnv1a64 of them (program_checksum / gradient_checksum), so they must
// stay byte-stable until a format change retires those fields.
#include <ostream>
#include <stdexcept>

#include "symbolic/compile.hpp"
#include "symbolic/serialize.hpp"

namespace awe::symbolic {

namespace {

constexpr char kMagic[4] = {'A', 'W', 'E', 'P'};
constexpr std::uint32_t kVersion = 1;

void save_stream(std::ostream& os, std::span<const Instr> instrs) {
  io::write_u64(os, instrs.size());
  for (const Instr& in : instrs) {
    io::write_u8(os, static_cast<std::uint8_t>(in.op));
    io::write_u32(os, in.dst);
    io::write_u32(os, in.a);
    io::write_u32(os, in.b);
    io::write_u32(os, in.c);
  }
}

void save_regs(std::ostream& os, std::span<const std::uint32_t> regs) {
  io::write_u64(os, regs.size());
  for (std::uint32_t r : regs) io::write_u32(os, r);
}

}  // namespace

void CompiledProgram::save(std::ostream& os) const {
  os.write(kMagic, sizeof(kMagic));
  io::write_u32(os, kVersion);
  io::write_u64(os, input_count_);
  io::write_u64(os, register_count_);
  io::write_u64(os, constants_.size());
  for (double c : constants_) io::write_f64(os, c);
  save_stream(os, instrs_);
  save_stream(os, fused_instrs_);
  save_regs(os, output_regs_);
  save_regs(os, fused_output_regs_);
  if (!os) throw std::runtime_error("CompiledProgram::save: write failed");
}

void CompiledProgram::validate() const {
  // Structural validation: every operand must stay inside the loaded
  // register/constant/input bounds so a corrupt mapped region cannot
  // make run() read out of range.
  auto check_reg = [&](std::uint32_t r) {
    if (r >= register_count_)
      throw std::runtime_error("CompiledProgram::load: register out of range");
  };
  auto check_stream = [&](std::span<const Instr> instrs) {
    for (const Instr& in : instrs) {
      if (static_cast<std::uint8_t>(in.op) > static_cast<std::uint8_t>(OpCode::kFms))
        throw std::runtime_error("CompiledProgram::load: unknown opcode");
      check_reg(in.dst);
      switch (in.op) {
        case OpCode::kConst:
          if (in.a >= constants_.size())
            throw std::runtime_error("CompiledProgram::load: constant out of range");
          break;
        case OpCode::kInput:
          if (in.a >= input_count_)
            throw std::runtime_error("CompiledProgram::load: input out of range");
          break;
        case OpCode::kNeg:
          check_reg(in.a);
          break;
        case OpCode::kFma:
        case OpCode::kFms:
          check_reg(in.c);
          [[fallthrough]];
        default:
          check_reg(in.a);
          check_reg(in.b);
          break;
      }
    }
  };
  check_stream(instrs_);
  check_stream(fused_instrs_);
  for (std::uint32_t r : output_regs_) check_reg(r);
  for (std::uint32_t r : fused_output_regs_) check_reg(r);
  if (output_regs_.size() != fused_output_regs_.size())
    throw std::runtime_error("CompiledProgram::load: output count mismatch");
}

}  // namespace awe::symbolic
