// CompiledModel binary save/load.
//
// save() writes model format v4 (core/model_blob.hpp, DESIGN.md §15): a
// 64-byte-aligned offset-based blob whose instruction/constant sections
// are the in-memory representation, so a cache entry can be mmap'd and
// executed in place (CompiledModel::map_file) instead of parsed.  The
// stream load() below still exists for pipes/sockets and for the legacy
// v3 format:
//
// v3 (legacy, still readable): magic "AWEM", u32 version, u64 payload_size,
// u64 fnv1a64(payload), then a field-by-field stream payload:
//     ModelOptions {u64 order, u8 enforce_stability, u8 allow_order_fallback,
//                   u8 with_gradients},
//     SymbolicMoments {u64 nsym, per symbol {u64 element_index, string name,
//                      u8 reciprocal}; u64 nnum, polynomial[nnum]; polynomial
//                      det_y0; u64 port_count, u64 global_dim},
//     CompiledProgram (see symbolic/compile_io.cpp),
//     u8 has_gradients [, CompiledProgram gradient].
// The v3 gradient program is the reverse-mode stream (DESIGN.md §14): its
// outputs are [primal block, per symbol i: adjoint block], so its output
// count must equal (nsym + 1) * (2*order + 1) — validated below.  The v3
// payload is checksummed incrementally as it is read and parsed IN PLACE
// over the read buffer (imemstream) — one read, one pass, no intermediate
// istringstream copy.
//
// Every container is ordered and every double is written bit-exact, so
// save -> load -> save round trips byte-identically (asserted by
// test_model_cache and the CI cache-determinism job).  The checksum makes
// silent media damage (a flipped bit in a program constant would otherwise
// load as a plausible-but-wrong model) a detected load failure, which the
// cache layer quarantines like any other corrupt entry (DESIGN.md §11).
#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/awesymbolic.hpp"
#include "core/model_format.hpp"
#include "health/status.hpp"
#include "symbolic/serialize.hpp"

namespace awe::core {

namespace io = symbolic::io;

namespace {

constexpr std::uint32_t kLegacyV3 = 3;

struct IncrementalFnv {
  std::uint64_t h = 1469598103934665603ull;
  void update(const char* data, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(data[i]);
      h *= 1099511628211ull;
    }
  }
};

std::uint64_t serialized_checksum(const symbolic::CompiledProgram& program) {
  std::ostringstream os;
  program.save(os);
  const std::string bytes = os.str();
  return fnv1a64(bytes.data(), bytes.size());
}

}  // namespace

void CompiledModel::save(std::ostream& os) const {
  PackInput in;
  in.order = opts_.order;
  in.enforce_stability = opts_.enforce_stability;
  in.allow_order_fallback = opts_.allow_order_fallback;
  in.symbols = sym_.symbols;
  in.numerator_count = moment_count();
  in.port_count = sym_.port_count;
  in.global_dim = sym_.global_dim;
  in.program = program_.code();
  if (grad_program_) in.gradient = grad_program_->code();
  // fnv1a64(program.save()) per program, kept in the v4 meta only so the
  // format stays byte-stable.
  in.program_checksum = serialized_checksum(program_);
  if (grad_program_) in.gradient_checksum = serialized_checksum(*grad_program_);
  const std::string symbolics = symbolics_payload();
  in.symbolics_blob = symbolics;
  const std::string blob = pack_model_v4(in);
  os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  if (!os) throw std::runtime_error("CompiledModel::save: write failed");
}

std::string CompiledModel::symbolics_payload() const {
  // A view-backed model copies its raw kSymbolics section verbatim —
  // byte determinism across repacks for free, and no polynomial parse on
  // the save path either.
  if (blob_ != nullptr)
    return std::string(reinterpret_cast<const char*>(symbolics_raw_.data()),
                       symbolics_raw_.size());
  std::ostringstream os;
  io::write_u64(os, sym_.numerators.size());
  for (const symbolic::Polynomial& p : sym_.numerators) io::save_polynomial(os, p);
  io::save_polynomial(os, sym_.det_y0);
  return os.str();
}

void CompiledModel::save_legacy_v3(std::ostream& os) const {
  std::ostringstream body;
  save_payload(body);
  const std::string bytes = body.str();
  IncrementalFnv fnv;
  fnv.update(bytes.data(), bytes.size());
  os.write(kModelMagic, sizeof(kModelMagic));
  io::write_u32(os, kLegacyV3);
  io::write_u64(os, bytes.size());
  io::write_u64(os, fnv.h);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!os) throw std::runtime_error("CompiledModel::save: write failed");
}

void CompiledModel::save_payload(std::ostream& os) const {
  io::write_u64(os, opts_.order);
  io::write_u8(os, opts_.enforce_stability ? 1 : 0);
  io::write_u8(os, opts_.allow_order_fallback ? 1 : 0);
  io::write_u8(os, opts_.with_gradients ? 1 : 0);

  const part::SymbolicMoments& sym = full_sym();
  io::write_u64(os, sym.symbols.size());
  for (const part::SymbolSpec& s : sym.symbols) {
    io::write_u64(os, s.element_index);
    io::write_string(os, s.name);
    io::write_u8(os, s.reciprocal ? 1 : 0);
  }
  io::write_u64(os, sym.numerators.size());
  for (const symbolic::Polynomial& p : sym.numerators) io::save_polynomial(os, p);
  io::save_polynomial(os, sym.det_y0);
  io::write_u64(os, sym.port_count);
  io::write_u64(os, sym.global_dim);

  program_.save(os);
  io::write_u8(os, grad_program_.has_value() ? 1 : 0);
  if (grad_program_) grad_program_->save(os);
  if (!os) throw std::runtime_error("CompiledModel::save: write failed");
}

CompiledModel CompiledModel::load(std::istream& is) {
  char magic[4];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kModelMagic, sizeof(kModelMagic)) != 0)
    throw std::runtime_error("CompiledModel::load: bad magic");
  const std::uint32_t version = io::read_u32(is);
  if (version == kModelFormatVersion) return load_v4(is);
  if (version != kLegacyV3)
    throw std::runtime_error("CompiledModel::load: unsupported format version");

  // Legacy v3: sized, checksummed stream payload.  One chunked read with
  // the checksum folded in as bytes arrive, then an in-place parse over
  // the same buffer — truncation and bit damage both fail HERE, before
  // any field is trusted.
  const std::uint64_t size = io::read_u64(is);
  const std::uint64_t checksum = io::read_u64(is);
  if (!is || size > (1ull << 32))
    throw std::runtime_error("CompiledModel::load: bad payload size");
  std::string bytes(size, '\0');
  IncrementalFnv fnv;
  constexpr std::size_t kChunk = 1 << 18;
  for (std::uint64_t off = 0; off < size;) {
    const auto want = static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, size - off));
    is.read(bytes.data() + off, static_cast<std::streamsize>(want));
    if (static_cast<std::size_t>(is.gcount()) != want)
      throw std::runtime_error("CompiledModel::load: truncated payload");
    fnv.update(bytes.data() + off, want);
    off += want;
  }
  if (fnv.h != checksum)
    throw health::FailError(health::FailClass::kCacheCorrupt,
                            "CompiledModel::load: payload checksum mismatch");
  io::imemstream payload(bytes.data(), bytes.size());
  return load_payload(payload);
}

CompiledModel CompiledModel::load_v4(std::istream& is) {
  // Stream path for the v4 blob (pipes, fuzz corpora, non-mmap loads):
  // reassemble the full blob — header bytes already consumed included —
  // into an aligned heap region and run the same validated open as
  // map_file, checksum verified since this path reads everything anyway.
  const std::uint64_t total_size = io::read_u64(is);
  if (!is || total_size < sizeof(v4::Header) || total_size > (1ull << 32))
    throw std::runtime_error("CompiledModel::load: bad payload size");
  std::string blob(static_cast<std::size_t>(total_size), '\0');
  std::memcpy(blob.data(), kModelMagic, sizeof(kModelMagic));
  const std::uint32_t version = kModelFormatVersion;
  std::memcpy(blob.data() + 4, &version, 4);
  std::memcpy(blob.data() + 8, &total_size, 8);
  const std::streamsize rest = static_cast<std::streamsize>(total_size - 16);
  is.read(blob.data() + 16, rest);
  if (is.gcount() != rest)
    throw std::runtime_error("CompiledModel::load: truncated payload");
  return from_blob(make_heap_blob(blob), /*verify_checksum=*/true);
}

CompiledModel CompiledModel::load_payload(std::istream& is) {
  ModelOptions opts;
  opts.order = io::read_count(is, 1u << 16);
  opts.enforce_stability = io::read_u8(is) != 0;
  opts.allow_order_fallback = io::read_u8(is) != 0;
  opts.with_gradients = io::read_u8(is) != 0;

  part::SymbolicMoments sym;
  const std::uint64_t nsym = io::read_count(is);
  sym.symbols.resize(nsym);
  for (part::SymbolSpec& s : sym.symbols) {
    s.element_index = io::read_count(is);
    s.name = io::read_string(is);
    s.reciprocal = io::read_u8(is) != 0;
  }
  const std::uint64_t nnum = io::read_count(is);
  sym.numerators.reserve(nnum);
  for (std::uint64_t k = 0; k < nnum; ++k)
    sym.numerators.push_back(io::load_polynomial(is));
  sym.det_y0 = io::load_polynomial(is);
  sym.port_count = io::read_count(is);
  sym.global_dim = io::read_count(is);

  symbolic::CompiledProgram program = symbolic::CompiledProgram::load(is);
  std::optional<symbolic::CompiledProgram> grad_program;
  if (io::read_u8(is) != 0) grad_program.emplace(symbolic::CompiledProgram::load(is));

  // Cross-field consistency: a truncated-but-well-formed file must not
  // produce a model whose program disagrees with its symbolic side.
  if (program.input_count() != sym.symbols.size() ||
      program.output_count() != sym.numerators.size() + 1)
    throw std::runtime_error("CompiledModel::load: program/moments mismatch");
  if (opts.with_gradients != grad_program.has_value())
    throw std::runtime_error("CompiledModel::load: gradient flag mismatch");
  if (grad_program &&
      (grad_program->input_count() != sym.symbols.size() ||
       grad_program->output_count() !=
           (sym.symbols.size() + 1) * (sym.numerators.size() + 1)))
    throw std::runtime_error("CompiledModel::load: gradient program layout mismatch");
  if (sym.numerators.size() != 2 * opts.order)
    throw std::runtime_error("CompiledModel::load: moment count mismatch");

  return CompiledModel(std::move(sym), std::move(program), std::move(grad_program), opts);
}

}  // namespace awe::core
