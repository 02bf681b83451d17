// CompiledModel binary save/load.
//
// save() writes model format v4 (core/model_blob.hpp, DESIGN.md §15): a
// 64-byte-aligned offset-based blob whose instruction/constant sections
// are the in-memory representation, so a cache entry can be mmap'd and
// executed in place (CompiledModel::map_file) instead of parsed.  The
// stream load() below reads the same blob from pipes and sockets; it is
// the only other reader, and any version but 4 fails with kModelFormat.
//
// Every container is ordered and every double is written bit-exact, so
// save -> load -> save round trips byte-identically (asserted by
// test_model_v4's committed goldens and the determinism matrix's cache rows).
// The checksum makes silent media damage (a flipped bit in a program
// constant would otherwise load as a plausible-but-wrong model) a detected
// load failure, which the cache layer quarantines like any other corrupt
// entry (DESIGN.md §11).
#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/awesymbolic.hpp"
#include "core/model_format.hpp"
#include "symbolic/serialize.hpp"

namespace awe::core {

namespace io = symbolic::io;

namespace {

std::uint64_t serialized_checksum(const symbolic::CompiledProgram& program) {
  std::ostringstream os;
  program.save(os);
  const std::string bytes = os.str();
  return fnv1a64(bytes.data(), bytes.size());
}

}  // namespace

void CompiledModel::save(std::ostream& os) const {
  const std::string blob = pack();
  os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  if (!os) throw std::runtime_error("CompiledModel::save: write failed");
}

std::string CompiledModel::pack() const {
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
  return pack_model_v4(in);
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

CompiledModel CompiledModel::load(std::istream& is) {
  // Stream path for the v4 blob (pipes, fuzz corpora, non-mmap cache
  // loads): reassemble the full blob, header bytes already consumed
  // included, and run the same validated open as map_file, checksum
  // verified since this path reads everything anyway.  The buffer grows
  // in bounded chunks as bytes arrive, so a damaged size field cannot
  // make a short stream allocate what its header claims.
  char magic[4];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kModelMagic, sizeof(kModelMagic)) != 0)
    throw std::runtime_error("CompiledModel::load: bad magic");
  const std::uint32_t version = io::read_u32(is);
  check_format_version(version);
  const std::uint64_t total_size = io::read_u64(is);
  if (!is || total_size < sizeof(v4::Header) || total_size > (1ull << 32))
    throw std::runtime_error("CompiledModel::load: bad payload size");
  std::string blob(kModelMagic, sizeof(kModelMagic));
  blob.append(reinterpret_cast<const char*>(&version), sizeof(version));
  blob.append(reinterpret_cast<const char*>(&total_size), sizeof(total_size));
  constexpr std::size_t kChunk = 1 << 20;
  while (blob.size() < total_size) {
    const std::size_t have = blob.size();
    const auto want =
        static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, total_size - have));
    blob.resize(have + want);
    is.read(blob.data() + have, static_cast<std::streamsize>(want));
    if (static_cast<std::size_t>(is.gcount()) != want)
      throw std::runtime_error("CompiledModel::load: truncated payload");
  }
  return from_blob(make_heap_blob(blob), /*verify_checksum=*/true);
}

}  // namespace awe::core
