// Binary serialization primitives of the model format's kSymbolics section
// (written by core/model_io.cpp, parsed lazily by core/awesymbolic.cpp).
//
// The format is deliberately boring: little-endian fixed-width integers
// and raw IEEE-754 doubles (bit-exact round trips, no text formatting
// drift).  Every field is written in a fixed order from fully-ordered
// containers, so serializing the same object twice — or serializing,
// loading and re-serializing — produces byte-identical output.  That determinism is what the on-disk model cache and the
// determinism matrix's cache rows assert.
//
// Readers validate as they go and throw std::runtime_error on truncated
// or malformed input; they never read uninitialized memory.  Sizes are
// sanity-bounded so a corrupt length prefix cannot trigger a huge
// allocation.
#pragma once

#include <cstdint>
#include <istream>
#include <streambuf>
#include <string>

#include "symbolic/polynomial.hpp"

namespace awe::symbolic::io {

/// Read-only istream over an external byte range — parse in place, no
/// copy into an istringstream.  The caller keeps the range alive for the
/// stream's lifetime.  Parses the lazy kSymbolics section in place.
class imembuf : public std::streambuf {
 public:
  imembuf(const char* data, std::size_t size) {
    char* p = const_cast<char*>(data);  // std::streambuf API; never written
    setg(p, p, p + size);
  }
};

class imemstream : private imembuf, public std::istream {
 public:
  imemstream(const char* data, std::size_t size)
      : imembuf(data, size), std::istream(static_cast<std::streambuf*>(this)) {}
};

/// Upper bound accepted for any length prefix (elements, not bytes); a
/// corrupt file fails fast instead of attempting a multi-GB allocation.
inline constexpr std::uint64_t kMaxCount = 1ull << 28;

void write_u16(std::ostream& os, std::uint16_t v);
void write_u64(std::ostream& os, std::uint64_t v);
void write_f64(std::ostream& os, double v);

std::uint16_t read_u16(std::istream& is);
std::uint32_t read_u32(std::istream& is);
std::uint64_t read_u64(std::istream& is);
double read_f64(std::istream& is);

/// Reads a length prefix and validates it against `limit`.
std::uint64_t read_count(std::istream& is, std::uint64_t limit = kMaxCount);

void save_polynomial(std::ostream& os, const Polynomial& poly);
Polynomial load_polynomial(std::istream& is);

}  // namespace awe::symbolic::io
