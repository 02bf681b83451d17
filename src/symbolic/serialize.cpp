#include "symbolic/serialize.hpp"

#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace awe::symbolic::io {

namespace {

void write_bytes(std::ostream& os, const void* data, std::size_t n) {
  os.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  if (!os) throw std::runtime_error("serialize: write failed");
}

void read_bytes(std::istream& is, void* data, std::size_t n) {
  is.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  if (!is || is.gcount() != static_cast<std::streamsize>(n))
    throw std::runtime_error("serialize: truncated input");
}

template <typename T>
void write_le(std::ostream& os, T v) {
  // Serialize little-endian regardless of host order.
  unsigned char buf[sizeof(T)];
  for (std::size_t i = 0; i < sizeof(T); ++i)
    buf[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
  write_bytes(os, buf, sizeof(T));
}

template <typename T>
T read_le(std::istream& is) {
  unsigned char buf[sizeof(T)];
  read_bytes(is, buf, sizeof(T));
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) v |= static_cast<T>(buf[i]) << (8 * i);
  return v;
}

}  // namespace

void write_u8(std::ostream& os, std::uint8_t v) { write_le<std::uint8_t>(os, v); }
void write_u16(std::ostream& os, std::uint16_t v) { write_le<std::uint16_t>(os, v); }
void write_u32(std::ostream& os, std::uint32_t v) { write_le<std::uint32_t>(os, v); }
void write_u64(std::ostream& os, std::uint64_t v) { write_le<std::uint64_t>(os, v); }

void write_f64(std::ostream& os, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  write_u64(os, bits);
}

std::uint16_t read_u16(std::istream& is) { return read_le<std::uint16_t>(is); }
std::uint32_t read_u32(std::istream& is) { return read_le<std::uint32_t>(is); }
std::uint64_t read_u64(std::istream& is) { return read_le<std::uint64_t>(is); }

double read_f64(std::istream& is) {
  const std::uint64_t bits = read_u64(is);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t read_count(std::istream& is, std::uint64_t limit) {
  const std::uint64_t n = read_u64(is);
  if (n > limit) throw std::runtime_error("serialize: count exceeds sanity bound");
  return n;
}

void save_polynomial(std::ostream& os, const Polynomial& poly) {
  write_u64(os, poly.nvars());
  write_u64(os, poly.terms().size());
  for (const Term& t : poly.terms()) {
    // The exponent vector size equals nvars — no per-term length prefix.
    for (std::uint16_t e : t.exponents) write_u16(os, e);
    write_f64(os, t.coeff);
  }
}

Polynomial load_polynomial(std::istream& is) {
  const std::uint64_t nvars = read_count(is, 1u << 20);
  const std::uint64_t nterms = read_count(is);
  std::vector<Term> terms(nterms);
  for (Term& t : terms) {
    t.exponents.resize(nvars);
    for (std::uint16_t& e : t.exponents) e = read_u16(is);
    t.coeff = read_f64(is);
  }
  // from_terms re-normalizes (sort + merge); serialized terms already
  // satisfy the invariant, so this is an identity pass and a load→save
  // round trip is byte-stable.
  return Polynomial::from_terms(nvars, std::move(terms));
}

}  // namespace awe::symbolic::io
