// Model format v4 packing, validation and region backings (DESIGN.md §15).
#include "core/model_blob.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <new>
#include <vector>
#include <stdexcept>

#include "circuit/content_hash.hpp"
#include "core/model_format.hpp"
#include "health/status.hpp"

namespace awe::core {

namespace {

using enc::put_f64;
using enc::put_u32;
using enc::put_u64;

using symbolic::Instr;

constexpr std::size_t kAlign = 64;
constexpr std::uint32_t kFlagHasGradient = 1u << 0;
constexpr std::uint32_t kMaxSections = 64;

std::size_t align_up(std::size_t n) { return (n + (kAlign - 1)) & ~(kAlign - 1); }

/// The v4 format is little-endian by definition; a big-endian host would
/// reinterpret every multi-byte field wrong, so it must fail loudly with a
/// classified error instead of loading a plausible-but-wrong model.
void require_little_endian_host(const char* who) {
  static_assert(std::endian::native == std::endian::little ||
                    std::endian::native == std::endian::big,
                "mixed-endian hosts are not supported");
  if (std::endian::native != std::endian::little)
    throw health::FailError(health::FailClass::kModelFormat,
                            std::string(who) +
                                ": model format v4 requires a little-endian host");
}

void append_zeros(std::string& out, std::size_t n) { out.append(n, '\0'); }

void pad_to(std::string& out, std::size_t offset) {
  if (out.size() > offset) throw std::logic_error("pack_model_v4: layout overflow");
  append_zeros(out, offset - out.size());
}

/// Emit one instruction as exactly 20 bytes at the static_assert-pinned
/// field offsets, padding bytes explicitly zeroed — memcpy of the struct
/// would leak indeterminate padding and break byte-determinism.
void append_instr(std::string& out, const Instr& in) {
  char b[sizeof(Instr)] = {};
  b[0] = static_cast<char>(in.op);
  std::memcpy(b + offsetof(Instr, dst), &in.dst, 4);
  std::memcpy(b + offsetof(Instr, a), &in.a, 4);
  std::memcpy(b + offsetof(Instr, b), &in.b, 4);
  std::memcpy(b + offsetof(Instr, c), &in.c, 4);
  out.append(b, sizeof(Instr));
}

struct SectionPlan {
  v4::SectionKind kind;
  std::uint64_t size = 0;
  std::uint64_t offset = 0;
};

[[noreturn]] void bad(const char* what) {
  throw std::runtime_error(std::string("CompiledModel::load: ") + what);
}

// ---- region backings ----------------------------------------------------

class HeapBlob final : public ModelBlob {
 public:
  explicit HeapBlob(std::string_view bytes) : size_(bytes.size()) {
    data_ = static_cast<std::byte*>(::operator new(size_, std::align_val_t(kAlign)));
    std::memcpy(data_, bytes.data(), size_);
  }
  ~HeapBlob() override { ::operator delete(data_, std::align_val_t(kAlign)); }
  std::span<const std::byte> bytes() const override { return {data_, size_}; }
  std::string origin() const override { return "heap"; }

 private:
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

class MappedBlob final : public ModelBlob {
 public:
  MappedBlob(void* addr, std::size_t size, std::string origin)
      : addr_(addr), size_(size), origin_(std::move(origin)) {}
  ~MappedBlob() override {
    if (addr_ != nullptr) ::munmap(addr_, size_);
  }
  std::span<const std::byte> bytes() const override {
    return {static_cast<const std::byte*>(addr_), size_};
  }
  std::string origin() const override { return origin_; }

 private:
  void* addr_ = nullptr;
  std::size_t size_ = 0;
  std::string origin_;
};

std::string shm_path(const std::string& name) {
  return name.empty() || name[0] != '/' ? "/" + name : name;
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::shared_ptr<const ModelBlob> make_heap_blob(std::string_view bytes) {
  return std::make_shared<HeapBlob>(bytes);
}

std::shared_ptr<const ModelBlob> map_file_blob(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw_errno("map_file_blob: open " + path.string());
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    throw std::runtime_error("map_file_blob: empty or unreadable " + path.string());
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (addr == MAP_FAILED) throw_errno("map_file_blob: mmap " + path.string());
  return std::make_shared<MappedBlob>(addr, size, path.string());
}

std::shared_ptr<const ModelBlob> create_shm_blob(const std::string& name,
                                                 std::span<const std::byte> bytes) {
  const std::string path = shm_path(name);
  ::shm_unlink(path.c_str());  // replace any stale object of the same name
  const int fd = ::shm_open(path.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) throw_errno("create_shm_blob: shm_open " + path);
  if (::ftruncate(fd, static_cast<off_t>(bytes.size())) != 0) {
    ::close(fd);
    ::shm_unlink(path.c_str());
    throw_errno("create_shm_blob: ftruncate " + path);
  }
  void* addr = ::mmap(nullptr, bytes.size(), PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (addr == MAP_FAILED) {
    ::shm_unlink(path.c_str());
    throw_errno("create_shm_blob: mmap " + path);
  }
  std::memcpy(addr, bytes.data(), bytes.size());
  return std::make_shared<MappedBlob>(addr, bytes.size(), "shm:" + path);
}

std::shared_ptr<const ModelBlob> open_shm_blob(const std::string& name) {
  const std::string path = shm_path(name);
  const int fd = ::shm_open(path.c_str(), O_RDONLY, 0);
  if (fd < 0) throw_errno("open_shm_blob: shm_open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    throw std::runtime_error("open_shm_blob: empty shared-memory object " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);
  if (addr == MAP_FAILED) throw_errno("open_shm_blob: mmap " + path);
  return std::make_shared<MappedBlob>(addr, size, "shm:" + path);
}

void unlink_shm_blob(const std::string& name) {
  ::shm_unlink(shm_path(name).c_str());
}

// ---- validated view -----------------------------------------------------

void check_format_version(std::uint32_t version) {
  if (version != kModelFormatVersion)
    throw health::FailError(health::FailClass::kModelFormat,
                            "CompiledModel::load: unsupported format version");
}

ModelView ModelView::open(std::span<const std::byte> region) {
  require_little_endian_host("ModelView::open");
  if (reinterpret_cast<std::uintptr_t>(region.data()) % kAlign != 0)
    throw health::FailError(health::FailClass::kModelFormat,
                            "ModelView::open: model region not 64-byte aligned");
  if (region.size() < sizeof(v4::Header)) bad("truncated payload");

  ModelView view;
  const auto* header = reinterpret_cast<const v4::Header*>(region.data());
  if (std::memcmp(header->magic, "AWEM", 4) != 0) bad("bad magic");
  check_format_version(header->version);
  if (header->endian_tag != 1)
    throw health::FailError(health::FailClass::kModelFormat,
                            "ModelView::open: model endianness mismatch");
  if (header->total_size < sizeof(v4::Header) || header->total_size > region.size())
    bad("truncated payload");
  if (header->section_count == 0 || header->section_count > kMaxSections)
    bad("bad section table");
  const std::uint64_t table_end =
      sizeof(v4::Header) +
      std::uint64_t{header->section_count} * sizeof(v4::SectionEntry);
  if (table_end > header->total_size) bad("bad section table");

  view.region_ = region.first(static_cast<std::size_t>(header->total_size));
  view.header_ = header;
  const auto* table =
      reinterpret_cast<const v4::SectionEntry*>(region.data() + sizeof(v4::Header));

  // Resolve each kind at most once, bounds-checked.
  const v4::SectionEntry* by_kind[kMaxSections + 1] = {};
  for (std::uint32_t i = 0; i < header->section_count; ++i) {
    const v4::SectionEntry& e = table[i];
    if (e.kind == 0 || e.kind > kMaxSections) bad("unknown section kind");
    if (by_kind[e.kind] != nullptr) bad("duplicate section");
    if (e.offset % kAlign != 0 || e.offset < table_end) bad("misaligned section");
    if (e.offset > header->total_size || e.size > header->total_size - e.offset)
      bad("section out of bounds");
    by_kind[e.kind] = &e;
  }
  auto require = [&](v4::SectionKind k) -> const v4::SectionEntry& {
    const v4::SectionEntry* e = by_kind[static_cast<std::uint32_t>(k)];
    if (e == nullptr) bad("missing section");
    return *e;
  };
  auto section = [&](const v4::SectionEntry& e) -> std::span<const std::byte> {
    return view.region_.subspan(static_cast<std::size_t>(e.offset),
                                static_cast<std::size_t>(e.size));
  };

  // Meta.
  const v4::SectionEntry& meta_e = require(v4::SectionKind::kMeta);
  if (meta_e.size != sizeof(v4::Meta)) bad("bad meta section");
  view.meta_ = reinterpret_cast<const v4::Meta*>(section(meta_e).data());
  const v4::Meta& meta = *view.meta_;
  const bool flag_grad = (header->flags & kFlagHasGradient) != 0;
  if (flag_grad != (meta.with_gradients != 0)) bad("gradient flag mismatch");

  // Symbols + strings.
  const v4::SectionEntry& sym_e = require(v4::SectionKind::kSymbols);
  const v4::SectionEntry& str_e = require(v4::SectionKind::kStrings);
  if (sym_e.size != meta.symbol_count * sizeof(v4::SymbolEntry))
    bad("bad symbol section");
  view.symbols_ = {reinterpret_cast<const v4::SymbolEntry*>(section(sym_e).data()),
                   static_cast<std::size_t>(meta.symbol_count)};
  view.strings_ = std::string_view(
      reinterpret_cast<const char*>(section(str_e).data()),
      static_cast<std::size_t>(str_e.size));
  for (const v4::SymbolEntry& s : view.symbols_) {
    if (std::uint64_t{s.name_offset} + s.name_length > str_e.size)
      bad("symbol name out of bounds");
  }

  // Program sections -> executable views.
  auto code_span = [&](v4::SectionKind k) -> std::span<const Instr> {
    const v4::SectionEntry& e = require(k);
    if (e.size % sizeof(Instr) != 0) bad("bad instruction section");
    return {reinterpret_cast<const Instr*>(section(e).data()),
            static_cast<std::size_t>(e.size / sizeof(Instr))};
  };
  auto f64_span = [&](v4::SectionKind k) -> std::span<const double> {
    const v4::SectionEntry& e = require(k);
    if (e.size % sizeof(double) != 0) bad("bad constant section");
    return {reinterpret_cast<const double*>(section(e).data()),
            static_cast<std::size_t>(e.size / sizeof(double))};
  };
  auto u32_span = [&](v4::SectionKind k) -> std::span<const std::uint32_t> {
    const v4::SectionEntry& e = require(k);
    if (e.size % sizeof(std::uint32_t) != 0) bad("bad output section");
    return {reinterpret_cast<const std::uint32_t*>(section(e).data()),
            static_cast<std::size_t>(e.size / sizeof(std::uint32_t))};
  };

  view.program_ = symbolic::ProgramCode{
      code_span(v4::SectionKind::kStrictCode),
      code_span(v4::SectionKind::kFusedCode),
      f64_span(v4::SectionKind::kConstants),
      u32_span(v4::SectionKind::kOutputRegs),
      u32_span(v4::SectionKind::kFusedOutputRegs),
      static_cast<std::size_t>(meta.prog_input_count),
      static_cast<std::size_t>(meta.prog_register_count)};
  if (flag_grad) {
    view.gradient_ = symbolic::ProgramCode{
        code_span(v4::SectionKind::kGradStrictCode),
        code_span(v4::SectionKind::kGradFusedCode),
        f64_span(v4::SectionKind::kGradConstants),
        u32_span(v4::SectionKind::kGradOutputRegs),
        u32_span(v4::SectionKind::kGradFusedOutputRegs),
        static_cast<std::size_t>(meta.grad_input_count),
        static_cast<std::size_t>(meta.grad_register_count)};
  } else if (by_kind[static_cast<std::uint32_t>(v4::SectionKind::kGradStrictCode)]) {
    bad("gradient flag mismatch");
  }

  view.symbolics_ = section(require(v4::SectionKind::kSymbolics));
  return view;
}

bool ModelView::verify_checksum() const {
  const std::span<const std::byte> payload = region_.subspan(sizeof(v4::Header));
  return fnv1a64(payload.data(), payload.size()) == header_->checksum;
}

// ---- packing ------------------------------------------------------------

std::string pack_model_v4(const PackInput& in) {
  require_little_endian_host("pack_model_v4");

  std::vector<SectionPlan> plan;
  plan.push_back({v4::SectionKind::kMeta, sizeof(v4::Meta)});
  plan.push_back({v4::SectionKind::kSymbols,
                  in.symbols.size() * sizeof(v4::SymbolEntry)});
  std::uint64_t strings_size = 0;
  for (const part::SymbolSpec& s : in.symbols) strings_size += s.name.size();
  plan.push_back({v4::SectionKind::kStrings, strings_size});

  auto plan_program = [&](const symbolic::ProgramCode& p, bool gradient) {
    const auto base = static_cast<std::uint32_t>(
        gradient ? v4::SectionKind::kGradStrictCode : v4::SectionKind::kStrictCode);
    plan.push_back({static_cast<v4::SectionKind>(base + 0),
                    p.strict.size() * sizeof(Instr)});
    plan.push_back({static_cast<v4::SectionKind>(base + 1),
                    p.fused.size() * sizeof(Instr)});
    plan.push_back({static_cast<v4::SectionKind>(base + 2),
                    p.constants.size() * sizeof(double)});
    plan.push_back({static_cast<v4::SectionKind>(base + 3),
                    p.outputs.size() * sizeof(std::uint32_t)});
    plan.push_back({static_cast<v4::SectionKind>(base + 4),
                    p.fused_outputs.size() * sizeof(std::uint32_t)});
  };
  plan_program(in.program, /*gradient=*/false);
  if (in.gradient) plan_program(*in.gradient, /*gradient=*/true);
  plan.push_back({v4::SectionKind::kSymbolics, in.symbolics_blob.size()});

  const std::uint64_t table_end =
      sizeof(v4::Header) + plan.size() * sizeof(v4::SectionEntry);
  std::uint64_t cursor = align_up(static_cast<std::size_t>(table_end));
  for (SectionPlan& s : plan) {
    s.offset = cursor;
    cursor = align_up(static_cast<std::size_t>(cursor + s.size));
  }
  // The tail is padded to the alignment quantum too, so total_size (and
  // every file/shm region holding a blob) is a whole number of 64-byte
  // units — concatenation-safe and mappable with no trailing slack page
  // arithmetic.
  const std::uint64_t total_size = align_up(static_cast<std::size_t>(
      plan.empty() ? table_end : plan.back().offset + plan.back().size));

  std::string out;
  out.reserve(static_cast<std::size_t>(total_size));
  append_zeros(out, sizeof(v4::Header));  // header patched in below
  for (const SectionPlan& s : plan) {
    put_u32(out, static_cast<std::uint32_t>(s.kind));
    put_u32(out, 0);
    put_u64(out, s.offset);
    put_u64(out, s.size);
  }

  auto emit = [&](const SectionPlan& s, auto&& body) {
    pad_to(out, static_cast<std::size_t>(s.offset));
    body();
    if (out.size() != s.offset + s.size)
      throw std::logic_error("pack_model_v4: section size mismatch");
  };

  std::size_t pi = 0;
  emit(plan[pi++], [&] {  // kMeta
    put_u64(out, in.order);
    put_u64(out, in.port_count);
    put_u64(out, in.global_dim);
    put_u64(out, in.symbols.size());
    put_u64(out, in.numerator_count);
    put_u64(out, in.program_checksum);
    put_u64(out, in.gradient ? in.gradient_checksum : 0);
    put_u64(out, in.program.input_count);
    put_u64(out, in.program.register_count);
    put_u64(out, in.gradient ? in.gradient->input_count : 0);
    put_u64(out, in.gradient ? in.gradient->register_count : 0);
    out.push_back(in.enforce_stability ? 1 : 0);
    out.push_back(in.allow_order_fallback ? 1 : 0);
    out.push_back(in.gradient ? 1 : 0);
    append_zeros(out, 5);
  });
  emit(plan[pi++], [&] {  // kSymbols
    std::uint32_t name_off = 0;
    for (const part::SymbolSpec& s : in.symbols) {
      put_u64(out, s.element_index);
      put_u32(out, name_off);
      put_u32(out, static_cast<std::uint32_t>(s.name.size()));
      out.push_back(s.reciprocal ? 1 : 0);
      append_zeros(out, 7);
      name_off += static_cast<std::uint32_t>(s.name.size());
    }
  });
  emit(plan[pi++], [&] {  // kStrings
    for (const part::SymbolSpec& s : in.symbols) out.append(s.name);
  });
  auto emit_program = [&](const symbolic::ProgramCode& p) {
    emit(plan[pi++], [&] {
      for (const Instr& ins : p.strict) append_instr(out, ins);
    });
    emit(plan[pi++], [&] {
      for (const Instr& ins : p.fused) append_instr(out, ins);
    });
    emit(plan[pi++], [&] {
      for (const double c : p.constants) put_f64(out, c);
    });
    emit(plan[pi++], [&] {
      for (const std::uint32_t r : p.outputs) put_u32(out, r);
    });
    emit(plan[pi++], [&] {
      for (const std::uint32_t r : p.fused_outputs) put_u32(out, r);
    });
  };
  emit_program(in.program);
  if (in.gradient) emit_program(*in.gradient);
  emit(plan[pi++], [&] { out.append(in.symbolics_blob); });
  pad_to(out, static_cast<std::size_t>(total_size));

  // Header, now that the checksummed payload is final.
  std::string header;
  header.reserve(sizeof(v4::Header));
  header.append("AWEM", 4);
  put_u32(header, kModelFormatVersion);
  put_u64(header, total_size);
  put_u64(header, fnv1a64(out.data() + sizeof(v4::Header),
                          out.size() - sizeof(v4::Header)));
  put_u32(header, static_cast<std::uint32_t>(plan.size()));
  put_u32(header, in.gradient ? kFlagHasGradient : 0);
  header.push_back('\x01');  // endian tag: little
  append_zeros(header, 31);
  out.replace(0, sizeof(v4::Header), header);
  return out;
}

}  // namespace awe::core
