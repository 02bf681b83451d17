// Model format v5: a single relocatable, 64-byte-aligned, little-endian
// blob that the interpreter executes IN PLACE (DESIGN.md §15).
//
// v3 and earlier were stream formats: every load re-parsed the payload
// field by field into freshly allocated vectors, so process start paid
// O(model size) before the first point could be evaluated.  v5 is an
// offset-based section format — fixed header, section table, then
// 64-aligned sections whose bytes ARE the in-memory representation of the
// instruction stream, constant pool and output map (no pointers, no
// varints, every record at its static_assert-pinned layout).  Opening a
// model is therefore mmap + bounds validation: O(pages touched), not
// O(model size); the same blob also serves unchanged from a heap buffer
// (CompiledModel::load, SharedModelStore hot-swap).
//
// Only the symbolic-polynomial section keeps a stream encoding (the
// symbolic/serialize.hpp primitives): it is cold (needed for
// symbolic_denominator()-style introspection, never for evaluation), so
// CompiledModel parses it lazily on first use.  Files in any earlier
// version (v1-v4) are not readable: they fail with kModelFormat.
//
// Integrity contract: the header carries an FNV-1a checksum over the whole
// payload, verified when a file is *published* (cache store, --map-audit,
// SharedModelStore::publish) and on the full-read stream load path — but
// deliberately NOT on the mmap open path, where it would fault in every
// page and destroy the O(pages touched) win.  Mapped opens instead run the
// full structural validation (section bounds + per-instruction register/
// constant/input bounds), so a damaged mapped model can fail wrong but can
// never index out of range; the cache layer quarantines on any validation
// throw exactly as it does for stream corruption.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "partition/partitioner.hpp"
#include "symbolic/compile.hpp"

namespace awe::core {

namespace v5 {

/// Fixed 64-byte file header.  All integers little-endian; the blob after
/// it is a section table followed by 64-aligned sections.
struct Header {
  char magic[4];            ///< "AWEM"
  std::uint32_t version;    ///< 5
  std::uint64_t total_size; ///< whole blob, header included
  std::uint64_t checksum;   ///< fnv1a64 over bytes [64, total_size)
  std::uint32_t section_count;
  std::uint32_t flags;      ///< bit0: gradient sections present
  std::uint8_t endian_tag;  ///< 1 = little-endian producer
  std::uint8_t reserved[31];
};
static_assert(sizeof(Header) == 64, "the header is exactly one alignment unit");

enum class SectionKind : std::uint32_t {
  kMeta = 1,        ///< one Meta record
  kSymbols = 2,     ///< SymbolEntry[symbol_count]
  kStrings = 3,     ///< concatenated symbol-name bytes
  kCode = 4,        ///< Instr[] — executable in place
  kConstants = 5,   ///< double[]
  kOutputRegs = 6,  ///< uint32[]
  kGradCode = 7,    ///< gradient program, same three sections
  kGradConstants = 8,
  kGradOutputRegs = 9,
  kSymbolics = 10,  ///< stream-encoded polynomial payload, lazily parsed
};

struct SectionEntry {
  std::uint32_t kind;  ///< SectionKind
  std::uint32_t reserved;
  std::uint64_t offset;  ///< from blob start; 64-aligned
  std::uint64_t size;    ///< payload bytes (padding to the next section excluded)
};
static_assert(sizeof(SectionEntry) == 24);

/// Fixed-layout model metadata (the fields CompiledModel needs without
/// touching the cold symbolics section).
struct Meta {
  std::uint64_t order;
  std::uint64_t port_count;
  std::uint64_t global_dim;
  std::uint64_t symbol_count;
  std::uint64_t numerator_count;      ///< == 2*order
  std::uint64_t prog_input_count;
  std::uint64_t prog_register_count;
  std::uint64_t grad_input_count;     ///< 0 when no gradient program
  std::uint64_t grad_register_count;  ///< 0 when no gradient program
  std::uint8_t enforce_stability;
  std::uint8_t allow_order_fallback;
  std::uint8_t with_gradients;
  std::uint8_t reserved[5];
};
static_assert(sizeof(Meta) == 80);

struct SymbolEntry {
  std::uint64_t element_index;
  std::uint32_t name_offset;  ///< into the kStrings section
  std::uint32_t name_length;
  std::uint8_t reciprocal;
  std::uint8_t reserved[7];
};
static_assert(sizeof(SymbolEntry) == 24);

static_assert(alignof(Header) <= 64 && alignof(Meta) <= 64 &&
              alignof(SymbolEntry) <= 64);

}  // namespace v5

/// FNV-1a 64-bit over a byte range (the model checksum primitive).
std::uint64_t fnv1a64(const void* data, std::size_t size);

/// Abstract owner of a model region: a heap buffer or an mmap'd cache
/// file.  CompiledModel pins the blob with a shared_ptr so the region
/// outlives every program view built over it — including through
/// SharedModelStore hot-swap retirement.
class ModelBlob {
 public:
  virtual ~ModelBlob() = default;
  virtual std::span<const std::byte> bytes() const = 0;
  /// Where the region came from, for health/audit messages ("heap" or
  /// the file path).
  virtual std::string origin() const = 0;
};

/// Copy `bytes` into a fresh 64-byte-aligned heap buffer.
std::shared_ptr<const ModelBlob> make_heap_blob(std::string_view bytes);
/// mmap(MAP_PRIVATE, PROT_READ) the whole file.  Pages fault lazily: no
/// checksum is computed here (see the integrity contract above).
/// Throws std::runtime_error (errno text included) on open/map failure.
std::shared_ptr<const ModelBlob> map_file_blob(const std::filesystem::path& path);
/// The one format-version check, shared by CompiledModel::load and
/// ModelView::open: any version but kModelFormatVersion throws
/// health::FailError(kModelFormat, "CompiledModel::load: unsupported
/// format version").
void check_format_version(std::uint32_t version);

/// Non-owning, validated view over a v5 blob.  Construction via open()
/// performs the full structural validation (everything except the
/// checksum); accessors afterwards are plain pointer arithmetic.
class ModelView {
 public:
  /// Validate `region` as a v5 blob and build the view.  Checks, in order:
  /// platform guard (little-endian host, 64-byte base alignment) — throws
  /// health::FailError(kModelFormat); then magic ("CompiledModel::load:
  /// bad magic", as the stream loader says) and check_format_version; then
  /// header/section-table/section bounds, required-section set, and record
  /// layout checks (std::runtime_error).  Does NOT verify the checksum.
  static ModelView open(std::span<const std::byte> region);

  std::span<const std::byte> bytes() const { return region_; }
  const v5::Header& header() const { return *header_; }
  const v5::Meta& meta() const { return *meta_; }
  bool has_gradient() const { return meta_->with_gradients != 0; }

  std::span<const v5::SymbolEntry> symbols() const { return symbols_; }
  std::string_view symbol_name(const v5::SymbolEntry& s) const {
    return std::string_view(strings_.data() + s.name_offset, s.name_length);
  }

  /// Executable view of the primal program, aliasing the region directly.
  symbolic::ProgramCode program_code() const { return program_; }
  /// Executable view of the gradient program; empty spans when absent.
  symbolic::ProgramCode gradient_code() const { return gradient_; }

  /// The stream-encoded polynomial payload ({u64 nnum, polynomial[nnum],
  /// polynomial det_y0}) for lazy parsing.
  std::span<const std::byte> symbolics_blob() const { return symbolics_; }

  /// Recompute fnv1a64 over [64, total_size) and compare with the header.
  /// Touches every page — publish/audit only, never the mapped-open path.
  bool verify_checksum() const;

 private:
  std::span<const std::byte> region_;
  const v5::Header* header_ = nullptr;
  const v5::Meta* meta_ = nullptr;
  std::span<const v5::SymbolEntry> symbols_;
  std::string_view strings_;
  symbolic::ProgramCode program_;
  symbolic::ProgramCode gradient_;
  std::span<const std::byte> symbolics_;
};

/// Everything pack_model_v5 needs; spans/views alias caller storage.
struct PackInput {
  std::uint64_t order = 0;
  bool enforce_stability = true;
  bool allow_order_fallback = true;
  std::span<const part::SymbolSpec> symbols;
  std::uint64_t numerator_count = 0;
  std::uint64_t port_count = 0;
  std::uint64_t global_dim = 0;
  symbolic::ProgramCode program;
  std::optional<symbolic::ProgramCode> gradient;
  /// Serialized polynomial payload for the kSymbolics section.
  std::string_view symbolics_blob;
};

/// Serialize to a complete v5 blob (header + table + sections, all padding
/// zeroed).  Deterministic: identical input produces byte-identical blobs,
/// which the cache-determinism contract relies on.
std::string pack_model_v5(const PackInput& in);

}  // namespace awe::core
