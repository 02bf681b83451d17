// On-disk compiled-model format identity, shared by the serializer
// (model_io.cpp) and the cache key derivation (model_cache.cpp): bumping
// the version both rejects old files at load time AND changes every cache
// key, so stale entries are simply never looked up again.
#pragma once

#include <cstdint>

namespace awe::core {

inline constexpr char kModelMagic[4] = {'A', 'W', 'E', 'M'};
// v5: offset-based, 64-byte-aligned, mmap-executable blob (DESIGN.md §15,
// core/model_blob.hpp), the only format this build reads or writes.  A
// file in any earlier version (v1-v3 stream formats, the v4 blob) fails to
// load with kModelFormat, and the cache quarantines it and rebuilds (their
// keys embedded the old version, so a current lookup never asks for one).
inline constexpr std::uint32_t kModelFormatVersion = 5;

}  // namespace awe::core
