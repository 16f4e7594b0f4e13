// Binary tensor (de)serialization for the model-zoo weight cache and the
// adversarial-example cache.
//
// Format v2 (little-endian), integrity-checked end to end:
//   file    := magic:u32 version:u32 count:u64 tensor* trailer
//   tensor  := rank:u64 dims:u64[rank] crc:u32 data:f32[numel]
//   trailer := trailer_magic:u32 file_crc:u32
// Each tensor's crc is a CRC32 over its dims and payload bytes; file_crc
// covers the structural bytes (count plus every rank/dims/crc field), so
// any single-byte corruption or truncation anywhere in the file is
// detected on load. Writes go to `<path>.tmp` and are published with an
// atomic std::filesystem::rename, so readers never observe partial files.
// Any other version (including the checksum-less v1) is rejected; the
// model zoo quarantines and rebuilds files it cannot load.
#pragma once

#include <cstdint>
#include <filesystem>
#include <istream>
#include <ostream>
#include <vector>

#include "tensor/tensor.hpp"

namespace adv {

inline constexpr std::uint32_t kTensorFileMagic = 0x4144'5631;  // "ADV1"
inline constexpr std::uint32_t kTensorFileVersion = 2;
inline constexpr std::uint32_t kTensorFileTrailerMagic = 0x4144'5645;  // "ADVE"

/// Incremental CRC32 (IEEE 802.3, reflected). Pass the previous return
/// value as `crc` to extend a running checksum; start from 0.
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc = 0);

/// Writes one integrity-checked (v2) tensor record.
void write_tensor(std::ostream& os, const Tensor& t);

/// Reads one v2 tensor record, verifying its CRC. Throws
/// std::runtime_error on truncation, implausible dims, or CRC mismatch.
Tensor read_tensor(std::istream& is);

/// Writes a whole tensor collection (format v2) atomically: the bytes go
/// to `<path>.tmp`, which is renamed over `path` only once complete.
/// Throws std::runtime_error on I/O failure, leaving any previous file at
/// `path` intact. Failpoint site: "serialize.write" (fail, short_write,
/// bitflip).
void save_tensors(const std::filesystem::path& path,
                  const std::vector<Tensor>& tensors);

/// Reads a collection written by save_tensors, with full checksum
/// verification. Throws std::runtime_error on missing file, bad
/// magic/version, truncation, or any checksum mismatch.
/// Failpoint site: "serialize.read" (fail).
std::vector<Tensor> load_tensors(const std::filesystem::path& path);

}  // namespace adv
