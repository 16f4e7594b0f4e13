#include "tensor/serialize.hpp"

#include <array>
#include <cstdint>
#include <fstream>
#include <stdexcept>

#include "fault/failpoint.hpp"

namespace adv {
namespace {

// Corrupt dims must fail fast instead of driving a multi-gigabyte
// allocation; nothing in the repo comes near this many elements.
constexpr std::uint64_t kMaxPlausibleNumel = 1ull << 30;

template <typename T>
void write_pod(std::ostream& os, T v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) throw std::runtime_error("tensor stream truncated");
  return v;
}

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB8'8320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

// Reads and validates the rank/dims prefix shared by both versions.
std::vector<std::size_t> read_dims(std::istream& is) {
  const auto rank = read_pod<std::uint64_t>(is);
  if (rank > 8) throw std::runtime_error("tensor rank implausible: corrupt file");
  std::vector<std::size_t> dims(rank);
  std::uint64_t numel = 1;
  for (auto& d : dims) {
    const auto v = read_pod<std::uint64_t>(is);
    if (v > kMaxPlausibleNumel || numel * std::max<std::uint64_t>(v, 1) >
                                      kMaxPlausibleNumel) {
      throw std::runtime_error("tensor dims implausible: corrupt file");
    }
    numel *= std::max<std::uint64_t>(v, 1);
    d = static_cast<std::size_t>(v);
  }
  return dims;
}

// CRC over the dims (as the u64 values we serialize) then the payload.
std::uint32_t tensor_crc(const std::vector<std::size_t>& dims,
                         const Tensor& t) {
  std::uint32_t crc = 0;
  for (std::size_t d : dims) {
    const std::uint64_t v = d;
    crc = crc32(&v, sizeof(v), crc);
  }
  return crc32(t.data(), t.numel() * sizeof(float), crc);
}

// Writes one v2 record; when `file_crc` is non-null, folds the record's
// structural bytes (rank, dims, crc) into the running file checksum.
void write_tensor_v2(std::ostream& os, const Tensor& t,
                     std::uint32_t* file_crc) {
  const std::uint64_t rank = t.rank();
  write_pod(os, rank);
  std::vector<std::size_t> dims(t.rank());
  for (std::size_t i = 0; i < t.rank(); ++i) {
    dims[i] = t.dim(i);
    write_pod<std::uint64_t>(os, t.dim(i));
  }
  const std::uint32_t crc = tensor_crc(dims, t);
  write_pod(os, crc);
  os.write(reinterpret_cast<const char*>(t.data()),
           static_cast<std::streamsize>(t.numel() * sizeof(float)));
  if (file_crc) {
    *file_crc = crc32(&rank, sizeof(rank), *file_crc);
    for (std::size_t d : dims) {
      const std::uint64_t v = d;
      *file_crc = crc32(&v, sizeof(v), *file_crc);
    }
    *file_crc = crc32(&crc, sizeof(crc), *file_crc);
  }
}

Tensor read_tensor_v2(std::istream& is, std::uint32_t* file_crc) {
  const std::vector<std::size_t> dims = read_dims(is);
  const auto stored_crc = read_pod<std::uint32_t>(is);
  Tensor t{Shape(dims)};
  is.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(t.numel() * sizeof(float)));
  if (!is) throw std::runtime_error("tensor stream truncated");
  if (tensor_crc(dims, t) != stored_crc) {
    throw std::runtime_error("tensor CRC mismatch: corrupt file");
  }
  if (file_crc) {
    const std::uint64_t rank = dims.size();
    *file_crc = crc32(&rank, sizeof(rank), *file_crc);
    for (std::size_t d : dims) {
      const std::uint64_t v = d;
      *file_crc = crc32(&v, sizeof(v), *file_crc);
    }
    *file_crc = crc32(&stored_crc, sizeof(stored_crc), *file_crc);
  }
  return t;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  const auto* p = static_cast<const unsigned char*>(data);
  crc ^= 0xFFFF'FFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFF'FFFFu;
}

void write_tensor(std::ostream& os, const Tensor& t) {
  write_tensor_v2(os, t, nullptr);
}

Tensor read_tensor(std::istream& is) { return read_tensor_v2(is, nullptr); }

void save_tensors(const std::filesystem::path& path,
                  const std::vector<Tensor>& tensors) {
  const fault::Action fp = fault::check("serialize.write");
  if (fp == fault::Action::Fail) {
    throw std::runtime_error("failpoint serialize.write: injected write "
                             "failure for " + path.string());
  }
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::filesystem::path tmp = path;
  tmp += ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("cannot open for write: " + tmp.string());
    write_pod(os, kTensorFileMagic);
    write_pod(os, kTensorFileVersion);
    const std::uint64_t count = tensors.size();
    write_pod(os, count);
    std::uint32_t file_crc = crc32(&count, sizeof(count));
    for (const auto& t : tensors) write_tensor_v2(os, t, &file_crc);
    write_pod(os, kTensorFileTrailerMagic);
    write_pod(os, file_crc);
    if (!os) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      throw std::runtime_error("write failed: " + tmp.string());
    }
  }
  if (fp == fault::Action::ShortWrite) {
    // Simulate a torn write surviving a crash: publish a truncated file.
    std::filesystem::resize_file(tmp, std::filesystem::file_size(tmp) * 2 / 3);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw std::runtime_error("cannot publish " + path.string() + ": rename failed");
  }
  if (fp == fault::Action::BitFlip) {
    // Simulate at-rest corruption: flip one payload byte post-publish.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    const auto mid =
        static_cast<std::streamoff>(std::filesystem::file_size(path) / 2);
    f.seekg(mid);
    char b = 0;
    f.get(b);
    f.seekp(mid);
    f.put(static_cast<char>(b ^ 0x40));
  }
}

std::vector<Tensor> load_tensors(const std::filesystem::path& path) {
  if (fault::check("serialize.read") == fault::Action::Fail) {
    throw std::runtime_error("failpoint serialize.read: injected read "
                             "failure for " + path.string());
  }
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open for read: " + path.string());
  if (read_pod<std::uint32_t>(is) != kTensorFileMagic) {
    throw std::runtime_error("bad magic in " + path.string());
  }
  const auto version = read_pod<std::uint32_t>(is);
  if (version != kTensorFileVersion) {
    throw std::runtime_error("unsupported version in " + path.string());
  }
  const auto count = read_pod<std::uint64_t>(is);
  if (count > kMaxPlausibleNumel) {
    throw std::runtime_error("tensor count implausible: corrupt file");
  }
  std::vector<Tensor> out;
  out.reserve(count);
  std::uint32_t file_crc = crc32(&count, sizeof(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(read_tensor_v2(is, &file_crc));
  }
  if (read_pod<std::uint32_t>(is) != kTensorFileTrailerMagic) {
    throw std::runtime_error("tensor file trailer missing or corrupt: " +
                             path.string());
  }
  if (read_pod<std::uint32_t>(is) != file_crc) {
    throw std::runtime_error("tensor file CRC mismatch: " + path.string());
  }
  return out;
}

}  // namespace adv
