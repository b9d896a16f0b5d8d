#include "util/serde.h"

#include <cstdio>
#include <memory>

#include "util/hash.h"

#if defined(__unix__) || defined(__APPLE__)
#define WWT_SERDE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#include <sys/stat.h>
#endif

namespace wwt::serde {

template <typename T>
Status Reader::ReadLittleEndian(T* out) {
  if (remaining() < sizeof(T)) {
    return Status::Corruption("truncated input: need ", sizeof(T),
                              " bytes at offset ", offset_, ", have ",
                              remaining());
  }
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<unsigned char>(data_[offset_ + i]))
         << (8 * i);
  }
  *out = v;
  offset_ += sizeof(T);
  return Status::OK();
}

Status Reader::ReadU8(uint8_t* out) { return ReadLittleEndian(out); }
Status Reader::ReadU32(uint32_t* out) { return ReadLittleEndian(out); }
Status Reader::ReadU64(uint64_t* out) { return ReadLittleEndian(out); }

Status Reader::ReadI32(int32_t* out) {
  uint32_t bits;
  WWT_RETURN_NOT_OK(ReadU32(&bits));
  *out = static_cast<int32_t>(bits);
  return Status::OK();
}

Status Reader::ReadDouble(double* out) {
  uint64_t bits;
  WWT_RETURN_NOT_OK(ReadU64(&bits));
  std::memcpy(out, &bits, sizeof(*out));
  return Status::OK();
}

Status Reader::ReadString(std::string* out) {
  uint64_t len;
  WWT_RETURN_NOT_OK(ReadU64(&len));
  if (len > remaining()) {
    return Status::Corruption("truncated input: string of ", len,
                              " bytes at offset ", offset_, ", have ",
                              remaining());
  }
  out->assign(data_.data() + offset_, len);
  offset_ += len;
  return Status::OK();
}

Status Reader::ReadSpan(uint64_t size, std::string_view* out) {
  if (size > remaining()) {
    return Status::Corruption("truncated input: span of ", size,
                              " bytes at offset ", offset_, ", have ",
                              remaining());
  }
  *out = data_.substr(offset_, size);
  offset_ += size;
  return Status::OK();
}

Status Reader::ReadRaw(uint64_t count, size_t elem_size,
                       const char** out) {
  if (elem_size == 0) elem_size = 1;
  if (count > remaining() / elem_size) {
    return Status::Corruption("truncated input: raw array of ", count,
                              " x ", elem_size, " bytes at offset ",
                              offset_, ", have ", remaining());
  }
  *out = data_.data() + offset_;
  offset_ += static_cast<size_t>(count) * elem_size;
  return Status::OK();
}

Status Reader::ReadVarint(uint64_t* out) {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (offset_ >= data_.size()) {
      return Status::Corruption("truncated varint at offset ", offset_);
    }
    const uint8_t b = static_cast<uint8_t>(data_[offset_++]);
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      *out = v;
      return Status::OK();
    }
  }
  return Status::Corruption("varint longer than 10 bytes at offset ",
                            offset_);
}

Status Reader::AlignTo(size_t alignment, size_t base_offset) {
  uint32_t pad;
  WWT_RETURN_NOT_OK(ReadU32(&pad));
  if (pad >= alignment) {
    return Status::Corruption("alignment pad of ", pad,
                              " bytes at offset ", offset_,
                              " exceeds alignment ", alignment);
  }
  WWT_RETURN_NOT_OK(Skip(pad));
  if ((base_offset + offset_) % alignment != 0) {
    return Status::Corruption("misaligned section data at file offset ",
                              base_offset + offset_, " (need ", alignment,
                              "-byte alignment)");
  }
  return Status::OK();
}

Status Reader::Skip(uint64_t n) {
  if (n > remaining()) {
    return Status::Corruption("truncated input: cannot skip ", n,
                              " bytes at offset ", offset_, ", have ",
                              remaining());
  }
  offset_ += n;
  return Status::OK();
}

Status Reader::CheckCount(uint64_t count, size_t min_elem_bytes) const {
  if (min_elem_bytes == 0) min_elem_bytes = 1;
  if (count > remaining() / min_elem_bytes) {
    return Status::Corruption("implausible element count ", count,
                              " at offset ", offset_, " (", remaining(),
                              " bytes remain)");
  }
  return Status::OK();
}

uint64_t Checksum(std::string_view payload) { return Fnv1a(payload); }

Status WriteFileAtomic(const std::string& path,
                       std::initializer_list<std::string_view> parts) {
  // Pid-suffixed so concurrent writers to the same path cannot
  // interleave into one tmp file; every failure path removes it.
#if WWT_SERDE_HAVE_MMAP
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
#else
  const std::string tmp = path + ".tmp";
#endif
  {
    std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(tmp.c_str(), "wb"),
                                            &std::fclose);
    if (!f) return Status::IOError("cannot open '", tmp, "' for writing");
    for (std::string_view part : parts) {
      if (!part.empty() &&
          std::fwrite(part.data(), 1, part.size(), f.get()) !=
              part.size()) {
        f.reset();
        std::remove(tmp.c_str());
        return Status::IOError("short write to '", tmp, "'");
      }
    }
    if (std::fflush(f.get()) != 0) {
      f.reset();
      std::remove(tmp.c_str());
      return Status::IOError("flush failed for '", tmp, "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename '", tmp, "' to '", path, "'");
  }
  return Status::OK();
}

std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string()
                                    : path.substr(0, slash + 1);
}

Status EnsureParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos || slash == 0) return Status::OK();
  const std::string dir = path.substr(0, slash);
  // mkdir -p: create each component, tolerating ones that exist.
  for (size_t i = 1; i <= dir.size(); ++i) {
    if (i != dir.size() && dir[i] != '/') continue;
    const std::string prefix = dir.substr(0, i);
#if defined(_WIN32)
    (void)prefix;
    return Status::NotImplemented("EnsureParentDir on this platform");
#else
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError("cannot create directory '", prefix, "'");
    }
#endif
  }
  return Status::OK();
}

InputFile& InputFile::operator=(InputFile&& other) noexcept {
  if (this != &other) {
#if WWT_SERDE_HAVE_MMAP
    if (mapped_ && map_ != nullptr) ::munmap(map_, size_);
#endif
    mapped_ = other.mapped_;
    map_ = other.map_;
    size_ = other.size_;
    owned_ = std::move(other.owned_);
    other.mapped_ = false;
    other.map_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

InputFile::~InputFile() {
#if WWT_SERDE_HAVE_MMAP
  if (mapped_ && map_ != nullptr) ::munmap(map_, size_);
#endif
}

StatusOr<InputFile> InputFile::Open(const std::string& path) {
  InputFile file;
#if WWT_SERDE_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open '", path, "' for reading");
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat '", path, "'");
  }
  file.size_ = static_cast<size_t>(st.st_size);
  if (file.size_ > 0) {
    void* map = ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      file.map_ = map;
      file.mapped_ = true;
    }
  }
  ::close(fd);
  if (file.mapped_ || file.size_ == 0) {
    if (!file.mapped_) file.size_ = 0;  // empty file: serve the empty view
    return file;
  }
#endif
  // Fallback: read the whole file.
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "rb"),
                                          &std::fclose);
  if (!f) return Status::IOError("cannot open '", path, "' for reading");
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0) {
    file.owned_.append(buf, n);
  }
  if (std::ferror(f.get())) {
    return Status::IOError("read failed for '", path, "'");
  }
  file.mapped_ = false;
  return file;
}

}  // namespace wwt::serde
