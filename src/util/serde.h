// Copyright 2026 The WWT Authors
//
// Binary serialization primitives for the snapshot subsystem: a Writer
// that accumulates little-endian fixed-width fields into a buffer, a
// bounds-checked Reader that turns truncation/corruption into clean
// Status errors (never UB), and file helpers — atomic whole-file write
// and an mmap-or-read InputFile for fast snapshot loads.
//
// Layout rules (shared by writer and reader, see docs/SNAPSHOTS.md):
//  * integers are little-endian fixed width (u8/u32/u64),
//  * floating point is serialized as its IEEE-754 bit pattern,
//  * strings and byte blobs are u64-length-prefixed,
//  * containers are u64-count-prefixed.

#ifndef WWT_UTIL_SERDE_H_
#define WWT_UTIL_SERDE_H_

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace wwt::serde {

/// Accumulates serialized fields into an in-memory buffer. All writes
/// append; the finished buffer is written out in one atomic step.
class Writer {
 public:
  void WriteU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void WriteU32(uint32_t v) { WriteLittleEndian(v); }
  void WriteU64(uint64_t v) { WriteLittleEndian(v); }
  void WriteI32(int32_t v) { WriteLittleEndian(static_cast<uint32_t>(v)); }

  /// IEEE-754 bit pattern; bit-exact round-trips.
  void WriteDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    WriteU64(bits);
  }

  /// u64 length prefix + raw bytes.
  void WriteString(std::string_view s) {
    WriteU64(s.size());
    buf_.append(s.data(), s.size());
  }
  void WriteBytes(const void* data, size_t size) {
    buf_.append(static_cast<const char*>(data), size);
  }

  /// Unsigned LEB128 varint: 7 payload bits per byte, low group first,
  /// high bit = continuation. At most 10 bytes for a u64.
  void WriteVarint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<char>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    buf_.push_back(static_cast<char>(v));
  }

  /// Emits a self-describing `[u32 pad_len][pad_len zero bytes]` marker
  /// sized so that `base_offset + size()` lands on a multiple of
  /// `alignment` afterwards — the writer half of Reader::AlignTo.
  /// `base_offset` is the absolute file offset this buffer will be
  /// written at (kHeaderBytes for a snapshot payload), so the raw
  /// arrays that follow are aligned in the *file*, and therefore in any
  /// page-aligned mapping of it.
  void AlignTo(size_t alignment, size_t base_offset) {
    const size_t at = base_offset + size() + sizeof(uint32_t);
    const size_t pad = (alignment - at % alignment) % alignment;
    WriteU32(static_cast<uint32_t>(pad));
    buf_.append(pad, '\0');
  }

  /// Overwrites the 8 bytes at `offset` with the little-endian encoding
  /// of `v` — for length slots reserved with WriteU64(0) and patched
  /// once the enclosed bytes are written (avoids buffering every
  /// section separately). offset + 8 must be within the buffer.
  void PatchU64(size_t offset, uint64_t v) {
    for (size_t i = 0; i < sizeof(v); ++i) {
      buf_[offset + i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
  }

  const std::string& buffer() const { return buf_; }
  std::string TakeBuffer() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void WriteLittleEndian(T v) {
    char bytes[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    buf_.append(bytes, sizeof(T));
  }

  std::string buf_;
};

/// Bounds-checked cursor over a borrowed byte span. Every Read* either
/// fills its output and advances, or returns Corruption and leaves the
/// cursor where it was — a truncated or garbage file can never read out
/// of bounds.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  Status ReadU8(uint8_t* out);
  Status ReadU32(uint32_t* out);
  Status ReadU64(uint64_t* out);
  Status ReadI32(int32_t* out);
  Status ReadDouble(double* out);

  /// Reads a u64-length-prefixed string. The length is validated against
  /// the remaining bytes before any allocation, so a corrupt length
  /// cannot trigger a huge allocation.
  Status ReadString(std::string* out);

  /// Borrows `size` raw bytes from the underlying span.
  Status ReadSpan(uint64_t size, std::string_view* out);

  /// Borrows `count` raw elements of `elem_size` bytes each without
  /// copying; fails cleanly on overflow or truncation. Callers
  /// reinterpret the pointer as a fixed-width little-endian array read
  /// in place from the mapping — valid only after an AlignTo() sized
  /// for the element type.
  Status ReadRaw(uint64_t count, size_t elem_size, const char** out);

  /// Unsigned LEB128 varint (see Writer::WriteVarint).
  Status ReadVarint(uint64_t* out);

  /// Consumes the self-describing pad written by Writer::AlignTo and
  /// verifies the cursor actually landed on a multiple of `alignment`
  /// relative to `base_offset` (the absolute file offset of this
  /// reader's first byte). A desynced or doctored pad is Corruption —
  /// never a misaligned raw-array read.
  Status AlignTo(size_t alignment, size_t base_offset);

  Status Skip(uint64_t n);

  /// Validates a container count read from the file: every element needs
  /// at least `min_elem_bytes` more bytes, so `count` beyond that is
  /// corruption (and would otherwise drive a giant resize()).
  Status CheckCount(uint64_t count, size_t min_elem_bytes) const;

  size_t offset() const { return offset_; }
  size_t remaining() const { return data_.size() - offset_; }
  bool exhausted() const { return remaining() == 0; }

 private:
  template <typename T>
  Status ReadLittleEndian(T* out);

  std::string_view data_;
  size_t offset_ = 0;
};

/// Checksum used by the snapshot trailer (FNV-1a 64, stable across
/// platforms).
uint64_t Checksum(std::string_view payload);

/// Writes the concatenation of `parts` to `path` atomically: a sibling
/// tmp file is written, flushed, and renamed over `path`, so readers
/// never observe a half-written file. Taking multiple spans lets a
/// header + payload be written without gluing them into one buffer.
[[nodiscard]] Status WriteFileAtomic(const std::string& path,
                       std::initializer_list<std::string_view> parts);
[[nodiscard]] inline Status WriteFileAtomic(const std::string& path,
                                            std::string_view contents) {
  return WriteFileAtomic(path, {contents});
}

/// Directory prefix of `path` including the trailing '/', or "" when
/// the path has no directory component — the one definition manifests
/// and their relative shard paths resolve against everywhere.
std::string DirName(const std::string& path);

/// Creates every missing directory on the path to `path`'s parent
/// (mkdir -p for the dirname).
[[nodiscard]] Status EnsureParentDir(const std::string& path);

/// Read-only file contents, memory-mapped when the platform supports it
/// (falling back to a plain read). Move-only; unmaps on destruction.
class InputFile {
 public:
  static StatusOr<InputFile> Open(const std::string& path);

  InputFile(InputFile&& other) noexcept { *this = std::move(other); }
  InputFile& operator=(InputFile&& other) noexcept;
  InputFile(const InputFile&) = delete;
  InputFile& operator=(const InputFile&) = delete;
  ~InputFile();

  std::string_view data() const {
    return mapped_ ? std::string_view(static_cast<const char*>(map_), size_)
                   : std::string_view(owned_);
  }
  bool mapped() const { return mapped_; }
  size_t size() const { return mapped_ ? size_ : owned_.size(); }

 private:
  InputFile() = default;

  bool mapped_ = false;
  void* map_ = nullptr;  // mmap'ed region when mapped_
  size_t size_ = 0;
  std::string owned_;  // fallback contents when !mapped_
};

}  // namespace wwt::serde

#endif  // WWT_UTIL_SERDE_H_
