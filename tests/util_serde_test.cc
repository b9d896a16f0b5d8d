// Copyright 2026 The WWT Authors
//
// serde: primitive round-trips, bounds-checked reads that turn truncated
// or hostile input into clean Status errors, and the file helpers the
// snapshot subsystem builds on.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "util/serde.h"

namespace wwt::serde {
namespace {

TEST(SerdeWriterTest, PrimitivesRoundTrip) {
  Writer w;
  w.WriteU8(0xab);
  w.WriteU32(0xdeadbeef);
  w.WriteU64(0x0123456789abcdefULL);
  w.WriteI32(-42);
  w.WriteDouble(-2.25);
  w.WriteString("hello \n\0 world");  // truncated at \0 by the literal
  w.WriteString(std::string("a\0b", 3));

  Reader r(w.buffer());
  uint8_t u8;
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  EXPECT_EQ(u8, 0xab);
  uint32_t u32;
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  EXPECT_EQ(u32, 0xdeadbeefu);
  uint64_t u64;
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  int32_t i32;
  ASSERT_TRUE(r.ReadI32(&i32).ok());
  EXPECT_EQ(i32, -42);
  double d;
  ASSERT_TRUE(r.ReadDouble(&d).ok());
  EXPECT_EQ(d, -2.25);
  std::string s;
  ASSERT_TRUE(r.ReadString(&s).ok());
  EXPECT_EQ(s, "hello \n");
  ASSERT_TRUE(r.ReadString(&s).ok());
  EXPECT_EQ(s, std::string("a\0b", 3));
  EXPECT_TRUE(r.exhausted());
}

TEST(SerdeWriterTest, LittleEndianLayout) {
  Writer w;
  w.WriteU32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(w.buffer()[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(w.buffer()[3]), 0x01);
}

TEST(SerdeWriterTest, FloatBitExact) {
  Writer w;
  w.WriteDouble(std::numeric_limits<double>::infinity());
  w.WriteDouble(std::numeric_limits<double>::denorm_min());
  w.WriteDouble(-0.0);
  Reader r(w.buffer());
  double d;
  ASSERT_TRUE(r.ReadDouble(&d).ok());
  EXPECT_EQ(d, std::numeric_limits<double>::infinity());
  ASSERT_TRUE(r.ReadDouble(&d).ok());
  EXPECT_EQ(d, std::numeric_limits<double>::denorm_min());
  ASSERT_TRUE(r.ReadDouble(&d).ok());
  EXPECT_EQ(d, 0.0);
  EXPECT_TRUE(std::signbit(d));
}

TEST(SerdeReaderTest, TruncatedPrimitiveFails) {
  Writer w;
  w.WriteU32(7);
  Reader r(std::string_view(w.buffer()).substr(0, 3));
  uint32_t v;
  Status st = r.ReadU32(&v);
  EXPECT_TRUE(st.IsCorruption()) << st;
  EXPECT_EQ(r.offset(), 0u);  // failed read does not advance
}

TEST(SerdeReaderTest, TruncatedStringFails) {
  Writer w;
  w.WriteString("abcdef");
  // Cut inside the string body.
  Reader r(std::string_view(w.buffer()).substr(0, 10));
  std::string s;
  Status st = r.ReadString(&s);
  EXPECT_TRUE(st.IsCorruption()) << st;
}

TEST(SerdeReaderTest, HugeLengthPrefixIsCorruptionNotAllocation) {
  Writer w;
  w.WriteU64(std::numeric_limits<uint64_t>::max());  // absurd length
  w.WriteBytes("xy", 2);
  Reader r(w.buffer());
  std::string s;
  Status st = r.ReadString(&s);
  EXPECT_TRUE(st.IsCorruption()) << st;
}

TEST(SerdeReaderTest, CheckCountRejectsImplausibleCounts) {
  Writer w;
  w.WriteU64(1000);  // claims 1000 elements...
  w.WriteU32(1);     // ...but only 4 bytes follow
  Reader r(w.buffer());
  uint64_t count;
  ASSERT_TRUE(r.ReadU64(&count).ok());
  EXPECT_TRUE(r.CheckCount(count, 4).IsCorruption());
  EXPECT_TRUE(r.CheckCount(1, 4).ok());
}

TEST(SerdeReaderTest, SkipAndSpan) {
  Writer w;
  w.WriteU32(1);
  w.WriteU32(2);
  Reader r(w.buffer());
  ASSERT_TRUE(r.Skip(4).ok());
  std::string_view span;
  ASSERT_TRUE(r.ReadSpan(4, &span).ok());
  EXPECT_EQ(span.size(), 4u);
  EXPECT_TRUE(r.Skip(1).IsCorruption());
  EXPECT_TRUE(r.ReadSpan(1, &span).IsCorruption());
}

TEST(SerdeChecksumTest, StableAndSensitive) {
  EXPECT_EQ(Checksum("wwt"), Checksum("wwt"));
  EXPECT_NE(Checksum("wwt"), Checksum("wws"));
  EXPECT_NE(Checksum(""), Checksum(std::string(1, '\0')));
}

TEST(SerdeFileTest, AtomicWriteAndInputFileRoundTrip) {
  const std::string path =
      ::testing::TempDir() + "serde_file_test.bin";
  const std::string contents("binary\0data\n", 12);
  ASSERT_TRUE(WriteFileAtomic(path, contents).ok());
  // No tmp litter after a successful write (the tmp name is
  // pid-suffixed on POSIX).
  const std::string tmp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  FILE* tmp = std::fopen(tmp_path.c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);

  StatusOr<InputFile> file = InputFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status();
  EXPECT_EQ(file->data(), contents);

  // Overwrites are atomic replacements, not appends.
  ASSERT_TRUE(WriteFileAtomic(path, "second").ok());
  StatusOr<InputFile> again = InputFile::Open(path);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->data(), "second");
  std::remove(path.c_str());
}

TEST(SerdeFileTest, OpenMissingFileIsIOError) {
  StatusOr<InputFile> file =
      InputFile::Open(::testing::TempDir() + "does_not_exist.bin");
  ASSERT_FALSE(file.ok());
  EXPECT_TRUE(file.status().IsIOError()) << file.status();
}

TEST(SerdeFileTest, EnsureParentDirCreatesNestedDirs) {
  const std::string path =
      ::testing::TempDir() + "serde_nested/a/b/file.bin";
  ASSERT_TRUE(EnsureParentDir(path).ok());
  ASSERT_TRUE(WriteFileAtomic(path, "x").ok());
  StatusOr<InputFile> file = InputFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status();
  EXPECT_EQ(file->data(), "x");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wwt::serde
