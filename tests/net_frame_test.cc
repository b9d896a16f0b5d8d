// Copyright 2026 The WWT Authors
//
// The byte-level contract of the shard-RPC transport and schema
// (src/net/frame.h, src/net/wire.h), with the corruption/fuzz suite the
// distributed tier leans on: every malformed input — truncated length
// prefix, length beyond the frame cap, EOF mid-message, trailing
// garbage, bit-flipped bodies, random bytes — must surface as a clean
// Status (Corruption for framing/schema damage), never a crash, OOM or
// hang; runs under the CI sanitizer tier like every unit test. Also
// pins the bit-exactness of score serialization (IEEE-754 doubles,
// NaN/denormal/infinity included), which is what keeps routed answers
// byte-identical to in-process serving. Labels: unit.

#include <sys/socket.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame.h"
#include "net/wire.h"

namespace wwt::net {
namespace {

std::string Bytes(std::initializer_list<unsigned char> bytes) {
  return std::string(bytes.begin(), bytes.end());
}

// ------------------------------------------------------------- framing
//
// ReadFrame is the one frame parser the server and the client run, so
// the framing cases drive it directly: raw bytes go into one end of a
// socketpair and ReadFrame reads the other.

struct SocketPair {
  Socket writer;
  Socket reader;
};

SocketPair MakeSocketPair() {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {Socket(fds[0]), Socket(fds[1])};
}

/// Writes every byte of `bytes` (the socket buffer holds every case's
/// input, so nothing here waits on the reader).
void WriteRaw(const Socket& sock, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(sock.fd(), bytes.data(), bytes.size(),
                             MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    bytes.remove_prefix(static_cast<size_t>(n));
  }
}

TEST(ReadFrameTest, RoundTripsFramesWrittenByteByByte) {
  const std::vector<std::string> payloads = {"", "a", "hello frame",
                                             std::string(4096, 'x')};
  std::string stream;
  for (const std::string& p : payloads) stream += EncodeFrame(p);

  SocketPair pair = MakeSocketPair();
  std::thread writer([&] {
    for (char byte : stream) WriteRaw(pair.writer, std::string_view(&byte, 1));
    pair.writer.Close();
  });
  std::vector<std::string> frames;
  std::string payload;
  Status read;
  while ((read = ReadFrame(pair.reader, &payload, DeadlineAfter(10))).ok()) {
    frames.push_back(payload);
  }
  writer.join();
  EXPECT_TRUE(IsCleanClose(read)) << read.ToString();
  EXPECT_EQ(frames, payloads);
}

TEST(ReadFrameTest, TruncatedLengthPrefixIsCorruption) {
  // Magic plus half a length field, then EOF.
  SocketPair pair = MakeSocketPair();
  WriteRaw(pair.writer, EncodeFrame("payload").substr(0, 6));
  pair.writer.Close();
  std::string payload;
  const Status read = ReadFrame(pair.reader, &payload, DeadlineAfter(10));
  EXPECT_TRUE(read.IsCorruption()) << read.ToString();
}

TEST(ReadFrameTest, EofMidPayloadIsCorruption) {
  const std::string frame = EncodeFrame("twelve bytes");
  SocketPair pair = MakeSocketPair();
  WriteRaw(pair.writer, frame.substr(0, frame.size() - 3));
  pair.writer.Close();
  std::string payload;
  const Status read = ReadFrame(pair.reader, &payload, DeadlineAfter(10));
  EXPECT_TRUE(read.IsCorruption()) << read.ToString();
}

TEST(ReadFrameTest, BadMagicIsCorruption) {
  SocketPair pair = MakeSocketPair();
  WriteRaw(pair.writer, "GARBAGE!");
  std::string payload;
  const Status read = ReadFrame(pair.reader, &payload, DeadlineAfter(10));
  EXPECT_TRUE(read.IsCorruption()) << read.ToString();
}

TEST(ReadFrameTest, TrailingGarbageAfterValidFrameIsCorruption) {
  SocketPair pair = MakeSocketPair();
  WriteRaw(pair.writer, EncodeFrame("good") + "then junk bytes");
  pair.writer.Close();
  std::string payload;
  // The valid frame before the garbage is still delivered.
  ASSERT_TRUE(ReadFrame(pair.reader, &payload, DeadlineAfter(10)).ok());
  EXPECT_EQ(payload, "good");
  const Status read = ReadFrame(pair.reader, &payload, DeadlineAfter(10));
  EXPECT_TRUE(read.IsCorruption()) << read.ToString();
}

TEST(ReadFrameTest, OverCapLengthIsCorruptionBeforeAllocation) {
  // A header advertising one byte past the cap, and no payload behind
  // it. The writer stays open, so a reader that went on to allocate and
  // read the payload would wait out the deadline; the error must fire
  // from the 8 header bytes alone.
  SocketPair pair = MakeSocketPair();
  std::string header = Bytes({0x57, 0x57, 0x54, 0x52});  // "WWTR" LE
  const uint32_t over = static_cast<uint32_t>(kDefaultMaxFrameBytes) + 1;
  header.append(reinterpret_cast<const char*>(&over), 4);
  WriteRaw(pair.writer, header);
  std::string payload;
  const Status read = ReadFrame(pair.reader, &payload, DeadlineAfter(10));
  EXPECT_TRUE(read.IsCorruption()) << read.ToString();
  EXPECT_TRUE(payload.empty());
}

TEST(ReadFrameTest, StalledPayloadAtTheCapPinsNoMoreThanAChunk) {
  // A header announcing a payload at the cap, then nothing, with the
  // writer still open: the reader must wait out its deadline holding
  // memory for the bytes received (none), not the 64 MiB announced.
  SocketPair pair = MakeSocketPair();
  std::string header = Bytes({0x57, 0x57, 0x54, 0x52});  // "WWTR" LE
  const uint32_t at_cap = static_cast<uint32_t>(kDefaultMaxFrameBytes);
  header.append(reinterpret_cast<const char*>(&at_cap), 4);
  WriteRaw(pair.writer, header);
  std::string payload;
  const Status read = ReadFrame(pair.reader, &payload, DeadlineAfter(0.2));
  EXPECT_TRUE(read.IsDeadlineExceeded()) << read.ToString();
  EXPECT_LE(payload.capacity(), size_t{1} << 20);
}

TEST(ReadFrameTest, RandomBytesNeverCrash) {
  std::mt19937 rng(20260808);
  for (int round = 0; round < 200; ++round) {
    // Half the rounds open with the magic, so the length and payload
    // paths see noise too, not just the magic check.
    std::string noise = round % 2 == 0 ? "" : Bytes({0x57, 0x57, 0x54, 0x52});
    const size_t extra = 1 + rng() % 512;
    for (size_t i = 0; i < extra; ++i) {
      noise.push_back(static_cast<char>(rng()));
    }
    SocketPair pair = MakeSocketPair();
    WriteRaw(pair.writer, noise);
    pair.writer.Close();
    // Either the noise happens to parse as frames or it is Corruption;
    // the stream always ends, cleanly, within its own length in frames.
    std::string payload;
    Status read;
    for (size_t frames = 0; frames <= noise.size(); ++frames) {
      read = ReadFrame(pair.reader, &payload, DeadlineAfter(10));
      if (!read.ok()) break;
    }
    EXPECT_TRUE(IsCleanClose(read) || read.IsCorruption())
        << "round " << round << ": " << read.ToString();
  }
}

TEST(FrameTest, DeadlineHelpers) {
  EXPECT_EQ(NoDeadline(), Deadline::max());
  EXPECT_LT(DeadlineAfter(0.01), NoDeadline());
  EXPECT_FALSE(IsCleanClose(Status::OK()));
  EXPECT_FALSE(IsCleanClose(Status::NotFound("some other not-found")));
}

// ------------------------------------------------------------- schema

TEST(WireTest, HelloRoundTrip) {
  HelloResponse hello;
  hello.artifact_hash = 0xdeadbeefcafef00dULL;
  hello.shards = {{0x1111, 0, 50}, {0x2222, 50, 51}};
  HelloResponse decoded;
  ASSERT_TRUE(
      DecodeHelloResponse(EncodeHelloResponse(hello), &decoded).ok());
  EXPECT_EQ(decoded.protocol_version, kWireProtocolVersion);
  EXPECT_EQ(decoded.artifact_hash, hello.artifact_hash);
  ASSERT_EQ(decoded.shards.size(), 2u);
  EXPECT_EQ(decoded.shards[1].content_hash, 0x2222u);
  EXPECT_EQ(decoded.shards[1].first_table_id, 50u);
  EXPECT_EQ(decoded.shards[1].num_tables, 51u);

  HelloRequest request;
  HelloRequest request_decoded;
  request.protocol_version = 7;
  ASSERT_TRUE(
      DecodeHelloRequest(EncodeHelloRequest(request), &request_decoded)
          .ok());
  EXPECT_EQ(request_decoded.protocol_version, 7u);
}

TEST(WireTest, ProbeRequestRoundTrip) {
  ProbeRequest request;
  request.shard_hash = 0xabcdef0123456789ULL;
  request.k = 40;
  request.scorer = ProbeScorer::kExhaustive;
  request.budget_micros = 123456;
  request.keywords = {"name of explorers", "nationality", ""};
  ProbeRequest decoded;
  ASSERT_TRUE(
      DecodeProbeRequest(EncodeProbeRequest(request), &decoded).ok());
  EXPECT_EQ(decoded.shard_hash, request.shard_hash);
  EXPECT_EQ(decoded.k, 40);
  EXPECT_EQ(decoded.scorer, ProbeScorer::kExhaustive);
  EXPECT_EQ(decoded.budget_micros, 123456u);
  EXPECT_EQ(decoded.keywords, request.keywords);
}

TEST(WireTest, ScoresTravelBitExactly) {
  // The byte-identity guarantee rests on this: every representable
  // double — denormals, infinities, NaN payloads — crosses the wire
  // with its exact bit pattern.
  const double values[] = {0.0,
                           -0.0,
                           1.0 / 3.0,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()};
  ProbeResponse response;
  for (size_t i = 0; i < std::size(values); ++i) {
    response.hits.push_back({static_cast<TableId>(i), values[i]});
  }
  ProbeResponse decoded;
  ASSERT_TRUE(
      DecodeProbeResponse(EncodeProbeResponse(response), &decoded).ok());
  ASSERT_EQ(decoded.hits.size(), std::size(values));
  for (size_t i = 0; i < std::size(values); ++i) {
    uint64_t sent_bits = 0, got_bits = 0;
    std::memcpy(&sent_bits, &values[i], sizeof(sent_bits));
    std::memcpy(&got_bits, &decoded.hits[i].score, sizeof(got_bits));
    EXPECT_EQ(got_bits, sent_bits) << "value index " << i;
    EXPECT_EQ(decoded.hits[i].doc, static_cast<TableId>(i));
  }
}

TEST(WireTest, PingRoundTrip) {
  ASSERT_TRUE(DecodePingRequest(EncodePingRequest()).ok());
  PingResponse pong;
  pong.probes_served = 42;
  PingResponse decoded;
  ASSERT_TRUE(DecodePingResponse(EncodePingResponse(pong), &decoded).ok());
  EXPECT_EQ(decoded.probes_served, 42u);
}

TEST(WireTest, ErrorResponseRoundTripsEveryCode) {
  const Status statuses[] = {
      Status::InvalidArgument("bad k"),
      Status::NotFound("no such shard"),
      Status::DeadlineExceeded("budget spent"),
      Status::Corruption("mangled"),
      Status::IOError("disk on fire"),
      Status::FailedPrecondition("wrong protocol"),
  };
  for (const Status& status : statuses) {
    Status decoded = Status::OK();
    ASSERT_TRUE(
        DecodeErrorResponse(EncodeErrorResponse(status), &decoded).ok());
    EXPECT_EQ(decoded, status);
  }
}

TEST(WireTest, PeekAndDispatch) {
  StatusOr<MessageType> type = PeekMessageType(EncodePingRequest());
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(type.value(), MessageType::kPing);
  EXPECT_FALSE(PeekMessageType("").ok());
  EXPECT_FALSE(PeekMessageType(Bytes({0xEE})).ok());  // unknown type
}

TEST(WireTest, EveryTruncationOfEveryMessageIsClean) {
  // The mid-message-EOF sweep: decoding any strict prefix of a valid
  // payload must fail cleanly — no crash, no over-read (ASan-checked).
  ProbeRequest probe;
  probe.shard_hash = 0x1234;
  probe.k = 10;
  probe.keywords = {"alpha", "beta"};
  ProbeResponse hits;
  hits.hits = {{1, 0.5}, {2, 0.25}};
  HelloResponse hello;
  hello.shards = {{0xaaaa, 0, 10}};
  const std::string payloads[] = {
      EncodeHelloRequest(HelloRequest{}), EncodeHelloResponse(hello),
      EncodeProbeRequest(probe),          EncodeProbeResponse(hits),
      EncodePingRequest(),                EncodePingResponse({7}),
      EncodeErrorResponse(Status::IOError("x"))};
  for (const std::string& payload : payloads) {
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      const std::string_view prefix(payload.data(), cut);
      HelloRequest hello_request;
      HelloResponse hello_response;
      ProbeRequest probe_request;
      ProbeResponse probe_response;
      PingResponse ping_response;
      Status error = Status::OK();
      EXPECT_FALSE(DecodeHelloRequest(prefix, &hello_request).ok());
      EXPECT_FALSE(DecodeHelloResponse(prefix, &hello_response).ok());
      EXPECT_FALSE(DecodeProbeRequest(prefix, &probe_request).ok());
      EXPECT_FALSE(DecodeProbeResponse(prefix, &probe_response).ok());
      EXPECT_FALSE(DecodePingRequest(prefix).ok());
      EXPECT_FALSE(DecodePingResponse(prefix, &ping_response).ok());
      EXPECT_FALSE(DecodeErrorResponse(prefix, &error).ok());
    }
  }
}

TEST(WireTest, TrailingGarbagePastMessageEndIsCorruption) {
  const std::string payload = EncodePingRequest() + "extra";
  const Status decoded = DecodePingRequest(payload);
  EXPECT_TRUE(decoded.IsCorruption()) << decoded.ToString();
  ProbeRequest probe;
  probe.keywords = {"a"};
  ProbeRequest decoded_probe;
  const Status probe_status = DecodeProbeRequest(
      EncodeProbeRequest(probe) + std::string(1, '\0'), &decoded_probe);
  EXPECT_TRUE(probe_status.IsCorruption()) << probe_status.ToString();
}

TEST(WireTest, GarbageCountsAndCodesAreCorruption) {
  // A probe response advertising 2^60 hits must die on the count check,
  // not in an allocation.
  std::string huge = EncodeProbeResponse(ProbeResponse{});
  // Rewrite the trailing u64 hit count (layout: [type][u64 count]...).
  const uint64_t absurd = 1ULL << 60;
  std::memcpy(&huge[1], &absurd, sizeof(absurd));
  ProbeResponse decoded;
  EXPECT_FALSE(DecodeProbeResponse(huge, &decoded).ok());

  // An error frame carrying status code 0 (OK) or an out-of-range code
  // cannot decode into a usable Status.
  std::string ok_code = EncodeErrorResponse(Status::IOError("x"));
  ok_code[1] = 0;  // layout: [type][u8 code][string message]
  Status out = Status::OK();
  EXPECT_TRUE(DecodeErrorResponse(ok_code, &out).IsCorruption());
  ok_code[1] = 100;
  EXPECT_TRUE(DecodeErrorResponse(ok_code, &out).IsCorruption());
}

TEST(WireTest, BitFlippedMessagesNeverCrash) {
  ProbeRequest probe;
  probe.shard_hash = 0x77;
  probe.k = 5;
  probe.keywords = {"some keywords", "more"};
  const std::string base = EncodeProbeRequest(probe);
  std::mt19937 rng(99);
  for (int round = 0; round < 500; ++round) {
    std::string mutated = base;
    const size_t pos = rng() % mutated.size();
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1u << (rng() % 8)));
    ProbeRequest decoded;
    // Valid or a clean error — never UB. (Flipping a keyword byte can
    // legitimately still decode.)
    (void)DecodeProbeRequest(mutated, &decoded);
  }
}

}  // namespace
}  // namespace wwt::net
