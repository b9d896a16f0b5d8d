// Copyright 2026 The WWT Authors
//
// ResponseStream (labels: unit, race), the bounded in-order pipeline
// behind `wwt_serve --stdin`: every pushed response reaches the
// callback exactly once and in push order, whatever order the futures
// finish in — OK, rejected and deadline-expired responses alike — the
// counts split them by outcome, and Push() never lets more than
// `window` responses be pending. The last case drives it with a real
// WwtService, as the tool does.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/corpus_generator.h"
#include "wwt/response_stream.h"
#include "wwt/service.h"

namespace wwt {
namespace {

QueryResponse Tagged(int i, Status status = Status::OK()) {
  QueryResponse r;
  r.tag = std::to_string(i);
  r.status = std::move(status);
  return r;
}

TEST(ResponseStreamTest, WindowIsTwoPerWorkerAndAtLeastFour) {
  EXPECT_EQ(ResponseStream::WindowFor(1), 4u);
  EXPECT_EQ(ResponseStream::WindowFor(2), 4u);
  EXPECT_EQ(ResponseStream::WindowFor(3), 6u);
  EXPECT_EQ(ResponseStream::WindowFor(8), 16u);
}

TEST(ResponseStreamTest, DeliversEveryResponseOnceInPushOrder) {
  constexpr int kN = 200;
  constexpr size_t kWindow = 4;
  std::vector<std::promise<QueryResponse>> promises(kN);
  std::vector<std::future<QueryResponse>> futures;
  for (auto& p : promises) futures.push_back(p.get_future());

  std::atomic<int> delivered{0};
  std::vector<std::string> tags;  // written by the delivery thread only
  ResponseStream stream(kWindow, [&](const QueryResponse& r) {
    tags.push_back(r.tag);
    delivered.fetch_add(1);
  });

  // Finish the responses in a shuffled order, a window-sized block at a
  // time: most complete before the ones ahead of them.
  std::thread completer([&] {
    std::mt19937 rng(42);
    for (int block = 0; block < kN; block += kWindow) {
      std::vector<int> order;
      for (int i = block; i < std::min<int>(kN, block + kWindow); ++i) {
        order.push_back(i);
      }
      std::shuffle(order.begin(), order.end(), rng);
      for (int i : order) {
        // Every fifth is rejected, every seventh expired: errors keep
        // their place in line too.
        Status status = i % 5 == 0   ? Status::InvalidArgument("bad")
                        : i % 7 == 0 ? Status::DeadlineExceeded("late")
                                     : Status::OK();
        promises[i].set_value(Tagged(i, std::move(status)));
      }
    }
  });
  for (int i = 0; i < kN; ++i) {
    stream.Push(std::move(futures[i]));
    // Never more than the window pushed but not delivered.
    EXPECT_LE(i + 1 - delivered.load(), static_cast<int>(kWindow));
  }
  completer.join();
  const ResponseStream::Counts counts = stream.Finish();

  ASSERT_EQ(tags.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) EXPECT_EQ(tags[i], std::to_string(i));
  size_t rejected = 0, expired = 0;
  for (int i = 0; i < kN; ++i) {
    rejected += i % 5 == 0;
    expired += i % 5 != 0 && i % 7 == 0;
  }
  EXPECT_EQ(counts.failed, rejected);
  EXPECT_EQ(counts.expired, expired);
  EXPECT_EQ(counts.served, kN - rejected - expired);
  EXPECT_EQ(counts.from_cache, 0u);
}

TEST(ResponseStreamTest, PushBlocksWhileTheWindowIsFull) {
  constexpr size_t kWindow = 3;
  std::vector<std::promise<QueryResponse>> promises(kWindow + 1);
  std::vector<std::future<QueryResponse>> futures;
  for (auto& p : promises) futures.push_back(p.get_future());
  ResponseStream stream(kWindow, [](const QueryResponse&) {});
  for (size_t i = 0; i < kWindow; ++i) stream.Push(std::move(futures[i]));

  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    stream.Push(std::move(futures[kWindow]));
    pushed.store(true);
  });
  // The head is unfinished, so nothing can be delivered: the window
  // stays full and the extra Push waits.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(pushed.load());
  promises[0].set_value(Tagged(0));  // frees one slot
  producer.join();
  EXPECT_TRUE(pushed.load());
  for (size_t i = 1; i <= kWindow; ++i) promises[i].set_value(Tagged(i));
  EXPECT_EQ(stream.Finish().served, kWindow + 1);
}

TEST(ResponseStreamTest, CountsCacheHitsAndFinishIsRepeatable) {
  std::vector<std::string> tags;
  ResponseStream stream(4, [&](const QueryResponse& r) {
    tags.push_back(r.tag);
  });
  for (int i = 0; i < 3; ++i) {
    std::promise<QueryResponse> p;
    QueryResponse r = Tagged(i);
    r.served_from_cache = i > 0;
    p.set_value(std::move(r));
    stream.Push(p.get_future());
  }
  const ResponseStream::Counts first = stream.Finish();
  EXPECT_EQ(first.served, 3u);
  EXPECT_EQ(first.from_cache, 2u);
  const ResponseStream::Counts again = stream.Finish();
  EXPECT_EQ(again.served, 3u);
  EXPECT_EQ(tags, (std::vector<std::string>{"0", "1", "2"}));
}

TEST(ResponseStreamTest, ABrokenFutureIsDeliveredAsAFailure) {
  std::vector<Status> seen;
  ResponseStream stream(4, [&](const QueryResponse& r) {
    seen.push_back(r.status);
  });
  std::future<QueryResponse> broken;
  {
    std::promise<QueryResponse> dropped;
    broken = dropped.get_future();
  }  // destroyed unset: get() throws broken_promise
  stream.Push(std::move(broken));
  std::promise<QueryResponse> ok;
  ok.set_value(Tagged(1));
  stream.Push(ok.get_future());
  const ResponseStream::Counts counts = stream.Finish();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].code(), StatusCode::kInternal) << seen[0];
  EXPECT_TRUE(seen[1].ok());
  EXPECT_EQ(counts.failed, 1u);
  EXPECT_EQ(counts.served, 1u);
}

TEST(ResponseStreamTest, DestructorDrainsWithoutFinish) {
  std::atomic<int> delivered{0};
  {
    ResponseStream stream(2, [&](const QueryResponse&) { ++delivered; });
    for (int i = 0; i < 5; ++i) {
      stream.Push(std::async(std::launch::async, [i] { return Tagged(i); }));
    }
  }
  EXPECT_EQ(delivered.load(), 5);
}

TEST(ResponseStreamTest, StreamsARealServiceInSubmissionOrder) {
  CorpusOptions options;
  options.seed = 5;
  options.scale = 0.05;
  options.noise_pages = 10;
  ServiceOptions service_options;
  service_options.num_threads = 2;
  service_options.cache.capacity_bytes = 16 << 20;
  StatusOr<std::unique_ptr<WwtService>> service =
      WwtService::Create(service_options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  (*service)->SwapCorpus(
      CorpusHandle::Own(GenerateCorpus(options), /*content_hash=*/5));

  std::vector<QueryResponse> seen;
  ResponseStream stream(
      ResponseStream::WindowFor((*service)->num_threads()),
      [&](const QueryResponse& r) { seen.push_back(r); });
  const std::vector<std::vector<std::string>> queries = {
      {"name of explorers", "nationality"},
      {"country", ""},  // rejected at submit: an empty column
      {"country", "population"},
      {"dog breed", "origin"},
      {"movies", "director"},
  };
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryRequest request = QueryRequest::Of(queries[i]).WithTag(
        std::to_string(i));
    stream.Push((*service)->Submit(std::move(request)));
  }
  // Already past its deadline when submitted: expires, in line.
  stream.Push((*service)->Submit(QueryRequest::Of({"country", "capital"})
                                     .WithTag("late")
                                     .WithTimeout(-1.0)));
  // A repeat of query 2 is a cache hit.
  stream.Push((*service)->Submit(
      QueryRequest::Of({"country", "population"}).WithTag("repeat")));
  const ResponseStream::Counts counts = stream.Finish();

  ASSERT_EQ(seen.size(), queries.size() + 2);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(seen[i].tag, std::to_string(i));
  }
  EXPECT_TRUE(seen[1].status.IsInvalidArgument()) << seen[1].status;
  EXPECT_EQ(seen[5].tag, "late");
  EXPECT_TRUE(seen[5].status.IsDeadlineExceeded()) << seen[5].status;
  EXPECT_EQ(seen[6].tag, "repeat");
  EXPECT_TRUE(seen[6].served_from_cache);
  EXPECT_EQ(counts.served, 5u);
  EXPECT_EQ(counts.from_cache, 1u);
  EXPECT_EQ(counts.failed, 1u);
  EXPECT_EQ(counts.expired, 1u);
}

}  // namespace
}  // namespace wwt
