// Copyright 2026 The WWT Authors
//
// ResponseStream: the bounded, in-order response pipeline behind
// `wwt_serve --stdin`. The reader submits each query as it arrives and
// Push()es the response future; a delivery thread waits on the futures
// in push order and hands each response to a callback (which prints
// it). Answers finish out of order on the service's pool but come out
// in submission order, each as soon as it and everything before it is
// ready.
//
// The window bounds what the stream holds: Push() blocks while `window`
// responses are pushed but not yet delivered. A producer faster than
// the pool therefore builds its queue inside the service, where
// deadlines expire stragglers, and not here without bound.

#ifndef WWT_WWT_RESPONSE_STREAM_H_
#define WWT_WWT_RESPONSE_STREAM_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <thread>

#include "util/thread_annotations.h"
#include "wwt/api.h"

namespace wwt {

class ResponseStream {
 public:
  /// What the callback was handed, by outcome.
  struct Counts {
    /// OK responses, and those of them answered from the cache.
    size_t served = 0;
    size_t from_cache = 0;
    /// DeadlineExceeded: configured load shedding, not a failure.
    size_t expired = 0;
    /// Every other error (a rejected request, a failed shard, ...).
    size_t failed = 0;
  };

  using Callback = std::function<void(const QueryResponse&)>;

  /// The window for a service with `num_threads` workers: two requests
  /// per worker, at least 4.
  static size_t WindowFor(int num_threads);

  /// Starts the delivery thread. `window` >= 1. `on_response` runs on
  /// that thread, once per pushed response, in push order, and must not
  /// throw. A future that throws is delivered as an Internal error.
  ResponseStream(size_t window, Callback on_response);

  /// Finish()es first when the caller did not.
  ~ResponseStream();

  ResponseStream(const ResponseStream&) = delete;
  ResponseStream& operator=(const ResponseStream&) = delete;

  /// Queues `response`, blocking while `window` responses are pending.
  void Push(std::future<QueryResponse> response) WWT_EXCLUDES(mu_);

  /// Ends the input, waits until every pushed response reached the
  /// callback, and returns the counts. No Push() may follow; a second
  /// Finish() just returns the counts again.
  Counts Finish() WWT_EXCLUDES(mu_);

 private:
  void Deliver() WWT_EXCLUDES(mu_);

  const size_t window_;
  const Callback on_response_;
  Mutex mu_;
  CondVar cv_;
  std::deque<std::future<QueryResponse>> queue_ WWT_GUARDED_BY(mu_);
  /// Pushed and not yet delivered: queue_ plus the one being awaited.
  size_t pending_ WWT_GUARDED_BY(mu_) = 0;
  bool input_done_ WWT_GUARDED_BY(mu_) = false;
  Counts counts_ WWT_GUARDED_BY(mu_);
  std::thread deliverer_;
};

}  // namespace wwt

#endif  // WWT_WWT_RESPONSE_STREAM_H_
