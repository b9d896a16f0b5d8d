#include "wwt/response_stream.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "util/logging.h"

namespace wwt {

size_t ResponseStream::WindowFor(int num_threads) {
  return static_cast<size_t>(std::max(4, 2 * num_threads));
}

ResponseStream::ResponseStream(size_t window, Callback on_response)
    : window_(window), on_response_(std::move(on_response)) {
  WWT_CHECK(window_ >= 1) << "ResponseStream window must be >= 1";
  deliverer_ = std::thread([this] { Deliver(); });
}

ResponseStream::~ResponseStream() {
  if (deliverer_.joinable()) Finish();
}

void ResponseStream::Push(std::future<QueryResponse> response) {
  {
    MutexLock lock(mu_);
    WWT_CHECK(!input_done_) << "ResponseStream::Push after Finish";
    while (pending_ >= window_) cv_.Wait(mu_);
    ++pending_;
    queue_.push_back(std::move(response));
  }
  cv_.NotifyAll();
}

ResponseStream::Counts ResponseStream::Finish() {
  {
    MutexLock lock(mu_);
    input_done_ = true;
  }
  cv_.NotifyAll();
  if (deliverer_.joinable()) deliverer_.join();
  MutexLock lock(mu_);
  return counts_;
}

void ResponseStream::Deliver() {
  for (;;) {
    std::future<QueryResponse> next;
    {
      MutexLock lock(mu_);
      while (!input_done_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // input done and drained
      next = std::move(queue_.front());
      queue_.pop_front();
    }
    QueryResponse response;
    try {
      response = next.get();
    } catch (const std::exception& e) {
      // A future that holds an exception (a broken promise, say) is a
      // failed response, delivered in its place like any other.
      response.status = Status::Internal("response lost: ", e.what());
    }
    on_response_(response);
    {
      MutexLock lock(mu_);
      if (response.ok()) {
        ++counts_.served;
        counts_.from_cache += response.served_from_cache;
      } else if (response.status.IsDeadlineExceeded()) {
        ++counts_.expired;
      } else {
        ++counts_.failed;
      }
      --pending_;
    }
    cv_.NotifyAll();  // the producer may be waiting for window space
  }
}

}  // namespace wwt
