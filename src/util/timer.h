// Copyright 2026 The WWT Authors
//
// Wall-clock stopwatch (the per-stage StageTimer lives in wwt/engine.h).

#ifndef WWT_UTIL_TIMER_H_
#define WWT_UTIL_TIMER_H_

#include <chrono>

namespace wwt {

/// Simple wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction / last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace wwt

#endif  // WWT_UTIL_TIMER_H_
