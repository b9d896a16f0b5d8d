// Copyright 2026 The WWT Authors
//
// The annotation-degradation suite (labels: unit, race). Three duties:
//
//  1. Compile-time proof that every thread-safety macro in
//     src/util/thread_annotations.h expands to NOTHING on non-clang
//     compilers (GCC has no -Wthread-safety; a leftover attribute
//     would be a warning or an error there), and to a real attribute
//     under clang.
//  2. Functional coverage of the wwt::Mutex / MutexLock / CondVar
//     vocabulary — the wrapper must behave exactly like the std::mutex
//     it forwards to.
//  3. Config pinning: the TSan race tier only means something if CI
//     actually runs it, so this test reads the repo's own ci.yml and
//     CMakeLists.txt (via WWT_SOURCE_DIR) and fails if the tsan job
//     stops running `ctest -L race`, if a race suite falls out of
//     WWT_RACE_TESTS, or if the committed suppressions file disappears.

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "util/thread_annotations.h"

namespace wwt {
namespace {

// ------------------------------------------------- macro degradation
//
// WWT_STR fully expands its argument, then stringizes: if a macro
// expands to nothing, the result is "" (sizeof == 1). This is the
// no-op guarantee stated in thread_annotations.h, checked at compile
// time on every non-clang build.

#define WWT_STR_INNER(x) #x
#define WWT_STR(x) WWT_STR_INNER(x)

#if !defined(__clang__)
static_assert(sizeof(WWT_STR(WWT_CAPABILITY("mutex"))) == 1,
              "WWT_CAPABILITY must expand to nothing on non-clang");
static_assert(sizeof(WWT_STR(WWT_SCOPED_CAPABILITY)) == 1,
              "WWT_SCOPED_CAPABILITY must expand to nothing on non-clang");
static_assert(sizeof(WWT_STR(WWT_GUARDED_BY(mu_))) == 1,
              "WWT_GUARDED_BY must expand to nothing on non-clang");
static_assert(sizeof(WWT_STR(WWT_PT_GUARDED_BY(mu_))) == 1,
              "WWT_PT_GUARDED_BY must expand to nothing on non-clang");
static_assert(sizeof(WWT_STR(WWT_REQUIRES(mu_))) == 1,
              "WWT_REQUIRES must expand to nothing on non-clang");
static_assert(sizeof(WWT_STR(WWT_REQUIRES(a_, b_))) == 1,
              "variadic WWT_REQUIRES must expand to nothing on non-clang");
static_assert(sizeof(WWT_STR(WWT_EXCLUDES(mu_))) == 1,
              "WWT_EXCLUDES must expand to nothing on non-clang");
static_assert(sizeof(WWT_STR(WWT_ACQUIRE(mu_))) == 1,
              "WWT_ACQUIRE must expand to nothing on non-clang");
static_assert(sizeof(WWT_STR(WWT_RELEASE(mu_))) == 1,
              "WWT_RELEASE must expand to nothing on non-clang");
static_assert(sizeof(WWT_STR(WWT_TRY_ACQUIRE(true, mu_))) == 1,
              "WWT_TRY_ACQUIRE must expand to nothing on non-clang");
static_assert(sizeof(WWT_STR(WWT_RETURN_CAPABILITY(mu_))) == 1,
              "WWT_RETURN_CAPABILITY must expand to nothing on non-clang");
static_assert(sizeof(WWT_STR(WWT_ASSERT_CAPABILITY(mu_))) == 1,
              "WWT_ASSERT_CAPABILITY must expand to nothing on non-clang");
// (The no-analysis escape hatch is deliberately not stringized here:
// its name may never appear outside thread_annotations.h — this very
// suite and CI both grep for strays, and would flag this file.)
#else
// Under clang the macros must NOT be empty — they are the analysis.
static_assert(sizeof(WWT_STR(WWT_GUARDED_BY(mu_))) > 1,
              "WWT_GUARDED_BY must be a real attribute under clang");
static_assert(sizeof(WWT_STR(WWT_REQUIRES(mu_))) > 1,
              "WWT_REQUIRES must be a real attribute under clang");
#endif

TEST(ThreadAnnotationsTest, MacrosDegradeToAttributePositionNoOps) {
  // The static_asserts above are the real check; this TEST records the
  // result in the test report and proves the macros parse in every
  // attribute position a class actually uses.
  class Annotated {
   public:
    void Touch() WWT_EXCLUDES(mu_) {
      MutexLock lock(mu_);
      ++guarded_;
    }
    int Read() WWT_EXCLUDES(mu_) {
      MutexLock lock(mu_);
      return guarded_;
    }

   private:
    mutable Mutex mu_;
    int guarded_ WWT_GUARDED_BY(mu_) = 0;
  };
  Annotated a;
  a.Touch();
  EXPECT_EQ(a.Read(), 1);
}

// ------------------------------------------------ functional wrapper

TEST(ThreadAnnotationsTest, MutexLockActuallyHoldsTheMutex) {
  Mutex mu;
  bool observed_locked = false;
  {
    MutexLock lock(mu);
    // try_lock from the owning thread is UB on std::mutex, so probe
    // from another thread: it must fail while the lock is held.
    std::thread prober([&mu, &observed_locked] {
      observed_locked = !mu.TryLock();
      if (!observed_locked) mu.Unlock();
    });
    prober.join();
  }
  EXPECT_TRUE(observed_locked);

  // Released on scope exit: the next TryLock (fresh thread) succeeds.
  bool acquired = false;
  std::thread prober([&mu, &acquired] {
    acquired = mu.TryLock();
    if (acquired) mu.Unlock();
  });
  prober.join();
  EXPECT_TRUE(acquired);
}

TEST(ThreadAnnotationsTest, CondVarHandshakeWithWhileLoopIdiom) {
  // The annotated idiom from the header comment: explicit while loops
  // around Wait (a predicate lambda would read guarded state from an
  // un-annotated closure). Two-phase ping/pong proves Wait releases
  // and reacquires the mutex and that notifications are not lost.
  Mutex mu;
  CondVar cv;
  int phase = 0;  // guarded by mu

  std::thread worker([&] {
    MutexLock lock(mu);
    while (phase < 1) cv.Wait(mu);
    phase = 2;
    cv.NotifyAll();
  });

  {
    MutexLock lock(mu);
    phase = 1;
    cv.NotifyAll();
    while (phase < 2) cv.Wait(mu);
    EXPECT_EQ(phase, 2);
  }
  worker.join();
}

TEST(ThreadAnnotationsTest, CondVarWakesEveryWaiter) {
  Mutex mu;
  CondVar cv;
  bool go = false;
  std::atomic<int> awake{0};

  std::thread waiters[4];
  for (auto& t : waiters) {
    t = std::thread([&] {
      MutexLock lock(mu);
      while (!go) cv.Wait(mu);
      awake.fetch_add(1);
    });
  }
  {
    MutexLock lock(mu);
    go = true;
  }
  cv.NotifyAll();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(awake.load(), 4);
}

// --------------------------------------------------- config pinning

std::string ReadRepoFile(const std::string& rel) {
  const std::string path = std::string(WWT_SOURCE_DIR) + "/" + rel;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(AnalysisConfigTest, CiTsanJobRunsTheRaceTier) {
  const std::string ci = ReadRepoFile(".github/workflows/ci.yml");
  // The tsan job must build with the thread sanitizer mode, run
  // exactly the race label, and thread the committed suppressions file
  // through TSAN_OPTIONS (so adding a suppression never needs a CI
  // edit — and an empty file is exercised on every run).
  EXPECT_NE(ci.find("-DWWT_SANITIZE=thread"), std::string::npos)
      << "ci.yml lost the TSan configure flag";
  EXPECT_NE(ci.find("-L race"), std::string::npos)
      << "ci.yml's tsan job no longer runs `ctest -L race`";
  EXPECT_NE(ci.find("tests/tsan.supp"), std::string::npos)
      << "ci.yml no longer passes the committed suppressions file";
}

TEST(AnalysisConfigTest, CiSanitizerJobsNameTheAddressMode) {
  // WWT_SANITIZE accepts only '', address and thread; any other value,
  // such as the boolean ON, fails at configure. The ASan/UBSan jobs must
  // spell the mode out.
  for (const char* workflow :
       {".github/workflows/ci.yml", ".github/workflows/nightly.yml"}) {
    const std::string yml = ReadRepoFile(workflow);
    EXPECT_NE(yml.find("-DWWT_SANITIZE=address"), std::string::npos)
        << workflow << " lost the ASan/UBSan configure flag";
    EXPECT_EQ(yml.find("-DWWT_SANITIZE=ON"), std::string::npos)
        << workflow << " still passes the removed ON alias";
  }
}

TEST(AnalysisConfigTest, RaceLabelCoversEveryRaceSuite) {
  const std::string cmake = ReadRepoFile("CMakeLists.txt");
  const size_t at = cmake.find("set(WWT_RACE_TESTS");
  ASSERT_NE(at, std::string::npos)
      << "CMakeLists.txt lost the WWT_RACE_TESTS list";
  const std::string race_list = cmake.substr(at, cmake.find(')', at) - at);
  // The concurrency-regression suites plus the pool's own shutdown
  // races: all must carry the race label, or the TSan tier silently
  // stops covering them. net_rpc_test and distributed_serving_test
  // exercise the wire servers' accept/shutdown and the scatter-gather
  // router; fresh_race_test is the freshness merge storm;
  // wwt_response_stream_test is the --stdin response pipeline.
  for (const char* suite :
       {"wwt_cache_race_test", "wwt_shard_race_test", "wwt_mmap_serving_test",
        "util_thread_pool_test", "net_rpc_test", "distributed_serving_test",
        "fresh_race_test", "wwt_response_stream_test"}) {
    EXPECT_NE(race_list.find(suite), std::string::npos)
        << suite << " fell out of WWT_RACE_TESTS";
  }
}

TEST(AnalysisConfigTest, SuppressionsFileIsCommittedAndDocumented) {
  const std::string supp = ReadRepoFile("tests/tsan.supp");
  // Expected empty: nothing but comments and blank lines. A real entry
  // is allowed only with an upstream link (policy in the file header
  // and docs/ANALYSIS.md) — this test makes sneaking one in loud.
  std::istringstream lines(supp);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos) continue;  // blank
    if (line[first] == '#') continue;          // comment
    ADD_FAILURE() << "tests/tsan.supp has a live suppression: \"" << line
                  << "\" — first-party races get fixed, not suppressed; "
                     "see docs/ANALYSIS.md before keeping this";
  }
  EXPECT_NE(supp.find("EXPECTED TO BE EMPTY"), std::string::npos)
      << "tsan.supp lost its policy header";
}

TEST(AnalysisConfigTest, NoAnalysisEscapesOutsideTheHeader) {
  // The no-analysis escape hatch is for lock implementations only and
  // lives in thread_annotations.h; CI greps for strays, and so does
  // this test so the rule holds on machines that never run CI. The
  // token is assembled at runtime so this file does not match itself.
  const std::string token =
      std::string("WWT_NO_THREAD_") + "SAFETY_ANALYSIS";
  const std::filesystem::path root(WWT_SOURCE_DIR);
  for (const char* dir : {"src", "tools", "bench", "examples", "tests"}) {
    std::error_code ec;
    std::filesystem::recursive_directory_iterator it(root / dir, ec);
    if (ec) continue;  // bench/examples may not exist in a trimmed tree
    for (const auto& entry : it) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".cc" && ext != ".h" && ext != ".cpp") continue;
      if (entry.path().filename() == "thread_annotations.h") continue;
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      EXPECT_EQ(buf.str().find(token), std::string::npos)
          << entry.path() << " opts code out of the thread-safety "
          << "analysis; the escape hatch never leaves "
          << "src/util/thread_annotations.h";
    }
  }
}

}  // namespace
}  // namespace wwt
