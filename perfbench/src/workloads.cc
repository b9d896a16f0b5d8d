#include "workloads.h"

#include <chrono>
#include <deque>
#include <filesystem>
#include <future>
#include <numeric>
#include <optional>

#include "eval/metrics.h"
#include "fresh/delta_shard.h"
#include "util/logging.h"
#include "util/timer.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Journal bytes on disk (0 when the file is missing).
double FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<double>(size);
}

/// Records one read: counted in `phase`, timed into `reads` when OK.
/// `done_s` counts from the start of the current loop or round;
/// `expected` (may be null) is the digest the answer must have.
void RecordRead(const wwt::QueryResponse& r, double latency_s,
                double done_s, const std::string* expected, Phase* phase,
                ReadStats* reads) {
  const Clock::time_point start = Clock::now();
  const bool ok = r.ok() && !r.partial &&
                  (expected == nullptr || wwt::ResultDigest(r) == *expected);
  reads->check_s += Seconds(Clock::now() - start);
  phase->Count(ok);
  if (!ok) return;
  ++reads->served;
  reads->latency_s.push_back(latency_s);
  reads->done_s.push_back(reads->wall_s + done_s);
  reads->queue_s.push_back(r.queue_seconds);
  if (r.served_from_cache) reads->hit_exec_s.push_back(r.execute_seconds);
}

/// Seeded shuffled passes over the query indices.
class Passes {
 public:
  Passes(size_t n, uint64_t seed) : rng_(seed), order_(n), cursor_(n) {
    std::iota(order_.begin(), order_.end(), 0);
  }

  bool at_pass_end() const { return cursor_ == order_.size(); }

  int Next() {
    if (at_pass_end()) {
      rng_.Shuffle(&order_);
      cursor_ = 0;
    }
    return order_[cursor_++];
  }

 private:
  wwt::Random rng_;
  std::vector<int> order_;
  size_t cursor_;
};

Clock::time_point DeadlineAfter(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// Cache counters of the service into `reads`, relative to `before`.
void RecordCache(const wwt::WwtService& service,
                 const wwt::ResponseCache::Stats& before, ReadStats* reads) {
  const wwt::ResponseCache::Stats after = service.cache_stats();
  reads->cache_evictions += after.evictions - before.evictions;
  reads->cache_bytes = after.bytes;
}

}  // namespace

void ClosedLoop(wwt::WwtService* service, const Reference& ref, int clients,
                const std::function<int()>& next,
                const std::function<void(int, const wwt::QueryResponse&,
                                         double, Clock::time_point)>&
                    on_done) {
  struct Pending {
    int query = 0;
    Clock::time_point due;
    std::optional<Clock::time_point> done;
    std::future<wwt::QueryResponse> future;
  };
  std::deque<Pending> window;
  auto submit = [&] {
    const int q = next();
    if (q < 0) return false;
    Pending p;
    p.query = q;
    p.due = Clock::now();
    p.future = service->Submit(RequestFor(ref, static_cast<size_t>(q)));
    window.push_back(std::move(p));
    return true;
  };
  while (static_cast<int>(window.size()) < clients && submit()) {
  }
  while (!window.empty()) {
    Pending p = std::move(window.front());
    window.pop_front();
    wwt::QueryResponse response = p.future.get();
    const Clock::time_point now = Clock::now();
    for (Pending& other : window) {
      if (!other.done.has_value() &&
          other.future.wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready) {
        other.done = now;
      }
    }
    const Clock::time_point done = p.done.value_or(now);
    submit();
    on_done(p.query, response, Seconds(done - p.due), done);
  }
}

MutationMix::MutationMix(const wwt::CorpusSet* corpus,
                         const std::vector<wwt::TableId>* targets,
                         uint64_t seed)
    : corpus_(corpus), targets_(targets), rng_(seed) {
  WWT_CHECK(!targets_->empty());
}

wwt::TableId MutationMix::PickLive() {
  for (;;) {
    const wwt::TableId id = (*targets_)[rng_.Uniform(targets_->size())];
    if (tombstoned_.count(id) == 0) return id;
  }
}

bool MutationMix::Apply(wwt::WwtService* service, WriteStats* stats) {
  const auto kind = static_cast<MutationKind>(
      rng_.Categorical({0.30, 0.25, 0.30, 0.15}));
  const wwt::TableId id = PickLive();
  wwt::StatusOr<wwt::WebTable> frozen = wwt::fresh::ReadFrozenTable(*corpus_, id);
  WWT_CHECK(frozen.ok()) << frozen.status();
  wwt::WebTable table = std::move(frozen).value();

  wwt::Status status;
  Clock::time_point start;
  switch (kind) {
    case kAdd: {
      table.url += "#copy";
      start = Clock::now();
      status = service->AddTable(std::move(table)).status();
      break;
    }
    case kUpdate: {
      if (!table.body.empty() && table.num_cols > 0) {
        const size_t r = rng_.Uniform(table.body.size());
        const size_t c = rng_.Uniform(static_cast<uint64_t>(table.num_cols));
        table.body[r][c] += " revised";
      }
      start = Clock::now();
      status = service->UpdateTable(std::move(table));
      break;
    }
    case kOverride: {
      wwt::fresh::SummaryOverride patch;
      if (table.body.empty() || table.num_cols == 0 || rng_.Bernoulli(0.5)) {
        patch.title = "revised " + (table.title_rows.empty()
                                        ? std::string("table")
                                        : table.title_rows.front());
      } else {
        wwt::fresh::SummaryOverride::CellEdit edit;
        edit.row = static_cast<uint32_t>(rng_.Uniform(table.body.size()));
        edit.col = static_cast<uint32_t>(
            rng_.Uniform(static_cast<uint64_t>(table.num_cols)));
        edit.text = "revised " + table.body[edit.row][edit.col];
        patch.body_cells.push_back(std::move(edit));
      }
      start = Clock::now();
      status = service->OverrideSummary(id, patch);
      break;
    }
    case kTombstone: {
      start = Clock::now();
      status = service->TombstoneTable(id);
      if (status.ok()) tombstoned_.insert(id);
      break;
    }
  }
  const double seconds = Seconds(Clock::now() - start);
  if (!status.ok()) {
    WWT_LOG(Warning) << kMutationNames[kind] << " of table " << id
                     << " failed: " << status.ToString();
    return false;
  }
  stats->latency_s.push_back(seconds);
  stats->by_kind_s[kind].push_back(seconds);
  return true;
}

Quality ServeAndScore(wwt::WwtService* service, const Reference& ref,
                      Phase* phase) {
  std::vector<double> answer_error;
  std::vector<double> colmap_error;
  for (size_t q = 0; q < ref.queries.size(); ++q) {
    wwt::QueryResponse r = service->Run(RequestFor(ref, q));
    const bool ok = r.ok() && wwt::ResultDigest(r) == ref.digests[q];
    phase->Count(ok);
    if (!ok) continue;
    const wwt::EvalCase& c = ref.cases[q];
    answer_error.push_back(ref.harness->AnswerError(c, r.mapping));
    colmap_error.push_back(wwt::F1Error(
        wwt::EvalHarness::PredictedLabels(r.mapping), c.truth));
  }
  return {Mean(answer_error), Mean(colmap_error)};
}

void RunColdServe(wwt::WwtService* service, const Reference& ref,
                  uint64_t seed, double seconds, Phase* phase,
                  ReadStats* reads) {
  Passes passes(ref.queries.size(), seed ^ 0xC01DULL);
  const wwt::ResponseCache::Stats before = service->cache_stats();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = DeadlineAfter(seconds);
  ClosedLoop(
      service, ref, /*clients=*/1,
      [&] {
        // Stop only between passes: every query runs equally often.
        if (passes.at_pass_end() && Clock::now() >= deadline) return -1;
        return passes.Next();
      },
      [&](int q, const wwt::QueryResponse& r, double latency,
          Clock::time_point done) {
        RecordRead(r, latency, Seconds(done - start), &ref.digests[q], phase,
                   reads);
      });
  reads->wall_s += Seconds(Clock::now() - start);
  RecordCache(*service, before, reads);
}

void RunHotRepeat(wwt::WwtService* service, const Reference& ref,
                  uint64_t seed, double seconds, Phase* phase,
                  ReadStats* reads) {
  wwt::Random rng(seed ^ 0x4077ULL);
  // Zipf rank -> query is a seeded permutation, drawn afresh every
  // epoch: which query is hottest changes the payload copied per hit,
  // so a run averages over many popularity orders instead of one.
  constexpr int kEpochDraws = 590;
  std::vector<int> by_rank(ref.queries.size());
  std::iota(by_rank.begin(), by_rank.end(), 0);
  int draws = 0;
  const wwt::ResponseCache::Stats before = service->cache_stats();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = DeadlineAfter(seconds);
  ClosedLoop(
      service, ref, /*clients=*/2,
      [&] {
        if (Clock::now() >= deadline) return -1;
        if (draws++ % kEpochDraws == 0) rng.Shuffle(&by_rank);
        return by_rank[rng.Zipf(by_rank.size(), 1.0)];
      },
      [&](int q, const wwt::QueryResponse& r, double latency,
          Clock::time_point done) {
        RecordRead(r, latency, Seconds(done - start), &ref.digests[q], phase,
                   reads);
      });
  reads->wall_s += Seconds(Clock::now() - start);
  RecordCache(*service, before, reads);
}

std::unique_ptr<wwt::WwtService> RunFreshRounds(
    const ServingSetup& setup, const Reference& ref,
    const wwt::ServiceOptions& options, const std::string& workdir,
    int reads_per_round, int mutations_per_round, uint64_t seed,
    const std::function<bool()>& another_round, Phase* read_phase,
    Phase* write_phase, ReadStats* reads, WriteStats* writes) {
  Passes passes(ref.queries.size(), seed ^ 0xF4E5ULL);
  MutationMix mix(setup.corpus.get(), &ref.retrieved, seed ^ 0x3117ULL);

  std::unique_ptr<wwt::WwtService> service;
  for (int round = 0; service == nullptr || another_round(); ++round) {
    service.reset();
    const std::string journal =
        workdir + "/round-" + std::to_string(round) + ".wwtdlt";
    std::filesystem::remove(journal);
    wwt::StatusOr<std::unique_ptr<wwt::WwtService>> created =
        wwt::WwtService::Create(options);
    WWT_CHECK(created.ok()) << created.status();
    service = std::move(created).value();
    service->SwapCorpus(setup.corpus);
    wwt::Status enabled = service->EnableFreshness(journal);
    WWT_CHECK(enabled.ok()) << enabled;
    mix.Reset();

    const wwt::ResponseCache::Stats before = service->cache_stats();
    const Clock::time_point start = Clock::now();
    if (reads_per_round > 0) {
      int submitted = 0;
      int completed = 0;
      ClosedLoop(
          service.get(), ref, /*clients=*/1,
          [&] {
            if (submitted == reads_per_round) return -1;
            ++submitted;
            return passes.Next();
          },
          [&](int, const wwt::QueryResponse& r, double latency,
              Clock::time_point done) {
            RecordRead(r, latency, Seconds(done - start), nullptr, read_phase,
                       reads);
            // The next read is already in flight: this write runs beside
            // it.
            if (++completed % 3 == 0) {
              write_phase->Count(mix.Apply(service.get(), writes));
            }
          });
    } else {
      for (int m = 0; m < mutations_per_round; ++m) {
        write_phase->Count(mix.Apply(service.get(), writes));
      }
    }
    reads->wall_s += Seconds(Clock::now() - start);
    RecordCache(*service, before, reads);
    writes->entries.push_back(
        static_cast<double>(service->Stats().delta_entries));
    writes->journal_bytes.push_back(FileBytes(journal));
  }
  return service;
}

void MergeCheck(wwt::WwtService* service, const Reference& ref,
                const std::string& workdir, Phase* phase,
                WriteStats* writes) {
  auto serve_all = [&] {
    std::vector<std::string> digests;
    for (size_t q = 0; q < ref.queries.size(); ++q) {
      wwt::QueryResponse r = service->Run(RequestFor(ref, q));
      digests.push_back(r.ok() ? wwt::ResultDigest(r) : std::string());
    }
    return digests;
  };
  const std::vector<std::string> before = serve_all();
  wwt::WallTimer timer;
  wwt::Status merged = service->MergeDeltaToSet(workdir + "/merged.wwtset");
  writes->merge_s = timer.ElapsedSeconds();
  if (!merged.ok()) {
    WWT_LOG(Warning) << "merge failed: " << merged.ToString();
  }
  const std::vector<std::string> after = serve_all();
  for (size_t q = 0; q < before.size(); ++q) {
    phase->Count(merged.ok() && !before[q].empty() && before[q] == after[q]);
  }
}

}  // namespace perfbench
