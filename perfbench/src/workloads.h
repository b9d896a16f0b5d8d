// Copyright 2026 The WWT Authors
//
// The benchmark's traffic: a closed-loop read client over
// WwtService::Submit, the seeded mutation mix of the freshness
// workloads, and the merge check. Every read is checked; every failure
// is counted in its phase.

#ifndef WWT_PERFBENCH_WORKLOADS_H_
#define WWT_PERFBENCH_WORKLOADS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "report.h"
#include "setup.h"
#include "util/random.h"
#include "wwt/service.h"

namespace perfbench {

/// What the timed reads of a run measured.
struct ReadStats {
  std::vector<double> latency_s;   // successful reads, from due to done
  std::vector<double> done_s;      // their completion, in loop time
  std::vector<double> queue_s;     // QueryResponse::queue_seconds
  std::vector<double> hit_exec_s;  // execute_seconds of cache hits
  uint64_t served = 0;             // successful reads
  double wall_s = 0;               // time the loop ran
  double check_s = 0;              // client time spent checking answers
  uint64_t cache_evictions = 0;
  uint64_t cache_bytes = 0;        // at the end of the (last) loop
};

enum MutationKind { kAdd = 0, kUpdate = 1, kOverride = 2, kTombstone = 3 };
inline constexpr std::array<const char*, 4> kMutationNames = {
    "add", "update", "override", "tombstone"};

/// What the mutations of a run measured.
struct WriteStats {
  std::vector<double> latency_s;  // successful mutations, every kind
  std::array<std::vector<double>, 4> by_kind_s;
  std::vector<double> entries;        // delta entries at each round's end
  std::vector<double> journal_bytes;  // journal size at each round's end
  double merge_s = 0;
};

/// Serves `next()`'s queries (until it returns -1) with `clients`
/// requests outstanding, from one thread. A request is due when it is
/// submitted; `on_done(q, response, latency_s, done)` runs in submission
/// order, after the freed slot has been refilled, so checking a
/// response overlaps the next request. Completion is observed
/// oldest-first, as in WwtService::RunBatch's window; a younger request
/// seen done while the client waited on an older one is stamped at that
/// moment.
void ClosedLoop(
    wwt::WwtService* service, const Reference& ref, int clients,
    const std::function<int()>& next,
    const std::function<void(int, const wwt::QueryResponse&, double,
                             std::chrono::steady_clock::time_point)>&
        on_done);

/// The seeded add / update / override / tombstone mix. Targets are the
/// tables the queries retrieve, so reads go through the overlay.
class MutationMix {
 public:
  MutationMix(const wwt::CorpusSet* corpus,
              const std::vector<wwt::TableId>* targets, uint64_t seed);

  /// Forgets the tombstones of the previous delta.
  void Reset() { tombstoned_.clear(); }

  /// Prepares one mutation, applies it through `service` (the timed
  /// part), and records its latency when it succeeds.
  bool Apply(wwt::WwtService* service, WriteStats* stats);

 private:
  wwt::TableId PickLive();

  const wwt::CorpusSet* corpus_;
  const std::vector<wwt::TableId>* targets_;
  wwt::Random rng_;
  std::set<wwt::TableId> tombstoned_;
};

/// Serves every query once through `service`, checks each against the
/// reference digest, and scores the served answers: Fig. 6 answer-row
/// error and Fig. 5 column-map F1 error, mean over the queries, in %.
struct Quality {
  double answer_error_pct = 0;
  double colmap_error_pct = 0;
};
Quality ServeAndScore(wwt::WwtService* service, const Reference& ref,
                      Phase* phase);

/// cold_serve: seeded shuffled passes over the queries, one client,
/// until `seconds` have passed (the last pass is finished).
void RunColdServe(wwt::WwtService* service, const Reference& ref,
                  uint64_t seed, double seconds, Phase* phase,
                  ReadStats* reads);

/// hot_repeat: Zipf(s=1) draws over the queries, two clients.
void RunHotRepeat(wwt::WwtService* service, const Reference& ref,
                  uint64_t seed, double seconds, Phase* phase,
                  ReadStats* reads);

/// Rounds of freshness traffic, each on a new service created with
/// `options` over the set-up corpus, with an empty delta journaled under
/// `workdir`. With `reads_per_round` > 0 a round is that many reads,
/// one outstanding, with a mutation after every third that runs while
/// the next read is in flight; with 0 it is `mutations_per_round`
/// mutations alone.
/// Rounds run while `another_round()` says so. Returns the last round's
/// service, delta unmerged.
std::unique_ptr<wwt::WwtService> RunFreshRounds(
    const ServingSetup& setup, const Reference& ref,
    const wwt::ServiceOptions& options, const std::string& workdir,
    int reads_per_round, int mutations_per_round, uint64_t seed,
    const std::function<bool()>& another_round, Phase* read_phase,
    Phase* write_phase, ReadStats* reads, WriteStats* writes);

/// Serves the queries, merges the delta into a new set under `workdir`
/// (timed into writes->merge_s), serves them again, and counts each
/// query whose digests differ across the merge as a failure.
void MergeCheck(wwt::WwtService* service, const Reference& ref,
                const std::string& workdir, Phase* phase,
                WriteStats* writes);

}  // namespace perfbench

#endif  // WWT_PERFBENCH_WORKLOADS_H_
