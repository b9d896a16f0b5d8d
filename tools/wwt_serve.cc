// Copyright 2026 The WWT Authors
//
// wwt_serve: the online half of the indexer/server split, now fronted by
// WwtService. Cold-starts from a `.wwtsnap` snapshot (memory-mapped when
// the platform allows) or a `.wwtset` sharded-corpus manifest written by
// `wwt_indexer --shards` (every shard loaded and served as one
// atomically-swappable set, probes scatter-gathered per shard), then
// serves column-keyword queries three ways:
//
//   * batch over the snapshot's stored workload (default, --batch-mult)
//   * batch over a --queries file (one query per line, columns '|')
//   * --stdin line protocol: one query per line on stdin, one response
//     line on stdout per query, in input order, flushed as answered.
//     Lines are submitted as they arrive through a wwt::ResponseStream
//     (src/wwt/response_stream.h), so a fast producer builds a real
//     queue — where --deadline-ms expires stragglers — while an
//     interactive user still sees each answer as soon as it is ready.
//
// Output is human text or, with --format json, one JSON object per
// query plus a summary object (machine-consumable; strings escaped).
//
// Error contract: every failure path — missing/corrupt snapshot,
// unreadable or queryless --queries file, a malformed flag value or
// mutation line, a rejected request — exits non-zero with a one-line
// "wwt_serve: ..." diagnostic on stderr, never a crash or silent empty
// output.
//
// Usage: wwt_serve --snapshot PATH [flags]; Usage() below lists them.
//
// Freshness mode (docs/FRESHNESS.md): --fresh (memory-only) or
// --journal PATH (crash-tolerant, replayed at startup) layers a
// mutable delta over the frozen set. --mutations FILE applies one
// mutation per line before serving, in the grammar of
// src/fresh/mutation_line.h (add, update, override-title,
// override-context, override-header, override-cell, tombstone).
//
// --merge-now folds the delta into a fresh sharded set at --merge-out
// and swaps it in before serving; the daemon flags instead start a
// background fresh::MergeDaemon (--stdin only) that merges past a
// pending-count or pending-age threshold. Either way, served answers
// are byte-identical (per-query "digest") before, during and after
// the merge.
//
// SIGHUP (--stdin only): atomically reloads the --snapshot artifact
// from disk between lines — SwapCorpus + stale-cache purge; in-flight
// queries finish on the corpus they captured. A failed reload keeps
// the current corpus and warns on stderr.
//
// Router mode (docs/DISTRIBUTED.md): one --worker per shard, in shard
// order, each a comma-separated replica list of wwt_shardd endpoints.
// The snapshot still loads locally (stats + table reads + the answer
// pipeline); only the per-shard top-k probes scatter to the workers,
// and the merged answers are byte-identical to in-process serving
// (compare the per-query "digest" fields). --hedge-ms launches the
// probe on the next replica when one goes quiet; --rpc-timeout-ms caps
// one probe RPC; --on-dead-shard picks between failing the query and
// serving an explicitly marked partial answer when a shard has no
// live worker.
//
// --k overrides the top-k of BOTH index probes, and the summary
// reports the k in force. The flags set one EngineOptions for the whole
// process; every query is served with it.
//
// The fingerprint-keyed response cache is on by default (--cache-mb 64,
// no TTL): repeated queries are answered from memory, concurrent
// identical queries coalesce onto one execution, and a snapshot swap
// can never serve a stale answer (the corpus hash is inside the cache
// key). --no-cache disables it; the summary reports hit/miss/eviction
// counters either way.

#include <signal.h>

#include <algorithm>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "fresh/merge.h"
#include "fresh/mutation_line.h"
#include "index/snapshot.h"
#include "net/shard_client.h"
#include "util/hash.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "wwt/response_stream.h"
#include "wwt/service.h"

namespace {

/// The millisecond flags' upper bound (~11.6 days: every conversion to a
/// clock duration or a poll(2) timeout stays in range) and message.
constexpr double kMaxMillis = 1e9;
constexpr char kWantsMillis[] = "a positive number of milliseconds";

/// "a | b | c" -> {"a", "b", "c"}, trimmed. A line that is entirely
/// whitespace is no query at all and yields an empty vector (callers
/// skip it); a line WITH separators keeps every column — including
/// empty ones ("a||b", "a|b|") — so ValidateQueryRequest rejects the
/// malformed query instead of silently collapsing it into a different
/// one. Both input modes (--stdin and --queries) share this contract.
std::vector<std::string> QueryColumns(const std::string& line) {
  if (wwt::StripWhitespace(line).empty()) return {};
  return wwt::SplitTrimmed(line, '|');
}

/// Set by the SIGHUP handler, consumed by the --stdin reader loop.
volatile std::sig_atomic_t g_reload_requested = 0;

void HandleSighup(int) { g_reload_requested = 1; }

/// One response as a single JSON line (the --format json per-query
/// record, also the --stdin json protocol).
void PrintJsonResponse(const wwt::QueryResponse& r, int max_rows) {
  std::printf(
      "{\"tag\": \"%s\", \"status\": \"%s\"", wwt::JsonEscape(r.tag).c_str(),
      wwt::JsonEscape(r.status.ok() ? "OK" : r.status.ToString()).c_str());
  if (r.ok()) {
    // The digest hash is the byte-identity handle: two runs (e.g. the
    // in-process engine vs the scatter-gather router) answered
    // identically iff these values match query for query.
    std::printf(", \"fingerprint\": \"%016llx\", \"corpus_hash\": "
                "\"%016llx\", \"digest\": \"%016llx\", \"partial\": %s, "
                "\"rows\": %zu, \"candidates\": %zu, "
                "\"latency_ms\": %.3f, \"queue_ms\": %.3f, "
                "\"cached\": %s, \"answer\": [",
                static_cast<unsigned long long>(r.fingerprint),
                static_cast<unsigned long long>(r.corpus_hash),
                static_cast<unsigned long long>(
                    wwt::Fnv1a(wwt::ResultDigest(r))),
                r.partial ? "true" : "false",
                r.answer.rows.size(), r.retrieval.tables.size(),
                r.execute_seconds * 1e3, r.queue_seconds * 1e3,
                r.served_from_cache ? "true" : "false");
    const size_t shown =
        std::min<size_t>(r.answer.rows.size(),
                         max_rows < 0 ? r.answer.rows.size()
                                      : static_cast<size_t>(max_rows));
    for (size_t i = 0; i < shown; ++i) {
      const wwt::AnswerRow& row = r.answer.rows[i];
      std::printf("%s{\"cells\": [", i > 0 ? ", " : "");
      for (size_t c = 0; c < row.cells.size(); ++c) {
        std::printf("%s\"%s\"", c > 0 ? ", " : "",
                    wwt::JsonEscape(row.cells[c]).c_str());
      }
      std::printf("], \"support\": %d}", row.support);
    }
    std::printf("]");
  }
  std::printf("}\n");
}

void PrintTextResponse(const wwt::QueryResponse& r) {
  if (!r.ok()) {
    std::printf("%-40.40s ERROR %s\n", r.tag.c_str(),
                r.status.ToString().c_str());
    return;
  }
  // execute_seconds, not the stage timings: a cached payload carries no
  // stage timing, and this is the sample the summary and the JSON
  // latency_ms report.
  std::printf("%-40.40s %4zu rows  %7.1f ms%s%s\n", r.tag.c_str(),
              r.answer.rows.size(), r.execute_seconds * 1e3,
              r.served_from_cache ? "  (cached)" : "",
              r.partial ? "  (partial: shard(s) down)" : "");
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --snapshot PATH [--threads N] [--batch-mult M]\n"
               "          [--queries FILE | --stdin] [--format text|json]\n"
               "          [--deadline-ms D] [--quiet]\n"
               "          [--cache-mb MB] [--cache-ttl-ms T | --no-cache]\n"
               "          [--k K]\n"
               "          [--worker ADDR[,ADDR...]]... [--hedge-ms H]\n"
               "          [--rpc-timeout-ms T] [--on-dead-shard "
               "fail|partial]\n"
               "          [--fresh | --journal PATH] [--mutations FILE]\n"
               "          [--merge-out PATH [--merge-now | --merge-shards N\n"
               "           --merge-max-pending N --merge-max-age-ms T\n"
               "           --merge-poll-ms T]]\n",
               argv0);
  return 2;
}

/// The one-line failure exit every error path funnels through.
int Fail(const std::string& message) {
  std::fprintf(stderr, "wwt_serve: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string snapshot_path, queries_path, format = "text";
  int threads = 0;
  int batch_mult = 1;
  int probe_k = 0;  // 0 = engine default for both probes
  double deadline_ms = 0;  // 0 = none
  double cache_mb = 64;    // response cache budget; see --no-cache
  double cache_ttl_ms = 0;  // 0 = entries never expire
  bool no_cache = false;
  bool cache_flag_set = false;
  bool quiet = false;
  bool use_stdin = false;
  bool batch_mult_set = false;
  // Router mode: one --worker per shard, commas separate replicas.
  std::vector<std::vector<std::string>> worker_groups;
  double hedge_ms = 0;         // 0 = no hedging
  double rpc_timeout_ms = 5000;
  bool rpc_timeout_set = false;
  bool on_dead_shard_set = false;
  wwt::ShardFailurePolicy on_dead_shard = wwt::ShardFailurePolicy::kFail;
  // Freshness mode (docs/FRESHNESS.md).
  bool fresh = false;
  std::string journal_path, mutations_path, merge_out;
  bool merge_now = false;
  int merge_shards = 0;  // 0 = keep the serving shard count
  // Daemon triggers; any flag set starts a background MergeDaemon.
  size_t merge_max_pending = 0;
  double merge_max_age_ms = 0;
  double merge_poll_ms = 0;
  bool daemon_flag_set = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fresh") {
      fresh = true;
    } else if (arg == "--merge-now") {
      merge_now = true;
    } else if (arg == "--no-cache") {
      no_cache = true;
    } else if (arg == "--stdin") {
      use_stdin = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (i + 1 == argc) {
      return Usage(argv[0]);  // every other flag takes a value
    } else {
      const std::string v = argv[++i];
      // A value is read whole and range-checked, or the run fails with
      // one "--flag wants ..., got '...'" line.
      auto bad = [&](const char* wants) {
        return Fail(arg + " wants " + wants + ", got '" + v + "'");
      };
      auto count = [&](uint64_t min, auto* out) {
        uint64_t n = 0;
        if (!wwt::ParseUint(v, min, INT_MAX, &n)) return false;
        *out = static_cast<std::remove_reference_t<decltype(*out)>>(n);
        return true;
      };
      auto millis = [&](double* out) {
        return wwt::ParseDouble(v, wwt::kMinPositive, kMaxMillis, out);
      };
      if (arg == "--snapshot") {
        snapshot_path = v;
      } else if (arg == "--queries") {
        queries_path = v;
      } else if (arg == "--threads") {
        if (!count(0, &threads)) return bad("a non-negative thread count");
      } else if (arg == "--batch-mult") {
        if (!count(1, &batch_mult)) return bad("a positive repeat count");
        batch_mult_set = true;
      } else if (arg == "--format") {
        format = v;
        if (format != "text" && format != "json") return Usage(argv[0]);
      } else if (arg == "--deadline-ms") {
        if (!millis(&deadline_ms)) return bad(kWantsMillis);
      } else if (arg == "--cache-mb") {
        // The upper bound keeps cache_mb * 1 MiB inside size_t: an
        // out-of-range double-to-integer conversion is UB, which could
        // silently disable the cache the caller asked to enlarge.
        if (!wwt::ParseDouble(v, wwt::kMinPositive, 1e12, &cache_mb)) {
          return bad("a number of megabytes in (0, 1e12]");
        }
        cache_flag_set = true;
      } else if (arg == "--cache-ttl-ms") {
        if (!millis(&cache_ttl_ms)) return bad(kWantsMillis);
        cache_flag_set = true;
      } else if (arg == "--k") {
        if (!count(1, &probe_k)) return bad("a positive top-k");
      } else if (arg == "--worker") {
        std::vector<std::string> replicas = wwt::SplitTrimmed(v, ',');
        for (const std::string& replica : replicas) {
          if (replica.empty()) return bad("ADDR[,ADDR...]");
        }
        worker_groups.push_back(std::move(replicas));
      } else if (arg == "--hedge-ms") {
        if (!millis(&hedge_ms)) return bad(kWantsMillis);
      } else if (arg == "--rpc-timeout-ms") {
        if (!millis(&rpc_timeout_ms)) return bad(kWantsMillis);
        rpc_timeout_set = true;
      } else if (arg == "--on-dead-shard") {
        if (v != "fail" && v != "partial") return bad("'fail' or 'partial'");
        on_dead_shard = v == "partial" ? wwt::ShardFailurePolicy::kPartial
                                       : wwt::ShardFailurePolicy::kFail;
        on_dead_shard_set = true;
      } else if (arg == "--journal") {
        journal_path = v;
        fresh = true;
      } else if (arg == "--mutations") {
        mutations_path = v;
      } else if (arg == "--merge-out") {
        merge_out = v;
      } else if (arg == "--merge-shards") {
        if (!count(1, &merge_shards)) return bad("a positive shard count");
      } else if (arg == "--merge-max-pending") {
        if (!count(1, &merge_max_pending)) return bad("a positive count");
        daemon_flag_set = true;
      } else if (arg == "--merge-max-age-ms") {
        if (!millis(&merge_max_age_ms)) return bad(kWantsMillis);
        daemon_flag_set = true;
      } else if (arg == "--merge-poll-ms") {
        if (!millis(&merge_poll_ms)) return bad(kWantsMillis);
        daemon_flag_set = true;
      } else {
        return Usage(argv[0]);
      }
    }
  }
  if (snapshot_path.empty()) return Usage(argv[0]);
  if (use_stdin && !queries_path.empty()) return Usage(argv[0]);
  if (use_stdin && batch_mult_set) {
    return Fail("--batch-mult only applies to the stored-workload batch "
                "mode, not --stdin");
  }
  if (deadline_ms > 0 && !use_stdin) {
    return Fail("--deadline-ms requires --stdin (batch requests are "
                "built up front, so one absolute deadline would expire "
                "tail queries spuriously)");
  }
  if (no_cache && cache_flag_set) {
    return Fail("--no-cache conflicts with --cache-mb/--cache-ttl-ms");
  }
  if (worker_groups.empty() &&
      (hedge_ms > 0 || rpc_timeout_set || on_dead_shard_set)) {
    return Fail("--hedge-ms/--rpc-timeout-ms/--on-dead-shard configure "
                "router mode and require at least one --worker");
  }
  if (!fresh && (!mutations_path.empty() || !merge_out.empty() ||
                 merge_now || merge_shards > 0 || daemon_flag_set)) {
    return Fail("--mutations and the merge flags require freshness mode "
                "(--fresh or --journal PATH)");
  }
  if ((merge_now || merge_shards > 0 || daemon_flag_set) &&
      merge_out.empty()) {
    return Fail("--merge-now/--merge-shards and the daemon triggers "
                "write a merged set and require --merge-out PATH");
  }
  if (!merge_out.empty() && !merge_now && !daemon_flag_set) {
    return Fail("--merge-out needs a trigger: --merge-now or a daemon "
                "flag (--merge-max-pending/--merge-max-age-ms/"
                "--merge-poll-ms)");
  }
  if (merge_now && daemon_flag_set) {
    return Fail("--merge-now conflicts with the daemon triggers (pick "
                "one merge mode)");
  }
  if (daemon_flag_set && !use_stdin) {
    return Fail("the merge daemon runs for the life of the process and "
                "requires --stdin");
  }
  const bool json = format == "json";

  // Cold start: one file read instead of a corpus rebuild. Missing or
  // corrupt artifacts surface as a clean one-line error.
  wwt::WallTimer load_timer;
  wwt::ServiceOptions service_options;
  service_options.num_threads = threads;
  if (probe_k > 0) {
    service_options.engine.probe1_k = probe_k;
    service_options.engine.probe2_k = probe_k;
  }
  if (!no_cache) {
    service_options.cache.capacity_bytes =
        static_cast<size_t>(cache_mb * 1024 * 1024);
    service_options.cache.ttl_seconds = cache_ttl_ms / 1e3;
  }
  service_options.engine.shard_failure = on_dead_shard;
  wwt::SnapshotInfo info;
  wwt::StatusOr<std::unique_ptr<wwt::WwtService>> service =
      wwt::WwtService::FromSnapshot(snapshot_path, service_options, &info);
  if (!service.ok()) return Fail(service.status().ToString());
  const double load_seconds = load_timer.ElapsedSeconds();
  const wwt::ServiceStats boot_stats = (*service)->Stats();
  if (!json) {
    // In --stdin mode stdout carries exactly one response line per
    // query (the pipeline protocol), so the banner goes to stderr.
    std::fprintf(
        use_stdin ? stderr : stdout,
        "loaded %llu tables in %zu shard(s), %llu terms from %s in "
        "%.3f s (format v%u, hash %016llx)\n",
        static_cast<unsigned long long>(info.num_tables),
        boot_stats.corpus_shards,
        static_cast<unsigned long long>(info.num_terms),
        snapshot_path.c_str(), load_seconds, info.format_version,
        static_cast<unsigned long long>(info.content_hash));
  }

  // ---- Freshness: layer the mutable delta over the frozen set, apply
  // the startup mutation stream, then (optionally) fold it right back
  // into a merged artifact. Order matters: a --merge-now run serves the
  // merged set, and its answers must be byte-identical to a run that
  // stopped before the merge (the per-query "digest" field is the
  // check CI performs).
  if (fresh) {
    const wwt::Status enabled = (*service)->EnableFreshness(journal_path);
    if (!enabled.ok()) return Fail(enabled.ToString());
    if (!mutations_path.empty()) {
      std::ifstream in(mutations_path);
      if (!in) {
        return Fail("cannot read mutations file '" + mutations_path + "'");
      }
      const std::shared_ptr<wwt::fresh::DeltaShard> delta =
          (*service)->delta_shard();
      std::string line;
      size_t line_no = 0, applied = 0;
      while (std::getline(in, line)) {
        ++line_no;
        const wwt::StatusOr<bool> mutated =
            wwt::fresh::ApplyMutationLine(delta.get(), line);
        if (!mutated.ok()) {
          return Fail(mutations_path + ":" + std::to_string(line_no) +
                      ": " + mutated.status().ToString());
        }
        applied += *mutated;
      }
      if (!json) {
        std::fprintf(use_stdin ? stderr : stdout,
                     "freshness: applied %zu mutation(s) from %s "
                     "(journal: %s)\n",
                     applied, mutations_path.c_str(),
                     journal_path.empty() ? "memory-only"
                                          : journal_path.c_str());
      }
    }
    if (merge_now) {
      const wwt::Status merged =
          (*service)->MergeDeltaToSet(merge_out, merge_shards);
      if (!merged.ok()) return Fail(merged.ToString());
      const wwt::ServiceStats after = (*service)->Stats();
      if (!json) {
        std::fprintf(use_stdin ? stderr : stdout,
                     "freshness: merged delta into %s (%llu tables, "
                     "hash %016llx)\n",
                     merge_out.c_str(),
                     static_cast<unsigned long long>(after.corpus_tables),
                     static_cast<unsigned long long>(after.corpus_hash));
      }
    }
  }

  // The background merge trigger (--stdin only). Declared daemon-last
  // so teardown joins the watcher before its pool and service die; the
  // delta_shard() share keeps the writer alive while the daemon
  // borrows it.
  std::shared_ptr<wwt::fresh::DeltaShard> daemon_delta;
  std::unique_ptr<wwt::ThreadPool> merge_pool;
  std::unique_ptr<wwt::fresh::MergeDaemon> merge_daemon;
  if (daemon_flag_set) {
    daemon_delta = (*service)->delta_shard();
    merge_pool = std::make_unique<wwt::ThreadPool>(1);
    wwt::fresh::MergeDaemonOptions daemon_options;
    if (merge_max_pending > 0) daemon_options.max_pending = merge_max_pending;
    daemon_options.max_age_seconds = merge_max_age_ms / 1e3;
    if (merge_poll_ms > 0) {
      daemon_options.poll_interval_seconds = merge_poll_ms / 1e3;
    }
    merge_daemon = std::make_unique<wwt::fresh::MergeDaemon>(
        daemon_delta.get(), merge_pool.get(),
        [raw = service->get(), merge_out, merge_shards] {
          return raw->MergeDeltaToSet(merge_out, merge_shards);
        },
        daemon_options);
    if (!json) {
      std::fprintf(stderr,
                   "freshness: merge daemon watching (max pending %zu, "
                   "max age %.0f ms) -> %s\n",
                   daemon_options.max_pending, merge_max_age_ms,
                   merge_out.c_str());
    }
  }

  // ---- Router mode: scatter every per-shard index probe to wwt_shardd
  // workers instead of scanning locally. The corpus artifact still loads
  // here (stats, table reads and the answer pipeline stay local — cheap
  // under the zero-copy format); only the CPU-heavy top-k probes go
  // remote, and the merged answers are byte-identical to in-process
  // serving.
  std::unique_ptr<wwt::net::RemoteProbeSet> remote_set;
  if (!worker_groups.empty()) {
    wwt::net::RemoteProbeOptions remote_options;
    remote_options.default_rpc_timeout_s = rpc_timeout_ms / 1e3;
    remote_options.hedge_after_s = hedge_ms / 1e3;
    remote_options.tolerate_unreachable =
        on_dead_shard == wwt::ShardFailurePolicy::kPartial;
    wwt::StatusOr<std::unique_ptr<wwt::net::RemoteProbeSet>> connected =
        wwt::net::RemoteProbeSet::Connect(*(*service)->corpus(),
                                          worker_groups, remote_options);
    if (!connected.ok()) return Fail(connected.status().ToString());
    remote_set = std::move(connected).value();
    const wwt::Status attached =
        (*service)->AttachRemoteProbes(remote_set->Probes());
    if (!attached.ok()) return Fail(attached.ToString());
    if (!json) {
      std::fprintf(use_stdin ? stderr : stdout,
                   "routing %zu shard probe(s) to workers (%s on dead "
                   "shard%s)\n",
                   remote_set->num_shards(),
                   on_dead_shard == wwt::ShardFailurePolicy::kPartial
                       ? "partial"
                       : "fail",
                   hedge_ms > 0 ? ", hedged" : "");
    }
  }

  // Per-shard router counters, as text lines (the --stdin diagnostics
  // channel and the text summary) or one JSON "workers" line.
  auto print_worker_text = [&](std::FILE* out) {
    if (remote_set == nullptr) return;
    for (const wwt::net::RemoteShardStats& w : remote_set->ShardStats()) {
      std::fprintf(out,
                   "worker shard %016llx @ %s: %llu probes, %llu failures, "
                   "%llu hedges, %llu reconnects, %s%s%s\n",
                   static_cast<unsigned long long>(w.shard_hash),
                   w.endpoints.c_str(),
                   static_cast<unsigned long long>(w.probes),
                   static_cast<unsigned long long>(w.failures),
                   static_cast<unsigned long long>(w.hedges),
                   static_cast<unsigned long long>(w.reconnects),
                   w.healthy ? "healthy" : "UNHEALTHY",
                   w.last_error.empty() ? "" : " — last error: ",
                   w.last_error.c_str());
    }
  };
  auto print_worker_json = [&]() {
    if (remote_set == nullptr) return;
    std::printf("{\"workers\": [");
    const std::vector<wwt::net::RemoteShardStats> stats =
        remote_set->ShardStats();
    for (size_t s = 0; s < stats.size(); ++s) {
      const wwt::net::RemoteShardStats& w = stats[s];
      std::printf("%s{\"shard\": \"%016llx\", \"endpoints\": \"%s\", "
                  "\"probes\": %llu, \"failures\": %llu, \"hedges\": %llu, "
                  "\"reconnects\": %llu, \"healthy\": %s, "
                  "\"last_error\": \"%s\"}",
                  s > 0 ? ", " : "",
                  static_cast<unsigned long long>(w.shard_hash),
                  wwt::JsonEscape(w.endpoints).c_str(),
                  static_cast<unsigned long long>(w.probes),
                  static_cast<unsigned long long>(w.failures),
                  static_cast<unsigned long long>(w.hedges),
                  static_cast<unsigned long long>(w.reconnects),
                  w.healthy ? "true" : "false",
                  wwt::JsonEscape(w.last_error).c_str());
    }
    std::printf("]}\n");
  };

  auto make_request = [&](std::vector<std::string> cols, std::string tag) {
    wwt::QueryRequest request =
        wwt::QueryRequest::Of(std::move(cols)).WithTag(std::move(tag));
    if (deadline_ms > 0) request.WithTimeout(deadline_ms / 1e3);
    return request;
  };

  // ---- Line-protocol streaming: the reader submits each stdin line as
  // it arrives; the ResponseStream prints the answers in input order,
  // one flushed line each. Its bounded window is what makes
  // --deadline-ms real: a producer faster than the pool builds an
  // actual queue, and stragglers expire in it.
  if (use_stdin) {
    // SIGHUP = atomic snapshot reload (the operator re-indexed on
    // disk). No SA_RESTART: the signal must interrupt the blocking
    // getline so a reload happens even while idle between lines.
    struct sigaction sa = {};
    sa.sa_handler = HandleSighup;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGHUP, &sa, nullptr);

    auto reload_snapshot = [&] {
      wwt::StatusOr<wwt::OpenCorpusResult> reopened =
          wwt::OpenCorpus(snapshot_path);
      if (!reopened.ok()) {
        std::fprintf(stderr,
                     "wwt_serve: reload of %s failed (%s); keeping the "
                     "current corpus\n",
                     snapshot_path.c_str(),
                     reopened.status().ToString().c_str());
        return;
      }
      // In-flight queries finish on the set they captured; the next
      // submission sees the reloaded one. The purge reclaims cache
      // entries keyed by the old hash (already unreachable).
      (*service)->SwapCorpus(reopened->corpus);
      (*service)->PurgeStaleCacheEntries();
      const wwt::ServiceStats now = (*service)->Stats();
      std::fprintf(stderr,
                   "reloaded %s: %llu tables in %zu shard(s), hash "
                   "%016llx\n",
                   snapshot_path.c_str(),
                   static_cast<unsigned long long>(now.corpus_tables),
                   now.corpus_shards,
                   static_cast<unsigned long long>(now.corpus_hash));
    };

    wwt::ResponseStream stream(
        wwt::ResponseStream::WindowFor((*service)->num_threads()),
        [&](const wwt::QueryResponse& response) {
          if (json) {
            PrintJsonResponse(response, /*max_rows=*/quiet ? 0 : 10);
          } else if (quiet && response.ok()) {
            std::printf("ok %zu\n", response.answer.rows.size());
          } else if (quiet) {
            std::printf("error %s\n", response.status.ToString().c_str());
          } else {
            PrintTextResponse(response);
          }
          std::fflush(stdout);
        });

    std::string line;
    for (;;) {
      if (g_reload_requested != 0) {
        g_reload_requested = 0;
        reload_snapshot();
      }
      if (!std::getline(std::cin, line)) {
        // A SIGHUP mid-read fails the stream (EINTR surfaces as EOF
        // through synced stdio): clear both layers and loop — the
        // reload runs at the top, and a true end-of-input simply fails
        // again on the next pass with the flag consumed.
        if (g_reload_requested != 0) {
          std::cin.clear();
          std::clearerr(stdin);
          continue;
        }
        break;
      }
      std::vector<std::string> cols = QueryColumns(line);
      if (cols.empty()) continue;
      stream.Push((*service)->Submit(make_request(std::move(cols), line)));
    }
    const wwt::ResponseStream::Counts counts = stream.Finish();

    // The summary is diagnostics, not a success banner: it prints
    // before EVERY exit, so a failed run still reports what it served
    // up to that point.
    std::fprintf(stderr, "served %zu queries, %zu expired, %zu from cache\n",
                 counts.served, counts.expired, counts.from_cache);
    const wwt::ServiceStats end_stats = (*service)->Stats();
    if (end_stats.freshness_enabled) {
      std::fprintf(stderr,
                   "freshness: %zu pending mutation(s) (%zu tables, %zu "
                   "overrides, %zu tombstones), generation %llu, hash "
                   "%016llx\n",
                   end_stats.delta_entries, end_stats.delta_tables,
                   end_stats.delta_overrides, end_stats.delta_tombstones,
                   static_cast<unsigned long long>(
                       end_stats.delta_generation),
                   static_cast<unsigned long long>(
                       end_stats.freshness_hash));
      if (merge_daemon != nullptr) {
        const wwt::fresh::MergeDaemon::Stats ds = merge_daemon->stats();
        std::fprintf(stderr,
                     "merge daemon: %llu merge(s), %llu failure(s), "
                     "last folded generation %llu\n",
                     static_cast<unsigned long long>(ds.merges),
                     static_cast<unsigned long long>(ds.failures),
                     static_cast<unsigned long long>(ds.last_generation));
      }
    }
    print_worker_text(stderr);
    // The error contract holds in every format: any rejected request
    // fails the run with a one-line stderr diagnostic. Deadline
    // expiries alone keep exit 0 — they are the shedding the operator
    // asked for, visible per-line and in the summary.
    if (counts.failed > 0) {
      return Fail(std::to_string(counts.failed) + " of " +
                  std::to_string(counts.served + counts.failed +
                                 counts.expired) +
                  " queries failed");
    }
    return 0;
  }

  // ---- Batch mode: --queries file, or the snapshot's stored workload.
  std::vector<wwt::QueryRequest> requests;
  if (!queries_path.empty()) {
    std::ifstream in(queries_path);
    if (!in) return Fail("cannot read queries file '" + queries_path + "'");
    std::string line;
    while (std::getline(in, line)) {
      std::vector<std::string> cols = QueryColumns(line);
      if (cols.empty()) continue;
      requests.push_back(make_request(std::move(cols), line));
    }
    if (requests.empty()) {
      return Fail("no queries parsed from '" + queries_path +
                  "' (expected one query per line, columns '|')");
    }
  } else {
    const std::vector<wwt::ResolvedQuery>& workload =
        (*service)->corpus()->queries();
    for (int m = 0; m < batch_mult; ++m) {
      for (const wwt::ResolvedQuery& rq : workload) {
        std::vector<std::string> cols;
        for (const wwt::QueryColumnSpec& col : rq.spec.columns) {
          cols.push_back(col.keywords);
        }
        requests.push_back(make_request(std::move(cols), rq.spec.name));
      }
    }
    if (requests.empty()) return Fail("snapshot stores no workload queries");
  }

  if (!json) {
    std::printf("serving %zu queries with %d thread(s)...\n",
                requests.size(), (*service)->num_threads());
  }
  wwt::BatchResponse batch = (*service)->RunBatch(std::move(requests));

  size_t failed = 0;
  for (const wwt::QueryResponse& r : batch.responses) failed += !r.ok();
  if (json) {
    for (const wwt::QueryResponse& r : batch.responses) {
      PrintJsonResponse(r, /*max_rows=*/quiet ? 0 : 10);
    }
  } else if (!quiet) {
    for (const wwt::QueryResponse& r : batch.responses) {
      PrintTextResponse(r);
    }
  }

  const wwt::BatchStats& s = batch.stats;
  const wwt::ServiceStats ss = (*service)->Stats();
  const wwt::ResponseCache::Stats& cs = ss.cache;
  if (json) {
    std::printf(
        "{\"summary\": {\"queries\": %zu, \"failed\": %zu, "
        "\"probe_k\": [%d, %d], "
        "\"wall_seconds\": %.4f, \"qps\": %.2f, \"concurrency\": %d, "
        "\"latency_ms\": {\"mean\": %.3f, \"p50\": %.3f, \"p95\": %.3f, "
        "\"p99\": %.3f}, \"load_seconds\": %.4f, \"corpus_hash\": "
        "\"%016llx\", \"cache\": {\"enabled\": %s, "
        "\"served_from_cache\": %zu, \"hit_rate\": %.4f, \"hits\": %llu, "
        "\"misses\": %llu, \"coalesced\": %llu, \"inserts\": %llu, "
        "\"evictions\": %llu, \"entries\": %zu, \"bytes\": %zu}, "
        "\"stats\": {\"source\": \"%s\", \"corpus_hash\": \"%016llx\", "
        "\"shards\": %zu, \"tables\": %llu, \"format\": %u, "
        "\"mapped_bytes\": %llu, \"heap_bytes\": %llu, \"threads\": %d, "
        "\"shard_threads\": %d}",
        s.num_queries, failed, (*service)->engine_options().probe1_k,
        (*service)->engine_options().probe2_k, s.wall_seconds, s.qps,
        s.concurrency,
        s.latency.mean * 1e3, s.latency.p50 * 1e3, s.latency.p95 * 1e3,
        s.latency.p99 * 1e3, load_seconds,
        static_cast<unsigned long long>(info.content_hash),
        (*service)->cache_enabled() ? "true" : "false", s.cache_hits,
        s.cache_hit_rate, static_cast<unsigned long long>(cs.hits),
        static_cast<unsigned long long>(cs.misses),
        static_cast<unsigned long long>(cs.coalesced),
        static_cast<unsigned long long>(cs.inserts),
        static_cast<unsigned long long>(cs.evictions), cs.entries,
        cs.bytes, wwt::JsonEscape(ss.corpus_source).c_str(),
        static_cast<unsigned long long>(ss.corpus_hash),
        ss.corpus_shards,
        static_cast<unsigned long long>(ss.corpus_tables),
        ss.corpus_format,
        static_cast<unsigned long long>(ss.mapped_bytes),
        static_cast<unsigned long long>(ss.heap_bytes),
        ss.num_threads, ss.shard_threads);
    if (ss.freshness_enabled) {
      std::printf(
          ", \"freshness\": {\"pending\": %zu, \"tables\": %zu, "
          "\"overrides\": %zu, \"tombstones\": %zu, \"generation\": %llu, "
          "\"hash\": \"%016llx\"}",
          ss.delta_entries, ss.delta_tables, ss.delta_overrides,
          ss.delta_tombstones,
          static_cast<unsigned long long>(ss.delta_generation),
          static_cast<unsigned long long>(ss.freshness_hash));
    }
    std::printf("}}\n");
  } else {
    std::printf("\n%zu queries in %.2f s — %.1f QPS at concurrency %d "
                "(k=%d/%d)\n",
                s.num_queries, s.wall_seconds, s.qps, s.concurrency,
                (*service)->engine_options().probe1_k,
                (*service)->engine_options().probe2_k);
    std::printf("latency ms: mean %.1f  p50 %.1f  p95 %.1f  p99 %.1f\n",
                s.latency.mean * 1e3, s.latency.p50 * 1e3,
                s.latency.p95 * 1e3, s.latency.p99 * 1e3);
    if ((*service)->cache_enabled()) {
      std::printf("cache: %zu/%zu served from cache (%.0f%% hit rate; "
                  "%llu hits, %llu coalesced, %llu evictions, %zu "
                  "entries, %.1f MB)\n",
                  s.cache_hits, s.num_queries, s.cache_hit_rate * 100,
                  static_cast<unsigned long long>(cs.hits),
                  static_cast<unsigned long long>(cs.coalesced),
                  static_cast<unsigned long long>(cs.evictions),
                  cs.entries, cs.bytes / (1024.0 * 1024.0));
    }
    std::printf("serving: %zu shard(s), %llu tables, %d worker "
                "thread(s)%s\n",
                ss.corpus_shards,
                static_cast<unsigned long long>(ss.corpus_tables),
                ss.num_threads,
                ss.shard_threads > 0 ? " + shard fan-out pool" : "");
    if (ss.freshness_enabled) {
      std::printf("freshness: %zu pending mutation(s) (%zu tables, %zu "
                  "overrides, %zu tombstones), generation %llu\n",
                  ss.delta_entries, ss.delta_tables, ss.delta_overrides,
                  ss.delta_tombstones,
                  static_cast<unsigned long long>(ss.delta_generation));
    }
    std::printf("memory: format v%u — %.1f MB mapped, %.1f MB heap%s\n",
                ss.corpus_format,
                ss.mapped_bytes / (1024.0 * 1024.0),
                ss.heap_bytes / (1024.0 * 1024.0),
                ss.mapped_bytes > 0 ? " (zero-copy serve)" : "");
    std::printf("cold start: %.3f s load vs corpus rebuild (see "
                "bench_throughput for the ratio)\n",
                load_seconds);
  }
  if (json) {
    print_worker_json();
  } else {
    print_worker_text(stdout);
  }
  if (failed > 0) {
    return Fail(std::to_string(failed) + " of " +
                std::to_string(s.num_queries) + " queries failed");
  }
  return 0;
}
