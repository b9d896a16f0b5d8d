// Copyright 2026 The WWT Authors
//
// wwt_indexer: the offline half of the indexer/server split. Generates
// the synthetic corpus, builds the TableStore + TableIndex, and writes
// either one versioned `.wwtsnap` snapshot or — with `--shards N` — N
// deterministic shard snapshots plus a `.wwtset` manifest: contiguous,
// count-balanced table-id ranges, every shard carrying the GLOBAL
// vocabulary/IDF computed before partitioning, so wwt_serve's
// scatter-gathered answers are byte-identical to the unsharded engine
// (the paper builds its Lucene index over 25M tables once and serves it
// frozen, §2.1; the web-table serving line scales that by partitioning
// the corpus and merging per-partition retrieval).
//
// Usage:
//   wwt_indexer --out PATH [--scale S] [--seed N] [--noise-pages N]
//               [--shards N] [--force]
//   wwt_indexer --inspect PATH [--format text|json]
//
// Without --force an existing artifact (snapshot, or manifest + every
// shard) that already matches the requested parameters is kept as-is
// (the CI cache path). --inspect understands both `.wwtsnap` and
// `.wwtset` files; `--format json` emits one machine-readable object
// (version, content hash, per-section byte sizes, per-shard manifest
// entries) for scripting. Exit code 0 on success; every failure is one
// "wwt_indexer: ..." line on stderr and a non-zero exit.

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <string>

#include "fresh/delta_shard.h"
#include "index/snapshot.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

void PrintInfo(const wwt::SnapshotInfo& info, const std::string& path) {
  std::printf("snapshot        %s\n", path.c_str());
  std::printf("format version  %u\n", info.format_version);
  std::printf("content hash    %016llx\n",
              static_cast<unsigned long long>(info.content_hash));
  std::printf("file size       %.2f MiB\n",
              static_cast<double>(info.file_bytes) / (1024.0 * 1024.0));
  std::printf("seed            %llu\n",
              static_cast<unsigned long long>(info.seed));
  std::printf("scale           %.3f\n", info.scale);
  std::printf("noise pages     %d\n", info.noise_pages);
  std::printf("tables          %llu\n",
              static_cast<unsigned long long>(info.num_tables));
  std::printf("queries         %llu\n",
              static_cast<unsigned long long>(info.num_queries));
  std::printf("vocabulary      %llu terms\n",
              static_cast<unsigned long long>(info.num_terms));
}

void PrintManifest(const wwt::SetManifest& m, const std::string& path) {
  std::printf("corpus set      %s\n", path.c_str());
  std::printf("format version  %u\n", m.format_version);
  std::printf("set hash        %016llx\n",
              static_cast<unsigned long long>(m.set_hash));
  std::printf("seed            %llu\n",
              static_cast<unsigned long long>(m.seed));
  std::printf("scale           %.3f\n", m.scale);
  std::printf("noise pages     %d\n", m.noise_pages);
  std::printf("tables          %llu\n",
              static_cast<unsigned long long>(m.num_tables));
  std::printf("shards          %zu\n", m.shards.size());
  for (size_t s = 0; s < m.shards.size(); ++s) {
    const wwt::ShardManifestEntry& e = m.shards[s];
    std::printf("  [%zu] %s  ids [%llu, %llu)  hash %016llx\n", s,
                e.file.c_str(),
                static_cast<unsigned long long>(e.first_table_id),
                static_cast<unsigned long long>(e.first_table_id +
                                                e.num_tables),
                static_cast<unsigned long long>(e.content_hash));
  }
}

void PrintInfoJson(const wwt::SnapshotInfo& info, const std::string& path) {
  std::printf("{\n");
  std::printf("  \"kind\": \"snapshot\",\n");
  std::printf("  \"path\": \"%s\",\n", wwt::JsonEscape(path).c_str());
  std::printf("  \"format_version\": %u,\n", info.format_version);
  std::printf("  \"content_hash\": \"%016llx\",\n",
              static_cast<unsigned long long>(info.content_hash));
  std::printf("  \"file_bytes\": %llu,\n",
              static_cast<unsigned long long>(info.file_bytes));
  std::printf("  \"seed\": %llu,\n",
              static_cast<unsigned long long>(info.seed));
  std::printf("  \"scale\": %.6g,\n", info.scale);
  std::printf("  \"noise_pages\": %d,\n", info.noise_pages);
  std::printf("  \"tables\": %llu,\n",
              static_cast<unsigned long long>(info.num_tables));
  std::printf("  \"queries\": %llu,\n",
              static_cast<unsigned long long>(info.num_queries));
  std::printf("  \"terms\": %llu,\n",
              static_cast<unsigned long long>(info.num_terms));
  std::printf("  \"sections\": [");
  for (size_t s = 0; s < info.sections.size(); ++s) {
    std::printf("%s\n    {\"tag\": \"%s\", \"bytes\": %llu}",
                s == 0 ? "" : ",",
                wwt::JsonEscape(info.sections[s].tag).c_str(),
                static_cast<unsigned long long>(info.sections[s].bytes));
  }
  std::printf("\n  ]\n}\n");
}

void PrintManifestJson(const wwt::SetManifest& m, const std::string& path) {
  std::printf("{\n");
  std::printf("  \"kind\": \"set\",\n");
  std::printf("  \"path\": \"%s\",\n", wwt::JsonEscape(path).c_str());
  std::printf("  \"format_version\": %u,\n", m.format_version);
  std::printf("  \"content_hash\": \"%016llx\",\n",
              static_cast<unsigned long long>(m.set_hash));
  std::printf("  \"seed\": %llu,\n",
              static_cast<unsigned long long>(m.seed));
  std::printf("  \"scale\": %.6g,\n", m.scale);
  std::printf("  \"noise_pages\": %d,\n", m.noise_pages);
  std::printf("  \"tables\": %llu,\n",
              static_cast<unsigned long long>(m.num_tables));
  std::printf("  \"shards\": [");
  for (size_t s = 0; s < m.shards.size(); ++s) {
    const wwt::ShardManifestEntry& e = m.shards[s];
    std::printf(
        "%s\n    {\"file\": \"%s\", \"content_hash\": \"%016llx\", "
        "\"first_table_id\": %llu, \"num_tables\": %llu}",
        s == 0 ? "" : ",", wwt::JsonEscape(e.file).c_str(),
        static_cast<unsigned long long>(e.content_hash),
        static_cast<unsigned long long>(e.first_table_id),
        static_cast<unsigned long long>(e.num_tables));
  }
  std::printf("\n  ]\n}\n");
}

void PrintJournal(const wwt::fresh::DeltaJournalInfo& info,
                  const std::string& path) {
  std::printf("delta journal   %s\n", path.c_str());
  std::printf("format version  %u\n", info.format_version);
  std::printf("base hash       %016llx\n",
              static_cast<unsigned long long>(info.base_hash));
  std::printf("base tables     %llu\n",
              static_cast<unsigned long long>(info.base_end_id));
  std::printf("file size       %.2f KiB\n",
              static_cast<double>(info.file_bytes) / 1024.0);
  std::printf("generation      %llu\n",
              static_cast<unsigned long long>(info.generation));
  std::printf("records         %llu\n",
              static_cast<unsigned long long>(info.num_records));
  std::printf("pending tables  %llu\n",
              static_cast<unsigned long long>(info.pending_tables));
  std::printf("overrides       %llu\n",
              static_cast<unsigned long long>(info.num_overrides));
  std::printf("tombstones      %llu\n",
              static_cast<unsigned long long>(info.num_tombstones));
  if (info.truncated) {
    std::printf("torn tail       yes (dropped on next open)\n");
  }
}

void PrintJournalJson(const wwt::fresh::DeltaJournalInfo& info,
                      const std::string& path) {
  std::printf("{\n");
  std::printf("  \"kind\": \"delta-journal\",\n");
  std::printf("  \"path\": \"%s\",\n", wwt::JsonEscape(path).c_str());
  std::printf("  \"format_version\": %u,\n", info.format_version);
  std::printf("  \"base_hash\": \"%016llx\",\n",
              static_cast<unsigned long long>(info.base_hash));
  std::printf("  \"base_tables\": %llu,\n",
              static_cast<unsigned long long>(info.base_end_id));
  std::printf("  \"file_bytes\": %llu,\n",
              static_cast<unsigned long long>(info.file_bytes));
  std::printf("  \"generation\": %llu,\n",
              static_cast<unsigned long long>(info.generation));
  std::printf("  \"records\": %llu,\n",
              static_cast<unsigned long long>(info.num_records));
  std::printf("  \"pending_tables\": %llu,\n",
              static_cast<unsigned long long>(info.pending_tables));
  std::printf("  \"overrides\": %llu,\n",
              static_cast<unsigned long long>(info.num_overrides));
  std::printf("  \"tombstones\": %llu,\n",
              static_cast<unsigned long long>(info.num_tombstones));
  std::printf("  \"truncated\": %s\n", info.truncated ? "true" : "false");
  std::printf("}\n");
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --out PATH [--scale S] [--seed N]\n"
               "          [--noise-pages N] [--shards N] [--force]\n"
               "       %s --inspect PATH [--format text|json]\n",
               argv0, argv0);
  return 2;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "wwt_indexer: %s\n", message.c_str());
  return 1;
}

/// True when `manifest` (loaded from `path`) matches the requested
/// parameters AND every shard file it names still carries the recorded
/// content hash — the sharded equivalent of BuildOrLoadCorpus's
/// keep-if-fresh check.
bool ShardedSetIsFresh(const wwt::SetManifest& manifest,
                       const std::string& path,
                       const wwt::CorpusOptions& options, int shards) {
  // PartitionCorpus clamps the shard count to the table count, so a
  // matching set may legitimately carry fewer shards than requested.
  const uint64_t expected_shards =
      std::min<uint64_t>(static_cast<uint64_t>(shards),
                         std::max<uint64_t>(manifest.num_tables, 1));
  if (manifest.seed != options.seed || manifest.scale != options.scale ||
      manifest.noise_pages != options.noise_pages ||
      manifest.workload_hash != wwt::WorkloadFingerprint(options) ||
      manifest.shards.size() != expected_shards) {
    return false;
  }
  for (const wwt::ShardManifestEntry& entry : manifest.shards) {
    wwt::StatusOr<wwt::SnapshotInfo> info =
        wwt::InspectSnapshot(wwt::ResolveShardPath(path, entry.file));
    if (!info.ok() || info->content_hash != entry.content_hash) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out, inspect;
  std::string format = "text";
  wwt::CorpusOptions options;
  int shards = 1;
  bool shards_set = false;
  bool force = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Numeric values are read whole and range-checked, or the run fails
    // with one "--flag wants ..., got '...'" line. The scale and
    // noise-page caps keep their product, which the generator rounds to
    // an int page count, in range.
    auto bad = [&](const char* wants, const char* v) {
      return Fail(arg + " wants " + wants + ", got '" + v + "'");
    };
    uint64_t n = 0;
    if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      out = v;
    } else if (arg == "--inspect") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      inspect = v;
    } else if (arg == "--scale") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      if (!wwt::ParseDouble(v, wwt::kMinPositive, 1000, &options.scale)) {
        return bad("a corpus scale in (0, 1000]", v);
      }
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      if (!wwt::ParseUint(v, 0, UINT64_MAX, &options.seed)) {
        return bad("a non-negative integer", v);
      }
    } else if (arg == "--format") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      format = v;
      if (format != "text" && format != "json") {
        return bad("'text' or 'json'", v);
      }
    } else if (arg == "--noise-pages") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      if (!wwt::ParseUint(v, 0, 1000000, &n)) {
        return bad("a page count in [0, 1000000]", v);
      }
      options.noise_pages = static_cast<int>(n);
    } else if (arg == "--shards") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      if (!wwt::ParseUint(v, 1, INT_MAX, &n)) {
        return bad("a positive count", v);
      }
      shards = static_cast<int>(n);
      shards_set = true;
    } else if (arg == "--force") {
      force = true;
    } else {
      return Usage(argv[0]);
    }
  }

  if (!inspect.empty()) {
    // Sniffed by magic like everything else: a freshness delta journal
    // (docs/FRESHNESS.md) reports its base binding and pending work.
    if (wwt::fresh::IsDeltaJournal(inspect)) {
      wwt::StatusOr<wwt::fresh::DeltaJournalInfo> journal =
          wwt::fresh::InspectDeltaJournal(inspect);
      if (!journal.ok()) return Fail(journal.status().ToString());
      if (format == "json") {
        PrintJournalJson(*journal, inspect);
      } else {
        PrintJournal(*journal, inspect);
      }
      return 0;
    }
    if (wwt::IsSetManifest(inspect)) {
      wwt::StatusOr<wwt::SetManifest> manifest =
          wwt::LoadSetManifest(inspect);
      if (!manifest.ok()) return Fail(manifest.status().ToString());
      if (format == "json") {
        PrintManifestJson(*manifest, inspect);
      } else {
        PrintManifest(*manifest, inspect);
      }
      return 0;
    }
    wwt::StatusOr<wwt::SnapshotInfo> info = wwt::InspectSnapshot(inspect);
    if (!info.ok()) return Fail(info.status().ToString());
    if (format == "json") {
      PrintInfoJson(*info, inspect);
    } else {
      PrintInfo(*info, inspect);
    }
    return 0;
  }
  if (out.empty()) return Usage(argv[0]);

  // ---- Sharded artifact: N shard snapshots + a .wwtset manifest. Any
  // explicit --shards writes a manifest — including N=1, whose set hash
  // equals the shard's snapshot hash, so scripting `--shards "$N"` is
  // consistent at every N.
  if (shards_set) {
    wwt::WallTimer timer;
    if (!force) {
      wwt::StatusOr<wwt::SetManifest> existing =
          wwt::LoadSetManifest(out);
      if (existing.ok() &&
          ShardedSetIsFresh(*existing, out, options, shards)) {
        std::printf("validated existing sharded set in %.2f s\n",
                    timer.ElapsedSeconds());
        PrintManifest(*existing, out);
        return 0;
      }
    }
    wwt::Corpus corpus = wwt::GenerateCorpus(options);
    wwt::SetManifest manifest;
    wwt::Status saved =
        wwt::SaveShardedSnapshot(corpus, options, out, shards, &manifest);
    if (!saved.ok()) return Fail(saved.ToString());
    std::printf("built sharded set in %.2f s\n", timer.ElapsedSeconds());
    PrintManifest(manifest, out);
    return 0;
  }

  if (force) {
    // Ignore any existing file: generate and overwrite.
    std::remove(out.c_str());
  }
  wwt::WallTimer timer;
  wwt::BuildOrLoadResult result = wwt::BuildOrLoadCorpus(options, out);
  if (result.info.format_version == 0) {
    // BuildOrLoadCorpus tolerates a failed save (benches can serve the
    // in-memory corpus); the indexer's sole job is the artifact.
    std::fprintf(stderr, "wwt_indexer: snapshot was not written to '%s'\n",
                 out.c_str());
    return 1;
  }
  std::printf("%s snapshot in %.2f s\n",
              result.loaded ? "validated existing" : "built",
              timer.ElapsedSeconds());
  PrintInfo(result.info, out);
  return 0;
}
