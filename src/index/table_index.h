// Copyright 2026 The WWT Authors
//
// Fielded inverted index over web tables — the stand-in for the paper's
// Lucene deployment (§2.1): each table is a document with three text
// fields (header, context, content) carrying boosts 2.0 / 1.5 / 1.0.
//
// Two probe styles are exposed:
//  * Search(): disjunctive boosted TF-IDF top-k — the §2.2.1 index probes.
//    Served by either a block-max WAND scorer (default; skips postings
//    that cannot enter the top-k) or the exhaustive reference scorer —
//    both run over the same merged scoring layout and return bit-identical
//    results (see docs/RETRIEVAL.md).
//  * MatchAllIn*(): conjunctive doc-id sets — the building blocks of the
//    PMI^2 corpus statistic (§3.2.3), where H(Q) is the set of tables
//    matching Q in header-or-context and B(cell) the set matching the
//    cell words in content.
//
// Storage sits behind a PostingsSource: heap vectors while building, or
// varint-compressed blobs read in place from a memory-mapped snapshot.
// The scorers run over a ScoringView of raw arrays that points at either
// the heap layout or the mapping — the algorithms never know which.

#ifndef WWT_INDEX_TABLE_INDEX_H_
#define WWT_INDEX_TABLE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "table/web_table.h"
#include "text/tfidf.h"
#include "util/thread_annotations.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace wwt {

class SnapshotCodec;

/// The three indexed fields.
enum class Field : int { kHeader = 0, kContext = 1, kContent = 2 };
inline constexpr int kNumFields = 3;

/// Which top-k algorithm Search() runs. Both produce identical results
/// (same docs, bit-identical scores, same (score desc, id asc) order);
/// kWand skips work, kExhaustive is the plain reference loop kept for
/// equivalence testing and perf comparison.
enum class ProbeScorer : int {
  kWand = 0,
  kExhaustive = 1,
};

/// "wand" / "exhaustive" (for logs and bench stamps).
const char* ProbeScorerName(ProbeScorer scorer);

struct IndexOptions {
  /// Per-field boosts, §2.1: header 2.0, context 1.5, content 1.0.
  double boosts[kNumFields] = {2.0, 1.5, 1.0};
  /// Drop stopwords from probe keywords ("mountains IN north america").
  bool drop_query_stopwords = true;
  /// Postings per scoring block (block-max WAND skip granularity). Small
  /// blocks skip more precisely but cost more block-max lookups; 64-128
  /// is the classic sweet spot. Must be >= 1.
  uint32_t scoring_block_size = 128;
};

/// A search hit.
struct ScoredDoc {
  TableId doc = 0;
  double score = 0;
};

/// One (doc, tf) posting of the build-mode per-field lists.
struct Posting {
  TableId doc;
  float tf;
};

/// Read surface over the per-field conjunctive postings (the MatchAll*
/// building block). Implementations: HeapPostingsSource (build mode)
/// and MappedPostingsSource (varint-delta blobs read in place from a
/// snapshot mapping).
class PostingsSource {
 public:
  virtual ~PostingsSource() = default;

  /// Terms with a (possibly empty) posting list in `field`.
  virtual size_t NumTerms(int field) const = 0;
  /// Appends the ascending doc ids whose `field` contains `term`.
  virtual void AppendDocs(int field, TermId term,
                          std::vector<TableId>* out) const = 0;
  /// True when postings are served in place from a file mapping.
  virtual bool mapped() const = 0;
  /// Approximate heap bytes owned by this source.
  virtual size_t HeapBytes() const = 0;
};

/// Build-mode source: owns the (doc, tf) lists plus per-doc field
/// lengths — everything the scoring-layout builder consumes.
class HeapPostingsSource final : public PostingsSource {
 public:
  HeapPostingsSource() : postings(kNumFields), field_len(kNumFields) {}

  size_t NumTerms(int field) const override {
    return postings[field].size();
  }
  void AppendDocs(int field, TermId term,
                  std::vector<TableId>* out) const override {
    if (term >= postings[field].size()) return;
    for (const Posting& p : postings[field][term]) out->push_back(p.doc);
  }
  bool mapped() const override { return false; }
  size_t HeapBytes() const override;

  /// postings[field][term] -> postings sorted by doc id (insertion order
  /// is ascending because ids are assigned ascending).
  std::vector<std::vector<std::vector<Posting>>> postings;
  /// Field lengths (in tokens) per doc, for length normalization.
  std::vector<std::vector<uint32_t>> field_len;
};

/// Zero-copy source: per-field `u64 offsets[num_terms + 1]` tables over
/// varint-delta doc-id blobs, pointing into a snapshot mapping whose
/// lifetime the owning Corpus pins. Offsets are validated monotone and
/// in-bounds at load; a garbled varint terminates its list early rather
/// than reading out of bounds.
class MappedPostingsSource final : public PostingsSource {
 public:
  struct FieldView {
    const uint64_t* offsets = nullptr;  // [num_terms + 1]
    const char* blob = nullptr;
  };

  size_t NumTerms(int) const override { return num_terms; }
  void AppendDocs(int field, TermId term,
                  std::vector<TableId>* out) const override;
  bool mapped() const override { return true; }
  size_t HeapBytes() const override { return 0; }

  FieldView fields[kNumFields];
  size_t num_terms = 0;
};

/// The raw-array form of the merged block-max scoring layout both
/// scorers run over: term t's postings live at [offsets[t],
/// offsets[t+1]) of the parallel docs/scores arrays, its blocks at
/// [block_offsets[t], block_offsets[t+1]) of block_last/block_max.
/// Points at heap vectors (build mode) or straight into a snapshot
/// mapping — identical scoring either way.
struct ScoringView {
  uint32_t block_size = 0;
  size_t num_terms = 0;
  const uint64_t* offsets = nullptr;       // [num_terms + 1]
  const TableId* docs = nullptr;           // [offsets[num_terms]]
  const double* scores = nullptr;          // [offsets[num_terms]]
  const uint64_t* block_offsets = nullptr;  // [num_terms + 1]
  const TableId* block_last = nullptr;     // max doc id per block
  const double* block_max = nullptr;       // max contribution per block
  const double* term_max = nullptr;        // [num_terms]
};

/// The corpus-wide read surface the mapping layers consult: tokenizer,
/// vocabulary and IDF statistics plus the conjunctive doc-set probes of
/// the PMI^2 feature (§3.2.3). TableIndex implements it over one index;
/// CorpusSet::stats() implements it over a sharded corpus by unioning
/// the per-shard doc sets under the shared global statistics — so the
/// query parser, candidate builder and column mapper are shard-agnostic
/// and score identically whether the corpus is one index or many.
class CorpusStats {
 public:
  virtual ~CorpusStats() = default;

  virtual const Tokenizer& tokenizer() const = 0;
  virtual const Vocabulary& vocab() const = 0;
  /// Corpus-wide IDF statistics (document = one table, all fields). For
  /// a shard of a CorpusSet these are the GLOBAL statistics computed
  /// before partitioning, not per-shard counts.
  virtual const IdfDictionary& idf() const = 0;
  virtual size_t num_docs() const = 0;

  /// Sorted ids of docs whose header+context fields contain ALL of
  /// `keywords` (after tokenization).
  virtual std::vector<TableId> MatchAllInHeaderOrContext(
      const std::vector<std::string>& keywords) const = 0;

  /// Sorted ids of docs whose content field contains ALL of `keywords`.
  virtual std::vector<TableId> MatchAllInContent(
      const std::vector<std::string>& keywords) const = 0;
};

/// Append-only in-memory inverted index. Build once, then query from any
/// number of threads: Search()/MatchAllIn*()/idf()/vocab() are pure
/// reads with no hidden mutable state beyond the lazily built scoring
/// layout, whose one-time construction is guarded by a mutex + released
/// atomic (audited for concurrent serving). Add() must not overlap
/// queries.
///
/// A snapshot load installs mapped sources instead (postings, vocab,
/// IDF, scoring view all read in place from the mapping) — such an
/// index is immutable: Add() CHECK-fails, the scoring layout is already
/// "built".
class TableIndex : public CorpusStats {
 public:
  explicit TableIndex(IndexOptions options = {},
                      TokenizerOptions tokenizer_options = {});

  /// Hands each table to the callback it is given, in ascending id order.
  using TableFeed =
      std::function<void(const std::function<void(const WebTable&)>&)>;

  /// The seed-add-pin build behind every derived index (a shard of a
  /// set, a freshness delta, a merged set): an index with `like`'s
  /// options, seeded with `vocab`, holding every table `tables` feeds,
  /// then pinned to `idf`. Its term ids, IDF weights and per-term scores
  /// equal those of the corpus `vocab` and `idf` came from — see
  /// docs/SHARDING.md and docs/FRESHNESS.md.
  static std::unique_ptr<TableIndex> BuildPinned(const TableIndex& like,
                                                 const Vocabulary& vocab,
                                                 const IdfDictionary& idf,
                                                 const TableFeed& tables);

  /// Indexes a table under table.id, which must be below the TableId
  /// maximum. Title rows are indexed as header text (they describe the
  /// table, not a specific column, but the paper treats title as a
  /// header-adjacent part).
  void Add(const WebTable& table);

  /// Pre-seeds the vocabulary with a copy of `vocab` (build mode, before
  /// the first Add): tokens already known to the seeding corpus keep
  /// their term ids, new tokens intern after them. Together with
  /// InstallGlobalStats this is how a derived index (a shard of a set, a
  /// freshness delta, a merged set) scores identically to its base —
  /// see docs/SHARDING.md and docs/FRESHNESS.md.
  void SeedVocabulary(const Vocabulary& vocab);

  /// Replaces the accumulated IDF statistics with a copy of `idf` (build
  /// mode, after the Add loop): pins the base corpus' global statistics
  /// so per-term contributions match the base bit-for-bit. Terms beyond
  /// the pinned df table (interned after seeding) score as document
  /// frequency zero. Drops any built scoring layout.
  void InstallGlobalStats(const IdfDictionary& idf);

  /// Disjunctive boosted TF-IDF search; returns up to `k` docs by
  /// descending score (ties broken by ascending id). k < 0 returns all
  /// matching docs (always via the exhaustive path — WAND's pruning
  /// needs a finite heap).
  std::vector<ScoredDoc> Search(const std::vector<std::string>& keywords,
                                int k,
                                ProbeScorer scorer = ProbeScorer::kWand) const;

  /// Sorted ids of docs whose header+context fields contain ALL of
  /// `keywords` (after tokenization).
  std::vector<TableId> MatchAllInHeaderOrContext(
      const std::vector<std::string>& keywords) const override;

  /// Sorted ids of docs whose content field contains ALL of `keywords`.
  std::vector<TableId> MatchAllInContent(
      const std::vector<std::string>& keywords) const override;

  /// Corpus-wide IDF statistics (document = one table, all fields). On a
  /// CorpusSet shard these are the global pre-partition statistics.
  const IdfDictionary& idf() const override { return idf_; }
  const Vocabulary& vocab() const override { return vocab_; }
  const Tokenizer& tokenizer() const override { return tokenizer_; }

  size_t num_docs() const override { return doc_count_; }

  const IndexOptions& options() const { return options_; }

  /// True when this index serves in place from a snapshot mapping.
  bool mapped() const { return postings_->mapped(); }
  /// Approximate heap bytes owned by the index (postings + scoring
  /// layout + vocabulary + IDF). Mapped state counts 0.
  size_t HeapBytes() const;

 private:
  /// Snapshot save/load (src/index/snapshot.cc) serializes the private
  /// postings/field-stats/scoring-layout state directly and installs
  /// the mapped sources on load.
  friend class SnapshotCodec;

  /// Per-(term, doc) scoring data merged across the three fields, laid
  /// out CSR-style for the probe hot loop (see ScoringView). scores[i]
  /// is the doc's FULL contribution for the term (boost * sqrt(tf) *
  /// idf^2 / sqrt(len+1), summed over the fields in field order) — so a
  /// document's total score is a sum of one value per query term, in
  /// ascending term order, for BOTH scorers.
  struct ScoringLayout {
    uint32_t block_size = 128;
    /// Size vocab+1; offsets into docs/scores.
    std::vector<uint64_t> offsets;
    std::vector<TableId> docs;
    std::vector<double> scores;
    /// Size vocab+1; offsets into block_last/block_max. Term t's block j
    /// covers postings [offsets[t] + j*block_size, min(offsets[t] +
    /// (j+1)*block_size, offsets[t+1])).
    std::vector<uint64_t> block_offsets;
    /// Parallel per-block arrays: max doc id and max contribution.
    std::vector<TableId> block_last;
    std::vector<double> block_max;
    /// Per-term max contribution (max over the term's blocks).
    std::vector<double> term_max;
  };

  /// Tokenizes and interns, returning term ids (unknown terms are
  /// interned too — the vocabulary is owned here).
  std::vector<TermId> TermsOf(const std::string& text);
  /// Lookup-only variant for queries.
  std::vector<TermId> QueryTerms(const std::vector<std::string>& keywords,
                                 bool keep_unknown = false) const;

  /// Sorted doc ids containing term in any of `fields`.
  std::vector<TableId> DocsWithTerm(TermId term,
                                    std::initializer_list<Field> fields) const;

  /// Builds the merged scoring layout, block metadata included, on first
  /// use (thread-safe; Search is const and concurrent). Snapshot load
  /// installs a mapped view instead; Add() invalidates it. Built lazily
  /// rather than at the end of every build: a freshness delta rebuilds
  /// its index on every mutation, and most of those indexes are replaced
  /// before anything searches them.
  void EnsureScoringLayout() const;

  /// The raw-array view the scorers run over: the mapped view on a
  /// loaded index, otherwise a view of the heap layout. Call only after
  /// EnsureScoringLayout().
  ScoringView ViewOfScoring() const;

  /// Top-k over the merged layout, every posting of every query term.
  std::vector<ScoredDoc> SearchExhaustive(const ScoringView& view,
                                          const std::vector<TermId>& terms,
                                          int k) const;
  /// Block-max WAND top-k over the merged layout.
  std::vector<ScoredDoc> SearchWand(const ScoringView& view,
                                    const std::vector<TermId>& terms,
                                    int k) const;

  IndexOptions options_;
  Tokenizer tokenizer_;
  Vocabulary vocab_;
  IdfDictionary idf_;
  size_t doc_count_ = 0;

  /// The per-field postings read surface; heap_ is non-null iff it is
  /// the build-mode HeapPostingsSource (moving the index preserves the
  /// pointee's address, so the cached raw pointer stays valid).
  std::unique_ptr<PostingsSource> postings_;
  HeapPostingsSource* heap_ = nullptr;

  /// Lazily built from the heap postings/lengths/idf_. scoring_ready_ is
  /// set with release order after the layout is complete; readers check
  /// it with acquire order, so a true read guarantees visibility of the
  /// layout without taking the mutex. A snapshot load bypasses it
  /// entirely: mapped_scoring_ points into the mapping and
  /// scoring_ready_ is true from installation.
  ///
  /// scoring_ is deliberately NOT WWT_GUARDED_BY(scoring_mu_): the hot
  /// read path is lock-free by design (publication is the
  /// release/acquire pair on scoring_ready_, which clang's lock-based
  /// analysis cannot model). scoring_mu_ serializes only the one-time
  /// *build* in EnsureScoringLayout; every read is gated on
  /// scoring_ready_. Raced under the TSan tier instead.
  mutable ScoringLayout scoring_;
  mutable std::atomic<bool> scoring_ready_{false};
  mutable Mutex scoring_mu_;
  ScoringView mapped_scoring_{};
};

}  // namespace wwt

#endif  // WWT_INDEX_TABLE_INDEX_H_
