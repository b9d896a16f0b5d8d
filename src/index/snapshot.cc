#include "index/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "util/hash.h"
#include "util/logging.h"
#include "util/serde.h"
#include "util/timer.h"

namespace wwt {

namespace {

/// Section tags (ASCII fourcc, little-endian). Unknown tags are skipped
/// on load so new sections can be appended without a version bump;
/// changing the LAYOUT of an existing section bumps
/// kSnapshotFormatVersion instead.
constexpr uint32_t SectionTag(char a, char b, char c, char d) {
  return static_cast<uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(d)) << 24;
}

constexpr uint32_t kSecMeta = SectionTag('M', 'E', 'T', 'A');
constexpr uint32_t kSecStore = SectionTag('S', 'T', 'O', 'R');
constexpr uint32_t kSecIndex = SectionTag('I', 'N', 'D', 'X');
constexpr uint32_t kSecTruth = SectionTag('T', 'R', 'T', 'H');
constexpr uint32_t kSecQueries = SectionTag('Q', 'R', 'Y', 'S');
constexpr uint32_t kSecHarvest = SectionTag('H', 'S', 'T', 'S');

/// Fixed file header: magic + version + flags + payload size + checksum.
constexpr size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8;

/// Sections are written in place: tag + a reserved u64 size slot,
/// patched once the body is appended (no per-section buffering).
size_t BeginSection(uint32_t tag, serde::Writer* w) {
  w->WriteU32(tag);
  w->WriteU64(0);  // size slot
  return w->size();
}

void EndSection(size_t body_start, serde::Writer* w) {
  w->PatchU64(body_start - sizeof(uint64_t), w->size() - body_start);
}

/// Validates a zero-copy offset table read in place from the mapping:
/// offsets[0] == 0 and monotone non-decreasing, so every derived
/// [offsets[i], offsets[i+1]) slice is a valid subrange of a blob of
/// `offsets[n]` bytes. Returns the blob size through `total`.
Status ValidateOffsets(const uint64_t* offsets, uint64_t n, const char* what,
                       uint64_t* total) {
  if (offsets[0] != 0) {
    return Status::Corruption(what, " offset table does not start at 0");
  }
  for (uint64_t i = 0; i < n; ++i) {
    if (offsets[i + 1] < offsets[i]) {
      return Status::Corruption(what, " offset table is not monotone at entry ",
                                i + 1);
    }
  }
  *total = offsets[n];
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotCodec: the one place allowed to touch the private state of
// TableStore / TableIndex / IdfDictionary (befriended by each).

class SnapshotCodec {
 public:
  // ----- TableStore: an aligned `u64 offsets[count + 1]` table + one
  // record blob, read in place from the mapping on load.
  static void WriteStore(const TableStore& store, serde::Writer* w) {
    const StoreSource& src = *store.source_;
    w->WriteU64(store.first_id_);
    w->WriteU64(src.size());
    w->AlignTo(8, kHeaderBytes);
    uint64_t off = 0;
    for (size_t i = 0; i < src.size(); ++i) {
      w->WriteU64(off);
      off += src.record(i).size();
    }
    w->WriteU64(off);
    for (size_t i = 0; i < src.size(); ++i) {
      const std::string_view rec = src.record(i);
      w->WriteBytes(rec.data(), rec.size());
    }
  }

  static Status ReadStore(serde::Reader* r, size_t base, TableStore* store) {
    uint64_t first_id, count;
    WWT_RETURN_NOT_OK(r->ReadU64(&first_id));
    WWT_RETURN_NOT_OK(r->ReadU64(&count));
    WWT_RETURN_NOT_OK(r->CheckCount(count, 1));
    if (first_id > UINT32_MAX || count > UINT32_MAX - first_id) {
      return Status::Corruption("store id range starting at ", first_id,
                                " with ", count, " records exceeds TableId");
    }
    WWT_RETURN_NOT_OK(r->AlignTo(8, base));
    const char* raw;
    WWT_RETURN_NOT_OK(r->ReadRaw(count + 1, sizeof(uint64_t), &raw));
    auto src = std::make_unique<MappedStoreSource>();
    src->offsets = reinterpret_cast<const uint64_t*>(raw);
    uint64_t blob_size;
    WWT_RETURN_NOT_OK(
        ValidateOffsets(src->offsets, count, "store record", &blob_size));
    WWT_RETURN_NOT_OK(r->ReadRaw(blob_size, 1, &src->blob));
    src->count = static_cast<size_t>(count);
    store->vec_ = nullptr;
    store->source_ = std::move(src);
    store->first_id_ = static_cast<TableId>(first_id);
    return Status::OK();
  }

  // ----- Corpus partitioning (the `wwt_indexer --shards` primitive).
  /// One shard corpus over the contiguous id range [begin, end): its
  /// slice of the store records and ground truth, a per-shard index
  /// rebuilt over exactly those tables but carrying the GLOBAL
  /// vocabulary and IDF statistics (so per-shard retrieval scores are
  /// bit-identical to the full index's), and the full resolved
  /// workload. `kb` stays null — serving never consults it.
  static Corpus BuildShard(const Corpus& full, TableId begin, TableId end) {
    Corpus shard;
    // record() copies work from both heap and mapped source stores, so a
    // zero-copy corpus can be re-partitioned without a rebuild.
    std::vector<std::string>& records = shard.store.MutableRecords();
    records.reserve(end - begin);
    for (TableId id = begin; id < end; ++id) {
      records.emplace_back(full.store.source_->record(id - full.store.first_id_));
    }
    shard.store.first_id_ = begin;

    const TableIndex& full_index = *full.index;
    shard.index = TableIndex::BuildPinned(
        full_index, full_index.vocab(), full_index.idf(), [&](const auto& add) {
          for (TableId id = begin; id < end; ++id) {
            StatusOr<WebTable> table = shard.store.Get(id);
            WWT_CHECK(table.ok()) << "unreadable table " << id
                                  << " while sharding: "
                                  << table.status().ToString();
            add(*table);
          }
        });

    for (const auto& [id, truth] : full.truth) {
      if (id >= begin && id < end) shard.truth.emplace(id, truth);
    }
    shard.queries = full.queries;
    shard.harvest_stats = full.harvest_stats;
    return shard;
  }

  // ----- TableIndex: options, then aligned offset tables + raw arrays
  // (vocabulary, df table, docs-only varint postings, the full merged
  // scoring layout including block metadata) the loader reads in place.
  // Written through the read surfaces (Term(), DocFreq(), AppendDocs(),
  // the scoring view), so it works identically from a heap-built corpus
  // and from an already-mapped one (re-saving / repartitioning a loaded
  // file). Every raw array is preceded by a Writer::AlignTo(8) marker;
  // the doubles the scorers consume are stored as the exact bit
  // patterns the builder produced, which is what makes serving a loaded
  // index byte-identical to serving the built one.
  static void WriteIndex(const TableIndex& index, serde::Writer* w) {
    const IndexOptions& opt = index.options_;
    for (double boost : opt.boosts) w->WriteDouble(boost);
    w->WriteU8(opt.drop_query_stopwords ? 1 : 0);

    const TokenizerOptions& tok = index.tokenizer_.options();
    w->WriteU8(tok.lowercase ? 1 : 0);
    w->WriteU8(tok.strip_possessive ? 1 : 0);
    w->WriteU8(tok.stem_plurals ? 1 : 0);
    w->WriteU8(tok.drop_stopwords ? 1 : 0);
    w->WriteU64(tok.min_token_length);

    const Vocabulary& vocab = index.vocab_;
    const uint64_t nterms = vocab.size();
    w->WriteU64(nterms);
    w->WriteU64(index.doc_count_);
    w->WriteU32(index.idf_.num_docs());

    // Vocabulary: offsets + lexicographic search permutation + blob.
    w->AlignTo(8, kHeaderBytes);
    uint64_t off = 0;
    for (TermId t = 0; t < nterms; ++t) {
      w->WriteU64(off);
      off += vocab.Term(t).size();
    }
    w->WriteU64(off);
    std::vector<uint32_t> perm(nterms);
    for (uint64_t i = 0; i < nterms; ++i) perm[i] = static_cast<uint32_t>(i);
    std::sort(perm.begin(), perm.end(), [&vocab](uint32_t a, uint32_t b) {
      return vocab.Term(a) < vocab.Term(b);
    });
    w->AlignTo(8, kHeaderBytes);
    for (uint32_t p : perm) w->WriteU32(p);
    for (TermId t = 0; t < nterms; ++t) {
      const std::string_view term = vocab.Term(t);
      w->WriteBytes(term.data(), term.size());
    }

    // IDF document frequencies, one entry per term.
    w->AlignTo(8, kHeaderBytes);
    for (TermId t = 0; t < nterms; ++t) w->WriteU32(index.idf_.DocFreq(t));

    // Per-field conjunctive postings: docs only (first id absolute,
    // then gaps), varint-compressed, behind a byte-offset table.
    std::vector<TableId> docs;
    for (int f = 0; f < kNumFields; ++f) {
      serde::Writer blob;
      std::vector<uint64_t> offsets;
      offsets.reserve(nterms + 1);
      offsets.push_back(0);
      for (TermId t = 0; t < nterms; ++t) {
        docs.clear();
        index.postings_->AppendDocs(f, t, &docs);
        TableId prev = 0;
        bool first = true;
        for (TableId d : docs) {
          blob.WriteVarint(first ? d : d - prev);
          prev = d;
          first = false;
        }
        offsets.push_back(blob.size());
      }
      w->AlignTo(8, kHeaderBytes);
      for (uint64_t o : offsets) w->WriteU64(o);
      w->WriteBytes(blob.buffer().data(), blob.size());
    }

    // The full merged scoring layout, block metadata included — the
    // loader installs a view, it never recomputes.
    index.EnsureScoringLayout();
    const ScoringView view = index.ViewOfScoring();
    WWT_CHECK(view.num_terms == nterms)
        << "scoring layout and vocabulary disagree";
    const uint64_t npost = view.offsets[nterms];
    const uint64_t nblocks = view.block_offsets[nterms];
    w->WriteU32(view.block_size);
    w->WriteU64(npost);
    w->WriteU64(nblocks);
    w->AlignTo(8, kHeaderBytes);
    for (uint64_t t = 0; t <= nterms; ++t) w->WriteU64(view.offsets[t]);
    w->AlignTo(8, kHeaderBytes);
    for (uint64_t i = 0; i < npost; ++i) w->WriteU32(view.docs[i]);
    w->AlignTo(8, kHeaderBytes);
    for (uint64_t i = 0; i < npost; ++i) w->WriteDouble(view.scores[i]);
    w->AlignTo(8, kHeaderBytes);
    for (uint64_t t = 0; t <= nterms; ++t) w->WriteU64(view.block_offsets[t]);
    w->AlignTo(8, kHeaderBytes);
    for (uint64_t i = 0; i < nblocks; ++i) w->WriteU32(view.block_last[i]);
    w->AlignTo(8, kHeaderBytes);
    for (uint64_t i = 0; i < nblocks; ++i) w->WriteDouble(view.block_max[i]);
    w->AlignTo(8, kHeaderBytes);
    for (uint64_t t = 0; t < nterms; ++t) w->WriteDouble(view.term_max[t]);
  }

  /// Installs mapped views (vocabulary, df table, postings, scoring
  /// layout) pointing straight into the file mapping. Validation is
  /// O(#terms) STRUCTURAL — offset tables monotone and in-bounds,
  /// permutation entries in range, block counts consistent — which is
  /// exactly what the probe loops and view slicing rely on for memory
  /// safety. Payload VALUES (doc ids inside blobs, scores) are not
  /// audited: a tampered file can serve wrong answers, never an
  /// out-of-bounds read (store lookups bounds-check, WAND only compares
  /// doc values). `base` is the section body's absolute file offset, the
  /// anchor the AlignTo markers are verified against.
  static Status ReadIndex(serde::Reader* r, size_t base,
                          std::unique_ptr<TableIndex>* out) {
    IndexOptions opt;
    for (double& boost : opt.boosts) WWT_RETURN_NOT_OK(r->ReadDouble(&boost));
    uint8_t flag;
    WWT_RETURN_NOT_OK(r->ReadU8(&flag));
    opt.drop_query_stopwords = flag != 0;

    TokenizerOptions tok;
    WWT_RETURN_NOT_OK(r->ReadU8(&flag));
    tok.lowercase = flag != 0;
    WWT_RETURN_NOT_OK(r->ReadU8(&flag));
    tok.strip_possessive = flag != 0;
    WWT_RETURN_NOT_OK(r->ReadU8(&flag));
    tok.stem_plurals = flag != 0;
    WWT_RETURN_NOT_OK(r->ReadU8(&flag));
    tok.drop_stopwords = flag != 0;
    uint64_t min_len;
    WWT_RETURN_NOT_OK(r->ReadU64(&min_len));
    tok.min_token_length = static_cast<size_t>(min_len);

    auto index = std::make_unique<TableIndex>(opt, tok);
    uint64_t nterms, doc_count;
    uint32_t idf_docs;
    WWT_RETURN_NOT_OK(r->ReadU64(&nterms));
    WWT_RETURN_NOT_OK(r->ReadU64(&doc_count));
    WWT_RETURN_NOT_OK(r->ReadU32(&idf_docs));
    WWT_RETURN_NOT_OK(r->CheckCount(nterms, 8));
    if (nterms > UINT32_MAX) {
      return Status::Corruption("vocabulary of ", nterms,
                                " terms exceeds TermId");
    }
    const char* raw;

    // Vocabulary: offsets + search permutation + term blob.
    WWT_RETURN_NOT_OK(r->AlignTo(8, base));
    WWT_RETURN_NOT_OK(r->ReadRaw(nterms + 1, sizeof(uint64_t), &raw));
    const uint64_t* vocab_offsets = reinterpret_cast<const uint64_t*>(raw);
    uint64_t vocab_blob_size;
    WWT_RETURN_NOT_OK(ValidateOffsets(vocab_offsets, nterms, "vocabulary",
                                      &vocab_blob_size));
    WWT_RETURN_NOT_OK(r->AlignTo(8, base));
    WWT_RETURN_NOT_OK(r->ReadRaw(nterms, sizeof(uint32_t), &raw));
    const uint32_t* sorted = reinterpret_cast<const uint32_t*>(raw);
    for (uint64_t i = 0; i < nterms; ++i) {
      if (sorted[i] >= nterms) {
        return Status::Corruption("vocabulary search permutation entry ", i,
                                  " is out of range");
      }
    }
    const char* vocab_blob;
    WWT_RETURN_NOT_OK(r->ReadRaw(vocab_blob_size, 1, &vocab_blob));
    index->vocab_.m_offsets_ = vocab_offsets;
    index->vocab_.m_sorted_ = sorted;
    index->vocab_.m_blob_ = vocab_blob;
    index->vocab_.m_size_ = static_cast<size_t>(nterms);

    // IDF document frequencies.
    WWT_RETURN_NOT_OK(r->AlignTo(8, base));
    WWT_RETURN_NOT_OK(r->ReadRaw(nterms, sizeof(uint32_t), &raw));
    index->idf_.m_df_ = reinterpret_cast<const uint32_t*>(raw);
    index->idf_.m_df_size_ = static_cast<size_t>(nterms);
    index->idf_.num_docs_ = idf_docs;

    // Per-field conjunctive postings (docs-only varint-delta blobs).
    auto postings = std::make_unique<MappedPostingsSource>();
    postings->num_terms = static_cast<size_t>(nterms);
    for (int f = 0; f < kNumFields; ++f) {
      WWT_RETURN_NOT_OK(r->AlignTo(8, base));
      WWT_RETURN_NOT_OK(r->ReadRaw(nterms + 1, sizeof(uint64_t), &raw));
      const uint64_t* offsets = reinterpret_cast<const uint64_t*>(raw);
      uint64_t blob_size;
      WWT_RETURN_NOT_OK(
          ValidateOffsets(offsets, nterms, "postings", &blob_size));
      const char* blob;
      WWT_RETURN_NOT_OK(r->ReadRaw(blob_size, 1, &blob));
      postings->fields[f].offsets = offsets;
      postings->fields[f].blob = blob;
    }
    index->heap_ = nullptr;
    index->postings_ = std::move(postings);

    // Scoring layout: raw arrays behind a view; no recompute, no copy.
    uint32_t block_size;
    uint64_t npost, nblocks;
    WWT_RETURN_NOT_OK(r->ReadU32(&block_size));
    WWT_RETURN_NOT_OK(r->ReadU64(&npost));
    WWT_RETURN_NOT_OK(r->ReadU64(&nblocks));
    if (block_size == 0) {
      return Status::Corruption("scoring layout block size is 0");
    }
    ScoringView view;
    view.block_size = block_size;
    view.num_terms = static_cast<size_t>(nterms);
    WWT_RETURN_NOT_OK(r->AlignTo(8, base));
    WWT_RETURN_NOT_OK(r->ReadRaw(nterms + 1, sizeof(uint64_t), &raw));
    view.offsets = reinterpret_cast<const uint64_t*>(raw);
    uint64_t total;
    WWT_RETURN_NOT_OK(
        ValidateOffsets(view.offsets, nterms, "scoring posting", &total));
    if (total != npost) {
      return Status::Corruption("scoring offsets cover ", total,
                                " postings, header says ", npost);
    }
    WWT_RETURN_NOT_OK(r->AlignTo(8, base));
    WWT_RETURN_NOT_OK(r->ReadRaw(npost, sizeof(TableId), &raw));
    view.docs = reinterpret_cast<const TableId*>(raw);
    WWT_RETURN_NOT_OK(r->AlignTo(8, base));
    WWT_RETURN_NOT_OK(r->ReadRaw(npost, sizeof(double), &raw));
    view.scores = reinterpret_cast<const double*>(raw);
    WWT_RETURN_NOT_OK(r->AlignTo(8, base));
    WWT_RETURN_NOT_OK(r->ReadRaw(nterms + 1, sizeof(uint64_t), &raw));
    view.block_offsets = reinterpret_cast<const uint64_t*>(raw);
    WWT_RETURN_NOT_OK(
        ValidateOffsets(view.block_offsets, nterms, "scoring block", &total));
    if (total != nblocks) {
      return Status::Corruption("scoring block offsets cover ", total,
                                " blocks, header says ", nblocks);
    }
    // WAND derives each block's posting range arithmetically from the
    // block index, so the per-term block count must match exactly.
    for (uint64_t t = 0; t < nterms; ++t) {
      const uint64_t count = view.offsets[t + 1] - view.offsets[t];
      const uint64_t want = (count + block_size - 1) / block_size;
      if (view.block_offsets[t + 1] - view.block_offsets[t] != want) {
        return Status::Corruption("scoring layout of term ", t, " has ",
                                  view.block_offsets[t + 1] -
                                      view.block_offsets[t],
                                  " blocks for ", count, " postings");
      }
    }
    WWT_RETURN_NOT_OK(r->AlignTo(8, base));
    WWT_RETURN_NOT_OK(r->ReadRaw(nblocks, sizeof(TableId), &raw));
    view.block_last = reinterpret_cast<const TableId*>(raw);
    WWT_RETURN_NOT_OK(r->AlignTo(8, base));
    WWT_RETURN_NOT_OK(r->ReadRaw(nblocks, sizeof(double), &raw));
    view.block_max = reinterpret_cast<const double*>(raw);
    WWT_RETURN_NOT_OK(r->AlignTo(8, base));
    WWT_RETURN_NOT_OK(r->ReadRaw(nterms, sizeof(double), &raw));
    view.term_max = reinterpret_cast<const double*>(raw);

    index->mapped_scoring_ = view;
    index->scoring_ready_.store(true, std::memory_order_release);
    index->doc_count_ = static_cast<size_t>(doc_count);

    *out = std::move(index);
    return Status::OK();
  }
};

namespace {

// ---------------------------------------------------------------- sections

void WriteMeta(const Corpus& corpus, const CorpusOptions& options,
               serde::Writer* w) {
  w->WriteU64(options.seed);
  w->WriteDouble(options.scale);
  w->WriteI32(options.noise_pages);
  w->WriteU64(WorkloadFingerprint(options));
  w->WriteU64(corpus.store.size());
  w->WriteU64(corpus.queries.size());
  w->WriteU64(corpus.index->vocab().size());
}

Status ReadMeta(serde::Reader* r, SnapshotInfo* info) {
  WWT_RETURN_NOT_OK(r->ReadU64(&info->seed));
  WWT_RETURN_NOT_OK(r->ReadDouble(&info->scale));
  WWT_RETURN_NOT_OK(r->ReadI32(&info->noise_pages));
  WWT_RETURN_NOT_OK(r->ReadU64(&info->workload_hash));
  WWT_RETURN_NOT_OK(r->ReadU64(&info->num_tables));
  WWT_RETURN_NOT_OK(r->ReadU64(&info->num_queries));
  WWT_RETURN_NOT_OK(r->ReadU64(&info->num_terms));
  return Status::OK();
}

void WriteTruth(const TruthMap& truth, serde::Writer* w) {
  // Sorted by table id so identical corpora produce identical bytes
  // (content_hash doubles as a cache key).
  std::vector<TableId> ids;
  ids.reserve(truth.size());
  for (const auto& [id, _] : truth) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  w->WriteU64(ids.size());
  for (TableId id : ids) {
    const TableTruth& t = truth.at(id);
    w->WriteU32(id);
    w->WriteI32(t.topic);
    w->WriteU64(t.column_semantics.size());
    for (int sem : t.column_semantics) w->WriteI32(sem);
  }
}

Status ReadTruth(serde::Reader* r, TruthMap* truth) {
  uint64_t count;
  WWT_RETURN_NOT_OK(r->ReadU64(&count));
  WWT_RETURN_NOT_OK(r->CheckCount(count, 16));
  truth->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    TableId id;
    WWT_RETURN_NOT_OK(r->ReadU32(&id));
    TableTruth t;
    WWT_RETURN_NOT_OK(r->ReadI32(&t.topic));
    uint64_t nsem;
    WWT_RETURN_NOT_OK(r->ReadU64(&nsem));
    WWT_RETURN_NOT_OK(r->CheckCount(nsem, 4));
    t.column_semantics.resize(nsem);
    for (uint64_t s = 0; s < nsem; ++s) {
      WWT_RETURN_NOT_OK(r->ReadI32(&t.column_semantics[s]));
    }
    truth->emplace(id, std::move(t));
  }
  return Status::OK();
}

void WriteQueries(const std::vector<ResolvedQuery>& queries,
                  serde::Writer* w) {
  w->WriteU64(queries.size());
  for (const ResolvedQuery& rq : queries) {
    w->WriteString(rq.spec.name);
    w->WriteString(rq.spec.topic);
    w->WriteU64(rq.spec.columns.size());
    for (const QueryColumnSpec& col : rq.spec.columns) {
      w->WriteString(col.keywords);
      w->WriteString(col.column);
    }
    w->WriteI32(rq.spec.target_total);
    w->WriteI32(rq.spec.target_relevant);
    w->WriteI32(rq.topic);
    w->WriteU64(rq.semantics.size());
    for (int sem : rq.semantics) w->WriteI32(sem);
  }
}

Status ReadQueries(serde::Reader* r, std::vector<ResolvedQuery>* queries) {
  uint64_t count;
  WWT_RETURN_NOT_OK(r->ReadU64(&count));
  WWT_RETURN_NOT_OK(r->CheckCount(count, 16));
  queries->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ResolvedQuery rq;
    WWT_RETURN_NOT_OK(r->ReadString(&rq.spec.name));
    WWT_RETURN_NOT_OK(r->ReadString(&rq.spec.topic));
    uint64_t ncols;
    WWT_RETURN_NOT_OK(r->ReadU64(&ncols));
    WWT_RETURN_NOT_OK(r->CheckCount(ncols, 16));
    rq.spec.columns.resize(ncols);
    for (uint64_t c = 0; c < ncols; ++c) {
      WWT_RETURN_NOT_OK(r->ReadString(&rq.spec.columns[c].keywords));
      WWT_RETURN_NOT_OK(r->ReadString(&rq.spec.columns[c].column));
    }
    WWT_RETURN_NOT_OK(r->ReadI32(&rq.spec.target_total));
    WWT_RETURN_NOT_OK(r->ReadI32(&rq.spec.target_relevant));
    WWT_RETURN_NOT_OK(r->ReadI32(&rq.topic));
    uint64_t nsem;
    WWT_RETURN_NOT_OK(r->ReadU64(&nsem));
    WWT_RETURN_NOT_OK(r->CheckCount(nsem, 4));
    rq.semantics.resize(nsem);
    for (uint64_t s = 0; s < nsem; ++s) {
      WWT_RETURN_NOT_OK(r->ReadI32(&rq.semantics[s]));
    }
    queries->push_back(std::move(rq));
  }
  return Status::OK();
}

void WriteHarvestStats(const HarvestStats& stats, serde::Writer* w) {
  w->WriteI32(stats.table_tags);
  w->WriteI32(stats.data_tables);
  w->WriteI32(stats.tables_with_title);
  w->WriteU64(stats.verdicts.size());
  for (const auto& [verdict, count] : stats.verdicts) {
    w->WriteI32(static_cast<int32_t>(verdict));
    w->WriteI32(count);
  }
  w->WriteU64(stats.header_row_histogram.size());
  for (const auto& [rows, count] : stats.header_row_histogram) {
    w->WriteI32(rows);
    w->WriteI32(count);
  }
}

Status ReadHarvestStats(serde::Reader* r, HarvestStats* stats) {
  WWT_RETURN_NOT_OK(r->ReadI32(&stats->table_tags));
  WWT_RETURN_NOT_OK(r->ReadI32(&stats->data_tables));
  WWT_RETURN_NOT_OK(r->ReadI32(&stats->tables_with_title));
  uint64_t count;
  WWT_RETURN_NOT_OK(r->ReadU64(&count));
  WWT_RETURN_NOT_OK(r->CheckCount(count, 8));
  for (uint64_t i = 0; i < count; ++i) {
    int32_t verdict, n;
    WWT_RETURN_NOT_OK(r->ReadI32(&verdict));
    WWT_RETURN_NOT_OK(r->ReadI32(&n));
    stats->verdicts[static_cast<TableVerdict>(verdict)] = n;
  }
  WWT_RETURN_NOT_OK(r->ReadU64(&count));
  WWT_RETURN_NOT_OK(r->CheckCount(count, 8));
  for (uint64_t i = 0; i < count; ++i) {
    int32_t rows, n;
    WWT_RETURN_NOT_OK(r->ReadI32(&rows));
    WWT_RETURN_NOT_OK(r->ReadI32(&n));
    stats->header_row_histogram[rows] = n;
  }
  return Status::OK();
}

// ------------------------------------------------------------------ header

Status ParseHeader(std::string_view file, const std::string& path,
                   SnapshotInfo* info, std::string_view* payload) {
  if (file.size() < kHeaderBytes) {
    return Status::Corruption("'", path, "' is not a snapshot: ",
                              file.size(), " bytes, header needs ",
                              kHeaderBytes);
  }
  if (std::memcmp(file.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::Corruption("'", path,
                              "' is not a snapshot (bad magic)");
  }
  serde::Reader header(file.substr(sizeof(kSnapshotMagic)));
  uint32_t version, flags;
  uint64_t payload_size, checksum;
  WWT_RETURN_NOT_OK(header.ReadU32(&version));
  WWT_RETURN_NOT_OK(header.ReadU32(&flags));
  WWT_RETURN_NOT_OK(header.ReadU64(&payload_size));
  WWT_RETURN_NOT_OK(header.ReadU64(&checksum));
  if (version != kSnapshotFormatVersion) {
    return Status::InvalidArgument(
        "snapshot format version mismatch in '", path, "': file has ",
        version, ", this build reads only ", kSnapshotFormatVersion,
        " — rebuild the snapshot with wwt_indexer");
  }
  if (file.size() - kHeaderBytes != payload_size) {
    return Status::Corruption("truncated snapshot '", path, "': header says ",
                              payload_size, " payload bytes, file has ",
                              file.size() - kHeaderBytes);
  }
  // The load is zero-copy — touching every payload byte would forfeit
  // the mmap cold-start win — so the save-time checksum is trusted as a
  // content hash and integrity is enforced structurally by the section
  // readers instead.
  *payload = file.substr(kHeaderBytes);
  info->format_version = version;
  info->content_hash = checksum;
  info->file_bytes = file.size();
  return Status::OK();
}

/// Splits the payload into (tag -> body) spans, preserving bounds checks.
/// store_base/index_base are the bodies' absolute file offsets — the
/// anchor the section readers verify their alignment markers against.
struct Sections {
  std::string_view meta, store, index, truth, queries, harvest;
  size_t store_base = 0, index_base = 0;
};

Status ParseSections(std::string_view payload, Sections* out,
                     std::vector<SnapshotSection>* listing = nullptr) {
  serde::Reader r(payload);
  while (!r.exhausted()) {
    uint32_t tag;
    WWT_RETURN_NOT_OK(r.ReadU32(&tag));
    uint64_t size;
    WWT_RETURN_NOT_OK(r.ReadU64(&size));
    const size_t body_base = kHeaderBytes + r.offset();
    std::string_view body;
    WWT_RETURN_NOT_OK(r.ReadSpan(size, &body));
    if (listing != nullptr) {
      const char chars[4] = {static_cast<char>(tag),
                             static_cast<char>(tag >> 8),
                             static_cast<char>(tag >> 16),
                             static_cast<char>(tag >> 24)};
      listing->push_back({std::string(chars, sizeof(chars)), size});
    }
    switch (tag) {
      case kSecMeta: out->meta = body; break;
      case kSecStore: out->store = body; out->store_base = body_base; break;
      case kSecIndex: out->index = body; out->index_base = body_base; break;
      case kSecTruth: out->truth = body; break;
      case kSecQueries: out->queries = body; break;
      case kSecHarvest: out->harvest = body; break;
      default: break;  // unknown section: forward-compatible skip
    }
  }
  if (out->meta.data() == nullptr || out->store.data() == nullptr ||
      out->index.data() == nullptr || out->truth.data() == nullptr ||
      out->queries.data() == nullptr) {
    return Status::Corruption("snapshot is missing a required section");
  }
  return Status::OK();
}

}  // namespace

// ------------------------------------------------------------- public API

uint64_t WorkloadFingerprint(const CorpusOptions& options) {
  const std::vector<QuerySpec>& workload =
      options.workload.empty() ? Table1Workload() : options.workload;
  uint64_t h = Fnv1a("wwt-workload-v1");
  for (const QuerySpec& spec : workload) {
    h = HashCombine(h, Fnv1a(spec.name));
    h = HashCombine(h, Fnv1a(spec.topic));
    for (const QueryColumnSpec& col : spec.columns) {
      h = HashCombine(h, Fnv1a(col.keywords));
      h = HashCombine(h, Fnv1a(col.column));
    }
    h = HashCombine(h, static_cast<uint64_t>(spec.target_total));
    h = HashCombine(h, static_cast<uint64_t>(spec.target_relevant));
  }
  return h;
}

Status SaveSnapshot(const Corpus& corpus, const CorpusOptions& options,
                    const std::string& path, SnapshotInfo* info) {
  if (corpus.index == nullptr) {
    return Status::InvalidArgument("corpus has no index to snapshot");
  }
  serde::Writer payload;
  {
    size_t s = BeginSection(kSecMeta, &payload);
    WriteMeta(corpus, options, &payload);
    EndSection(s, &payload);
  }
  {
    size_t s = BeginSection(kSecStore, &payload);
    SnapshotCodec::WriteStore(corpus.store, &payload);
    EndSection(s, &payload);
  }
  {
    size_t s = BeginSection(kSecIndex, &payload);
    SnapshotCodec::WriteIndex(*corpus.index, &payload);
    EndSection(s, &payload);
  }
  {
    size_t s = BeginSection(kSecTruth, &payload);
    WriteTruth(corpus.truth, &payload);
    EndSection(s, &payload);
  }
  {
    size_t s = BeginSection(kSecQueries, &payload);
    WriteQueries(corpus.queries, &payload);
    EndSection(s, &payload);
  }
  {
    size_t s = BeginSection(kSecHarvest, &payload);
    WriteHarvestStats(corpus.harvest_stats, &payload);
    EndSection(s, &payload);
  }

  const uint64_t checksum = serde::Checksum(payload.buffer());
  serde::Writer header;
  header.WriteBytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  header.WriteU32(kSnapshotFormatVersion);
  header.WriteU32(0);  // flags, reserved
  header.WriteU64(payload.size());
  header.WriteU64(checksum);

  WWT_RETURN_NOT_OK(serde::EnsureParentDir(path));
  WWT_RETURN_NOT_OK(
      serde::WriteFileAtomic(path, {header.buffer(), payload.buffer()}));
  if (info != nullptr) {
    info->format_version = kSnapshotFormatVersion;
    info->content_hash = checksum;
    info->file_bytes = header.size() + payload.size();
    info->seed = options.seed;
    info->scale = options.scale;
    info->noise_pages = options.noise_pages;
    info->workload_hash = WorkloadFingerprint(options);
    info->num_tables = corpus.store.size();
    info->num_queries = corpus.queries.size();
    info->num_terms = corpus.index->vocab().size();
  }
  return Status::OK();
}

StatusOr<SnapshotInfo> InspectSnapshot(const std::string& path) {
  WWT_ASSIGN_OR_RETURN(serde::InputFile file, serde::InputFile::Open(path));
  SnapshotInfo info;
  std::string_view payload;
  WWT_RETURN_NOT_OK(ParseHeader(file.data(), path, &info, &payload));
  Sections sections;
  WWT_RETURN_NOT_OK(ParseSections(payload, &sections, &info.sections));
  serde::Reader meta(sections.meta);
  WWT_RETURN_NOT_OK(ReadMeta(&meta, &info));
  return info;
}

StatusOr<Corpus> LoadSnapshot(serde::InputFile file, const std::string& path,
                              SnapshotInfo* info) {
  // The mapping is shared up front so every borrowed view below points
  // into storage whose address can no longer change; the corpus takes it
  // along.
  auto mapping = std::make_shared<const serde::InputFile>(std::move(file));
  SnapshotInfo local_info;
  std::string_view payload;
  WWT_RETURN_NOT_OK(ParseHeader(mapping->data(), path, &local_info, &payload));
  Sections sections;
  WWT_RETURN_NOT_OK(ParseSections(payload, &sections));

  serde::Reader meta(sections.meta);
  WWT_RETURN_NOT_OK(ReadMeta(&meta, &local_info));

  Corpus corpus;
  {
    serde::Reader r(sections.store);
    WWT_RETURN_NOT_OK(
        SnapshotCodec::ReadStore(&r, sections.store_base, &corpus.store));
  }
  {
    serde::Reader r(sections.index);
    WWT_RETURN_NOT_OK(
        SnapshotCodec::ReadIndex(&r, sections.index_base, &corpus.index));
  }
  {
    serde::Reader r(sections.truth);
    WWT_RETURN_NOT_OK(ReadTruth(&r, &corpus.truth));
  }
  {
    serde::Reader r(sections.queries);
    WWT_RETURN_NOT_OK(ReadQueries(&r, &corpus.queries));
  }
  if (sections.harvest.data() != nullptr) {
    serde::Reader r(sections.harvest);
    WWT_RETURN_NOT_OK(ReadHarvestStats(&r, &corpus.harvest_stats));
  }

  // Cross-section sanity: META counts must agree with the decoded state.
  if (corpus.store.size() != local_info.num_tables ||
      corpus.queries.size() != local_info.num_queries ||
      corpus.index->vocab().size() != local_info.num_terms) {
    return Status::Corruption("snapshot '", path,
                              "' META counts disagree with decoded state");
  }
  if (corpus.index->num_docs() != corpus.store.size()) {
    return Status::Corruption("snapshot '", path, "' has ",
                              corpus.store.size(), " tables but ",
                              corpus.index->num_docs(), " indexed docs");
  }

  // `kb` stays null, exactly like a partitioned shard's: serving never
  // consults it, and rebuilding it (deterministic in the seed, but
  // ~1.5 ms of tuple generation) would dwarf the whole zero-copy load.
  // Anything that needs the knowledge base reconstructs it from
  // SnapshotInfo::seed.
  corpus.mapping = std::move(mapping);
  if (info != nullptr) *info = local_info;
  return corpus;
}

StatusOr<Corpus> LoadSnapshot(const std::string& path, SnapshotInfo* info) {
  WWT_ASSIGN_OR_RETURN(serde::InputFile file, serde::InputFile::Open(path));
  return LoadSnapshot(std::move(file), path, info);
}

BuildOrLoadResult BuildOrLoadCorpus(const CorpusOptions& options,
                                    const std::string& path) {
  BuildOrLoadResult result;
  WallTimer timer;
  if (!path.empty()) {
    // One open of the file: load it, then compare its recorded
    // generation parameters (an Inspect-then-Load probe would map and
    // parse it twice on every warm start).
    SnapshotInfo info;
    StatusOr<Corpus> loaded = LoadSnapshot(path, &info);
    if (loaded.ok()) {
      if (info.seed == options.seed && info.scale == options.scale &&
          info.noise_pages == options.noise_pages &&
          info.workload_hash == WorkloadFingerprint(options)) {
        result.corpus = std::move(loaded).value();
        result.info = info;
        result.loaded = true;
        result.seconds = timer.ElapsedSeconds();
        return result;
      }
      WWT_LOG(Info) << "snapshot '" << path
                    << "' was built with different parameters, rebuilding";
    } else if (!loaded.status().IsIOError()) {
      // Missing file is the normal first run; anything else is worth a
      // warning before the silent rebuild.
      WWT_LOG(Warning) << "snapshot '" << path << "' is unusable ("
                       << loaded.status().ToString() << "), rebuilding";
    }
  }

  WallTimer generate_timer;
  result.corpus = GenerateCorpus(options);
  result.generate_seconds = generate_timer.ElapsedSeconds();
  if (!path.empty()) {
    // A failed save (read-only path, full disk) must not discard the
    // corpus we just spent the real money building: warn and serve it.
    Status saved = SaveSnapshot(result.corpus, options, path, &result.info);
    if (!saved.ok()) {
      WWT_LOG(Warning) << "could not save snapshot '" << path
                       << "': " << saved.ToString()
                       << " — continuing with the in-memory corpus";
      result.info = SnapshotInfo();
    }
  }
  result.loaded = false;
  result.seconds = timer.ElapsedSeconds();
  return result;
}

std::string SnapshotPathFromEnv() {
  const char* path = std::getenv("WWT_SNAPSHOT");
  return path != nullptr ? std::string(path) : std::string();
}

// ------------------------------------------------------- sharded corpora

namespace {

/// `base.wwtset` -> `base`; anything else is returned unchanged.
std::string StripSetSuffix(const std::string& path) {
  constexpr char kSuffix[] = ".wwtset";
  constexpr size_t kSuffixLen = sizeof(kSuffix) - 1;
  if (path.size() > kSuffixLen &&
      path.compare(path.size() - kSuffixLen, kSuffixLen, kSuffix) == 0) {
    return path.substr(0, path.size() - kSuffixLen);
  }
  return path;
}

std::string ShardFileName(const std::string& manifest_path, int shard,
                          int num_shards, uint64_t file_tag) {
  const std::string base = StripSetSuffix(manifest_path);
  char suffix[96];
  if (file_tag != 0) {
    std::snprintf(suffix, sizeof(suffix),
                  ".g%llu.shard-%d-of-%d.wwtsnap",
                  static_cast<unsigned long long>(file_tag), shard,
                  num_shards);
  } else {
    std::snprintf(suffix, sizeof(suffix), ".shard-%d-of-%d.wwtsnap", shard,
                  num_shards);
  }
  return base + suffix;
}

/// Fixed manifest header: magic + version + flags + size + checksum —
/// the same framing as snapshots.
constexpr size_t kSetHeaderBytes = 8 + 4 + 4 + 8 + 8;

}  // namespace

uint64_t SetContentHash(const std::vector<uint64_t>& shard_hashes) {
  // One shard serves byte-identically to the plain snapshot, so it must
  // also fingerprint identically — the set hash IS the shard hash.
  if (shard_hashes.size() == 1) return shard_hashes[0];
  uint64_t h = Fnv1a("wwt-corpus-set-v1");
  h = HashCombine(h, shard_hashes.size());
  for (uint64_t shard_hash : shard_hashes) h = HashCombine(h, shard_hash);
  return h;
}

std::vector<Corpus> PartitionCorpus(const Corpus& corpus, int num_shards) {
  WWT_CHECK(corpus.index != nullptr) << "corpus has no index to partition";
  const size_t n = corpus.store.size();
  const size_t shards = std::max<size_t>(
      1, std::min<size_t>(static_cast<size_t>(std::max(num_shards, 1)), n));

  std::vector<Corpus> out;
  out.reserve(shards);
  TableId begin = corpus.store.first_id();
  for (size_t s = 0; s < shards; ++s) {
    // Count-balanced contiguous ranges: the first n % shards shards take
    // one extra table.
    const size_t count = n / shards + (s < n % shards ? 1 : 0);
    const TableId end = begin + static_cast<TableId>(count);
    out.push_back(SnapshotCodec::BuildShard(corpus, begin, end));
    begin = end;
  }
  return out;
}

Status SaveShardedSnapshot(const Corpus& corpus, const CorpusOptions& options,
                           const std::string& manifest_path, int num_shards,
                           SetManifest* manifest, uint64_t file_tag) {
  if (num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1, got ",
                                   num_shards);
  }
  if (corpus.index == nullptr) {
    return Status::InvalidArgument("corpus has no index to snapshot");
  }
  std::vector<Corpus> shards = PartitionCorpus(corpus, num_shards);
  const int n = static_cast<int>(shards.size());

  SetManifest m;
  m.format_version = kSetFormatVersion;
  m.seed = options.seed;
  m.scale = options.scale;
  m.noise_pages = options.noise_pages;
  m.workload_hash = WorkloadFingerprint(options);
  m.num_tables = corpus.store.size();

  std::vector<uint64_t> hashes;
  hashes.reserve(shards.size());
  for (int s = 0; s < n; ++s) {
    const std::string shard_path = ShardFileName(manifest_path, s, n,
                                                 file_tag);
    SnapshotInfo info;
    WWT_RETURN_NOT_OK(SaveSnapshot(shards[s], options, shard_path, &info));
    ShardManifestEntry entry;
    // Relative to the manifest's directory, so the whole set moves as a
    // unit.
    entry.file = shard_path.substr(serde::DirName(manifest_path).size());
    entry.content_hash = info.content_hash;
    entry.first_table_id = shards[s].store.first_id();
    entry.num_tables = shards[s].store.size();
    hashes.push_back(info.content_hash);
    m.shards.push_back(std::move(entry));
  }
  m.set_hash = SetContentHash(hashes);

  serde::Writer payload;
  payload.WriteU64(m.set_hash);
  payload.WriteU64(m.seed);
  payload.WriteDouble(m.scale);
  payload.WriteI32(m.noise_pages);
  payload.WriteU64(m.workload_hash);
  payload.WriteU64(m.num_tables);
  payload.WriteU32(static_cast<uint32_t>(m.shards.size()));
  for (const ShardManifestEntry& entry : m.shards) {
    payload.WriteString(entry.file);
    payload.WriteU64(entry.content_hash);
    payload.WriteU64(entry.first_table_id);
    payload.WriteU64(entry.num_tables);
  }

  serde::Writer header;
  header.WriteBytes(kSetMagic, sizeof(kSetMagic));
  header.WriteU32(kSetFormatVersion);
  header.WriteU32(0);  // flags, reserved
  header.WriteU64(payload.size());
  header.WriteU64(serde::Checksum(payload.buffer()));

  WWT_RETURN_NOT_OK(serde::EnsureParentDir(manifest_path));
  WWT_RETURN_NOT_OK(serde::WriteFileAtomic(
      manifest_path, {header.buffer(), payload.buffer()}));
  if (manifest != nullptr) *manifest = std::move(m);
  return Status::OK();
}

StatusOr<SetManifest> LoadSetManifest(const std::string& path) {
  WWT_ASSIGN_OR_RETURN(serde::InputFile file, serde::InputFile::Open(path));
  const std::string_view data = file.data();
  if (data.size() < kSetHeaderBytes) {
    return Status::Corruption("'", path, "' is not a corpus-set manifest: ",
                              data.size(), " bytes, header needs ",
                              kSetHeaderBytes);
  }
  if (std::memcmp(data.data(), kSetMagic, sizeof(kSetMagic)) != 0) {
    return Status::Corruption("'", path,
                              "' is not a corpus-set manifest (bad magic)");
  }
  serde::Reader header(data.substr(sizeof(kSetMagic)));
  uint32_t version, flags;
  uint64_t payload_size, checksum;
  WWT_RETURN_NOT_OK(header.ReadU32(&version));
  WWT_RETURN_NOT_OK(header.ReadU32(&flags));
  WWT_RETURN_NOT_OK(header.ReadU64(&payload_size));
  WWT_RETURN_NOT_OK(header.ReadU64(&checksum));
  if (version != kSetFormatVersion) {
    return Status::InvalidArgument(
        "corpus-set manifest version mismatch in '", path, "': file has ",
        version, ", this build reads ", kSetFormatVersion,
        " — rebuild the set with wwt_indexer --shards");
  }
  if (data.size() - kSetHeaderBytes != payload_size) {
    return Status::Corruption("truncated manifest '", path,
                              "': header says ", payload_size,
                              " payload bytes, file has ",
                              data.size() - kSetHeaderBytes);
  }
  const std::string_view payload = data.substr(kSetHeaderBytes);
  if (serde::Checksum(payload) != checksum) {
    return Status::Corruption("checksum mismatch in '", path,
                              "': manifest payload is corrupt");
  }

  SetManifest m;
  m.format_version = version;
  serde::Reader r(payload);
  WWT_RETURN_NOT_OK(r.ReadU64(&m.set_hash));
  WWT_RETURN_NOT_OK(r.ReadU64(&m.seed));
  WWT_RETURN_NOT_OK(r.ReadDouble(&m.scale));
  WWT_RETURN_NOT_OK(r.ReadI32(&m.noise_pages));
  WWT_RETURN_NOT_OK(r.ReadU64(&m.workload_hash));
  WWT_RETURN_NOT_OK(r.ReadU64(&m.num_tables));
  uint32_t count;
  WWT_RETURN_NOT_OK(r.ReadU32(&count));
  WWT_RETURN_NOT_OK(r.CheckCount(count, 32));
  if (count == 0) {
    return Status::Corruption("manifest '", path, "' lists no shards");
  }
  std::vector<uint64_t> hashes;
  uint64_t next_id = 0, total = 0;
  for (uint32_t s = 0; s < count; ++s) {
    ShardManifestEntry entry;
    WWT_RETURN_NOT_OK(r.ReadString(&entry.file));
    WWT_RETURN_NOT_OK(r.ReadU64(&entry.content_hash));
    WWT_RETURN_NOT_OK(r.ReadU64(&entry.first_table_id));
    WWT_RETURN_NOT_OK(r.ReadU64(&entry.num_tables));
    if (s == 0) {
      next_id = entry.first_table_id;
    } else if (entry.first_table_id < next_id) {
      return Status::Corruption("manifest '", path, "' shard ", s,
                                " overlaps or reorders the id ranges");
    }
    next_id = entry.first_table_id + entry.num_tables;
    total += entry.num_tables;
    hashes.push_back(entry.content_hash);
    m.shards.push_back(std::move(entry));
  }
  if (total != m.num_tables) {
    return Status::Corruption("manifest '", path, "' claims ",
                              m.num_tables, " tables but its shards sum to ",
                              total);
  }
  if (SetContentHash(hashes) != m.set_hash) {
    return Status::Corruption("manifest '", path,
                              "' set hash does not match its shard hashes");
  }
  return m;
}

std::string ResolveShardPath(const std::string& manifest_path,
                             const std::string& file) {
  if (!file.empty() && file.front() == '/') return file;
  return serde::DirName(manifest_path) + file;
}

bool IsSetManifest(const std::string& path) {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "rb"),
                                          &std::fclose);
  if (!f) return false;
  char magic[sizeof(kSetMagic)];
  if (std::fread(magic, 1, sizeof(magic), f.get()) != sizeof(magic)) {
    return false;
  }
  return std::memcmp(magic, kSetMagic, sizeof(kSetMagic)) == 0;
}

}  // namespace wwt
