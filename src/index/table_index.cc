#include "index/table_index.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "util/logging.h"

namespace wwt {
namespace {

/// Relative slack applied to WAND upper bounds before comparing against
/// the heap threshold. Upper-bound sums and real document scores round
/// differently, so a mathematically valid bound could fall a few ulps
/// below an achievable score; inflating the bound by ~1e-9 relative
/// makes wrongful pruning impossible while costing nothing measurable in
/// skip power.
inline double SafeUpper(double x) { return x + x * 1e-9; }

/// The total order of search results: score desc, doc id asc.
inline bool BetterHit(const ScoredDoc& a, const ScoredDoc& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.doc < b.doc;
}

/// Heap comparator form of BetterHit (a struct inlines where a function
/// pointer would not).
struct BetterHitCmp {
  bool operator()(const ScoredDoc& a, const ScoredDoc& b) const {
    return BetterHit(a, b);
  }
};

}  // namespace

const char* ProbeScorerName(ProbeScorer scorer) {
  switch (scorer) {
    case ProbeScorer::kWand:
      return "wand";
    case ProbeScorer::kExhaustive:
      return "exhaustive";
  }
  return "unknown";
}

bool ParseProbeScorer(const std::string& name, ProbeScorer* out) {
  if (name == "wand") {
    *out = ProbeScorer::kWand;
    return true;
  }
  if (name == "exhaustive") {
    *out = ProbeScorer::kExhaustive;
    return true;
  }
  return false;
}

size_t HeapPostingsSource::HeapBytes() const {
  size_t bytes = 0;
  for (const auto& field : postings) {
    bytes += field.capacity() * sizeof(field[0]);
    for (const auto& plist : field) {
      bytes += plist.capacity() * sizeof(Posting);
    }
  }
  for (const auto& lens : field_len) {
    bytes += lens.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

void MappedPostingsSource::AppendDocs(int field, TermId term,
                                      std::vector<TableId>* out) const {
  if (term >= num_terms) return;
  const FieldView& fv = fields[field];
  const char* p = fv.blob + fv.offsets[term];
  const char* const end = fv.blob + fv.offsets[term + 1];
  // Varint-delta stream: first doc absolute, then gaps. A garbled stream
  // can only end the list early — every read stays within [p, end).
  uint64_t prev = 0;
  bool first = true;
  while (p < end) {
    uint64_t v = 0;
    int shift = 0;
    bool complete = false;
    while (p < end && shift < 64) {
      const uint8_t b = static_cast<uint8_t>(*p++);
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        complete = true;
        break;
      }
      shift += 7;
    }
    if (!complete) break;
    const uint64_t doc = first ? v : prev + v;
    first = false;
    prev = doc;
    out->push_back(static_cast<TableId>(doc));
  }
}

TableIndex::TableIndex(IndexOptions options,
                       TokenizerOptions tokenizer_options)
    : options_(options), tokenizer_(tokenizer_options) {
  auto heap = std::make_unique<HeapPostingsSource>();
  heap_ = heap.get();
  postings_ = std::move(heap);
}

size_t TableIndex::HeapBytes() const {
  size_t bytes = postings_->HeapBytes();
  bytes += scoring_.offsets.capacity() * sizeof(uint64_t);
  bytes += scoring_.docs.capacity() * sizeof(TableId);
  bytes += scoring_.scores.capacity() * sizeof(double);
  bytes += scoring_.block_offsets.capacity() * sizeof(uint64_t);
  bytes += scoring_.block_last.capacity() * sizeof(TableId);
  bytes += scoring_.block_max.capacity() * sizeof(double);
  bytes += scoring_.term_max.capacity() * sizeof(double);
  if (!vocab_.mapped()) {
    // The term bytes plus the slot table (an estimate, not an audit:
    // string headers and allocator slack go uncounted).
    for (TermId t = 0; t < vocab_.size(); ++t) bytes += vocab_.Term(t).size();
    bytes += vocab_.num_slots() * sizeof(uint32_t);
  }
  if (!idf_.mapped()) bytes += vocab_.size() * sizeof(uint32_t);
  return bytes;
}

std::vector<TermId> TableIndex::TermsOf(const std::string& text) {
  std::vector<TermId> out;
  tokenizer_.ForEachToken(text, [this, &out](std::string_view tok) {
    out.push_back(vocab_.Intern(tok));
  });
  return out;
}

std::vector<TermId> TableIndex::QueryTerms(
    const std::vector<std::string>& keywords, bool keep_unknown) const {
  std::vector<TermId> out;
  for (const std::string& kw : keywords) {
    tokenizer_.ForEachToken(kw, [&](std::string_view tok) {
      if (options_.drop_query_stopwords && Tokenizer::IsStopword(tok)) {
        return;
      }
      std::optional<TermId> id = vocab_.Find(tok);
      if (id) {
        out.push_back(*id);
      } else if (keep_unknown) {
        out.push_back(kInvalidTerm);
      }
    });
  }
  return out;
}

std::unique_ptr<TableIndex> TableIndex::BuildPinned(const TableIndex& like,
                                                    const Vocabulary& vocab,
                                                    const IdfDictionary& idf,
                                                    const TableFeed& tables) {
  auto index = std::make_unique<TableIndex>(like.options(),
                                            like.tokenizer().options());
  index->SeedVocabulary(vocab);
  tables([&index](const WebTable& table) { index->Add(table); });
  index->InstallGlobalStats(idf);
  return index;
}

void TableIndex::Add(const WebTable& table) {
  WWT_CHECK(heap_ != nullptr) << "mapped TableIndex is immutable";
  const TableId doc = table.id;
  // lens[doc] below needs doc + 1 to fit in a TableId.
  WWT_CHECK(doc < std::numeric_limits<TableId>::max())
      << "table id " << doc << " is out of range";

  std::string header_text;
  for (const std::string& title : table.title_rows) {
    header_text += title;
    header_text += ' ';
  }
  for (const auto& row : table.header_rows) {
    for (const auto& cell : row) {
      header_text += cell;
      header_text += ' ';
    }
  }
  std::string context_text = table.ContextText();
  std::string content_text;
  for (const auto& row : table.body) {
    for (const auto& cell : row) {
      content_text += cell;
      content_text += ' ';
    }
  }

  const std::string* field_text[kNumFields] = {&header_text, &context_text,
                                               &content_text};
  std::vector<TermId> all_terms;
  for (int f = 0; f < kNumFields; ++f) {
    std::vector<TermId> terms = TermsOf(*field_text[f]);
    all_terms.insert(all_terms.end(), terms.begin(), terms.end());

    std::unordered_map<TermId, uint32_t> tf;
    for (TermId t : terms) ++tf[t];
    auto& field_postings = heap_->postings[f];
    if (vocab_.size() > field_postings.size()) {
      field_postings.resize(vocab_.size());
    }
    for (const auto& [t, count] : tf) {
      // Ids are assigned in ascending order by the store, so postings
      // remain sorted by construction; enforced here.
      auto& plist = field_postings[t];
      WWT_CHECK(plist.empty() || plist.back().doc < doc)
          << "tables must be added in ascending id order";
      plist.push_back({doc, static_cast<float>(count)});
    }
    auto& lens = heap_->field_len[f];
    if (doc >= lens.size()) lens.resize(doc + 1, 0);
    lens[doc] = static_cast<uint32_t>(terms.size());
  }
  idf_.AddDocument(all_terms);
  ++doc_count_;
  // The merged scoring layout depends on postings, lengths and IDF; any
  // previously built layout is stale. Add() never overlaps queries (the
  // class contract), so dropping it here is race-free.
  if (scoring_ready_.load(std::memory_order_relaxed)) {
    scoring_ = ScoringLayout();
    scoring_ready_.store(false, std::memory_order_release);
  }
}

void TableIndex::SeedVocabulary(const Vocabulary& vocab) {
  WWT_CHECK(heap_ != nullptr) << "mapped TableIndex is immutable";
  WWT_CHECK(doc_count_ == 0) << "SeedVocabulary must precede Add()";
  vocab_ = vocab;
}

void TableIndex::InstallGlobalStats(const IdfDictionary& idf) {
  WWT_CHECK(heap_ != nullptr) << "mapped TableIndex is immutable";
  idf_ = idf;
  // Scores depend on IDF; any previously built layout is stale. Same
  // contract as Add(): never overlaps queries.
  if (scoring_ready_.load(std::memory_order_relaxed)) {
    scoring_ = ScoringLayout();
    scoring_ready_.store(false, std::memory_order_release);
  }
}

void TableIndex::EnsureScoringLayout() const {
  if (scoring_ready_.load(std::memory_order_acquire)) return;
  MutexLock lock(scoring_mu_);
  if (scoring_ready_.load(std::memory_order_relaxed)) return;
  WWT_CHECK(heap_ != nullptr)
      << "mapped TableIndex must install its scoring view at load";

  ScoringLayout layout;
  layout.block_size = std::max<uint32_t>(1u, options_.scoring_block_size);
  const uint64_t bs = layout.block_size;
  const size_t nterms = vocab_.size();
  layout.offsets.reserve(nterms + 1);
  layout.offsets.push_back(0);
  layout.block_offsets.reserve(nterms + 1);
  layout.block_offsets.push_back(0);
  layout.term_max.reserve(nterms);
  for (size_t t = 0; t < nterms; ++t) {
    const double idf = idf_.Idf(static_cast<TermId>(t));
    const double idf2 = idf * idf;
    const std::vector<Posting>* lists[kNumFields];
    size_t pos[kNumFields];
    for (int f = 0; f < kNumFields; ++f) {
      lists[f] =
          t < heap_->postings[f].size() ? &heap_->postings[f][t] : nullptr;
      pos[f] = 0;
    }
    // Merge the (doc-sorted) per-field lists; a doc's combined score is
    // its field contributions summed in field order, which both scorers
    // then consume as one value — the source of their bit-equality.
    for (;;) {
      TableId next = 0;
      bool any = false;
      for (int f = 0; f < kNumFields; ++f) {
        if (!lists[f] || pos[f] >= lists[f]->size()) continue;
        const TableId d = (*lists[f])[pos[f]].doc;
        if (!any || d < next) {
          next = d;
          any = true;
        }
      }
      if (!any) break;
      double s = 0.0;
      for (int f = 0; f < kNumFields; ++f) {
        if (!lists[f] || pos[f] >= lists[f]->size()) continue;
        const Posting& p = (*lists[f])[pos[f]];
        if (p.doc != next) continue;
        const double len = heap_->field_len[f][p.doc] + 1.0;
        s += options_.boosts[f] * std::sqrt(p.tf) * idf2 / std::sqrt(len);
        ++pos[f];
      }
      layout.docs.push_back(next);
      layout.scores.push_back(s);
    }
    // Cut the term's merged postings into blocks: per block its last doc
    // and max contribution, per term the max over its blocks.
    const uint64_t begin = layout.offsets.back();
    const uint64_t end = layout.docs.size();
    double tmax = 0.0;
    for (uint64_t b = begin; b < end; b += bs) {
      const uint64_t be = std::min(end, b + bs);
      double bmax = 0.0;
      for (uint64_t i = b; i < be; ++i) {
        bmax = std::max(bmax, layout.scores[i]);
      }
      layout.block_last.push_back(layout.docs[be - 1]);
      layout.block_max.push_back(bmax);
      tmax = std::max(tmax, bmax);
    }
    layout.offsets.push_back(end);
    layout.block_offsets.push_back(layout.block_last.size());
    layout.term_max.push_back(tmax);
  }

  scoring_ = std::move(layout);
  scoring_ready_.store(true, std::memory_order_release);
}

ScoringView TableIndex::ViewOfScoring() const {
  if (mapped_scoring_.offsets != nullptr) return mapped_scoring_;
  ScoringView view;
  view.block_size = std::max<uint32_t>(1u, scoring_.block_size);
  view.num_terms = scoring_.offsets.empty() ? 0 : scoring_.offsets.size() - 1;
  view.offsets = scoring_.offsets.data();
  view.docs = scoring_.docs.data();
  view.scores = scoring_.scores.data();
  view.block_offsets = scoring_.block_offsets.data();
  view.block_last = scoring_.block_last.data();
  view.block_max = scoring_.block_max.data();
  view.term_max = scoring_.term_max.data();
  return view;
}

std::vector<ScoredDoc> TableIndex::Search(
    const std::vector<std::string>& keywords, int k,
    ProbeScorer scorer) const {
  std::vector<TermId> terms = QueryTerms(keywords);
  // Deduplicate query terms; repeated keywords should not double-count.
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  if (terms.empty() || k == 0) return {};

  EnsureScoringLayout();
  const ScoringView view = ViewOfScoring();
  if (scorer == ProbeScorer::kWand && k > 0) {
    return SearchWand(view, terms, k);
  }
  return SearchExhaustive(view, terms, k);
}

std::vector<ScoredDoc> TableIndex::SearchExhaustive(
    const ScoringView& view, const std::vector<TermId>& terms, int k) const {
  std::unordered_map<TableId, double> scores;
  for (TermId t : terms) {
    if (static_cast<size_t>(t) >= view.num_terms) continue;
    const uint64_t end = view.offsets[t + 1];
    for (uint64_t i = view.offsets[t]; i < end; ++i) {
      scores[view.docs[i]] += view.scores[i];
    }
  }
  std::vector<ScoredDoc> hits;
  hits.reserve(scores.size());
  for (const auto& [doc, score] : scores) hits.push_back({doc, score});
  std::sort(hits.begin(), hits.end(), BetterHit);
  if (k >= 0 && static_cast<int>(hits.size()) > k) hits.resize(k);
  return hits;
}

std::vector<ScoredDoc> TableIndex::SearchWand(
    const ScoringView& view, const std::vector<TermId>& terms, int k) const {
  const uint64_t bs = std::max<uint32_t>(1u, view.block_size);
  // Sentinel doc of an exhausted cursor; real ids are store indices and
  // never reach it. Sorts exhausted cursors to the back.
  constexpr TableId kDone = std::numeric_limits<TableId>::max();

  struct Cursor {
    TableId doc;           // view.docs[pos], cached; kDone at the end
    TermId term;
    uint64_t pos;          // current posting (absolute index)
    uint64_t end;          // term's posting range end
    uint64_t begin;        // term's posting range begin
    uint64_t block;        // current block (absolute index)
    uint64_t block_last;   // one past the current block's postings
    uint64_t block_begin;  // term's first block
    uint64_t block_end;    // term's block range end
    double term_max;       // per-term upper bound
  };
  std::vector<Cursor> cur;
  cur.reserve(terms.size());
  for (TermId t : terms) {
    if (static_cast<size_t>(t) >= view.num_terms) continue;
    const uint64_t begin = view.offsets[t];
    const uint64_t end = view.offsets[t + 1];
    if (begin == end) continue;
    Cursor c;
    c.doc = view.docs[begin];
    c.term = t;
    c.pos = begin;
    c.end = end;
    c.begin = begin;
    c.block = view.block_offsets[t];
    c.block_last = std::min(end, begin + bs);
    c.block_begin = view.block_offsets[t];
    c.block_end = view.block_offsets[t + 1];
    c.term_max = view.term_max[t];
    cur.push_back(c);
  }
  if (cur.empty()) return {};

  // Cursor order: current doc asc, ties by term id so that a pivot's
  // aligned cursors are consumed in ascending term order, matching the
  // exhaustive scorer's accumulation order bit for bit. Sorted once
  // here; every advance afterwards repairs the order incrementally (see
  // reinsert) — a from-scratch sort per iteration dominated the
  // scorer's runtime.
  auto before = [](const Cursor& a, const Cursor& b) {
    if (a.doc != b.doc) return a.doc < b.doc;
    return a.term < b.term;
  };
  std::sort(cur.begin(), cur.end(), before);

  // Min-heap of the current top-k: top() is the WORST kept hit under the
  // result order (score desc, id asc), i.e. the entry bar.
  std::priority_queue<ScoredDoc, std::vector<ScoredDoc>, BetterHitCmp> heap;
  const size_t want = static_cast<size_t>(k);

  // Advance one posting, maintaining the doc and block caches.
  auto advance_one = [&](Cursor* c) {
    if (++c->pos >= c->end) {
      c->doc = kDone;
      return;
    }
    if (c->pos >= c->block_last) {
      ++c->block;
      c->block_last = std::min(c->end, c->block_last + bs);
    }
    c->doc = view.docs[c->pos];
  };

  // NextGEQ: advance to the first posting with doc >= target, skipping
  // whole blocks via their last_doc. Callers only pass target > current
  // doc. `target` is 64-bit so last_doc + 1 cannot overflow.
  auto advance_geq = [&](Cursor* c, uint64_t target) {
    uint64_t blk = c->block;
    while (blk < c->block_end &&
           static_cast<uint64_t>(view.block_last[blk]) < target) {
      ++blk;
    }
    if (blk == c->block_end) {
      c->pos = c->end;
      c->doc = kDone;
      return;
    }
    // The block's last_doc >= target, so lower_bound lands inside it.
    const uint64_t block_first = c->begin + (blk - c->block_begin) * bs;
    const TableId* base = view.docs;
    const TableId* first = base + std::max(c->pos, block_first);
    const TableId* last = base + std::min(c->end, block_first + bs);
    c->pos = static_cast<uint64_t>(
        std::lower_bound(first, last, static_cast<TableId>(target)) - base);
    c->block = blk;
    c->block_last = std::min(c->end, block_first + bs);
    if (c->pos >= c->end) {
      // Unreachable for a well-formed layout (the block's last_doc >=
      // target), but unvalidated mapped doc values may be unsorted — stay
      // memory-safe and treat the cursor as exhausted.
      c->doc = kDone;
      return;
    }
    c->doc = view.docs[c->pos];
  };

  // Restore sorted order after the prefix [0, m) advanced: bubble each
  // advanced cursor forward into the still-sorted tail, back to front so
  // the region it moves through is already ordered. Advanced cursors
  // rarely travel far, so this is near-O(m) in practice. Exhausted
  // cursors carry the kDone sentinel, end up at the back, and are
  // popped.
  auto reinsert = [&](size_t m) {
    for (size_t i = m; i-- > 0;) {
      Cursor c = cur[i];
      size_t j = i;
      while (j + 1 < cur.size() && before(cur[j + 1], c)) {
        cur[j] = cur[j + 1];
        ++j;
      }
      cur[j] = c;
    }
    while (!cur.empty() && cur.back().doc == kDone) cur.pop_back();
  };

  while (!cur.empty()) {
    const bool full = heap.size() == want;
    const double threshold = full ? heap.top().score : 0.0;

    // Pivot: first prefix whose summed term upper bounds could still
    // enter the heap. Comparisons keep score == threshold alive — a tie
    // with a smaller doc id still displaces the current worst.
    double ub = 0.0;
    size_t pivot = cur.size();
    for (size_t i = 0; i < cur.size(); ++i) {
      ub += cur[i].term_max;
      if (!full || SafeUpper(ub) >= threshold) {
        pivot = i;
        break;
      }
    }
    if (pivot == cur.size()) break;  // no doc anywhere can enter

    const TableId pivot_doc = cur[pivot].doc;
    if (cur[0].doc == pivot_doc) {
      // All cursors up to (and possibly past) the pivot sit on
      // pivot_doc. Refine with block maxima before paying full scoring.
      size_t m = pivot + 1;
      while (m < cur.size() && cur[m].doc == pivot_doc) ++m;
      double block_ub = 0.0;
      for (size_t i = 0; i < m; ++i) {
        block_ub += view.block_max[cur[i].block];
      }
      if (full && SafeUpper(block_ub) < threshold) {
        // The current blocks cannot produce a qualifying doc: jump past
        // the nearest block boundary (or to the next cursor's doc).
        uint64_t target = UINT64_MAX;
        for (size_t i = 0; i < m; ++i) {
          target = std::min(
              target,
              static_cast<uint64_t>(view.block_last[cur[i].block]) + 1);
        }
        if (m < cur.size()) {
          target = std::min(target, static_cast<uint64_t>(cur[m].doc));
        }
        for (size_t i = 0; i < m; ++i) advance_geq(&cur[i], target);
      } else {
        // Full evaluation: one contribution per aligned cursor, summed
        // in ascending term order (the cursor order's tie-break).
        double s = 0.0;
        for (size_t i = 0; i < m; ++i) s += view.scores[cur[i].pos];
        const ScoredDoc hit{pivot_doc, s};
        if (!full) {
          heap.push(hit);
        } else if (BetterHit(hit, heap.top())) {
          heap.pop();
          heap.push(hit);
        }
        for (size_t i = 0; i < m; ++i) advance_one(&cur[i]);
      }
      reinsert(m);
    } else {
      // Cursors before the pivot are on smaller docs that cannot qualify
      // alone; skip the first one forward to the pivot doc.
      advance_geq(&cur[0], pivot_doc);
      reinsert(1);
    }
  }

  std::vector<ScoredDoc> hits(heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    hits[i] = heap.top();
    heap.pop();
  }
  return hits;
}

std::vector<TableId> TableIndex::DocsWithTerm(
    TermId term, std::initializer_list<Field> fields) const {
  std::vector<TableId> out;
  for (Field field : fields) {
    postings_->AppendDocs(static_cast<int>(field), term, &out);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

namespace {
std::vector<TableId> IntersectSorted(const std::vector<TableId>& a,
                                     const std::vector<TableId>& b) {
  std::vector<TableId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}
}  // namespace

std::vector<TableId> TableIndex::MatchAllInHeaderOrContext(
    const std::vector<std::string>& keywords) const {
  std::vector<TermId> terms = QueryTerms(keywords, /*keep_unknown=*/true);
  if (terms.empty()) return {};
  std::vector<TableId> docs;
  bool first = true;
  for (TermId t : terms) {
    if (t == kInvalidTerm) return {};  // unknown term: no doc matches
    auto with = DocsWithTerm(t, {Field::kHeader, Field::kContext});
    docs = first ? std::move(with) : IntersectSorted(docs, with);
    first = false;
    if (docs.empty()) break;
  }
  return docs;
}

std::vector<TableId> TableIndex::MatchAllInContent(
    const std::vector<std::string>& keywords) const {
  std::vector<TermId> terms = QueryTerms(keywords, /*keep_unknown=*/true);
  if (terms.empty()) return {};
  std::vector<TableId> docs;
  bool first = true;
  for (TermId t : terms) {
    if (t == kInvalidTerm) return {};
    auto with = DocsWithTerm(t, {Field::kContent});
    docs = first ? std::move(with) : IntersectSorted(docs, with);
    first = false;
    if (docs.empty()) break;
  }
  return docs;
}

}  // namespace wwt
