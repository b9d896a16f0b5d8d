// Copyright 2026 The WWT Authors
//
// Feature tests with hand-computed expected values. The index fixture
// gives every term document frequency 1, so all IDF weights are equal
// and the Eq. 1 arithmetic can be verified by hand: with k distinct
// equal-weight tokens, ||P||^2/||Q||^2 = |P|/|Q| and cosine reduces to
// |P ∩ H| / sqrt(|P| |H|).
//
// The one segmentation walk is also checked against the per-call walk it
// replaced, kept here as the oracle: a SparseVector per header row and
// per split, and SegSim, Cover and R(Q, t) each walking the splits on
// their own. SegSim, Cover, R(Q, t) and theta must match it bit for bit,
// on hand cases and on every retrieved candidate of the workload.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/features.h"
#include "core/potentials.h"
#include "corpus/corpus_generator.h"
#include "table/labels.h"
#include "wwt/engine.h"

namespace wwt {
namespace {

// ------------------------------------------------------ reference oracle

double ReferenceOutSim(const PartReliability& p, const QueryColumn& ql,
                       size_t s_begin, size_t s_end, const CandidateTable& t,
                       int r, int c) {
  if (s_begin >= s_end) return 0;
  double norm_s = 0;
  for (size_t i = s_begin; i < s_end; ++i) {
    norm_s += ql.term_weight[i] * ql.term_weight[i];
  }
  if (norm_s <= 0) return 0;
  const CandidateColumn& col = t.cols[c];
  double out = 0;
  for (size_t i = s_begin; i < s_end; ++i) {
    const TermId w = ql.terms[i];
    double miss = 1.0;
    if (CandidateTable::Contains(t.title_terms, w)) miss *= 1.0 - p.title;
    if (CandidateTable::Contains(t.context_terms, w)) {
      miss *= 1.0 - p.context;
    }
    for (int r2 = 0; r2 < t.num_header_rows; ++r2) {
      if (r2 == r) continue;
      const auto& terms = col.header_terms[r2];
      if (std::find(terms.begin(), terms.end(), w) != terms.end()) {
        miss *= 1.0 - p.other_header_row;
        break;
      }
    }
    for (int c2 = 0; c2 < t.num_cols; ++c2) {
      if (c2 == c) continue;
      const auto& terms = t.cols[c2].header_terms[r];
      if (std::find(terms.begin(), terms.end(), w) != terms.end()) {
        miss *= 1.0 - p.other_header_col;
        break;
      }
    }
    if (CandidateTable::Contains(t.frequent_terms_all, w)) {
      miss *= 1.0 - p.frequent_body;
    }
    const double ti2 = ql.term_weight[i] * ql.term_weight[i];
    out += ti2 / norm_s * (1.0 - miss);
  }
  return out;
}

double ReferenceSegmented(const CorpusStats& stats, const PartReliability& p,
                          const QueryColumn& ql, const CandidateTable& t,
                          int c, bool cover_mode) {
  const size_t m = ql.terms.size();
  if (m == 0 || ql.norm_squared <= 0) return 0;
  if (t.num_header_rows == 0) return 0;
  const CandidateColumn& col = t.cols[c];
  double best = 0;
  for (int r = 0; r < t.num_header_rows; ++r) {
    const std::vector<TermId>& hrc = col.header_terms[r];
    if (hrc.empty()) continue;
    SparseVector hvec;
    for (TermId w : hrc) hvec.Add(w, stats.idf().Idf(w));
    hvec.Compact();
    auto in_sim = [&](size_t b, size_t e, double* norm_sq, bool* intersects) {
      SparseVector pvec;
      double ns = 0;
      bool hit = false;
      for (size_t i = b; i < e; ++i) {
        pvec.Add(ql.terms[i], ql.term_weight[i]);
        ns += ql.term_weight[i] * ql.term_weight[i];
        if (std::find(hrc.begin(), hrc.end(), ql.terms[i]) != hrc.end()) {
          hit = true;
        }
      }
      pvec.Compact();
      *norm_sq = ns;
      *intersects = hit;
      if (!hit || ns <= 0) return 0.0;
      if (cover_mode) {
        double covered = 0;
        for (size_t i = b; i < e; ++i) {
          if (std::find(hrc.begin(), hrc.end(), ql.terms[i]) != hrc.end()) {
            covered += ql.term_weight[i] * ql.term_weight[i];
          }
        }
        return covered / ns;
      }
      return SparseVector::Cosine(pvec, hvec);
    };
    for (size_t k = 0; k <= m; ++k) {
      {
        double norm_p = 0;
        bool hit = false;
        double in = in_sim(0, k, &norm_p, &hit);
        if (hit) {
          double out = ReferenceOutSim(p, ql, k, m, t, r, c);
          double norm_s = ql.norm_squared - norm_p;
          best = std::max(best, norm_p / ql.norm_squared * in +
                                    norm_s / ql.norm_squared * out);
        }
      }
      {
        double norm_p = 0;
        bool hit = false;
        double in = in_sim(k, m, &norm_p, &hit);
        if (hit) {
          double out = ReferenceOutSim(p, ql, 0, k, t, r, c);
          double norm_s = ql.norm_squared - norm_p;
          best = std::max(best, norm_p / ql.norm_squared * in +
                                    norm_s / ql.norm_squared * out);
        }
      }
    }
  }
  return best;
}

double ReferenceSegSim(const CorpusStats& stats, const FeatureOptions& o,
                       const QueryColumn& ql, const CandidateTable& t,
                       int c) {
  if (o.unsegmented) {
    return SparseVector::Cosine(ql.vec, t.cols[c].header_vec);
  }
  return ReferenceSegmented(stats, o.reliability, ql, t, c, false);
}

double ReferenceCover(const CorpusStats& stats, const FeatureOptions& o,
                      const QueryColumn& ql, const CandidateTable& t, int c) {
  if (o.unsegmented) {
    if (ql.norm_squared <= 0) return 0;
    double covered = 0;
    for (size_t i = 0; i < ql.terms.size(); ++i) {
      if (t.cols[c].header_vec.Get(ql.terms[i]) > 0) {
        covered += ql.term_weight[i] * ql.term_weight[i];
      }
    }
    return covered / ql.norm_squared;
  }
  return ReferenceSegmented(stats, o.reliability, ql, t, c, true);
}

double ReferenceTableRelevance(const CorpusStats& stats,
                               const FeatureOptions& o, const Query& query,
                               const CandidateTable& t) {
  double total = 0;
  for (const QueryColumn& ql : query.cols) {
    double best = 0;
    for (int c = 0; c < t.num_cols; ++c) {
      best = std::max(best, ReferenceCover(stats, o, ql, t, c));
    }
    total += best;
  }
  const double threshold = std::min<double>(query.q(), 1.5);
  const double clipped = total < threshold ? 0.0 : total;
  return clipped / query.q();
}

std::vector<std::vector<double>> ReferenceNodePotentials(
    const CorpusStats& stats, const FeatureOptions& o, const Query& query,
    const CandidateTable& t, const MapperWeights& weights) {
  const int q = query.q();
  const int nt = t.num_cols;
  std::vector<std::vector<double>> theta(
      nt, std::vector<double>(NumLabels(q), 0.0));
  const double r = ReferenceTableRelevance(stats, o, query, t);
  const double nr_potential =
      weights.w4 * (std::min<double>(q, nt) / std::max(nt, 1)) * (1.0 - r);
  for (int c = 0; c < nt; ++c) {
    for (int l = 0; l < q; ++l) {
      double score =
          weights.w1 * ReferenceSegSim(stats, o, query.cols[l], t, c) +
          weights.w2 * ReferenceCover(stats, o, query.cols[l], t, c);
      theta[c][l] = score + weights.w5;
    }
    theta[c][NaLabel(q)] = 0.0;
    theta[c][NrLabel(q)] = nr_potential;
  }
  return theta;
}

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

/// Every feature of `t` through the one walk, against the reference:
/// SegSim, Cover, R(Q, t) and theta, by their bits.
void ExpectMatchesReference(const CorpusStats& stats,
                            const FeatureOptions& options,
                            const Query& query, const CandidateTable& t,
                            const std::string& where) {
  FeatureComputer f(&stats, options);
  const TableFeatures& table = f.Compute(query, t);
  const int nt = t.num_cols;
  ASSERT_EQ(table.seg_sim.size(), static_cast<size_t>(query.q() * nt));
  ASSERT_EQ(table.cover.size(), static_cast<size_t>(query.q() * nt));
  for (int l = 0; l < query.q(); ++l) {
    for (int c = 0; c < nt; ++c) {
      const std::string at =
          where + " l=" + std::to_string(l) + " c=" + std::to_string(c);
      const double seg = ReferenceSegSim(stats, options, query.cols[l], t, c);
      const double cover =
          ReferenceCover(stats, options, query.cols[l], t, c);
      EXPECT_TRUE(SameBits(table.seg_sim[l * nt + c], seg))
          << at << ": " << table.seg_sim[l * nt + c] << " vs " << seg;
      EXPECT_TRUE(SameBits(table.cover[l * nt + c], cover))
          << at << ": " << table.cover[l * nt + c] << " vs " << cover;
    }
  }
  const double relevance =
      ReferenceTableRelevance(stats, options, query, t);
  EXPECT_TRUE(SameBits(table.relevance, relevance))
      << where << ": R " << table.relevance << " vs " << relevance;

  const MapperWeights weights;
  const std::vector<std::vector<double>> theta =
      ComputeNodePotentials(query, t, &f, weights, /*use_pmi2=*/false);
  const std::vector<std::vector<double>> want =
      ReferenceNodePotentials(stats, options, query, t, weights);
  ASSERT_EQ(theta.size(), want.size()) << where;
  for (size_t c = 0; c < want.size(); ++c) {
    ASSERT_EQ(theta[c].size(), want[c].size()) << where;
    for (size_t l = 0; l < want[c].size(); ++l) {
      EXPECT_TRUE(SameBits(theta[c][l], want[c][l]))
          << where << " theta[" << c << "][" << l << "]";
    }
  }
}

class FeaturesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One document holding every term once: uniform IDF.
    WebTable vocab_doc;
    vocab_doc.id = 0;
    vocab_doc.num_cols = 1;
    vocab_doc.body = {{"nobel prize winner main areas explored band name "
                       "black metal genre year country dutch oceania"}};
    index_.Add(vocab_doc);
  }

  Query MakeQuery(const std::vector<std::string>& cols) {
    return Query::Parse(cols, index_);
  }

  CandidateTable MakeCandidate(
      const std::vector<std::string>& title_rows,
      const std::vector<std::string>& context,
      const std::vector<std::vector<std::string>>& header_rows,
      const std::vector<std::vector<std::string>>& body) {
    WebTable t;
    t.id = 1;
    t.num_cols = header_rows.empty()
                     ? (body.empty() ? 1 : static_cast<int>(body[0].size()))
                     : static_cast<int>(header_rows[0].size());
    t.title_rows = title_rows;
    for (const std::string& c : context) t.context.push_back({c, 1.0});
    t.header_rows = header_rows;
    t.body = body;
    return CandidateTable::Build(std::move(t), index_);
  }

  TableIndex index_;
};

// ---------------------------------------------------------------- SegSim

TEST_F(FeaturesTest, SegSimPureHeaderMatch) {
  // Full query in the header: SegSim = cosine = 1.
  Query q = MakeQuery({"winner"});
  CandidateTable t = MakeCandidate({}, {}, {{"Winner", "Year"}},
                                   {{"A", "2001"}});
  FeatureComputer f(&index_);
  EXPECT_NEAR(f.Compute(q, t).seg_sim[0], 1.0, 1e-9);
}

TEST_F(FeaturesTest, SegSimZeroWithoutHeaders) {
  // No header rows: no valid segmentation can pin the query to a column.
  Query q = MakeQuery({"winner"});
  CandidateTable t = MakeCandidate({}, {"winner list"}, {},
                                   {{"A"}, {"B"}});
  FeatureComputer f(&index_);
  EXPECT_DOUBLE_EQ(f.Compute(q, t).seg_sim[0], 0.0);
}

TEST_F(FeaturesTest, SegSimZeroWithoutHeaderIntersection) {
  // Context matches but the header shares no token: table-level matches
  // must not count for unrelated columns (Eq. 1's P ∩ H != {} guard).
  Query q = MakeQuery({"winner"});
  CandidateTable t = MakeCandidate({}, {"winner list"}, {{"Name"}},
                                   {{"A"}});
  FeatureComputer f(&index_);
  EXPECT_DOUBLE_EQ(f.Compute(q, t).seg_sim[0], 0.0);
}

TEST_F(FeaturesTest, SegSimSplitsQueryAcrossHeaderAndContext) {
  // The paper's "Nobel prize winner" case: "winner" in the header,
  // "Nobel prize" in the context. With uniform weights:
  //   score = (1/3)*inSim([winner],[winner])
  //         + (2/3)*outSim([nobel,prize]) = 1/3 + 2/3*0.9 = 0.9333.
  Query q = MakeQuery({"nobel prize winner"});
  CandidateTable t = MakeCandidate(
      {}, {"list of nobel prize recipients"}, {{"Winner", "Year"}},
      {{"A", "2001"}});
  FeatureComputer f(&index_);
  EXPECT_NEAR(f.Compute(q, t).seg_sim[0], 1.0 / 3 + 2.0 / 3 * 0.9, 1e-9);
}

TEST_F(FeaturesTest, SegSimBeatsUnsegmentedCosineOnSplitQueries) {
  Query q = MakeQuery({"nobel prize winner"});
  CandidateTable t = MakeCandidate(
      {}, {"list of nobel prize recipients"}, {{"Winner", "Year"}},
      {{"A", "2001"}});
  FeatureOptions unseg;
  unseg.unsegmented = true;
  FeatureComputer segmented(&index_), unsegmented(&index_, unseg);
  EXPECT_GT(segmented.Compute(q, t).seg_sim[0],
            unsegmented.Compute(q, t).seg_sim[0] + 0.3);
}

TEST_F(FeaturesTest, SegSimMultiRowHeaderUsesBestRowPlusHc) {
  // Fig. 1 Table 1, column 3: header split "Main areas" / "explored".
  // Best row is r=1 ("explored"): inSim = 1, and "areas" matches the
  // other header row of the same column (part Hc, reliability 0.5):
  //   score = 1/2*1 + 1/2*0.5 = 0.75.
  Query q = MakeQuery({"areas explored"});
  CandidateTable t = MakeCandidate(
      {}, {}, {{"Main areas", "Name"}, {"explored", ""}},
      {{"Oceania", "Tasman"}});
  FeatureComputer f(&index_);
  EXPECT_NEAR(f.Compute(q, t).seg_sim[0], 0.75, 1e-9);
}

TEST_F(FeaturesTest, SegSimIgnoresSpuriousSecondHeaderRow) {
  // Fig. 1 Table 2: an annotation row must not dilute the match the way
  // full concatenation would. Expect the single-best row to win: 1.0.
  Query q = MakeQuery({"winner"});
  CandidateTable t = MakeCandidate(
      {}, {}, {{"Winner", "Year"}, {"chronological order", ""}},
      {{"A", "2001"}});
  FeatureComputer f(&index_);
  EXPECT_NEAR(f.Compute(q, t).seg_sim[0], 1.0, 1e-9);
}

TEST_F(FeaturesTest, SegSimUsesFrequentBodyContent) {
  // The "Black metal bands" case: "band" in the header, "black metal"
  // frequent in the genre column (part B, reliability 0.8):
  //   score = (1/3)*inSim([band],[band,name]) + (2/3)*0.8.
  Query q = MakeQuery({"black metal bands"});
  CandidateTable t = MakeCandidate(
      {}, {}, {{"Band name", "Genre"}},
      {{"Alpha", "Black metal"},
       {"Beta", "Black metal"},
       {"Gamma", "Death metal"}});
  FeatureComputer f(&index_);
  const double in_sim = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(f.Compute(q, t).seg_sim[0],
              1.0 / 3 * in_sim + 2.0 / 3 * 0.8, 1e-9);
}

TEST_F(FeaturesTest, SegSimUsesOtherColumnHeaders) {
  // The "dog breeds" case: header "dog" on one column, "breed" on
  // another; mapping the "breed" column uses part Hr (reliability 1.0):
  //   score = 1/2*1 + 1/2*1.0 = 1.0.
  WebTable vocab2;
  vocab2.id = 2;
  vocab2.num_cols = 1;
  vocab2.body = {{"dog breed"}};
  index_.Add(vocab2);
  Query q = MakeQuery({"dog breeds"});
  CandidateTable t = MakeCandidate({}, {}, {{"Dog", "Breed"}},
                                   {{"Rex", "Beagle"}});
  FeatureComputer f(&index_);
  EXPECT_NEAR(f.Compute(q, t).seg_sim[1], 1.0, 1e-9);
}

TEST_F(FeaturesTest, SegSimMultiPartMatchesDecayExponentially) {
  // A token matching title (1.0 reliability) and context (0.9) together:
  // 1 - (1-1.0)(1-0.9) = 1.0 — capped by the noisy-or, not additive.
  Query q = MakeQuery({"nobel winner"});
  CandidateTable t = MakeCandidate(
      {"nobel"}, {"nobel"}, {{"Winner"}}, {{"A"}});
  FeatureComputer f(&index_);
  EXPECT_NEAR(f.Compute(q, t).seg_sim[0], 0.5 * 1.0 + 0.5 * 1.0, 1e-9);
}

TEST_F(FeaturesTest, SegSimEmptyQuery) {
  Query q = MakeQuery({""});
  CandidateTable t = MakeCandidate({}, {}, {{"Winner"}}, {{"A"}});
  FeatureComputer f(&index_);
  EXPECT_DOUBLE_EQ(f.Compute(q, t).seg_sim[0], 0.0);
}

// ----------------------------------------------------------------- Cover

TEST_F(FeaturesTest, CoverFullWhenAllTokensPresent) {
  Query q = MakeQuery({"nobel prize winner"});
  CandidateTable t = MakeCandidate(
      {}, {"nobel prize"}, {{"Winner", "Year"}}, {{"A", "2001"}});
  FeatureComputer f(&index_);
  EXPECT_NEAR(f.Compute(q, t).cover[0], 1.0 / 3 + 2.0 / 3 * 0.9, 1e-9);
}

TEST_F(FeaturesTest, CoverHigherThanSegSimOnPartialHeaders) {
  // Header "winner year": inSim cosine dilutes by the extra header token
  // but coverage does not.
  Query q = MakeQuery({"winner"});
  CandidateTable t = MakeCandidate({}, {}, {{"Winner Year"}}, {{"A"}});
  FeatureComputer f(&index_);
  EXPECT_NEAR(f.Compute(q, t).cover[0], 1.0, 1e-9);
  EXPECT_NEAR(f.Compute(q, t).seg_sim[0], 1.0 / std::sqrt(2.0), 1e-9);
}

// ------------------------------------------------------------------ PMI2

TEST_F(FeaturesTest, Pmi2CountsCooccurrence) {
  // Corpus: two tables whose header matches the query AND whose content
  // contains the cell value, out of controlled totals.
  TableIndex index;
  auto add = [&](TableId id, const std::string& header,
                 const std::string& content) {
    WebTable t;
    t.id = id;
    t.num_cols = 1;
    if (!header.empty()) t.header_rows = {{header}};
    t.body = {{content}};
    index.Add(t);
  };
  add(0, "breed", "beagle");   // in H(Q) and B(beagle)
  add(1, "breed", "beagle");   // in H(Q) and B(beagle)
  add(2, "breed", "poodle");   // in H(Q) only
  add(3, "name", "beagle");    // in B(beagle) only
  // |H| = 3, |B| = 3, |H ∩ B| = 2 -> per-row PMI2 = 4/9.
  Query q = Query::Parse({"breed"}, index);
  WebTable cand;
  cand.id = 99;
  cand.num_cols = 1;
  cand.body = {{"beagle"}};
  CandidateTable t = CandidateTable::Build(std::move(cand), index);
  FeatureComputer f(&index);
  EXPECT_NEAR(f.Pmi2(q.cols[0], t, 0), 4.0 / 9.0, 1e-9);
}

TEST_F(FeaturesTest, Pmi2ZeroWhenQueryUnseen) {
  Query q = MakeQuery({"winner"});
  CandidateTable t = MakeCandidate({}, {}, {{"Name"}}, {{"zzz"}});
  FeatureComputer f(&index_);
  EXPECT_DOUBLE_EQ(f.Pmi2(q.cols[0], t, 0), 0.0);
}

// --------------------------------------------------------------- R(Q, t)

TEST_F(FeaturesTest, TableRelevanceClipsLowCoverage) {
  // Two-column query; only one column covered => sum = 1 < 1.5 => R = 0.
  Query q = MakeQuery({"winner", "country"});
  CandidateTable t = MakeCandidate({}, {}, {{"Winner", "Name"}},
                                   {{"A", "B"}});
  FeatureComputer f(&index_);
  EXPECT_DOUBLE_EQ(f.Compute(q, t).relevance, 0.0);
}

TEST_F(FeaturesTest, TableRelevancePassesFullCoverage) {
  Query q = MakeQuery({"winner", "country"});
  CandidateTable t = MakeCandidate({}, {}, {{"Winner", "Country"}},
                                   {{"A", "B"}});
  FeatureComputer f(&index_);
  EXPECT_NEAR(f.Compute(q, t).relevance, 1.0, 1e-9);
}

TEST_F(FeaturesTest, TableRelevanceSingleColumnNeedsFullCover) {
  Query q = MakeQuery({"nobel prize winner"});
  // Header covers only "winner" (1/3): below the min(q,1.5)=1 threshold.
  CandidateTable t = MakeCandidate({}, {}, {{"Winner"}}, {{"A"}});
  FeatureComputer f(&index_);
  EXPECT_DOUBLE_EQ(f.Compute(q, t).relevance, 0.0);
}

// --------------------------------------------------------- Node potential

TEST_F(FeaturesTest, NodePotentialShape) {
  Query q = MakeQuery({"winner", "country"});
  CandidateTable t = MakeCandidate({}, {}, {{"Winner", "Name"}},
                                   {{"A", "B"}});
  FeatureComputer f(&index_);
  MapperWeights w;
  auto theta = ComputeNodePotentials(q, t, &f, w, /*use_pmi2=*/false);
  ASSERT_EQ(theta.size(), 2u);
  ASSERT_EQ(theta[0].size(), 4u);  // q + na + nr
  // Winner column strongly prefers label 0.
  EXPECT_GT(theta[0][0], theta[0][1]);
  // na is exactly zero.
  EXPECT_DOUBLE_EQ(theta[0][NaLabel(2)], 0.0);
  // nr equals w4 * (min(q,nt)/nt) * (1 - R); R=0 here (cover sum = 1).
  EXPECT_NEAR(theta[0][NrLabel(2)], w.w4 * 1.0, 1e-9);
  // Both columns share the table-level nr potential.
  EXPECT_DOUBLE_EQ(theta[0][NrLabel(2)], theta[1][NrLabel(2)]);
}

// ------------------------------------------------------ one-walk oracle

TEST_F(FeaturesTest, OneWalkMatchesReferenceOnHandCases) {
  WebTable vocab2;
  vocab2.id = 2;
  vocab2.num_cols = 1;
  vocab2.body = {{"winner prize nobel year"}};
  index_.Add(vocab2);  // unequal IDF weights from here on
  const CandidateTable headed = MakeCandidate(
      {"nobel"}, {"list of nobel prize recipients"},
      {{"Winner Winner", "Year", "Country"}, {"prize", "", "nobel winner"}},
      {{"A", "2001", "Dutch"}, {"B", "2002", "Dutch"}});
  const CandidateTable empty_header_row = MakeCandidate(
      {}, {"nobel prize"}, {{"", "Winner"}, {"", ""}},
      {{"A", "B"}, {"C", "D"}});
  const CandidateTable no_header = MakeCandidate(
      {"nobel prize winner"}, {}, {}, {{"A", "B"}, {"C", "D"}});
  const std::vector<std::pair<std::string, Query>> queries = {
      {"plain", MakeQuery({"nobel prize winner", "year"})},
      {"duplicate terms",
       MakeQuery({"winner prize winner", "nobel nobel nobel", "year"})},
      {"no known terms", MakeQuery({"qqqzzz", "winner"})},
      {"single term", MakeQuery({"winner"})},
  };
  FeatureOptions unsegmented;
  unsegmented.unsegmented = true;
  for (const auto& [name, query] : queries) {
    for (const auto& [tname, table] :
         {std::make_pair("headed", &headed),
          std::make_pair("empty header row", &empty_header_row),
          std::make_pair("no header rows", &no_header)}) {
      ExpectMatchesReference(index_, {}, query, *table,
                             name + " / " + tname);
      ExpectMatchesReference(index_, unsegmented, query, *table,
                             name + " / " + tname + " / unsegmented");
    }
  }
  // The duplicate-term query really has duplicates, and the unknown
  // column really has no terms.
  EXPECT_EQ(queries[1].second.cols[1].terms.size(), 3u);
  EXPECT_TRUE(queries[2].second.cols[0].terms.empty());
}

TEST(WorkloadFeaturesTest, EveryRetrievedCandidateMatchesReference) {
  CorpusOptions corpus_options;
  corpus_options.seed = 42;
  corpus_options.scale = 0.25;
  const Corpus corpus = GenerateCorpus(corpus_options);
  ASSERT_FALSE(corpus.queries.empty());
  WwtEngine engine(&corpus.store, corpus.index.get(), {});
  size_t pairs = 0;
  for (size_t i = 0; i < corpus.queries.size(); ++i) {
    std::vector<std::string> columns;
    for (const QueryColumnSpec& col : corpus.queries[i].spec.columns) {
      columns.push_back(col.keywords);
    }
    const Query query = Query::Parse(columns, *corpus.index);
    const RetrievalResult retrieval = engine.Retrieve(query, nullptr);
    for (const CandidateTable& t : retrieval.tables) {
      ExpectMatchesReference(*corpus.index, {}, query, t,
                             "query #" + std::to_string(i) + " " +
                                 corpus.queries[i].spec.name + " table " +
                                 std::to_string(t.table.id));
      pairs += static_cast<size_t>(query.q() * t.num_cols);
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GT(pairs, 0u);
}

TEST_F(FeaturesTest, ExternalLabelConversion) {
  EXPECT_EQ(ToExternalLabel(0, 3), 0);
  EXPECT_EQ(ToExternalLabel(2, 3), 2);
  EXPECT_EQ(ToExternalLabel(NaLabel(3), 3), kLabelNa);
  EXPECT_EQ(ToExternalLabel(NrLabel(3), 3), kLabelNr);
}

}  // namespace
}  // namespace wwt
