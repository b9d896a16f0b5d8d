// Copyright 2026 The WWT Authors
//
// The serving API contract that needs no corpus: option validation
// (every rejected field), request validation, the submit-time error
// order (InvalidArgument -> DeadlineExceeded -> FailedPrecondition),
// and fingerprint canonicalization/stability. Fast: runs in the CI
// unit tier on every PR.

#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "wwt/service.h"

namespace wwt {
namespace {

// ---------------------------------------------------- option validation

TEST(ValidateEngineOptionsTest, DefaultOptionsAreValid) {
  EXPECT_TRUE(ValidateEngineOptions(EngineOptions{}).ok());
}

TEST(ValidateEngineOptionsTest, AcceptsEdgeOptionBoundaries) {
  EngineOptions o;
  o.mapper.edges.sim_floor = 1.0;
  o.mapper.edges.content_weight = 1.0;
  o.mapper.edges.nsim_lambda = 0.0;
  EXPECT_TRUE(ValidateEngineOptions(o).ok());
  o.mapper.edges.sim_floor = 1e-9;
  o.mapper.edges.content_weight = 1e-9;
  EXPECT_TRUE(ValidateEngineOptions(o).ok());
}

TEST(ValidateEngineOptionsTest, RejectsEachBadField) {
  struct Case {
    const char* field;
    void (*mutate)(EngineOptions*);
  };
  const Case cases[] = {
      {"probe1_k", [](EngineOptions* o) { o->probe1_k = -3; }},
      {"probe2_k", [](EngineOptions* o) { o->probe2_k = 0; }},
      {"score_floor_fraction",
       [](EngineOptions* o) { o->score_floor_fraction = 1.5; }},
      {"score_floor_fraction",
       [](EngineOptions* o) { o->score_floor_fraction = -0.1; }},
      {"sample_rows", [](EngineOptions* o) { o->sample_rows = -1; }},
      {"confident_prob", [](EngineOptions* o) { o->confident_prob = 2.0; }},
      {"max_candidates", [](EngineOptions* o) { o->max_candidates = 0; }},
      {"mapper.confidence_threshold",
       [](EngineOptions* o) { o->mapper.confidence_threshold = -0.5; }},
      {"mapper.prob_temperature",
       [](EngineOptions* o) { o->mapper.prob_temperature = 0.0; }},
      {"mapper.edges.sim_floor",
       [](EngineOptions* o) { o->mapper.edges.sim_floor = 0.0; }},
      {"mapper.edges.sim_floor",
       [](EngineOptions* o) { o->mapper.edges.sim_floor = 1.5; }},
      {"mapper.edges.sim_floor",
       [](EngineOptions* o) { o->mapper.edges.sim_floor = std::nan(""); }},
      {"mapper.edges.content_weight",
       [](EngineOptions* o) { o->mapper.edges.content_weight = 0.0; }},
      {"mapper.edges.content_weight",
       [](EngineOptions* o) { o->mapper.edges.content_weight = 1.01; }},
      {"mapper.edges.content_weight",
       [](EngineOptions* o) {
         o->mapper.edges.content_weight = std::nan("");
       }},
      {"mapper.edges.nsim_lambda",
       [](EngineOptions* o) { o->mapper.edges.nsim_lambda = -0.1; }},
      {"mapper.edges.nsim_lambda",
       [](EngineOptions* o) { o->mapper.edges.nsim_lambda = std::nan(""); }},
      {"mapper.edges.nsim_lambda",
       [](EngineOptions* o) {
         o->mapper.edges.nsim_lambda = std::numeric_limits<double>::infinity();
       }},
      {"consolidator.max_rows",
       [](EngineOptions* o) { o->consolidator.max_rows = 0; }},
      {"consolidator.min_relevance_prob",
       [](EngineOptions* o) { o->consolidator.min_relevance_prob = 1.01; }},
  };
  for (const Case& c : cases) {
    EngineOptions options;
    c.mutate(&options);
    Status status = ValidateEngineOptions(options);
    EXPECT_TRUE(status.IsInvalidArgument()) << c.field;
    // The message names the offending field.
    EXPECT_NE(status.message().find(c.field), std::string::npos)
        << status.ToString();
  }
}

TEST(ValidateServiceOptionsTest, RejectsBadEngineAndThreads) {
  ServiceOptions options;
  options.engine.probe1_k = -1;
  EXPECT_TRUE(ValidateServiceOptions(options).IsInvalidArgument());

  options = ServiceOptions{};
  options.num_threads = -2;
  Status status = ValidateServiceOptions(options);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("num_threads"), std::string::npos);
}

// Regression for the Borrow hash hole: a borrowed handle with hash 0
// must get the same process-unique synthetic remap as Own, so two
// distinct borrowed corpora (or two borrows of the same corpus) can
// never collide on a fingerprint/cache key with each other or with the
// 0 sentinel.
TEST(CorpusHandleTest, BorrowRemapsZeroHashLikeOwn) {
  Corpus corpus;  // empty is fine: only the hash plumbing is under test
  auto borrowed_one = CorpusHandle::Borrow(&corpus);
  auto borrowed_two = CorpusHandle::Borrow(&corpus);
  EXPECT_NE(borrowed_one->content_hash(), 0u);
  EXPECT_NE(borrowed_two->content_hash(), 0u);
  EXPECT_NE(borrowed_one->content_hash(), borrowed_two->content_hash());

  // An explicit hash is preserved verbatim, exactly like Own.
  EXPECT_EQ(CorpusHandle::Borrow(&corpus, 0xBEEF)->content_hash(), 0xBEEFu);

  // The synthetic hashes flow into distinct request fingerprints: the
  // cache can never serve one borrowed corpus's answer for the other's.
  const uint64_t options = EngineOptionsFingerprint(EngineOptions{});
  EXPECT_NE(RequestFingerprint({"country"}, options,
                               borrowed_one->content_hash()),
            RequestFingerprint({"country"}, options,
                               borrowed_two->content_hash()));
}

TEST(WwtServiceTest, CreateRejectsInvalidOptions) {
  ServiceOptions options;
  options.engine.max_candidates = -5;
  StatusOr<std::unique_ptr<WwtService>> service =
      WwtService::Create(options);
  ASSERT_FALSE(service.ok());
  EXPECT_TRUE(service.status().IsInvalidArgument());
  EXPECT_NE(service.status().message().find("max_candidates"),
            std::string::npos);
}

// --------------------------------------------------- request validation

std::unique_ptr<WwtService> EmptyService(int threads = 1) {
  ServiceOptions options;
  options.num_threads = threads;
  StatusOr<std::unique_ptr<WwtService>> service = WwtService::Create(options);
  EXPECT_TRUE(service.ok());
  return std::move(service).value();
}

TEST(WwtServiceTest, EmptyColumnListIsInvalidArgument) {
  auto service = EmptyService();
  QueryResponse r = service->Run(QueryRequest{});
  EXPECT_TRUE(r.status.IsInvalidArgument());
  EXPECT_EQ(r.fingerprint, 0u);
}

TEST(WwtServiceTest, WhitespaceColumnIsInvalidArgument) {
  auto service = EmptyService();
  QueryResponse r =
      service->Run(QueryRequest::Of({"country", "  \t "}).WithTag("bad"));
  EXPECT_TRUE(r.status.IsInvalidArgument());
  EXPECT_EQ(r.tag, "bad");  // tag is echoed even on errors
  // Whitespace is the std::isspace set the canonical key drops, so a
  // column it would key as empty never passes validation.
  for (const std::string column : {"\v", "\f", " \v "}) {
    EXPECT_TRUE(service->Run(QueryRequest::Of({"country", column}))
                    .status.IsInvalidArgument())
        << testing::PrintToString(column);
  }
}

TEST(WwtServiceTest, OverLongColumnListIsInvalidArgument) {
  auto service = EmptyService();
  std::vector<std::string> columns(kMaxQueryColumns + 1, "country");
  QueryResponse r = service->Run(QueryRequest::Of(columns));
  EXPECT_TRUE(r.status.IsInvalidArgument());
  // The boundary itself is accepted (fails later only on the missing
  // corpus, proving validation passed).
  columns.pop_back();
  EXPECT_TRUE(service->Run(QueryRequest::Of(columns))
                  .status.IsFailedPrecondition());
}

// ------------------------------------------- deadline + corpus presence

TEST(WwtServiceTest, SubmitWithoutCorpusIsFailedPrecondition) {
  auto service = EmptyService();
  ASSERT_EQ(service->corpus(), nullptr);
  QueryResponse r = service->Run(QueryRequest::Of({"country"}));
  EXPECT_TRUE(r.status.IsFailedPrecondition());
}

TEST(WwtServiceTest, DeadlineExpiredAtSubmitIsDeadlineExceeded) {
  auto service = EmptyService();
  QueryRequest request = QueryRequest::Of({"country"});
  request.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  // The deadline outranks the missing corpus: an expired request never
  // touches serving state.
  QueryResponse r = service->Run(std::move(request));
  EXPECT_TRUE(r.status.IsDeadlineExceeded());
}

TEST(WwtServiceTest, ValidationOutranksDeadline) {
  auto service = EmptyService();
  QueryRequest request;  // no columns AND expired
  request.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  EXPECT_TRUE(service->Run(std::move(request)).status.IsInvalidArgument());
}

TEST(QueryRequestTest, WithTimeoutSetsAForwardDeadline) {
  QueryRequest request = QueryRequest::Of({"country"});
  EXPECT_FALSE(request.has_deadline());
  request.WithTimeout(60.0);
  EXPECT_TRUE(request.has_deadline());
  EXPECT_GT(request.deadline, std::chrono::steady_clock::now());
}

// ------------------------------------------------------- fingerprinting

TEST(CanonicalQueryKeyTest, LowercasesAndCollapsesWhitespace) {
  EXPECT_EQ(CanonicalQueryKey({"  Name  OF   Explorers ", "Nationality"}),
            CanonicalQueryKey({"name of explorers", "nationality"}));
  EXPECT_EQ(CanonicalQueryKey({"country"}), "7:country");
  // Column boundaries survive canonicalization.
  EXPECT_NE(CanonicalQueryKey({"a b", "c"}), CanonicalQueryKey({"a", "b c"}));
  EXPECT_NE(CanonicalQueryKey({"a", "b"}), CanonicalQueryKey({"a b"}));
  // Length-prefixed framing: column content cannot forge a column
  // boundary, so a separator-injection query keeps a distinct key.
  EXPECT_NE(CanonicalQueryKey({"a\x1f"
                               "b"}),
            CanonicalQueryKey({"a", "b"}));
}

TEST(RequestFingerprintTest, StableAndSensitive) {
  const std::vector<std::string> columns = {"country", "population"};
  const uint64_t options = EngineOptionsFingerprint(EngineOptions{});
  const uint64_t fp = RequestFingerprint(columns, options, 0x1234);
  // Stable: same columns + same corpus hash + same options.
  EXPECT_EQ(fp, RequestFingerprint(columns, options, 0x1234));
  // Canonically-equal keywords share a fingerprint.
  EXPECT_EQ(fp, RequestFingerprint({" Country ", "POPULATION"}, options,
                                   0x1234));
  // Different corpus content hash -> different fingerprint.
  EXPECT_NE(fp, RequestFingerprint(columns, options, 0x5678));
  // Different result-affecting options -> different fingerprint.
  EngineOptions other;
  other.probe1_k += 10;
  EXPECT_NE(fp, RequestFingerprint(columns, EngineOptionsFingerprint(other),
                                   0x1234));
  // Different columns -> different fingerprint.
  EXPECT_NE(fp, RequestFingerprint({"country"}, options, 0x1234));
}

// The response cache is keyed by this value and wwt_serve prints it, so
// it is pinned for a fixed request, the default options and a fixed
// corpus hash: a change to the key's inputs or their order fails here.
TEST(RequestFingerprintTest, DefaultOptionsKeyIsPinned) {
  EXPECT_EQ(RequestFingerprint({"country", "population"},
                               EngineOptionsFingerprint(EngineOptions{}),
                               0x1234),
            0x9c7dcbd0038cd087ULL);
}

TEST(RequestFingerprintTest, ZeroHashRemapsToTheReservedKey) {
  // fingerprint == 0 is the "invalid request" sentinel, but a valid
  // request can legitimately hash to 0 — the finalizer pins that one
  // value onto a reserved non-zero constant so a cache key can never
  // collide with the sentinel.
  static_assert(kZeroFingerprintRemap != 0,
                "the remap target must not be the sentinel itself");
  static_assert(FinalizeFingerprint(0) == kZeroFingerprintRemap,
                "0 must remap to the reserved constant");
  static_assert(FinalizeFingerprint(1) == 1,
                "non-zero hashes pass through unchanged");
  static_assert(FinalizeFingerprint(kZeroFingerprintRemap) ==
                    kZeroFingerprintRemap,
                "the reserved value maps to itself (two inputs share it "
                "by design; neither is ever the sentinel)");
  // Every real fingerprint goes through the finalizer.
  EXPECT_NE(RequestFingerprint({"country"},
                               EngineOptionsFingerprint(EngineOptions{}), 0),
            0u);
}

TEST(EngineOptionsFingerprintTest, CoversMapperAndConsolidator) {
  const EngineOptions base;
  EngineOptions o = base;
  o.mapper.mode = InferenceMode::kIndependent;
  EXPECT_NE(EngineOptionsFingerprint(base), EngineOptionsFingerprint(o));
  o = base;
  o.mapper.weights.w1 += 0.5;
  EXPECT_NE(EngineOptionsFingerprint(base), EngineOptionsFingerprint(o));
  o = base;
  o.consolidator.min_relevance_prob = 0.9;
  EXPECT_NE(EngineOptionsFingerprint(base), EngineOptionsFingerprint(o));
}

// ------------------------------------------------------ batch plumbing

TEST(WwtServiceTest, RunBatchWithoutCorpusFailsEveryRequestCleanly) {
  auto service = EmptyService(2);
  BatchResponse batch =
      service->RunBatch({{"country"}, {"population"}, {}});
  ASSERT_EQ(batch.responses.size(), 3u);
  EXPECT_TRUE(batch.responses[0].status.IsFailedPrecondition());
  EXPECT_TRUE(batch.responses[1].status.IsFailedPrecondition());
  EXPECT_TRUE(batch.responses[2].status.IsInvalidArgument());
  EXPECT_FALSE(batch.all_ok());
  EXPECT_EQ(batch.stats.num_queries, 3u);
}

TEST(WwtServiceTest, EmptyBatch) {
  auto service = EmptyService();
  BatchResponse batch = service->RunBatch(std::vector<QueryRequest>{});
  EXPECT_TRUE(batch.responses.empty());
  EXPECT_TRUE(batch.all_ok());
  EXPECT_EQ(batch.stats.num_queries, 0u);
}

}  // namespace
}  // namespace wwt
