#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/model_factory.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "io/checkpoint.h"
#include "io/serializer.h"
#include "models/registry.h"
#include "storage/sampling.h"
#include "storage/transforms.h"
#include "workload/generator.h"

namespace ddup::api {
namespace {

// Small conditional table (categorical x, numeric y) shared by the tests;
// swapping the conditional means creates honest OOD batches.
storage::Table MakeConditional(double m0, double m1, int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> codes;
  std::vector<double> y;
  for (int64_t i = 0; i < n; ++i) {
    int k = rng.Bernoulli(0.5) ? 1 : 0;
    codes.push_back(static_cast<int32_t>(k));
    y.push_back(std::clamp(rng.Normal(k == 0 ? m0 : m1, 3.0), 0.0, 100.0));
  }
  storage::Table t("cond");
  t.AddColumn(storage::Column::Categorical("x", codes, {"k0", "k1"}));
  t.AddColumn(storage::Column::Numeric("y", y));
  return t;
}

ModelSpec FastMdnSpec() {
  return {"mdn",
          {{"num_components", "4"},
           {"hidden_width", "16"},
           {"epochs", "4"},
           {"seed", "3"}}};
}

ModelSpec FastDarnSpec() {
  return {"darn",
          {{"hidden_width", "24"},
           {"max_bins", "12"},
           {"epochs", "2"},
           {"seed", "5"}}};
}

EngineConfig FastEngineConfig(int64_t micro_batch) {
  EngineConfig config;
  config.micro_batch_rows = micro_batch;
  config.controller.detector.bootstrap_iterations = 24;
  config.controller.policy.distill.epochs = 1;
  config.controller.policy.finetune_epochs = 1;
  return config;
}

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

workload::Query RangeCountQuery(double lo, double hi) {
  workload::Query q;
  workload::Predicate eq;
  eq.column = 0;
  eq.op = workload::CompareOp::kEq;
  eq.value = 0.0;
  workload::Predicate ge;
  ge.column = 1;
  ge.op = workload::CompareOp::kGe;
  ge.value = lo;
  workload::Predicate le;
  le.column = 1;
  le.op = workload::CompareOp::kLe;
  le.value = hi;
  q.predicates = {eq, ge, le};
  return q;
}

TEST(ModelFactoryTest, RegistersTheFiveBuiltinKinds) {
  std::vector<std::string> kinds = ModelFactory::Global().Kinds();
  for (const char* kind : {"mdn", "darn", "tvae", "spn", "gbdt"}) {
    EXPECT_TRUE(ModelFactory::Global().Has(kind)) << kind;
    EXPECT_NE(std::find(kinds.begin(), kinds.end(), kind), kinds.end());
  }
}

TEST(ModelFactoryTest, UnknownKindAndBadOptionsAreStatuses) {
  storage::Table base = MakeConditional(25, 75, 200, 1);

  auto unknown = ModelFactory::Global().Create("nope", base, {});
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.status().message().find("mdn"), std::string::npos)
      << "error should list the registered kinds";

  auto bad_key = ModelFactory::Global().Create(
      "mdn", base, {{"epochz", "4"}});
  EXPECT_EQ(bad_key.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_key.status().message().find("epochz"), std::string::npos);

  auto bad_value = ModelFactory::Global().Create(
      "mdn", base, {{"epochs", "many"}});
  EXPECT_EQ(bad_value.status().code(), StatusCode::kInvalidArgument);

  // Out-of-range values fail instead of silently truncating to int.
  auto truncated = ModelFactory::Global().Create(
      "mdn", base, {{"epochs", "4294967296"}});
  EXPECT_EQ(truncated.status().code(), StatusCode::kInvalidArgument);
  auto non_positive = ModelFactory::Global().Create(
      "mdn", base, {{"hidden_width", "0"}});
  EXPECT_EQ(non_positive.status().code(), StatusCode::kInvalidArgument);

  auto bad_column = ModelFactory::Global().Create(
      "mdn", base, {{"categorical", "nope"}});
  EXPECT_EQ(bad_column.status().code(), StatusCode::kInvalidArgument);

  auto double_register = ModelFactory::Global().Register(
      "mdn", nullptr, nullptr);
  EXPECT_EQ(double_register.code(), StatusCode::kFailedPrecondition);
}

TEST(ModelFactoryTest, AdaptersServeTheUpdatableContract) {
  storage::Table base = MakeConditional(25, 75, 400, 2);

  auto spn = ModelFactory::Global().Create(
      "spn", base, {{"min_instances_slice", "100"}, {"max_bins", "8"}});
  ASSERT_TRUE(spn.ok()) << spn.status().ToString();
  double spn_loss = spn.value()->AverageLoss(base);
  EXPECT_GT(spn_loss, 0.0);
  auto* card = dynamic_cast<core::CardinalityEstimator*>(spn.value().get());
  ASSERT_NE(card, nullptr);
  auto spn_card = card->TryEstimateCardinality(RangeCountQuery(0, 100));
  ASSERT_TRUE(spn_card.ok());
  EXPECT_GT(spn_card.value(), 0.0);
  // Rows drawn from a swapped conditional look less likely under the model.
  storage::Table swapped = MakeConditional(75, 25, 400, 3);
  EXPECT_GT(spn.value()->AverageLoss(swapped), spn_loss);

  auto gbdt = ModelFactory::Global().Create(
      "gbdt", base, {{"target", "x"}, {"num_rounds", "5"}});
  ASSERT_TRUE(gbdt.ok()) << gbdt.status().ToString();
  double err = gbdt.value()->AverageLoss(base);
  EXPECT_GE(err, 0.0);
  EXPECT_LE(err, 1.0);
  // Swapping the class-conditional means inverts the labels the trees
  // learned, so the error rate on the swapped sample must be higher.
  EXPECT_GT(gbdt.value()->AverageLoss(swapped), err);
}

TEST(EngineTest, BadInputsAreRecoverableStatuses) {
  Engine engine(FastEngineConfig(100));
  storage::Table base = MakeConditional(25, 75, 300, 4);

  // Everything before CreateTable: NotFound.
  EXPECT_EQ(engine.AttachModel("t", FastMdnSpec()).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.Ingest("t", base).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.Flush("t").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.Report("t").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.EstimateAqp("t", RangeCountQuery(0, 100)).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.model("t"), nullptr);

  EXPECT_EQ(engine.CreateTable("", base).code(), StatusCode::kInvalidArgument);
  // ':' is the checkpoint section separator; rejected up front so the
  // engine cannot become un-checkpointable later.
  EXPECT_EQ(engine.CreateTable("a:b", base).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(engine.CreateTable("t", base).ok());
  EXPECT_EQ(engine.CreateTable("t", base).code(),
            StatusCode::kFailedPrecondition);

  // Before AttachModel: ingest/estimates are FailedPrecondition.
  EXPECT_EQ(engine.Ingest("t", base).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.EstimateAqp("t", RangeCountQuery(0, 100)).status().code(),
            StatusCode::kFailedPrecondition);

  EXPECT_EQ(engine.AttachModel("t", {"nope", {}}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.AttachModel("t", {"mdn", {{"bogus", "1"}}}).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(engine.AttachModel("t", FastMdnSpec()).ok());
  EXPECT_EQ(engine.AttachModel("t", FastMdnSpec()).code(),
            StatusCode::kFailedPrecondition);

  // Schema mismatches are rejected before touching the accumulator.
  storage::Table bad("bad");
  bad.AddColumn(storage::Column::Numeric("z", {1.0}));
  auto rejected = engine.Ingest("t", bad);
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("schema mismatch"),
            std::string::npos);
  auto report = engine.Report("t");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().buffered_rows, 0);

  // An MDN does not serve cardinality estimates.
  auto card = engine.EstimateCardinality("t", RangeCountQuery(0, 100));
  EXPECT_EQ(card.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(card.status().message().find("mdn"), std::string::npos);

  // Attaching to a rowless table is rejected.
  ASSERT_TRUE(engine.CreateTable("empty", base.TakeRows({})).ok());
  EXPECT_EQ(engine.AttachModel("empty", FastMdnSpec()).code(),
            StatusCode::kFailedPrecondition);

  // FlushAll skips the model-less table (it cannot have buffered rows)
  // instead of failing the sweep, and the report says so.
  auto sweep = engine.FlushAll();
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(sweep.value().tables_flushed, 0);
  EXPECT_EQ(sweep.value().tables_skipped, 2);
  EXPECT_EQ(sweep.value().rows_flushed, 0);
  EXPECT_EQ(sweep.value().updates_triggered, 0);
}

TEST(EngineTest, RejectsNonFiniteNumericsAtTheBoundary) {
  // One NaN would turn the fitted bootstrap moments into NaN, after which
  // no batch ever tests as OOD: it must be refused before it is buffered.
  Engine engine(FastEngineConfig(64));
  storage::Table poisoned_base = MakeConditional(20.0, 60.0, 200, 1);
  (*poisoned_base.mutable_column(1)->mutable_numeric_values())[7] =
      std::numeric_limits<double>::infinity();
  Status created = engine.CreateTable("bad", poisoned_base);
  EXPECT_EQ(created.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(created.message().find("'bad'"), std::string::npos);
  EXPECT_NE(created.message().find("'y' row 7"), std::string::npos);
  EXPECT_TRUE(
      engine.CreateTable("bad", MakeConditional(20.0, 60.0, 200, 1)).ok())
      << "a refused CreateTable registers nothing";

  ASSERT_TRUE(
      engine.CreateTable("t", MakeConditional(20.0, 60.0, 400, 2)).ok());
  ASSERT_TRUE(engine.AttachModel("t", FastMdnSpec()).ok());
  storage::Table batch = MakeConditional(20.0, 60.0, 100, 3);
  (*batch.mutable_column(1)->mutable_numeric_values())[42] =
      std::numeric_limits<double>::quiet_NaN();
  auto refused = engine.Ingest("t", batch);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status().message().find("'t'"), std::string::npos);
  EXPECT_NE(refused.status().message().find("'y' row 42"), std::string::npos);
  // Nothing was buffered: a flush has no rows to push through the loop.
  auto flushed = engine.Flush("t");
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(flushed.value().rows_flushed, 0);
  EXPECT_TRUE(flushed.value().reports.empty());
  EXPECT_TRUE(std::isfinite(engine.model("t")->AverageLoss(batch.Head(40))));
}

TEST(EngineTest, MicroBatchingDecouplesIngestFromDetection) {
  Engine engine(FastEngineConfig(100));
  storage::Table base = MakeConditional(25, 75, 400, 5);
  ASSERT_TRUE(engine.CreateTable("t", base).ok());
  ASSERT_TRUE(engine.AttachModel("t", FastMdnSpec()).ok());

  // Empty batch: a no-op, not an error.
  auto empty = engine.Ingest("t", base.TakeRows({}));
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().rows_flushed, 0);
  EXPECT_EQ(empty.value().rows_buffered, 0);
  EXPECT_TRUE(empty.value().reports.empty());

  // Sub-threshold trickle: buffers, no detection.
  auto trickle = engine.Ingest("t", MakeConditional(25, 75, 60, 6));
  ASSERT_TRUE(trickle.ok());
  EXPECT_EQ(trickle.value().rows_flushed, 0);
  EXPECT_EQ(trickle.value().rows_buffered, 60);

  // Oversize batch: 60 buffered + 250 new = 3 micro-batches + 10 left.
  auto oversize = engine.Ingest("t", MakeConditional(25, 75, 250, 7));
  ASSERT_TRUE(oversize.ok());
  EXPECT_EQ(oversize.value().rows_flushed, 300);
  EXPECT_EQ(oversize.value().rows_buffered, 10);
  ASSERT_EQ(oversize.value().reports.size(), 3u);
  for (const auto& r : oversize.value().reports) {
    EXPECT_EQ(r.new_rows, 100);
  }
  // Micro-batches chain: each insertion sees the previous ones' rows.
  EXPECT_EQ(oversize.value().reports[0].old_rows, 400);
  EXPECT_EQ(oversize.value().reports[1].old_rows, 500);
  EXPECT_EQ(oversize.value().reports[2].old_rows, 600);

  // Flush pushes the remainder despite being below the threshold.
  auto flushed = engine.Flush("t");
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(flushed.value().rows_flushed, 10);
  EXPECT_EQ(flushed.value().rows_buffered, 0);
  ASSERT_EQ(flushed.value().reports.size(), 1u);

  // Flushing an empty accumulator is a no-op.
  auto again = engine.Flush("t");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().rows_flushed, 0);
  EXPECT_TRUE(again.value().reports.empty());

  auto report = engine.Report("t");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().rows, 710);
  EXPECT_EQ(report.value().buffered_rows, 0);
  EXPECT_EQ(report.value().insertions, 4);
  EXPECT_EQ(report.value().insertions,
            report.value().ood_updates + report.value().finetunes +
                report.value().kept_stale);
  // Synchronous engines idle at SERVING with no concurrency counters.
  EXPECT_EQ(report.value().state, TableServingState::kServing);
  EXPECT_EQ(report.value().backlog_batches, 0);
  EXPECT_EQ(report.value().async_batches, 0);
  EXPECT_EQ(report.value().snapshot_publishes, 0);
}

TEST(EngineTest, FlushAllReportsWorkAndShortCircuitsEmptyTables) {
  Engine engine(FastEngineConfig(100));
  storage::Table base = MakeConditional(25, 75, 300, 20);
  ASSERT_TRUE(engine.CreateTable("busy", base).ok());
  ASSERT_TRUE(engine.CreateTable("idle", base).ok());
  ASSERT_TRUE(engine.AttachModel("busy", FastMdnSpec()).ok());
  ASSERT_TRUE(engine.AttachModel("idle", FastMdnSpec()).ok());

  // 130 buffered rows on "busy": one full micro-batch flushes at ingest,
  // 30 remain for the sweep; "idle" has nothing.
  ASSERT_TRUE(engine.Ingest("busy", MakeConditional(25, 75, 130, 21)).ok());
  auto sweep = engine.FlushAll();
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(sweep.value().tables_flushed, 1);
  EXPECT_EQ(sweep.value().tables_skipped, 1);
  EXPECT_EQ(sweep.value().rows_flushed, 30);
  EXPECT_EQ(sweep.value().updates_triggered, 1);

  // Everything drained: the next sweep touches nothing.
  auto empty = engine.FlushAll();
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().tables_flushed, 0);
  EXPECT_EQ(empty.value().tables_skipped, 2);
  EXPECT_EQ(empty.value().updates_triggered, 0);
}

TEST(EngineTest, MultiTableLifecycleWithMixedModelKinds) {
  Engine engine(FastEngineConfig(150));
  storage::Table aqp_base = MakeConditional(25, 75, 400, 8);
  storage::Table card_base = MakeConditional(30, 60, 400, 9);
  ASSERT_TRUE(engine.CreateTable("aqp", aqp_base).ok());
  ASSERT_TRUE(engine.CreateTable("card", card_base).ok());
  ASSERT_TRUE(engine.AttachModel("aqp", FastMdnSpec()).ok());
  ASSERT_TRUE(engine.AttachModel("card", FastDarnSpec()).ok());
  EXPECT_EQ(engine.TableNames(), (std::vector<std::string>{"aqp", "card"}));

  // Updates flow to the right table and only that table.
  ASSERT_TRUE(engine.Ingest("aqp", MakeConditional(25, 75, 150, 10)).ok());
  auto aqp_report = engine.Report("aqp");
  auto card_report = engine.Report("card");
  ASSERT_TRUE(aqp_report.ok() && card_report.ok());
  EXPECT_EQ(aqp_report.value().rows, 550);
  EXPECT_EQ(aqp_report.value().insertions, 1);
  EXPECT_EQ(card_report.value().rows, 400);
  EXPECT_EQ(card_report.value().insertions, 0);
  EXPECT_EQ(aqp_report.value().model_kind, "mdn");
  EXPECT_EQ(card_report.value().model_kind, "darn");

  auto aqp_est = engine.EstimateAqp("aqp", RangeCountQuery(20, 80));
  ASSERT_TRUE(aqp_est.ok()) << aqp_est.status().ToString();
  EXPECT_GT(aqp_est.value(), 0.0);
  auto card_est = engine.EstimateCardinality("card", RangeCountQuery(20, 80));
  ASSERT_TRUE(card_est.ok()) << card_est.status().ToString();
  EXPECT_GT(card_est.value(), 0.0);

  // Malformed queries come back as InvalidArgument, not a crash.
  workload::Query bad = RangeCountQuery(20, 80);
  bad.predicates[0].column = 99;
  EXPECT_EQ(engine.EstimateCardinality("card", bad).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.EstimateAqp("aqp", bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, SaveLoadRoundTripsBitIdentically) {
  std::string path = TempPath("engine_test.ckpt");
  EngineConfig config = FastEngineConfig(120);
  Engine engine(config);
  storage::Table aqp_base = MakeConditional(25, 75, 400, 11);
  storage::Table card_base = MakeConditional(30, 60, 400, 12);
  ASSERT_TRUE(engine.CreateTable("aqp", aqp_base).ok());
  ASSERT_TRUE(engine.CreateTable("card", card_base).ok());
  ASSERT_TRUE(engine.AttachModel("aqp", FastMdnSpec()).ok());
  ASSERT_TRUE(engine.AttachModel("card", FastDarnSpec()).ok());
  // One flushed micro-batch each plus a buffered trickle on "aqp", so the
  // snapshot holds mid-stream state on every axis.
  ASSERT_TRUE(engine.Ingest("aqp", MakeConditional(75, 25, 120, 13)).ok());
  ASSERT_TRUE(engine.Ingest("card", MakeConditional(30, 60, 120, 14)).ok());
  ASSERT_TRUE(engine.Ingest("aqp", MakeConditional(25, 75, 40, 15)).ok());

  ASSERT_TRUE(engine.Save(path).ok());
  auto loaded = Engine::Load(path, config);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Estimates over both tables are bit-identical.
  for (int i = 0; i < 8; ++i) {
    workload::Query q = RangeCountQuery(10.0 + i * 5, 60.0 + i * 5);
    auto a = engine.EstimateAqp("aqp", q);
    auto b = loaded.value()->EstimateAqp("aqp", q);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value(), b.value());
    auto c = engine.EstimateCardinality("card", q);
    auto d = loaded.value()->EstimateCardinality("card", q);
    ASSERT_TRUE(c.ok() && d.ok());
    EXPECT_EQ(c.value(), d.value());
  }

  // Detector state, counters and the accumulator round-trip exactly.
  for (const std::string& name : engine.TableNames()) {
    auto a = engine.Report(name);
    auto b = loaded.value()->Report(name);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().rows, b.value().rows);
    EXPECT_EQ(a.value().buffered_rows, b.value().buffered_rows);
    EXPECT_EQ(a.value().micro_batch_rows, b.value().micro_batch_rows);
    EXPECT_EQ(a.value().insertions, b.value().insertions);
    EXPECT_EQ(a.value().ood_updates, b.value().ood_updates);
    EXPECT_EQ(a.value().finetunes, b.value().finetunes);
    EXPECT_EQ(a.value().kept_stale, b.value().kept_stale);
    EXPECT_EQ(a.value().bootstrap_mean, b.value().bootstrap_mean);
    EXPECT_EQ(a.value().bootstrap_std, b.value().bootstrap_std);
    EXPECT_EQ(a.value().model_kind, b.value().model_kind);
  }
  auto buffered = loaded.value()->Report("aqp");
  ASSERT_TRUE(buffered.ok());
  EXPECT_EQ(buffered.value().buffered_rows, 40);

  // The live and the restored engine continue identically: flushing the
  // buffered trickle produces the same detector decision and statistic.
  auto cont_a = engine.Flush("aqp");
  auto cont_b = loaded.value()->Flush("aqp");
  ASSERT_TRUE(cont_a.ok() && cont_b.ok());
  ASSERT_EQ(cont_a.value().reports.size(), 1u);
  ASSERT_EQ(cont_b.value().reports.size(), 1u);
  EXPECT_EQ(cont_a.value().reports[0].test.statistic,
            cont_b.value().reports[0].test.statistic);
  EXPECT_EQ(cont_a.value().reports[0].test.is_ood,
            cont_b.value().reports[0].test.is_ood);
  EXPECT_EQ(cont_a.value().reports[0].action, cont_b.value().reports[0].action);

  std::remove(path.c_str());
}

TEST(EngineTest, DetectorKindSelectableViaTableOptions) {
  Engine engine(FastEngineConfig(100));
  storage::Table base = MakeConditional(25, 75, 400, 16);

  // Unknown kinds fail fast at CreateTable, listing the registered ones.
  TableOptions bad;
  bad.detector = "nope";
  auto rejected = engine.CreateTable("bad", base, bad);
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.message().find("bootstrap"), std::string::npos);

  // Empty option resolves to the engine default; a named option wins.
  TableOptions cusum;
  cusum.detector = "cusum";
  ASSERT_TRUE(engine.CreateTable("seq", base, cusum).ok());
  ASSERT_TRUE(engine.CreateTable("dflt", base).ok());
  ASSERT_TRUE(engine.AttachModel("seq", FastMdnSpec()).ok());
  ASSERT_TRUE(engine.AttachModel("dflt", FastMdnSpec()).ok());
  auto seq_report = engine.Report("seq");
  auto dflt_report = engine.Report("dflt");
  ASSERT_TRUE(seq_report.ok() && dflt_report.ok());
  EXPECT_EQ(seq_report.value().detector_kind, "cusum");
  EXPECT_EQ(dflt_report.value().detector_kind, "bootstrap");

  // The full ingest/detect/update loop runs through the named detector.
  auto ingest = engine.Ingest("seq", MakeConditional(25, 75, 200, 17));
  ASSERT_TRUE(ingest.ok());
  EXPECT_EQ(ingest.value().rows_flushed, 200);
  ASSERT_EQ(ingest.value().reports.size(), 2u);
  auto after = engine.Report("seq");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().insertions, 2);
  EXPECT_EQ(after.value().detector_kind, "cusum");
}

TEST(EngineTest, NamedDetectorSurvivesSaveLoad) {
  std::string path = TempPath("engine_test_detector.ckpt");
  EngineConfig config = FastEngineConfig(100);
  Engine engine(config);
  storage::Table base = MakeConditional(25, 75, 400, 18);
  TableOptions options;
  options.detector = "percolumn_cusum";
  ASSERT_TRUE(engine.CreateTable("t", base, options).ok());
  ASSERT_TRUE(engine.AttachModel("t", FastMdnSpec()).ok());
  // One flushed micro-batch plus a buffered trickle: the snapshot carries
  // live sequential detector state, not just the kind string.
  ASSERT_TRUE(engine.Ingest("t", MakeConditional(25, 75, 100, 19)).ok());
  ASSERT_TRUE(engine.Ingest("t", MakeConditional(25, 75, 40, 20)).ok());

  ASSERT_TRUE(engine.Save(path).ok());
  // The restoring config names a different default detector: the manifest's
  // per-table kind must win over it.
  EngineConfig other_default = config;
  other_default.controller.detector.kind = "adwin";
  auto loaded = Engine::Load(path, other_default);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto report = loaded.value()->Report("t");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().detector_kind, "percolumn_cusum");
  EXPECT_EQ(report.value().buffered_rows, 40);

  // Both engines continue identically through the restored detector.
  auto cont_a = engine.Flush("t");
  auto cont_b = loaded.value()->Flush("t");
  ASSERT_TRUE(cont_a.ok() && cont_b.ok());
  ASSERT_EQ(cont_a.value().reports.size(), 1u);
  ASSERT_EQ(cont_b.value().reports.size(), 1u);
  EXPECT_EQ(cont_a.value().reports[0].test.statistic,
            cont_b.value().reports[0].test.statistic);
  EXPECT_EQ(cont_a.value().reports[0].test.is_ood,
            cont_b.value().reports[0].test.is_ood);
  EXPECT_EQ(cont_a.value().reports[0].action, cont_b.value().reports[0].action);
  std::remove(path.c_str());
}

TEST(EngineTest, LoadRejectsMissingAndCorruptFiles) {
  auto missing = Engine::Load(TempPath("engine_test_does_not_exist.ckpt"));
  EXPECT_FALSE(missing.ok());

  std::string path = TempPath("engine_test_corrupt.ckpt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a checkpoint", f);
  std::fclose(f);
  auto corrupt = Engine::Load(path);
  EXPECT_FALSE(corrupt.ok());
  std::remove(path.c_str());
}

TEST(EngineTest, LegacyOverloadsAreByteIdenticalShimsOverEstimate) {
  // The deprecated string-keyed overloads are pinned as thin shims over
  // Estimate(EstimateRequest): same answers bit-for-bit, same error
  // messages (scalar errors carry no "query <i>: " batch prefix).
  Engine engine(FastEngineConfig(100));
  storage::Table base = MakeConditional(25, 75, 300, 4);
  ASSERT_TRUE(engine.CreateTable("card", base).ok());
  ASSERT_TRUE(engine.AttachModel("card", FastDarnSpec()).ok());
  ASSERT_TRUE(engine.CreateTable("aqp", base).ok());
  ASSERT_TRUE(engine.AttachModel("aqp", FastMdnSpec()).ok());

  workload::QueryBatch batch;
  batch.Add(RangeCountQuery(10, 40));
  batch.Add(RangeCountQuery(25, 75));
  batch.Add(RangeCountQuery(60, 90));

  EstimateRequest card_request;
  card_request.table = "card";
  card_request.queries = batch;
  auto card_structured = engine.Estimate(card_request);
  ASSERT_TRUE(card_structured.ok()) << card_structured.status().ToString();
  auto card_batch = engine.EstimateCardinalityBatch("card", batch);
  ASSERT_TRUE(card_batch.ok());
  EXPECT_EQ(card_structured.value().answers, card_batch.value());
  for (size_t i = 0; i < batch.queries.size(); ++i) {
    auto scalar = engine.EstimateCardinality("card", batch.queries[i]);
    ASSERT_TRUE(scalar.ok());
    EXPECT_EQ(scalar.value(), card_structured.value().answers[i]) << i;
  }

  EstimateRequest aqp_request;
  aqp_request.kind = EstimateRequest::Kind::kAqp;
  aqp_request.table = "aqp";
  aqp_request.queries = batch;
  auto aqp_structured = engine.Estimate(aqp_request);
  ASSERT_TRUE(aqp_structured.ok()) << aqp_structured.status().ToString();
  auto aqp_batch = engine.EstimateAqpBatch("aqp", batch);
  ASSERT_TRUE(aqp_batch.ok());
  EXPECT_EQ(aqp_structured.value().answers, aqp_batch.value());
  for (size_t i = 0; i < batch.queries.size(); ++i) {
    auto scalar = engine.EstimateAqp("aqp", batch.queries[i]);
    ASSERT_TRUE(scalar.ok());
    EXPECT_EQ(scalar.value(), aqp_structured.value().answers[i]) << i;
  }

  // Error-message parity: batch errors name the query, scalar errors do
  // not — the shim strips the exec engines' "query 0: " prefix.
  workload::Query bad;
  bad.predicates.push_back({99, workload::CompareOp::kEq, 0.0});
  auto scalar_err = engine.EstimateCardinality("card", bad);
  ASSERT_FALSE(scalar_err.ok());
  EXPECT_EQ(scalar_err.status().message().find("query 0: "),
            std::string::npos)
      << scalar_err.status().ToString();
  EXPECT_EQ(scalar_err.status().message().rfind("predicate on", 0), 0u)
      << scalar_err.status().ToString();
  workload::QueryBatch bad_second;
  bad_second.Add(RangeCountQuery(10, 40));
  bad_second.Add(bad);
  auto batch_err = engine.EstimateCardinalityBatch("card", bad_second);
  ASSERT_FALSE(batch_err.ok());
  EXPECT_EQ(batch_err.status().message().rfind("query 1: ", 0), 0u)
      << batch_err.status().ToString();

  // Unknown-table parity holds through the structured path too (including
  // the legacy empty-name spelling).
  EstimateRequest unknown;
  unknown.table = "nope";
  EXPECT_EQ(engine.Estimate(unknown).status().code(), StatusCode::kNotFound);
  EstimateRequest unnamed;
  EXPECT_EQ(engine.Estimate(unnamed).status().code(), StatusCode::kNotFound);

  // A request populating both the single-table and join shapes is malformed.
  EstimateRequest both = card_request;
  workload::JoinQuery join;
  join.joins.push_back({"card", "y", "aqp", "y"});
  both.joins.Add(join);
  auto rejected = engine.Estimate(both);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  // An empty single-table batch answers with an empty vector, same as the
  // legacy batch overload.
  EstimateRequest empty;
  empty.table = "card";
  auto none = engine.Estimate(empty);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none.value().answers.empty());
  auto legacy_none =
      engine.EstimateCardinalityBatch("card", workload::QueryBatch{});
  ASSERT_TRUE(legacy_none.ok());
  EXPECT_TRUE(legacy_none.value().empty());
}

// ---------------------------------------------------------------------------
// Checkpoint codec knob (EngineConfig::checkpoint, DESIGN.md §16)
// ---------------------------------------------------------------------------

int64_t FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return -1;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size;
}

TEST(EngineTest, CheckpointCodecKnob) {
  const std::string default_path = TempPath("codec_default.ckpt");
  const std::string raw_path = TempPath("codec_raw.ckpt");
  EngineConfig config = FastEngineConfig(120);
  Engine engine(config);
  ASSERT_TRUE(engine.CreateTable("t", MakeConditional(25, 75, 400, 31)).ok());
  ASSERT_TRUE(engine.AttachModel("t", FastDarnSpec()).ok());
  ASSERT_TRUE(engine.Ingest("t", MakeConditional(25, 75, 120, 32)).ok());

  // Same engine, two codecs: the default compressed checkpoint must be
  // measurably smaller than the raw one, and both must load to identical
  // estimates.
  ASSERT_TRUE(engine.Save(default_path).ok());
  EngineConfig raw_config = config;
  raw_config.checkpoint.codec = "raw";
  Engine raw_engine(raw_config);
  ASSERT_TRUE(
      raw_engine.CreateTable("t", MakeConditional(25, 75, 400, 31)).ok());
  ASSERT_TRUE(raw_engine.AttachModel("t", FastDarnSpec()).ok());
  ASSERT_TRUE(raw_engine.Ingest("t", MakeConditional(25, 75, 120, 32)).ok());
  ASSERT_TRUE(raw_engine.Save(raw_path).ok());
  EXPECT_LT(FileSize(default_path), FileSize(raw_path));

  auto from_default = Engine::Load(default_path, config);
  auto from_raw = Engine::Load(raw_path, config);
  ASSERT_TRUE(from_default.ok()) << from_default.status().ToString();
  ASSERT_TRUE(from_raw.ok()) << from_raw.status().ToString();
  for (int i = 0; i < 6; ++i) {
    workload::Query q = RangeCountQuery(10.0 + i * 5, 60.0 + i * 5);
    auto a = from_default.value()->EstimateCardinality("t", q);
    auto b = from_raw.value()->EstimateCardinality("t", q);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value(), b.value());
  }

  // The manifest records the codec: a Load → Save cycle with no codec in
  // the loading config keeps writing raw (same file size, not compressed).
  const std::string resaved_path = TempPath("codec_resaved.ckpt");
  ASSERT_TRUE(from_raw.value()->Save(resaved_path).ok());
  EXPECT_EQ(FileSize(resaved_path), FileSize(raw_path));

  EngineConfig bad = config;
  bad.checkpoint.codec = "zstd";
  Engine bad_engine(bad);
  ASSERT_TRUE(
      bad_engine.CreateTable("t", MakeConditional(25, 75, 60, 33)).ok());
  Status st = bad_engine.Save(TempPath("codec_bad.ckpt"));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("unknown checkpoint codec"), std::string::npos);

  std::remove(default_path.c_str());
  std::remove(raw_path.c_str());
  std::remove(resaved_path.c_str());
}

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string bytes;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

TEST(EngineTest, SaveIsDeterministicAcrossIdenticalRuns) {
  // Two engines fed the same seeded stream write the same bytes: nothing
  // run-dependent (wall-clock stage totals) is checkpointed.
  auto run = [](const std::string& path, int update_workers) {
    EngineConfig config = FastEngineConfig(120);
    config.update_workers = update_workers;
    Engine engine(config);
    ASSERT_TRUE(
        engine.CreateTable("aqp", MakeConditional(25, 75, 400, 21)).ok());
    ASSERT_TRUE(
        engine.CreateTable("card", MakeConditional(30, 60, 400, 22)).ok());
    ASSERT_TRUE(engine.AttachModel("aqp", FastMdnSpec()).ok());
    ASSERT_TRUE(engine.AttachModel("card", FastDarnSpec()).ok());
    for (uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          engine.Ingest("aqp", MakeConditional(75, 25, 120, 30 + i)).ok());
      ASSERT_TRUE(
          engine.Ingest("card", MakeConditional(30, 60, 120, 40 + i)).ok());
    }
    ASSERT_TRUE(engine.Ingest("aqp", MakeConditional(25, 75, 40, 50)).ok());
    ASSERT_TRUE(engine.Save(path).ok());
  };
  for (int workers : {0, 1}) {
    const std::string first = TempPath("engine_det_a.ckpt");
    const std::string second = TempPath("engine_det_b.ckpt");
    run(first, workers);
    run(second, workers);
    const std::string a = ReadFileBytes(first);
    const std::string b = ReadFileBytes(second);
    ASSERT_FALSE(a.empty());
    EXPECT_TRUE(a == b) << "update_workers=" << workers << ": " << a.size()
                        << " vs " << b.size() << " bytes";
    std::remove(first.c_str());
    std::remove(second.c_str());
  }
}

TEST(EngineTest, LoadsV4ManifestAndDropsItsStageSeconds) {
  // A version-4 manifest still carries the per-table detect/update wall
  // totals after the action counters; Load reads and discards them.
  storage::Table base = MakeConditional(25, 75, 50, 61);
  io::Serializer manifest;
  manifest.WriteU32(4);  // engine manifest version
  manifest.WriteString("raw");
  manifest.WriteU32(1);  // one table, no model attached
  manifest.WriteString("t");
  manifest.WriteString("mdn");
  manifest.WriteU32(0);       // no model options
  manifest.WriteI64(100);     // micro_batch_rows
  manifest.WriteString("");   // detector kind
  manifest.WriteI64(0);       // update priority
  manifest.WriteI64(7);       // insertions
  manifest.WriteI64(3);       // ood_updates
  manifest.WriteI64(2);       // finetunes
  manifest.WriteI64(1);       // kept_stale
  manifest.WriteDouble(1.5);  // detect_seconds (v4 only)
  manifest.WriteDouble(2.5);  // update_seconds (v4 only)
  manifest.WriteTable(base);
  manifest.WriteTable(base.TakeRows({0, 1, 2}));  // pending rows
  manifest.WriteBool(false);
  io::CheckpointWriter writer(io::FindCodecByName("raw"));
  writer.AddSection("engine", manifest.Take());
  const std::string path = TempPath("legacy_v4.ckpt");
  ASSERT_TRUE(writer.WriteToFile(path).ok());

  auto loaded = Engine::Load(path, FastEngineConfig(100));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto report = loaded.value()->Report("t");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().rows, 50);
  EXPECT_EQ(report.value().buffered_rows, 3);
  EXPECT_EQ(report.value().insertions, 7);
  EXPECT_EQ(report.value().ood_updates, 3);
  EXPECT_EQ(report.value().finetunes, 2);
  EXPECT_EQ(report.value().kept_stale, 1);
  EXPECT_EQ(report.value().detect_seconds, 0.0);
  EXPECT_EQ(report.value().update_seconds, 0.0);
  std::remove(path.c_str());
}

TEST(EngineTest, LoadsV1ContainerWithV3Manifest) {
  // Compatibility pin: a pre-codec checkpoint — format-version-1 container
  // holding a version-3 engine manifest (no codec string) — must still
  // load. Hand-crafted from the documented layouts so this cannot rot even
  // after the writers move on.
  io::Serializer manifest;
  manifest.WriteU32(3);  // engine manifest version (pre-codec)
  manifest.WriteU32(0);  // zero tables
  const std::string payload = manifest.Take();

  io::Serializer v1;
  v1.WriteU64(io::kCheckpointMagic);
  v1.WriteU32(1);  // container format version
  v1.WriteU32(1);  // section count
  v1.WriteString("engine");
  v1.WriteU64(payload.size());
  v1.WriteU32(io::Crc32(payload));
  v1.WriteRaw(payload);

  const std::string path = TempPath("legacy_v1.ckpt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const std::string image = v1.Take();
  ASSERT_EQ(std::fwrite(image.data(), 1, image.size(), f), image.size());
  std::fclose(f);

  auto loaded = Engine::Load(path, FastEngineConfig(100));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value()->TableNames().empty());
  // And the loaded engine saves again with the current writer (v2
  // container, compressed default) without complaint.
  const std::string resaved = TempPath("legacy_resaved.ckpt");
  ASSERT_TRUE(loaded.value()->Save(resaved).ok());
  std::remove(path.c_str());
  std::remove(resaved.c_str());
}

}  // namespace
}  // namespace ddup::api
