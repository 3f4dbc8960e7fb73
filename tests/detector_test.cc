#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/model_factory.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/detector.h"
#include "core/detector_zoo.h"
#include "datagen/datasets.h"
#include "gtest/gtest.h"
#include "io/serializer.h"
#include "models/mdn.h"
#include "storage/sampling.h"
#include "storage/transforms.h"

namespace ddup::core {
namespace {

// A deterministic stand-in for a trained model: the "training loss" is the
// squared residual of the known functional dependency x1 = (x0 + 5) mod 10
// present in the base data. Joint permutation (sorting columns
// independently) destroys the pairing, so the loss jumps — exactly the
// signal §3.2 relies on, without paying for NN training in these tests.
class PairResidualLoss : public LossModel {
 public:
  double AverageLoss(const storage::Table& sample) const override {
    const auto& x0 = sample.column(0);
    const auto& x1 = sample.column(1);
    double acc = 0.0;
    for (int64_t r = 0; r < sample.num_rows(); ++r) {
      double expected = std::fmod(x0.NumericAt(r) + 5.0, 10.0);
      double d = x1.NumericAt(r) - expected;
      acc += d * d;
    }
    return acc / static_cast<double>(sample.num_rows());
  }
  std::string name() const override { return "pair-residual"; }
};

storage::Table PairedTable(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x0, x1;
  for (int64_t i = 0; i < rows; ++i) {
    double v = std::floor(rng.Uniform(0, 10));
    x0.push_back(v);
    // Non-monotone dependency + small noise so bootstrap spread is nonzero.
    x1.push_back(std::fmod(v + 5.0, 10.0) + rng.Normal(0.0, 0.05));
  }
  storage::Table t("paired");
  t.AddColumn(storage::Column::Numeric("x0", x0));
  t.AddColumn(storage::Column::Numeric("x1", x1));
  return t;
}

TEST(DetectorTest, FitRequiredBeforeTest) {
  OodDetector det;
  EXPECT_FALSE(det.fitted());
  PairResidualLoss model;
  storage::Table t = PairedTable(100, 1);
  EXPECT_DEATH(det.Test(model, t), "Test before Fit");
}

TEST(DetectorTest, FlagsPermutedDataAsOod) {
  storage::Table base = PairedTable(5000, 2);
  PairResidualLoss model;
  OodDetector det;
  det.Fit(model, base);

  Rng rng(3);
  storage::Table ind = storage::InDistributionSample(base, rng, 0.2);
  storage::Table ood = storage::OutOfDistributionSample(base, rng, 0.2);

  auto ind_res = det.Test(model, ind);
  auto ood_res = det.Test(model, ood);
  EXPECT_FALSE(ind_res.is_ood);
  EXPECT_TRUE(ood_res.is_ood);
  // The OOD statistic dwarfs the threshold (paper Table 3's pattern).
  EXPECT_GT(ood_res.statistic, 10.0 * ood_res.threshold);
  EXPECT_LT(ind_res.statistic, ind_res.threshold);
}

TEST(DetectorTest, ReportsBootstrapMoments) {
  storage::Table base = PairedTable(3000, 4);
  PairResidualLoss model;
  OodDetector det;
  det.Fit(model, base);
  EXPECT_GT(det.bootstrap_std(), 0.0);
  // Bootstrap mean approximates the base loss (residual noise variance).
  EXPECT_NEAR(det.bootstrap_mean(), 0.05 * 0.05, 0.01);
}

// Property test over seeds: the type-1 error rate must be near the nominal
// 5% level, and the power against full permutation must be 1.
class DetectorErrorRateTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DetectorErrorRateTest, FprNearNominalAndFullPower) {
  storage::Table base = PairedTable(6000, GetParam());
  PairResidualLoss model;
  DetectorConfig config;
  config.bootstrap_iterations = 400;
  config.seed = GetParam() + 100;
  OodDetector det(config);
  det.Fit(model, base);

  Rng rng(GetParam() + 200);
  int false_positives = 0;
  constexpr int kIndTrials = 60;
  for (int i = 0; i < kIndTrials; ++i) {
    storage::Table ind = storage::SampleRows(base, rng, 500);
    if (det.Test(model, ind).is_ood) ++false_positives;
  }
  // Nominal two-sided rate is ~5%; allow generous slack for small trials.
  EXPECT_LE(false_positives, kIndTrials / 5);

  int true_positives = 0;
  constexpr int kOodTrials = 20;
  for (int i = 0; i < kOodTrials; ++i) {
    storage::Table ood = storage::OutOfDistributionSample(base, rng, 0.1);
    if (det.Test(model, ood).is_ood) ++true_positives;
  }
  EXPECT_EQ(true_positives, kOodTrials);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectorErrorRateTest,
                         ::testing::Values(10u, 20u, 30u));

TEST(DetectorTest, ThresholdSigmasControlsStrictness) {
  storage::Table base = PairedTable(4000, 5);
  PairResidualLoss model;
  DetectorConfig loose;
  loose.threshold_sigmas = 10.0;
  loose.seed = 6;
  DetectorConfig strict;
  strict.threshold_sigmas = 0.1;
  strict.seed = 6;

  OodDetector loose_det(loose), strict_det(strict);
  loose_det.Fit(model, base);
  strict_det.Fit(model, base);
  Rng rng(7);
  storage::Table ind = storage::SampleRows(base, rng, 400);
  EXPECT_FALSE(loose_det.Test(model, ind).is_ood);
  // With a 0.1-sigma threshold nearly any fluctuation trips the test.
  auto res = strict_det.Test(model, ind);
  EXPECT_GT(res.threshold, 0.0);
  EXPECT_LT(res.threshold, loose_det.Test(model, ind).threshold);
}

TEST(DetectorTest, OneSidedIgnoresLossDrops) {
  // Craft a "new batch" whose loss is *below* the bootstrap mean: with the
  // one-sided test this is not OOD; with the two-sided test it is.
  storage::Table base = PairedTable(4000, 8);
  PairResidualLoss model;

  // Perfect pairs (no noise): lower loss than the noisy base data.
  std::vector<double> x0, x1;
  for (int i = 0; i < 500; ++i) {
    double v = static_cast<double>(i % 10);
    x0.push_back(v);
    x1.push_back(std::fmod(v + 5.0, 10.0));
  }
  storage::Table cleaner("cleaner");
  cleaner.AddColumn(storage::Column::Numeric("x0", x0));
  cleaner.AddColumn(storage::Column::Numeric("x1", x1));

  DetectorConfig one_sided;
  one_sided.two_sided = false;
  one_sided.seed = 9;
  OodDetector det1(one_sided);
  det1.Fit(model, base);
  EXPECT_FALSE(det1.Test(model, cleaner).is_ood);

  DetectorConfig two_sided;
  two_sided.two_sided = true;
  two_sided.seed = 9;
  OodDetector det2(two_sided);
  det2.Fit(model, base);
  EXPECT_TRUE(det2.Test(model, cleaner).is_ood);
}

TEST(DetectorTest, BootstrapMomentsRegression) {
  // Pins the bootstrap moments for a fixed seed by replaying the documented
  // construction: one forked child Rng per iteration, losses combined in
  // iteration order, unbiased (n-1) std. Any change to the fork stream, the
  // estimator, or the combine order shows up here as a bit-level diff.
  // (Replay rather than literal constants: the exact doubles depend on the
  // standard library's distribution algorithms and are not portable.)
  storage::Table base = PairedTable(2000, 77);
  PairResidualLoss model;
  DetectorConfig config;
  config.bootstrap_iterations = 64;
  config.seed = 123;
  OodDetector det(config);
  det.Fit(model, base);

  Rng rng(123);
  int64_t sample_rows = std::max<int64_t>(
      std::llround(0.01 * static_cast<double>(base.num_rows())), 32);
  std::vector<double> losses;
  for (int i = 0; i < 64; ++i) {
    Rng child = rng.Fork();
    losses.push_back(
        model.AverageLoss(storage::BootstrapRows(base, child, sample_rows)));
  }
  EXPECT_DOUBLE_EQ(det.bootstrap_mean(), Mean(losses));
  EXPECT_DOUBLE_EQ(det.bootstrap_std(), SampleStdDev(losses));
  // Sanity-anchor the magnitude so the replay can't drift silently.
  EXPECT_NEAR(det.bootstrap_mean(), 0.0025, 5e-4);
  EXPECT_NEAR(det.bootstrap_std(), 0.00052, 3e-4);
}

TEST(DetectorTest, UnbiasedStdWithTwoIterations) {
  // With only 2 bootstrap iterations the (n-1) estimator is simply
  // |l0 - l1| / sqrt(2); the population estimator would report half that.
  storage::Table base = PairedTable(1000, 13);
  PairResidualLoss model;
  DetectorConfig config;
  config.bootstrap_iterations = 2;
  config.seed = 31;
  OodDetector det(config);
  det.Fit(model, base);

  // Replay the two bootstrap losses with the same fork stream.
  Rng rng(31);
  Rng r0 = rng.Fork();
  Rng r1 = rng.Fork();
  int64_t sample_rows = std::max<int64_t>(
      std::llround(0.01 * static_cast<double>(base.num_rows())), 32);
  double l0 = model.AverageLoss(storage::BootstrapRows(base, r0, sample_rows));
  double l1 = model.AverageLoss(storage::BootstrapRows(base, r1, sample_rows));
  EXPECT_DOUBLE_EQ(det.bootstrap_mean(), (l0 + l1) / 2.0);
  EXPECT_DOUBLE_EQ(det.bootstrap_std(),
                   std::fabs(l0 - l1) / std::sqrt(2.0));
}

TEST(DetectorTest, BitIdenticalAcrossThreadCounts) {
  // The acceptance bar of the kernel/pool/thread-pool refactor: the fitted
  // moments must not depend on how many threads ran the bootstrap loop.
  storage::Table base = PairedTable(3000, 21);
  PairResidualLoss model;
  DetectorConfig one;
  one.seed = 17;
  one.num_threads = 1;
  DetectorConfig many = one;
  many.num_threads = 4;

  OodDetector det1(one), detN(many);
  det1.Fit(model, base);
  detN.Fit(model, base);
  EXPECT_DOUBLE_EQ(det1.bootstrap_mean(), detN.bootstrap_mean());
  EXPECT_DOUBLE_EQ(det1.bootstrap_std(), detN.bootstrap_std());

  auto r1 = det1.Test(model, base.Head(400));
  auto rN = detN.Test(model, base.Head(400));
  EXPECT_DOUBLE_EQ(r1.new_loss, rN.new_loss);
  EXPECT_EQ(r1.is_ood, rN.is_ood);
}

TEST(DetectorTest, NnModelBitIdenticalAcrossThreadCounts) {
  // Same bar, but through a real neural model: the MDN's chunked
  // AverageLoss runs inside the bootstrap workers and must stay bit-exact.
  storage::Table base = datagen::MakeDataset("census", 700, 5);
  datagen::AqpColumns aqp = datagen::AqpColumnsFor("census");
  models::MdnConfig mdn_config;
  mdn_config.hidden_width = 16;
  mdn_config.num_components = 4;
  mdn_config.epochs = 2;
  mdn_config.seed = 3;
  models::Mdn model(base, aqp.categorical, aqp.numeric, mdn_config);

  DetectorConfig one;
  one.seed = 41;
  one.bootstrap_iterations = 16;
  one.num_threads = 1;
  DetectorConfig many = one;
  many.num_threads = 4;

  OodDetector det1(one), detN(many);
  det1.Fit(model, base);
  detN.Fit(model, base);
  EXPECT_DOUBLE_EQ(det1.bootstrap_mean(), detN.bootstrap_mean());
  EXPECT_DOUBLE_EQ(det1.bootstrap_std(), detN.bootstrap_std());
}

TEST(DetectorTest, DeterministicAcrossIdenticalConfigs) {
  storage::Table base = PairedTable(2000, 10);
  PairResidualLoss model;
  DetectorConfig config;
  config.seed = 11;
  OodDetector a(config), b(config);
  a.Fit(model, base);
  b.Fit(model, base);
  EXPECT_DOUBLE_EQ(a.bootstrap_mean(), b.bootstrap_mean());
  EXPECT_DOUBLE_EQ(a.bootstrap_std(), b.bootstrap_std());
}

TEST(DetectorTest, HandlesTinyBatches) {
  storage::Table base = PairedTable(1000, 12);
  PairResidualLoss model;
  OodDetector det;
  det.Fit(model, base);
  // A single-row batch still produces a valid (if noisy) test.
  storage::Table one = base.Head(1);
  auto res = det.Test(model, one);
  EXPECT_GE(res.statistic, 0.0);
}

// ---------------------------------------------------------------------------
// Deduplicated bootstrap: every model family's LossModel::BootstrapLosses
// override against the base-class loop (AverageLoss per sample).
// ---------------------------------------------------------------------------

// Small configs, trained hard enough (high learning rate) that the biases
// are far from their zero init: with a zero bias the GEMM's register panel
// and its row tail round identically, and a tail draw scored in the wrong
// position would go unseen.
std::unique_ptr<UpdatableModel> SmallModel(const std::string& kind,
                                           const storage::Table& base) {
  api::ModelOptions options;
  if (kind == "mdn") {
    options = {{"hidden_width", "16"},
               {"num_components", "4"},
               {"epochs", "4"},
               {"learning_rate", "0.05"}};
  } else if (kind == "darn") {
    options = {{"hidden_width", "16"},
               {"max_bins", "8"},
               {"epochs", "6"},
               {"learning_rate", "0.05"}};
  } else if (kind == "tvae") {
    options = {{"hidden_width", "16"},
               {"latent_dim", "4"},
               {"epochs", "4"},
               {"learning_rate", "0.05"}};
  } else if (kind == "gbdt") {
    options = {{"num_rounds", "5"}};
  }
  auto model = api::ModelFactory::Global().Create(kind, base, options);
  DDUP_CHECK_MSG(model.ok(), model.status().ToString());
  return std::move(model).value();
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

class BootstrapLossesTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BootstrapLossesTest, OverrideMatchesBaseLoopBitForBit) {
  storage::Table base = datagen::MakeDataset("census", 640, 7);
  std::unique_ptr<UpdatableModel> model = SmallModel(GetParam(), base);
  ThreadPool pool(3);
  // Sample sizes with every m % 4 (the NN families' row-tail positions),
  // small enough that one row's last bit can reach the loss, plus one above
  // kLossChunkRows so the chunked combine is replayed too.
  for (int64_t m : {int64_t{3}, int64_t{4}, int64_t{5}, int64_t{6},
                    int64_t{35}, kLossChunkRows + 5}) {
    Rng rng(static_cast<uint64_t>(m));
    std::vector<std::vector<int64_t>> samples;
    for (int i = 0; i < 24; ++i) {
      samples.push_back(rng.SampleWithReplacement(base.num_rows(), m));
    }
    std::vector<double> dedup(samples.size()), loop(samples.size());
    model->BootstrapLosses(base, samples, pool, dedup.data());
    model->LossModel::BootstrapLosses(base, samples, pool, loop.data());
    EXPECT_TRUE(SameBits(dedup, loop)) << GetParam() << " m=" << m;
    EXPECT_DOUBLE_EQ(loop[0], model->AverageLoss(base.TakeRows(samples[0])));
  }
}

TEST_P(BootstrapLossesTest, FittedMomentsMatchBaseLoopAtAnyThreadCount) {
  storage::Table base = datagen::MakeDataset("census", 640, 8);
  std::unique_ptr<UpdatableModel> model = SmallModel(GetParam(), base);
  DetectorConfig one;
  one.seed = 19;
  one.bootstrap_iterations = 24;
  one.min_sample_rows = 35;  // 35 % 4 == 3: three row-tail positions
  one.num_threads = 1;
  DetectorConfig many = one;
  many.num_threads = 4;
  OodDetector det1(one), detN(many);
  det1.Fit(*model, base);
  detN.Fit(*model, base);
  EXPECT_DOUBLE_EQ(det1.bootstrap_mean(), detN.bootstrap_mean());
  EXPECT_DOUBLE_EQ(det1.bootstrap_std(), detN.bootstrap_std());

  // The documented construction through the base-class loop.
  Rng rng(19);
  std::vector<std::vector<int64_t>> samples;
  for (int i = 0; i < 24; ++i) {
    Rng child = rng.Fork();
    samples.push_back(child.SampleWithReplacement(base.num_rows(), 35));
  }
  std::vector<double> losses(samples.size());
  ThreadPool pool(1);
  model->LossModel::BootstrapLosses(base, samples, pool, losses.data());
  EXPECT_DOUBLE_EQ(det1.bootstrap_mean(), Mean(losses));
  EXPECT_DOUBLE_EQ(det1.bootstrap_std(), SampleStdDev(losses));

  // A second refresh runs on the kept dedicated pool; both detectors'
  // streams advanced alike, so the moments still agree.
  det1.Fit(*model, base);
  detN.Fit(*model, base);
  EXPECT_DOUBLE_EQ(det1.bootstrap_mean(), detN.bootstrap_mean());
  EXPECT_DOUBLE_EQ(det1.bootstrap_std(), detN.bootstrap_std());
}

INSTANTIATE_TEST_SUITE_P(Kinds, BootstrapLossesTest,
                         ::testing::Values("mdn", "darn", "tvae", "spn",
                                           "gbdt"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Detector zoo (core/detector_zoo.h): factory, sequential detectors, the
// per-column variant, and state round trips through the DriftDetector
// interface.
// ---------------------------------------------------------------------------

TEST(DetectorZooTest, FactoryListsKindsAndRejectsUnknown) {
  std::vector<std::string> kinds = DriftDetectorKinds();
  EXPECT_EQ(kinds, (std::vector<std::string>{"adwin", "bootstrap", "cusum",
                                             "percolumn_cusum"}));
  for (const auto& kind : kinds) {
    EXPECT_TRUE(HasDriftDetectorKind(kind)) << kind;
    DetectorConfig config;
    config.kind = kind;
    auto det = MakeDriftDetector(config);
    ASSERT_TRUE(det.ok()) << det.status().ToString();
    EXPECT_EQ(det.value()->kind(), kind);
    EXPECT_FALSE(det.value()->fitted());
  }
  EXPECT_FALSE(HasDriftDetectorKind("nope"));
  DetectorConfig bad;
  bad.kind = "nope";
  auto missing = MakeDriftDetector(bad);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find("bootstrap"), std::string::npos)
      << "error should list the registered kinds";
}

TEST(DetectorZooTest, BootstrapThroughFactoryIsByteIdentical) {
  // The refactor's acceptance bar: the paper's detector behind the interface
  // is the same object — same fitted moments, same decision stream, same
  // serialized state bytes as a directly constructed OodDetector.
  storage::Table base = PairedTable(3000, 51);
  PairResidualLoss model;
  DetectorConfig config;
  config.bootstrap_iterations = 64;
  config.seed = 52;

  OodDetector direct(config);
  direct.Fit(model, base);
  DetectorConfig factory_config = config;
  factory_config.kind = "bootstrap";
  auto via_factory = MakeDriftDetector(factory_config);
  ASSERT_TRUE(via_factory.ok());
  via_factory.value()->Fit(model, base);

  EXPECT_DOUBLE_EQ(direct.bootstrap_mean(), via_factory.value()->bootstrap_mean());
  EXPECT_DOUBLE_EQ(direct.bootstrap_std(), via_factory.value()->bootstrap_std());

  Rng rng(53);
  for (int i = 0; i < 4; ++i) {
    storage::Table batch = storage::SampleRows(base, rng, 300);
    auto a = direct.Test(model, batch);
    auto b = via_factory.value()->Test(model, batch);
    EXPECT_DOUBLE_EQ(a.new_loss, b.new_loss);
    EXPECT_DOUBLE_EQ(a.statistic, b.statistic);
    EXPECT_EQ(a.is_ood, b.is_ood);
  }

  io::Serializer sa, sb;
  ASSERT_TRUE(direct.SaveState(&sa).ok());
  ASSERT_TRUE(via_factory.value()->SaveState(&sb).ok());
  EXPECT_EQ(sa.buffer(), sb.buffer());
}

// FPR bound + pinned detection delay for both sequential detectors, checked
// uniformly: on a pure in-distribution stream the alarm count stays below
// the nominal bound, and after a hard step shift (the paper's joint
// permutation, whose loss jump dwarfs the thresholds) the first drifted
// batch already fires.
class SequentialDetectorTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SequentialDetectorTest, FprBoundedOnNoDriftStream) {
  storage::Table base = PairedTable(6000, 61);
  PairResidualLoss model;
  DetectorConfig config;
  config.kind = GetParam();
  config.bootstrap_iterations = 200;
  config.seed = 62;
  auto det = MakeDriftDetector(config);
  ASSERT_TRUE(det.ok());
  det.value()->Fit(model, base);

  Rng rng(63);
  int alarms = 0;
  constexpr int kBatches = 60;
  for (int i = 0; i < kBatches; ++i) {
    storage::Table batch = storage::SampleRows(base, rng, 400);
    if (det.value()->Test(model, batch).is_ood) ++alarms;
  }
  // CUSUM at h = 4 sigma and ADWIN's Hoeffding bound are both far more
  // conservative than the one-shot 2-sigma test; 10% is generous slack.
  EXPECT_LE(alarms, kBatches / 10) << config.kind;
}

TEST_P(SequentialDetectorTest, FiresOnFirstBatchOfStepShift) {
  storage::Table base = PairedTable(6000, 64);
  PairResidualLoss model;
  DetectorConfig config;
  config.kind = GetParam();
  config.bootstrap_iterations = 200;
  config.seed = 65;
  auto det = MakeDriftDetector(config);
  ASSERT_TRUE(det.ok());
  det.value()->Fit(model, base);

  Rng rng(66);
  constexpr int kOnset = 6;
  for (int i = 0; i < kOnset; ++i) {
    storage::Table batch = storage::SampleRows(base, rng, 400);
    ASSERT_FALSE(det.value()->Test(model, batch).is_ood)
        << config.kind << " false alarm at clean batch " << i;
  }
  // Joint permutation destroys the pairing: the loss jumps by tens of
  // sigmas, so the very first drifted batch must trip the alarm (pinned
  // delay 0 — a regression here means a detector got slower).
  storage::Table shifted = storage::OutOfDistributionSample(base, rng, 0.1);
  auto res = det.value()->Test(model, shifted);
  EXPECT_TRUE(res.is_ood) << config.kind;
  EXPECT_GT(res.statistic, res.threshold);
}

INSTANTIATE_TEST_SUITE_P(Kinds, SequentialDetectorTest,
                         ::testing::Values("cusum", "adwin"),
                         [](const auto& info) { return info.param; });

TEST(DetectorZooTest, CusumAccumulatesSubThresholdEvidence) {
  // The point of CUSUM over the one-shot test: a shift too small to trip a
  // single batch accumulates across batches. Inflating the residual noise
  // slightly (0.05 -> 0.058) lifts the mean loss by only ~1.5 bootstrap
  // sigmas per batch — around the one-shot threshold, but the one-sided
  // evidence ratchets S+ by ~(z - k) per batch until the h = 4 alarm.
  storage::Table base = PairedTable(6000, 71);
  PairResidualLoss model;
  DetectorConfig config;
  config.kind = "cusum";
  config.bootstrap_iterations = 200;
  config.seed = 72;
  auto made = MakeDriftDetector(config);
  ASSERT_TRUE(made.ok());
  auto* cusum = dynamic_cast<CusumDetector*>(made.value().get());
  ASSERT_NE(cusum, nullptr);
  cusum->Fit(model, base);

  Rng rng(73);
  bool fired = false;
  int batches_to_alarm = 0;
  for (int i = 0; i < 16 && !fired; ++i) {
    storage::Table clean = storage::SampleRows(base, rng, 400);
    std::vector<double> x0, x1;
    for (int64_t r = 0; r < clean.num_rows(); ++r) {
      x0.push_back(clean.column(0).NumericAt(r));
      x1.push_back(clean.column(1).NumericAt(r) + rng.Normal(0.0, 0.03));
    }
    storage::Table noisy("noisy");
    noisy.AddColumn(storage::Column::Numeric("x0", x0));
    noisy.AddColumn(storage::Column::Numeric("x1", x1));
    fired = cusum->Test(model, noisy).is_ood;
    ++batches_to_alarm;
    if (!fired) { EXPECT_GE(cusum->sum_high(), 0.0); }
  }
  EXPECT_TRUE(fired);
  // Accumulation, not a one-shot jump: the alarm needs several batches.
  EXPECT_GT(batches_to_alarm, 1);
  // Alarm resets the accumulation: one alarm per episode.
  EXPECT_DOUBLE_EQ(cusum->sum_high(), 0.0);
  EXPECT_DOUBLE_EQ(cusum->sum_low(), 0.0);
}

TEST(DetectorZooTest, AdwinDropsStalePrefixOnDetection) {
  storage::Table base = PairedTable(6000, 81);
  PairResidualLoss model;
  DetectorConfig config;
  config.kind = "adwin";
  config.bootstrap_iterations = 200;
  config.seed = 82;
  auto made = MakeDriftDetector(config);
  ASSERT_TRUE(made.ok());
  auto* adwin = dynamic_cast<AdwinDetector*>(made.value().get());
  ASSERT_NE(adwin, nullptr);
  adwin->Fit(model, base);

  Rng rng(83);
  for (int i = 0; i < 8; ++i) {
    storage::Table batch = storage::SampleRows(base, rng, 400);
    ASSERT_FALSE(adwin->Test(model, batch).is_ood);
  }
  EXPECT_EQ(adwin->window_size(), 8);
  // On alarm the pre-change prefix is dropped: the window re-anchors to the
  // post-change regime instead of keeping stale clean-batch losses.
  storage::Table shifted = storage::OutOfDistributionSample(base, rng, 0.1);
  ASSERT_TRUE(adwin->Test(model, shifted).is_ood);
  EXPECT_LT(adwin->window_size(), 8 + 1);
}

TEST(DetectorZooTest, PerColumnSeesMarginalShiftNotJointPermute) {
  storage::Table base = PairedTable(5000, 91);
  PairResidualLoss model;  // ignored: the detector is model-free
  DetectorConfig config;
  config.kind = "percolumn_cusum";
  config.seed = 92;
  auto det = MakeDriftDetector(config);
  ASSERT_TRUE(det.ok());
  det.value()->Fit(model, base);
  EXPECT_DOUBLE_EQ(det.value()->bootstrap_mean(), 0.0);  // no loss reference

  // Joint permutation preserves every marginal: blind by construction.
  Rng rng(93);
  storage::Table permuted = storage::PermuteJointDistribution(base, rng);
  for (int i = 0; i < 8; ++i) {
    storage::Table batch = storage::SampleRows(permuted, rng, 400);
    EXPECT_FALSE(det.value()->Test(model, batch).is_ood) << "batch " << i;
  }

  // A mean shift in one column is exactly what it watches: with 400-row
  // batches the CLT null std is tiny, so a +1.0 shift on x0 (marginal std
  // ~2.9) is a many-sigma z and the alarm fires immediately.
  storage::Table shifted = storage::SampleRows(base, rng, 400);
  std::vector<double> moved;
  for (int64_t r = 0; r < shifted.num_rows(); ++r) {
    moved.push_back(shifted.column(0).NumericAt(r) + 1.0);
  }
  storage::Table drift("drift");
  drift.AddColumn(storage::Column::Numeric("x0", moved));
  drift.AddColumn(storage::Column::Numeric(
      "x1", shifted.column(1).numeric_values()));
  auto res = det.value()->Test(model, drift);
  EXPECT_TRUE(res.is_ood);
  EXPECT_GT(res.new_loss, 2.0);  // carries the largest per-column |z|
}

TEST(DetectorZooTest, ZooStateRoundTripsThroughInterface) {
  // Mid-stream Save/Load for every kind: the restored detector must issue
  // the same decision stream as the live one — including the sequential
  // state (CUSUM sums, ADWIN window) accumulated before the save.
  storage::Table base = PairedTable(4000, 95);
  PairResidualLoss model;
  for (const auto& kind : DriftDetectorKinds()) {
    DetectorConfig config;
    config.kind = kind;
    config.bootstrap_iterations = 48;
    config.seed = 96;
    auto live = MakeDriftDetector(config);
    ASSERT_TRUE(live.ok());
    live.value()->Fit(model, base);

    // Advance past Fit so the snapshot holds non-trivial sequential state.
    Rng rng(97);
    for (int i = 0; i < 3; ++i) {
      storage::Table batch = storage::SampleRows(base, rng, 300);
      (void)live.value()->Test(model, batch);
    }

    io::Serializer out;
    ASSERT_TRUE(live.value()->SaveState(&out).ok()) << kind;
    auto restored = MakeDriftDetector(config);
    ASSERT_TRUE(restored.ok());
    io::Deserializer in(out.Take());
    ASSERT_TRUE(restored.value()->LoadState(&in).ok()) << kind;
    ASSERT_TRUE(in.Finish().ok()) << kind;
    EXPECT_TRUE(restored.value()->fitted()) << kind;

    Rng stream(98);
    for (int i = 0; i < 4; ++i) {
      storage::Table batch = storage::SampleRows(base, stream, 300);
      auto a = live.value()->Test(model, batch);
      auto b = restored.value()->Test(model, batch);
      EXPECT_DOUBLE_EQ(a.statistic, b.statistic) << kind;
      EXPECT_DOUBLE_EQ(a.new_loss, b.new_loss) << kind;
      EXPECT_EQ(a.is_ood, b.is_ood) << kind;
    }
  }
}

}  // namespace
}  // namespace ddup::core
