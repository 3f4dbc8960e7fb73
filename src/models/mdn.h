#ifndef DDUP_MODELS_MDN_H_
#define DDUP_MODELS_MDN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/interfaces.h"
#include "models/encoding.h"
#include "nn/layers.h"
#include "nn/optim.h"
#include "workload/query.h"

namespace ddup::models {

// DBEst++-style AQP engine (§4.3 "Mixture Density Networks"): a mixture
// density network models the conditional density p(y | x) of a numeric
// attribute y given a categorical attribute x, and a per-category frequency
// table tracks group sizes. COUNT/SUM/AVG range aggregates are answered with
// analytic Gaussian integrals — no data access at query time.
struct MdnConfig {
  int num_components = 8;
  int hidden_width = 64;
  int epochs = 25;
  int batch_size = 128;
  double learning_rate = 5e-3;
  uint64_t seed = 7;
};

// View of a DBEst++-style query (one equality on the categorical column,
// a [lo, hi] range on the numeric column).
struct AqpQueryView {
  int category = 0;
  double lo = 0.0;
  double hi = 0.0;
  workload::AggFunc agg = workload::AggFunc::kCount;
};

class Mdn : public core::UpdatableModel, public core::AqpEstimator {
 public:
  // Fits encoders on `base_data` and trains the base model M0 on it.
  Mdn(const storage::Table& base_data, const std::string& categorical_column,
      const std::string& numeric_column, MdnConfig config);

  // core::UpdatableModel:
  double AverageLoss(const storage::Table& sample) const override;
  // Runs the network once per category (the only input it reads) in each
  // GEMM position, scores each distinct drawn row's mixture likelihood
  // once, then replays AverageLoss's reductions per sample (DESIGN.md §3).
  void BootstrapLosses(const storage::Table& data,
                       const std::vector<std::vector<int64_t>>& samples,
                       ThreadPool& pool, double* out) const override;
  std::string name() const override { return "mdn"; }
  void FineTune(const storage::Table& new_data, double learning_rate,
                int epochs) override;
  void DistillUpdate(const storage::Table& transfer_set,
                     const storage::Table& new_data,
                     const core::DistillConfig& config) override;
  void RetrainFromScratch(const storage::Table& data) override;
  void AbsorbMetadata(const storage::Table& new_data) override;
  void ResetMetadata() override;
  Status SaveState(io::Serializer* out) const override;
  Status LoadState(io::Deserializer* in) override;

  // One-file checkpoint (src/io, section kind "mdn"): a loaded model
  // reproduces the saved model's predictions bit-for-bit and continues
  // training on the identical RNG stream.
  Status SaveToFile(const std::string& path) const;
  static StatusOr<std::unique_ptr<Mdn>> LoadFromFile(const std::string& path);
  // Rebuilds a model from a raw SaveState payload (the ModelFactory /
  // engine-manifest restore path; LoadFromFile wraps this).
  static StatusOr<std::unique_ptr<Mdn>> Restore(io::Deserializer* in);
  static constexpr const char* kCheckpointKind = "mdn";

  // Average log-likelihood (= -AverageLoss); the paper reports this signal.
  double AverageLogLikelihood(const storage::Table& sample) const;

  // Parses a workload query against this model's columns; nullopt if the
  // query does not match the template.
  std::optional<AqpQueryView> ParseQuery(const workload::Query& query,
                                         const storage::Table& schema) const;
  // COUNT/SUM/AVG estimate for a template query.
  double EstimateAqp(const AqpQueryView& view) const;
  // Convenience: parse + estimate (CHECKs that the query matches).
  double EstimateAqp(const workload::Query& query,
                     const storage::Table& schema) const;
  // core::AqpEstimator (the surface the Engine dispatches to): like the
  // convenience overload, but a query outside the template is an
  // InvalidArgument instead of a CHECK failure. Estimation is analytic and
  // RNG-free — the context is unused — and never touches `this`, so
  // concurrent estimates need no lock.
  using core::AqpEstimator::TryEstimateAqp;
  StatusOr<double> TryEstimateAqp(const workload::Query& query,
                                  const storage::Table& schema,
                                  core::EstimateContext* ctx) const override;
  // Batched entry: each distinct category's mixture (a full network forward
  // in MixtureFor) is computed once per batch instead of once per query.
  // MixtureFor is a pure function of the frozen weights, so the cached
  // mixture gives bit-identical answers to the scalar path.
  Status TryEstimateAqpBatch(const std::vector<workload::Query>& queries,
                             const storage::Table& schema,
                             std::vector<double>* out) const override;

  // Conditional density of normalized y given a category (used by tests and
  // the quickstart example).
  double ConditionalDensity(int category, double y_raw) const;
  const MinMaxNormalizer& normalizer() const { return normalizer_; }
  int64_t frequency(int category) const;

 private:
  // Uninitialized shell for LoadFromFile; every field is restored by
  // LoadState before the instance escapes.
  Mdn() = default;

  struct Batch {
    std::vector<int> codes;
    nn::Matrix y;  // N x 1 normalized targets
  };

  struct MixtureParams {
    std::vector<double> weight, mean, sigma;
  };

  Batch MakeBatch(const storage::Table& data,
                  const std::vector<int64_t>& rows) const;
  // Analytic aggregate from an already-computed mixture (shared by the
  // scalar and batched estimate paths).
  double EstimateFromMixture(const AqpQueryView& view,
                             const MixtureParams& mp) const;
  nn::Variable NllLoss(const std::vector<nn::Variable>& params,
                       const Batch& batch) const;
  void InitParams();
  void TrainLoop(const storage::Table& data, double lr, int epochs);
  MixtureParams MixtureFor(int category) const;

  MdnConfig config_;
  std::string cat_name_, num_name_;
  int cat_index_ = -1, num_index_ = -1;
  int cardinality_ = 0;
  MinMaxNormalizer normalizer_;
  std::vector<nn::Variable> params_;
  std::vector<int64_t> frequency_;
  mutable Rng rng_;
};

}  // namespace ddup::models

#endif  // DDUP_MODELS_MDN_H_
