#ifndef DDUP_MODELS_DARN_H_
#define DDUP_MODELS_DARN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/interfaces.h"
#include "models/encoding.h"
#include "nn/layers.h"
#include "workload/query.h"

namespace ddup::models {

// Naru/NeuroCard-style deep autoregressive network (§4.3 "Deep
// Autoregressive Networks"): a MADE (masked autoencoder) over the
// dictionary/bin-encoded columns learns the factorized joint
// P(A1) P(A2|A1) ... P(Am|A1..Am-1). Cardinality estimates use progressive
// sampling with exact per-column summation over the predicate's allowed
// codes. The training loss (summed per-column cross-entropy == joint NLL)
// doubles as DDUp's OOD signal.
struct DarnConfig {
  int hidden_width = 64;
  int max_bins = 32;           // numeric columns binned equal-frequency
  int epochs = 6;
  int batch_size = 128;
  double learning_rate = 5e-3;
  int progressive_samples = 16;
  uint64_t seed = 11;
};

class Darn : public core::UpdatableModel, public core::CardinalityEstimator {
 public:
  // Fits the discretizer on `base_data` and trains the base model M0.
  Darn(const storage::Table& base_data, DarnConfig config);

  // core::UpdatableModel:
  double AverageLoss(const storage::Table& sample) const override;
  // Scores each distinct drawn row once per GEMM position (4-row panel or
  // row tail) and replays AverageLoss's reductions per sample (DESIGN.md
  // §3).
  void BootstrapLosses(const storage::Table& data,
                       const std::vector<std::vector<int64_t>>& samples,
                       ThreadPool& pool, double* out) const override;
  std::string name() const override { return "darn"; }
  void FineTune(const storage::Table& new_data, double learning_rate,
                int epochs) override;
  void DistillUpdate(const storage::Table& transfer_set,
                     const storage::Table& new_data,
                     const core::DistillConfig& config) override;
  void RetrainFromScratch(const storage::Table& data) override;
  void AbsorbMetadata(const storage::Table& new_data) override;
  void ResetMetadata() override { total_rows_ = 0; }
  Status SaveState(io::Serializer* out) const override;
  Status LoadState(io::Deserializer* in) override;

  // One-file checkpoint (src/io, section kind "darn"). The MADE masks are
  // not stored — they are a pure function of the encoder and config and are
  // rebuilt on load.
  Status SaveToFile(const std::string& path) const;
  static StatusOr<std::unique_ptr<Darn>> LoadFromFile(const std::string& path);
  // Rebuilds a model from a raw SaveState payload (the ModelFactory /
  // engine-manifest restore path; LoadFromFile wraps this).
  static StatusOr<std::unique_ptr<Darn>> Restore(io::Deserializer* in);
  static constexpr const char* kCheckpointKind = "darn";

  double AverageLogLikelihood(const storage::Table& sample) const {
    return -AverageLoss(sample);
  }

  // Estimated number of rows matching the query's conjunctive predicates.
  double EstimateCardinality(const workload::Query& query) const;
  // core::CardinalityEstimator (the surface the Engine dispatches to):
  // validates the predicates before estimating. Estimation never touches
  // `this` — all per-call state is the context's RNG — so any number of
  // threads can estimate concurrently against one (immutable) model.
  using core::CardinalityEstimator::TryEstimateCardinality;
  StatusOr<double> TryEstimateCardinality(
      const workload::Query& query,
      core::EstimateContext* ctx) const override;
  // RNG stream derived from (config seed, query fingerprint): the same query
  // gets the same stream at any batch size or call count.
  core::EstimateContext MakeEstimateContext(
      const workload::Query& query) const override;
  // Vectorized batch entry: all queries' progressive-sample paths share one
  // padded matrix, so weight freezing and the per-column forward passes are
  // paid once per batch instead of once per query. Bit-identical to the
  // scalar path (which routes through the same core with one query).
  Status TryEstimateCardinalityBatch(const std::vector<workload::Query>& queries,
                                     std::vector<double>* out) const override;
  // Selectivity in [0, 1] (EstimateCardinality / total_rows).
  double EstimateSelectivity(const workload::Query& query) const;
  // Exact joint probability of one fully specified encoded row (tests only;
  // enumerating these over a small domain must sum to 1).
  double JointProbability(const std::vector<int>& encoded_row) const;

  int64_t total_rows() const { return total_rows_; }
  const DiscreteEncoder& encoder() const { return encoder_; }

 private:
  // Uninitialized shell for LoadFromFile; LoadState restores every field.
  Darn() = default;

  struct FrozenNet {
    nn::Matrix mw1, b1, mw2, b2, mw3, b3;  // masked weights, biases
  };

  void InitParams();
  void BuildMasks(int num_columns);
  // The parameters with the MADE masks applied (W1, W2, W3 masked by Mul
  // nodes, so weight gradients route through the masks; biases as given).
  std::vector<nn::Variable> MaskWeights(
      const std::vector<nn::Variable>& params) const;
  // Autograd forward: logits over all output blocks for the batch encoded as
  // per-column code vectors, from MaskWeights(params).
  nn::Variable ForwardLogits(const std::vector<nn::Variable>& masked,
                             const std::vector<std::vector<int>>& codes) const;
  // Per column, each row's log P(code | prefix) (N x 1 each), from
  // MaskWeights(params).
  std::vector<nn::Variable> ColumnLogProbs(
      const std::vector<nn::Variable>& masked,
      const std::vector<std::vector<int>>& codes) const;
  // Joint NLL (mean per row) for the batch.
  nn::Variable NllLoss(const std::vector<nn::Variable>& params,
                       const std::vector<std::vector<int>>& codes) const;
  void TrainLoop(const storage::Table& data, double lr, int epochs);

  FrozenNet Freeze() const;
  // Batched progressive sampling over nn/kernels with MatrixPool scratch:
  // selectivities for `n` queries in one padded path matrix, each query
  // drawing from its own stream rngs[i] (DESIGN.md §13). All row counts are
  // padded to a multiple of 4 so every row runs in a full GEMM register
  // panel — per-row results are then independent of what else shares the
  // batch, which is what makes answers batch-size-invariant bit for bit.
  //
  // `active_set` opts into the vectorized engine's MADE-degree execution
  // strategy: output block `col` structurally reads only hidden units of
  // degree < col+1 (mask3) and those read only the same unit set (mask2),
  // so both per-column GEMMs shrink to the active submatrix. This is exact
  // — skipped terms are exact zeros of the masked weights, and the kernel
  // accumulates each output element in one sequential chain — and the
  // differential harness byte-checks it against the dense spec path. It is
  // only taken when hidden_width keeps every output element in the kernel's
  // main register tile (see ActiveSetSafe); otherwise the dense path runs.
  void SelectivityBatch(const workload::Query* queries, size_t n, Rng* rngs,
                        double* out, bool active_set) const;
  bool ActiveSetSafe() const;
  // Value-level hidden pass shared by inference paths: returns the second
  // hidden activation (num_paths x H).
  nn::Matrix HiddenForward(const FrozenNet& net,
                           const std::vector<std::vector<int>>& codes) const;
  // Softmax probabilities of output block `col` from hidden activations.
  nn::Matrix BlockProbs(const FrozenNet& net, const nn::Matrix& h2,
                        int col) const;

  // Gathers minibatch codes from whole-table codes.
  static std::vector<std::vector<int>> GatherCodes(
      const std::vector<std::vector<int>>& all,
      const std::vector<int64_t>& rows);

  DarnConfig config_;
  DiscreteEncoder encoder_;
  int num_columns_ = 0;
  std::vector<nn::Variable> params_;  // W1,b1,W2,b2,W3,b3
  nn::Matrix mask1_, mask2_, mask3_;
  // Per output column: ascending hidden-unit indices with degree < col+1
  // (the units mask3 lets that block read), padded up to a multiple of 16
  // with inactive units so restricted GEMM widths keep every element in the
  // kernel's main register tile. Rebuilt with the masks.
  std::vector<std::vector<int>> active_units_;
  int64_t total_rows_ = 0;
  // Training stream only. Estimates never touch it (they derive per-query
  // streams via MakeEstimateContext), keeping the estimate path const.
  Rng rng_;
};

}  // namespace ddup::models

#endif  // DDUP_MODELS_DARN_H_
