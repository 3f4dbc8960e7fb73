#ifndef DDUP_MODELS_UPDATABLE_ADAPTERS_H_
#define DDUP_MODELS_UPDATABLE_ADAPTERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/interfaces.h"
#include "models/gbdt.h"
#include "models/spn.h"

namespace ddup::models {

// Adapters lifting the non-NN reference models (Spn, Gbdt) onto the
// core::UpdatableModel contract, so the DdupController and the Engine's
// ModelFactory treat all five model families uniformly. The NN models
// implement the contract natively; these two approximate it with the
// operations each family actually supports (documented per method).

// DeepDB-style SPN behind the DDUp loop. "Loss" is the mean negative log
// probability of each row's fully specified (all-columns equality) cell in
// the discretized joint — the SPN analog of the NN models' training NLL.
// In-distribution fine-tunes and distillation updates both map onto the
// SPN's incremental insert (weights + histograms, never restructuring):
// that is precisely the update the paper's §5.7 study shows degrading,
// which the detector can now observe through this adapter.
class SpnModel : public core::UpdatableModel, public core::CardinalityEstimator {
 public:
  SpnModel(const storage::Table& base_data, SpnConfig config);

  // core::UpdatableModel:
  double AverageLoss(const storage::Table& sample) const override;
  // Scores each distinct drawn row once, then sums each sample's row NLLs
  // in draw order exactly as AverageLoss does.
  void BootstrapLosses(const storage::Table& data,
                       const std::vector<std::vector<int64_t>>& samples,
                       ThreadPool& pool, double* out) const override;
  std::string name() const override { return "spn"; }
  // Incremental insert of `new_data` (learning_rate/epochs are meaningless
  // for histogram routing and are ignored).
  void FineTune(const storage::Table& new_data, double learning_rate,
                int epochs) override;
  // The SPN has no distillation objective; the transfer set's knowledge is
  // already embedded in the structure, so only `new_data` is inserted.
  void DistillUpdate(const storage::Table& transfer_set,
                     const storage::Table& new_data,
                     const core::DistillConfig& config) override;
  void RetrainFromScratch(const storage::Table& data) override;
  // Row accounting lives inside Spn::Update; nothing separate to absorb.
  void AbsorbMetadata(const storage::Table& new_data) override { (void)new_data; }
  void ResetMetadata() override {}
  Status SaveState(io::Serializer* out) const override;
  Status LoadState(io::Deserializer* in) override;

  // core::CardinalityEstimator: the SPN tree walk is deterministic and
  // RNG-free, so the context is unused and the default (stateless)
  // MakeEstimateContext applies. The default batch loop is already optimal —
  // there is no per-call setup to amortize.
  StatusOr<double> TryEstimateCardinality(
      const workload::Query& query,
      core::EstimateContext* ctx) const override;
  using core::CardinalityEstimator::TryEstimateCardinality;

  const Spn& spn() const { return *spn_; }

  static StatusOr<std::unique_ptr<SpnModel>> Restore(io::Deserializer* in);

 private:
  SpnModel() = default;  // shell for Restore

  // -log P(row's discretized cell): the per-row term of AverageLoss.
  double RowNll(const storage::Table& data, int64_t row) const;

  std::unique_ptr<Spn> spn_;
};

// XGBoost-style classifier behind the DDUp loop (the paper's §5.1.4
// evaluation model). "Loss" is the misclassification rate on the sample
// (1 - micro-F1): label-distribution drift raises it exactly like the NN
// models' NLL rises under covariate drift. Boosted trees cannot be
// fine-tuned incrementally, so the update actions retrain: FineTune on the
// new batch only (the forget-prone baseline), DistillUpdate on transfer
// set + new batch (old knowledge carried by the transfer sample instead of
// a teacher network), RetrainFromScratch on everything.
class GbdtModel : public core::UpdatableModel {
 public:
  GbdtModel(const storage::Table& base_data, const std::string& target_column,
            GbdtConfig config);

  // core::UpdatableModel:
  double AverageLoss(const storage::Table& sample) const override;
  // Predicts each distinct drawn row once, then counts each sample's hits.
  void BootstrapLosses(const storage::Table& data,
                       const std::vector<std::vector<int64_t>>& samples,
                       ThreadPool& pool, double* out) const override;
  std::string name() const override { return "gbdt"; }
  void FineTune(const storage::Table& new_data, double learning_rate,
                int epochs) override;
  void DistillUpdate(const storage::Table& transfer_set,
                     const storage::Table& new_data,
                     const core::DistillConfig& config) override;
  void RetrainFromScratch(const storage::Table& data) override;
  void AbsorbMetadata(const storage::Table& new_data) override { (void)new_data; }
  void ResetMetadata() override {}
  Status SaveState(io::Serializer* out) const override;
  Status LoadState(io::Deserializer* in) override;

  const Gbdt& gbdt() const { return *gbdt_; }

  static StatusOr<std::unique_ptr<GbdtModel>> Restore(io::Deserializer* in);

 private:
  GbdtModel() = default;  // shell for Restore

  GbdtConfig config_;
  std::string target_column_;
  std::unique_ptr<Gbdt> gbdt_;
};

}  // namespace ddup::models

#endif  // DDUP_MODELS_UPDATABLE_ADAPTERS_H_
