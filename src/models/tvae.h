#ifndef DDUP_MODELS_TVAE_H_
#define DDUP_MODELS_TVAE_H_

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

// TVAE-style tabular variational autoencoder (§4.3 "Variational
// Autoencoders"): a Gaussian encoder/decoder pair trained with the ELBO
// loss. Numeric columns are z-scored and reconstructed with per-column
// learned output noise; categorical columns are one-hot encoded and
// reconstructed with softmax heads. Synthesis draws z ~ N(0, I) and decodes.
// The ELBO doubles as DDUp's OOD signal (higher = more out-of-distribution).
struct TvaeConfig {
  int latent_dim = 8;
  int hidden_width = 64;
  int epochs = 20;
  int batch_size = 128;
  double learning_rate = 2e-3;
  uint64_t seed = 13;
};

class Tvae : public core::UpdatableModel {
 public:
  Tvae(const storage::Table& base_data, TvaeConfig config);

  // core::UpdatableModel:
  double AverageLoss(const storage::Table& sample) const override;  // ELBO
  // Scores each distinct drawn row once per GEMM position (4-row panel or
  // row tail) and replays the ELBO's reductions per sample (DESIGN.md §3).
  void BootstrapLosses(const storage::Table& data,
                       const std::vector<std::vector<int64_t>>& samples,
                       ThreadPool& pool, double* out) const override;
  std::string name() const override { return "tvae"; }
  void FineTune(const storage::Table& new_data, double learning_rate,
                int epochs) override;
  void DistillUpdate(const storage::Table& transfer_set,
                     const storage::Table& new_data,
                     const core::DistillConfig& config) override;
  void RetrainFromScratch(const storage::Table& data) override;
  void AbsorbMetadata(const storage::Table& new_data) override {
    (void)new_data;  // the generator keeps no query-time metadata
  }
  void ResetMetadata() override {}
  Status SaveState(io::Serializer* out) const override;
  Status LoadState(io::Deserializer* in) override;

  // One-file checkpoint (src/io, section kind "tvae"), including the
  // zero-row schema table (dictionaries) and per-column codings.
  Status SaveToFile(const std::string& path) const;
  static StatusOr<std::unique_ptr<Tvae>> LoadFromFile(const std::string& path);
  // Rebuilds a model from a raw SaveState payload (the ModelFactory /
  // engine-manifest restore path; LoadFromFile wraps this).
  static StatusOr<std::unique_ptr<Tvae>> Restore(io::Deserializer* in);
  static constexpr const char* kCheckpointKind = "tvae";

  double Elbo(const storage::Table& sample) const { return AverageLoss(sample); }

  // Synthesizes n rows with the base schema (dictionaries preserved,
  // numerics clamped to the base support).
  storage::Table Sample(int64_t n, Rng& rng) const;

  int latent_dim() const { return config_.latent_dim; }

 private:
  // Uninitialized shell for LoadFromFile; LoadState restores every field.
  Tvae() = default;

  struct ColumnCoding {
    bool is_numeric = false;
    int offset = 0;       // offset in the flat input/output layout
    int cardinality = 1;  // 1 for numeric, K for categorical
    Standardizer standardizer;
    double raw_min = 0.0, raw_max = 0.0;  // clamp bounds for sampling
  };

  struct EncodedBatch {
    nn::Matrix x;                          // N x D flat input
    std::vector<std::vector<int>> codes;   // per categorical column
  };

  struct VaeGraph {
    nn::Variable mu, logvar;  // encoder outputs
    nn::Variable z;           // reparameterized latent
    nn::Variable out;         // decoder flat output
  };

  // The ELBO's per-row terms, each N x 1, before the batch means.
  struct ElboTerms {
    nn::Variable numeric;  // numeric Gaussian NLL row sums; undefined if none
    std::vector<nn::Variable> categorical;  // log P(code), per column
    nn::Variable kl;  // row sums of 1 + logvar - mu^2 - exp(logvar)
  };

  void InitParams();
  EncodedBatch Encode(const storage::Table& data,
                      const std::vector<int64_t>& rows) const;
  VaeGraph ForwardGraph(const std::vector<nn::Variable>& params,
                        const nn::Matrix& x, const nn::Matrix& eps) const;
  ElboTerms ElboRowTerms(const std::vector<nn::Variable>& params,
                         const VaeGraph& g, const EncodedBatch& batch) const;
  nn::Variable ElboLoss(const std::vector<nn::Variable>& params,
                        const VaeGraph& g, const EncodedBatch& batch) const;
  void TrainLoop(const storage::Table& data, double lr, int epochs);
  nn::Matrix SampleEps(int n) const;

  TvaeConfig config_;
  storage::Table schema_;  // zero-row table carrying column schemas
  std::vector<ColumnCoding> coding_;
  std::vector<int> categorical_columns_;  // indices into schema
  int input_dim_ = 0;
  std::vector<nn::Variable> params_;
  mutable Rng rng_;
};

}  // namespace ddup::models

#endif  // DDUP_MODELS_TVAE_H_
