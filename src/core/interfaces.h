#ifndef DDUP_CORE_INTERFACES_H_
#define DDUP_CORE_INTERFACES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "storage/table.h"
#include "workload/query.h"

namespace ddup {
class ThreadPool;
}  // namespace ddup

namespace ddup::io {
class Serializer;
class Deserializer;
}  // namespace ddup::io

namespace ddup::core {

// A trained model that can score data with its own training loss (§3.2 of
// the paper). "Loss" follows the model's minimized objective (NLL for MDN
// and DARN, ELBO for TVAE): lower means more in-distribution. This is the
// only hook the OOD detector needs, which is what makes DDUp model-agnostic.
class LossModel {
 public:
  virtual ~LossModel() = default;

  // Average per-row training loss over `sample` (no gradient computation).
  virtual double AverageLoss(const storage::Table& sample) const = 0;

  // The detector's offline phase in one call: for every i,
  //   out[i] == AverageLoss(data.TakeRows(samples[i]))   bit for bit.
  // `pool` may run the work; the values never depend on its size. The
  // default is exactly that loop, one sample per pool chunk. The model
  // families override it to score each distinct row of `data` once and then
  // replay AverageLoss's own reductions per sample (DESIGN.md §3).
  virtual void BootstrapLosses(const storage::Table& data,
                               const std::vector<std::vector<int64_t>>& samples,
                               ThreadPool& pool, double* out) const;

  virtual std::string name() const = 0;

  // Checkpoint hooks (src/io, DESIGN.md §9): serialize / restore the model's
  // full mutable state — weights, fitted encoders, task metadata, and the
  // RNG stream — so a reloaded model reproduces predictions bit-for-bit and
  // continues training exactly where the saved one stopped. The default
  // implementations report the model as non-checkpointable.
  virtual Status SaveState(io::Serializer* out) const;
  virtual Status LoadState(io::Deserializer* in);
};

// Hyperparameters of the distillation update (Eq. 5-7).
struct DistillConfig {
  // Weight of the transfer-set term in Eq. 5. Negative means "auto": the
  // old-data share |D_old| / (|D_old| + |D_new|) (see DESIGN.md §6.1 on the
  // paper's ambiguous prose here).
  double alpha = -1.0;
  // Distillation weight inside the transfer-set term (paper tunes over
  // {9/10, 5/6, 1/4, 1/2}).
  double lambda = 0.5;
  // Softmax temperature of the annealed cross-entropy (Eq. 6).
  double temperature = 2.0;
  int epochs = 8;
  int batch_size = 128;
  double learning_rate = 1e-3;
};

// Resolves DistillConfig::alpha given old/new data sizes.
inline double ResolveAlpha(const DistillConfig& config, int64_t old_rows,
                           int64_t new_rows) {
  if (config.alpha >= 0.0) return config.alpha;
  if (old_rows + new_rows <= 0) return 0.5;
  return static_cast<double>(old_rows) /
         static_cast<double>(old_rows + new_rows);
}

// Every piece of mutable per-call state an estimate is allowed to touch
// (DESIGN.md §13). Estimators themselves are immutable during estimation —
// `this` is const and genuinely untouched — so any number of threads can
// estimate against one model (or one published Engine snapshot) with no
// lock. The RNG stream is derived per query from (model seed, query
// fingerprint), never from a shared mutable member: the same query yields
// the same stream at any batch size, batch position or call count, which is
// what lets the differential harness byte-compare engines.
//
// Matrix scratch is NOT carried here — it comes from the calling thread's
// MatrixPool::Local(), which is already per-thread and allocation-free once
// warm.
struct EstimateContext {
  Rng rng{0};
};

// Optional query surfaces a learned component may implement alongside
// UpdatableModel. The Engine facade (src/api) probes for these with
// dynamic_cast once at snapshot-publish time and returns FailedPrecondition
// when a model kind does not serve the requested estimate, so callers never
// need to know the concrete model class behind a table.
//
// Thread safety contract: every method here is const and must be safe for
// concurrent callers on an immutable model. Per-call mutable state (the
// DARN's progressive-sampler RNG) lives in EstimateContext.
class CardinalityEstimator {
 public:
  virtual ~CardinalityEstimator() = default;

  // Estimated number of rows matching the query's conjunctive predicates;
  // InvalidArgument for a query the model cannot evaluate (e.g. predicates
  // on out-of-range columns), never a crash. `ctx` owns all mutable
  // per-call state; pass the result of MakeEstimateContext(query) for the
  // deterministic per-query stream.
  virtual StatusOr<double> TryEstimateCardinality(
      const workload::Query& query, EstimateContext* ctx) const = 0;

  // The deterministic context for `query`: RNG forked from the model's seed
  // keyed by the query fingerprint. Stateless estimators return the default
  // context.
  virtual EstimateContext MakeEstimateContext(
      const workload::Query& query) const {
    (void)query;
    return EstimateContext{};
  }

  // Convenience scalar path: derive the per-query context, then estimate.
  StatusOr<double> TryEstimateCardinality(const workload::Query& query) const {
    EstimateContext ctx = MakeEstimateContext(query);
    return TryEstimateCardinality(query, &ctx);
  }

  // Batched entry point: out[i] = estimate for queries[i] (out is resized).
  // Fails fast on the first invalid query (the error names its index);
  // answers for every query are identical to the scalar path bit for bit.
  // The default loops the scalar path; models override it with vectorized
  // implementations (the DARN batches all queries' progressive-sample paths
  // into one matrix per column and runs a single GEMM-backed forward).
  virtual Status TryEstimateCardinalityBatch(
      const std::vector<workload::Query>& queries,
      std::vector<double>* out) const;
};

class AqpEstimator {
 public:
  virtual ~AqpEstimator() = default;

  // COUNT/SUM/AVG estimate for a DBEst++-style template query (`schema`
  // resolves column names/dictionaries; any table with the base schema).
  // InvalidArgument for a query outside the model's template. Same
  // const/concurrency contract as CardinalityEstimator.
  virtual StatusOr<double> TryEstimateAqp(const workload::Query& query,
                                          const storage::Table& schema,
                                          EstimateContext* ctx) const = 0;

  virtual EstimateContext MakeEstimateContext(
      const workload::Query& query) const {
    (void)query;
    return EstimateContext{};
  }

  StatusOr<double> TryEstimateAqp(const workload::Query& query,
                                  const storage::Table& schema) const {
    EstimateContext ctx = MakeEstimateContext(query);
    return TryEstimateAqp(query, schema, &ctx);
  }

  // Batched entry point, same contract as the cardinality variant. The MDN
  // override computes each distinct category's mixture once per batch.
  virtual Status TryEstimateAqpBatch(
      const std::vector<workload::Query>& queries,
      const storage::Table& schema, std::vector<double>* out) const;
};

// A model supporting DDUp's update actions (§4). Implemented by the MDN,
// DARN and TVAE components in models/ (plus the SPN and GBDT adapters).
class UpdatableModel : public LossModel {
 public:
  // Plain SGD/Adam steps on `new_data` only, with the given learning rate.
  // This is both the paper's "baseline" update and the in-distribution
  // fine-tune policy (with a size-scaled learning rate).
  virtual void FineTune(const storage::Table& new_data, double learning_rate,
                        int epochs) = 0;

  // Sequential self-distillation update (§4.2): snapshots the current model
  // as the teacher, then trains the (same-architecture) student on
  //   alpha * mean_tr[ lambda * L_distill + (1-lambda) * L_task ]
  //   + (1-alpha) * mean_up[ L_task ]                                (Eq. 5)
  // with the model-specific distillation loss (Eq. 9/10/11).
  virtual void DistillUpdate(const storage::Table& transfer_set,
                             const storage::Table& new_data,
                             const DistillConfig& config) = 0;

  // Re-initializes parameters and trains on `data` from scratch (the
  // expensive reference policy).
  virtual void RetrainFromScratch(const storage::Table& data) = 0;

  // Updates task metadata that must track the true table state regardless of
  // whether the network weights change (frequency tables for the MDN,
  // total cardinality for the DARN; §2.2 "updating maybe just the
  // hyper-parameters of the system"). Called by the controller for every
  // insertion, including in-distribution ones handled by the stale policy.
  virtual void AbsorbMetadata(const storage::Table& new_data) = 0;

  // Clears the task metadata so it can be rebuilt with AbsorbMetadata —
  // needed by policies that train weights on a sample but must keep exact
  // metadata for the full table (e.g. NeuroCard-style fast-retrain).
  virtual void ResetMetadata() = 0;
};

}  // namespace ddup::core

#endif  // DDUP_CORE_INTERFACES_H_
