#ifndef DDUP_CORE_DETECTOR_H_
#define DDUP_CORE_DETECTOR_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/interfaces.h"
#include "storage/table.h"

namespace ddup::core {

// Configuration shared by every drift detector. The bootstrap fields drive
// the loss-based two-sample OOD test (§3.3-3.4); the cusum_*/adwin_* knobs
// parameterize the sequential detectors in core/detector_zoo.h and are
// ignored by the others.
struct DetectorConfig {
  // Which detector MakeDriftDetector (core/detector_zoo.h) builds:
  // "bootstrap" (the paper's two-sample test, the default), "cusum",
  // "adwin", or "percolumn_cusum".
  std::string kind = "bootstrap";
  // Offline bootstrap iterations (the paper uses >1000; benches raise it).
  int bootstrap_iterations = 256;
  // Bootstrap sample size as a fraction of the old data (paper: 1% samples
  // with replacement), floored at min_sample_rows.
  double old_sample_fraction = 0.01;
  int64_t min_sample_rows = 32;
  // Online sample taken from the new batch, as a fraction of the batch
  // (paper: 10% without replacement), floored at min_sample_rows.
  double new_sample_fraction = 0.10;
  // Significance threshold = threshold_sigmas * bootstrap std (2 ~= p 0.05).
  double threshold_sigmas = 2.0;
  // Two-sided tests also flag suspiciously *low* loss; the paper's test is
  // effectively one-sided on loss increase (see DESIGN.md §6.3).
  bool two_sided = true;
  uint64_t seed = 29;
  // Threads for the bootstrap loop in Fit: 0 shares the process-wide
  // ThreadPool::Global(); > 0 runs on a dedicated pool of that size, built
  // at the first Fit and kept for the detector's life. The fitted moments
  // are bit-identical for every setting — each iteration owns a pre-forked
  // child Rng and results combine in iteration order.
  int num_threads = 0;
  // CUSUM (detector_zoo): per-batch z-scores accumulate into one-sided sums
  // S+/S- with drift allowance k (in sigmas); an alarm fires when a sum
  // exceeds h (in sigmas) and resets that episode's accumulation.
  double cusum_k_sigmas = 0.5;
  double cusum_h_sigmas = 4.0;
  // ADWIN-style detector (detector_zoo): confidence parameter of the
  // Hoeffding cut over every split of the adaptive window of batch losses,
  // and the window's size cap.
  double adwin_delta = 0.05;
  int adwin_max_window = 96;
};

// Outcome of testing one insertion batch against the fitted reference.
// Every detector fills the same record so the controller, Engine reports
// and benches stay detector-agnostic; fields a detector has no analogue for
// are left at their reference-free defaults (documented per detector).
struct DriftTestResult {
  double signed_statistic = 0.0;  // new_loss - bootstrap_mean
  double statistic = 0.0;         // detector's alarm statistic
  double threshold = 0.0;         // alarm fires when statistic exceeds this
  double bootstrap_mean = 0.0;
  double bootstrap_std = 0.0;
  double new_loss = 0.0;
  bool is_ood = false;
};

// A pluggable drift detector: fitted offline against the accumulated old
// data, then fed each insertion batch in stream order. Test is non-const
// because detection is stateful — sequential detectors accumulate evidence
// across batches, and even the bootstrap test advances its sampling RNG.
// Fit re-anchors the reference (the controller refits after every accepted
// insertion), which also resets any accumulated sequential state.
class DriftDetector {
 public:
  virtual ~DriftDetector() = default;

  virtual void Fit(const LossModel& model, const storage::Table& old_data) = 0;
  virtual bool fitted() const = 0;
  virtual DriftTestResult Test(const LossModel& model,
                               const storage::Table& new_batch) = 0;

  // Stable factory name ("bootstrap", "cusum", ...; see detector_zoo.h).
  virtual const char* kind() const = 0;

  // Reference moments published in LoopStats; detectors without a
  // bootstrapped loss reference report 0.
  virtual double bootstrap_mean() const = 0;
  virtual double bootstrap_std() const = 0;

  // Snapshot hooks (src/io). A restored detector issues the identical
  // sequence of Test decisions without re-running the offline phase. The
  // byte format is per-kind; pair LoadState with the kind that wrote it
  // (the controller persists the kind alongside the state).
  virtual Status SaveState(io::Serializer* out) const = 0;
  virtual Status LoadState(io::Deserializer* in) = 0;
};

// Shared base of the detectors whose H0 reference is the bootstrapped
// distribution of the mean model loss (bootstrap, cusum, adwin): owns the
// config, the fitted moments and the online sampling RNG, and implements
// the offline bootstrap phase.
class LossReferenceDetector : public DriftDetector {
 public:
  explicit LossReferenceDetector(DetectorConfig config);

  // Offline phase. Must be re-run whenever the model or the reference data
  // changes (the controller does this after every accepted insertion).
  // Draws every iteration's row indices from its forked Rng, then scores all
  // samples in one LossModel::BootstrapLosses call.
  void Fit(const LossModel& model, const storage::Table& old_data) override;
  bool fitted() const override { return fitted_; }

  double bootstrap_mean() const override { return bootstrap_mean_; }
  double bootstrap_std() const override { return bootstrap_std_; }
  const DetectorConfig& config() const { return config_; }

 protected:
  // Average model loss over a new_sample_fraction sample of the batch,
  // drawn from the online RNG — the shared online measurement.
  double SampledBatchLoss(const LossModel& model,
                          const storage::Table& new_batch);

  // Hook for subclasses with sequential state (CUSUM sums, ADWIN window):
  // called at the end of every Fit, because a re-anchored reference
  // invalidates evidence accumulated against the old one.
  virtual void ResetSequentialState() {}

  // Serialize/restore the shared fields in a fixed order: config (the v1
  // bootstrap fields only — the detector kind travels outside the state),
  // fitted moments, fitted flag, online RNG.
  void SaveCommon(io::Serializer* out) const;
  void LoadCommon(io::Deserializer* in);

  DetectorConfig config_;
  double bootstrap_mean_ = 0.0;
  double bootstrap_std_ = 0.0;
  bool fitted_ = false;
  Rng rng_;

 private:
  // The pool Fit runs on: ThreadPool::Global() for num_threads == 0, else
  // the dedicated pool, (re)built only when its size differs from the
  // config (LoadState may change num_threads).
  ThreadPool& FitPool();

  std::unique_ptr<ThreadPool> pool_;
};

// The DDUp OOD detector. Offline (Fit): bootstrap samples of the old data
// are scored with the model's own average training loss to estimate the
// sampling distribution of the mean loss under H0 (CLT: approximately
// normal). Online (Test): the average loss of a sample of the new batch is
// compared against bootstrap_mean with threshold k * std (Eq. 3). Each
// batch is judged independently — no evidence carries across batches.
class OodDetector : public LossReferenceDetector {
 public:
  explicit OodDetector(DetectorConfig config = {});

  // Backwards-compatible alias: OodDetector::TestResult predates the
  // pluggable interface.
  using TestResult = DriftTestResult;

  DriftTestResult Test(const LossModel& model,
                       const storage::Table& new_batch) override;
  const char* kind() const override { return "bootstrap"; }

  Status SaveState(io::Serializer* out) const override;
  Status LoadState(io::Deserializer* in) override;
  Status SaveToFile(const std::string& path) const;
  static StatusOr<OodDetector> LoadFromFile(const std::string& path);
  static constexpr const char* kCheckpointKind = "detector";
};

}  // namespace ddup::core

#endif  // DDUP_CORE_DETECTOR_H_
