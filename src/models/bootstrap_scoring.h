#ifndef DDUP_MODELS_BOOTSTRAP_SCORING_H_
#define DDUP_MODELS_BOOTSTRAP_SCORING_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/thread_pool.h"

namespace ddup::models {

// The deduplicated bootstrap behind the models' LossModel::BootstrapLosses
// overrides (DESIGN.md §3). Every draw (sample i, position p) maps to one
// *entry*, a row of the reference table that is scored once however many
// draws share it; each sample's loss is then replayed from its entries.
//
// With `split_tail`, draws also split by the GEMM row-position rule. The NN
// families' AverageLoss scores an m-row sample in kLossChunkRows-row chunks
// (a multiple of 4), so the draws in the sample's last m % 4 positions run
// in the kernels' ScalarRowTail, which adds the bias in a different order
// than the 4-row register panel every other position runs in. Those draws
// map to separate tail entries. SPN and GBDT score a row the same way at any
// position and pass false.
class BootstrapPlan {
 public:
  BootstrapPlan(const std::vector<std::vector<int64_t>>& samples,
                int64_t num_rows, bool split_tail);

  int64_t num_entries() const { return static_cast<int64_t>(rows_.size()); }
  // Entries [0, num_panel()) are panel entries, the rest tail entries; both
  // runs list their rows in ascending order.
  int64_t num_panel() const { return num_panel_; }
  // The reference-table row of every entry.
  const std::vector<int64_t>& rows() const { return rows_; }

  size_t num_samples() const { return offsets_.size() - 1; }
  // Sample i's entry ids, in draw order.
  const int64_t* sample_entries(size_t i) const {
    return entries_.data() + offsets_[i];
  }
  int64_t sample_size(size_t i) const {
    return static_cast<int64_t>(offsets_[i + 1] - offsets_[i]);
  }

 private:
  std::vector<int64_t> rows_;
  int64_t num_panel_ = 0;
  std::vector<int64_t> entries_;  // all samples' entry ids, flattened
  std::vector<size_t> offsets_;   // sample i owns [offsets_[i], offsets_[i+1])
};

// Fills `terms` (rows.size() x num_terms, row-major) with the per-row loss
// terms of the listed reference rows. A row's terms may depend only on the
// row and on whether it ran in a 4-row GEMM panel or in the row tail.
using RowScorer =
    std::function<void(const std::vector<int64_t>& rows, double* terms)>;

// Scores every entry of `plan` through `score` and returns the terms
// entry-major: terms[e * num_terms + t]. Panel entries go in blocks padded
// to a multiple of 4 rows (the padding repeats the block's last row and is
// dropped), so every one of them runs in a full register panel; tail
// entries go in calls of at most 3 rows, which the kernels run entirely in
// ScalarRowTail. Blocks run on `pool`; the terms do not depend on its size.
std::vector<double> ScoreEntries(const BootstrapPlan& plan, int num_terms,
                                 ThreadPool& pool, const RowScorer& score);

// Runs fn(i, entries, m) for every sample i of `plan` on `pool`.
void ForEachSample(
    const BootstrapPlan& plan, ThreadPool& pool,
    const std::function<void(size_t i, const int64_t* entries, int64_t m)>&
        fn);

// The NN families' sample loss: out[i] is ParallelChunkMean over sample i
// with the shared kLossChunkRows chunking, exactly as AverageLoss's
// GlobalChunkMean combines it; chunk_loss(entries, n) replays the loss
// graph's reductions over one chunk's n draws.
void ChunkedSampleLosses(
    const BootstrapPlan& plan, ThreadPool& pool,
    const std::function<double(const int64_t* entries, int64_t n)>& chunk_loss,
    double* out);

// The value of one graph node as the graph left it: rounded to a double in
// memory. The loss replays pass every product through it, because the
// compiler may contract a product into a following add (GCC does so across
// statements by default), which the graph, one op per stored matrix, never
// does.
inline double Stored(double x) {
  volatile double v = x;
  return v;
}

// nn::Mean over `n` draws of term `t`, replayed: Matrix::Sum's sequential
// sum from 0.0, then sum * (1 / n).
inline double ReplayMean(const std::vector<double>& terms, int num_terms,
                         const int64_t* entries, int64_t n, int t) {
  double sum = 0.0;
  for (int64_t r = 0; r < n; ++r) {
    sum += terms[static_cast<size_t>(entries[r] * num_terms + t)];
  }
  const double inv = 1.0 / static_cast<double>(n);
  return Stored(sum * inv);
}

}  // namespace ddup::models

#endif  // DDUP_MODELS_BOOTSTRAP_SCORING_H_
