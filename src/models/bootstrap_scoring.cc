#include "models/bootstrap_scoring.h"

#include <algorithm>

#include "common/status.h"

namespace ddup::models {

namespace {
// Panel blocks are a multiple of 4 rows; a row tail call stays below 4.
constexpr int64_t kPanelBlockRows = 256;
constexpr int64_t kTailCallRows = 3;
constexpr int64_t kNotDrawn = -1;
constexpr int64_t kDrawn = -2;
}  // namespace

BootstrapPlan::BootstrapPlan(const std::vector<std::vector<int64_t>>& samples,
                             int64_t num_rows, bool split_tail) {
  DDUP_CHECK(num_rows > 0);
  // slot[row] holds the row's panel entry, slot[num_rows + row] its tail
  // entry: first marked as drawn, then numbered in ascending row order.
  std::vector<int64_t> slot(
      static_cast<size_t>(split_tail ? 2 * num_rows : num_rows), kNotDrawn);
  auto slot_index = [&](const std::vector<int64_t>& sample, size_t p) {
    const size_t m = sample.size();
    const bool tail = split_tail && p >= m - m % 4;
    return static_cast<size_t>((tail ? num_rows : 0) + sample[p]);
  };
  for (const auto& sample : samples) {
    for (size_t p = 0; p < sample.size(); ++p) {
      DDUP_CHECK(sample[p] >= 0 && sample[p] < num_rows);
      slot[slot_index(sample, p)] = kDrawn;
    }
  }
  for (size_t k = 0; k < slot.size(); ++k) {
    if (slot[k] != kDrawn) continue;
    slot[k] = static_cast<int64_t>(rows_.size());
    rows_.push_back(static_cast<int64_t>(k) % num_rows);
    if (static_cast<int64_t>(k) < num_rows) ++num_panel_;
  }
  offsets_.reserve(samples.size() + 1);
  offsets_.push_back(0);
  for (const auto& sample : samples) {
    for (size_t p = 0; p < sample.size(); ++p) {
      entries_.push_back(slot[slot_index(sample, p)]);
    }
    offsets_.push_back(entries_.size());
  }
}

std::vector<double> ScoreEntries(const BootstrapPlan& plan, int num_terms,
                                 ThreadPool& pool, const RowScorer& score) {
  const int64_t entries = plan.num_entries();
  const int64_t panel = plan.num_panel();
  std::vector<double> terms(static_cast<size_t>(entries * num_terms));
  const int64_t panel_blocks = (panel + kPanelBlockRows - 1) / kPanelBlockRows;
  const int64_t tail_calls =
      (entries - panel + kTailCallRows - 1) / kTailCallRows;
  const int64_t calls = panel_blocks + tail_calls;
  pool.ParallelFor(0, calls, /*chunk=*/1, [&](int64_t lo, int64_t hi) {
    std::vector<int64_t> rows;
    std::vector<double> block;
    for (int64_t b = lo; b < hi; ++b) {
      const bool in_panel = b < panel_blocks;
      const int64_t first = in_panel
                                ? b * kPanelBlockRows
                                : panel + (b - panel_blocks) * kTailCallRows;
      const int64_t count = in_panel
                                ? std::min(kPanelBlockRows, panel - first)
                                : std::min(kTailCallRows, entries - first);
      rows.assign(plan.rows().begin() + first,
                  plan.rows().begin() + first + count);
      if (in_panel) {
        rows.resize(static_cast<size_t>((count + 3) & ~3), rows.back());
      }
      block.resize(rows.size() * static_cast<size_t>(num_terms));
      score(rows, block.data());
      std::copy(block.begin(), block.begin() + count * num_terms,
                terms.begin() + first * num_terms);
    }
  });
  return terms;
}

void ForEachSample(
    const BootstrapPlan& plan, ThreadPool& pool,
    const std::function<void(size_t i, const int64_t* entries, int64_t m)>&
        fn) {
  const auto n = static_cast<int64_t>(plan.num_samples());
  pool.ParallelFor(0, n, /*chunk=*/8, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const auto s = static_cast<size_t>(i);
      fn(s, plan.sample_entries(s), plan.sample_size(s));
    }
  });
}

void ChunkedSampleLosses(
    const BootstrapPlan& plan, ThreadPool& pool,
    const std::function<double(const int64_t* entries, int64_t n)>& chunk_loss,
    double* out) {
  ForEachSample(plan, pool, [&](size_t i, const int64_t* entries, int64_t m) {
    out[i] = ParallelChunkMean(pool, m, kLossChunkRows,
                               [&](int64_t lo, int64_t hi) {
                                 return chunk_loss(entries + lo, hi - lo);
                               });
  });
}

}  // namespace ddup::models
