// Exact answers for the benchmark's correctness checks and q-errors,
// computed by the benchmark's own scans over the generated tables, so the
// truth never comes from the program under test (workload::Execute,
// storage::HashJoin). Column values are read through storage::Column only
// to copy them into plain arrays once.
#ifndef DDUP_PERFBENCH_ORACLE_H_
#define DDUP_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/table.h"
#include "workload/join_query.h"
#include "workload/query.h"

namespace perfbench {

// A table as column-major doubles (categorical columns hold their codes).
class ScanTable {
 public:
  explicit ScanTable(const ddup::storage::Table& table) {
    names_ = table.ColumnNames();
    rows_ = table.num_rows();
    for (int c = 0; c < table.num_columns(); ++c) {
      const ddup::storage::Column& col = table.column(c);
      std::vector<double> values(static_cast<size_t>(rows_));
      for (int64_t r = 0; r < rows_; ++r) {
        values[static_cast<size_t>(r)] =
            col.is_numeric() ? col.NumericAt(r)
                             : static_cast<double>(col.CodeAt(r));
      }
      columns_.push_back(std::move(values));
    }
  }

  int64_t rows() const { return rows_; }
  const std::vector<double>& column(int c) const {
    return columns_[static_cast<size_t>(c)];
  }
  int ColumnIndex(const std::string& name) const {
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<int>(i);
    }
    return -1;
  }

  bool Matches(const std::vector<ddup::workload::Predicate>& predicates,
               int64_t row) const {
    for (const ddup::workload::Predicate& p : predicates) {
      const double v = columns_[static_cast<size_t>(p.column)]
                               [static_cast<size_t>(row)];
      switch (p.op) {
        case ddup::workload::CompareOp::kEq:
          if (v != p.value) return false;
          break;
        case ddup::workload::CompareOp::kGe:
          if (v < p.value) return false;
          break;
        case ddup::workload::CompareOp::kLe:
          if (v > p.value) return false;
          break;
      }
    }
    return true;
  }

  // Exact COUNT(*) of the rows satisfying every predicate.
  int64_t Count(const ddup::workload::Query& query) const {
    int64_t n = 0;
    for (int64_t r = 0; r < rows_; ++r) n += Matches(query.predicates, r);
    return n;
  }

 private:
  std::vector<std::string> names_;
  std::vector<std::vector<double>> columns_;
  int64_t rows_ = 0;
};

// A star schema: one fact table, dimensions reached by one equi-join edge
// each from the fact table.
struct StarScan {
  std::string fact_name;
  const ScanTable* fact = nullptr;
  struct Dim {
    std::string name;
    const ScanTable* table = nullptr;
    std::string fact_key;
    std::string dim_key;
  };
  std::vector<Dim> dims;

  // Exact join size: hash each dimension's key column (rows passing that
  // dimension's predicates), then sum over qualifying fact rows the product
  // of matching dimension rows.
  int64_t JoinCount(const ddup::workload::JoinQuery& query) const {
    std::vector<ddup::workload::Predicate> fact_preds;
    for (const auto& bp : query.predicates) {
      if (bp.table == fact_name) fact_preds.push_back(bp.predicate);
    }
    std::vector<std::unordered_map<double, int64_t>> key_counts(dims.size());
    std::vector<int> fact_key_col(dims.size());
    for (size_t d = 0; d < dims.size(); ++d) {
      std::vector<ddup::workload::Predicate> dim_preds;
      for (const auto& bp : query.predicates) {
        if (bp.table == dims[d].name) dim_preds.push_back(bp.predicate);
      }
      const int key = dims[d].table->ColumnIndex(dims[d].dim_key);
      for (int64_t r = 0; r < dims[d].table->rows(); ++r) {
        if (dims[d].table->Matches(dim_preds, r)) {
          ++key_counts[d][dims[d].table->column(key)[static_cast<size_t>(r)]];
        }
      }
      fact_key_col[d] = fact->ColumnIndex(dims[d].fact_key);
    }
    int64_t total = 0;
    for (int64_t r = 0; r < fact->rows(); ++r) {
      if (!fact->Matches(fact_preds, r)) continue;
      int64_t product = 1;
      for (size_t d = 0; d < dims.size() && product != 0; ++d) {
        auto it = key_counts[d].find(
            fact->column(fact_key_col[d])[static_cast<size_t>(r)]);
        product *= it == key_counts[d].end() ? 0 : it->second;
      }
      total += product;
    }
    return total;
  }
};

}  // namespace perfbench

#endif  // DDUP_PERFBENCH_ORACLE_H_
