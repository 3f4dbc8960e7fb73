#include "models/gbdt.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/status.h"
#include "io/checkpoint.h"
#include "io/serializer.h"

namespace ddup::models {

namespace {
constexpr uint32_t kGbdtStateVersion = 1;
}

Gbdt::Gbdt(GbdtConfig config) : config_(config) {}

double Gbdt::Tree::Predict(const std::vector<double>& x) const {
  DDUP_CHECK(!nodes.empty());
  int i = 0;
  while (nodes[static_cast<size_t>(i)].feature >= 0) {
    const TreeNode& n = nodes[static_cast<size_t>(i)];
    i = x[static_cast<size_t>(n.feature)] <= n.threshold ? n.left : n.right;
  }
  return nodes[static_cast<size_t>(i)].value;
}

std::vector<std::vector<double>> Gbdt::ExtractFeatures(
    const storage::Table& data) const {
  std::vector<std::vector<double>> rows(
      static_cast<size_t>(data.num_rows()),
      std::vector<double>(feature_columns_.size()));
  for (size_t f = 0; f < feature_columns_.size(); ++f) {
    const storage::Column& col = data.column(feature_columns_[f]);
    for (int64_t r = 0; r < data.num_rows(); ++r) {
      rows[static_cast<size_t>(r)][f] = col.AsDouble(r);
    }
  }
  return rows;
}

int Gbdt::BuildTree(Tree* tree, const std::vector<std::vector<double>>& features,
                    const std::vector<double>& grad,
                    const std::vector<double>& hess, std::vector<int> rows,
                    int depth) {
  double g_total = 0.0, h_total = 0.0;
  for (int r : rows) {
    g_total += grad[static_cast<size_t>(r)];
    h_total += hess[static_cast<size_t>(r)];
  }
  const double lambda = config_.l2_regularization;
  auto make_leaf = [&]() {
    TreeNode leaf;
    leaf.value = -g_total / (h_total + lambda);
    tree->nodes.push_back(leaf);
    return static_cast<int>(tree->nodes.size()) - 1;
  };
  if (depth >= config_.max_depth ||
      static_cast<int>(rows.size()) < 2 * config_.min_leaf_size) {
    return make_leaf();
  }

  double parent_score = g_total * g_total / (h_total + lambda);
  double best_gain = 1e-12;
  int best_feature = -1;
  double best_threshold = 0.0;
  size_t num_features = feature_columns_.size();
  // Each feature sorts (value, row) pairs by value alone, starting from the
  // order the previous feature's sort left. introsort's element moves depend
  // only on its comparison outcomes, which are those of the old index sort
  // through features[row][f] — so the permutation, and with it the
  // summation order of g_left/h_left at tied values, is unchanged, while
  // each comparison reads one key instead of two rows.
  using Keyed = std::pair<double, int>;  // (feature value, row)
  std::vector<Keyed> keyed(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) keyed[i].second = rows[i];
  for (size_t f = 0; f < num_features; ++f) {
    for (Keyed& kv : keyed) {
      kv.first = features[static_cast<size_t>(kv.second)][f];
    }
    std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
      return a.first < b.first;
    });
    double g_left = 0.0, h_left = 0.0;
    for (size_t i = 0; i + 1 < keyed.size(); ++i) {
      int r = keyed[i].second;
      g_left += grad[static_cast<size_t>(r)];
      h_left += hess[static_cast<size_t>(r)];
      double v = keyed[i].first;
      double v_next = keyed[i + 1].first;
      if (v == v_next) continue;  // can only split between distinct values
      int n_left = static_cast<int>(i) + 1;
      int n_right = static_cast<int>(keyed.size()) - n_left;
      if (n_left < config_.min_leaf_size || n_right < config_.min_leaf_size) {
        continue;
      }
      double g_right = g_total - g_left;
      double h_right = h_total - h_left;
      double gain = g_left * g_left / (h_left + lambda) +
                    g_right * g_right / (h_right + lambda) - parent_score;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = (v + v_next) / 2.0;
      }
    }
  }
  if (best_feature < 0) return make_leaf();

  std::vector<int> left_rows, right_rows;
  for (int r : rows) {
    if (features[static_cast<size_t>(r)][static_cast<size_t>(best_feature)] <=
        best_threshold) {
      left_rows.push_back(r);
    } else {
      right_rows.push_back(r);
    }
  }
  TreeNode split;
  split.feature = best_feature;
  split.threshold = best_threshold;
  tree->nodes.push_back(split);
  int self = static_cast<int>(tree->nodes.size()) - 1;
  int left = BuildTree(tree, features, grad, hess, std::move(left_rows),
                       depth + 1);
  int right = BuildTree(tree, features, grad, hess, std::move(right_rows),
                        depth + 1);
  tree->nodes[static_cast<size_t>(self)].left = left;
  tree->nodes[static_cast<size_t>(self)].right = right;
  return self;
}

void Gbdt::Train(const storage::Table& data, const std::string& target_column) {
  int target = data.ColumnIndex(target_column);
  DDUP_CHECK_MSG(target >= 0, "missing target column " + target_column);
  const storage::Column& label_col = data.column(target);
  DDUP_CHECK_MSG(!label_col.is_numeric(), "GBDT target must be categorical");
  target_column_ = target_column;
  num_classes_ = label_col.cardinality();
  feature_columns_.clear();
  for (int c = 0; c < data.num_columns(); ++c) {
    if (c != target) feature_columns_.push_back(c);
  }
  DDUP_CHECK_MSG(!feature_columns_.empty(), "no feature columns");

  auto features = ExtractFeatures(data);
  int64_t n = data.num_rows();
  std::vector<int> labels(static_cast<size_t>(n));
  for (int64_t r = 0; r < n; ++r) labels[static_cast<size_t>(r)] = label_col.CodeAt(r);

  std::vector<std::vector<double>> scores(
      static_cast<size_t>(num_classes_),
      std::vector<double>(static_cast<size_t>(n), 0.0));
  rounds_.clear();

  std::vector<int> all_rows(static_cast<size_t>(n));
  std::iota(all_rows.begin(), all_rows.end(), 0);
  std::vector<double> probs(static_cast<size_t>(num_classes_));

  for (int round = 0; round < config_.num_rounds; ++round) {
    std::vector<Tree> class_trees(static_cast<size_t>(num_classes_));
    // Softmax gradients/hessians for every class from the current scores.
    std::vector<std::vector<double>> grad(
        static_cast<size_t>(num_classes_),
        std::vector<double>(static_cast<size_t>(n)));
    std::vector<std::vector<double>> hess = grad;
    for (int64_t r = 0; r < n; ++r) {
      double mx = -1e300;
      for (int k = 0; k < num_classes_; ++k) {
        mx = std::max(mx, scores[static_cast<size_t>(k)][static_cast<size_t>(r)]);
      }
      double sum = 0.0;
      for (int k = 0; k < num_classes_; ++k) {
        probs[static_cast<size_t>(k)] = std::exp(
            scores[static_cast<size_t>(k)][static_cast<size_t>(r)] - mx);
        sum += probs[static_cast<size_t>(k)];
      }
      for (int k = 0; k < num_classes_; ++k) {
        double p = probs[static_cast<size_t>(k)] / sum;
        double y = labels[static_cast<size_t>(r)] == k ? 1.0 : 0.0;
        grad[static_cast<size_t>(k)][static_cast<size_t>(r)] = p - y;
        hess[static_cast<size_t>(k)][static_cast<size_t>(r)] =
            std::max(1e-6, p * (1.0 - p));
      }
    }
    for (int k = 0; k < num_classes_; ++k) {
      BuildTree(&class_trees[static_cast<size_t>(k)], features,
                grad[static_cast<size_t>(k)], hess[static_cast<size_t>(k)],
                all_rows, 0);
      for (int64_t r = 0; r < n; ++r) {
        scores[static_cast<size_t>(k)][static_cast<size_t>(r)] +=
            config_.learning_rate *
            class_trees[static_cast<size_t>(k)].Predict(
                features[static_cast<size_t>(r)]);
      }
    }
    rounds_.push_back(std::move(class_trees));
  }
}

std::vector<int> Gbdt::Predict(const storage::Table& data) const {
  DDUP_CHECK_MSG(!rounds_.empty(), "Predict before Train");
  auto features = ExtractFeatures(data);
  std::vector<int> preds(static_cast<size_t>(data.num_rows()));
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    int best = 0;
    double best_score = -1e300;
    for (int k = 0; k < num_classes_; ++k) {
      double s = 0.0;
      for (const auto& round : rounds_) {
        s += config_.learning_rate *
             round[static_cast<size_t>(k)].Predict(
                 features[static_cast<size_t>(r)]);
      }
      if (s > best_score) {
        best_score = s;
        best = k;
      }
    }
    preds[static_cast<size_t>(r)] = best;
  }
  return preds;
}

double Gbdt::MicroF1(const storage::Table& test) const {
  int target = test.ColumnIndex(target_column_);
  DDUP_CHECK_MSG(target >= 0, "test table missing target column");
  std::vector<int> preds = Predict(test);
  const storage::Column& labels = test.column(target);
  int64_t correct = 0;
  for (int64_t r = 0; r < test.num_rows(); ++r) {
    if (preds[static_cast<size_t>(r)] == labels.CodeAt(r)) ++correct;
  }
  // Micro-F1 over all classes == accuracy for single-label classification.
  return test.num_rows() > 0
             ? static_cast<double>(correct) / static_cast<double>(test.num_rows())
             : 0.0;
}

Status Gbdt::SaveState(io::Serializer* out) const {
  out->WriteU32(kGbdtStateVersion);
  out->WriteI32(config_.num_rounds);
  out->WriteI32(config_.max_depth);
  out->WriteDouble(config_.learning_rate);
  out->WriteI32(config_.min_leaf_size);
  out->WriteDouble(config_.l2_regularization);
  out->WriteString(target_column_);
  out->WriteIntVec(feature_columns_);
  out->WriteI32(num_classes_);
  out->WriteU32(static_cast<uint32_t>(rounds_.size()));
  for (const auto& round : rounds_) {
    out->WriteU32(static_cast<uint32_t>(round.size()));
    for (const auto& tree : round) {
      out->WriteU32(static_cast<uint32_t>(tree.nodes.size()));
      for (const auto& n : tree.nodes) {
        out->WriteI32(n.feature);
        out->WriteDouble(n.threshold);
        out->WriteI32(n.left);
        out->WriteI32(n.right);
        out->WriteDouble(n.value);
      }
    }
  }
  return Status::OK();
}

Status Gbdt::LoadState(io::Deserializer* in) {
  uint32_t version = in->ReadU32();
  if (in->ok() && version != kGbdtStateVersion) {
    return Status::InvalidArgument("unsupported gbdt state version " +
                                   std::to_string(version));
  }
  config_.num_rounds = in->ReadI32();
  config_.max_depth = in->ReadI32();
  config_.learning_rate = in->ReadDouble();
  config_.min_leaf_size = in->ReadI32();
  config_.l2_regularization = in->ReadDouble();
  target_column_ = in->ReadString();
  feature_columns_ = in->ReadIntVec();
  num_classes_ = in->ReadI32();
  rounds_.clear();
  uint32_t num_rounds = in->ReadU32();
  for (uint32_t r = 0; r < num_rounds && in->ok(); ++r) {
    std::vector<Tree> round;
    uint32_t num_trees = in->ReadU32();
    for (uint32_t t = 0; t < num_trees && in->ok(); ++t) {
      Tree tree;
      uint32_t num_nodes = in->ReadU32();
      for (uint32_t i = 0; i < num_nodes && in->ok(); ++i) {
        TreeNode n;
        n.feature = in->ReadI32();
        n.threshold = in->ReadDouble();
        n.left = in->ReadI32();
        n.right = in->ReadI32();
        n.value = in->ReadDouble();
        tree.nodes.push_back(n);
      }
      round.push_back(std::move(tree));
    }
    rounds_.push_back(std::move(round));
  }
  DDUP_RETURN_IF_ERROR(in->status());
  // Structural validation: Tree::Predict walks raw indices, so a CRC-valid
  // but malformed payload must be rejected here, not crash/loop there.
  // BuildTree appends children after their parent, so child indices strictly
  // greater than the parent's are an invariant of genuine checkpoints — and
  // guarantee termination of the Predict walk.
  auto num_features = static_cast<int>(feature_columns_.size());
  for (const auto& round : rounds_) {
    if (static_cast<int>(round.size()) != num_classes_) {
      return Status::InvalidArgument("gbdt round/class count mismatch");
    }
    for (const auto& tree : round) {
      auto num_nodes = static_cast<int>(tree.nodes.size());
      if (num_nodes == 0) {
        return Status::InvalidArgument("gbdt checkpoint has an empty tree");
      }
      for (int i = 0; i < num_nodes; ++i) {
        const TreeNode& n = tree.nodes[static_cast<size_t>(i)];
        if (n.feature < 0) continue;  // leaf
        if (n.feature >= num_features || n.left <= i || n.left >= num_nodes ||
            n.right <= i || n.right >= num_nodes) {
          return Status::InvalidArgument("gbdt checkpoint has a malformed tree");
        }
      }
    }
  }
  return Status::OK();
}

Status Gbdt::SaveToFile(const std::string& path) const {
  io::Serializer state;
  DDUP_RETURN_IF_ERROR(SaveState(&state));
  return io::WriteSectionFile(path, kCheckpointKind, state.Take());
}

StatusOr<std::unique_ptr<Gbdt>> Gbdt::Restore(io::Deserializer* in) {
  auto model = std::make_unique<Gbdt>();
  DDUP_RETURN_IF_ERROR(model->LoadState(in));
  return model;
}

StatusOr<std::unique_ptr<Gbdt>> Gbdt::LoadFromFile(const std::string& path) {
  StatusOr<std::string> payload = io::ReadSectionFile(path, kCheckpointKind);
  if (!payload.ok()) return payload.status();
  io::Deserializer in(std::move(payload).value());
  StatusOr<std::unique_ptr<Gbdt>> model = Restore(&in);
  if (!model.ok()) return model;
  Status st = in.Finish();
  if (!st.ok()) return st;
  return model;
}

}  // namespace ddup::models
