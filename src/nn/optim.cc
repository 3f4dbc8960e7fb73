#include "nn/optim.h"

#include <cmath>

#include "common/status.h"

namespace ddup::nn {

Optimizer::Optimizer(std::vector<Variable> params) : params_(std::move(params)) {
  for (const auto& p : params_) {
    DDUP_CHECK_MSG(p.defined() && p.requires_grad(),
                   "optimizer parameters must require gradients");
  }
}

void Optimizer::ZeroGrad() {
  for (auto& p : params_) p.ZeroGrad();
}

Sgd::Sgd(std::vector<Variable> params, double lr, double momentum)
    : Optimizer(std::move(params)), momentum_(momentum) {
  lr_ = lr;
  velocity_.reserve(params_.size());
  for (const auto& p : params_) {
    velocity_.push_back(Matrix::Zeros(p.rows(), p.cols()));
  }
}

void Sgd::Step() {
  for (size_t i = 0; i < params_.size(); ++i) {
    Variable& p = params_[i];
    if (p.grad().empty()) continue;  // never touched by a Backward pass
    Matrix& value = p.mutable_value();
    Matrix& vel = velocity_[i];
    const Matrix& g = p.grad();
    for (int64_t j = 0; j < value.size(); ++j) {
      vel.data()[j] = momentum_ * vel.data()[j] - lr_ * g.data()[j];
      value.data()[j] += vel.data()[j];
    }
  }
}

Adam::Adam(std::vector<Variable> params, double lr, double beta1, double beta2,
           double eps)
    : Optimizer(std::move(params)), beta1_(beta1), beta2_(beta2), eps_(eps) {
  lr_ = lr;
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.push_back(Matrix::Zeros(p.rows(), p.cols()));
    v_.push_back(Matrix::Zeros(p.rows(), p.cols()));
  }
}

void Adam::Step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const double beta1 = beta1_, beta2 = beta2_, lr = lr_, eps = eps_;
  for (size_t i = 0; i < params_.size(); ++i) {
    Variable& p = params_[i];
    if (p.grad().empty()) continue;
    // Local restrict pointers (and -fno-math-errno on this file, see
    // src/CMakeLists.txt) let the loop vectorise; each element's arithmetic
    // is the same expression sequence as the textbook scalar loop.
    const int64_t n = p.value().size();
    double* __restrict value = p.mutable_value().data();
    const double* __restrict g = p.grad().data();
    double* __restrict m = m_[i].data();
    double* __restrict v = v_[i].data();
    for (int64_t j = 0; j < n; ++j) {
      const double gj = g[j];
      m[j] = beta1 * m[j] + (1.0 - beta1) * gj;
      v[j] = beta2 * v[j] + (1.0 - beta2) * gj * gj;
      const double mhat = m[j] / bc1;
      const double vhat = v[j] / bc2;
      value[j] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
  }
}

}  // namespace ddup::nn
