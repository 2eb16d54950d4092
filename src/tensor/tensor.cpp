#include "tensor/tensor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>

#include "common/error.hpp"

namespace autohet::tensor {

namespace {
std::int64_t checked_numel(const std::vector<std::int64_t>& shape) {
  AUTOHET_CHECK(!shape.empty(), "tensor shape must be non-empty");
  std::int64_t n = 1;
  for (std::int64_t d : shape) {
    AUTOHET_CHECK(d > 0, "tensor dims must be positive");
    n *= d;
  }
  return n;
}
}  // namespace

Tensor::Tensor(std::vector<std::int64_t> shape)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(checked_numel(shape_)), 0.0f) {}

std::int64_t Tensor::dim(std::size_t axis) const {
  AUTOHET_CHECK(axis < shape_.size(), "axis out of range");
  return shape_[axis];
}

std::int64_t Tensor::flat_index(std::int64_t i, std::int64_t j) const {
  AUTOHET_CHECK(rank() == 2, "expected rank-2 tensor");
  AUTOHET_CHECK(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1],
                "index out of range");
  return i * shape_[1] + j;
}

std::int64_t Tensor::flat_index(std::int64_t i, std::int64_t j,
                                std::int64_t k) const {
  AUTOHET_CHECK(rank() == 3, "expected rank-3 tensor");
  AUTOHET_CHECK(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1] && k >= 0 &&
                    k < shape_[2],
                "index out of range");
  return (i * shape_[1] + j) * shape_[2] + k;
}

std::int64_t Tensor::flat_index(std::int64_t i, std::int64_t j, std::int64_t k,
                                std::int64_t l) const {
  AUTOHET_CHECK(rank() == 4, "expected rank-4 tensor");
  AUTOHET_CHECK(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1] && k >= 0 &&
                    k < shape_[2] && l >= 0 && l < shape_[3],
                "index out of range");
  return ((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l;
}

float& Tensor::at(std::int64_t i, std::int64_t j) {
  return data_[static_cast<std::size_t>(flat_index(i, j))];
}
float Tensor::at(std::int64_t i, std::int64_t j) const {
  return data_[static_cast<std::size_t>(flat_index(i, j))];
}
float& Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k) {
  return data_[static_cast<std::size_t>(flat_index(i, j, k))];
}
float Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k) const {
  return data_[static_cast<std::size_t>(flat_index(i, j, k))];
}
float& Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k,
                  std::int64_t l) {
  return data_[static_cast<std::size_t>(flat_index(i, j, k, l))];
}
float Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k,
                 std::int64_t l) const {
  return data_[static_cast<std::size_t>(flat_index(i, j, k, l))];
}

Tensor Tensor::reshaped(std::vector<std::int64_t> shape) const {
  Tensor out;
  const std::int64_t n = checked_numel(shape);
  AUTOHET_CHECK(n == numel(), "reshape must preserve element count");
  out.shape_ = std::move(shape);
  out.data_ = data_;
  return out;
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::fill_uniform(common::Rng& rng, float lo, float hi) {
  for (auto& v : data_) v = static_cast<float>(rng.uniform(lo, hi));
}

void Tensor::fill_normal(common::Rng& rng, float mean, float stddev) {
  for (auto& v : data_) v = static_cast<float>(rng.normal(mean, stddev));
}

float Tensor::min() const {
  AUTOHET_CHECK(!data_.empty(), "min of empty tensor");
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  AUTOHET_CHECK(!data_.empty(), "max of empty tensor");
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::abs_max() const {
  // Eight lanes of GNU vectors keep the scan on the vector unit. Max is
  // exact and the lanes skip NaN exactly as the sequential
  // std::max(m, |v|) does, so any lane order returns the same value.
  using V4f = float __attribute__((vector_size(16)));
  using V4i = std::int32_t __attribute__((vector_size(16)));
  const V4i abs_mask = {0x7fffffff, 0x7fffffff, 0x7fffffff, 0x7fffffff};
  V4f m0 = {}, m1 = {};
  const float* x = data_.data();
  const auto n = static_cast<std::int64_t>(data_.size());
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    V4f a, b;
    std::memcpy(&a, x + i, sizeof a);
    std::memcpy(&b, x + i + 4, sizeof b);
    a = std::bit_cast<V4f>(std::bit_cast<V4i>(a) & abs_mask);
    b = std::bit_cast<V4f>(std::bit_cast<V4i>(b) & abs_mask);
    m0 = m0 < a ? a : m0;
    m1 = m1 < b ? b : m1;
  }
  float m = 0.0f;
  for (int l = 0; l < 4; ++l) {
    m = std::max(m, m0[l]);
    m = std::max(m, m1[l]);
  }
  for (; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  return m;
}

std::string Tensor::shape_string() const {
  std::ostringstream oss;
  oss << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) oss << ", ";
    oss << shape_[i];
  }
  oss << ']';
  return oss.str();
}

}  // namespace autohet::tensor
