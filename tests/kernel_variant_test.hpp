// Helpers for the kernel-variant equivalence tests: a parameterized gtest
// fixture that runs each test body under one kernel ISA variant
// (common/kernel_variant.hpp) and restores the previous variant after, and a
// bitwise comparison of double vectors. Variants the build or the host
// cannot run are skipped, not silently passed. Instantiate a suite over
// every variant with AUTOHET_INSTANTIATE_ALL_VARIANTS(SuiteName).
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/kernel_variant.hpp"

namespace autohet::testutil {

class KernelVariantFixture
    : public ::testing::TestWithParam<common::kernels::Variant> {
 protected:
  void SetUp() override {
    if (!common::kernels::supported(GetParam())) {
      GTEST_SKIP() << "variant " << common::kernels::variant_name(GetParam())
                   << " not compiled in or not supported by this CPU";
    }
    previous_ = common::kernels::active_variant();
    common::kernels::set_variant(GetParam());
  }
  void TearDown() override {
    if (!IsSkipped()) common::kernels::set_variant(previous_);
  }

 private:
  common::kernels::Variant previous_ = common::kernels::Variant::kPortable;
};

/// Index of the first element whose bit pattern differs (0 on a size
/// mismatch), or -1 when the vectors are bit-identical.
inline long first_bit_mismatch(const std::vector<double>& a,
                               const std::vector<double>& b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

}  // namespace autohet::testutil

#define AUTOHET_INSTANTIATE_ALL_VARIANTS(Suite)                             \
  INSTANTIATE_TEST_SUITE_P(                                                 \
      AllVariants, Suite,                                                   \
      ::testing::Values(::autohet::common::kernels::Variant::kPortable,     \
                        ::autohet::common::kernels::Variant::kAvx2,         \
                        ::autohet::common::kernels::Variant::kAvx512),      \
      [](const auto& param_info) {                                          \
        return std::string(                                                 \
            ::autohet::common::kernels::variant_name(param_info.param));    \
      })
