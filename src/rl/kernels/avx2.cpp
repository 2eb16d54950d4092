// AVX2 rl kernel variant: 256-bit lanes. Compiled with -mavx2 (per-file
// flags in src/rl/CMakeLists.txt, never global) and gated on
// AUTOHET_KERNELS_AVX2, so builds whose compiler lacks the flag still link
// (with an empty table that dispatch never selects). The gemm tile is
// 4 rows × 2 ymm: 8 accumulators, 2 B vectors and one broadcast fit the
// 16-register file without spilling.
#include <cmath>
#include <cstddef>
#include <cstring>
#include <utility>

#include "rl/kernels/kernels.hpp"

#if defined(AUTOHET_KERNELS_AVX2)

namespace autohet::rl::kernels {
namespace {

typedef double v4df __attribute__((vector_size(32)));

#include "rl/kernels/kernel_ops.inl"

}  // namespace

namespace detail {
const Ops kAvx2Ops = make_ops<v4df, 4, 2>("avx2");
}  // namespace detail

}  // namespace autohet::rl::kernels

#else  // !AUTOHET_KERNELS_AVX2

namespace autohet::rl::kernels::detail {
const Ops kAvx2Ops = {};  // not compiled in; dispatch never selects it
}  // namespace autohet::rl::kernels::detail

#endif  // AUTOHET_KERNELS_AVX2
