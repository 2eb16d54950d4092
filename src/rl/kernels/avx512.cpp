// AVX-512 rl kernel variant: 512-bit lanes. Compiled with -mavx512f
// -mavx512dq -mavx512vl (per-file flags in src/rl/CMakeLists.txt, never
// global) and gated on AUTOHET_KERNELS_AVX512 like the AVX2 unit. The gemm
// tile is 4 rows × 2 zmm: 8 accumulators, 2 B vectors and 4 broadcasts, 14 of
// the 32 registers.
#include <cmath>
#include <cstddef>
#include <cstring>
#include <utility>

#include "rl/kernels/kernels.hpp"

#if defined(AUTOHET_KERNELS_AVX512)

namespace autohet::rl::kernels {
namespace {

typedef double v8df __attribute__((vector_size(64)));

#include "rl/kernels/kernel_ops.inl"

}  // namespace

namespace detail {
const Ops kAvx512Ops = make_ops<v8df, 4, 2>("avx512");
}  // namespace detail

}  // namespace autohet::rl::kernels

#else  // !AUTOHET_KERNELS_AVX512

namespace autohet::rl::kernels::detail {
const Ops kAvx512Ops = {};  // not compiled in; dispatch never selects it
}  // namespace autohet::rl::kernels::detail

#endif  // AUTOHET_KERNELS_AVX512
