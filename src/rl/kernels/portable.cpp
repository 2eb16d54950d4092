// Portable rl kernel variant: the project's baseline flags. Always compiled
// in; the dispatch fallback and the equivalence oracle the wide variants are
// tested against.
#include <cmath>
#include <cstddef>
#include <cstring>
#include <utility>

#include "rl/kernels/kernels.hpp"

namespace autohet::rl::kernels {
namespace {

#if defined(__GNUC__) || defined(__clang__)
#if !defined(__clang__)
// The 64-byte vectors only pass between internal-linkage helpers of this
// unit, so GCC's note that their by-value ABI differs without AVX-512 does
// not apply.
#pragma GCC diagnostic ignored "-Wpsabi"
#endif
typedef double v8df __attribute__((vector_size(64)));
#else
using v8df = double;  // unused: the .inl's scalar gemm_acc ignores V
#endif

#include "rl/kernels/kernel_ops.inl"

}  // namespace

namespace detail {
const Ops kPortableOps = make_ops<v8df, 4, 2>("portable");
}  // namespace detail

}  // namespace autohet::rl::kernels
