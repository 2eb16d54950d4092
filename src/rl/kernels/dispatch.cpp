// Maps the process-wide kernel variant (common/kernel_variant.hpp) to the
// rl ops table.
#include "common/error.hpp"
#include "common/kernel_variant.hpp"
#include "rl/kernels/kernels.hpp"

namespace autohet::rl::kernels {

const Ops& ops() {
  using common::kernels::Variant;
  const Ops* table = &detail::kPortableOps;
  switch (common::kernels::active_variant()) {
    case Variant::kPortable:
      break;
    case Variant::kAvx2:
      table = &detail::kAvx2Ops;
      break;
    case Variant::kAvx512:
      table = &detail::kAvx512Ops;
      break;
  }
  AUTOHET_CHECK(table->gemm_acc != nullptr,
                "rl kernel table missing for the active variant");
  return *table;
}

}  // namespace autohet::rl::kernels
