// Maps the process-wide kernel variant (common/kernel_variant.hpp) to this
// library's ops table.
#include "common/error.hpp"
#include "reram/kernels/kernels.hpp"

namespace autohet::reram::kernels {

const Ops& ops() {
  const Ops* table = &detail::kPortableOps;
  switch (active_variant()) {
    case Variant::kPortable:
      break;
    case Variant::kAvx2:
      table = &detail::kAvx2Ops;
      break;
    case Variant::kAvx512:
      table = &detail::kAvx512Ops;
      break;
  }
  AUTOHET_CHECK(table->bit_serial_mvm != nullptr,
                "reram kernel table missing for the active variant");
  return *table;
}

}  // namespace autohet::reram::kernels
