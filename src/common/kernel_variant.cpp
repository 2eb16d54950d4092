// CPUID-probed variant selection, the AUTOHET_KERNEL environment override,
// and the --kernel argv override, shared by every kernel table.
#include "common/kernel_variant.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace autohet::common::kernels {
namespace {

/// Whether the toolchain built the variant's units (AUTOHET_KERNELS_* are
/// set by src/CMakeLists.txt for this file and every table's unit alike).
bool compiled_in(Variant v) {
  switch (v) {
    case Variant::kPortable:
      return true;
    case Variant::kAvx2:
#if defined(AUTOHET_KERNELS_AVX2)
      return true;
#else
      return false;
#endif
    case Variant::kAvx512:
#if defined(AUTOHET_KERNELS_AVX512)
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool cpu_supports(Variant v) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  switch (v) {
    case Variant::kPortable:
      return true;
    case Variant::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Variant::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0 &&
             __builtin_cpu_supports("avx512vpopcntdq") != 0 &&
             __builtin_cpu_supports("avx512vnni") != 0;
  }
  return false;
#else
  return v == Variant::kPortable;
#endif
}

std::atomic<int> g_active{-1};  // -1 = not yet resolved
std::once_flag g_init_once;

void activate(Variant v) {
  g_active.store(static_cast<int>(v), std::memory_order_release);
  OBS_GAUGE_SET("autohet_kernel_dispatch", static_cast<int>(v));
}

/// Resolves the initial variant: AUTOHET_KERNEL wins, else the best
/// supported variant.
void resolve_initial() {
  if (const char* env = std::getenv("AUTOHET_KERNEL");
      env != nullptr && *env != '\0') {
    Variant v = Variant::kPortable;
    AUTOHET_CHECK(variant_from_name(env, &v),
                  std::string("AUTOHET_KERNEL: unknown kernel variant '") +
                      env + "' (want portable, avx2 or avx512)");
    AUTOHET_CHECK(supported(v),
                  std::string("AUTOHET_KERNEL: variant '") + env +
                      "' is not supported on this host/build");
    activate(v);
    return;
  }
  Variant best = Variant::kPortable;
  for (const Variant v : {Variant::kAvx2, Variant::kAvx512}) {
    if (supported(v)) best = v;
  }
  activate(best);
}

}  // namespace

bool supported(Variant v) { return compiled_in(v) && cpu_supports(v); }

std::vector<Variant> supported_variants() {
  std::vector<Variant> out;
  for (const Variant v :
       {Variant::kPortable, Variant::kAvx2, Variant::kAvx512}) {
    if (supported(v)) out.push_back(v);
  }
  return out;
}

Variant active_variant() {
  std::call_once(g_init_once, resolve_initial);
  return static_cast<Variant>(g_active.load(std::memory_order_acquire));
}

void set_variant(Variant v) {
  std::call_once(g_init_once, resolve_initial);
  AUTOHET_CHECK(supported(v), std::string("kernel variant '") +
                                  variant_name(v) +
                                  "' is not supported on this host/build");
  activate(v);
}

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kPortable:
      return "portable";
    case Variant::kAvx2:
      return "avx2";
    case Variant::kAvx512:
      return "avx512";
  }
  return "portable";
}

bool variant_from_name(std::string_view name, Variant* out) {
  for (const Variant v :
       {Variant::kPortable, Variant::kAvx2, Variant::kAvx512}) {
    if (name == variant_name(v)) {
      *out = v;
      return true;
    }
  }
  return false;
}

void apply_argv_override(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string_view value;
    if (std::strcmp(arg, "--kernel") == 0 && i + 1 < argc) {
      value = argv[i + 1];
    } else if (std::strncmp(arg, "--kernel=", 9) == 0) {
      value = arg + 9;
    } else {
      continue;
    }
    Variant v = Variant::kPortable;
    AUTOHET_CHECK(variant_from_name(value, &v),
                  "--kernel: unknown kernel variant '" + std::string(value) +
                      "' (want portable, avx2 or avx512)");
    set_variant(v);
    return;
  }
}

}  // namespace autohet::common::kernels
