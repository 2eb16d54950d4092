// Process-wide ISA variant selection for the dispatched kernel tables.
//
// Two libraries keep per-ISA kernel tables — reram::kernels (packed
// bit-plane crossbar MVMs) and rl::kernels (the DDPG update's dense loops).
// Both index their table by the one variant chosen here, so a single
// AUTOHET_KERNEL / --kernel choice covers the whole process:
//
//   portable — the project's baseline flags; always available.
//   avx2     — AVX2 units; requires AVX2.
//   avx512   — AVX-512 units; requires AVX-512 F/BW/DQ/VL/VPOPCNTDQ/VNNI.
//
// A variant is *supported* when the toolchain compiled every table's unit
// for it (src/CMakeLists.txt decides this once for all tables) and CPUID
// reports the features. Selection: the best supported variant wins at first
// use; AUTOHET_KERNEL (or the drivers' --kernel flag) forces one by name,
// and an unknown or unsupported name is a hard error — a forced run must
// never silently fall back. The active variant is exported as the
// `autohet_kernel_dispatch` gauge (0 = portable, 1 = avx2, 2 = avx512).
#pragma once

#include <string_view>
#include <vector>

namespace autohet::common::kernels {

enum class Variant : int { kPortable = 0, kAvx2 = 1, kAvx512 = 2 };

inline constexpr int kVariantCount = 3;

/// The variant every kernel table dispatches to. The first call resolves
/// the AUTOHET_KERNEL override or picks the best supported variant.
Variant active_variant();

/// True when `v` is compiled in *and* the host CPU supports it.
bool supported(Variant v);

/// Every supported variant, portable first.
std::vector<Variant> supported_variants();

/// Forces the active variant. Hard error (AUTOHET_CHECK) when unsupported.
void set_variant(Variant v);

const char* variant_name(Variant v);

/// Parses "portable" / "avx2" / "avx512" into *out; false on unknown names.
bool variant_from_name(std::string_view name, Variant* out);

/// Applies a `--kernel <name>` / `--kernel=<name>` override found anywhere
/// on a raw argv (the bench binaries' positional conventions predate flag
/// parsing). Hard error on unknown/unsupported names; no-op when absent.
void apply_argv_override(int argc, const char* const* argv);

}  // namespace autohet::common::kernels
