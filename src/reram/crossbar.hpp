// Functional model of one logical crossbar (a PE): eight 1-bit physical
// crossbar planes storing the bit planes of 8-bit signed weights, driven
// bit-serially by 1-bit DACs.
//
// Two datapaths are provided:
//   * mvm_bit_serial — the faithful hardware datapath: for every input bit
//     and every weight bit plane, a binary matrix-vector product is formed
//     on the bitlines (Ohm's law + current summation), converted by the
//     ADCs, and shift-added into the accumulator. Weight plane 7 carries the
//     two's-complement sign (contributes with weight -2^7).
//   * mvm_reference — plain int32 GEMV over the programmed weights.
// The two are bit-exact by construction; tests assert it.
//
// Fast path: the eight weight bit planes can additionally be packed into
// per-column uint64 masks (ensure_packed()), turning the bit-serial and
// multilevel datapaths into AND+popcount over words — the bit-level kernel
// style CIM-Explorer uses. Packed kernels are bit-identical to the retained
// *_scalar paths (tested); bulk program() packs eagerly, program_cell
// updates the pack incrementally, and fault/variation burn-in repacks.
// One packing serves both datapaths because the multilevel offset-binary
// code v = w + 128 equals w ^ 0x80 on the uint8 bit pattern: bit k of v is
// bit k of w for k < 7 and the complement of the sign bit for k = 7.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "mapping/crossbar_shape.hpp"
#include "reram/faults.hpp"
#include "reram/kernels/kernels.hpp"

namespace autohet::reram {

class LogicalCrossbar {
 public:
  explicit LogicalCrossbar(mapping::CrossbarShape shape);

  const mapping::CrossbarShape& shape() const noexcept { return shape_; }
  std::int64_t rows_used() const noexcept { return rows_used_; }
  std::int64_t cols_used() const noexcept { return cols_used_; }
  /// The programmed (and burned-in) cells, row-major with row stride
  /// shape().cols — what the integer datapath reads.
  std::span<const std::int8_t> cells() const noexcept { return cells_; }

  /// Programs a rows_used × cols_used weight block (row-major) into the
  /// top-left corner of the array; the rest of the cells stay zero
  /// (the wasted cells of Fig. 2 / Fig. 7). Rebuilds the packed bit planes
  /// eagerly so subsequent bit-serial/multilevel MVMs take the fast kernel.
  void program(std::span<const std::int8_t> weights, std::int64_t rows,
               std::int64_t cols);

  /// Places a weight at an explicit (row, col) cell; used by the
  /// kernel-aligned mapper which leaves gaps inside a row block. Updates the
  /// packed planes incrementally when they exist; otherwise stays scalar
  /// (pack later with ensure_packed() only if the fast bit kernels are
  /// wanted — the integer datapath never needs the planes).
  void program_cell(std::int64_t row, std::int64_t col, std::int8_t value);

  /// Builds the packed uint64 bit planes from the current cells. Idempotent;
  /// called automatically by program(). Costs one pass over the array.
  void ensure_packed();
  bool is_packed() const noexcept { return !packed_.empty(); }

  /// Bit-serial MVM over the used region. `input` must have rows_used()
  /// entries. Returns one int32 accumulation per used column. Uses the
  /// packed AND+popcount kernel when the planes are packed, the scalar
  /// datapath otherwise — bit-identical either way.
  std::vector<std::int32_t> mvm_bit_serial(
      std::span<const std::uint8_t> input) const;

  /// Direct integer reference MVM (identical results, no bit slicing).
  std::vector<std::int32_t> mvm_reference(
      std::span<const std::uint8_t> input) const;

  /// Multi-level-cell bit-serial MVM: weights are stored offset-binary
  /// (w + 128) across 8/cell_bits planes of cell_bits-bit cells, and the
  /// signed result is recovered by subtracting 128·Σx via a reference
  /// column — the standard ReRAM technique for signed weights on unsigned
  /// conductances. cell_bits must divide 8. Bit-exact to mvm_reference for
  /// every cell precision.
  std::vector<std::int32_t> mvm_multilevel(
      std::span<const std::uint8_t> input, int cell_bits) const;

  /// Retained scalar datapaths — the equivalence oracles for the packed
  /// kernels and the KernelPolicy::kScalar baseline.
  std::vector<std::int32_t> mvm_bit_serial_scalar(
      std::span<const std::uint8_t> input) const;
  std::vector<std::int32_t> mvm_multilevel_scalar(
      std::span<const std::uint8_t> input, int cell_bits) const;
  std::vector<std::int32_t> mvm_reference_scalar(
      std::span<const std::uint8_t> input) const;

  /// Allocation-free variants: accumulate into out[0 .. cols_used) on top of
  /// whatever is already there (the adder-tree merge happens in the caller's
  /// buffer directly). `scratch` is caller-owned kernel scratch (packed
  /// input planes, per-sample terms), grown as needed — pass a per-thread
  /// instance to keep the hot loop allocation-free.
  void mvm_bit_serial_accum(std::span<const std::uint8_t> input,
                            std::int32_t* out,
                            kernels::KernelScratch& scratch) const;
  void mvm_multilevel_accum(std::span<const std::uint8_t> input, int cell_bits,
                            std::int32_t* out,
                            kernels::KernelScratch& scratch) const;
  void mvm_reference_accum(std::span<const std::uint8_t> input,
                           std::int32_t* out) const;
  /// Batched packed MVMs over `count` input columns in transposed layout:
  /// inputs_t is rows_used × count row-major (input row i for all columns
  /// at inputs_t[i·count ..]), acc_t is cols_used × count (output col j for
  /// all columns at acc_t[j·count ..]). All `count` samples' input planes
  /// are packed once and run through a single kernel dispatch, so the
  /// indirect-call and weight-plane traffic amortize over the batch.
  /// Require is_packed(); bit-identical to `count` separate single-sample
  /// accum calls.
  void mvm_bit_serial_batch_accum(const std::uint8_t* inputs_t,
                                  std::int64_t count, std::int32_t* acc_t,
                                  kernels::KernelScratch& scratch) const;
  void mvm_multilevel_batch_accum(const std::uint8_t* inputs_t,
                                  std::int64_t count, int cell_bits,
                                  std::int32_t* acc_t,
                                  kernels::KernelScratch& scratch) const;
  void mvm_read_noisy_accum(std::span<const std::uint8_t> input,
                            common::Rng& rng, double weight_sigma,
                            std::int32_t* out) const;

  /// Applies ReRAM conductance variation: every programmed cell is
  /// perturbed by round(N(0, sigma·2^(weight_bits-1)-1 ... )) — concretely
  /// w' = clamp(w + round(N(0, sigma·127)), -128, 127). sigma = 0 leaves
  /// the array untouched. Models device non-ideality for the accuracy
  /// studies; see reram/variation.hpp helpers.
  void apply_variation(common::Rng& rng, double sigma);

  /// Burns a seeded fault model into the whole physical array (stuck-at
  /// maps, programming variation, retention drift — see reram/faults.hpp).
  /// Deterministic in (model.config().seed, crossbar_id); gap cells inside
  /// the used region are perturbed too (their stuck-at-1 faults inject
  /// spurious bitline current exactly as on real fabric). A no-op for an
  /// ideal model. `reference_path` forces the retained per-cell burn-in
  /// (the KernelPolicy::kScalar baseline); both paths are bit-identical.
  FaultMapStats apply_faults(const FaultModel& model,
                             std::uint64_t crossbar_id,
                             bool reference_path = false);

  /// Recording burn-in (FaultModel::apply_recording): programming variation
  /// is applied, stuck-draw candidates are recorded into `out` instead of
  /// being applied. Returns the variation-only stats; replay_stuck_faults
  /// completes the burn for any eligible rate pair. Repacks like
  /// apply_faults.
  FaultMapStats apply_faults_recording(const FaultModel& model,
                                       std::uint64_t crossbar_id,
                                       StuckRecord& out);

  /// Replays a stuck record under `model`'s thresholds on this
  /// (post-variation) array — see FaultModel::replay_stuck. Returns the
  /// delta stats; repacks when packed.
  FaultMapStats replay_stuck_faults(const FaultModel& model,
                                    const StuckRecord& record);

  /// Integer MVM with cycle-to-cycle read noise: every sensed cell's weight
  /// is perturbed by round(N(0, weight_sigma)) for this read only (the
  /// programmed array is untouched). `weight_sigma` is in weight LSBs —
  /// use FaultModel::read_noise_weight_sigma(). Falls back to
  /// mvm_reference when weight_sigma == 0.
  std::vector<std::int32_t> mvm_read_noisy(std::span<const std::uint8_t> input,
                                           common::Rng& rng,
                                           double weight_sigma) const;

 private:
  void repack();
  const std::uint64_t* plane(int bit, std::int64_t col) const noexcept {
    return packed_.data() +
           static_cast<std::size_t>((bit * shape_.cols + col) * packed_words_);
  }
  mapping::CrossbarShape shape_;
  std::int64_t rows_used_ = 0;
  std::int64_t cols_used_ = 0;
  std::vector<std::int8_t> cells_;  // full r×c array, row-major
  /// Packed weight bit planes, [bit][col][word] with words covering all
  /// shape_.rows wordlines; empty = not packed (scalar kernels used).
  std::vector<std::uint64_t> packed_;
  std::int64_t packed_words_ = 0;  ///< ceil(shape_.rows / 64)
};

}  // namespace autohet::reram
