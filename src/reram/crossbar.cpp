#include "reram/crossbar.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "reram/kernels/kernels.hpp"

namespace autohet::reram {

namespace {

/// Packs the 8 input bit planes of one sample into xbits[xb * words + w]
/// (bit i of plane xb = bit xb of input[i * stride]). `stride` is the
/// element distance between consecutive rows of this sample: 1 for a
/// contiguous input vector, `count` for one column of a transposed
/// rows × count batch.
void pack_planes(const std::uint8_t* input, std::int64_t rows,
                 std::int64_t stride, std::int64_t words,
                 std::uint64_t* xbits) {
  std::fill_n(xbits, static_cast<std::size_t>(8 * words), std::uint64_t{0});
  for (std::int64_t i = 0; i < rows; ++i) {
    const std::uint8_t x = input[i * stride];
    if (x == 0) continue;
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    const std::int64_t word = i >> 6;
    for (int xb = 0; xb < 8; ++xb) {
      if ((x >> xb) & 1u) xbits[xb * words + word] |= bit;
    }
  }
}

/// popx[s*8 + xb] and refs[s] for `count` packed samples: the per-plane
/// popcounts feed the multilevel sign-plane complement, and the reference
/// term 128·Σx falls out of them for free (Σ_i x[i] = Σ_xb 2^xb·popcount).
void fill_multilevel_terms(const std::uint64_t* xbits, std::int64_t count,
                           std::int64_t words, std::int64_t* popx,
                           std::int64_t* refs) {
  const auto& ops = kernels::ops();
  for (std::int64_t s = 0; s < count; ++s) {
    std::int64_t sum = 0;
    for (int xb = 0; xb < 8; ++xb) {
      const std::int64_t n =
          ops.popcount_words(xbits + (s * 8 + xb) * words, words);
      popx[s * 8 + xb] = n;
      sum += n << xb;
    }
    refs[s] = 128 * sum;
  }
}

}  // namespace

LogicalCrossbar::LogicalCrossbar(mapping::CrossbarShape shape)
    : shape_(shape),
      cells_(static_cast<std::size_t>(shape.cells()), 0),
      packed_words_((shape.rows + 63) / 64) {
  AUTOHET_CHECK(shape.rows > 0 && shape.cols > 0, "invalid crossbar shape");
}

void LogicalCrossbar::program(std::span<const std::int8_t> weights,
                              std::int64_t rows, std::int64_t cols) {
  AUTOHET_CHECK(rows >= 0 && rows <= shape_.rows, "rows exceed crossbar");
  AUTOHET_CHECK(cols >= 0 && cols <= shape_.cols, "cols exceed crossbar");
  AUTOHET_CHECK(static_cast<std::int64_t>(weights.size()) == rows * cols,
                "weight block size mismatch");
  std::fill(cells_.begin(), cells_.end(), static_cast<std::int8_t>(0));
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      cells_[static_cast<std::size_t>(i * shape_.cols + j)] =
          weights[static_cast<std::size_t>(i * cols + j)];
    }
  }
  rows_used_ = rows;
  cols_used_ = cols;
  repack();
}

void LogicalCrossbar::program_cell(std::int64_t row, std::int64_t col,
                                   std::int8_t value) {
  AUTOHET_CHECK(row >= 0 && row < shape_.rows && col >= 0 && col < shape_.cols,
                "cell index out of range");
  cells_[static_cast<std::size_t>(row * shape_.cols + col)] = value;
  rows_used_ = std::max(rows_used_, row + 1);
  cols_used_ = std::max(cols_used_, col + 1);
  if (!packed_.empty()) {
    const auto bits = static_cast<std::uint8_t>(value);
    const std::uint64_t bit = std::uint64_t{1} << (row & 63);
    const std::int64_t word = row >> 6;
    for (int wb = 0; wb < 8; ++wb) {
      std::uint64_t& w = packed_[static_cast<std::size_t>(
          (wb * shape_.cols + col) * packed_words_ + word)];
      if ((bits >> wb) & 1u) {
        w |= bit;
      } else {
        w &= ~bit;
      }
    }
  }
}

void LogicalCrossbar::ensure_packed() {
  if (packed_.empty()) repack();
}

void LogicalCrossbar::repack() {
  packed_.assign(static_cast<std::size_t>(8 * shape_.cols * packed_words_), 0);
  // All shape_.rows wordlines are packed (fault burn-in can set cells outside
  // the used region); the kernels' input masks zero everything past
  // rows_used, so stray bits beyond the used rows never contribute.
  for (std::int64_t r = 0; r < shape_.rows; ++r) {
    const std::int8_t* row = cells_.data() + r * shape_.cols;
    const std::uint64_t bit = std::uint64_t{1} << (r & 63);
    const std::int64_t word = r >> 6;
    for (std::int64_t j = 0; j < shape_.cols; ++j) {
      const auto bits = static_cast<std::uint8_t>(row[j]);
      if (bits == 0) continue;
      for (int wb = 0; wb < 8; ++wb) {
        if ((bits >> wb) & 1u) {
          packed_[static_cast<std::size_t>(
              (wb * shape_.cols + j) * packed_words_ + word)] |= bit;
        }
      }
    }
  }
}

std::vector<std::int32_t> LogicalCrossbar::mvm_bit_serial(
    std::span<const std::uint8_t> input) const {
  std::vector<std::int32_t> acc(static_cast<std::size_t>(cols_used_), 0);
  thread_local kernels::KernelScratch scratch;
  mvm_bit_serial_accum(input, acc.data(), scratch);
  return acc;
}

void LogicalCrossbar::mvm_bit_serial_accum(
    std::span<const std::uint8_t> input, std::int32_t* out,
    kernels::KernelScratch& scratch) const {
  AUTOHET_CHECK(static_cast<std::int64_t>(input.size()) == rows_used_,
                "input length must equal rows_used");
  if (packed_.empty()) {
    // Scalar datapath, accumulating into the caller's buffer.
    for (int xb = 0; xb < 8; ++xb) {
      for (int wb = 0; wb < 8; ++wb) {
        const std::int64_t scale =
            (wb == 7) ? -(std::int64_t{1} << (xb + wb))
                      : (std::int64_t{1} << (xb + wb));
        for (std::int64_t j = 0; j < cols_used_; ++j) {
          std::int32_t bitline_sum = 0;
          for (std::int64_t i = 0; i < rows_used_; ++i) {
            const unsigned xbit =
                (input[static_cast<std::size_t>(i)] >> xb) & 1u;
            if (!xbit) continue;
            const auto cell = static_cast<std::uint8_t>(
                cells_[static_cast<std::size_t>(i * shape_.cols + j)]);
            bitline_sum += static_cast<std::int32_t>((cell >> wb) & 1u);
          }
          out[j] += static_cast<std::int32_t>(scale * bitline_sum);
        }
      }
    }
    return;
  }
  // One AND+popcount pass per (weight plane, column, input plane): the 64
  // wordline passes of the scalar path collapse into words word ops, run by
  // the dispatched kernel variant (count == 1 keeps acc_t[j·1+0] == out[j]).
  const std::int64_t words = (rows_used_ + 63) / 64;
  std::uint64_t* xbits =
      scratch.input_planes(static_cast<std::size_t>(8 * words));
  pack_planes(input.data(), rows_used_, 1, words, xbits);
  kernels::ops().bit_serial_mvm(packed_.data(), shape_.cols, packed_words_,
                                cols_used_, words, xbits, 1, out);
  OBS_COUNTER_ADD("autohet_kernel_bit_serial_words_total",
                  64 * cols_used_ * words);
}

std::vector<std::int32_t> LogicalCrossbar::mvm_bit_serial_scalar(
    std::span<const std::uint8_t> input) const {
  AUTOHET_CHECK(static_cast<std::int64_t>(input.size()) == rows_used_,
                "input length must equal rows_used");
  std::vector<std::int32_t> acc(static_cast<std::size_t>(cols_used_), 0);
  // For every input bit cycle (1-bit DAC) and every weight bit plane
  // (1-bit cells), form the binary bitline sums and shift-add them in.
  for (int xb = 0; xb < 8; ++xb) {
    for (int wb = 0; wb < 8; ++wb) {
      // Weight bit 7 is the two's-complement sign plane: value -2^7.
      const std::int64_t scale =
          (wb == 7) ? -(std::int64_t{1} << (xb + wb))
                    : (std::int64_t{1} << (xb + wb));
      for (std::int64_t j = 0; j < cols_used_; ++j) {
        std::int32_t bitline_sum = 0;  // current summation on the bitline
        for (std::int64_t i = 0; i < rows_used_; ++i) {
          const unsigned xbit = (input[static_cast<std::size_t>(i)] >> xb) & 1u;
          if (!xbit) continue;
          const auto cell = static_cast<std::uint8_t>(
              cells_[static_cast<std::size_t>(i * shape_.cols + j)]);
          bitline_sum += static_cast<std::int32_t>((cell >> wb) & 1u);
        }
        acc[static_cast<std::size_t>(j)] +=
            static_cast<std::int32_t>(scale * bitline_sum);
      }
    }
  }
  return acc;
}

std::vector<std::int32_t> LogicalCrossbar::mvm_multilevel(
    std::span<const std::uint8_t> input, int cell_bits) const {
  std::vector<std::int32_t> acc(static_cast<std::size_t>(cols_used_), 0);
  thread_local kernels::KernelScratch scratch;
  mvm_multilevel_accum(input, cell_bits, acc.data(), scratch);
  return acc;
}

void LogicalCrossbar::mvm_multilevel_accum(
    std::span<const std::uint8_t> input, int cell_bits, std::int32_t* out,
    kernels::KernelScratch& scratch) const {
  AUTOHET_CHECK(cell_bits > 0 && cell_bits <= 8 && 8 % cell_bits == 0,
                "cell_bits must divide 8");
  AUTOHET_CHECK(static_cast<std::int64_t>(input.size()) == rows_used_,
                "input length must equal rows_used");
  if (packed_.empty()) {
    const std::vector<std::int32_t> acc = mvm_multilevel_scalar(input,
                                                                cell_bits);
    for (std::int64_t j = 0; j < cols_used_; ++j) {
      out[j] += acc[static_cast<std::size_t>(j)];
    }
    return;
  }
  // Offset-binary level sums decompose exactly into per-bit bitline sums:
  // bit k of v = w + 128 is the packed two's-complement plane k for k < 7
  // and its complement for k = 7 (v = w ^ 0x80 on the uint8 pattern), so
  // Σ_p 2^{p·b}·level_p = Σ_k 2^k·bit_k and the result is independent of
  // cell_bits. popcount(x & ~p7) = popcount(x) − popcount(x & p7) keeps the
  // complement implicit (input bits past rows_used are zero in x); the
  // per-plane popcounts and the 128·Σx reference term are caller-computed
  // once and handed to the dispatched kernel.
  const std::int64_t words = (rows_used_ + 63) / 64;
  std::uint64_t* xbits =
      scratch.input_planes(static_cast<std::size_t>(8 * words));
  pack_planes(input.data(), rows_used_, 1, words, xbits);
  std::int64_t* terms = scratch.sample_terms(9);  // popx[0..8) + refs[0]
  fill_multilevel_terms(xbits, 1, words, terms, terms + 8);
  kernels::ops().multilevel_mvm(packed_.data(), shape_.cols, packed_words_,
                                cols_used_, words, xbits, 1, terms, terms + 8,
                                out);
  OBS_COUNTER_ADD("autohet_kernel_multilevel_words_total",
                  64 * cols_used_ * words);
}

std::vector<std::int32_t> LogicalCrossbar::mvm_multilevel_scalar(
    std::span<const std::uint8_t> input, int cell_bits) const {
  AUTOHET_CHECK(cell_bits > 0 && cell_bits <= 8 && 8 % cell_bits == 0,
                "cell_bits must divide 8");
  AUTOHET_CHECK(static_cast<std::int64_t>(input.size()) == rows_used_,
                "input length must equal rows_used");
  const int planes = 8 / cell_bits;
  const unsigned cell_mask = (1u << cell_bits) - 1u;
  std::vector<std::int32_t> acc(static_cast<std::size_t>(cols_used_), 0);
  // Reference column: 128 · Σx, subtracted once at the end to undo the
  // offset-binary encoding (w + 128 stored as unsigned conductances).
  std::int64_t ref = 0;
  for (std::int64_t i = 0; i < rows_used_; ++i) {
    ref += 128 * static_cast<std::int64_t>(input[static_cast<std::size_t>(i)]);
  }
  for (int xb = 0; xb < 8; ++xb) {
    for (int p = 0; p < planes; ++p) {
      const std::int64_t scale = std::int64_t{1} << (xb + p * cell_bits);
      for (std::int64_t j = 0; j < cols_used_; ++j) {
        std::int64_t bitline_sum = 0;
        for (std::int64_t i = 0; i < rows_used_; ++i) {
          const unsigned xbit = (input[static_cast<std::size_t>(i)] >> xb) & 1u;
          if (!xbit) continue;
          const auto offset = static_cast<unsigned>(
              static_cast<int>(
                  cells_[static_cast<std::size_t>(i * shape_.cols + j)]) +
              128);
          bitline_sum += static_cast<std::int64_t>(
              (offset >> (p * cell_bits)) & cell_mask);
        }
        acc[static_cast<std::size_t>(j)] +=
            static_cast<std::int32_t>(scale * bitline_sum);
      }
    }
  }
  for (auto& v : acc) v -= static_cast<std::int32_t>(ref);
  return acc;
}

void LogicalCrossbar::apply_variation(common::Rng& rng, double sigma) {
  AUTOHET_CHECK(sigma >= 0.0, "variation sigma must be non-negative");
  if (sigma == 0.0) return;
  for (auto& cell : cells_) {
    if (cell == 0) continue;  // unprogrammed (high-resistance) cells stay off
    const double noisy =
        static_cast<double>(cell) + rng.normal(0.0, sigma * 127.0);
    const double clamped = std::clamp(noisy, -128.0, 127.0);
    cell = static_cast<std::int8_t>(std::lround(clamped));
  }
  if (!packed_.empty()) repack();
}

FaultMapStats LogicalCrossbar::apply_faults(const FaultModel& model,
                                            std::uint64_t crossbar_id,
                                            bool reference_path) {
  const FaultMapStats stats =
      reference_path
          ? model.apply_reference(cells_, shape_.rows, shape_.cols,
                                  shape_.cols, crossbar_id)
          : model.apply(cells_, shape_.rows, shape_.cols, shape_.cols,
                        crossbar_id);
  if (!packed_.empty() && !model.ideal()) repack();
  return stats;
}

FaultMapStats LogicalCrossbar::apply_faults_recording(
    const FaultModel& model, std::uint64_t crossbar_id,
    StuckRecord& out) {
  const FaultMapStats stats = model.apply_recording(
      cells_, shape_.rows, shape_.cols, shape_.cols, crossbar_id, out);
  if (!packed_.empty()) repack();
  return stats;
}

FaultMapStats LogicalCrossbar::replay_stuck_faults(
    const FaultModel& model, const StuckRecord& record) {
  const FaultMapStats delta = model.replay_stuck(cells_, record);
  if (!packed_.empty() && (delta.stuck_at_zero || delta.stuck_at_one)) {
    repack();
  }
  return delta;
}

void LogicalCrossbar::mvm_read_noisy_accum(
    std::span<const std::uint8_t> input, common::Rng& rng,
    double weight_sigma, std::int32_t* out) const {
  if (weight_sigma == 0.0) {
    mvm_reference_accum(input, out);
    return;
  }
  AUTOHET_CHECK(static_cast<std::int64_t>(input.size()) == rows_used_,
                "input length must equal rows_used");
  for (std::int64_t i = 0; i < rows_used_; ++i) {
    const std::int32_t x = input[static_cast<std::size_t>(i)];
    if (x == 0) continue;  // gated wordline: cells are not sensed
    const std::int8_t* row = cells_.data() + i * shape_.cols;
    for (std::int64_t j = 0; j < cols_used_; ++j) {
      const double noisy =
          static_cast<double>(row[j]) + rng.normal(0.0, weight_sigma);
      const auto w = static_cast<std::int32_t>(
          std::lround(std::clamp(noisy, -128.0, 127.0)));
      out[j] += x * w;
    }
  }
}

std::vector<std::int32_t> LogicalCrossbar::mvm_read_noisy(
    std::span<const std::uint8_t> input, common::Rng& rng,
    double weight_sigma) const {
  std::vector<std::int32_t> acc(static_cast<std::size_t>(cols_used_), 0);
  mvm_read_noisy_accum(input, rng, weight_sigma, acc.data());
  return acc;
}

void LogicalCrossbar::mvm_reference_accum(std::span<const std::uint8_t> input,
                                          std::int32_t* out) const {
  AUTOHET_CHECK(static_cast<std::int64_t>(input.size()) == rows_used_,
                "input length must equal rows_used");
  // Blocked GEMV: gather up to four nonzero-activation rows and fuse their
  // widening int8 multiply-adds into one pass over the accumulators, so the
  // out[] traffic amortizes across rows (integer adds reassociate exactly).
  const std::int64_t stride = shape_.cols;
  std::int64_t rows[4];
  std::int64_t i = 0;
  while (i < rows_used_) {
    int n = 0;
    while (i < rows_used_ && n < 4) {
      if (input[static_cast<std::size_t>(i)] != 0) rows[n++] = i;
      ++i;
    }
    if (n == 4) {
      const std::int32_t x0 = input[static_cast<std::size_t>(rows[0])];
      const std::int32_t x1 = input[static_cast<std::size_t>(rows[1])];
      const std::int32_t x2 = input[static_cast<std::size_t>(rows[2])];
      const std::int32_t x3 = input[static_cast<std::size_t>(rows[3])];
      const std::int8_t* r0 = cells_.data() + rows[0] * stride;
      const std::int8_t* r1 = cells_.data() + rows[1] * stride;
      const std::int8_t* r2 = cells_.data() + rows[2] * stride;
      const std::int8_t* r3 = cells_.data() + rows[3] * stride;
      for (std::int64_t j = 0; j < cols_used_; ++j) {
        out[j] += x0 * static_cast<std::int32_t>(r0[j]) +
                  x1 * static_cast<std::int32_t>(r1[j]) +
                  x2 * static_cast<std::int32_t>(r2[j]) +
                  x3 * static_cast<std::int32_t>(r3[j]);
      }
    } else {
      for (int m = 0; m < n; ++m) {
        const std::int32_t x = input[static_cast<std::size_t>(rows[m])];
        const std::int8_t* row = cells_.data() + rows[m] * stride;
        for (std::int64_t j = 0; j < cols_used_; ++j) {
          out[j] += x * static_cast<std::int32_t>(row[j]);
        }
      }
    }
  }
}

void LogicalCrossbar::mvm_bit_serial_batch_accum(
    const std::uint8_t* inputs_t, std::int64_t count, std::int32_t* acc_t,
    kernels::KernelScratch& scratch) const {
  AUTOHET_CHECK(is_packed(), "batched packed MVM requires packed planes");
  const std::int64_t words = (rows_used_ + 63) / 64;
  std::uint64_t* xbits =
      scratch.input_planes(static_cast<std::size_t>(count * 8 * words));
  for (std::int64_t s = 0; s < count; ++s) {
    pack_planes(inputs_t + s, rows_used_, count, words, xbits + s * 8 * words);
  }
  kernels::ops().bit_serial_mvm(packed_.data(), shape_.cols, packed_words_,
                                cols_used_, words, xbits, count, acc_t);
  OBS_COUNTER_ADD("autohet_kernel_bit_serial_words_total",
                  64 * cols_used_ * words * count);
}

void LogicalCrossbar::mvm_multilevel_batch_accum(
    const std::uint8_t* inputs_t, std::int64_t count, int cell_bits,
    std::int32_t* acc_t, kernels::KernelScratch& scratch) const {
  AUTOHET_CHECK(cell_bits > 0 && cell_bits <= 8 && 8 % cell_bits == 0,
                "cell_bits must divide 8");
  AUTOHET_CHECK(is_packed(), "batched packed MVM requires packed planes");
  const std::int64_t words = (rows_used_ + 63) / 64;
  std::uint64_t* xbits =
      scratch.input_planes(static_cast<std::size_t>(count * 8 * words));
  for (std::int64_t s = 0; s < count; ++s) {
    pack_planes(inputs_t + s, rows_used_, count, words, xbits + s * 8 * words);
  }
  std::int64_t* terms =
      scratch.sample_terms(static_cast<std::size_t>(count * 9));
  fill_multilevel_terms(xbits, count, words, terms, terms + count * 8);
  kernels::ops().multilevel_mvm(packed_.data(), shape_.cols, packed_words_,
                                cols_used_, words, xbits, count, terms,
                                terms + count * 8, acc_t);
  OBS_COUNTER_ADD("autohet_kernel_multilevel_words_total",
                  64 * cols_used_ * words * count);
}

std::vector<std::int32_t> LogicalCrossbar::mvm_reference(
    std::span<const std::uint8_t> input) const {
  std::vector<std::int32_t> acc(static_cast<std::size_t>(cols_used_), 0);
  mvm_reference_accum(input, acc.data());
  return acc;
}

std::vector<std::int32_t> LogicalCrossbar::mvm_reference_scalar(
    std::span<const std::uint8_t> input) const {
  AUTOHET_CHECK(static_cast<std::int64_t>(input.size()) == rows_used_,
                "input length must equal rows_used");
  std::vector<std::int32_t> acc(static_cast<std::size_t>(cols_used_), 0);
  for (std::int64_t i = 0; i < rows_used_; ++i) {
    const std::int32_t x = input[static_cast<std::size_t>(i)];
    if (x == 0) continue;
    const std::int8_t* row = cells_.data() + i * shape_.cols;
    for (std::int64_t j = 0; j < cols_used_; ++j) {
      acc[static_cast<std::size_t>(j)] += x * static_cast<std::int32_t>(row[j]);
    }
  }
  return acc;
}

}  // namespace autohet::reram
