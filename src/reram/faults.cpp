#include "reram/faults.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace autohet::reram {

namespace {
/// E[v²] for v uniform over {0, …, 2^b − 1}: (2^b−1)(2^{b+1}−1)/6.
double mean_square_level(int bits) noexcept {
  const double top = static_cast<double>((1 << bits) - 1);
  return top * (2.0 * top + 1.0) / 6.0;
}
}  // namespace

FaultConfig FaultConfig::for_trial(std::uint64_t trial) const noexcept {
  FaultConfig out = *this;
  // SplitMix the trial index into an independent seed stream.
  std::uint64_t sm = seed ^ (0x9e3779b97f4a7c15ULL * (trial + 1));
  out.seed = common::splitmix64(sm);
  return out;
}

void FaultConfig::validate() const {
  AUTOHET_CHECK(stuck_at_zero_rate >= 0.0 && stuck_at_zero_rate <= 1.0 &&
                    stuck_at_one_rate >= 0.0 && stuck_at_one_rate <= 1.0 &&
                    stuck_at_zero_rate + stuck_at_one_rate <= 1.0,
                "stuck-at rates must be probabilities summing to <= 1");
  AUTOHET_CHECK(program_sigma >= 0.0 && read_sigma >= 0.0,
                "variation sigmas must be non-negative");
  AUTOHET_CHECK(drift_time_s >= 0.0 && drift_nu >= 0.0,
                "drift parameters must be non-negative");
  AUTOHET_CHECK(cell_bits > 0 && cell_bits <= 8 && 8 % cell_bits == 0,
                "cell_bits must divide 8");
}

WilsonInterval wilson_interval(double successes, double n, double z) {
  if (n <= 0.0) return {};
  const double p = successes / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double spread =
      z * std::sqrt((p * (1.0 - p) + z2 / (4.0 * n)) / n) / denom;
  return {std::max(0.0, center - spread), std::min(1.0, center + spread)};
}

void RobustnessBudget::validate() const {
  AUTOHET_CHECK(ci_halfwidth > 0.0 && ci_halfwidth < 1.0,
                "ci_halfwidth must be in (0, 1)");
  AUTOHET_CHECK(min_trials > 0, "min_trials must be positive");
  AUTOHET_CHECK(max_trials >= 0, "max_trials must be non-negative");
  AUTOHET_CHECK(max_trials == 0 || max_trials >= min_trials,
                "max_trials must be 0 or >= min_trials");
  AUTOHET_CHECK(chunk_trials > 0, "chunk_trials must be positive");
}

SequentialStopper::SequentialStopper(const RobustnessBudget& budget,
                                     int requested)
    : budget_(budget) {
  budget_.validate();
  AUTOHET_CHECK(requested > 0, "stopper needs a positive trial cap");
  cap_ = budget_.max_trials > 0 ? budget_.max_trials : requested;
  min_ = std::min(budget_.min_trials, cap_);
}

void SequentialStopper::add_trial(std::int64_t successes,
                                  std::int64_t samples) {
  AUTOHET_CHECK(samples > 0 && successes >= 0 && successes <= samples,
                "trial successes must be within the sample count");
  AUTOHET_CHECK(m_ == 0 || m_ == samples,
                "every trial must contribute the same sample count");
  m_ = samples;
  ++trials_;
  successes_ += successes;
  n_ += samples;
  const double p_t =
      static_cast<double>(successes) / static_cast<double>(samples);
  sum_p_ += p_t;
  sum_p2_ += p_t * p_t;
}

double SequentialStopper::design_effect() const noexcept {
  if (trials_ < 2 || m_ < 2) return 1.0;
  const double p = static_cast<double>(successes_) /
                   static_cast<double>(n_);
  if (p <= 0.0 || p >= 1.0) return 1.0;  // no spread ⇒ no clustering signal
  const double t = static_cast<double>(trials_);
  const double m = static_cast<double>(m_);
  // Unbiased between-trial variance of the per-trial proportions; p equals
  // their mean because every trial carries the same m.
  const double var_b =
      std::max(0.0, (sum_p2_ - t * p * p) / (t - 1.0));
  // Moment estimator: Var(p_t) = p(1−p)/m · (1 + (m−1)ρ), clamped to a
  // valid correlation.
  const double rho = std::clamp(
      (m * var_b / (p * (1.0 - p)) - 1.0) / (m - 1.0), 0.0, 1.0);
  return 1.0 + (m - 1.0) * rho;
}

WilsonInterval SequentialStopper::pooled_interval() const {
  if (n_ <= 0) return {};
  return wilson_interval(static_cast<double>(successes_),
                         static_cast<double>(n_));
}

WilsonInterval SequentialStopper::interval() const {
  if (n_ <= 0) return {};
  const double deff = design_effect();
  const double n_eff = static_cast<double>(n_) / deff;
  const double p = static_cast<double>(successes_) /
                   static_cast<double>(n_);
  return wilson_interval(p * n_eff, n_eff);
}

int SequentialStopper::next_boundary(int executed) const noexcept {
  const int target = executed < min_ ? min_ : executed + budget_.chunk_trials;
  return std::min(cap_, target);
}

bool SequentialStopper::should_stop() const noexcept {
  if (trials_ >= cap_) return true;
  if (trials_ < min_) return false;
  return pooled_interval().halfwidth() <= budget_.ci_halfwidth;
}

FaultConfig spanning_probe(const FaultConfig& config) noexcept {
  FaultConfig probe = config;
  // kRecordCap53 · 2⁻⁵³ = 2⁻⁴ exactly, so thr53(rate) lands on the cap.
  probe.stuck_at_zero_rate =
      static_cast<double>(FaultModel::kRecordCap53) * 0x1.0p-53;
  probe.stuck_at_one_rate = 0.0;
  return probe;
}

double FaultModel::level_noise_amplification(int cell_bits) noexcept {
  double scale_sum = 0.0;  // Σ_p 4^{p·b} over the 8/b planes
  for (int p = 0; p < 8 / cell_bits; ++p) {
    scale_sum += std::pow(4.0, static_cast<double>(p * cell_bits));
  }
  return std::sqrt(mean_square_level(cell_bits) * scale_sum);
}

FaultModel::FaultModel(const FaultConfig& config) : config_(config) {
  config_.validate();
  planes_ = 8 / config_.cell_bits;
  level_mask_ = (1u << config_.cell_bits) - 1u;
  drift_factor_ =
      (config_.drift_time_s > 0.0 && config_.drift_nu > 0.0)
          ? std::pow(1.0 + config_.drift_time_s, -config_.drift_nu)
          : 1.0;
  read_sigma_weights_ =
      config_.read_sigma * level_noise_amplification(config_.cell_bits);

  // Fast-kernel precompute. Retention drift multiplies every level by a
  // constant != 1, defeating the "level provably unchanged" shortcut, so
  // drifted configs stay on the reference path.
  fast_eligible_ = drift_factor_ == 1.0;
  // uniform() returns k·2⁻⁵³ with k = uniform_bits53(); multiplying a rate
  // by 2⁵³ is exact (pure exponent shift), so k·2⁻⁵³ < rate ⟺ k < ceil(T).
  const auto thr53 = [](double rate) {
    return static_cast<std::uint64_t>(std::ceil(rate * 0x1.0p53));
  };
  stuck_zero_thr53_ = thr53(config_.stuck_at_zero_rate);
  // The sum is rounded in double first, exactly as perturb_weight compares.
  stuck_sum_thr53_ =
      thr53(config_.stuck_at_zero_rate + config_.stuck_at_one_rate);
  if (fast_eligible_ && config_.program_sigma > 0.0) {
    // Marsaglia polar: the accepted pair (u, v) with s = u²+v² yields
    // deviates u·m and v·m with m = sqrt(−2 ln s / s), so |N| ≤ sqrt(−2 ln s)
    // (since |u|,|v| ≤ √s). Level L survives lround(L·exp(σN)) == L whenever
    // |σN| < ln(1 + 1/(2L)) — the tighter of the two rounding boundaries —
    // giving the sufficient condition s > exp(−(ln(1+1/(2L))/σ)²/2).
    level_s_safe_.assign(level_mask_ + 1u, 1.0);  // level 0 draws no normal
    for (unsigned level = 1; level <= level_mask_; ++level) {
      // The 1−1e−9 shrink keeps the bound conservative against the ~1-ulp
      // rounding of this precompute chain: borderline cells take the exact
      // slow path instead of being (wrongly) skipped.
      const double bound = (1.0 - 1e-9) *
                           std::log1p(0.5 / static_cast<double>(level)) /
                           config_.program_sigma;
      level_s_safe_[level] = std::exp(-0.5 * bound * bound);
    }
  }
}

std::int8_t FaultModel::perturb_weight(std::int8_t weight, common::Rng& rng,
                                       FaultMapStats& stats) const {
  const int b = config_.cell_bits;
  const auto offset = static_cast<unsigned>(static_cast<int>(weight) + 128);
  unsigned out = 0;
  for (int p = 0; p < planes_; ++p, ++stats.physical_cells) {
    double level = static_cast<double>((offset >> (p * b)) & level_mask_);
    // Programming variation: lognormal on the stored conductance level
    // (HRS level 0 stays 0 — an off cell has nothing to vary).
    if (config_.program_sigma > 0.0 && level > 0.0) {
      level *= std::exp(rng.normal(0.0, config_.program_sigma));
    }
    level *= drift_factor_;  // deterministic retention decay
    auto quantized = static_cast<unsigned>(std::clamp(
        std::lround(level), 0l, static_cast<long>(level_mask_)));
    // Stuck-at faults override whatever was programmed. One uniform draw
    // per physical cell whenever either rate is nonzero keeps the map a
    // pure function of the RNG stream position.
    if (config_.stuck_at_zero_rate > 0.0 || config_.stuck_at_one_rate > 0.0) {
      const double u = rng.uniform();
      if (u < config_.stuck_at_zero_rate) {
        quantized = 0;
        ++stats.stuck_at_zero;
      } else if (u < config_.stuck_at_zero_rate + config_.stuck_at_one_rate) {
        quantized = level_mask_;
        ++stats.stuck_at_one;
      }
    }
    out |= (quantized & level_mask_) << (p * b);
  }
  const auto perturbed =
      static_cast<std::int8_t>(static_cast<int>(out) - 128);
  if (perturbed != weight) ++stats.weights_changed;
  return perturbed;
}

FaultMapStats FaultModel::apply(std::span<std::int8_t> cells,
                                std::int64_t rows, std::int64_t cols,
                                std::int64_t row_stride,
                                std::uint64_t crossbar_id) const {
  if (!fast_eligible_) {
    return apply_reference(cells, rows, cols, row_stride, crossbar_id);
  }
  FaultMapStats stats;
  if (ideal()) return stats;
  AUTOHET_CHECK(rows >= 0 && cols >= 0 && row_stride >= cols,
                "invalid fault-map geometry");
  common::Rng rng = common::Rng(config_.seed).child(crossbar_id);
  stats = apply_fast(cells, rows, cols, row_stride, rng, nullptr);
  OBS_COUNTER_ADD("autohet_fault_cells_total",
                  static_cast<std::uint64_t>(stats.physical_cells));
  OBS_COUNTER_ADD("autohet_fault_stuck_cells_total",
                  static_cast<std::uint64_t>(stats.stuck_at_zero +
                                             stats.stuck_at_one));
  return stats;
}

FaultMapStats FaultModel::apply_reference(std::span<std::int8_t> cells,
                                          std::int64_t rows, std::int64_t cols,
                                          std::int64_t row_stride,
                                          std::uint64_t crossbar_id) const {
  FaultMapStats stats;
  if (ideal()) return stats;
  AUTOHET_CHECK(rows >= 0 && cols >= 0 && row_stride >= cols,
                "invalid fault-map geometry");
  common::Rng rng = common::Rng(config_.seed).child(crossbar_id);
  for (std::int64_t r = 0; r < rows; ++r) {
    std::int8_t* row = cells.data() + r * row_stride;
    for (std::int64_t c = 0; c < cols; ++c) {
      row[c] = perturb_weight(row[c], rng, stats);
    }
  }
  OBS_COUNTER_ADD("autohet_fault_cells_total",
                  static_cast<std::uint64_t>(stats.physical_cells));
  OBS_COUNTER_ADD("autohet_fault_stuck_cells_total",
                  static_cast<std::uint64_t>(stats.stuck_at_zero +
                                             stats.stuck_at_one));
  return stats;
}

FaultMapStats FaultModel::apply_fast(std::span<std::int8_t> cells,
                                     std::int64_t rows, std::int64_t cols,
                                     std::int64_t row_stride,
                                     common::Rng& rng,
                                     StuckRecord* rec) const {
  if (rec != nullptr) {
    switch (planes_) {
      case 8:
        return apply_fast_impl<8, true>(cells, rows, cols, row_stride, rng,
                                        rec);
      case 4:
        return apply_fast_impl<4, true>(cells, rows, cols, row_stride, rng,
                                        rec);
      case 2:
        return apply_fast_impl<2, true>(cells, rows, cols, row_stride, rng,
                                        rec);
      default:
        return apply_fast_impl<1, true>(cells, rows, cols, row_stride, rng,
                                        rec);
    }
  }
  switch (planes_) {
    case 8:
      return apply_fast_impl<8, false>(cells, rows, cols, row_stride, rng,
                                       nullptr);
    case 4:
      return apply_fast_impl<4, false>(cells, rows, cols, row_stride, rng,
                                       nullptr);
    case 2:
      return apply_fast_impl<2, false>(cells, rows, cols, row_stride, rng,
                                       nullptr);
    default:
      return apply_fast_impl<1, false>(cells, rows, cols, row_stride, rng,
                                       nullptr);
  }
}

FaultMapStats FaultModel::apply_recording(
    std::span<std::int8_t> cells, std::int64_t rows, std::int64_t cols,
    std::int64_t row_stride, std::uint64_t crossbar_id,
    StuckRecord& out) const {
  AUTOHET_CHECK(record_eligible(),
                "this fault config cannot be recorded (drift, zero stuck "
                "rates, or rates beyond the recording cap)");
  AUTOHET_CHECK(rows >= 0 && cols >= 0 && row_stride >= cols,
                "invalid fault-map geometry");
  common::Rng rng = common::Rng(config_.seed).child(crossbar_id);
  return apply_fast(cells, rows, cols, row_stride, rng, &out);
}

FaultMapStats FaultModel::replay_stuck(std::span<std::int8_t> cells,
                                       const StuckRecord& record) const {
  FaultMapStats delta;
  const std::uint64_t sum_thr = stuck_sum_thr53_;
  if (sum_thr == 0 || record.empty()) return delta;
  AUTOHET_CHECK(sum_thr <= kRecordCap53,
                "stuck rates beyond the recording cap cannot be replayed");
  AUTOHET_CHECK(cells.size() >= record.extent_,
                "replay target is smaller than the recorded array");
  const std::uint64_t zero_thr = stuck_zero_thr53_;
  const int b = config_.cell_bits;
  const unsigned mask = level_mask_;
  // Buckets 0..last hold every draw below sum_thr; only the last one can
  // also hold draws at or above it.
  const auto last =
      static_cast<int>((sum_thr - 1) >> StuckRecord::kBucketShift);
  const std::size_t end = record.start_[static_cast<std::size_t>(last) + 1];
  const std::uint64_t* keys = record.key_.get();
  const std::uint32_t* pos = record.pos_.get();
  std::int8_t* bytes = cells.data();
  for (std::size_t i = 0; i < end; ++i) {
    const std::uint64_t k = keys[i] & (kRecordCap53 - 1);
    if (k >= sum_thr) continue;
    unsigned forced;
    if (k < zero_thr) {
      forced = 0;
      ++delta.stuck_at_zero;
    } else {
      forced = mask;
      ++delta.stuck_at_one;
    }
    // Planes of one cell may sit in different buckets, so each hit patches
    // the byte on its own; the per-hit weights_changed terms telescope to
    // the exact (final != original) − (post-variation != original).
    const auto original = static_cast<std::int8_t>(
        static_cast<std::uint8_t>(keys[i] >> StuckRecord::kCapBits));
    const int shift = static_cast<int>(pos[i] & 7u) * b;
    std::int8_t& byte = bytes[pos[i] >> 3];
    const std::int8_t before = byte;
    const auto offset = static_cast<unsigned>(static_cast<int>(before) + 128);
    const auto after = static_cast<std::int8_t>(
        static_cast<int>((offset & ~(mask << shift)) | (forced << shift)) -
        128);
    byte = after;
    delta.weights_changed += static_cast<int>(after != original) -
                             static_cast<int>(before != original);
  }
  return delta;
}

namespace {

/// Draws generated per refill of the burn kernel's stream buffer (8 KiB,
/// L1-resident alongside the row being burned).
constexpr std::size_t kDrawBlock = 1024;

/// Draws past the cursor a burn may keep unread across a refill: one cell's
/// stuck draws and polar attempts (a nonzero cell reads them ahead).
/// Exceeding it takes over 50 polar rejections within one cell (each has
/// p ≈ 0.215).
constexpr std::ptrdiff_t kLookahead = 128;

[[noreturn, gnu::cold, gnu::noinline]] void lookahead_overflow() {
  common::fail("fault burn-in: polar rejection run exceeds the lookahead");
}

/// Refills the burn kernel's stream buffer: keeps the unread tail
/// [d, end) at the front and appends the next kDrawBlock draws of the
/// crossbar's stream. The cursor restarts at `buf`; returns the new end.
/// Generating past the last draw a burn consumes is harmless: the crossbar's
/// generator is discarded when its burn ends. Inlined without library calls,
/// so the burn loops keep their polar state in registers across it.
[[gnu::always_inline]] inline const std::uint64_t* refill_draws(
    common::Rng& rng, std::uint64_t* buf, const std::uint64_t* d,
    const std::uint64_t* end) {
  const auto tail = static_cast<std::size_t>(end - d);
  for (std::size_t i = 0; i < tail; ++i) buf[i] = d[i];
  rng.fill_bits53(buf + tail, kDrawBlock);
  return buf + tail + kDrawBlock;
}

/// First column at or after `c` in [c, cols) holding a nonzero weight.
std::int64_t zero_run_end(const std::int8_t* row, std::int64_t c,
                          std::int64_t cols) {
  for (; c + 8 <= cols; c += 8) {
    std::uint64_t word;
    std::memcpy(&word, row + c, sizeof word);
    if (word != 0) break;
  }
  while (c < cols && row[c] == 0) ++c;
  return c;
}

/// uniform(-1, 1) = -1 + 2·(k·2⁻⁵³) for the raw draw k. The doubling and the
/// subtraction are both exact (k·2⁻⁵² and k·2⁻⁵² − 1 each fit in 53
/// significant bits since |k − 2⁵²| ≤ 2⁵²), so one convert and one multiply
/// give Rng::normal's operand bit for bit.
inline double polar_unit(std::uint64_t k) {
  return static_cast<double>(static_cast<std::int64_t>(k) -
                             (std::int64_t{1} << 52)) *
         0x1.0p-52;
}

/// The rounded level L·exp(σ·N) of a polar normal N = uv·sqrt(−2 ln s / s),
/// computed exactly as perturb_weight does. Burns call it only when
/// s ≤ s_safe[L], i.e. when the level might move.
unsigned requantize_level(unsigned level, double s, double uv, double sigma,
                          unsigned mask) {
  const double m = std::sqrt(-2.0 * std::log(s) / s);
  const double noisy = static_cast<double>(level) * std::exp(sigma * (uv * m));
  return static_cast<unsigned>(
      std::clamp(std::lround(noisy), 0l, static_cast<long>(mask)));
}

/// Mask of the planes holding a nonzero level of one weight's offset.
template <int kPlanes>
unsigned nonzero_planes(unsigned offset) {
  constexpr int b = 8 / kPlanes;
  constexpr unsigned mask = (1u << b) - 1u;
  unsigned planes = 0;
  for (int p = 0; p < kPlanes; ++p) {
    planes |= ((offset >> (p * b)) & mask) ? 1u << p : 0u;
  }
  return planes;
}

/// Recording burns stage candidates per row segment of at most
/// kSegmentCols columns, packed one word per stuck draw: the draw in bits
/// 0..48, the plane in 49..51, the segment column in 52..63.
constexpr int kPlaneShift = StuckRecord::kCapBits;
constexpr int kColShift = kPlaneShift + 3;
constexpr std::int64_t kSegmentCols = std::int64_t{1} << (64 - kColShift);

/// Per-thread staging for a recording burn.
struct RecordScratch {
  std::vector<std::uint64_t> packed;  ///< one segment's packed draws
  std::vector<std::int8_t> originals;  ///< the segment's weights pre-burn
  std::vector<std::uint64_t> key;     ///< unpacked, stream order; grows only
  std::vector<std::uint32_t> pos;
  std::size_t staged = 0;             ///< entries of key/pos in use
};

thread_local RecordScratch t_record_scratch;

}  // namespace

template <int kPlanes, bool kRecord>
FaultMapStats FaultModel::apply_fast_impl(
    std::span<std::int8_t> cells, std::int64_t rows, std::int64_t cols,
    std::int64_t row_stride, common::Rng& rng, StuckRecord* rec) const {
  // Burn-in dominates Monte-Carlo robustness wall time (it touches every
  // physical cell of every trial fabric), so this kernel brings the
  // per-cell cost close to the RNG stream's own. It replicates
  // perturb_weight's stream consumption draw for draw:
  //   * draws come from a buffer refilled in blocks (refill_draws): the
  //     generator runs as a tight loop with its state in registers, and the
  //     consumer reads plain memory a cell at a time;
  //   * runs of zero weights — most of a sparsely used physical array — are
  //     found a word at a time. A zero cell's draws are fixed: its lower
  //     planes' stuck draws (one OR over the run tests them against the
  //     threshold; a recording writes them all and keeps those under the
  //     cap by branch-free compaction), the top plane's normal and its stuck
  //     draw. Bytes are written only when a draw moves them;
  //   * a nonzero cell walks its normals a pair at a time and then reads its
  //     stuck draws in one fixed-length pass (burn_cell);
  //   * the lognormal variation skips the sqrt/log/exp/lround whenever
  //     s > s_safe[L] proves the rounded level unchanged — the
  //     overwhelmingly common case at realistic σ. The polar pair cache
  //     lives in locals: legal because this rng is crossbar-local and
  //     discarded when the burn returns;
  //   * with no stuck draws at all a zero run reads only its top planes'
  //     normals (burn_zero_run_normals).
  constexpr int b = 8 / kPlanes;
  constexpr int planes = kPlanes;
  // Draws a cell step may read without a bounds check: a zero cell's stuck
  // draws plus one polar pair (retries and nonzero cells check their own).
  constexpr std::ptrdiff_t kWindow = kPlanes + 2;
  const unsigned mask = level_mask_;
  const double sigma = config_.program_sigma;
  const bool variation = sigma > 0.0;
  const bool stuck =
      config_.stuck_at_zero_rate > 0.0 || config_.stuck_at_one_rate > 0.0;
  const std::uint64_t zero_thr = stuck_zero_thr53_;
  const std::uint64_t sum_thr = stuck_sum_thr53_;
  // Per-level safety bound with level 0 (and every level when there is no
  // variation) at −1: s ≥ 0, so `s <= safe[L]` is the whole requantize test.
  double safe[256];
  for (unsigned level = 0; level <= mask; ++level) {
    safe[level] = variation && level > 0 ? level_s_safe_[level] : -1.0;
  }
  // A zero weight encodes as offset 128 = top_level in the top plane alone
  // (for every cell_bits dividing 8), so its draw pattern is fixed.
  constexpr unsigned top_level = 1u << (b - 1);
  constexpr int top_shift = (planes - 1) * b;
  const double safe_top = safe[top_level];
  FaultMapStats stats;
  stats.physical_cells = rows * cols * planes;

  std::uint64_t buf[kDrawBlock + kLookahead];
  const std::uint64_t* d = buf;
  const std::uint64_t* d_end = buf;
  const auto ensure_window = [&]() {
    if (d_end - d < kWindow) [[unlikely]] {
      d_end = refill_draws(rng, buf, d, d_end);
      d = buf;
    }
  };

  // Recording sink (see kSegmentCols).
  RecordScratch& scratch = t_record_scratch;
  std::uint64_t* seg = nullptr;
  std::size_t rn = 0;
  if constexpr (kRecord) {
    AUTOHET_CHECK(rows == 0 || (rows - 1) * row_stride + cols <=
                                   (std::int64_t{1} << 29),
                  "crossbar too large for 32-bit candidate positions");
    const std::int64_t seg_cols = std::min(cols, kSegmentCols);
    // Every stuck draw of a segment writes one slot (+1 for the last,
    // uncounted write).
    scratch.packed.resize(static_cast<std::size_t>(seg_cols * planes) + 1);
    scratch.originals.resize(static_cast<std::size_t>(seg_cols));
    seg = scratch.packed.data();
    scratch.staged = 0;
  }
  const auto record_draw = [&](std::uint64_t k, std::uint64_t tag) {
    seg[rn] = k | tag;
    rn += k < kRecordCap53;
  };

  // Polar pair cache (mirrors Rng::normal's cached second deviate, with the
  // value deferred: only s and the pair are kept until someone needs it).
  bool has_pending = false;
  double pu = 0.0, pv = 0.0, ps = 0.0;
  // One accepted polar pair into (pu, pv, ps) by the plain rejection loop.
  // Needs two readable draws on entry; restores the window before retries.
  const auto polar_pair = [&]() {
    for (;;) {
      pu = polar_unit(d[0]);
      pv = polar_unit(d[1]);
      d += 2;
      ps = pu * pu + pv * pv;
      if (ps < 1.0 && ps != 0.0) return;
      ensure_window();
    }
  };
  const auto next_normal_su = [&](double& s, double& uv) {
    if (has_pending) {
      has_pending = false;
      s = ps;
      uv = pv;  // second deviate of the pair, as Rng::normal caches
    } else {
      polar_pair();
      has_pending = true;
      s = ps;
      uv = pu;
    }
  };
  // Rare: the deviate is large enough to possibly move the level.
  const auto requantize = [&](unsigned level, double s, double uv) {
    return requantize_level(level, s, uv, sigma, mask);
  };
  // One stuck draw for the plane carrying `level`: recorded under `tag`, or
  // applied to `level`.
  const auto stuck_draw = [&](unsigned& level, std::uint64_t tag) {
    const std::uint64_t k = *d++;
    if constexpr (kRecord) {
      (void)level;
      record_draw(k, tag);
    } else {
      (void)tag;
      if (k < sum_thr) [[unlikely]] {
        if (k < zero_thr) {
          level = 0;
          ++stats.stuck_at_zero;
        } else {
          level = mask;
          ++stats.stuck_at_one;
        }
      }
    }
  };

  // Stuck draws on (variation optional): a run of zero weights at [c, e).
  // Every cell reads its lower-plane stuck draws, the top plane's normal and
  // its top stuck draw.
  const auto burn_zero_run_stuck = [&](std::int8_t* row, std::int64_t c,
                                       std::int64_t e, std::int64_t seg_c0) {
    for (; c < e; ++c) {
      ensure_window();
      const std::uint64_t tag = static_cast<std::uint64_t>(c - seg_c0)
                                << kColShift;
      unsigned out = 0;
      // The lower planes hold level 0 and draw no variation: a straight run
      // of stuck draws.
      if constexpr (kRecord) {
        for (int p = 0; p < planes - 1; ++p) {
          record_draw(d[p], tag | static_cast<std::uint64_t>(p)
                                      << kPlaneShift);
        }
      } else {
        // k < sum_thr ⟺ k − sum_thr wraps (both are < 2⁵³): OR the sign
        // bits across the run, test once.
        std::uint64_t any = 0;
        for (int p = 0; p < planes - 1; ++p) any |= d[p] - sum_thr;
        if (any >> 63) [[unlikely]] {
          for (int p = 0; p < planes - 1; ++p) {
            if (d[p] >= sum_thr) continue;
            if (d[p] < zero_thr) {
              ++stats.stuck_at_zero;  // level was already 0
            } else {
              out |= mask << (p * b);
              ++stats.stuck_at_one;
            }
          }
        }
      }
      d += planes - 1;
      unsigned quantized = top_level;
      double s = 1.0, uv = 0.0;
      if (variation) next_normal_su(s, uv);
      if (s <= safe_top) [[unlikely]] {
        quantized = requantize(top_level, s, uv);
      }
      stuck_draw(quantized, tag | static_cast<std::uint64_t>(planes - 1)
                                      << kPlaneShift);
      out |= quantized << top_shift;
      if (out != top_level << top_shift) {
        row[c] = static_cast<std::int8_t>(static_cast<int>(out) - 128);
        ++stats.weights_changed;
      }
    }
  };

  // Variation only: a run of zero weights at [c, e) reads nothing but the
  // top plane's normals, two cells per accepted polar pair. The buffered
  // pairs are walked with acceptance counted, not branched on; only a pair
  // that might move a level (s ≤ s_safe) takes a branch. The run ends on an
  // accepted pair, so an unused second deviate is the pair just read.
  const auto burn_zero_run_normals = [&](std::int8_t* row, std::int64_t c,
                                         std::int64_t e) {
    const auto settle_zero = [&](std::int64_t col, double s, double uv) {
      const unsigned quantized = requantize(top_level, s, uv);
      if (quantized != top_level) {
        row[col] = static_cast<std::int8_t>(
            static_cast<int>(quantized << top_shift) - 128);
        ++stats.weights_changed;
      }
    };
    if (has_pending) {
      has_pending = false;
      if (ps <= safe_top) [[unlikely]] settle_zero(c, ps, pv);
      ++c;
    }
    while (c < e) {
      if (d_end - d < 2) {
        d_end = refill_draws(rng, buf, d, d_end);
        d = buf;
      }
      for (; c < e && d_end - d >= 2; d += 2) {
        const double u = polar_unit(d[0]), v = polar_unit(d[1]);
        const double s = u * u + v * v;
        const bool accepted = (s < 1.0) & (s != 0.0);
        if (accepted & (s <= safe_top)) [[unlikely]] {
          settle_zero(c, s, u);
          if (c + 1 < e) settle_zero(c + 1, s, v);
        }
        c += 2 * static_cast<std::int64_t>(accepted);
      }
    }
    if (c > e) {
      has_pending = true;
      pu = polar_unit(d[-2]);
      pv = polar_unit(d[-1]);
      ps = pu * pu + pv * pv;
    }
  };

  // One nonzero weight at column c. Its draws are, plane by plane, a polar
  // normal when the level is nonzero and then the plane's stuck draw. The
  // normals are walked a pair at a time over the nonzero planes (the pair's
  // second deviate serves the next one), tracking how many polar draws each
  // plane consumed; the stuck draws are then read at their stream positions
  // in one fixed-length pass. Which planes draw is a coin flip per plane
  // for a random weight, so no branch is taken per plane.
  const auto burn_cell = [&](std::int8_t* row, std::int64_t c,
                             std::int64_t seg_c0) {
    ensure_window();
    const std::int8_t weight = row[c];
    const auto offset = static_cast<unsigned>(static_cast<int>(weight) + 128);
    // Planes drawing a normal.
    unsigned normals = variation ? nonzero_planes<kPlanes>(offset) : 0u;
    unsigned out = offset;
    const auto settle = [&](int q, double s, double uv) {
      const unsigned level = (offset >> (q * b)) & mask;
      if (s <= safe[level]) [[unlikely]] {
        out = (out & ~(mask << (q * b))) |
              (requantize(level, s, uv) << (q * b));
      }
    };
    if (normals != 0 && has_pending) {
      const int q = std::countr_zero(normals);
      normals &= normals - 1;
      has_pending = false;
      settle(q, ps, pv);
    }
    // polar_at[p]: polar draws consumed at plane p; `used` their running sum.
    std::ptrdiff_t polar_at[kPlanes] = {};
    std::ptrdiff_t used = 0;
    while (normals != 0) {
      const int q = std::countr_zero(normals);
      normals &= normals - 1;
      // The pair is drawn at plane q: after its q stuck draws (when stuck
      // draws are consumed at all) and every polar draw so far.
      const std::ptrdiff_t stuck_before = stuck ? q : 0;
      std::ptrdiff_t at = stuck_before + used;
      double u, v, s;
      for (;;) {
        if (d_end - d < at + 2 + planes) [[unlikely]] {
          if (at + 2 + planes > kLookahead) lookahead_overflow();
          d_end = refill_draws(rng, buf, d, d_end);
          d = buf;
        }
        u = polar_unit(d[at]);
        v = polar_unit(d[at + 1]);
        at += 2;
        s = u * u + v * v;
        if (s < 1.0 && s != 0.0) break;
      }
      polar_at[q] = at - stuck_before - used;
      used = at - stuck_before;
      settle(q, s, u);
      if (normals != 0) {
        const int q2 = std::countr_zero(normals);
        normals &= normals - 1;
        settle(q2, s, v);
      } else {
        has_pending = true;
        pu = u;
        pv = v;
        ps = s;
      }
    }
    if (stuck) {
      const std::uint64_t tag = static_cast<std::uint64_t>(c - seg_c0)
                                << kColShift;
      std::ptrdiff_t shift = 0;
      if constexpr (kRecord) {
        for (int p = 0; p < planes; ++p) {
          shift += polar_at[p];
          record_draw(d[p + shift],
                      tag | static_cast<std::uint64_t>(p) << kPlaneShift);
        }
      } else {
        std::uint64_t any = 0;
        for (int p = 0; p < planes; ++p) {
          shift += polar_at[p];
          any |= d[p + shift] - sum_thr;
        }
        if (any >> 63) [[unlikely]] {
          shift = 0;
          for (int p = 0; p < planes; ++p) {
            shift += polar_at[p];
            const std::uint64_t k = d[p + shift];
            if (k >= sum_thr) continue;
            unsigned forced;
            if (k < zero_thr) {
              forced = 0;
              ++stats.stuck_at_zero;
            } else {
              forced = mask;
              ++stats.stuck_at_one;
            }
            out = (out & ~(mask << (p * b))) | (forced << (p * b));
          }
        }
      }
    }
    d += (stuck ? planes : 0) + used;
    const auto perturbed =
        static_cast<std::int8_t>(static_cast<int>(out) - 128);
    if (perturbed != weight) {
      row[c] = perturbed;
      ++stats.weights_changed;
    }
  };

  // Moves a recorded segment's kept draws into the stream-order staging,
  // restoring each candidate's byte offset and original weight.
  const auto unpack_segment = [&](std::int64_t off) {
    const std::size_t base = scratch.staged;
    if (scratch.key.size() < base + rn) {
      scratch.key.resize(2 * (base + rn));
      scratch.pos.resize(2 * (base + rn));
    }
    scratch.staged += rn;
    for (std::size_t i = 0; i < rn; ++i) {
      const std::uint64_t w = seg[i];
      const auto col = static_cast<std::int64_t>(w >> kColShift);
      const auto orig = static_cast<std::uint8_t>(
          scratch.originals[static_cast<std::size_t>(col)]);
      scratch.key[base + i] = (w & (kRecordCap53 - 1)) |
                              static_cast<std::uint64_t>(orig)
                                  << StuckRecord::kCapBits;
      const auto plane = static_cast<std::int64_t>((w >> kPlaneShift) & 7u);
      scratch.pos[base + i] =
          static_cast<std::uint32_t>(((off + col) << 3) | plane);
    }
    rn = 0;
  };

  if (!stuck && !variation) return stats;  // nothing draws

  for (std::int64_t r = 0; r < rows; ++r) {
    std::int8_t* row = cells.data() + r * row_stride;
    for (std::int64_t c0 = 0; c0 < cols; c0 += kSegmentCols) {
      const std::int64_t c1 = std::min(cols, c0 + kSegmentCols);
      if constexpr (kRecord) {
        std::copy(row + c0, row + c1, scratch.originals.begin());
      }
      std::int64_t c = c0;
      while (c < c1) {
        if (row[c] == 0) {
          const std::int64_t e = zero_run_end(row, c + 1, c1);
          if (stuck) {
            burn_zero_run_stuck(row, c, e, c0);
          } else {
            burn_zero_run_normals(row, c, e);
          }
          c = e;
        } else {
          burn_cell(row, c, c0);
          ++c;
        }
      }
      if constexpr (kRecord) unpack_segment(r * row_stride + c0);
    }
  }

  if constexpr (kRecord) {
    // Stable counting sort of the staged candidates into their buckets.
    const std::size_t n = scratch.staged;
    const std::uint64_t* keys = scratch.key.data();
    const std::uint32_t* pos = scratch.pos.data();
    const auto bucket_of = [](std::uint64_t key) {
      return static_cast<std::size_t>((key & (kRecordCap53 - 1)) >>
                                      StuckRecord::kBucketShift);
    };
    StuckRecord& out = *rec;
    out.start_.fill(0);
    for (std::size_t i = 0; i < n; ++i) ++out.start_[bucket_of(keys[i]) + 1];
    for (int bk = 0; bk < StuckRecord::kBuckets; ++bk) {
      out.start_[bk + 1] += out.start_[bk];
    }
    std::array<std::uint32_t, StuckRecord::kBuckets> fill;
    std::copy_n(out.start_.begin(), StuckRecord::kBuckets, fill.begin());
    // Default-initialized (uninitialized) storage: every slot is written.
    out.key_.reset(new std::uint64_t[n]);
    out.pos_.reset(new std::uint32_t[n]);
    out.size_ = n;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t dst = fill[bucket_of(keys[i])]++;
      out.key_[dst] = keys[i];
      out.pos_[dst] = pos[i];
    }
    out.extent_ =
        rows == 0 ? 0
                  : static_cast<std::size_t>((rows - 1) * row_stride + cols);
  }
  return stats;
}

double analytic_layer_vulnerability(const mapping::LayerMapping& m,
                                    const FaultConfig& faults) {
  if (faults.ideal()) return 0.0;
  faults.validate();
  const double drift_loss =
      (faults.drift_time_s > 0.0 && faults.drift_nu > 0.0)
          ? 1.0 - std::pow(1.0 + faults.drift_time_s, -faults.drift_nu)
          : 0.0;
  const double per_level_variance =
      faults.stuck_at_zero_rate + faults.stuck_at_one_rate +
      faults.program_sigma * faults.program_sigma +
      faults.read_sigma * faults.read_sigma + drift_loss * drift_loss;
  const double cell_error =
      std::sqrt(per_level_variance) *
      FaultModel::level_noise_amplification(faults.cell_bits) / 127.0;
  const double blocks = static_cast<double>(std::max<std::int64_t>(
      m.row_blocks, 1));
  return std::min(1.0, cell_error * std::sqrt(blocks));
}

double aggregate_network_vulnerability(const std::vector<double>& layer_vuln) {
  if (layer_vuln.empty()) return 0.0;
  double sum_sq = 0.0;
  for (const double v : layer_vuln) sum_sq += v * v;
  return std::min(1.0,
                  std::sqrt(sum_sq / static_cast<double>(layer_vuln.size())));
}

double analytic_network_vulnerability(
    const std::vector<nn::LayerSpec>& layers,
    const std::vector<mapping::CrossbarShape>& shapes,
    const FaultConfig& faults) {
  AUTOHET_CHECK(layers.size() == shapes.size(),
                "layers and shapes must be the same length");
  std::vector<double> vuln;
  vuln.reserve(layers.size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    vuln.push_back(analytic_layer_vulnerability(
        mapping::map_layer(layers[i], shapes[i]), faults));
  }
  return aggregate_network_vulnerability(vuln);
}

}  // namespace autohet::reram
