// ReRAM non-ideality model: stuck-at faults, conductance variation and
// retention drift, seeded and deterministic.
//
// The paper evaluates an *ideal* device; multi-bit ReRAM cells are precisely
// the ones most vulnerable to conductance variation and stuck-at defects
// (Hamun, arXiv:2502.01502; CIM-Explorer, arXiv:2505.14303). This module
// makes the fabric's non-ideality a first-class, reproducible axis:
//
//   * Storage model. A logical 8-bit weight w is stored offset-binary
//     (v = w + 128) across `8 / cell_bits` physical cells ("planes") of
//     `cell_bits` bits each — the same encoding the multilevel datapath
//     (`LogicalCrossbar::mvm_multilevel`) computes on. Plane p carries the
//     level v_p = (v >> p·b) & (2^b − 1) with weight-space scale 2^{p·b}.
//
//   * Stuck-at faults. Every physical cell is independently stuck-at-0
//     (level forced to 0, HRS) with probability `stuck_at_zero_rate` and
//     stuck-at-1 (level forced to 2^b − 1, LRS) with probability
//     `stuck_at_one_rate`. The fault map is a pure function of
//     (seed, crossbar_id, cell index): same seed ⇒ same map.
//
//   * Conductance variation. Each programmed level is perturbed
//     lognormally, v' = v · exp(σ·N(0,1)), then rounded back to the level
//     grid. Because plane p re-enters the weight with scale 2^{p·b} and
//     b-bit cells space 2^b − 1 levels across the same conductance window,
//     the *effective* weight-space error grows with bits per cell:
//     σ_w = σ · A(b) with A(b)² = E[v²] · Σ_p 4^{p·b} (see weight_sigma()).
//
//   * Retention drift. Conductance decays with time as the deterministic
//     power law g(t) = g0 · (1 + t)^{−ν} (t in seconds, ν = drift_nu),
//     applied to every nonzero level before rounding.
//
// Faults and programming variation are burned in at weight-programming time
// (`LogicalCrossbar::apply_faults`, called by `MappedLayer`); cycle-to-cycle
// read variation (`read_sigma`) is sampled at MVM time on the integer
// datapath. A default `FaultConfig{}` is ideal: no RNG is consumed and every
// output stays bit-identical to the fault-free build (tested).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "mapping/layer_mapping.hpp"
#include "nn/layer.hpp"

namespace autohet::reram {

/// Device non-ideality knobs. Default-constructed = ideal device.
struct FaultConfig {
  double stuck_at_zero_rate = 0.0;  ///< per physical cell, Bernoulli
  double stuck_at_one_rate = 0.0;   ///< per physical cell, Bernoulli
  double program_sigma = 0.0;  ///< lognormal σ of programmed conductance
  double read_sigma = 0.0;     ///< lognormal σ per MVM read (cycle-to-cycle)
  double drift_time_s = 0.0;   ///< retention time since programming; 0 = off
  double drift_nu = 0.0;       ///< drift exponent ν (typically ~0.1)
  int cell_bits = 1;           ///< bits per physical cell (1, 2, 4 or 8)
  std::uint64_t seed = 0xfa0175eedULL;  // "faults-eed"

  /// True when every non-ideality is off; the fault machinery then never
  /// touches an RNG and programmed arrays stay bit-identical.
  bool ideal() const noexcept {
    return stuck_at_zero_rate == 0.0 && stuck_at_one_rate == 0.0 &&
           program_sigma == 0.0 && read_sigma == 0.0 &&
           (drift_time_s == 0.0 || drift_nu == 0.0);
  }

  /// Derives the trial-t configuration for Monte-Carlo sweeps: identical
  /// rates, independent seed stream.
  FaultConfig for_trial(std::uint64_t trial) const noexcept;

  void validate() const;

  bool operator==(const FaultConfig&) const = default;
};

/// Aggregate counts of one fault-map application (per crossbar, per layer
/// or per fabric depending on who reports them).
struct FaultMapStats {
  std::int64_t physical_cells = 0;  ///< cells visited (rows·cols·planes)
  std::int64_t stuck_at_zero = 0;
  std::int64_t stuck_at_one = 0;
  std::int64_t weights_changed = 0;  ///< logical weights whose value moved

  FaultMapStats& operator+=(const FaultMapStats& o) noexcept {
    physical_cells += o.physical_cells;
    stuck_at_zero += o.stuck_at_zero;
    stuck_at_one += o.stuck_at_one;
    weights_changed += o.weights_changed;
    return *this;
  }
};

/// Wilson score interval for a Bernoulli proportion: the set of p whose
/// z-score test would not reject `successes` hits in `n` draws. Unlike the
/// normal approximation it stays inside [0, 1] and behaves sanely at
/// p̂ ∈ {0, 1}, which is exactly where fault sweeps live (rate-0 points
/// agree on every sample).
struct WilsonInterval {
  double lower = 0.0;
  double upper = 1.0;
  double halfwidth() const noexcept { return 0.5 * (upper - lower); }
};

/// z for the two-sided 95% interval — the sequential stopping rule's
/// confidence level.
inline constexpr double kWilsonZ95 = 1.959963984540054;

/// Wilson interval on `successes` hits in `n` draws (n <= 0 ⇒ [0, 1]).
/// Takes doubles so callers can pass a design-effect-adjusted effective
/// sample size (see SequentialStopper::interval).
WilsonInterval wilson_interval(double successes, double n,
                               double z = kWilsonZ95);

/// Monte-Carlo trial budget: how many fault-map trials a robustness
/// evaluation spends. The default `kFixed` mode runs exactly the configured
/// trial count — reports stay byte-identical to the pre-budget code.
/// `kAdaptive` runs trials in chunks and stops as soon as the Wilson CI
/// half-width of the pooled per-sample agreement falls to `ci_halfwidth`
/// (never before `min_trials`, never past the cap), spending the full
/// budget only on points whose accuracy is genuinely uncertain. Executed
/// trials use the same `FaultConfig::for_trial` seed stream as fixed mode,
/// so an adaptive run that stops after T trials reports exactly the fixed-
/// mode statistics of its first T trials (a prefix, not an approximation).
struct RobustnessBudget {
  enum class Mode { kFixed, kAdaptive };
  Mode mode = Mode::kFixed;
  /// Adaptive target: stop once the pooled agreement CI half-width is ≤
  /// this (95% Wilson).
  double ci_halfwidth = 0.05;
  /// Adaptive clamps: never stop before `min_trials`; `max_trials` caps the
  /// spend (0 = use RobustnessOptions::trials as the cap).
  int min_trials = 2;
  int max_trials = 0;
  /// Trials evaluated between CI checks after `min_trials` — stopping
  /// decisions happen at chunk boundaries only, so the executed trial count
  /// is a pure function of the sample outcomes, never of thread scheduling.
  int chunk_trials = 1;
  /// Adaptive-mode cross-rate cache spanning: serve zero-stuck-rate grid
  /// points by replaying the shared variation-only recording (see
  /// TrialFabricCache) instead of re-burning a fresh fabric per trial.
  /// Statistically equivalent, *not* byte-identical — a zero-rate burn-in
  /// skips the stuck draws and is a different RNG stream — so it never
  /// applies in kFixed mode.
  bool span_zero_rate = true;

  void validate() const;
  bool operator==(const RobustnessBudget&) const = default;
};

/// The sequential stopping rule, factored out of the Monte-Carlo loop so
/// its statistics are unit-testable on raw Bernoulli streams. Feed it one
/// completed trial at a time (`add_trial`); `next_boundary` yields the
/// trial index to run up to before the next decision, and `should_stop`
/// answers the decision. Deterministic: the stop point depends only on the
/// budget and the per-trial success counts.
///
/// Two intervals, two jobs:
///  - `pooled_interval()` treats the n = trials·samples outcomes as
///    independent Bernoulli draws. `should_stop` targets its half-width —
///    this is the budget knob: spend trials until the pooled agreement
///    estimate is tight, then stop.
///  - `interval()` is *cluster-robust* and is what reports carry. Samples
///    within one trial share one fault map, so they are positively
///    correlated and the pooled CI is anti-conservative exactly at the
///    bimodal grid points (a fabric either survives or collapses). The
///    stopper estimates the intra-trial correlation ρ from the
///    between-trial variance of per-trial proportions (moment estimator:
///    Var(p_t) = p(1−p)/m · (1 + (m−1)ρ)), inflates the variance by the
///    Kish design effect DEFF = 1 + (m−1)·ρ̂ and evaluates the Wilson
///    interval at the effective sample size n/DEFF. Consistent trials
///    (ρ̂ = 0) keep the full n; fully clustered trials degrade to one
///    effective draw per trial. At a strongly clustered point the adaptive
///    run stops on the pooled target (bounding cost) while the reported
///    robust CI stays honestly wide — adaptivity never overstates the
///    precision actually achieved.
class SequentialStopper {
 public:
  /// `requested` is the trial cap (RobustnessOptions::trials when the
  /// budget leaves max_trials at 0).
  SequentialStopper(const RobustnessBudget& budget, int requested);

  /// Records one completed trial's pooled sample outcomes.
  void add_trial(std::int64_t successes, std::int64_t samples);

  /// First decision boundary after `executed` trials: min_trials for the
  /// opening chunk, then chunk_trials at a time, clamped to the cap.
  int next_boundary(int executed) const noexcept;

  /// True once the pooled CI half-width target is met (at or past
  /// min_trials) or the trial cap is exhausted.
  bool should_stop() const noexcept;

  /// True when should_stop() fired on the CI target rather than the cap.
  bool stopped_early() const noexcept {
    return should_stop() && trials_ < cap_;
  }

  /// Plain 95% Wilson CI on the pooled per-sample agreement — the stopping
  /// target (see above).
  WilsonInterval pooled_interval() const;
  /// Cluster-robust 95% Wilson CI on the pooled agreement (see above) —
  /// the interval reports carry.
  WilsonInterval interval() const;
  /// The estimated Kish design effect 1 + (m−1)·ρ̂ (1 until two trials
  /// with between-trial spread have been fed).
  double design_effect() const noexcept;
  int trials() const noexcept { return trials_; }
  int cap() const noexcept { return cap_; }

 private:
  RobustnessBudget budget_;
  int cap_ = 0;        ///< effective max trials
  int min_ = 0;        ///< effective min trials (≤ cap)
  int trials_ = 0;     ///< trials fed so far
  std::int64_t successes_ = 0;
  std::int64_t n_ = 0;   ///< pooled sample draws
  std::int64_t m_ = 0;   ///< samples per trial (constant across trials)
  double sum_p_ = 0.0;   ///< Σ per-trial proportions
  double sum_p2_ = 0.0;  ///< Σ squared per-trial proportions
};

/// Monte-Carlo robustness of one configuration (accuracy-under-faults over
/// N seeded trials). Produced by `monte_carlo_robustness` (functional.hpp)
/// and `EvaluationEngine::evaluate_robustness`.
struct RobustnessReport {
  int trials = 0;            ///< trials actually executed
  int trials_requested = 0;  ///< the configured budget (== trials in kFixed)
  bool early_stopped = false;  ///< adaptive CI target met before the cap
  /// 95% Wilson CI on the pooled per-sample agreement across the executed
  /// trials — the quantity the adaptive stopping rule resolves.
  double accuracy_ci_lower = 0.0;
  double accuracy_ci_upper = 1.0;
  int samples = 0;
  double mean_accuracy = 0.0;    ///< mean argmax agreement vs ideal fabric
  double stddev_accuracy = 0.0;  ///< across trials (population stddev)
  double min_accuracy = 0.0;
  double max_accuracy = 0.0;
  double mean_logit_error = 0.0;  ///< mean max-|logit diff| vs ideal fabric
  /// Per-mappable-layer mean relative output error — where the fault
  /// energy enters the network.
  std::vector<double> layer_error;
  FaultMapStats fault_stats;  ///< aggregated over every trial fabric
};

/// The stuck-draw candidates of one recorded crossbar burn
/// (FaultModel::apply_recording): every stuck-at draw k < kRecordCap53 of
/// the crossbar's stream, with the cell byte and plane it targets and the
/// cell's originally programmed weight (replay needs it to correct
/// weights_changed exactly). Candidates are bucketed by the high bits of the
/// raw 53-bit draw, bucket k >> kBucketShift, and kept in stream order inside
/// each bucket, so a replay at summed threshold T walks only the buckets
/// below T and filters the one T falls in: its cost follows the hits, not
/// the recorded list. Storage is exact-size, 12 bytes per candidate.
class StuckRecord {
 public:
  static constexpr int kCapBits = 49;      ///< kRecordCap53 == 2^kCapBits
  static constexpr int kBucketShift = 45;  ///< bucket = k >> kBucketShift
  static constexpr int kBuckets = 1 << (kCapBits - kBucketShift);

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t bucket_size(int bucket) const noexcept {
    return start_[bucket + 1] - start_[bucket];
  }

 private:
  friend class FaultModel;
  std::array<std::uint32_t, kBuckets + 1> start_{};  ///< bucket offsets
  std::size_t size_ = 0;
  /// k | (original weight as its unsigned byte) << kCapBits.
  std::unique_ptr<std::uint64_t[]> key_;
  /// (row·row_stride + col) << 3 | plane: the targeted byte and plane.
  std::unique_ptr<std::uint32_t[]> pos_;
  std::size_t extent_ = 0;  ///< cells a replay target must span
};

/// Seeded sampler that burns a FaultConfig into programmed weight arrays.
/// Stateless across calls: every perturbation is a pure function of
/// (config.seed, crossbar_id), so fabrics rebuilt with the same seed see
/// the same fault maps.
class FaultModel {
 public:
  explicit FaultModel(const FaultConfig& config);

  const FaultConfig& config() const noexcept { return config_; }
  bool ideal() const noexcept { return config_.ideal(); }

  /// Applies stuck-at faults, programming variation and drift to a full
  /// rows×cols two's-complement weight array (row-major, stride
  /// `row_stride`). Deterministic in (config.seed, crossbar_id).
  /// Dispatches to a stream-exact fast kernel when eligible (no drift):
  /// cells, stats and the consumed RNG stream are bit-identical to
  /// apply_reference (tested), only the wall time differs.
  FaultMapStats apply(std::span<std::int8_t> cells, std::int64_t rows,
                      std::int64_t cols, std::int64_t row_stride,
                      std::uint64_t crossbar_id) const;

  /// The straightforward per-cell path (perturb_weight per logical weight).
  /// Retained as the equivalence oracle for the fast kernel and as the
  /// scalar-baseline burn-in for KernelPolicy::kScalar fabrics.
  FaultMapStats apply_reference(std::span<std::int8_t> cells,
                                std::int64_t rows, std::int64_t cols,
                                std::int64_t row_stride,
                                std::uint64_t crossbar_id) const;

  /// Perturbs one weight (used by apply_reference(); exposed for tests).
  std::int8_t perturb_weight(std::int8_t weight, common::Rng& rng,
                             FaultMapStats& stats) const;

  /// Recording cap: stuck draws with k < 2⁵³/16 are captured by
  /// apply_recording, so any config whose summed stuck rate is ≤ 1/16 can be
  /// replayed from one recording (the sweep grids top out around 1e-2).
  static constexpr std::uint64_t kRecordCap53 = std::uint64_t{1}
                                                << StuckRecord::kCapBits;

  /// True when this config's burn-in can be recorded and later replayed:
  /// fast-kernel eligible (no drift), stuck draws consumed (some stuck rate
  /// > 0 — a zero-rate stream skips the draws entirely and is a different
  /// stream) and thresholds within the recording cap.
  bool record_eligible() const noexcept {
    return fast_eligible_ && stuck_sum_thr53_ > 0 &&
           stuck_sum_thr53_ <= kRecordCap53;
  }

  /// Recording burn-in: consumes the RNG stream exactly as apply() does for
  /// this config, applies programming variation to `cells`, but *records*
  /// every stuck draw below kRecordCap53 into `out` (replacing its contents)
  /// instead of applying any stuck override. The returned stats carry the
  /// variation-only counts (stuck counts zero); replay_stuck() then
  /// completes the burn for any rate pair within the cap. The key property
  /// (tested): the burn-in stream position never depends on the stuck *rate
  /// values*, so one recording serves every nonzero-rate config sharing
  /// (seed, program_sigma, cell_bits). Requires record_eligible().
  FaultMapStats apply_recording(std::span<std::int8_t> cells,
                                std::int64_t rows, std::int64_t cols,
                                std::int64_t row_stride,
                                std::uint64_t crossbar_id,
                                StuckRecord& out) const;

  /// Completes a recorded burn on a post-variation clone: forces the planes
  /// whose recorded draw falls under this config's thresholds and returns
  /// the *delta* stats (stuck counts plus the weights_changed correction
  /// relative to the recording's variation-only count; physical_cells 0, so
  /// recording stats + delta == apply() stats exactly). `cells` must hold
  /// the recording's post-variation state in the recorded geometry. Walks
  /// only the record's buckets below this config's summed threshold; a
  /// zero-rate config forces nothing.
  FaultMapStats replay_stuck(std::span<std::int8_t> cells,
                             const StuckRecord& record) const;

  /// Effective weight-space rms error per unit σ of per-level lognormal
  /// noise: A(b) = sqrt(E[v²] · Σ_p 4^{p·b}) with v uniform over the level
  /// grid. Grows with cell_bits — multi-bit cells pack tighter levels, so
  /// the same conductance spread costs more weight-space error.
  static double level_noise_amplification(int cell_bits) noexcept;

  /// rms weight perturbation (in weight LSBs) the configured read noise
  /// injects per MVM; 0 when read_sigma == 0.
  double read_noise_weight_sigma() const noexcept {
    return read_sigma_weights_;
  }

 private:
  FaultMapStats apply_fast(std::span<std::int8_t> cells, std::int64_t rows,
                           std::int64_t cols, std::int64_t row_stride,
                           common::Rng& rng, StuckRecord* rec) const;
  /// apply_fast body with the plane count baked in at compile time so the
  /// per-plane loops fully unroll (defined in faults.cpp; instantiated for
  /// every legal 8 / cell_bits). With kRecord the stuck draws are captured
  /// into `rec` instead of applied (the apply_recording path); the branch is
  /// compile-time, so the hot non-recording kernel is unchanged.
  template <int kPlanes, bool kRecord>
  FaultMapStats apply_fast_impl(std::span<std::int8_t> cells,
                                std::int64_t rows, std::int64_t cols,
                                std::int64_t row_stride, common::Rng& rng,
                                StuckRecord* rec) const;

  FaultConfig config_;
  int planes_ = 8;           ///< 8 / cell_bits
  unsigned level_mask_ = 1;  ///< 2^cell_bits − 1
  double drift_factor_ = 1.0;
  double read_sigma_weights_ = 0.0;
  // Fast-kernel precompute (see apply_fast): integer stuck-at thresholds on
  // the raw 53-bit uniform draw, and per-level polar-rejection safety bounds
  // s_safe[L] — when the accepted polar s exceeds s_safe[L] the lognormal
  // perturbation provably cannot move level L off its grid point, so the
  // sqrt/log/exp are skipped while the RNG stream advances identically.
  bool fast_eligible_ = false;
  std::uint64_t stuck_zero_thr53_ = 0;  ///< u < z₀ ⟺ bits53 < this
  std::uint64_t stuck_sum_thr53_ = 0;   ///< u < z₀+z₁ ⟺ bits53 < this
  std::vector<double> level_s_safe_;    ///< indexed by level, [0..mask]
};

/// The canonical recording config for cross-rate cache spanning: `config`
/// with its stuck rates replaced by the largest recordable rate (summed
/// threshold == FaultModel::kRecordCap53, i.e. 2⁻⁴). A recording burn
/// captures *every* stuck draw below the cap regardless of the rate values,
/// so the probe's recording is identical to the one any in-cap nonzero-rate
/// config sharing (seed, program_sigma, cell_bits) would produce — it exists
/// so a zero-stuck-rate grid point (whose own burn-in skips the stuck draws
/// entirely and is therefore not recordable) can join the shared recorded
/// fabric family. Replaying it at zero rates forces no candidates.
FaultConfig spanning_probe(const FaultConfig& config) noexcept;

/// Closed-form per-layer fault vulnerability in [0, 1]: the expected
/// relative MVM output error of `layer` mapped as `m` under `faults`.
///
///   ε_cell = sqrt(p₀ + p₁ + σ_prog² + σ_read² + drift_loss²) · A(b) / 127
///   ε_layer = min(1, ε_cell · sqrt(row_blocks))
///
/// The √row_blocks factor models the adder-tree merge of independently
/// converted partial sums: each row block contributes its own
/// conversion-referred error, so configurations that split a layer across
/// more, smaller crossbars accumulate more of it. This is the robustness
/// counterweight to utilization (small crossbars pack tighter but fragment
/// the partial sums), and it is what the robustness-aware reward trades.
/// Returns 0 for an ideal config.
double analytic_layer_vulnerability(const mapping::LayerMapping& m,
                                    const FaultConfig& faults);

/// Network-level aggregation: rms over the per-layer vulnerabilities,
/// clamped to [0, 1]. Both `evaluate_network` and the `EvaluationEngine`
/// use exactly this formula so their reports stay bit-identical.
double aggregate_network_vulnerability(const std::vector<double>& layer_vuln);

/// Convenience: maps every layer and aggregates, without building reports.
double analytic_network_vulnerability(
    const std::vector<nn::LayerSpec>& layers,
    const std::vector<mapping::CrossbarShape>& shapes,
    const FaultConfig& faults);

}  // namespace autohet::reram
