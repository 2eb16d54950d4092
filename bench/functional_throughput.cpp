// Functional-simulation throughput: packed vs scalar MVM kernels across
// every dispatchable ISA variant, fast vs scalar forward plumbing (plus the
// intra-forward row-block split), and Monte-Carlo robustness wall time —
// the perf trajectory of the fast functional engine (DESIGN.md §7).
//
// Levels timed, each against its retained scalar baseline (the pre-packing
// datapaths, kept precisely so this comparison stays honest):
//   * raw crossbar kernels (bit-serial / multilevel / reference MVMs/s),
//     with the bit-serial and multilevel kernels and the integer
//     datapath's int8 GEMM additionally timed under every supported
//     dispatch variant (portable/avx2/avx512) — the `dispatch` JSON section
//     records the selected path and each variant's rates (GEMM in MVMs/s,
//     one MVM = one input column, and GMAC/s);
//   * whole-network forwards (images/s, integer and bit-serial datapaths
//     on LeNet-5, and the integer datapath on the CIFAR residual DAG
//     through forward_graph), plus the same forward split across row
//     blocks / position tiles on a worker pool (bit-identical outputs,
//     asserted), and AlexNet serial vs pooled, whose large layers clear
//     reram::kPoolMinMacs and so really split (bit-identical, asserted);
//   * fault burn-in on one 576x512 crossbar with LeNet-5 fc1's weights in
//     its corner: FaultModel::apply at stuck rate 0 and > 0, the recording
//     burn and its replay at every grid rate, per cell width, each in ns per
//     consumed RNG draw against a bare xoshiro256** loop timed in the same
//     process (the `burn_in` JSON section; `record_vs_ceiling` is the 1-bit
//     recording's multiple of that ceiling);
//   * the full fault_sweep Monte-Carlo workload — fault_sweep's three
//     configurations over its 15-point grid (3 cell-bits × 5 stuck rates,
//     σ=0.01, 5 trials × 12 samples), measured end-to-end through
//     EvaluationEngine::evaluate_robustness. Every (variant, thread-count)
//     combination's reports are byte-compared against the scalar serial
//     reference (asserted here and in CI), and per config the parallel
//     path must not lose to the serial one (`parallel_vs_serial`; on a
//     single-hardware-thread host the parallel path runs the identical
//     serial code, so the serial timing is reused and flagged).
//
// Emits BENCH_functional_throughput.json with a provenance stamp and every
// rate and ratio; the headline `mc_speedup` field (aggregate scalar wall /
// aggregate fast wall over the whole workload) gates the acceptance
// criterion.
//
// Usage: functional_throughput [mc_reps] [episodes]
//   mc_reps  — repetitions of each Monte-Carlo timing (best-of; default 1)
//   episodes — search budget for the AutoHet configuration (default 60,
//              matching fault_sweep)
#include <chrono>
#include <fstream>
#include <thread>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "reram/eval_engine.hpp"
#include "reram/functional.hpp"
#include "nn/graph.hpp"
#include "nn/quantize.hpp"
#include "reram/kernels/kernels.hpp"
#include "tensor/ops.hpp"

using namespace autohet;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Times fn() repeatedly until ~min_ms of wall time accumulates; returns
/// calls per second.
template <typename Fn>
double calls_per_second(Fn&& fn, double min_ms = 200.0) {
  // Warm up once (packs lazy structures, faults the caches).
  fn();
  std::int64_t calls = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = ms_since(t0);
  } while (elapsed < min_ms);
  return static_cast<double>(calls) * 1000.0 / elapsed;
}

// fault_sweep's fault grid, replicated exactly (bench/fault_sweep.cpp).
constexpr double kStuckRates[] = {0.0, 1e-4, 1e-3, 5e-3, 1e-2};
constexpr int kCellBits[] = {1, 2, 4};
constexpr double kProgramSigma = 0.01;
constexpr int kMcTrials = 5;
constexpr int kMcSamples = 12;

reram::FaultConfig point_config(double stuck_rate, int cell_bits) {
  reram::FaultConfig faults;
  faults.stuck_at_zero_rate = stuck_rate / 2.0;
  faults.stuck_at_one_rate = stuck_rate / 2.0;
  faults.program_sigma = kProgramSigma;
  faults.cell_bits = cell_bits;
  return faults;
}

bool reports_equal(const reram::RobustnessReport& a,
                   const reram::RobustnessReport& b) {
  return a.trials == b.trials && a.samples == b.samples &&
         a.mean_accuracy == b.mean_accuracy &&
         a.stddev_accuracy == b.stddev_accuracy &&
         a.min_accuracy == b.min_accuracy &&
         a.max_accuracy == b.max_accuracy &&
         a.mean_logit_error == b.mean_logit_error &&
         a.layer_error == b.layer_error &&
         a.fault_stats.physical_cells == b.fault_stats.physical_cells &&
         a.fault_stats.stuck_at_zero == b.fault_stats.stuck_at_zero &&
         a.fault_stats.stuck_at_one == b.fault_stats.stuck_at_one &&
         a.fault_stats.weights_changed == b.fault_stats.weights_changed;
}

/// Best-of-`reps` wall time of fn() in milliseconds.
template <typename Fn>
double best_ms(Fn&& fn, int reps) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    const double ms = ms_since(t0);
    best = i == 0 ? ms : std::min(best, ms);
  }
  return best;
}

/// The number of RNG draws one burn of `cells` under `faults` consumes: the
/// per-cell stream of FaultModel::perturb_weight (a polar normal per
/// nonzero level, two draws per attempt with the second deviate cached,
/// then a stuck draw per plane when a stuck rate is set), replayed on the
/// crossbar's own stream.
std::int64_t burn_draws(const std::vector<std::int8_t>& cells,
                        const reram::FaultConfig& faults,
                        std::uint64_t crossbar_id) {
  common::Rng rng = common::Rng(faults.seed).child(crossbar_id);
  const int b = faults.cell_bits;
  const unsigned mask = (1u << b) - 1u;
  const bool stuck =
      faults.stuck_at_zero_rate > 0.0 || faults.stuck_at_one_rate > 0.0;
  bool pending = false;
  std::int64_t draws = 0;
  for (const std::int8_t w : cells) {
    const auto offset = static_cast<unsigned>(static_cast<int>(w) + 128);
    for (int p = 0; p < 8 / b; ++p) {
      if (faults.program_sigma > 0.0 && ((offset >> (p * b)) & mask) != 0) {
        if (pending) {
          pending = false;
        } else {
          double s = 0.0;
          do {
            const double u = rng.uniform(-1.0, 1.0);
            const double v = rng.uniform(-1.0, 1.0);
            draws += 2;
            s = u * u + v * v;
          } while (s >= 1.0 || s == 0.0);
          pending = true;
        }
      }
      if (stuck) {
        (void)rng.uniform_bits53();
        ++draws;
      }
    }
  }
  return draws;
}

/// One burn-in row: a kernel at one cell width and stuck rate.
struct BurnRow {
  int cell_bits = 1;
  std::string kernel;
  double stuck_rate = 0.0;
  std::int64_t draws = 0;
  double ms = 0.0;
  double ns_per_draw = 0.0;
};

struct McTiming {
  std::string config;
  double scalar_serial_ms = 0.0;
  double fast_serial_ms = 0.0;
  double fast_parallel_ms = 0.0;
  bool parallel_reused_serial = false;
  bool identical = false;
};

/// One (variant, threads) byte-identity verdict against the scalar serial
/// reference, over all three configurations' full grids.
struct VariantCheck {
  std::string variant;
  int threads = 0;  // 1 = serial, 0 = one per hardware thread
  bool identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  const int mc_reps = bench::episodes_from_args(argc, argv, 1);
  const int hw_threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  bench::print_header(
      "Functional-simulation throughput (dispatched kernels, parallel MC)");

  namespace rk = reram::kernels;
  const rk::Variant selected = rk::active_variant();
  const std::vector<rk::Variant> variants = rk::supported_variants();

  const nn::NetworkSpec net = nn::lenet5();
  common::Rng weight_rng(21);
  const nn::Model model(net, weight_rng);

  // --- Raw kernel rates on one 288x256 crossbar -------------------------
  const mapping::CrossbarShape kshape{288, 256};
  common::Rng cell_rng(7);
  std::vector<std::int8_t> weights(static_cast<std::size_t>(kshape.cells()));
  for (auto& w : weights) {
    w = static_cast<std::int8_t>(cell_rng.uniform_int(-128, 127));
  }
  reram::LogicalCrossbar xb(kshape);
  xb.program(weights, kshape.rows, kshape.cols);  // packs eagerly
  std::vector<std::uint8_t> input(static_cast<std::size_t>(kshape.rows));
  for (auto& v : input) {
    v = static_cast<std::uint8_t>(cell_rng.uniform_int(0, 255));
  }
  volatile std::int32_t sink = 0;
  const auto time_kernel = [&](auto&& fn) {
    return calls_per_second([&] { sink = sink + fn().back(); });
  };

  // The integer datapath's int8 GEMM on the same cells: a 128-column
  // input tile (one conv position tile's worth) packed into quads, as
  // MappedLayer::mvm_batch_into feeds it.
  constexpr std::int64_t kGemmCount = 128;
  const std::int64_t gemm_quads = (kshape.rows + 3) / 4;
  std::vector<std::int32_t> gemm_w(
      static_cast<std::size_t>(gemm_quads * kshape.cols), 0);
  std::vector<std::uint8_t> gemm_x(
      static_cast<std::size_t>(gemm_quads * kGemmCount * 4), 0);
  std::vector<std::vector<std::uint8_t>> gemm_columns(
      kGemmCount, std::vector<std::uint8_t>(
                      static_cast<std::size_t>(kshape.rows)));
  for (std::int64_t r = 0; r < kshape.rows; ++r) {
    for (std::int64_t j = 0; j < kshape.cols; ++j) {
      auto& quad = gemm_w[static_cast<std::size_t>((r / 4) * kshape.cols + j)];
      quad = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(quad) |
          static_cast<std::uint32_t>(static_cast<std::uint8_t>(
              weights[static_cast<std::size_t>(r * kshape.cols + j)]))
              << (8 * (r % 4)));
    }
    for (std::int64_t p = 0; p < kGemmCount; ++p) {
      const auto x = static_cast<std::uint8_t>(cell_rng.uniform_int(0, 255));
      gemm_columns[static_cast<std::size_t>(p)][static_cast<std::size_t>(r)] =
          x;
      gemm_x[static_cast<std::size_t>(((r / 4) * kGemmCount + p) * 4 +
                                      r % 4)] = x;
    }
  }
  std::vector<std::int32_t> gemm_acc(
      static_cast<std::size_t>(kshape.cols * kGemmCount));
  const auto run_gemm = [&] {
    std::fill(gemm_acc.begin(), gemm_acc.end(), 0);
    rk::ops().int8_gemm(gemm_w.data(), gemm_quads, kshape.cols, gemm_x.data(),
                        kGemmCount, gemm_acc.data());
    sink = sink + gemm_acc.back();
  };
  std::vector<std::int32_t> gemm_oracle(gemm_acc.size());
  for (std::int64_t p = 0; p < kGemmCount; ++p) {
    const auto col =
        xb.mvm_reference_scalar(gemm_columns[static_cast<std::size_t>(p)]);
    for (std::int64_t j = 0; j < kshape.cols; ++j) {
      gemm_oracle[static_cast<std::size_t>(j * kGemmCount + p)] =
          col[static_cast<std::size_t>(j)];
    }
  }

  // Dispatch sweep: the bit-serial and multilevel packed MVMs and the int8
  // GEMM under every supported variant. Each result is checked against the
  // scalar oracle per variant — a variant that vectorizes wrongly must fail
  // here, not in CI.
  struct VariantRate {
    std::string name;
    double bit_serial_per_s = 0.0;
    double multilevel_per_s = 0.0;
    double gemm_mvms_per_s = 0.0;
    double gemm_gmacs = 0.0;
  };
  std::vector<VariantRate> variant_rates;
  const std::vector<std::int32_t> bit_serial_oracle =
      xb.mvm_bit_serial_scalar(input);
  const std::vector<std::int32_t> multilevel_oracle =
      xb.mvm_multilevel_scalar(input, 2);
  for (const rk::Variant v : variants) {
    rk::set_variant(v);
    AUTOHET_CHECK(xb.mvm_bit_serial(input) == bit_serial_oracle,
                  std::string("bit-serial mismatch under variant ") +
                      rk::variant_name(v));
    AUTOHET_CHECK(xb.mvm_multilevel(input, 2) == multilevel_oracle,
                  std::string("multilevel mismatch under variant ") +
                      rk::variant_name(v));
    run_gemm();
    AUTOHET_CHECK(gemm_acc == gemm_oracle,
                  std::string("int8 GEMM mismatch under variant ") +
                      rk::variant_name(v));
    VariantRate rate;
    rate.name = rk::variant_name(v);
    rate.bit_serial_per_s =
        time_kernel([&] { return xb.mvm_bit_serial(input); });
    rate.multilevel_per_s =
        time_kernel([&] { return xb.mvm_multilevel(input, 2); });
    rate.gemm_mvms_per_s = kGemmCount * calls_per_second(run_gemm);
    rate.gemm_gmacs = rate.gemm_mvms_per_s *
                      static_cast<double>(kshape.rows * kshape.cols) / 1e9;
    variant_rates.push_back(rate);
  }
  rk::set_variant(selected);
  double best_vs_portable = 1.0;
  // The slowest SIMD variant's GEMM against portable (1 when only portable
  // runs here): check_regression.py gates it at >= 1.
  double gemm_simd_vs_portable_min = 0.0;
  for (const auto& r : variant_rates) {
    best_vs_portable = std::max(
        best_vs_portable,
        r.bit_serial_per_s / variant_rates.front().bit_serial_per_s);
    if (&r != &variant_rates.front()) {
      const double ratio =
          r.gemm_mvms_per_s / variant_rates.front().gemm_mvms_per_s;
      gemm_simd_vs_portable_min = gemm_simd_vs_portable_min == 0.0
                                      ? ratio
                                      : std::min(gemm_simd_vs_portable_min,
                                                 ratio);
    }
  }
  if (gemm_simd_vs_portable_min == 0.0) gemm_simd_vs_portable_min = 1.0;

  struct KernelRow {
    std::string name;
    double packed_per_s, scalar_per_s;
  };
  std::vector<KernelRow> kernels;
  kernels.push_back({"bit_serial",
                     time_kernel([&] { return xb.mvm_bit_serial(input); }),
                     time_kernel([&] {
                       return xb.mvm_bit_serial_scalar(input);
                     })});
  kernels.push_back({"multilevel",
                     time_kernel([&] { return xb.mvm_multilevel(input, 2); }),
                     time_kernel([&] {
                       return xb.mvm_multilevel_scalar(input, 2);
                     })});
  kernels.push_back({"reference",
                     time_kernel([&] { return xb.mvm_reference(input); }),
                     time_kernel([&] {
                       return xb.mvm_reference_scalar(input);
                     })});

  // --- Whole-network forward rates --------------------------------------
  const auto mappable = net.mappable_layers();
  const std::vector<mapping::CrossbarShape> shapes(mappable.size(),
                                                   {72, 64});
  common::Rng img_rng(4);
  const nn::LayerSpec& first = net.layers.front();
  const tensor::Tensor image = nn::synthetic_image(
      img_rng, first.in_channels, first.in_height, first.in_width);
  volatile float fsink = 0.0f;
  struct ForwardRow {
    std::string name;
    double fast_per_s, scalar_per_s;
  };
  std::vector<ForwardRow> forwards;
  double fwd_serial_per_s = 0.0;
  double fwd_pool_per_s = 0.0;
  double alex_serial_per_s = 0.0;
  double alex_pool_per_s = 0.0;
  int split_layers = 0;
  {
    const reram::SimulatedModel fast_int(model, shapes,
                                         reram::DatapathMode::kInteger);
    const reram::SimulatedModel scalar_int(
        model, shapes, reram::DatapathMode::kInteger, {},
        reram::KernelPolicy::kScalarReference);
    forwards.push_back(
        {"integer",
         calls_per_second([&] { fsink = fsink + fast_int.forward(image)[0]; }),
         calls_per_second(
             [&] { fsink = fsink + scalar_int.forward(image)[0]; })});
    const reram::SimulatedModel fast_bits(model, shapes,
                                          reram::DatapathMode::kBitSerial);
    const reram::SimulatedModel scalar_bits(
        model, shapes, reram::DatapathMode::kBitSerial, {},
        reram::KernelPolicy::kScalarReference);
    forwards.push_back(
        {"bit_serial",
         calls_per_second([&] { fsink = fsink + fast_bits.forward(image)[0]; }),
         calls_per_second(
             [&] { fsink = fsink + scalar_bits.forward(image)[0]; }, 400.0)});

    // The CIFAR residual DAG through forward_graph: the serving path's
    // conv-heavy forward (stem, identity and strided projection blocks).
    const nn::Graph resnet = nn::cifar_resnet_graph();
    common::Rng resnet_rng(21);
    const nn::Model resnet_model(resnet.skeleton(), resnet_rng);
    const std::vector<mapping::CrossbarShape> resnet_shapes(
        resnet.mappable_layers().size(), {72, 64});
    const nn::TensorShape& rin = resnet.nodes().front().shape;
    const tensor::Tensor resnet_image = nn::synthetic_image(
        img_rng, rin.channels, rin.height, rin.width);
    const reram::SimulatedModel fast_resnet(resnet_model, resnet_shapes,
                                            reram::DatapathMode::kInteger);
    const reram::SimulatedModel scalar_resnet(
        resnet_model, resnet_shapes, reram::DatapathMode::kInteger, {},
        reram::KernelPolicy::kScalarReference);
    AUTOHET_CHECK(
        tensor::max_abs_diff(fast_resnet.forward_graph(resnet, resnet_image),
                             scalar_resnet.forward_graph(resnet,
                                                         resnet_image)) ==
            0.0f,
        "fast residual-DAG forward diverged from the scalar reference");
    forwards.push_back(
        {"integer_cifar_resnet", calls_per_second([&] {
           fsink = fsink + fast_resnet.forward_graph(resnet, resnet_image)[0];
         }),
         calls_per_second([&] {
           fsink =
               fsink + scalar_resnet.forward_graph(resnet, resnet_image)[0];
         })});

    // Intra-forward row-block / position-tile split: one sample spread over
    // the whole pool. Integer partials reassociate exactly, so the pooled
    // forward must be bit-identical to the serial one.
    common::ThreadPool fwd_pool(static_cast<std::size_t>(hw_threads));
    const tensor::Tensor serial_out = fast_int.forward(image);
    const tensor::Tensor pooled_out = fast_int.forward(image, 0, &fwd_pool);
    AUTOHET_CHECK(tensor::max_abs_diff(serial_out, pooled_out) == 0.0f,
                  "pooled forward diverged from the serial forward");
    fwd_serial_per_s =
        calls_per_second([&] { fsink = fsink + fast_int.forward(image)[0]; });
    fwd_pool_per_s = calls_per_second(
        [&] { fsink = fsink + fast_int.forward(image, 0, &fwd_pool)[0]; });

    // LeNet-5's layers all sit under reram::kPoolMinMacs, so the forward
    // above runs the serial code even with a pool. AlexNet's conv2..fc2
    // clear it: its pooled forward really splits, and must match too.
    const nn::NetworkSpec alexnet = nn::alexnet();
    for (const nn::LayerSpec& spec : alexnet.mappable_layers()) {
      split_layers += reram::layer_macs(spec) >= reram::kPoolMinMacs;
    }
    common::Rng alex_rng(21);
    const nn::Model alex_model(alexnet, alex_rng);
    const reram::SimulatedModel alex_int(
        alex_model,
        std::vector<mapping::CrossbarShape>(
            alexnet.mappable_layers().size(), {72, 64}),
        reram::DatapathMode::kInteger);
    const nn::LayerSpec& alex_in = alexnet.layers.front();
    const tensor::Tensor alex_image = nn::synthetic_image(
        img_rng, alex_in.in_channels, alex_in.in_height, alex_in.in_width);
    AUTOHET_CHECK(
        tensor::max_abs_diff(alex_int.forward(alex_image),
                             alex_int.forward(alex_image, 0, &fwd_pool)) ==
            0.0f,
        "pooled AlexNet forward diverged from the serial forward");
    alex_serial_per_s = calls_per_second(
        [&] { fsink = fsink + alex_int.forward(alex_image)[0]; });
    alex_pool_per_s = calls_per_second([&] {
      fsink = fsink + alex_int.forward(alex_image, 0, &fwd_pool)[0];
    });
  }

  // --- Fault burn-in against the RNG ceiling ----------------------------
  // One 576x512 crossbar (the largest hybrid candidate, where burn-in
  // dominates Monte-Carlo time) with LeNet-5 fc1's quantized 400x120 weights
  // in its corner, at fault_sweep's sigma. Every kernel is timed per draw it
  // consumes and set against a bare xoshiro256** loop timed here: the
  // ceiling no burn can beat, since the draw order per crossbar is fixed.
  // Replay rows divide by the draws of the burn they complete.
  constexpr std::int64_t kBurnRows = 576, kBurnCols = 512;
  constexpr std::uint64_t kBurnCrossbar = 7;
  constexpr int kBurnReps = 15;
  std::vector<std::int8_t> burn_cells(
      static_cast<std::size_t>(kBurnRows * kBurnCols), 0);
  {
    const nn::QuantizedWeights fc1 = nn::quantize_weights(model.weight(2));
    const std::int64_t out = fc1.shape[0], in = fc1.shape[1];
    for (std::int64_t r = 0; r < in; ++r) {
      for (std::int64_t c = 0; c < out; ++c) {
        burn_cells[static_cast<std::size_t>(r * kBurnCols + c)] =
            fc1.values[static_cast<std::size_t>(c * in + r)];
      }
    }
  }
  std::int64_t max_draws = 0;
  std::vector<BurnRow> burn_rows;
  std::vector<std::int8_t> burn_work;
  for (const int cell_bits : kCellBits) {
    const reram::FaultConfig zero_rate = point_config(0.0, cell_bits);
    const reram::FaultConfig stuck = point_config(1e-3, cell_bits);
    const reram::FaultModel zero_model(zero_rate), stuck_model(stuck);
    const auto add_row = [&](const std::string& kernel, double rate,
                             std::int64_t draws, double ms) {
      burn_rows.push_back({cell_bits, kernel, rate, draws, ms,
                           ms * 1e6 / static_cast<double>(draws)});
      max_draws = std::max(max_draws, draws);
    };
    const double copy_ms = best_ms([&] { burn_work = burn_cells; }, kBurnReps);
    const std::int64_t zero_draws =
        burn_draws(burn_cells, zero_rate, kBurnCrossbar);
    const std::int64_t stuck_draws =
        burn_draws(burn_cells, stuck, kBurnCrossbar);
    add_row("apply", 0.0, zero_draws, best_ms([&] {
              burn_work = burn_cells;
              zero_model.apply(burn_work, kBurnRows, kBurnCols, kBurnCols,
                               kBurnCrossbar);
            }, kBurnReps) - copy_ms);
    add_row("apply", 1e-3, stuck_draws, best_ms([&] {
              burn_work = burn_cells;
              stuck_model.apply(burn_work, kBurnRows, kBurnCols, kBurnCols,
                                kBurnCrossbar);
            }, kBurnReps) - copy_ms);
    reram::StuckRecord record;
    add_row("record", 1e-3, stuck_draws, best_ms([&] {
              burn_work = burn_cells;
              stuck_model.apply_recording(burn_work, kBurnRows, kBurnCols,
                                          kBurnCols, kBurnCrossbar, record);
            }, kBurnReps) - copy_ms);
    const std::vector<std::int8_t> post_variation = burn_work;
    for (const double rate : kStuckRates) {
      if (rate == 0.0) continue;
      const reram::FaultConfig target = point_config(rate, cell_bits);
      const reram::FaultModel target_model(target);
      // Replay must reproduce the direct burn exactly (cells and stats).
      std::vector<std::int8_t> direct = burn_cells;
      const reram::FaultMapStats direct_stats = target_model.apply(
          direct, kBurnRows, kBurnCols, kBurnCols, kBurnCrossbar);
      burn_work = post_variation;
      const reram::FaultMapStats delta =
          target_model.replay_stuck(burn_work, record);
      AUTOHET_CHECK(burn_work == direct &&
                        delta.stuck_at_zero == direct_stats.stuck_at_zero &&
                        delta.stuck_at_one == direct_stats.stuck_at_one,
                    "replayed burn diverged from the direct burn");
      const double replay_copy_ms =
          best_ms([&] { burn_work = post_variation; }, kBurnReps);
      add_row("replay", rate, stuck_draws, best_ms([&] {
                burn_work = post_variation;
                target_model.replay_stuck(burn_work, record);
              }, kBurnReps) - replay_copy_ms);
    }
  }
  // The ceiling: the same generator stepped bare over the largest draw
  // count above.
  volatile std::uint64_t draw_sink = 0;
  const double ceiling_ms = best_ms([&] {
    common::Rng rng = common::Rng(1).child(kBurnCrossbar);
    std::uint64_t acc = 0;
    for (std::int64_t i = 0; i < max_draws; ++i) acc += rng.uniform_bits53();
    draw_sink = draw_sink + acc;
  }, kBurnReps);
  const double ceiling_ns = ceiling_ms * 1e6 / static_cast<double>(max_draws);
  double record_vs_ceiling = 0.0;
  for (const BurnRow& r : burn_rows) {
    if (r.cell_bits == 1 && r.kernel == "record") {
      record_vs_ceiling = r.ns_per_draw / ceiling_ns;
    }
  }
  std::cout << "\nFault burn-in, 576x512 crossbar (fc1 corner), ceiling "
            << report::format_fixed(ceiling_ns, 3) << " ns/draw:\n";
  for (const BurnRow& r : burn_rows) {
    std::cout << "  " << r.cell_bits << "-bit " << r.kernel << " @ "
              << r.stuck_rate << ": " << report::format_fixed(r.ms, 3)
              << " ms, " << report::format_fixed(r.ns_per_draw, 3)
              << " ns/draw (" << report::format_fixed(r.ns_per_draw /
                                                          ceiling_ns, 2)
              << "x ceiling)\n";
  }

  // --- Monte-Carlo wall time on the fault_sweep workload ----------------
  // fault_sweep's three configurations over its full 15-point grid,
  // measured end-to-end through EvaluationEngine::evaluate_robustness. A
  // fresh environment (fresh engine, cold TrialFabricCache) per timed
  // measurement: the fast path pays every ideal-reference build and trial
  // recording inside the timer, exactly as one fault_sweep run does.
  int episodes = 60;
  if (argc > 2 && argv[2][0] != '-') episodes = std::atoi(argv[2]);
  const auto env0 = bench::make_env(net, mapping::hybrid_candidates(),
                                    /*tile_shared=*/true);
  struct McConfig {
    std::string name;
    std::vector<std::size_t> actions;
  };
  std::vector<McConfig> mc_configs;
  const auto autohet_result = bench::run_search(env0, episodes, /*seed=*/1);
  mc_configs.push_back({"AutoHet (RL)", autohet_result.best_actions});
  const auto homo = core::best_homogeneous(env0);
  mc_configs.push_back({homo.name, homo.actions});
  const auto& candidates = env0.candidates();
  std::size_t largest = 0;
  for (std::size_t c = 1; c < candidates.size(); ++c) {
    if (candidates[c].cells() > candidates[largest].cells()) largest = c;
  }
  mc_configs.push_back(
      {"Homo(" + candidates[largest].name() + ")",
       std::vector<std::size_t>(env0.num_layers(), largest)});

  using Reports = std::vector<reram::RobustnessReport>;
  const auto grid_wall = [&](const McConfig& cfg,
                             const reram::RobustnessOptions& opts,
                             Reports* out) {
    const auto env = bench::make_env(net, mapping::hybrid_candidates(),
                                     /*tile_shared=*/true);
    Reports reports;
    const auto t0 = Clock::now();
    for (const int cell_bits : kCellBits) {
      for (const double rate : kStuckRates) {
        reports.push_back(env.engine().evaluate_robustness(
            model, cfg.actions, point_config(rate, cell_bits), opts));
      }
    }
    const double wall = ms_since(t0);
    if (out != nullptr) *out = std::move(reports);
    return wall;
  };
  const auto best_grid = [&](const McConfig& cfg,
                             const reram::RobustnessOptions& opts,
                             Reports* out, int reps) {
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      const double wall = grid_wall(cfg, opts, rep == 0 ? out : nullptr);
      if (rep == 0 || wall < best) best = wall;
    }
    return best;
  };

  reram::RobustnessOptions mc;
  mc.trials = kMcTrials;
  mc.samples = kMcSamples;
  // With a single hardware thread the parallel path runs the identical
  // serial code (the MC gate needs threads > 1 *and* workers to help), so
  // re-timing it would only measure noise — reuse the serial wall time.
  const bool reuse_serial_for_parallel = hw_threads <= 1;

  // Scalar serial reference, once per configuration (the expensive leg).
  std::vector<Reports> ref_reports(mc_configs.size());
  std::vector<double> scalar_ms(mc_configs.size(), 0.0);
  for (std::size_t c = 0; c < mc_configs.size(); ++c) {
    reram::RobustnessOptions scalar_opts = mc;
    scalar_opts.kernels = reram::KernelPolicy::kScalarReference;
    scalar_ms[c] =
        best_grid(mc_configs[c], scalar_opts, &ref_reports[c], mc_reps);
  }

  // Every supported variant, serial and parallel, byte-compared against the
  // scalar reference. The selected variant's timings (with best-of reps and
  // the parallel ≤ serial gate) become the headline rows.
  std::vector<McTiming> mc_rows;
  std::vector<VariantCheck> variant_checks;
  bool mc_identical = true;
  double scalar_total = 0.0, serial_total = 0.0, parallel_total = 0.0;
  for (const rk::Variant v : variants) {
    rk::set_variant(v);
    const bool is_selected = v == selected;
    bool serial_ok = true;
    bool parallel_ok = true;
    for (std::size_t c = 0; c < mc_configs.size(); ++c) {
      const McConfig& cfg = mc_configs[c];
      McTiming row;
      row.config = cfg.name;
      row.scalar_serial_ms = scalar_ms[c];
      Reports fast_reports, par_reports;
      reram::RobustnessOptions serial_opts = mc;
      serial_opts.threads = 1;
      reram::RobustnessOptions parallel_opts = mc;
      parallel_opts.threads = 0;  // one worker per hardware thread
      const int reps = is_selected ? mc_reps : 1;
      row.fast_serial_ms = best_grid(cfg, serial_opts, &fast_reports, reps);
      if (reuse_serial_for_parallel) {
        row.fast_parallel_ms = row.fast_serial_ms;
        row.parallel_reused_serial = true;
        par_reports = fast_reports;
      } else {
        row.fast_parallel_ms =
            best_grid(cfg, parallel_opts, &par_reports, reps);
        // Satellite gate: intra-trial chunking must keep the parallel path
        // at least at parity per configuration. Re-time once before
        // failing — a single scheduling hiccup is not a regression.
        if (is_selected &&
            row.fast_parallel_ms > 1.05 * row.fast_serial_ms) {
          row.fast_serial_ms =
              best_grid(cfg, serial_opts, nullptr, reps);
          row.fast_parallel_ms =
              best_grid(cfg, parallel_opts, nullptr, reps);
          AUTOHET_CHECK(
              row.fast_parallel_ms <= 1.05 * row.fast_serial_ms,
              "parallel MC slower than serial for " + cfg.name);
        }
      }
      row.identical = fast_reports.size() == ref_reports[c].size() &&
                      par_reports.size() == ref_reports[c].size();
      for (std::size_t i = 0; row.identical && i < ref_reports[c].size();
           ++i) {
        row.identical = reports_equal(ref_reports[c][i], fast_reports[i]) &&
                        reports_equal(ref_reports[c][i], par_reports[i]);
      }
      serial_ok = serial_ok && row.identical;
      parallel_ok = parallel_ok && row.identical;
      mc_identical = mc_identical && row.identical;
      if (is_selected) {
        scalar_total += row.scalar_serial_ms;
        serial_total += row.fast_serial_ms;
        parallel_total += row.fast_parallel_ms;
        mc_rows.push_back(row);
      }
    }
    variant_checks.push_back({rk::variant_name(v), 1, serial_ok});
    variant_checks.push_back({rk::variant_name(v), 0, parallel_ok});
  }
  rk::set_variant(selected);
  AUTOHET_CHECK(mc_identical,
                "fast Monte-Carlo reports diverged from the scalar serial "
                "reference");
  // Headline gate: aggregate wall time of the whole workload (all three
  // configurations × 15 grid points), scalar serial vs fast parallel.
  const double mc_speedup = scalar_total / parallel_total;
  const double parallel_ratio = parallel_total / serial_total;

  // --- Report ------------------------------------------------------------
  report::Table dispatch_table({"Variant", "Bit-serial MVM/s",
                                "Multilevel MVM/s", "GEMM MVM/s",
                                "GEMM GMAC/s", "Selected"});
  for (const auto& r : variant_rates) {
    dispatch_table.add_row({r.name,
                            report::format_fixed(r.bit_serial_per_s, 0),
                            report::format_fixed(r.multilevel_per_s, 0),
                            report::format_fixed(r.gemm_mvms_per_s, 0),
                            report::format_fixed(r.gemm_gmacs, 1),
                            r.name == rk::variant_name(selected) ? "yes"
                                                                 : ""});
  }
  dispatch_table.print(std::cout);
  std::cout << '\n';

  report::Table table({"Level", "Variant", "Fast", "Scalar", "Speedup"});
  for (const auto& k : kernels) {
    table.add_row({"kernel (MVM/s)", k.name,
                   report::format_fixed(k.packed_per_s, 0),
                   report::format_fixed(k.scalar_per_s, 0),
                   report::format_fixed(k.packed_per_s / k.scalar_per_s, 2)});
  }
  for (const auto& f : forwards) {
    table.add_row({"forward (img/s)", f.name,
                   report::format_fixed(f.fast_per_s, 1),
                   report::format_fixed(f.scalar_per_s, 1),
                   report::format_fixed(f.fast_per_s / f.scalar_per_s, 2)});
  }
  table.add_row({"forward (img/s)", "integer+pool",
                 report::format_fixed(fwd_pool_per_s, 1),
                 report::format_fixed(fwd_serial_per_s, 1),
                 report::format_fixed(fwd_pool_per_s / fwd_serial_per_s, 2)});
  table.add_row({"forward (img/s)", "alexnet+pool",
                 report::format_fixed(alex_pool_per_s, 1),
                 report::format_fixed(alex_serial_per_s, 1),
                 report::format_fixed(alex_pool_per_s / alex_serial_per_s,
                                      2)});
  for (const auto& m : mc_rows) {
    table.add_row({"MC grid (ms)", m.config,
                   report::format_fixed(m.fast_parallel_ms, 1),
                   report::format_fixed(m.scalar_serial_ms, 1),
                   report::format_fixed(
                       m.scalar_serial_ms / m.fast_parallel_ms, 2)});
  }
  table.print(std::cout);
  std::cout << "\nKernel dispatch: " << rk::variant_name(selected)
            << " (best vs portable "
            << report::format_fixed(best_vs_portable, 2) << "x)\n"
            << "MC speedup (fault_sweep workload aggregate, fast parallel "
            << "vs scalar serial): " << report::format_fixed(mc_speedup, 2)
            << "x, reports identical: " << (mc_identical ? "yes" : "NO")
            << "\n";

  std::ofstream json("BENCH_functional_throughput.json");
  json << "{\n  \"benchmark\": \"functional_throughput\",\n"
       << "  \"stamp\": " << bench::stamp_json(hw_threads) << ",\n"
       << "  \"model\": \"lenet5\",\n"
       << "  \"hardware_threads\": " << hw_threads << ",\n"
       << "  \"mc_reps\": " << mc_reps << ",\n  \"dispatch\": {\n"
       << "    \"selected\": \"" << rk::variant_name(selected) << "\",\n"
       << "    \"supported\": [";
  bool first_row = true;
  for (const rk::Variant v : variants) {
    json << (first_row ? "" : ", ") << '"' << rk::variant_name(v) << '"';
    first_row = false;
  }
  json << "],\n    \"variants\": [";
  first_row = true;
  for (const auto& r : variant_rates) {
    json << (first_row ? "\n" : ",\n") << "      {\"name\": \"" << r.name
         << "\", \"bit_serial_mvms_per_s\": " << r.bit_serial_per_s
         << ", \"multilevel_mvms_per_s\": " << r.multilevel_per_s
         << ", \"gemm_mvms_per_s\": " << r.gemm_mvms_per_s
         << ", \"gemm_gmacs\": " << r.gemm_gmacs << ", \"vs_portable\": "
         << r.bit_serial_per_s / variant_rates.front().bit_serial_per_s
         << ", \"gemm_vs_portable\": "
         << r.gemm_mvms_per_s / variant_rates.front().gemm_mvms_per_s << "}";
    first_row = false;
  }
  json << "\n    ],\n    \"best_vs_portable\": " << best_vs_portable
       << ",\n    \"gemm_shape\": \"288x256\",\n    \"gemm_count\": "
       << kGemmCount << ",\n    \"gemm_simd_vs_portable_min\": "
       << gemm_simd_vs_portable_min << "\n  },\n  \"kernels\": [";
  first_row = true;
  for (const auto& k : kernels) {
    json << (first_row ? "\n" : ",\n") << "    {\"name\": \"" << k.name
         << "\", \"shape\": \"288x256\", \"packed_mvms_per_s\": "
         << k.packed_per_s << ", \"scalar_mvms_per_s\": " << k.scalar_per_s
         << ", \"speedup\": " << k.packed_per_s / k.scalar_per_s << "}";
    first_row = false;
  }
  json << "\n  ],\n  \"forward\": [";
  first_row = true;
  for (const auto& f : forwards) {
    json << (first_row ? "\n" : ",\n") << "    {\"datapath\": \"" << f.name
         << "\", \"fast_images_per_s\": " << f.fast_per_s
         << ", \"scalar_images_per_s\": " << f.scalar_per_s
         << ", \"speedup\": " << f.fast_per_s / f.scalar_per_s << "}";
    first_row = false;
  }
  json << "\n  ],\n  \"burn_in\": {\n"
       << "    \"crossbar\": \"576x512\",\n"
       << "    \"used\": \"400x120\",\n"
       << "    \"program_sigma\": " << kProgramSigma << ",\n"
       << "    \"ceiling_ns_per_draw\": " << ceiling_ns << ",\n"
       << "    \"record_vs_ceiling\": " << record_vs_ceiling << ",\n"
       << "    \"rows\": [";
  first_row = true;
  for (const BurnRow& r : burn_rows) {
    json << (first_row ? "\n" : ",\n") << "      {\"cell_bits\": "
         << r.cell_bits << ", \"kernel\": \"" << r.kernel
         << "\", \"stuck_rate\": " << r.stuck_rate
         << ", \"draws\": " << r.draws << ", \"ms\": " << r.ms
         << ", \"ns_per_draw\": " << r.ns_per_draw
         << ", \"vs_ceiling\": " << r.ns_per_draw / ceiling_ns << "}";
    first_row = false;
  }
  json << "\n    ]\n  },\n  \"row_block_split\": {\n"
       << "    \"pool_threads\": " << hw_threads << ",\n"
       << "    \"serial_images_per_s\": " << fwd_serial_per_s << ",\n"
       << "    \"pool_images_per_s\": " << fwd_pool_per_s << ",\n"
       << "    \"alexnet_split_layers\": " << split_layers << ",\n"
       << "    \"alexnet_serial_images_per_s\": " << alex_serial_per_s
       << ",\n"
       << "    \"alexnet_pool_images_per_s\": " << alex_pool_per_s << ",\n"
       << "    \"identical\": true\n  },\n  \"monte_carlo\": {\n"
       << "    \"workload\": \"fault_sweep\",\n"
       << "    \"episodes\": " << episodes << ",\n"
       << "    \"cell_bits\": [1, 2, 4],\n"
       << "    \"stuck_rates\": [0.0, 0.0001, 0.001, 0.005, 0.01],\n"
       << "    \"program_sigma\": " << kProgramSigma << ",\n"
       << "    \"trials\": " << mc.trials << ",\n"
       << "    \"samples\": " << mc.samples << ",\n"
       << "    \"configs\": [";
  first_row = true;
  for (const auto& m : mc_rows) {
    json << (first_row ? "\n" : ",\n") << "      {\"config\": \"" << m.config
         << "\", \"scalar_serial_ms\": " << m.scalar_serial_ms
         << ", \"fast_serial_ms\": " << m.fast_serial_ms
         << ", \"fast_parallel_ms\": " << m.fast_parallel_ms
         << ", \"speedup\": " << m.scalar_serial_ms / m.fast_parallel_ms
         << ", \"parallel_vs_serial\": "
         << m.fast_parallel_ms / m.fast_serial_ms
         << ", \"parallel_reused_serial\": "
         << (m.parallel_reused_serial ? "true" : "false")
         << ", \"reports_identical\": " << (m.identical ? "true" : "false")
         << "}";
    first_row = false;
  }
  json << "\n    ],\n    \"variant_checks\": [";
  first_row = true;
  for (const auto& vc : variant_checks) {
    json << (first_row ? "\n" : ",\n") << "      {\"variant\": \""
         << vc.variant << "\", \"threads\": " << vc.threads
         << ", \"reports_identical\": " << (vc.identical ? "true" : "false")
         << "}";
    first_row = false;
  }
  json << "\n    ]\n  },\n  \"mc_speedup\": " << mc_speedup
       << ",\n  \"parallel_vs_serial\": " << parallel_ratio
       << ",\n  \"mc_reports_identical\": " << (mc_identical ? "true" : "false")
       << "\n}\n";
  std::cout << "Wrote BENCH_functional_throughput.json\n";
  return 0;
}
