#include "reram/functional.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>
#include <thread>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/obs.hpp"
#include "tensor/ops.hpp"

namespace autohet::reram {

namespace {
/// Crossbar-id stride between layers: fault maps stay stable per crossbar
/// as long as no layer spans more than 2^20 logical crossbars.
constexpr std::uint64_t kFaultIdStride = std::uint64_t{1} << 20;

/// Read-noise stream key for one MVM call: the per-pass noise stream in the
/// high bits, the output-position ordinal in the low 20 (no conv in the zoo
/// comes near 2^20 output positions).
constexpr std::uint64_t make_call_key(std::uint64_t noise_stream,
                                      std::uint64_t position) noexcept {
  return (noise_stream << 20) | position;
}

/// Interleaves a transposed rows × count tile (row i at rows_t[i·count])
/// into the GEMM's quad layout: xq[(q·count + s)·4 + r] = row 4q+r of sample
/// s, with the rows past `rows` of the last quad zero. Four byte rows in,
/// one 4-byte lane per sample out — the loop vectorizes to byte/word
/// unpacks.
void interleave_quads(const std::uint8_t* rows_t, std::int64_t rows,
                      std::int64_t count, std::uint8_t* xq) {
  for (std::int64_t r0 = 0; r0 < rows; r0 += 4) {
    const std::uint8_t* a = rows_t + r0 * count;
    const std::uint8_t* b = r0 + 1 < rows ? a + count : nullptr;
    const std::uint8_t* c = r0 + 2 < rows ? a + 2 * count : nullptr;
    const std::uint8_t* d = r0 + 3 < rows ? a + 3 * count : nullptr;
    std::uint8_t* __restrict out = xq + r0 * count;
    if (d != nullptr) {
      for (std::int64_t s = 0; s < count; ++s) {
        out[4 * s] = a[s];
        out[4 * s + 1] = b[s];
        out[4 * s + 2] = c[s];
        out[4 * s + 3] = d[s];
      }
    } else {
      for (std::int64_t s = 0; s < count; ++s) {
        out[4 * s] = a[s];
        out[4 * s + 1] = b != nullptr ? b[s] : std::uint8_t{0};
        out[4 * s + 2] = c != nullptr ? c[s] : std::uint8_t{0};
        out[4 * s + 3] = 0;
      }
    }
  }
}
}  // namespace

MappedLayer::MappedLayer(const nn::LayerSpec& spec,
                         const tensor::Tensor& weight,
                         const mapping::CrossbarShape& shape,
                         const FaultModel* faults, std::uint64_t layer_id,
                         KernelPolicy policy)
    : MappedLayer(spec, weight, mapping::map_layer(spec, shape), faults,
                  layer_id, policy) {}

MappedLayer::MappedLayer(const nn::LayerSpec& spec,
                         const tensor::Tensor& weight,
                         const mapping::LayerMapping& mapping,
                         const FaultModel* faults, std::uint64_t layer_id,
                         KernelPolicy policy)
    : spec_(spec), mapping_(mapping), policy_(policy) {
  AUTOHET_CHECK(mapping_ == mapping::map_layer(spec, mapping_.shape),
                "mapping geometry disagrees with map_layer for this layer");
  const mapping::CrossbarShape& shape = mapping_.shape;
  const std::int64_t k2 = spec.kernel * spec.kernel;
  const std::int64_t wrows = spec.weight_rows();
  const std::int64_t wcols = spec.weight_cols();
  AUTOHET_CHECK(weight.numel() == wrows * wcols, "weight shape mismatch");

  // Quantize the whole layer once (per-tensor symmetric 8-bit); the unfolded
  // row order (channel-major, then kernel position) matches tensor::im2col.
  const nn::QuantizedWeights qw = nn::quantize_weights(
      weight.reshaped({wcols, wrows}), /*bits=*/8);
  weight_scale_ = qw.scale;
  const auto wq = [&](std::int64_t row, std::int64_t col) {
    // qw is laid out [Cout, Cin*k*k]; we address it transposed.
    return qw.values[static_cast<std::size_t>(col * wrows + row)];
  };

  const std::int64_t rb_count = mapping_.row_blocks;
  const std::int64_t cb_count = mapping_.col_blocks;
  crossbars_.reserve(static_cast<std::size_t>(rb_count * cb_count));
  row_ranges_.reserve(static_cast<std::size_t>(rb_count));

  // The two mapping paths differ only in how a row block's weight-row range
  // is derived: whole kernels per block (kernel-aligned, Fig. 7) vs a plain
  // row partition (split-kernel fallback).
  if (!mapping_.split_kernel) {
    const std::int64_t kpb = mapping_.kernels_per_row_block;
    for (std::int64_t rb = 0; rb < rb_count; ++rb) {
      const std::int64_t ch0 = rb * kpb;
      const std::int64_t ch1 = std::min(spec.in_channels, ch0 + kpb);
      row_ranges_.emplace_back(ch0 * k2, ch1 * k2);
    }
  } else {
    for (std::int64_t rb = 0; rb < rb_count; ++rb) {
      const std::int64_t r0 = rb * shape.rows;
      const std::int64_t r1 = std::min(wrows, r0 + shape.rows);
      row_ranges_.emplace_back(r0, r1);
    }
  }
  for (std::int64_t rb = 0; rb < rb_count; ++rb) {
    const auto [r0, r1] = row_ranges_[static_cast<std::size_t>(rb)];
    for (std::int64_t cb = 0; cb < cb_count; ++cb) {
      const std::int64_t c0 = cb * shape.cols;
      const std::int64_t c1 = std::min(wcols, c0 + shape.cols);
      LogicalCrossbar xb(shape);
      for (std::int64_t r = r0; r < r1; ++r) {
        for (std::int64_t c = c0; c < c1; ++c) {
          xb.program_cell(r - r0, c - c0, wq(r, c));
        }
      }
      OBS_PROFILE_RECORD(obs::ProfileKind::kProgramWrite, layer_id,
                         rb * cb_count + cb, (r1 - r0) * (c1 - c0));
      crossbars_.push_back(std::move(xb));
    }
  }

  // Device non-ideality enters at this programming step: the seeded fault
  // maps and programming variation are burned into the arrays the moment
  // the weights are written (reram/faults.hpp).
  if (faults != nullptr && !faults->ideal()) {
    burn_faults(*faults, layer_id,
                policy_ == KernelPolicy::kScalarReference);
  }
}

void MappedLayer::prepare_gemm() {
  if (policy_ == KernelPolicy::kFast && gemm_quads_.empty()) pack_gemm();
}

void MappedLayer::repack_gemm() {
  if (!gemm_quads_.empty()) pack_gemm();
}

void MappedLayer::pack_gemm() {
  if (read_sigma_weights_ > 0.0) {
    // Read-noisy layers run the per-position path; the quads would be dead.
    gemm_quads_.clear();
    gemm_quads_.shrink_to_fit();
    return;
  }
  const std::int64_t cols = spec_.weight_cols();
  const std::int64_t quads = (spec_.weight_rows() + 3) / 4;
  gemm_quads_.assign(static_cast<std::size_t>(quads * cols), 0);
  const std::int64_t cb_count = mapping_.col_blocks;
  const std::int64_t stride = mapping_.shape.cols;
  for (std::int64_t rb = 0; rb < mapping_.row_blocks; ++rb) {
    const std::int64_t r0 = row_ranges_[static_cast<std::size_t>(rb)].first;
    for (std::int64_t cb = 0; cb < cb_count; ++cb) {
      const LogicalCrossbar& xb =
          crossbars_[static_cast<std::size_t>(rb * cb_count + cb)];
      for (std::int64_t i = 0; i < xb.rows_used(); ++i) {
        const std::int64_t r = r0 + i;
        const int shift = static_cast<int>(8 * (r & 3));
        std::int32_t* dst = gemm_quads_.data() + (r >> 2) * cols + cb * stride;
        const std::int8_t* src = xb.cells().data() + i * stride;
        for (std::int64_t j = 0; j < xb.cols_used(); ++j) {
          const std::uint32_t byte = static_cast<std::uint8_t>(src[j]);
          dst[j] = static_cast<std::int32_t>(
              static_cast<std::uint32_t>(dst[j]) | (byte << shift));
        }
      }
    }
  }
}

void MappedLayer::burn_faults(const FaultModel& faults, std::uint64_t layer_id,
                              bool reference_path) {
  fault_stats_ = {};
  read_sigma_weights_ = 0.0;
  if (!faults.ideal()) {
    const std::uint64_t base_id = layer_id * kFaultIdStride;
    for (std::size_t i = 0; i < crossbars_.size(); ++i) {
      fault_stats_ += crossbars_[i].apply_faults(
          faults, base_id + static_cast<std::uint64_t>(i), reference_path);
    }
    read_sigma_weights_ = faults.read_noise_weight_sigma();
    read_base_ = common::Rng(faults.config().seed ^ 0x5eadbeefcafeULL)
                     .child(layer_id);
  }
  repack_gemm();
}

void MappedLayer::burn_faults_recording(const FaultModel& faults,
                                        std::uint64_t layer_id,
                                        std::vector<CrossbarBurnRecord>& out) {
  fault_stats_ = {};
  out.clear();
  out.resize(crossbars_.size());
  const std::uint64_t base_id = layer_id * kFaultIdStride;
  for (std::size_t i = 0; i < crossbars_.size(); ++i) {
    out[i].variation = crossbars_[i].apply_faults_recording(
        faults, base_id + static_cast<std::uint64_t>(i), out[i].hits);
    fault_stats_ += out[i].variation;
  }
  read_sigma_weights_ = faults.read_noise_weight_sigma();
  read_base_ = common::Rng(faults.config().seed ^ 0x5eadbeefcafeULL)
                   .child(layer_id);
  // A recording is a replay source, never run itself: drop the GEMM quads
  // instead of repacking them (replay_faults packs each clone), so cached
  // recordings stay at their unpacked size.
  gemm_quads_.clear();
  gemm_quads_.shrink_to_fit();
}

void MappedLayer::replay_faults(
    const FaultModel& faults, std::uint64_t layer_id,
    const std::vector<CrossbarBurnRecord>& recorded) {
  AUTOHET_CHECK(recorded.size() == crossbars_.size(),
                "recorded burn does not match this layer's crossbar grid");
  fault_stats_ = {};
  for (std::size_t i = 0; i < crossbars_.size(); ++i) {
    fault_stats_ += recorded[i].variation;
    fault_stats_ += crossbars_[i].replay_stuck_faults(faults,
                                                      recorded[i].hits);
  }
  read_sigma_weights_ = faults.read_noise_weight_sigma();
  read_base_ = common::Rng(faults.config().seed ^ 0x5eadbeefcafeULL)
                   .child(layer_id);
  repack_gemm();
}

void MappedLayer::prepare_packed() {
  for (auto& xb : crossbars_) xb.ensure_packed();
}

std::vector<std::int32_t> MappedLayer::mvm(
    std::span<const std::uint8_t> input_column, DatapathMode mode) const {
  std::vector<std::int32_t> out(
      static_cast<std::size_t>(spec_.weight_cols()), 0);
  thread_local kernels::KernelScratch scratch;
  mvm_into(input_column, mode, out, scratch, /*call_key=*/0);
  return out;
}

void MappedLayer::mvm_into(std::span<const std::uint8_t> input_column,
                           DatapathMode mode, std::span<std::int32_t> out,
                           kernels::KernelScratch& scratch,
                           std::uint64_t call_key) const {
  AUTOHET_CHECK(
      static_cast<std::int64_t>(input_column.size()) == spec_.weight_rows(),
      "input column length mismatch");
  AUTOHET_CHECK(
      static_cast<std::int64_t>(out.size()) == spec_.weight_cols(),
      "output span length mismatch");
  OBS_COUNTER_ADD("autohet_functional_mvm_total", 1);
  std::fill(out.begin(), out.end(), 0);
  for (std::int64_t rb = 0; rb < mapping_.row_blocks; ++rb) {
    mvm_row_block_accum(rb, input_column, mode, out.data(), scratch, call_key);
  }
}

void MappedLayer::mvm_row_block_accum(std::int64_t rb,
                                      std::span<const std::uint8_t>
                                          input_column,
                                      DatapathMode mode, std::int32_t* out,
                                      kernels::KernelScratch& scratch,
                                      std::uint64_t call_key) const {
  const bool noisy = read_sigma_weights_ > 0.0;
  // One child derivation per call keeps concurrent forwards deterministic
  // without mutating shared state (the old advanced-in-place stream raced);
  // Rng::child is pure, so deriving per row block repeats the same stream.
  const common::Rng call_base =
      noisy ? read_base_.child(call_key) : common::Rng();
  const std::int64_t cb_count = mapping_.col_blocks;
  const auto [r0, r1] = row_ranges_[static_cast<std::size_t>(rb)];
  const std::span<const std::uint8_t> slice =
      input_column.subspan(static_cast<std::size_t>(r0),
                           static_cast<std::size_t>(r1 - r0));
  for (std::int64_t cb = 0; cb < cb_count; ++cb) {
    const std::size_t idx = static_cast<std::size_t>(rb * cb_count + cb);
    const auto& xb = crossbars_[idx];
    // Adder tree: row-block partials accumulate straight into the output
    // slice for this column block — no per-crossbar partial vectors.
    std::int32_t* outp = out + cb * mapping_.shape.cols;
    if (mode == DatapathMode::kBitSerial) {
      xb.mvm_bit_serial_accum(slice, outp, scratch);
    } else if (noisy) {
      // Read variation is sampled at MVM time (per read, per sensed
      // cell); it requires the integer datapath — SimulatedModel
      // enforces that.
      common::Rng rng = call_base.child(static_cast<std::uint64_t>(idx));
      xb.mvm_read_noisy_accum(slice, rng, read_sigma_weights_, outp);
    } else {
      xb.mvm_reference_accum(slice, outp);
    }
  }
}

void MappedLayer::mvm_batch_into(const std::uint8_t* columns_t,
                                 std::int64_t count, DatapathMode mode,
                                 std::span<std::int32_t> accs_t,
                                 kernels::KernelScratch& scratch) const {
  const std::int64_t cols = spec_.weight_cols();
  AUTOHET_CHECK(static_cast<std::int64_t>(accs_t.size()) == count * cols,
                "accumulator span must be weight_cols x count");
  AUTOHET_CHECK(read_sigma_weights_ == 0.0,
                "batched MVMs require a noise-free fabric");
  OBS_COUNTER_ADD("autohet_functional_mvm_total",
                  static_cast<std::uint64_t>(count));
  std::fill(accs_t.begin(), accs_t.end(), 0);
  if (mode == DatapathMode::kInteger) {
    AUTOHET_CHECK(!gemm_quads_.empty(),
                  "integer batched MVM requires prepare_gemm()");
    const std::int64_t rows = spec_.weight_rows();
    const std::int64_t quads = (rows + 3) / 4;
    std::uint8_t* xq =
        scratch.quads(static_cast<std::size_t>(quads * count * 4));
    interleave_quads(columns_t, rows, count, xq);
    kernels::ops().int8_gemm(gemm_quads_.data(), quads, cols, xq, count,
                             accs_t.data());
    OBS_COUNTER_ADD("autohet_kernel_reference_macs_total",
                    rows * cols * count);
    return;
  }
  const std::int64_t cb_count = mapping_.col_blocks;
  for (std::int64_t rb = 0; rb < mapping_.row_blocks; ++rb) {
    const std::int64_t r0 = row_ranges_[static_cast<std::size_t>(rb)].first;
    for (std::int64_t cb = 0; cb < cb_count; ++cb) {
      const std::size_t idx = static_cast<std::size_t>(rb * cb_count + cb);
      crossbars_[idx].mvm_bit_serial_batch_accum(
          columns_t + r0 * count, count,
          accs_t.data() + cb * mapping_.shape.cols * count, scratch);
    }
  }
}

std::vector<std::int32_t> MappedLayer::mvm_scalar(
    std::span<const std::uint8_t> input_column, DatapathMode mode,
    std::uint64_t call_key) const {
  AUTOHET_CHECK(
      static_cast<std::int64_t>(input_column.size()) == spec_.weight_rows(),
      "input column length mismatch");
  OBS_COUNTER_ADD("autohet_functional_mvm_total", 1);
  std::vector<std::int32_t> out(
      static_cast<std::size_t>(spec_.weight_cols()), 0);
  const bool noisy = read_sigma_weights_ > 0.0;
  const common::Rng call_base =
      noisy ? read_base_.child(call_key) : common::Rng();
  const std::int64_t cb_count = mapping_.col_blocks;
  for (std::int64_t rb = 0; rb < mapping_.row_blocks; ++rb) {
    const auto [r0, r1] = row_ranges_[static_cast<std::size_t>(rb)];
    const std::span<const std::uint8_t> slice =
        input_column.subspan(static_cast<std::size_t>(r0),
                             static_cast<std::size_t>(r1 - r0));
    for (std::int64_t cb = 0; cb < cb_count; ++cb) {
      const std::size_t idx = static_cast<std::size_t>(rb * cb_count + cb);
      const auto& xb = crossbars_[idx];
      std::vector<std::int32_t> partial;
      if (mode == DatapathMode::kBitSerial) {
        partial = xb.mvm_bit_serial_scalar(slice);
      } else if (noisy) {
        common::Rng rng = call_base.child(static_cast<std::uint64_t>(idx));
        partial = xb.mvm_read_noisy(slice, rng, read_sigma_weights_);
      } else {
        partial = xb.mvm_reference_scalar(slice);
      }
      const std::int64_t c0 = cb * mapping_.shape.cols;
      for (std::size_t j = 0; j < partial.size(); ++j) {
        out[static_cast<std::size_t>(c0) + j] += partial[j];
      }
    }
  }
  return out;
}

void MappedLayer::apply_variation(common::Rng& rng, double sigma) {
  for (auto& xb : crossbars_) xb.apply_variation(rng, sigma);
  repack_gemm();
}

void SimulatedModel::apply_variation(common::Rng& rng, double sigma) {
  for (auto& layer : layers_) layer.apply_variation(rng, sigma);
}

FaultMapStats SimulatedModel::fault_stats() const noexcept {
  FaultMapStats total;
  for (const auto& layer : layers_) total += layer.fault_stats();
  return total;
}

SimulatedModel::SimulatedModel(
    const nn::Model& model,
    const std::vector<mapping::CrossbarShape>& shapes, DatapathMode mode,
    const FaultConfig& faults, KernelPolicy policy)
    : model_(&model), mode_(mode), fault_model_(faults), policy_(policy) {
  const auto mappable = model.spec().mappable_layers();
  AUTOHET_CHECK(shapes.size() == mappable.size(),
                "one crossbar shape per mappable layer required");
  AUTOHET_CHECK(faults.read_sigma == 0.0 || mode == DatapathMode::kInteger,
                "read noise requires the integer datapath");
  const FaultModel* fm = fault_model_.ideal() ? nullptr : &fault_model_;
  layers_.reserve(mappable.size());
  for (std::size_t i = 0; i < mappable.size(); ++i) {
    layers_.emplace_back(mappable[i], model.weight(i), shapes[i], fm,
                         static_cast<std::uint64_t>(i), policy_);
  }
  prepare_kernels();
}

void SimulatedModel::prepare_kernels() {
  // Each datapath reads only its own packed form; pack for the fast
  // kernels that will actually run (packing costs a pass per crossbar,
  // wasted on every Monte-Carlo trial fabric otherwise). Both calls are
  // idempotent, so prebuilt layers that are already packed pass through.
  if (policy_ != KernelPolicy::kFast) return;
  for (auto& layer : layers_) {
    if (mode_ == DatapathMode::kBitSerial) {
      layer.prepare_packed();
    } else {
      layer.prepare_gemm();
    }
  }
}

SimulatedModel::SimulatedModel(const nn::Model& model,
                               const plan::DeploymentPlan& plan,
                               DatapathMode mode, KernelPolicy policy)
    : model_(&model),
      mode_(mode),
      fault_model_(plan.accel.faults),
      policy_(policy) {
  plan.validate_against(model.spec());
  AUTOHET_CHECK(
      plan.accel.faults.read_sigma == 0.0 || mode == DatapathMode::kInteger,
      "read noise requires the integer datapath");
  const FaultModel* fm = fault_model_.ideal() ? nullptr : &fault_model_;
  layers_.reserve(plan.layers.size());
  for (std::size_t i = 0; i < plan.layers.size(); ++i) {
    // Program straight from the plan's frozen geometry — no map_layer here.
    layers_.emplace_back(plan.layers[i], model.weight(i),
                         plan.allocation.layers[i].mapping, fm,
                         static_cast<std::uint64_t>(i), policy_);
  }
  prepare_kernels();
}

SimulatedModel::SimulatedModel(const nn::Model& model, DatapathMode mode,
                               const FaultConfig& faults, KernelPolicy policy,
                               std::vector<MappedLayer> layers)
    : model_(&model),
      mode_(mode),
      fault_model_(faults),
      policy_(policy),
      layers_(std::move(layers)) {
  AUTOHET_CHECK(layers_.size() == model.spec().mappable_layers().size(),
                "one prebuilt layer per mappable layer required");
  AUTOHET_CHECK(faults.read_sigma == 0.0 || mode == DatapathMode::kInteger,
                "read noise requires the integer datapath");
  prepare_kernels();
}

SimulatedModel SimulatedModel::with_faults(const FaultConfig& faults) const {
  AUTOHET_CHECK(fault_model_.ideal(),
                "with_faults requires a clean (ideal) fabric to clone");
  AUTOHET_CHECK(faults.read_sigma == 0.0 || mode_ == DatapathMode::kInteger,
                "read noise requires the integer datapath");
  SimulatedModel out = *this;  // reuses quantization + programmed cells
  out.fault_model_ = FaultModel(faults);
  if (out.fault_model_.ideal()) return out;
  for (std::size_t i = 0; i < out.layers_.size(); ++i) {
    out.layers_[i].burn_faults(out.fault_model_,
                               static_cast<std::uint64_t>(i));
  }
  return out;
}

SimulatedModel SimulatedModel::with_faults_recorded(
    const FaultConfig& faults, TrialBurnRecord& record) const {
  AUTOHET_CHECK(fault_model_.ideal(),
                "recording requires a clean (ideal) fabric to clone");
  AUTOHET_CHECK(faults.read_sigma == 0.0 || mode_ == DatapathMode::kInteger,
                "read noise requires the integer datapath");
  SimulatedModel out = *this;
  out.fault_model_ = FaultModel(faults);
  AUTOHET_CHECK(out.fault_model_.record_eligible(),
                "fault config is not record-eligible");
  record.layers.clear();
  record.layers.resize(out.layers_.size());
  for (std::size_t i = 0; i < out.layers_.size(); ++i) {
    out.layers_[i].burn_faults_recording(
        out.fault_model_, static_cast<std::uint64_t>(i), record.layers[i]);
  }
  return out;
}

SimulatedModel SimulatedModel::replay_faults(
    const FaultConfig& faults, const TrialBurnRecord& record) const {
  AUTOHET_CHECK(record.layers.size() == layers_.size(),
                "burn record does not match this fabric's layer count");
  AUTOHET_CHECK(faults.read_sigma == 0.0 || mode_ == DatapathMode::kInteger,
                "read noise requires the integer datapath");
  SimulatedModel out = *this;  // clone of the post-variation fabric
  out.fault_model_ = FaultModel(faults);
  for (std::size_t i = 0; i < out.layers_.size(); ++i) {
    out.layers_[i].replay_faults(out.fault_model_,
                                 static_cast<std::uint64_t>(i),
                                 record.layers[i]);
  }
  out.prepare_kernels();  // recordings carry no GEMM quads
  return out;
}

tensor::Tensor SimulatedModel::run_mappable(
    const MappedLayer& layer, const tensor::Tensor& input,
    std::uint64_t noise_stream, common::ThreadPool* pool) const {
  const nn::LayerSpec& spec = layer.spec();
  OBS_PROFILE_RECORD(obs::ProfileKind::kFunctionalMvm,
                     &layer - layers_.data(), 0, spec.mvm_count());
  // Quantize the whole activation tensor once (8-bit, unsigned: inputs are
  // post-ReLU or raw non-negative pixels).
  const nn::QuantizedActivations qa = nn::quantize_activations(
      spec.type == nn::LayerType::kConv
          ? input
          : input.reshaped({input.numel()}),
      /*bits=*/8);
  const float out_scale = layer.weight_scale() * qa.scale;
  const bool scalar = policy_ == KernelPolicy::kScalarReference;
  if (scalar) pool = nullptr;  // the baseline stays honestly serial
  thread_local kernels::KernelScratch scratch;

  if (spec.type == nn::LayerType::kFullyConnected) {
    const std::uint64_t key = make_call_key(noise_stream, 0);
    const std::int64_t cols = spec.weight_cols();
    const std::int64_t rbs = layer.row_block_count();
    std::vector<std::int32_t> acc;
    if (scalar) {
      acc = layer.mvm_scalar(std::span<const std::uint8_t>(qa.values), mode_,
                             key);
    } else if (pool != nullptr && rbs > 1) {
      // Row-block split: each block's partial lands in its own slice, then
      // the slices merge in block order — exact integer sums, so the result
      // is bit-identical to the serial accumulation for any pool size.
      std::vector<std::int32_t> partials(
          static_cast<std::size_t>(rbs * cols), 0);
      const std::span<const std::uint8_t> col_span(qa.values);
      pool->parallel_for(0, static_cast<std::size_t>(rbs), [&](std::size_t rb) {
        thread_local kernels::KernelScratch rb_scratch;
        layer.mvm_row_block_accum(
            static_cast<std::int64_t>(rb), col_span, mode_,
            partials.data() + static_cast<std::int64_t>(rb) * cols, rb_scratch,
            key);
      });
      acc.assign(static_cast<std::size_t>(cols), 0);
      for (std::int64_t rb = 0; rb < rbs; ++rb) {
        const std::int32_t* p = partials.data() + rb * cols;
        for (std::int64_t j = 0; j < cols; ++j) acc[j] += p[j];
      }
    } else {
      acc.resize(static_cast<std::size_t>(cols));
      layer.mvm_into(std::span<const std::uint8_t>(qa.values), mode_, acc,
                     scratch, key);
    }
    tensor::Tensor out({spec.out_channels});
    for (std::int64_t j = 0; j < spec.out_channels; ++j) {
      out[j] = static_cast<float>(acc[static_cast<std::size_t>(j)]) * out_scale;
    }
    return out;
  }

  // CONV: integer im2col over the quantized activations, one MVM per output
  // position (spec.mvm_count() invocations, as the hardware model charges).
  const std::int64_t k = spec.kernel;
  const std::int64_t oh = spec.out_height();
  const std::int64_t ow = spec.out_width();
  const std::int64_t h = spec.in_height;
  const std::int64_t w = spec.in_width;
  tensor::Tensor out({spec.out_channels, oh, ow});
  const std::int64_t plane = oh * ow;
  float* const out_base = out.data();
  const auto fill_column = [&](std::int64_t oi, std::int64_t oj,
                               std::uint8_t* col) {
    const std::int64_t i0 = oi * spec.stride - spec.pad;
    const std::int64_t j0 = oj * spec.stride - spec.pad;
    if (i0 >= 0 && j0 >= 0 && i0 + k <= h && j0 + k <= w) {
      // Interior window (every window when pad == 0): each kernel row is a
      // contiguous k-byte slice of the activation plane.
      for (std::int64_t ch = 0; ch < spec.in_channels; ++ch) {
        const std::uint8_t* src =
            qa.values.data() +
            static_cast<std::size_t>((ch * h + i0) * w + j0);
        for (std::int64_t ki = 0; ki < k; ++ki, src += w, col += k) {
          std::memcpy(col, src, static_cast<std::size_t>(k));
        }
      }
    } else {
      for (std::int64_t ch = 0; ch < spec.in_channels; ++ch) {
        for (std::int64_t ki = 0; ki < k; ++ki) {
          for (std::int64_t kj = 0; kj < k; ++kj, ++col) {
            const std::int64_t ii = i0 + ki;
            const std::int64_t jj = j0 + kj;
            *col = (ii >= 0 && ii < h && jj >= 0 && jj < w)
                       ? qa.values[static_cast<std::size_t>(
                             (ch * h + ii) * w + jj)]
                       : std::uint8_t{0};
          }
        }
      }
    }
  };

  // GEMM-shaped fast path (integer or bit-serial datapath, noise-free
  // fabric): unfold a tile of output positions straight into the
  // transposed im2col layout (row k of the unfolded matrix for every
  // position of the tile, contiguous) and push it through one batched MVM.
  // Integer sums are exact, so the results are bit-identical to the
  // per-position loop below — only per-position call overhead goes. Tiles
  // write disjoint output slices, so a pool runs them concurrently with no
  // reduction step at all.
  if (!scalar && !layer.read_noisy()) {
    constexpr std::int64_t kTile = 128;
    // Copies run in 16-byte chunks that may overshoot a run by up to 15
    // bytes; both buffers carry that much slack, and every overshoot lands
    // on bytes a later run rewrites.
    constexpr std::int64_t kChunk = 16;
    const std::int64_t positions = oh * ow;
    const std::int64_t rows = spec.weight_rows();
    const std::int64_t cols = spec.weight_cols();
    const std::int64_t tiles = (positions + kTile - 1) / kTile;
    const std::int64_t k2 = k * k;
    const std::int64_t s = spec.stride;
    // The quantized input with its zero padding materialized once per layer,
    // so every unfolded run below is a plain copy with no edge handling.
    const std::int64_t hp = h + 2 * spec.pad;
    const std::int64_t wp = w + 2 * spec.pad;
    std::uint8_t* padded = scratch.padded_input(
        static_cast<std::size_t>(spec.in_channels * hp * wp + kChunk));
    std::memset(padded, 0,
                static_cast<std::size_t>(spec.in_channels * hp * wp + kChunk));
    for (std::int64_t ch = 0; ch < spec.in_channels; ++ch) {
      for (std::int64_t i = 0; i < h; ++i) {
        std::memcpy(padded + (ch * hp + i + spec.pad) * wp + spec.pad,
                    qa.values.data() + (ch * h + i) * w,
                    static_cast<std::size_t>(w));
      }
    }
    const auto run_tile = [&](std::size_t tile_idx) {
      thread_local kernels::KernelScratch tile_scratch;
      const std::int64_t p0 = static_cast<std::int64_t>(tile_idx) * kTile;
      const std::int64_t n = std::min(kTile, positions - p0);
      std::uint8_t* cols_t =
          tile_scratch.columns_t(static_cast<std::size_t>(n * rows + kChunk));
      std::int32_t* accs_t =
          tile_scratch.accs_t(static_cast<std::size_t>(n * cols));
      // Unfolded row k = (channel, ki, kj) over positions p0 .. p0+n: per
      // output row, one run of padded input row oi·s + ki starting at
      // column oj·s + kj — contiguous for stride 1, a gather otherwise.
      const std::int64_t oi0 = p0 / ow;
      const std::int64_t oj00 = p0 % ow;
      for (std::int64_t r = 0; r < rows; ++r) {
        const std::int64_t ch = r / k2;
        const std::int64_t ki = (r % k2) / k;
        const std::int64_t kj = r % k;
        const std::uint8_t* plane_in = padded + ch * hp * wp + kj;
        std::uint8_t* dst = cols_t + r * n;
        std::int64_t left = n;
        for (std::int64_t oi = oi0, oj0 = oj00; left > 0; ++oi, oj0 = 0) {
          const std::int64_t len = std::min(ow - oj0, left);
          const std::uint8_t* src = plane_in + (oi * s + ki) * wp + oj0 * s;
          if (s == 1) {
            for (std::int64_t t = 0; t < len; t += kChunk) {
              std::memcpy(dst + t, src + t, kChunk);
            }
          } else {
            for (std::int64_t t = 0; t < len; ++t) dst[t] = src[t * s];
          }
          dst += len;
          left -= len;
        }
      }
      layer.mvm_batch_into(
          cols_t, n, mode_,
          std::span(accs_t, static_cast<std::size_t>(n * cols)),
          tile_scratch);
      for (std::int64_t co = 0; co < spec.out_channels; ++co) {
        float* const op = out_base + co * plane + p0;
        const std::int32_t* a = accs_t + co * n;
        for (std::int64_t t = 0; t < n; ++t) {
          op[t] = static_cast<float>(a[t]) * out_scale;
        }
      }
    };
    if (pool != nullptr && tiles > 1) {
      pool->parallel_for(0, static_cast<std::size_t>(tiles), run_tile);
    } else {
      for (std::int64_t t = 0; t < tiles; ++t) {
        run_tile(static_cast<std::size_t>(t));
      }
    }
    return out;
  }

  // Per-position fallback (read-noisy fabrics and the scalar baseline).
  // The read-noise stream is keyed on the output position, not on
  // execution order, so parallel rows reproduce the serial pass exactly.
  const auto run_row = [&](std::size_t oi_idx) {
    const auto oi = static_cast<std::int64_t>(oi_idx);
    thread_local kernels::KernelScratch row_scratch;
    const std::span<std::uint8_t> column(
        row_scratch.column(static_cast<std::size_t>(spec.weight_rows())),
        static_cast<std::size_t>(spec.weight_rows()));
    std::vector<std::int32_t> acc(
        static_cast<std::size_t>(spec.weight_cols()));
    for (std::int64_t oj = 0; oj < ow; ++oj) {
      fill_column(oi, oj, column.data());
      const std::uint64_t key =
          make_call_key(noise_stream, static_cast<std::uint64_t>(oi * ow + oj));
      float* const op = out_base + oi * ow + oj;
      if (scalar) {
        const std::vector<std::int32_t> acc_s =
            layer.mvm_scalar(column, mode_, key);
        for (std::int64_t co = 0; co < spec.out_channels; ++co) {
          op[co * plane] =
              static_cast<float>(acc_s[static_cast<std::size_t>(co)]) *
              out_scale;
        }
      } else {
        layer.mvm_into(column, mode_, acc, row_scratch, key);
        for (std::int64_t co = 0; co < spec.out_channels; ++co) {
          op[co * plane] =
              static_cast<float>(acc[static_cast<std::size_t>(co)]) *
              out_scale;
        }
      }
    }
  };
  if (pool != nullptr && oh > 1) {
    pool->parallel_for(0, static_cast<std::size_t>(oh), run_row);
  } else {
    for (std::int64_t oi = 0; oi < oh; ++oi) {
      run_row(static_cast<std::size_t>(oi));
    }
  }
  return out;
}

tensor::Tensor SimulatedModel::forward(const tensor::Tensor& input,
                                       std::uint64_t noise_stream,
                                       common::ThreadPool* pool) const {
  return run_chain(input, noise_stream, pool, /*record=*/false).output;
}

SimulatedModel::ForwardTrace SimulatedModel::forward_traced(
    const tensor::Tensor& input, std::uint64_t noise_stream,
    common::ThreadPool* pool) const {
  return run_chain(input, noise_stream, pool, /*record=*/true);
}

SimulatedModel::ForwardTrace SimulatedModel::run_chain(
    const tensor::Tensor& input, std::uint64_t noise_stream,
    common::ThreadPool* pool, bool record) const {
  const nn::NetworkSpec& spec = model_->spec();
  AUTOHET_CHECK(spec.sequential_runnable,
                "network is not sequentially runnable (" + spec.name + ")");
  ForwardTrace trace;
  if (record) trace.mappable_outputs.reserve(layers_.size());
  tensor::Tensor x = input;
  std::size_t mappable_idx = 0;
  for (std::size_t i = 0; i < spec.layers.size(); ++i) {
    const nn::LayerSpec& layer = spec.layers[i];
    if (nn::is_mappable(layer.type)) {
      x = run_mappable(layers_[mappable_idx++], x, noise_stream, pool);
      if (record) trace.mappable_outputs.push_back(x);  // pre-activation
    } else {
      x = model_->forward_layer(i, x);
    }
    if (layer.relu_after) tensor::relu_inplace(x);
  }
  trace.output = std::move(x);
  return trace;
}

namespace {

/// Vector-unit residual add: both operands quantized to a shared symmetric
/// 8-bit grid, summed in int32 (exact), dequantized once. Deterministic and
/// order-free — the accelerator's SIMD unit computes the same sums.
tensor::Tensor residual_add_exact(const tensor::Tensor& a,
                                  const tensor::Tensor& b) {
  AUTOHET_CHECK(a.numel() == b.numel(),
                "residual add operands must have equal element counts");
  tensor::Tensor out(a.shape());
  const float absmax = std::max(a.abs_max(), b.abs_max());
  if (absmax == 0.0f) return out;  // both zero
  const float scale = absmax / 127.0f;
  const float inv = 127.0f / absmax;
  // Round half away from zero, as lroundf does, without the libm call:
  // |x·inv| ≤ ~127 < 2^23, so truncation plus an exact fractional compare
  // reproduces it bit for bit, and the loop vectorizes.
  const auto round_exact = [](float x) {
    const auto t = static_cast<std::int32_t>(x);
    const float frac = x - static_cast<float>(t);
    return t + (frac >= 0.5f ? 1 : 0) - (frac <= -0.5f ? 1 : 0);
  };
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (std::int64_t j = 0; j < out.numel(); ++j) {
    po[j] = static_cast<float>(round_exact(pa[j] * inv) +
                               round_exact(pb[j] * inv)) *
            scale;
  }
  return out;
}

}  // namespace

SimulatedModel::ForwardTrace SimulatedModel::forward_graph_traced(
    const nn::Graph& graph, const tensor::Tensor& input,
    std::uint64_t noise_stream, common::ThreadPool* pool) const {
  return run_graph(graph, input, noise_stream, pool, /*record=*/true);
}

SimulatedModel::ForwardTrace SimulatedModel::run_graph(
    const nn::Graph& graph, const tensor::Tensor& input,
    std::uint64_t noise_stream, common::ThreadPool* pool, bool record) const {
  AUTOHET_CHECK(graph.skeleton().layers == model_->spec().layers,
                "graph '" + graph.name() +
                    "' skeleton does not match the model this fabric was "
                    "programmed from");
  const std::vector<nn::GraphNode>& nodes = graph.nodes();
  AUTOHET_CHECK(!nodes.empty(), "cannot run an empty graph");

  // Fan-out buffering: consumer refcounts release each intermediate tensor
  // after its last read, so memory tracks the live frontier, not the graph.
  std::vector<std::int64_t> uses(nodes.size(), 0);
  for (const nn::GraphNode& node : nodes) {
    for (const std::int64_t in : node.inputs) {
      ++uses[static_cast<std::size_t>(in)];
    }
  }
  const std::int64_t out_id = graph.output_node();
  ++uses[static_cast<std::size_t>(out_id)];

  ForwardTrace trace;
  if (record) trace.mappable_outputs.reserve(layers_.size());
  std::vector<tensor::Tensor> values(nodes.size());
  std::size_t mappable_idx = 0;
  std::size_t skeleton_idx = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const nn::GraphNode& node = nodes[i];
    tensor::Tensor v;
    switch (node.kind) {
      case nn::OpKind::kInput:
        AUTOHET_CHECK(input.numel() == node.shape.numel(),
                      "input tensor does not match graph input shape " +
                          node.shape.to_string());
        v = input;
        break;
      case nn::OpKind::kLayer: {
        const tensor::Tensor& x =
            values[static_cast<std::size_t>(node.inputs[0])];
        if (nn::is_mappable(node.layer.type)) {
          v = run_mappable(layers_[mappable_idx++], x, noise_stream, pool);
          if (record) trace.mappable_outputs.push_back(v);  // pre-activation
        } else {
          v = model_->forward_layer(skeleton_idx, x);
        }
        ++skeleton_idx;
        if (node.layer.relu_after) tensor::relu_inplace(v);
        break;
      }
      case nn::OpKind::kResidualAdd:
        v = residual_add_exact(
            values[static_cast<std::size_t>(node.inputs[0])],
            values[static_cast<std::size_t>(node.inputs[1])]);
        break;
      case nn::OpKind::kActivation:
        v = values[static_cast<std::size_t>(node.inputs[0])];
        tensor::relu_inplace(v);
        break;
      case nn::OpKind::kGlobalAvgPool: {
        const tensor::Tensor& x =
            values[static_cast<std::size_t>(node.inputs[0])];
        const std::int64_t channels = node.shape.channels;
        const std::int64_t plane = x.numel() / channels;
        v = tensor::Tensor({channels, 1, 1});
        for (std::int64_t c = 0; c < channels; ++c) {
          float sum = 0.0f;
          for (std::int64_t p = 0; p < plane; ++p) sum += x[c * plane + p];
          v[c] = sum / static_cast<float>(plane);
        }
        break;
      }
      case nn::OpKind::kConcat: {
        v = tensor::Tensor(
            {node.shape.channels, node.shape.height, node.shape.width});
        std::int64_t off = 0;
        for (const std::int64_t in : node.inputs) {
          const tensor::Tensor& x = values[static_cast<std::size_t>(in)];
          for (std::int64_t j = 0; j < x.numel(); ++j) v[off + j] = x[j];
          off += x.numel();
        }
        break;
      }
    }
    values[i] = std::move(v);
    for (const std::int64_t in : node.inputs) {
      if (--uses[static_cast<std::size_t>(in)] == 0) {
        values[static_cast<std::size_t>(in)] = tensor::Tensor();
      }
    }
  }
  AUTOHET_CHECK(mappable_idx == layers_.size(),
                "graph mappable count does not match the programmed fabric");
  trace.output = std::move(values[static_cast<std::size_t>(out_id)]);
  return trace;
}

tensor::Tensor SimulatedModel::forward_graph(const nn::Graph& graph,
                                             const tensor::Tensor& input,
                                             std::uint64_t noise_stream,
                                             common::ThreadPool* pool) const {
  return run_graph(graph, input, noise_stream, pool, /*record=*/false).output;
}

std::vector<SimulatedModel::ForwardTrace> SimulatedModel::forward_traced_batch(
    std::span<const tensor::Tensor> inputs, std::uint64_t noise_stream0,
    common::ThreadPool* pool) const {
  const nn::NetworkSpec& spec = model_->spec();
  AUTOHET_CHECK(spec.sequential_runnable,
                "network is not sequentially runnable (" + spec.name + ")");
  const auto count = static_cast<std::int64_t>(inputs.size());
  std::vector<ForwardTrace> traces(inputs.size());
  if (count == 0) return traces;
  const bool scalar = policy_ == KernelPolicy::kScalarReference;
  if (scalar) pool = nullptr;  // the baseline stays honestly serial
  for (auto& t : traces) t.mappable_outputs.reserve(layers_.size());

  std::vector<tensor::Tensor> xs(inputs.begin(), inputs.end());
  std::size_t mappable_idx = 0;
  for (std::size_t i = 0; i < spec.layers.size(); ++i) {
    const nn::LayerSpec& layer_spec = spec.layers[i];
    if (nn::is_mappable(layer_spec.type)) {
      const MappedLayer& layer = layers_[mappable_idx++];
      const bool batch_fc =
          !scalar && count > 1 &&
          layer_spec.type == nn::LayerType::kFullyConnected &&
          !layer.read_noisy();
      if (batch_fc) {
        // All samples through one batched MVM per crossbar. Quantization is
        // per sample (its own scale), so packing the quantized columns
        // transposed and scaling each sample's integer outputs by its own
        // out_scale reproduces the per-sample path bit for bit.
        const std::int64_t rows = layer_spec.weight_rows();
        const std::int64_t cols = layer_spec.weight_cols();
        thread_local kernels::KernelScratch scratch;
        std::vector<nn::QuantizedActivations> qas;
        qas.reserve(static_cast<std::size_t>(count));
        for (std::int64_t s = 0; s < count; ++s) {
          qas.push_back(nn::quantize_activations(
              xs[static_cast<std::size_t>(s)].reshaped(
                  {xs[static_cast<std::size_t>(s)].numel()}),
              /*bits=*/8));
        }
        std::uint8_t* cols_t =
            scratch.columns_t(static_cast<std::size_t>(rows * count));
        for (std::int64_t r = 0; r < rows; ++r) {
          for (std::int64_t s = 0; s < count; ++s) {
            cols_t[static_cast<std::size_t>(r * count + s)] =
                qas[static_cast<std::size_t>(s)]
                    .values[static_cast<std::size_t>(r)];
          }
        }
        std::int32_t* accs_t =
            scratch.accs_t(static_cast<std::size_t>(cols * count));
        layer.mvm_batch_into(
            cols_t, count, mode_,
            std::span(accs_t, static_cast<std::size_t>(cols * count)),
            scratch);
        OBS_PROFILE_RECORD(obs::ProfileKind::kFunctionalMvm,
                           mappable_idx - 1, 0, count);
        for (std::int64_t s = 0; s < count; ++s) {
          const auto si = static_cast<std::size_t>(s);
          const float out_scale = layer.weight_scale() * qas[si].scale;
          tensor::Tensor out({layer_spec.out_channels});
          for (std::int64_t j = 0; j < layer_spec.out_channels; ++j) {
            out[j] = static_cast<float>(
                         accs_t[static_cast<std::size_t>(j * count + s)]) *
                     out_scale;
          }
          xs[si] = std::move(out);
          traces[si].mappable_outputs.push_back(xs[si]);
        }
      } else {
        for (std::int64_t s = 0; s < count; ++s) {
          const auto si = static_cast<std::size_t>(s);
          xs[si] = run_mappable(layer, xs[si],
                                noise_stream0 + static_cast<std::uint64_t>(s),
                                pool);
          traces[si].mappable_outputs.push_back(xs[si]);
        }
      }
    } else {
      for (auto& x : xs) x = model_->forward_layer(i, x);
    }
    if (layer_spec.relu_after) {
      for (auto& x : xs) tensor::relu_inplace(x);
    }
  }
  for (std::int64_t s = 0; s < count; ++s) {
    traces[static_cast<std::size_t>(s)].output =
        std::move(xs[static_cast<std::size_t>(s)]);
  }
  return traces;
}

std::shared_ptr<const TrialFabricCache::IdealRefs>
TrialFabricCache::ideal_refs(const WorkloadKey& key,
                             const std::function<IdealRefs()>& build) {
  std::shared_ptr<IdealSlot> slot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!has_workload_ || !(key_ == key)) {
      key_ = key;
      has_workload_ = true;
      ideal_slot_.reset();
      trials_.clear();
    }
    if (!ideal_slot_) ideal_slot_ = std::make_shared<IdealSlot>();
    slot = ideal_slot_;
  }
  // The build runs outside the map lock so concurrent calls for other slots
  // are never serialized behind it; duplicate calls for *this* slot queue on
  // the slot mutex and find the value filled.
  std::lock_guard<std::mutex> fill(slot->m);
  const bool hit = slot->value != nullptr;
  if (!hit) slot->value = std::make_shared<const IdealRefs>(build());
  std::lock_guard<std::mutex> lock(mutex_);
  hit ? ++stats_.ideal_hits : ++stats_.ideal_builds;
  return slot->value;
}

std::shared_ptr<const TrialFabricCache::TrialFabric>
TrialFabricCache::trial_fabric(const FaultConfig& trial_faults,
                               const std::function<TrialFabric()>& build) {
  const TrialKey key{trial_faults.cell_bits, trial_faults.program_sigma,
                     trial_faults.seed};
  std::shared_ptr<TrialSlot> slot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [k, s] : trials_) {
      if (k == key) {
        slot = s;
        break;
      }
    }
    if (!slot) {
      // A different (cell_bits, sigma) generation can never hit again
      // within this workload's sweep — drop stale fabrics eagerly.
      std::erase_if(trials_, [&](const auto& entry) {
        return entry.first.cell_bits != key.cell_bits ||
               entry.first.program_sigma != key.program_sigma;
      });
      if (trials_.size() >= kMaxTrialSlots) trials_.clear();
      slot = std::make_shared<TrialSlot>();
      trials_.emplace_back(key, slot);
    }
  }
  std::lock_guard<std::mutex> fill(slot->m);
  const bool hit = slot->value != nullptr;
  if (!hit) slot->value = std::make_shared<const TrialFabric>(build());
  std::lock_guard<std::mutex> lock(mutex_);
  hit ? ++stats_.trial_replays : ++stats_.trial_records;
  return slot->value;
}

TrialFabricCache::Stats TrialFabricCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void TrialFabricCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  has_workload_ = false;
  ideal_slot_.reset();
  trials_.clear();
}

std::shared_ptr<const MappedLayer> LayerFabricCache::layer(
    const nn::Model& model, std::size_t layer_index,
    const mapping::CrossbarShape& shape, const FaultConfig& faults,
    KernelPolicy policy, const std::function<MappedLayer()>& build) {
  const Key key{&model, layer_index, shape.rows, shape.cols, faults, policy};
  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [k, s] : slots_) {
      if (k == key) {
        slot = s;
        break;
      }
    }
    if (!slot) {
      if (slots_.size() >= kMaxSlots) slots_.clear();
      slot = std::make_shared<Slot>();
      slots_.emplace_back(key, slot);
    }
  }
  // Build outside the list lock (per-slot serialization only), exactly as
  // TrialFabricCache does.
  std::lock_guard<std::mutex> fill(slot->m);
  const bool hit = slot->value != nullptr;
  if (!hit) slot->value = std::make_shared<const MappedLayer>(build());
  std::lock_guard<std::mutex> lock(mutex_);
  hit ? ++stats_.hits : ++stats_.builds;
  return slot->value;
}

std::shared_ptr<const TrialFabricCache::IdealRefs>
LayerFabricCache::ideal_refs(
    const nn::Model& model, DatapathMode mode, int samples,
    std::uint64_t input_seed, KernelPolicy policy,
    const std::function<TrialFabricCache::IdealRefs()>& build) {
  const RefsKey key{&model, mode, samples, input_seed, policy};
  std::shared_ptr<RefsSlot> slot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [k, s] : refs_slots_) {
      if (k == key) {
        slot = s;
        break;
      }
    }
    if (!slot) {
      if (refs_slots_.size() >= kMaxRefsSlots) refs_slots_.clear();
      slot = std::make_shared<RefsSlot>();
      refs_slots_.emplace_back(key, slot);
    }
  }
  std::lock_guard<std::mutex> fill(slot->m);
  const bool hit = slot->value != nullptr;
  if (!hit) {
    slot->value = std::make_shared<const TrialFabricCache::IdealRefs>(build());
  }
  std::lock_guard<std::mutex> lock(mutex_);
  hit ? ++stats_.refs_hits : ++stats_.refs_builds;
  return slot->value;
}

LayerFabricCache::Stats LayerFabricCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void LayerFabricCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  slots_.clear();
  refs_slots_.clear();
}

RobustnessReport monte_carlo_robustness(
    const nn::Model& model, const std::vector<mapping::CrossbarShape>& shapes,
    const FaultConfig& faults, const RobustnessOptions& options) {
  OBS_SPAN("mc_robustness");
  AUTOHET_CHECK(options.trials > 0 && options.samples > 0,
                "robustness needs at least one trial and one sample");
  AUTOHET_CHECK(options.threads >= 0, "threads must be non-negative");
  faults.validate();
  options.budget.validate();
  const bool adaptive =
      options.budget.mode == RobustnessBudget::Mode::kAdaptive;
  // The stopper owns the budget arithmetic: the effective cap (max_trials,
  // falling back to options.trials) and the chunk-boundary schedule. Fixed
  // mode ignores it for decisions and only reads the final CI off it.
  SequentialStopper stopper(options.budget, options.trials);
  const int requested = adaptive ? stopper.cap() : options.trials;
  const bool scalar = options.kernels == KernelPolicy::kScalarReference;
  // The scalar baseline must measure the honest uncached path; the cache
  // only ever accelerates the fast kernels.
  TrialFabricCache* cache = scalar ? nullptr : options.cache;
  const bool cache_trials =
      cache != nullptr && FaultModel(faults).record_eligible();
  // Adaptive-only cross-rate spanning: a zero-stuck-rate config cannot be
  // recorded from its own stream (the stuck draws are skipped entirely),
  // but it *can* replay the shared recorded family — the probe recording is
  // rate-independent and replaying it under zero thresholds forces nothing.
  // Statistically equivalent, not byte-identical, so kFixed never takes it.
  const bool span_zero =
      adaptive && options.budget.span_zero_rate && cache != nullptr &&
      !cache_trials && faults.stuck_at_zero_rate == 0.0 &&
      faults.stuck_at_one_rate == 0.0 && faults.program_sigma > 0.0 &&
      FaultModel(spanning_probe(faults)).record_eligible();

  RobustnessReport report;
  report.trials_requested = requested;
  report.samples = options.samples;
  report.min_accuracy = 1.0;

  // Cross-allocation per-layer assembly (the in-search fast path): with a
  // LayerFabricCache, ideal and trial fabrics are stitched together from
  // shared prebuilt layers — bit-identical to a fresh build, because
  // programming and burn-in are pure per-layer functions of the key.
  LayerFabricCache* layer_cache = scalar ? nullptr : options.layer_cache;
  const auto assemble = [&](const FaultConfig& fc) -> SimulatedModel {
    const auto mappable = model.spec().mappable_layers();
    std::vector<MappedLayer> prebuilt;
    prebuilt.reserve(shapes.size());
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const auto shared = layer_cache->layer(
          model, i, shapes[i], fc, options.kernels, [&] {
            const FaultModel fm(fc);
            return MappedLayer(mappable[i], model.weight(i), shapes[i],
                               fm.ideal() ? nullptr : &fm,
                               static_cast<std::uint64_t>(i),
                               options.kernels);
          });
      prebuilt.push_back(*shared);
    }
    return SimulatedModel(model, options.mode, fc, options.kernels,
                          std::move(prebuilt));
  };

  // The ideal fabric is the reference: agreement with it isolates device
  // non-ideality from the (always present) 8-bit quantization error. The
  // references depend on no fault knob, so a cache shares one build across
  // a sweep's whole rate × cell-bits grid.
  const auto build_refs = [&]() {
    TrialFabricCache::IdealRefs refs{
        layer_cache != nullptr
            ? assemble({})
            : SimulatedModel(model, shapes, options.mode, {},
                             options.kernels),
        {},
        {},
        {}};
    const nn::LayerSpec& first = model.spec().layers.front();
    common::Rng img_rng(options.input_seed);
    refs.images.reserve(static_cast<std::size_t>(options.samples));
    for (int s = 0; s < options.samples; ++s) {
      refs.images.push_back(nn::synthetic_image(
          img_rng, first.in_channels, first.in_height, first.in_width));
      refs.references.push_back(refs.ideal.forward_traced(refs.images.back()));
      refs.reference_classes.push_back(
          tensor::argmax(refs.references.back().output));
    }
    return refs;
  };
  // The layer cache's reference store wins when present: references are
  // allocation-invariant (partition-exact ideal forward), so one set
  // serves every allocation a search visits — the workload-keyed
  // TrialFabricCache would rebuild them on each new allocation.
  const std::shared_ptr<const TrialFabricCache::IdealRefs> refs =
      layer_cache != nullptr
          ? layer_cache->ideal_refs(model, options.mode, options.samples,
                                    options.input_seed, options.kernels,
                                    build_refs)
      : cache != nullptr
          ? cache->ideal_refs({&model, shapes, options.mode, options.samples,
                               options.input_seed},
                              build_refs)
          : std::make_shared<const TrialFabricCache::IdealRefs>(build_refs());
  const std::vector<tensor::Tensor>& images = refs->images;
  const std::vector<SimulatedModel::ForwardTrace>& references =
      refs->references;
  const std::vector<std::int64_t>& reference_classes =
      refs->reference_classes;

  const std::size_t num_layers = refs->ideal.mapped_layers().size();
  report.layer_error.assign(num_layers, 0.0);

  // The parallel unit is a (trial, sample-chunk) item, not a whole trial:
  // splitting trials into chunks of a few samples keeps every worker busy
  // even when trials ≈ threads or trials == 1, and each sample writes its
  // own result slot so the reduction below can replay the serial
  // accumulation order exactly — floating-point sums are order-sensitive,
  // and the report must not depend on the thread count.
  constexpr int kSampleChunk = 4;
  const int chunks_per_trial =
      (options.samples + kSampleChunk - 1) / kSampleChunk;
  struct TrialResult {
    FaultMapStats stats;
    std::vector<char> agree;        // per sample: argmax matched reference
    std::vector<double> logit_err;  // per sample: max |logit diff|
    std::vector<double> layer_err;  // samples × num_layers, row-major
    double wall_ms = 0.0;           // build + sum of this trial's chunks
  };
  std::vector<TrialResult> trials(static_cast<std::size_t>(requested));
  for (auto& res : trials) {
    res.agree.assign(static_cast<std::size_t>(options.samples), 0);
    res.logit_err.resize(static_cast<std::size_t>(options.samples));
    res.layer_err.resize(static_cast<std::size_t>(options.samples) *
                         num_layers);
  }

  // Phase A body: build one trial's faulty fabric. Cloning the clean fabric
  // and burning this trial's faults is bit-identical to a fresh build (both
  // are pure functions of the seeds); with a cache, the burn is recorded
  // once and replayed per rate point. The scalar baseline reconstructs from
  // scratch, as before.
  const auto build_fabric = [&](std::size_t t) -> SimulatedModel {
    const FaultConfig trial_faults =
        faults.for_trial(static_cast<std::uint64_t>(t));
    if (scalar) {
      return SimulatedModel(model, shapes, options.mode, trial_faults,
                            options.kernels);
    }
    // Layer assembly beats the record/replay machinery when allocations
    // churn (the trial seed stream is fixed, so every layer burn is shared
    // across episodes); the workload-keyed TrialFabricCache would evict on
    // every new allocation anyway.
    if (layer_cache != nullptr) return assemble(trial_faults);
    if (cache_trials || span_zero) {
      const auto slot = cache->trial_fabric(trial_faults, [&] {
        TrialBurnRecord rec;
        // A spanning (zero-rate) point burns the canonical probe config so
        // the recording it leaves behind is the exact one every in-cap
        // nonzero-rate point of this (seed, sigma, bits) generation records
        // — one burned fabric family serves the whole rate row.
        const FaultConfig burn =
            span_zero ? spanning_probe(trial_faults) : trial_faults;
        SimulatedModel fabric = refs->ideal.with_faults_recorded(burn, rec);
        return TrialFabricCache::TrialFabric{std::move(fabric),
                                             std::move(rec)};
      });
      return slot->fabric.replay_faults(trial_faults, slot->record);
    }
    return refs->ideal.with_faults(trial_faults);
  };

  // Phase B body: run one chunk of samples through an already-built trial
  // fabric. Sample s keeps noise stream s and its own result slots, so
  // chunks of one trial can run concurrently — and forward_traced_batch is
  // bit-identical to per-sample forward_traced. Returns the chunk's wall
  // time so the per-trial total can be folded deterministically later.
  const auto run_chunk = [&](const SimulatedModel& faulty, TrialResult& res,
                             int c, common::ThreadPool* pool) -> double {
    const auto t0 = std::chrono::steady_clock::now();
    const int s0 = c * kSampleChunk;
    const int s1 = std::min(options.samples, s0 + kSampleChunk);
    const auto traces = faulty.forward_traced_batch(
        std::span(images).subspan(static_cast<std::size_t>(s0),
                                  static_cast<std::size_t>(s1 - s0)),
        /*noise_stream0=*/static_cast<std::uint64_t>(s0), pool);
    for (int s = s0; s < s1; ++s) {
      const auto si = static_cast<std::size_t>(s);
      const auto& trace = traces[static_cast<std::size_t>(s - s0)];
      res.agree[si] =
          tensor::argmax(trace.output) == reference_classes[si] ? 1 : 0;
      res.logit_err[si] =
          tensor::max_abs_diff(trace.output, references[si].output);
      for (std::size_t l = 0; l < num_layers; ++l) {
        const float ref_scale =
            std::max(1.0f, references[si].mappable_outputs[l].abs_max());
        res.layer_err[si * num_layers + l] =
            tensor::max_abs_diff(trace.mappable_outputs[l],
                                 references[si].mappable_outputs[l]) /
            ref_scale;
      }
    }
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  int threads = options.threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // Chunking makes the parallel path worthwhile even for a single trial
  // with enough samples; intra-forward row-block/tile splitting (the pool
  // handed down to forward_traced_batch) covers the rest, so threads > 1
  // alone justifies the parallel path — even for a lone trial and sample.
  const bool parallel = !scalar && threads > 1;
  std::optional<common::ThreadPool> local_pool;
  common::ThreadPool* pool = options.pool;
  if (parallel && pool == nullptr) {
    local_pool.emplace(static_cast<std::size_t>(threads));
    pool = &*local_pool;
  }

  // Runs trials [w0, w1), filling their result slots. Parallel trials are
  // processed in generations: phase A builds a block of trial fabrics
  // concurrently, phase B fans the block's flattened (trial, chunk) items
  // across the pool. Blocking bounds peak fabric memory at ~block fabrics
  // instead of the whole budget.
  const auto run_trials = [&](std::size_t w0, std::size_t w1) {
    if (parallel) {
      const std::size_t block = std::max<std::size_t>(pool->size(), 8);
      for (std::size_t b0 = w0; b0 < w1; b0 += block) {
        const std::size_t b1 = std::min(w1, b0 + block);
        std::vector<std::optional<SimulatedModel>> fabrics(b1 - b0);
        std::vector<double> build_ms(b1 - b0, 0.0);
        pool->parallel_for(b0, b1, [&](std::size_t t) {
          OBS_SPAN("fault_trial_build");
          const auto t0 = std::chrono::steady_clock::now();
          fabrics[t - b0].emplace(build_fabric(t));
          trials[t].stats = fabrics[t - b0]->fault_stats();
          build_ms[t - b0] = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
        });
        const auto cpt = static_cast<std::size_t>(chunks_per_trial);
        std::vector<double> chunk_ms((b1 - b0) * cpt, 0.0);
        pool->parallel_for(0, (b1 - b0) * cpt, [&](std::size_t item) {
          OBS_SPAN("fault_trial_chunk");
          const std::size_t t = b0 + item / cpt;
          const int c = static_cast<int>(item % cpt);
          chunk_ms[item] = run_chunk(*fabrics[t - b0], trials[t], c, pool);
        });
        for (std::size_t t = b0; t < b1; ++t) {
          double ms = build_ms[t - b0];
          for (std::size_t c = 0; c < cpt; ++c) {
            ms += chunk_ms[(t - b0) * cpt + c];
          }
          trials[t].wall_ms = ms;
        }
      }
    } else {
      for (std::size_t t = w0; t < w1; ++t) {
        OBS_SPAN("fault_trial");
        const auto t0 = std::chrono::steady_clock::now();
        const SimulatedModel faulty = build_fabric(t);
        trials[t].stats = faulty.fault_stats();
        for (int c = 0; c < chunks_per_trial; ++c) {
          run_chunk(faulty, trials[t], c, /*pool=*/nullptr);
        }
        trials[t].wall_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
      }
    }
  };

  // Wave loop. Fixed mode runs one wave over the whole budget — identical
  // work, scheduling and reduction order to the fixed-product code, so
  // reports stay byte-identical. Adaptive mode runs to the next decision
  // boundary, feeds the pooled per-sample agreement to the stopping rule
  // (integer sums — thread-order free) and stops once the CI resolves or
  // the cap fires. Executed trials are a prefix of the fixed-mode stream.
  std::size_t executed = 0;
  const auto n_requested = static_cast<std::size_t>(requested);
  while (executed < n_requested) {
    const std::size_t wave_end =
        adaptive ? static_cast<std::size_t>(
                       stopper.next_boundary(static_cast<int>(executed)))
                 : n_requested;
    if (adaptive) {
      OBS_SPAN("mc_budget_wave");
      run_trials(executed, wave_end);
    } else {
      run_trials(executed, wave_end);
    }
    for (std::size_t t = executed; t < wave_end; ++t) {
      std::int64_t agree = 0;
      for (const char a : trials[t].agree) agree += a;
      stopper.add_trial(agree, options.samples);
    }
    executed = wave_end;
    if (adaptive && stopper.should_stop()) break;
  }
  report.trials = static_cast<int>(executed);
  report.early_stopped = adaptive && stopper.stopped_early();
  const WilsonInterval pooled_ci = stopper.interval();
  report.accuracy_ci_lower = pooled_ci.lower;
  report.accuracy_ci_upper = pooled_ci.upper;
  if (report.early_stopped) {
    OBS_SPAN("mc_early_stop");
    OBS_COUNTER_ADD("autohet_mc_early_stops_total", 1);
  }
  OBS_COUNTER_ADD("autohet_mc_trials_saved_total",
                  static_cast<std::int64_t>(n_requested - executed));

  // Ordered reduction over the executed trials: every accumulator sees its
  // terms in the exact (t, s, l) order of the serial loop, so reports are
  // byte-identical across thread counts and kernel policies.
  double acc_sum = 0.0;
  double acc_sq_sum = 0.0;
  double logit_err_sum = 0.0;
  for (std::size_t t = 0; t < executed; ++t) {
    const TrialResult& res = trials[t];
    report.fault_stats += res.stats;
    int agree = 0;
    for (int s = 0; s < options.samples; ++s) {
      const auto si = static_cast<std::size_t>(s);
      agree += res.agree[si];
      logit_err_sum += res.logit_err[si];
      for (std::size_t l = 0; l < num_layers; ++l) {
        report.layer_error[l] += res.layer_err[si * num_layers + l];
      }
    }
    const double accuracy =
        static_cast<double>(agree) / static_cast<double>(options.samples);
    acc_sum += accuracy;
    acc_sq_sum += accuracy * accuracy;
    report.min_accuracy = std::min(report.min_accuracy, accuracy);
    report.max_accuracy = std::max(report.max_accuracy, accuracy);
    OBS_COUNTER_ADD("autohet_fault_trials_total", 1);
    OBS_PROFILE_RECORD(obs::ProfileKind::kMcTrial, -1, 0, 1);
    OBS_HIST_RECORD("autohet_fault_trial_agreement_permille",
                    accuracy * 1000.0);
    OBS_HIST_RECORD("autohet_mc_trial_ms", res.wall_ms);
  }

  const double n = static_cast<double>(executed);
  report.mean_accuracy = acc_sum / n;
  report.stddev_accuracy = std::sqrt(
      std::max(0.0, acc_sq_sum / n - report.mean_accuracy *
                                         report.mean_accuracy));
  report.mean_logit_error =
      logit_err_sum / (n * static_cast<double>(options.samples));
  for (auto& e : report.layer_error) {
    e /= n * static_cast<double>(options.samples);
  }
  OBS_GAUGE_SET("autohet_fault_accuracy_mean", report.mean_accuracy);
  OBS_GAUGE_SET("autohet_fault_accuracy_stddev", report.stddev_accuracy);
  return report;
}

RobustnessReport monte_carlo_robustness(const nn::Model& model,
                                        const plan::DeploymentPlan& plan,
                                        const RobustnessOptions& options) {
  plan.validate_against(model.spec());
  // The plan's stored geometry equals map_layer on its shapes (validated),
  // so the shapes overload runs the same trial fabrics bit-identically.
  return monte_carlo_robustness(model, plan.shapes(), plan.accel.faults,
                                options);
}

}  // namespace autohet::reram
