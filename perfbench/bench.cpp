// The repository benchmark program: three closed-loop workloads over the
// AutoHet libraries, each calling only their public entry points.
//
//   search      the paper's §4.5 RL search (VGG16, hybrid candidates, tile
//               sharing, Eq. 2 reward). DDPG learning dominates host time;
//               no functional ReRAM code runs.
//   robustness  LeNet-5 Monte-Carlo through EvaluationEngine: (a) a fixed-
//               budget fault grid over three fixed plans, (b) an in-search
//               reward sweep through evaluate_robustness_cached. The write-
//               heavy use of the fabric: every trial programs and burns in.
//   serving     LeNet-5 (chain) and a CIFAR ResNet (DAG) programmed once;
//               a seeded Zipf trace replayed through serve::simulate, then
//               every request forwarded on its fabric. The read-heavy use.
//
// Usage: autohet_bench --workload <search|robustness|serving> --seed <n>
//            --seconds <s> --trace <0|1> [--quick] [--revision <r>]
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}. --trace 0 reports the end-to-end metrics; --trace 1 alternates
// untraced and traced operations, records spans around every call into a
// library layer, writes them as a Chrome trace and reports per-layer self
// time and counters. Output checks run outside the timed phase.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "autohet/env.hpp"
#include "autohet/search.hpp"
#include "common/rng.hpp"
#include "mapping/crossbar_shape.hpp"
#include "mapping/plan.hpp"
#include "nn/graph.hpp"
#include "nn/model.hpp"
#include "nn/model_zoo.hpp"
#include "reram/eval_engine.hpp"
#include "reram/functional.hpp"
#include "reram/kernels/kernels.hpp"
#include "reram/scheduler.hpp"
#include "serve/serialize.hpp"
#include "serve/simulator.hpp"
#include "serve/traffic.hpp"
#include "tensor/ops.hpp"

using namespace autohet;

namespace {

using Clock = std::chrono::steady_clock;

// ---- workload sizes -------------------------------------------------------
// Sizes are fixed so every operation of a run does the same amount of work;
// --quick shrinks them for the smoke test (pinned checks are then skipped).

constexpr std::uint64_t kDefaultSeed = 1;  ///< SearchConfig's default seed
/// Every workload makes its library calls from one thread: the Monte-Carlo
/// trials too, since a worker pool on a shared host doubled the run-to-run
/// spread whenever another tenant took a core.
constexpr int kThreads = 1;
/// setup_s is the median of the real setup and kSetupSpread more, spread
/// over the timed window and discarded, so it samples the same host
/// conditions as the timed metrics.
constexpr int kSetupSpread = 8;

// search: 200 episodes already reach the 500-episode anchor reward.
constexpr int kSearchEpisodes = 200;
constexpr double kAnchorReward = 0.834291;

// robustness (a): fault_sweep's grid.
constexpr double kStuckRates[] = {0.0, 1e-4, 1e-3, 5e-3, 1e-2};
constexpr int kCellBits[] = {1, 2, 4};
constexpr double kProgramSigma = 0.01;
constexpr int kGridTrials = 5;
constexpr int kGridSamples = 12;
// robustness (b): a search-like stream — kSweepCalls calls drawn uniformly
// from kSweepAllocations allocations, so about two thirds revisit one.
constexpr int kSweepAllocations = 48;
constexpr int kSweepCalls = 144;

// serving: LeNet-5 is model 0 (the popular one). Zipf s = 3 gives it ~89%
// of requests, which balances its cheap forwards against the ResNet's.
constexpr double kZipfS = 3.0;
constexpr int kServingRequests = 240;
constexpr int kRefSamplesPerModel = 16;
/// Pinned floor on argmax agreement with the float reference (the 8-bit
/// fabric is bit-exact to itself, not to float).
constexpr double kAgreementFloor = 0.75;

// What a workload is — its plans, allocation stream and request stream — is
// drawn from this fixed seed, so every --seed offers the same amount of work;
// --seed draws the random inputs: search seed, fault maps, images.
constexpr std::uint64_t kStructureSeed = 42;

// Pinned digests of the simulated outputs (full size): the grid and sweep
// reports at the default seed, the serving report at every seed (its request
// stream is fixed).
constexpr std::uint64_t kPinnedGridDigest = 0xe85434d9c31cda2bULL;
constexpr std::uint64_t kPinnedSweepDigest = 0xe10ae8d901b07972ULL;
constexpr std::uint64_t kPinnedServingDigest = 0x6ad4178041cc7812ULL;

// ---- small helpers --------------------------------------------------------

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// FNV-1a over raw bytes: digests of simulated outputs.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= c[i];
      h_ *= 1099511628211ULL;
    }
  }
  template <class T>
  void value(const T& v) {
    bytes(&v, sizeof v);
  }
  std::uint64_t get() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

void digest_report(Digest& d, const reram::RobustnessReport& r) {
  d.value(r.trials);
  d.value(r.trials_requested);
  d.value(r.early_stopped);
  d.value(r.accuracy_ci_lower);
  d.value(r.accuracy_ci_upper);
  d.value(r.samples);
  d.value(r.mean_accuracy);
  d.value(r.stddev_accuracy);
  d.value(r.min_accuracy);
  d.value(r.max_accuracy);
  d.value(r.mean_logit_error);
  for (double e : r.layer_error) d.value(e);
  d.value(r.fault_stats.physical_cells);
  d.value(r.fault_stats.stuck_at_zero);
  d.value(r.fault_stats.stuck_at_one);
  d.value(r.fault_stats.weights_changed);
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---- spans ----------------------------------------------------------------

/// In-memory span recorder. Spans nest by call order; a span may also carry
/// `splits`: host time a library reports about its own inside (for example
/// SearchResult's learning/decision/simulator seconds), credited to the
/// named layer and taken out of the span's self time.
class Recorder {
 public:
  struct Span {
    std::string name;
    std::string layer;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
    double child_s = 0.0;
    std::vector<std::pair<std::string, double>> splits;
  };

  explicit Recorder(Clock::time_point origin) : origin_(origin) {}

  bool on = false;

  int open(std::string name, std::string layer) {
    if (!on) return -1;
    Span s;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.start_s = std::chrono::duration<double>(Clock::now() - origin_).count();
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = std::chrono::duration<double>(Clock::now() - origin_).count();
    if (s.parent >= 0) {
      spans_[static_cast<std::size_t>(s.parent)].child_s += s.end_s - s.start_s;
    }
    stack_.pop_back();
  }

  void split(int id, std::string layer, double seconds) {
    if (id >= 0) {
      spans_[static_cast<std::size_t>(id)].splits.emplace_back(
          std::move(layer), seconds);
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer over the subtrees of the given root spans.
  std::map<std::string, double> self_time(const std::vector<int>& roots) const {
    std::vector<bool> inside(spans_.size(), false);
    for (int r : roots) inside[static_cast<std::size_t>(r)] = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const int p = spans_[i].parent;
      if (p >= 0 && inside[static_cast<std::size_t>(p)]) inside[i] = true;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (!inside[i]) continue;
      const Span& s = spans_[i];
      double self = s.end_s - s.start_s - s.child_s;
      for (const auto& [layer, sec] : s.splits) {
        out[layer] += sec;
        self -= sec;
      }
      out[s.layer] += self;
    }
    return out;
  }

  void write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    out << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"cat\": \"" << s.layer
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << s.start_s * 1e6 << ", \"dur\": " << (s.end_s - s.start_s) * 1e6
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent;
      for (const auto& [layer, sec] : s.splits) {
        out << ", \"" << layer << "_s\": " << sec;
      }
      out << "}}";
    }
    out << "\n]}\n";
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanScope {
 public:
  SpanScope(Recorder& rec, std::string name, std::string layer)
      : rec_(rec), id_(rec.open(std::move(name), std::move(layer))) {}
  ~SpanScope() { rec_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  Recorder& rec_;
  int id_;
};

// ---- run context ----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string revision = "unknown";
};

/// The layers (this repository's modules) that do timed work. `mapping` and
/// `nn` run only in setup, so they have setup metrics instead of a share.
const char* const kLayers[] = {"autohet", "rl", "reram", "serve"};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Run {
 public:
  explicit Run(const Args& a) : args(a), rec(Clock::now()) {}

  const Args& args;
  Recorder rec;
  std::vector<Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Root span of every traced operation (the timed wall time base).
  std::vector<int> traced_ops;
  std::vector<double> traced_op_s;
  std::vector<double> untraced_op_s;
  std::vector<double> setup_s;
 private:
  std::function<void()> spare_setup_;

 public:
  bool pinned() const { return args.seed == kDefaultSeed && !args.quick; }

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cout << "CHECK FAILED: " << what << "\n";
    }
  }

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }

  /// Prints a workload's own headline number, which is not part of the
  /// machine-read result.
  static void info(const std::string& name, double value,
                   const std::string& unit) {
    std::cout << "info " << name << " " << value << " " << unit << "\n";
  }

  /// Runs and times the workload's setup `make`, returning the state it
  /// built; timed_loop repeats it kSetupSpread times for setup_s.
  template <class Make>
  auto setup(Make make) {
    spare_setup_ = [this, make]() {
      const auto t0 = Clock::now();
      (void)make();
      setup_s.push_back(seconds_since(t0));
    };
    const auto t0 = Clock::now();
    auto state = make();
    setup_s.push_back(seconds_since(t0));
    return state;
  }

  /// Closed loop: runs op(i, traced) back to back until the next operation
  /// would end past --seconds (always at least two). With --trace 1 every
  /// odd operation is traced, so the traced/untraced wall-time ratio is the
  /// tracing overhead. Between operations, the spare setups run at evenly
  /// spaced times.
  template <class F>
  void timed_loop(F&& op) {
    const auto start = Clock::now();
    const int spread = args.quick ? 0 : kSetupSpread;
    double last = 0.0;
    int spares = 0;
    for (int i = 0;; ++i) {
      const bool traced = args.trace && i % 2 == 1;
      rec.on = traced;
      const auto t0 = Clock::now();
      int root = -1;
      {
        SpanScope scope(rec, "op", "");
        root = scope.id();
        op(i, traced);
      }
      last = seconds_since(t0);
      rec.on = false;
      if (traced) {
        traced_ops.push_back(root);
        traced_op_s.push_back(last);
      } else {
        untraced_op_s.push_back(last);
      }
      if (spares < spread && seconds_since(start) >= (spares + 1) *
                                 args.seconds / (spread + 1)) {
        spare_setup_();
        ++spares;
      }
      if (i >= 1 && seconds_since(start) + last > args.seconds) break;
    }
    for (; spares < spread; ++spares) spare_setup_();
  }

  /// Per-layer self-time shares, trace overhead and unattributed share.
  void add_trace_metrics() {
    const double wall = sum(traced_op_s);
    const auto self = rec.self_time(traced_ops);
    for (const char* layer : kLayers) {
      const auto it = self.find(layer);
      add(std::string("share.") + layer,
          ratio(it == self.end() ? 0.0 : it->second, wall), "ratio");
    }
    const auto root = self.find("");
    add("trace.overhead_pct",
        100.0 * (ratio(median(traced_op_s), median(untraced_op_s)) - 1.0),
        "%");
    add("unattributed_share",
        ratio(root == self.end() ? 0.0 : root->second, wall), "ratio");
  }
};

// ---- search ---------------------------------------------------------------

core::EnvConfig search_env_config() {
  core::EnvConfig cfg;
  cfg.candidates = mapping::hybrid_candidates();
  cfg.accel.tile_shared = true;
  return cfg;
}

core::SearchConfig search_config(int episodes, std::uint64_t seed) {
  core::SearchConfig cfg;
  cfg.episodes = episodes;
  cfg.warmup_episodes = std::min(25, episodes / 4);
  cfg.seed = seed;
  return cfg;
}

struct SearchOp {
  double wall_s = 0.0;
  double learning_s = 0.0;
  double decision_s = 0.0;
  double simulator_s = 0.0;
  double hit_rate = 0.0;
  double best_reward = 0.0;
  std::vector<std::size_t> best_actions;
  bool traced = false;
};

void run_search(Run& run) {
  const int episodes = run.args.quick ? 12 : kSearchEpisodes;
  const core::EnvConfig cfg = search_env_config();
  const std::vector<nn::LayerSpec> layers = run.setup([&]() {
    auto vgg = nn::vgg16().mappable_layers();
    const core::CrossbarEnv env(vgg, cfg);
    core::AutoHetSearch warmup(env, search_config(8, run.args.seed));
    (void)warmup.run();
    return vgg;
  });

  std::vector<SearchOp> ops;
  run.timed_loop([&](int, bool traced) {
    SearchOp op;
    op.traced = traced;
    const auto t0 = Clock::now();
    std::unique_ptr<core::CrossbarEnv> env;
    {
      SpanScope s(run.rec, "CrossbarEnv", "autohet");
      env = std::make_unique<core::CrossbarEnv>(layers, cfg);
    }
    core::SearchResult result;
    {
      SpanScope s(run.rec, "AutoHetSearch::run", "autohet");
      core::AutoHetSearch search(*env, search_config(episodes, run.args.seed));
      result = search.run();
      run.rec.split(s.id(), "rl", result.learning_seconds +
                                      result.decision_seconds);
      run.rec.split(s.id(), "reram", result.simulator_seconds);
    }
    op.wall_s = seconds_since(t0);
    op.learning_s = result.learning_seconds;
    op.decision_s = result.decision_seconds;
    op.simulator_s = result.simulator_seconds;
    op.hit_rate = env->engine().cache_stats().hit_rate();
    op.best_reward = result.best_reward;
    op.best_actions = result.best_actions;
    ops.push_back(std::move(op));
  });

  // Checks: every search reproduces the first; the best configuration,
  // compiled to a plan and evaluated on the plan path, gives the reward.
  const core::CrossbarEnv env(layers, cfg);
  for (const SearchOp& op : ops) {
    run.check(op.best_reward == ops.front().best_reward &&
                  op.best_actions == ops.front().best_actions,
              "search is not deterministic across repeats");
    const plan::DeploymentPlan plan = env.compile(op.best_actions, "vgg16");
    run.check(env.reward(plan::evaluate_plan(plan)) == op.best_reward,
              "evaluate_plan of the best actions does not reproduce "
              "best_reward");
  }
  if (run.pinned()) {
    run.check(std::fabs(ops.front().best_reward - kAnchorReward) < 5e-7,
              "best_reward is not the 0.834291 anchor");
  }

  std::vector<double> rate, wall_ms;
  for (const SearchOp& op : ops) {
    if (op.traced) continue;
    rate.push_back(episodes / op.wall_s);
    wall_ms.push_back(1e3 * op.wall_s);
  }
  std::cout << "search: " << ops.size() << " searches of " << episodes
            << " episodes, best_reward " << ops.front().best_reward
            << ", wall s:";
  for (const SearchOp& op : ops) std::cout << " " << op.wall_s;
  std::cout << "\n";
  Run::info("best_reward", ops.front().best_reward, "reward");
  if (!run.args.trace) {
    Run::info("episodes_per_s", median(rate), "1/s");
    run.add("throughput_per_s", median(rate), "1/s");
    run.add("latency_p50_ms", percentile(wall_ms, 50), "ms");
    run.add("latency_p99_ms", percentile(wall_ms, 99), "ms");
    std::cout << "latency samples: " << wall_ms.size() << " searches\n";
    return;
  }
  std::vector<double> learn, decide, sim, hits, loop;
  for (const SearchOp& op : ops) {
    if (!op.traced) continue;
    learn.push_back(op.learning_s);
    decide.push_back(op.decision_s);
    sim.push_back(op.simulator_s);
    hits.push_back(op.hit_rate);
    loop.push_back(op.wall_s - op.learning_s - op.decision_s - op.simulator_s);
  }
  const double layers_n = static_cast<double>(layers.size());
  run.add("rl.learning_s", median(learn), "s");
  run.add("rl.decision_s", median(decide), "s");
  run.add("rl.update_us", 1e6 * median(learn) / (episodes * layers_n), "us");
  run.add("reram.eval_s", median(sim), "s");
  run.add("reram.eval_hit_rate", median(hits), "ratio");
  run.add("autohet.loop_s", median(loop), "s");
  run.add("autohet.best_reward", ops.front().best_reward, "reward");
}

// ---- robustness -----------------------------------------------------------

reram::FaultConfig grid_point(double stuck_rate, int cell_bits,
                              std::uint64_t seed) {
  reram::FaultConfig f;
  f.stuck_at_zero_rate = stuck_rate / 2.0;
  f.stuck_at_one_rate = stuck_rate / 2.0;
  f.program_sigma = kProgramSigma;
  f.cell_bits = cell_bits;
  f.seed = seed;
  return f;
}

struct RobustnessSetup {
  std::unique_ptr<nn::Model> model;
  std::unique_ptr<reram::EvaluationEngine> engine;
  std::unique_ptr<reram::TrialFabricCache> grid_cache;
  std::unique_ptr<reram::LayerFabricCache> layer_cache;
  std::vector<std::string> plan_names;
  std::vector<std::vector<std::size_t>> plan_actions;
  std::vector<std::vector<std::size_t>> sweep_stream;
};

struct RobustnessPass {
  double wall_s = 0.0;
  double grid_s = 0.0;
  double sweep_s = 0.0;
  std::vector<double> plan_s;
  std::int64_t grid_trials = 0;
  int trials_short = 0;  ///< grid reports with trials != trials_requested
  std::int64_t sweep_trials = 0;
  double replay_rate = 0.0;
  double memo_hit_rate = 0.0;
  double layer_hit_rate = 0.0;
  std::uint64_t grid_digest = 0;
  std::uint64_t sweep_digest = 0;
  bool traced = false;
};

void run_robustness(Run& run) {
  const bool quick = run.args.quick;
  const std::uint64_t seed = run.args.seed;
  const auto candidates = mapping::hybrid_candidates();
  const auto index_of = [&](mapping::CrossbarShape shape) {
    return static_cast<std::size_t>(
        std::find(candidates.begin(), candidates.end(), shape) -
        candidates.begin());
  };
  const std::size_t small = index_of({72, 64}), large = index_of({576, 512});
  reram::AcceleratorConfig accel;
  accel.tile_shared = true;

  std::vector<double> rates(std::begin(kStuckRates), std::end(kStuckRates));
  std::vector<int> bits(std::begin(kCellBits), std::end(kCellBits));
  if (quick) {
    rates = {0.0, 1e-3};
    bits = {1, 2};
  }
  reram::RobustnessOptions grid_mc;
  grid_mc.trials = quick ? 2 : kGridTrials;
  grid_mc.samples = quick ? 4 : kGridSamples;
  grid_mc.input_seed = derive_seed(seed, 1);
  const std::uint64_t grid_fault_seed = derive_seed(seed, 2);

  reram::RobustnessOptions sweep_mc = core::default_search_mc_options();
  sweep_mc.input_seed = derive_seed(seed, 3);
  reram::FaultConfig sweep_faults;
  sweep_faults.stuck_at_zero_rate = 5e-4;
  sweep_faults.stuck_at_one_rate = 5e-4;
  sweep_faults.program_sigma = kProgramSigma;
  sweep_faults.cell_bits = 2;
  sweep_faults.seed = derive_seed(seed, 4);

  RobustnessSetup st = run.setup([&]() {
    RobustnessSetup fresh;
    const nn::NetworkSpec net = nn::lenet5();
    common::Rng weight_rng(21);
    fresh.model = std::make_unique<nn::Model>(net, weight_rng);
    const auto layers = net.mappable_layers();
    fresh.engine =
        std::make_unique<reram::EvaluationEngine>(layers, candidates, accel);
    fresh.grid_cache = std::make_unique<reram::TrialFabricCache>();
    fresh.layer_cache = std::make_unique<reram::LayerFabricCache>();

    common::Rng rng(kStructureSeed);
    std::vector<std::size_t> het(layers.size());
    for (auto& a : het) a = rng.uniform_u64(candidates.size());
    fresh.plan_names = {"het", "homo72x64", "homo576x512"};
    fresh.plan_actions = {het,
                          std::vector<std::size_t>(layers.size(), small),
                          std::vector<std::size_t>(layers.size(), large)};
    std::vector<std::vector<std::size_t>> allocs(kSweepAllocations);
    for (auto& alloc : allocs) {
      alloc.resize(layers.size());
      for (auto& a : alloc) a = rng.uniform_u64(candidates.size());
    }
    const int calls = quick ? 12 : kSweepCalls;
    for (int i = 0; i < calls; ++i) {
      fresh.sweep_stream.push_back(allocs[rng.uniform_u64(allocs.size())]);
    }
    // Warm-up: one grid point and one sweep call (caches cleared after).
    reram::RobustnessOptions warm = grid_mc;
    warm.cache = fresh.grid_cache.get();
    (void)fresh.engine->evaluate_robustness(
        *fresh.model, het, grid_point(1e-3, 2, grid_fault_seed), warm);
    reram::RobustnessOptions warm_b = sweep_mc;
    warm_b.layer_cache = fresh.layer_cache.get();
    (void)fresh.engine->evaluate_robustness_cached(*fresh.model, het,
                                                   sweep_faults, warm_b);
    fresh.engine->clear_cache();
    fresh.layer_cache->clear();
    fresh.grid_cache->clear();
    return fresh;
  });
  grid_mc.cache = st.grid_cache.get();
  sweep_mc.layer_cache = st.layer_cache.get();

  std::vector<RobustnessPass> passes;
  std::vector<double> plan_grid_ms;  ///< one plan's whole fault grid
  run.timed_loop([&](int, bool traced) {
    RobustnessPass pass;
    pass.traced = traced;
    const auto t0 = Clock::now();
    // (a) fixed-budget grid over the three plans.
    const auto cache0 = st.grid_cache->stats();
    Digest grid_digest;
    for (std::size_t p = 0; p < st.plan_actions.size(); ++p) {
      const auto tp = Clock::now();
      for (const int b : bits) {
        for (const double rate : rates) {
          reram::RobustnessReport rep;
          {
            SpanScope s(run.rec, "evaluate_robustness." + st.plan_names[p],
                        "reram");
            rep = st.engine->evaluate_robustness(
                *st.model, st.plan_actions[p],
                grid_point(rate, b, grid_fault_seed), grid_mc);
          }
          pass.trials_short += rep.trials != rep.trials_requested;
          pass.grid_trials += rep.trials;
          digest_report(grid_digest, rep);
        }
      }
      pass.plan_s.push_back(seconds_since(tp));
      if (!traced) plan_grid_ms.push_back(1e3 * pass.plan_s.back());
    }
    pass.grid_s = seconds_since(t0);
    const auto cache1 = st.grid_cache->stats();
    pass.replay_rate = ratio(
        static_cast<double>(cache1.trial_replays - cache0.trial_replays),
        static_cast<double>(cache1.trial_replays - cache0.trial_replays +
                            cache1.trial_records - cache0.trial_records));
    pass.grid_digest = grid_digest.get();

    // (b) in-search reward sweep from cold caches.
    const auto tb = Clock::now();
    st.engine->clear_cache();
    st.layer_cache->clear();
    const auto layer0 = st.layer_cache->stats();
    Digest sweep_digest;
    for (const auto& actions : st.sweep_stream) {
      const auto misses = st.engine->robustness_cache_stats().misses;
      reram::RobustnessReport rep;
      {
        SpanScope s(run.rec, "evaluate_robustness_cached", "reram");
        rep = st.engine->evaluate_robustness_cached(*st.model, actions,
                                                    sweep_faults, sweep_mc);
      }
      // A memo hit runs no trials.
      if (st.engine->robustness_cache_stats().misses != misses) {
        pass.sweep_trials += rep.trials;
      }
      digest_report(sweep_digest, rep);
    }
    pass.sweep_s = seconds_since(tb);
    const auto memo = st.engine->robustness_cache_stats();
    const auto layer1 = st.layer_cache->stats();
    pass.memo_hit_rate = memo.hit_rate();
    const double lh = static_cast<double>(layer1.hits - layer0.hits);
    pass.layer_hit_rate =
        ratio(lh, lh + static_cast<double>(layer1.builds - layer0.builds));
    pass.sweep_digest = sweep_digest.get();
    pass.wall_s = seconds_since(t0);
    passes.push_back(std::move(pass));
  });
  for (const RobustnessPass& pass : passes) {
    run.check(pass.trials_short == 0,
              "fixed-budget grid ran a different trial count");
    run.check(pass.grid_digest == passes.front().grid_digest &&
                  pass.sweep_digest == passes.front().sweep_digest,
              "robustness reports differ across repeated passes");
  }
  std::cout << "robustness: " << passes.size() << " passes, grid digest "
            << hex(passes.front().grid_digest) << ", sweep digest "
            << hex(passes.front().sweep_digest) << "\n";
  if (run.pinned()) {
    run.check(passes.front().grid_digest == kPinnedGridDigest,
              "grid report digest differs from the pinned value");
    run.check(passes.front().sweep_digest == kPinnedSweepDigest,
              "sweep report digest differs from the pinned value");
  }

  if (!run.args.trace) {
    std::vector<double> rate, grid_rate, sweep_rate;
    for (const RobustnessPass& p : passes) {
      if (p.traced) continue;
      rate.push_back((p.grid_trials + p.sweep_trials) / p.wall_s);
      grid_rate.push_back(p.grid_trials / p.grid_s);
      sweep_rate.push_back(static_cast<double>(st.sweep_stream.size()) /
                           p.sweep_s);
    }
    Run::info("grid_trials_per_s", median(grid_rate), "1/s");
    Run::info("sweep_evals_per_s", median(sweep_rate), "1/s");
    run.add("throughput_per_s", median(rate), "1/s");
    run.add("latency_p50_ms", percentile(plan_grid_ms, 50), "ms");
    run.add("latency_p99_ms", percentile(plan_grid_ms, 99), "ms");
    std::cout << "latency samples: " << plan_grid_ms.size()
              << " plan fault grids\n";
    return;
  }
  std::vector<double> plan_s[3], sweep_s, replay, memo, layer_hit;
  for (const RobustnessPass& p : passes) {
    if (!p.traced) continue;
    for (int i = 0; i < 3; ++i) plan_s[i].push_back(p.plan_s[i]);
    sweep_s.push_back(p.sweep_s);
    replay.push_back(p.replay_rate);
    memo.push_back(p.memo_hit_rate);
    layer_hit.push_back(p.layer_hit_rate);
  }
  run.add("reram.mc_grid_s.het", median(plan_s[0]), "s");
  run.add("reram.mc_grid_s.homo72x64", median(plan_s[1]), "s");
  run.add("reram.mc_grid_s.homo576x512", median(plan_s[2]), "s");
  run.add("reram.mc_trials_run",
          static_cast<double>(passes.front().grid_trials), "count");
  run.add("reram.trial_replay_rate", median(replay), "ratio");
  run.add("reram.mc_sweep_s", median(sweep_s), "s");
  run.add("reram.sweep_trials_run",
          static_cast<double>(passes.front().sweep_trials), "count");
  run.add("reram.robust_memo_hit_rate", median(memo), "ratio");
  run.add("reram.layer_cache_hit_rate", median(layer_hit), "ratio");
}

// ---- serving --------------------------------------------------------------

struct ServedModel {
  std::string name;
  nn::Graph graph;
  std::unique_ptr<nn::Model> model;
  plan::DeploymentPlan plan;
  std::unique_ptr<reram::SimulatedModel> fabric;
};

struct ServingOp {
  double wall_s = 0.0;
  double simulate_s = 0.0;
  double forward_s[2] = {0.0, 0.0};
  std::vector<double> forward_ms[2];
  std::uint64_t digest = 0;
  std::vector<std::int64_t> classes;
  bool traced = false;
};

void run_serving(Run& run) {
  const std::uint64_t seed = run.args.seed;
  reram::AcceleratorConfig accel;
  accel.tile_shared = true;
  const serve::BatchingConfig batching;

  struct ServingSetup {
    std::vector<ServedModel> models;
    serve::TrafficTrace trace;
    std::vector<tensor::Tensor> images;
  };
  std::vector<double> compile_s, program_s[2], input_s;
  ServingSetup setup = run.setup([&]() {
    ServingSetup ss;
    std::vector<ServedModel>& models = ss.models;
    models.resize(2);
    models[0].name = "lenet5";
    models[0].graph = nn::graph_from_network(nn::lenet5());
    models[1].name = "cifar_resnet";
    models[1].graph = nn::cifar_resnet_graph();
    double compile = 0.0;
    for (std::size_t m = 0; m < models.size(); ++m) {
      ServedModel& sm = models[m];
      common::Rng weight_rng(3);
      sm.model = std::make_unique<nn::Model>(sm.graph.skeleton(), weight_rng);
      const std::vector<mapping::CrossbarShape> shapes(
          sm.graph.mappable_layers().size(), {72, 64});
      auto t0 = Clock::now();
      sm.plan = plan::compile_plan(sm.graph, shapes, accel);
      compile += seconds_since(t0);
      t0 = Clock::now();
      sm.fabric = std::make_unique<reram::SimulatedModel>(*sm.model, sm.plan);
      program_s[m].push_back(seconds_since(t0));
    }
    compile_s.push_back(compile);

    // Inputs: the fixed trace at ~70% of the popularity-weighted
    // full-batch capacity, plus one seeded synthetic image per request.
    const auto t0 = Clock::now();
    serve::TrafficConfig traffic;
    traffic.seed = kStructureSeed;
    traffic.zipf_s = kZipfS;
    const auto weights = serve::zipf_weights(2, kZipfS);
    double ns_per_request = 0.0;
    for (std::size_t m = 0; m < models.size(); ++m) {
      const auto schedule =
          reram::schedule_batch(models[m].plan, batching.max_batch);
      ns_per_request += weights[m] * schedule.makespan_ns /
                        static_cast<double>(batching.max_batch);
    }
    traffic.mean_qps = 0.7 * 1e9 / ns_per_request;
    traffic.duration_s =
        (run.args.quick ? 12 : kServingRequests) / traffic.mean_qps;
    ss.trace = serve::generate_trace(traffic, 2);
    common::Rng img_rng(derive_seed(seed, 7));
    for (const serve::Request& r : ss.trace.requests) {
      const nn::TensorShape& in =
          models[static_cast<std::size_t>(r.model)].graph.nodes().front().shape;
      ss.images.push_back(
          nn::synthetic_image(img_rng, in.channels, in.height, in.width));
    }
    input_s.push_back(seconds_since(t0));
    // Warm-up: one forward per fabric.
    for (const ServedModel& sm : models) {
      const nn::TensorShape& in = sm.graph.nodes().front().shape;
      (void)sm.fabric->forward_graph(
          sm.graph, nn::synthetic_image(img_rng, in.channels, in.height,
                                        in.width));
    }
    return ss;
  });
  const std::vector<ServedModel>& models = setup.models;
  const serve::TrafficTrace& trace = setup.trace;
  const std::vector<tensor::Tensor>& images = setup.images;
  std::vector<plan::DeploymentPlan> plans;
  for (const ServedModel& sm : models) plans.push_back(sm.plan);

  std::vector<ServingOp> ops;
  serve::ServingReport first_report;
  run.timed_loop([&](int i, bool traced) {
    ServingOp op;
    op.traced = traced;
    const auto t0 = Clock::now();
    serve::ServingReport rep;
    {
      SpanScope s(run.rec, "serve::simulate", "serve");
      rep = serve::simulate(plans, serve::FabricConfig{}, batching, trace);
    }
    op.simulate_s = seconds_since(t0);
    op.classes.reserve(trace.requests.size());
    for (std::size_t r = 0; r < trace.requests.size(); ++r) {
      const auto m = static_cast<std::size_t>(trace.requests[r].model);
      const auto tf = Clock::now();
      tensor::Tensor out;
      {
        SpanScope s(run.rec, "forward_graph." + models[m].name, "reram");
        out = models[m].fabric->forward_graph(models[m].graph, images[r]);
      }
      const double dt = seconds_since(tf);
      op.forward_s[m] += dt;
      op.forward_ms[m].push_back(1e3 * dt);
      op.classes.push_back(tensor::argmax(out));
    }
    op.wall_s = seconds_since(t0);
    if (i == 0) first_report = rep;
    Digest d;
    const std::string json = serve::serving_json_string(rep);
    d.bytes(json.data(), json.size());
    op.digest = d.get();
    ops.push_back(std::move(op));
  });

  // Checks: every replay gives the same report and the same classes; a
  // sample of requests agrees with the float reference.
  for (const ServingOp& op : ops) {
    run.check(op.digest == ops.front().digest,
              "ServingReport differs across replays");
    run.check(op.classes == ops.front().classes,
              "fabric outputs differ across replays");
  }
  if (!run.args.quick) {
    run.check(ops.front().digest == kPinnedServingDigest,
              "ServingReport digest differs from the pinned value");
  }
  const int ref_samples = run.args.quick ? 4 : kRefSamplesPerModel;
  for (std::size_t m = 0; m < models.size(); ++m) {
    int n = 0, agree = 0;
    for (std::size_t r = 0; r < trace.requests.size() && n < ref_samples;
         ++r) {
      if (static_cast<std::size_t>(trace.requests[r].model) != m) continue;
      ++n;
      const auto ref = models[m].model->forward_graph(models[m].graph,
                                                      images[r]);
      if (tensor::argmax(ref) == ops.front().classes[r]) ++agree;
    }
    const double agreement = ratio(agree, n);
    std::cout << "serving: " << models[m].name << " agreement with float "
              << agree << "/" << n << "\n";
    run.check(n > 0 && agreement >= kAgreementFloor,
              models[m].name + " agreement with the float reference is "
                               "below the pinned floor");
  }
  std::cout << "serving: " << ops.size() << " replays of "
            << trace.requests.size() << " requests, report digest "
            << hex(ops.front().digest) << ", sim p99 "
            << first_report.latency.p99_ms << " ms\n";
  Run::info("sim_p99_ms", first_report.latency.p99_ms, "ms");

  if (!run.args.trace) {
    std::vector<double> rate, latency;
    for (const ServingOp& op : ops) {
      if (op.traced) continue;
      rate.push_back(static_cast<double>(trace.requests.size()) / op.wall_s);
      for (const auto& v : op.forward_ms) {
        latency.insert(latency.end(), v.begin(), v.end());
      }
    }
    Run::info("images_per_s", median(rate), "1/s");
    run.add("throughput_per_s", median(rate), "1/s");
    run.add("latency_p50_ms", percentile(latency, 50), "ms");
    run.add("latency_p99_ms", percentile(latency, 99), "ms");
    std::cout << "latency samples: " << latency.size() << " requests\n";
    return;
  }
  std::vector<double> sim_ms, fwd[2], share[2];
  for (const ServingOp& op : ops) {
    if (!op.traced) continue;
    sim_ms.push_back(1e3 * op.simulate_s);
    for (int m = 0; m < 2; ++m) {
      fwd[m].insert(fwd[m].end(), op.forward_ms[m].begin(),
                    op.forward_ms[m].end());
      share[m].push_back(op.forward_s[m] / op.wall_s);
    }
  }
  run.add("mapping.compile_ms", 1e3 * median(compile_s), "ms");
  run.add("reram.program_ms.lenet5", 1e3 * median(program_s[0]), "ms");
  run.add("reram.program_ms.cifar_resnet", 1e3 * median(program_s[1]), "ms");
  run.add("reram.forward_ms_p50.lenet5", median(fwd[0]), "ms");
  run.add("reram.forward_ms_p50.cifar_resnet", median(fwd[1]), "ms");
  run.add("reram.forward_share.lenet5", median(share[0]), "ratio");
  run.add("reram.forward_share.cifar_resnet", median(share[1]), "ratio");
  run.add("serve.simulate_ms", median(sim_ms), "ms");
  run.add("serve.swap_ins", static_cast<double>(first_report.swap_ins),
          "count");
  run.add("serve.batches", static_cast<double>(first_report.total_batches),
          "count");
  run.add("serve.sim_p99_ms", first_report.latency.p99_ms, "ms");
  run.add("bench.input_gen_ms", 1e3 * median(input_s), "ms");
}

// ---- main -----------------------------------------------------------------

/// Every per-layer metric, in order, with its unit: each workload prints all
/// of them, reading 0 where the workload does no work in that layer.
const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"rl.learning_s", "s"},
      {"rl.decision_s", "s"},
      {"rl.update_us", "us"},
      {"reram.eval_s", "s"},
      {"reram.eval_hit_rate", "ratio"},
      {"autohet.loop_s", "s"},
      {"autohet.best_reward", "reward"},
      {"reram.mc_grid_s.het", "s"},
      {"reram.mc_grid_s.homo72x64", "s"},
      {"reram.mc_grid_s.homo576x512", "s"},
      {"reram.mc_trials_run", "count"},
      {"reram.trial_replay_rate", "ratio"},
      {"reram.mc_sweep_s", "s"},
      {"reram.sweep_trials_run", "count"},
      {"reram.robust_memo_hit_rate", "ratio"},
      {"reram.layer_cache_hit_rate", "ratio"},
      {"mapping.compile_ms", "ms"},
      {"reram.program_ms.lenet5", "ms"},
      {"reram.program_ms.cifar_resnet", "ms"},
      {"reram.forward_ms_p50.lenet5", "ms"},
      {"reram.forward_ms_p50.cifar_resnet", "ms"},
      {"reram.forward_share.lenet5", "ratio"},
      {"reram.forward_share.cifar_resnet", "ratio"},
      {"serve.simulate_ms", "ms"},
      {"serve.swap_ins", "count"},
      {"serve.batches", "count"},
      {"serve.sim_p99_ms", "ms"},
      {"bench.input_gen_ms", "ms"},
      {"share.autohet", "ratio"},
      {"share.rl", "ratio"},
      {"share.reram", "ratio"},
      {"share.serve", "ratio"},
      {"trace.overhead_pct", "%"},
      {"unattributed_share", "ratio"},
  };
  return names;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--quick") {
      a.quick = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
    const std::string v = argv[++i];
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::stoull(v);
    } else if (key == "--seconds") {
      a.seconds = std::stod(v);
    } else if (key == "--trace") {
      a.trace = v == "1";
    } else if (key == "--revision") {
      a.revision = v;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (a.workload != "search" && a.workload != "robustness" &&
      a.workload != "serving") {
    throw std::invalid_argument("--workload must be search, robustness or "
                                "serving");
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_stamp(const Run& run) {
  char host[256] = {};
  gethostname(host, sizeof host - 1);
  std::cout << "stamp {\"revision\": \"" << json_escape(run.args.revision)
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
            << "\", \"autohet_obs\": " << (PERFBENCH_OBS ? "true" : "false")
            << ", \"kernel_variant\": \""
            << reram::kernels::variant_name(reram::kernels::active_variant())
            << "\", \"threads\": " << kThreads
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"host\": \"" << json_escape(host)
            << "\", \"workload\": \"" << run.args.workload
            << "\", \"seed\": " << run.args.seed
            << ", \"trace\": " << (run.args.trace ? 1 : 0)
            << ", \"quick\": " << (run.args.quick ? "true" : "false")
            << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    Run run(args);
    if (args.workload == "search") {
      run_search(run);
    } else if (args.workload == "robustness") {
      run_robustness(run);
    } else {
      run_serving(run);
    }

    std::vector<Metric> out;
    if (args.trace) {
      run.add_trace_metrics();
      // Every per-layer name, 0 where this workload has no such work.
      for (const auto& [name, unit] : per_layer_names()) {
        double value = 0.0;
        for (const Metric& m : run.metrics) {
          if (m.name == name) value = m.value;
        }
        out.push_back({name, value, unit});
      }
      const std::string path = ".bench_out/" + args.workload + "-seed" +
                               std::to_string(args.seed) + ".trace.json";
      std::filesystem::create_directories(".bench_out");
      run.rec.write_chrome_trace(path);
      std::cout << "trace written to " << path << " ("
                << run.rec.spans().size() << " spans)\n";
    } else {
      out.push_back({"setup_s", median(run.setup_s), "s"});
      out.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
      for (const Metric& m : run.metrics) out.push_back(m);
    }
    std::cout << "setup s:";
    for (double t : run.setup_s) std::cout << " " << t;
    std::cout << "\n";
    print_stamp(run);
    std::cout.precision(17);
    for (const Metric& m : out) {
      std::cout << "metric " << m.name << " " << m.value << " " << m.unit
                << "\n";
    }
    std::cout << "{\"correct\": " << (run.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << run.attempted
              << ", \"failed\": " << run.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < out.size(); ++i) {
      const double v = std::isfinite(out[i].value) ? out[i].value : 0.0;
      std::cout << (i == 0 ? "" : ", ") << "\"" << out[i].name
                << "\": {\"value\": " << v << ", \"unit\": \"" << out[i].unit
                << "\"}";
    }
    std::cout << "}}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "autohet_bench: " << e.what() << "\n";
    return 2;
  }
}
