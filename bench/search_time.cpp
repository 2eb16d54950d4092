// Reproduces the §4.5 search-time analysis: wall-clock of a 300-round RL
// search on VGG16 and the share of time spent waiting on the simulator.
// The paper measures 49.2 minutes with 97% in (their Python) simulator; our
// C++ behavioral model is orders of magnitude faster, so the interesting
// reproducible quantity is the *split*, plus a demonstration that episode
// evaluation parallelizes across a thread pool.
//
// Also emits BENCH_search_time.json with episodes/sec, the stage split, and
// the evaluation-engine cache hit rate, alongside the pre-engine baseline
// measured on the same host (see kBaseline below) so the speedup from the
// memoized evaluation engine + batched DDPG kernels is tracked in-repo.
// Its `learning` section breaks the DDPG update down: the active kernel
// variant, the analytic FLOPs per update and the achieved GFLOP/s, and a
// per-phase split (critic/actor forward and backward, Adam, target soft
// update, replay sampling) for every supported kernel variant.
//
// Usage: search_time [episodes]   (default 300, the paper's setting)
#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>

#include "bench_common.hpp"
#include "common/kernel_variant.hpp"
#include "common/thread_pool.hpp"
#include "rl/adam.hpp"
#include "rl/ddpg.hpp"
#include "rl/mlp.hpp"
#include "rl/replay_buffer.hpp"

using namespace autohet;

namespace {

/// Pre-engine reference numbers: the binary built from the commit before the
/// evaluation engine landed (per-episode re-evaluation, per-sample DDPG
/// update), run on the same host with `search_time 500`. Only comparable to
/// runs with the same episode count.
struct Baseline {
  int episodes;
  double total_seconds;
  double decision_seconds;
  double simulator_seconds;
  double learning_seconds;
  double serial_evals_per_second;
};
constexpr Baseline kBaseline = {500, 16.732, 0.028, 0.023, 16.669, 3541.0};

using Clock = std::chrono::steady_clock;

std::vector<int> net_sizes(int in, const std::vector<int>& hidden) {
  std::vector<int> sizes{in};
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(1);
  return sizes;
}

/// FLOPs of one batched pass through a dense net: a multiply and an add per
/// weight per sample (the element-wise work is not counted). `skip_bottom`
/// drops the input layer, whose dL/d(input) backward_batch skips unless the
/// caller asks for it.
double dense_flops(const std::vector<int>& sizes, std::size_t batch,
                   bool skip_bottom = false) {
  double flops = 0.0;
  for (std::size_t l = skip_bottom ? 1 : 0; l + 1 < sizes.size(); ++l) {
    flops += 2.0 * static_cast<double>(batch) * sizes[l] * sizes[l + 1];
  }
  return flops;
}

/// Analytic FLOPs of one DdpgAgent::update(): three critic forwards (target,
/// online, Q(s, mu(s))), two actor forwards (target, online), the critic's
/// weight-gradient backward plus its dQ/d(state, action) backward, and the
/// actor's weight-gradient backward.
double update_flops(const rl::DdpgConfig& cfg) {
  const auto actor = net_sizes(cfg.state_dim, cfg.actor_hidden);
  const auto critic = net_sizes(cfg.state_dim + 1, cfg.critic_hidden);
  const std::size_t b = cfg.batch_size;
  const double critic_bwd = dense_flops(critic, b) +
                            dense_flops(critic, b, true) +
                            dense_flops(critic, b);
  const double actor_bwd = dense_flops(actor, b) + dense_flops(actor, b, true);
  return 3.0 * dense_flops(critic, b) + critic_bwd +
         2.0 * dense_flops(actor, b) + actor_bwd;
}

/// Host µs per update of each DDPG update phase, for one kernel variant.
struct PhaseSplit {
  std::string variant;
  static constexpr std::array<const char*, 7> kNames = {
      "critic_fwd", "critic_bwd", "actor_fwd",    "actor_bwd",
      "adam",       "soft_update", "replay_sample"};
  std::array<double, kNames.size()> us{};
  double sum() const {
    double total = 0.0;
    for (const double v : us) total += v;
    return total;
  }
};

/// Median over rounds of the mean µs of `body` over `reps` calls.
template <typename F>
double median_us(F&& body) {
  constexpr int kRounds = 7;
  constexpr int kReps = 200;
  std::vector<double> rounds;
  for (int r = 0; r < kRounds; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kReps; ++i) body();
    rounds.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count() /
        kReps);
  }
  std::nth_element(rounds.begin(), rounds.begin() + kRounds / 2, rounds.end());
  return rounds[kRounds / 2];
}

/// Times the public Mlp / Adam / ReplayBuffer calls one update makes, at the
/// agent's shapes and per-update call counts, under the active kernel
/// variant. (update() itself carries no spans: the split is measured from
/// outside, on networks and a replay pool built like the agent's.)
PhaseSplit measure_update_phases(const rl::DdpgConfig& cfg) {
  using rl::Activation;
  common::Rng rng(17);
  const std::size_t b = cfg.batch_size;
  const auto s = static_cast<std::size_t>(cfg.state_dim);
  const auto relu_then = [](Activation last, std::size_t hidden) {
    std::vector<Activation> acts(hidden, Activation::kRelu);
    acts.push_back(last);
    return acts;
  };
  rl::Mlp actor(net_sizes(cfg.state_dim, cfg.actor_hidden),
                relu_then(Activation::kSigmoid, cfg.actor_hidden.size()), rng);
  rl::Mlp critic(net_sizes(cfg.state_dim + 1, cfg.critic_hidden),
                 relu_then(Activation::kLinear, cfg.critic_hidden.size()),
                 rng);
  rl::Mlp actor_target = actor;
  rl::Mlp critic_target = critic;
  rl::Adam actor_opt(actor.param_count(), cfg.actor_lr);
  rl::Adam critic_opt(critic.param_count(), cfg.critic_lr);
  rl::ReplayBuffer replay(cfg.replay_capacity);
  for (std::size_t i = 0; i < cfg.replay_capacity; ++i) {
    rl::Transition t;
    t.state.assign(s, rng.uniform(0.0, 1.0));
    t.next_state.assign(s, rng.uniform(0.0, 1.0));
    t.action = rng.uniform(0.0, 1.0);
    replay.add(std::move(t));
  }
  std::vector<double> states(b * s), sa(b * (s + 1));
  for (double& v : states) v = rng.uniform(0.0, 1.0);
  for (double& v : sa) v = rng.uniform(0.0, 1.0);
  std::vector<double> delta(b, 0.01), ones(b, 1.0), dq;
  std::vector<const rl::Transition*> batch(b);
  rl::Mlp::BatchCache actor_cache, critic_cache, critic_q_cache;

  PhaseSplit split;
  split.variant =
      common::kernels::variant_name(common::kernels::active_variant());
  split.us[0] = median_us([&] {
    critic_target.forward_batch(sa.data(), b, critic_cache);
    critic.forward_batch(sa.data(), b, critic_q_cache);
    critic.forward_batch(sa.data(), b, critic_cache);
  });
  split.us[1] = median_us([&] {
    critic.zero_grads();
    critic.backward_batch(critic_cache, delta, nullptr);
    critic.backward_batch(critic_q_cache, ones, &dq,
                          /*accumulate_param_grads=*/false);
  });
  split.us[2] = median_us([&] {
    actor_target.forward_batch(states.data(), b, actor_cache);
    actor.forward_batch(states.data(), b, actor_cache);
  });
  split.us[3] = median_us([&] {
    actor.zero_grads();
    actor.backward_batch(actor_cache, delta, nullptr);
  });
  split.us[4] = median_us([&] {
    critic_opt.step(critic.params(), critic.grads());
    actor_opt.step(actor.params(), actor.grads());
  });
  split.us[5] = median_us([&] {
    actor_target.soft_update_from(actor, cfg.tau);
    critic_target.soft_update_from(critic, cfg.tau);
  });
  split.us[6] = median_us([&] { replay.sample(rng, batch); });
  return split;
}

/// The phase split under every supported variant; restores the active one.
std::vector<PhaseSplit> measure_phases_per_variant(
    const rl::DdpgConfig& cfg) {
  namespace ck = common::kernels;
  const ck::Variant selected = ck::active_variant();
  std::vector<PhaseSplit> out;
  for (const ck::Variant v : ck::supported_variants()) {
    ck::set_variant(v);
    out.push_back(measure_update_phases(cfg));
  }
  ck::set_variant(selected);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int episodes = bench::episodes_from_args(argc, argv, 300);
  bench::print_header("§4.5 — RL search time (VGG16, " +
                      std::to_string(episodes) + " rounds)");

  const auto env = bench::make_env(nn::vgg16(), mapping::hybrid_candidates(),
                                   /*tile_shared=*/true);
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = bench::run_search(env, episodes);
  const double total =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto search_cache = env.engine().cache_stats();

  report::Table table({"Stage", "Seconds", "Share %"});
  const auto add = [&](const std::string& name, double s) {
    table.add_row({name, report::format_fixed(s, 3),
                   report::format_fixed(100.0 * s / total, 1)});
  };
  add("decision (actor forward)", result.decision_seconds);
  add("simulator (hardware feedback)", result.simulator_seconds);
  add("learning (replay updates)", result.learning_seconds);
  add("total wall-clock", total);
  table.print(std::cout);
  std::cout << "Best reward found: " << result.best_reward << "\n";
  std::cout << "Episodes/sec: " << report::format_fixed(episodes / total, 1)
            << ", eval-engine hit rate: "
            << report::format_fixed(100.0 * search_cache.hit_rate(), 1)
            << "% (" << search_cache.hits << " hits / "
            << search_cache.misses << " misses)\n";

  // ---- DDPG update: achieved rate and per-phase split ----
  rl::DdpgConfig ddpg;
  ddpg.state_dim = core::kStateDim;
  const double flops_per_update = update_flops(ddpg);
  const double update_us =
      result.learning_updates > 0
          ? 1e6 * result.learning_seconds /
                static_cast<double>(result.learning_updates)
          : 0.0;
  const double learning_gflops =
      result.learning_seconds > 0.0
          ? flops_per_update * static_cast<double>(result.learning_updates) /
                result.learning_seconds / 1e9
          : 0.0;
  const char* active_variant =
      common::kernels::variant_name(common::kernels::active_variant());
  const std::vector<PhaseSplit> phases = measure_phases_per_variant(ddpg);
  std::cout << "\nDDPG update (" << active_variant << " kernels): "
            << result.learning_updates << " updates, "
            << report::format_fixed(update_us, 1) << " us/update, "
            << report::format_fixed(flops_per_update / 1e6, 2)
            << " MFLOP/update, " << report::format_fixed(learning_gflops, 2)
            << " GFLOP/s\n";
  std::vector<std::string> header{"Phase (us/update)"};
  for (const PhaseSplit& p : phases) header.push_back(p.variant);
  report::Table phase_table(header);
  for (std::size_t i = 0; i < PhaseSplit::kNames.size(); ++i) {
    std::vector<std::string> row{PhaseSplit::kNames[i]};
    for (const PhaseSplit& p : phases) {
      row.push_back(report::format_fixed(p.us[i], 1));
    }
    phase_table.add_row(row);
  }
  std::vector<std::string> sum_row{"sum"};
  for (const PhaseSplit& p : phases) {
    sum_row.push_back(report::format_fixed(p.sum(), 1));
  }
  phase_table.add_row(sum_row);
  phase_table.print(std::cout);

  // Throughput of raw simulator evaluations, serial vs thread pool — the
  // component the paper attributes 97% of its search time to.
  constexpr int kEvals = 256;
  std::vector<std::vector<std::size_t>> configs;
  common::Rng rng(9);
  for (int i = 0; i < kEvals; ++i) {
    std::vector<std::size_t> actions(env.num_layers());
    for (auto& a : actions) a = rng.uniform_u64(env.num_actions());
    configs.push_back(std::move(actions));
  }
  const auto serial_start = std::chrono::steady_clock::now();
  for (const auto& c : configs) (void)env.evaluate(c);
  const double serial =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    serial_start)
          .count();
  common::ThreadPool pool;
  const auto par_start = std::chrono::steady_clock::now();
  pool.parallel_for(0, configs.size(),
                    [&](std::size_t i) { (void)env.evaluate(configs[i]); });
  const double parallel =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    par_start)
          .count();
  std::cout << "\nSimulator throughput (" << kEvals << " VGG16 evaluations): "
            << report::format_fixed(kEvals / serial, 0) << "/s serial, "
            << report::format_fixed(kEvals / parallel, 0) << "/s across "
            << pool.size() << " threads\n";

  // ---- robustness-aware search overhead (LeNet-5) ----
  // The kRobustnessAware objective with a measured Monte-Carlo reward runs
  // a budgeted fault-injection evaluation inside the search loop. The
  // adaptive budget plus the engine's robustness memo must keep that search
  // within ~2x the plain Eq. 2 wall clock (the gated `mc_over_plain`).
  constexpr int kRobustEpisodes = 500;
  const nn::NetworkSpec lenet = nn::lenet5();
  common::Rng lenet_rng(21);
  const nn::Model lenet_model(lenet, lenet_rng);
  core::EnvConfig plain_cfg;
  plain_cfg.candidates = mapping::hybrid_candidates();
  plain_cfg.accel = bench::paper_accel(/*tile_shared=*/true);
  const core::CrossbarEnv plain_env(lenet.mappable_layers(), plain_cfg);
  const auto plain_start = std::chrono::steady_clock::now();
  const auto plain_result = bench::run_search(plain_env, kRobustEpisodes);
  const double plain_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    plain_start)
          .count();

  core::EnvConfig mc_cfg = plain_cfg;
  mc_cfg.objective = core::RewardObjective::kRobustnessAware;
  mc_cfg.accel.faults.stuck_at_zero_rate = 5e-4;
  mc_cfg.accel.faults.stuck_at_one_rate = 5e-4;
  mc_cfg.accel.faults.program_sigma = 0.01;
  mc_cfg.accel.faults.cell_bits = 2;
  mc_cfg.mc_reward_model = &lenet_model;
  const core::CrossbarEnv mc_env(lenet.mappable_layers(), mc_cfg);
  const auto mc_start = std::chrono::steady_clock::now();
  const auto mc_result = bench::run_search(mc_env, kRobustEpisodes);
  const double mc_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    mc_start)
          .count();
  const auto rob_memo = mc_env.engine().robustness_cache_stats();
  const double mc_over_plain =
      plain_seconds > 0.0 ? mc_seconds / plain_seconds : 0.0;
  std::cout << "\nRobustness-aware search (LeNet-5, " << kRobustEpisodes
            << " rounds): plain " << report::format_fixed(plain_seconds, 3)
            << "s, measured-MC reward " << report::format_fixed(mc_seconds, 3)
            << "s (" << report::format_fixed(mc_over_plain, 2)
            << "x), MC memo hit rate "
            << report::format_fixed(100.0 * rob_memo.hit_rate(), 1) << "% ("
            << rob_memo.hits << " hits / " << rob_memo.misses << " misses)\n";

  // ---- machine-readable summary ----
  std::ofstream json("BENCH_search_time.json");
  json << "{\n"
       << "  \"benchmark\": \"search_time\",\n"
       << "  \"stamp\": "
       << bench::stamp_json(static_cast<int>(pool.size())) << ",\n"
       << "  \"model\": \"vgg16\",\n"
       << "  \"episodes\": " << episodes << ",\n"
       << "  \"after\": {\n"
       << "    \"total_seconds\": " << total << ",\n"
       << "    \"episodes_per_second\": " << episodes / total << ",\n"
       << "    \"decision_seconds\": " << result.decision_seconds << ",\n"
       << "    \"simulator_seconds\": " << result.simulator_seconds << ",\n"
       << "    \"learning_seconds\": " << result.learning_seconds << ",\n"
       << "    \"best_reward\": " << result.best_reward << ",\n"
       << "    \"cache_hits\": " << search_cache.hits << ",\n"
       << "    \"cache_misses\": " << search_cache.misses << ",\n"
       << "    \"cache_hit_rate\": " << search_cache.hit_rate() << ",\n"
       << "    \"serial_evals_per_second\": " << kEvals / serial << ",\n"
       << "    \"pooled_evals_per_second\": " << kEvals / parallel << "\n"
       << "  },\n"
       << "  \"before\": {\n"
       << "    \"note\": \"pre-engine binary (per-episode re-evaluation, "
          "per-sample DDPG update) on the same host\",\n"
       << "    \"episodes\": " << kBaseline.episodes << ",\n"
       << "    \"total_seconds\": " << kBaseline.total_seconds << ",\n"
       << "    \"decision_seconds\": " << kBaseline.decision_seconds << ",\n"
       << "    \"simulator_seconds\": " << kBaseline.simulator_seconds
       << ",\n"
       << "    \"learning_seconds\": " << kBaseline.learning_seconds << ",\n"
       << "    \"serial_evals_per_second\": "
       << kBaseline.serial_evals_per_second << "\n"
       << "  },\n"
       << "  \"learning\": {\n"
       << "    \"kernel_variant\": \"" << active_variant << "\",\n"
       << "    \"updates\": " << result.learning_updates << ",\n"
       << "    \"update_us\": " << update_us << ",\n"
       << "    \"flops_per_update\": " << flops_per_update << ",\n"
       << "    \"gflops\": " << learning_gflops << ",\n"
       << "    \"phase_us\": [";
  for (std::size_t v = 0; v < phases.size(); ++v) {
    json << (v == 0 ? "\n" : ",\n") << "      {\"variant\": \""
         << phases[v].variant << "\"";
    for (std::size_t i = 0; i < PhaseSplit::kNames.size(); ++i) {
      json << ", \"" << PhaseSplit::kNames[i] << "\": " << phases[v].us[i];
    }
    json << ", \"sum\": " << phases[v].sum() << "}";
  }
  json << "\n    ]\n"
       << "  },\n"
       << "  \"robust_search\": {\n"
       << "    \"model\": \"lenet5\",\n"
       << "    \"episodes\": " << kRobustEpisodes << ",\n"
       << "    \"plain_seconds\": " << plain_seconds << ",\n"
       << "    \"mc_seconds\": " << mc_seconds << ",\n"
       << "    \"mc_over_plain\": " << mc_over_plain << ",\n"
       << "    \"plain_best_reward\": " << plain_result.best_reward << ",\n"
       << "    \"mc_best_reward\": " << mc_result.best_reward << ",\n"
       << "    \"mc_memo_hits\": " << rob_memo.hits << ",\n"
       << "    \"mc_memo_misses\": " << rob_memo.misses << ",\n"
       << "    \"mc_memo_hit_rate\": " << rob_memo.hit_rate() << "\n"
       << "  }";
  if (episodes == kBaseline.episodes && total > 0.0) {
    json << ",\n  \"speedup_total\": " << kBaseline.total_seconds / total
         << ",\n  \"speedup_learning\": "
         << kBaseline.learning_seconds / result.learning_seconds
         << ",\n  \"speedup_serial_eval\": "
         << (kEvals / serial) / kBaseline.serial_evals_per_second << "\n";
  } else {
    json << "\n";
  }
  json << "}\n";
  std::cout << "\nWrote BENCH_search_time.json\n";
  return 0;
}
