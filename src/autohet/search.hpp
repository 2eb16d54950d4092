// The AutoHet search driver (Fig. 6 workflow).
//
// Decision stage: the DDPG actor assigns a crossbar candidate to each layer
// in order (steps 1-4 of Fig. 6); the accelerator model evaluates the full
// configuration (step 5) and the reward function converts the hardware
// feedback into R (steps 6-7). Learning stage: the per-layer transitions
// (S_k, S_{k+1}, a_k, R) enter the experience pool (steps 8-10) and the
// agent updates the actor/critic pair from sampled minibatches (steps
// 11-12). The stages alternate for a configured number of episodes
// (the paper uses 300 rounds) and the best configuration seen wins.
#pragma once

#include <cstdint>
#include <vector>

#include "autohet/env.hpp"
#include "rl/ddpg.hpp"

namespace autohet::core {

struct SearchConfig {
  int episodes = 300;        ///< paper §4.5: 300-round search
  int warmup_episodes = 25;  ///< exploration episodes that seed the pool
  /// Structured warmup: the first warmup episodes replay each homogeneous
  /// candidate plus the greedy per-layer configuration before switching to
  /// uniform-random exploration. This keeps deep models (ResNet152's 156
  /// layers) from needing thousands of random episodes to see a coherent
  /// configuration, and guarantees the search result dominates those
  /// baselines. Disable for a pure-random warmup.
  bool seeded_warmup = true;
  std::uint64_t seed = 1;
  rl::DdpgConfig ddpg;       ///< state_dim is overridden to kStateDim
};

struct EpisodeRecord {
  std::vector<std::size_t> actions;
  /// The hardware feedback computed for this episode's actions — kept so
  /// the driver never re-evaluates a configuration it already scored.
  reram::NetworkReport report;
  double reward = 0.0;
  double utilization = 0.0;
  double energy_nj = 0.0;
  double rue = 0.0;
  /// Mean critic MSE over this episode's replay updates (0 until the pool
  /// holds a full batch); a convergence diagnostic for the learning stage.
  double mean_critic_loss = 0.0;
};

struct SearchResult {
  std::vector<std::size_t> best_actions;
  reram::NetworkReport best_report;
  double best_reward = 0.0;
  std::vector<EpisodeRecord> history;
  /// Wall-clock split, for the §4.5 search-time analysis.
  double decision_seconds = 0.0;   ///< agent forward passes + bookkeeping
  double simulator_seconds = 0.0;  ///< hardware-model evaluations
  double learning_seconds = 0.0;   ///< experience replay updates
  /// DDPG minibatch updates that ran (the first episodes' updates are
  /// no-ops until the replay pool holds a batch).
  long long learning_updates = 0;
};

class AutoHetSearch {
 public:
  AutoHetSearch(const CrossbarEnv& env, SearchConfig config);

  /// Runs the full decision/learning alternation and returns the best
  /// configuration found.
  SearchResult run();

 private:
  /// Runs one episode. `forced_actions` (when non-null) replays a fixed
  /// configuration (structured warmup); otherwise `explore_randomly`
  /// selects uniform-random vs noisy-policy actions.
  EpisodeRecord run_episode(const std::vector<std::size_t>* forced_actions,
                            bool explore_randomly, SearchResult& result);

  const CrossbarEnv& env_;
  SearchConfig config_;
  common::Rng rng_;
  rl::DdpgAgent agent_;
};

}  // namespace autohet::core
