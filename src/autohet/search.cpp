#include "autohet/search.hpp"

#include "autohet/baselines.hpp"

#include <chrono>
#include <cstdio>
#include <string>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/obs.hpp"

namespace autohet::core {

namespace {
using Clock = std::chrono::steady_clock;
double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One JSONL line of per-episode telemetry for obs::EventLog.
std::string episode_json(int episode, const EpisodeRecord& record,
                         double best_reward, double noise_sigma,
                         double wall_ms) {
  char line[512];
  std::snprintf(line, sizeof(line),
                "{\"episode\": %d, \"reward\": %.9g, \"best_reward\": %.9g, "
                "\"utilization\": %.9g, \"energy_nj\": %.9g, \"rue\": %.9g, "
                "\"mean_critic_loss\": %.9g, \"noise_sigma\": %.9g, "
                "\"wall_ms\": %.6g}",
                episode, record.reward, best_reward, record.utilization,
                record.energy_nj, record.rue, record.mean_critic_loss,
                noise_sigma, wall_ms);
  return std::string(line);
}
}  // namespace

AutoHetSearch::AutoHetSearch(const CrossbarEnv& env, SearchConfig config)
    : env_(env),
      config_(config),
      rng_(config.seed),
      agent_([&] {
        rl::DdpgConfig ddpg = config.ddpg;
        ddpg.state_dim = kStateDim;
        return ddpg;
      }(), common::Rng(config.seed ^ 0x5bf0a8b1u)) {
  AUTOHET_CHECK(config_.episodes > 0, "episodes must be positive");
  AUTOHET_CHECK(config_.warmup_episodes >= 0, "warmup must be non-negative");
}

EpisodeRecord AutoHetSearch::run_episode(
    const std::vector<std::size_t>* forced_actions, bool explore_randomly,
    SearchResult& result) {
  const std::size_t n = env_.num_layers();
  EpisodeRecord record;
  record.actions.reserve(n);

  // ---- decision stage: assign a candidate to each layer in order ----
  const auto decision_start = Clock::now();
  std::vector<std::vector<double>> states;
  states.reserve(n + 1);
  {
    OBS_SPAN("decision");
    std::size_t prev_action = 0;
    double prev_util = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      states.push_back(env_.state(k, prev_action, prev_util));
      std::size_t idx;
      if (forced_actions != nullptr) {
        idx = (*forced_actions)[k];
      } else if (explore_randomly) {
        idx = rng_.uniform_u64(env_.num_actions());
      } else {
        idx = env_.action_to_index(agent_.act_with_noise(states.back()));
      }
      record.actions.push_back(idx);
      prev_action = idx;
      prev_util = env_.layer_utilization(k, idx);
    }
    // Bootstrap state after the last layer (terminal; content unused).
    states.push_back(env_.state(n - 1, prev_action, prev_util));
  }
  result.decision_seconds += seconds_since(decision_start);

  // ---- hardware feedback (the "simulator" of §4.5) ----
  const auto sim_start = Clock::now();
  {
    OBS_SPAN("simulator");
    record.report = env_.evaluate(record.actions);
  }
  result.simulator_seconds += seconds_since(sim_start);

  // The actions-aware overload: identical to reward(report) unless the env
  // carries an in-search Monte-Carlo robustness model (kRobustnessAware).
  record.reward = env_.reward(record.report, record.actions);
  record.utilization = record.report.utilization;
  record.energy_nj = record.report.energy.total_nj();
  record.rue = record.report.rue();

  // ---- learning stage: fill the experience pool, update the pair network --
  const auto learn_start = Clock::now();
  {
    OBS_SPAN("learning");
    for (std::size_t k = 0; k < n; ++k) {
      rl::Transition t;
      t.state = states[k];
      t.next_state = states[k + 1];
      t.action = (env_.num_actions() > 1)
                     ? (static_cast<double>(record.actions[k]) + 0.5) /
                           static_cast<double>(env_.num_actions())
                     : 0.5;
      t.reward = record.reward;  // Eq. 3: the episode reward, shared by steps
      t.terminal = (k + 1 == n);
      agent_.remember(std::move(t));
    }
    double loss_sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) loss_sum += agent_.update();
    record.mean_critic_loss = loss_sum / static_cast<double>(n);
    agent_.decay_noise();
  }
  result.learning_seconds += seconds_since(learn_start);
  return record;
}

SearchResult AutoHetSearch::run() {
  OBS_SPAN("search_run");
  SearchResult result;
  result.history.reserve(static_cast<std::size_t>(config_.episodes));

  // Structured warmup demonstrations: the homogeneous configurations and
  // the greedy per-layer solution.
  std::vector<std::vector<std::size_t>> seeded;
  if (config_.seeded_warmup) {
    for (std::size_t c = 0; c < env_.num_actions(); ++c) {
      seeded.emplace_back(env_.num_layers(), c);
    }
    seeded.push_back(greedy_search(env_).actions);
  }

  for (int ep = 0; ep < config_.episodes; ++ep) {
    const auto episode_start = Clock::now();
    const bool random_phase = ep < config_.warmup_episodes;
    const std::vector<std::size_t>* forced =
        (random_phase && static_cast<std::size_t>(ep) < seeded.size())
            ? &seeded[static_cast<std::size_t>(ep)]
            : nullptr;
    EpisodeRecord record;
    {
      OBS_SPAN("episode");
      record = run_episode(forced, random_phase, result);
    }
    if (result.history.empty() || record.reward > result.best_reward) {
      result.best_reward = record.reward;
      result.best_actions = record.actions;
      result.best_report = record.report;  // already evaluated this episode
    }
    const double wall_s = seconds_since(episode_start);
    OBS_COUNTER_ADD("autohet_search_episodes_total", 1);
    OBS_GAUGE_SET("autohet_search_episode_reward", record.reward);
    OBS_GAUGE_SET("autohet_search_best_reward", result.best_reward);
    OBS_GAUGE_SET("autohet_search_critic_loss", record.mean_critic_loss);
    OBS_GAUGE_SET("autohet_search_noise_sigma", agent_.noise_sigma());
    OBS_HIST_RECORD("autohet_search_episode_ns", wall_s * 1e9);
    if (record.reward > 0.0) {
      OBS_HIST_RECORD("autohet_search_reward_micros", record.reward * 1e6);
    }
    OBS_TRACE_COUNTER("episode_reward", record.reward);
    OBS_TRACE_COUNTER("best_reward", result.best_reward);
    OBS_TRACE_COUNTER("critic_loss", record.mean_critic_loss);
    OBS_TRACE_COUNTER("noise_sigma", agent_.noise_sigma());
    if (obs::EventLog::global().enabled()) {
      obs::EventLog::global().emit(episode_json(
          ep, record, result.best_reward, agent_.noise_sigma(),
          wall_s * 1e3));
    }
    if ((ep + 1) % 50 == 0) {
      common::log_debug("episode ", ep + 1, "/", config_.episodes,
                        " reward=", record.reward,
                        " best=", result.best_reward);
    }
    result.history.push_back(std::move(record));
  }
  result.learning_updates = agent_.updates_taken();
  return result;
}

}  // namespace autohet::core
