// DDPG agent: learning on small synthetic problems.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include "rl/ddpg.hpp"

// Counts every scalar operator new in this test binary, so a test can assert
// that a code path allocates nothing.
namespace {
std::atomic<long long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace autohet {
namespace {

rl::DdpgConfig small_config() {
  rl::DdpgConfig cfg;
  cfg.state_dim = 2;
  cfg.actor_hidden = {24, 24};
  cfg.critic_hidden = {24, 24};
  cfg.actor_lr = 3e-3;
  cfg.critic_lr = 1e-2;
  cfg.gamma = 0.0;  // contextual bandit
  cfg.batch_size = 32;
  cfg.replay_capacity = 4000;
  return cfg;
}

TEST(Ddpg, ActionsAreInUnitInterval) {
  rl::DdpgAgent agent(small_config(), common::Rng(1));
  common::Rng rng(2);
  for (int t = 0; t < 100; ++t) {
    const std::vector<double> s = {rng.uniform(), rng.uniform()};
    const double a = agent.act(s);
    EXPECT_GT(a, 0.0);
    EXPECT_LT(a, 1.0);
    const double an = agent.act_with_noise(s);
    EXPECT_GE(an, 0.0);
    EXPECT_LE(an, 1.0);
  }
}

TEST(Ddpg, UpdateIsNoopUntilBatchAvailable) {
  rl::DdpgAgent agent(small_config(), common::Rng(3));
  EXPECT_EQ(agent.update(), 0.0);
  rl::Transition t;
  t.state = {0.1, 0.2};
  t.next_state = {0.3, 0.4};
  t.action = 0.5;
  t.reward = 1.0;
  t.terminal = true;
  agent.remember(t);
  EXPECT_EQ(agent.replay_size(), 1u);
  EXPECT_EQ(agent.update(), 0.0);  // still below batch size
}

TEST(Ddpg, UpdateAllocatesNothingInSteadyState) {
  // Both pools sample into agent scratch: the uniform one (the search's)
  // and the prioritized one, whose prefix sums live in buffer scratch.
  for (const bool prioritized : {false, true}) {
    rl::DdpgConfig cfg = small_config();
    cfg.prioritized_replay = prioritized;
    rl::DdpgAgent agent(cfg, common::Rng(5));
    for (int i = 0; i < 100; ++i) {
      rl::Transition t;
      t.state = {0.01 * i, 0.5};
      t.next_state = {0.5, 0.01 * i};
      t.action = 0.3;
      t.reward = 0.1 * (i % 7);
      agent.remember(std::move(t));
    }
    agent.update();  // sizes the scratch buffers
    const long long before = g_allocations.load();
    for (int i = 0; i < 20; ++i) agent.update();
    EXPECT_EQ(g_allocations.load() - before, 0)
        << "prioritized_replay=" << prioritized;
  }
}

TEST(Ddpg, LearnsContextualBandit) {
  // Reward = 1 - (a - s0)^2: the optimal action equals the first state
  // component. After training the policy should track it closely.
  auto cfg = small_config();
  rl::DdpgAgent agent(cfg, common::Rng(4));
  common::Rng rng(5);

  for (int episode = 0; episode < 600; ++episode) {
    const std::vector<double> s = {rng.uniform(0.1, 0.9), rng.uniform()};
    const double a = (episode < 100)
                         ? rng.uniform()  // warmup exploration
                         : agent.act_with_noise(s);
    rl::Transition t;
    t.state = s;
    t.next_state = s;
    t.action = a;
    t.reward = 1.0 - (a - s[0]) * (a - s[0]);
    t.terminal = true;
    agent.remember(std::move(t));
    agent.update();
    if (episode % 10 == 0) agent.decay_noise();
  }

  double total_err = 0.0;
  constexpr int kProbe = 20;
  for (int i = 0; i < kProbe; ++i) {
    const std::vector<double> s = {0.1 + 0.8 * i / (kProbe - 1), 0.5};
    total_err += std::fabs(agent.act(s) - s[0]);
  }
  EXPECT_LT(total_err / kProbe, 0.15);
}

TEST(Ddpg, CriticLearnsActionValues) {
  // With fixed state, Q(s, a) must rank the rewarding action above others.
  auto cfg = small_config();
  rl::DdpgAgent agent(cfg, common::Rng(6));
  common::Rng rng(7);
  const std::vector<double> s = {0.5, 0.5};
  for (int i = 0; i < 500; ++i) {
    const double a = rng.uniform();
    rl::Transition t;
    t.state = s;
    t.next_state = s;
    t.action = a;
    t.reward = (a > 0.4 && a < 0.6) ? 1.0 : 0.0;
    t.terminal = true;
    agent.remember(std::move(t));
    agent.update();
  }
  EXPECT_GT(agent.q_value(s, 0.5), agent.q_value(s, 0.05));
  EXPECT_GT(agent.q_value(s, 0.5), agent.q_value(s, 0.95));
}

TEST(Ddpg, NoiseDecays) {
  rl::DdpgAgent agent(small_config(), common::Rng(8));
  const double before = agent.noise_sigma();
  for (int i = 0; i < 50; ++i) agent.decay_noise();
  EXPECT_LT(agent.noise_sigma(), before);
  for (int i = 0; i < 1000; ++i) agent.decay_noise();
  EXPECT_GE(agent.noise_sigma(), 0.0);
}

TEST(Ddpg, DeterministicForSeed) {
  rl::DdpgAgent a(small_config(), common::Rng(9));
  rl::DdpgAgent b(small_config(), common::Rng(9));
  const std::vector<double> s = {0.3, 0.6};
  EXPECT_EQ(a.act(s), b.act(s));
  EXPECT_EQ(a.act_with_noise(s), b.act_with_noise(s));
}

TEST(Ddpg, ValidatesConfig) {
  auto cfg = small_config();
  cfg.state_dim = 0;
  EXPECT_THROW(rl::DdpgAgent(cfg, common::Rng(1)), std::invalid_argument);
  cfg = small_config();
  cfg.gamma = 1.5;
  EXPECT_THROW(rl::DdpgAgent(cfg, common::Rng(1)), std::invalid_argument);
  cfg = small_config();
  cfg.tau = 0.0;
  EXPECT_THROW(rl::DdpgAgent(cfg, common::Rng(1)), std::invalid_argument);
}

TEST(OrnsteinUhlenbeck, MeanRevertsTowardMu) {
  rl::OrnsteinUhlenbeck ou(0.15, 0.0, 2.0);  // sigma 0: deterministic decay
  common::Rng rng(10);
  double x = 0.0;
  for (int i = 0; i < 200; ++i) x = ou.sample(rng);
  EXPECT_NEAR(x, 2.0, 1e-6);
}

TEST(DecayingGaussian, RespectsFloor) {
  rl::DecayingGaussian g(1.0, 0.5, 0.1);
  for (int i = 0; i < 100; ++i) g.decay();
  EXPECT_DOUBLE_EQ(g.sigma(), 0.1);
}

}  // namespace
}  // namespace autohet
