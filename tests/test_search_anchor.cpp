// The paper's §4.5 search, pinned: VGG16 at seed 1 with hybrid crossbar
// candidates, tile sharing, 200 episodes and 25 warm-up episodes (the
// configuration of the benchmark's `search` workload) must reach the
// 0.834291 anchor reward and replay the exact per-episode history — reward,
// mean critic loss and actions — under every supported kernel variant. Any
// drift in the DDPG arithmetic (an FMA contraction, a reordered reduction,
// a changed RNG draw) changes the history digest.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>

#include "autohet/env.hpp"
#include "autohet/search.hpp"
#include "kernel_variant_test.hpp"
#include "mapping/crossbar_shape.hpp"
#include "nn/model_zoo.hpp"

namespace autohet {
namespace {

/// The history digest the parent implementation produced for this search.
constexpr std::uint64_t kHistoryDigest = 0xd3055ef49ba56688ULL;

/// FNV-1a over every episode's reward and mean critic loss (bit patterns)
/// and actions.
std::uint64_t history_digest(const core::SearchResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const core::EpisodeRecord& e : result.history) {
    mix(std::bit_cast<std::uint64_t>(e.reward));
    mix(std::bit_cast<std::uint64_t>(e.mean_critic_loss));
    for (const std::size_t a : e.actions) mix(a);
  }
  return h;
}

class SearchAnchor : public testutil::KernelVariantFixture {};

TEST_P(SearchAnchor, Vgg16Seed1ReproducesRewardAndHistory) {
  core::EnvConfig env_cfg;
  env_cfg.candidates = mapping::hybrid_candidates();
  env_cfg.accel.tile_shared = true;
  const core::CrossbarEnv env(nn::vgg16().mappable_layers(), env_cfg);
  core::SearchConfig cfg;
  cfg.episodes = 200;
  cfg.warmup_episodes = 25;
  cfg.seed = 1;
  const core::SearchResult result = core::AutoHetSearch(env, cfg).run();

  std::ostringstream reward;
  reward << result.best_reward;
  EXPECT_EQ(reward.str(), "0.834291");
  ASSERT_EQ(result.history.size(), 200u);
  EXPECT_EQ(history_digest(result), kHistoryDigest)
      << "history digest 0x" << std::hex << history_digest(result);
}

AUTOHET_INSTANTIATE_ALL_VARIANTS(SearchAnchor);

}  // namespace
}  // namespace autohet
