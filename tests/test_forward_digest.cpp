// Forward-digest pins for the functional fabric: the LeNet-5 chain and the
// CIFAR residual DAG run through SimulatedModel::forward_graph_traced on
// clean fabrics and on fabrics carrying stuck-at faults, programming
// variation and post-programming conductance variation, with 72x64 and
// 576x512 crossbars, on both datapaths. Each case folds the graph output
// and every mappable layer's output into one FNV-1a digest over the float
// bit patterns, and the digest must equal the pinned value under every
// supported kernel variant. The pins are what the per-crossbar integer
// datapath computed before the layer-wide int8 GEMM replaced it, so any
// change in what a forward computes — in any variant — shows here. Clean
// fabrics digest equally on both shapes (the ideal forward is
// partition-exact); faulty ones differ, since the physical fault maps do.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kernel_variant_test.hpp"
#include "nn/graph.hpp"
#include "nn/model.hpp"
#include "nn/model_zoo.hpp"
#include "reram/faults.hpp"
#include "reram/functional.hpp"

namespace autohet {
namespace {

using mapping::CrossbarShape;
using reram::DatapathMode;
using reram::FaultConfig;
using reram::SimulatedModel;

void fold(std::uint64_t& h, const tensor::Tensor& t) {
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    h ^= std::bit_cast<std::uint32_t>(t[i]);
    h *= 0x100000001b3ULL;
  }
}

struct DigestCase {
  const char* name;
  bool resnet;
  CrossbarShape shape;
  bool faulty;
  DatapathMode mode;
  std::uint64_t want;
};

/// Digest of two images' traced graph forwards on one fabric.
std::uint64_t forward_digest(const DigestCase& c) {
  const nn::Graph graph = c.resnet ? nn::cifar_resnet_graph()
                                   : nn::graph_from_network(nn::lenet5());
  common::Rng weight_rng(0x5eed);
  const nn::Model model(graph.skeleton(), weight_rng);
  const std::vector<CrossbarShape> shapes(graph.mappable_layers().size(),
                                          c.shape);
  FaultConfig faults;
  if (c.faulty) {
    faults.stuck_at_zero_rate = 0.005;
    faults.stuck_at_one_rate = 0.005;
    faults.program_sigma = 0.02;
    faults.cell_bits = 2;
    faults.seed = 77;
  }
  SimulatedModel fabric(model, shapes, c.mode, faults);
  if (c.faulty) {
    common::Rng variation_rng(0x7a);
    fabric.apply_variation(variation_rng, 0.01);
  }
  const nn::TensorShape& in = graph.nodes().front().shape;
  common::Rng image_rng(3);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int image = 0; image < 2; ++image) {
    const tensor::Tensor x =
        nn::synthetic_image(image_rng, in.channels, in.height, in.width);
    const SimulatedModel::ForwardTrace trace =
        fabric.forward_graph_traced(graph, x);
    fold(h, trace.output);
    for (const tensor::Tensor& t : trace.mappable_outputs) fold(h, t);
  }
  return h;
}

constexpr CrossbarShape kSmall{72, 64};
constexpr CrossbarShape kLarge{576, 512};
constexpr DatapathMode kInt = DatapathMode::kInteger;
constexpr DatapathMode kBits = DatapathMode::kBitSerial;

const DigestCase kCases[] = {
    {"lenet_72x64_clean_int", false, kSmall, false, kInt,
     0x95e557d54e04494bULL},
    {"lenet_72x64_faulty_int", false, kSmall, true, kInt,
     0x6fba922ebae0aab3ULL},
    {"lenet_576x512_clean_int", false, kLarge, false, kInt,
     0x95e557d54e04494bULL},
    {"lenet_576x512_faulty_int", false, kLarge, true, kInt,
     0x769789977027654aULL},
    {"resnet_72x64_clean_int", true, kSmall, false, kInt,
     0xb1ccf2bf48723b25ULL},
    {"resnet_72x64_faulty_int", true, kSmall, true, kInt,
     0x92dc290df0448792ULL},
    {"resnet_576x512_clean_int", true, kLarge, false, kInt,
     0xb1ccf2bf48723b25ULL},
    {"resnet_576x512_faulty_int", true, kLarge, true, kInt,
     0x55f48424af116b7eULL},
    {"lenet_72x64_faulty_bits", false, kSmall, true, kBits,
     0x6fba922ebae0aab3ULL},
    {"resnet_72x64_faulty_bits", true, kSmall, true, kBits,
     0x92dc290df0448792ULL},
};

class ForwardDigestTest : public testutil::KernelVariantFixture {};

TEST_P(ForwardDigestTest, GraphForwardsMatchPinnedDigests) {
  for (const DigestCase& c : kCases) {
    const std::uint64_t got = forward_digest(c);
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, c.want) << c.name << " digest " << hex;
  }
}

AUTOHET_INSTANTIATE_ALL_VARIANTS(ForwardDigestTest);

}  // namespace
}  // namespace autohet
