#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "locality/lru_stack.hpp"
#include "support/rng.hpp"

namespace codelayout {
namespace {

std::vector<Symbol> top_of(const LruStack& stack, std::size_t k) {
  std::vector<Symbol> out;
  stack.for_top(k, [&](Symbol s) { out.push_back(s); });
  return out;
}

TEST(LruStack, TouchReportsResidency) {
  LruStack s(8);
  EXPECT_FALSE(s.touch(3));
  EXPECT_TRUE(s.touch(3));
  EXPECT_TRUE(s.resident(3));
  EXPECT_FALSE(s.resident(4));
}

TEST(LruStack, RecencyOrder) {
  LruStack s(8);
  s.touch(1);
  s.touch(2);
  s.touch(3);
  EXPECT_EQ(top_of(s, 8), (std::vector<Symbol>{3, 2, 1}));
  s.touch(1);  // move to front
  EXPECT_EQ(top_of(s, 8), (std::vector<Symbol>{1, 3, 2}));
  EXPECT_EQ(s.top(), 1u);
}

TEST(LruStack, ForTopLimitsCount) {
  LruStack s(8);
  for (Symbol i = 0; i < 5; ++i) s.touch(i);
  EXPECT_EQ(top_of(s, 2).size(), 2u);
}

TEST(LruStack, ForAboveEnumeratesSinceLastOccurrence) {
  LruStack s(8);
  s.touch(1);
  s.touch(2);
  s.touch(3);
  std::vector<Symbol> above;
  s.for_above(1, [&](Symbol x) {
    above.push_back(x);
    return true;
  });
  EXPECT_EQ(above, (std::vector<Symbol>{3, 2}));
}

TEST(LruStack, ForAboveEarlyStop) {
  LruStack s(8);
  s.touch(1);
  s.touch(2);
  s.touch(3);
  std::vector<Symbol> above;
  s.for_above(1, [&](Symbol x) {
    above.push_back(x);
    return false;  // stop immediately
  });
  EXPECT_EQ(above.size(), 1u);
}

TEST(LruStack, DepthOf) {
  LruStack s(8);
  s.touch(5);
  s.touch(6);
  s.touch(7);
  EXPECT_EQ(s.depth_of(7), 0u);
  EXPECT_EQ(s.depth_of(6), 1u);
  EXPECT_EQ(s.depth_of(5), 2u);
}

TEST(LruStack, WeightedEviction) {
  const std::vector<std::uint32_t> weights = {10, 20, 30, 40};
  LruStack s(4, weights);
  s.touch(0);
  s.touch(1);
  s.touch(2);  // weight 60
  EXPECT_EQ(s.resident_weight(), 60u);
  s.evict_to_weight(50);
  // Evicts from the bottom: symbol 0 (oldest, weight 10) goes first.
  EXPECT_FALSE(s.resident(0));
  EXPECT_EQ(s.resident_weight(), 50u);
  s.evict_to_weight(30);
  EXPECT_FALSE(s.resident(1));
  EXPECT_TRUE(s.resident(2));
  s.evict_to_weight(29);  // 30 > 29: the last symbol goes too
  EXPECT_FALSE(s.resident(2));
  EXPECT_EQ(s.resident_count(), 0u);
}

TEST(LruStack, DefaultWeightIsOne) {
  LruStack s(16);
  for (Symbol i = 0; i < 10; ++i) s.touch(i);
  EXPECT_EQ(s.resident_weight(), 10u);
  EXPECT_EQ(s.resident_count(), 10u);
  s.evict_to_weight(4);
  EXPECT_EQ(s.resident_count(), 4u);
  EXPECT_EQ(top_of(s, 16), (std::vector<Symbol>{9, 8, 7, 6}));
}

TEST(LruStack, ClearEmptiesEverything) {
  LruStack s(8);
  s.touch(1);
  s.touch(2);
  s.clear();
  EXPECT_EQ(s.resident_count(), 0u);
  EXPECT_FALSE(s.resident(1));
  EXPECT_EQ(top_of(s, 8).size(), 0u);
  // Usable again after clear.
  s.touch(2);
  EXPECT_EQ(s.top(), 2u);
}

TEST(LruStack, WeightsSizeMismatchRejected) {
  const std::vector<std::uint32_t> weights = {1, 2};
  EXPECT_THROW(LruStack(4, weights), ContractError);
}

/// Property: against a reference deque model over random traces.
class LruStackPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LruStackPropertyTest, MatchesReferenceModel) {
  Rng rng(GetParam());
  constexpr Symbol kSpace = 32;
  LruStack stack(kSpace);
  std::deque<Symbol> model;  // front = MRU

  for (int step = 0; step < 2000; ++step) {
    const auto s = static_cast<Symbol>(rng.below(kSpace));
    const bool was_resident = stack.touch(s);
    const auto it = std::find(model.begin(), model.end(), s);
    EXPECT_EQ(was_resident, it != model.end());
    if (it != model.end()) model.erase(it);
    model.push_front(s);
    if (rng.chance(0.05)) {
      const std::uint64_t cap = 1 + rng.below(kSpace);
      stack.evict_to_weight(cap);
      while (model.size() > cap) model.pop_back();
    }
    ASSERT_EQ(stack.resident_count(), model.size());
    ASSERT_EQ(top_of(stack, model.size()),
              std::vector<Symbol>(model.begin(), model.end()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruStackPropertyTest,
                         ::testing::Values(1, 2, 3, 17, 99));

}  // namespace
}  // namespace codelayout
