#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "why/mbs.h"

namespace whyq {
namespace {

using IndexSet = std::set<size_t>;

// One set per visit: the batched entry point with batch_size = 1.
MbsStats EnumerateEach(
    const std::vector<double>& costs,
    const std::vector<std::vector<size_t>>& conf, double budget, size_t cap,
    const std::function<bool(const std::vector<size_t>&)>& visit,
    const AdmitFn& admit = nullptr) {
  return EnumerateMaximalBoundedSetsBatched(
      costs, conf, budget, cap, /*batch_size=*/1,
      [&](const std::vector<std::vector<size_t>>& batch) {
        EXPECT_EQ(batch.size(), 1u);
        return visit(batch.front());
      },
      admit);
}

std::vector<IndexSet> Enumerate(const std::vector<double>& costs,
                                const std::vector<std::vector<size_t>>& conf,
                                double budget, size_t cap = 100000,
                                const AdmitFn& admit = nullptr) {
  std::vector<IndexSet> out;
  EnumerateEach(
      costs, conf, budget, cap,
      [&](const std::vector<size_t>& s) {
        out.emplace_back(s.begin(), s.end());
        return true;
      },
      admit);
  return out;
}

// Brute-force reference: all subsets, keep bounded conflict-free maximal
// ones; `admissible` (optional, downward closed) further restricts the
// family, as the guard does.
std::vector<IndexSet> BruteForce(
    const std::vector<double>& costs,
    const std::vector<std::vector<size_t>>& conf, double budget,
    const std::function<bool(const IndexSet&)>& admissible = nullptr) {
  size_t n = costs.size();
  auto ok = [&](const IndexSet& s) {
    if (admissible && !admissible(s)) return false;
    double c = 0.0;
    for (size_t i : s) c += costs[i];
    if (c > budget + 1e-9) return false;
    for (size_t i : s) {
      for (size_t j : conf[i]) {
        if (s.count(j)) return false;
      }
    }
    return true;
  };
  std::vector<IndexSet> bounded;
  for (size_t mask = 0; mask < (1u << n); ++mask) {
    IndexSet s;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) s.insert(i);
    }
    if (ok(s)) bounded.push_back(s);
  }
  std::vector<IndexSet> maximal;
  for (const IndexSet& s : bounded) {
    bool is_max = true;
    for (size_t j = 0; j < n && is_max; ++j) {
      if (s.count(j)) continue;
      IndexSet bigger = s;
      bigger.insert(j);
      if (ok(bigger)) is_max = false;
    }
    if (is_max) maximal.push_back(s);
  }
  return maximal;
}

void ExpectSameSets(std::vector<IndexSet> a, std::vector<IndexSet> b) {
  auto key = [](const IndexSet& s) {
    std::string k;
    for (size_t i : s) k += std::to_string(i) + ",";
    return k;
  };
  auto cmp = [&](const IndexSet& x, const IndexSet& y) {
    return key(x) < key(y);
  };
  std::sort(a.begin(), a.end(), cmp);
  std::sort(b.begin(), b.end(), cmp);
  EXPECT_EQ(a, b);
}

std::vector<std::vector<size_t>> NoConflicts(size_t n) {
  return std::vector<std::vector<size_t>>(n);
}

TEST(MbsTest, EmptyInputEmitsEmptySet) {
  std::vector<IndexSet> sets = Enumerate({}, {}, 4.0);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_TRUE(sets[0].empty());
}

TEST(MbsTest, SingleOpWithinBudget) {
  std::vector<IndexSet> sets = Enumerate({2.0}, NoConflicts(1), 4.0);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0], IndexSet{0});
}

TEST(MbsTest, SingleOpOverBudgetLeavesEmptyMaximal) {
  std::vector<IndexSet> sets = Enumerate({5.0}, NoConflicts(1), 4.0);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_TRUE(sets[0].empty());
}

TEST(MbsTest, MatchesBruteForceUniformCosts) {
  std::vector<double> costs(6, 1.0);
  ExpectSameSets(Enumerate(costs, NoConflicts(6), 3.0),
                 BruteForce(costs, NoConflicts(6), 3.0));
}

TEST(MbsTest, MatchesBruteForceMixedCosts) {
  std::vector<double> costs{0.5, 1.0, 1.5, 2.0, 2.5, 3.0};
  ExpectSameSets(Enumerate(costs, NoConflicts(6), 4.0),
                 BruteForce(costs, NoConflicts(6), 4.0));
}

TEST(MbsTest, MatchesBruteForceWithConflicts) {
  std::vector<double> costs{1.0, 1.0, 2.0, 0.5};
  std::vector<std::vector<size_t>> conf(4);
  conf[0] = {1};
  conf[1] = {0};
  conf[2] = {3};
  conf[3] = {2};
  ExpectSameSets(Enumerate(costs, conf, 3.0), BruteForce(costs, conf, 3.0));
}

// Parameterized property sweep: enumerator == brute force on pseudo-random
// instances of varying size/budget.
class MbsPropertyTest : public testing::TestWithParam<int> {};

TEST_P(MbsPropertyTest, MatchesBruteForce) {
  int seed = GetParam();
  // Simple deterministic LCG so the instance derives from the seed.
  uint64_t state = static_cast<uint64_t>(seed) * 2654435761u + 1;
  auto next = [&]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % 1000;
  };
  size_t n = 3 + next() % 8;  // 3..10 ops
  std::vector<double> costs(n);
  for (double& c : costs) c = 0.25 + static_cast<double>(next() % 16) / 4.0;
  double budget = 1.0 + static_cast<double>(next() % 12) / 2.0;
  std::vector<std::vector<size_t>> conf(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (next() % 10 == 0) {
        conf[i].push_back(j);
        conf[j].push_back(i);
      }
    }
  }
  ExpectSameSets(Enumerate(costs, conf, budget),
                 BruteForce(costs, conf, budget));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MbsPropertyTest, testing::Range(0, 25));

TEST(MbsTest, AllEmittedSetsAreBoundedAndConflictFree) {
  std::vector<double> costs{0.5, 0.5, 1.0, 1.5, 2.5};
  std::vector<std::vector<size_t>> conf(5);
  conf[1] = {2};
  conf[2] = {1};
  double budget = 3.0;
  EnumerateEach(
      costs, conf, budget, 100000, [&](const std::vector<size_t>& s) {
        double c = 0.0;
        for (size_t i : s) c += costs[i];
        EXPECT_LE(c, budget + 1e-9);
        for (size_t i : s) {
          for (size_t j : conf[i]) {
            EXPECT_EQ(std::count(s.begin(), s.end(), j), 0);
          }
        }
        return true;
      });
}

TEST(MbsTest, VisitReturningFalseStopsEnumeration) {
  std::vector<double> costs(8, 1.0);
  size_t seen = 0;
  MbsStats stats = EnumerateEach(
      costs, NoConflicts(8), 2.0, 100000, [&](const std::vector<size_t>&) {
        ++seen;
        return seen < 3;
      });
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ(stats.emitted, 3u);
  EXPECT_FALSE(stats.truncated);
}

TEST(MbsTest, MaxSetsTruncates) {
  std::vector<double> costs(10, 1.0);
  MbsStats stats = EnumerateEach(
      costs, NoConflicts(10), 3.0, 5,
      [](const std::vector<size_t>&) { return true; });
  EXPECT_EQ(stats.emitted, 5u);
  EXPECT_TRUE(stats.truncated);
}

// The admit predicate is asked once per distinct set S ∪ {j}: the DFS
// reaches many sets from several leaves (and in different member orders),
// and the enumerator answers repeats from its memo. The emitted family is
// still exactly the brute-force one under the same (downward-closed)
// admissibility rule. Instances exceed 64 operators too, so the memo key
// spans several bitset words.
class MbsAdmitMemoTest : public testing::TestWithParam<int> {};

TEST_P(MbsAdmitMemoTest, AdmitsEachDistinctSetOnceAndMatchesBruteForce) {
  int seed = GetParam();
  uint64_t state = static_cast<uint64_t>(seed) * 2246822519u + 7;
  auto next = [&]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % 1000;
  };
  size_t n = 4 + next() % 7;  // 4..10 ops
  std::vector<double> costs(n);
  for (double& c : costs) c = 0.5 + static_cast<double>(next() % 8) / 4.0;
  double budget = 2.0 + static_cast<double>(next() % 8) / 2.0;
  std::vector<std::vector<size_t>> conf(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (next() % 8 == 0) {
        conf[i].push_back(j);
        conf[j].push_back(i);
      }
    }
  }
  // A downward-closed "guard": at most `cap` flagged operators per set.
  std::vector<uint8_t> flagged(n);
  for (uint8_t& f : flagged) f = next() % 2;
  size_t cap = next() % 3;
  auto admissible = [&](const IndexSet& s) {
    size_t hits = 0;
    for (size_t i : s) hits += flagged[i];
    return hits <= cap;
  };

  std::map<IndexSet, size_t> asked;
  AdmitFn admit = [&](const std::vector<size_t>& cur, size_t j) {
    IndexSet s(cur.begin(), cur.end());
    EXPECT_EQ(s.size(), cur.size());
    EXPECT_EQ(s.count(j), 0u);
    s.insert(j);
    ++asked[s];
    return admissible(s);
  };
  ExpectSameSets(Enumerate(costs, conf, budget, 100000, admit),
                 BruteForce(costs, conf, budget, admissible));
  ASSERT_FALSE(asked.empty());
  for (const auto& [s, times] : asked) EXPECT_EQ(times, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MbsAdmitMemoTest, testing::Range(0, 20));

TEST(MbsTest, AdmitMemoKeysSetsBeyondOneWord) {
  // 130 zero-conflict operators, budget for two: the admit predicate sees
  // pairs whose members sit in different 64-bit words of the memo key.
  constexpr size_t kOps = 130;
  std::vector<double> costs(kOps, 1.0);
  std::map<IndexSet, size_t> asked;
  AdmitFn admit = [&](const std::vector<size_t>& cur, size_t j) {
    IndexSet s(cur.begin(), cur.end());
    s.insert(j);
    ++asked[s];
    // Forbid pairing operator 1 with operator 129 (words 0 and 2).
    return !(s.count(1) && s.count(129));
  };
  std::vector<IndexSet> sets =
      Enumerate(costs, NoConflicts(kOps), 2.0, 100000, admit);
  for (const auto& [s, times] : asked) EXPECT_EQ(times, 1u);
  EXPECT_EQ(std::count(sets.begin(), sets.end(), IndexSet{1, 129}), 0);
  EXPECT_EQ(std::count(sets.begin(), sets.end(), IndexSet{1, 128}), 1);
  EXPECT_EQ(std::count(sets.begin(), sets.end(), IndexSet{0, 129}), 1);
  // All pairs but the forbidden one.
  EXPECT_EQ(sets.size(), kOps * (kOps - 1) / 2 - 1);
}

}  // namespace
}  // namespace whyq
