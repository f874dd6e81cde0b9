// Unit and property tests for views/clustering.h: complete linkage,
// dendrogram cuts, and the tightness guarantee the view search relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/random.h"
#include "data/synthetic.h"
#include "views/clustering.h"
#include "views/view_search.h"
#include "zig/profile.h"

namespace ziggy {
namespace {

// Helper: dense symmetric distance matrix from an upper-triangle spec.
std::vector<double> MakeMatrix(size_t n,
                               const std::vector<std::tuple<size_t, size_t, double>>& d,
                               double fill = 1.0) {
  std::vector<double> m(n * n, fill);
  for (size_t i = 0; i < n; ++i) m[i * n + i] = 0.0;
  for (const auto& [a, b, v] : d) {
    m[a * n + b] = v;
    m[b * n + a] = v;
  }
  return m;
}

std::vector<std::vector<size_t>> SortedClusters(std::vector<std::vector<size_t>> cs) {
  for (auto& c : cs) std::sort(c.begin(), c.end());
  std::sort(cs.begin(), cs.end());
  return cs;
}

// Reference implementation: the full upper-triangle rescan per merge
// (O(n^3)) the cached-row-minimum search replaced. The first active pair
// seeds the scan, so an all-+inf remainder merges that pair.
std::vector<DendrogramMerge> ReferenceLinkage(const std::vector<double>& distances,
                                              size_t n) {
  std::vector<double> d = distances;
  std::vector<size_t> active(n);
  for (size_t i = 0; i < n; ++i) active[i] = i;
  std::vector<bool> slot_active(n, true);
  std::vector<DendrogramMerge> merges;
  for (size_t step = 0; step + 1 < n; ++step) {
    bool found = false;
    double best = 0.0;
    size_t bi = 0;
    size_t bj = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!slot_active[i]) continue;
      for (size_t j = i + 1; j < n; ++j) {
        if (!slot_active[j]) continue;
        const double dist = d[i * n + j];
        if (!found || dist < best) {
          found = true;
          best = dist;
          bi = i;
          bj = j;
        }
      }
    }
    merges.push_back({active[bi], active[bj], best});
    for (size_t k = 0; k < n; ++k) {
      if (!slot_active[k] || k == bi || k == bj) continue;
      const double dk = std::max(d[k * n + bi], d[k * n + bj]);
      d[k * n + bi] = dk;
      d[bi * n + k] = dk;
    }
    slot_active[bj] = false;
    active[bi] = n + step;
  }
  return merges;
}

// Same merges: left, right and the bit pattern of every height.
void ExpectSameMerges(const Dendrogram& got,
                      const std::vector<DendrogramMerge>& want) {
  ASSERT_EQ(got.merges().size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    const DendrogramMerge& g = got.merges()[i];
    EXPECT_EQ(g.left, want[i].left) << "merge " << i;
    EXPECT_EQ(g.right, want[i].right) << "merge " << i;
    EXPECT_EQ(std::memcmp(&g.height, &want[i].height, sizeof(double)), 0)
        << "merge " << i << ": " << g.height << " vs " << want[i].height;
  }
}

void ExpectMatchesReference(const std::vector<double>& m, size_t n) {
  ExpectSameMerges(CompleteLinkage(m, n).ValueOrDie(), ReferenceLinkage(m, n));
}

// Symmetric n x n matrix with a zero diagonal; `levels` > 0 quantizes the
// entries to that many values (many ties).
std::vector<double> RandomMatrix(Rng* rng, size_t n, int levels) {
  std::vector<double> m(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double v = rng->Uniform(0.0, 1.0);
      if (levels > 0) v = std::floor(v * levels) / levels;
      m[i * n + j] = v;
      m[j * n + i] = v;
    }
  }
  return m;
}

TEST(CompleteLinkageOracleTest, RandomMatricesMatchReference) {
  Rng rng(41);
  for (size_t n = 1; n <= 64; ++n) {
    SCOPED_TRACE("n " + std::to_string(n));
    ExpectMatchesReference(RandomMatrix(&rng, n, 0), n);
  }
}

TEST(CompleteLinkageOracleTest, QuantizedMatricesMatchReference) {
  Rng rng(43);
  for (int levels : {1, 2, 3, 5}) {
    for (size_t n = 2; n <= 64; n += 3) {
      SCOPED_TRACE("levels " + std::to_string(levels) + ", n " +
                   std::to_string(n));
      ExpectMatchesReference(RandomMatrix(&rng, n, levels), n);
    }
  }
}

TEST(CompleteLinkageOracleTest, OecdDendrogramMatchesReference) {
  const Table table = MakeOecdDataset().ValueOrDie().table;
  const TableProfile profile = TableProfile::Compute(table).ValueOrDie();
  const size_t m = profile.num_columns();
  ASSERT_EQ(m, 519u);
  std::vector<double> dist(m * m, 0.0);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < m; ++j) {
      dist[i * m + j] = (i == j) ? 0.0 : 1.0 - profile.Dependency(i, j);
    }
  }
  ExpectSameMerges(BuildColumnDendrogram(profile).ValueOrDie(),
                   ReferenceLinkage(dist, m));
}

TEST(CompleteLinkageTest, InfiniteDistancesMergeFirstActivePair) {
  const double inf = std::numeric_limits<double>::infinity();
  const Dendrogram d = CompleteLinkage({0.0, inf, inf, 0.0}, 2).ValueOrDie();
  ASSERT_EQ(d.merges().size(), 1u);
  EXPECT_EQ(d.merges()[0].left, 0u);
  EXPECT_EQ(d.merges()[0].right, 1u);
  EXPECT_EQ(d.merges()[0].height, inf);
  // Every leaf ends up under the root.
  auto m = MakeMatrix(4, {{0, 1, 0.1}}, inf);
  const Dendrogram d4 = CompleteLinkage(m, 4).ValueOrDie();
  EXPECT_EQ(d4.LeavesUnder(4 + d4.merges().size() - 1),
            (std::vector<size_t>{0, 1, 2, 3}));
  ExpectMatchesReference(m, 4);
}

TEST(CompleteLinkageTest, NaNDistanceIsInvalidArgument) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Result<Dendrogram> d = CompleteLinkage({0.0, nan, nan, 0.0}, 2);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(CompleteLinkage(MakeMatrix(3, {{0, 2, nan}}, 0.5), 3).ok());
}

TEST(CompleteLinkageTest, MergesClosestPairFirst) {
  // 0-1 close (0.1), 2 far from both.
  auto m = MakeMatrix(3, {{0, 1, 0.1}, {0, 2, 0.9}, {1, 2, 0.8}});
  Dendrogram d = CompleteLinkage(m, 3).ValueOrDie();
  ASSERT_EQ(d.merges().size(), 2u);
  EXPECT_DOUBLE_EQ(d.merges()[0].height, 0.1);
  // First merge joins leaves 0 and 1.
  const auto& first = d.merges()[0];
  EXPECT_TRUE((first.left == 0 && first.right == 1) ||
              (first.left == 1 && first.right == 0));
  // Second merge height is the complete-linkage (max) distance: 0.9.
  EXPECT_DOUBLE_EQ(d.merges()[1].height, 0.9);
}

TEST(CompleteLinkageTest, SingleItem) {
  Dendrogram d = CompleteLinkage({0.0}, 1).ValueOrDie();
  EXPECT_EQ(d.merges().size(), 0u);
  EXPECT_EQ(d.CutAtHeight(0.5).size(), 1u);
}

TEST(CompleteLinkageTest, RejectsBadInput) {
  EXPECT_FALSE(CompleteLinkage({}, 0).ok());
  EXPECT_FALSE(CompleteLinkage({0.0, 1.0}, 3).ok());
}

TEST(DendrogramTest, LeavesUnderRootCoversAll) {
  auto m = MakeMatrix(4, {{0, 1, 0.1}, {2, 3, 0.2}});
  Dendrogram d = CompleteLinkage(m, 4).ValueOrDie();
  const size_t root = 4 + d.merges().size() - 1;
  EXPECT_EQ(d.LeavesUnder(root), (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(DendrogramTest, CutAtZeroGivesSingletons) {
  auto m = MakeMatrix(4, {{0, 1, 0.1}, {2, 3, 0.2}});
  Dendrogram d = CompleteLinkage(m, 4).ValueOrDie();
  EXPECT_EQ(d.CutAtHeight(0.0).size(), 4u);
}

TEST(DendrogramTest, CutAtInfinityGivesOneCluster) {
  auto m = MakeMatrix(4, {{0, 1, 0.1}, {2, 3, 0.2}});
  Dendrogram d = CompleteLinkage(m, 4).ValueOrDie();
  auto cs = d.CutAtHeight(10.0);
  ASSERT_EQ(cs.size(), 1u);
  EXPECT_EQ(SortedClusters(cs)[0], (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(DendrogramTest, CutSeparatesDistantGroups) {
  // Two tight pairs {0,1} and {2,3}, far apart.
  auto m = MakeMatrix(4, {{0, 1, 0.1}, {2, 3, 0.15}});
  Dendrogram d = CompleteLinkage(m, 4).ValueOrDie();
  auto cs = SortedClusters(d.CutAtHeight(0.5));
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs[0], (std::vector<size_t>{0, 1}));
  EXPECT_EQ(cs[1], (std::vector<size_t>{2, 3}));
}

TEST(DendrogramTest, CutPartitionsLeaves) {
  Rng rng(5);
  const size_t n = 24;
  std::vector<double> m(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double v = rng.Uniform(0.05, 1.0);
      m[i * n + j] = v;
      m[j * n + i] = v;
    }
  }
  Dendrogram d = CompleteLinkage(m, n).ValueOrDie();
  for (double h : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    auto cs = d.CutAtHeight(h);
    std::vector<size_t> all;
    for (const auto& c : cs) all.insert(all.end(), c.begin(), c.end());
    std::sort(all.begin(), all.end());
    ASSERT_EQ(all.size(), n) << "h=" << h;
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(all[i], i);
  }
}

// The property the view search depends on (Eq. 3): every cluster produced
// by cutting at height h has max pairwise distance <= h... for complete
// linkage with monotone merge heights this holds for the merge heights
// observed. We verify directly against the original matrix.
class CompleteLinkageTightness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompleteLinkageTightness, ClustersRespectDiameterBound) {
  Rng rng(GetParam());
  const size_t n = 16;
  std::vector<double> m(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double v = rng.Uniform(0.0, 1.0);
      m[i * n + j] = v;
      m[j * n + i] = v;
    }
  }
  Dendrogram d = CompleteLinkage(m, n).ValueOrDie();
  for (double h : {0.2, 0.4, 0.6, 0.8}) {
    for (const auto& cluster : d.CutAtHeight(h)) {
      for (size_t a = 0; a < cluster.size(); ++a) {
        for (size_t b = a + 1; b < cluster.size(); ++b) {
          EXPECT_LE(m[cluster[a] * n + cluster[b]], h + 1e-9)
              << "cluster diameter violated at h=" << h;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompleteLinkageTightness,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(DendrogramTest, MaxSizeSplitRespectsBudget) {
  // Five mutually close leaves: one cluster at h=0.5, but max_size=2 forces
  // splits.
  const size_t n = 5;
  std::vector<double> m(n * n, 0.2);
  for (size_t i = 0; i < n; ++i) m[i * n + i] = 0.0;
  Dendrogram d = CompleteLinkage(m, n).ValueOrDie();
  auto cs = d.CutAtHeightWithMaxSize(0.5, 2);
  std::vector<size_t> all;
  for (const auto& c : cs) {
    EXPECT_LE(c.size(), 2u);
    all.insert(all.end(), c.begin(), c.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(DendrogramTest, MaxSizeOneGivesSingletons) {
  const size_t n = 6;
  std::vector<double> m(n * n, 0.1);
  for (size_t i = 0; i < n; ++i) m[i * n + i] = 0.0;
  Dendrogram d = CompleteLinkage(m, n).ValueOrDie();
  EXPECT_EQ(d.CutAtHeightWithMaxSize(1.0, 1).size(), n);
}

TEST(DendrogramTest, AsciiRenderingMentionsLabels) {
  auto m = MakeMatrix(3, {{0, 1, 0.1}});
  Dendrogram d = CompleteLinkage(m, 3).ValueOrDie();
  const std::string ascii = d.ToAscii({"alpha", "beta", "gamma"});
  EXPECT_NE(ascii.find("alpha"), std::string::npos);
  EXPECT_NE(ascii.find("beta"), std::string::npos);
  EXPECT_NE(ascii.find("h="), std::string::npos);
}

TEST(CompleteLinkageTest, MergeHeightsAreMonotone) {
  Rng rng(77);
  const size_t n = 20;
  std::vector<double> m(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double v = rng.Uniform(0, 1);
      m[i * n + j] = v;
      m[j * n + i] = v;
    }
  }
  Dendrogram d = CompleteLinkage(m, n).ValueOrDie();
  for (size_t i = 1; i < d.merges().size(); ++i) {
    EXPECT_GE(d.merges()[i].height, d.merges()[i - 1].height - 1e-12);
  }
}

}  // namespace
}  // namespace ziggy
