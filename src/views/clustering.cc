#include "views/clustering.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/logging.h"

namespace ziggy {

std::vector<size_t> Dendrogram::LeavesUnder(size_t node) const {
  std::vector<size_t> out;
  std::vector<size_t> stack{node};
  while (!stack.empty()) {
    const size_t cur = stack.back();
    stack.pop_back();
    if (cur < num_leaves_) {
      out.push_back(cur);
    } else {
      const DendrogramMerge& m = merges_[cur - num_leaves_];
      stack.push_back(m.left);
      stack.push_back(m.right);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<size_t> Dendrogram::CutRoots(double height) const {
  // Roots of the cut forest: nodes whose own merge height is <= height but
  // whose parent's is > height (or that have no parent).
  std::vector<size_t> parent(num_leaves_ + merges_.size(),
                             std::numeric_limits<size_t>::max());
  for (size_t i = 0; i < merges_.size(); ++i) {
    parent[merges_[i].left] = num_leaves_ + i;
    parent[merges_[i].right] = num_leaves_ + i;
  }
  auto node_ok = [&](size_t node) {
    return node < num_leaves_ || merges_[node - num_leaves_].height <= height;
  };
  std::vector<size_t> roots;
  const size_t total = num_leaves_ + merges_.size();
  for (size_t node = 0; node < total; ++node) {
    if (!node_ok(node)) continue;
    const size_t par = parent[node];
    if (par == std::numeric_limits<size_t>::max() || !node_ok(par)) {
      roots.push_back(node);
    }
  }
  return roots;
}

std::vector<std::vector<size_t>> Dendrogram::CutAtHeight(double height) const {
  std::vector<std::vector<size_t>> clusters;
  for (size_t root : CutRoots(height)) clusters.push_back(LeavesUnder(root));
  return clusters;
}

std::vector<std::vector<size_t>> Dendrogram::CutAtHeightWithMaxSize(
    double height, size_t max_size) const {
  ZIGGY_CHECK(max_size >= 1);
  // Descend from the cut's roots until every part fits.
  std::vector<std::vector<size_t>> clusters;
  std::vector<size_t> stack = CutRoots(height);
  while (!stack.empty()) {
    const size_t node = stack.back();
    stack.pop_back();
    std::vector<size_t> leaves = LeavesUnder(node);
    if (leaves.size() <= max_size || node < num_leaves_) {
      clusters.push_back(std::move(leaves));
    } else {
      const DendrogramMerge& m = merges_[node - num_leaves_];
      stack.push_back(m.left);
      stack.push_back(m.right);
    }
  }
  return clusters;
}

std::string Dendrogram::ToAscii(const std::vector<std::string>& leaf_labels) const {
  ZIGGY_CHECK(leaf_labels.size() == num_leaves_);
  std::ostringstream os;
  // Render as an indented merge list, deepest merges first.
  for (size_t i = 0; i < merges_.size(); ++i) {
    const DendrogramMerge& m = merges_[i];
    auto render_node = [&](size_t node) -> std::string {
      if (node < num_leaves_) return leaf_labels[node];
      return "#" + std::to_string(node - num_leaves_);
    };
    os << "#" << i << " (h=" << m.height << "): " << render_node(m.left) << " + "
       << render_node(m.right) << "\n";
  }
  return os.str();
}

Result<Dendrogram> CompleteLinkage(const std::vector<double>& distances, size_t n) {
  if (n == 0) return Status::InvalidArgument("cannot cluster zero items");
  if (distances.size() != n * n) {
    return Status::InvalidArgument("distance matrix size does not match n");
  }
  for (double v : distances) {
    if (std::isnan(v)) {
      return Status::InvalidArgument("distance matrix contains NaN");
    }
  }
  // Lance-Williams update for complete linkage on a working copy of the
  // matrix: d(k, i∪j) = max(d(k, i), d(k, j)). Each merge picks the
  // lexicographically first active slot pair (i, j), i < j, at the
  // smallest distance (+inf included). To find it without rescanning the
  // upper triangle, every active slot i caches `nearest[i]`, the first
  // active j > i at its row minimum `row_min[i]`; the pair is then the
  // first row at the smallest row minimum. A merge of slots bi < bj
  // rewrites row bi and retires slot bj, so row bi and the rows whose
  // cached neighbour was bi or bj are rescanned. Any other row keeps its
  // neighbour: the merge only raises d(k, bi), which was not the row's
  // first minimum. O(n^2) unless many rows share a neighbour.
  constexpr size_t kNone = std::numeric_limits<size_t>::max();
  std::vector<double> d = distances;
  std::vector<size_t> node_of_slot(n);  // current cluster node id per slot
  for (size_t i = 0; i < n; ++i) node_of_slot[i] = i;
  std::vector<bool> slot_active(n, true);
  std::vector<size_t> nearest(n, kNone);  // kNone: no active slot after i
  std::vector<double> row_min(n, std::numeric_limits<double>::infinity());
  const auto rescan = [&](size_t i) {
    nearest[i] = kNone;
    for (size_t j = i + 1; j < n; ++j) {
      if (!slot_active[j]) continue;
      const double dist = d[i * n + j];
      if (nearest[i] == kNone || dist < row_min[i]) {
        nearest[i] = j;
        row_min[i] = dist;
      }
    }
  };
  for (size_t i = 0; i < n; ++i) rescan(i);
  std::vector<DendrogramMerge> merges;
  merges.reserve(n - 1);

  for (size_t step = 0; step + 1 < n; ++step) {
    size_t bi = kNone;
    for (size_t i = 0; i < n; ++i) {
      if (!slot_active[i] || nearest[i] == kNone) continue;
      if (bi == kNone || row_min[i] < row_min[bi]) bi = i;
    }
    const size_t bj = nearest[bi];
    // Merge slot bj into slot bi; bi now represents the new cluster node.
    merges.push_back({node_of_slot[bi], node_of_slot[bj], row_min[bi]});
    for (size_t k = 0; k < n; ++k) {
      if (!slot_active[k] || k == bi || k == bj) continue;
      const double dk = std::max(d[k * n + bi], d[k * n + bj]);
      d[k * n + bi] = dk;
      d[bi * n + k] = dk;
    }
    slot_active[bj] = false;
    node_of_slot[bi] = n + step;
    for (size_t k = 0; k < n; ++k) {
      if (!slot_active[k] || nearest[k] == kNone) continue;
      if (k == bi || nearest[k] == bi || nearest[k] == bj) rescan(k);
    }
  }
  return Dendrogram(n, std::move(merges));
}

}  // namespace ziggy
