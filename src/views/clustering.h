// Complete-linkage agglomerative clustering over columns.
//
// Paper §3, View Search: "it materializes the graph formed by the column's
// pairwise dependencies, and partitions it ... In our implementation, we
// used complete linkage clustering. This method is simple, well
// established, and it provides a dendrogram."
//
// Distance between columns is 1 − S (S = dependency in [0, 1]). The
// complete-linkage invariant — a cluster formed at height h has *maximum*
// pairwise distance ≤ h — is exactly what makes the tightness constraint of
// Eq. 3 hold: cutting the dendrogram at height 1 − MIN_tight yields
// clusters whose *minimum* pairwise dependency is ≥ MIN_tight.

#ifndef ZIGGY_VIEWS_CLUSTERING_H_
#define ZIGGY_VIEWS_CLUSTERING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace ziggy {

/// \brief One agglomeration step. Node ids: leaves are [0, n); merge i
/// creates node n + i.
struct DendrogramMerge {
  size_t left;
  size_t right;
  double height;  ///< complete-linkage distance at which the merge happened
};

/// \brief The full merge tree produced by agglomerative clustering.
class Dendrogram {
 public:
  Dendrogram(size_t num_leaves, std::vector<DendrogramMerge> merges)
      : num_leaves_(num_leaves), merges_(std::move(merges)) {}

  size_t num_leaves() const { return num_leaves_; }
  const std::vector<DendrogramMerge>& merges() const { return merges_; }

  /// Leaf ids under an arbitrary node id.
  std::vector<size_t> LeavesUnder(size_t node) const;

  /// Cuts the tree at `height`: returns the clusters (leaf-id lists) formed
  /// by keeping exactly the merges with height <= `height`.
  std::vector<std::vector<size_t>> CutAtHeight(double height) const;

  /// Like CutAtHeight, but additionally splits any cluster larger than
  /// `max_size` by descending the merge tree until every part fits. This
  /// enforces the view-size budget D while preserving tightness (children
  /// of a complete-linkage node are at least as tight as the node).
  std::vector<std::vector<size_t>> CutAtHeightWithMaxSize(double height,
                                                          size_t max_size) const;

  /// Multi-line ASCII rendering of the merge tree (the "visual support to
  /// help setting the parameter" of paper §3), with leaf labels.
  std::string ToAscii(const std::vector<std::string>& leaf_labels) const;

 private:
  /// Node ids of the cut forest's roots at `height`, ascending.
  std::vector<size_t> CutRoots(double height) const;

  size_t num_leaves_;
  std::vector<DendrogramMerge> merges_;
};

/// \brief Runs complete-linkage clustering on a dense symmetric distance
/// matrix (row-major n*n). Returns the dendrogram with n-1 merges. Each
/// merge joins two clusters at the smallest distance (+inf included); on
/// ties, the pair whose smallest leaf ids come first lexicographically. A
/// NaN entry is InvalidArgument.
Result<Dendrogram> CompleteLinkage(const std::vector<double>& distances, size_t n);

}  // namespace ziggy

#endif  // ZIGGY_VIEWS_CLUSTERING_H_
