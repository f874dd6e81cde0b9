// Selection: the result of evaluating a query predicate over a table.
//
// A Selection is a row bitmap partitioning the table into the user's
// selection (the "inside" tuples C^I of paper Figure 2) and its complement
// (the "outside" tuples C^O).
//
// Layout: one bit per row, packed into 64-bit words (row r lives in word
// r / 64, bit r % 64). All set-level operations (Count, And, Or, Invert,
// Jaccard, Fingerprint) run word-at-a-time; consumers that need the set
// rows iterate words and peel set bits with count-trailing-zeros, which is
// what makes the columnar sketch accumulation branch-light.

#ifndef ZIGGY_STORAGE_SELECTION_H_
#define ZIGGY_STORAGE_SELECTION_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/result.h"

namespace ziggy {

/// \brief Row bitmap over a table; one bit per row, packed 64 rows/word.
///
/// Count() is memoized (selections are counted repeatedly on the serving
/// path: cache-admission checks, near-miss patch budgeting, validation).
/// The memo is invalidated by every in-place mutation (Set) and
/// uses a relaxed atomic so concurrent readers of a shared immutable
/// Selection may race only on writing the *same* value.
class Selection {
 public:
  /// Rows per storage word.
  static constexpr size_t kWordBits = 64;

  Selection() = default;
  /// All rows unselected.
  explicit Selection(size_t num_rows)
      : num_rows_(num_rows), words_(NumWordsFor(num_rows), 0) {}

  Selection(const Selection& other)
      : num_rows_(other.num_rows_),
        words_(other.words_),
        count_memo_(other.count_memo_.load(std::memory_order_relaxed)) {}
  Selection(Selection&& other) noexcept
      : num_rows_(other.num_rows_),
        words_(std::move(other.words_)),
        count_memo_(other.count_memo_.load(std::memory_order_relaxed)) {
    other.num_rows_ = 0;
    other.count_memo_.store(kNoCount, std::memory_order_relaxed);
  }
  Selection& operator=(const Selection& other) {
    if (this != &other) {
      num_rows_ = other.num_rows_;
      words_ = other.words_;
      count_memo_.store(other.count_memo_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    }
    return *this;
  }
  Selection& operator=(Selection&& other) noexcept {
    if (this != &other) {
      num_rows_ = other.num_rows_;
      words_ = std::move(other.words_);
      count_memo_.store(other.count_memo_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
      other.num_rows_ = 0;
      other.count_memo_.store(kNoCount, std::memory_order_relaxed);
    }
    return *this;
  }

  /// All rows selected.
  static Selection All(size_t num_rows);
  /// Selection containing exactly the given row indices.
  static Selection FromIndices(size_t num_rows, const std::vector<size_t>& indices);
  /// From per-row flags (any nonzero byte selects the row).
  static Selection FromBytes(const std::vector<uint8_t>& flags);
  /// From packed words (the persistence load path). Fails when the word
  /// count does not match `num_rows` or the tail word has stray high bits
  /// (the invariant every whole-bitmap operation relies on).
  static Result<Selection> FromWords(size_t num_rows,
                                     std::vector<uint64_t> words);

  size_t num_rows() const { return num_rows_; }
  size_t num_words() const { return words_.size(); }

  bool Contains(size_t row) const {
    ZIGGY_DCHECK(row < num_rows_);
    return (words_[row / kWordBits] >> (row % kWordBits)) & 1u;
  }
  void Set(size_t row, bool on = true) {
    ZIGGY_DCHECK(row < num_rows_);
    const uint64_t mask = uint64_t{1} << (row % kWordBits);
    if (on) {
      words_[row / kWordBits] |= mask;
    } else {
      words_[row / kWordBits] &= ~mask;
    }
    InvalidateMemo();
  }

  /// Number of selected rows (popcount over words, memoized).
  size_t Count() const;

  /// Number of selected rows among rows [word_begin*64, word_end*64).
  size_t CountWordRange(size_t word_begin, size_t word_end) const;

  /// Complement selection.
  Selection Invert() const;

  /// Row-wise conjunction / disjunction; sizes must match.
  Selection And(const Selection& other) const;
  Selection Or(const Selection& other) const;

  /// Selected row indices, in ascending order.
  std::vector<size_t> ToIndices() const;

  /// Jaccard similarity |A∩B| / |A∪B| between two selections; 1.0 when both
  /// are empty. Used by the engine's shared-computation cache to detect
  /// near-duplicate exploration queries.
  double Jaccard(const Selection& other) const;

  /// |A XOR B|: number of rows on which the two selections disagree — the
  /// rows SelectionSketches::ApplyDelta patches to turn a cached sketch of
  /// `other` into one of `this`. Sizes must match.
  size_t HammingDistance(const Selection& other) const;

  /// Content fingerprint (a splitmix64 mix per packed word), used as a
  /// cache key. Callers compare the selection itself on a key hit: a
  /// fingerprint is not unique. Not persisted, so free to change.
  uint64_t Fingerprint() const;

  /// Raw packed words; the tail word's unused high bits are always zero.
  const std::vector<uint64_t>& words() const { return words_; }

  /// Calls `fn(row)` for every selected row in [word_begin*64, word_end*64)
  /// in ascending order. The hot-loop primitive: one ctz per set bit, no
  /// per-row branch on unselected rows.
  template <typename Fn>
  void ForEachSetBitInWords(size_t word_begin, size_t word_end, Fn&& fn) const {
    for (size_t w = word_begin; w < word_end; ++w) {
      uint64_t word = words_[w];
      const size_t base = w * kWordBits;
      while (word != 0) {
        const int bit = std::countr_zero(word);
        fn(base + static_cast<size_t>(bit));
        word &= word - 1;  // clear lowest set bit
      }
    }
  }

  /// ForEachSetBitInWords over the whole bitmap.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    ForEachSetBitInWords(0, words_.size(), std::forward<Fn>(fn));
  }

  bool operator==(const Selection& other) const {
    return num_rows_ == other.num_rows_ && words_ == other.words_;
  }

  static constexpr size_t NumWordsFor(size_t num_rows) {
    return (num_rows + kWordBits - 1) / kWordBits;
  }

 private:
  /// Sentinel for "count not memoized" (a real count never exceeds
  /// num_rows_, so SIZE_MAX is unreachable).
  static constexpr size_t kNoCount = static_cast<size_t>(-1);

  /// Zeroes the unused high bits of the tail word (invariant after every
  /// whole-bitmap operation).
  void ClearTailBits();

  void InvalidateMemo() { count_memo_.store(kNoCount, std::memory_order_relaxed); }

  size_t num_rows_ = 0;
  std::vector<uint64_t> words_;
  mutable std::atomic<size_t> count_memo_{kNoCount};
};

}  // namespace ziggy

#endif  // ZIGGY_STORAGE_SELECTION_H_
