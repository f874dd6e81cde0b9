#include "storage/selection.h"

#include <bit>

#include "common/logging.h"

namespace ziggy {

void Selection::ClearTailBits() {
  const size_t tail = num_rows_ % kWordBits;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << tail) - 1;
  }
}

Selection Selection::All(size_t num_rows) {
  Selection s(num_rows);
  for (uint64_t& w : s.words_) w = ~uint64_t{0};
  s.ClearTailBits();
  return s;
}

Selection Selection::FromIndices(size_t num_rows, const std::vector<size_t>& indices) {
  Selection s(num_rows);
  for (size_t i : indices) {
    ZIGGY_DCHECK(i < num_rows);
    s.Set(i);
  }
  return s;
}

Selection Selection::FromBytes(const std::vector<uint8_t>& flags) {
  Selection s(flags.size());
  for (size_t i = 0; i < flags.size(); ++i) {
    if (flags[i] != 0) s.Set(i);
  }
  return s;
}

Result<Selection> Selection::FromWords(size_t num_rows,
                                       std::vector<uint64_t> words) {
  if (words.size() != NumWordsFor(num_rows)) {
    return Status::ParseError("selection word count disagrees with row count");
  }
  const size_t tail_bits = num_rows % kWordBits;
  if (tail_bits != 0 && !words.empty() &&
      (words.back() >> tail_bits) != 0) {
    return Status::ParseError("selection tail word has stray high bits");
  }
  Selection s;
  s.num_rows_ = num_rows;
  s.words_ = std::move(words);
  return s;
}

size_t Selection::Count() const {
  const size_t memo = count_memo_.load(std::memory_order_relaxed);
  if (memo != kNoCount) return memo;
  size_t n = 0;
  for (uint64_t w : words_) n += static_cast<size_t>(std::popcount(w));
  count_memo_.store(n, std::memory_order_relaxed);
  return n;
}

size_t Selection::CountWordRange(size_t word_begin, size_t word_end) const {
  ZIGGY_DCHECK(word_begin <= word_end && word_end <= words_.size());
  size_t n = 0;
  for (size_t w = word_begin; w < word_end; ++w) {
    n += static_cast<size_t>(std::popcount(words_[w]));
  }
  return n;
}

Selection Selection::Invert() const {
  Selection out(num_rows_);
  for (size_t i = 0; i < words_.size(); ++i) out.words_[i] = ~words_[i];
  out.ClearTailBits();
  return out;
}

Selection Selection::And(const Selection& other) const {
  ZIGGY_CHECK(num_rows_ == other.num_rows_);
  Selection out(num_rows_);
  for (size_t i = 0; i < words_.size(); ++i) {
    out.words_[i] = words_[i] & other.words_[i];
  }
  return out;
}

Selection Selection::Or(const Selection& other) const {
  ZIGGY_CHECK(num_rows_ == other.num_rows_);
  Selection out(num_rows_);
  for (size_t i = 0; i < words_.size(); ++i) {
    out.words_[i] = words_[i] | other.words_[i];
  }
  return out;
}

std::vector<size_t> Selection::ToIndices() const {
  std::vector<size_t> out;
  out.reserve(Count());
  ForEachSetBit([&out](size_t row) { out.push_back(row); });
  return out;
}

size_t Selection::HammingDistance(const Selection& other) const {
  ZIGGY_CHECK(num_rows_ == other.num_rows_);
  size_t n = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    n += static_cast<size_t>(std::popcount(words_[i] ^ other.words_[i]));
  }
  return n;
}

double Selection::Jaccard(const Selection& other) const {
  ZIGGY_CHECK(num_rows_ == other.num_rows_);
  size_t inter = 0;
  size_t uni = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    inter += static_cast<size_t>(std::popcount(words_[i] & other.words_[i]));
    uni += static_cast<size_t>(std::popcount(words_[i] | other.words_[i]));
  }
  if (uni == 0) return 1.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

namespace {

/// splitmix64's finalizer: a bijection on 64-bit words in which every
/// input bit affects every output bit.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

}  // namespace

uint64_t Selection::Fingerprint() const {
  // Seeded with the row count so bitmaps of different lengths with equal
  // words (e.g. 63 vs 64 rows, none selected) do not collide trivially.
  // A full mix per word, not xor-then-multiply: a multiply carries a
  // flipped top bit straight through, so flips of bit 63 in two words
  // would cancel.
  uint64_t h = Mix64(static_cast<uint64_t>(num_rows_) ^ 0x9e3779b97f4a7c15ull);
  for (uint64_t w : words_) h = Mix64(h ^ w);
  return h;
}

}  // namespace ziggy
