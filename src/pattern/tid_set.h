#ifndef TNMINE_PATTERN_TID_SET_H_
#define TNMINE_PATTERN_TID_SET_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "common/bitwords.h"
#include "common/check.h"

namespace tnmine::pattern {

/// Compressed set of transaction ids (the supporting-transaction lists
/// FSG and the pattern registry carry), with two encodings behind one
/// interface — see DESIGN.md §12:
///
///  - kSparse: a sorted std::uint32_t array. Intersection gallops
///    (exponential probe + binary search) through the larger operand, so
///    sparse ∩ sparse costs O(small · log(large / small)).
///  - kBitmap: word-aligned 64-bit words over [0, universe()).
///    Cardinality is a popcount sum, iteration is a ctz walk, and
///    intersection is an in-place word AND.
///
/// Normalize() picks the cheaper encoding by density: the bitmap spends
/// universe/8 bytes regardless of cardinality, the sparse array 4 bytes
/// per element, so the bitmap wins when cardinality ≥ universe/32. All
/// observers (Cardinality, Contains, iteration order, equality) are
/// encoding-independent — mined output is byte-identical whichever
/// encoding a set happens to be in.
///
/// Sets are cheap to copy and safe to share read-only across threads;
/// mutation (Append/Intersect/Union/Convert) requires exclusive access.
class TidSet {
 public:
  enum class Encoding : std::uint8_t { kSparse, kBitmap };

  /// Process-wide override of Normalize()'s density choice, for the
  /// encoding-comparison benches and the byte-identity tests. Read with
  /// relaxed atomics so leases on worker threads may Normalize() while a
  /// test harness holds the policy fixed.
  enum class EncodingPolicy : std::uint8_t {
    kAuto,
    kForceSparse,
    kForceBitmap
  };
  static void SetEncodingPolicy(EncodingPolicy policy);
  static EncodingPolicy GetEncodingPolicy();
  /// RAII policy override (restores the previous policy on destruction).
  class ScopedEncodingPolicy {
   public:
    explicit ScopedEncodingPolicy(EncodingPolicy policy)
        : previous_(GetEncodingPolicy()) {
      SetEncodingPolicy(policy);
    }
    ~ScopedEncodingPolicy() { SetEncodingPolicy(previous_); }
    ScopedEncodingPolicy(const ScopedEncodingPolicy&) = delete;
    ScopedEncodingPolicy& operator=(const ScopedEncodingPolicy&) = delete;

   private:
    EncodingPolicy previous_;
  };

  /// Empty sparse set over an empty universe.
  TidSet() = default;

  /// Takes ownership of a strictly ascending tid vector and normalizes.
  /// `universe` is the exclusive tid bound (number of transactions); it
  /// is raised automatically if the data exceeds it.
  static TidSet FromSorted(std::vector<std::uint32_t> tids,
                           std::uint32_t universe);

  /// Appends a tid strictly greater than every current element (the
  /// streaming build the miners use). Keeps the current encoding; call
  /// Normalize() after the last append.
  void Append(std::uint32_t tid);

  bool Contains(std::uint32_t tid) const;
  std::size_t Cardinality() const { return cardinality_; }
  bool Empty() const { return cardinality_ == 0; }
  /// Exclusive upper bound on stored tids (bitmap bit capacity).
  std::uint32_t universe() const { return universe_; }
  Encoding encoding() const { return encoding_; }

  /// Removes every element (also resets the universe).
  void Clear();

  /// In-place intersection; afterwards the set is re-normalized.
  void IntersectWith(const TidSet& other);
  static TidSet Intersect(const TidSet& a, const TidSet& b);

  /// In-place union; afterwards the set is re-normalized.
  void UnionWith(const TidSet& other);

  /// Forces a specific encoding (no policy consultation).
  void ConvertTo(Encoding encoding);
  /// Re-encodes per the density rule (or the forced process policy).
  void Normalize();

  /// Exact footprint: the object plus every heap block it owns. This is
  /// what the miners charge against ResourceBudget memory ceilings.
  std::uint64_t MemoryBytes() const {
    return sizeof(*this) + sparse_.capacity() * sizeof(std::uint32_t) +
           words_.capacity() * sizeof(std::uint64_t);
  }

  /// Calls fn(tid) for each element, ascending (ctz walk on bitmaps).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (encoding_ == Encoding::kSparse) {
      for (const std::uint32_t tid : sparse_) fn(tid);
    } else {
      common::ForEachSetBit(std::span<const std::uint64_t>(words_), fn);
    }
  }

  std::vector<std::uint32_t> ToVector() const;

  /// Forward iteration over elements, ascending — works for range-for
  /// regardless of encoding.
  class const_iterator {
   public:
    using value_type = std::uint32_t;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    std::uint32_t operator*() const {
      if (sparse_ != nullptr) return *sparse_;
      return static_cast<std::uint32_t>(word_index_ * common::kBitsPerWord +
                                        std::countr_zero(current_word_));
    }
    const_iterator& operator++() {
      if (sparse_ != nullptr) {
        ++sparse_;
        return *this;
      }
      current_word_ &= current_word_ - 1;  // peel the lowest set bit
      SkipEmptyWords();
      return *this;
    }
    bool operator==(const const_iterator& other) const {
      if (sparse_ != nullptr || other.sparse_ != nullptr) {
        return sparse_ == other.sparse_;
      }
      return word_index_ == other.word_index_ &&
             current_word_ == other.current_word_;
    }

   private:
    friend class TidSet;
    explicit const_iterator(const std::uint32_t* sparse) : sparse_(sparse) {}
    const_iterator(const std::uint64_t* words, std::size_t num_words,
                   std::size_t word_index)
        : words_(words), num_words_(num_words), word_index_(word_index) {
      if (word_index_ < num_words_) {
        current_word_ = words_[word_index_];
        SkipEmptyWords();
      }
    }
    void SkipEmptyWords() {
      while (current_word_ == 0 && ++word_index_ < num_words_) {
        current_word_ = words_[word_index_];
      }
      if (word_index_ >= num_words_) current_word_ = 0;
    }

    const std::uint32_t* sparse_ = nullptr;
    const std::uint64_t* words_ = nullptr;
    std::size_t num_words_ = 0;
    std::size_t word_index_ = 0;
    std::uint64_t current_word_ = 0;
  };

  const_iterator begin() const {
    if (encoding_ == Encoding::kSparse) {
      return const_iterator(sparse_.data());
    }
    return const_iterator(words_.data(), words_.size(), 0);
  }
  const_iterator end() const {
    if (encoding_ == Encoding::kSparse) {
      return const_iterator(sparse_.data() + sparse_.size());
    }
    return const_iterator(words_.data(), words_.size(), words_.size());
  }

  /// Logical equality: same elements, regardless of encoding.
  bool operator==(const TidSet& other) const;

 private:
  /// Bitmap becomes the cheaper encoding at cardinality ≥ universe / 32
  /// (universe/8 bitmap bytes vs 4·cardinality sparse bytes).
  static constexpr std::size_t kDensityDenominator = 32;

  void IntersectSparseSparse(const TidSet& other);
  void IntersectBitmapBitmap(const TidSet& other);
  void FilterSparseByBitmap(const TidSet& bitmap);

  std::vector<std::uint32_t> sparse_;  // kSparse payload, ascending
  std::vector<std::uint64_t> words_;   // kBitmap payload
  std::uint32_t universe_ = 0;
  std::size_t cardinality_ = 0;
  Encoding encoding_ = Encoding::kSparse;
};

}  // namespace tnmine::pattern

#endif  // TNMINE_PATTERN_TID_SET_H_
