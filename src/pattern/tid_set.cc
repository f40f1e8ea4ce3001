#include "pattern/tid_set.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/telemetry.h"

namespace tnmine::pattern {

namespace {

/// Process-wide Normalize() policy (tests and the encoding benches hold
/// it fixed around a workload; production leaves it kAuto).
std::atomic<TidSet::EncodingPolicy> g_encoding_policy{
    TidSet::EncodingPolicy::kAuto};

/// Galloping lower_bound: exponential probe from `from`, then binary
/// search inside the bracketed range. Returns the first index with
/// data[i] >= key, and counts probe+bisection steps into *steps.
std::size_t Gallop(const std::vector<std::uint32_t>& data, std::size_t from,
                   std::uint32_t key, std::uint64_t* steps) {
  std::size_t bound = 1;
  while (from + bound < data.size() && data[from + bound] < key) {
    bound *= 2;
    ++*steps;
  }
  const auto first =
      data.begin() + static_cast<std::ptrdiff_t>(from + bound / 2);
  const auto last = data.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(from + bound, data.size()));
  const auto it = std::lower_bound(first, last, key);
  *steps += static_cast<std::uint64_t>(std::bit_width(
      static_cast<std::uint64_t>(last - first) + 1));
  return static_cast<std::size_t>(it - data.begin());
}

}  // namespace

void TidSet::SetEncodingPolicy(EncodingPolicy policy) {
  g_encoding_policy.store(policy, std::memory_order_relaxed);
}

TidSet::EncodingPolicy TidSet::GetEncodingPolicy() {
  return g_encoding_policy.load(std::memory_order_relaxed);
}

TidSet TidSet::FromSorted(std::vector<std::uint32_t> tids,
                          std::uint32_t universe) {
  TidSet set;
  set.sparse_ = std::move(tids);
  set.cardinality_ = set.sparse_.size();
  set.universe_ = universe;
  if (!set.sparse_.empty()) {
    TNMINE_DCHECK(
        std::is_sorted(set.sparse_.begin(), set.sparse_.end()) &&
        std::adjacent_find(set.sparse_.begin(), set.sparse_.end()) ==
            set.sparse_.end());
    set.universe_ = std::max(universe, set.sparse_.back() + 1);
  }
  set.Normalize();
  return set;
}

void TidSet::Append(std::uint32_t tid) {
  if (encoding_ == Encoding::kSparse) {
    TNMINE_DCHECK(sparse_.empty() || sparse_.back() < tid);
    sparse_.push_back(tid);
  } else {
    const std::size_t word = tid / common::kBitsPerWord;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    words_[word] |= std::uint64_t{1} << (tid % common::kBitsPerWord);
  }
  ++cardinality_;
  universe_ = std::max(universe_, tid + 1);
}

bool TidSet::Contains(std::uint32_t tid) const {
  if (encoding_ == Encoding::kSparse) {
    return std::binary_search(sparse_.begin(), sparse_.end(), tid);
  }
  const std::size_t word = tid / common::kBitsPerWord;
  if (word >= words_.size()) return false;
  return (words_[word] >> (tid % common::kBitsPerWord)) & 1;
}

void TidSet::Clear() {
  sparse_.clear();
  words_.clear();
  cardinality_ = 0;
  universe_ = 0;
  encoding_ = Encoding::kSparse;
}

void TidSet::IntersectBitmapBitmap(const TidSet& other) {
  const std::size_t common_words =
      std::min(words_.size(), other.words_.size());
  std::size_t count = 0;
  for (std::size_t w = 0; w < common_words; ++w) {
    words_[w] &= other.words_[w];
    count += static_cast<std::size_t>(std::popcount(words_[w]));
  }
  words_.resize(common_words);
  cardinality_ = count;
  universe_ = std::min(universe_, other.universe_);
  TNMINE_COUNTER_ADD("tidset/intersect_words", common_words);
}

void TidSet::IntersectSparseSparse(const TidSet& other) {
  // Walk the smaller operand, galloping through the larger one.
  const std::vector<std::uint32_t>& small =
      sparse_.size() <= other.sparse_.size() ? sparse_ : other.sparse_;
  const std::vector<std::uint32_t>& large =
      sparse_.size() <= other.sparse_.size() ? other.sparse_ : sparse_;
  std::vector<std::uint32_t> out;
  out.reserve(small.size());
  std::uint64_t steps = 0;
  std::size_t pos = 0;
  for (const std::uint32_t tid : small) {
    pos = Gallop(large, pos, tid, &steps);
    if (pos == large.size()) break;
    if (large[pos] == tid) {
      out.push_back(tid);
      ++pos;
    }
  }
  sparse_ = std::move(out);
  cardinality_ = sparse_.size();
  universe_ = std::min(universe_, other.universe_);
  TNMINE_COUNTER_ADD("tidset/gallop_steps", steps);
}

void TidSet::FilterSparseByBitmap(const TidSet& bitmap) {
  std::uint64_t steps = 0;
  std::size_t kept = 0;
  for (const std::uint32_t tid : sparse_) {
    ++steps;  // one bit probe per element
    if (bitmap.Contains(tid)) sparse_[kept++] = tid;
  }
  sparse_.resize(kept);
  cardinality_ = kept;
  TNMINE_COUNTER_ADD("tidset/gallop_steps", steps);
}

void TidSet::IntersectWith(const TidSet& other) {
  if (encoding_ == Encoding::kBitmap &&
      other.encoding_ == Encoding::kBitmap) {
    IntersectBitmapBitmap(other);
  } else if (encoding_ == Encoding::kSparse &&
             other.encoding_ == Encoding::kSparse) {
    IntersectSparseSparse(other);
  } else if (encoding_ == Encoding::kSparse) {
    FilterSparseByBitmap(other);
    universe_ = std::min(universe_, other.universe_);
  } else {
    // Bitmap ∩ sparse: the sparse side is the upper bound on the result,
    // so probe this bitmap per element rather than widening the sparse
    // operand to words.
    std::vector<std::uint32_t> out;
    out.reserve(std::min(cardinality_, other.cardinality_));
    std::uint64_t steps = 0;
    for (const std::uint32_t tid : other.sparse_) {
      ++steps;
      if (Contains(tid)) out.push_back(tid);
    }
    TNMINE_COUNTER_ADD("tidset/gallop_steps", steps);
    words_.clear();
    sparse_ = std::move(out);
    cardinality_ = sparse_.size();
    encoding_ = Encoding::kSparse;
    universe_ = std::min(universe_, other.universe_);
  }
  Normalize();
}

TidSet TidSet::Intersect(const TidSet& a, const TidSet& b) {
  TidSet out = a;
  out.IntersectWith(b);
  return out;
}

void TidSet::UnionWith(const TidSet& other) {
  if (other.Empty()) return;
  universe_ = std::max(universe_, other.universe_);
  if (encoding_ == Encoding::kBitmap ||
      other.encoding_ == Encoding::kBitmap) {
    ConvertTo(Encoding::kBitmap);
    const std::size_t words = common::WordsForBits(universe_);
    if (words_.size() < words) words_.resize(words, 0);
    if (other.encoding_ == Encoding::kBitmap) {
      for (std::size_t w = 0; w < other.words_.size(); ++w) {
        words_[w] |= other.words_[w];
      }
    } else {
      for (const std::uint32_t tid : other.sparse_) {
        words_[tid / common::kBitsPerWord] |=
            std::uint64_t{1} << (tid % common::kBitsPerWord);
      }
    }
    std::size_t count = 0;
    for (const std::uint64_t word : words_) {
      count += static_cast<std::size_t>(std::popcount(word));
    }
    cardinality_ = count;
  } else {
    std::vector<std::uint32_t> merged;
    merged.reserve(sparse_.size() + other.sparse_.size());
    std::merge(sparse_.begin(), sparse_.end(), other.sparse_.begin(),
               other.sparse_.end(), std::back_inserter(merged));
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    sparse_ = std::move(merged);
    cardinality_ = sparse_.size();
  }
  Normalize();
}

void TidSet::ConvertTo(Encoding encoding) {
  if (encoding == encoding_) return;
  if (encoding == Encoding::kBitmap) {
    words_.assign(common::WordsForBits(universe_), 0);
    for (const std::uint32_t tid : sparse_) {
      words_[tid / common::kBitsPerWord] |=
          std::uint64_t{1} << (tid % common::kBitsPerWord);
    }
    sparse_.clear();
    sparse_.shrink_to_fit();
  } else {
    std::vector<std::uint32_t> out;
    out.reserve(cardinality_);
    common::ForEachSetBit(std::span<const std::uint64_t>(words_),
                          [&](std::uint32_t tid) { out.push_back(tid); });
    sparse_ = std::move(out);
    words_.clear();
    words_.shrink_to_fit();
  }
  encoding_ = encoding;
}

void TidSet::Normalize() {
  switch (GetEncodingPolicy()) {
    case EncodingPolicy::kForceSparse:
      ConvertTo(Encoding::kSparse);
      return;
    case EncodingPolicy::kForceBitmap:
      ConvertTo(Encoding::kBitmap);
      return;
    case EncodingPolicy::kAuto:
      break;
  }
  const bool dense =
      cardinality_ > 0 && cardinality_ * kDensityDenominator >= universe_;
  ConvertTo(dense ? Encoding::kBitmap : Encoding::kSparse);
}

std::vector<std::uint32_t> TidSet::ToVector() const {
  std::vector<std::uint32_t> out;
  out.reserve(cardinality_);
  ForEach([&](std::uint32_t tid) { out.push_back(tid); });
  return out;
}

bool TidSet::operator==(const TidSet& other) const {
  if (cardinality_ != other.cardinality_) return false;
  auto it = begin();
  auto jt = other.begin();
  const auto it_end = end();
  for (; it != it_end; ++it, ++jt) {
    if (*it != *jt) return false;
  }
  return true;
}

}  // namespace tnmine::pattern
