// A sequence of transaction ids stored as runs of consecutive indices.
//
// The ids a client observes are the application transactions of one
// ledger prefix: (term, 1), (term, 2), ... with the term changing only at
// elections. TxIdRuns keeps such a sequence as runs of (term, first index,
// length), so a history-length list costs O(#terms) to store, copy, cut
// and compare. Any sequence is representable (a non-consecutive id starts
// a run of its own); push_back merges an id into the last run when it
// continues it, so the runs are canonical — maximal — and two sequences
// are equal exactly when their runs are.
//
// It offers the std::vector<TxId> subset its callers use: size, empty,
// forward iteration yielding TxId by value, push_back, clear, == (also
// against a std::vector<TxId>), plus prefix/truncate.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <vector>

#include "consensus/types.h"
#include "util/check.h"
#include "util/small_vec.h"

namespace scv::consensus
{
  class TxIdRuns
  {
  public:
    /// `length` consecutive ids (term, first), ..., (term, first +
    /// length - 1).
    struct Run
    {
      Term term = 0;
      Index first = 0;
      size_t length = 0;

      bool operator==(const Run&) const = default;
    };

    /// Inline runs: a client history usually spans one or two terms.
    static constexpr size_t kInlineRuns = 2;
    using Runs = SmallVec<Run, kInlineRuns>;

    class const_iterator
    {
    public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = TxId;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = TxId;

      const_iterator() = default;

      TxId operator*() const
      {
        return TxId{run_->term, run_->first + offset_};
      }

      const_iterator& operator++()
      {
        if (++offset_ == run_->length)
        {
          ++run_;
          offset_ = 0;
        }
        return *this;
      }

      const_iterator operator++(int)
      {
        const_iterator before = *this;
        ++*this;
        return before;
      }

      bool operator==(const const_iterator&) const = default;

    private:
      friend class TxIdRuns;

      const_iterator(const Run* run, size_t offset) :
        run_(run), offset_(offset)
      {}

      const Run* run_ = nullptr;
      size_t offset_ = 0;
    };
    using iterator = const_iterator;
    using value_type = TxId;

    TxIdRuns() = default;

    [[nodiscard]] size_t size() const
    {
      return size_;
    }

    [[nodiscard]] bool empty() const
    {
      return size_ == 0;
    }

    [[nodiscard]] const_iterator begin() const
    {
      return {runs_.begin(), 0};
    }

    [[nodiscard]] const_iterator end() const
    {
      return {runs_.end(), 0};
    }

    [[nodiscard]] const Runs& runs() const
    {
      return runs_;
    }

    void push_back(TxId id)
    {
      if (!runs_.empty())
      {
        Run& last = runs_.back();
        if (last.term == id.term && last.first + last.length == id.index)
        {
          ++last.length;
          ++size_;
          return;
        }
      }
      runs_.push_back(Run{id.term, id.index, 1});
      ++size_;
    }

    void clear()
    {
      runs_.clear();
      size_ = 0;
    }

    /// Keeps the first n ids (n <= size()).
    void truncate(size_t n)
    {
      SCV_CHECK(n <= size_);
      size_t kept = 0;
      size_t r = 0;
      while (kept < n)
      {
        kept += runs_[r++].length;
      }
      runs_.resize(r);
      if (kept > n)
      {
        runs_.back().length -= kept - n;
      }
      size_ = n;
    }

    /// The first n ids (n <= size()).
    [[nodiscard]] TxIdRuns prefix(size_t n) const
    {
      TxIdRuns out = *this;
      out.truncate(n);
      return out;
    }

    /// Whether the first n ids of a and b agree (n <= both sizes); the
    /// same as a.prefix(n) == b.prefix(n), without building either.
    [[nodiscard]] static bool same_prefix(
      const TxIdRuns& a, const TxIdRuns& b, size_t n)
    {
      SCV_CHECK(n <= a.size_ && n <= b.size_);
      // Canonical runs: the prefixes agree iff their runs, each clipped
      // to what is left of n, agree one by one.
      for (size_t r = 0; n > 0; ++r)
      {
        const Run& x = a.runs_[r];
        const Run& y = b.runs_[r];
        const size_t take = std::min(x.length, n);
        if (
          x.term != y.term || x.first != y.first ||
          take != std::min(y.length, n))
        {
          return false;
        }
        n -= take;
      }
      return true;
    }

    friend bool operator==(const TxIdRuns& a, const TxIdRuns& b)
    {
      return a.size_ == b.size_ && a.runs_ == b.runs_;
    }

    friend bool operator==(const TxIdRuns& a, const std::vector<TxId>& b)
    {
      return a.size_ == b.size() && std::equal(a.begin(), a.end(), b.begin());
    }

  private:
    Runs runs_;
    size_t size_ = 0;
  };
}
