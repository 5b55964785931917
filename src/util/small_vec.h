// A vector that keeps its first N elements inline.
//
// SmallVec<T, N> stores up to N elements inside the object and moves them
// to one heap block past N, so a value holding small SmallVecs copies
// without allocating. It implements the subset of std::vector that the
// specs use. Equality and ordering are std::vector's (element-wise,
// lexicographic), whatever the storage, so a SmallVec can key a sorted
// multiset exactly like the vector it replaces.
//
// A heap-backed SmallVec keeps its block when it shrinks, like
// std::vector keeps its capacity; copies start inline whenever the
// elements fit.
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <type_traits>
#include <utility>

#include "util/check.h"

namespace scv
{
  template <class T, size_t N>
  class SmallVec
  {
    static_assert(N > 0, "SmallVec needs at least one inline slot");

  public:
    using value_type = T;
    using size_type = size_t;
    using iterator = T*;
    using const_iterator = const T*;

    SmallVec() noexcept = default;

    SmallVec(const SmallVec& other)
    {
      std::uninitialized_copy(
        other.begin(), other.end(), reserve(other.size_));
      size_ = other.size_;
    }

    SmallVec(SmallVec&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>)
    {
      take(std::move(other));
    }

    SmallVec& operator=(const SmallVec& other)
    {
      if (this != &other)
      {
        assign(other.begin(), other.end());
      }
      return *this;
    }

    SmallVec& operator=(SmallVec&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>)
    {
      if (this != &other)
      {
        clear();
        if (other.on_heap())
        {
          release();
        }
        take(std::move(other));
      }
      return *this;
    }

    ~SmallVec()
    {
      clear();
      release();
    }

    [[nodiscard]] size_t size() const
    {
      return size_;
    }

    [[nodiscard]] bool empty() const
    {
      return size_ == 0;
    }

    [[nodiscard]] size_t capacity() const
    {
      return cap_;
    }

    T* data()
    {
      return on_heap() ? store_.heap : store_.items;
    }

    const T* data() const
    {
      return on_heap() ? store_.heap : store_.items;
    }

    T* begin()
    {
      return data();
    }

    T* end()
    {
      return data() + size_;
    }

    const T* begin() const
    {
      return data();
    }

    const T* end() const
    {
      return data() + size_;
    }

    T& operator[](size_t i)
    {
      return data()[i];
    }

    const T& operator[](size_t i) const
    {
      return data()[i];
    }

    T& back()
    {
      SCV_CHECK(size_ > 0);
      return data()[size_ - 1];
    }

    const T& back() const
    {
      SCV_CHECK(size_ > 0);
      return data()[size_ - 1];
    }

    void push_back(const T& value)
    {
      if (size_ == cap_)
      {
        T copy(value); // value may be one of the elements grow() moves
        std::construct_at(grow(size_ + 1) + size_, std::move(copy));
      }
      else
      {
        std::construct_at(data() + size_, value);
      }
      ++size_;
    }

    void push_back(T&& value)
    {
      if (size_ == cap_)
      {
        T moved(std::move(value));
        std::construct_at(grow(size_ + 1) + size_, std::move(moved));
      }
      else
      {
        std::construct_at(data() + size_, std::move(value));
      }
      ++size_;
    }

    /// Shrinks to n elements or appends value-initialized ones.
    void resize(size_t n)
    {
      if (n <= size_)
      {
        std::destroy(begin() + n, end());
      }
      else
      {
        T* slots = reserve(n);
        std::uninitialized_value_construct(slots + size_, slots + n);
      }
      size_ = static_cast<uint32_t>(n);
    }

    /// Replaces the contents with [first, last), which must not point into
    /// this vector.
    template <class It>
    void assign(It first, It last)
    {
      clear();
      const auto n = static_cast<size_t>(std::distance(first, last));
      std::uninitialized_copy(first, last, reserve(n));
      size_ = static_cast<uint32_t>(n);
    }

    /// Inserts before pos, keeping the order of the other elements.
    T* insert(const T* pos, T value)
    {
      const auto idx = static_cast<size_t>(pos - begin());
      SCV_CHECK(idx <= size_);
      T* slots = size_ == cap_ ? grow(size_ + 1) : data();
      T* at = slots + idx;
      T* last = slots + size_;
      if (at == last)
      {
        std::construct_at(at, std::move(value));
      }
      else
      {
        std::construct_at(last, std::move(*(last - 1)));
        std::move_backward(at, last - 1, last);
        *at = std::move(value);
      }
      ++size_;
      return at;
    }

    /// Removes the element at pos, keeping the order of the others.
    T* erase(const T* pos)
    {
      const auto idx = static_cast<size_t>(pos - begin());
      SCV_CHECK(idx < size_);
      T* at = data() + idx;
      std::move(at + 1, end(), at);
      std::destroy_at(end() - 1);
      --size_;
      return at;
    }

    /// Destroys every element; a heap block stays allocated.
    void clear()
    {
      std::destroy(begin(), end());
      size_ = 0;
    }

    friend bool operator==(const SmallVec& a, const SmallVec& b)
    {
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

    friend auto operator<=>(const SmallVec& a, const SmallVec& b)
    {
      return std::lexicographical_compare_three_way(
        a.begin(), a.end(), b.begin(), b.end());
    }

  private:
    [[nodiscard]] bool on_heap() const
    {
      return cap_ > N;
    }

    /// Storage with room for n elements.
    T* reserve(size_t n)
    {
      return n > cap_ ? grow(n) : data();
    }

    /// Moves the elements to a heap block of at least `need` slots and
    /// returns it.
    T* grow(size_t need)
    {
      SCV_CHECK(need <= UINT32_MAX);
      const size_t cap =
        std::min<size_t>(std::max<size_t>(need, 2 * size_t{cap_}), UINT32_MAX);
      T* block = std::allocator<T>().allocate(cap);
      std::uninitialized_move(begin(), end(), block);
      std::destroy(begin(), end());
      release();
      store_.heap = block;
      cap_ = static_cast<uint32_t>(cap);
      return block;
    }

    /// Frees the heap block, if any; the elements must be destroyed.
    void release()
    {
      if (on_heap())
      {
        std::allocator<T>().deallocate(store_.heap, cap_);
        cap_ = N;
      }
    }

    /// Takes other's elements into this empty, inline-or-larger vector:
    /// steals a heap block (this must be inline) or moves inline elements.
    void take(SmallVec&& other)
    {
      if (other.on_heap())
      {
        store_.heap = other.store_.heap;
        cap_ = other.cap_;
        size_ = other.size_;
        other.cap_ = N;
        other.size_ = 0;
        return;
      }
      std::uninitialized_move(other.begin(), other.end(), data());
      size_ = other.size_;
      other.clear();
    }

    /// The inline slots, or the heap block once the elements outgrow them.
    /// Only the first size_ slots hold objects; the members construct and
    /// destroy them. The pointer starts null so no path reads it
    /// uninitialized, even one the compiler cannot rule out (a value
    /// holding a never-touched SmallVec, copied through a const&).
    union Storage
    {
      Storage() : heap(nullptr) {}
      ~Storage() {}
      T* heap;
      T items[N];
    } store_;
    uint32_t size_ = 0;
    uint32_t cap_ = N;
  };
}
