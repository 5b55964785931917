// Flat open-addressing fingerprint index: the sharded state store's
// per-shard index.
//
// One table maps 64-bit fingerprints to 32-bit local record indices with
// linear probing over a power-of-two slot array. Compared to the previous
// std::unordered_map<uint64_t, std::vector<uint32_t>> per-shard index this
// removes the per-bucket node and per-chain vector allocations (~4x less
// index memory at scale) and makes lookups one cache-line walk in the
// common case.
//
// Layout: two parallel arrays (fps_, locals_) rather than one struct array,
// so a slot costs exactly 12 bytes instead of 16 with alignment padding.
// A slot is empty iff its local is empty_slot; fingerprints of empty slots
// are never read. The table is a set: each fingerprint has at most one
// entry, and find_or_insert() is the store's whole dedup check in one
// probe. There is no deletion: exploration stores only grow.
//
// The home slot uses the *high* bits of a Fibonacci-mixed fingerprint:
// shard selection already consumes the low bits of (fp ^ fp >> 32), so
// probing must not rely on them (all fingerprints in one shard share those
// bits).
//
// Not thread-safe: each store shard wraps its table in the shard mutex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

namespace scv::spec
{
  class FlatFpTable
  {
  public:
    /// locals_ value marking an empty slot; valid record indices must stay
    /// below it (2^32 - 1 records per shard).
    static constexpr uint32_t empty_slot = ~uint32_t{0};

    explicit FlatFpTable(size_t initial_capacity = 16)
    {
      size_t n = 16;
      while (n < initial_capacity)
      {
        n <<= 1;
      }
      allocate(n);
    }

    [[nodiscard]] size_t size() const
    {
      return size_;
    }

    [[nodiscard]] size_t capacity() const
    {
      return capacity_;
    }

    /// Amortized-rehash grows performed since construction.
    [[nodiscard]] uint64_t rehash_count() const
    {
      return rehashes_;
    }

    /// Bytes held by the slot arrays (12 per slot).
    [[nodiscard]] size_t bytes() const
    {
      return capacity_ * (sizeof(uint64_t) + sizeof(uint32_t));
    }

    /// The local stored under `fp`, or empty_slot.
    [[nodiscard]] uint32_t find(uint64_t fp) const
    {
      return locals_[probe(fp)];
    }

    /// The local already stored under `fp`, or — when `fp` is absent —
    /// stores `local` and returns it. One probe; a miss that would push
    /// the load factor past ~0.65 grows the table and places `fp` again.
    uint32_t find_or_insert(uint64_t fp, uint32_t local)
    {
      size_t i = probe(fp);
      if (locals_[i] != empty_slot)
      {
        return locals_[i];
      }
      if ((size_ + 1) * 20 >= capacity_ * 13)
      {
        rehash(capacity_ << 1);
        i = probe(fp);
      }
      fps_[i] = fp;
      locals_[i] = local;
      ++size_;
      return local;
    }

  private:
    [[nodiscard]] size_t home(uint64_t fp) const
    {
      // Fibonacci multiplicative hash; take the high bits so the home is
      // independent of the low shard-selection bits.
      return static_cast<size_t>(
        (fp * 0x9E3779B97F4A7C15ULL) >> (64 - capacity_log2_));
    }

    /// The slot holding `fp`, or the empty slot that ends its probe run.
    [[nodiscard]] size_t probe(uint64_t fp) const
    {
      size_t i = home(fp);
      while (locals_[i] != empty_slot && fps_[i] != fp)
      {
        i = (i + 1) & (capacity_ - 1);
      }
      return i;
    }

    void allocate(size_t n)
    {
      capacity_ = n;
      capacity_log2_ = 0;
      while ((size_t{1} << capacity_log2_) < n)
      {
        ++capacity_log2_;
      }
      fps_ = std::make_unique<uint64_t[]>(n);
      locals_ = std::make_unique<uint32_t[]>(n);
      for (size_t i = 0; i < n; ++i)
      {
        locals_[i] = empty_slot;
      }
    }

    void rehash(size_t new_capacity)
    {
      const size_t old_capacity = capacity_;
      std::unique_ptr<uint64_t[]> old_fps = std::move(fps_);
      std::unique_ptr<uint32_t[]> old_locals = std::move(locals_);
      allocate(new_capacity);
      for (size_t i = 0; i < old_capacity; ++i)
      {
        if (old_locals[i] != empty_slot)
        {
          const size_t j = probe(old_fps[i]);
          fps_[j] = old_fps[i];
          locals_[j] = old_locals[i];
        }
      }
      ++rehashes_;
    }

    size_t capacity_ = 0;
    unsigned capacity_log2_ = 0;
    std::unique_ptr<uint64_t[]> fps_;
    std::unique_ptr<uint32_t[]> locals_;
    size_t size_ = 0;
    uint64_t rehashes_ = 0;
  };
}
