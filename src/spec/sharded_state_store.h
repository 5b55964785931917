// Sharded fingerprint store for parallel state-space exploration.
//
// TLC scales to many workers by sharing one fingerprint set across
// threads; this is the analogous structure for our checker. The store is
// split into N lock-striped shards (N a power of two), selected by the low
// bits of the state fingerprint. Each shard owns its own index and record
// arena, so concurrent inserts on different shards never contend and
// inserts on the same shard serialize on one small mutex.
//
// The store holds no state bodies (docs/SPEC.md "State store"): engines
// keep the bodies their frontier needs, and dedup is by the 64-bit key
// alone — TLC's trade, a genuine collision silently conflates two states
// (ExplorationStats::fp_collision_probability reports the estimate).
//   * Index: a flat open-addressing table (FlatFpTable) per shard —
//     fingerprint -> local record index, 12 bytes per slot, no per-insert
//     allocation, amortized power-of-two rehash under the shard lock.
//   * Hot arena: one 16-byte HotRecord (parent id, action, 24-bit depth,
//     8-bit origin) per state, in 1 MiB slab blocks that never move, so
//     record() references stay valid across inserts.
//   * Paths: reconstruct_path() rebuilds a state path by exact replay —
//     it re-expands each recorded action from the initial state and takes
//     the first successor whose key finds the chain's next id, which is
//     the emission admission stored.
//   * Spill: with StoreOptions::spill_dir set, maybe_spill() writes
//     frozen (full) hot-arena blocks to an unlinked per-shard temp file
//     and mmaps them back read-only, freeing the heap copy. Quiescent
//     callers only — engines spill at level barriers.
//
// Global state IDs are stable across shards: id = (local_index <<
// shard_bits) | shard. Predecessor links stored in records use these
// global IDs, so path reconstruction walks parents across shard
// boundaries; a one-shard store's IDs are dense in insertion order.
//
// Concurrency contract (applies to size(), origin_count() and
// store_bytes()/spilled_bytes(), all of which read atomics wait-free):
//   * insert() and find() may be called from any thread at any time; the
//     wait-free readers above are exact once writers are quiescent and a
//     monotone lower bound while they run.
//   * record() takes no lock: call it only for IDs the caller
//     inserted itself, or once all writers have been joined
//     (path reconstruction happens after the worker pool stops).
//   * maybe_spill(), reconstruct_path() and clear() are quiescent-only.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include "spec/flat_fp_table.h"
#include "spec/spec.h"
#include "spec/store_options.h"

namespace scv::spec
{
  template <SpecState S>
  class ShardedStateStore
  {
  public:
    using Id = uint64_t;
    static constexpr Id no_parent = ~Id{0};
    static constexpr uint32_t init_action = ~uint32_t{0};
    /// Depths saturate at 24 bits in the packed hot record.
    static constexpr uint32_t depth_limit = (uint32_t{1} << 24) - 1;

    /// Admissions are tagged with the discovering engine (an EngineId
    /// byte; engine.h defines the values) so a campaign sharing one store
    /// across checker, simulator and validator can report per-engine
    /// first-discovery counts next to the unioned total. Standalone
    /// engines leave it 0.
    static constexpr size_t max_origins = 4;

    /// The per-state bookkeeping: everything path reconstruction needs,
    /// packed to 16 bytes.
    struct HotRecord
    {
      Id parent; // no_parent for initial states
      uint32_t action; // index into the spec's action list; init_action
      uint32_t packed; // depth (24 bits, saturating) << 8 | origin
    };
    static_assert(sizeof(HotRecord) == 16, "hot arena packing");

    /// What record() hands out: the hot fields unpacked.
    struct RecordView
    {
      Id parent;
      uint32_t action;
      uint32_t depth;
      uint8_t origin;
    };

    struct InsertResult
    {
      Id id;
      bool inserted;
    };

    explicit ShardedStateStore(
      size_t shard_count = 1, StoreOptions options = {}) :
      options_(std::move(options))
    {
      size_t n = 1;
      while (n < shard_count)
      {
        n <<= 1;
      }
      shard_mask_ = n - 1;
      shard_bits_ = 0;
      while ((size_t{1} << shard_bits_) < n)
      {
        ++shard_bits_;
      }
      shards_ = std::vector<Shard>(n);
    }

    ~ShardedStateStore()
    {
      release_spill();
    }

    ShardedStateStore(const ShardedStateStore&) = delete;
    ShardedStateStore& operator=(const ShardedStateStore&) = delete;

    [[nodiscard]] size_t shard_count() const
    {
      return shards_.size();
    }

    [[nodiscard]] Id encode(size_t shard, size_t local) const
    {
      return (static_cast<Id>(local) << shard_bits_) | shard;
    }

    [[nodiscard]] size_t shard_of(Id id) const
    {
      return static_cast<size_t>(id & shard_mask_);
    }

    [[nodiscard]] size_t local_of(Id id) const
    {
      return static_cast<size_t>(id >> shard_bits_);
    }

    /// Which shard a fingerprint maps to.
    [[nodiscard]] size_t shard_for_fingerprint(uint64_t fp) const
    {
      // The low bits pick the shard; mix the high half in first so that
      // states whose fingerprints differ only above bit 32 still spread.
      // (The index's probe order uses the *high* bits of a multiplied
      // hash, so the two selections stay independent.)
      return static_cast<size_t>((fp ^ (fp >> 32)) & shard_mask_);
    }

    /// Records the state keyed `fp` unless that key is already present;
    /// either way returns its id. The key alone decides, so two distinct
    /// states sharing a key are conflated (the TLC trade). `origin` tags
    /// the discovering engine (first inserter wins the tag).
    InsertResult insert(
      uint64_t fp, Id parent, uint32_t action, uint32_t depth, uint8_t origin = 0)
    {
      const size_t shard_idx = shard_for_fingerprint(fp);
      Shard& shard = shards_[shard_idx];
      std::lock_guard<std::mutex> lock(shard.mu);
      const uint32_t hit = shard.index.first(fp);
      if (hit != FlatFpTable::empty_slot)
      {
        return {encode(shard_idx, hit), false};
      }
      const auto local = static_cast<uint32_t>(shard.count);
      hot_slot(shard, local) = {
        parent, action, (std::min(depth, depth_limit) << 8) | origin};
      shard.index.insert(fp, local);
      shard.index_bytes.store(
        shard.index.bytes(), std::memory_order_relaxed);
      shard.rehashes.store(
        shard.index.rehash_count(), std::memory_order_relaxed);
      shard.count++;
      shard.origin_counts[origin % max_origins].fetch_add(
        1, std::memory_order_relaxed);
      shard.published.store(shard.count, std::memory_order_release);
      return {encode(shard_idx, local), true};
    }

    /// The id stored under key `fp`, if any.
    [[nodiscard]] std::optional<Id> find(uint64_t fp) const
    {
      const size_t shard_idx = shard_for_fingerprint(fp);
      const Shard& shard = shards_[shard_idx];
      std::lock_guard<std::mutex> lock(shard.mu);
      const uint32_t hit = shard.index.first(fp);
      if (hit == FlatFpTable::empty_slot)
      {
        return std::nullopt;
      }
      return encode(shard_idx, hit);
    }

    /// Total states stored. Exact when quiescent; during a run it is a
    /// monotone lower bound (each shard's count is published atomically).
    [[nodiscard]] size_t size() const
    {
      size_t total = 0;
      for (const Shard& shard : shards_)
      {
        total += shard.published.load(std::memory_order_acquire);
      }
      return total;
    }

    /// Unsynchronized record access — see the concurrency contract above.
    [[nodiscard]] RecordView record(Id id) const
    {
      const Shard& shard = shards_[shard_of(id)];
      const auto local = static_cast<uint32_t>(local_of(id));
      const HotRecord& hot =
        shard.blocks[local >> block_shift].data[local & block_mask];
      return {
        hot.parent,
        hot.action,
        hot.packed >> 8,
        static_cast<uint8_t>(hot.packed & 0xFF)};
    }

    /// States first discovered by `origin` (the admission tag). Wait-free
    /// (atomic per-shard counters); exact when quiescent, a lower bound
    /// while writers run — the one quiescence contract size(),
    /// origin_count() and store_bytes() all share (see the header
    /// comment). Origin counts over all origins sum to size().
    [[nodiscard]] uint64_t origin_count(uint8_t origin) const
    {
      uint64_t total = 0;
      for (const Shard& shard : shards_)
      {
        total +=
          shard.origin_counts[origin % max_origins].load(
            std::memory_order_relaxed);
      }
      return total;
    }

    /// Resident bytes: index slots + heap (unspilled) hot-arena blocks.
    /// Wait-free; exact when quiescent.
    [[nodiscard]] size_t store_bytes() const
    {
      size_t total = 0;
      for (const Shard& shard : shards_)
      {
        total += shard.index_bytes.load(std::memory_order_relaxed);
        total += shard.heap_arena_bytes.load(std::memory_order_relaxed);
      }
      return total;
    }

    /// Hot-arena bytes moved to disk by maybe_spill() (and mmap'd back).
    [[nodiscard]] size_t spilled_bytes() const
    {
      size_t total = 0;
      for (const Shard& shard : shards_)
      {
        total += shard.spilled_bytes.load(std::memory_order_relaxed);
      }
      return total;
    }

    /// Index rehashes across all shards (amortized table doubling).
    [[nodiscard]] uint64_t rehash_count() const
    {
      uint64_t total = 0;
      for (const Shard& shard : shards_)
      {
        total += shard.rehashes.load(std::memory_order_relaxed);
      }
      return total;
    }

    /// Spills frozen hot-arena blocks to spill_dir while a shard's heap
    /// arena exceeds its budget share (memory_budget_bytes / shards; a
    /// zero budget spills every frozen block). Each spilled block is
    /// pwritten to an unlinked per-shard temp file, mmap'd back
    /// PROT_READ, and the heap copy freed — record() reads continue
    /// through the mapping unchanged. Quiescent callers only: engines
    /// call this at level barriers. No-op without a spill_dir.
    void maybe_spill()
    {
      if (!options_.spill_enabled())
      {
        return;
      }
      const size_t shard_budget =
        options_.memory_budget_bytes / shards_.size();
      for (Shard& shard : shards_)
      {
        // Only full ("frozen") blocks spill; the tail block still grows.
        const size_t frozen =
          shard.blocks.empty() ? 0 : shard.blocks.size() - 1;
        while (
          shard.first_unspilled < frozen &&
          shard.heap_arena_bytes.load(std::memory_order_relaxed) >
            shard_budget)
        {
          if (!spill_block(shard, shard.first_unspilled))
          {
            break; // I/O failure: keep the heap copy, stop trying
          }
          shard.first_unspilled++;
        }
      }
    }

    /// Rebuilds the concrete state path from an initial state to
    /// `target` (inclusive, root first) by exact replay. The chain's ids
    /// are read root-first; the root is the first of `inits` whose key
    /// finds it, and each later state is the first successor
    ///   successors(prev, action, emit)
    /// of the recorded action whose key finds the chain's next id.
    /// `key(state, depth)` must be the dedup key admission used (depth is
    /// the record's), and `successors` must emit in admission's order:
    /// admission stored the first emission with each key, so the replay
    /// picks the same state, bit for bit. Returns nullopt when a step
    /// finds no match — a root outside `inits`, or actions that do not
    /// replay deterministically.
    ///
    /// Quiescent callers only.
    template <class SuccFn, class KeyFn>
    [[nodiscard]] std::optional<std::vector<S>> reconstruct_path(
      Id target,
      const std::vector<S>& inits,
      SuccFn&& successors,
      KeyFn&& key) const
    {
      std::vector<Id> chain;
      for (Id cur = target; cur != no_parent; cur = record(cur).parent)
      {
        chain.push_back(cur);
      }
      std::reverse(chain.begin(), chain.end());

      std::vector<S> path;
      path.reserve(chain.size());
      const uint32_t root_depth = record(chain.front()).depth;
      for (const S& init : inits)
      {
        if (find(key(init, root_depth)) == chain.front())
        {
          path.push_back(init);
          break;
        }
      }
      if (path.empty())
      {
        return std::nullopt;
      }
      for (size_t k = 1; k < chain.size(); ++k)
      {
        const RecordView r = record(chain[k]);
        std::optional<S> next;
        successors(path.back(), r.action, Emit<S>([&](S&& succ) {
                     if (!next.has_value() &&
                         find(key(succ, r.depth)) == chain[k])
                     {
                       next.emplace(std::move(succ));
                     }
                   }));
        if (!next.has_value())
        {
          return std::nullopt;
        }
        path.push_back(std::move(*next));
      }
      return path;
    }

    void clear()
    {
      release_spill();
      for (Shard& shard : shards_)
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        shard.index.clear();
        shard.blocks.clear();
        shard.count = 0;
        shard.first_unspilled = 0;
        for (auto& c : shard.origin_counts)
        {
          c.store(0, std::memory_order_relaxed);
        }
        shard.index_bytes.store(0, std::memory_order_relaxed);
        shard.heap_arena_bytes.store(0, std::memory_order_relaxed);
        shard.spilled_bytes.store(0, std::memory_order_relaxed);
        shard.rehashes.store(0, std::memory_order_relaxed);
        shard.published.store(0, std::memory_order_release);
      }
    }

  private:
    // 65536 16-byte records = 1 MiB per slab block (a page multiple, so
    // spilled blocks mmap at block-aligned file offsets).
    static constexpr uint32_t block_shift = 16;
    static constexpr uint32_t block_records = uint32_t{1} << block_shift;
    static constexpr uint32_t block_mask = block_records - 1;
    static constexpr size_t block_bytes =
      static_cast<size_t>(block_records) * sizeof(HotRecord);

    /// One hot-arena slab. `data` points at the heap allocation until the
    /// block is spilled, then at the read-only mapping.
    struct Block
    {
      HotRecord* data = nullptr;
      std::unique_ptr<HotRecord[]> heap;
    };

    struct Shard
    {
      mutable std::mutex mu;
      FlatFpTable index;
      std::vector<Block> blocks;
      uint32_t count = 0;
      // first-discovery counts per admission origin (EngineId byte);
      // atomics so origin_count() is wait-free like size().
      std::array<std::atomic<uint64_t>, max_origins> origin_counts{};
      std::atomic<size_t> published{0};
      // Wait-free byte accounting for store_bytes()/spilled_bytes().
      std::atomic<size_t> index_bytes{0};
      std::atomic<size_t> heap_arena_bytes{0};
      std::atomic<size_t> spilled_bytes{0};
      std::atomic<uint64_t> rehashes{0};
      // Spill state: blocks [0, first_unspilled) live in the file.
      size_t first_unspilled = 0;
      int spill_fd = -1;
    };

    /// The hot slot for a fresh local index, allocating a new slab when
    /// the previous one is full. Caller holds the shard lock.
    HotRecord& hot_slot(Shard& shard, uint32_t local)
    {
      if ((local & block_mask) == 0)
      {
        // Uninitialized: every slot is written when its record is
        // admitted, so a mostly empty tail block (one per shard) stays
        // mostly unresident.
        Block block;
        block.heap = std::make_unique_for_overwrite<HotRecord[]>(block_records);
        block.data = block.heap.get();
        shard.blocks.push_back(std::move(block));
        shard.heap_arena_bytes.fetch_add(
          block_bytes, std::memory_order_relaxed);
      }
      return shard.blocks[local >> block_shift].data[local & block_mask];
    }

    /// Writes one frozen block to the shard's spill file and remaps it
    /// read-only. Returns false (leaving the heap copy in place) on any
    /// I/O failure.
    bool spill_block(Shard& shard, size_t block_idx)
    {
      if (shard.spill_fd < 0)
      {
        std::string tmpl = options_.spill_dir + "/scv-store-XXXXXX";
        const int fd = ::mkstemp(tmpl.data());
        if (fd < 0)
        {
          return false;
        }
        ::unlink(tmpl.c_str()); // anonymous: the fd is the only handle
        shard.spill_fd = fd;
      }
      Block& block = shard.blocks[block_idx];
      const auto offset =
        static_cast<off_t>(shard.spilled_bytes.load(std::memory_order_relaxed));
      size_t written = 0;
      const char* src = reinterpret_cast<const char*>(block.heap.get());
      while (written < block_bytes)
      {
        const ssize_t n = ::pwrite(
          shard.spill_fd,
          src + written,
          block_bytes - written,
          offset + static_cast<off_t>(written));
        if (n <= 0)
        {
          return false;
        }
        written += static_cast<size_t>(n);
      }
      void* mapped = ::mmap(
        nullptr, block_bytes, PROT_READ, MAP_SHARED, shard.spill_fd, offset);
      if (mapped == MAP_FAILED)
      {
        return false;
      }
      block.data = static_cast<HotRecord*>(mapped);
      block.heap.reset();
      shard.heap_arena_bytes.fetch_sub(
        block_bytes, std::memory_order_relaxed);
      shard.spilled_bytes.fetch_add(block_bytes, std::memory_order_relaxed);
      return true;
    }

    void release_spill()
    {
      for (Shard& shard : shards_)
      {
        for (size_t b = 0; b < shard.first_unspilled; ++b)
        {
          ::munmap(shard.blocks[b].data, block_bytes);
          shard.blocks[b].data = nullptr;
        }
        if (shard.spill_fd >= 0)
        {
          ::close(shard.spill_fd);
          shard.spill_fd = -1;
        }
      }
    }

    StoreOptions options_;
    std::vector<Shard> shards_;
    uint64_t shard_mask_ = 0;
    unsigned shard_bits_ = 0;
  };
}
