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
//     fingerprint -> local record index, 12 bytes per slot, one probe
//     per insert (find_or_insert), no per-insert allocation, amortized
//     power-of-two rehash under the shard lock.
//   * Hot arena: one 16-byte HotRecord (parent id, action, 24-bit depth,
//     8-bit origin) per state, in 1 MiB slab blocks that never move, so
//     record() references stay valid across inserts.
//   * Paths: reconstruct_path() rebuilds a state path by exact replay —
//     it re-expands each recorded action from the initial state and takes
//     the first successor whose key finds the chain's next id, which is
//     the emission admission stored.
//
// Global state IDs are stable across shards: id = (local_index <<
// shard_bits) | shard. Predecessor links stored in records use these
// global IDs, so path reconstruction walks parents across shard
// boundaries; a one-shard store's IDs are dense in insertion order.
//
// Concurrency contract (applies to size(), origin_count() and
// store_bytes(), all of which read atomics wait-free):
//   * insert() and find() may be called from any thread at any time; the
//     wait-free readers above are exact once writers are quiescent and a
//     monotone lower bound while they run.
//   * record() takes no lock: call it only for IDs the caller
//     inserted itself, or once all writers have been joined
//     (path reconstruction happens after the worker pool stops).
//   * reconstruct_path() is quiescent-only.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "spec/flat_fp_table.h"
#include "spec/spec.h"

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

    /// The shard count for a store `workers` threads insert into:
    /// over-provisioned (16x workers) so two workers rarely hash to the
    /// same stripe; one worker keeps a single dense shard.
    [[nodiscard]] static size_t shards_for_workers(unsigned workers)
    {
      return workers <= 1 ? 1 : 16 * static_cast<size_t>(workers);
    }

    explicit ShardedStateStore(size_t shard_count = 1)
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
      const uint32_t local = shard.count;
      const uint32_t hit = shard.index.find_or_insert(fp, local);
      if (hit != local)
      {
        return {encode(shard_idx, hit), false};
      }
      hot_slot(shard, local) = {
        parent, action, (std::min(depth, depth_limit) << 8) | origin};
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
      const uint32_t hit = shard.index.find(fp);
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
        shard.blocks[local >> block_shift][local & block_mask];
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

    /// Resident bytes: index slots + hot-arena blocks. Wait-free; exact
    /// when quiescent.
    [[nodiscard]] size_t store_bytes() const
    {
      size_t total = 0;
      for (const Shard& shard : shards_)
      {
        total += shard.index_bytes.load(std::memory_order_relaxed);
        total += shard.arena_bytes.load(std::memory_order_relaxed);
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

  private:
    // 65536 16-byte records = 1 MiB per slab block.
    static constexpr uint32_t block_shift = 16;
    static constexpr uint32_t block_records = uint32_t{1} << block_shift;
    static constexpr uint32_t block_mask = block_records - 1;
    static constexpr size_t block_bytes =
      static_cast<size_t>(block_records) * sizeof(HotRecord);

    struct Shard
    {
      mutable std::mutex mu;
      FlatFpTable index;
      std::vector<std::unique_ptr<HotRecord[]>> blocks;
      uint32_t count = 0;
      // first-discovery counts per admission origin (EngineId byte);
      // atomics so origin_count() is wait-free like size().
      std::array<std::atomic<uint64_t>, max_origins> origin_counts{};
      std::atomic<size_t> published{0};
      // Wait-free byte accounting for store_bytes().
      std::atomic<size_t> index_bytes{0};
      std::atomic<size_t> arena_bytes{0};
      std::atomic<uint64_t> rehashes{0};
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
        shard.blocks.push_back(
          std::make_unique_for_overwrite<HotRecord[]>(block_records));
        shard.arena_bytes.fetch_add(block_bytes, std::memory_order_relaxed);
      }
      return shard.blocks[local >> block_shift][local & block_mask];
    }

    std::vector<Shard> shards_;
    uint64_t shard_mask_ = 0;
    unsigned shard_bits_ = 0;
  };
}
