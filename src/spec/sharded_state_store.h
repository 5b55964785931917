// Sharded fingerprint store for parallel state-space exploration.
//
// TLC scales to many workers by sharing one fingerprint set across
// threads; this is the analogous structure for our checker. The store is
// split into N lock-striped shards (N a power of two), selected by the low
// bits of the state fingerprint. Each shard owns its own index and record
// arena, so concurrent inserts on different shards never contend and
// inserts on the same shard serialize on one small mutex.
//
// Layout (docs/SPEC.md "Store modes"):
//   * Index: a flat open-addressing table (FlatFpTable) per shard —
//     fingerprint -> local record index, 12 bytes per slot, no per-insert
//     allocation, amortized power-of-two rehash under the shard lock.
//   * Hot arena: one 16-byte HotRecord (parent id, action, 24-bit depth,
//     8-bit origin) per state, in 1 MiB slab blocks that never move, so
//     record() references stay valid across inserts.
//   * Bodies: StoreMode::full keeps every S for the store's lifetime
//     (dedup falls back to operator== on fingerprint collision), in
//     per-worker arenas: insert() constructs the body in the admitting
//     worker's current chunk of raw storage (1024 bodies per chunk, so
//     one allocation per 1024 states), and the record keeps a pointer to
//     it in a slab beside its hot record. One thread allocates — and,
//     through release_arena(), frees — each worker's bodies.
//     StoreMode::fingerprint_only keeps bodies only for the frontier, in
//     a per-shard node map: engines call drop_body() once a state has
//     been expanded, dedup is by fingerprint alone, and paths are rebuilt
//     by replaying the recorded action chain from the initial states
//     (reconstruct_path()). Either way a stored body never moves, so
//     engines carry frontier states by the pointer insert() returns.
//   * Spill: with StoreOptions::spill_dir set, maybe_spill() writes
//     frozen (full) hot-arena blocks to an unlinked per-shard temp file
//     and mmaps them back read-only, freeing the heap copy. Quiescent
//     callers only — engines spill at level barriers.
//
// Global state IDs are stable across shards: id = (local_index <<
// shard_bits) | shard. Predecessor links stored in records use these
// global IDs, so counterexample reconstruction walks parents across shard
// boundaries; a one-shard store's IDs are dense in insertion order.
//
// Concurrency contract (applies to size(), origin_count() and
// store_bytes()/spilled_bytes(), all of which read atomics wait-free):
//   * insert() may be called from any thread at any time, provided no
//     two concurrent callers pass the same worker index; the wait-free
//     readers above are exact once writers are quiescent and a monotone
//     lower bound while they run.
//   * record() takes no lock: call it only for IDs the caller
//     inserted itself, or once all writers have been joined
//     (counterexample reconstruction happens after the worker pool
//     stops).
//   * drop_body() takes the shard lock, so it may run concurrently with
//     insert() (the simulator and the validator's coverage tap retire
//     bodies mid-run) — but never concurrently with a record() reader of
//     the same id.
//   * maybe_spill(), for_each(), reconstruct_path(), reserve_arenas()
//     and clear() are quiescent-only; release_arena() is teardown-only.
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
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
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

    /// The per-state bookkeeping that survives in fingerprint-only mode:
    /// everything path reconstruction needs, packed to 16 bytes.
    struct HotRecord
    {
      Id parent; // no_parent for initial states
      uint32_t action; // index into the spec's action list; init_action
      uint32_t packed; // depth (24 bits, saturating) << 8 | origin
    };
    static_assert(sizeof(HotRecord) == 16, "hot arena packing");

    /// What record() hands out: the hot fields unpacked plus the body
    /// pointer, which is null once a fingerprint-only store dropped the
    /// body (drop_body()).
    struct RecordView
    {
      Id parent;
      uint32_t action;
      uint32_t depth;
      uint8_t origin;
      const S* body;

      /// The state body; callers on full-mode stores (or frontier
      /// records) may dereference unconditionally.
      [[nodiscard]] const S& state() const
      {
        return *body;
      }
    };

    struct InsertResult
    {
      Id id;
      bool inserted;
      /// The stored body when `inserted` (stable until dropped or
      /// cleared); null for a duplicate.
      const S* body = nullptr;
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
      reserve_arenas(1);
    }

    ~ShardedStateStore()
    {
      release_spill();
    }

    ShardedStateStore(const ShardedStateStore&) = delete;
    ShardedStateStore& operator=(const ShardedStateStore&) = delete;

    [[nodiscard]] const StoreOptions& options() const
    {
      return options_;
    }

    [[nodiscard]] bool fingerprint_only() const
    {
      return options_.fingerprint_only();
    }

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

    /// Makes worker indices [0, workers) valid for insert(). Quiescent
    /// callers only: engines call it before starting their workers.
    void reserve_arenas(size_t workers)
    {
      while (arenas_.size() < workers)
      {
        arenas_.push_back(std::make_unique<Arena>());
      }
    }

    /// Teardown only: frees the bodies `worker` admitted, from the
    /// calling thread (the owning worker's). The store must be destroyed
    /// or cleared right after.
    void release_arena(size_t worker)
    {
      arenas_[worker]->release();
    }

    /// Inserts the state unless an equal state is already present.
    /// Full mode: fingerprint-first dedup, full state comparison only on
    /// fp collision. Fingerprint-only mode: the fingerprint alone decides
    /// — a genuine 64-bit collision silently conflates two states (the
    /// TLC trade; see StoreMode). `origin` tags the discovering engine
    /// (first inserter wins the tag). `worker` picks the body arena (see
    /// reserve_arenas()); concurrent callers must pass distinct indices.
    /// An rvalue `state` is moved into the store only when it is
    /// admitted: after a duplicate it is left as it was.
    template <class T>
      requires std::same_as<std::remove_cvref_t<T>, S>
    InsertResult insert(
      T&& state,
      uint64_t fp,
      Id parent,
      uint32_t action,
      uint32_t depth,
      uint8_t origin = 0,
      unsigned worker = 0)
    {
      const size_t shard_idx = shard_for_fingerprint(fp);
      Shard& shard = shards_[shard_idx];
      std::lock_guard<std::mutex> lock(shard.mu);
      if (options_.fingerprint_dedup())
      {
        const uint32_t hit = shard.index.first(fp);
        if (hit != FlatFpTable::empty_slot)
        {
          return {encode(shard_idx, hit), false};
        }
      }
      else
      {
        uint32_t hit = FlatFpTable::empty_slot;
        shard.index.find(fp, [&](uint32_t local) {
          if (*body_slot(shard, local) == state)
          {
            hit = local;
            return true;
          }
          return false;
        });
        if (hit != FlatFpTable::empty_slot)
        {
          return {encode(shard_idx, hit), false};
        }
      }

      const auto local = static_cast<uint32_t>(shard.count);
      hot_slot(shard, local) = {
        parent, action, (std::min(depth, depth_limit) << 8) | origin};
      const S* body = nullptr;
      if (fingerprint_only())
      {
        body = &shard.frontier_bodies
                  .try_emplace(local, std::forward<T>(state))
                  .first->second;
        shard.body_bytes.fetch_add(
          frontier_body_bytes, std::memory_order_relaxed);
      }
      else
      {
        body = arenas_[worker]->emplace(std::forward<T>(state));
        body_slot(shard, local) = body;
        shard.body_bytes.fetch_add(
          sizeof(S) + sizeof(const S*), std::memory_order_relaxed);
      }
      shard.index.insert(fp, local);
      shard.index_bytes.store(
        shard.index.bytes(), std::memory_order_relaxed);
      shard.rehashes.store(
        shard.index.rehash_count(), std::memory_order_relaxed);
      shard.count++;
      shard.origin_counts[origin % max_origins].fetch_add(
        1, std::memory_order_relaxed);
      shard.published.store(shard.count, std::memory_order_release);
      return {encode(shard_idx, local), true, body};
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
        static_cast<uint8_t>(hot.packed & 0xFF),
        body_ptr(shard, local)};
    }

    /// Fingerprint-only mode: retires the body of a state that has left
    /// the frontier (it was expanded, or will never be). Idempotent;
    /// no-op in full mode. Takes the shard lock, so it is safe against
    /// concurrent insert()s — but not against a concurrent
    /// record() reader of the same id (see the header contract).
    void drop_body(Id id)
    {
      if (!fingerprint_only())
      {
        return;
      }
      Shard& shard = shards_[shard_of(id)];
      std::lock_guard<std::mutex> lock(shard.mu);
      if (shard.frontier_bodies.erase(static_cast<uint32_t>(local_of(id))) >
          0)
      {
        shard.body_bytes.fetch_sub(
          frontier_body_bytes, std::memory_order_relaxed);
      }
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

    /// Resident bytes: index slots + heap (unspilled) hot-arena blocks +
    /// state bodies. Body bytes are an estimate (sizeof(S) per retained
    /// body plus map overhead for frontier bodies); states owning heap
    /// memory cost more than reported. The consensus State, for one,
    /// keeps its nodes in a vector sized to the model, so its sizeof
    /// covers only the vector handles, not the nodes. Wait-free; exact
    /// when quiescent.
    [[nodiscard]] size_t store_bytes() const
    {
      size_t total = 0;
      for (const Shard& shard : shards_)
      {
        total += shard.index_bytes.load(std::memory_order_relaxed);
        total += shard.heap_arena_bytes.load(std::memory_order_relaxed);
        total += shard.body_bytes.load(std::memory_order_relaxed);
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

    /// Visits every record as fn(id, view), shard by shard in insertion
    /// order; view.body is null for dropped bodies. Quiescent callers
    /// only (same contract as record()): a campaign seeds the next
    /// engine's frontier from the previous engine's discoveries strictly
    /// between runs.
    template <class Fn>
    void for_each(Fn&& fn) const
    {
      for (size_t shard_idx = 0; shard_idx < shards_.size(); ++shard_idx)
      {
        const Shard& shard = shards_[shard_idx];
        for (uint32_t local = 0; local < shard.count; ++local)
        {
          fn(encode(shard_idx, local), record(encode(shard_idx, local)));
        }
      }
    }

    /// Rebuilds the concrete state path from an initial state to
    /// `target` (inclusive, root first).
    ///
    /// Fast path: when every body along the parent chain is still live
    /// (always true in full mode), the chain is read directly —
    /// bit-identical to the pre-mode reconstruction.
    ///
    /// Replay path (fingerprint-only, bodies dropped): the recorded
    /// action chain is re-executed from `inits` through `successors`,
    /// which must emit the same successor set admission saw:
    ///   successors(state, action, depth_of_successor, emit)
    /// Nondeterministic actions fan out into a per-level candidate set
    /// (deduplicated by fingerprint); the final level is disambiguated
    /// against `target_hint` (defaults to the target's own body, which
    /// engines keep live — a violating or trace-final state was never
    /// expanded, so it never left the frontier). Returns nullopt when
    /// the chain cannot be replayed — a root seeded from outside `inits`
    /// (cross-engine campaign chains), or no candidate matching the
    /// target; callers fall back to partial diagnostics.
    ///
    /// Quiescent callers only.
    template <class SuccFn>
    [[nodiscard]] std::optional<std::vector<S>> reconstruct_path(
      Id target,
      const std::vector<S>& inits,
      SuccFn&& successors,
      const S* target_hint = nullptr) const
    {
      // Walk the chain once: action indices root->target, depths, and
      // whether every body is live.
      std::vector<uint32_t> actions;
      bool bodies_complete = true;
      uint32_t root_depth = 0;
      for (Id cur = target;;)
      {
        const RecordView r = record(cur);
        bodies_complete = bodies_complete && r.body != nullptr;
        if (r.parent == no_parent)
        {
          root_depth = r.depth;
          break;
        }
        actions.push_back(r.action);
        cur = r.parent;
      }
      std::reverse(actions.begin(), actions.end());

      if (bodies_complete)
      {
        std::vector<S> path;
        for (Id cur = target;;)
        {
          const RecordView r = record(cur);
          path.push_back(*r.body);
          if (r.parent == no_parent)
          {
            break;
          }
          cur = r.parent;
        }
        std::reverse(path.begin(), path.end());
        return path;
      }

      // Forward replay. levels[k] holds the candidate states consistent
      // with the first k actions of the chain, deduplicated by
      // fingerprint; parent indices let the winning candidate's concrete
      // path be walked back out.
      struct Node
      {
        S state;
        size_t parent;
      };
      std::vector<std::vector<Node>> levels(1);
      {
        std::unordered_set<uint64_t> seen;
        for (const S& init : inits)
        {
          if (seen.insert(fingerprint(init)).second)
          {
            levels[0].push_back({init, SIZE_MAX});
          }
        }
      }
      for (size_t k = 0; k < actions.size(); ++k)
      {
        std::vector<Node> next;
        std::unordered_set<uint64_t> seen;
        const std::vector<Node>& prev = levels.back();
        for (size_t i = 0; i < prev.size(); ++i)
        {
          successors(
            prev[i].state,
            actions[k],
            root_depth + static_cast<uint32_t>(k) + 1,
            Emit<S>([&](S&& succ) {
              if (seen.insert(fingerprint(succ)).second)
              {
                next.push_back({std::move(succ), i});
              }
            }));
        }
        if (next.empty())
        {
          return std::nullopt;
        }
        levels.push_back(std::move(next));
      }

      const S* want =
        target_hint != nullptr ? target_hint : record(target).body;
      size_t pick = SIZE_MAX;
      const std::vector<Node>& finals = levels.back();
      if (want != nullptr)
      {
        for (size_t i = 0; i < finals.size() && pick == SIZE_MAX; ++i)
        {
          if (finals[i].state == *want)
          {
            pick = i;
          }
        }
      }
      else if (finals.size() == 1)
      {
        // No disambiguator, but the chain replays deterministically.
        pick = 0;
      }
      if (pick == SIZE_MAX)
      {
        return std::nullopt;
      }

      std::vector<S> path;
      size_t idx = pick;
      for (size_t k = levels.size(); k-- > 0;)
      {
        path.push_back(levels[k][idx].state);
        idx = levels[k][idx].parent;
      }
      std::reverse(path.begin(), path.end());
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
        shard.frontier_bodies.clear();
        shard.count = 0;
        shard.first_unspilled = 0;
        for (auto& c : shard.origin_counts)
        {
          c.store(0, std::memory_order_relaxed);
        }
        shard.index_bytes.store(0, std::memory_order_relaxed);
        shard.heap_arena_bytes.store(0, std::memory_order_relaxed);
        shard.body_bytes.store(0, std::memory_order_relaxed);
        shard.spilled_bytes.store(0, std::memory_order_relaxed);
        shard.rehashes.store(0, std::memory_order_relaxed);
        shard.published.store(0, std::memory_order_release);
      }
      for (size_t w = 0; w < arenas_.size(); ++w)
      {
        release_arena(w);
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
    /// Estimated resident cost of one frontier body (map node + state).
    static constexpr size_t frontier_body_bytes = sizeof(S) + 48;

    /// One hot-arena slab. `data` points at the heap allocation until the
    /// block is spilled, then at the read-only mapping. Full mode keeps
    /// the block's body pointers alongside (never spilled).
    struct Block
    {
      HotRecord* data = nullptr;
      std::unique_ptr<HotRecord[]> heap;
      std::unique_ptr<const S*[]> bodies;
    };

    /// One worker's full-mode bodies, constructed in place in chunks of
    /// raw storage that never move. Cache-line aligned so neighbouring
    /// workers' fill cursors do not share a line.
    class alignas(64) Arena
    {
    public:
      static constexpr size_t chunk_bodies = 1024;

      Arena() = default;
      Arena(const Arena&) = delete;
      Arena& operator=(const Arena&) = delete;

      ~Arena()
      {
        release();
      }

      template <class T>
      const S* emplace(T&& state)
      {
        if (chunks_.empty() || used_ == chunk_bodies)
        {
          chunks_.push_back(std::allocator<S>{}.allocate(chunk_bodies));
          used_ = 0;
        }
        S* slot = chunks_.back() + used_;
        std::construct_at(slot, std::forward<T>(state));
        ++used_;
        return slot;
      }

      /// Destroys every body and frees every chunk.
      void release()
      {
        for (size_t c = 0; c < chunks_.size(); ++c)
        {
          std::destroy_n(
            chunks_[c], c + 1 == chunks_.size() ? used_ : chunk_bodies);
          std::allocator<S>{}.deallocate(chunks_[c], chunk_bodies);
        }
        std::vector<S*>().swap(chunks_);
        used_ = 0;
      }

    private:
      std::vector<S*> chunks_;
      /// Bodies constructed in the last chunk.
      size_t used_ = 0;
    };

    struct Shard
    {
      mutable std::mutex mu;
      FlatFpTable index;
      std::vector<Block> blocks;
      uint32_t count = 0;
      // StoreMode::fingerprint_only: bodies for frontier records only.
      // (Node-based map: references stay valid across inserts, so
      // engines can carry frontier states by pointer.)
      std::unordered_map<uint32_t, S> frontier_bodies;
      // first-discovery counts per admission origin (EngineId byte);
      // atomics so origin_count() is wait-free like size().
      std::array<std::atomic<uint64_t>, max_origins> origin_counts{};
      std::atomic<size_t> published{0};
      // Wait-free byte accounting for store_bytes()/spilled_bytes().
      std::atomic<size_t> index_bytes{0};
      std::atomic<size_t> heap_arena_bytes{0};
      std::atomic<size_t> body_bytes{0};
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
        if (!fingerprint_only())
        {
          block.bodies =
            std::make_unique_for_overwrite<const S*[]>(block_records);
        }
        shard.blocks.push_back(std::move(block));
        shard.heap_arena_bytes.fetch_add(
          block_bytes, std::memory_order_relaxed);
      }
      return shard.blocks[local >> block_shift].data[local & block_mask];
    }

    /// Full mode: the body pointer slot of an allocated record.
    static const S*& body_slot(const Shard& shard, uint32_t local)
    {
      return shard.blocks[local >> block_shift].bodies[local & block_mask];
    }

    [[nodiscard]] const S* body_ptr(const Shard& shard, uint32_t local) const
    {
      if (!fingerprint_only())
      {
        return body_slot(shard, local);
      }
      const auto it = shard.frontier_bodies.find(local);
      return it != shard.frontier_bodies.end() ? &it->second : nullptr;
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
    std::vector<std::unique_ptr<Arena>> arenas_;
    uint64_t shard_mask_ = 0;
    unsigned shard_bits_ = 0;
  };
}
