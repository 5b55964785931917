// Knobs for the sharded fingerprint store, factored into their own header
// so engine.h (EngineOptions) can carry them without pulling in the whole
// store template.
#pragma once

#include <cstddef>
#include <string>

namespace scv::spec
{
  /// docs/SPEC.md "State store".
  struct StoreOptions
  {
    /// Soft ceiling on resident bytes: the store's plus, for the
    /// checker, its level arenas' chunks. 0 = unlimited. Engines treat
    /// crossing it like an exhausted work budget (the run ends
    /// incomplete); with a spill_dir it also sets the per-shard arena
    /// threshold above which maybe_spill() moves frozen record blocks
    /// to disk.
    size_t memory_budget_bytes = 0;
    /// Directory for per-shard spill files (created lazily, unlinked
    /// immediately, mmap'd back read-only). Empty = spill disabled.
    std::string spill_dir;

    [[nodiscard]] bool spill_enabled() const
    {
      return !spill_dir.empty();
    }
  };
}
