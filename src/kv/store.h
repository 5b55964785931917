// Versioned key-value store with write-set transactions and hooks.
//
// Models the application state machine that CCF replicates, including the
// governance map (`ccf.gov.nodes.info`) whose updates are configuration
// transactions (§2.1). Consensus notifies the store when an entry is
// *ordered* (appended to the local log) and when it is *committed*; hooks
// can subscribe to either notification per key prefix — this mirrors the
// hook mechanism implicated in the premature-retirement bug (§7).
//
// The store supports rollback to an earlier version, required when a
// follower truncates a conflicting log suffix, and snapshot images: a
// deterministic byte serialization of the materialized map at the commit
// version, from which a joining replica reconstructs the store without
// replaying the compacted history ("no reads below a hole": versions at or
// below the image base have no per-version write sets).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/small_vec.h"

namespace scv::kv
{
  using Version = uint64_t;

  /// One key write; nullopt value means deletion.
  struct KeyWrite
  {
    std::string key;
    std::optional<std::string> value;

    bool operator==(const KeyWrite&) const = default;
  };

  /// The replicated effect of one transaction.
  struct WriteSet
  {
    std::vector<KeyWrite> writes;

    bool operator==(const WriteSet&) const = default;
  };

  /// Called with (version, write set) when an ordered/committed transaction
  /// touches a subscribed prefix.
  using Hook = std::function<void(Version, const WriteSet&)>;

  class Store
  {
  public:
    /// Current value of a key, or nullopt if absent.
    [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

    /// Value of a key as of a historical version: O(log writes to that
    /// key), whatever the length of the history, once the version index
    /// has caught up with the versions applied since the last read. The
    /// catch-up writes the store's index cache, so one store must not be
    /// read from two threads at once.
    [[nodiscard]] std::optional<std::string> get_at(
      const std::string& key, Version version) const;

    /// All present keys with the given prefix, in lexicographic order.
    [[nodiscard]] std::vector<std::string> keys_with_prefix(
      const std::string& prefix) const;

    [[nodiscard]] Version current_version() const
    {
      return base_version_ + applied_.size();
    }

    [[nodiscard]] Version commit_version() const
    {
      return commit_version_;
    }

    /// Version of the snapshot image this store was installed from; 0 for
    /// a store built by full replay. Historical reads below this version
    /// are unavailable (the hole below a snapshot).
    [[nodiscard]] Version base_version() const
    {
      return base_version_;
    }

    /// The fully materialized key-value map as of `version` (latest write
    /// wins, deletions erased). The basis of snapshot images.
    [[nodiscard]] std::map<std::string, std::string> materialize(
      Version version) const;

    /// Deterministic byte image of the committed state: sorted key/value
    /// pairs, length-prefixed. Two stores that agree on the materialized
    /// committed map produce bit-identical images.
    [[nodiscard]] std::vector<uint8_t> serialize_image() const;

    /// Reconstructs a store from an image produced by serialize_image().
    /// The resulting store starts at `base_version` (applied == committed
    /// == base) with no per-version history below it.
    static Store from_image(
      const std::vector<uint8_t>& image, Version base_version);

    /// Replaces this store's contents with an image in place, keeping
    /// hook subscriptions (a snapshot install swaps the state machine
    /// under the running node).
    void install_image(const std::vector<uint8_t>& image, Version base_version);

    /// Applies a write set as the next version (ordered but not yet
    /// committed). Returns the assigned version. Fires ordered hooks.
    Version apply(const WriteSet& ws);

    /// Marks all versions up to `version` committed. Fires committed hooks
    /// for each newly committed version, in order.
    void commit(Version version);

    /// Discards ordered-but-uncommitted versions above `version`.
    void rollback(Version version);

    /// Subscribes to ordered transactions touching keys with `prefix`.
    void on_ordered(const std::string& prefix, Hook hook);

    /// Subscribes to committed transactions touching keys with `prefix`.
    void on_committed(const std::string& prefix, Hook hook);

  private:
    struct PrefixHook
    {
      std::string prefix;
      Hook hook;
    };

    /// Indexes the versions applied since the index last caught up.
    void index_applied() const;

    [[nodiscard]] static bool touches_prefix(
      const WriteSet& ws, const std::string& prefix);

    void fire(
      const std::vector<PrefixHook>& hooks, Version version,
      const WriteSet& ws) const;

    // version v (v > base_version_) = applied_[v - base_version_ - 1];
    // versions <= base_version_ are materialized in base_.
    std::vector<WriteSet> applied_;
    // Per std::hash of a key, the versions in (base_version_,
    // indexed_upto_] that write a key with that hash, ascending. Built on
    // read, not on apply(): in a cluster only the leader's store serves
    // reads, so its followers never pay for an index. rollback() pops
    // from it and an image install clears it. get_at() binary-searches it
    // instead of scanning applied_, and confirms the key in each
    // candidate's write set, so a hash collision costs a look at one more
    // version, never a wrong value. Keyed by hash, so indexing copies no
    // key; most keys are written once or twice, so their versions stay
    // inline.
    mutable std::unordered_map<size_t, SmallVec<Version, 2>> versions_of_;
    mutable Version indexed_upto_ = 0;
    std::map<std::string, std::string> base_;
    Version base_version_ = 0;
    Version commit_version_ = 0;
    std::vector<PrefixHook> ordered_hooks_;
    std::vector<PrefixHook> committed_hooks_;
  };
}
