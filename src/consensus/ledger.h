// The replicated log with its Merkle tree (§2.1 "Signature transactions").
//
// Every appended entry contributes a leaf to an incremental Merkle tree;
// signature transactions embed the root over the whole log so far, signed
// by the current leader, giving offline log integrity and transaction
// provenance. Truncation (follower rollback of a conflicting suffix) keeps
// the tree in sync.
//
// Compaction (snapshots): compact(up_to) drops the entry *bodies* at and
// below a snapshot point, leaving a hole — at(i) fails below start_index().
// What survives per compacted index is the 9-byte (term, type) metadata and
// the Merkle leaf digest, so term_at / TxStatus, signature placement scans,
// express catch-up, receipts above the hole, and append-only fingerprints
// all remain exact. Entry *content* below the hole (payloads, configs,
// signatures) is recoverable only from the covering Snapshot artifact.
//
// The ledger also keeps the ascending indices of its Data (application)
// entries, so "how many application transactions up to i" and "where is
// the k-th one" are O(log n) and O(1) — the session's client-facing tx ids
// are positions among Data entries. Those ids, (term, k) for the k-th Data
// entry, are kept as run-length TxIdRuns, so the id list of any prefix is
// O(#terms) to take.
//
// Indices are 1-based; index 0 means "nothing".
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "consensus/txid_runs.h"
#include "consensus/types.h"
#include "crypto/merkle_tree.h"

namespace scv::consensus
{
  /// What a compacted index retains: enough for term/type queries, nothing
  /// that can be read back as an entry.
  struct EntryMeta
  {
    Term term = 0;
    EntryType type = EntryType::Data;

    bool operator==(const EntryMeta&) const = default;
  };

  class Ledger
  {
  public:
    [[nodiscard]] Index last_index() const
    {
      return start_index_ + entries_.size();
    }

    [[nodiscard]] bool empty() const
    {
      return last_index() == 0;
    }

    /// Index of the snapshot covering the compacted prefix; 0 when the
    /// ledger has never been compacted. Entries at or below this index
    /// have no bodies ("the hole").
    [[nodiscard]] Index start_index() const
    {
      return start_index_;
    }

    /// Term of the entry at idx; 0 when idx is 0 or out of range. Exact
    /// below the hole (metadata survives compaction).
    [[nodiscard]] Term term_at(Index idx) const;

    /// Type of the entry at idx; exact below the hole.
    [[nodiscard]] EntryType type_at(Index idx) const;

    /// The entry body at idx. No reads below a hole: idx must be above
    /// start_index().
    [[nodiscard]] const Entry& at(Index idx) const;

    [[nodiscard]] Term last_term() const
    {
      return term_at(last_index());
    }

    /// Appends and returns the new entry's index.
    Index append(Entry entry);

    /// Drops all entries after new_last. new_last must not be below the
    /// compaction point (committed state is never truncated).
    void truncate(Index new_last);

    /// Drops entry bodies at and below up_to (which must be a signature
    /// index at or below the caller's commit point — enforced by type, not
    /// by commit, which the ledger does not know). Metadata and Merkle
    /// leaves survive. Idempotent for up_to <= start_index().
    void compact(Index up_to);

    /// Rebuilds a ledger from a snapshot's retained prefix state: per-index
    /// metadata and Merkle leaves for (0, index]. The result has
    /// start_index() == index and no entry bodies.
    static Ledger from_snapshot(
      Index index,
      const std::vector<EntryMeta>& meta,
      const std::vector<crypto::Digest>& leaves);

    /// Merkle root over all entries ever appended (leaves survive
    /// compaction).
    [[nodiscard]] crypto::Digest root() const
    {
      return tree_.root();
    }

    /// Inclusion proof for the entry at idx against the current root.
    /// Valid below the hole too — proofs need only leaves.
    [[nodiscard]] crypto::Path proof(Index idx) const;

    /// Inclusion proof for the entry at idx against the root over entries
    /// (0, upto] — the root a signature at upto + 1 embeds. idx <= upto.
    [[nodiscard]] crypto::Path proof(Index idx, Index upto) const;

    /// Merkle leaf (entry digest) at idx; valid below the hole.
    [[nodiscard]] const crypto::Digest& leaf_digest(Index idx) const;

    [[nodiscard]] const std::vector<crypto::Digest>& leaves() const
    {
      return tree_.leaves();
    }

    /// Per-index (term, type) metadata for the compacted prefix
    /// (0, start_index()].
    [[nodiscard]] const std::vector<EntryMeta>& compacted_meta() const
    {
      return meta_;
    }

    /// Number of Data entries at or below idx; exact below the hole.
    /// O(log n).
    [[nodiscard]] size_t data_count_upto(Index idx) const;

    /// Ledger index of the k-th Data entry (1-based k, at most
    /// data_count_upto(last_index())).
    [[nodiscard]] Index data_index(size_t k) const;

    /// Application tx ids of all Data entries, in order: (term, k) for the
    /// k-th one. Exact below the hole, like data_count_upto().
    [[nodiscard]] const TxIdRuns& data_txids() const
    {
      return data_txids_;
    }

    /// Index of the last Signature entry at or before idx (0 if none).
    [[nodiscard]] Index last_signature_at_or_before(Index idx) const;

    /// Indices of all Signature entries strictly after `after`.
    [[nodiscard]] std::vector<Index> signature_indices_after(Index after) const;

    /// Express-catch-up estimate (§2.1): the largest index i <= bound whose
    /// term is <= max_term — the follower's safe best guess of a point of
    /// agreement with a leader whose log has (prev_idx=bound,
    /// prev_term=max_term). Skips whole terms of divergence rather than
    /// stepping back one index at a time.
    [[nodiscard]] Index agreement_estimate(Index bound, Term max_term) const;

    /// Copies entries in (from, to] for an AppendEntries payload. `from`
    /// must be at or above the compaction point.
    [[nodiscard]] std::vector<Entry> window(Index from, Index to) const;

    /// Entry bodies above the hole, i.e. indices (start_index(),
    /// last_index()].
    [[nodiscard]] const std::vector<Entry>& entries() const
    {
      return entries_;
    }

  private:
    std::vector<Entry> entries_; // bodies for (start_index_, last_index()]
    std::vector<EntryMeta> meta_; // metadata for (0, start_index_]
    Index start_index_ = 0;
    crypto::MerkleTree tree_; // leaves for (0, last_index()]
    std::vector<Index> data_indices_; // ascending indices of Data entries
    TxIdRuns data_txids_; // (term, k) of the k-th Data entry
  };
}
