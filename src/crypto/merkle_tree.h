// Append-only Merkle tree over ledger entries (§2.1).
//
// CCF's signature transactions embed the root of a Merkle tree built over
// the whole log so far. The tree shape is RFC 6962's (the one CCF's
// merklecpp uses): a range of n > 1 leaves splits at the largest power of
// two strictly below n, so every left child is a perfect subtree.
//
// Layout: levels_[k][j] is the root of the perfect subtree over leaves
// [j·2^k, (j+1)·2^k), and levels_[0] is the leaves themselves. Level k
// holds exactly size() >> k digests, so the tree keeps fewer than 2n
// digests in all. Every perfect aligned subtree is therefore a lookup:
//
//   * append hashes only the pairs it completes — amortized O(1);
//   * root() and path() walk the RFC 6962 split recursion, reading any
//     perfect subtree from its level and hashing only the O(log n) ragged
//     right-edge nodes — O(log n);
//   * truncate(n) cuts level k to n >> k — no hashing at all, which is why
//     the tree keeps every level rather than a compact-range frontier
//     (followers roll back to arbitrary sizes, and receipts prove old
//     leaves against older roots).
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/sha256.h"

namespace scv::crypto
{
  /// One step of an inclusion proof: the sibling digest and whether it sits
  /// to the left of the running hash.
  struct PathStep
  {
    Digest sibling;
    bool sibling_on_left;

    bool operator==(const PathStep&) const = default;
  };

  using Path = std::vector<PathStep>;

  class MerkleTree
  {
  public:
    MerkleTree() = default;

    /// Rebuilds a tree from previously extracted leaves (snapshot install:
    /// a joiner reconstructs the ledger tree without the entry bodies).
    /// O(n): each level is built once from the one below.
    explicit MerkleTree(std::vector<Digest> leaves);

    /// Appends a leaf digest; returns the (0-based) leaf index.
    size_t append(const Digest& leaf);

    /// All leaf digests appended so far, in order.
    [[nodiscard]] const std::vector<Digest>& leaves() const
    {
      return levels_[0];
    }

    /// Root over all leaves appended so far. Root of the empty tree is the
    /// hash of the empty string, matching an empty ledger.
    [[nodiscard]] Digest root() const;

    [[nodiscard]] size_t size() const
    {
      return levels_[0].size();
    }

    /// Inclusion proof for the leaf at `index` against the current root.
    [[nodiscard]] Path path(size_t index) const;

    /// Inclusion proof for the leaf at `index` against the root the tree
    /// had when it held `at_size` leaves (RFC 6962 PATH(m, D[n])); requires
    /// index < at_size <= size().
    [[nodiscard]] Path path(size_t index, size_t at_size) const;

    /// Drops all leaves at and after `new_size`.
    void truncate(size_t new_size);

    /// Verifies an inclusion proof.
    static bool verify_path(
      const Digest& leaf, const Path& path, const Digest& expected_root);

    /// Hash of an interior node from its two children.
    static Digest combine(const Digest& left, const Digest& right);

  private:
    /// Root over leaves [begin, end) of a range reached by the split
    /// recursion: perfect subtrees are read from levels_, the rest hashed.
    [[nodiscard]] Digest subtree_root(size_t begin, size_t end) const;

    void collect_path(
      size_t begin, size_t end, size_t index, Path& out) const;

    std::vector<std::vector<Digest>> levels_ =
      std::vector<std::vector<Digest>>(1);
  };
}
