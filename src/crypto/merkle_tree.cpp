#include "crypto/merkle_tree.h"

#include <bit>

#include "util/check.h"

namespace scv::crypto
{
  namespace
  {
    /// Largest power of two strictly less than n (n >= 2), per RFC 6962's
    /// split rule, which keeps the tree shape canonical for any size.
    size_t split_point(size_t n)
    {
      return std::bit_floor(n - 1);
    }
  }

  MerkleTree::MerkleTree(std::vector<Digest> leaves)
  {
    levels_[0] = std::move(leaves);
    while (levels_.back().size() >= 2)
    {
      const auto& below = levels_.back();
      std::vector<Digest> level;
      level.reserve(below.size() / 2);
      for (size_t j = 0; j + 1 < below.size(); j += 2)
      {
        level.push_back(combine(below[j], below[j + 1]));
      }
      levels_.push_back(std::move(level));
    }
  }

  Digest MerkleTree::combine(const Digest& left, const Digest& right)
  {
    Sha256 h;
    const uint8_t tag = 0x01; // interior-node domain separation
    h.update(&tag, 1);
    h.update(left.data(), left.size());
    h.update(right.data(), right.size());
    return h.finalize();
  }

  size_t MerkleTree::append(const Digest& leaf)
  {
    levels_[0].push_back(leaf);
    // Each level whose size turns even has just completed a pair: push
    // the pair's parent one level up.
    for (size_t k = 0; levels_[k].size() % 2 == 0; ++k)
    {
      if (k + 1 == levels_.size())
      {
        levels_.emplace_back();
      }
      const auto& level = levels_[k];
      const size_t n = level.size();
      levels_[k + 1].push_back(combine(level[n - 2], level[n - 1]));
    }
    return levels_[0].size() - 1;
  }

  Digest MerkleTree::subtree_root(size_t begin, size_t end) const
  {
    const size_t n = end - begin;
    if (std::has_single_bit(n))
    {
      // The split recursion only reaches power-of-two ranges at aligned
      // offsets, so this is one cached perfect subtree.
      const int k = std::countr_zero(n);
      return levels_[k][begin >> k];
    }
    const size_t k = split_point(n);
    return combine(
      subtree_root(begin, begin + k), subtree_root(begin + k, end));
  }

  Digest MerkleTree::root() const
  {
    if (size() == 0)
    {
      return sha256("");
    }
    return subtree_root(0, size());
  }

  void MerkleTree::collect_path(
    size_t begin, size_t end, size_t index, Path& out) const
  {
    const size_t n = end - begin;
    if (n == 1)
    {
      return;
    }
    const size_t k = split_point(n);
    if (index < begin + k)
    {
      collect_path(begin, begin + k, index, out);
      out.push_back({subtree_root(begin + k, end), false});
    }
    else
    {
      collect_path(begin + k, end, index, out);
      out.push_back({subtree_root(begin, begin + k), true});
    }
  }

  Path MerkleTree::path(size_t index) const
  {
    return path(index, size());
  }

  Path MerkleTree::path(size_t index, size_t at_size) const
  {
    SCV_CHECK(index < at_size && at_size <= size());
    Path out;
    collect_path(0, at_size, index, out);
    return out;
  }

  void MerkleTree::truncate(size_t new_size)
  {
    SCV_CHECK(new_size <= size());
    for (size_t k = 0; k < levels_.size(); ++k)
    {
      levels_[k].resize(new_size >> k);
    }
    while (levels_.size() > 1 && levels_.back().empty())
    {
      levels_.pop_back();
    }
  }

  bool MerkleTree::verify_path(
    const Digest& leaf, const Path& path, const Digest& expected_root)
  {
    Digest running = leaf;
    for (const auto& step : path)
    {
      running = step.sibling_on_left ? combine(step.sibling, running) :
                                       combine(running, step.sibling);
    }
    return running == expected_root;
  }
}
