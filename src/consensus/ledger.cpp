#include "consensus/ledger.h"

#include <algorithm>

#include "util/check.h"

namespace scv::consensus
{
  Term Ledger::term_at(Index idx) const
  {
    if (idx == 0 || idx > last_index())
    {
      return 0;
    }
    if (idx <= start_index_)
    {
      return meta_[idx - 1].term;
    }
    return entries_[idx - start_index_ - 1].term;
  }

  EntryType Ledger::type_at(Index idx) const
  {
    SCV_CHECK_MSG(
      idx >= 1 && idx <= last_index(), "ledger index out of range: " << idx);
    if (idx <= start_index_)
    {
      return meta_[idx - 1].type;
    }
    return entries_[idx - start_index_ - 1].type;
  }

  const Entry& Ledger::at(Index idx) const
  {
    SCV_CHECK_MSG(
      idx >= 1 && idx <= last_index(), "ledger index out of range: " << idx);
    SCV_CHECK_MSG(
      idx > start_index_,
      "no reads below a hole: entry " << idx
                                      << " was compacted into the snapshot at "
                                      << start_index_);
    return entries_[idx - start_index_ - 1];
  }

  Index Ledger::append(Entry entry)
  {
    tree_.append(entry_digest(entry));
    const bool data = entry.type == EntryType::Data;
    const Term term = entry.term;
    entries_.push_back(std::move(entry));
    if (data)
    {
      data_indices_.push_back(last_index());
      data_txids_.push_back(TxId{term, data_indices_.size()});
    }
    return last_index();
  }

  void Ledger::truncate(Index new_last)
  {
    SCV_CHECK(new_last <= last_index());
    SCV_CHECK_MSG(
      new_last >= start_index_,
      "cannot truncate below the snapshot at " << start_index_);
    entries_.resize(new_last - start_index_);
    tree_.truncate(new_last);
    data_indices_.resize(data_count_upto(new_last));
    data_txids_.truncate(data_indices_.size());
  }

  void Ledger::compact(Index up_to)
  {
    if (up_to <= start_index_)
    {
      return; // already compacted at least this far
    }
    SCV_CHECK(up_to <= last_index());
    SCV_CHECK_MSG(
      type_at(up_to) == EntryType::Signature,
      "snapshots cover the log only up to a signature; index "
        << up_to << " is not one");
    const Index dropped = up_to - start_index_;
    meta_.reserve(up_to);
    for (Index k = 0; k < dropped; ++k)
    {
      meta_.push_back({entries_[k].term, entries_[k].type});
    }
    entries_.erase(
      entries_.begin(), entries_.begin() + static_cast<ptrdiff_t>(dropped));
    start_index_ = up_to;
  }

  Ledger Ledger::from_snapshot(
    Index index,
    const std::vector<EntryMeta>& meta,
    const std::vector<crypto::Digest>& leaves)
  {
    SCV_CHECK_MSG(
      meta.size() == index && leaves.size() == index,
      "snapshot prefix state must cover exactly the snapshot index");
    SCV_CHECK_MSG(
      index >= 1 && meta.back().type == EntryType::Signature,
      "snapshot must cover the log up to a signature");
    Ledger out;
    out.meta_ = meta;
    out.start_index_ = index;
    out.tree_ = crypto::MerkleTree(leaves);
    for (Index i = 1; i <= index; ++i)
    {
      if (meta[i - 1].type == EntryType::Data)
      {
        out.data_indices_.push_back(i);
        out.data_txids_.push_back(
          TxId{meta[i - 1].term, out.data_indices_.size()});
      }
    }
    return out;
  }

  size_t Ledger::data_count_upto(Index idx) const
  {
    return static_cast<size_t>(
      std::upper_bound(data_indices_.begin(), data_indices_.end(), idx) -
      data_indices_.begin());
  }

  Index Ledger::data_index(size_t k) const
  {
    SCV_CHECK_MSG(
      k >= 1 && k <= data_indices_.size(), "no Data entry number " << k);
    return data_indices_[k - 1];
  }

  crypto::Path Ledger::proof(Index idx) const
  {
    return proof(idx, last_index());
  }

  crypto::Path Ledger::proof(Index idx, Index upto) const
  {
    SCV_CHECK(idx >= 1 && idx <= upto && upto <= last_index());
    return tree_.path(idx - 1, upto);
  }

  const crypto::Digest& Ledger::leaf_digest(Index idx) const
  {
    SCV_CHECK(idx >= 1 && idx <= last_index());
    return tree_.leaves()[idx - 1];
  }

  Index Ledger::last_signature_at_or_before(Index idx) const
  {
    for (Index i = std::min<Index>(idx, last_index()); i >= 1; --i)
    {
      if (type_at(i) == EntryType::Signature)
      {
        return i;
      }
    }
    return 0;
  }

  std::vector<Index> Ledger::signature_indices_after(Index after) const
  {
    std::vector<Index> out;
    for (Index i = after + 1; i <= last_index(); ++i)
    {
      if (type_at(i) == EntryType::Signature)
      {
        out.push_back(i);
      }
    }
    return out;
  }

  Index Ledger::agreement_estimate(Index bound, Term max_term) const
  {
    for (Index i = std::min<Index>(bound, last_index()); i >= 1; --i)
    {
      if (term_at(i) <= max_term)
      {
        return i;
      }
    }
    return 0;
  }

  std::vector<Entry> Ledger::window(Index from, Index to) const
  {
    SCV_CHECK(from <= to);
    SCV_CHECK(to <= last_index());
    SCV_CHECK_MSG(
      from >= start_index_,
      "no reads below a hole: window start " << from
                                             << " predates the snapshot at "
                                             << start_index_);
    std::vector<Entry> out;
    out.reserve(to - from);
    for (Index i = from + 1; i <= to; ++i)
    {
      out.push_back(entries_[i - start_index_ - 1]);
    }
    return out;
  }
}
