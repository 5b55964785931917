#include "kv/store.h"

#include <algorithm>
#include <functional>

#include "util/check.h"
#include "util/strings.h"

namespace scv::kv
{
  namespace
  {
    void put_u64(std::vector<uint8_t>& out, uint64_t v)
    {
      for (int shift = 56; shift >= 0; shift -= 8)
      {
        out.push_back(static_cast<uint8_t>((v >> shift) & 0xff));
      }
    }

    void put_str(std::vector<uint8_t>& out, const std::string& s)
    {
      put_u64(out, s.size());
      out.insert(out.end(), s.begin(), s.end());
    }

    uint64_t take_u64(const std::vector<uint8_t>& in, size_t& pos)
    {
      SCV_CHECK_MSG(pos + 8 <= in.size(), "kv image truncated");
      uint64_t v = 0;
      for (int k = 0; k < 8; ++k)
      {
        v = (v << 8) | in[pos + k];
      }
      pos += 8;
      return v;
    }

    std::string take_str(const std::vector<uint8_t>& in, size_t& pos)
    {
      const uint64_t len = take_u64(in, pos);
      SCV_CHECK_MSG(pos + len <= in.size(), "kv image truncated");
      std::string s(in.begin() + pos, in.begin() + pos + len);
      pos += len;
      return s;
    }
  }

  std::optional<std::string> Store::get(const std::string& key) const
  {
    return get_at(key, current_version());
  }

  std::optional<std::string> Store::get_at(
    const std::string& key, Version version) const
  {
    SCV_CHECK(version <= current_version());
    SCV_CHECK_MSG(
      version >= base_version_,
      "no reads below a hole: version " << version
                                        << " predates the snapshot image at "
                                        << base_version_);
    // The key's last write at or below `version`, if it has one above the
    // base; within that version's write set the last write wins. A
    // candidate without the key was written by a key of the same hash.
    index_applied();
    const auto found = versions_of_.find(std::hash<std::string>{}(key));
    if (found != versions_of_.end())
    {
      const auto& versions = found->second;
      for (auto v = std::upper_bound(versions.begin(), versions.end(), version);
           v != versions.begin();)
      {
        const auto& writes = applied_[*--v - base_version_ - 1].writes;
        for (auto it = writes.rbegin(); it != writes.rend(); ++it)
        {
          if (it->key == key)
          {
            return it->value;
          }
        }
      }
    }
    const auto it = base_.find(key);
    if (it != base_.end())
    {
      return it->second;
    }
    return std::nullopt;
  }

  std::vector<std::string> Store::keys_with_prefix(
    const std::string& prefix) const
  {
    std::map<std::string, bool> present; // key -> currently present
    for (const auto& [key, value] : base_)
    {
      if (starts_with(key, prefix))
      {
        present[key] = true;
      }
    }
    for (const auto& ws : applied_)
    {
      for (const auto& w : ws.writes)
      {
        if (starts_with(w.key, prefix))
        {
          present[w.key] = w.value.has_value();
        }
      }
    }
    std::vector<std::string> out;
    for (const auto& [key, is_present] : present)
    {
      if (is_present)
      {
        out.push_back(key);
      }
    }
    return out;
  }

  std::map<std::string, std::string> Store::materialize(Version version) const
  {
    SCV_CHECK(version <= current_version());
    SCV_CHECK_MSG(
      version >= base_version_,
      "no reads below a hole: version " << version
                                        << " predates the snapshot image at "
                                        << base_version_);
    std::map<std::string, std::string> out = base_;
    for (Version v = base_version_ + 1; v <= version; ++v)
    {
      for (const auto& w : applied_[v - base_version_ - 1].writes)
      {
        if (w.value.has_value())
        {
          out[w.key] = *w.value;
        }
        else
        {
          out.erase(w.key);
        }
      }
    }
    return out;
  }

  std::vector<uint8_t> Store::serialize_image() const
  {
    const auto map = materialize(commit_version_);
    std::vector<uint8_t> out;
    put_u64(out, map.size());
    for (const auto& [key, value] : map) // std::map: sorted, deterministic
    {
      put_str(out, key);
      put_str(out, value);
    }
    return out;
  }

  Store Store::from_image(
    const std::vector<uint8_t>& image, Version base_version)
  {
    Store store;
    size_t pos = 0;
    const uint64_t count = take_u64(image, pos);
    for (uint64_t k = 0; k < count; ++k)
    {
      std::string key = take_str(image, pos);
      std::string value = take_str(image, pos);
      store.base_.emplace(std::move(key), std::move(value));
    }
    SCV_CHECK_MSG(pos == image.size(), "kv image has trailing bytes");
    store.base_version_ = base_version;
    store.commit_version_ = base_version;
    return store;
  }

  void Store::install_image(
    const std::vector<uint8_t>& image, Version base_version)
  {
    Store fresh = from_image(image, base_version);
    base_ = std::move(fresh.base_);
    applied_.clear();
    versions_of_.clear();
    indexed_upto_ = fresh.base_version_;
    base_version_ = fresh.base_version_;
    commit_version_ = fresh.commit_version_;
  }

  Version Store::apply(const WriteSet& ws)
  {
    applied_.push_back(ws);
    const Version v = current_version();
    fire(ordered_hooks_, v, ws);
    return v;
  }

  void Store::commit(Version version)
  {
    SCV_CHECK(version <= current_version());
    SCV_CHECK_MSG(
      version >= commit_version_, "commit version must not move backwards");
    for (Version v = commit_version_ + 1; v <= version; ++v)
    {
      fire(committed_hooks_, v, applied_[v - base_version_ - 1]);
    }
    commit_version_ = version;
  }

  void Store::rollback(Version version)
  {
    SCV_CHECK_MSG(
      version >= commit_version_, "cannot roll back committed versions");
    SCV_CHECK(version <= current_version());
    for (Version v = indexed_upto_; v > version; --v)
    {
      for (const auto& w : applied_[v - base_version_ - 1].writes)
      {
        const auto found =
          versions_of_.find(std::hash<std::string>{}(w.key));
        if (
          found != versions_of_.end() && !found->second.empty() &&
          found->second.back() == v)
        {
          found->second.resize(found->second.size() - 1);
          if (found->second.empty())
          {
            versions_of_.erase(found);
          }
        }
      }
    }
    indexed_upto_ = std::min(indexed_upto_, version);
    applied_.resize(version - base_version_);
  }

  void Store::index_applied() const
  {
    for (Version v = std::max(indexed_upto_, base_version_) + 1;
         v <= current_version();
         ++v)
    {
      for (const auto& w : applied_[v - base_version_ - 1].writes)
      {
        auto& versions = versions_of_[std::hash<std::string>{}(w.key)];
        if (versions.empty() || versions.back() != v)
        {
          versions.push_back(v);
        }
      }
    }
    indexed_upto_ = current_version();
  }

  void Store::on_ordered(const std::string& prefix, Hook hook)
  {
    ordered_hooks_.push_back({prefix, std::move(hook)});
  }

  void Store::on_committed(const std::string& prefix, Hook hook)
  {
    committed_hooks_.push_back({prefix, std::move(hook)});
  }

  bool Store::touches_prefix(const WriteSet& ws, const std::string& prefix)
  {
    for (const auto& w : ws.writes)
    {
      if (starts_with(w.key, prefix))
      {
        return true;
      }
    }
    return false;
  }

  void Store::fire(
    const std::vector<PrefixHook>& hooks, Version version,
    const WriteSet& ws) const
  {
    for (const auto& h : hooks)
    {
      if (touches_prefix(ws, h.prefix))
      {
        h.hook(version, ws);
      }
    }
  }
}
