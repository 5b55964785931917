#include "specs/consensus/spec_types.h"

#include <algorithm>
#include <sstream>

namespace scv::specs::ccfraft
{
  std::string bits_to_string(Bits set)
  {
    std::string out = "{";
    bool first = true;
    for (Nid n = 1; n <= kMaxNodes; ++n)
    {
      if (has_node(set, n))
      {
        if (!first)
        {
          out += ",";
        }
        out += std::to_string(n);
        first = false;
      }
    }
    out += "}";
    return out;
  }

  std::string SpecMessage::to_string() const
  {
    std::ostringstream os;
    switch (type)
    {
      case MType::AeReq:
        os << "AE(" << int(from) << "->" << int(to) << " t=" << int(term)
           << " prev=" << int(prev_idx) << "." << int(prev_term)
           << " n=" << entries.size() << " c=" << int(commit) << ")";
        break;
      case MType::AeResp:
        os << (success ? "AE-ACK(" : "AE-NACK(") << int(from) << "->"
           << int(to) << " t=" << int(term) << " last=" << int(last_idx)
           << ")";
        break;
      case MType::RvReq:
        os << "RV(" << int(from) << "->" << int(to) << " t=" << int(term)
           << " last=" << int(last_log_idx) << "." << int(last_log_term)
           << ")";
        break;
      case MType::RvResp:
        os << "RV-" << (success ? "GRANT(" : "DENY(") << int(from) << "->"
           << int(to) << " t=" << int(term) << ")";
        break;
      case MType::ProposeVote:
        os << "PV(" << int(from) << "->" << int(to) << " t=" << int(term)
           << ")";
        break;
      case MType::InstallSnap:
        os << "IS(" << int(from) << "->" << int(to) << " t=" << int(term)
           << " snap=" << int(last_idx) << "." << int(prev_term) << ")";
        break;
    }
    return os.str();
  }

  uint8_t SpecNode::last_sig_at_or_before(uint8_t idx) const
  {
    for (uint8_t i = std::min<uint8_t>(idx, len()); i >= 1; --i)
    {
      if (log[i - 1].type == EType::Sig)
      {
        return i;
      }
    }
    return 0;
  }

  uint8_t SpecNode::agreement_estimate(uint8_t bound, uint8_t max_term) const
  {
    for (uint8_t i = std::min<uint8_t>(bound, len()); i >= 1; --i)
    {
      if (log[i - 1].term <= max_term)
      {
        return i;
      }
    }
    return 0;
  }

  void State::add_message(const SpecMessage& msg, uint8_t copies)
  {
    const auto it = std::lower_bound(
      network.begin(),
      network.end(),
      msg,
      [](const auto& pair, const SpecMessage& m) { return pair.first < m; });
    if (it != network.end() && it->first == msg)
    {
      it->second = static_cast<uint8_t>(it->second + copies);
    }
    else
    {
      network.insert(it, {msg, copies});
    }
  }

  bool State::remove_message(const SpecMessage& msg)
  {
    const auto it = std::lower_bound(
      network.begin(),
      network.end(),
      msg,
      [](const auto& pair, const SpecMessage& m) { return pair.first < m; });
    if (it == network.end() || !(it->first == msg))
    {
      return false;
    }
    if (--it->second == 0)
    {
      network.erase(it);
    }
    return true;
  }

  uint8_t State::message_count(const SpecMessage& msg) const
  {
    const auto it = std::lower_bound(
      network.begin(),
      network.end(),
      msg,
      [](const auto& pair, const SpecMessage& m) { return pair.first < m; });
    if (it == network.end() || !(it->first == msg))
    {
      return 0;
    }
    return it->second;
  }

  size_t State::network_size() const
  {
    size_t total = 0;
    for (const auto& [msg, count] : network)
    {
      total += count;
    }
    return total;
  }

  std::string State::to_string() const
  {
    std::ostringstream os;
    for (Nid n = 1; n <= n_nodes; ++n)
    {
      const SpecNode& nd = nodes[n - 1];
      os << "n" << int(n) << "[";
      switch (nd.role)
      {
        case SRole::Follower:
          os << "F";
          break;
        case SRole::Candidate:
          os << "C";
          break;
        case SRole::Leader:
          os << "L";
          break;
        case SRole::Retired:
          os << "R";
          break;
      }
      os << " t=" << int(nd.current_term) << " c=" << int(nd.commit_index);
      if (nd.snap_idx != 0)
      {
        os << " snap=" << int(nd.snap_idx) << "." << int(nd.snap_term);
      }
      os << " log=";
      for (const auto& e : nd.log)
      {
        switch (e.type)
        {
          case EType::Data:
            os << "d" << int(e.payload);
            break;
          case EType::Sig:
            os << "s";
            break;
          case EType::Reconfig:
            os << "r" << bits_to_string(e.config);
            break;
          case EType::Retire:
            os << "x" << int(e.payload);
            break;
        }
        os << ":" << int(e.term) << " ";
      }
      os << "] ";
    }
    os << "net={";
    for (const auto& [msg, count] : network)
    {
      os << msg.to_string();
      if (count > 1)
      {
        os << "x" << int(count);
      }
      os << " ";
    }
    os << "}";
    return os.str();
  }

  namespace
  {
    /// Log index of the current configuration: the last Reconfig entry at
    /// or below the commit index, else the first Reconfig entry.
    uint8_t current_config_index(const SpecNode& node)
    {
      uint8_t first = 0;
      uint8_t current = 0;
      for (uint8_t i = 1; i <= node.len(); ++i)
      {
        if (node.log[i - 1].type != EType::Reconfig)
        {
          continue;
        }
        if (first == 0)
        {
          first = i;
        }
        if (i > node.commit_index)
        {
          break;
        }
        current = i;
      }
      SCV_CHECK_MSG(first != 0, "spec log must begin with a configuration");
      return current != 0 ? current : first;
    }

    /// Calls fn(nodes) for each active configuration, oldest first.
    template <class Fn>
    void for_each_active_config(const SpecNode& node, Fn&& fn)
    {
      for (uint8_t i = current_config_index(node); i <= node.len(); ++i)
      {
        if (node.log[i - 1].type == EType::Reconfig)
        {
          fn(node.log[i - 1].config);
        }
      }
    }
  }

  Bits active_nodes(const SpecNode& node)
  {
    Bits out = 0;
    for_each_active_config(
      node, [&](Bits config) { out = static_cast<Bits>(out | config); });
    return out;
  }

  Bits common_active_nodes(const SpecNode& node)
  {
    Bits out = static_cast<Bits>(~0u);
    for_each_active_config(
      node, [&](Bits config) { out = static_cast<Bits>(out & config); });
    return out;
  }

  SpecConfig current_config(const SpecNode& node)
  {
    const uint8_t idx = current_config_index(node);
    return {idx, node.log[idx - 1].config};
  }

  Bits latest_config(const SpecNode& node)
  {
    uint8_t i = node.len();
    while (i >= 1 && node.log[i - 1].type != EType::Reconfig)
    {
      --i;
    }
    SCV_CHECK_MSG(i >= 1, "spec log must begin with a configuration");
    return node.log[i - 1].config;
  }

  Bits retired_nodes(const SpecNode& node)
  {
    Bits out = 0;
    for (uint8_t i = 1; i <= node.commit_index && i <= node.len(); ++i)
    {
      if (node.log[i - 1].type == EType::Retire)
      {
        out = with_node(out, node.log[i - 1].payload);
      }
    }
    return out;
  }

  Bits known_nodes(const SpecNode& node)
  {
    Bits out = 0;
    bool any = false;
    for (const SpecEntry& e : node.log)
    {
      if (e.type == EType::Reconfig)
      {
        out = static_cast<Bits>(out | e.config);
        any = true;
      }
    }
    SCV_CHECK_MSG(any, "spec log must begin with a configuration");
    return out;
  }

  bool quorum_in_each(const SpecNode& node, Bits have)
  {
    bool all = true;
    for_each_active_config(node, [&](Bits config) {
      all = all && majority(config, have);
    });
    return all;
  }

  bool quorum_in_union(const SpecNode& node, Bits have)
  {
    return majority(active_nodes(node), have);
  }
}
