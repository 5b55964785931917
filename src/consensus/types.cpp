#include "consensus/types.h"

#include "util/hash.h"

namespace scv::consensus
{
  const char* to_string(Role role)
  {
    switch (role)
    {
      case Role::Follower:
        return "follower";
      case Role::Candidate:
        return "candidate";
      case Role::Leader:
        return "leader";
      case Role::Retired:
        return "retired";
    }
    return "unknown";
  }

  const char* to_string(MembershipState state)
  {
    switch (state)
    {
      case MembershipState::Active:
        return "active";
      case MembershipState::RetirementOrdered:
        return "retirement_ordered";
      case MembershipState::RetirementCommitted:
        return "retirement_committed";
      case MembershipState::RetirementCompleted:
        return "retirement_completed";
    }
    return "unknown";
  }

  const char* to_string(TxStatus status)
  {
    switch (status)
    {
      case TxStatus::Unknown:
        return "UNKNOWN";
      case TxStatus::Pending:
        return "PENDING";
      case TxStatus::Committed:
        return "COMMITTED";
      case TxStatus::Invalid:
        return "INVALID";
    }
    return "unknown";
  }

  const char* to_string(EntryType type)
  {
    switch (type)
    {
      case EntryType::Data:
        return "data";
      case EntryType::Signature:
        return "signature";
      case EntryType::Reconfiguration:
        return "reconfiguration";
      case EntryType::Retirement:
        return "retirement";
    }
    return "unknown";
  }

  crypto::Digest entry_digest(const Entry& entry)
  {
    ByteSink sink;
    sink.u64(entry.term);
    sink.u8(static_cast<uint8_t>(entry.type));
    sink.str(entry.data);
    sink.u64(entry.config.size());
    for (const NodeId n : entry.config)
    {
      sink.u64(n);
    }
    sink.u64(entry.retiring_node);
    sink.raw(entry.root.data(), entry.root.size());
    sink.u64(entry.signature.size());
    sink.raw(entry.signature.data(), entry.signature.size());
    sink.u64(entry.signer);
    const auto bytes = sink.bytes();
    return crypto::sha256(bytes.data(), bytes.size());
  }
}
