#include "consensus/receipt.h"

#include <sstream>

namespace scv::consensus
{
  std::optional<Receipt> make_receipt(const Ledger& ledger, Index index)
  {
    if (index == 0 || index > ledger.last_index())
    {
      return std::nullopt;
    }
    // First signature at or after the entry: its root covers everything
    // before it, including the entry. type_at is exact below a compaction
    // hole, so the search works anywhere in the log.
    Index sig_index = 0;
    for (Index i = index; i <= ledger.last_index(); ++i)
    {
      if (ledger.type_at(i) == EntryType::Signature && i > index)
      {
        sig_index = i;
        break;
      }
      // A signature proves itself only through a later signature.
    }
    if (sig_index == 0)
    {
      return std::nullopt;
    }
    if (sig_index <= ledger.start_index())
    {
      // The covering signature's body was compacted away: its root and
      // signature live only in the snapshot artifact, not here.
      return std::nullopt;
    }

    // Prove against the tree over entries [1, sig_index) — the log "so
    // far" at signing time. Leaves survive compaction, so receipts for
    // entries below the hole still assemble as long as the signature does
    // not.
    Receipt r;
    r.index = index;
    r.entry_digest = ledger.leaf_digest(index);
    r.path = ledger.proof(index, sig_index - 1);
    r.signature_index = sig_index;
    const Entry& sig = ledger.at(sig_index);
    r.root = sig.root;
    r.signature = sig.signature;
    r.signer = sig.signer;
    return r;
  }

  bool verify_receipt(const Receipt& receipt)
  {
    if (!crypto::verify_signature(
          receipt.signer, receipt.root, receipt.signature))
    {
      return false;
    }
    return crypto::MerkleTree::verify_path(
      receipt.entry_digest, receipt.path, receipt.root);
  }

  AuditReport audit_ledger(const Ledger& ledger)
  {
    AuditReport report;
    // Seed with the retained leaves of any compacted prefix: its bodies
    // (and thus its signature transactions) can no longer be checked here
    // — that is the snapshot artifact's job — but suffix signatures still
    // verify against full-log roots.
    const Index start = ledger.start_index();
    crypto::MerkleTree tree(std::vector<crypto::Digest>(
      ledger.leaves().begin(), ledger.leaves().begin() + start));
    for (Index i = start + 1; i <= ledger.last_index(); ++i)
    {
      const Entry& entry = ledger.at(i);
      if (entry.type == EntryType::Signature)
      {
        report.signatures_checked++;
        const crypto::Digest expected = tree.root();
        if (entry.root != expected)
        {
          report.first_failure = i;
          std::ostringstream os;
          os << "signature at " << i
             << " embeds a root that does not match the preceding entries";
          report.message = os.str();
          return report;
        }
        if (!crypto::verify_signature(entry.signer, entry.root, entry.signature))
        {
          report.first_failure = i;
          std::ostringstream os;
          os << "signature at " << i << " fails verification for node "
             << entry.signer;
          report.message = os.str();
          return report;
        }
      }
      tree.append(entry_digest(entry));
    }
    report.ok = true;
    report.message = "ledger verifies";
    return report;
  }
}
