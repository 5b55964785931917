// Safety invariants and action properties of the consensus spec (§4).
//
// LogInv and AppendOnlyProp are the paper's two State-Machine-Safety
// checks (Listing 3): LogInv looks for violations across nodes ("in
// space"), AppendOnlyProp within a node over time ("in time"). MonoLogInv
// is the signature-placement strengthening the paper quotes. The remainder
// are drawn from the further 27 invariants/properties the paper mentions:
// election safety, log matching, leader completeness (via committed
// signatures), bookkeeping sanity, and the monotonic-match-index property
// that, once added, let model checking find a shorter counterexample for
// the commit-advance-on-NACK bug (§7).
#include <algorithm>

#include "specs/consensus/spec.h"

namespace scv::specs::ccfraft
{
  namespace
  {
    /// Committed prefix of a (never beyond the log).
    uint8_t committed_len(const SpecNode& n)
    {
      return std::min(n.commit_index, n.len());
    }

    bool committed_prefix_consistent(const SpecNode& a, const SpecNode& b)
    {
      const uint8_t upto = std::min(committed_len(a), committed_len(b));
      for (uint8_t k = 1; k <= upto; ++k)
      {
        if (!(a.log[k - 1] == b.log[k - 1]))
        {
          return false;
        }
      }
      return true;
    }
  }

  std::vector<spec::Invariant<State>> build_invariants(const Params& params)
  {
    using I = spec::Invariant<State>;
    std::vector<I> out;
    (void)params;

    out.push_back(
      {"LogInv", [](const State& s) {
         for (Nid i = 1; i <= s.n_nodes; ++i)
         {
           for (Nid j = static_cast<Nid>(i + 1); j <= s.n_nodes; ++j)
           {
             if (!committed_prefix_consistent(s.node(i), s.node(j)))
             {
               return false;
             }
           }
         }
         return true;
       }});

    out.push_back(
      {"MonoLogInv", [](const State& s) {
         for (Nid i = 1; i <= s.n_nodes; ++i)
         {
           const SpecNode& n = s.node(i);
           for (uint8_t k = 1; k + 1 <= n.len(); ++k)
           {
             const SpecEntry& cur = n.log[k - 1];
             const SpecEntry& next = n.log[k];
             const bool ok = cur.term == next.term ||
               (cur.term < next.term && cur.type == EType::Sig);
             if (!ok)
             {
               return false;
             }
           }
         }
         return true;
       }});

    out.push_back(
      {"ElectionSafetyInv", [](const State& s) {
         for (Nid i = 1; i <= s.n_nodes; ++i)
         {
           for (Nid j = static_cast<Nid>(i + 1); j <= s.n_nodes; ++j)
           {
             if (
               s.node(i).role == SRole::Leader &&
               s.node(j).role == SRole::Leader &&
               s.node(i).current_term == s.node(j).current_term)
             {
               return false;
             }
           }
         }
         return true;
       }});

    out.push_back(
      {"SignatureCommitInv", [](const State& s) {
         // Every node's commit index sits on a signature entry: nothing is
         // committed until a subsequent signature is (§2.1).
         for (Nid i = 1; i <= s.n_nodes; ++i)
         {
           const SpecNode& n = s.node(i);
           if (n.commit_index == 0)
           {
             continue;
           }
           if (
             n.commit_index > n.len() ||
             n.at(n.commit_index).type != EType::Sig)
           {
             return false;
           }
         }
         return true;
       }});

    out.push_back(
      {"LeaderCompletenessInv", [](const State& s) {
         // A committed signature of term ts must be present, at the same
         // index, in the log of every leader of a later term.
         for (Nid i = 1; i <= s.n_nodes; ++i)
         {
           const SpecNode& n = s.node(i);
           for (uint8_t k = 1; k <= committed_len(n); ++k)
           {
             if (n.log[k - 1].type != EType::Sig)
             {
               continue;
             }
             for (Nid l = 1; l <= s.n_nodes; ++l)
             {
               const SpecNode& leader = s.node(l);
               if (
                 leader.role != SRole::Leader ||
                 leader.current_term <= n.log[k - 1].term)
               {
                 continue;
               }
               if (leader.len() < k || !(leader.log[k - 1] == n.log[k - 1]))
               {
                 return false;
               }
             }
           }
         }
         return true;
       }});

    out.push_back(
      {"LogMatchingInv", [](const State& s) {
         // Same (index, term) => identical prefixes up to that index.
         for (Nid i = 1; i <= s.n_nodes; ++i)
         {
           for (Nid j = static_cast<Nid>(i + 1); j <= s.n_nodes; ++j)
           {
             const SpecNode& a = s.node(i);
             const SpecNode& b = s.node(j);
             const uint8_t upto = std::min(a.len(), b.len());
             for (uint8_t k = upto; k >= 1; --k)
             {
               if (a.log[k - 1].term == b.log[k - 1].term)
               {
                 for (uint8_t m = 1; m <= k; ++m)
                 {
                   if (!(a.log[m - 1] == b.log[m - 1]))
                   {
                     return false;
                   }
                 }
                 break;
               }
             }
           }
         }
         return true;
       }});

    out.push_back(
      {"MatchIndexSanityInv", [](const State& s) {
         // A leader never tracks a match index beyond its own log (bug 5
         // breaks this: ACKs report the follower's longer local log).
         for (Nid i = 1; i <= s.n_nodes; ++i)
         {
           const SpecNode& n = s.node(i);
           if (n.role != SRole::Leader)
           {
             continue;
           }
           for (Nid j = 1; j <= s.n_nodes; ++j)
           {
             if (n.match_index[j - 1] > n.len())
             {
               return false;
             }
           }
         }
         return true;
       }});

    out.push_back(
      {"CommitLeqLenInv", [](const State& s) {
         for (Nid i = 1; i <= s.n_nodes; ++i)
         {
           if (s.node(i).commit_index > s.node(i).len())
           {
             return false;
           }
         }
         return true;
       }});

    out.push_back(
      {"LogTermBoundInv", [](const State& s) {
         // No log entry carries a term above its holder's current term.
         for (Nid i = 1; i <= s.n_nodes; ++i)
         {
           for (const SpecEntry& e : s.node(i).log)
           {
             if (e.term > s.node(i).current_term)
             {
               return false;
             }
           }
         }
         return true;
       }});

    out.push_back(
      {"RetiredSilenceInv", [](const State& s) {
         // A node whose retirement completed never acts as leader or
         // candidate again.
         for (Nid i = 1; i <= s.n_nodes; ++i)
         {
           const SpecNode& n = s.node(i);
           if (
             n.role == SRole::Retired &&
             n.membership != SMembership::Completed)
           {
             return false;
           }
           if (
             n.membership == SMembership::Completed &&
             n.role == SRole::Candidate)
           {
             return false;
           }
         }
         return true;
       }});

    out.push_back(
      {"VotesGrantedImpliesVotedForInv", [](const State& s) {
         // A vote a candidate holds was really cast: the voter either
         // still records voted_for = candidate in that term, or has moved
         // to a higher term since.
         for (Nid i = 1; i <= s.n_nodes; ++i)
         {
           const SpecNode& cand = s.node(i);
           if (cand.role != SRole::Candidate && cand.role != SRole::Leader)
           {
             continue;
           }
           for (Nid j = 1; j <= s.n_nodes; ++j)
           {
             if (j == i || !has_node(cand.votes_granted, j))
             {
               continue;
             }
             const SpecNode& voter = s.node(j);
             const bool fresh = voter.current_term == cand.current_term &&
               voter.voted_for == i;
             const bool moved_on = voter.current_term > cand.current_term;
             if (!fresh && !moved_on)
             {
               return false;
             }
           }
         }
         return true;
       }});

    out.push_back(
      {"ConfigurationIndexesIncreaseInv", [](const State& s) {
         // Configuration entries appear in strictly increasing log order
         // (a scan meets them in index order), every log begins with one,
         // and none names an empty node set.
         for (Nid i = 1; i <= s.n_nodes; ++i)
         {
           const SpecNode& n = s.node(i);
           if (n.len() == 0 || n.log[0].type != EType::Reconfig)
           {
             return false;
           }
           for (const SpecEntry& e : n.log)
           {
             if (e.type == EType::Reconfig && e.config == 0)
             {
               return false;
             }
           }
         }
         return true;
       }});

    out.push_back(
      {"SnapshotInv", [](const State& s) {
         // The compaction watermark never passes the commit index (no
         // committed entry is ever dropped before it commits), and when
         // set it rests on a signature entry whose term the snapshot
         // records — the "log hole" is always signature-covered.
         for (Nid i = 1; i <= s.n_nodes; ++i)
         {
           const SpecNode& n = s.node(i);
           if (n.snap_idx == 0)
           {
             if (n.snap_term != 0)
             {
               return false;
             }
             continue;
           }
           if (n.snap_idx > n.commit_index || n.snap_idx > n.len())
           {
             return false;
           }
           const SpecEntry& cover = n.log[n.snap_idx - 1];
           if (cover.type != EType::Sig || cover.term != n.snap_term)
           {
             return false;
           }
         }
         return true;
       }});

    out.push_back(
      {"VotesFromKnownNodesInv", [](const State& s) {
         Bits all = 0;
         for (Nid n = 1; n <= s.n_nodes; ++n)
         {
           all = with_node(all, n);
         }
         for (Nid i = 1; i <= s.n_nodes; ++i)
         {
           if ((s.node(i).votes_granted & ~all) != 0)
           {
             return false;
           }
         }
         return true;
       }});

    return out;
  }

  std::vector<spec::ActionProperty<State>> build_action_properties(
    const Params& params)
  {
    using P = spec::ActionProperty<State>;
    std::vector<P> out;
    (void)params;

    out.push_back(
      {"AppendOnlyProp", [](const State& s, const State& t) {
         // Each node's committed log is only ever extended (Listing 3).
         for (Nid i = 1; i <= s.n_nodes; ++i)
         {
           const SpecNode& before = s.node(i);
           const SpecNode& after = t.node(i);
           const uint8_t upto = committed_len(before);
           if (committed_len(after) < upto)
           {
             return false;
           }
           for (uint8_t k = 1; k <= upto; ++k)
           {
             if (!(before.log[k - 1] == after.log[k - 1]))
             {
               return false;
             }
           }
         }
         return true;
       }});

    out.push_back(
      {"MonotonicCommitProp", [](const State& s, const State& t) {
         for (Nid i = 1; i <= s.n_nodes; ++i)
         {
           if (t.node(i).commit_index < s.node(i).commit_index)
           {
             return false;
           }
         }
         return true;
       }});

    out.push_back(
      {"MonotonicTermProp", [](const State& s, const State& t) {
         for (Nid i = 1; i <= s.n_nodes; ++i)
         {
           if (t.node(i).current_term < s.node(i).current_term)
           {
             return false;
           }
         }
         return true;
       }});

    out.push_back(
      {"MonotonicSnapshotProp", [](const State& s, const State& t) {
         // The compaction watermark only advances: an installed or locally
         // taken snapshot never un-compacts, and the recovery-equivalence
         // argument (snapshot + suffix == full replay) relies on it.
         for (Nid i = 1; i <= s.n_nodes; ++i)
         {
           if (t.node(i).snap_idx < s.node(i).snap_idx)
           {
             return false;
           }
         }
         return true;
       }});

    out.push_back(
      {"MonotonicMatchIndexProp", [](const State& s, const State& t) {
         // matchIndex never decreases except across an election ([74]
         // Fig. 2); adding this let the paper find a shorter
         // counterexample for the NACK bug (§7).
         for (Nid i = 1; i <= s.n_nodes; ++i)
         {
           const SpecNode& before = s.node(i);
           const SpecNode& after = t.node(i);
           if (
             before.role != SRole::Leader || after.role != SRole::Leader ||
             before.current_term != after.current_term)
           {
             continue;
           }
           for (Nid j = 1; j <= s.n_nodes; ++j)
           {
             if (after.match_index[j - 1] < before.match_index[j - 1])
             {
               return false;
             }
           }
         }
         return true;
       }});

    return out;
  }
}
