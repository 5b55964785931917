#include "specs/consistency/spec.h"

#include <algorithm>
#include <sstream>

#include "specs/consistency/symmetry.h"

namespace scv::specs::consistency
{
  std::string State::to_string() const
  {
    std::ostringstream os;
    os << "hist=[";
    for (const Event& e : history)
    {
      switch (e.type)
      {
        case EvType::RwReq:
          os << "rwReq(t" << int(e.tx) << ") ";
          break;
        case EvType::RwRes:
          os << "rwRes(t" << int(e.tx) << "@" << int(e.term) << "."
             << int(e.index) << ") ";
          break;
        case EvType::RoReq:
          os << "roReq(t" << int(e.tx) << ") ";
          break;
        case EvType::RoRes:
          os << "roRes(t" << int(e.tx) << "@" << int(e.term) << "."
             << int(e.index) << " obs=" << e.observed << ") ";
          break;
        case EvType::Status:
          os << "status(t" << int(e.tx) << "@" << int(e.term) << "."
             << int(e.index)
             << (e.status == TxSt::Committed ? "=C" : "=I") << ") ";
          break;
      }
    }
    os << "] branches=";
    for (size_t b = 0; b < branches.size(); ++b)
    {
      os << "b" << (b + 1) << "[";
      for (const TxId8 t : branches[b])
      {
        os << "t" << int(t) << " ";
      }
      os << "] ";
    }
    os << "committed=[";
    for (const TxId8 t : committed)
    {
      os << "t" << int(t) << " ";
    }
    os << "]";
    return os.str();
  }

  State initial_state()
  {
    State s;
    s.branches.push_back({}); // term-1 leader starts with an empty branch
    return s;
  }

  namespace
  {
    using spec::Emit;

    bool requested(const State& s, TxId8 tx, EvType req_type)
    {
      for (const Event& e : s.history)
      {
        if (e.type == req_type && e.tx == tx)
        {
          return true;
        }
      }
      return false;
    }

    bool responded(const State& s, TxId8 tx)
    {
      for (const Event& e : s.history)
      {
        if ((e.type == EvType::RwRes || e.type == EvType::RoRes) && e.tx == tx)
        {
          return true;
        }
      }
      return false;
    }

    bool has_status(const State& s, TxId8 tx, TxSt status)
    {
      for (const Event& e : s.history)
      {
        if (e.type == EvType::Status && e.tx == tx && e.status == status)
        {
          return true;
        }
      }
      return false;
    }

    bool executed_anywhere(const State& s, TxId8 tx)
    {
      for (const auto& b : s.branches)
      {
        if (std::find(b.begin(), b.end(), tx) != b.end())
        {
          return true;
        }
      }
      return false;
    }

    size_t count_requests(const State& s, EvType type)
    {
      size_t c = 0;
      for (const Event& e : s.history)
      {
        if (e.type == type)
        {
          ++c;
        }
      }
      return c;
    }

    /// Branch b's first `len` entries equal the committed prefix's first
    /// `len` entries.
    bool prefix_matches_committed(
      const State& s, const std::vector<TxId8>& branch, size_t len)
    {
      if (branch.size() < len || s.committed.size() < len)
      {
        return false;
      }
      for (size_t k = 0; k < len; ++k)
      {
        if (branch[k] != s.committed[k])
        {
          return false;
        }
      }
      return true;
    }

    /// The (term, index) a response recorded for this tx, if any.
    const Event* response_of(const State& s, TxId8 tx)
    {
      for (const Event& e : s.history)
      {
        if ((e.type == EvType::RwRes || e.type == EvType::RoRes) && e.tx == tx)
        {
          return &e;
        }
      }
      return nullptr;
    }
  }

  bool observed_ro_inv(const State& s)
  {
    // Listing 4 (ObservedRoInv): for every committed rw response at history
    // position i and committed ro transaction requested at position j > i,
    // the ro response must observe the rw transaction.
    for (size_t i = 0; i < s.history.size(); ++i)
    {
      const Event& rw_res = s.history[i];
      if (rw_res.type != EvType::RwRes ||
          !has_status(s, rw_res.tx, TxSt::Committed))
      {
        continue;
      }
      for (size_t j = i + 1; j < s.history.size(); ++j)
      {
        const Event& ro_req = s.history[j];
        if (ro_req.type != EvType::RoReq ||
            !has_status(s, ro_req.tx, TxSt::Committed))
        {
          continue;
        }
        for (const Event& ro_res : s.history)
        {
          if (ro_res.type == EvType::RoRes && ro_res.tx == ro_req.tx)
          {
            if (!has_tx(ro_res.observed, rw_res.tx))
            {
              return false;
            }
          }
        }
      }
    }
    return true;
  }

  spec::SpecDef<State> build_spec(const Params& params)
  {
    using spec::Action;
    spec::SpecDef<State> def;
    def.name = "ccf-consistency";
    def.init = {initial_state()};
    const Params p = params;

    // --- actions -----------------------------------------------------------

    def.actions.push_back(
      {"RwTxRequest",
       [p](const State& s, const Emit<State>& emit) {
         if (count_requests(s, EvType::RwReq) >= p.max_rw_txs)
         {
           return;
         }
         State s2 = s;
         s2.history.push_back({EvType::RwReq, s2.next_tx, 0, 0, 0, {}});
         s2.next_tx += 1;
         emit(std::move(s2));
       },
       1.0});

    def.actions.push_back(
      {"RoTxRequest",
       [p](const State& s, const Emit<State>& emit) {
         if (count_requests(s, EvType::RoReq) >= p.max_ro_txs)
         {
           return;
         }
         State s2 = s;
         s2.history.push_back({EvType::RoReq, s2.next_tx, 0, 0, 0, {}});
         s2.next_tx += 1;
         emit(std::move(s2));
       },
       1.0});

    def.actions.push_back(
      {"RwTxExecute",
       [](const State& s, const Emit<State>& emit) {
         // Any requested, not-yet-executed rw tx can be appended to any
         // branch: any node that believes itself leader may execute it.
         for (TxId8 tx = 1; tx < s.next_tx; ++tx)
         {
           if (!requested(s, tx, EvType::RwReq) || executed_anywhere(s, tx))
           {
             continue;
           }
           for (size_t b = 0; b < s.branches.size(); ++b)
           {
             State s2 = s;
             s2.branches[b].push_back(tx);
             emit(std::move(s2));
           }
         }
       },
       1.0});

    def.actions.push_back(
      {"RwTxResponse",
       [](const State& s, const Emit<State>& emit) {
         // The executing node replies before replication (§2): the
         // response carries the tx id (term.index) and everything observed.
         // The responding branch is where the tx was *executed* — the
         // earliest branch containing it (forks copy it into later
         // branches at the same position, but the tx id was assigned at
         // execution time).
         std::vector<bool> already(s.next_tx, false);
         for (size_t b = 0; b < s.branches.size(); ++b)
         {
           for (size_t i = 0; i < s.branches[b].size(); ++i)
           {
             const TxId8 tx = s.branches[b][i];
             if (already[tx])
             {
               continue;
             }
             already[tx] = true;
             if (!requested(s, tx, EvType::RwReq) || responded(s, tx))
             {
               continue;
             }
             Event e;
             e.type = EvType::RwRes;
             e.tx = tx;
             e.term = static_cast<uint8_t>(b + 1);
             e.index = static_cast<uint8_t>(i + 1);
             for (size_t k = 0; k < i; ++k)
             {
               e.observed = with_tx(e.observed, s.branches[b][k]);
             }
             State s2 = s;
             s2.history.push_back(e);
             emit(std::move(s2));
           }
         }
       },
       1.0});

    def.actions.push_back(
      {"RoTxResponse",
       [](const State& s, const Emit<State>& emit) {
         // A read-only tx is answered locally by any node that believes
         // itself leader, reading the head of its branch.
         for (TxId8 tx = 1; tx < s.next_tx; ++tx)
         {
           if (!requested(s, tx, EvType::RoReq) || responded(s, tx))
           {
             continue;
           }
           for (size_t b = 0; b < s.branches.size(); ++b)
           {
             Event e;
             e.type = EvType::RoRes;
             e.tx = tx;
             e.term = static_cast<uint8_t>(b + 1);
             e.index = static_cast<uint8_t>(s.branches[b].size());
             for (const TxId8 t : s.branches[b])
             {
               e.observed = with_tx(e.observed, t);
             }
             State s2 = s;
             s2.history.push_back(e);
             emit(std::move(s2));
           }
         }
       },
       1.0});

    def.actions.push_back(
      {"AdvanceCommit",
       [](const State& s, const Emit<State>& emit) {
         // The committed prefix extends along any branch that contains it.
         for (const auto& b : s.branches)
         {
           if (!prefix_matches_committed(s, b, s.committed.size()))
           {
             continue;
           }
           for (size_t len = s.committed.size() + 1; len <= b.size(); ++len)
           {
             State s2 = s;
             s2.committed.assign(b.begin(), b.begin() + static_cast<ptrdiff_t>(len));
             emit(std::move(s2));
           }
         }
       },
       1.0});

    def.actions.push_back(
      {"StatusCommitted",
       [](const State& s, const Emit<State>& emit) {
         // A responded tx whose observed point lies inside the committed
         // prefix gets a COMMITTED status message.
         for (TxId8 tx = 1; tx < s.next_tx; ++tx)
         {
           const Event* res = response_of(s, tx);
           if (
             res == nullptr || has_status(s, tx, TxSt::Committed) ||
             has_status(s, tx, TxSt::Invalid))
           {
             continue;
           }
           const auto& branch = s.branches[res->term - 1];
           if (
             s.committed.size() < res->index ||
             !prefix_matches_committed(s, branch, res->index))
           {
             continue;
           }
           State s2 = s;
           s2.history.push_back(
             {EvType::Status, tx, 0, res->term, res->index, TxSt::Committed});
           emit(std::move(s2));
         }
       },
       1.0});

    def.actions.push_back(
      {"StatusInvalid",
       [](const State& s, const Emit<State>& emit) {
         // A responded tx whose position conflicts with the committed
         // prefix can never commit: INVALID.
         for (TxId8 tx = 1; tx < s.next_tx; ++tx)
         {
           const Event* res = response_of(s, tx);
           if (
             res == nullptr || has_status(s, tx, TxSt::Committed) ||
             has_status(s, tx, TxSt::Invalid))
           {
             continue;
           }
           const auto& branch = s.branches[res->term - 1];
           if (
             s.committed.size() < res->index ||
             prefix_matches_committed(s, branch, res->index))
           {
             continue;
           }
           State s2 = s;
           s2.history.push_back(
             {EvType::Status, tx, 0, res->term, res->index, TxSt::Invalid});
           emit(std::move(s2));
         }
       },
       1.0});

    def.actions.push_back(
      {"NewBranch",
       [p](const State& s, const Emit<State>& emit) {
         // Leader election: the new leader's log is any prefix of any
         // existing branch that still contains the committed prefix.
         if (s.branches.size() >= p.max_branches)
         {
           return;
         }
         std::vector<std::vector<TxId8>> seen;
         for (const auto& b : s.branches)
         {
           for (size_t len = 0; len <= b.size(); ++len)
           {
             std::vector<TxId8> prefix(
               b.begin(), b.begin() + static_cast<ptrdiff_t>(len));
             if (len < s.committed.size() ||
                 !prefix_matches_committed(s, prefix, s.committed.size()))
             {
               continue;
             }
             if (std::find(seen.begin(), seen.end(), prefix) != seen.end())
             {
               continue;
             }
             seen.push_back(prefix);
             State s2 = s;
             s2.branches.push_back(prefix);
             emit(std::move(s2));
           }
         }
       },
       0.3});

    // --- invariants -----------------------------------------------------------

    def.invariants.push_back(
      {"PrevCommittedInv", [](const State& s) {
         // Listing 4 / Property 2: within one term, if the status at the
         // larger (or equal) index is COMMITTED, every smaller-index status
         // in that term is COMMITTED too.
         for (const Event& ei : s.history)
         {
           if (ei.type != EvType::Status || ei.status != TxSt::Committed)
           {
             continue;
           }
           for (const Event& ej : s.history)
           {
             if (
               ej.type == EvType::Status && ej.term == ei.term &&
               ej.index <= ei.index && ej.status != TxSt::Committed)
             {
               return false;
             }
           }
         }
         return true;
       }});

    def.invariants.push_back(
      {"StatusStableInv", [](const State& s) {
         for (TxId8 tx = 1; tx < s.next_tx; ++tx)
         {
           if (
             has_status(s, tx, TxSt::Committed) &&
             has_status(s, tx, TxSt::Invalid))
           {
             return false;
           }
         }
         return true;
       }});

    def.invariants.push_back(
      {"CommittedLinearizableInv", [](const State& s) {
         // Committed rw transactions form one order: a committed rw tx
         // observes exactly the committed transactions before it.
         for (const Event& e : s.history)
         {
           if (e.type != EvType::RwRes || !has_status(s, e.tx, TxSt::Committed))
           {
             continue;
           }
           // e.index is its position in the committed prefix.
           if (s.committed.size() < e.index ||
               s.committed[e.index - 1] != e.tx)
           {
             return false;
           }
           TxSet expected = 0;
           for (size_t k = 0; k + 1 < e.index; ++k)
           {
             expected = with_tx(expected, s.committed[k]);
           }
           if (e.observed != expected)
           {
             return false;
           }
         }
         return true;
       }});

    def.invariants.push_back(
      {"ObservedRwInv", [](const State& s) {
         // Strict serializability of committed rw txs: a committed rw tx
         // requested after another committed rw tx's response observes it.
         for (size_t i = 0; i < s.history.size(); ++i)
         {
           const Event& res = s.history[i];
           if (
             res.type != EvType::RwRes ||
             !has_status(s, res.tx, TxSt::Committed))
           {
             continue;
           }
           for (size_t j = i + 1; j < s.history.size(); ++j)
           {
             const Event& req = s.history[j];
             if (
               req.type != EvType::RwReq ||
               !has_status(s, req.tx, TxSt::Committed))
             {
               continue;
             }
             for (const Event& res2 : s.history)
             {
               if (
                 res2.type == EvType::RwRes && res2.tx == req.tx &&
                 !has_tx(res2.observed, res.tx))
               {
                 return false;
               }
             }
           }
         }
         return true;
       }});

    def.invariants.push_back(
      {"TimestampOrderingInv", [](const State& s) {
         // Lexicographic tx-id order agrees with execution order for
         // committed read-write transactions (§2 "timestamp ordering").
         // Read-only statuses are excluded: their index is an observation
         // point, not an occupied log position.
         const auto is_rw = [&s](TxId8 tx) {
           for (const Event& e : s.history)
           {
             if (e.type == EvType::RwRes && e.tx == tx)
             {
               return true;
             }
           }
           return false;
         };
         for (const Event& a : s.history)
         {
           for (const Event& b : s.history)
           {
             if (
               a.type == EvType::Status && b.type == EvType::Status &&
               a.status == TxSt::Committed && b.status == TxSt::Committed &&
               a.tx != b.tx && is_rw(a.tx) && is_rw(b.tx) &&
               (a.term < b.term || (a.term == b.term && a.index < b.index)) &&
               a.index >= b.index)
             {
               return false;
             }
           }
         }
         return true;
       }});

    if (p.include_observed_ro)
    {
      def.invariants.push_back({"ObservedRoInv", observed_ro_inv});
    }

    // Tx-relabeling symmetry (inert unless an engine opts in via
    // EngineOptions::symmetry).
    def.symmetry = tx_symmetry();

    return def;
  }
}
