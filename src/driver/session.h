// Client sessions over a cluster (§2, §5, §6.5) — the single serving
// path shared by the scenario runner, the nemesis, and the load harness.
//
// Models CCF's client-observable interface: a read-write transaction is
// executed and answered by the leader *before* replication, carrying its
// (term, index) transaction id; a read-only transaction is answered
// locally by any node that believes itself leader; clients then use
// status polls to learn when transactions move from PENDING to COMMITTED
// or INVALID.
//
// On top of the scripted-client behavior the session adds the serving
// machinery:
//
//  * application transactions: submit_app() executes a kv::Tx body
//    against the leader's *speculative* view (committed store overlaid
//    with the write sets of ordered-but-uncommitted ledger entries, so
//    read-your-writes holds across a signature batch) and replicates the
//    resulting write-set payload;
//  * request batching: with SessionOptions::batch_size > 0 every N
//    accepted read-write transactions are closed with a signature
//    transaction — commit only advances at signature boundaries (§2.1),
//    so the batch IS the unit of commit acknowledgement;
//  * commit acknowledgement: commit_ack() tracks the raw (view, seqno)
//    id assigned by the leader through RaftNode::status — the TxStatus
//    lifecycle of §2 — while poll() keeps the application-level
//    five-message history that consistency trace validation consumes.
//
// Every interaction is recorded in a history of the five message kinds
// the consistency spec models (§5) — the raw material for consistency
// trace validation (§6.5). Transaction ids and observation sets are
// expressed over *application* (Data) transactions only, matching the
// spec's modeled application where every transaction reads the current
// value and appends its own identifier.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "consensus/txid_runs.h"
#include "driver/cluster.h"
#include "kv/tx.h"

namespace scv::driver
{
  enum class ClientEventKind : uint8_t
  {
    RwReq,
    RwRes,
    RoReq,
    RoRes,
    Status,
  };

  const char* to_string(ClientEventKind kind);

  struct ClientEvent
  {
    ClientEventKind kind = ClientEventKind::RwReq;
    /// Client-local sequence number of the transaction.
    uint64_t client_seq = 0;
    /// Assigned transaction id. For read-write transactions `index` is the
    /// position among application transactions in the executing leader's
    /// log; for read-only transactions it is the observation point (the
    /// number of application transactions observed).
    consensus::TxId txid;
    /// Application transactions observed, in execution order. Stored as
    /// run-length TxIdRuns (one run per term), so a response costs
    /// O(#terms), not O(history length); it iterates, compares and
    /// serializes like the std::vector<TxId> it lists.
    consensus::TxIdRuns observed;
    consensus::TxStatus status = consensus::TxStatus::Unknown;

    bool operator==(const ClientEvent&) const = default;
  };

  struct SessionOptions
  {
    /// Close every `batch_size` accepted read-write transactions with a
    /// signature transaction (0 disables automatic batching; callers then
    /// sign explicitly, as the scripted scenarios do).
    size_t batch_size = 0;
  };

  /// How an application transaction submission ended.
  enum class AppOutcome : uint8_t
  {
    /// Executed on the leader and replicating; seq is set.
    Submitted,
    /// The transaction body refused (application-level abort); nothing
    /// was replicated and no history events were recorded.
    Aborted,
    /// No node currently believes itself leader.
    NoLeader,
    /// A leader was found but refused the request; the request is in the
    /// history (seq set) with no response.
    Refused,
  };

  struct AppSubmitResult
  {
    AppOutcome outcome = AppOutcome::NoLeader;
    /// Client-local sequence number. Unset for Aborted / NoLeader, and for
    /// Submitted transactions that wrote nothing (pure reads execute on
    /// the leader's view without replicating anything).
    std::optional<uint64_t> seq;
  };

  class Session
  {
  public:
    explicit Session(Cluster& cluster, SessionOptions options = {}) :
      cluster_(cluster), options_(options)
    {}

    // --- read-write path -------------------------------------------------

    /// Submits a read-write transaction to the current leader. The leader
    /// executes and responds immediately (§2); the response (with tx id
    /// and observed predecessors) is recorded and the leader's outbox is
    /// flushed into the network. Returns the client-local sequence
    /// number, or nullopt when no node believes itself leader. With
    /// batching enabled, every batch_size-th accepted transaction is
    /// followed by a signature transaction.
    std::optional<uint64_t> submit_rw(
      std::string payload, std::optional<NodeId> server = std::nullopt);

    /// Executes an application transaction: runs `body` over a kv::Tx on
    /// the leader's speculative view, then replicates the write set as an
    /// encoded payload. `body` returns false to abort (nothing is
    /// submitted); its OpResult-style value can be captured by reference.
    AppSubmitResult submit_app(const std::function<bool(kv::Tx&)>& body);

    /// A read transaction over a node's speculative view (default: the
    /// current leader); nullopt when the node does not believe itself
    /// leader. Pair with submit_ro() to record the read in the history.
    std::optional<kv::Tx> begin_read(
      std::optional<NodeId> server = std::nullopt);

    /// Asks the current leader for a signature transaction, closing the
    /// open batch. Returns the signature's (term, index), if signed.
    std::optional<consensus::TxId> sign();

    /// Closes a partially filled batch with a signature transaction; a
    /// no-op when the batch is empty or batching is disabled.
    std::optional<consensus::TxId> flush();

    // --- read-only path --------------------------------------------------

    /// Submits a read-only transaction to `server` (or the current leader
    /// when unset). Only a node that believes itself leader answers.
    std::optional<uint64_t> submit_ro(
      std::optional<NodeId> server = std::nullopt);

    // --- acknowledgement -------------------------------------------------

    /// Polls the application-level status of a previously submitted
    /// transaction on `server` (default: current leader). Terminal
    /// statuses (COMMITTED / INVALID) are recorded in the history once.
    consensus::TxStatus poll(
      uint64_t client_seq, std::optional<NodeId> server = std::nullopt);

    /// TxStatus-style commit acknowledgement: the raw (view, seqno)
    /// ledger id assigned at submission, queried through
    /// RaftNode::status on `server` (default: current leader). Unknown
    /// for read-only transactions and never-executed requests. Does not
    /// touch the history — poll() owns the application-level record.
    [[nodiscard]] consensus::TxStatus commit_ack(
      uint64_t client_seq, std::optional<NodeId> server = std::nullopt) const;

    // --- observability ---------------------------------------------------

    [[nodiscard]] const std::vector<ClientEvent>& history() const
    {
      return history_;
    }

    /// The assigned application-level tx id of a submitted transaction,
    /// if it was answered.
    [[nodiscard]] std::optional<consensus::TxId> txid_of(
      uint64_t client_seq) const;

    /// The raw ledger (view, seqno) id of a read-write transaction, if it
    /// was executed by a leader.
    [[nodiscard]] std::optional<consensus::TxId> raw_txid_of(
      uint64_t client_seq) const;

    /// Signature transactions emitted at batch boundaries (by automatic
    /// batching or explicit sign()), in emission order.
    [[nodiscard]] const std::vector<consensus::TxId>& batch_signatures() const
    {
      return batch_signatures_;
    }

    /// Accepted read-write transactions in the currently open batch.
    [[nodiscard]] size_t open_batch() const
    {
      return batch_fill_;
    }

  private:
    struct Pending
    {
      uint64_t client_seq;
      bool read_only;
      consensus::TxId txid;
      /// Raw ledger id ((view, seqno)); index 0 when never executed or
      /// read-only.
      consensus::TxId raw;
      /// Position of the response event (which carries `observed`) in
      /// history_.
      size_t response;
      bool terminal = false;
    };

    /// Application-transaction ids in `node`'s log up to `upto` (ledger
    /// index), in order.
    static consensus::TxIdRuns app_txids_upto(
      const consensus::RaftNode& node, consensus::Index upto);

    /// Speculative read view of a node: ordered-but-uncommitted write
    /// sets in its ledger overlaid on its committed store.
    [[nodiscard]] kv::ReadView speculative_view(NodeId id) const;

    void note_batched_submit();

    Pending* find(uint64_t client_seq);
    [[nodiscard]] const Pending* find(uint64_t client_seq) const;

    Cluster& cluster_;
    SessionOptions options_;
    std::vector<ClientEvent> history_;
    std::vector<Pending> pending_; // ascending client_seq
    std::vector<consensus::TxId> batch_signatures_;
    size_t batch_fill_ = 0;
    uint64_t next_seq_ = 1;
  };
}
