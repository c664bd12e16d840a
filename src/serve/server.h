#ifndef QIKEY_SERVE_SERVER_H_
#define QIKEY_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "data/schema.h"
#include "obs/metrics.h"
#include "serve/conn.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "util/net.h"
#include "util/status.h"

namespace qikey {

/// Tuning knobs for `ServeServer`. The defaults keep every buffer
/// bounded; a flooded or stalled client costs O(caps) memory,
/// never O(traffic).
struct ServerOptions {
  /// Listen address; port 0 binds an ephemeral port (see `port()`).
  HostPort listen{"127.0.0.1", 0};

  /// Accepted connections beyond this are greeted with
  /// `err overload ...` and closed immediately.
  size_t max_connections = 1024;
  /// Longest request line (bytes, excluding the newline). A longer
  /// line gets `err parse ...` and the connection is closed (framing
  /// is lost past this point).
  size_t max_line_bytes = 4096;

  /// Admission control: most request lines admitted from one read burst
  /// of one connection. A line past the cap is answered
  /// `err overload ...` instead of executed — bounded memory, never
  /// unbounded buffering. No other cap is needed: a burst executes
  /// before the reactor reads from any other connection.
  size_t max_pending_per_conn = 256;
  /// When true, a connection that trips the per-connection cap is also
  /// closed after the overload response flushes (flood containment);
  /// default keeps it open so well-behaved bursts just shed load.
  bool close_on_overload = false;

  /// Unsent response bytes a stalled client may accumulate before the
  /// connection is closed (the reactor never buffers beyond this).
  size_t max_write_buffer_bytes = 1 << 20;

  /// A connection with no inbound bytes for this long is closed — this
  /// is also what defeats slow-loris partial lines. <= 0 disables
  /// reaping.
  int idle_timeout_ms = 60 * 1000;
  /// On drain: how long to wait for write buffers to flush before
  /// force-closing.
  int drain_timeout_ms = 5000;

  /// Most lines handed to one `ExecuteBatch` call.
  size_t max_batch = 512;

  /// Registry the server (and its engine) register their metrics with
  /// at `Start()` — this is what the `stats` wire verb renders. Null
  /// means the server creates and owns a private registry, so `stats`
  /// works with zero wiring; pass one to share it with other exposure
  /// paths (periodic dumps, SIGUSR1). Must outlive the server.
  MetricsRegistry* metrics = nullptr;

  /// Trace every Nth admitted request line with per-stage timings
  /// (parse / queue-wait / execute / flush; queue-wait is admission to
  /// the start of the line's batch); 0 disables tracing. Each
  /// sampled request produces one JSON line through `trace_sink`.
  uint64_t trace_sample = 0;
  /// Destination for trace lines (called on the reactor thread, line
  /// has no trailing newline). Null means stderr via `WriteRawLine`.
  std::function<void(const std::string&)> trace_sink;
};

/// Monotonic counters, readable while serving (`ServeServer::stats`).
/// A point-in-time copy assembled from the server's registry-backed
/// `Counter`s — kept as a plain struct so existing callers and tests
/// read the same shape they always did.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t lines_received = 0;
  uint64_t responses_sent = 0;     ///< response lines queued to clients
  uint64_t overload_responses = 0; ///< `err overload` lines (admission)
  uint64_t parse_errors = 0;       ///< `err parse` lines
  uint64_t idle_reaped = 0;        ///< connections closed by the reaper
  uint64_t batches_executed = 0;
};

/// \brief The `qikey serve` front end: a non-blocking epoll
/// acceptor/reactor speaking the newline-delimited `QIKEY/1` protocol
/// (see `serve/protocol.h`) on one thread, executing every request to
/// completion on that thread against a shared `QueryEngine`.
///
/// ## Threading model
///
///   reactor thread:  accept / read / frame lines / admission control /
///                    parse + `QueryEngine::ExecuteBatch` + encode /
///                    write buffered responses / timeouts / drain
///   engine pool:     intra-batch parallelism (inside the engine)
///
/// A read burst's admitted lines are parsed, executed and encoded
/// inline, then appended to the connection's write buffer and flushed
/// — no thread hop between a request line and its response. A filter
/// query costs well under a microsecond, far less than a handoff to
/// another thread; large batches still fan out over the engine's pool.
/// The price is head-of-line blocking across connections: while one
/// batch executes, every other connection waits. Connections are owned
/// exclusively by the reactor, and each connection's lines execute in
/// arrival order, which keeps responses in request order with no
/// sequencing metadata. Accepted sockets get `TCP_NODELAY`, so a
/// response never waits for the client's delayed ACK of the previous
/// one (Nagle's algorithm).
///
/// ## Backpressure
///
/// Every buffer is bounded (`ServerOptions`): lines of one read burst
/// past the admission cap are answered `err overload` immediately
/// instead of executed, and a client that stops reading its
/// responses is closed once `max_write_buffer_bytes` of replies pile
/// up. Memory per connection is O(caps) regardless of how fast the
/// client floods.
///
/// Every request line still gets exactly one response line, and
/// responses to ADMITTED requests arrive in request order; an
/// `err overload` shed is answered at admission, so it may arrive ahead
/// of responses to earlier lines of the same read burst, which execute
/// once the burst is admitted. (Order-preserving
/// shedding would require queuing the shed — the unbounded buffering
/// this layer exists to rule out.)
///
/// ## Snapshots
///
/// The server holds no snapshot itself — it serves whatever the
/// `SnapshotStore` behind its `QueryEngine` currently publishes.
/// Publishing a new snapshot while serving is safe and instant:
/// a batch already executing finishes on its pinned epoch, the next
/// batch sees the new one (`SnapshotStore` semantics). The schema must
/// stay fixed across publishes (request parsing is schema-bound).
///
/// ## Lifecycle
///
///   ServeServer server(&engine, schema, options);
///   server.Start();              // binds; reactor running
///   ... server.port() ...
///   server.Shutdown();           // begin graceful drain (thread-safe)
///   server.Join();               // wait until drained and stopped
///
/// Graceful drain: stop accepting, stop reading, flush write buffers
/// (up to `drain_timeout_ms`), close. Every admitted line has already
/// been answered by then — execution never outlives the read that
/// admitted it. The CLI translates SIGTERM into exactly this sequence.
class ServeServer {
 public:
  /// `engine` (and the store behind it) must outlive the server.
  /// `schema` is the request-parsing schema — the served snapshot's.
  ServeServer(const QueryEngine* engine, Schema schema,
              const ServerOptions& options);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Binds and starts the reactor thread. InvalidArgument /
  /// IOError on a bad address or bind failure (nothing started).
  Status Start();

  /// The bound port (after `Start`); resolves `listen.port == 0`.
  uint16_t port() const { return port_; }

  /// Initiates graceful drain. Safe from any thread, idempotent, and
  /// non-blocking — pair with `Join()` to wait for completion.
  void Shutdown();

  /// Waits for the reactor to stop (after `Shutdown`, or
  /// returns immediately if never started).
  void Join();

  /// True from `Start` until the drain completes.
  bool running() const { return running_.load(std::memory_order_acquire); }

  ServerStats stats() const;

  /// The registry backing the `stats` verb: `options.metrics` when
  /// provided, the server's own otherwise. Valid after `Start()`.
  const MetricsRegistry* metrics() const { return registry_; }

 private:
  /// Per-stage timings of one trace-sampled request (steady ns).
  struct TraceRecord {
    uint64_t request_id = 0;
    int64_t admit_ns = 0;    ///< admission timestamp
    int64_t parse_ns = 0;    ///< time parsing this line
    int64_t queue_ns = 0;    ///< admission -> start of its batch
    int64_t execute_ns = 0;  ///< engine batch execution (shared by batch)
    int64_t done_ns = 0;     ///< timestamp when encoding finished
  };

  void ReactorLoop();

  /// Registers the server's own metric families (`server.*`) with
  /// `registry_` and attaches the engine's. Called once from `Start()`
  /// before any thread exists.
  void RegisterMetrics();

  /// Folds this connection's read/write buffer sizes into the
  /// aggregate buffer gauges (delta vs what was last folded in).
  /// Reactor thread only.
  void SyncConnGauges(ServeConn* conn);

  /// Emits one trace line (reactor thread) for a sampled request whose
  /// response was just queued for flushing.
  void EmitTrace(uint64_t conn_id, const TraceRecord& trace,
                 int64_t flush_done_ns);

  /// Executes one batch: parse each line (hello/parse errors answered
  /// inline), one `ExecuteBatch` for the valid requests, encode in
  /// original line order onto `conn`'s write buffer. Appends a record
  /// per trace-sampled line to `traces`.
  void ExecuteLines(ServeConn* conn, std::span<const PendingLine> lines,
                    std::vector<TraceRecord>* traces);

  // Reactor-thread helpers (all connection state is reactor-owned).
  void AcceptNewConnections();
  void HandleReadable(ServeConn* conn);
  void HandleWritable(ServeConn* conn);
  /// Executes the lines admitted from one read burst of `conn` in
  /// batches of at most `max_batch`, flushes the responses, then emits
  /// their traces.
  void ExecuteAdmitted(ServeConn* conn, std::span<const PendingLine> lines);
  void FlushWrites(ServeConn* conn);
  /// Flushes, then closes `conn` if it is finished (peer EOF, close
  /// policy or drain, with nothing left to send) or refreshes its
  /// epoll interest otherwise.
  void FinishIo(ServeConn* conn);
  void UpdateEpollInterest(ServeConn* conn);
  void CloseConn(uint64_t conn_id);
  void ReapIdleConns(int64_t now_ms);
  void BeginDrain();
  bool DrainComplete() const;

  const QueryEngine* engine_;
  const Schema schema_;
  ServerOptions options_;

  OwnedFd listen_fd_;
  OwnedFd epoll_fd_;
  OwnedFd wake_fd_;  ///< eventfd: shutdown requested
  uint16_t port_ = 0;

  std::thread reactor_;

  std::atomic<bool> started_{false};
  std::atomic<bool> running_{false};
  std::atomic<bool> shutdown_requested_{false};

  // Reactor-owned (no locking: reactor thread only).
  std::unordered_map<uint64_t, std::unique_ptr<ServeConn>> conns_;
  uint64_t next_conn_id_ = 0;
  uint64_t next_request_id_ = 0;
  uint64_t trace_seq_ = 0;  ///< admitted-line counter for sampling
  bool draining_ = false;
  int64_t drain_deadline_ms_ = 0;

  // Observability. Counters/gauges are internally thread-safe; the
  // registry is set up in Start() before any server thread runs.
  MetricsRegistry* registry_ = nullptr;
  std::unique_ptr<MetricsRegistry> own_registry_;
  Counter connections_accepted_;
  Counter connections_closed_;
  Counter lines_received_;
  Counter lines_admitted_;
  Counter responses_sent_;
  Counter overload_responses_;
  Counter parse_errors_;
  Counter idle_reaped_;
  Counter batches_executed_;
  Counter traces_emitted_;
  Gauge connections_;            ///< currently open connections
  Gauge read_buffer_bytes_;      ///< partial request bytes, all conns
  Gauge write_buffer_bytes_;     ///< unsent response bytes, all conns
  LatencyHistogram request_ns_;  ///< admission -> response flushed
};

}  // namespace qikey

#endif  // QIKEY_SERVE_SERVER_H_
