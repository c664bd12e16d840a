#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

#include "util/jsonw.h"
#include "util/logging.h"

namespace qikey {

namespace {

/// epoll user-data ids for the two non-connection descriptors;
/// connection ids start above these and are never reused.
constexpr uint64_t kWakeId = 0;
constexpr uint64_t kListenId = 1;
constexpr uint64_t kFirstConnId = 2;

constexpr int kEpollBatch = 64;
constexpr int kEpollTickMs = 50;  ///< timeout/reap granularity

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The server's reply to a client's `QIKEY/<n>` version assertion.
std::string HelloAck(ProtocolVersion version) {
  return "ok v" + std::to_string(static_cast<uint32_t>(version));
}

}  // namespace

ServeServer::ServeServer(const QueryEngine* engine, Schema schema,
                         const ServerOptions& options)
    : engine_(engine),
      schema_(std::move(schema)),
      options_(options),
      next_conn_id_(kFirstConnId) {}

ServeServer::~ServeServer() {
  Shutdown();
  Join();
}

Status ServeServer::Start() {
  if (started_.exchange(true)) {
    return Status::InvalidArgument("server already started");
  }
  if (options_.max_line_bytes == 0 || options_.max_pending_per_conn == 0 ||
      options_.max_batch == 0) {
    return Status::InvalidArgument(
        "max_line_bytes, max_pending_per_conn, and max_batch must be "
        "positive");
  }
  Result<OwnedFd> listen_fd = OpenListenSocket(options_.listen, &port_);
  if (!listen_fd.ok()) return listen_fd.status();
  listen_fd_ = std::move(*listen_fd);

  epoll_fd_ = OwnedFd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd_.valid()) {
    return Status::IOError(std::string("epoll_create1: ") +
                           std::strerror(errno));
  }
  wake_fd_ = OwnedFd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wake_fd_.valid()) {
    return Status::IOError(std::string("eventfd: ") + std::strerror(errno));
  }
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = kWakeId;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &event) <
      0) {
    return Status::IOError(std::string("epoll_ctl(wake): ") +
                           std::strerror(errno));
  }
  event.events = EPOLLIN;
  event.data.u64 = kListenId;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, listen_fd_.get(),
                  &event) < 0) {
    return Status::IOError(std::string("epoll_ctl(listen): ") +
                           std::strerror(errno));
  }

  // Registry wiring happens strictly before the reactor exists, so the
  // reactor rendering the `stats` verb sees a fully built registry
  // without synchronization beyond thread creation.
  RegisterMetrics();

  running_.store(true, std::memory_order_release);
  reactor_ = std::thread([this] { ReactorLoop(); });
  return Status::OK();
}

void ServeServer::Shutdown() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (shutdown_requested_.exchange(true)) return;
  uint64_t one = 1;
  // Best-effort wake; the reactor also polls the flag every tick.
  [[maybe_unused]] ssize_t n =
      ::write(wake_fd_.get(), &one, sizeof(one));
}

void ServeServer::Join() {
  if (reactor_.joinable()) reactor_.join();
}

ServerStats ServeServer::stats() const {
  ServerStats stats;
  stats.connections_accepted = connections_accepted_.value();
  stats.connections_closed = connections_closed_.value();
  stats.lines_received = lines_received_.value();
  stats.responses_sent = responses_sent_.value();
  stats.overload_responses = overload_responses_.value();
  stats.parse_errors = parse_errors_.value();
  stats.idle_reaped = idle_reaped_.value();
  stats.batches_executed = batches_executed_.value();
  return stats;
}

void ServeServer::RegisterMetrics() {
  registry_ = options_.metrics;
  if (registry_ == nullptr) {
    own_registry_ = std::make_unique<MetricsRegistry>();
    registry_ = own_registry_.get();
  }
  registry_->RegisterCounter("server.connections_accepted",
                             &connections_accepted_);
  registry_->RegisterCounter("server.connections_closed",
                             &connections_closed_);
  registry_->RegisterCounter("server.lines_received", &lines_received_);
  registry_->RegisterCounter("server.lines_admitted", &lines_admitted_);
  registry_->RegisterCounter("server.responses_sent", &responses_sent_);
  registry_->RegisterCounter("server.overload_responses",
                             &overload_responses_);
  registry_->RegisterCounter("server.parse_errors", &parse_errors_);
  registry_->RegisterCounter("server.idle_reaped", &idle_reaped_);
  registry_->RegisterCounter("server.batches_executed", &batches_executed_);
  registry_->RegisterCounter("server.traces_emitted", &traces_emitted_);
  registry_->RegisterGauge("server.connections", &connections_);
  registry_->RegisterGauge("server.read_buffer_bytes", &read_buffer_bytes_);
  registry_->RegisterGauge("server.write_buffer_bytes", &write_buffer_bytes_);
  registry_->RegisterHistogram("server.request_ns", &request_ns_);
  engine_->RegisterMetrics(registry_);
}

void ServeServer::SyncConnGauges(ServeConn* conn) {
  size_t read_bytes = conn->splitter.buffered_bytes();
  size_t write_bytes = conn->unsent_bytes();
  read_buffer_bytes_.Add(static_cast<int64_t>(read_bytes) -
                         static_cast<int64_t>(conn->obs_read_bytes));
  write_buffer_bytes_.Add(static_cast<int64_t>(write_bytes) -
                          static_cast<int64_t>(conn->obs_write_bytes));
  conn->obs_read_bytes = read_bytes;
  conn->obs_write_bytes = write_bytes;
}

void ServeServer::EmitTrace(uint64_t conn_id, const TraceRecord& trace,
                            int64_t flush_done_ns) {
  std::string line;
  line.reserve(192);
  line += "{\"type\":\"trace\",\"request_id\":";
  line += std::to_string(trace.request_id);
  line += ",\"conn\":";
  line += std::to_string(conn_id);
  line += ",\"parse_ns\":";
  line += std::to_string(trace.parse_ns);
  line += ",\"queue_ns\":";
  line += std::to_string(trace.queue_ns);
  line += ",\"execute_ns\":";
  line += std::to_string(trace.execute_ns);
  line += ",\"flush_ns\":";
  line += std::to_string(flush_done_ns - trace.done_ns);
  line += ",\"total_ns\":";
  line += std::to_string(flush_done_ns - trace.admit_ns);
  line += '}';
  traces_emitted_.Increment();
  if (options_.trace_sink) {
    options_.trace_sink(line);
  } else {
    WriteRawLine(line);
  }
}

// ---------------------------------------------------------------------------
// Reactor thread
// ---------------------------------------------------------------------------

void ServeServer::ReactorLoop() {
  epoll_event events[kEpollBatch];
  while (true) {
    int n = ::epoll_wait(epoll_fd_.get(), events, kEpollBatch, kEpollTickMs);
    if (n < 0 && errno != EINTR) break;  // epoll itself failed; bail out
    int64_t now_ms = NowMs();

    if (shutdown_requested_.load(std::memory_order_acquire) && !draining_) {
      BeginDrain();
    }

    for (int i = 0; i < std::max(n, 0); ++i) {
      uint64_t id = events[i].data.u64;
      if (id == kWakeId) {
        uint64_t drained;
        while (::read(wake_fd_.get(), &drained, sizeof(drained)) > 0) {
        }
      } else if (id == kListenId) {
        AcceptNewConnections();
      } else {
        // The connection may have been closed by an earlier event in
        // this same batch — look it up fresh.
        auto it = conns_.find(id);
        if (it == conns_.end()) continue;
        ServeConn* conn = it->second.get();
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          CloseConn(id);
          continue;
        }
        if (events[i].events & EPOLLIN) {
          conn->last_activity_ms = now_ms;
          HandleReadable(conn);
          if (conns_.find(id) == conns_.end()) continue;
        }
        if (events[i].events & EPOLLOUT) HandleWritable(conn);
      }
    }

    ReapIdleConns(now_ms);

    if (draining_) {
      if (now_ms >= drain_deadline_ms_ && !conns_.empty()) {
        // Drain timeout: force-close whatever is left (stalled clients).
        // Collect ids first — CloseConn mutates the map.
        std::vector<uint64_t> remaining;
        remaining.reserve(conns_.size());
        for (const auto& [id, conn] : conns_) remaining.push_back(id);
        for (uint64_t id : remaining) CloseConn(id);
      }
      if (DrainComplete()) break;
    }
  }
  running_.store(false, std::memory_order_release);
}

void ServeServer::AcceptNewConnections() {
  while (true) {
    int raw = ::accept4(listen_fd_.get(), nullptr, nullptr,
                        SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (raw < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure (EMFILE, ...): try next tick
    }
    OwnedFd fd(raw);
    if (conns_.size() >= options_.max_connections) {
      // Best effort: tell the client why before dropping it. The
      // socket buffer of a fresh connection always has room for one
      // line, so a short write just means the client never sees it.
      std::string line =
          EncodeErrorLine(ServeErrorCode::kOverload,
                          "connection limit reached") +
          "\n";
      [[maybe_unused]] ssize_t n =
          ::send(fd.get(), line.data(), line.size(), MSG_NOSIGNAL);
      overload_responses_.Increment();
      continue;  // OwnedFd closes it
    }
    // Responses are small writes. With Nagle on, one sent while an
    // earlier one is still unacknowledged waits for the client's
    // delayed ACK — up to the gap between the client's requests.
    int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<ServeConn>(std::move(fd), id,
                                            options_.max_line_bytes);
    conn->last_activity_ms = NowMs();
    conn->QueueResponse(FormatHelloLine(kProtocolCurrent));
    epoll_event event{};
    event.events = EPOLLIN | EPOLLOUT;
    event.data.u64 = id;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, conn->fd.get(),
                    &event) < 0) {
      continue;  // conn (and fd) dropped
    }
    ServeConn* raw_conn = conn.get();
    conns_.emplace(id, std::move(conn));
    connections_accepted_.Increment();
    connections_.Set(static_cast<int64_t>(conns_.size()));
    FinishIo(raw_conn);
  }
}

void ServeServer::HandleReadable(ServeConn* conn) {
  if (draining_ || conn->close_after_flush || conn->peer_eof ||
      conn->splitter.overflowed()) {
    return;
  }
  uint64_t id = conn->id;
  char chunk[16384];
  std::vector<std::string> lines;
  bool framing_lost = false;
  while (true) {
    ssize_t n = ::recv(conn->fd.get(), chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(id);
      return;
    }
    if (n == 0) {
      conn->peer_eof = true;
      break;
    }
    if (!conn->splitter.Ingest(std::string_view(chunk, n), &lines)) {
      framing_lost = true;
      break;
    }
  }

  std::vector<PendingLine> admitted;
  size_t overloaded = 0;
  size_t received = lines.size();
  int64_t admit_ns = received > 0 ? NowNs() : 0;
  for (std::string& line : lines) {
    if (conn->close_after_flush) break;  // overload-close already tripped
    if (admitted.size() >= options_.max_pending_per_conn) {
      conn->QueueResponse(EncodeErrorLine(ServeErrorCode::kOverload,
                                          "connection request queue full"));
      ++overloaded;
      if (options_.close_on_overload) conn->close_after_flush = true;
      continue;
    }
    PendingLine pending;
    pending.line = std::move(line);
    pending.admit_ns = admit_ns;
    pending.request_id = next_request_id_++;
    pending.traced = options_.trace_sample > 0 &&
                     (++trace_seq_ % options_.trace_sample) == 0;
    admitted.push_back(std::move(pending));
  }
  lines_received_.Increment(received);
  lines_admitted_.Increment(admitted.size());
  overload_responses_.Increment(overloaded);
  responses_sent_.Increment(overloaded);

  if (framing_lost) {
    conn->QueueResponse(EncodeErrorLine(
        ServeErrorCode::kParse,
        "request line exceeds " + std::to_string(options_.max_line_bytes) +
            " bytes"));
    conn->close_after_flush = true;
    parse_errors_.Increment();
    responses_sent_.Increment();
  }

  ExecuteAdmitted(conn, admitted);
}

void ServeServer::HandleWritable(ServeConn* conn) { FinishIo(conn); }

void ServeServer::ExecuteAdmitted(ServeConn* conn,
                                  std::span<const PendingLine> lines) {
  uint64_t id = conn->id;
  std::vector<TraceRecord> traces;
  for (size_t begin = 0; begin < lines.size(); begin += options_.max_batch) {
    ExecuteLines(conn,
                 lines.subspan(begin, std::min(options_.max_batch,
                                               lines.size() - begin)),
                 &traces);
  }
  FinishIo(conn);
  if (traces.empty()) return;
  int64_t flush_done_ns = NowNs();
  for (const TraceRecord& trace : traces) {
    EmitTrace(id, trace, flush_done_ns);
  }
}

void ServeServer::FlushWrites(ServeConn* conn) {
  while (conn->unsent_bytes() > 0) {
    ssize_t n = ::send(conn->fd.get(), conn->write_buf.data() + conn->write_pos,
                       conn->unsent_bytes(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(conn->id);
      return;
    }
    conn->write_pos += static_cast<size_t>(n);
  }
  conn->CompactWriteBuffer();
  // A client that stopped reading its responses does not get to pin
  // arbitrary memory: past the cap the connection is dropped.
  if (conn->unsent_bytes() > options_.max_write_buffer_bytes) {
    CloseConn(conn->id);
  }
}

void ServeServer::FinishIo(ServeConn* conn) {
  uint64_t id = conn->id;
  FlushWrites(conn);
  if (conns_.find(id) == conns_.end()) return;
  SyncConnGauges(conn);
  if ((conn->peer_eof || conn->close_after_flush || draining_) &&
      conn->idle()) {
    CloseConn(id);
    return;
  }
  UpdateEpollInterest(conn);
}

void ServeServer::UpdateEpollInterest(ServeConn* conn) {
  uint32_t interest = 0;
  bool reading = !draining_ && !conn->close_after_flush && !conn->peer_eof &&
                 !conn->splitter.overflowed();
  if (reading) interest |= EPOLLIN;
  if (conn->unsent_bytes() > 0) interest |= EPOLLOUT;
  epoll_event event{};
  event.events = interest;
  event.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn->fd.get(), &event);
}

void ServeServer::CloseConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  // Back out this connection's contribution to the aggregate buffer
  // gauges (whatever was last folded in).
  read_buffer_bytes_.Add(-static_cast<int64_t>(it->second->obs_read_bytes));
  write_buffer_bytes_.Add(-static_cast<int64_t>(it->second->obs_write_bytes));
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, it->second->fd.get(), nullptr);
  conns_.erase(it);
  connections_closed_.Increment();
  connections_.Set(static_cast<int64_t>(conns_.size()));
}

void ServeServer::ReapIdleConns(int64_t now_ms) {
  if (options_.idle_timeout_ms <= 0) return;
  std::vector<uint64_t> expired;
  for (const auto& [id, conn] : conns_) {
    // Nothing is ever left executing between events, so only silence
    // counts. A half-sent request line (slow loris) is exactly this
    // state, so the cap on silent connections is also the slow-loris
    // bound. Stalled readers (unsent responses piling up) age out the
    // same way.
    if (now_ms - conn->last_activity_ms > options_.idle_timeout_ms) {
      expired.push_back(id);
    }
  }
  if (expired.empty()) return;
  for (uint64_t id : expired) CloseConn(id);
  idle_reaped_.Increment(expired.size());
}

void ServeServer::BeginDrain() {
  draining_ = true;
  drain_deadline_ms_ = NowMs() + std::max(options_.drain_timeout_ms, 0);
  // Stop accepting: deregister and close the listen socket so new
  // connections are refused by the kernel, not queued behind a drain.
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, listen_fd_.get(), nullptr);
  listen_fd_.Reset();
  // Stop reading; every admitted line has already executed, and every
  // response still flushes. Idle connections close immediately.
  std::vector<uint64_t> idle;
  for (const auto& [id, conn] : conns_) {
    if (conn->idle()) {
      idle.push_back(id);
    } else {
      UpdateEpollInterest(conn.get());
    }
  }
  for (uint64_t id : idle) CloseConn(id);
}

bool ServeServer::DrainComplete() const { return conns_.empty(); }

void ServeServer::ExecuteLines(ServeConn* conn,
                               std::span<const PendingLine> lines,
                               std::vector<TraceRecord>* traces) {
  int64_t start_ns = NowNs();

  // Parse every line; hello assertions, the `stats` admin verb, and
  // parse failures are answered inline, everything else joins one
  // engine batch.
  std::vector<std::string> immediate(lines.size());
  std::vector<int> slot(lines.size(), -1);
  std::vector<int64_t> parse_ns(lines.size(), 0);
  std::vector<QueryRequest> requests;
  size_t parse_errors = 0;
  bool any_traced = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i].line;
    any_traced |= lines[i].traced;
    int64_t parse_start = lines[i].traced ? NowNs() : 0;
    if (line == kStatsVerb) {
      // Rendered by the server, not the engine: one consistent
      // snapshot of every registered family as a single `ok` line.
      immediate[i] = "ok " + registry_->RenderJson();
    } else if (IsHelloLine(line)) {
      Result<ProtocolVersion> version = ParseHelloLine(line);
      immediate[i] = version.ok()
                         ? HelloAck(*version)
                         : EncodeErrorLine(ServeErrorCode::kValidation,
                                           version.status().message());
    } else {
      Result<QueryRequest> request = ParseQueryRequest(line, schema_);
      if (!request.ok()) {
        immediate[i] = EncodeErrorLine(ServeErrorCode::kParse,
                                       request.status().message());
        ++parse_errors;
      } else {
        slot[i] = static_cast<int>(requests.size());
        requests.push_back(std::move(*request));
      }
    }
    if (lines[i].traced) parse_ns[i] = NowNs() - parse_start;
  }

  std::vector<QueryResponse> responses;
  int64_t execute_ns = 0;
  if (!requests.empty()) {
    // One pinned snapshot per batch: a concurrent Publish never mixes
    // epochs inside it (QueryEngine semantics).
    int64_t execute_start = any_traced ? NowNs() : 0;
    responses = engine_->ExecuteBatch(requests);
    if (any_traced) execute_ns = NowNs() - execute_start;
  }

  for (size_t i = 0; i < lines.size(); ++i) {
    if (slot[i] >= 0) {
      conn->QueueResponse(
          EncodeResponseLine(requests[slot[i]], responses[slot[i]], schema_));
    } else {
      conn->QueueResponse(immediate[i]);
    }
  }

  batches_executed_.Increment();
  responses_sent_.Increment(lines.size());
  parse_errors_.Increment(parse_errors);
  // Admission -> flush latency, recorded BEFORE the response bytes can
  // reach the client: a lockstep client therefore always observes its
  // own request already counted, which is what makes `stats` output
  // reproducible across identical request sequences.
  int64_t done_ns = NowNs();
  for (const PendingLine& pending : lines) {
    request_ns_.Record(done_ns - pending.admit_ns);
  }
  if (any_traced) {
    for (size_t i = 0; i < lines.size(); ++i) {
      if (!lines[i].traced) continue;
      TraceRecord trace;
      trace.request_id = lines[i].request_id;
      trace.admit_ns = lines[i].admit_ns;
      trace.parse_ns = parse_ns[i];
      trace.queue_ns = start_ns - lines[i].admit_ns;
      // Batch-shared: the engine executes the whole batch at once, so
      // a sampled line is attributed the batch's execute wall time.
      trace.execute_ns = slot[i] >= 0 ? execute_ns : 0;
      trace.done_ns = done_ns;
      traces->push_back(trace);
    }
  }
}

}  // namespace qikey
