#include "serve/daemon/daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>

#include "common/logging.h"
#include "obs/trace.h"
#include "serve/wire_io.h"

namespace ziggy {

namespace {

/// Output-buffer compaction threshold: below this many already-sent
/// bytes we just advance out_head; above it we erase the prefix so a
/// long-lived connection's buffer does not keep its high-water mark.
constexpr size_t kOutbufCompactBytes = 64u << 10;

int ClampBacklog(size_t max_connections) {
  return static_cast<int>(
      std::min<size_t>(std::max<size_t>(max_connections, 64), 4096));
}

}  // namespace

ZiggyDaemon::ZiggyDaemon(DaemonOptions options)
    : options_(std::move(options)), catalog_(options_.catalog) {
  // Resolve every metric pointer once, before any thread exists: the
  // hot paths below touch only the returned atomics, never the
  // registry's lookup mutex.
  obs::MetricsRegistry* metrics = catalog_.metrics();
  clock_ = metrics->clock();
  connections_accepted_ =
      metrics->counter("ziggy_daemon_connections_accepted_total");
  connections_rejected_ =
      metrics->counter("ziggy_daemon_connections_rejected_total");
  connections_timed_out_ =
      metrics->counter("ziggy_daemon_connections_timed_out_total");
  requests_handled_ = metrics->counter("ziggy_daemon_requests_total");
  protocol_errors_ = metrics->counter("ziggy_daemon_protocol_errors_total");
  accept_retries_ = metrics->counter("ziggy_daemon_accept_retries_total");
  reads_throttled_ = metrics->counter("ziggy_daemon_reads_throttled_total");
  pipelined_requests_ =
      metrics->counter("ziggy_daemon_pipelined_requests_total");
  dispatch_batches_ = metrics->counter("ziggy_daemon_dispatch_batches_total");
  verb_requests_.resize(VerbTable().size());
  verb_us_.resize(VerbTable().size());
  for (const VerbInfo& info : VerbTable()) {
    const std::string label = std::string("{verb=\"") + info.name + "\"}";
    const size_t i = static_cast<size_t>(info.verb);
    verb_requests_[i] = metrics->counter("ziggy_requests_total" + label);
    verb_us_[i] = metrics->histogram("ziggy_request_us" + label);
  }
  queue_us_ = metrics->histogram("ziggy_request_queue_us");
  execute_us_ = metrics->histogram("ziggy_request_execute_us");
  flush_us_ = metrics->histogram("ziggy_request_flush_us");
}

Result<std::unique_ptr<ZiggyDaemon>> ZiggyDaemon::Start(DaemonOptions options) {
  // MSG_NOSIGNAL guards our own send() calls, but not every write path to
  // a vanished peer — a serving process must never die to SIGPIPE.
  IgnoreSigPipe();
  auto daemon = std::unique_ptr<ZiggyDaemon>(new ZiggyDaemon(std::move(options)));

  if (!daemon->options_.store_dir.empty()) {
    ZIGGY_RETURN_NOT_OK(
        daemon->catalog_.AttachStore(daemon->options_.store_dir));
  }

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(daemon->options_.port);
  if (inet_pton(AF_INET, daemon->options_.host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("bad listen address: " +
                                   daemon->options_.host);
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    close(fd);
    return Status::IOError("bind " + daemon->options_.host + ":" +
                           std::to_string(daemon->options_.port) + ": " + err);
  }
  // The backlog absorbs connection bursts the loop has not accepted yet
  // (the 10k-connection bench opens its sockets faster than one thread
  // can accept them), so scale it with the admission bound.
  if (listen(fd, ClampBacklog(daemon->options_.max_connections)) != 0) {
    const std::string err = std::strerror(errno);
    close(fd);
    return Status::IOError("listen: " + err);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    const std::string err = std::strerror(errno);
    close(fd);
    return Status::IOError("getsockname: " + err);
  }
  if (!SetNonBlocking(fd)) {
    const std::string err = std::strerror(errno);
    close(fd);
    return Status::IOError("fcntl(listener, O_NONBLOCK): " + err);
  }

  daemon->epoll_fd_ = epoll_create1(0);
  if (daemon->epoll_fd_ < 0) {
    const std::string err = std::strerror(errno);
    close(fd);
    return Status::IOError("epoll_create1: " + err);
  }
  daemon->wake_fd_ = eventfd(0, EFD_NONBLOCK);
  if (daemon->wake_fd_ < 0) {
    const std::string err = std::strerror(errno);
    close(fd);
    return Status::IOError("eventfd: " + err);
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (epoll_ctl(daemon->epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0 ||
      (ev.data.fd = daemon->wake_fd_,
       epoll_ctl(daemon->epoll_fd_, EPOLL_CTL_ADD, daemon->wake_fd_, &ev)) !=
          0) {
    const std::string err = std::strerror(errno);
    close(fd);
    return Status::IOError("epoll_ctl(ADD): " + err);
  }

  daemon->listen_fd_ = fd;
  daemon->port_ = ntohs(bound.sin_port);
  const size_t pool = std::max<size_t>(1, daemon->options_.dispatch_threads);
  daemon->dispatch_threads_.reserve(pool);
  for (size_t i = 0; i < pool; ++i) {
    daemon->dispatch_threads_.emplace_back(
        [d = daemon.get()] { d->DispatchThread(); });
  }
  daemon->loop_thread_ = std::thread([d = daemon.get()] { d->LoopThread(); });
  return daemon;
}

ZiggyDaemon::~ZiggyDaemon() { Stop(); }

void ZiggyDaemon::Stop() {
  // First caller tears everything down; later callers are no-ops (the
  // destructor is the usual second caller).
  if (stopping_.exchange(true)) return;
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    (void)write(wake_fd_, &one, sizeof(one));
  }
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    // Pair the stopping_ flag with the dispatch waiters' predicate check:
    // without this critical section a dispatch thread could evaluate the
    // predicate just before the flag flipped, then block right after
    // notify fired — sleeping through shutdown (lost wakeup).
    MutexLock lock(dispatch_mu_);
  }
  dispatch_cv_.NotifyAll();
  for (std::thread& t : dispatch_threads_) {
    if (t.joinable()) t.join();
  }
  dispatch_threads_.clear();
  {
    MutexLock lock(notify_mu_);
    notified_.clear();
  }
  {
    MutexLock lock(dispatch_mu_);
    dispatch_queue_.clear();
  }
  // No loop, no dispatch: every connection object is exclusively ours.
  // Destroying them runs each DaemonHandler destructor, closing its
  // catalog sessions.
  std::map<int, std::shared_ptr<Connection>> connections;
  {
    MutexLock lock(connections_mu_);
    connections.swap(connections_);
    for (int fd : pending_close_) close(fd);
    pending_close_.clear();
  }
  for (auto& [fd, connection] : connections) {
    {
      MutexLock lock(connection->mu);
      connection->fd = -1;
    }
    shutdown(fd, SHUT_RDWR);
    close(fd);
  }
  connections.clear();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    close(wake_fd_);
    wake_fd_ = -1;
  }
  // All connections are gone, so no new appends can arrive: drain the
  // catalog's background flusher now, making a clean shutdown lose
  // nothing that was appended under a pending flush.
  catalog_.StopFlusher();
}

void ZiggyDaemon::LoopThread() {
  // Level-triggered throughout: interest re-arms by itself, which is what
  // makes backpressure pauses and EMFILE retries safe — un-consumed
  // readiness simply fires again on the next wait.
  std::vector<epoll_event> events(128);
  const bool timeouts = options_.request_timeout_ms > 0;
  const int wait_ms =
      timeouts ? static_cast<int>(std::min<size_t>(
                     std::max<size_t>(options_.request_timeout_ms / 4, 10), 1000))
               : -1;
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int n =
        epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()),
                   wait_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone — only Stop() does that
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        while (read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        HandleAccept();
        continue;
      }
      std::shared_ptr<Connection> connection;
      {
        MutexLock lock(connections_mu_);
        auto it = connections_.find(fd);
        if (it != connections_.end()) connection = it->second;
      }
      if (!connection) continue;  // stale event for an already-closed fd
      if ((ev & EPOLLERR) != 0 || ((ev & EPOLLHUP) != 0 && (ev & EPOLLIN) == 0)) {
        // EPOLLHUP alongside EPOLLIN means buffered bytes + FIN: read
        // them out first (the recv loop will see the EOF itself).
        MutexLock lock(connection->mu);
        connection->dead = true;
      }
      if ((ev & EPOLLIN) != 0) HandleReadable(connection);
      if ((ev & EPOLLOUT) != 0) FlushOut(connection);
      UpdateConnection(connection);
    }
    // Dispatch completions: flush fresh responses, restart paused reads,
    // close drained connections.
    std::vector<std::shared_ptr<Connection>> batch;
    {
      MutexLock lock(notify_mu_);
      batch.swap(notified_);
    }
    for (const std::shared_ptr<Connection>& connection : batch) {
      FlushOut(connection);
      DecodePending(connection);
      UpdateConnection(connection);
    }
    if (timeouts) CheckTimeouts();
    // Closed fds were only collected during the iteration: closing them
    // mid-batch would let accept() reuse an fd number while stale events
    // for the old connection are still in `events`.
    {
      MutexLock lock(connections_mu_);
      for (int fd : pending_close_) close(fd);
      pending_close_.clear();
    }
  }
}

void ZiggyDaemon::HandleAccept() {
  for (;;) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Resource exhaustion is a load spike, not a reason to stop
        // serving: live connections will finish and free fds (dead ones
        // are closed eagerly by the loop, so there is nothing to reap).
        // Sleep a beat — never a busy loop — and let the level-triggered
        // listener readiness re-fire.
        accept_retries_->Add();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        return;
      }
      return;  // listener closed by Stop(), or fatal — either way done
    }
    if (stopping_.load(std::memory_order_relaxed)) {
      close(fd);
      return;
    }
    size_t live = 0;
    {
      MutexLock lock(connections_mu_);
      live = connections_.size();
    }
    if (live >= options_.max_connections) {
      // Graceful shed: tell the client why before closing, so its backoff
      // logic sees Unavailable rather than a bare RST. The accepted fd is
      // still blocking (accept() does not inherit O_NONBLOCK), so the
      // short reply is delivered whole.
      connections_rejected_->Add();
      SendAll(fd, LineProtocol::SerializeResponse(WireResponse::Error(
                      Status::Unavailable("too many connections"))));
      close(fd);
      continue;
    }
    if (!SetNonBlocking(fd)) {
      close(fd);
      continue;
    }
    auto connection =
        std::make_shared<Connection>(&catalog_, options_.max_line_bytes);
    connection->fd = fd;
    connection->last_activity = std::chrono::steady_clock::now();
    connection->handler.set_metrics_refresh([this] { RefreshMetrics(); });
    connection->handler.set_wire_limits(
        WireLimits{options_.max_line_bytes, options_.max_pipeline});
    {
      MutexLock lock(connections_mu_);
      connections_[fd] = connection;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      MutexLock lock(connections_mu_);
      connections_.erase(fd);
      close(fd);
      continue;
    }
    connection->registered = true;
    connection->epoll_mask = EPOLLIN;
    connections_accepted_->Add();
  }
}

void ZiggyDaemon::HandleReadable(const std::shared_ptr<Connection>& c) {
  char buffer[16384];
  for (;;) {
    {
      MutexLock lock(c->mu);
      if (c->fd < 0 || c->dead || c->close_requested) return;
      // Backpressure: once the queue or the un-flushed output passes its
      // bound, stop pulling bytes — they stay in the kernel socket buffer
      // and TCP flow control throttles the peer. UpdateConnection drops
      // EPOLLIN right after, so the loop does not spin on readiness.
      const size_t depth = c->queue.size() + (c->dispatch_active ? 1 : 0);
      if (depth >= options_.max_pipeline ||
          c->PendingOut() >= options_.max_outbuf_bytes) {
        return;
      }
    }
    const ssize_t n = RecvSome(c->fd, buffer, sizeof(buffer));
    if (n > 0) {
      c->last_activity = std::chrono::steady_clock::now();
      c->reader.Feed(buffer, static_cast<size_t>(n));
      DecodePending(c);
      continue;
    }
    if (n == 0) {
      // FIN. The peer may still be reading (a pipelined client that
      // shut down its write side): execute what it sent, flush every
      // response, and only then close.
      MutexLock lock(c->mu);
      c->peer_half_closed = true;
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    MutexLock lock(c->mu);
    c->dead = true;
    return;
  }
}

void ZiggyDaemon::DecodePending(const std::shared_ptr<Connection>& c) {
  bool need_dispatch = false;
  // One clock read per decode batch: every line of the batch shares the
  // stamp, which is exact enough for queue-wait accounting and keeps
  // the per-request cost at the relaxed atomics.
  const uint64_t now_us = clock_->NowMicros();
  {
    MutexLock lock(c->mu);
    if (c->fd < 0 || c->dead || c->close_requested) return;
    while (c->queue.size() + (c->dispatch_active ? 1 : 0) <
           options_.max_pipeline) {
      Result<std::optional<std::string>> line = c->reader.Next();
      Pending pending;
      pending.enqueued_us = now_us;
      if (line.ok()) {
        if (!line->has_value()) break;
        if ((*line)->empty()) continue;  // blank keep-alive lines
        pending.line = std::move(**line);
      } else {
        // Oversized line: an ERR reply in request order, stream intact.
        pending.oversize = true;
        pending.error = line.status();
      }
      if (!c->queue.empty() || c->executing) pipelined_requests_->Add();
      c->queue.push_back(std::move(pending));
    }
    if (!c->queue.empty() && !c->dispatch_active) {
      c->dispatch_active = true;
      need_dispatch = true;
    }
  }
  if (need_dispatch) ScheduleDispatch(c);
}

void ZiggyDaemon::FlushOut(const std::shared_ptr<Connection>& c) {
  // Marks whose last byte has left the process; their flush spans (and
  // the slow-query log) are recorded after the connection lock drops.
  std::vector<ResponseMark> completed;
  {
    MutexLock lock(c->mu);
    if (c->fd < 0 || c->dead) return;
    bool progressed = false;
    while (c->out_head < c->outbuf.size()) {
      const ssize_t n = SendSome(c->fd, c->outbuf.data() + c->out_head,
                                 c->outbuf.size() - c->out_head);
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        c->dead = true;  // peer gone (or injected wire fault)
        break;
      }
      c->out_head += static_cast<size_t>(n);
      progressed = true;
    }
    if (progressed) c->last_activity = std::chrono::steady_clock::now();
    // out_base + out_head is the connection-lifetime flushed offset;
    // compute completions BEFORE compaction rebases the buffer.
    const uint64_t flushed_abs = c->out_base + c->out_head;
    while (!c->marks.empty() && c->marks.front().end_offset <= flushed_abs) {
      completed.push_back(std::move(c->marks.front()));
      c->marks.pop_front();
    }
    if (c->out_head == c->outbuf.size()) {
      c->out_base += c->outbuf.size();
      c->outbuf.clear();
      c->out_head = 0;
    } else if (c->out_head > kOutbufCompactBytes) {
      c->out_base += c->out_head;
      c->outbuf.erase(0, c->out_head);
      c->out_head = 0;
    }
  }
  if (!completed.empty()) CompleteResponses(std::move(completed));
}

void ZiggyDaemon::CompleteResponses(std::vector<ResponseMark> completed) {
  const uint64_t now_us = clock_->NowMicros();
  for (const ResponseMark& mark : completed) {
    const uint64_t flush_us =
        now_us > mark.done_us ? now_us - mark.done_us : 0;
    flush_us_->Record(flush_us);
    if (options_.slow_request_ms == 0) continue;
    const uint64_t total_us = mark.queue_us + mark.execute_us + flush_us;
    if (total_us < options_.slow_request_ms * 1000) continue;
    ZIGGY_LOG(Warning) << "slow-request total_us=" << total_us
                       << " queue_us=" << mark.queue_us
                       << " execute_us=" << mark.execute_us
                       << " flush_us=" << flush_us << " " << mark.detail;
  }
}

void ZiggyDaemon::UpdateConnection(const std::shared_ptr<Connection>& c) {
  bool close_now = false;
  bool resumed = false;
  {
    MutexLock lock(c->mu);
    if (c->fd < 0) return;
    const size_t depth = c->queue.size() + (c->dispatch_active ? 1 : 0);
    const size_t pending_out = c->PendingOut();
    if (c->dead) {
      close_now = true;
    } else if ((c->close_requested || c->peer_half_closed) &&
               !c->dispatch_active && c->queue.empty() && pending_out == 0) {
      close_now = true;
    } else if (!c->read_paused && (depth >= options_.max_pipeline ||
                                   pending_out >= options_.max_outbuf_bytes)) {
      c->read_paused = true;
      reads_throttled_->Add();
    } else if (c->read_paused && depth <= options_.max_pipeline / 2 &&
               pending_out <= options_.max_outbuf_bytes / 2) {
      // Resume at half the bound so the connection does not flap on
      // every completed request.
      c->read_paused = false;
      resumed = true;
    }
  }
  if (close_now) {
    CloseConnection(c);
    return;
  }
  if (resumed) {
    // Lines decoded before the pause may still sit inside the reader;
    // the kernel will not signal EPOLLIN for them.
    DecodePending(c);
  }
  uint32_t want = 0;
  {
    MutexLock lock(c->mu);
    if (c->fd < 0) return;
    const bool want_read =
        !c->read_paused && !c->peer_half_closed && !c->close_requested;
    want = (want_read ? EPOLLIN : 0u) |
           (c->PendingOut() > 0 ? EPOLLOUT : 0u);
  }
  if (want != c->epoll_mask && c->registered) {
    epoll_event ev{};
    ev.events = want;
    ev.data.fd = c->fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev) == 0) {
      c->epoll_mask = want;
    }
  }
}

void ZiggyDaemon::CloseConnection(const std::shared_ptr<Connection>& c) {
  int fd = -1;
  {
    MutexLock lock(c->mu);
    fd = c->fd;
    c->fd = -1;
  }
  if (fd < 0) return;
  if (c->registered) {
    (void)epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    c->registered = false;
  }
  shutdown(fd, SHUT_RDWR);
  MutexLock lock(connections_mu_);
  connections_.erase(fd);
  pending_close_.push_back(fd);
  // The Connection object itself may outlive this (a dispatch thread can
  // still hold it); its handler closes the catalog sessions when the
  // last reference drops.
}

void ZiggyDaemon::CheckTimeouts() {
  const auto now = std::chrono::steady_clock::now();
  const auto limit = std::chrono::milliseconds(options_.request_timeout_ms);
  std::vector<std::shared_ptr<Connection>> candidates;
  {
    MutexLock lock(connections_mu_);
    candidates.reserve(connections_.size());
    for (const auto& [fd, connection] : connections_) {
      candidates.push_back(connection);
    }
  }
  for (const std::shared_ptr<Connection>& c : candidates) {
    if (now - c->last_activity < limit) continue;
    bool idle = false;
    {
      MutexLock lock(c->mu);
      idle = c->fd >= 0 && !c->dead && !c->close_requested &&
             !c->dispatch_active && c->queue.empty() && c->PendingOut() == 0;
    }
    if (!idle) continue;
    // The peer sent nothing (or stalled mid-line) for request_timeout_ms.
    // Tell it why (best effort — the socket buffer is empty, so the short
    // line goes out whole) and free the connection slot instead of
    // letting a silent client pin it.
    connections_timed_out_->Add();
    (void)SendAll(c->fd, LineProtocol::SerializeResponse(WireResponse::Error(
                             Status::FailedPrecondition("request timeout"))));
    CloseConnection(c);
  }
}

void ZiggyDaemon::NotifyLoop(std::shared_ptr<Connection> c) {
  {
    MutexLock lock(notify_mu_);
    notified_.push_back(std::move(c));
  }
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    (void)write(wake_fd_, &one, sizeof(one));
  }
}

void ZiggyDaemon::ScheduleDispatch(std::shared_ptr<Connection> c) {
  {
    MutexLock lock(dispatch_mu_);
    dispatch_queue_.push_back(std::move(c));
  }
  dispatch_cv_.NotifyOne();
}

void ZiggyDaemon::DispatchThread() {
  for (;;) {
    std::shared_ptr<Connection> c;
    {
      MutexLock lock(dispatch_mu_);
      dispatch_cv_.Wait(dispatch_mu_, [this]() ZIGGY_REQUIRES(dispatch_mu_) {
        return stopping_.load(std::memory_order_relaxed) ||
               !dispatch_queue_.empty();
      });
      if (dispatch_queue_.empty()) {
        if (stopping_.load(std::memory_order_relaxed)) return;
        continue;
      }
      c = std::move(dispatch_queue_.front());
      dispatch_queue_.pop_front();
    }
    // Drain this connection's queue, strictly in arrival order. The
    // active flag guarantees no other pool thread works this connection,
    // so the handler sees requests exactly as serially as it did with a
    // dedicated thread. The empty-check and the flag-clear are one
    // critical section: either the loop's enqueue sees the flag still
    // set (we will find its item in the next iteration) or it sees the
    // flag cleared and schedules a fresh dispatch — never neither.
    for (bool first = true;; first = false) {
      Pending item;
      {
        MutexLock lock(c->mu);
        if (c->queue.empty() || c->dead || c->close_requested ||
            stopping_.load(std::memory_order_relaxed)) {
          if (c->dead || stopping_.load(std::memory_order_relaxed)) {
            c->queue.clear();
          }
          c->dispatch_active = false;
          break;
        }
        item = std::move(c->queue.front());
        c->queue.pop_front();
        c->executing = true;
      }
      if (first) dispatch_batches_->Add();
      const bool slow_armed = options_.slow_request_ms > 0;
      const uint64_t start_us = clock_->NowMicros();
      const uint64_t queue_wait_us =
          start_us > item.enqueued_us && item.enqueued_us > 0
              ? start_us - item.enqueued_us
              : 0;
      WireResponse response;
      const VerbInfo* verb = nullptr;
      obs::RequestTrace trace;
      {
        // Only the slow-query log consumes span records; leave the
        // thread-local trace unarmed otherwise so TraceSpan sites below
        // the handler stay histogram-only.
        std::optional<obs::RequestTrace::Scope> scope;
        if (slow_armed) scope.emplace(&trace);
        if (item.oversize) {
          protocol_errors_->Add();
          response = WireResponse::Error(item.error);
        } else {
          Result<WireRequest> request = LineProtocol::ParseRequest(item.line);
          if (!request.ok()) {
            protocol_errors_->Add();
            response = WireResponse::Error(request.status());
          } else {
            verb = &VerbInfoOf(request->verb);
            // Counted BEFORE Handle so a METRICS request sees itself —
            // per-verb counts then match a replayed script exactly.
            verb_requests_[static_cast<size_t>(request->verb)]->Add();
            response = c->handler.Handle(*request);
            requests_handled_->Add();
          }
        }
      }
      const uint64_t done_us = clock_->NowMicros();
      const uint64_t exec_us = done_us > start_us ? done_us - start_us : 0;
      queue_us_->Record(queue_wait_us);
      execute_us_->Record(exec_us);
      if (verb != nullptr) {
        verb_us_[static_cast<size_t>(verb->verb)]->Record(exec_us);
      }
      const bool quit = c->handler.quit_requested();
      std::string wire = LineProtocol::SerializeResponse(response);
      ResponseMark mark;
      mark.done_us = done_us;
      mark.queue_us = queue_wait_us;
      mark.execute_us = exec_us;
      if (slow_armed) {
        mark.detail = std::string("verb=") + (verb != nullptr ? verb->name
                                                              : "<invalid>");
        const std::string spans = trace.Summary();
        if (!spans.empty()) mark.detail += " spans=[" + spans + "]";
        constexpr size_t kMaxLoggedLine = 128;
        mark.detail += " line=\"" + item.line.substr(0, kMaxLoggedLine) +
                       (item.line.size() > kMaxLoggedLine ? "...\"" : "\"");
      }
      {
        MutexLock lock(c->mu);
        c->executing = false;
        c->outbuf += wire;
        mark.end_offset = c->out_base + c->outbuf.size();
        c->marks.push_back(std::move(mark));
        if (quit) {
          // QUIT answered: whatever the client pipelined after it is
          // dropped (it asked to hang up), and the loop closes once the
          // farewell is flushed.
          c->close_requested = true;
          c->queue.clear();
        }
      }
      // Stream each response out as it completes instead of holding the
      // batch: the loop coalesces whatever is buffered by flush time, so
      // fast batches still leave as one write.
      NotifyLoop(c);
    }
    // Final notification covers the state change to dispatch_active ==
    // false: the loop may now resume reads, schedule the next batch, or
    // close a drained connection.
    NotifyLoop(c);
  }
}

void ZiggyDaemon::RefreshMetrics() {
  // Cold path: runs once per STATS / HEALTH / METRICS request, so
  // registry lookups under its mutex are fine here.
  obs::MetricsRegistry* metrics = catalog_.metrics();
  size_t live = 0;
  size_t queued = 0;
  {
    MutexLock lock(connections_mu_);
    live = connections_.size();
  }
  {
    MutexLock lock(dispatch_mu_);
    queued = dispatch_queue_.size();
  }
  metrics->gauge("ziggy_daemon_live_connections")
      ->Set(static_cast<int64_t>(live));
  metrics->gauge("ziggy_daemon_dispatch_queue_depth")
      ->Set(static_cast<int64_t>(queued));
  // Catalog-level gauges are refreshed by the handler itself (it works
  // the same without a daemon around it), so only daemon state lives here.
}

}  // namespace ziggy
