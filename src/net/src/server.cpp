#include "stash/net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stash/pack/pack.hpp"
#include "stash/telemetry/metrics.hpp"

namespace stash::net {

using util::ErrorCode;

namespace {

// The instruments with no per-instance home in NetStats: reactor idle
// ticks, the live-connection gauge and wall-clock latency histograms.  Wall
// values live ONLY here — the per-instance NetStats stays a pure function
// of the byte streams (the deterministic-export contract).
struct NetTelemetry {
  telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::global();
  telemetry::Counter& idle_ticks = reg.counter("net.idle_ticks");
  telemetry::Gauge& active = reg.gauge("net.active_connections");
  telemetry::LatencyHistogram& read_latency =
      reg.histogram("net.read_latency_ns");
  telemetry::LatencyHistogram& write_latency =
      reg.histogram("net.write_latency_ns");
  telemetry::LatencyHistogram& hidden_latency =
      reg.histogram("net.hidden_latency_ns");
  telemetry::LatencyHistogram& misc_latency =
      reg.histogram("net.misc_latency_ns");
};

NetTelemetry& net_telemetry() {
  static NetTelemetry t;
  return t;
}

telemetry::LatencyHistogram& latency_of(OpCode op) {
  NetTelemetry& tel = net_telemetry();
  switch (op) {
    case OpCode::kRead: return tel.read_latency;
    case OpCode::kWrite:
    case OpCode::kTrim: return tel.write_latency;
    case OpCode::kStoreHidden:
    case OpCode::kLoadHidden: return tel.hidden_latency;
    default: return tel.misc_latency;
  }
}

dev::Priority to_priority(std::uint8_t raw) noexcept {
  if (raw >= 2) return dev::Priority::kBackground;
  return raw == 1 ? dev::Priority::kNormal : dev::Priority::kForeground;
}

Status errno_status(const std::string& what) {
  return Status{ErrorCode::kInvalidArgument,
                what + ": " + std::strerror(errno)};
}

bool set_nonblocking_cloexec(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) return false;
  const int fdflags = fcntl(fd, F_GETFD, 0);
  return fdflags >= 0 && fcntl(fd, F_SETFD, fdflags | FD_CLOEXEC) >= 0;
}

bool resolve_host(const std::string& host, in_addr& out) {
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  return inet_pton(AF_INET, numeric.c_str(), &out) == 1;
}

std::uint64_t wall_elapsed_ns(std::chrono::steady_clock::time_point start) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

}  // namespace

struct Server::Impl {
  dev::StashDevice& device;
  ServerConfig config;

  int listen_fd = -1;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::uint16_t bound_port = 0;
  std::thread reactor;
  std::atomic<bool> stop_requested{false};
  std::atomic<bool> live{false};

  mutable std::mutex stats_mu;
  NetStats stats;

  /// One in-flight request of a connection, front-resolved in order.
  struct Pending {
    OpCode op = OpCode::kPing;
    std::uint64_t id = 0;
    enum class Kind : std::uint8_t { kReady, kStatus, kValue } kind =
        Kind::kReady;
    std::future<Status> status_fut;
    std::future<Result<dev::PageRef>> value_fut;
    Response ready;  // kKind::kReady payload
    std::chrono::steady_clock::time_point start;
  };

  struct Conn {
    int fd = -1;
    FrameAssembler assembler;
    std::deque<Pending> pending;
    std::vector<std::uint8_t> outbuf;
    std::size_t out_off = 0;
    std::uint32_t events = EPOLLIN;
    bool throttled = false;
    bool close_after_flush = false;  // fatal protocol error: answer, then go
    bool dead = false;
  };

  std::unordered_map<int, std::unique_ptr<Conn>> conns;
  /// Disconnected clients whose in-flight futures are still owed a
  /// consumer; swept until empty, counted as dropped responses.
  std::list<std::unique_ptr<Conn>> zombies;
  std::size_t in_flight = 0;

  Impl(dev::StashDevice& d, ServerConfig c) : device(d), config(std::move(c)) {}

  // ---- Stats helpers (reactor thread mutates, any thread snapshots) -------
  template <typename Fn>
  void bump(Fn&& fn) {
    const std::lock_guard<std::mutex> lock(stats_mu);
    fn(stats);
  }

  // ---- Socket plumbing -----------------------------------------------------
  void set_epoll_events(Conn& c, std::uint32_t events) {
    if (c.events == events) return;
    c.events = events;
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = c.fd;
    (void)epoll_ctl(epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
  }

  void update_interest(Conn& c) {
    if (c.dead) return;
    std::uint32_t events = 0;
    const bool window_open =
        !c.close_after_flush && c.pending.size() < config.max_pipeline;
    if (window_open) events |= EPOLLIN;
    if (c.out_off < c.outbuf.size()) events |= EPOLLOUT;
    if (!window_open && !c.throttled && !c.close_after_flush) {
      c.throttled = true;
      bump([](NetStats& s) { ++s.pipeline_stalls; });
    } else if (window_open && c.throttled) {
      c.throttled = false;
    }
    set_epoll_events(c, events);
  }

  void accept_loop() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN or a transient error: next EPOLLIN retries
      }
      if (!set_nonblocking_cloexec(fd)) {
        ::close(fd);
        continue;
      }
      const int one = 1;
      (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      conn->assembler = FrameAssembler(config.max_frame_bytes);
      epoll_event ev{};
      ev.events = conn->events;
      ev.data.fd = fd;
      if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
        ::close(fd);
        continue;
      }
      conns.emplace(fd, std::move(conn));
      bump([](NetStats& s) { ++s.accepted; });
      net_telemetry().active.set(static_cast<double>(conns.size()));
    }
  }

  // ---- Request handling ----------------------------------------------------
  /// Decode and submit one frame; returns true when it queued device work
  /// (something a drain round must resolve).
  bool handle_frame(Conn& c, std::span<const std::uint8_t> body) {
    bump([](NetStats& s) { ++s.requests; });
    Request req;
    if (const Status st = decode_request(body, req); !st.is_ok()) {
      protocol_error(c, st);
      return false;
    }
    bump([&](NetStats& s) {
      ++s.ops[static_cast<std::size_t>(req.op) - 1];
    });

    Pending p;
    p.op = req.op;
    p.id = req.id;
    p.start = std::chrono::steady_clock::now();
    bool queued = false;
    switch (req.op) {
      case OpCode::kRead:
        p.kind = Pending::Kind::kValue;
        p.value_fut = device.submit_read(req.lpn, to_priority(req.priority));
        queued = true;
        break;
      case OpCode::kWrite:
        p.kind = Pending::Kind::kStatus;
        p.status_fut = device.submit_write(req.lpn, std::move(req.data));
        break;
      case OpCode::kTrim:
        p.kind = Pending::Kind::kStatus;
        p.status_fut = device.submit_trim(req.lpn);
        break;
      case OpCode::kStoreHidden:
        p.kind = Pending::Kind::kStatus;
        p.status_fut = device.submit_store_hidden(std::move(req.data));
        queued = true;
        break;
      case OpCode::kLoadHidden:
        p.kind = Pending::Kind::kValue;
        p.value_fut = device.submit_load_hidden();
        queued = true;
        break;
      case OpCode::kGc:
        p.kind = Pending::Kind::kStatus;
        p.status_fut = device.submit_gc();
        queued = true;
        break;
      case OpCode::kFlush: {
        const Status st = device.flush();
        p.ready.op = req.op;
        p.ready.id = req.id;
        p.ready.status = static_cast<std::uint8_t>(st.code());
        p.ready.message = st.message();
        break;
      }
      case OpCode::kStats: {
        p.ready.op = req.op;
        p.ready.id = req.id;
        encode_device_stats(device.stats_snapshot(), p.ready.data);
        break;
      }
      case OpCode::kPing:
        p.ready.op = req.op;
        p.ready.id = req.id;
        p.ready.data = std::move(req.data);  // echo
        break;
      case OpCode::kHello: {
        p.ready.op = req.op;
        p.ready.id = req.id;
        Hello theirs;
        Hello ours;
        ours.pack_format = device.config().pack.enabled
                               ? pack::kFormatVersion
                               : std::uint8_t{0};
        if (const Status st = decode_hello(req.data, theirs); !st.is_ok()) {
          protocol_error(c, st);  // queues its own answer and hangs up
          return false;
        }
        // Version or pack-format disagreement: answer kUnsupported (with
        // what we speak, so the peer can log it) and close after the
        // flush.  The alternative — letting a v1 peer stream on — fails
        // kCorrupted at the first packed payload or unknown op, long
        // after the cause is diagnosable.
        if (theirs.version != kProtocolVersion) {
          p.ready.status = static_cast<std::uint8_t>(ErrorCode::kUnsupported);
          p.ready.message =
              "protocol version " + std::to_string(theirs.version) +
              " != server version " + std::to_string(kProtocolVersion);
          c.close_after_flush = true;
        } else if (theirs.pack_format != 0 && ours.pack_format != 0 &&
                   theirs.pack_format != ours.pack_format) {
          p.ready.status = static_cast<std::uint8_t>(ErrorCode::kUnsupported);
          p.ready.message =
              "pack format " + std::to_string(theirs.pack_format) +
              " != server pack format " + std::to_string(ours.pack_format);
          c.close_after_flush = true;
        }
        encode_hello(ours, p.ready.data);
        break;
      }
      case OpCode::kHiddenInfo: {
        p.ready.op = req.op;
        p.ready.id = req.id;
        auto info = device.hidden_info();
        if (info.is_ok()) {
          encode_hidden_info(info.value(), p.ready.data);
        } else {
          p.ready.status = static_cast<std::uint8_t>(info.status().code());
          p.ready.message = info.status().message();
        }
        break;
      }
    }
    c.pending.push_back(std::move(p));
    ++in_flight;
    if (config.deterministic && queued) {
      // One request, one dispatch round, one response — the serial
      // schedule whose stats export is byte-identical run-to-run.
      device.drain();
    }
    return queued;
  }

  void protocol_error(Conn& c, const Status& st) {
    bump([](NetStats& s) { ++s.protocol_errors; });
    Pending p;  // answer what can still be answered, then hang up
    p.ready.op = OpCode::kPing;
    p.ready.status = static_cast<std::uint8_t>(st.code());
    p.ready.message = st.message();
    c.pending.push_back(std::move(p));
    ++in_flight;
    c.close_after_flush = true;
  }

  /// Pop complete frames while the pipeline window is open.  Returns true
  /// when any frame queued device work.
  bool process_frames(Conn& c) {
    bool queued = false;
    while (!c.dead && !c.close_after_flush &&
           c.pending.size() < config.max_pipeline) {
      std::vector<std::uint8_t> body;
      bool frame_ready = false;
      if (const Status st = c.assembler.poll(body, frame_ready);
          !st.is_ok()) {
        protocol_error(c, st);
        break;
      }
      if (!frame_ready) break;
      queued = handle_frame(c, body) || queued;
    }
    update_interest(c);
    return queued;
  }

  void on_readable(Conn& c) {
    std::uint8_t buf[65536];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        bump([&](NetStats& s) {
          s.rx_bytes += static_cast<std::uint64_t>(n);
        });
        c.assembler.feed({buf, static_cast<std::size_t>(n)});
        if (static_cast<std::size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n == 0) {
        c.dead = true;
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      c.dead = true;
      return;
    }
  }

  // ---- Response path -------------------------------------------------------
  static bool pending_ready(Pending& p) {
    switch (p.kind) {
      case Pending::Kind::kReady: return true;
      case Pending::Kind::kStatus:
        return p.status_fut.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
      case Pending::Kind::kValue:
        return p.value_fut.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
    }
    return false;
  }

  static Response take_response(Pending& p) {
    Response resp;
    switch (p.kind) {
      case Pending::Kind::kReady: return std::move(p.ready);
      case Pending::Kind::kStatus: {
        const Status st = p.status_fut.get();
        resp.status = static_cast<std::uint8_t>(st.code());
        resp.message = st.message();
        break;
      }
      case Pending::Kind::kValue: {
        auto result = p.value_fut.get();
        if (result.is_ok()) {
          // Shared reference into the device's buffer (arena slab or
          // adopted hidden payload): encode_response serializes straight
          // from it, so the response path copies nothing page-sized.
          resp.payload = std::move(result).take();
        } else {
          const Status st = result.status();
          resp.status = static_cast<std::uint8_t>(st.code());
          resp.message = st.message();
        }
        break;
      }
    }
    resp.op = p.op;
    resp.id = p.id;
    return resp;
  }

  void resolve_ready(Conn& c) {
    while (!c.pending.empty() && pending_ready(c.pending.front())) {
      Pending p = std::move(c.pending.front());
      c.pending.pop_front();
      --in_flight;
      const Response resp = take_response(p);
      encode_response(resp, c.outbuf);
      bump([](NetStats& s) { ++s.responses; });
      latency_of(p.op).record(wall_elapsed_ns(p.start));
    }
  }

  void flush_out(Conn& c) {
    while (!c.dead && c.out_off < c.outbuf.size()) {
      const ssize_t n = ::send(c.fd, c.outbuf.data() + c.out_off,
                               c.outbuf.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        bump([&](NetStats& s) {
          s.tx_bytes += static_cast<std::uint64_t>(n);
        });
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      c.dead = true;
      return;
    }
    if (c.out_off == c.outbuf.size()) {
      c.outbuf.clear();
      c.out_off = 0;
      if (c.close_after_flush && c.pending.empty()) c.dead = true;
    }
  }

  /// Resolve / transmit / refill every connection; consume zombie results.
  /// Returns true when leftover buffered frames queued new device work.
  bool sweep() {
    bool queued = false;
    for (auto& [fd, conn] : conns) {
      Conn& c = *conn;
      if (c.dead) continue;
      resolve_ready(c);
      flush_out(c);
      if (!c.dead) queued = process_frames(c) || queued;
      if (!c.dead) flush_out(c);
    }
    for (auto it = zombies.begin(); it != zombies.end();) {
      Conn& z = **it;
      while (!z.pending.empty() && pending_ready(z.pending.front())) {
        Pending p = std::move(z.pending.front());
        z.pending.pop_front();
        --in_flight;
        (void)take_response(p);  // consume, never abandon
        bump([](NetStats& s) { ++s.dropped; });
      }
      it = z.pending.empty() ? zombies.erase(it) : std::next(it);
    }
    reap();
    return queued;
  }

  void reap() {
    for (auto it = conns.begin(); it != conns.end();) {
      if (!it->second->dead) {
        ++it;
        continue;
      }
      Conn& c = *it->second;
      (void)epoll_ctl(epoll_fd, EPOLL_CTL_DEL, c.fd, nullptr);
      ::close(c.fd);
      c.fd = -1;
      bump([](NetStats& s) { ++s.disconnected; });
      if (!c.pending.empty()) zombies.push_back(std::move(it->second));
      it = conns.erase(it);
    }
    net_telemetry().active.set(static_cast<double>(conns.size()));
  }

  // ---- Reactor -------------------------------------------------------------
  void run() {
    std::vector<epoll_event> events(64);
    while (!stop_requested.load(std::memory_order_acquire)) {
      const int n = epoll_wait(epoll_fd, events.data(),
                               static_cast<int>(events.size()),
                               config.poll_timeout_ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (n == 0 && in_flight > 0) {
        // The wire went quiet with requests still queued: advance the
        // device's deadline clock so they cannot starve (the satellite
        // bugfix this server depends on).
        (void)device.idle_tick();
        net_telemetry().idle_ticks.inc();
      }
      bool queued = false;
      for (int i = 0; i < n; ++i) {
        const int fd = events[static_cast<std::size_t>(i)].data.fd;
        const std::uint32_t ev = events[static_cast<std::size_t>(i)].events;
        if (fd == wake_fd) {
          std::uint64_t token = 0;
          (void)!::read(wake_fd, &token, sizeof(token));
          continue;
        }
        if (fd == listen_fd) {
          accept_loop();
          continue;
        }
        const auto it = conns.find(fd);
        if (it == conns.end()) continue;
        Conn& c = *it->second;
        if (ev & (EPOLLHUP | EPOLLERR)) {
          c.dead = true;
          continue;
        }
        if (ev & EPOLLIN) {
          on_readable(c);
          if (!c.dead) queued = process_frames(c) || queued;
        }
        if ((ev & EPOLLOUT) && !c.dead) flush_out(c);
      }
      // Dispatch what this round submitted, then resolve/transmit.  A
      // sweep can unthrottle buffered frames that queue more work, so
      // iterate until the round is quiescent.
      do {
        if (queued && config.drain_per_round && !config.deterministic) {
          device.drain();
        }
        queued = sweep();
      } while (queued && (config.drain_per_round || config.deterministic));
    }
    shutdown_graceful();
  }

  void shutdown_graceful() {
    if (listen_fd >= 0) {
      (void)epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
      ::close(listen_fd);
      listen_fd = -1;
    }
    // Everything queued on the device executes now; every in-flight
    // future becomes ready.
    device.drain();
    (void)sweep();
    // Best-effort transmit of the encoded responses: short-poll each
    // still-connected client, then close regardless.
    for (auto& [fd, conn] : conns) {
      Conn& c = *conn;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (!c.dead && c.out_off < c.outbuf.size() &&
             std::chrono::steady_clock::now() < deadline) {
        pollfd pfd{c.fd, POLLOUT, 0};
        if (::poll(&pfd, 1, 100) <= 0) continue;
        flush_out(c);
      }
      c.dead = true;
    }
    reap();
    // Zombie results (including clients that vanished mid-shutdown) are
    // all ready after the drain above; consume them.
    for (auto& z : zombies) {
      while (!z->pending.empty()) {
        Pending p = std::move(z->pending.front());
        z->pending.pop_front();
        --in_flight;
        (void)take_response(p);
        bump([](NetStats& s) { ++s.dropped; });
      }
    }
    zombies.clear();
    if (epoll_fd >= 0) {
      ::close(epoll_fd);
      epoll_fd = -1;
    }
    // wake_fd stays open: stop() and the device's completion hook may
    // still write it.  stop() closes it once both are done.
    live.store(false, std::memory_order_release);
  }
};

Server::Server(dev::StashDevice& device, ServerConfig config)
    : impl_(std::make_unique<Impl>(device, std::move(config))) {}

Server::~Server() { stop(); }

Status Server::start() {
  Impl& im = *impl_;
  if (im.live.load(std::memory_order_acquire) || im.reactor.joinable()) {
    return Status{ErrorCode::kUnsupported, "server already running"};
  }
  if (im.config.max_pipeline == 0) {
    return Status{ErrorCode::kInvalidArgument, "max_pipeline must be >= 1"};
  }
  in_addr addr{};
  if (!resolve_host(im.config.host, addr)) {
    return Status{ErrorCode::kInvalidArgument,
                  "host must be a numeric IPv4 address: " + im.config.host};
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");
  const int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr = addr;
  sa.sin_port = htons(im.config.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) < 0 ||
      ::listen(fd, 128) < 0 || !set_nonblocking_cloexec(fd)) {
    const Status st = errno_status("bind/listen");
    ::close(fd);
    return st;
  }
  socklen_t len = sizeof(sa);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) < 0) {
    const Status st = errno_status("getsockname");
    ::close(fd);
    return st;
  }
  im.bound_port = ntohs(sa.sin_port);

  const int epfd = epoll_create1(EPOLL_CLOEXEC);
  const int wfd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epfd < 0 || wfd < 0) {
    const Status st = errno_status("epoll/eventfd");
    ::close(fd);
    if (epfd >= 0) ::close(epfd);
    if (wfd >= 0) ::close(wfd);
    return st;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  (void)epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev);
  ev.data.fd = wfd;
  (void)epoll_ctl(epfd, EPOLL_CTL_ADD, wfd, &ev);

  im.listen_fd = fd;
  im.epoll_fd = epfd;
  im.wake_fd = wfd;
  // A destage that admits pending writes makes their futures ready off the
  // reactor thread; wake the reactor instead of letting them sit until the
  // next poll timeout.
  im.device.set_completion_hook([wfd] {
    const std::uint64_t token = 1;
    (void)!::write(wfd, &token, sizeof(token));
  });
  im.stop_requested.store(false, std::memory_order_release);
  im.live.store(true, std::memory_order_release);
  im.reactor = std::thread([this] { impl_->run(); });
  return Status::ok();
}

void Server::stop() {
  Impl& im = *impl_;
  if (!im.reactor.joinable()) return;
  im.stop_requested.store(true, std::memory_order_release);
  const std::uint64_t token = 1;
  (void)!::write(im.wake_fd, &token, sizeof(token));
  im.reactor.join();
  // Only now is no one left to write wake_fd: the reactor is gone and,
  // once the hook is uninstalled, so is the device's completion path.
  im.device.set_completion_hook(nullptr);
  ::close(im.wake_fd);
  im.wake_fd = -1;
}

bool Server::running() const noexcept {
  return impl_->live.load(std::memory_order_acquire);
}

std::uint16_t Server::port() const noexcept { return impl_->bound_port; }

NetStats Server::stats_snapshot() const {
  const std::lock_guard<std::mutex> lock(impl_->stats_mu);
  return impl_->stats;
}

std::string Server::stats_json() const {
  const NetStats s = stats_snapshot();
  std::string json = "{";
  const auto field = [&json](const char* name, std::uint64_t v,
                             bool comma = true) {
    json += '"';
    json += name;
    json += "\":";
    json += std::to_string(v);
    if (comma) json += ',';
  };
  field("accepted", s.accepted);
  field("disconnected", s.disconnected);
  field("requests", s.requests);
  field("responses", s.responses);
  field("dropped", s.dropped);
  field("rx_bytes", s.rx_bytes);
  field("tx_bytes", s.tx_bytes);
  field("pipeline_stalls", s.pipeline_stalls);
  field("protocol_errors", s.protocol_errors);
  json += "\"ops\":{";
  for (std::size_t i = 0; i < kOpCount; ++i) {
    field(op_name(static_cast<OpCode>(i + 1)), s.ops[i], i + 1 < kOpCount);
  }
  json += "}}";
  return json;
}

}  // namespace stash::net
