#include "netrun.hpp"

#include <algorithm>
#include <deque>
#include <thread>

#include "stash/net/client.hpp"

namespace perfbench {

using stash::net::Client;
using stash::net::OpCode;
using stash::net::Request;
using stash::net::Response;

void Checker::fail(const std::string& what) {
  errors_.fetch_add(1);
  std::lock_guard lock(mu_);
  if (messages_.size() < 8) messages_.push_back(what);
}

std::vector<std::string> Checker::messages() const {
  std::lock_guard lock(mu_);
  return messages_;
}

void Checker::check_read(const PageCodec& codec, std::uint64_t lpn,
                         std::span<const std::uint8_t> page) {
  const auto d = codec.decode(page);
  const std::uint32_t writer = tag_writer(d.tag);
  const bool known_version =
      tag_lpn(d.tag) == (lpn & 0xffffffULL) &&
      (writer == kCoverWriter ? tag_seq(d.tag) == 0
                              : tag_seq(d.tag) < sent_writes[writer].load());
  // The public channel has raw bit errors; a page is the version its tag
  // names only when nearly every checked cell agrees with it.
  if (!known_version || d.mismatches * 20 > d.checked) {
    fail("read of lpn " + std::to_string(lpn) + " returned tag " +
         std::to_string(d.tag) + " with " + std::to_string(d.mismatches) +
         "/" + std::to_string(d.checked) + " mismatched cells");
  }
}

void Checker::check_hidden(std::span<const std::uint8_t> loaded,
                           const std::vector<std::uint8_t>& stored,
                           const char* where) {
  if (!std::equal(loaded.begin(), loaded.end(), stored.begin(), stored.end())) {
    fail(std::string(where) + ": load_hidden returned " +
         std::to_string(loaded.size()) +
         " bytes that are not the last acknowledged store (" +
         std::to_string(stored.size()) + " bytes)");
  }
}

void stop_server(Host& host, Checker& checker) {
  host.server->stop();
  const auto ns = host.server->stats_snapshot();
  if (ns.requests != ns.responses + ns.dropped) {
    checker.fail("net accounting: requests " + std::to_string(ns.requests) +
                 " != responses " + std::to_string(ns.responses) +
                 " + dropped " + std::to_string(ns.dropped));
  }
}

double KindStats::sliced_quantile(double q) const {
  std::vector<double> per_slice;
  for (const auto& s : slice_latency_us) {
    if (s.size() > 0) per_slice.push_back(s.quantile(q));
  }
  return median(per_slice);
}

double WindowResult::sliced_ops_per_s() const {
  std::vector<double> per_slice;
  for (const auto n : slice_completed) {
    per_slice.push_back(static_cast<double>(n) * kSlices / measure_s);
  }
  return median(per_slice);
}

namespace {

/// Writer id of connection `conn` in window `window` (page tags).
std::uint32_t writer_id(std::uint32_t window, std::uint32_t conn) {
  return window * 8 + conn;
}

/// Slice of the measured window [t0, t0 + len) that `t` falls in.
int slice_of(Clock::time_point t, Clock::time_point t0, Clock::duration len) {
  const auto i = (t - t0) * kSlices / len;
  return static_cast<int>(std::clamp<decltype(i)>(i, 0, kSlices - 1));
}

struct Pending {
  Op op;
  std::uint64_t id = 0;
  Clock::time_point sent;
};

struct ConnResult {
  std::array<KindStats, kOpKinds> kinds;
  std::array<std::uint64_t, kOpKinds> attempted_all{};
  std::array<std::uint64_t, kOpKinds> failed_all{};
  std::vector<Clock::time_point> responses;  // inside the window
  std::vector<Span> spans;
  std::array<std::string, kOpKinds> first_error;
};

OpCode opcode(OpKind kind) {
  switch (kind) {
    case OpKind::kRead: return OpCode::kRead;
    case OpKind::kWrite: return OpCode::kWrite;
    case OpKind::kLoadHidden: return OpCode::kLoadHidden;
  }
  return OpCode::kPing;
}

void run_conn(const Host& host, const Workload& w, std::uint64_t seed,
              const PageCodec& codec, const WindowSpec& spec,
              std::uint32_t conn, Clock::time_point begin, Checker& checker,
              ConnResult& out) {
  const ConnSpec& cs = w.conns[conn];
  const std::uint32_t writer = writer_id(spec.window, conn);
  const auto t_measure = begin + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(spec.warmup_s));
  const auto t_end = t_measure + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(spec.measure_s));
  Client client;
  if (const auto st = client.connect("127.0.0.1", host.server->port());
      !st.is_ok()) {
    checker.fail("connect failed: " + st.to_string());
    return;
  }
  OpStream stream(w, cs, host.hot, stream_seed(seed, spec.window, conn));
  std::deque<Pending> pending;
  Response resp;
  while (true) {
    while (pending.size() < cs.depth && Clock::now() < t_end) {
      Pending p;
      p.op = stream.next();
      Request req;
      req.op = opcode(p.op.kind);
      req.lpn = p.op.lpn;
      switch (p.op.kind) {
        case OpKind::kRead:
          req.priority = 0;
          break;
        case OpKind::kWrite:
          req.priority = 1;
          req.data = codec.encode(make_tag(p.op.lpn, writer, p.op.seq));
          checker.sent_writes[writer].store(p.op.seq + 1);
          break;
        case OpKind::kLoadHidden:
          req.priority = 2;
          break;
      }
      // Never 0: send() gives a request with id 0 a number of its own.
      req.id = ((static_cast<std::uint64_t>(writer) << 40) | p.op.seq) + 1;
      p.id = req.id;
      p.sent = Clock::now();
      const auto st = client.send(req);
      if (spec.spans != nullptr) {
        out.spans.push_back({"net.send", req.id, op_kind_name(p.op.kind), 0, 0});
        out.spans.back().start_ns = spec.spans->ns(p.sent);
        out.spans.back().end_ns = spec.spans->ns(Clock::now());
      }
      if (!st.is_ok()) {
        checker.fail("send failed: " + st.to_string());
        return;
      }
      pending.push_back(std::move(p));
    }
    if (pending.empty()) break;

    const auto st = client.recv(resp);
    const auto now = Clock::now();
    if (!st.is_ok()) {
      checker.fail("recv failed: " + st.to_string());
      return;
    }
    Pending p = std::move(pending.front());
    pending.pop_front();
    // The server answers each connection in order; a response for another
    // request would credit its latency and its check to the wrong op.
    if (resp.id != p.id || resp.op != opcode(p.op.kind)) {
      checker.fail("response id " + std::to_string(resp.id) + " op " +
                   std::to_string(static_cast<int>(resp.op)) +
                   " does not answer the oldest request, id " +
                   std::to_string(p.id) + " op " +
                   std::to_string(static_cast<int>(opcode(p.op.kind))));
      return;
    }
    const int k = static_cast<int>(p.op.kind);
    const bool ok = resp.status == 0;
    const bool in_window = p.sent >= t_measure && p.sent < t_end;
    ++out.attempted_all[k];
    if (!ok) ++out.failed_all[k];
    if (in_window) {
      ++out.kinds[k].attempted;
      if (!ok) ++out.kinds[k].failed;
      const double us = us_between(p.sent, now);
      out.kinds[k].latency_us.add(us);
      out.kinds[k].slice_latency_us[slice_of(p.sent, t_measure, t_end - t_measure)]
          .add(us);
    }
    if (now >= t_measure && now < t_end) out.responses.push_back(now);
    if (spec.spans != nullptr) {
      out.spans.push_back({"net.request", p.id, op_kind_name(p.op.kind),
                           spec.spans->ns(p.sent), spec.spans->ns(now)});
    }
    if (!ok) {
      if (out.first_error[k].empty()) out.first_error[k] = resp.message;
      continue;
    }
    switch (p.op.kind) {
      case OpKind::kRead:
        checker.check_read(codec, p.op.lpn, resp.data);
        break;
      case OpKind::kLoadHidden:
        checker.check_hidden(resp.data, host.hidden, "net");
        break;
      case OpKind::kWrite:
        break;
    }
  }
  client.close();
}

}  // namespace

WindowResult run_window(Host& host, const Workload& w, std::uint64_t seed,
                        const PageCodec& codec, const WindowSpec& spec,
                        Checker& checker) {
  std::vector<ConnResult> results(w.conns.size());
  std::vector<std::thread> threads;
  const auto begin = Clock::now();
  for (std::uint32_t c = 0; c < w.conns.size(); ++c) {
    threads.emplace_back(run_conn, std::cref(host), std::cref(w), seed,
                         std::cref(codec), std::cref(spec), c, begin,
                         std::ref(checker), std::ref(results[c]));
  }
  for (auto& t : threads) t.join();

  WindowResult out;
  out.measure_s = spec.measure_s;
  std::vector<Clock::time_point> responses;
  for (auto& r : results) {
    for (int k = 0; k < kOpKinds; ++k) {
      out.kinds[k].attempted += r.kinds[k].attempted;
      out.kinds[k].failed += r.kinds[k].failed;
      out.kinds[k].latency_us.append(r.kinds[k].latency_us);
      for (int s = 0; s < kSlices; ++s) {
        out.kinds[k].slice_latency_us[s].append(r.kinds[k].slice_latency_us[s]);
      }
      out.attempted_all[k] += r.attempted_all[k];
      out.failed_all[k] += r.failed_all[k];
      if (out.first_error[k].empty()) out.first_error[k] = r.first_error[k];
    }
    responses.insert(responses.end(), r.responses.begin(), r.responses.end());
    if (spec.spans != nullptr) spec.spans->add_all(r.spans);
  }
  out.completed = responses.size();
  const auto t_measure = begin + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(spec.warmup_s));
  const auto t_end = t_measure + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(spec.measure_s));
  for (const auto t : responses) {
    ++out.slice_completed[slice_of(t, t_measure, t_end - t_measure)];
  }
  responses.push_back(t_measure);
  responses.push_back(t_end);
  std::sort(responses.begin(), responses.end());
  for (std::size_t i = 1; i < responses.size(); ++i) {
    out.max_response_gap_ms =
        std::max(out.max_response_gap_ms,
                 us_between(responses[i - 1], responses[i]) / 1e3);
  }
  return out;
}

}  // namespace perfbench
