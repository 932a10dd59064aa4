// stash::net tests: wire-protocol encode/decode and frame reassembly under
// arbitrary chunking, the epoll server end-to-end over loopback (basic ops,
// hidden payloads, pipelined in-order responses, QoS passthrough), the
// version/feature handshake (negotiation on connect; version or pack-format
// mismatch refused as clean kUnsupported plus hangup, never mid-stream
// corruption), hidden_info parity across the wire, graceful shutdown
// accounting (requests == responses + dropped, no abandoned futures),
// mid-flight disconnects and stop() while writes wait for admission behind
// a running destage, a lone remote read answered by the reactor's
// end-of-round drain, and deterministic-mode byte-identical stats export.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "stash/dev/device.hpp"
#include "stash/net/client.hpp"
#include "stash/net/server.hpp"
#include "stash/pack/pack.hpp"
#include "stash/util/rng.hpp"

#include "program_gate.hpp"

namespace stash::net {
namespace {

using dev::DeviceConfig;
using dev::StashDevice;
using util::ErrorCode;

crypto::HidingKey test_key(std::uint8_t fill = 0x51) {
  std::array<std::uint8_t, 32> raw{};
  raw.fill(fill);
  return crypto::HidingKey(raw);
}

DeviceConfig net_config() {
  DeviceConfig config;  // tiny geometry, 1 chip, inline pool
  config.seed = 3030;
  return config;
}

std::vector<std::uint8_t> page_pattern(std::uint32_t bits, std::uint64_t tag) {
  util::Xoshiro256 rng(tag);
  std::vector<std::uint8_t> page(bits);
  for (auto& b : page) b = static_cast<std::uint8_t>(rng() & 1);
  return page;
}

/// Spin until `pred` holds or ~2 s pass; returns whether it held.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// ---- Protocol: framing and body codecs ------------------------------------

TEST(NetProtocol, RequestsSurviveArbitraryStreamChunking) {
  Request a;
  a.op = OpCode::kWrite;
  a.priority = 1;
  a.id = 42;
  a.lpn = 7;
  a.data = {0xde, 0xad, 0xbe, 0xef};
  Request b;
  b.op = OpCode::kRead;
  b.priority = 0;
  b.id = 43;
  b.lpn = 9;

  std::vector<std::uint8_t> stream;
  encode_request(a, stream);
  encode_request(b, stream);

  // Worst-case chunking: one byte at a time.
  FrameAssembler assembler;
  std::vector<Request> decoded;
  for (const std::uint8_t byte : stream) {
    assembler.feed({&byte, 1});
    std::vector<std::uint8_t> frame;
    bool ready = true;
    while (true) {
      ASSERT_TRUE(assembler.poll(frame, ready).is_ok());
      if (!ready) break;
      Request req;
      ASSERT_TRUE(decode_request(frame, req).is_ok());
      decoded.push_back(req);
    }
  }
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].op, OpCode::kWrite);
  EXPECT_EQ(decoded[0].priority, 1);
  EXPECT_EQ(decoded[0].id, 42u);
  EXPECT_EQ(decoded[0].lpn, 7u);
  EXPECT_EQ(decoded[0].data, a.data);
  EXPECT_EQ(decoded[1].op, OpCode::kRead);
  EXPECT_EQ(decoded[1].id, 43u);
  EXPECT_EQ(decoded[1].lpn, 9u);
  EXPECT_EQ(assembler.buffered(), 0u);
}

TEST(NetProtocol, ResponseRoundTripsWithMessageAndData) {
  Response out;
  out.op = OpCode::kLoadHidden;
  out.status = static_cast<std::uint8_t>(ErrorCode::kCorrupted);
  out.id = 777;
  out.message = "duplicate hidden segment 0";
  out.data = {1, 2, 3};

  std::vector<std::uint8_t> stream;
  encode_response(out, stream);
  FrameAssembler assembler;
  assembler.feed(stream);
  std::vector<std::uint8_t> frame;
  bool ready = false;
  ASSERT_TRUE(assembler.poll(frame, ready).is_ok());
  ASSERT_TRUE(ready);

  Response in;
  ASSERT_TRUE(decode_response(frame, in).is_ok());
  EXPECT_EQ(in.op, OpCode::kLoadHidden);
  EXPECT_EQ(in.status, static_cast<std::uint8_t>(ErrorCode::kCorrupted));
  EXPECT_EQ(in.id, 777u);
  EXPECT_EQ(in.message, out.message);
  EXPECT_EQ(in.data, out.data);
}

TEST(NetProtocol, DecodeRejectsUnknownOpTruncationAndTrailing) {
  Request req;
  req.op = OpCode::kRead;
  req.id = 1;
  std::vector<std::uint8_t> stream;
  encode_request(req, stream);
  // Strip the frame header to get the body FrameAssembler would hand back.
  std::vector<std::uint8_t> body(stream.begin() + kFrameHeaderBytes,
                                 stream.end());

  Request out;
  ASSERT_TRUE(decode_request(body, out).is_ok());

  auto bad_op = body;
  bad_op[0] = 0xee;  // not a valid OpCode
  EXPECT_EQ(decode_request(bad_op, out).code(), ErrorCode::kCorrupted);

  auto truncated = body;
  truncated.pop_back();
  EXPECT_EQ(decode_request(truncated, out).code(), ErrorCode::kCorrupted);

  auto trailing = body;
  trailing.push_back(0x00);
  EXPECT_EQ(decode_request(trailing, out).code(), ErrorCode::kCorrupted);
}

TEST(NetProtocol, OversizedFrameHeaderIsCorruptionNotAllocation) {
  FrameAssembler assembler(64);  // tiny cap
  // A 4-byte header announcing a body far past the cap.
  const std::array<std::uint8_t, 4> header = {0x00, 0x00, 0x10, 0x00};  // 1 MiB
  assembler.feed(header);
  std::vector<std::uint8_t> frame;
  bool ready = false;
  EXPECT_EQ(assembler.poll(frame, ready).code(), ErrorCode::kCorrupted);
  EXPECT_FALSE(ready);
}

TEST(NetProtocol, DeviceStatsPayloadIsPinned) {
  // The v4 stats payload: 18 little-endian u64s in a fixed order.  The
  // expected bytes are spelled out so that a reordered, dropped or added
  // field shows up as a wire change, not as a silently re-agreed layout.
  dev::DeviceStats s;
  s.reads = 1;
  s.writes = 2;
  s.trims = 3;
  s.cache_hits = 4;
  s.cache_misses = 5;
  s.buffer_hits = 6;
  s.coalesced_writes = 7;
  s.coalesced_reads = 8;
  s.dispatches = 9;
  s.flushes = 10;
  s.flushed_pages = 11;
  s.lost_writes = 12;
  s.gc_runs = 13;
  s.hidden_stores = 14;
  s.hidden_loads = 15;
  s.pack_logical_bytes = 16;
  s.pack_packed_bytes = 17;
  s.bytes_copied = 18;
  const std::vector<std::uint8_t> expected = {
      1, 0, 0, 0, 0, 0, 0, 0,   // reads
      2, 0, 0, 0, 0, 0, 0, 0,   // writes
      3, 0, 0, 0, 0, 0, 0, 0,   // trims
      4, 0, 0, 0, 0, 0, 0, 0,   // cache_hits
      5, 0, 0, 0, 0, 0, 0, 0,   // cache_misses
      6, 0, 0, 0, 0, 0, 0, 0,   // buffer_hits
      7, 0, 0, 0, 0, 0, 0, 0,   // coalesced_writes
      8, 0, 0, 0, 0, 0, 0, 0,   // coalesced_reads
      9, 0, 0, 0, 0, 0, 0, 0,   // dispatches
      10, 0, 0, 0, 0, 0, 0, 0,  // flushes
      11, 0, 0, 0, 0, 0, 0, 0,  // flushed_pages
      12, 0, 0, 0, 0, 0, 0, 0,  // lost_writes
      13, 0, 0, 0, 0, 0, 0, 0,  // gc_runs
      14, 0, 0, 0, 0, 0, 0, 0,  // hidden_stores
      15, 0, 0, 0, 0, 0, 0, 0,  // hidden_loads
      16, 0, 0, 0, 0, 0, 0, 0,  // pack_logical_bytes
      17, 0, 0, 0, 0, 0, 0, 0,  // pack_packed_bytes
      18, 0, 0, 0, 0, 0, 0, 0,  // bytes_copied
  };
  ASSERT_EQ(expected.size(), 144u);

  std::vector<std::uint8_t> bytes;
  encode_device_stats(s, bytes);
  EXPECT_EQ(bytes, expected);

  dev::DeviceStats back;
  ASSERT_TRUE(decode_device_stats(expected, back).is_ok());
  std::vector<std::uint8_t> again;
  encode_device_stats(back, again);
  EXPECT_EQ(again, expected);
  EXPECT_EQ(back.lost_writes, 12u);
  EXPECT_EQ(back.bytes_copied, 18u);

  auto truncated = expected;
  truncated.pop_back();
  EXPECT_EQ(decode_device_stats(truncated, back).code(),
            ErrorCode::kCorrupted);
  auto trailing = expected;
  trailing.push_back(0x00);
  EXPECT_EQ(decode_device_stats(trailing, back).code(),
            ErrorCode::kCorrupted);
}

// ---- Server: end-to-end over loopback -------------------------------------

TEST(NetServer, ServesTheDeviceSurfaceOverLoopback) {
  StashDevice dev(net_config(), test_key());
  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());
  ASSERT_NE(server.port(), 0);

  Client client;
  ASSERT_TRUE(client.connect("localhost", server.port()).is_ok());
  ASSERT_TRUE(client.ping().is_ok());

  const auto page = page_pattern(dev.page_bits(), 17);
  ASSERT_TRUE(client.write(3, page).is_ok());
  // Pre-flush the read is served verbatim from the write-back buffer.
  auto staged = client.read(3);
  ASSERT_TRUE(staged.is_ok()) << staged.status().to_string();
  EXPECT_EQ(staged.value(), page);

  ASSERT_TRUE(client.flush().is_ok());
  auto durable = client.read(3);
  ASSERT_TRUE(durable.is_ok());
  EXPECT_EQ(durable.value().size(), page.size());

  ASSERT_TRUE(client.trim(3).is_ok());
  EXPECT_EQ(client.read(3).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(client.read(dev.logical_pages()).status().code(),
            ErrorCode::kOutOfBounds);
  // GC may honestly refuse (no victim on a barely-used device); what
  // matters here is that the status code crosses the wire intact.
  const auto gc = client.gc();
  EXPECT_TRUE(gc.is_ok() || gc.code() == ErrorCode::kNoSpace)
      << gc.to_string();

  auto stats = client.stats();
  ASSERT_TRUE(stats.is_ok());
  EXPECT_GE(stats.value().writes, 1u);
  EXPECT_GE(stats.value().reads, 2u);

  client.close();
  server.stop();
  const NetStats net = server.stats_snapshot();
  EXPECT_EQ(net.accepted, 1u);
  EXPECT_GE(net.requests, 8u);
  EXPECT_EQ(net.requests, net.responses + net.dropped);
  EXPECT_EQ(net.dropped, 0u);
  EXPECT_EQ(net.protocol_errors, 0u);
}

TEST(NetServer, HiddenPayloadRoundTripsOverTheWire) {
  DeviceConfig config;
  config.geometry.blocks = 12;
  config.geometry.pages_per_block = 8;
  config.geometry.cells_per_page = 8192;  // production VT-HI needs real pages
  config.seed = 88;
  config.chips = 2;
  StashDevice dev(config, test_key());
  // Build the public cover locally; the hidden traffic goes over the wire.
  for (std::uint64_t lpn = 0; lpn < dev.logical_pages(); ++lpn) {
    ASSERT_TRUE(
        dev.write(lpn, page_pattern(dev.page_bits(), 4000 + lpn)).is_ok());
  }
  ASSERT_TRUE(dev.flush().is_ok());

  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).is_ok());

  // Larger than chip 0 alone can hold, so the payload spans chips.
  std::vector<std::uint8_t> secret(dev.volume(0).hidden_capacity_bytes() + 64);
  util::Xoshiro256 rng(88);
  for (auto& b : secret) b = static_cast<std::uint8_t>(rng());

  ASSERT_TRUE(client.store_hidden(secret).is_ok());
  auto loaded = client.load_hidden();
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value(), secret);

  client.close();
  server.stop();
}

TEST(NetServer, HandshakeNegotiatesVersionFeaturesAndPackFormat) {
  StashDevice dev(net_config(), test_key());
  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).is_ok());

  const Hello& hello = client.server_hello();
  EXPECT_EQ(hello.version, kProtocolVersion);
  EXPECT_TRUE(hello.features & kFeatureHiddenInfo);
  EXPECT_TRUE(hello.features & kFeaturePackV1);
  EXPECT_EQ(hello.pack_format, pack::kFormatVersion);

  client.close();
  server.stop();
}

/// Dial the server raw (no Client, no auto-handshake), send one kHello
/// carrying `mine`, and expect a clean kUnsupported refusal followed by the
/// server hanging up — never a mid-stream kCorrupted.
void expect_hello_refused(std::uint16_t port, const Hello& mine) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)),
            0);

  Request req;
  req.op = OpCode::kHello;
  req.id = 1;
  encode_hello(mine, req.data);
  std::vector<std::uint8_t> wire;
  encode_request(req, wire);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));

  FrameAssembler assembler;
  Response resp;
  bool got = false;
  std::uint8_t buf[4096];
  while (!got) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "connection closed before the refusal arrived";
    assembler.feed({buf, static_cast<std::size_t>(n)});
    std::vector<std::uint8_t> frame;
    bool ready = false;
    ASSERT_TRUE(assembler.poll(frame, ready).is_ok());
    if (ready) {
      ASSERT_TRUE(decode_response(frame, resp).is_ok());
      got = true;
    }
  }
  EXPECT_EQ(resp.op, OpCode::kHello);
  EXPECT_EQ(resp.status, static_cast<std::uint8_t>(ErrorCode::kUnsupported))
      << resp.message;
  EXPECT_FALSE(resp.message.empty());
  // The refusal is the last thing on the wire: the server closes after the
  // flush rather than limping into undecodable traffic.
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);
  ::close(fd);
}

TEST(NetServer, ProtocolVersionMismatchIsUnsupportedNotCorrupted) {
  StashDevice dev(net_config(), test_key());
  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());

  Hello old_client;
  old_client.version = kProtocolVersion - 1;
  expect_hello_refused(server.port(), old_client);

  Hello alien_pack;
  alien_pack.pack_format = pack::kFormatVersion + 1;
  expect_hello_refused(server.port(), alien_pack);

  server.stop();
}

TEST(NetServer, HiddenInfoOverTheWireMatchesTheDevice) {
  DeviceConfig config;
  config.geometry.blocks = 12;
  config.geometry.pages_per_block = 8;
  config.geometry.cells_per_page = 8192;
  config.seed = 99;
  config.chips = 2;
  StashDevice dev(config, test_key());
  for (std::uint64_t lpn = 0; lpn < dev.logical_pages(); ++lpn) {
    ASSERT_TRUE(
        dev.write(lpn, page_pattern(dev.page_bits(), 5000 + lpn)).is_ok());
  }
  ASSERT_TRUE(dev.flush().is_ok());

  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).is_ok());

  // No hidden object yet: the miss crosses the wire as a clean kNotFound.
  EXPECT_EQ(client.hidden_info().status().code(), ErrorCode::kNotFound);

  // A compressible secret, so packed_bytes < logical_bytes is observable.
  std::vector<std::uint8_t> secret(20'000);
  for (std::size_t i = 0; i < secret.size(); ++i) {
    secret[i] = static_cast<std::uint8_t>("stash pack"[i % 10]);
  }
  ASSERT_TRUE(client.store_hidden(secret).is_ok());

  auto remote = client.hidden_info();
  ASSERT_TRUE(remote.is_ok()) << remote.status().to_string();
  auto local = dev.hidden_info();
  ASSERT_TRUE(local.is_ok());
  EXPECT_EQ(remote.value().logical_bytes, local.value().logical_bytes);
  EXPECT_EQ(remote.value().packed_bytes, local.value().packed_bytes);
  EXPECT_EQ(remote.value().chunks, local.value().chunks);
  EXPECT_EQ(remote.value().unique_chunks, local.value().unique_chunks);
  EXPECT_EQ(remote.value().format, local.value().format);
  EXPECT_EQ(remote.value().remaining_capacity_bytes,
            local.value().remaining_capacity_bytes);
  // The ratio crosses the wire in micro-units; equality up to quantization.
  EXPECT_NEAR(remote.value().dedup_ratio, local.value().dedup_ratio, 1e-5);
  EXPECT_EQ(remote.value().logical_bytes, secret.size());
  EXPECT_LT(remote.value().packed_bytes, secret.size());

  client.close();
  server.stop();
}

TEST(NetServer, EmptyHiddenPayloadRoundTripsOverTheWire) {
  DeviceConfig config;
  config.geometry.blocks = 12;
  config.geometry.pages_per_block = 8;
  config.geometry.cells_per_page = 8192;  // production VT-HI needs real pages
  config.seed = 66;
  StashDevice dev(config, test_key());
  for (std::uint64_t lpn = 0; lpn < dev.logical_pages(); ++lpn) {
    ASSERT_TRUE(
        dev.write(lpn, page_pattern(dev.page_bits(), 6000 + lpn)).is_ok());
  }
  ASSERT_TRUE(dev.flush().is_ok());

  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).is_ok());

  ASSERT_TRUE(client.store_hidden({}).is_ok());
  auto loaded = client.load_hidden();
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_TRUE(loaded.value().empty());
  auto info = client.hidden_info();
  ASSERT_TRUE(info.is_ok());
  EXPECT_EQ(info.value().logical_bytes, 0u);

  client.close();
  server.stop();
}

TEST(NetServer, PipelinedResponsesArriveInRequestOrder) {
  StashDevice dev(net_config(), test_key());
  for (std::uint64_t lpn = 0; lpn < 4; ++lpn) {
    ASSERT_TRUE(
        dev.write(lpn, page_pattern(dev.page_bits(), 60 + lpn)).is_ok());
  }
  ASSERT_TRUE(dev.flush().is_ok());

  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).is_ok());

  // Stream a burst of reads without waiting, mixing QoS classes; the n-th
  // response must match the n-th request regardless of priority.
  constexpr std::size_t kBurst = 16;
  std::vector<std::uint64_t> sent_ids;
  for (std::size_t i = 0; i < kBurst; ++i) {
    Request req;
    req.op = OpCode::kRead;
    req.lpn = i % 4;
    req.priority = static_cast<std::uint8_t>(i % 3);
    ASSERT_TRUE(client.send(req).is_ok());
    sent_ids.push_back(req.id);
  }
  for (std::size_t i = 0; i < kBurst; ++i) {
    Response resp;
    ASSERT_TRUE(client.recv(resp).is_ok()) << "response " << i;
    EXPECT_EQ(resp.id, sent_ids[i]) << "response " << i << " out of order";
    EXPECT_EQ(resp.op, OpCode::kRead);
    EXPECT_EQ(resp.status, 0) << resp.message;
    EXPECT_EQ(resp.data.size(), dev.page_bits());
  }

  client.close();
  server.stop();
  const NetStats net = server.stats_snapshot();
  EXPECT_GE(net.requests, kBurst);
  EXPECT_EQ(net.requests, net.responses + net.dropped);
}

// ---- Shutdown with writes awaiting admission ------------------------------
//
// The reactor drains the device queue at the end of every poll round, so
// what can still be in flight when stop() runs is a write the device holds
// for admission: both write-back halves full, the older one in a destage
// that a ProgramGate holds at its first program.

/// A served device whose two write-back halves (2 pages each) are full
/// with lpns 0..3, the older one destaging and held at the gate: every
/// further write waits for admission until the gate opens.  At most two
/// writes may wait; a third would block its submitter (the reactor) until
/// then.  The gate opens before the server and the device are destroyed,
/// also after a failed assertion.
struct HeldDestage {
  test::ProgramGate gate;
  StashDevice dev{held_config(), test_key()};
  Server server{dev};

  HeldDestage() {
    dev.set_fault_injector(&gate);
    for (std::uint64_t lpn = 0; lpn < 4; ++lpn) {
      EXPECT_TRUE(dev.write(lpn, page_pattern(dev.page_bits(), 600 + lpn))
                      .is_ok());
    }
    gate.wait_until_holding();
  }
  ~HeldDestage() { gate.open(); }

  static DeviceConfig held_config() {
    DeviceConfig config = net_config();
    config.write_back_pages = 4;
    return config;
  }
};

std::vector<std::uint8_t> parked_page(const StashDevice& dev,
                                      std::uint64_t lpn) {
  return page_pattern(dev.page_bits(), 700 + lpn);
}

Request write_request(const StashDevice& dev, std::uint64_t lpn) {
  Request req;
  req.op = OpCode::kWrite;
  req.lpn = lpn;
  req.data = parked_page(dev, lpn);
  return req;
}

/// Run stop() while the gate still holds the destage, check that it waits
/// for the parked writes, then open the gate: stop() must return promptly.
void stop_while_held(HeldDestage& held) {
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    held.server.stop();
    stopped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(stopped.load()) << "stop() returned with writes unresolved";
  const auto opened = std::chrono::steady_clock::now();
  held.gate.open();
  stopper.join();
  // Two tiny-geometry destages; the bound only catches a hang.
  EXPECT_LT(std::chrono::steady_clock::now() - opened,
            std::chrono::seconds(10));
}

TEST(NetServer, GracefulShutdownResolvesEveryInFlightRequest) {
  // Writes parked for admission when stop() is called must all resolve —
  // admitted once the destage completes, answered, flushed best-effort —
  // never abandoned.
  HeldDestage held;
  ASSERT_TRUE(held.server.start().is_ok());
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", held.server.port()).is_ok());

  constexpr std::size_t kParked = 2;
  for (std::uint64_t lpn = 4; lpn < 4 + kParked; ++lpn) {
    Request req = write_request(held.dev, lpn);
    ASSERT_TRUE(client.send(req).is_ok());
  }
  // + 1 everywhere: connect()'s kHello handshake is a request too, and its
  // response was already consumed inside connect().
  ASSERT_TRUE(eventually([&] {
    return held.server.stats_snapshot().requests >= kParked + 1;
  }));

  stop_while_held(held);
  const NetStats net = held.server.stats_snapshot();
  EXPECT_EQ(net.requests, kParked + 1);
  EXPECT_EQ(net.requests, net.responses + net.dropped);
  EXPECT_EQ(net.responses, kParked + 1);  // client still connected: delivered

  // The best-effort flush really reached the wire: both responses are
  // readable before the server-side close.
  for (std::size_t i = 0; i < kParked; ++i) {
    Response resp;
    ASSERT_TRUE(client.recv(resp).is_ok()) << "response " << i;
    EXPECT_EQ(resp.op, OpCode::kWrite);
    EXPECT_EQ(resp.status, 0) << resp.message;
  }
}

TEST(NetServer, MidFlightDisconnectIsDroppedNotAbandoned) {
  // A client that vanishes with writes in flight must not hang stop() or
  // leak futures: the results are consumed and counted as dropped.
  HeldDestage held;
  ASSERT_TRUE(held.server.start().is_ok());
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", held.server.port()).is_ok());

  constexpr std::size_t kParked = 2;
  for (std::uint64_t lpn = 4; lpn < 4 + kParked; ++lpn) {
    Request req = write_request(held.dev, lpn);
    ASSERT_TRUE(client.send(req).is_ok());
  }
  ASSERT_TRUE(eventually([&] {
    return held.server.stats_snapshot().requests >= kParked + 1;
  }));

  client.close();  // vanish mid-flight
  ASSERT_TRUE(eventually(
      [&] { return held.server.stats_snapshot().disconnected >= 1; }));

  stop_while_held(held);
  const NetStats net = held.server.stats_snapshot();
  // connect()'s kHello was answered before the disconnect, so requests and
  // responses each carry one handshake on top of the parked writes.
  EXPECT_EQ(net.requests, kParked + 1);
  EXPECT_EQ(net.requests, net.responses + net.dropped);
  EXPECT_EQ(net.dropped, kParked);
  EXPECT_EQ(net.disconnected, 1u);
}

TEST(NetServer, StopWhileWritesAwaitAdmissionAnswersOrDropsEveryWrite) {
  // Two clients each park one write; one of them vanishes.  stop() runs
  // while both writes wait for the gated destage: the connected client's
  // write is answered, the vanished one's counted dropped — and both
  // writes reach the device, since a dropped answer is not a dropped write.
  HeldDestage held;
  ASSERT_TRUE(held.server.start().is_ok());
  Client stays;
  Client vanishes;
  ASSERT_TRUE(stays.connect("127.0.0.1", held.server.port()).is_ok());
  ASSERT_TRUE(vanishes.connect("127.0.0.1", held.server.port()).is_ok());
  Request first = write_request(held.dev, 4);
  Request second = write_request(held.dev, 5);
  ASSERT_TRUE(stays.send(first).is_ok());
  ASSERT_TRUE(vanishes.send(second).is_ok());
  ASSERT_TRUE(eventually(
      [&] { return held.server.stats_snapshot().requests >= 4; }));
  vanishes.close();
  ASSERT_TRUE(eventually(
      [&] { return held.server.stats_snapshot().disconnected >= 1; }));

  stop_while_held(held);
  const NetStats net = held.server.stats_snapshot();
  EXPECT_EQ(net.requests, 4u);  // two hellos, two writes
  EXPECT_EQ(net.requests, net.responses + net.dropped);
  EXPECT_EQ(net.responses, 3u);
  EXPECT_EQ(net.dropped, 1u);

  Response resp;
  ASSERT_TRUE(stays.recv(resp).is_ok());
  EXPECT_EQ(resp.op, OpCode::kWrite);
  EXPECT_EQ(resp.status, 0) << resp.message;

  for (const std::uint64_t lpn : {4u, 5u}) {
    auto r = held.dev.read(lpn);
    ASSERT_TRUE(r.is_ok()) << "lpn " << lpn;
    const auto want = parked_page(held.dev, lpn);
    ASSERT_EQ(r.value().size(), want.size());
    std::size_t differ = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      differ += r.value()[i] != want[i];
    }
    EXPECT_LT(differ, want.size() / 4) << "lpn " << lpn;
  }
}

TEST(NetServer, LoneRemoteReadIsAnsweredByTheEndOfRoundDrain) {
  // One client, one read, no follow-up traffic, and a device whose batch
  // never fills: only the reactor's drain at the end of the poll round
  // that submitted the read can run it.  The test waits for that dispatch
  // on the device before it blocks on the response, so a missing drain
  // fails within ~2 s instead of hanging; stop() then drains the read.
  DeviceConfig config = net_config();
  config.queue_depth = 64;
  config.batch_pages = 64;
  StashDevice dev(config, test_key());
  const auto page = page_pattern(dev.page_bits(), 91);
  ASSERT_TRUE(dev.write(0, page).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());
  const std::uint64_t dispatches = dev.stats_snapshot().dispatches;

  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).is_ok());

  Request req;
  req.op = OpCode::kRead;
  req.lpn = 0;
  ASSERT_TRUE(client.send(req).is_ok());
  ASSERT_TRUE(eventually(
      [&] { return dev.stats_snapshot().dispatches == dispatches + 1; }))
      << "the read is still queued on the device";

  Response resp;
  ASSERT_TRUE(client.recv(resp).is_ok());
  EXPECT_EQ(resp.op, OpCode::kRead);
  ASSERT_EQ(resp.status, 0) << resp.message;
  ASSERT_EQ(resp.data.size(), page.size());
  std::size_t differ = 0;
  for (std::size_t i = 0; i < page.size(); ++i) {
    differ += resp.data[i] != page[i];
  }
  EXPECT_LT(differ, page.size() / 4);

  client.close();
  server.stop();
  const NetStats net = server.stats_snapshot();
  EXPECT_EQ(net.requests, 2u);  // hello + the read
  EXPECT_EQ(net.requests, net.responses + net.dropped);
  EXPECT_EQ(net.dropped, 0u);
}

/// The canonical NetStats JSON, built field by field in its fixed key
/// order: the nine scalars, then the per-op counts keyed by op name.
std::string expected_net_stats_json(const NetStats& s) {
  const std::pair<const char*, std::uint64_t> scalars[] = {
      {"accepted", s.accepted},
      {"disconnected", s.disconnected},
      {"requests", s.requests},
      {"responses", s.responses},
      {"dropped", s.dropped},
      {"rx_bytes", s.rx_bytes},
      {"tx_bytes", s.tx_bytes},
      {"pipeline_stalls", s.pipeline_stalls},
      {"protocol_errors", s.protocol_errors},
  };
  const char* const ops[kOpCount] = {
      "read", "write", "trim", "store_hidden", "load_hidden", "gc",
      "flush", "stats", "ping", "hello", "hidden_info"};
  std::string out = "{";
  for (const auto& [key, value] : scalars) {
    out += std::string("\"") + key + "\":" + std::to_string(value) + ",";
  }
  out += "\"ops\":{";
  for (std::size_t i = 0; i < kOpCount; ++i) {
    if (i > 0) out += ',';
    out += std::string("\"") + ops[i] + "\":" + std::to_string(s.ops[i]);
  }
  return out + "}}";
}

TEST(NetServer, StatsJsonKeyOrderIsPinned) {
  StashDevice dev(net_config(), test_key());
  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());
  {
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()).is_ok());
    ASSERT_TRUE(client.ping().is_ok());
    for (std::uint64_t lpn = 0; lpn < 3; ++lpn) {
      ASSERT_TRUE(
          client.write(lpn, page_pattern(dev.page_bits(), 60 + lpn)).is_ok());
    }
    ASSERT_TRUE(client.flush().is_ok());
    ASSERT_TRUE(client.read(1).is_ok());
    ASSERT_TRUE(client.trim(2).is_ok());
    ASSERT_TRUE(client.stats().is_ok());
    client.close();
  }
  ASSERT_TRUE(eventually(
      [&] { return server.stats_snapshot().disconnected >= 1; }));
  server.stop();

  const NetStats s = server.stats_snapshot();
  EXPECT_EQ(s.accepted, 1u);
  EXPECT_EQ(s.disconnected, 1u);
  EXPECT_GT(s.rx_bytes, 0u);
  EXPECT_GT(s.tx_bytes, 0u);
  EXPECT_EQ(s.ops[static_cast<std::size_t>(OpCode::kWrite) - 1], 3u);
  EXPECT_EQ(server.stats_json(), expected_net_stats_json(s));
}

TEST(NetServer, StatsSnapshotWhileServing) {
  // A second thread polls the stats while a client drives traffic: every
  // count it sees only ever grows, and the final snapshot is exact.
  StashDevice dev(net_config(), test_key());
  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());

  std::atomic<bool> done{false};
  std::uint64_t polls = 0;
  std::uint64_t regressions = 0;
  std::uint64_t bad_json = 0;
  std::thread poller([&] {
    NetStats last;
    const auto grew = [](std::uint64_t before, std::uint64_t now) {
      return now >= before;
    };
    while (!done.load(std::memory_order_acquire)) {
      const NetStats now = server.stats_snapshot();
      bool ok = grew(last.accepted, now.accepted) &&
                grew(last.disconnected, now.disconnected) &&
                grew(last.requests, now.requests) &&
                grew(last.responses, now.responses) &&
                grew(last.dropped, now.dropped) &&
                grew(last.rx_bytes, now.rx_bytes) &&
                grew(last.tx_bytes, now.tx_bytes) &&
                grew(last.pipeline_stalls, now.pipeline_stalls) &&
                grew(last.protocol_errors, now.protocol_errors);
      for (std::size_t i = 0; i < kOpCount; ++i) {
        ok = ok && grew(last.ops[i], now.ops[i]);
      }
      if (!ok) ++regressions;
      last = now;
      const std::string json = server.stats_json();
      if (json.rfind("{\"accepted\":", 0) != 0 ||
          json.find("\"ops\":{") == std::string::npos ||
          json.substr(json.size() - 2) != "}}") {
        ++bad_json;
      }
      ++polls;
    }
  });

  constexpr std::uint64_t kRounds = 40;
  {
    Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()).is_ok());
    for (std::uint64_t i = 0; i < kRounds; ++i) {
      const std::uint64_t lpn = i % 8;
      ASSERT_TRUE(
          client.write(lpn, page_pattern(dev.page_bits(), 700 + i)).is_ok());
      ASSERT_TRUE(client.read(lpn).is_ok());
      ASSERT_TRUE(client.ping().is_ok());
    }
    ASSERT_TRUE(client.stats().is_ok());
    client.close();
  }
  ASSERT_TRUE(eventually(
      [&] { return server.stats_snapshot().disconnected >= 1; }));
  server.stop();
  done.store(true, std::memory_order_release);
  poller.join();

  EXPECT_GT(polls, 0u);
  EXPECT_EQ(regressions, 0u);
  EXPECT_EQ(bad_json, 0u);
  const NetStats s = server.stats_snapshot();
  const auto op = [&s](OpCode code) {
    return s.ops[static_cast<std::size_t>(code) - 1];
  };
  EXPECT_EQ(s.accepted, 1u);
  EXPECT_EQ(s.disconnected, 1u);
  EXPECT_EQ(op(OpCode::kWrite), kRounds);
  EXPECT_EQ(op(OpCode::kRead), kRounds);
  EXPECT_EQ(op(OpCode::kPing), kRounds);
  EXPECT_EQ(op(OpCode::kStats), 1u);
  std::uint64_t by_op = 0;
  for (const std::uint64_t n : s.ops) by_op += n;
  EXPECT_EQ(s.requests, by_op);
  EXPECT_EQ(s.responses, s.requests);
  EXPECT_EQ(s.dropped, 0u);
  EXPECT_EQ(s.protocol_errors, 0u);
  EXPECT_EQ(server.stats_json(), expected_net_stats_json(s));
}

TEST(NetServer, DeterministicModeStatsExportIsByteIdentical) {
  // Same seed, same workload, two fresh device+server instances: the
  // canonical stats JSON must match byte for byte.
  const auto run = [] {
    DeviceConfig config;
    config.seed = 5150;
    StashDevice dev(config, test_key());
    ServerConfig sconfig;
    sconfig.deterministic = true;
    Server server(dev, sconfig);
    EXPECT_TRUE(server.start().is_ok());
    Client client;
    EXPECT_TRUE(client.connect("127.0.0.1", server.port()).is_ok());

    EXPECT_TRUE(client.ping().is_ok());
    for (std::uint64_t lpn = 0; lpn < 4; ++lpn) {
      EXPECT_TRUE(
          client.write(lpn, page_pattern(dev.page_bits(), 100 + lpn)).is_ok());
    }
    EXPECT_TRUE(client.flush().is_ok());
    for (std::uint64_t lpn = 0; lpn < 4; ++lpn) {
      EXPECT_TRUE(client.read(lpn).is_ok());
    }
    EXPECT_TRUE(client.trim(2).is_ok());
    EXPECT_EQ(client.read(2).status().code(), ErrorCode::kNotFound);
    (void)client.gc();  // verdict (ok or an honest kNoSpace) is seeded
    EXPECT_TRUE(client.stats().is_ok());

    // Stop while the client is still connected so the disconnect path
    // never races the export.
    server.stop();
    return server.stats_json();
  };

  const std::string one = run();
  const std::string two = run();
  EXPECT_EQ(one, two);
  EXPECT_NE(one.find("\"requests\":"), std::string::npos);
  EXPECT_NE(one.find("\"ops\":{"), std::string::npos);
}

}  // namespace
}  // namespace stash::net
