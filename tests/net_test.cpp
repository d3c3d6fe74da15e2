// Discovery substrate tests: URLs, the HTTP server/client pair, scheme
// dispatch, and the framed message channel.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <span>
#include <thread>

#include "net/channel.hpp"
#include "net/endpoint.hpp"
#include "net/fetch.hpp"
#include "net/http.hpp"
#include "net/url.hpp"

namespace xmit::net {
namespace {

TEST(Url, ParsesHttpForms) {
  auto url = parse_url("http://example.com/path/doc.xsd").value();
  EXPECT_EQ(url.scheme, "http");
  EXPECT_EQ(url.host, "example.com");
  EXPECT_EQ(url.port, 80);
  EXPECT_EQ(url.path, "/path/doc.xsd");

  url = parse_url("http://127.0.0.1:8080/x").value();
  EXPECT_EQ(url.host, "127.0.0.1");
  EXPECT_EQ(url.port, 8080);

  url = parse_url("http://host:90").value();
  EXPECT_EQ(url.path, "/");
}

TEST(Url, ParsesFileForm) {
  auto url = parse_url("file:///tmp/doc.xsd").value();
  EXPECT_EQ(url.scheme, "file");
  EXPECT_EQ(url.path, "/tmp/doc.xsd");
}

TEST(Url, RoundTripsToString) {
  for (const char* text :
       {"http://h/p", "http://h:99/p", "file:///a/b"}) {
    auto url = parse_url(text).value();
    EXPECT_EQ(parse_url(url.to_string()).value().to_string(),
              url.to_string());
  }
}

TEST(Url, Rejections) {
  EXPECT_FALSE(parse_url("no-scheme").is_ok());
  EXPECT_FALSE(parse_url("ftp://host/x").is_ok());
  EXPECT_FALSE(parse_url("http:///nohost").is_ok());
  EXPECT_FALSE(parse_url("http://host:0/x").is_ok());
  EXPECT_FALSE(parse_url("http://host:99999/x").is_ok());
  EXPECT_FALSE(parse_url("http://host:abc/x").is_ok());
  EXPECT_FALSE(parse_url("file://relative").is_ok());
}

TEST(Http, ServeAndGet) {
  auto server = HttpServer::start().value();
  server->put_document("/doc.xml", "<hello/>", "text/xml");

  auto response = HttpClient::get("127.0.0.1", server->port(), "/doc.xml").value();
  EXPECT_EQ(response.status_code, 200);
  EXPECT_EQ(response.body, "<hello/>");
  EXPECT_EQ(response.content_type, "text/xml");
  EXPECT_EQ(server->request_count(), 1u);
}

TEST(Http, NotFound) {
  auto server = HttpServer::start().value();
  auto response = HttpClient::get("127.0.0.1", server->port(), "/missing").value();
  EXPECT_EQ(response.status_code, 404);
}

TEST(Http, DocumentReplacement) {
  auto server = HttpServer::start().value();
  server->put_document("/d", "v1");
  EXPECT_EQ(HttpClient::get("127.0.0.1", server->port(), "/d").value().body, "v1");
  server->put_document("/d", "v2");
  EXPECT_EQ(HttpClient::get("127.0.0.1", server->port(), "/d").value().body, "v2");
  server->remove_document("/d");
  EXPECT_EQ(HttpClient::get("127.0.0.1", server->port(), "/d").value().status_code,
            404);
}

TEST(Http, LargeBody) {
  auto server = HttpServer::start().value();
  std::string big(1 << 20, 'x');
  server->put_document("/big", big);
  auto response = HttpClient::get("127.0.0.1", server->port(), "/big").value();
  EXPECT_EQ(response.body.size(), big.size());
}

TEST(Http, ConcurrentClients) {
  auto server = HttpServer::start().value();
  server->put_document("/d", "shared");
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      auto response = HttpClient::get("127.0.0.1", server->port(), "/d");
      if (response.is_ok() && response.value().body == "shared") ok.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), 8);
}

TEST(Http, ConnectToClosedPortFails) {
  auto server = HttpServer::start().value();
  std::uint16_t port = server->port();
  server->stop();
  auto response = HttpClient::get("127.0.0.1", port, "/x");
  EXPECT_FALSE(response.is_ok());
}

TEST(Fetch, HttpScheme) {
  auto server = HttpServer::start().value();
  server->put_document("/formats/a.xsd", "<schema/>");
  auto body = fetch(server->url_for("/formats/a.xsd"));
  ASSERT_TRUE(body.is_ok()) << body.status().to_string();
  EXPECT_EQ(body.value(), "<schema/>");

  auto missing = fetch(server->url_for("/nope"));
  EXPECT_FALSE(missing.is_ok());
  EXPECT_EQ(missing.code(), ErrorCode::kNotFound);
}

TEST(Fetch, FileScheme) {
  std::string path = ::testing::TempDir() + "xmit_fetch_test.txt";
  ASSERT_TRUE(write_file(path, "file contents").is_ok());
  auto body = fetch("file://" + path);
  ASSERT_TRUE(body.is_ok());
  EXPECT_EQ(body.value(), "file contents");
  std::remove(path.c_str());
  EXPECT_FALSE(fetch("file://" + path).is_ok());
}

TEST(Channel, PipeSendReceive) {
  auto [a, b] = Channel::pipe().value();
  std::vector<std::uint8_t> message = {1, 2, 3, 4, 5};
  ASSERT_TRUE(a.send(message).is_ok());
  auto received = b.receive().value();
  EXPECT_EQ(received, message);
  EXPECT_EQ(a.messages_sent(), 1u);
}

TEST(Channel, EmptyMessage) {
  auto [a, b] = Channel::pipe().value();
  ASSERT_TRUE(a.send(std::vector<std::uint8_t>{}).is_ok());
  EXPECT_TRUE(b.receive().value().empty());
}

TEST(Channel, ManyMessagesInOrder) {
  auto [a, b] = Channel::pipe().value();
  for (std::uint8_t i = 0; i < 50; ++i) {
    std::vector<std::uint8_t> m(i + 1, i);
    ASSERT_TRUE(a.send(m).is_ok());
  }
  for (std::uint8_t i = 0; i < 50; ++i) {
    auto m = b.receive().value();
    ASSERT_EQ(m.size(), static_cast<std::size_t>(i + 1));
    EXPECT_EQ(m[0], i);
  }
}

TEST(Channel, CleanEofIsNotFound) {
  auto [a, b] = Channel::pipe().value();
  a.close();
  auto result = b.receive(200);
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.code(), ErrorCode::kNotFound);
}

TEST(Channel, ReceiveTimeout) {
  auto [a, b] = Channel::pipe().value();
  auto result = b.receive(50);
  EXPECT_FALSE(result.is_ok());
  // Timeout is its own code, no longer conflated with kIoError.
  EXPECT_EQ(result.code(), ErrorCode::kTimeout);
}

TEST(Channel, AcceptTimeout) {
  auto listener = ChannelListener::listen().value();
  auto result = listener.accept(50);
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.code(), ErrorCode::kTimeout);
}

TEST(Channel, TcpListenerAcceptConnect) {
  auto listener = ChannelListener::listen().value();
  Channel client;
  std::thread connector([&] {
    auto connected = Channel::connect(listener.port());
    if (connected.is_ok()) client = std::move(connected).value();
  });
  auto served = listener.accept().value();
  connector.join();
  ASSERT_TRUE(client.is_open());

  std::vector<std::uint8_t> ping = {9, 9, 9};
  ASSERT_TRUE(client.send(ping).is_ok());
  EXPECT_EQ(served.receive().value(), ping);
  ASSERT_TRUE(served.send(ping).is_ok());
  EXPECT_EQ(client.receive().value(), ping);
}

TEST(Channel, ConnectByHostname) {
  auto listener = ChannelListener::listen().value();
  Channel client;
  std::thread connector([&] {
    auto connected = Channel::connect("localhost", listener.port());
    if (connected.is_ok()) client = std::move(connected).value();
  });
  auto served = listener.accept().value();
  connector.join();
  ASSERT_TRUE(client.is_open());
  std::vector<std::uint8_t> ping = {1, 2, 3};
  ASSERT_TRUE(client.send(ping).is_ok());
  EXPECT_EQ(served.receive().value(), ping);
}

TEST(Channel, ConnectUnresolvableHostIsNotFound) {
  auto connected =
      Channel::connect("no-such-host.invalid.xmit.test", 1, 200);
  ASSERT_FALSE(connected.is_ok());
  EXPECT_EQ(connected.code(), ErrorCode::kNotFound);
}

TEST(Channel, ArmedKillDropsConnectionAtExactByte) {
  auto [a, b] = Channel::pipe().value();
  // Frame = 4-byte length header + payload. Allow one full frame (9
  // bytes) through, then die 3 bytes into the second frame's header.
  a.arm_failure(InjectedFailure::kKillAfterBytes, 12);
  std::vector<std::uint8_t> msg = {7, 7, 7, 7, 7};
  ASSERT_TRUE(a.send(msg).is_ok());
  auto second = a.send(msg);
  ASSERT_FALSE(second.is_ok());
  EXPECT_EQ(second.code(), ErrorCode::kIoError);
  EXPECT_FALSE(a.is_open());  // the injected fault closes the channel

  // Bytes written before the budget survive: the first frame is intact,
  // the second is a truncated header = kIoError mid-frame for the reader.
  EXPECT_EQ(b.receive(500).value(), msg);
  auto truncated = b.receive(500);
  ASSERT_FALSE(truncated.is_ok());
  EXPECT_EQ(truncated.code(), ErrorCode::kIoError);
}

TEST(Channel, ArmedResetAbortsTcpConnection) {
  auto listener = ChannelListener::listen().value();
  Channel client;
  std::thread connector([&] {
    auto connected = Channel::connect(listener.port());
    if (connected.is_ok()) client = std::move(connected).value();
  });
  auto served = listener.accept().value();
  connector.join();
  ASSERT_TRUE(client.is_open());

  client.arm_failure(InjectedFailure::kResetAfterBytes, 0);
  std::vector<std::uint8_t> msg = {5};
  auto sent = client.send(msg);
  ASSERT_FALSE(sent.is_ok());
  EXPECT_EQ(sent.code(), ErrorCode::kIoError);
  auto received = served.receive(500);
  EXPECT_FALSE(received.is_ok());  // RST or bare EOF, never a frame
}

// Whole frames in wire form ([u32 LE length | body]) for send_frames.
std::vector<std::vector<std::uint8_t>> wire_frames(
    std::initializer_list<std::size_t> body_sizes) {
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t size : body_sizes) {
    std::vector<std::uint8_t> wire(4 + size);
    for (std::size_t i = 0; i < 4; ++i)
      wire[i] = static_cast<std::uint8_t>(size >> (8 * i));
    for (std::size_t i = 0; i < size; ++i)
      wire[4 + i] = static_cast<std::uint8_t>(frames.size() * 31 + i);
    frames.push_back(std::move(wire));
  }
  return frames;
}

std::vector<IoSlice> slices_of(
    const std::vector<std::vector<std::uint8_t>>& frames) {
  std::vector<IoSlice> slices;
  for (const auto& wire : frames) slices.push_back({wire.data(), wire.size()});
  return slices;
}

// The batch cursor: a send that would-blocked after any byte of a 3-frame
// batch resumes from exactly that byte, and the peer reads 3 intact frames.
TEST(Channel, SendFramesResumesAtEveryByteOffset) {
  const auto frames = wire_frames({5, 0, 11});
  const auto slices = slices_of(frames);
  std::vector<std::uint8_t> stream;
  for (const auto& wire : frames)
    stream.insert(stream.end(), wire.begin(), wire.end());
  for (std::size_t offset = 0; offset <= stream.size(); ++offset) {
    auto [a, b] = Channel::pipe().value();
    // The bytes an earlier, cut-short call already put on the wire.
    if (offset > 0) {
      ASSERT_TRUE(a.send_raw(std::span(stream).first(offset)).is_ok());
    }
    std::size_t cursor = offset;
    ASSERT_TRUE(a.send_frames(slices, cursor).is_ok()) << "offset " << offset;
    EXPECT_EQ(cursor, stream.size());
    for (const auto& wire : frames) {
      auto got = b.receive(500);
      ASSERT_TRUE(got.is_ok()) << "offset " << offset;
      EXPECT_TRUE(std::equal(got.value().begin(), got.value().end(),
                             wire.begin() + 4, wire.end()))
          << "offset " << offset;
    }
  }
}

// A real would-block: the socket fills mid-batch, send_frames reports
// kUnavailable with the cursor inside the batch, and the same call
// finishes it once the peer drains.
TEST(Channel, SendFramesParksOneFrameWhenTheSocketFills) {
  auto [a, b] = Channel::pipe().value();
  constexpr std::size_t kBody = 1u << 20;  // far past a socket buffer
  const auto frames = wire_frames({kBody, kBody, kBody});
  const auto slices = slices_of(frames);
  std::size_t cursor = 0;
  const Status first = a.send_frames(slices, cursor);
  ASSERT_EQ(first.code(), ErrorCode::kUnavailable) << first.to_string();
  EXPECT_GT(cursor, 0u);
  EXPECT_LT(cursor, 3 * (kBody + 4));
  std::thread drain([&b = b, &frames] {
    for (const auto& wire : frames) {
      auto got = b.receive(5000);
      ASSERT_TRUE(got.is_ok());
      EXPECT_TRUE(std::equal(got.value().begin(), got.value().end(),
                             wire.begin() + 4, wire.end()));
    }
  });
  Status sent = first;
  while (sent.code() == ErrorCode::kUnavailable) {
    a.poll_writable(100);
    sent = a.send_frames(slices, cursor);
  }
  EXPECT_TRUE(sent.is_ok()) << sent.to_string();
  drain.join();
  EXPECT_EQ(a.messages_sent(), 3u);
  EXPECT_EQ(a.bytes_sent(), 3 * (kBody + 4));
}

// The batched flush's point: a credit burst of 64 frames is one syscall,
// while messages_sent() still counts frames.
TEST(Channel, CreditBurstCostsOneSendmsg) {
  auto [a, b] = Channel::pipe().value();
  std::vector<std::vector<std::uint8_t>> frames;
  for (int i = 0; i < 64; ++i) frames.push_back(wire_frames({139}).front());
  const auto slices = slices_of(frames);
  std::size_t cursor = 0;
  ASSERT_TRUE(a.send_frames(slices, cursor).is_ok());
  EXPECT_EQ(a.sendmsg_calls(), 1u);
  EXPECT_EQ(a.messages_sent(), 64u);
  EXPECT_EQ(a.bytes_sent(), 64u * 143u);
  for (int i = 0; i < 64; ++i) ASSERT_EQ(b.receive(500).value().size(), 139u);
}

// A frame given in pieces (a log read-back record's head and payload
// slices) counts once, and so does one whose tail goes out in a later
// call, its length prefix split across slices or calls included.
TEST(Channel, FrameInPiecesCountsOnce) {
  auto [a, b] = Channel::pipe().value();
  const auto frames = wire_frames({9, 20, 5});
  const std::vector<IoSlice> batch = {
      {frames[0].data(), 4},       {frames[0].data() + 4, 9},
      {frames[1].data(), 2},       {frames[1].data() + 2, 10},
      {frames[1].data() + 12, 12}, {frames[2].data(), 2}};
  std::size_t cursor = 0;
  ASSERT_TRUE(a.send_frames(batch, cursor).is_ok());
  EXPECT_EQ(a.sendmsg_calls(), 1u);
  EXPECT_EQ(a.messages_sent(), 2u) << "the third frame is not all out yet";
  const std::vector<IoSlice> tail = {{frames[2].data() + 2, 7}};
  cursor = 0;
  ASSERT_TRUE(a.send_frames(tail, cursor).is_ok());
  EXPECT_EQ(a.messages_sent(), 3u);
  EXPECT_EQ(a.bytes_sent(), 13u + 24u + 9u);
  for (const std::size_t size : {9u, 20u, 5u})
    ASSERT_EQ(b.receive(500).value().size(), size);
}

// The armed-failure seam cuts a batch at its exact byte, not per frame.
TEST(Channel, ArmedKillCutsABatchAtExactByte) {
  const auto frames = wire_frames({5, 7, 9});
  const auto slices = slices_of(frames);
  for (std::size_t budget : {0u, 3u, 9u, 10u, 22u, 31u}) {
    auto [a, b] = Channel::pipe().value();
    a.arm_failure(InjectedFailure::kKillAfterBytes, budget);
    std::size_t cursor = 0;
    EXPECT_EQ(a.send_frames(slices, cursor).code(), ErrorCode::kIoError);
    EXPECT_FALSE(a.is_open());
    std::size_t whole = 0, end = 0;
    for (const auto& wire : frames)
      if ((end += wire.size()) <= budget) ++whole;
    for (std::size_t i = 0; i < whole; ++i)
      EXPECT_TRUE(b.receive(500).is_ok()) << "budget " << budget;
    auto rest = b.receive(500);
    ASSERT_FALSE(rest.is_ok()) << "budget " << budget;
    EXPECT_EQ(b.bytes_received(), budget);
  }
}

TEST(Endpoint, TcpDialReachesListener) {
  auto listener = ChannelListener::listen().value();
  Endpoint endpoint = Endpoint::tcp("127.0.0.1", listener.port());
  ASSERT_TRUE(endpoint.can_dial());
  Channel client;
  std::thread dialer([&] {
    auto dialed = endpoint.dial();
    if (dialed.is_ok()) client = std::move(dialed).value();
  });
  auto served = listener.accept().value();
  dialer.join();
  ASSERT_TRUE(client.is_open());
  std::vector<std::uint8_t> ping = {4, 2};
  ASSERT_TRUE(served.send(ping).is_ok());
  EXPECT_EQ(client.receive().value(), ping);
}

TEST(Endpoint, CustomDialRetriesTransientFailures) {
  int attempts = 0;
  Endpoint endpoint = Endpoint::custom("flaky", [&]() -> Result<Channel> {
    if (++attempts < 3) return make_error(ErrorCode::kIoError, "warming up");
    auto pipe = Channel::pipe();
    if (!pipe.is_ok()) return pipe.status();
    return std::move(pipe.value().first);
  });
  RetryPolicy policy;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 2;
  RetryStats stats;
  auto dialed = endpoint.dial(policy, &stats);
  ASSERT_TRUE(dialed.is_ok());
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(stats.attempts, 3);
}

TEST(Endpoint, DefaultEndpointCannotDial) {
  Endpoint endpoint;
  EXPECT_FALSE(endpoint.can_dial());
  auto dialed = endpoint.dial();
  ASSERT_FALSE(dialed.is_ok());
  EXPECT_EQ(dialed.code(), ErrorCode::kUnsupported);
}

// Wire image of one frame: [u32 LE length | message].
std::vector<std::uint8_t> wire_frame(const std::vector<std::uint8_t>& message) {
  std::vector<std::uint8_t> wire(4 + message.size());
  const auto n = static_cast<std::uint32_t>(message.size());
  for (int i = 0; i < 4; ++i) wire[i] = static_cast<std::uint8_t>(n >> (8 * i));
  std::copy(message.begin(), message.end(), wire.begin() + 4);
  return wire;
}

// Regression: a receive whose timeout expired mid-frame used to drop the
// bytes it had read, and the next receive misread the body as a header.
TEST(Channel, TimeoutMidFrameKeepsPartialFrame) {
  auto [a, b] = Channel::pipe().value();
  const std::vector<std::uint8_t> message = {9, 8, 7, 6, 5, 4, 3, 2};
  const auto wire = wire_frame(message);
  for (std::size_t split : {std::size_t{2}, std::size_t{7}}) {
    SCOPED_TRACE(split);
    std::span<const std::uint8_t> bytes(wire);
    ASSERT_TRUE(a.send_raw(bytes.first(split)).is_ok());
    EXPECT_EQ(b.receive(20).code(), ErrorCode::kTimeout);
    ASSERT_TRUE(a.send_raw(bytes.subspan(split)).is_ok());
    auto out = b.receive(500);
    ASSERT_TRUE(out.is_ok());
    EXPECT_EQ(out.value(), message);
  }
}

// One read takes every frame the socket holds; the rest are cut from the
// buffer, and poll_readable reports them without touching the socket.
TEST(Channel, ReadAheadFramesStayReadable) {
  auto [a, b] = Channel::pipe().value();
  for (std::uint8_t i = 0; i < 3; ++i)
    ASSERT_TRUE(a.send(std::vector<std::uint8_t>(5, i)).is_ok());
  std::span<const std::uint8_t> out;
  Status error;
  ASSERT_TRUE(b.next_frame(out, error));
  EXPECT_EQ(b.bytes_received(), 27u);  // all three frames in one recv
  for (std::uint8_t i = 1; i < 3; ++i) {
    EXPECT_TRUE(b.poll_readable(0));
    ASSERT_TRUE(b.next_frame(out, error));
    EXPECT_EQ(std::vector(out.begin(), out.end()),
              std::vector<std::uint8_t>(5, i));
  }
  EXPECT_FALSE(b.poll_readable(0));
  EXPECT_FALSE(b.next_frame(out, error));
  EXPECT_TRUE(error.is_ok()) << "would-block is not an error";
}

// The length prefix is checked before any buffer grows: the hostile frame
// is refused, its body dropped as it arrives, and framing survives.
TEST(Channel, OversizedLengthPrefixIsRefusedAndSkipped) {
  auto [a, b] = Channel::pipe().value();
  const std::vector<std::uint8_t> big(300, 0xEE);
  const std::vector<std::uint8_t> small = {1, 2, 3};
  ASSERT_TRUE(a.send(big).is_ok());
  ASSERT_TRUE(a.send(small).is_ok());
  std::span<const std::uint8_t> out;
  Status error;
  EXPECT_FALSE(b.next_frame(out, error, 64));
  EXPECT_EQ(error.code(), ErrorCode::kResourceExhausted);
  error = Status::ok();
  ASSERT_TRUE(b.next_frame(out, error, 64));
  EXPECT_EQ(std::vector(out.begin(), out.end()), small);

  // A 4 GiB claim costs nothing either.
  const std::uint8_t hostile[] = {0xFF, 0xFF, 0xFF, 0xFF, 0x00};
  ASSERT_TRUE(a.send_raw(hostile).is_ok());
  EXPECT_EQ(b.receive(500).code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(b.receive(20).code(), ErrorCode::kTimeout);
}

// The sweep offers each frame once, in order; it cuts out the ones taken
// and leaves the rest, in order, for next_frame. It reads no further once
// it holds its bound, and leaves the end of the stream for next_frame to
// report after the frames ahead of it.
TEST(Channel, SweepTakesSomeFramesAndLeavesTheRestInOrder) {
  auto [a, b] = Channel::pipe().value();
  const auto frame_of = [](std::uint8_t id, std::size_t size) {
    return std::vector<std::uint8_t>(size, id);
  };
  for (std::uint8_t id = 1; id <= 4; ++id)
    ASSERT_TRUE(a.send(frame_of(id, 5)).is_ok());
  std::vector<std::uint8_t> offered;
  const auto take_even = [&](std::span<const std::uint8_t> frame) {
    offered.push_back(frame[0]);
    return frame[0] % 2 == 0;
  };
  EXPECT_TRUE(b.sweep(1 << 20, take_even));
  EXPECT_EQ(offered, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_FALSE(b.poll_readable(0)) << "frames left in place were offered";

  ASSERT_TRUE(a.send(frame_of(5, 5)).is_ok());
  offered.clear();
  EXPECT_TRUE(b.sweep(1 << 20, take_even));
  EXPECT_EQ(offered, (std::vector<std::uint8_t>{5})) << "each offered once";

  // A frame over next_frame's limit, left by the sweep, is refused in turn.
  ASSERT_TRUE(a.send(frame_of(7, 300)).is_ok());
  ASSERT_TRUE(a.send(frame_of(9, 5)).is_ok());
  EXPECT_TRUE(b.sweep(1 << 20, take_even));
  std::span<const std::uint8_t> frame;
  Status error;
  for (const std::uint8_t id : {1, 3, 5}) {
    ASSERT_TRUE(b.next_frame(frame, error, 64));
    EXPECT_EQ(std::vector(frame.begin(), frame.end()), frame_of(id, 5));
  }
  EXPECT_FALSE(b.next_frame(frame, error, 64));
  EXPECT_EQ(error.code(), ErrorCode::kResourceExhausted);
  error = Status::ok();
  ASSERT_TRUE(b.next_frame(frame, error, 64));
  EXPECT_EQ(std::vector(frame.begin(), frame.end()), frame_of(9, 5));

  // The bound is on the bytes held (a frame taken frees its room): frames
  // past it stay in the socket.
  for (std::uint8_t id = 11; id <= 20; ++id)
    ASSERT_TRUE(a.send(frame_of(id, 100)).is_ok());
  const std::size_t before = b.bytes_received();
  offered.clear();
  EXPECT_TRUE(b.sweep(250, take_even));
  EXPECT_EQ(offered, (std::vector<std::uint8_t>{11, 12, 13}));
  EXPECT_EQ(b.bytes_received() - before, 250u + 104u);
  for (std::uint8_t id = 11; id <= 20; ++id) {
    if (id == 12) continue;  // taken
    ASSERT_TRUE(b.next_frame(frame, error)) << int{id};
    EXPECT_EQ(frame[0], id);
  }

  // The end of the stream comes after the frames ahead of it.
  ASSERT_TRUE(a.send(frame_of(21, 5)).is_ok());
  a.close();
  EXPECT_FALSE(b.sweep(1 << 20, take_even));
  ASSERT_TRUE(b.next_frame(frame, error));
  EXPECT_EQ(frame[0], 21);
  EXPECT_FALSE(b.next_frame(frame, error));
  EXPECT_EQ(error.code(), ErrorCode::kNotFound);
}

// Frames larger than the initial buffer grow it; frames split at every
// byte boundary reassemble across reads and compaction.
TEST(Channel, BufferGrowsAndCompactsAcrossSplits) {
  auto [a, b] = Channel::pipe().value();
  std::vector<std::uint8_t> stream;
  std::vector<std::vector<std::uint8_t>> messages;
  for (std::size_t size : {3u, 40000u, 0u, 17u, 70000u, 5u}) {
    std::vector<std::uint8_t> m(size);
    for (std::size_t i = 0; i < size; ++i)
      m[i] = static_cast<std::uint8_t>(i * 7 + size);
    const auto wire = wire_frame(m);
    stream.insert(stream.end(), wire.begin(), wire.end());
    messages.push_back(std::move(m));
  }
  std::thread writer([&] {
    std::size_t at = 0;
    for (std::size_t chunk = 1; at < stream.size(); chunk = chunk * 3 % 997 + 1) {
      const std::size_t n = std::min(chunk, stream.size() - at);
      if (!a.send_raw(std::span(stream).subspan(at, n)).is_ok()) return;
      at += n;
    }
  });
  for (const auto& m : messages) {
    auto out = b.receive(5000);
    ASSERT_TRUE(out.is_ok());
    EXPECT_EQ(out.value(), m);
  }
  writer.join();
  EXPECT_EQ(b.bytes_received(), stream.size());
}

TEST(Channel, LargeMessage) {
  auto [a, b] = Channel::pipe().value();
  std::vector<std::uint8_t> big(3 * 1024 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::uint8_t>(i * 31);
  std::thread sender([&] { (void)a.send(big); });
  auto received = b.receive(10000).value();
  sender.join();
  EXPECT_EQ(received, big);
}

}  // namespace
}  // namespace xmit::net
