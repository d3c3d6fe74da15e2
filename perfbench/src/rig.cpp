#include "rig.hpp"

#include <atomic>
#include <cstring>
#include <string>
#include <thread>

#include "common/rng.hpp"
#include "net/channel.hpp"

namespace perfbench {

using xmit::ErrorCode;
using xmit::Result;
using xmit::Status;
namespace pbio = xmit::pbio;
namespace session = xmit::session;
namespace toolkit = xmit::toolkit;

namespace {

using View = session::MessageSession::IncomingView;

constexpr int kReceiveTimeoutMs = 5000;

double us_since(std::int64_t start) {
  return static_cast<double>(now_ns() - start) / 1e3;
}

void add_load(toolkit::LoadStats& into, const toolkit::LoadStats& stats) {
  into.fetch_ms += stats.fetch_ms;
  into.parse_ms += stats.parse_ms;
  into.translate_ms += stats.translate_ms;
  into.register_ms += stats.register_ms;
  into.types_loaded += stats.types_loaded;
}

// The reply a receiver sends for stream record `index`.
hy::ControlEvent reply_for(std::uint64_t index) {
  return {static_cast<std::int32_t>(index & 0x7fffffff),
          static_cast<float>(index % 1024) * 0.25f, 1};
}

bool same_reply(const hy::ControlEvent& got, std::uint64_t index) {
  const hy::ControlEvent want = reply_for(index);
  return got.command == want.command && got.value == want.value &&
         got.flag == want.flag;
}

// Waits up to `wait_ms` for the next record. A plain session frames
// straight off a blocking socket, and a receive that times out mid-frame
// loses the framing, so it enters receive_view only once bytes are
// waiting and then gives the frame all the time it needs. A
// flow-controlled session reassembles frames itself (and may already hold
// some), so a short timeout is safe there.
Result<View> next_record(session::MessageSession& session, int wait_ms) {
  if (session.flow_controlled()) return session.receive_view(wait_ms);
  if (!session.channel().poll_readable(wait_ms))
    return Status(ErrorCode::kTimeout, "no record waiting");
  return session.receive_view(kReceiveTimeoutMs);
}

// Time and allocations of one call repeated on its own (see round_trip).
struct Alone {
  std::int64_t ns = -1;  // -1: not measured
  std::uint32_t allocs = 0;
};

}  // namespace

Result<std::unique_ptr<Rig>> Rig::open(const std::string& url,
                                       const RigConfig& config,
                                       HostFormats& host, Pool& pool,
                                       Tracer& tracer) {
  auto rig = std::make_unique<Rig>(host, pool);
  SetupTimes& t = rig->times;
  const std::int64_t start = now_ns();
  const int root = tracer.begin("setup", 0);

  // Discovery and binding.
  rig->tx_registry = std::make_unique<pbio::FormatRegistry>();
  rig->rx_registry = std::make_unique<pbio::FormatRegistry>();
  rig->xmit = std::make_unique<toolkit::Xmit>(*rig->tx_registry);
  int span = tracer.begin("xmit.load", 0, root);
  XMIT_RETURN_IF_ERROR(rig->xmit->load(url));
  tracer.end(span);
  add_load(t.load, rig->xmit->last_load_stats());
  for (Kind kind : config.kinds) {
    const std::int64_t bind_start = now_ns();
    span = tracer.begin("xmit.bind", 0, root);
    XMIT_ASSIGN_OR_RETURN(auto token, rig->xmit->bind(kind_name(kind)));
    tracer.end(span);
    t.bind_us += us_since(bind_start);
    const std::int64_t make_start = now_ns();
    span = tracer.begin("pbio.encoder_make", 0, root);
    XMIT_ASSIGN_OR_RETURN(auto encoder, pbio::Encoder::make(token.format));
    tracer.end(span);
    t.encoder_make_us += us_since(make_start);
    rig->formats[index_of(kind)] = token.format;
    rig->encoders[index_of(kind)].emplace(std::move(encoder));
  }

  // Session pair; a durable sender opens its log and catalog here.
  const std::int64_t open_start = now_ns();
  span = tracer.begin("session.open", 0, root);
  XMIT_ASSIGN_OR_RETURN(auto pipe, xmit::net::Channel::pipe());
  rig->tx = std::make_unique<session::MessageSession>(
      std::move(pipe.first), *rig->tx_registry, config.tx_options);
  rig->rx = std::make_unique<session::MessageSession>(
      std::move(pipe.second), *rig->rx_registry, config.rx_options);
  XMIT_RETURN_IF_ERROR(rig->tx->durable_status());
  if (config.tx_options.flow_control) {
    // A flow-controlled end grants its first credit on its first receive;
    // seed both directions before anything is queued behind them.
    for (auto* end : {rig->rx.get(), rig->tx.get()}) {
      auto seeded = end->receive_view(0);
      if (seeded.is_ok() || seeded.status().code() != ErrorCode::kTimeout)
        return Status(ErrorCode::kInternal,
                      "unexpected frame while seeding credit");
    }
  }
  tracer.end(span);
  t.open_us = us_since(open_start);

  const std::int64_t announce_start = now_ns();
  span = tracer.begin("session.announce", 0, root);
  for (Kind kind : config.kinds)
    XMIT_RETURN_IF_ERROR(rig->tx->announce(*rig->formats[index_of(kind)]));
  tracer.end(span);
  t.announce_us = us_since(announce_start);

  // Receivers decode peer-described records: verify every plan, as the
  // session's own decoder does.
  rig->tx_decoder = std::make_unique<pbio::Decoder>(*rig->tx_registry);
  rig->rx_decoder = std::make_unique<pbio::Decoder>(*rig->rx_registry);
  rig->tx_decoder->set_verify_plans(true);
  rig->rx_decoder->set_verify_plans(true);

  // The first record, decoded (plan build included) and verified.
  span = tracer.begin("session.send", 0, root);
  XMIT_RETURN_IF_ERROR(rig->send(0));
  tracer.end(span);
  span = tracer.begin("session.recv", 0, root);
  XMIT_ASSIGN_OR_RETURN(auto view, rig->rx->receive_view(kReceiveTimeoutMs));
  tracer.end(span);
  const std::int64_t decode_start = now_ns();
  span = tracer.begin("pbio.first_decode", 0, root);
  AnyRecord out{};
  XMIT_ASSIGN_OR_RETURN(Kind kind, rig->decode(view, out));
  tracer.end(span);
  t.first_decode_us = us_since(decode_start);
  if (!rig->verify(kind, out, 0))
    return Status(ErrorCode::kInternal, "first record does not match");
  rig->next_index = 1;
  t.total_s = static_cast<double>(now_ns() - start) * 1e-9;
  t.metadata_bytes = rig->tx->metadata_bytes_sent();
  tracer.end(root);
  return rig;
}

Status Rig::send(std::uint64_t index) {
  const Entry& entry = this->entry(index);
  AnyRecord record = entry.record;
  stamp(entry.kind, record, index);
  return tx->send(*encoders[index_of(entry.kind)], &record);
}

Result<Kind> Rig::decode(const View& view, AnyRecord& out) {
  const auto kind = host.kind_of(view.sender_format->id());
  if (!kind)
    return Status(ErrorCode::kNotFound,
                  "record of unexpected format " + view.sender_format->name());
  rx_arena.rewind();
  XMIT_RETURN_IF_ERROR(
      rx_decoder->decode(view.bytes, *host.of(*kind), &out, rx_arena));
  return *kind;
}

bool Rig::verify(Kind kind, const AnyRecord& out, std::uint64_t index) const {
  const Entry& entry = this->entry(index);
  if (kind != entry.kind) return false;
  AnyRecord want = entry.record;
  stamp(kind, want, index);
  return same(kind, out, want);
}

void Rig::close() {
  if (tx) tx->close();
  if (rx) rx->close();
}

std::int64_t round_trip(Rig& rig, std::uint64_t index, Ledger& ledger,
                        Tracer& tracer, bool reference_check) {
  ledger.attempt();
  const Entry& entry = rig.entry(index);
  const hy::ControlEvent reply = reply_for(index);
  const pbio::Encoder& reply_encoder = rig.host.encoder(Kind::kControl);

  // Traced runs time the work a call does internally — the encode inside
  // send, the by_id inside receive — by repeating it on the same input
  // just before the round trip, so the timed spans stay contiguous.
  Alone encode, reply_encode, lookup, reply_lookup;
  if (tracer.on()) {
    auto encode_alone = [&](const pbio::Encoder& encoder, const void* record) {
      Alone out;
      const std::uint64_t a0 = allocations();
      const std::int64_t e0 = now_ns();
      Status st =
          encoder.encode_iov(record, rig.encode_scratch, rig.encode_slices);
      if (st.is_ok()) out.ns = now_ns() - e0;
      out.allocs = static_cast<std::uint32_t>(allocations() - a0);
      return out;
    };
    auto lookup_alone = [](const pbio::FormatRegistry& registry,
                           pbio::FormatId id) {
      Alone out;
      const std::int64_t b0 = now_ns();
      if (registry.by_id(id).is_ok()) out.ns = now_ns() - b0;
      return out;
    };
    const std::size_t k = index_of(entry.kind);
    AnyRecord outgoing = entry.record;
    stamp(entry.kind, outgoing, index);
    encode = encode_alone(*rig.encoders[k], &outgoing);
    reply_encode = encode_alone(reply_encoder, &reply);
    lookup = lookup_alone(*rig.rx_registry, rig.formats[k]->id());
    reply_lookup =
        lookup_alone(*rig.tx_registry, rig.host.of(Kind::kControl)->id());
  }

  // Each step runs only if the one before it succeeded; the first failure
  // is reported after the clock stops.
  AnyRecord got{};
  hy::ControlEvent got_reply{};
  const std::int64_t t0 = now_ns();
  const int root = tracer.begin("rt", index);
  const int send_span = tracer.begin("session.send", index, root);
  const Status sent = rig.send(index);
  const int recv_span = tracer.handoff(send_span, "session.recv", index, root);
  const Result<View> view =
      sent.is_ok() ? rig.rx->receive_view(kReceiveTimeoutMs) : Result<View>(sent);
  const int decode_span = tracer.handoff(recv_span, "pbio.decode", index, root);
  const Result<Kind> kind =
      view.is_ok() ? rig.decode(view.value(), got) : Result<Kind>(view.status());
  const int reply_span = tracer.handoff(decode_span, "session.send", index, root);
  const Status replied =
      kind.is_ok() ? rig.rx->send(reply_encoder, &reply) : kind.status();
  const int back_span = tracer.handoff(reply_span, "session.recv", index, root);
  const Result<View> back = replied.is_ok()
                                ? rig.tx->receive_view(kReceiveTimeoutMs)
                                : Result<View>(replied);
  const int back_decode_span =
      tracer.handoff(back_span, "pbio.decode", index, root);
  Status decoded = back.status();
  if (back.is_ok()) {
    rig.tx_arena.rewind();
    decoded = rig.tx_decoder->decode(back.value().bytes,
                                     *rig.host.of(Kind::kControl), &got_reply,
                                     rig.tx_arena);
  }
  tracer.handoff(back_decode_span, nullptr, index, root);
  tracer.end(root);
  const std::int64_t rtt = now_ns() - t0;

  auto attach = [&](const char* name, int parent, const Alone& alone) {
    if (alone.ns >= 0)
      tracer.synthetic(name, index, parent, alone.ns, alone.allocs);
  };
  attach("pbio.encode", send_span, encode);
  attach("pbio.by_id", recv_span, lookup);
  attach("pbio.encode", reply_span, reply_encode);
  attach("pbio.by_id", back_span, reply_lookup);

  // Checks run outside the timed window.
  if (!decoded.is_ok()) {
    ledger.fail("round trip " + std::to_string(index) + ": " +
                decoded.to_string());
    return -1;
  }
  if (!rig.verify(kind.value(), got, index)) {
    ledger.fail("record " + std::to_string(index) + " does not match");
    return -1;
  }
  if (!same_reply(got_reply, index)) {
    ledger.fail("reply " + std::to_string(index) + " does not match");
    return -1;
  }
  if (reference_check) {
    // The record's view stays valid until the receiver's next receive.
    Status ref = check_reference(*rig.rx_decoder, view.value().bytes,
                                 kind.value(), rig.host);
    if (ref.is_ok())
      ref = check_reference(*rig.tx_decoder, back.value().bytes,
                            Kind::kControl, rig.host);
    if (!ref.is_ok()) {
      ledger.fail(ref.to_string());
      return -1;
    }
  }
  return rtt;
}

Samples run_latency(Rig& rig, double seconds, Ledger& ledger, Tracer& tracer,
                    std::uint64_t seed) {
  Samples rtt_us;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  xmit::Rng sampler(seed ^ 0x5eed5eedull);
  while (now_ns() < deadline) {
    const std::uint64_t index = rig.next_index++;
    // A seeded ~1/64 sample of round trips also runs the reference oracle
    // on the record and its reply (outside the timed window).
    const std::int64_t rtt =
        round_trip(rig, index, ledger, tracer, sampler.below(64) == 0);
    if (rtt < 0) break;
    rtt_us.add(static_cast<double>(rtt) / 1e3);
  }
  return rtt_us;
}

StreamStats run_stream(Rig& rig, double seconds, Ledger& ledger,
                       std::size_t span_capacity) {
  StreamStats stats;
  const std::uint64_t first = rig.next_index;
  const bool flow_controlled = rig.tx->flow_controlled();
  const std::size_t tx_messages0 = rig.tx->channel().messages_sent();
  const std::size_t tx_bytes0 = rig.tx->channel().bytes_sent();
  const std::size_t grants0 = rig.rx->credit_grants_sent();
  const double block0 = rig.tx->send_block_ms();
  const std::uint64_t allocs0 = allocations();

  std::atomic<bool> sender_done{false};
  std::atomic<std::uint64_t> sent_total{0};
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);

  Tracer tx_tracer(span_capacity), rx_tracer(span_capacity);
  std::thread sender([&] {
    std::uint64_t index = first;
    while (now_ns() < deadline && ledger.failed() == 0) {
      ledger.attempt();
      const Entry& entry = rig.entry(index);
      Alone encode;
      if (tx_tracer.on()) {
        AnyRecord record = entry.record;
        stamp(entry.kind, record, index);
        const std::uint64_t a0 = allocations();
        const std::int64_t e0 = now_ns();
        if (rig.encoders[index_of(entry.kind)]
                ->encode_iov(&record, rig.encode_scratch, rig.encode_slices)
                .is_ok())
          encode.ns = now_ns() - e0;
        encode.allocs = static_cast<std::uint32_t>(allocations() - a0);
      }
      const int span = tx_tracer.begin("session.send", index);
      const Status st = rig.send(index);
      tx_tracer.end(span);
      if (encode.ns >= 0)
        tx_tracer.synthetic("pbio.encode", index, span, encode.ns,
                            encode.allocs);
      if (!st.is_ok()) {
        ledger.fail("stream send: " + st.to_string());
        break;
      }
      ++index;
    }
    sent_total.store(index - first);
    sender_done.store(true);
    // A flow-controlled sender only moves its queue inside its own calls.
    while (flow_controlled && rig.tx->send_queue_depth() > 0 &&
           now_ns() < deadline + 10'000'000'000) {
      auto pumped = rig.tx->receive_view(5);
      if (pumped.is_ok()) ledger.fail("unexpected data record at the sender");
    }
  });

  std::thread receiver([&] {
    AnyRecord out{};
    std::uint64_t index = first;
    stats.windows.start();
    for (;;) {
      if (sender_done.load() && index - first == sent_total.load()) break;
      const int span = rx_tracer.begin("session.recv", index);
      auto view = next_record(*rig.rx, 100);
      if (!view.is_ok()) {
        rx_tracer.end(span);
        if (view.status().code() == ErrorCode::kTimeout &&
            now_ns() < deadline + 20'000'000'000)
          continue;
        ledger.fail("stream receive: " + view.status().to_string());
        rig.rx->close();  // a sender blocked on a full socket fails too
        break;
      }
      const int decode_span = rx_tracer.handoff(span, "pbio.decode", index, -1);
      const std::int64_t d0 = rx_tracer.on() ? now_ns() : 0;
      auto kind = rig.decode(view.value(), out);
      const std::int64_t d1 = rx_tracer.on() ? now_ns() : 0;
      rx_tracer.end(decode_span);
      const std::uint64_t at = index++;
      if (!kind.is_ok()) {
        ledger.fail("stream decode: " + kind.status().to_string());
        continue;
      }
      if (!rig.verify(kind.value(), out, at)) {
        ledger.fail("stream record " + std::to_string(at) + " does not match");
        continue;
      }
      const Entry& entry = rig.entry(at);
      if (rx_tracer.on()) {
        stats.decode_bytes += static_cast<double>(entry.payload);
        stats.decode_ns += static_cast<double>(d1 - d0);
      }
      stats.windows.record(entry.payload);
    }
    stats.windows.finish();
    stats.delivered = index - first;
  });
  sender.join();
  receiver.join();

  const std::uint64_t sent = sent_total.load();
  rig.next_index = first + sent;
  if (stats.delivered != sent)
    ledger.fail("stream delivered " + std::to_string(stats.delivered) +
                " of " + std::to_string(sent) + " records");
  stats.allocs = static_cast<double>(allocations() - allocs0);
  stats.net_sends =
      static_cast<double>(rig.tx->channel().messages_sent() - tx_messages0);
  stats.net_bytes =
      static_cast<double>(rig.tx->channel().bytes_sent() - tx_bytes0);
  stats.credit_grants =
      static_cast<double>(rig.rx->credit_grants_sent() - grants0);
  stats.send_block_ms = rig.tx->send_block_ms() - block0;
  stats.send_queue_peak = rig.tx->send_queue_depth_peak();
  stats.spans_full = tx_tracer.full() || rx_tracer.full();
  stats.tx_spans = tx_tracer.take();
  stats.rx_spans = rx_tracer.take();
  return stats;
}

}  // namespace perfbench
