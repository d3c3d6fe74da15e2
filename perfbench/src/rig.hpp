// A connected sender/receiver pair built the way an XMIT application
// builds one — HTTP schema discovery, bind, Encoder::make, session open,
// announcement, first verified record — plus the two measurement phases
// every streaming workload shares:
//
//   latency  one record out and a ControlEvent reply back, one in flight,
//            both session ends driven by the calling thread (so the time
//            is the program's path, not two thread wake-ups);
//   stream   closed loop: one sender thread, one receiver thread that
//            decodes and verifies every record; the sender blocks when
//            the socket (or, flow-controlled, the credit) is full.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/bytes.hpp"
#include "harness.hpp"
#include "hydro.hpp"
#include "session/session.hpp"
#include "xmit/xmit.hpp"

namespace perfbench {

struct RigConfig {
  std::vector<Kind> kinds;  // formats the sender binds via XMIT
  xmit::session::SessionOptions tx_options;
  xmit::session::SessionOptions rx_options;
};

// Where set-up time went, from the calls the benchmark makes.
struct SetupTimes {
  xmit::toolkit::LoadStats load;  // summed over every load() of the set-up
  double bind_us = 0;
  double encoder_make_us = 0;
  double open_us = 0;      // session pair construction (+ log open)
  double announce_us = 0;
  double first_decode_us = 0;  // plan build and verification included
  double total_s = 0;          // discovery start -> first verified record
  std::size_t metadata_bytes = 0;
};

struct Rig {
  Rig(HostFormats& host_formats, Pool& record_pool)
      : host(host_formats), pool(record_pool) {}
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  // Builds and connects a pair, then sends and verifies record 0.
  static xmit::Result<std::unique_ptr<Rig>> open(const std::string& url,
                                                 const RigConfig& config,
                                                 HostFormats& host, Pool& pool,
                                                 Tracer& tracer);

  // Pool entry behind stream index `index`.
  Entry& entry(std::uint64_t index) { return pool.at(index); }
  const Entry& entry(std::uint64_t index) const { return pool.at(index); }

  // Sends stream record `index` from `session` (the sender end).
  xmit::Status send(std::uint64_t index);
  // Decodes the record in `view` into `out` (receiver end); the kind is
  // read from the sender format the record names.
  xmit::Result<Kind> decode(const xmit::session::MessageSession::IncomingView& view,
                            AnyRecord& out);
  // Field-by-field check of a decoded record against stream index `index`.
  bool verify(Kind kind, const AnyRecord& out, std::uint64_t index) const;

  void close();

  HostFormats& host;
  Pool& pool;
  SetupTimes times;
  std::uint64_t next_index = 0;  // stream index of the next record (seq - 1)

  // Declared before the sessions and decoders that hold references to them.
  std::unique_ptr<xmit::pbio::FormatRegistry> tx_registry;
  std::unique_ptr<xmit::pbio::FormatRegistry> rx_registry;
  std::unique_ptr<xmit::toolkit::Xmit> xmit;
  xmit::pbio::FormatPtr formats[kKindCount];
  std::optional<xmit::pbio::Encoder> encoders[kKindCount];
  std::unique_ptr<xmit::pbio::Decoder> tx_decoder;
  std::unique_ptr<xmit::pbio::Decoder> rx_decoder;
  xmit::Arena tx_arena;
  xmit::Arena rx_arena;
  xmit::ByteBuffer encode_scratch;  // traced runs: the separate encode
  std::vector<xmit::IoSlice> encode_slices;
  std::unique_ptr<xmit::session::MessageSession> tx;
  std::unique_ptr<xmit::session::MessageSession> rx;
};

// --- latency phase ------------------------------------------------------

// One round trip for stream index `index` on the calling thread. Returns
// the round-trip time in ns, or -1 after recording a failure. Traced
// runs wrap every public call in a span under one "rt" root.
std::int64_t round_trip(Rig& rig, std::uint64_t index, Ledger& ledger,
                        Tracer& tracer, bool reference_check);

// Round trips until `seconds` have passed; returns their times in µs.
Samples run_latency(Rig& rig, double seconds, Ledger& ledger, Tracer& tracer,
                    std::uint64_t seed);

// --- stream phase -------------------------------------------------------

struct StreamStats {
  RateWindows windows;
  std::uint64_t delivered = 0;
  // Deltas over the slice, from the benchmark's operator new and the
  // sessions' public counters.
  double allocs = 0;
  double net_sends = 0;
  double net_bytes = 0;
  double credit_grants = 0;
  double send_block_ms = 0;
  std::size_t send_queue_peak = 0;
  // Traced runs only: decode time and payload.
  double decode_bytes = 0, decode_ns = 0;
  std::vector<Span> tx_spans;
  std::vector<Span> rx_spans;
  bool spans_full = false;  // a span buffer filled before the slice ended
};

// One closed-loop slice of `seconds`; spans go to buffers of
// `span_capacity` entries (0 = untraced). Every record sent and received
// while a buffer has room is traced.
StreamStats run_stream(Rig& rig, double seconds, Ledger& ledger,
                       std::size_t span_capacity);

}  // namespace perfbench
