// Flight events: the paper's Figure 2 ASDOffEvent scenario, extended into
// a small feed server. Demonstrates:
//   * multiple client generations coexisting: the v1 client binds the
//     original schema while the server has already evolved to v2 (extra
//     `gate` field) — PBIO's restricted evolution keeps them compatible;
//   * TCP channels carrying self-identifying records;
//   * logging the same records to a self-describing PBIO file and reading
//     them back with a fresh registry.
#include <cstdio>
#include <thread>
#include <vector>

#include "common/arena.hpp"
#include "net/channel.hpp"
#include "net/http.hpp"
#include "pbio/decode.hpp"
#include "storage/data_file.hpp"
#include "xmit/xmit.hpp"

namespace {

constexpr const char* kSchemaV1 = R"(
<xsd:complexType name="ASDOffEvent">
  <xsd:element name="centerID" type="xsd:string" />
  <xsd:element name="airline" type="xsd:string" />
  <xsd:element name="flightNum" type="xsd:integer" />
  <xsd:element name="off" type="xsd:unsignedLong" />
</xsd:complexType>)";

constexpr const char* kSchemaV2 = R"(
<xsd:complexType name="ASDOffEvent">
  <xsd:element name="centerID" type="xsd:string" />
  <xsd:element name="airline" type="xsd:string" />
  <xsd:element name="flightNum" type="xsd:integer" />
  <xsd:element name="off" type="xsd:unsignedLong" />
  <xsd:element name="gate" type="xsd:string" />
</xsd:complexType>)";

// Server-side (v2) struct.
struct ASDOffEventV2 {
  char* centerID;
  char* airline;
  std::int32_t flightNum;
  std::uint64_t off;
  char* gate;
};

// Old-generation client struct (v1) — knows nothing about `gate`.
struct ASDOffEventV1 {
  char* centerID;
  char* airline;
  std::int32_t flightNum;
  std::uint64_t off;
};

const char* kAirlines[] = {"DAL", "UAL", "AAL", "SWA"};
const char* kCenters[] = {"ZID", "ZTL", "ZAU"};
const char* kGates[] = {"A1", "B7", "C12", "D4"};

}  // namespace

int main() {
  const std::string log_path = "/tmp/flight_events.pbio";

  // Metadata server hosts both generations of the format document.
  auto http = xmit::net::HttpServer::start().value();
  http->put_document("/formats/asd_v1.xsd", kSchemaV1);
  http->put_document("/formats/asd_v2.xsd", kSchemaV2);

  // --- Feed server: current (v2) metadata ----------------------------
  xmit::pbio::FormatRegistry server_registry;
  xmit::toolkit::Xmit server_xmit(server_registry);
  if (auto s = server_xmit.load(http->url_for("/formats/asd_v2.xsd")); !s.is_ok()) {
    std::fprintf(stderr, "server load: %s\n", s.to_string().c_str());
    return 1;
  }
  auto server_token = server_xmit.bind("ASDOffEvent").value();
  std::printf("server bound ASDOffEvent v2 (struct %u bytes, id %016llx)\n",
              server_token.format->struct_size(),
              static_cast<unsigned long long>(server_token.format->id()));

  auto listener = xmit::net::ChannelListener::listen().value();

  // --- Old-generation client thread ----------------------------------
  std::thread client([&, port = listener.port()] {
    xmit::pbio::FormatRegistry client_registry;
    xmit::toolkit::Xmit client_xmit(client_registry);
    if (!client_xmit.load(http->url_for("/formats/asd_v1.xsd")).is_ok()) return;
    auto client_token = client_xmit.bind("ASDOffEvent").value();

    auto channel = xmit::net::Channel::connect(port).value();
    xmit::pbio::Decoder decoder(client_registry);
    xmit::Arena arena;
    for (;;) {
      auto bytes = channel.receive(5000);
      if (!bytes.is_ok()) break;  // clean EOF ends the feed
      // The sender's (v2) format must be known to convert; a real
      // deployment fetches it by id from a format service — here the
      // header id tells the client it needs the v2 document.
      auto info = decoder.inspect(bytes.value());
      if (!info.is_ok()) {
        if (!client_xmit.load(http->url_for("/formats/asd_v2.xsd")).is_ok())
          return;
        info = decoder.inspect(bytes.value());
        std::printf("client: fetched evolved metadata after unknown id\n");
      }
      ASDOffEventV1 event{};
      arena.reset();
      auto status = decoder.decode(bytes.value(), *client_token.format,
                                   &event, arena);
      if (!status.is_ok()) {
        std::fprintf(stderr, "client decode: %s\n", status.to_string().c_str());
        return;
      }
      std::printf("client(v1): %s %s flight %d off at %llu\n", event.centerID,
                  event.airline, event.flightNum,
                  static_cast<unsigned long long>(event.off));
    }
  });

  auto channel = listener.accept().value();

  // --- Stream events, logging each to the PBIO file -------------------
  auto sink = xmit::storage::FileSink::create(log_path).value();
  for (int i = 0; i < 6; ++i) {
    ASDOffEventV2 event{};
    event.centerID = const_cast<char*>(kCenters[i % 3]);
    event.airline = const_cast<char*>(kAirlines[i % 4]);
    event.flightNum = 1700 + i;
    event.off = 946684800ull + static_cast<std::uint64_t>(i) * 90;
    event.gate = const_cast<char*>(kGates[i % 4]);
    auto bytes = server_token.encoder->encode_to_vector(&event).value();
    if (auto s = channel.send(bytes); !s.is_ok()) break;
    (void)sink.write_encoded(*server_token.format, bytes);
  }
  (void)sink.flush();
  channel.close();
  client.join();

  // --- Replay the log with a fresh registry ---------------------------
  xmit::pbio::FormatRegistry replay_registry;
  auto source =
      xmit::storage::FileSource::open(log_path, replay_registry).value();
  xmit::pbio::Decoder replay_decoder(replay_registry);
  xmit::Arena arena;
  int replayed = 0;
  for (;;) {
    auto record = source.next_record().value();
    if (!record.has_value()) break;
    auto info = replay_decoder.inspect(*record).value();
    ASDOffEventV2 event{};
    arena.reset();
    if (!replay_decoder.decode(*record, *info.sender_format, &event, arena)
             .is_ok())
      break;
    ++replayed;
    if (replayed == 1)
      std::printf("replay: first logged event gate=%s (v2 field preserved)\n",
                  event.gate);
  }
  std::printf("replayed %d events from %s (%zu format frame(s))\n", replayed,
              log_path.c_str(), source.formats_read());
  std::remove(log_path.c_str());
  return 0;
}
