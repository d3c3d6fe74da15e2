// Smoke tests for the command-line tools: run the built binaries against
// real inputs and check their exit codes and key output lines.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "net/fetch.hpp"
#include "pbio/encode.hpp"
#include "pbio/registry.hpp"
#include "session/session.hpp"
#include "storage/data_file.hpp"
#include "storage/log.hpp"

namespace xmit {
namespace {

#if defined(XMIT_BINARY_DIR)

std::string tool(const char* name) {
  return std::string(XMIT_BINARY_DIR) + "/tools/" + name;
}

// Runs a command, captures stdout, returns exit status.
int run(const std::string& command, std::string* output) {
  std::string full = command + " 2>&1";
  FILE* pipe = ::popen(full.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buffer[512];
  output->clear();
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) *output += buffer;
  int status = ::pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

class Tools : public ::testing::Test {
 protected:
  std::string temp(const std::string& name) {
    return ::testing::TempDir() + "tools_test_" + name;
  }
};

TEST_F(Tools, InspectDumpsPbioFile) {
  struct Reading {
    std::int32_t id;
    double value;
    char* site;
  };
  std::string path = temp("readings.pbio");
  {
    pbio::FormatRegistry registry;
    auto format =
        registry
            .register_format("Reading",
                             {{"id", "integer", 4, offsetof(Reading, id)},
                              {"value", "float", 8, offsetof(Reading, value)},
                              {"site", "string", sizeof(char*),
                               offsetof(Reading, site)}},
                             sizeof(Reading))
            .value();
    auto encoder = pbio::Encoder::make(format).value();
    auto sink = storage::FileSink::create(path).value();
    char site[] = "gauge-7";
    Reading r{12, 3.5, site};
    ASSERT_TRUE(sink.write(encoder, &r).is_ok());
    ASSERT_TRUE(sink.flush().is_ok());
  }

  std::string output;
  int status = run(tool("xmit_inspect") + " " + path, &output);
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("format \"Reading\""), std::string::npos) << output;
  EXPECT_NE(output.find("id                   = 12"), std::string::npos);
  EXPECT_NE(output.find("\"gauge-7\""), std::string::npos);

  status = run(tool("xmit_inspect") + " --xml " + path, &output);
  EXPECT_EQ(status, 0);
  EXPECT_NE(output.find("<Reading><id>12</id>"), std::string::npos) << output;

  // --plan renders the compiled decode plan and the op mix, naming the
  // kernel backend that would execute it.
  status = run(tool("xmit_inspect") + " --plan " + path, &output);
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("decode plan -> host ("), std::string::npos)
      << output;
  EXPECT_NE(output.find("op mix:"), std::string::npos) << output;
  EXPECT_NE(output.find("fused"), std::string::npos) << output;

  std::remove(path.c_str());
}

TEST_F(Tools, InspectConnectsToLiveSession) {
  struct Reading {
    std::int32_t id;
    double value;
  };
  auto listener = net::ChannelListener::listen().value();
  const std::uint16_t port = listener.port();

  // Server thread: accept the tool's dial, speak PBIO session frames at
  // it (in-band announcement + three records), then close.
  std::thread server([&] {
    auto accepted = listener.accept(10000);
    if (!accepted.is_ok()) return;
    pbio::FormatRegistry registry;
    session::MessageSession sender(std::move(accepted).value(), registry);
    auto format =
        registry
            .register_format("Reading",
                             {{"id", "integer", 4, offsetof(Reading, id)},
                              {"value", "float", 8, offsetof(Reading, value)}},
                             sizeof(Reading))
            .value();
    auto encoder = pbio::Encoder::make(format).value();
    for (std::int32_t i = 0; i < 3; ++i) {
      Reading r{i, i * 1.5};
      if (!sender.send(encoder, &r).is_ok()) return;
    }
    sender.close();
  });

  std::string output;
  int status = run(tool("xmit_inspect") + " --connect 127.0.0.1:" +
                       std::to_string(port) + " --count 3 --timeout-ms 10000",
                   &output);
  server.join();
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("format \"Reading\""), std::string::npos) << output;
  EXPECT_NE(output.find("record 2: Reading"), std::string::npos) << output;
  EXPECT_NE(output.find("session: 3 record(s) received, 1 announcement(s), "
                        "0 reconnect(s)"),
            std::string::npos)
      << output;

  std::string bad;
  EXPECT_EQ(run(tool("xmit_inspect") + " --connect nonsense", &bad), 2);
}

TEST_F(Tools, InspectVerifiesDurableLogDirectory) {
  const std::string dir = temp("durable_log");
  {
    auto log = storage::RecordLog::open(dir, storage::LogOptions{},
                                        DecodeLimits::defaults());
    ASSERT_TRUE(log.is_ok()) << log.status().to_string();
    for (std::uint64_t seq = 1; seq <= 9; ++seq) {
      std::uint8_t payload[24];
      for (std::size_t i = 0; i < sizeof payload; ++i)
        payload[i] = static_cast<std::uint8_t>(seq * 7 + i);
      ASSERT_TRUE(log.value()
                      .append(seq, seq % 2 + 1,
                              std::span<const std::uint8_t>(payload,
                                                            8 + seq))
                      .is_ok());
    }
  }
  const std::string segment = dir + "/seg-0000000000000001.log";

  // Intact directory: clean scan, exit 0.
  std::string output;
  EXPECT_EQ(run(tool("xmit_inspect") + " --log " + dir, &output), 0)
      << output;
  EXPECT_NE(output.find("9 frame(s), seq [1, 9]"), std::string::npos)
      << output;
  EXPECT_NE(output.find("stop=clean"), std::string::npos) << output;
  EXPECT_NE(output.find("log: 1 segment(s), 9 frame(s)"), std::string::npos)
      << output;

  // Torn tail (crash artifact): diagnosed, but still exit 0 — and the
  // directory is left untouched for the owning process to heal.
  struct ::stat before {};
  ASSERT_EQ(::stat(segment.c_str(), &before), 0);
  ASSERT_EQ(::truncate(segment.c_str(), before.st_size - 5), 0);
  EXPECT_EQ(run(tool("xmit_inspect") + " --log " + dir, &output), 0)
      << output;
  EXPECT_NE(output.find("stop=torn-tail"), std::string::npos) << output;
  // Frame 9 is 28 + 17 = 45 bytes; cutting 5 leaves 40 torn bytes (the
  // partial frame), all diagnosed as tail.
  EXPECT_NE(output.find("torn tail: 40 byte(s)"), std::string::npos)
      << output;
  EXPECT_NE(output.find("8 frame(s), seq [1, 8]"), std::string::npos)
      << output;
  struct ::stat after {};
  ASSERT_EQ(::stat(segment.c_str(), &after), 0);
  EXPECT_EQ(after.st_size, before.st_size - 5);  // read-only verification

  // Bit rot inside an interior frame: corruption, exit 1.
  {
    std::FILE* file = std::fopen(segment.c_str(), "r+b");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fseek(file, 24 + 28 + 3, SEEK_SET), 0);
    std::fputc(0xA5, file);
    std::fclose(file);
  }
  EXPECT_EQ(run(tool("xmit_inspect") + " --log " + dir, &output), 1)
      << output;
  EXPECT_NE(output.find("stop=corrupt"), std::string::npos) << output;
  EXPECT_NE(output.find("CRC mismatch"), std::string::npos) << output;

  std::string cleanup = "rm -rf '" + dir + "'";
  ASSERT_EQ(std::system(cleanup.c_str()), 0);
}

TEST_F(Tools, InspectRejectsGarbage) {
  std::string path = temp("garbage.bin");
  ASSERT_TRUE(net::write_file(path, "not a pbio file").is_ok());
  std::string output;
  EXPECT_NE(run(tool("xmit_inspect") + " " + path, &output), 0);
  std::remove(path.c_str());
  EXPECT_NE(run(tool("xmit_inspect") + " /nonexistent.pbio", &output), 0);
  EXPECT_EQ(run(tool("xmit_inspect"), &output), 2);  // usage
}

TEST_F(Tools, ValidateAcceptsAndRejects) {
  std::string schema_path = temp("schema.xsd");
  std::string good_path = temp("good.xml");
  std::string bad_path = temp("bad.xml");
  ASSERT_TRUE(net::write_file(schema_path, R"(
    <xsd:complexType name="Point">
      <xsd:element name="x" type="xsd:float" />
      <xsd:element name="y" type="xsd:float" />
    </xsd:complexType>)").is_ok());
  ASSERT_TRUE(net::write_file(good_path, "<p><x>1.5</x><y>2</y></p>").is_ok());
  ASSERT_TRUE(net::write_file(bad_path, "<p><x>oops</x><y>2</y></p>").is_ok());

  std::string output;
  EXPECT_EQ(run(tool("xmit_validate") + " " + schema_path + " " + good_path,
                &output),
            0);
  EXPECT_NE(output.find("matches: Point"), std::string::npos) << output;

  EXPECT_EQ(run(tool("xmit_validate") + " " + schema_path + " " + good_path +
                    " Point",
                &output),
            0);
  EXPECT_NE(output.find("VALID against Point"), std::string::npos);

  EXPECT_NE(run(tool("xmit_validate") + " " + schema_path + " " + bad_path +
                    " Point",
                &output),
            0);
  EXPECT_NE(output.find("INVALID"), std::string::npos);

  std::remove(schema_path.c_str());
  std::remove(good_path.c_str());
  std::remove(bad_path.c_str());
}

TEST_F(Tools, DiffReportsEvolution) {
  std::string v1 = temp("v1.xsd");
  std::string v2 = temp("v2.xsd");
  std::string v3 = temp("v3.xsd");
  ASSERT_TRUE(net::write_file(v1, R"(
    <xsd:complexType name="Msg">
      <xsd:element name="a" type="xsd:integer" />
    </xsd:complexType>)").is_ok());
  ASSERT_TRUE(net::write_file(v2, R"(
    <xsd:complexType name="Msg">
      <xsd:element name="a" type="xsd:integer" />
      <xsd:element name="b" type="xsd:double" />
    </xsd:complexType>)").is_ok());
  ASSERT_TRUE(net::write_file(v3, R"(
    <xsd:complexType name="Msg">
      <xsd:element name="a" type="xsd:string" />
    </xsd:complexType>)").is_ok());

  std::string output;
  // v1 -> v2: field added, convertible, exit 0.
  EXPECT_EQ(run(tool("xmit_diff") + " " + v1 + " " + v2, &output), 0);
  EXPECT_NE(output.find("added  b"), std::string::npos) << output;
  EXPECT_NE(output.find("convertible"), std::string::npos);

  // v1 -> v3: int -> string shape change, exit 1.
  EXPECT_EQ(run(tool("xmit_diff") + " " + v1 + " " + v3, &output), 1);
  EXPECT_NE(output.find("shape-changed"), std::string::npos) << output;

  std::remove(v1.c_str());
  std::remove(v2.c_str());
  std::remove(v3.c_str());
}

#if defined(XMIT_SOURCE_DIR)

std::string source_path(const char* relative) {
  return std::string(XMIT_SOURCE_DIR) + "/" + relative;
}

TEST_F(Tools, LintPassesExampleSchemas) {
  // Acceptance: known padding holes in the hydrology types are warnings,
  // and warnings never fail a lint — with or without --deny (--deny only
  // turns *error* findings from exit 1 into the distinct exit 4).
  std::string output;
  std::string schemas = source_path("examples/schemas/hydrology.xsd") + " " +
                        source_path("examples/schemas/flight_v1.xsd") + " " +
                        source_path("examples/schemas/flight_v2.xsd");
  EXPECT_EQ(run(tool("xmit_lint") + " " + schemas, &output), 0) << output;
  EXPECT_NE(output.find("0 error(s)"), std::string::npos) << output;

  EXPECT_EQ(run(tool("xmit_lint") + " --deny " + schemas, &output), 0)
      << output;
}

// Every documented exit path, one probe each: 0 clean, 1 error findings,
// 2 usage, 3 unreadable input, 4 error findings under --deny.
TEST_F(Tools, LintExitCodesAreDistinct) {
  std::string output;
  const std::string clean = source_path("examples/schemas/flight_v1.xsd");
  const std::string broken =
      source_path("tests/lint_corpus/dangling_dimension.xsd");
  EXPECT_EQ(run(tool("xmit_lint") + " " + clean, &output), 0) << output;
  EXPECT_EQ(run(tool("xmit_lint") + " " + broken, &output), 1) << output;
  EXPECT_EQ(run(tool("xmit_lint") + " --no-such-flag", &output), 2) << output;
  EXPECT_EQ(run(tool("xmit_lint") + " /definitely/not/there.xsd", &output), 3)
      << output;
  EXPECT_EQ(run(tool("xmit_lint") + " --deny " + broken, &output), 4)
      << output;
  // Unparseable XML is an input failure (3), not a finding.
  std::string garbage = temp("garbage.xsd");
  ASSERT_TRUE(net::write_file(garbage, "<xsd:schema").is_ok());
  EXPECT_EQ(run(tool("xmit_lint") + " " + garbage, &output), 3) << output;
  std::remove(garbage.c_str());
}

TEST_F(Tools, LintEmitsJson) {
  std::string output;
  EXPECT_EQ(run(tool("xmit_lint") + " --format=json " +
                    source_path("tests/lint_corpus/narrow_count.xsd"),
                &output),
            0)
      << output;
  EXPECT_NE(output.find("\"tool\":\"xmit_lint\""), std::string::npos);
  EXPECT_NE(output.find("\"code\":\"XL005\""), std::string::npos) << output;
  EXPECT_NE(output.find("\"severity\":\"warning\""), std::string::npos);
  EXPECT_NE(output.find("\"hint\":\""), std::string::npos);
}

TEST_F(Tools, LintDirAnalyzesSetWithCache) {
  // --dir over the examples: exits clean under --deny --matrix (zero
  // false matrix rejections), reports set-wide notes, and a second run
  // against the same cache is all hits.
  std::string cache = temp("lint_cache");
  std::string output;
  const std::string cmd = tool("xmit_lint") + " --dir " +
                          source_path("examples/schemas") + " --deny" +
                          " --matrix --jobs 2 --cache " + cache;
  EXPECT_EQ(run(cmd, &output), 0) << output;
  EXPECT_NE(output.find("XS006"), std::string::npos) << output;
  EXPECT_NE(output.find("XS007"), std::string::npos) << output;
  EXPECT_NE(output.find("0 rejected"), std::string::npos) << output;
  EXPECT_NE(output.find("0 hit(s)"), std::string::npos) << output;

  EXPECT_EQ(run(cmd, &output), 0) << output;
  EXPECT_NE(output.find("0 miss(es)"), std::string::npos) << output;

  EXPECT_EQ(run(cmd + " --format=json", &output), 0) << output;
  EXPECT_NE(output.find("\"pairs_rejected\":0"), std::string::npos) << output;
  std::string rm = "rm -rf " + cache;
  std::system(rm.c_str());
}

TEST_F(Tools, GenCorpusFeedsLintDir) {
  // Generated defect corpus must fail set lint with the expected XS
  // codes; --disable flips the checks off again.
  std::string dir = temp("gen_corpus");
  std::string output;
  ASSERT_EQ(run(tool("xmit_gen_corpus") + " --out " + dir +
                    " --families 14 --versions 4 --defect-every 1",
                &output),
            0)
      << output;
  EXPECT_NE(output.find("XS001: 2"), std::string::npos) << output;

  EXPECT_EQ(run(tool("xmit_lint") + " --dir " + dir + " --matrix --deny",
                &output),
            4)
      << output;
  for (const char* code :
       {"XS001", "XS003", "XS004", "XS005", "XS008", "XL003", "XL011"})
    EXPECT_NE(output.find(code), std::string::npos) << code << "\n" << output;

  EXPECT_EQ(run(tool("xmit_lint") + " --dir " + dir + " --matrix --deny" +
                    " --disable XS000,XS001,XS003,XS005,XS008,XL003,XL011," +
                    "XL012",
                &output),
            0)
      << output;
  std::string rm = "rm -rf " + dir;
  std::system(rm.c_str());
}

TEST_F(Tools, LintFlagsCorpusSchemasWithStableCodes) {
  std::string output;
  EXPECT_EQ(run(tool("xmit_lint") + " " +
                    source_path("tests/lint_corpus/dangling_dimension.xsd"),
                &output),
            1);
  EXPECT_NE(output.find("XL003"), std::string::npos) << output;

  EXPECT_EQ(run(tool("xmit_lint") + " " +
                    source_path("tests/lint_corpus/swap_hotspot.xsd"),
                &output),
            0);
  EXPECT_NE(output.find("XL007"), std::string::npos) << output;
}

TEST_F(Tools, LintVerifiesCrossEndianPlans) {
  std::string output;
  EXPECT_EQ(run(tool("xmit_lint") + " --verify-plans --arch big64 " +
                    source_path("examples/schemas/hydrology.xsd"),
                &output),
            0)
      << output;
  EXPECT_NE(output.find("0 error(s)"), std::string::npos) << output;
}

TEST_F(Tools, LintChecksEvolutionPairs) {
  std::string output;
  EXPECT_EQ(run(tool("xmit_lint") + " --evolve " +
                    source_path("examples/schemas/flight_v1.xsd") + " " +
                    source_path("examples/schemas/flight_v2.xsd"),
                &output),
            0)
      << output;

  EXPECT_EQ(run(tool("xmit_lint") + " --evolve " +
                    source_path("tests/lint_corpus/evolution_old.xsd") + " " +
                    source_path("tests/lint_corpus/evolution_new.xsd"),
                &output),
            1);
  EXPECT_NE(output.find("XL011"), std::string::npos) << output;

  EXPECT_EQ(run(tool("xmit_lint"), &output), 2);  // usage
}

TEST_F(Tools, ValidateLintsSchemas) {
  std::string good = temp("lint_good.xml");
  ASSERT_TRUE(net::write_file(good, "<t><count>1</count></t>").is_ok());
  std::string output;
  EXPECT_EQ(run(tool("xmit_validate") + " --lint " +
                    source_path("tests/lint_corpus/dangling_dimension.xsd") +
                    " " + good,
                &output),
            1);
  EXPECT_NE(output.find("XL003"), std::string::npos) << output;
  std::remove(good.c_str());
}

#endif  // XMIT_SOURCE_DIR

#endif  // XMIT_BINARY_DIR

}  // namespace
}  // namespace xmit
