// PBIO data files: self-describing, CRC-framed streams of format and
// record frames (storage/data_file.hpp).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "pbio/decode.hpp"
#include "pbio/encode.hpp"
#include "net/fetch.hpp"
#include "storage/data_file.hpp"

namespace xmit::pbio {
namespace {

using storage::FileSink;
using storage::FileSource;

struct Reading {
  std::int32_t sensor;
  double value;
};

struct Burst {
  std::int32_t n;
  float* samples;
};

class PbioFile : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "pbio_file_test_" +
            std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".pbio";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(PbioFile, WriteThenReadBack) {
  FormatRegistry writer_registry;
  auto format = writer_registry
                    .register_format("Reading",
                                     {{"sensor", "integer", 4, offsetof(Reading, sensor)},
                                      {"value", "float", 8, offsetof(Reading, value)}},
                                     sizeof(Reading))
                    .value();
  auto encoder = Encoder::make(format).value();
  {
    auto sink = FileSink::create(path_);
    ASSERT_TRUE(sink.is_ok()) << sink.status().to_string();
    for (int i = 0; i < 5; ++i) {
      Reading r{i, i * 1.5};
      ASSERT_TRUE(sink.value().write(encoder, &r).is_ok());
    }
    ASSERT_TRUE(sink.value().flush().is_ok());
  }

  // A fresh process: empty registry, everything reconstructed from the file.
  FormatRegistry reader_registry;
  auto source = FileSource::open(path_, reader_registry);
  ASSERT_TRUE(source.is_ok()) << source.status().to_string();
  Decoder decoder(reader_registry);
  Arena arena;
  int count = 0;
  for (;;) {
    auto record = source.value().next_record();
    ASSERT_TRUE(record.is_ok()) << record.status().to_string();
    if (!record.value().has_value()) break;
    auto info = decoder.inspect(*record.value()).value();
    EXPECT_EQ(info.sender_format->name(), "Reading");
    Reading out{};
    ASSERT_TRUE(
        decoder.decode(*record.value(), *info.sender_format, &out, arena)
            .is_ok());
    EXPECT_EQ(out.sensor, count);
    EXPECT_EQ(out.value, count * 1.5);
    ++count;
  }
  EXPECT_EQ(count, 5);
  EXPECT_EQ(source.value().formats_read(), 1u);  // format written once
  EXPECT_EQ(source.value().records_read(), 5u);
}

TEST_F(PbioFile, MultipleFormatsInterleaved) {
  FormatRegistry registry;
  auto reading = registry
                     .register_format("Reading",
                                      {{"sensor", "integer", 4, offsetof(Reading, sensor)},
                                       {"value", "float", 8, offsetof(Reading, value)}},
                                      sizeof(Reading))
                     .value();
  auto burst = registry
                   .register_format("Burst",
                                    {{"n", "integer", 4, offsetof(Burst, n)},
                                     {"samples", "float[n]", 4, offsetof(Burst, samples)}},
                                    sizeof(Burst))
                   .value();
  auto reading_encoder = Encoder::make(reading).value();
  auto burst_encoder = Encoder::make(burst).value();
  {
    auto sink = FileSink::create(path_).value();
    Reading r{1, 2.0};
    std::vector<float> samples = {1, 2, 3};
    Burst b{3, samples.data()};
    ASSERT_TRUE(sink.write(reading_encoder, &r).is_ok());
    ASSERT_TRUE(sink.write(burst_encoder, &b).is_ok());
    ASSERT_TRUE(sink.write(reading_encoder, &r).is_ok());
    ASSERT_TRUE(sink.flush().is_ok());
  }

  FormatRegistry reader_registry;
  auto source = FileSource::open(path_, reader_registry).value();
  std::vector<std::string> names;
  Decoder decoder(reader_registry);
  for (;;) {
    auto record = source.next_record().value();
    if (!record.has_value()) break;
    names.push_back(decoder.inspect(*record).value().sender_format->name());
  }
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "Reading");
  EXPECT_EQ(names[1], "Burst");
  EXPECT_EQ(names[2], "Reading");
  EXPECT_EQ(source.formats_read(), 2u);
}

TEST_F(PbioFile, OpenMissingFileFails) {
  FormatRegistry registry;
  EXPECT_FALSE(FileSource::open("/nonexistent/path.pbio", registry).is_ok());
}

TEST_F(PbioFile, GarbageFileIsRejected) {
  ASSERT_TRUE(net::write_file(path_, "this is not a pbio file at all").is_ok());
  FormatRegistry registry;
  auto source = FileSource::open(path_, registry);
  EXPECT_FALSE(source.is_ok());
}

TEST_F(PbioFile, TruncatedBlockIsDetected) {
  FormatRegistry registry;
  auto format = registry
                    .register_format("Reading",
                                     {{"sensor", "integer", 4, offsetof(Reading, sensor)},
                                      {"value", "float", 8, offsetof(Reading, value)}},
                                     sizeof(Reading))
                    .value();
  auto encoder = Encoder::make(format).value();
  {
    auto sink = FileSink::create(path_).value();
    Reading r{1, 1.0};
    ASSERT_TRUE(sink.write(encoder, &r).is_ok());
    ASSERT_TRUE(sink.flush().is_ok());
  }
  // Chop the tail off the file.
  auto contents = net::read_file(path_).value();
  ASSERT_TRUE(
      net::write_file(path_, contents.substr(0, contents.size() - 7)).is_ok());

  FormatRegistry reader_registry;
  auto source = FileSource::open(path_, reader_registry).value();
  auto record = source.next_record();
  EXPECT_FALSE(record.is_ok());
}

TEST_F(PbioFile, RecordOverFrameBudgetIsRefused) {
  FormatRegistry registry;
  auto format =
      registry
          .register_format("Burst",
                           {{"n", "integer", 4, offsetof(Burst, n)},
                            {"samples", "float[n]", 4, offsetof(Burst, samples)}},
                           sizeof(Burst))
          .value();
  auto encoder = Encoder::make(format).value();
  {
    auto sink = FileSink::create(path_).value();
    std::vector<float> samples(1024, 1.0f);  // a complete 4 KiB record
    Burst b{1024, samples.data()};
    ASSERT_TRUE(sink.write(encoder, &b).is_ok());
    ASSERT_TRUE(sink.flush().is_ok());
  }

  FormatRegistry reader_registry;
  auto source = FileSource::open(path_, reader_registry).value();
  DecodeLimits limits = DecodeLimits::defaults();
  limits.max_message_bytes = 1024;
  source.set_limits(limits);
  auto record = source.next_record();
  ASSERT_FALSE(record.is_ok());
  EXPECT_EQ(record.code(), ErrorCode::kResourceExhausted)
      << record.status().to_string();
}

TEST_F(PbioFile, FlippedPayloadByteFailsTheCrc) {
  FormatRegistry registry;
  auto format = registry
                    .register_format("Reading",
                                     {{"sensor", "integer", 4, offsetof(Reading, sensor)},
                                      {"value", "float", 8, offsetof(Reading, value)}},
                                     sizeof(Reading))
                    .value();
  auto encoder = Encoder::make(format).value();
  {
    auto sink = FileSink::create(path_).value();
    Reading r{7, 7.5};
    ASSERT_TRUE(sink.write(encoder, &r).is_ok());
    ASSERT_TRUE(sink.flush().is_ok());
  }
  // The record is the file's last frame; its last byte is payload.
  auto contents = net::read_file(path_).value();
  contents.back() ^= 0x01;
  ASSERT_TRUE(net::write_file(path_, contents).is_ok());

  FormatRegistry reader_registry;
  auto source = FileSource::open(path_, reader_registry).value();
  auto record = source.next_record();
  ASSERT_FALSE(record.is_ok());
  EXPECT_EQ(record.code(), ErrorCode::kMalformedInput)
      << record.status().to_string();
}

}  // namespace
}  // namespace xmit::pbio
