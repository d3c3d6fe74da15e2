// Steady-state allocation tests: after warm-up, a MessageSession
// round-trip (encode -> gather send -> framed receive -> compiled decode)
// of a record touches the heap zero times. Global operator new/delete are
// replaced with counting shims; counting is switched on only inside the
// measured window so the test harness's own allocations don't register.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/arena.hpp"
#include "pbio/encode.hpp"
#include "pbio/registry.hpp"
#include "session/session.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<bool> g_counting{false};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace {

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t a = static_cast<std::size_t>(align);
  std::size_t rounded = (size + a - 1) / a * a;  // aligned_alloc contract
  void* p = std::aligned_alloc(a, rounded ? rounded : a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace xmit {
namespace {

using pbio::Encoder;
using pbio::FormatRegistry;
using pbio::IOField;
using session::MessageSession;
using session::make_session_pipe;

// Flat (contiguous) record: the acceptance-criterion case.
struct Flat {
  std::int32_t a;
  float b;
  std::int32_t c;
  std::int32_t d;
};

std::vector<IOField> flat_fields() {
  return {
      {"a", "integer", 4, offsetof(Flat, a)},
      {"b", "float", 4, offsetof(Flat, b)},
      {"c", "integer", 4, offsetof(Flat, c)},
      {"d", "integer", 4, offsetof(Flat, d)},
  };
}

TEST(ZeroAlloc, FlatRecordRoundTripAllocatesNothingAfterWarmup) {
  FormatRegistry reg_a;
  FormatRegistry reg_b;
  auto pair = make_session_pipe(reg_a, reg_b).value();
  auto format_a =
      reg_a.register_format("Flat", flat_fields(), sizeof(Flat)).value();
  auto receiver =
      reg_b.register_format("Flat", flat_fields(), sizeof(Flat)).value();
  auto encoder = Encoder::make(format_a).value();

  Arena arena;
  pbio::Decoder decoder(reg_b);
  Flat record{1, 2.5f, 3, 4};
  Flat out{};

  auto round_trip = [&]() -> bool {
    record.a += 1;
    if (!pair.a.send(encoder, &record).is_ok()) return false;
    auto incoming = pair.b.receive_view(1000);
    if (!incoming.is_ok()) return false;
    arena.rewind();
    if (!decoder
             .decode(incoming.value().bytes, *receiver, &out, arena)
             .is_ok())
      return false;
    return out.a == record.a && out.b == record.b && out.d == record.d;
  };

  // Warm-up: announcement, frame buffers, plan cache, slice capacity.
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(round_trip()) << "warmup " << i;

  g_allocations.store(0);
  g_counting.store(true);
  bool all_ok = true;
  for (int i = 0; i < 100; ++i) all_ok = round_trip() && all_ok;
  g_counting.store(false);

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "steady-state flat round-trip touched the heap";
}

// Read-ahead: a burst of records lands in the channel's read buffer in one
// recv and is cut from it frame by frame — still no heap traffic.
TEST(ZeroAlloc, PlainSessionBurstAllocatesNothingAfterWarmup) {
  FormatRegistry reg_a;
  FormatRegistry reg_b;
  auto pair = make_session_pipe(reg_a, reg_b).value();
  auto format_a =
      reg_a.register_format("Flat", flat_fields(), sizeof(Flat)).value();
  auto receiver =
      reg_b.register_format("Flat", flat_fields(), sizeof(Flat)).value();
  auto encoder = Encoder::make(format_a).value();
  Arena arena;
  pbio::Decoder decoder(reg_b);
  Flat record{0, 0.5f, 0, 0};

  auto burst = [&]() -> bool {
    const std::int32_t first = record.a + 1;
    for (int i = 0; i < 8; ++i) {
      record.a += 1;
      if (!pair.a.send(encoder, &record).is_ok()) return false;
    }
    for (std::int32_t want = first; want <= record.a; ++want) {
      auto incoming = pair.b.receive_view(1000);
      if (!incoming.is_ok()) return false;
      Flat out{};
      arena.rewind();
      if (!decoder.decode(incoming.value().bytes, *receiver, &out, arena)
               .is_ok() ||
          out.a != want)
        return false;
    }
    return true;
  };

  for (int i = 0; i < 10; ++i) ASSERT_TRUE(burst()) << "warmup " << i;

  g_allocations.store(0);
  g_counting.store(true);
  bool all_ok = true;
  for (int i = 0; i < 50; ++i) all_ok = burst() && all_ok;
  g_counting.store(false);

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(g_allocations.load(), 0u) << "steady-state burst touched the heap";
}

// A flow-controlled session pulls inbound frames on every receive and on
// every send (acks and credit ride back unannounced). When nothing is
// waiting, that pull must not touch the heap: no buffer to fill, and no
// message for the would-block outcome.
TEST(ZeroAlloc, FlowControlledIdlePullAllocatesNothing) {
  FormatRegistry reg_a;
  FormatRegistry reg_b;
  session::SessionOptions options;
  options.flow_control = true;
  auto pair = make_session_pipe(reg_a, reg_b, options).value();
  auto format_a =
      reg_a.register_format("Flat", flat_fields(), sizeof(Flat)).value();
  auto encoder = Encoder::make(format_a).value();
  Flat record{0, 0.5f, 0, 0};

  // Warm-up: seed credit both ways, announce, move a few records.
  for (MessageSession* end : {&pair.b, &pair.a})
    ASSERT_EQ(end->receive_view(0).code(), ErrorCode::kTimeout);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pair.a.send(encoder, &record).is_ok());
    ASSERT_TRUE(pair.b.receive_view(1000).is_ok());
  }
  (void)pair.a.receive_view(0);  // absorb the grants sent so far

  g_allocations.store(0);
  g_counting.store(true);
  bool all_idle = true;
  for (int i = 0; i < 100; ++i) {
    all_idle = pair.a.receive_view(0).code() == ErrorCode::kTimeout &&
               pair.b.receive_view(0).code() == ErrorCode::kTimeout &&
               all_idle;
  }
  g_counting.store(false);
  EXPECT_TRUE(all_idle);
  EXPECT_EQ(g_allocations.load(), 0u) << "an idle receive touched the heap";

  // A send copies its record into the send queue (one buffer, plus the
  // queue's occasional node); the inbound pull it runs first adds nothing.
  // It used to add two messages per send for "nothing to receive yet".
  constexpr std::uint64_t kSends = 64;
  std::uint64_t send_allocs = 0;
  for (std::uint64_t i = 0; i < kSends; ++i) {
    record.a += 1;
    g_allocations.store(0);
    g_counting.store(true);
    const bool sent = pair.a.send(encoder, &record).is_ok();
    g_counting.store(false);
    send_allocs += g_allocations.load();
    ASSERT_TRUE(sent);
    ASSERT_TRUE(pair.b.receive_view(1000).is_ok());
  }
  EXPECT_LE(send_allocs, kSends + kSends / 4);
}

// Var-bearing record: payload slices ship from caller memory, the decode
// arena is rewound (capacity retained) between records.
struct WithArray {
  std::int32_t timestep;
  std::int32_t size;
  float* data;
};

TEST(ZeroAlloc, DynamicArrayRoundTripAllocatesNothingAfterWarmup) {
  FormatRegistry reg_a;
  FormatRegistry reg_b;
  auto pair = make_session_pipe(reg_a, reg_b).value();
  std::vector<IOField> fields = {
      {"timestep", "integer", 4, offsetof(WithArray, timestep)},
      {"size", "integer", 4, offsetof(WithArray, size)},
      {"data", "float[size]", 4, offsetof(WithArray, data)},
  };
  auto format_a =
      reg_a.register_format("WithArray", fields, sizeof(WithArray)).value();
  auto receiver =
      reg_b.register_format("WithArray", fields, sizeof(WithArray)).value();
  auto encoder = Encoder::make(format_a).value();

  std::vector<float> payload(256);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<float>(i) * 0.5f;
  WithArray record{0, static_cast<std::int32_t>(payload.size()),
                   payload.data()};
  WithArray out{};
  Arena arena;
  pbio::Decoder decoder(reg_b);

  auto round_trip = [&]() -> bool {
    record.timestep += 1;
    if (!pair.a.send(encoder, &record).is_ok()) return false;
    auto incoming = pair.b.receive_view(1000);
    if (!incoming.is_ok()) return false;
    arena.rewind();
    if (!decoder
             .decode(incoming.value().bytes, *receiver, &out, arena)
             .is_ok())
      return false;
    return out.timestep == record.timestep && out.size == record.size &&
           out.data[255] == payload[255];
  };

  for (int i = 0; i < 10; ++i) ASSERT_TRUE(round_trip()) << "warmup " << i;

  g_allocations.store(0);
  g_counting.store(true);
  bool all_ok = true;
  for (int i = 0; i < 100; ++i) all_ok = round_trip() && all_ok;
  g_counting.store(false);

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "steady-state array round-trip touched the heap";
}

// Arena::rewind keeps capacity and collapses multi-chunk arenas.
TEST(ZeroAlloc, ArenaRewindRetainsCapacity) {
  Arena arena(64);  // small chunks force multi-chunk growth
  for (int i = 0; i < 10; ++i) arena.allocate(100);
  arena.rewind();  // collapses to one chunk
  std::size_t capacity = arena.bytes_in_use();
  EXPECT_GT(capacity, 0u);

  g_allocations.store(0);
  g_counting.store(true);
  for (int round = 0; round < 50; ++round) {
    arena.rewind();
    for (int i = 0; i < 10; ++i) arena.allocate(100);
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u);
  EXPECT_EQ(arena.bytes_in_use(), capacity);
}

}  // namespace
}  // namespace xmit
