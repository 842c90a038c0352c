// Unit tests for the common substrate: hex, RNG, serialization, pool.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>

#include "common/bytes.hpp"
#include "common/hex.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"

namespace mc {
namespace {

TEST(Hex, RoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7e};
  const std::string hex = to_hex(BytesView(data));
  EXPECT_EQ(hex, "0001abff7e");
  const auto back = from_hex(hex);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

TEST(Hex, RejectsOddLengthAndBadChars) {
  EXPECT_FALSE(from_hex("abc").has_value());
  EXPECT_FALSE(from_hex("zz").has_value());
  EXPECT_TRUE(from_hex("").has_value());
}

// Characters adjacent to the accepted ASCII ranges must be rejected —
// an off-by-one in the nibble table would admit them silently.
TEST(Hex, RejectsRangeBoundaryNeighbours) {
  for (const char* bad : {"/0", ":0", "@0", "G0", "`0", "g0",
                          "0/", "0:", "0@", "0G", "0`", "0g"}) {
    EXPECT_FALSE(from_hex(bad).has_value()) << bad;
  }
  // Whitespace and embedded NUL are data errors, not separators.
  EXPECT_FALSE(from_hex(" 0").has_value());
  EXPECT_FALSE(from_hex("0 ").has_value());
  EXPECT_FALSE(from_hex(std::string_view("\0" "0", 2)).has_value());
  // High-bit bytes (e.g. UTF-8 continuation bytes) must not map.
  EXPECT_FALSE(from_hex("\xc3\xa9").has_value());
}

TEST(Hex, AllByteValuesRoundTrip) {
  Bytes all(256);
  for (std::size_t i = 0; i < all.size(); ++i)
    all[i] = static_cast<std::uint8_t>(i);
  const std::string hex = to_hex(BytesView(all));
  ASSERT_EQ(hex.size(), 512u);
  const auto back = from_hex(hex);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, all);
}

TEST(Hex, MixedCaseDecodesToSameBytes) {
  const auto lower = from_hex("deadbeef");
  const auto mixed = from_hex("DeAdBeEf");
  ASSERT_TRUE(lower.has_value());
  ASSERT_TRUE(mixed.has_value());
  EXPECT_EQ(*lower, *mixed);
}

TEST(Hex, UppercaseAccepted) {
  const auto decoded = from_hex("DEADBEEF");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(to_hex(BytesView(*decoded)), "deadbeef");
}

TEST(Fnv, DistinctInputsDistinctHashes) {
  EXPECT_NE(fnv1a("alpha"), fnv1a("beta"));
  EXPECT_EQ(fnv1a("alpha"), fnv1a("alpha"));
  EXPECT_NE(fnv1a(""), fnv1a("a"));
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i)
    if (a2.next() != c.next()) differs = true;
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1'000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values hit over 1000 draws
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(0.25);
  EXPECT_NEAR(sum / kN, 0.25, 0.01);
}

TEST(Rng, BernoulliRate) {
  Rng rng(17);
  int hits = 0;
  constexpr int kN = 20'000;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(19);
  const auto sample = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  const std::set<std::size_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (const auto i : uniq) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleClampsOverdraw) {
  Rng rng(21);
  EXPECT_EQ(rng.sample_without_replacement(5, 50).size(), 5u);
}

TEST(Rng, ForkIndependentStreams) {
  Rng base(3);
  Rng fork_a = base.fork("a");
  Rng fork_b = base.fork("b");
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (fork_a.next() == fork_b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Serial, IntegerRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.14159);
  ByteReader r(BytesView(w.data()));
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.done());
}

TEST(Serial, VarintBoundaries) {
  for (const std::uint64_t v :
       {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL, ~0ULL}) {
    ByteWriter w;
    w.varint(v);
    ByteReader r(BytesView(w.data()));
    EXPECT_EQ(r.varint(), v);
  }
}

TEST(Serial, VarintRejectsOverlongEncodings) {
  // 0x80 0x00 decodes to the same value as plain 0x00 under a permissive
  // reader; canonical decoding must reject the padded form so every value
  // has exactly one wire representation (one content id).
  for (const Bytes& evil :
       {Bytes{0x80, 0x00}, Bytes{0xff, 0x00}, Bytes{0x81, 0x80, 0x00}}) {
    ByteReader r{BytesView(evil)};
    EXPECT_THROW(r.varint(), SerialError) << "overlong varint accepted";
  }
  // A trailing zero continuation *payload* byte is only invalid as the
  // final byte; 0x80 0x01 (value 128) is canonical and must pass.
  Bytes ok{0x80, 0x01};
  ByteReader r{BytesView(ok)};
  EXPECT_EQ(r.varint(), 128u);
}

TEST(Serial, VarintRejectsOverflow) {
  // 10 continuation bytes push past 64 bits.
  Bytes evil(10, 0xff);
  evil.push_back(0x01);
  ByteReader r{BytesView(evil)};
  EXPECT_THROW(r.varint(), SerialError);
  // 2^64 - 1 is the largest encodable value: 9 x 0xff then 0x01.
  Bytes max(9, 0xff);
  max.push_back(0x01);
  ByteReader ok{BytesView(max)};
  EXPECT_EQ(ok.varint(), ~0ULL);
  // Same length but a payload bit above 2^64: rejected.
  Bytes over(9, 0xff);
  over.push_back(0x02);
  ByteReader bad{BytesView(over)};
  EXPECT_THROW(bad.varint(), SerialError);
}

TEST(Serial, HashAndSizeWritersMirrorByteWriter) {
  // Write the same mixed sequence through all four writers: the streamed
  // digest, the counted size and the FNV fingerprint must all agree with
  // the materialized buffer.
  const auto script = [](auto& w) {
    w.u8(7);
    w.u16(0xbeef);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefULL);
    w.i64(-42);
    w.f64(2.71828);
    w.varint(0);
    w.varint(300);
    w.varint(~0ULL);
    w.bytes(Bytes{9, 8, 7});
    w.str("writers agree");
    w.hash(Hash256{});
  };
  ByteWriter bw;
  script(bw);
  HashWriter hw;
  script(hw);
  SizeWriter sw;
  script(sw);
  FnvWriter fw;
  script(fw);
  EXPECT_EQ(hw.digest(), crypto::sha256(BytesView(bw.data())));
  EXPECT_EQ(sw.size(), bw.size());
  EXPECT_EQ(fw.value(), fnv1a(BytesView(bw.data())));
}

TEST(Serial, BytesAndStrings) {
  ByteWriter w;
  w.str("hello medchain");
  w.bytes(Bytes{1, 2, 3});
  ByteReader r(BytesView(w.data()));
  EXPECT_EQ(r.str(), "hello medchain");
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
}

TEST(Serial, TruncationThrows) {
  ByteWriter w;
  w.u32(5);
  ByteReader r(BytesView(w.data()));
  r.u16();
  EXPECT_THROW(r.u32(), SerialError);
}

TEST(Serial, OversizedLengthThrows) {
  Bytes evil;
  evil.push_back(0xff);  // varint says a huge length follows
  evil.push_back(0xff);
  evil.push_back(0x03);
  ByteReader r{BytesView(evil)};
  EXPECT_THROW(r.bytes(), SerialError);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i)
    futures.push_back(pool.submit([&counter] { ++counter; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(64, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Table, AlignsAndPrints) {
  Table table({"name", "value"});
  table.row().cell("alpha").cell(3.14159, 3);
  table.row().cell("b").cell(std::uint64_t{42});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("3.142"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(Hash256, PrefixAndZero) {
  Hash256 zero{};
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero.prefix_u64(), 0u);
  Hash256 h{};
  h.data[0] = 0x01;
  EXPECT_FALSE(h.is_zero());
  EXPECT_EQ(h.prefix_u64(), 0x0100000000000000ULL);
}

}  // namespace
}  // namespace mc
