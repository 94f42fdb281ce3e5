// Unit tests for src/common: Status, Slice, order-preserving encoding, the
// CRC32C every durable artifact is framed with, and the random
// distributions the workloads depend on.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/crc32c.h"
#include "src/common/encoding.h"
#include "src/common/random.h"
#include "src/common/slice.h"
#include "src/common/status.h"

namespace ssidb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_FALSE(s.IsAbort());
  EXPECT_EQ(s.code(), Status::Code::kOk);
}

TEST(StatusTest, FactoryCodesRoundTrip) {
  EXPECT_TRUE(Status::NotFound().IsNotFound());
  EXPECT_TRUE(Status::DuplicateKey().IsDuplicateKey());
  EXPECT_TRUE(Status::Deadlock().IsDeadlock());
  EXPECT_TRUE(Status::UpdateConflict().IsUpdateConflict());
  EXPECT_TRUE(Status::Unsafe().IsUnsafe());
  EXPECT_TRUE(Status::TxnInvalid().IsTxnInvalid());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::TimedOut().IsTimedOut());
}

TEST(StatusTest, AbortClassMatchesPaperErrorTaxonomy) {
  // §6.1.1: deadlocks, FCW conflicts and unsafe errors abort and retry.
  EXPECT_TRUE(Status::Deadlock().IsAbort());
  EXPECT_TRUE(Status::UpdateConflict().IsAbort());
  EXPECT_TRUE(Status::Unsafe().IsAbort());
  EXPECT_TRUE(Status::TimedOut().IsAbort());
  // Application-level outcomes do not.
  EXPECT_FALSE(Status::NotFound().IsAbort());
  EXPECT_FALSE(Status::DuplicateKey().IsAbort());
  EXPECT_FALSE(Status::InvalidArgument().IsAbort());
  EXPECT_FALSE(Status::OK().IsAbort());
}

TEST(StatusTest, ToStringContainsCodeAndMessage) {
  const Status s = Status::Unsafe("pivot detected");
  EXPECT_NE(s.ToString().find("unsafe"), std::string::npos);
  EXPECT_NE(s.ToString().find("pivot detected"), std::string::npos);
}

TEST(StatusTest, EqualityComparesCodesOnly) {
  EXPECT_EQ(Status::Deadlock("a"), Status::Deadlock("b"));
  EXPECT_FALSE(Status::Deadlock() == Status::Unsafe());
}

TEST(SliceTest, BasicAccessors) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s[1], 'e');
  EXPECT_EQ(s.ToString(), "hello");
  EXPECT_TRUE(Slice().empty());
}

TEST(SliceTest, ComparisonIsBytewiseWithLengthTiebreak) {
  EXPECT_TRUE(Slice("a") < Slice("b"));
  EXPECT_TRUE(Slice("a") < Slice("aa"));
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("x") == Slice(std::string("x")));
  EXPECT_TRUE(Slice("x") != Slice("y"));
}

TEST(SliceTest, EmbeddedNulBytesCompare) {
  const std::string a("a\0b", 3);
  const std::string b("a\0c", 3);
  EXPECT_TRUE(Slice(a) < Slice(b));
  EXPECT_EQ(Slice(a).size(), 3u);
}

TEST(EncodingTest, Big32RoundTrip) {
  for (uint32_t v : {0u, 1u, 255u, 256u, 65535u, 1u << 31, UINT32_MAX}) {
    std::string s;
    PutBig32(&s, v);
    ASSERT_EQ(s.size(), 4u);
    size_t off = 0;
    uint32_t out = 0;
    ASSERT_TRUE(GetBig32(s, &off, &out));
    EXPECT_EQ(out, v);
    EXPECT_EQ(off, 4u);
  }
}

TEST(EncodingTest, Big64RoundTrip) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{1} << 40,
                     uint64_t{UINT64_MAX}}) {
    std::string s;
    PutBig64(&s, v);
    size_t off = 0;
    uint64_t out = 0;
    ASSERT_TRUE(GetBig64(s, &off, &out));
    EXPECT_EQ(out, v);
  }
}

TEST(EncodingTest, BigEndianPreservesOrder) {
  // The property next-key locking depends on (§2.5.2): byte order of the
  // encoded keys equals numeric order.
  std::vector<uint64_t> values = {0, 1, 2, 255, 256, 1000, 1u << 20,
                                  uint64_t{1} << 40, UINT64_MAX};
  for (size_t i = 0; i + 1 < values.size(); ++i) {
    EXPECT_LT(EncodeU64Key(values[i]), EncodeU64Key(values[i + 1]))
        << values[i] << " vs " << values[i + 1];
  }
}

TEST(EncodingTest, DecodeU64KeyInvertsEncode) {
  for (uint64_t v : {uint64_t{0}, uint64_t{42}, UINT64_MAX}) {
    EXPECT_EQ(DecodeU64Key(EncodeU64Key(v)), v);
  }
}

TEST(EncodingTest, I64RoundTripIncludingNegatives) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{123456789},
                    int64_t{-987654321}, INT64_MIN, INT64_MAX}) {
    std::string s;
    PutI64(&s, v);
    size_t off = 0;
    int64_t out = 0;
    ASSERT_TRUE(GetI64(s, &off, &out));
    EXPECT_EQ(out, v);
  }
}

TEST(EncodingTest, LengthPrefixedRoundTrip) {
  std::string s;
  PutLengthPrefixed(&s, "hello");
  PutLengthPrefixed(&s, "");
  PutLengthPrefixed(&s, std::string("a\0b", 3));
  size_t off = 0;
  std::string out;
  ASSERT_TRUE(GetLengthPrefixed(s, &off, &out));
  EXPECT_EQ(out, "hello");
  ASSERT_TRUE(GetLengthPrefixed(s, &off, &out));
  EXPECT_EQ(out, "");
  ASSERT_TRUE(GetLengthPrefixed(s, &off, &out));
  EXPECT_EQ(out, std::string("a\0b", 3));
  EXPECT_EQ(off, s.size());
}

TEST(EncodingTest, DecodersRejectTruncatedInput) {
  std::string s;
  PutBig32(&s, 7);
  size_t off = 2;
  uint32_t v32 = 0;
  EXPECT_FALSE(GetBig32(s, &off, &v32));
  uint64_t v64 = 0;
  off = 0;
  EXPECT_FALSE(GetBig64(s, &off, &v64));  // Only 4 bytes present.
  std::string out;
  off = 1;
  EXPECT_FALSE(GetLengthPrefixed(s, &off, &out));
}

TEST(EncodingTest, LengthPrefixedSliceDecodesInPlace) {
  std::string buf;
  PutLengthPrefixed(&buf, "abc");
  PutLengthPrefixed(&buf, "");
  size_t off = 0;
  Slice v;
  ASSERT_TRUE(GetLengthPrefixed(buf, &off, &v));
  EXPECT_EQ(v, Slice("abc"));
  EXPECT_EQ(v.data(), buf.data() + 4) << "must point into the input";
  ASSERT_TRUE(GetLengthPrefixed(buf, &off, &v));
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(off, buf.size());
  EXPECT_FALSE(GetLengthPrefixed(buf, &off, &v));  // Past the end.
  off = 0;
  EXPECT_FALSE(GetLengthPrefixed(Slice(buf.data(), 5), &off, &v));
}

/// RFC 3720 (iSCSI) appendix B.4 test vectors, plus the customary
/// "123456789" check value.
TEST(Crc32cTest, KnownVectors) {
  std::string zeros(32, '\x00');
  std::string ones(32, '\xff');
  std::string ascending, descending;
  for (int i = 0; i < 32; ++i) {
    ascending.push_back(static_cast<char>(i));
    descending.push_back(static_cast<char>(31 - i));
  }
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(ones), 0x62A8AB43u);
  EXPECT_EQ(Crc32c(ascending), 0x46DD794Eu);
  EXPECT_EQ(Crc32c(descending), 0x113FDB5Cu);
  EXPECT_EQ(Crc32c(Slice("123456789")), 0xE3069283u);
  EXPECT_EQ(Crc32c(Slice()), 0u);
  // The portable loop agrees on the same vectors.
  EXPECT_EQ(crc32c_internal::Portable(0, zeros.data(), zeros.size()),
            0x8A9136AAu);
  EXPECT_EQ(crc32c_internal::Portable(0, "123456789", 9), 0xE3069283u);
}

/// The dispatched implementation (the crc32 instruction where the CPU has
/// SSE4.2) must be byte-identical to the table loop at every length and
/// alignment, so files written by either build read under the other.
TEST(Crc32cTest, DispatchedMatchesPortable) {
  std::string buf(1024 + 8 + 16384, '\0');
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (char& c : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    c = static_cast<char>(x);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      const char* p = buf.data() + offset;
      ASSERT_EQ(Crc32c(0, p, len), crc32c_internal::Portable(0, p, len))
          << "offset " << offset << " len " << len;
      // A nonzero starting crc takes the same path.
      ASSERT_EQ(Crc32c(0x12345678u, p, len),
                crc32c_internal::Portable(0x12345678u, p, len));
    }
  }
  // One full 16 KiB run page.
  EXPECT_EQ(Crc32c(0, buf.data(), 16384),
            crc32c_internal::Portable(0, buf.data(), 16384));
#if defined(__x86_64__)
  // The dispatch takes the instruction wherever the CPU has it.
  EXPECT_EQ(crc32c_internal::UsesHardware(),
            __builtin_cpu_supports("sse4.2") != 0);
#endif
  if (!crc32c_internal::UsesHardware()) {
    GTEST_LOG_(INFO) << "no SSE4.2 on this CPU: only the portable path ran";
  }
}

TEST(Crc32cTest, StreamingEqualsOneShot) {
  const std::string data =
      "The quick brown fox jumps over the lazy dog, twice over.";
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t head = Crc32c(0, data.data(), split);
    EXPECT_EQ(Crc32c(head, data.data() + split, data.size() - split),
              Crc32c(data))
        << "split at " << split;
  }
}

TEST(RandomTest, DeterministicPerSeed) {
  Random a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_EQ(a.Next(), b.Next());
  Random a2(123);
  EXPECT_NE(a2.Next(), c.Next());
}

TEST(RandomTest, UniformStaysInRange) {
  Random rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    const int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, UniformRangeCoversEndpoints) {
  Random rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformRange(1, 3));
  EXPECT_EQ(seen, (std::set<int64_t>{1, 2, 3}));
}

TEST(RandomTest, BernoulliExtremes) {
  Random rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RandomTest, BernoulliRoughlyCalibrated) {
  Random rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(RandomTest, NURandStaysInRangeAndIsNonUniform) {
  Random rng(17);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 30000; ++i) {
    const uint64_t v = rng.NURand(255, 1, 1000);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 1000u);
    counts[v]++;
  }
  // NURand concentrates mass: the most popular value should be well above
  // the uniform expectation of 30 hits.
  int max_count = 0;
  for (const auto& [v, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 60);
}

TEST(RandomTest, AlphaStringRespectsBoundsAndAlphabet) {
  Random rng(19);
  for (int i = 0; i < 200; ++i) {
    const std::string s = rng.AlphaString(3, 9);
    EXPECT_GE(s.size(), 3u);
    EXPECT_LE(s.size(), 9u);
    for (char c : s) EXPECT_TRUE(isalnum(static_cast<unsigned char>(c)));
  }
}

TEST(RandomTest, ShuffleIsAPermutation) {
  Random rng(23);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
  EXPECT_NE(v, orig);  // Astronomically unlikely to be identity.
}

TEST(ZipfTest, StaysInRangeAndSkews) {
  Random rng(29);
  ZipfGenerator zipf(1000, 0.99);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 30000; ++i) {
    const uint64_t v = zipf.Next(&rng);
    ASSERT_LT(v, 1000u);
    counts[v]++;
  }
  // Rank-0 should dominate the median element by a wide margin.
  EXPECT_GT(counts[0], 30 * std::max(1, counts[500]));
}

/// Parameterized sweep: encoding order preservation holds for composite
/// (hi, lo) keys the TPC-C schema uses.
class CompositeKeyOrderTest
    : public ::testing::TestWithParam<std::pair<uint32_t, uint32_t>> {};

TEST_P(CompositeKeyOrderTest, LexOrderMatchesTupleOrder) {
  const auto [w, d] = GetParam();
  std::string base;
  PutBig32(&base, w);
  PutBig32(&base, d);
  // Successor in the second component.
  std::string next_d;
  PutBig32(&next_d, w);
  PutBig32(&next_d, d + 1);
  EXPECT_LT(base, next_d);
  // Successor in the first component dominates any second component.
  std::string next_w;
  PutBig32(&next_w, w + 1);
  PutBig32(&next_w, 0);
  EXPECT_LT(base, next_w);
  EXPECT_LT(next_d, next_w);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompositeKeyOrderTest,
    ::testing::Values(std::pair{0u, 0u}, std::pair{1u, 9u},
                      std::pair{255u, 255u}, std::pair{65535u, 1u},
                      std::pair{1u << 30, 1u << 30}));

}  // namespace
}  // namespace ssidb
