// Unit tests for the utility layer: bitset, flat map, RNG, stats,
// serialization, CSV, timers, threading.

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>

#include "util/bitset.h"
#include "util/csv.h"
#include "util/flat_map.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/stats.h"
#include "util/stats_registry.h"
#include "util/thread_pool.h"
#include "util/threading.h"
#include "util/timer.h"

#include <atomic>
#include <stdexcept>

namespace mrbc::util {
namespace {

// ---- DynamicBitset ---------------------------------------------------------

TEST(Bitset, SetResetTest) {
  DynamicBitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_TRUE(b.none());
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
}

TEST(Bitset, ForEachSetVisitsAscending) {
  DynamicBitset b(200);
  const std::vector<std::size_t> bits{0, 63, 64, 65, 127, 128, 199};
  for (auto i : bits) b.set(i);
  std::vector<std::size_t> seen;
  b.for_each_set([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, bits);
}

TEST(Bitset, FindFirstFrom) {
  DynamicBitset b(150);
  b.set(5);
  b.set(70);
  b.set(149);
  EXPECT_EQ(b.find_first(), 5u);
  EXPECT_EQ(b.find_first_from(6), 70u);
  EXPECT_EQ(b.find_first_from(71), 149u);
  EXPECT_EQ(b.find_first_from(150), DynamicBitset::npos);
  DynamicBitset empty(64);
  EXPECT_EQ(empty.find_first(), DynamicBitset::npos);
}

TEST(Bitset, SetAllRespectsSize) {
  DynamicBitset b(67);
  b.set_all();
  EXPECT_EQ(b.count(), 67u);
  b.reset_all();
  EXPECT_TRUE(b.none());
}

TEST(Bitset, BitwiseOps) {
  DynamicBitset a(100), b(100);
  a.set(3);
  a.set(50);
  b.set(50);
  b.set(99);
  DynamicBitset u = a;
  u |= b;
  EXPECT_EQ(u.count(), 3u);
  DynamicBitset i = a;
  i &= b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(50));
}

TEST(Bitset, ResizePreservesAndZeroExtends) {
  DynamicBitset b(10);
  b.set(9);
  b.resize(100);
  EXPECT_TRUE(b.test(9));
  EXPECT_EQ(b.count(), 1u);
  b.resize(5);
  EXPECT_EQ(b.count(), 0u);
}

// ---- bitwords kernels ------------------------------------------------------
// The dispatched kernels (AVX2 when available) must be bit-identical to the
// scalar references on every word count — especially the sub-vector-width
// tails the SIMD paths peel off, and the aligned boundaries on either side
// of the 4-word AVX2 stride.

/// Word counts that exercise the tail logic: below one vector (1..3),
/// exactly one vector (4), across strides (5, 7, 8, 9), and bulk with every
/// possible remainder (1000..1003).
const std::vector<std::size_t> kKernelSizes = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32,
                                               1000, 1001, 1002, 1003};

std::vector<std::uint64_t> random_words(std::size_t n, std::uint64_t seed, bool sparse) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> w(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t word = rng.next() ^ (rng.next() << 1);
    // Sparse variant zeroes most words so find_nonzero's skip loop runs.
    w[i] = sparse ? (rng.next_bounded(8) == 0 ? word : 0) : word;
  }
  return w;
}

TEST(Bitwords, CountMatchesScalarAllTails) {
  for (const std::size_t n : kKernelSizes) {
    const auto w = random_words(n, 100 + n, false);
    EXPECT_EQ(bitwords::count(w.data(), n), bitwords::count_scalar(w.data(), n)) << "n=" << n;
  }
}

TEST(Bitwords, CountEmptyAndFull) {
  for (const std::size_t n : kKernelSizes) {
    const std::vector<std::uint64_t> zeros(n, 0);
    const std::vector<std::uint64_t> ones(n, ~std::uint64_t{0});
    EXPECT_EQ(bitwords::count(zeros.data(), n), 0u) << "n=" << n;
    EXPECT_EQ(bitwords::count(ones.data(), n), n * 64) << "n=" << n;
  }
  EXPECT_EQ(bitwords::count(nullptr, 0), 0u);
}

TEST(Bitwords, AndNotMatchesScalarAllTails) {
  for (const std::size_t n : kKernelSizes) {
    const auto src = random_words(n, 200 + n, false);
    auto dispatched = random_words(n, 300 + n, false);
    auto scalar = dispatched;
    bitwords::and_not(dispatched.data(), src.data(), n);
    bitwords::and_not_scalar(scalar.data(), src.data(), n);
    EXPECT_EQ(dispatched, scalar) << "n=" << n;
  }
}

TEST(Bitwords, AnyIntersectMatchesScalarAllTails) {
  for (const std::size_t n : kKernelSizes) {
    // Sparse operands: most word pairs miss, so intersection (when any)
    // is found mid-array rather than at word 0.
    const auto a = random_words(n, 400 + n, true);
    const auto b = random_words(n, 500 + n, true);
    EXPECT_EQ(bitwords::any_intersect(a.data(), b.data(), n),
              bitwords::any_intersect_scalar(a.data(), b.data(), n))
        << "n=" << n;
    const std::vector<std::uint64_t> zeros(n, 0);
    EXPECT_FALSE(bitwords::any_intersect(a.data(), zeros.data(), n)) << "n=" << n;
  }
}

TEST(Bitwords, AnyIntersectLastWordOnly) {
  for (const std::size_t n : kKernelSizes) {
    std::vector<std::uint64_t> a(n, 0), b(n, 0);
    a[n - 1] = std::uint64_t{1} << 63;
    b[n - 1] = std::uint64_t{1} << 63;
    EXPECT_TRUE(bitwords::any_intersect(a.data(), b.data(), n)) << "n=" << n;
    b[n - 1] = 1;  // same word, disjoint bits
    EXPECT_FALSE(bitwords::any_intersect(a.data(), b.data(), n)) << "n=" << n;
  }
}

TEST(Bitwords, FindNonzeroMatchesScalarEveryFrom) {
  for (const std::size_t n : kKernelSizes) {
    const auto w = random_words(n, 600 + n, true);
    for (std::size_t from = 0; from <= n; ++from) {
      EXPECT_EQ(bitwords::find_nonzero(w.data(), n, from),
                bitwords::find_nonzero_scalar(w.data(), n, from))
          << "n=" << n << " from=" << from;
    }
    const std::vector<std::uint64_t> zeros(n, 0);
    EXPECT_EQ(bitwords::find_nonzero(zeros.data(), n, 0), n) << "n=" << n;
  }
}

TEST(Bitwords, FindNonzeroSingleHotWord) {
  // A single nonzero word at every position of a 9-word array: crosses the
  // vector stride at every offset, in both dispatch modes.
  constexpr std::size_t kN = 9;
  for (std::size_t hot = 0; hot < kN; ++hot) {
    std::vector<std::uint64_t> w(kN, 0);
    w[hot] = 0x10;
    for (std::size_t from = 0; from <= kN; ++from) {
      const std::size_t want = from <= hot ? hot : kN;
      EXPECT_EQ(bitwords::find_nonzero(w.data(), kN, from), want)
          << "hot=" << hot << " from=" << from;
    }
  }
}

TEST(Bitwords, DifferentialRandomSweep) {
  // Randomized cross-check over arbitrary sizes; seeds vary content and
  // density. With SIMD compiled out or disabled this still passes (both
  // sides run the scalar path), so the suite is meaningful in every CI job.
  Xoshiro256 rng(42);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t n = 1 + rng.next_bounded(257);
    const bool sparse = (iter % 2) == 0;
    const auto a = random_words(n, rng.next(), sparse);
    const auto b = random_words(n, rng.next(), sparse);
    ASSERT_EQ(bitwords::count(a.data(), n), bitwords::count_scalar(a.data(), n));
    ASSERT_EQ(bitwords::any_intersect(a.data(), b.data(), n),
              bitwords::any_intersect_scalar(a.data(), b.data(), n));
    const std::size_t from = rng.next_bounded(n + 1);
    ASSERT_EQ(bitwords::find_nonzero(a.data(), n, from),
              bitwords::find_nonzero_scalar(a.data(), n, from));
    auto d1 = a;
    auto d2 = a;
    bitwords::and_not(d1.data(), b.data(), n);
    bitwords::and_not_scalar(d2.data(), b.data(), n);
    ASSERT_EQ(d1, d2);
  }
}

// ---- FlatMap ---------------------------------------------------------------

TEST(FlatMap, InsertFindErase) {
  FlatMap<int, std::string> m;
  EXPECT_TRUE(m.empty());
  m[3] = "three";
  m[1] = "one";
  m[2] = "two";
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.find(2)->second, "two");
  EXPECT_EQ(m.find(7), m.end());
  EXPECT_EQ(m.erase(2), 1u);
  EXPECT_EQ(m.erase(2), 0u);
  EXPECT_FALSE(m.contains(2));
}

TEST(FlatMap, IterationIsSorted) {
  FlatMap<int, int> m;
  for (int k : {9, 1, 5, 3, 7}) m[k] = k * 10;
  std::vector<int> keys;
  for (const auto& [k, v] : m) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<int>{1, 3, 5, 7, 9}));
}

TEST(FlatMap, TryEmplaceDoesNotOverwrite) {
  FlatMap<int, int> m;
  auto [it1, fresh1] = m.try_emplace(4, 40);
  EXPECT_TRUE(fresh1);
  auto [it2, fresh2] = m.try_emplace(4, 99);
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(it2->second, 40);
}

TEST(FlatMap, MatchesStdMapUnderRandomOps) {
  FlatMap<std::uint32_t, int> flat;
  std::map<std::uint32_t, int> ref;
  Xoshiro256 rng(99);
  for (int i = 0; i < 2000; ++i) {
    const auto key = static_cast<std::uint32_t>(rng.next_bounded(50));
    if (rng.next_bool(0.3)) {
      flat.erase(key);
      ref.erase(key);
    } else {
      flat[key] = i;
      ref[key] = i;
    }
  }
  ASSERT_EQ(flat.size(), ref.size());
  auto it = ref.begin();
  for (const auto& [k, v] : flat) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
}

TEST(FlatMap, LowerBound) {
  FlatMap<int, int> m;
  m[10] = 1;
  m[20] = 2;
  EXPECT_EQ(m.lower_bound(5)->first, 10);
  EXPECT_EQ(m.lower_bound(10)->first, 10);
  EXPECT_EQ(m.lower_bound(11)->first, 20);
  EXPECT_EQ(m.lower_bound(21), m.end());
}

// ---- RNG -------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BoundedIsInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_bounded(17), 17u);
  }
  EXPECT_EQ(rng.next_bounded(1), 0u);
  EXPECT_EQ(rng.next_bounded(0), 0u);
}

TEST(Rng, BoundedIsRoughlyUniform) {
  Xoshiro256 rng(11);
  std::vector<int> histogram(10, 0);
  const int samples = 100000;
  for (int i = 0; i < samples; ++i) ++histogram[rng.next_bounded(10)];
  for (int count : histogram) {
    EXPECT_NEAR(count, samples / 10, samples / 100);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Xoshiro256 rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

// ---- Stats -----------------------------------------------------------------

TEST(Stats, RunningStatBasics) {
  RunningStat s;
  for (double x : {2.0, 4.0, 6.0, 8.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 8.0);
  EXPECT_DOUBLE_EQ(s.sum(), 20.0);
  EXPECT_NEAR(s.stddev(), 2.582, 1e-3);
}

TEST(Stats, Imbalance) {
  EXPECT_DOUBLE_EQ(imbalance({1, 1, 1, 1}), 1.0);
  EXPECT_DOUBLE_EQ(imbalance({0, 0, 0, 4}), 4.0);
  EXPECT_DOUBLE_EQ(imbalance({}), 1.0);
  EXPECT_DOUBLE_EQ(imbalance({0.0, 0.0}), 1.0);
}

TEST(Stats, Geomean) {
  EXPECT_NEAR(geomean_of({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_NEAR(geomean_of({3.0}), 3.0, 1e-12);
}

TEST(Stats, Formatting) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_bytes(512), "512.00 B");
  EXPECT_EQ(fmt_bytes(2048), "2.00 KB");
  EXPECT_EQ(fmt_bytes(3 * 1024 * 1024), "3.00 MB");
}

// ---- Serialization ---------------------------------------------------------

TEST(Serialize, PodRoundTrip) {
  SendBuffer out;
  out.write<std::uint32_t>(7);
  out.write<double>(2.5);
  out.write<std::uint8_t>(255);
  RecvBuffer in(out.take());
  EXPECT_EQ(in.read<std::uint32_t>(), 7u);
  EXPECT_DOUBLE_EQ(in.read<double>(), 2.5);
  EXPECT_EQ(in.read<std::uint8_t>(), 255);
  EXPECT_TRUE(in.exhausted());
}

TEST(Serialize, VectorRoundTrip) {
  SendBuffer out;
  std::vector<std::uint64_t> values{1, 2, 3, 1ull << 60};
  out.write_vector(values);
  out.write_vector(std::vector<std::uint32_t>{});
  RecvBuffer in(out.take());
  EXPECT_EQ(in.read_vector<std::uint64_t>(), values);
  EXPECT_TRUE(in.read_vector<std::uint32_t>().empty());
}

TEST(Serialize, BitsetRoundTrip) {
  DynamicBitset bits(77);
  bits.set(0);
  bits.set(76);
  SendBuffer out;
  out.write_bitset(bits);
  RecvBuffer in(out.take());
  EXPECT_TRUE(in.read_bitset() == bits);
}

TEST(Serialize, BitsetWithWrongWordCountOrPaddingThrows) {
  // 77 bits need exactly two words, the second with 51 padding bits clear.
  const auto crafted = [](std::uint64_t bits, const std::vector<std::uint64_t>& words) {
    SendBuffer out;
    out.write<std::uint64_t>(bits);
    out.write_vector(words);
    return out.take();
  };
  RecvBuffer good(crafted(77, {1, std::uint64_t{1} << 12}));
  EXPECT_TRUE(good.read_bitset().test(76));
  RecvBuffer short_words(crafted(77, {1}));
  EXPECT_THROW(short_words.read_bitset(), std::out_of_range);
  RecvBuffer long_words(crafted(77, {1, 0, 0}));
  EXPECT_THROW(long_words.read_bitset(), std::out_of_range);
  RecvBuffer padding(crafted(77, {1, std::uint64_t{1} << 13}));
  EXPECT_THROW(padding.read_bitset(), std::out_of_range);
  // A huge declared size over a small word vector is refused, not allocated.
  RecvBuffer huge(crafted(std::uint64_t{1} << 62, {0}));
  EXPECT_THROW(huge.read_bitset(), std::out_of_range);
  // Word-aligned sizes have no padding to check.
  RecvBuffer aligned(crafted(128, {~std::uint64_t{0}, ~std::uint64_t{0}}));
  EXPECT_EQ(aligned.read_bitset().count(), 128u);
}

TEST(Serialize, StringRoundTrip) {
  SendBuffer out;
  out.write_string("hello, world");
  out.write_string("");
  RecvBuffer in(out.take());
  EXPECT_EQ(in.read_string(), "hello, world");
  EXPECT_EQ(in.read_string(), "");
}

TEST(Serialize, TruncatedBufferThrows) {
  SendBuffer out;
  out.write<std::uint64_t>(1000);  // claims a 1000-element vector follows
  RecvBuffer in(out.take());
  EXPECT_THROW(in.read_vector<std::uint32_t>(), std::out_of_range);

  RecvBuffer empty(std::vector<std::uint8_t>{});
  EXPECT_THROW(empty.read<std::uint32_t>(), std::out_of_range);
  EXPECT_THROW(empty.read_string(), std::out_of_range);
}

TEST(Serialize, TruncatedStringThrows) {
  SendBuffer out;
  out.write<std::uint64_t>(50);  // string length without the payload
  RecvBuffer in(out.take());
  EXPECT_THROW(in.read_string(), std::out_of_range);
}

TEST(Serialize, CorruptedLengthPrefixOverflowThrows) {
  // Regression: a corrupted frame can carry a length prefix n where
  // n * sizeof(T) wraps modulo 2^64 to a tiny value — the truncation guard
  // must reject it instead of letting the wrapped product slip past and
  // trigger a multi-exabyte allocation. 0x4000000000000001 * 4 == 4.
  SendBuffer out;
  out.write<std::uint64_t>(0x4000000000000001ull);
  out.write<std::uint32_t>(0);  // 4 bytes "remaining", matching the wrap
  RecvBuffer in(out.take());
  EXPECT_THROW(in.read_vector<std::uint32_t>(), std::out_of_range);

  // Same wrap with 8-byte elements: 0x2000000000000001 * 8 == 8.
  SendBuffer out8;
  out8.write<std::uint64_t>(0x2000000000000001ull);
  out8.write<std::uint64_t>(0);
  RecvBuffer in8(out8.take());
  EXPECT_THROW(in8.read_vector<std::uint64_t>(), std::out_of_range);
}

TEST(Serialize, WriteBitsetReservesUpFront) {
  // write_bitset should land in one allocation, like write_vector.
  DynamicBitset bits(100 * 64);
  for (std::size_t i = 0; i < bits.size(); i += 7) bits.set(i);
  SendBuffer out;
  out.write_bitset(bits);
  EXPECT_GE(out.capacity(), out.size());
  RecvBuffer in(out.take());
  EXPECT_TRUE(in.read_bitset() == bits);
}

TEST(Serialize, RawBytesTracksFixedWidthEquivalent) {
  SendBuffer out;
  out.write<std::uint32_t>(1);
  out.write_vector(std::vector<std::uint64_t>{1, 2, 3});
  out.write_string("abc");
  // Plain writes: raw equals actual. 4 + (8 + 24) + (8 + 3).
  EXPECT_EQ(out.raw_bytes(), out.size());
  EXPECT_EQ(out.raw_bytes(), 47u);
  // A varint write advances raw by its fixed-width equivalent, not its
  // encoded size.
  out.write_varint(5, sizeof(std::uint64_t));
  EXPECT_EQ(out.size(), 48u);
  EXPECT_EQ(out.raw_bytes(), 55u);
  out.clear();
  EXPECT_EQ(out.raw_bytes(), 0u);
}

TEST(Serialize, SizeAccounting) {
  SendBuffer out;
  out.write<std::uint32_t>(1);
  EXPECT_EQ(out.size(), 4u);
  out.write<double>(1.0);
  EXPECT_EQ(out.size(), 12u);
}

TEST(Serialize, WriteRawAndAppend) {
  SendBuffer head;
  head.write<std::uint32_t>(0xDEADBEEF);
  const std::uint8_t extra[3] = {1, 2, 3};
  head.write_raw(extra, sizeof(extra));
  SendBuffer tail;
  tail.write<std::uint16_t>(7);
  head.append(tail);
  EXPECT_EQ(head.size(), 4u + 3u + 2u);
  RecvBuffer in(head.take());
  EXPECT_EQ(in.read<std::uint32_t>(), 0xDEADBEEFu);
  for (std::uint8_t b : extra) EXPECT_EQ(in.read<std::uint8_t>(), b);
  EXPECT_EQ(in.read<std::uint16_t>(), 7);
  EXPECT_TRUE(in.exhausted());
}

// ---- CRC32 -----------------------------------------------------------------

TEST(Crc32, KnownVectors) {
  // Reference values of the ISO-HDLC (zlib) CRC-32.
  EXPECT_EQ(crc32(nullptr, 0), 0x00000000u);
  const char check[] = "123456789";
  EXPECT_EQ(crc32(check, 9), 0xCBF43926u);
  const char a[] = "a";
  EXPECT_EQ(crc32(a, 1), 0xE8B7BE43u);
  const char abc[] = "abc";
  EXPECT_EQ(crc32(abc, 3), 0x352441C2u);
}

TEST(Crc32, SeedContinuationMatchesOneShot) {
  const std::vector<std::uint8_t> data{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  const std::uint32_t whole = crc32(data);
  const std::uint32_t first = crc32(data.data(), 4);
  EXPECT_EQ(crc32(data.data() + 4, 5, first), whole);
}

/// The byte-at-a-time CRC-32 the sliced kernel replaced, kept here as the
/// differential reference.
std::uint32_t crc32_reference(const std::uint8_t* bytes, std::size_t n, std::uint32_t seed = 0) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = (c >> 1) ^ ((c & 1u) ? 0xEDB88320u : 0u);
    table[i] = c;
  }
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng.next() >> 56);
  return out;
}

TEST(Crc32, SlicedKernelMatchesBytewiseReference) {
  // Every length 0..1024 from every start offset 0..7 (so the 16-byte
  // blocks meet every alignment and every tail length), under random seeds.
  const std::vector<std::uint8_t> data = random_bytes(1024 + 8, 7);
  Xoshiro256 seeds(11);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n = 0; n <= 1024; ++n) {
      const std::uint8_t* p = data.data() + offset;
      ASSERT_EQ(crc32(p, n), crc32_reference(p, n)) << "offset " << offset << " length " << n;
      const auto seed = static_cast<std::uint32_t>(seeds.next());
      ASSERT_EQ(crc32(p, n, seed), crc32_reference(p, n, seed))
          << "offset " << offset << " length " << n << " seed " << seed;
    }
  }
  // A checkpoint-sized buffer.
  const std::vector<std::uint8_t> big = random_bytes(std::size_t{4} << 20, 13);
  EXPECT_EQ(crc32(big), crc32_reference(big.data(), big.size()));
  EXPECT_EQ(crc32(big.data() + 3, big.size() - 3, 0x9E3779B9u),
            crc32_reference(big.data() + 3, big.size() - 3, 0x9E3779B9u));
}

TEST(Crc32, ContinuationAtEverySplitPointMatchesOneShot) {
  const std::vector<std::uint8_t> data = random_bytes(100, 17);
  const std::uint32_t whole = crc32_reference(data.data(), data.size());
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    const std::uint32_t head = crc32(data.data(), cut);
    EXPECT_EQ(crc32(data.data() + cut, data.size() - cut, head), whole) << "split at " << cut;
  }
}

TEST(Crc32, DetectsSingleBitFlips) {
  std::vector<std::uint8_t> payload(64);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::uint8_t>(i * 37);
  const std::uint32_t clean = crc32(payload);
  // Any single-bit error must change the checksum (CRC property).
  for (std::size_t bit = 0; bit < payload.size() * 8; bit += 17) {
    std::vector<std::uint8_t> corrupted = payload;
    corrupted[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(crc32(corrupted), clean) << "undetected flip at bit " << bit;
  }
}

// ---- CSV -------------------------------------------------------------------

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, MemoryOnlyAccumulatesRows) {
  CsvWriter csv("", {"a", "b"});
  csv.add_row({"1", "2"});
  csv.add_row({"3", "4"});
  EXPECT_EQ(csv.rows().size(), 2u);
  EXPECT_EQ(csv.header().size(), 2u);
  EXPECT_EQ(csv.rows()[1][0], "3");
}

// ---- StatsRegistry -----------------------------------------------------------

TEST(StatsRegistry, CountersAndValues) {
  StatsRegistry reg;
  reg.add_counter("rounds", 5);
  reg.add_counter("rounds", 7);
  reg.set_counter("messages", 42);
  reg.add_seconds("compute", 0.5);
  reg.add_seconds("compute", 0.25);
  reg.set_value("imbalance", 1.5);
  EXPECT_EQ(reg.counter("rounds"), 12u);
  EXPECT_EQ(reg.counter("messages"), 42u);
  EXPECT_DOUBLE_EQ(reg.value("compute"), 0.75);
  EXPECT_TRUE(reg.has("imbalance"));
  EXPECT_FALSE(reg.has("absent"));
  EXPECT_EQ(reg.counter("absent"), 0u);
}

TEST(StatsRegistry, SerializesSortedKeyValueLines) {
  StatsRegistry reg;
  reg.set_counter("b.rounds", 3);
  reg.set_counter("a.rounds", 1);
  reg.set_value("c.time", 2.5);
  EXPECT_EQ(reg.serialize(), "a.rounds=1\nb.rounds=3\nc.time=2.5\n");
  reg.clear();
  EXPECT_EQ(reg.serialize(), "");
}

TEST(StatsRegistry, WriteFileFailsLoudly) {
  StatsRegistry reg;
  EXPECT_THROW(reg.write_file("/nonexistent-dir/stats.txt"), std::runtime_error);
}

// ---- Timer / threading -----------------------------------------------------

TEST(Timer, AccumulatesIntervals) {
  AccumulatingTimer acc;
  {
    ScopedTimer guard(acc);
  }
  {
    ScopedTimer guard(acc);
  }
  EXPECT_GE(acc.total_seconds(), 0.0);
  acc.reset();
  EXPECT_DOUBLE_EQ(acc.total_seconds(), 0.0);
}

TEST(Threading, SequentialAndParallelCoverAllIndices) {
  for (bool parallel : {false, true}) {
    std::vector<int> hits(16, 0);
    for_each_index(16, parallel, [&](std::size_t i) { hits[i]++; });
    for (int h : hits) EXPECT_EQ(h, 1);
  }
  EXPECT_GE(hardware_threads(), 1u);
}

// ---- ThreadPool ------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.parallelism(), threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(0, hits.size(), 16, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " with " << threads << " threads";
    }
  }
}

TEST(ThreadPool, ChunkDecompositionIsThreadCountIndependent) {
  // The grain, not the parallelism, fixes chunk boundaries.
  EXPECT_EQ(ThreadPool::chunk_count(100, 16), 7u);
  EXPECT_EQ(ThreadPool::chunk_count(0, 16), 0u);
  EXPECT_EQ(ThreadPool::chunk_count(16, 16), 1u);
  EXPECT_EQ(ThreadPool::chunk_count(5, 0), 5u) << "grain 0 is clamped to 1";
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    std::vector<std::pair<std::size_t, std::size_t>> bounds(ThreadPool::chunk_count(100, 16));
    pool.parallel_for_chunks(0, 100, 16, [&](std::size_t c, std::size_t b, std::size_t e) {
      bounds[c] = {b, e};
    });
    for (std::size_t c = 0; c < bounds.size(); ++c) {
      EXPECT_EQ(bounds[c].first, c * 16);
      EXPECT_EQ(bounds[c].second, std::min<std::size_t>(100, c * 16 + 16));
    }
  }
}

TEST(ThreadPool, DeterministicReduceMatchesSequentialFold) {
  // Non-associative floating-point sum: bit-identical across pool sizes
  // because partials combine in chunk order on the caller.
  auto value = [](std::size_t i) { return 1.0 / static_cast<double>(i + 1); };
  ThreadPool seq(1);
  const double expected = seq.parallel_reduce(
      0, 10000, 64, 0.0, value, [](double a, double b) { return a + b; });
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    const double got = pool.parallel_reduce(
        0, 10000, 64, 0.0, value, [](double a, double b) { return a + b; });
    EXPECT_EQ(got, expected) << threads << " threads";
  }
}

TEST(ThreadPool, NestedParallelForRunsInlineAndCompletes) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(0, 8, 1, [&](std::size_t) {
    // The pool is busy with the outer job: the inner call must run inline
    // on this thread rather than deadlock waiting for workers.
    pool.parallel_for(0, 8, 1, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, ExceptionPropagatesToCallerAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100, 1,
                                 [&](std::size_t i) {
                                   if (i == 37) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool is reusable after a failed job.
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, 1, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, SetGlobalThreadsResizesOnce) {
  ThreadPool::set_global_threads(3);
  EXPECT_EQ(ThreadPool::global().parallelism(), 3u);
  ThreadPool& before = ThreadPool::global();
  ThreadPool::set_global_threads(3);  // same size: must not rebuild
  EXPECT_EQ(&ThreadPool::global(), &before);
  ThreadPool::set_global_threads(1);
  EXPECT_EQ(ThreadPool::global().parallelism(), 1u);
}

TEST(ForEachIndex, ParallelDispatchesThroughPool) {
  ThreadPool::set_global_threads(4);
  std::vector<std::atomic<int>> hits(64);
  for_each_index(hits.size(), true, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
  ThreadPool::set_global_threads(1);
}

}  // namespace
}  // namespace mrbc::util
