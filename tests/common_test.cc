// Unit tests for src/common: status, coding, crc, compression,
// histogram, random, env.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/coding.h"
#include "common/compression.h"
#include "common/crc32c.h"
#include "common/env.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/status.h"

namespace railgun {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCodesAndMessages) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Busy("x").IsBusy());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_EQ(Status::NotFound("missing").ToString(), "NotFound: missing");
}

TEST(StatusTest, StatusOrHoldsValueOrError) {
  StatusOr<int> ok_value(42);
  ASSERT_TRUE(ok_value.ok());
  EXPECT_EQ(*ok_value, 42);

  StatusOr<int> error(Status::NotFound("nope"));
  EXPECT_FALSE(error.ok());
  EXPECT_TRUE(error.status().IsNotFound());
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeefu);
  PutFixed64(&buf, 0x0123456789abcdefull);
  Slice in(buf);
  uint32_t v32;
  uint64_t v64;
  ASSERT_TRUE(GetFixed32(&in, &v32));
  ASSERT_TRUE(GetFixed64(&in, &v64));
  EXPECT_EQ(v32, 0xdeadbeefu);
  EXPECT_EQ(v64, 0x0123456789abcdefull);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintRoundTripBoundaries) {
  const uint64_t cases[] = {0,    1,    127,  128,   16383, 16384,
                            1u << 21,   1ull << 42, UINT64_MAX};
  std::string buf;
  for (uint64_t v : cases) PutVarint64(&buf, v);
  Slice in(buf);
  for (uint64_t expected : cases) {
    uint64_t v;
    ASSERT_TRUE(GetVarint64(&in, &v));
    EXPECT_EQ(v, expected);
  }
}

TEST(CodingTest, ZigZagHandlesNegatives) {
  const int64_t cases[] = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  std::string buf;
  for (int64_t v : cases) PutVarsint64(&buf, v);
  Slice in(buf);
  for (int64_t expected : cases) {
    int64_t v;
    ASSERT_TRUE(GetVarsint64(&in, &v));
    EXPECT_EQ(v, expected);
  }
}

TEST(CodingTest, SmallNegativesEncodeSmall) {
  std::string buf;
  PutVarsint64(&buf, -3);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string buf;
  PutLengthPrefixedSlice(&buf, "hello");
  PutLengthPrefixedSlice(&buf, "");
  PutLengthPrefixedSlice(&buf, std::string(1000, 'x'));
  Slice in(buf);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &a));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &b));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &c));
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.size(), 1000u);
}

TEST(CodingTest, TruncatedInputFails) {
  std::string buf;
  PutVarint64(&buf, 1234567);
  Slice in(buf.data(), 1);  // Cut mid-varint.
  uint64_t v;
  EXPECT_FALSE(GetVarint64(&in, &v));
}

TEST(Crc32cTest, KnownProperties) {
  // Distinct inputs produce distinct CRCs; same input is stable.
  const uint32_t a = crc32c::Value("hello", 5);
  const uint32_t b = crc32c::Value("hellp", 5);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, crc32c::Value("hello", 5));
  // Extend over split input equals whole input.
  const uint32_t whole = crc32c::Value("hello world", 11);
  const uint32_t split = crc32c::Extend(crc32c::Value("hello ", 6),
                                        "world", 5);
  EXPECT_EQ(whole, split);
}

// Known answers: RFC 3720 (iSCSI) B.4 and the "123456789" check value.
struct Crc32cVector {
  std::string data;
  uint32_t crc;
};

std::vector<Crc32cVector> Crc32cVectors() {
  std::string zeros(32, '\0'), ones(32, '\xff'), up, down;
  for (int i = 0; i < 32; ++i) {
    up.push_back(static_cast<char>(i));
    down.push_back(static_cast<char>(31 - i));
  }
  return {{"123456789", 0xE3069283u}, {zeros, 0x8A9136AAu},
          {ones, 0x62A8AB43u},        {up, 0x46DD794Eu},
          {down, 0x113FDB5Cu}};
}

using Crc32cFn = uint32_t (*)(uint32_t, const char*, size_t);

// Extend, and each path it may choose that this CPU can run.
std::vector<std::pair<std::string, Crc32cFn>> Crc32cImplementations() {
  std::vector<std::pair<std::string, Crc32cFn>> impls = {
      {"Extend", crc32c::Extend}, {"portable", crc32c::ExtendPortable}};
  if (crc32c::HardwareAvailable()) {
    impls.emplace_back("hardware", crc32c::ExtendHardware);
  }
  return impls;
}

TEST(Crc32cTest, KnownAnswers) {
  for (const auto& [name, extend] : Crc32cImplementations()) {
    for (const auto& v : Crc32cVectors()) {
      EXPECT_EQ(extend(0, v.data.data(), v.data.size()), v.crc)
          << name << ", length " << v.data.size();
    }
  }
}

// The byte-at-a-time definition of CRC32C (reflected 0x82f63b78).
uint32_t BytewiseCrc32c(uint32_t crc, const char* data, size_t n) {
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc ^= static_cast<unsigned char>(data[i]);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32cTest, MatchesBytewiseAtEveryLengthAndAlignment) {
  Random64 rng(7);
  std::string buf(1024 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Uniform(256));
  for (const auto& [name, extend] : Crc32cImplementations()) {
    for (size_t align = 0; align < 8; ++align) {
      for (size_t n = 0; n <= 1024; ++n) {
        const char* p = buf.data() + align;
        ASSERT_EQ(extend(0x12345678u, p, n), BytewiseCrc32c(0x12345678u, p, n))
            << name << ", alignment " << align << ", length " << n;
      }
    }
  }
}

TEST(Crc32cTest, MaskUnmaskRoundTrip) {
  const uint32_t crc = crc32c::Value("data", 4);
  EXPECT_NE(crc, crc32c::Mask(crc));
  EXPECT_EQ(crc, crc32c::Unmask(crc32c::Mask(crc)));
}

class CompressionRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(CompressionRoundTrip, RoundTrips) {
  Random64 rng(GetParam());
  std::string input;
  const int mode = GetParam() % 4;
  const size_t n = 100 + rng.Uniform(100000);
  input.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    switch (mode) {
      case 0:  // Highly repetitive.
        input.push_back(static_cast<char>('a' + (i % 3)));
        break;
      case 1:  // Random (incompressible).
        input.push_back(static_cast<char>(rng.Uniform(256)));
        break;
      case 2:  // Runs.
        input.append(std::string(rng.Uniform(40) + 1,
                                 static_cast<char>(rng.Uniform(256))));
        break;
      default:  // Structured text.
        input += "field" + std::to_string(i % 50) + "=value;";
        break;
    }
  }
  std::string compressed;
  LzCompress(input, &compressed);
  EXPECT_EQ(LzUncompressedSize(compressed),
            static_cast<int64_t>(input.size()));
  std::string output;
  ASSERT_TRUE(LzUncompress(compressed, &output).ok());
  EXPECT_EQ(output, input);
}

INSTANTIATE_TEST_SUITE_P(Modes, CompressionRoundTrip,
                         ::testing::Range(0, 16));

TEST(CompressionTest, EmptyInput) {
  std::string compressed, output;
  LzCompress(Slice(), &compressed);
  ASSERT_TRUE(LzUncompress(compressed, &output).ok());
  EXPECT_TRUE(output.empty());
}

TEST(CompressionTest, CompressesRepetitiveData) {
  const std::string input(100000, 'z');
  std::string compressed;
  LzCompress(input, &compressed);
  EXPECT_LT(compressed.size(), input.size() / 10);
}

TEST(CompressionTest, CorruptInputRejected) {
  const std::string input = "some compressible compressible data data";
  std::string compressed;
  LzCompress(input, &compressed);
  std::string truncated = compressed.substr(0, compressed.size() / 2);
  std::string output;
  EXPECT_FALSE(LzUncompress(truncated, &output).ok());
}

TEST(HistogramTest, PercentilesOfUniformData) {
  LatencyHistogram hist;
  for (int i = 1; i <= 10000; ++i) hist.Record(i);
  EXPECT_EQ(hist.Count(), 10000);
  EXPECT_EQ(hist.Min(), 1);
  EXPECT_EQ(hist.Max(), 10000);
  // Log-bucketed: allow ~1% relative error.
  EXPECT_NEAR(static_cast<double>(hist.ValueAtPercentile(50)), 5000, 100);
  EXPECT_NEAR(static_cast<double>(hist.ValueAtPercentile(99)), 9900, 150);
  EXPECT_EQ(hist.ValueAtPercentile(100), 10000);
}

TEST(HistogramTest, EmptyHistogram) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.Count(), 0);
  EXPECT_EQ(hist.ValueAtPercentile(99), 0);
  EXPECT_EQ(hist.Mean(), 0.0);
}

TEST(HistogramTest, CoordinatedOmissionCorrection) {
  LatencyHistogram corrected;
  // One 10 ms stall at a 1 ms expected interval should synthesize the
  // latencies of the ~9 requests that would have queued behind it.
  corrected.RecordCorrected(10000, 1000);
  EXPECT_GT(corrected.Count(), 5);
  LatencyHistogram raw;
  raw.Record(10000);
  EXPECT_EQ(raw.Count(), 1);
}

TEST(HistogramTest, MergeCombinesDistributions) {
  LatencyHistogram a, b;
  for (int i = 0; i < 100; ++i) a.Record(10);
  for (int i = 0; i < 100; ++i) b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 200);
  EXPECT_LE(a.ValueAtPercentile(40), 11);
  EXPECT_GE(a.ValueAtPercentile(90), 990);
}

TEST(HistogramTest, LargeValuesBounded) {
  LatencyHistogram hist;
  hist.Record(int64_t{1} << 40);
  EXPECT_EQ(hist.ValueAtPercentile(100), int64_t{1} << 40);
}

TEST(RandomTest, Deterministic) {
  Random64 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Random64 rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, ZipfSkewsTowardSmallValues) {
  ZipfGenerator zipf(1000, 0.99, 5);
  int head = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Next() < 10) ++head;
  }
  // The top-10 of 1000 items should capture a disproportionate share.
  EXPECT_GT(head, n / 10);
}

TEST(HashTest, StableAndSpreading) {
  EXPECT_EQ(Hash64("abc"), Hash64("abc"));
  EXPECT_NE(Hash64("abc"), Hash64("abd"));
  EXPECT_NE(Hash64("abc", 1), Hash64("abc", 2));
}

TEST(ClockTest, SimulatedClockAdvances) {
  SimulatedClock clock(100);
  EXPECT_EQ(clock.NowMicros(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.NowMicros(), 150);
  clock.SleepMicros(25);
  EXPECT_EQ(clock.NowMicros(), 175);
  clock.SetTime(0);
  EXPECT_EQ(clock.NowMicros(), 0);
}

TEST(ClockTest, MonotonicClockMovesForward) {
  MonotonicClock clock;
  const Micros a = clock.NowMicros();
  clock.SleepMicros(1000);
  const Micros b = clock.NowMicros();
  EXPECT_GE(b - a, 900);
}

TEST(EnvTest, FileRoundTripAndListing) {
  Env* env = Env::Default();
  const std::string dir = "/tmp/railgun_env_test";
  ASSERT_TRUE(env->RemoveDirRecursive(dir).ok());
  ASSERT_TRUE(env->CreateDir(dir + "/nested/deeply").ok());
  ASSERT_TRUE(env->FileExists(dir + "/nested/deeply"));

  ASSERT_TRUE(WriteStringToFile(env, "hello world", dir + "/f1").ok());
  std::string content;
  ASSERT_TRUE(ReadFileToString(env, dir + "/f1", &content).ok());
  EXPECT_EQ(content, "hello world");

  uint64_t size;
  ASSERT_TRUE(env->GetFileSize(dir + "/f1", &size).ok());
  EXPECT_EQ(size, 11u);

  ASSERT_TRUE(env->CopyFile(dir + "/f1", dir + "/f2").ok());
  ASSERT_TRUE(env->RenameFile(dir + "/f2", dir + "/f3").ok());
  std::vector<std::string> children;
  ASSERT_TRUE(env->ListDir(dir, &children).ok());
  EXPECT_EQ(children.size(), 3u);  // f1, f3, nested.

  EXPECT_TRUE(env->RemoveFile(dir + "/missing").IsNotFound());
  ASSERT_TRUE(env->RemoveDirRecursive(dir).ok());
  EXPECT_FALSE(env->FileExists(dir));
}

TEST(EnvTest, CopyFileLargerThanOneBlockIsByteIdentical) {
  Env* env = Env::Default();
  const std::string dir = "/tmp/railgun_env_copy_test";
  ASSERT_TRUE(env->RemoveDirRecursive(dir).ok());
  ASSERT_TRUE(env->CreateDir(dir).ok());
  // Three whole 64 KiB blocks and a partial one, every byte value.
  std::string data;
  for (size_t i = 0; i < 3 * 64 * 1024 + 123; ++i) {
    data.push_back(static_cast<char>((i * 131 + i / 7) & 0xff));
  }
  ASSERT_TRUE(WriteStringToFile(env, data, dir + "/from").ok());
  ASSERT_TRUE(env->CopyFile(dir + "/from", dir + "/to").ok());
  std::string copy;
  ASSERT_TRUE(ReadFileToString(env, dir + "/to", &copy).ok());
  ASSERT_EQ(copy.size(), data.size());
  EXPECT_TRUE(copy == data);
  ASSERT_TRUE(env->RemoveDirRecursive(dir).ok());
}

TEST(EnvTest, CopyFileOfAMissingSourceIsNotFound) {
  Env* env = Env::Default();
  const std::string dir = "/tmp/railgun_env_copy_missing_test";
  ASSERT_TRUE(env->RemoveDirRecursive(dir).ok());
  ASSERT_TRUE(env->CreateDir(dir).ok());
  EXPECT_TRUE(env->CopyFile(dir + "/missing", dir + "/to").IsNotFound());
  EXPECT_FALSE(env->FileExists(dir + "/to"));
  ASSERT_TRUE(env->RemoveDirRecursive(dir).ok());
}

TEST(EnvTest, AppendableFilePreservesContent) {
  Env* env = Env::Default();
  const std::string path = "/tmp/railgun_env_append_test";
  (void)env->RemoveFile(path);
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env->NewWritableFile(path, &f).ok());
    ASSERT_TRUE(f->Append("part1").ok());
    ASSERT_TRUE(f->Close().ok());
  }
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env->NewAppendableFile(path, &f).ok());
    EXPECT_EQ(f->Size(), 5u);
    ASSERT_TRUE(f->Append("part2").ok());
    ASSERT_TRUE(f->Close().ok());
  }
  std::string content;
  ASSERT_TRUE(ReadFileToString(env, path, &content).ok());
  EXPECT_EQ(content, "part1part2");
  (void)env->RemoveFile(path);
}

TEST(EnvTest, RandomAccessReads) {
  Env* env = Env::Default();
  const std::string path = "/tmp/railgun_env_ra_test";
  ASSERT_TRUE(WriteStringToFile(env, "0123456789", path).ok());
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env->NewRandomAccessFile(path, &f).ok());
  char scratch[8];
  Slice result;
  ASSERT_TRUE(f->Read(3, 4, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "3456");
  // Reading past EOF returns the available bytes.
  ASSERT_TRUE(f->Read(8, 8, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "89");
  (void)env->RemoveFile(path);
}

}  // namespace
}  // namespace railgun
