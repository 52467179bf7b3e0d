// Model-based randomized testing of the LSM store: a long random
// sequence of puts/deletes/flushes/reopens is mirrored into an in-memory
// reference model; the store must agree with the model at every probe
// point, for two key populations sharing the store's one keyspace.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/random.h"
#include "storage/db.h"

namespace railgun::storage {
namespace {

class ModelTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    dir_ = "/tmp/railgun_model_test_" + std::to_string(GetParam());
    ASSERT_TRUE(DestroyDB(dir_).ok());
    options_.write_buffer_size = 16 * 1024;  // Aggressive flushing.
    options_.max_bytes_for_level_base = 64 * 1024;
    options_.target_file_size = 16 * 1024;
    Open();
  }

  void TearDown() override {
    db_.reset();
    ASSERT_TRUE(DestroyDB(dir_).ok());
  }

  void Open() {
    db_.reset();  // Close (flushing the memtable) before reopening.
    ASSERT_TRUE(DB::Open(options_, dir_, &db_).ok());
  }

  // Writes draw from keys 0..799 of each population; the audit also
  // probes the keys above, which are never written.
  static constexpr uint64_t kWrittenKeys = 800;
  static constexpr uint64_t kProbedKeys = 900;
  // Two populations in one keyspace, as the engine keeps state records
  // ("m...") beside countDistinct's per-value counts ("d..."); the same
  // number names a different key in each.
  static constexpr int kPopulations = 2;

  static std::string Key(int population, uint64_t n) {
    char buf[24];
    snprintf(buf, sizeof(buf), "%ckey%06llu", population == 0 ? 'm' : 'd',
             static_cast<unsigned long long>(n));
    return buf;
  }
  std::string RandomKey(Random64* rng) {
    const int population = static_cast<int>(rng->Uniform(kPopulations));
    return Key(population, rng->Uniform(kWrittenKeys));
  }

  DBOptions options_;
  std::string dir_;
  std::unique_ptr<DB> db_;
};

TEST_P(ModelTest, AgreesWithReferenceModelUnderChurn) {
  Random64 rng(GetParam());
  std::map<std::string, std::string> model;

  for (int step = 0; step < 8000; ++step) {
    const int action = static_cast<int>(rng.Uniform(100));
    if (action < 55) {  // Put.
      const std::string key = RandomKey(&rng);
      const std::string value =
          "v" + std::to_string(step) + std::string(rng.Uniform(64), 'x');
      ASSERT_TRUE(db_->Put(kDefaultColumnFamily, key, value).ok());
      model[key] = value;
    } else if (action < 75) {  // Delete (possibly nonexistent).
      const std::string key = RandomKey(&rng);
      ASSERT_TRUE(db_->Delete(kDefaultColumnFamily, key).ok());
      model.erase(key);
    } else if (action < 90) {  // A burst of writes across populations.
      for (int i = 0; i < 5; ++i) {
        const std::string key = RandomKey(&rng);
        if (rng.OneIn(4)) {
          ASSERT_TRUE(db_->Delete(kDefaultColumnFamily, key).ok());
          model.erase(key);
        } else {
          const std::string value = "b" + std::to_string(step * 10 + i);
          ASSERT_TRUE(db_->Put(kDefaultColumnFamily, key, value).ok());
          model[key] = value;
        }
      }
    } else if (action < 94) {  // Flush.
      ASSERT_TRUE(db_->Flush().ok());
    } else if (action < 97) {  // Probe a batch of random keys.
      for (int i = 0; i < 10; ++i) {
        const std::string key = RandomKey(&rng);
        std::string value;
        const Status s = db_->Get(kDefaultColumnFamily, key, &value);
        auto it = model.find(key);
        if (it == model.end()) {
          EXPECT_TRUE(s.IsNotFound())
              << "step " << step << " key " << key
              << ": store has a value the model does not";
        } else {
          ASSERT_TRUE(s.ok()) << "step " << step << " key " << key << ": "
                              << s.ToString();
          EXPECT_EQ(value, it->second) << "step " << step;
        }
      }
    } else {  // Reopen (clean close flushes; recovery reads the manifest).
      Open();
    }
  }

  // Final audit: every key a write could touch (so every key the model
  // ever held, present or deleted) and keys never written.
  for (int population = 0; population < kPopulations; ++population) {
    for (uint64_t n = 0; n < kProbedKeys; ++n) {
      const std::string key = Key(population, n);
      std::string value;
      const Status s = db_->Get(kDefaultColumnFamily, key, &value);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(s.IsNotFound()) << "key " << key << ": " << s.ToString();
      } else {
        ASSERT_TRUE(s.ok()) << "key " << key << ": " << s.ToString();
        EXPECT_EQ(value, it->second) << "key " << key;
      }
    }
  }
}

// The engine's pattern: few keys, each read, modified and written again
// many times (Zipf-skewed), with flushes and reopens in between, so most
// writes overwrite a memtable entry in place.
TEST_P(ModelTest, AgreesWithReferenceModelUnderOverwriteHeavyZipf) {
  Random64 rng(GetParam());
  ZipfGenerator keys(64, 0.99, GetParam());
  std::map<std::string, std::string> model;
  auto check = [&](const std::string& key, int step) {
    std::string value;
    const Status s = db_->Get(kDefaultColumnFamily, key, &value);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_TRUE(s.IsNotFound()) << "step " << step << " key " << key;
    } else {
      ASSERT_TRUE(s.ok()) << "step " << step << " key " << key << ": "
                          << s.ToString();
      EXPECT_EQ(value, it->second) << "step " << step << " key " << key;
    }
  };

  for (int step = 0; step < 20000; ++step) {
    const std::string key = "zkey" + std::to_string(keys.Next());
    const int action = static_cast<int>(rng.Uniform(1000));
    if (action < 900) {  // Read-modify-write.
      check(key, step);
      const std::string value =
          "v" + std::to_string(step) + std::string(rng.Uniform(48), 'z');
      ASSERT_TRUE(db_->Put(kDefaultColumnFamily, key, value).ok());
      model[key] = value;
    } else if (action < 960) {  // Delete.
      ASSERT_TRUE(db_->Delete(kDefaultColumnFamily, key).ok());
      model.erase(key);
    } else if (action < 994) {  // Probe.
      check(key, step);
    } else if (action < 998) {  // Flush.
      ASSERT_TRUE(db_->Flush().ok());
    } else {  // Reopen.
      Open();
    }
  }

  // Every key the generator can draw, and keys it never draws.
  for (uint64_t k = 0; k < keys.n() + 16; ++k) {
    check("zkey" + std::to_string(k), -1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelTest,
                         ::testing::Values(1, 7, 42, 1234));

}  // namespace
}  // namespace railgun::storage
