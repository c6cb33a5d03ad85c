// Pins every on-disk checkpoint tag to its writer (drift check
// `drift-tag-untested` in tools/repo_analyze.py): each blob format the
// repo can persist leads with a fixed magic, and a save/load roundtrip
// through that magic restores equivalent state. A tag change that forgets
// its reader — or a new format without a test — fails here first.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "core/online.hpp"
#include "core/three_phase.hpp"
#include "logstore/convert.hpp"
#include "logstore/store.hpp"
#include "meta/meta_learner.hpp"
#include "mining/rules.hpp"
#include "predict/baselines.hpp"
#include "predict/bayes_predictor.hpp"
#include "predict/rule_predictor.hpp"
#include "predict/statistical_predictor.hpp"
#include "serve/shard_manager.hpp"
#include "taxonomy/catalog.hpp"

namespace bglpred {
namespace {

RasRecord event(TimePoint t, const char* name) {
  const SubcategoryId id = catalog().find(name);
  EXPECT_NE(id, kUnclassified) << name;
  const SubcategoryInfo& info = catalog().info(id);
  RasRecord rec;
  rec.time = t;
  rec.subcategory = id;
  rec.severity = info.severity;
  rec.facility = info.facility;
  rec.location = bgl::Location::make_compute_chip(0, 0, 0, 0);
  return rec;
}

RasLog training_log() {
  RasLog log;
  TimePoint t = 0;
  for (int i = 0; i < 40; ++i) {
    t += 4 * kHour;
    log.append_with_text(event(t, "nodeMapFileError"), "nodeMapFileError");
    log.append_with_text(event(t + 2 * kMinute, "torusFailure"),
                         "torusFailure");
    log.append_with_text(event(t + 5 * kMinute, "socketReadFailure"),
                         "socketReadFailure");
  }
  log.sort_by_time();
  return log;
}

PredictionConfig config() {
  PredictionConfig c;
  c.window = 30 * kMinute;
  return c;
}

/// Saves `trained`, asserts the blob's leading magic, and restores into
/// `fresh` — the load path must accept exactly what the save path wrote.
template <typename Predictor>
void expect_tagged_roundtrip(const Predictor& trained, Predictor& fresh,
                             std::string_view tag) {
  std::stringstream blob;
  trained.save_state(blob);
  const std::string bytes = blob.str();
  ASSERT_GE(bytes.size(), tag.size());
  EXPECT_EQ(bytes.substr(0, tag.size()), tag);
  fresh.load_state(blob);
}

TEST(CheckpointTagTest, StatisticalBlobLeadsWithStatTag) {
  StatisticalPredictor trained(config());
  trained.train(training_log());
  StatisticalPredictor fresh(config());
  expect_tagged_roundtrip(trained, fresh, "STAT");
  EXPECT_EQ(fresh.probabilities(), trained.probabilities());
}

TEST(CheckpointTagTest, RuleBlobLeadsWithRuleTag) {
  RulePredictor trained(config());
  trained.train(training_log());
  RulePredictor fresh(config());
  expect_tagged_roundtrip(trained, fresh, "RULE");
  EXPECT_EQ(fresh.rules().size(), trained.rules().size());
}

TEST(CheckpointTagTest, BayesBlobLeadsWithBaysTag) {
  BayesPredictor trained(config());
  trained.train(training_log());
  BayesPredictor fresh(config());
  expect_tagged_roundtrip(trained, fresh, "BAYS");
  EXPECT_EQ(fresh.prior(), trained.prior());
}

TEST(CheckpointTagTest, BaselineBlobsLeadWithTheirTags) {
  NeverPredictor never(config());
  NeverPredictor never_fresh(config());
  expect_tagged_roundtrip(never, never_fresh, "NEVR");

  EveryFailurePredictor every(config());
  EveryFailurePredictor every_fresh(config());
  expect_tagged_roundtrip(every, every_fresh, "EVRY");

  PeriodicPredictor periodic(config());
  periodic.train(training_log());
  PeriodicPredictor periodic_fresh(config());
  expect_tagged_roundtrip(periodic, periodic_fresh, "PERI");
  EXPECT_EQ(periodic_fresh.period(), periodic.period());
}

TEST(CheckpointTagTest, MetaLearnerBlobLeadsWithMetaTag) {
  MetaLearner trained(config());
  trained.add_base(std::make_unique<StatisticalPredictor>(config()),
                   /*treat_as_rule_like=*/false);
  trained.train(training_log());
  ASSERT_TRUE(trained.checkpointable());

  MetaLearner fresh(config());
  fresh.add_base(std::make_unique<StatisticalPredictor>(config()),
                 /*treat_as_rule_like=*/false);
  expect_tagged_roundtrip(trained, fresh, "META");
  EXPECT_EQ(fresh.base_count(), trained.base_count());
}

TEST(CheckpointTagTest, RuleSetBlobLeadsWithBglRule1Tag) {
  Rule rule;
  rule.body = Itemset{Item{catalog().find("nodeMapFileError")}};
  rule.heads = {catalog().find("torusFailure")};
  rule.support = 0.5;
  rule.confidence = 0.7;
  rule.body_count = 10;
  rule.hit_count = 7;
  const RuleSet rules(std::vector<Rule>{rule});

  std::stringstream blob;
  save_rules(blob, rules);
  EXPECT_EQ(blob.str().substr(0, 8), "BGLRULE1");
  const std::shared_ptr<const RuleSet> loaded = load_rules(blob);
  ASSERT_EQ(loaded->size(), rules.size());
  EXPECT_EQ(loaded->rules()[0].to_string(), rules.rules()[0].to_string());
}

TEST(CheckpointTagTest, OnlineEngineBlobLeadsWithBglCkpt2Tag) {
  const ThreePhasePredictor tpp;
  OnlineEngine engine(tpp.make_predictor(Method::kEveryFailure));
  engine.feed(event(1000, "torusFailure"), "torusFailure");

  std::stringstream blob;
  engine.save(blob);
  EXPECT_EQ(blob.str().substr(0, 8), "BGLCKPT2");
  const OnlineEngine restored =
      OnlineEngine::restore(blob, tpp.make_predictor(Method::kEveryFailure));
  EXPECT_EQ(restored.stats().raw_records, engine.stats().raw_records);
}

TEST(CheckpointTagTest, OnlineEngineRefusesBglCkpt1Blob) {
  // BGLCKPT1 engines carried no spatial Phase-1 state; resuming one would
  // forward spatial duplicates the offline pipeline drops.
  const ThreePhasePredictor tpp;
  OnlineEngine engine(tpp.make_predictor(Method::kEveryFailure));
  std::stringstream blob;
  engine.save(blob);
  std::string bytes = blob.str();
  bytes.replace(0, 8, "BGLCKPT1");
  std::istringstream old(bytes);
  EXPECT_THROW(
      OnlineEngine::restore(old, tpp.make_predictor(Method::kEveryFailure)),
      ParseError);
}

TEST(CheckpointTagTest, ShardSetBlobLeadsWithBglSrv1Tag) {
  const ThreePhasePredictor tpp;
  MetricsRegistry registry;
  serve::ShardOptions options;
  options.shard_count = 1;
  options.predictor_factory = [&tpp] {
    return tpp.make_predictor(Method::kEveryFailure);
  };
  serve::ShardManager manager(options, registry);
  const RasRecord rec = event(1000, "torusFailure");
  ASSERT_EQ(manager.submit(/*stream_id=*/0, rec, "torusFailure"),
            serve::ShardManager::Submit::kAccepted);
  manager.drain();

  std::stringstream blob;
  manager.save(blob);
  EXPECT_EQ(blob.str().substr(0, 7), "BGLSRV1");
  manager.restore(blob);  // accepts its own checkpoint
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(CheckpointTagTest, LogStoreSegmentAndManifestLeadWithTheirTags) {
  RasLog log = training_log();
  const std::string dir = testing::TempDir() + "/tag_store";
  std::filesystem::remove_all(dir);
  logstore::store_from_log(log, dir);

  const std::string manifest = file_bytes(dir + "/MANIFEST");
  EXPECT_EQ(manifest.substr(0, 8), "BGLMAN01");

  const std::string segment = file_bytes(dir + "/seg-000000.bgls");
  ASSERT_GE(segment.size(), 32u);
  EXPECT_EQ(segment.substr(0, 8), "BGLSEG01");
  EXPECT_EQ(segment.substr(segment.size() - 8), "BGLSEND1");
  // The footer tag sits footer_size bytes before the 16-byte trailer.
  EXPECT_NE(segment.find("BGLSFT01"), std::string::npos);

  // The store the tags describe reads back exactly.
  const logstore::StoreReader reader = logstore::StoreReader::open(dir);
  EXPECT_EQ(reader.record_count(), log.size());
}

TEST(CheckpointTagTest, ShardDirCheckpointLeadsWithItsTags) {
  const ThreePhasePredictor tpp;
  MetricsRegistry registry;
  serve::ShardOptions options;
  options.shard_count = 2;
  options.predictor_factory = [&tpp] {
    return tpp.make_predictor(Method::kEveryFailure);
  };
  serve::ShardManager manager(options, registry);
  ASSERT_EQ(manager.submit(/*stream_id=*/7, event(1000, "torusFailure"),
                           "torusFailure"),
            serve::ShardManager::Submit::kAccepted);
  manager.drain();

  const std::string dir = testing::TempDir() + "/tag_ckpt_dir";
  std::filesystem::remove_all(dir);
  const auto first = manager.save_dir(dir);
  EXPECT_EQ(first.shards_written, 2u);
  EXPECT_EQ(first.shards_skipped, 0u);
  EXPECT_EQ(file_bytes(dir + "/CHECKPOINT").substr(0, 8), "BGLCKD01");
  EXPECT_EQ(file_bytes(dir + "/shard-0.ckpt").substr(0, 8), "BGLSHD01");

  // An unchanged shard set re-checkpoints without rewriting anything.
  const auto second = manager.save_dir(dir);
  EXPECT_EQ(second.shards_written, 0u);
  EXPECT_EQ(second.shards_skipped, 2u);

  // New state dirties exactly the owning shard's file.
  ASSERT_EQ(manager.submit(/*stream_id=*/7, event(2000, "torusFailure"),
                           "torusFailure"),
            serve::ShardManager::Submit::kAccepted);
  const auto third = manager.save_dir(dir);
  EXPECT_EQ(third.shards_written, 1u);
  EXPECT_EQ(third.shards_skipped, 1u);

  manager.restore_dir(dir);  // accepts its own checkpoint
  EXPECT_EQ(manager.stream_count(), 1u);
}

}  // namespace
}  // namespace bglpred
