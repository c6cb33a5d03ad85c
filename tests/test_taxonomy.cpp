// Tests for the Table-3 catalog and the event classifier.
#include <gtest/gtest.h>

#include <set>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "raslog/log.hpp"
#include "taxonomy/catalog.hpp"
#include "taxonomy/classifier.hpp"

namespace bglpred {
namespace {

// ---- catalog: Table 3 structure ------------------------------------------

TEST(CatalogTest, Has101Subcategories) {
  EXPECT_EQ(catalog().size(), 101u);
}

TEST(CatalogTest, PerCategoryCountsMatchTable3) {
  // Application 12, Iostream 8, Kernel 20, Memory 22, Midplane 6,
  // Network 11, NodeCard 10, Other 12.
  const std::size_t expected[] = {12, 8, 20, 22, 6, 11, 10, 12};
  for (int c = 0; c < kMainCategoryCount; ++c) {
    EXPECT_EQ(catalog().by_main(static_cast<MainCategory>(c)).size(),
              expected[c])
        << to_string(static_cast<MainCategory>(c));
  }
}

TEST(CatalogTest, EveryCategoryHasFatalSubcategories) {
  // Table 4 shows fatal events in every main category.
  for (int c = 0; c < kMainCategoryCount; ++c) {
    EXPECT_FALSE(
        catalog().fatal_by_main(static_cast<MainCategory>(c)).empty())
        << to_string(static_cast<MainCategory>(c));
  }
}

TEST(CatalogTest, PaperExamplesPresent) {
  // Every event name the paper cites (Table 3 examples + Figure 3 rules).
  for (const char* name :
       {"loadProgramFailure", "loginFailure", "nodemapCreateFailure",
        "socketReadFailure", "streamReadFailure", "alignmentFailure",
        "dataAddressFailure", "instructionAddressFailure",
        "cachePrefetchFailure", "dataReadFailure", "dataStoreFailure",
        "parityFailure", "linkcardFailure", "ciodSignalFailure",
        "midplaneServiceWarning", "ethernetFailure", "rtsFailure",
        "torusFailure", "torusConnectionErrorInfo",
        "nodecardDiscoveryError", "nodecardAssemblyWarning",
        "BGLMasterRestartInfo", "CMCScontrolInfo", "linkcardServiceWarning",
        "nodeMapFileError", "nodeMapError", "controlNetworkNMCSError",
        "nodeConnectionFailure", "ddrErrorCorrectionInfo", "maskInfo",
        "ciodRestartInfo", "midplaneStartInfo", "controlNetworkInfo",
        "rtsLinkFailure", "nodecardUPDMismatch",
        "nodecardAssemblySevereDiscovery", "nodecardFunctionalityWarning",
        "midplaneLinkcardRestartWarning", "coredumpCreated",
        "cacheFailure", "endServiceWarning"}) {
    EXPECT_NE(catalog().find(name), kUnclassified) << name;
  }
}

TEST(CatalogTest, NamesAreUnique) {
  std::set<std::string_view> names;
  for (const SubcategoryInfo& info : catalog().entries()) {
    EXPECT_TRUE(names.insert(info.name).second)
        << "duplicate name: " << info.name;
  }
}

TEST(CatalogTest, PhrasesArePairwiseNonSubstring) {
  // The classifier's longest-first matching assumes no phrase is a
  // substring of another phrase's generated text.
  const auto& entries = catalog().entries();
  for (const SubcategoryInfo& a : entries) {
    for (const SubcategoryInfo& b : entries) {
      if (a.id == b.id) {
        continue;
      }
      EXPECT_EQ(std::string_view(b.phrase).find(a.phrase),
                std::string_view::npos)
          << "'" << a.phrase << "' is a substring of '" << b.phrase << "'";
    }
  }
}

TEST(CatalogTest, SeverityNamingConvention) {
  // Names ending in "Failure" are fatal; Info/Warning names are not.
  for (const SubcategoryInfo& info : catalog().entries()) {
    const std::string name(info.name);
    if (name.size() > 7 && name.rfind("Failure") == name.size() - 7) {
      EXPECT_TRUE(info.fatal()) << name;
    }
    if (name.rfind("Info") != std::string::npos &&
        name.rfind("Info") == name.size() - 4) {
      EXPECT_EQ(info.severity, Severity::kInfo) << name;
    }
  }
}

TEST(CatalogTest, FatalAndNonFatalPartition) {
  EXPECT_EQ(catalog().fatal().size() + catalog().non_fatal().size(),
            catalog().size());
}

TEST(CatalogTest, FindUnknownReturnsUnclassified) {
  EXPECT_EQ(catalog().find("doesNotExist"), kUnclassified);
}

TEST(CatalogTest, InfoRejectsBadId) {
  EXPECT_THROW(catalog().info(static_cast<SubcategoryId>(10000)),
               InvalidArgument);
}

// ---- classifier -------------------------------------------------------------

TEST(ClassifierTest, ClassifiesEveryCatalogPhrase) {
  const EventClassifier classifier;
  for (const SubcategoryInfo& info : catalog().entries()) {
    const std::string text = std::string(info.phrase) + " seq=123";
    EXPECT_EQ(classifier.classify(text, info.facility, info.severity),
              info.id)
        << info.name;
  }
}

TEST(ClassifierTest, RecoversFromWrongFacility) {
  const EventClassifier classifier;
  const SubcategoryId torus = catalog().find("torusFailure");
  const std::string text =
      std::string(catalog().info(torus).phrase) + " detail";
  // Reported under the wrong facility: the cross-facility scan finds it.
  EXPECT_EQ(classifier.classify(text, Facility::kApp, Severity::kFatal),
            torus);
}

TEST(ClassifierTest, UnknownTextFallsBackWithinFacility) {
  const EventClassifier classifier;
  const SubcategoryId got = classifier.classify(
      "completely novel message text", Facility::kMemory, Severity::kInfo);
  ASSERT_NE(got, kUnclassified);
  EXPECT_EQ(catalog().info(got).facility, Facility::kMemory);
  EXPECT_EQ(catalog().info(got).main, MainCategory::kMemory);
}

TEST(ClassifierTest, FallbackPrefersMatchingSeverity) {
  const EventClassifier classifier;
  const SubcategoryId got = classifier.classify(
      "novel fatal memory text", Facility::kMemory, Severity::kFatal);
  EXPECT_TRUE(is_fatal(catalog().info(got).severity));
}

TEST(ClassifierTest, ClassifyAllFillsSubcategories) {
  const EventClassifier classifier;
  RasLog log;
  for (const SubcategoryInfo& info : catalog().entries()) {
    RasRecord rec;
    rec.time = 100;
    rec.facility = info.facility;
    rec.severity = info.severity;
    rec.location = bgl::Location::make_midplane(0, 0);
    log.append_with_text(rec, std::string(info.phrase) + " x=1");
  }
  const ClassificationStats stats = classifier.classify_all(log);
  EXPECT_EQ(stats.total, catalog().size());
  EXPECT_EQ(stats.classified_by_fallback, 0u);
  std::size_t categorized = 0;
  for (int c = 0; c < kMainCategoryCount; ++c) {
    categorized += stats.per_main[static_cast<std::size_t>(c)];
  }
  EXPECT_EQ(categorized, catalog().size());
  for (const RasRecord& rec : log.records()) {
    EXPECT_NE(rec.subcategory, kUnclassified);
  }
}

TEST(ClassificationMemoTest, ReclassifiesWhenFacilityOrSeverityChanges) {
  // One text under two (facility, severity) pairs: the memo must answer
  // each record as the classifier does, however the pairs alternate.
  const EventClassifier classifier;
  ClassificationMemo memo;
  memo.reset(1);
  const std::string_view text = "mystery event with no catalog phrase";
  const std::pair<Facility, Severity> keys[] = {
      {Facility::kKernel, Severity::kFatal},
      {Facility::kKernel, Severity::kFatal},
      {Facility::kApp, Severity::kInfo},
      {Facility::kKernel, Severity::kFatal},
      {Facility::kKernel, Severity::kInfo},
  };
  for (const auto& [facility, severity] : keys) {
    bool matched = true;
    bool want_matched = true;
    EXPECT_EQ(memo.classify(classifier, 0, text, facility, severity,
                            &matched),
              classifier.classify(text, facility, severity, &want_matched));
    EXPECT_EQ(matched, want_matched);
  }
  memo.reset(2);
  const SubcategoryInfo& info = catalog().entries().front();
  EXPECT_EQ(memo.classify(classifier, 1, info.phrase, info.facility,
                          info.severity),
            info.id);
}

}  // namespace
}  // namespace bglpred
