#include "taxonomy/classifier.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace bglpred {

EventClassifier::EventClassifier() : by_facility_(kFacilityCount) {
  for (const SubcategoryInfo& info : catalog().entries()) {
    by_facility_[static_cast<std::size_t>(info.facility)].emplace_back(
        info.phrase, info.id);
  }
  // Longest phrase first so a more specific phrase wins if one phrase is
  // (accidentally) a substring of an entry that also contains another.
  for (auto& list : by_facility_) {
    std::sort(list.begin(), list.end(), [](const auto& a, const auto& b) {
      return a.first.size() > b.first.size();
    });
  }
}

SubcategoryId EventClassifier::classify(std::string_view entry_data,
                                        Facility facility,
                                        Severity severity) const {
  return classify(entry_data, facility, severity, nullptr);
}

SubcategoryId EventClassifier::classify(std::string_view entry_data,
                                        Facility facility, Severity severity,
                                        bool* matched_phrase) const {
  if (matched_phrase != nullptr) {
    *matched_phrase = true;
  }
  for (const auto& [phrase, id] :
       by_facility_[static_cast<std::size_t>(facility)]) {
    if (entry_data.find(phrase) != std::string_view::npos) {
      return id;
    }
  }
  // Unknown text: try phrases from all facilities (the facility field is
  // occasionally wrong in real logs), then fall back.
  for (const auto& list : by_facility_) {
    for (const auto& [phrase, id] : list) {
      if (entry_data.find(phrase) != std::string_view::npos) {
        return id;
      }
    }
  }
  if (matched_phrase != nullptr) {
    *matched_phrase = false;
  }
  return fallback(facility, severity);
}

void EventClassifier::classify_record(std::string_view entry_data,
                                      RasRecord& rec,
                                      ClassificationStats& stats) const {
  bool matched_phrase = false;
  rec.subcategory =
      classify(entry_data, rec.facility, rec.severity, &matched_phrase);
  tally(stats, rec.subcategory, matched_phrase);
}

void EventClassifier::tally(ClassificationStats& stats, SubcategoryId id,
                            bool matched_phrase) {
  if (matched_phrase) {
    ++stats.classified_by_phrase;
  } else {
    ++stats.classified_by_fallback;
  }
  ++stats.total;
  ++stats.per_main[static_cast<std::size_t>(catalog().info(id).main)];
}

SubcategoryId EventClassifier::fallback(Facility facility,
                                        Severity severity) const {
  // Pick, within the facility's subcategories, the one whose severity is
  // closest to the record's; ties resolved by catalog order. If the
  // facility has no subcategories (cannot happen with the shipped
  // catalog), fall back to the Other catch-all.
  const auto& candidates =
      by_facility_[static_cast<std::size_t>(facility)];
  SubcategoryId best = kUnclassified;
  int best_gap = 1 << 30;
  for (const auto& [phrase, id] : candidates) {
    (void)phrase;
    const int gap =
        std::abs(static_cast<int>(catalog().info(id).severity) -
                 static_cast<int>(severity));
    if (gap < best_gap) {
      best_gap = gap;
      best = id;
    }
  }
  if (best != kUnclassified) {
    return best;
  }
  return catalog().by_main(MainCategory::kOther).front();
}

ClassificationStats EventClassifier::classify_all(RasLog& log) const {
  ClassificationStats stats;
  ClassificationMemo memo;
  memo.reset(log.pool().size());
  for (RasRecord& rec : log.mutable_records()) {
    bool matched_phrase = false;
    rec.subcategory =
        memo.classify(*this, rec.entry_data, log.text_of(rec), rec.facility,
                      rec.severity, &matched_phrase);
    tally(stats, rec.subcategory, matched_phrase);
  }
  return stats;
}

}  // namespace bglpred
