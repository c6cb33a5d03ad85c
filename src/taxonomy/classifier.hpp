// Hierarchical event categorization (Phase 1, step 1).
//
// Assigns each record a subcategory from the catalog by combining the
// FACILITY field with a phrase match against ENTRY_DATA, falling back to
// facility- and severity-based heuristics when the text matches no known
// phrase — mirroring the paper's use of LOCATION, FACILITY, and ENTRY_DATA
// for categorization.
#pragma once

#include <string_view>
#include <unordered_map>
#include <vector>

#include "raslog/log.hpp"
#include "taxonomy/catalog.hpp"

namespace bglpred {

/// Statistics from a classification pass.
struct ClassificationStats {
  std::size_t classified_by_phrase = 0;  ///< matched a catalog phrase
  std::size_t classified_by_fallback = 0;  ///< facility/severity heuristic
  std::size_t total = 0;

  /// Per-main-category record counts, indexed by MainCategory.
  std::vector<std::size_t> per_main =
      std::vector<std::size_t>(kMainCategoryCount, 0);
};

/// Stateless (after construction) classifier over the global catalog.
class EventClassifier {
 public:
  EventClassifier();

  /// Classifies a single entry-data text + facility pair; returns the
  /// subcategory id, or the facility fallback if no phrase matches.
  SubcategoryId classify(std::string_view entry_data, Facility facility,
                         Severity severity) const;

  /// Same, additionally reporting (when `matched_phrase` is non-null)
  /// whether a catalog phrase matched or the facility/severity fallback
  /// decided — the attribution classify_all tallies.
  SubcategoryId classify(std::string_view entry_data, Facility facility,
                         Severity severity, bool* matched_phrase) const;

  /// Streaming form of classify_all: stamps `rec.subcategory` from
  /// `entry_data` and accumulates `stats` exactly as one classify_all
  /// iteration would. Shared by classify_all and the fused ingest pass.
  void classify_record(std::string_view entry_data, RasRecord& rec,
                       ClassificationStats& stats) const;

  /// Classifies every record in the log in place (fills
  /// RasRecord::subcategory) and returns statistics: the stats of
  /// classify_record over every record, but each distinct (pool id,
  /// facility, severity) is classified once (ClassificationMemo).
  ClassificationStats classify_all(RasLog& log) const;

 private:
  SubcategoryId fallback(Facility facility, Severity severity) const;
  /// Adds one record of class `id` to `stats`.
  static void tally(ClassificationStats& stats, SubcategoryId id,
                    bool matched_phrase);

  // Phrase index: per facility, the (phrase, id) list to scan. Facility
  // narrows candidates so the text scan is short.
  std::vector<std::vector<std::pair<std::string_view, SubcategoryId>>>
      by_facility_;
};

/// One remembered classification per text id, for callers whose ids name
/// distinct texts (a log's pool ids, a run's text ids). A record's class
/// depends only on (text, facility, severity), so classify() returns the
/// remembered class when the id's last (facility, severity) matches and
/// runs the classifier otherwise: exact, and a text always seen with one
/// facility and severity is classified once per reset().
class ClassificationMemo {
 public:
  /// Forgets every id; ids [0, ids) become valid. Keeps its buffer.
  void reset(std::size_t ids) { slots_.assign(ids, Slot{}); }

  SubcategoryId classify(const EventClassifier& classifier, std::uint32_t id,
                         std::string_view text, Facility facility,
                         Severity severity, bool* matched_phrase = nullptr) {
    Slot& slot = slots_[id];
    if (!slot.known || slot.facility != facility ||
        slot.severity != severity) {
      slot.subcategory =
          classifier.classify(text, facility, severity, &slot.matched_phrase);
      slot.facility = facility;
      slot.severity = severity;
      slot.known = true;
    }
    if (matched_phrase != nullptr) {
      *matched_phrase = slot.matched_phrase;
    }
    return slot.subcategory;
  }

 private:
  struct Slot {
    SubcategoryId subcategory = kUnclassified;
    Facility facility = Facility::kApp;
    Severity severity = Severity::kInfo;
    bool matched_phrase = false;
    bool known = false;
  };
  std::vector<Slot> slots_;
};

}  // namespace bglpred
