#include "raslog/record_run.hpp"

#include <algorithm>

#include "common/hash.hpp"

namespace bglpred {

namespace {
constexpr std::size_t kMinSlots = 16;
}  // namespace

void RecordRunBuilder::clear() {
  records_.clear();
  text_ids_.clear();
  texts_.clear();
  if (++generation_ == (std::uint64_t{1} << 32)) {
    // Stamps are 32 bits wide: start over with every slot empty.
    std::fill(slots_.begin(), slots_.end(), 0);
    generation_ = 1;
  }
}

// bgl:hot-begin(record-run)
// Per record of every SUBMIT: a compare with the previous record's text,
// else one hash of the entry text and a probe of a table sized to the
// frame; a text's bytes are compared only when its hash matches.
std::size_t RecordRunBuilder::probe(std::string_view text,
                                    std::uint64_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = static_cast<std::size_t>(hash) & mask;;
       i = (i + 1) & mask) {
    const std::uint64_t slot = slots_[i];
    if ((slot >> 32) != generation_) {
      return i;
    }
    const RunText& known = texts_[static_cast<std::uint32_t>(slot) - 1];
    if (known.hash == hash && known.text == text) {
      return i;
    }
  }
}

void RecordRunBuilder::add(const RasRecord& record, std::string_view text) {
  // A text equal to the previous record's gets that record's id, which
  // is what the probe would find; runs of repeated texts skip the hash.
  if (!text_ids_.empty()) {
    const std::uint32_t previous = text_ids_.back();
    if (texts_[previous].text == text) {
      text_ids_.push_back(previous);
      records_.push_back(record);
      return;
    }
  }
  if (2 * (texts_.size() + 1) > slots_.size()) {
    grow();
  }
  const std::uint64_t hash = stable_hash64(text);
  std::uint64_t& slot = slots_[probe(text, hash)];
  if ((slot >> 32) != generation_) {
    texts_.push_back(RunText{text, hash});
    slot = generation_ << 32 | texts_.size();
  }
  text_ids_.push_back(static_cast<std::uint32_t>(slot) - 1);
  records_.push_back(record);
}
// bgl:hot-end

void RecordRunBuilder::grow() {
  slots_.assign(std::max(kMinSlots, 2 * slots_.size()), 0);
  for (std::size_t id = 0; id < texts_.size(); ++id) {
    slots_[probe(texts_[id].text, texts_[id].hash)] =
        generation_ << 32 | (id + 1);
  }
}

}  // namespace bglpred
