#include "core/race_report.hpp"

#include <algorithm>
#include <sstream>

#include "support/common.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"

namespace rader {

namespace {

/// Append `spec` to `specs` unless already present (specs stay in first-seen
/// order, so specs[0] == found_under for stamped reports).
void add_spec(std::vector<std::string>& specs, const std::string& spec) {
  if (spec.empty()) return;
  if (std::find(specs.begin(), specs.end(), spec) != specs.end()) return;
  specs.push_back(spec);
}

/// Fold a duplicate report into the stored one with the same identity.
template <class Race>
void fold_duplicate(Race& stored, const Race& r) {
  stored.occurrences += r.occurrences;
  add_spec(stored.eliciting_specs, r.found_under);
  for (const auto& s : r.eliciting_specs) add_spec(stored.eliciting_specs, s);
  if (stored.provenance_json.empty() && !r.provenance_json.empty()) {
    stored.provenance_json = r.provenance_json;
    stored.provenance_text = r.provenance_text;
  }
}

std::uint64_t label_hash(std::string_view label) {
  return std::hash<std::string_view>{}(label);
}

std::uint64_t view_read_hash(ReducerId reducer, std::string_view prior_label,
                             std::string_view current_label) {
  return mix64(hash_combine(hash_combine(reducer, label_hash(prior_label)),
                            label_hash(current_label)));
}

std::uint64_t determinacy_hash(std::uintptr_t addr, AccessKind kind,
                               bool view_aware, bool prior_was_write,
                               std::string_view label) {
  const std::uint64_t bits = (static_cast<std::uint64_t>(kind) << 2) |
                             (view_aware ? 2u : 0u) |
                             (prior_was_write ? 1u : 0u);
  return mix64(hash_combine(hash_combine(addr, bits), label_hash(label)));
}

}  // namespace

template <class Same>
std::uint32_t RaceLog::IdentityIndex::find(std::uint64_t hash,
                                           const Same& same) const {
  if (slots_.empty()) return kNone;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kNone) return kNone;
    if (slot.hash == hash && same(slot.id)) return slot.id;
  }
}

void RaceLog::IdentityIndex::insert(std::uint64_t hash, std::uint32_t id) {
  if (2 * (count_ + 1) > slots_.size()) {
    const std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<std::size_t>(16, 2 * old.size()), Slot{});
    for (const Slot& slot : old) {
      if (slot.id != kNone) place(slot);
    }
  }
  place({hash, id});
  ++count_;
}

void RaceLog::IdentityIndex::place(Slot slot) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = slot.hash & mask;
  while (slots_[i].id != kNone) i = (i + 1) & mask;
  slots_[i] = slot;
}

void RaceLog::IdentityIndex::clear() {
  slots_.clear();
  count_ = 0;
}

void RaceLog::absorb_view_read(const ViewReadRace& r) {
  const std::uint64_t hash =
      view_read_hash(r.reducer, r.prior_label, r.current_label);
  const std::uint32_t id =
      view_read_index_.find(hash, [&](std::uint32_t i) {
        const ViewReadKey& k = view_read_keys_[i];
        return k.reducer == r.reducer && k.prior_label == r.prior_label &&
               k.current_label == r.current_label;
      });
  if (id == IdentityIndex::kNone) {
    metrics::bump(metrics::Counter::kRacesReported);
    view_read_index_.insert(
        hash, static_cast<std::uint32_t>(view_read_keys_.size()));
    view_read_keys_.push_back({r.reducer, r.prior_label, r.current_label});
    if (view_read_races_.size() < max_stored_) {
      view_read_races_.push_back(r);
      add_spec(view_read_races_.back().eliciting_specs, r.found_under);
    }
    return;
  }
  metrics::bump(metrics::Counter::kRacesDeduped);
  // An id past the stored reports was dropped by the storage cap.
  if (id < view_read_races_.size()) fold_duplicate(view_read_races_[id], r);
}

std::uint32_t RaceLog::find_determinacy(std::uint64_t hash,
                                        std::uintptr_t addr, AccessKind kind,
                                        bool view_aware, bool prior_was_write,
                                        std::string_view label) const {
  return determinacy_index_.find(hash, [&](std::uint32_t i) {
    const DeterminacyKey& k = determinacy_keys_[i];
    return k.addr == addr && k.current_kind == kind &&
           k.current_view_aware == view_aware &&
           k.prior_was_write == prior_was_write && k.current_label == label;
  });
}

void RaceLog::add_determinacy(std::uint64_t hash, const DeterminacyRace& r) {
  metrics::bump(metrics::Counter::kRacesReported);
  determinacy_index_.insert(
      hash, static_cast<std::uint32_t>(determinacy_keys_.size()));
  determinacy_keys_.push_back({r.addr, r.current_kind, r.current_view_aware,
                               r.prior_was_write, r.current_label});
  if (determinacy_races_.size() < max_stored_) {
    determinacy_races_.push_back(r);
    add_spec(determinacy_races_.back().eliciting_specs, r.found_under);
  }
}

void RaceLog::absorb_determinacy(const DeterminacyRace& r) {
  const std::uint64_t hash =
      determinacy_hash(r.addr, r.current_kind, r.current_view_aware,
                       r.prior_was_write, r.current_label);
  const std::uint32_t id =
      find_determinacy(hash, r.addr, r.current_kind, r.current_view_aware,
                       r.prior_was_write, r.current_label);
  if (id == IdentityIndex::kNone) {
    add_determinacy(hash, r);
    return;
  }
  metrics::bump(metrics::Counter::kRacesDeduped);
  if (id < determinacy_races_.size()) fold_duplicate(determinacy_races_[id], r);
}

void RaceLog::report_view_read(const ViewReadRace& r) {
  view_read_count_ += r.occurrences;
  absorb_view_read(r);
}

void RaceLog::report_determinacy(const DeterminacyRace& r) {
  determinacy_count_ += r.occurrences;
  absorb_determinacy(r);
}

void RaceLog::report_determinacy(std::uintptr_t addr, AccessKind current_kind,
                                 bool current_view_aware, bool prior_was_write,
                                 FrameId prior_frame, FrameId current_frame,
                                 const char* label) {
  ++determinacy_count_;
  const std::string_view text(label);
  const std::uint64_t hash = determinacy_hash(
      addr, current_kind, current_view_aware, prior_was_write, text);
  const std::uint32_t id = find_determinacy(
      hash, addr, current_kind, current_view_aware, prior_was_write, text);
  if (id == IdentityIndex::kNone) {
    add_determinacy(hash, make_determinacy_race(
                              addr, current_kind, current_view_aware,
                              prior_was_write, prior_frame, current_frame,
                              std::string(text)));
    return;
  }
  metrics::bump(metrics::Counter::kRacesDeduped);
  if (id < determinacy_races_.size()) ++determinacy_races_[id].occurrences;
}

void RaceLog::merge(const RaceLog& other) {
  view_read_count_ += other.view_read_count_;
  determinacy_count_ += other.determinacy_count_;
  for (const auto& r : other.view_read_races_) absorb_view_read(r);
  for (const auto& r : other.determinacy_races_) absorb_determinacy(r);
}

void RaceLog::set_view_read_provenance(std::size_t index, std::string json,
                                       std::string text) {
  RADER_CHECK(index < view_read_races_.size());
  view_read_races_[index].provenance_json = std::move(json);
  view_read_races_[index].provenance_text = std::move(text);
}

void RaceLog::set_determinacy_provenance(std::size_t index, std::string json,
                                         std::string text) {
  RADER_CHECK(index < determinacy_races_.size());
  determinacy_races_[index].provenance_json = std::move(json);
  determinacy_races_[index].provenance_text = std::move(text);
}

void RaceLog::stamp_found_under(const std::string& spec_description) {
  for (auto& r : view_read_races_) {
    if (r.found_under.empty()) r.found_under = spec_description;
    if (r.eliciting_specs.empty()) r.eliciting_specs.push_back(spec_description);
  }
  for (auto& r : determinacy_races_) {
    if (r.found_under.empty()) r.found_under = spec_description;
    if (r.eliciting_specs.empty()) r.eliciting_specs.push_back(spec_description);
  }
}

void RaceLog::stamp_repro_file(const std::string& path) {
  for (auto& r : view_read_races_) {
    if (r.repro_file.empty()) r.repro_file = path;
  }
  for (auto& r : determinacy_races_) {
    if (r.repro_file.empty()) r.repro_file = path;
  }
}

namespace {

/// " [replay: SPEC]" plus, when the race was elicited under several specs,
/// " (+N more specs)" — the dedup layer's footprint in the text report.
void append_replay(std::ostringstream& os,
                   const std::string& found_under,
                   const std::vector<std::string>& specs) {
  if (found_under.empty()) return;
  os << " [replay: " << found_under << "]";
  if (specs.size() > 1) os << " (+" << specs.size() - 1 << " more specs)";
}

/// Indent and append a multi-line provenance rendering under a race line.
void append_provenance_text(std::ostringstream& os, const std::string& text) {
  if (text.empty()) return;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) os << "    " << line << "\n";
}

}  // namespace

std::string RaceLog::to_string() const {
  std::ostringstream os;
  os << "RaceLog: " << view_read_count_ << " view-read race occurrence(s) ("
     << view_read_races_.size() << " distinct report(s)), "
     << determinacy_count_ << " determinacy race occurrence(s) ("
     << determinacy_races_.size() << " distinct report(s))\n";
  for (const auto& r : view_read_races_) {
    os << "  view-read race on reducer #" << r.reducer << ": read at '"
       << r.prior_label << "' (frame " << r.prior_frame
       << ") has different peers than read at '" << r.current_label
       << "' (frame " << r.current_frame << ")";
    append_replay(os, r.found_under, r.eliciting_specs);
    os << "\n";
    append_provenance_text(os, r.provenance_text);
  }
  for (const auto& r : determinacy_races_) {
    os << "  determinacy race at 0x" << std::hex << r.addr << std::dec << ": "
       << (r.current_kind == AccessKind::kWrite ? "write" : "read") << " ('"
       << r.current_label << "', frame " << r.current_frame << ", "
       << (r.current_view_aware ? "view-aware" : "view-oblivious")
       << ") races with earlier "
       << (r.prior_was_write ? "write" : "read") << " by frame "
       << r.prior_frame;
    append_replay(os, r.found_under, r.eliciting_specs);
    os << "\n";
    append_provenance_text(os, r.provenance_text);
  }
  return os.str();
}

namespace {

void append_json_specs(std::ostringstream& os,
                       const std::vector<std::string>& specs) {
  os << ",\"eliciting_specs\":[";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i != 0) os << ',';
    os << json_quoted(specs[i]);
  }
  os << ']';
}

}  // namespace

std::string RaceLog::to_json() const {
  std::ostringstream os;
  os << "{\"view_read_occurrences\":" << view_read_count_
     << ",\"determinacy_occurrences\":" << determinacy_count_
     << ",\"view_read_races\":[";
  for (std::size_t i = 0; i < view_read_races_.size(); ++i) {
    const auto& r = view_read_races_[i];
    if (i != 0) os << ',';
    os << "{\"reducer\":" << r.reducer << ",\"prior_frame\":" << r.prior_frame
       << ",\"current_frame\":" << r.current_frame
       << ",\"occurrences\":" << r.occurrences << ",\"prior_label\":";
    os << json_quoted(r.prior_label);
    os << ",\"current_label\":";
    os << json_quoted(r.current_label);
    os << ",\"found_under\":";
    os << json_quoted(r.found_under);
    append_json_specs(os, r.eliciting_specs);
    if (!r.provenance_json.empty()) {
      os << ",\"provenance\":" << r.provenance_json;
    }
    if (!r.repro_file.empty()) {
      os << ",\"repro_file\":";
      os << json_quoted(r.repro_file);
    }
    os << '}';
  }
  os << "],\"determinacy_races\":[";
  for (std::size_t i = 0; i < determinacy_races_.size(); ++i) {
    const auto& r = determinacy_races_[i];
    if (i != 0) os << ',';
    os << "{\"addr\":" << r.addr << ",\"kind\":\""
       << (r.current_kind == AccessKind::kWrite ? "write" : "read")
       << "\",\"view_aware\":" << (r.current_view_aware ? "true" : "false")
       << ",\"prior_was_write\":" << (r.prior_was_write ? "true" : "false")
       << ",\"prior_frame\":" << r.prior_frame
       << ",\"current_frame\":" << r.current_frame
       << ",\"occurrences\":" << r.occurrences << ",\"label\":";
    os << json_quoted(r.current_label);
    os << ",\"found_under\":";
    os << json_quoted(r.found_under);
    append_json_specs(os, r.eliciting_specs);
    if (!r.provenance_json.empty()) {
      os << ",\"provenance\":" << r.provenance_json;
    }
    if (!r.repro_file.empty()) {
      os << ",\"repro_file\":";
      os << json_quoted(r.repro_file);
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

void RaceLog::clear() {
  view_read_count_ = 0;
  determinacy_count_ = 0;
  view_read_races_.clear();
  determinacy_races_.clear();
  view_read_keys_.clear();
  determinacy_keys_.clear();
  view_read_index_.clear();
  determinacy_index_.clear();
}

}  // namespace rader
