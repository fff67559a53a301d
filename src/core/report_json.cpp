#include "core/report_json.hpp"

#include <algorithm>
#include <sstream>

#include "support/json.hpp"

namespace rader {

namespace {

void add_handle(std::vector<std::string>& handles, const std::string& h) {
  if (h.empty()) return;
  if (std::find(handles.begin(), handles.end(), h) != handles.end()) return;
  handles.push_back(h);
}

}  // namespace

std::vector<std::string> replay_handles(const RaceLog& log) {
  std::vector<std::string> handles;
  for (const auto& r : log.view_read_races()) add_handle(handles, r.found_under);
  for (const auto& r : log.determinacy_races()) {
    add_handle(handles, r.found_under);
  }
  return handles;
}

std::string report_json(const ReportMeta& meta, const RaceLog& log,
                        const metrics::Snapshot* metrics_snapshot) {
  std::ostringstream os;
  os << "{\"schema\":\"" << kReportSchemaName
     << "\",\"schema_version\":" << kReportSchemaVersion << ",\"program\":";
  os << json_quoted(meta.program);
  os << ",\"check\":";
  os << json_quoted(meta.check);
  if (!meta.spec.empty()) {
    os << ",\"spec\":";
    os << json_quoted(meta.spec);
  }
  if (meta.has_sweep) {
    os << ",\"sweep\":{\"jobs\":" << meta.jobs << ",\"budget\":" << meta.budget
       << ",\"stop_first\":" << (meta.stop_first ? "true" : "false")
       << ",\"k\":" << meta.k << ",\"depth\":" << meta.depth
       << ",\"spec_runs\":" << meta.spec_runs
       << ",\"specs_skipped\":" << meta.specs_skipped << ",\"failures\":[";
    for (std::size_t i = 0; i < meta.failures.size(); ++i) {
      const SweepFailure& f = meta.failures[i];
      if (i != 0) os << ',';
      os << "{\"spec\":";
      os << json_quoted(f.spec);
      os << ",\"index\":" << f.index << ",\"cause\":";
      os << json_quoted(f.cause);
      os << ",\"signal\":" << f.signal << ",\"retries\":" << f.retries
         << ",\"postmortem\":";
      os << json_quoted(f.postmortem);
      os << '}';
    }
    os << "]}";
  }
  os << ",\"races\":" << log.to_json();
  os << ",\"replay_handles\":[";
  const auto handles = replay_handles(log);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    if (i != 0) os << ',';
    os << json_quoted(handles[i]);
  }
  os << ']';
  if (metrics_snapshot != nullptr) {
    os << ",\"metrics\":" << metrics_snapshot->to_json();
  }
  os << '}';
  return os.str();
}

}  // namespace rader
