#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>
#include <unordered_map>
#include <utility>

#include "support/metrics.hpp"

namespace perfbench {
namespace {

struct OpenSpan {
  std::uint64_t id;
  std::uint64_t check;
};

// The calling thread's open spans, innermost last.
thread_local std::vector<OpenSpan> tl_open;

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t number = next.fetch_add(1);
  return number;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

SpanLog& spans() {
  static SpanLog log;
  return log;
}

std::uint64_t SpanLog::open(const std::string& name, std::uint64_t parent,
                            std::uint64_t check) {
  if (parent == kInherit) parent = tl_open.empty() ? 0 : tl_open.back().id;
  if (check == kInherit) check = tl_open.empty() ? 0 : tl_open.back().check;
  Span s;
  s.name = name;
  s.parent = parent;
  s.check = check;
  s.thread = thread_number();
  s.start_ns = rader::metrics::now_nanos();
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.id = spans_.size() + 1;
    spans_.push_back(std::move(s));
    tl_open.push_back({spans_.back().id, check});
  }
  return tl_open.back().id;
}

void SpanLog::close(std::uint64_t id, std::string counts) {
  const std::uint64_t now = rader::metrics::now_nanos();
  if (!tl_open.empty() && tl_open.back().id == id) tl_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[id - 1];
  s.end_ns = now;
  s.counts = std::move(counts);
}

void SpanLog::add_aggregate(const std::string& name, std::uint64_t parent,
                            std::uint64_t nanos) {
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.check = parent != 0 ? spans_[parent - 1].check : 0;
  s.thread = thread_number();
  s.start_ns = parent != 0 ? spans_[parent - 1].start_ns : 0;
  s.end_ns = s.start_ns + nanos;
  s.aggregate = true;
  spans_.push_back(std::move(s));
}

std::uint64_t SpanLog::next_check() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_check_++;
}

std::vector<Span> SpanLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  for (const Span& s : snapshot()) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"check\":" << s.check << ",\"name\":\"" << json_escape(s.name)
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"thread\":" << s.thread
        << ",\"aggregate\":" << (s.aggregate ? "true" : "false");
    if (!s.counts.empty()) out << ",\"counts\":" << s.counts;
    out << "}\n";
  }
  return static_cast<bool>(out);
}

SpanScope::SpanScope(const std::string& name, std::uint64_t parent,
                     std::uint64_t check)
    : id_(spans().open(name, parent, check)) {}

SpanScope::~SpanScope() { spans().close(id_, std::move(counts_)); }

std::vector<SelfTimeRow> self_times(const std::vector<Span>& all) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : all) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SelfTimeRow> rows;
  for (const Span& s : all) {
    const std::uint64_t dur = s.end_ns - s.start_ns;
    std::uint64_t covered = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
    for (const Span* c : children[s.id]) {
      if (c->aggregate) {
        covered += c->end_ns - c->start_ns;
      } else {
        intervals.emplace_back(std::max(c->start_ns, s.start_ns),
                               std::min(c->end_ns, s.end_ns));
      }
    }
    // Union of the (possibly overlapping, multi-thread) child intervals.
    std::sort(intervals.begin(), intervals.end());
    std::uint64_t cur_lo = 0, cur_hi = 0;
    for (const auto& [lo, hi] : intervals) {
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    covered += cur_hi - cur_lo;
    SelfTimeRow& row = rows[s.name];
    row.name = s.name;
    ++row.count;
    row.total_s += static_cast<double>(dur) * 1e-9;
    row.self_s += static_cast<double>(dur - std::min(dur, covered)) * 1e-9;
  }
  std::vector<SelfTimeRow> out;
  for (auto& [name, row] : rows) out.push_back(row);
  return out;
}

}  // namespace perfbench
