// Shared test helpers: an event-logging Tool and small program builders.
#pragma once

#include <cctype>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "tool/tool.hpp"

namespace rader::testing {

/// Records every instrumentation event as a compact string, e.g.
/// "enter(1,spawned,v0)", "steal(0,c1,v3)", "reduce(0,v0<-v3)".
class EventLogTool final : public Tool {
 public:
  const std::vector<std::string>& events() const { return events_; }

  std::string joined() const {
    std::string all;
    for (const auto& e : events_) {
      all += e;
      all += '\n';
    }
    return all;
  }

  /// Count of events whose string starts with `prefix`.
  int count_prefix(const std::string& prefix) const {
    int n = 0;
    for (const auto& e : events_) {
      if (e.rfind(prefix, 0) == 0) ++n;
    }
    return n;
  }

  void on_run_begin() override { events_.clear(); }

  void on_frame_enter(FrameId f, FrameId p, FrameKind kind,
                      ViewId vid) override {
    std::ostringstream os;
    os << "enter(" << f << ",from=" << static_cast<std::int64_t>(
        p == kInvalidFrame ? -1 : static_cast<std::int64_t>(p))
       << "," << kind_name(kind) << ",v" << vid << ")";
    events_.push_back(os.str());
  }
  void on_frame_return(FrameId f, FrameId, FrameKind kind) override {
    std::ostringstream os;
    os << "return(" << f << "," << kind_name(kind) << ")";
    events_.push_back(os.str());
  }
  void on_sync(FrameId f) override {
    events_.push_back("sync(" + std::to_string(f) + ")");
  }
  void on_steal(FrameId f, std::uint32_t c, ViewId vid) override {
    std::ostringstream os;
    os << "steal(" << f << ",c" << c << ",v" << vid << ")";
    events_.push_back(os.str());
  }
  void on_reduce(FrameId f, ViewId l, ViewId r) override {
    std::ostringstream os;
    os << "reduce(" << f << ",v" << l << "<-v" << r << ")";
    events_.push_back(os.str());
  }
  void on_access(AccessKind kind, std::uintptr_t, std::size_t size,
                 bool view_aware, ViewId vid, SrcTag tag) override {
    std::ostringstream os;
    os << (kind == AccessKind::kWrite ? "write(" : "read(") << size
       << (view_aware ? ",va" : ",vo") << ",v" << vid << "," << tag.label
       << ")";
    events_.push_back(os.str());
  }
  void on_reducer_op(ReducerOp op, ReducerId h, SrcTag) override {
    std::ostringstream os;
    os << "redop(" << op_name(op) << ",h" << h << ")";
    events_.push_back(os.str());
  }

 private:
  static const char* kind_name(FrameKind k) {
    switch (k) {
      case FrameKind::kRoot: return "root";
      case FrameKind::kSpawned: return "spawned";
      case FrameKind::kCalled: return "called";
      case FrameKind::kReduce: return "reduce";
    }
    return "?";
  }
  static const char* op_name(ReducerOp op) {
    switch (op) {
      case ReducerOp::kCreate: return "create";
      case ReducerOp::kSetValue: return "set";
      case ReducerOp::kGetValue: return "get";
      case ReducerOp::kDestroy: return "destroy";
      case ReducerOp::kUpdate: return "update";
      case ReducerOp::kCreateIdentity: return "identity";
      case ReducerOp::kReduce: return "reduce";
    }
    return "?";
  }

  std::vector<std::string> events_;
};

/// Strict JSON well-formedness check (RFC 8259 grammar; no extensions):
/// true iff `text` is exactly one JSON value, optionally padded by
/// whitespace.  Tests use it on every JSON writer's output.
class JsonChecker {
 public:
  static bool valid(std::string_view text) {
    JsonChecker c(text);
    return c.value() && (c.ws(), c.p_ == c.end_);
  }

 private:
  explicit JsonChecker(std::string_view t)
      : p_(t.data()), end_(t.data() + t.size()) {}

  void ws() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                         *p_ == '\r')) {
      ++p_;
    }
  }
  bool eat(char c) {
    ws();
    if (p_ == end_ || *p_ != c) return false;
    ++p_;
    return true;
  }
  bool literal(std::string_view word) {
    if (std::string_view(p_, static_cast<std::size_t>(end_ - p_))
            .substr(0, word.size()) != word) {
      return false;
    }
    p_ += word.size();
    return true;
  }
  bool digits() {
    const char* start = p_;
    while (p_ < end_ && *p_ >= '0' && *p_ <= '9') ++p_;
    return p_ != start;
  }
  bool number() {
    if (p_ < end_ && *p_ == '-') ++p_;
    if (!digits()) return false;
    if (p_ < end_ && *p_ == '.' && (++p_, !digits())) return false;
    if (p_ < end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ < end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      if (!digits()) return false;
    }
    return true;
  }
  bool string() {
    if (!eat('"')) return false;
    while (p_ < end_ && *p_ != '"') {
      const auto c = static_cast<unsigned char>(*p_++);
      if (c < 0x20) return false;
      if (c != '\\') continue;
      if (p_ == end_) return false;
      const char e = *p_++;
      if (e == 'u') {
        for (int i = 0; i < 4; ++i, ++p_) {
          if (p_ == end_ || !std::isxdigit(static_cast<unsigned char>(*p_))) {
            return false;
          }
        }
      } else if (std::string_view("\"\\/bfnrt").find(e) ==
                 std::string_view::npos) {
        return false;
      }
    }
    return p_ < end_ && *p_++ == '"';
  }
  template <class Item>
  bool list(char close, Item item) {
    if (eat(close)) return true;
    do {
      if (!item()) return false;
    } while (eat(','));
    return eat(close);
  }
  bool value() {
    ws();
    if (p_ == end_) return false;
    switch (*p_) {
      case '{':
        ++p_;
        return list('}', [this] { return string() && eat(':') && value(); });
      case '[':
        ++p_;
        return list(']', [this] { return value(); });
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  const char* p_;
  const char* end_;
};

}  // namespace rader::testing
