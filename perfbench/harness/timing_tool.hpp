// TimingTool: a forwarding Tool that times the wrapped detector's
// callbacks by class.
//
// The traced run puts one in front of each detector it drives (SP+,
// Peer-Set, or the empty tool), so per-class callback time becomes a
// per-layer metric without touching the detectors themselves.  Classes:
//   access      on_access
//   control     run begin/end, frame enter/return, sync, steal, reduce
//   reducer-op  on_reducer_op
//   clear       on_clear
//
// fork() wraps `inner->fork(log)` in a new TimingTool that adds into the
// same Totals, so a checkpointed execution resumed from a fork keeps being
// timed (Tool::fork, runtime/serial_engine.hpp's resume_from).  The
// wrapper only observes: the race log it produces is the inner detector's.
#pragma once

#include <cstdint>
#include <memory>

#include "support/metrics.hpp"
#include "tool/tool.hpp"

namespace perfbench {

class TimingTool final : public rader::Tool {
 public:
  enum Class : unsigned { kAccess, kControl, kReducerOp, kClear, kClasses };

  struct Totals {
    std::uint64_t nanos[kClasses] = {};
    std::uint64_t events[kClasses] = {};

    std::uint64_t all_nanos() const {
      return nanos[kAccess] + nanos[kControl] + nanos[kReducerOp] +
             nanos[kClear];
    }
    std::uint64_t all_events() const {
      return events[kAccess] + events[kControl] + events[kReducerOp] +
             events[kClear];
    }
  };

  /// Time `inner` (not owned) into `totals`.
  TimingTool(rader::Tool* inner, Totals* totals)
      : inner_(inner), totals_(totals) {}

  std::unique_ptr<rader::Tool> fork(rader::RaceLog* log) const override {
    std::unique_ptr<rader::Tool> inner = inner_->fork(log);
    if (!inner) return nullptr;
    auto clone = std::make_unique<TimingTool>(inner.get(), totals_);
    clone->owned_ = std::move(inner);
    return clone;
  }

  void on_run_begin() override {
    Timed t(this, kControl);
    inner_->on_run_begin();
  }
  void on_run_end() override {
    Timed t(this, kControl);
    inner_->on_run_end();
  }
  void on_frame_enter(rader::FrameId f, rader::FrameId p, rader::FrameKind k,
                      rader::ViewId v) override {
    Timed t(this, kControl);
    inner_->on_frame_enter(f, p, k, v);
  }
  void on_frame_return(rader::FrameId f, rader::FrameId p,
                       rader::FrameKind k) override {
    Timed t(this, kControl);
    inner_->on_frame_return(f, p, k);
  }
  void on_sync(rader::FrameId f) override {
    Timed t(this, kControl);
    inner_->on_sync(f);
  }
  void on_steal(rader::FrameId f, std::uint32_t c, rader::ViewId v) override {
    Timed t(this, kControl);
    inner_->on_steal(f, c, v);
  }
  void on_reduce(rader::FrameId f, rader::ViewId l, rader::ViewId r) override {
    Timed t(this, kControl);
    inner_->on_reduce(f, l, r);
  }
  void on_access(rader::AccessKind k, std::uintptr_t a, std::size_t s,
                 bool va, rader::ViewId v, rader::SrcTag tag) override {
    Timed t(this, kAccess);
    inner_->on_access(k, a, s, va, v, tag);
  }
  void on_reducer_op(rader::ReducerOp op, rader::ReducerId h,
                     rader::SrcTag tag) override {
    Timed t(this, kReducerOp);
    inner_->on_reducer_op(op, h, tag);
  }
  void on_clear(std::uintptr_t addr, std::size_t size) override {
    Timed t(this, kClear);
    inner_->on_clear(addr, size);
  }

 private:
  struct Timed {
    Timed(TimingTool* tool, Class c)
        : totals(tool->totals_), cls(c),
          start(rader::metrics::now_nanos()) {}
    ~Timed() {
      totals->nanos[cls] += rader::metrics::now_nanos() - start;
      ++totals->events[cls];
    }
    Totals* totals;
    Class cls;
    std::uint64_t start;
  };

  rader::Tool* inner_;
  Totals* totals_;
  std::unique_ptr<rader::Tool> owned_;  // set on forks only
};

}  // namespace perfbench
