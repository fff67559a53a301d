#include "support/trace.hpp"

namespace rader::trace {

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kRunBegin: return "run-begin";
    case EventKind::kRunEnd: return "run-end";
    case EventKind::kFrameEnter: return "frame-enter";
    case EventKind::kFrameReturn: return "frame-return";
    case EventKind::kSync: return "sync";
    case EventKind::kSteal: return "steal";
    case EventKind::kReduceBegin: return "reduce-begin";
    case EventKind::kReduceEnd: return "reduce-end";
    case EventKind::kViewCreate: return "view-create";
    case EventKind::kViewDestroy: return "view-destroy";
    case EventKind::kReducerOp: return "reducer-op";
    case EventKind::kConflict: return "conflict";
  }
  return "unknown";
}

Buffer::Buffer(std::string name, std::size_t capacity)
    : name_(std::move(name)), capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_ < 1024 ? capacity_ : 1024);
}

void Buffer::record(const Event& e) {
  ++recorded_;
  if (size_ < capacity_) {
    if (ring_.size() < capacity_ && size_ == ring_.size()) {
      ring_.push_back(e);
    } else {
      ring_[(head_ + size_) % capacity_] = e;
    }
    ++size_;
    return;
  }
  // Full: overwrite the oldest slot and advance the head.
  ring_[head_] = e;
  head_ = (head_ + 1) % capacity_;
}

bool Buffer::note_conflict(std::uint64_t granule_key) {
  return conflict_granules_.insert(granule_key).second;
}

std::vector<Event> Buffer::ordered() const {
  std::vector<Event> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(head_ + i) % capacity_]);
  }
  return out;
}

std::size_t Buffer::copy_tail(Event* out, std::size_t max) const {
  // Clamp every index against what the ring actually holds: the owner
  // thread may have died between bumping size_ and growing ring_.
  std::size_t sz = size_ < ring_.size() ? size_ : ring_.size();
  if (sz > capacity_) sz = capacity_;
  const std::size_t n = sz < max ? sz : max;
  const std::size_t skip = sz - n;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = (head_ + skip + i) % capacity_;
    if (idx < ring_.size()) out[i] = ring_[idx];
  }
  return n;
}

Session::Session(std::size_t buffer_capacity)
    : buffer_capacity_(buffer_capacity) {}

Buffer* Session::make_buffer(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(
      std::make_unique<Buffer>(std::move(name), buffer_capacity_));
  Buffer* b = buffers_.back().get();
  // Side-channel publication for the crash handler (mu_ serializes the
  // index; the handler only ever loads).
  const unsigned idx = crash_count_.load(std::memory_order_relaxed);
  if (idx < kCrashSlots) {
    crash_slots_[idx].store(b, std::memory_order_release);
    crash_count_.store(idx + 1, std::memory_order_release);
  }
  return b;
}

unsigned Session::crash_buffers(const Buffer** out, unsigned max) const {
  unsigned n = crash_count_.load(std::memory_order_acquire);
  if (n > kCrashSlots) n = kCrashSlots;
  if (n > max) n = max;
  for (unsigned i = 0; i < n; ++i) {
    out[i] = crash_slots_[i].load(std::memory_order_acquire);
  }
  return n;
}

std::vector<const Buffer*> Session::buffers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Buffer*> out;
  out.reserve(buffers_.size());
  for (const auto& b : buffers_) out.push_back(b.get());
  return out;
}

std::uint64_t Session::total_recorded() const {
  std::uint64_t n = 0;
  for (const Buffer* b : buffers()) n += b->recorded();
  return n;
}

std::uint64_t Session::total_dropped() const {
  std::uint64_t n = 0;
  for (const Buffer* b : buffers()) n += b->dropped();
  return n;
}

}  // namespace rader::trace
