#include "reference_shadow.hpp"

#include <cstring>

#include "support/metrics.hpp"

namespace rader::shadow {

namespace {

void pages_live_delta(std::int64_t n) {
  if (n != 0) metrics::gauge_add(metrics::Gauge::kShadowPagesLive, n);
}

}  // namespace

ShadowSpace::ShadowSpace(ShadowSpace&& other) noexcept
    : pages_(std::move(other.pages_)),
      cached_key_(other.cached_key_),
      cached_page_(other.cached_page_),
      wcached_key_(other.wcached_key_),
      wcached_page_(other.wcached_page_) {
  // A moved-from map's contents are unspecified; force it empty so the
  // source's destructor counts nothing out.
  other.pages_.clear();
  other.cached_key_ = kNoKey;
  other.cached_page_ = nullptr;
  other.wcached_key_ = kNoKey;
  other.wcached_page_ = nullptr;
}

ShadowSpace& ShadowSpace::operator=(ShadowSpace&& other) noexcept {
  if (this != &other) {
    pages_live_delta(-static_cast<std::int64_t>(pages_.size()));
    pages_ = std::move(other.pages_);
    cached_key_ = other.cached_key_;
    cached_page_ = other.cached_page_;
    wcached_key_ = other.wcached_key_;
    wcached_page_ = other.wcached_page_;
    other.pages_.clear();
    other.cached_key_ = kNoKey;
    other.cached_page_ = nullptr;
    other.wcached_key_ = kNoKey;
    other.wcached_page_ = nullptr;
  }
  return *this;
}

ShadowSpace::~ShadowSpace() {
  pages_live_delta(-static_cast<std::int64_t>(pages_.size()));
}

ShadowSpace ShadowSpace::fork() const {
  wcached_key_ = kNoKey;
  wcached_page_ = nullptr;
  ShadowSpace f;
  f.pages_ = pages_;
  // The fork holds its own reference to every shared page: the gauge
  // counts mapped pages across live spaces, so shared pages count once
  // per holder (each holder will also count them out once).
  pages_live_delta(static_cast<std::int64_t>(f.pages_.size()));
  return f;
}

const ShadowSpace::Page* ShadowSpace::find_page(std::uintptr_t addr) {
  const std::uintptr_t key = page_key(addr);
  if (key == cached_key_) return cached_page_;
  auto it = pages_.find(key);
  if (it == pages_.end()) return nullptr;
  cached_key_ = key;
  cached_page_ = it->second.get();
  return cached_page_;
}

ShadowSpace::Page* ShadowSpace::writable_page(std::uintptr_t addr) {
  const std::uintptr_t key = page_key(addr);
  if (key == wcached_key_) return wcached_page_;
  auto it = pages_.find(key);
  if (it == pages_.end()) {
    metrics::bump(metrics::Counter::kShadowPagesTouched);
    metrics::gauge_add(metrics::Gauge::kShadowPagesLive, 1);
    auto page = std::make_shared<Page>();
    std::memset(page->cells, 0xff, sizeof(page->cells));  // all kEmpty
    it = pages_.emplace(key, std::move(page)).first;
  } else if (it->second.use_count() > 1) {
    // The page is shared with a fork: un-share before mutating.
    metrics::bump(metrics::Counter::kShadowPagesCoW);
    it->second = std::make_shared<Page>(*it->second);
  }
  Page* raw = it->second.get();
  // Keep the read cache coherent: it may point at the shared page this
  // space just replaced.
  cached_key_ = key;
  cached_page_ = raw;
  wcached_key_ = key;
  wcached_page_ = raw;
  return raw;
}

void ShadowSpace::clear() {
  pages_live_delta(-static_cast<std::int64_t>(pages_.size()));
  pages_.clear();
  cached_key_ = kNoKey;
  cached_page_ = nullptr;
  wcached_key_ = kNoKey;
  wcached_page_ = nullptr;
}

}  // namespace rader::shadow
