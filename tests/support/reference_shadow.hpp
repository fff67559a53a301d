// Reference shadow memory for tests and benches — not part of the library.
//
// The detectors' production shadow is shadow::PackedShadow, walked one page
// run at a time by the access kernel (core/access_kernel.hpp).  This file
// keeps the encoding and the loop it replaced, as an independent oracle to
// diff against and a baseline to time against:
//
//  * ShadowSpace — a paged address -> uint32 payload map (one entry per
//    granule, an unordered_map page index, a one-page lookaside, and a
//    copy-on-write fork that copies the page map).
//  * ReferenceShadow — the legacy reader/writer encoding: a PAIR of
//    ShadowSpaces with the same logical interface as PackedShadow's
//    per-granule accessors (fields, set_reader, set_writer, clear_granule,
//    clear, fork).  It records no access extents.
//  * reference_detect_access / reference_detect_clear — the per-granule
//    kernel loop over a ReferenceShadow: two lookups per granule, every
//    prior resolved through the policy directly, every replaced field
//    stored.  Same contract and reports as detect_access / detect_clear.
//
// Forking: `fork()` produces a copy-on-write snapshot — both spaces share
// every current page and a page is copied only when one side first writes
// it after the fork.  A space and its forks must stay on one thread; the
// sharing is use_count-based, not atomic-publication-safe.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "core/access_kernel.hpp"
#include "support/common.hpp"

namespace rader::shadow {

/// Paged address → uint32 payload map with an "empty" sentinel.
class ShadowSpace {
 public:
  using Payload = std::uint32_t;
  static constexpr Payload kEmpty = static_cast<Payload>(-1);

  ShadowSpace() = default;

  // Shadow spaces are large; forbid accidental copies (fork() is the
  // explicit, copy-on-write way to duplicate one).  Moves and destruction
  // are spelled out so the shadow.pages_live gauge stays conserved: every
  // page reference a space holds was counted in (allocation or fork) and
  // must be counted out exactly once (clear, move-assign-over, destroy).
  ShadowSpace(const ShadowSpace&) = delete;
  ShadowSpace& operator=(const ShadowSpace&) = delete;
  ShadowSpace(ShadowSpace&& other) noexcept;
  ShadowSpace& operator=(ShadowSpace&& other) noexcept;
  ~ShadowSpace();

  /// Payload recorded for `addr`, or kEmpty if never set.
  Payload get(std::uintptr_t addr) {
    const Page* page = find_page(addr);
    return page ? page->cells[offset_in_page(addr)] : kEmpty;
  }

  /// Record `value` for `addr`.
  void set(std::uintptr_t addr, Payload value) {
    writable_page(addr)->cells[offset_in_page(addr)] = value;
  }

  /// Copy-on-write snapshot: the fork shares every current page with this
  /// space; whichever side writes a shared page first copies it (bumping
  /// metrics::Counter::kShadowPagesCoW).  Read caches stay valid on both
  /// sides (shared pages are immutable until un-shared); the write cache is
  /// dropped so the next write re-checks sharing.
  ShadowSpace fork() const;

  /// Number of lazily allocated pages (for tests and space accounting).
  std::size_t page_count() const { return pages_.size(); }

  /// Bytes of shadow currently allocated.
  std::size_t bytes() const { return pages_.size() * sizeof(Page); }

  /// Forget everything (keeps allocated capacity in the page index).
  void clear();

 private:
  static constexpr int kPageBits = 12;  // 4 KiB of address space per page
  static constexpr std::size_t kPageSize = std::size_t{1} << kPageBits;

  struct Page {
    Payload cells[kPageSize];
  };

  static std::uintptr_t page_key(std::uintptr_t addr) {
    return addr >> kPageBits;
  }
  static std::size_t offset_in_page(std::uintptr_t addr) {
    return addr & (kPageSize - 1);
  }

  const Page* find_page(std::uintptr_t addr);
  Page* writable_page(std::uintptr_t addr);

  static constexpr std::uintptr_t kNoKey = static_cast<std::uintptr_t>(-1);

  std::unordered_map<std::uintptr_t, std::shared_ptr<Page>> pages_;
  // Read lookaside: last page located (possibly still shared with a fork).
  std::uintptr_t cached_key_ = kNoKey;
  const Page* cached_page_ = nullptr;
  // Write lookaside: last page PROVEN exclusively owned.  Kept separate from
  // the read cache (and mutable, so fork() can drop it on a const source):
  // a write through a stale cached pointer into a shared page would leak the
  // mutation into every fork sharing it.
  mutable std::uintptr_t wcached_key_ = kNoKey;
  mutable Page* wcached_page_ = nullptr;
};

/// The legacy reader/writer encoding: two ShadowSpaces (see file header).
class ReferenceShadow {
 public:
  using Payload = ShadowSpace::Payload;
  using Fields = PackedShadow::Fields;
  static constexpr Payload kEmpty = ShadowSpace::kEmpty;

  ReferenceShadow() = default;
  ReferenceShadow(ReferenceShadow&&) noexcept = default;
  ReferenceShadow& operator=(ReferenceShadow&&) noexcept = default;

  Fields fields(std::uintptr_t g) { return {reader_.get(g), writer_.get(g)}; }
  /// `offset` is accepted for interface parity and ignored: the legacy
  /// entries have no room for an extent.
  void set_reader(std::uintptr_t g, Payload v, unsigned /*offset*/ = 0) {
    reader_.set(g, v);
  }
  void set_writer(std::uintptr_t g, Payload v, unsigned /*offset*/ = 0) {
    writer_.set(g, v);
  }
  void clear_granule(std::uintptr_t g) {
    reader_.set(g, kEmpty);
    writer_.set(g, kEmpty);
  }
  void clear() {
    reader_.clear();
    writer_.clear();
  }
  ReferenceShadow fork() const {
    ReferenceShadow f;
    f.reader_ = reader_.fork();
    f.writer_ = writer_.fork();
    return f;
  }
  std::size_t page_count() const {
    return reader_.page_count() + writer_.page_count();
  }

 private:
  ShadowSpace reader_;
  ShadowSpace writer_;
};

}  // namespace rader::shadow

namespace rader {

/// detect_access's reference: the per-granule loop over a ReferenceShadow.
template <class Resolve>
void reference_detect_access(AccessPolicy<Resolve> policy,
                             shadow::ReferenceShadow& shadow, RaceLog& log,
                             unsigned granule_bits, AccessKind kind,
                             std::uintptr_t addr, std::size_t size,
                             bool view_aware, const char* label) {
  if (size == 0) return;
  const auto facts = [&](shadow::ReferenceShadow::Payload prior) {
    return prior == shadow::ReferenceShadow::kEmpty
               ? PriorFacts{false, true, 0}
               : policy.resolve(prior);
  };
  const std::uintptr_t first = addr >> granule_bits;
  const std::uintptr_t last = access_last_byte(addr, size) >> granule_bits;
  for (std::uintptr_t g = first;; ++g) {
    const std::uintptr_t b = std::max(addr, g << granule_bits);
    const auto [r, w] = shadow.fields(g);
    const PriorFacts writer = facts(w);
    if (kind == AccessKind::kRead) {
      if (writer.races) {
        log.report_determinacy(b, kind, view_aware, true, writer.frame,
                               policy.frame, label);
      }
      if (facts(r).replace) shadow.set_reader(g, policy.current);
    } else {
      const PriorFacts reader = facts(r);
      if (reader.races) {
        log.report_determinacy(b, kind, view_aware, false, reader.frame,
                               policy.frame, label);
      }
      if (writer.races) {
        log.report_determinacy(b, kind, view_aware, true, writer.frame,
                               policy.frame, label);
      }
      if (writer.replace) shadow.set_writer(g, policy.current);
    }
    if (g == last) break;
  }
}

/// detect_clear's reference: empty every granule of the range.
inline void reference_detect_clear(shadow::ReferenceShadow& shadow,
                                   unsigned granule_bits, std::uintptr_t addr,
                                   std::size_t size) {
  if (size == 0) return;
  const std::uintptr_t first = addr >> granule_bits;
  const std::uintptr_t last = access_last_byte(addr, size) >> granule_bits;
  for (std::uintptr_t g = first;; ++g) {
    shadow.clear_granule(g);
    if (g == last) break;
  }
}

}  // namespace rader
