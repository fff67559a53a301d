// The access kernel shared by the range detectors (SP-bags, SP+, SP-order).
//
// All three check an access the same way: walk the granules the byte range
// covers; per granule, test the recorded writer (and, for a write, the
// recorded reader) for a race, report each race, and replace a recorded
// access the current one supersedes.  They differ only in what a recorded
// payload means, so each detector hands the kernel a policy: the current
// strand's payload and frame, plus `resolve(prior)`, which answers for one
// prior payload "does it race?", "is it replaced?" and "which frame made
// it?".  The kernel is a template, so the policy is statically dispatched.
//
// Per granule the kernel loads the reader and writer together (one slot
// load under the packed encoding).  Per access it resolves each DISTINCT
// prior payload once: an 8-byte access at byte granularity usually finds
// the same one or two priors in all eight granules, and each resolve costs
// a disjoint-set find (SP-bags, SP+) or an order-maintenance query
// (SP-order).  The memo is keyed by payload, never by granule, and it lives
// for one access only.  That is sound because nothing a resolve reads can
// change inside one access: bags merge and order-maintenance lists grow
// only on control events (spawn, sync, return, steal, reduce), never on an
// access, and a path-compressing find changes no set or its metadata.  The
// kernel's own shadow stores write the current strand's payload into the
// granule just checked, which no later granule of the same access reads.
//
// Races go to RaceLog's allocation-free report path: a race identity seen
// before only bumps counters.
#pragma once

#include <algorithm>
#include <cstdint>

#include "core/race_report.hpp"
#include "shadow/access_shadow.hpp"
#include "support/common.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace rader {

/// What a detector's policy says about one (non-empty) prior payload.
struct PriorFacts {
  bool races;     // the prior access races with the current one
  bool replace;   // the current access supersedes it in the shadow
  FrameId frame;  // frame of the prior access, for reports
};

/// A detector's side of the kernel.  `resolve(prior)` must return the same
/// facts for the same payload throughout one access.
template <class Resolve>
struct AccessPolicy {
  shadow::AccessShadow::Payload current;  // recorded when a prior is replaced
  FrameId frame;                          // current frame, for reports
  Resolve resolve;                        // PriorFacts(Payload prior)
};

namespace detail {

/// Per-access memo of resolved priors (see the file comment).
template <class Resolve>
class PriorMemo {
 public:
  using Payload = shadow::AccessShadow::Payload;

  explicit PriorMemo(Resolve& resolve) : resolve_(resolve) {}

  PriorFacts get(Payload prior) {
    if (prior == shadow::AccessShadow::kEmpty) return {false, true, 0};
    for (unsigned i = 0; i < kSlots; ++i) {
      if (keys_[i] == prior) return facts_[i];
    }
    const PriorFacts facts = resolve_(prior);
    const unsigned slot = next_++ % kSlots;
    keys_[slot] = prior;
    facts_[slot] = facts;
    return facts;
  }

 private:
  static constexpr unsigned kSlots = 4;
  Resolve& resolve_;
  Payload keys_[kSlots] = {shadow::AccessShadow::kEmpty,
                           shadow::AccessShadow::kEmpty,
                           shadow::AccessShadow::kEmpty,
                           shadow::AccessShadow::kEmpty};
  PriorFacts facts_[kSlots] = {};
  unsigned next_ = 0;
};

}  // namespace detail

/// Check one access of `size` bytes at `addr` against `shadow`, report its
/// races to `log` and record it.  `view_aware` only labels the reports;
/// the policy already encodes what view awareness changes.
template <class Resolve>
void detect_access(AccessPolicy<Resolve> policy, shadow::AccessShadow& shadow,
                   RaceLog& log, unsigned granule_bits, AccessKind kind,
                   std::uintptr_t addr, std::size_t size, bool view_aware,
                   const char* label) {
  if (size == 0) return;
  metrics::bump(metrics::Counter::kAccessesInstrumented);
  metrics::record(metrics::Histogram::kAccessBytes, size);
  detail::PriorMemo<Resolve> memo(policy.resolve);
  const bool is_write = kind == AccessKind::kWrite;
  const std::uint8_t flags =
      (is_write ? trace::kConflictWrite : 0) |
      (view_aware ? trace::kConflictViewAware : 0);
  const auto report = [&](std::uintptr_t g, std::uintptr_t b,
                          const PriorFacts& prior, bool prior_was_write) {
    trace::emit_conflict(
        policy.frame, g, b, prior.frame,
        flags | (prior_was_write ? trace::kConflictPriorWrite : 0), label);
    log.report_determinacy(b, kind, view_aware, prior_was_write, prior.frame,
                           policy.frame, label);
  };
  const std::uintptr_t first = addr >> granule_bits;
  const std::uintptr_t last = access_last_byte(addr, size) >> granule_bits;
  // `last` may be the top granule index; a `g <= last` condition would wrap
  // g past it and never terminate, so break after processing `last`.
  for (std::uintptr_t g = first;; ++g) {
    // Reported address: the first byte of THIS access within granule g (==
    // the byte itself when granule_bits=0), so distinct races inside one
    // granule keep distinct dedup identities.
    const std::uintptr_t b = std::max(addr, g << granule_bits);
    // Extent recorded alongside the id (diagnostic; reports use `b`).
    const unsigned off = static_cast<unsigned>(b - (g << granule_bits));
    const auto [r, w] = shadow.fields(g);
    const PriorFacts writer = memo.get(w);
    if (!is_write) {
      if (writer.races) report(g, b, writer, true);
      if (memo.get(r).replace) shadow.set_reader(g, policy.current, off);
    } else {
      const PriorFacts reader = memo.get(r);
      if (reader.races) report(g, b, reader, false);
      if (writer.races) report(g, b, writer, true);
      if (writer.replace) shadow.set_writer(g, policy.current, off);
    }
    if (g == last) break;
  }
}

/// Forget every recorded access to the `size` bytes at `addr`.
inline void detect_clear(shadow::AccessShadow& shadow, unsigned granule_bits,
                         std::uintptr_t addr, std::size_t size) {
  if (size == 0) return;
  const std::uintptr_t first = addr >> granule_bits;
  const std::uintptr_t last = access_last_byte(addr, size) >> granule_bits;
  for (std::uintptr_t g = first;; ++g) {
    shadow.clear_granule(g);
    if (g == last) break;
  }
}

}  // namespace rader
