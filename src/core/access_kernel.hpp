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
// The shadow is one shadow::PackedShadow: reader and writer share a 64-bit
// slot, and a page holds 4096 consecutive granules.  The kernel splits the
// granule range [first, last] at page boundaries and walks it one page run
// at a time:
//  * one read_run lookup per run; slots are then decoded, checked and
//    re-encoded inline with PackedShadow's static codecs;
//  * a slot is stored only when its value changes, and write_run (which
//    may allocate, un-share or reset the page) is called at the first such
//    store of the run; later granules of the run read and write through
//    the pointer it returned.  A race-free re-access by the same strand
//    therefore writes nothing and copies no fork-shared page;
//  * the current payload is encoded (and checked against the 28-bit field)
//    once per access.
//
// Per access the kernel also resolves each DISTINCT prior payload once: an
// 8-byte access at byte granularity usually finds the same one or two
// priors in all eight granules, and each resolve costs a disjoint-set find
// (SP-bags, SP+) or an order-maintenance query (SP-order).  The memo is
// keyed by payload, never by granule, and it lives for one access only; a
// granule whose slot equals the previous granule's reuses its facts without
// asking the memo.  That is sound because nothing a resolve reads can
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
#include "shadow/packed_shadow.hpp"
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
  shadow::PackedShadow::Payload current;  // recorded when a prior is replaced
  FrameId frame;                          // current frame, for reports
  Resolve resolve;                        // PriorFacts(Payload prior)
};

namespace detail {

/// Per-access memo of resolved priors (see the file comment).
template <class Resolve>
class PriorMemo {
 public:
  using Payload = shadow::PackedShadow::Payload;

  explicit PriorMemo(Resolve& resolve) : resolve_(resolve) {}

  PriorFacts get(Payload prior) {
    if (prior == shadow::PackedShadow::kEmpty) return {false, true, 0};
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
  Payload keys_[kSlots] = {shadow::PackedShadow::kEmpty,
                           shadow::PackedShadow::kEmpty,
                           shadow::PackedShadow::kEmpty,
                           shadow::PackedShadow::kEmpty};
  PriorFacts facts_[kSlots] = {};
  unsigned next_ = 0;
};

/// Call `run(g, n)` for each page run of the granule range [first, last],
/// in order.  `last` may be the top granule index, so the walk never
/// computes a granule past it.
template <class Run>
void for_each_page_run(std::uintptr_t first, std::uintptr_t last, Run run) {
  for (std::uintptr_t g = first;;) {
    const std::uintptr_t page_last =
        g | (shadow::PackedShadow::kPageSlots - 1);
    const std::uintptr_t run_last = std::min(last, page_last);
    run(g, static_cast<std::size_t>(run_last - g) + 1);
    if (run_last == last) return;
    g = run_last + 1;
  }
}

}  // namespace detail

/// Check one access of `size` bytes at `addr` against `shadow`, report its
/// races to `log` and record it.  `view_aware` only labels the reports;
/// the policy already encodes what view awareness changes.
template <class Resolve>
void detect_access(AccessPolicy<Resolve> policy, shadow::PackedShadow& shadow,
                   RaceLog& log, unsigned granule_bits, AccessKind kind,
                   std::uintptr_t addr, std::size_t size, bool view_aware,
                   const char* label) {
  using Shadow = shadow::PackedShadow;
  using Slot = Shadow::Slot;
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
  const Slot current = Shadow::encode_field(policy.current);
  const std::uintptr_t first = addr >> granule_bits;
  const std::uintptr_t last = access_last_byte(addr, size) >> granule_bits;
  // Facts of the previous granule's slot (the memo's answers for its
  // reader and writer), reused while consecutive slots are equal.  They
  // start as an empty slot's.
  Slot prev = Shadow::kEmptySlot;
  PriorFacts reader = memo.get(Shadow::kEmpty);
  PriorFacts writer = reader;
  detail::for_each_page_run(first, last, [&](std::uintptr_t g0,
                                             std::size_t n) {
    const Slot* in = shadow.read_run(g0);
    Slot* out = nullptr;  // set by the run's first changed slot
    for (std::size_t i = 0; i < n; ++i) {
      const std::uintptr_t g = g0 + i;
      const Slot slot = in != nullptr ? in[i] : Shadow::kEmptySlot;
      if (slot != prev) {
        const Shadow::Fields f = Shadow::decode_fields(slot);
        writer = memo.get(f.writer);
        reader = memo.get(f.reader);
        prev = slot;
      }
      // Reported address: the first byte of THIS access within granule g
      // (== the byte itself when granule_bits=0), so distinct races inside
      // one granule keep distinct dedup identities.
      const std::uintptr_t b = std::max(addr, g << granule_bits);
      // Extent recorded alongside the id (diagnostic; reports use `b`).
      const unsigned off = static_cast<unsigned>(b - (g << granule_bits));
      Slot next = slot;
      if (!is_write) {
        if (writer.races) report(g, b, writer, true);
        if (reader.replace) next = Shadow::with_reader(slot, current, off);
      } else {
        if (reader.races) report(g, b, reader, false);
        if (writer.races) report(g, b, writer, true);
        if (writer.replace) next = Shadow::with_writer(slot, current, off);
      }
      if (next == slot) continue;
      if (out == nullptr) {
        out = shadow.write_run(g0);
        in = out;
      }
      out[i] = next;
    }
  });
}

/// Forget every recorded access to the `size` bytes at `addr`.
inline void detect_clear(shadow::PackedShadow& shadow, unsigned granule_bits,
                         std::uintptr_t addr, std::size_t size) {
  if (size == 0) return;
  const std::uintptr_t first = addr >> granule_bits;
  const std::uintptr_t last = access_last_byte(addr, size) >> granule_bits;
  detail::for_each_page_run(first, last, [&](std::uintptr_t g, std::size_t n) {
    shadow.clear_run(g, n);
  });
}

}  // namespace rader
