// Reader/writer shadow facade over the two slot encodings.
//
// The detectors used to own a PAIR of shadow::ShadowSpace instances
// (reader + writer).  AccessShadow keeps that logical interface — two
// uint32 payload maps with kEmpty sentinels — but routes it to one of:
//
//  * SlotEncoding::kPacked — a single PackedShadow whose 64-bit slots
//    hold both fields plus the access extent (packed_shadow.hpp).  The
//    production default: one lookup per granule instead of two, array-
//    indexed chunk pages instead of hash probes, O(1) epoch clear.
//  * SlotEncoding::kLegacy — the original pair of ShadowSpaces, kept
//    alive as the reference implementation the shadow-equivalence
//    battery (tests/shadow/shadow_equivalence_test.cpp) diffs against.
//
// Both encodings normalize "no payload" to kEmpty = uint32(-1), so
// detector comparisons (and therefore race reports) are identical by
// construction; the battery proves it byte-for-byte on random programs.
//
// The extent offsets are recorded only by the packed backend (the legacy
// slots have no room); callers must treat them as diagnostics, never as
// report inputs — see the granularity regression tests.
#pragma once

#include <cstdint>

#include "shadow/packed_shadow.hpp"
#include "shadow/shadow_space.hpp"

namespace rader::shadow {

enum class SlotEncoding : int {
  kPacked = 0,  // production: combined 8-byte slots
  kLegacy = 1,  // reference: paired ShadowSpaces
};

/// Process-wide default used by AccessShadow's default constructor.
/// Set by tests/benches before constructing detectors; detectors built
/// concurrently with a change may see either value (atomic, relaxed).
SlotEncoding default_encoding();
void set_default_encoding(SlotEncoding encoding);

/// Two logical payload maps (reader + writer) behind one interface.
/// Same single-thread ownership contract as the backends: a facade and
/// its forks stay on one thread.
class AccessShadow {
 public:
  using Payload = std::uint32_t;
  static constexpr Payload kEmpty = static_cast<Payload>(-1);
  /// Largest id storable under EITHER encoding (the packed field is the
  /// binding constraint).
  static constexpr Payload kMaxPayload = PackedShadow::kMaxPayload;

  AccessShadow() : AccessShadow(default_encoding()) {}
  explicit AccessShadow(SlotEncoding encoding) : enc_(encoding) {}
  AccessShadow(const AccessShadow&) = delete;
  AccessShadow& operator=(const AccessShadow&) = delete;
  AccessShadow(AccessShadow&&) noexcept = default;
  AccessShadow& operator=(AccessShadow&&) noexcept = default;

  SlotEncoding encoding() const { return enc_; }

  /// Reader and writer of granule `g` (kEmpty when unset): one slot load
  /// under kPacked.
  using Fields = PackedShadow::Fields;
  Fields fields(std::uintptr_t g) {
    if (enc_ == SlotEncoding::kPacked) return packed_.fields(g);
    return {legacy_reader_.get(g), legacy_writer_.get(g)};
  }

  /// `offset` is the first byte of the access within granule `g`;
  /// recorded (clamped) by the packed backend, ignored by the legacy one.
  void set_reader(std::uintptr_t g, Payload v, unsigned offset = 0) {
    if (enc_ == SlotEncoding::kPacked) {
      packed_.set_reader(g, v, offset);
    } else {
      legacy_reader_.set(g, v);
    }
  }
  void set_writer(std::uintptr_t g, Payload v, unsigned offset = 0) {
    if (enc_ == SlotEncoding::kPacked) {
      packed_.set_writer(g, v, offset);
    } else {
      legacy_writer_.set(g, v);
    }
  }

  /// Reset both fields of one granule (the detectors' on_clear path).
  void clear_granule(std::uintptr_t g) {
    if (enc_ == SlotEncoding::kPacked) {
      packed_.clear_granule(g);
    } else {
      legacy_reader_.set(g, kEmpty);
      legacy_writer_.set(g, kEmpty);
    }
  }

  /// Bulk clear: O(1) under kPacked (epoch bump), page walk under kLegacy.
  void clear() {
    if (enc_ == SlotEncoding::kPacked) {
      packed_.clear();
    } else {
      legacy_reader_.clear();
      legacy_writer_.clear();
    }
  }

  /// Copy-on-write snapshot (both encodings share pages with the source).
  AccessShadow fork() const;

  /// Shadow pages referenced by this facade (both backends' accounting).
  std::size_t page_count() const {
    return enc_ == SlotEncoding::kPacked
               ? packed_.page_count()
               : legacy_reader_.page_count() + legacy_writer_.page_count();
  }

 private:
  SlotEncoding enc_;
  PackedShadow packed_;
  ShadowSpace legacy_reader_;
  ShadowSpace legacy_writer_;
};

}  // namespace rader::shadow
