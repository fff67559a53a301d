// Packed-slot page-run kernel versus the legacy per-granule reference.
//
// The range detectors check every access through detect_access /
// detect_clear (core/access_kernel.hpp), which walk a shadow::PackedShadow
// one page run at a time and store a slot only when it changes.  The
// reference (tests/support/reference_shadow.hpp) is the loop that kernel
// replaced: two ShadowSpace lookups per granule and a store for every
// replaced field.  The kernel promises the same races and the same recorded
// ids for every op stream; this battery diffs the two:
//
//  * KernelDifferential — random op streams under a scripted policy:
//    accesses of 1–64 bytes and multi-page ranges, anchored on page and
//    chunk boundaries and at the top of the address space (the `g == last`
//    wrap guard), interleaved with range clears, bulk clear(), fork() and
//    writes to forks.  After EVERY op the two RaceLog::to_json() strings
//    and every touched granule's reader and writer must match.
//  * ShadowEncodingEquivalence — the seeded Section-7 corpus (the shape of
//    tests/core/sweep_equivalence_test.cpp, widened so its accesses are
//    1–64 bytes and straddle page runs, plus multi-page accesses and
//    clears).  A tee tool replays every family member's event stream into
//    both kernels at jobs 1 and 4; the production SP+ sweep on the same
//    corpus must also be byte-identical between the rerun strategy and the
//    prefix strategy, whose checkpoint forks share pages copy-on-write.
//
// Sizes scale with RADER_SHADOW_EQ_PROGRAMS (default: the compile-time
// RADER_SHADOW_EQ_DEFAULT; the fast gate builds this file with 50, the
// stress target with 300).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/access_kernel.hpp"
#include "core/sweep.hpp"
#include "reducers/monoid.hpp"
#include "reducers/reducer.hpp"
#include "reference_shadow.hpp"
#include "runtime/api.hpp"
#include "runtime/serial_engine.hpp"
#include "shadow/packed_shadow.hpp"
#include "spec/spec_family.hpp"
#include "spec/steal_spec.hpp"
#include "support/hash.hpp"
#include "tool/tool.hpp"

#ifndef RADER_SHADOW_EQ_DEFAULT
#define RADER_SHADOW_EQ_DEFAULT 300
#endif

namespace rader {
namespace {

using shadow::PackedShadow;
using shadow::ReferenceShadow;
using Payload = PackedShadow::Payload;

int program_count() {
  if (const char* env = std::getenv("RADER_SHADOW_EQ_PROGRAMS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return RADER_SHADOW_EQ_DEFAULT;
}

struct Rng {
  std::uint64_t state;
  std::uint64_t next() {  // splitmix64
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z ^= z >> 30;
    z *= 0xBF58476D1CE4E5B9ull;
    z ^= z >> 27;
    z *= 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// A scripted detector policy: a strand's own priors are in series
/// (replaced, never racing); any other prior races or is replaced as a
/// hash of (prior, current strand, salt) says.  Pure within an access, as
/// the kernel requires.
struct ScriptedResolve {
  Payload current;
  std::uint64_t salt;
  PriorFacts operator()(Payload prior) const {
    if (prior == current) return {false, true, prior};
    const std::uint64_t h =
        mix64((std::uint64_t{prior} << 32) ^ current ^ salt);
    return {(h & 3) == 0, (h & 4) != 0, static_cast<FrameId>(prior % 97)};
  }
};

/// One shadow under both encodings.
struct ShadowPair {
  PackedShadow packed;
  ReferenceShadow legacy;

  ShadowPair fork() const { return {packed.fork(), legacy.fork()}; }
  void clear() {
    packed.clear();
    legacy.clear();
  }
};

/// Both logs of one checked stream.
struct LogPair {
  RaceLog packed;
  RaceLog legacy;
};

void access_both(ShadowPair& s, LogPair& logs, unsigned granule_bits,
                 Payload strand, std::uint64_t salt, AccessKind kind,
                 std::uintptr_t addr, std::size_t size, bool view_aware,
                 const char* label) {
  const AccessPolicy policy{strand, static_cast<FrameId>(strand),
                            ScriptedResolve{strand, salt}};
  detect_access(policy, s.packed, logs.packed, granule_bits, kind, addr, size,
                view_aware, label);
  reference_detect_access(policy, s.legacy, logs.legacy, granule_bits, kind,
                          addr, size, view_aware, label);
}

void clear_both(ShadowPair& s, unsigned granule_bits, std::uintptr_t addr,
                std::size_t size) {
  detect_clear(s.packed, granule_bits, addr, size);
  reference_detect_clear(s.legacy, granule_bits, addr, size);
}

/// Granule range [first, last] an op on (addr, size) covers.
struct GranuleRange {
  std::uintptr_t first;
  std::uintptr_t last;
};

GranuleRange granules_of(unsigned granule_bits, std::uintptr_t addr,
                         std::size_t size) {
  return {addr >> granule_bits,
          access_last_byte(addr, size) >> granule_bits};
}

/// Assert both encodings hold the same ids over `r`; returns false (after
/// recording the failure) at the first mismatch.
bool same_fields(ShadowPair& s, GranuleRange r, const std::string& where) {
  for (std::uintptr_t g = r.first;; ++g) {
    const auto p = s.packed.fields(g);
    const auto l = s.legacy.fields(g);
    if (p.reader != l.reader || p.writer != l.writer) {
      ADD_FAILURE() << where << ": granule " << std::hex << g << std::dec
                    << " packed (" << p.reader << ", " << p.writer
                    << ") vs reference (" << l.reader << ", " << l.writer
                    << ")";
      return false;
    }
    if (g == r.last) return true;
  }
}

// ---- Random op streams -----------------------------------------------------

constexpr std::uintptr_t kTop = ~std::uintptr_t{0};
constexpr std::uintptr_t kPageGranules = PackedShadow::kPageSlots;
constexpr std::uintptr_t kChunkGranules =
    PackedShadow::kPageSlots * PackedShadow::kChunkPages;

/// Start address of a random op: near a page boundary, near a chunk
/// boundary, or just below the top of the address space.
std::uintptr_t pick_addr(Rng& rng, unsigned granule_bits) {
  const std::uintptr_t jitter = rng.below(192);
  switch (rng.below(4)) {
    case 0:
    case 1: {
      const std::uintptr_t page = 16 + rng.below(3);
      return ((page * kPageGranules) << granule_bits) - 96 + jitter;
    }
    case 2: {
      const std::uintptr_t chunk = 1 + rng.below(2);
      return ((chunk * kChunkGranules) << granule_bits) - 96 + jitter;
    }
    default:
      return kTop - jitter;
  }
}

std::size_t pick_size(Rng& rng, unsigned granule_bits) {
  if (rng.below(20) == 0) {  // multi-page
    return static_cast<std::size_t>(
        (kPageGranules + rng.below(2 * kPageGranules)) << granule_bits);
  }
  return static_cast<std::size_t>(1 + rng.below(64));
}

/// Run one random op stream through both kernels; false on divergence.
bool run_op_stream(std::uint64_t seed, int ops) {
  Rng rng{seed * 0x2545F4914F6CDD1Dull + 1};
  const unsigned granule_bits = std::vector<unsigned>{0, 0, 3, 5}[seed % 4];
  const std::string stream = "stream " + std::to_string(seed);
  LogPair logs;
  // Live spaces: the detector's shadow and the forks taken along the way
  // (the prefix sweep's checkpoints).  Ops land on a random live space.
  std::vector<ShadowPair> spaces(1);
  std::vector<GranuleRange> touched;
  Payload strand = 1;
  for (int op = 0; op < ops; ++op) {
    const std::string where = stream + " op " + std::to_string(op);
    ShadowPair& s = spaces[rng.below(spaces.size())];
    const std::uint64_t roll = rng.below(100);
    if (roll < 70) {
      if (rng.below(4) == 0) strand = 1 + static_cast<Payload>(rng.below(12));
      const std::uintptr_t addr = pick_addr(rng, granule_bits);
      const std::size_t size = pick_size(rng, granule_bits);
      const AccessKind kind =
          rng.below(2) == 0 ? AccessKind::kRead : AccessKind::kWrite;
      access_both(s, logs, granule_bits, strand, seed, kind, addr, size,
                  rng.below(3) == 0, "op");
      touched.push_back(granules_of(granule_bits, addr, size));
    } else if (roll < 85) {
      const std::uintptr_t addr = pick_addr(rng, granule_bits);
      const std::size_t size = pick_size(rng, granule_bits);
      clear_both(s, granule_bits, addr, size);
      touched.push_back(granules_of(granule_bits, addr, size));
    } else if (roll < 90) {
      s.clear();
    } else if (roll < 97) {
      if (spaces.size() < 4) {
        spaces.push_back(s.fork());
      } else {
        spaces[rng.below(spaces.size())] = s.fork();
      }
      continue;  // `s` may have moved; nothing changed
    } else if (spaces.size() > 1) {
      spaces.erase(spaces.begin() +
                   static_cast<std::ptrdiff_t>(rng.below(spaces.size())));
      continue;
    }
    if (logs.packed.to_json() != logs.legacy.to_json()) {
      ADD_FAILURE() << where << ": race logs diverge";
      return false;
    }
    if (!touched.empty() && !same_fields(s, touched.back(), where)) {
      return false;
    }
  }
  // Forks and clears must have left every live space consistent, not just
  // the ranges each op touched on its own space.
  for (std::size_t i = 0; i < spaces.size(); ++i) {
    for (const GranuleRange& r : touched) {
      const std::uintptr_t last = r.last - r.first > 255 ? r.first + 255
                                                         : r.last;
      if (!same_fields(spaces[i], {r.first, last},
                       stream + " end, space " + std::to_string(i))) {
        return false;
      }
    }
  }
  return true;
}

TEST(KernelDifferential, RandomOpStreamsMatchThePerGranuleReference) {
  const int streams = 4 * program_count();
  for (int seed = 1; seed <= streams; ++seed) {
    ASSERT_TRUE(run_op_stream(static_cast<std::uint64_t>(seed), 120))
        << "seed " << seed;
  }
}

TEST(KernelDifferential, TopGranuleAccessesTerminateAndMatch) {
  // Ranges whose last granule is the top of the address space, including
  // sizes that overflow it (access_last_byte clamps), at every granularity.
  for (const unsigned bits : {0u, 3u, 5u}) {
    LogPair logs;
    ShadowPair s;
    const std::size_t sizes[] = {1, 8, 64, PackedShadow::kPageSlots << bits,
                                 ~std::size_t{0}};
    Payload strand = 1;
    for (const std::size_t size : sizes) {
      for (const std::uintptr_t back : {0u, 7u, 4095u, 4100u}) {
        const std::uintptr_t addr = kTop - back;
        for (const AccessKind kind : {AccessKind::kWrite, AccessKind::kRead}) {
          access_both(s, logs, bits, strand++, 7, kind, addr, size, false,
                      "top");
          ASSERT_TRUE(same_fields(s, granules_of(bits, addr, size), "top"));
        }
      }
    }
    ASSERT_EQ(logs.packed.to_json(), logs.legacy.to_json()) << "bits " << bits;
    EXPECT_TRUE(logs.packed.any());
    clear_both(s, bits, kTop - 4100, ~std::size_t{0});
    EXPECT_TRUE(same_fields(s, granules_of(bits, kTop - 4100, 4101), "clear"));
    EXPECT_EQ(s.packed.fields(kTop >> bits).writer, PackedShadow::kEmpty);
  }
}

// ---- The seeded corpus -----------------------------------------------------

// Named racing locations; programs only annotate, never store.  Five pages,
// page-aligned, so slots straddle page runs at granule_bits = 0.
constexpr std::size_t kPoolBytes = 5 * 4096;
alignas(4096) unsigned char g_pool[kPoolBytes];

struct Slot {
  std::size_t offset;
  std::size_t size;
};

/// Sixteen slots per roll: 1–64-byte accesses on both sides of each page
/// boundary, and now and then a multi-page one.
Slot pick_slot(std::uint64_t roll) {
  static constexpr std::size_t kSizes[] = {1, 4, 8, 24, 64, 13};
  const std::size_t boundary = 4096 * (1 + (roll >> 8) % 3);
  const std::size_t offset = boundary - 40 + ((roll >> 12) % 16) * 5;
  if ((roll >> 20) % 23 == 0) return {offset, 4096 + 64};
  return {offset, kSizes[(roll >> 16) % 6]};
}

void access(AccessKind kind, Slot slot, const char* label) {
  if (kind == AccessKind::kRead) {
    shadow_read(&g_pool[slot.offset], slot.size, SrcTag{label});
  } else {
    shadow_write(&g_pool[slot.offset], slot.size, SrcTag{label});
  }
}

void node(Rng& rng, reducer<monoid::op_add<long>>& sum, int depth) {
  const int actions = 2 + static_cast<int>(rng.next() % 3);
  for (int a = 0; a < actions; ++a) {
    const std::uint64_t roll = rng.next();
    const Slot slot = pick_slot(roll);
    switch (roll % 6) {
      case 0:
      case 1: {
        const bool deeper = depth < 3 && (roll & (1u << 30)) != 0;
        spawn([&rng, &sum, slot, deeper, depth] {
          access(AccessKind::kWrite, slot, "eq spawned write");
          sum += 1;
          if (deeper) node(rng, sum, depth + 1);
        });
        break;
      }
      case 2:
        access(AccessKind::kRead, slot, "eq continuation read");
        break;
      case 3:
        access(AccessKind::kWrite, slot, "eq continuation write");
        break;
      case 4:
        sync();
        break;
      case 5:
        shadow_clear(&g_pool[slot.offset], slot.size);
        break;
    }
  }
  (void)sum.get_value(SrcTag{"eq tail read"});
  sync();
}

struct SeededProgram {
  std::uint64_t seed;

  void operator()() const {
    Rng rng{(seed + 1) * 0x9E3779B97F4A7C15ull};
    reducer<monoid::op_add<long>> sum(SrcTag{"eq sum"});
    const Slot slot = pick_slot(rng.next());
    spawn([&sum, slot] {
      access(AccessKind::kWrite, slot, "eq spawned write");
      sum += 1;
    });
    access(AccessKind::kRead, slot, "eq continuation read");
    node(rng, sum, 0);
    sync();
  }
};

std::vector<std::unique_ptr<spec::StealSpec>> family_for(
    const SeededProgram& program) {
  SerialEngine::Stats probe;
  {
    spec::NoSteal none;
    SerialEngine engine(nullptr, &none);
    engine.run([&] { program(); });
    probe = engine.stats();
  }
  const auto k = std::max<std::uint32_t>(
      1, std::min<std::uint32_t>(probe.max_sync_block, 6));
  const auto d = std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(probe.max_spawn_depth, 10));
  auto family = spec::full_coverage_family(k, d);
  family.push_back(std::make_unique<spec::NoSteal>());
  family.push_back(std::make_unique<spec::StealAll>());
  return family;
}

/// Feeds one engine run's accesses and clears to both kernels.  Every
/// control event starts a new strand payload; the run begins with a bulk
/// clear (as the detectors' on_run_begin does), and every eighth control
/// event continues on a fork of the shadow, dropping the previous
/// checkpoint (as the prefix sweep resumes from forks).
class KernelTee final : public Tool {
 public:
  KernelTee(unsigned granule_bits, std::uint64_t salt)
      : granule_bits_(granule_bits), salt_(salt) {}

  LogPair logs;

  void on_run_begin() override {
    strand_ = 1;
    shadow_.clear();
    checkpoint_.clear();
  }
  void on_frame_enter(FrameId, FrameId, FrameKind, ViewId) override {
    next_strand();
  }
  void on_frame_return(FrameId, FrameId, FrameKind) override { next_strand(); }
  void on_sync(FrameId) override { next_strand(); }
  void on_steal(FrameId, std::uint32_t, ViewId) override { next_strand(); }
  void on_reduce(FrameId, ViewId, ViewId) override { next_strand(); }
  void on_access(AccessKind kind, std::uintptr_t addr, std::size_t size,
                 bool view_aware, ViewId, SrcTag tag) override {
    access_both(shadow_, logs, granule_bits_, strand_, salt_, kind, addr, size,
                view_aware, tag.label);
    same_ = same_ && same_fields(shadow_,
                                 granules_of(granule_bits_, addr, size),
                                 "tee access");
  }
  void on_clear(std::uintptr_t addr, std::size_t size) override {
    clear_both(shadow_, granule_bits_, addr, size);
    same_ = same_ && same_fields(shadow_,
                                 granules_of(granule_bits_, addr, size),
                                 "tee clear");
  }

  bool fields_matched() const { return same_; }

 private:
  void next_strand() {
    ++strand_;
    if (strand_ % 8 == 0) {
      checkpoint_ = std::move(shadow_);
      shadow_ = checkpoint_.fork();
    }
  }

  unsigned granule_bits_;
  std::uint64_t salt_;
  Payload strand_ = 1;
  ShadowPair shadow_;
  ShadowPair checkpoint_;
  bool same_ = true;
};

/// Run every family member through a tee, on `jobs` threads that each own
/// one tee and take members round-robin; records a failure for any member
/// whose two kernels diverged.  Returns how many members raced.
int tee_family(
    const SeededProgram& program,
    const std::vector<std::unique_ptr<spec::StealSpec>>& family,
    unsigned jobs) {
  std::vector<std::string> packed(family.size());
  std::vector<std::string> legacy(family.size());
  std::vector<char> fields_ok(family.size(), 1);
  const unsigned granule_bits = program.seed % 4 == 0 ? 3 : 0;
  const auto worker = [&](unsigned j) {
    KernelTee tee(granule_bits, program.seed);
    for (std::size_t i = j; i < family.size(); i += jobs) {
      tee.logs = LogPair();
      SerialEngine engine(&tee, family[i].get());
      engine.run([&] { program(); });
      packed[i] = tee.logs.packed.to_json();
      legacy[i] = tee.logs.legacy.to_json();
      fields_ok[i] = tee.fields_matched();
    }
  };
  std::vector<std::thread> threads;
  for (unsigned j = 1; j < jobs; ++j) threads.emplace_back(worker, j);
  worker(0);
  for (std::thread& t : threads) t.join();
  const std::string no_races = RaceLog().to_json();
  int racy = 0;
  for (std::size_t i = 0; i < family.size(); ++i) {
    // EXPECT_TRUE, not EXPECT_EQ: the logs run to kilobytes.
    EXPECT_TRUE(packed[i] == legacy[i])
        << "seed " << program.seed << ", member " << i << ", jobs " << jobs
        << ": race logs diverge";
    EXPECT_TRUE(fields_ok[i])
        << "seed " << program.seed << ", member " << i << ", jobs " << jobs;
    racy += packed[i] != no_races;
  }
  return racy;
}

TEST(ShadowEncodingEquivalence, PackedByteIdenticalToLegacyAtEveryJobCount) {
  const int kPrograms = program_count();
  int racy = 0;
  for (int seed = 1; seed <= kPrograms; ++seed) {
    const SeededProgram program{static_cast<std::uint64_t>(seed)};
    const auto family = family_for(program);
    for (const unsigned jobs : {1u, 4u}) {
      const int racy_members = tee_family(program, family, jobs);
      if (jobs == 1) racy += racy_members > 0;
    }
    if (::testing::Test::HasFailure()) return;  // first seed is enough
  }
  // Byte-comparing empty logs proves nothing: the corpus must elicit races.
  EXPECT_GE(racy, kPrograms / 2);
}

TEST(ShadowEncodingEquivalence, SpPlusPrefixSweepMatchesRerunOnTheWideCorpus) {
  // The production detectors on the same corpus: the prefix strategy
  // resumes every member from a checkpoint fork whose pages are shared
  // copy-on-write, and the kernel skips unchanged slots, so a missed
  // un-share or a stale run pointer would split the two reports.
  const int kPrograms = std::max(5, program_count() / 5);
  int racy = 0;
  for (int seed = 1; seed <= kPrograms; ++seed) {
    const SeededProgram program{static_cast<std::uint64_t>(seed)};
    const auto family = family_for(program);
    SweepOptions rerun;
    const SweepResult base =
        sweep_family(shared_program([program] { program(); }), family, rerun);
    racy += base.log.any();
    SweepOptions prefix;
    prefix.strategy = SweepStrategy::kPrefix;
    prefix.threads = 4;
    const SweepResult forked =
        sweep_family(shared_program([program] { program(); }), family, prefix);
    ASSERT_TRUE(forked.log.to_json() == base.log.to_json())
        << "seed " << seed << ": prefix and rerun reports diverge";
    ASSERT_EQ(forked.spec_runs, base.spec_runs) << "seed " << seed;
  }
  EXPECT_GE(racy, kPrograms / 2);
}

}  // namespace
}  // namespace rader
