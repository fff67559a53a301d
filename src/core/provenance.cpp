#include "core/provenance.hpp"

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/peerset.hpp"
#include "core/spplus.hpp"
#include "dag/oracle.hpp"
#include "dag/recorder.hpp"
#include "runtime/serial_engine.hpp"
#include "spec/steal_spec.hpp"
#include "support/json.hpp"
#include "tool/tool.hpp"

namespace rader {

namespace {

/// Tool that records the structural decisions a provenance record is built
/// from: the frame tree (with spawn indices), every simulated steal, every
/// epoch merge with the kReduce frames it invoked, and every lazy identity
/// view creation.
class ProvenanceRecorder final : public Tool {
 public:
  struct FrameNode {
    FrameId parent = kInvalidFrame;
    FrameKind kind = FrameKind::kRoot;
    std::uint32_t depth = 0;
    std::uint32_t spawn_index = 0;  // index among parent's spawned children
    std::uint32_t spawned_children = 0;
    ViewId entry_vid = kInvalidView;
    bool seen = false;
  };
  struct StealRec {
    FrameId frame;
    std::uint32_t cont_index;
    ViewId vid;  // the minted view
  };
  struct ReduceRec {
    FrameId frame;  // frame performing the epoch merge
    ViewId left;
    ViewId right;
    std::vector<FrameId> reduce_frames;  // kReduce frames this merge invoked
  };
  struct IdentityRec {
    FrameId frame;
    ReducerId reducer;
    const char* label;
  };

  void on_run_begin() override {
    frames_.clear();
    steals_.clear();
    reduces_.clear();
    identities_.clear();
    stack_.clear();
  }

  void on_frame_enter(FrameId frame, FrameId parent, FrameKind kind,
                      ViewId vid) override {
    if (frames_.size() <= frame) frames_.resize(frame + 1);
    FrameNode& n = frames_[frame];
    n.parent = parent;
    n.kind = kind;
    n.entry_vid = vid;
    n.seen = true;
    if (parent != kInvalidFrame && parent < frames_.size() &&
        frames_[parent].seen) {
      n.depth = frames_[parent].depth + 1;
      if (kind == FrameKind::kSpawned) {
        n.spawn_index = frames_[parent].spawned_children++;
      }
    }
    // kReduce frames only ever run inside the epoch merge that invoked them,
    // immediately after its on_reduce event, so the owning merge is the
    // newest ReduceRec.
    if (kind == FrameKind::kReduce && !reduces_.empty()) {
      reduces_.back().reduce_frames.push_back(frame);
    }
    stack_.push_back(frame);
  }

  void on_frame_return(FrameId, FrameId, FrameKind) override {
    if (!stack_.empty()) stack_.pop_back();
  }

  void on_steal(FrameId frame, std::uint32_t cont_index,
                ViewId new_vid) override {
    steals_.push_back({frame, cont_index, new_vid});
  }

  void on_reduce(FrameId frame, ViewId left_vid, ViewId right_vid) override {
    reduces_.push_back({frame, left_vid, right_vid, {}});
  }

  void on_reducer_op(ReducerOp op, ReducerId h, SrcTag tag) override {
    if (op != ReducerOp::kCreateIdentity) return;
    identities_.push_back(
        {stack_.empty() ? kInvalidFrame : stack_.back(), h, tag.label});
  }

  bool known(FrameId f) const { return f < frames_.size() && frames_[f].seen; }
  const FrameNode& node(FrameId f) const { return frames_[f]; }
  const std::vector<StealRec>& steals() const { return steals_; }
  const std::vector<ReduceRec>& reduces() const { return reduces_; }
  const std::vector<IdentityRec>& identities() const { return identities_; }

  /// Root-exclusive parent chain: `f`, parent(f), ..., root.  Bounded by the
  /// frame count so a malformed parent link cannot loop.
  std::vector<FrameId> chain(FrameId f) const {
    std::vector<FrameId> out;
    while (known(f) && out.size() <= frames_.size()) {
      out.push_back(f);
      f = frames_[f].parent;
    }
    return out;
  }

 private:
  std::vector<FrameNode> frames_;
  std::vector<StealRec> steals_;
  std::vector<ReduceRec> reduces_;
  std::vector<IdentityRec> identities_;
  std::vector<FrameId> stack_;
};

const char* frame_kind_name(FrameKind k) {
  switch (k) {
    case FrameKind::kRoot: return "root";
    case FrameKind::kSpawned: return "spawned";
    case FrameKind::kCalled: return "called";
    case FrameKind::kReduce: return "reduce";
  }
  return "?";
}

/// Everything a provenance record is rendered from.
struct Record {
  std::string spec;
  FrameId lca = kInvalidFrame;
  FrameKind lca_kind = FrameKind::kRoot;
  // Paths from the racing frames up to and including the LCA.
  std::vector<FrameId> current_path;
  std::vector<FrameId> prior_path;
  std::vector<ProvenanceRecorder::StealRec> steals_on_path;
  bool has_eliciting_steal = false;
  ProvenanceRecorder::StealRec eliciting_steal{};
  bool has_reduce = false;
  FrameId reduce_frame = kInvalidFrame;  // the kReduce frame on the path
  ProvenanceRecorder::ReduceRec reduce{};
  bool has_identity = false;
  ProvenanceRecorder::IdentityRec identity{};
  std::string oracle;  // "confirmed" / "unconfirmed" / "skipped" / ""
};

/// Walk the recorded structure for the racing frame pair.  Returns false
/// when either frame is unknown to the replay (no record can be built).
bool build_record(const ProvenanceRecorder& rec, FrameId prior,
                  FrameId current, Record* out) {
  if (!rec.known(prior) || !rec.known(current)) return false;
  std::vector<FrameId> cur_chain = rec.chain(current);
  std::vector<FrameId> pri_chain = rec.chain(prior);
  if (cur_chain.empty() || pri_chain.empty()) return false;
  // Trim the common root-side suffix; the last element trimmed is the LCA.
  FrameId lca = kInvalidFrame;
  while (!cur_chain.empty() && !pri_chain.empty() &&
         cur_chain.back() == pri_chain.back()) {
    lca = cur_chain.back();
    cur_chain.pop_back();
    pri_chain.pop_back();
  }
  if (lca == kInvalidFrame) return false;  // disjoint trees: malformed
  out->lca = lca;
  out->lca_kind = rec.node(lca).kind;
  out->current_path = cur_chain;
  out->current_path.push_back(lca);
  out->prior_path = pri_chain;
  out->prior_path.push_back(lca);

  // Steal decisions in any frame on either path (the fork region).  The
  // eliciting steal is the first steal in the LCA frame itself — the steal
  // whose minted view separates the two sides — falling back to the first
  // steal anywhere on the fork path.
  auto on_path = [&](FrameId f) {
    for (FrameId g : out->current_path)
      if (g == f) return true;
    for (FrameId g : out->prior_path)
      if (g == f) return true;
    return false;
  };
  for (const auto& s : rec.steals()) {
    if (!on_path(s.frame)) continue;
    out->steals_on_path.push_back(s);
    if (!out->has_eliciting_steal ||
        (s.frame == lca && out->eliciting_steal.frame != lca)) {
      out->eliciting_steal = s;
      out->has_eliciting_steal = true;
    }
  }

  // Reduce involvement: the first kReduce frame on the current-side path
  // (preferring the racing strand's own side), matched to the epoch merge
  // that invoked it.
  auto find_reduce = [&](const std::vector<FrameId>& path) -> bool {
    for (FrameId f : path) {
      if (rec.node(f).kind != FrameKind::kReduce) continue;
      for (const auto& r : rec.reduces()) {
        for (FrameId rf : r.reduce_frames) {
          if (rf != f) continue;
          out->has_reduce = true;
          out->reduce_frame = f;
          out->reduce = r;
          return true;
        }
      }
    }
    return false;
  };
  if (!find_reduce(out->current_path)) find_reduce(out->prior_path);

  // CreateIdentity involvement: a lazy identity view created in a frame on
  // either path (closest to the current racing frame wins).
  for (const auto& path : {out->current_path, out->prior_path}) {
    if (out->has_identity) break;
    for (FrameId f : path) {
      for (const auto& id : rec.identities()) {
        if (id.frame != f) continue;
        out->has_identity = true;
        out->identity = id;
        break;
      }
      if (out->has_identity) break;
    }
  }
  return true;
}

std::string record_json(const Record& r) {
  std::ostringstream os;
  os << "{\"spec\":";
  os << json_quoted(r.spec);
  os << ",\"lca_frame\":" << r.lca << ",\"lca_kind\":\""
     << frame_kind_name(r.lca_kind) << '"';
  auto path = [&os](const char* key, const std::vector<FrameId>& p) {
    os << ",\"" << key << "\":[";
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (i != 0) os << ',';
      os << p[i];
    }
    os << ']';
  };
  path("current_path", r.current_path);
  path("prior_path", r.prior_path);
  os << ",\"steals_on_path\":[";
  for (std::size_t i = 0; i < r.steals_on_path.size(); ++i) {
    const auto& s = r.steals_on_path[i];
    if (i != 0) os << ',';
    os << "{\"frame\":" << s.frame << ",\"cont_index\":" << s.cont_index
       << ",\"view\":" << s.vid << '}';
  }
  os << ']';
  if (r.has_eliciting_steal) {
    const auto& s = r.eliciting_steal;
    os << ",\"eliciting_steal\":{\"frame\":" << s.frame
       << ",\"cont_index\":" << s.cont_index << ",\"view\":" << s.vid << '}';
  }
  if (r.has_reduce) {
    os << ",\"reduce\":{\"reduce_frame\":" << r.reduce_frame
       << ",\"merge_frame\":" << r.reduce.frame
       << ",\"left_view\":" << r.reduce.left
       << ",\"right_view\":" << r.reduce.right << '}';
  }
  if (r.has_identity) {
    os << ",\"create_identity\":{\"frame\":" << r.identity.frame
       << ",\"reducer\":" << r.identity.reducer << ",\"label\":";
    os << json_quoted(r.identity.label);
    os << '}';
  }
  if (!r.oracle.empty()) os << ",\"oracle\":\"" << r.oracle << '"';
  os << '}';
  return os.str();
}

std::string record_text(const Record& r) {
  std::ostringstream os;
  os << "provenance (replay " << r.spec << "):\n";
  os << "  strands fork at frame #" << r.lca << " ("
     << frame_kind_name(r.lca_kind) << ")\n";
  auto side = [&os](const char* name, const std::vector<FrameId>& p) {
    os << "  " << name << " side: ";
    if (p.size() <= 1) {
      os << "the fork frame's own strand";
    } else {
      for (std::size_t i = 0; i + 1 < p.size(); ++i) {
        if (i != 0) os << " <- ";
        os << "#" << p[i];
      }
    }
    os << "\n";
  };
  side("current", r.current_path);
  side("prior", r.prior_path);
  if (r.has_eliciting_steal) {
    os << "  eliciting steal: continuation " << r.eliciting_steal.cont_index
       << " of frame #" << r.eliciting_steal.frame << " minted view "
       << r.eliciting_steal.vid;
    if (r.steals_on_path.size() > 1) {
      os << " (+" << r.steals_on_path.size() - 1
         << " more steal(s) on the fork path)";
    }
    os << "\n";
  } else {
    os << "  no steal on the fork path (parallelism from the spawn alone)\n";
  }
  if (r.has_reduce) {
    os << "  Reduce strand: frame #" << r.reduce_frame
       << " runs the user Reduce of views " << r.reduce.left << " <- "
       << r.reduce.right << " (epoch merge in frame #" << r.reduce.frame
       << ")\n";
  }
  if (r.has_identity) {
    os << "  CreateIdentity strand: frame #" << r.identity.frame
       << " lazily created a view of reducer #" << r.identity.reducer;
    if (r.identity.label != nullptr && r.identity.label[0] != '\0') {
      os << " ('" << r.identity.label << "')";
    }
    os << "\n";
  }
  if (!r.oracle.empty()) os << "  oracle: " << r.oracle << "\n";
  return os.str();
}

}  // namespace

std::size_t annotate_provenance(RaceLog& log,
                                const std::function<void()>& program,
                                const ProvenanceOptions& options) {
  // Group stored races by replay handle so the program runs once per
  // distinct handle.  An empty handle means the race came from a plain
  // serial check; it replays under "no-steals".
  struct Ref {
    bool view_read;
    std::size_t index;
  };
  std::map<std::string, std::vector<Ref>> groups;
  const auto& vr = log.view_read_races();
  const auto& dr = log.determinacy_races();
  for (std::size_t i = 0; i < vr.size(); ++i) {
    if (!vr[i].provenance_json.empty()) continue;
    groups[vr[i].found_under.empty() ? "no-steals" : vr[i].found_under]
        .push_back({true, i});
  }
  for (std::size_t i = 0; i < dr.size(); ++i) {
    if (!dr[i].provenance_json.empty()) continue;
    groups[dr[i].found_under.empty() ? "no-steals" : dr[i].found_under]
        .push_back({false, i});
  }

  std::size_t annotated = 0;
  for (const auto& [handle, refs] : groups) {
    const auto sp = spec::from_description(handle);
    if (sp == nullptr) continue;  // unrecognized handle: cannot replay

    // Replay with both detectors (to reproduce the races with their fresh
    // frame ids), the structural recorder, and the DAG recorder.
    RaceLog fresh;
    PeerSetDetector peerset(&fresh);
    SpPlusDetector spplus(&fresh);
    ProvenanceRecorder rec;
    dag::Recorder dag_rec;
    ToolChain chain;
    chain.add(&peerset);
    chain.add(&spplus);
    chain.add(&rec);
    chain.add(&dag_rec);
    SerialEngine engine(&chain, sp.get());
    engine.run(program);

    const dag::PerfDag& dag = dag_rec.dag();
    dag::OracleResult oracle;
    bool have_oracle = false;
    bool oracle_capped = false;
    if (options.cross_check) {
      if (dag.size() <= options.oracle_strand_cap) {
        oracle = dag::run_oracle(dag);
        have_oracle = true;
      } else {
        oracle_capped = true;
      }
    }
    auto oracle_verdict = [&](bool confirmed) -> std::string {
      if (!options.cross_check) return "";
      if (oracle_capped) return "skipped";
      return confirmed ? "confirmed" : "unconfirmed";
    };

    for (const Ref& ref : refs) {
      Record record;
      record.spec = handle;
      bool built = false;
      if (ref.view_read) {
        const ViewReadRace& stored = vr[ref.index];
        // Match by dedup identity; reducer ids are dense per run, so they
        // reproduce exactly under the same program and spec.
        const ViewReadRace* match = nullptr;
        for (const auto& f : fresh.view_read_races()) {
          if (f.reducer == stored.reducer &&
              f.prior_label == stored.prior_label &&
              f.current_label == stored.current_label) {
            match = &f;
            break;
          }
        }
        if (match == nullptr) continue;
        built = build_record(rec, match->prior_frame, match->current_frame,
                             &record);
        record.oracle = oracle_verdict(
            have_oracle && oracle.racing_reducers.count(stored.reducer) != 0);
      } else {
        const DeterminacyRace& stored = dr[ref.index];
        // Exact identity first; heap addresses can shift between the
        // original process and the replay, so fall back to the
        // address-insensitive identity.
        const DeterminacyRace* match = nullptr;
        for (const auto& f : fresh.determinacy_races()) {
          if (f.addr == stored.addr && f.current_kind == stored.current_kind &&
              f.current_view_aware == stored.current_view_aware &&
              f.prior_was_write == stored.prior_was_write &&
              f.current_label == stored.current_label) {
            match = &f;
            break;
          }
        }
        if (match == nullptr) {
          for (const auto& f : fresh.determinacy_races()) {
            if (f.current_kind == stored.current_kind &&
                f.current_view_aware == stored.current_view_aware &&
                f.prior_was_write == stored.prior_was_write &&
                f.current_label == stored.current_label) {
              match = &f;
              break;
            }
          }
        }
        if (match == nullptr) continue;
        built = build_record(rec, match->prior_frame, match->current_frame,
                             &record);
        record.oracle = oracle_verdict(
            have_oracle && oracle.racing_addrs.count(match->addr) != 0);
      }
      if (!built) continue;
      if (ref.view_read) {
        log.set_view_read_provenance(ref.index, record_json(record),
                                     record_text(record));
      } else {
        log.set_determinacy_provenance(ref.index, record_json(record),
                                       record_text(record));
      }
      ++annotated;
    }
  }
  return annotated;
}

}  // namespace rader
