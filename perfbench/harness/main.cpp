// rgb_perfbench: replays one generated op schedule against an RGB hierarchy
// on the serial simulator and reports what it measured as one JSON object.
//
//   rgb_perfbench --schedule FILE --seconds S --trace 0|1 --out DIR
//                 [--min-reps N]
//
// Each repetition builds a fresh system from the schedule, times set-up
// (hierarchy, preload, settle) and the measured window (the sum of the
// run_until blocks that carry the ops). The first repetition captures the
// exact change latencies and runs the correctness gate; timed repetitions
// follow until S seconds of set-up plus window have been measured (at
// least N), each between two runs of the host reference (reference.hpp).
// Every repetition replays the same schedule, so every deterministic number
// and the final view must repeat exactly; the harness checks that. With
// --trace 1 one more repetition runs with the program's span recorder and
// handler wall attribution on, plus the benchmark's own tap, wire replay,
// directory probes and spans; it writes the span files into DIR and adds
// the per-layer block to the output.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/invariants.hpp"
#include "check/model.hpp"
#include "layers.hpp"
#include "obs/trace_export.hpp"
#include "reference.hpp"
#include "rgb/rgb.hpp"
#include "schedule.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using rgb::common::GroupId;
using rgb::common::Guid;
using rgb::common::NodeId;
namespace core = rgb::core;

constexpr NodeId kQueryClientId{4'000'000'000ULL};
/// Traced run: every n-th tapped envelope is kept for wire replay.
constexpr std::uint64_t kWireSampleEvery = 61;
constexpr std::size_t kWireBatch = 256;
/// Traced run: NEs and tables probed per block boundary.
constexpr std::size_t kProbeNes = 2;
constexpr std::size_t kProbeTables = 8;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Simulated time one run_until block covers; the window's wall time is
/// the sum of its blocks, and the per-layer probes run between them.
constexpr std::uint64_t kBlockUs = 100'000;

/// Nearest-rank percentile of exact samples (0 when there are none).
/// Reorders `samples`.
double percentile(std::vector<std::uint64_t>& samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(
                                         std::max<std::size_t>(rank, 1) - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return static_cast<double>(*nth);
}

double max_of(const std::vector<std::uint64_t>& samples) {
  return samples.empty() ? 0.0
                         : static_cast<double>(*std::max_element(
                               samples.begin(), samples.end()));
}

using Numbers = std::map<std::string, double>;

struct GateResult {
  bool membership_converged = false;
  std::uint64_t group_view_divergence = 0;
  /// Distinct (group, member) records wrong at one or more alive NEs: the
  /// divergence counted once per member instead of once per NE.
  std::uint64_t divergent_members = 0;
  bool rings_consistent = false;
  std::vector<std::string> violations;  ///< check-layer oracle findings
};

struct RepResult {
  double setup_s = 0.0;
  double window_s = 0.0;
  double reference_s = 0.0;  ///< host reference time around the repetition
  Numbers det;     ///< deterministic: must repeat exactly for a schedule
  Numbers change;  ///< exact change latency (capture repetition only)
  Numbers layers;  ///< traced repetition only
  GateResult gate;
  /// Final TMS view: (gid, guid, AP index) from the topmost leader.
  std::vector<std::array<std::uint64_t, 3>> final_view;
};

/// Registry scalars by name (counters and gauges; families skipped).
std::unordered_map<std::string, std::uint64_t> registry_values(
    const core::RgbSystem& sys) {
  std::unordered_map<std::string, std::uint64_t> out;
  for (const auto& sample : sys.obs().registry.snapshot()) {
    out[sample.name] = sample.value;
  }
  return out;
}

/// Percentiles above their histogram's exact max, over every tracer
/// histogram with samples (ROADMAP: quantiles can exceed max).
std::uint64_t quantiles_above_max(const rgb::obs::OpTracer& tracer) {
  std::vector<rgb::common::Histogram> hists;
  for (std::uint8_t k = 0; k < rgb::obs::kOpKindCount; ++k) {
    hists.push_back(tracer.dissemination(static_cast<core::OpKind>(k)));
  }
  hists.push_back(tracer.merged_member_dissemination());
  hists.push_back(tracer.join_latency());
  hists.push_back(tracer.merged_detection());
  std::uint64_t above = 0;
  for (const auto& h : hists) {
    if (h.count() == 0) continue;
    for (const double q : {h.p50(), h.p90(), h.p99(), h.p999()}) {
      if (q > h.max()) ++above;
    }
  }
  return above;
}

/// What one repetition does besides replaying the schedule.
enum class Mode {
  /// First repetition: warms the allocator, records exact change latencies
  /// through the tap and runs the full correctness gate. Its wall times are
  /// not reported.
  kCapture,
  /// Plain replay whose set-up and window wall times are reported.
  kTimed,
  /// Program tracing, the benchmark's spans and every per-layer instrument
  /// on; runs the gate too.
  kTraced,
};

std::uint64_t divergent_members(const core::RgbSystem& sys) {
  std::map<GroupId, std::map<Guid, NodeId>> want;
  for (const auto& [gid, rec] : sys.grouped_expected_membership()) {
    want[gid][rec.guid] = rec.access_proxy;
  }
  std::set<std::pair<GroupId, Guid>> wrong;
  for (const NodeId id : sys.all_nes()) {
    if (sys.network().is_crashed(id)) continue;
    const core::GroupDirectory& dir = sys.entity(id)->directory();
    std::set<GroupId> gids;
    for (const auto& [gid, members] : want) gids.insert(gid);
    for (const auto& [gid, state] : dir.groups()) gids.insert(gid);
    for (const GroupId gid : gids) {
      std::map<Guid, NodeId> got;
      if (const core::MemberTable* table = dir.table_if(gid)) {
        for (const auto& rec : table->snapshot()) {
          got[rec.guid] = rec.access_proxy;
        }
      }
      const auto& expected = want[gid];
      for (const auto& [guid, ap] : got) {
        const auto it = expected.find(guid);
        if (it == expected.end() || it->second != ap) wrong.emplace(gid, guid);
      }
      for (const auto& [guid, ap] : expected) {
        if (got.count(guid) == 0) wrong.emplace(gid, guid);
      }
    }
  }
  return wrong.size();
}

class Replay {
 public:
  Replay(const Schedule& schedule, Mode mode, BenchSpans& spans)
      : s_(schedule), mode_(mode), traced_(mode == Mode::kTraced),
        spans_(spans) {}

  RepResult run(const std::string& out_dir);

 private:
  void apply(const ScheduledOp& op);
  void issue_query();
  void on_query_done(core::QueryClient::Result result);
  void at_block_boundary(std::uint64_t block);
  void collect(RepResult& r);
  void capture_change(RepResult& r);
  void gate(RepResult& r);
  void read_final_view(RepResult& r);

  NodeId ap(std::uint64_t index) const {
    if (index >= aps_->size()) {
      throw std::runtime_error("schedule names AP index " +
                               std::to_string(index) + " beyond the layout");
    }
    return (*aps_)[index];
  }

  const Schedule& s_;
  Mode mode_;
  bool traced_;
  BenchSpans& spans_;

  // Declaration order is teardown order in reverse: the system and the
  // query client detach from the network before it goes.
  std::unique_ptr<rgb::sim::Simulator> sim_;
  std::unique_ptr<rgb::net::Network> net_;
  std::unique_ptr<core::RgbSystem> sys_;
  std::unique_ptr<core::QueryClient> client_;
  std::unique_ptr<NetTap> tap_;
  std::unique_ptr<ChangeLatencyHooks> change_;
  const std::vector<NodeId>* aps_ = nullptr;
  rgb::sim::Time t0_ = 0;

  std::uint64_t queries_issued_ = 0;
  std::uint64_t queries_incomplete_ = 0;
  std::uint64_t query_messages_ = 0;
  std::uint64_t query_stale_members_ = 0;
  std::vector<std::uint64_t> query_latency_us_;

  std::uint64_t pending_peak_ = 0;
  double cancelled_ratio_sum_ = 0.0;
  std::uint64_t boundaries_ = 0;
  WireStats wire_;
  DirectoryStats dir_;
};

void Replay::apply(const ScheduledOp& op) {
  BenchSpans::Scope span(spans_, "op.issue");
  core::RgbSystem& sys = *sys_;
  const Guid guid{op.subject};
  switch (op.kind) {
    case 'J': sys.join(guid, ap(op.ap)); break;
    case 'L': sys.leave(guid); break;
    case 'H': sys.handoff(guid, ap(op.ap)); break;
    case 'F': sys.fail(guid); break;
    case 'C': sys.crash_ne(ap(op.subject)); break;
    case 'R': sys.recover_ne(ap(op.subject)); break;
    // A member stranded at a crashed AP is failed: the survivors declare
    // it so once they detect the crash. Reporting it through the facade
    // keeps the facade's expected membership equal to that ground truth.
    case 'S': sys.fail(guid); break;
    default: throw std::runtime_error("unknown op kind");
  }
}

void Replay::issue_query() {
  BenchSpans::Scope span(spans_, "query.issue");
  const bool bms =
      queries_issued_ % s_.query.bms_every == s_.query.bms_every - 1;
  const core::QueryPlan plan = sys_->query_plan(
      bms ? rgb::proto::QueryScheme::kBottommost
          : rgb::proto::QueryScheme::kTopmost);
  ++queries_issued_;
  client_->issue_group(plan, GroupId{1}, rgb::sim::usec(s_.query.timeout_us),
                       [this](core::QueryClient::Result r) {
                         on_query_done(std::move(r));
                       });
}

void Replay::on_query_done(core::QueryClient::Result result) {
  query_messages_ += result.messages;
  if (result.complete) {
    query_latency_us_.push_back(result.latency);
  } else {
    ++queries_incomplete_;
  }
  if (traced_) {
    // Staleness: records the answer disagrees on with the facade's truth
    // at completion (ops still in flight show up here by design).
    BenchSpans::Scope span(spans_, "query.stale_check");
    const auto want = sys_->expected_membership();
    const auto& got = result.members;
    std::size_t i = 0, j = 0;
    while (i < got.size() || j < want.size()) {
      if (i < got.size() && j < want.size() && got[i] == want[j]) {
        ++i, ++j;
      } else if (j == want.size() ||
                 (i < got.size() && got[i].guid < want[j].guid)) {
        ++query_stale_members_, ++i;
      } else if (i == got.size() || want[j].guid < got[i].guid) {
        ++query_stale_members_, ++j;
      } else {
        ++query_stale_members_, ++i, ++j;
      }
    }
  }
  const rgb::sim::Time next = sim_->now() + rgb::sim::usec(s_.query.think_us);
  if (next < t0_ + rgb::sim::usec(s_.window_us)) {
    sim_->schedule_at(next, [this] { issue_query(); });
  }
}

void Replay::at_block_boundary(std::uint64_t block) {
  const std::uint64_t pending = sim_->pending_events();
  const std::uint64_t queued = sim_->queued_entries();
  pending_peak_ = std::max(pending_peak_, pending);
  if (queued > 0) {
    cancelled_ratio_sum_ +=
        static_cast<double>(queued - pending) / static_cast<double>(queued);
  }
  ++boundaries_;
  if (!traced_) return;
  probe_directories(*sys_, block, kProbeNes, kProbeTables, dir_, spans_);
  if (tap_->pending_samples() >= kWireBatch) {
    replay_wire(tap_->take_samples(), wire_, spans_);
  }
}

RepResult Replay::run(const std::string& out_dir) {
  RepResult r;
  const auto setup_start = Clock::now();
  rgb::common::RngStream rng{s_.seed};
  sim_ = std::make_unique<rgb::sim::Simulator>();
  net_ = std::make_unique<rgb::net::Network>(*sim_, rng.fork("net"));
  core::RgbConfig config;
  config.groups = s_.groups;
  config.probe_period = rgb::sim::usec(s_.probe_us);
  sys_ = std::make_unique<core::RgbSystem>(
      *net_, config, core::HierarchyLayout{s_.tiers, s_.ring_size});
  aps_ = &sys_->aps();

  // Set-up: preload spaced in virtual time, drain, then (probing on) a
  // probed settle so the window starts from a converged steady state.
  for (std::size_t i = 0; i < s_.preload.size(); ++i) {
    const auto [guid, index] = s_.preload[i];
    const NodeId at = ap(index);
    sim_->schedule_at(rgb::sim::usec(s_.preload_spacing_us) * i,
                      [this, guid = guid, at] { sys_->join(Guid{guid}, at); });
  }
  sim_->run();
  if (s_.probe_us > 0) {
    sys_->start_probing();
    sim_->run_until(sim_->now() + rgb::sim::usec(s_.warmup_us));
  }
  r.setup_s = seconds_since(setup_start);

  // Measured window.
  t0_ = sim_->now();
  net_->reset_metrics();
  sys_->obs().tracer.reset();
  sys_->obs().profiler.clear();
  sys_->obs().spans.set_enabled(traced_);
  sys_->obs().profiler.set_wall_enabled(traced_);
  if (traced_) tap_ = std::make_unique<NetTap>(*net_, kWireSampleEvery);
  if (mode_ == Mode::kCapture) {
    change_ = std::make_unique<ChangeLatencyHooks>(*net_, sys_->all_nes());
  }
  const auto before = registry_values(*sys_);
  const std::uint64_t events_before = sim_->executed_events();
  for (const ScheduledOp& op : s_.ops) {
    sim_->schedule_at(t0_ + rgb::sim::usec(op.at_us),
                      [this, op] { apply(op); });
  }
  if (s_.query.enabled) {
    client_ = std::make_unique<core::QueryClient>(kQueryClientId, *net_);
    sim_->schedule_at(t0_, [this] { issue_query(); });
  }
  const bool probing = s_.probe_us > 0;
  const rgb::sim::Time end =
      t0_ + rgb::sim::usec(s_.window_us + (probing ? s_.settle_us : 0));
  double window_s = 0.0;
  for (std::uint64_t block = 0;; ++block) {
    const rgb::sim::Time now = sim_->now();
    // Probing never drains, so a probed window ends at its settle horizon;
    // an unprobed one runs until the last op has quiesced.
    if (now >= end && (probing || sim_->pending_events() == 0)) break;
    rgb::sim::Time next = now + rgb::sim::usec(kBlockUs);
    if (probing) next = std::min(next, end);
    {
      BenchSpans::Scope span(spans_, "sim.run_block");
      const auto start = Clock::now();
      sim_->run_until(next);
      window_s += seconds_since(start);
    }
    at_block_boundary(block);
  }
  r.window_s = window_s;
  if (traced_ && tap_->pending_samples() > 0) {
    replay_wire(tap_->take_samples(), wire_, spans_);
  }

  // Deterministic window numbers.
  const auto after = registry_values(*sys_);
  const auto delta = [&](const std::string& name) {
    const auto a = after.find(name);
    const auto b = before.find(name);
    return static_cast<double>((a == after.end() ? 0 : a->second) -
                               (b == before.end() ? 0 : b->second));
  };
  Numbers& d = r.det;
  const auto& net = net_->metrics();
  d["ops"] = static_cast<double>(s_.member_ops());
  d["events"] = static_cast<double>(sim_->executed_events() - events_before);
  d["sim_window_us"] = static_cast<double>(sim_->now() - t0_);
  d["msgs"] = static_cast<double>(net.sent);
  d["bytes"] = static_cast<double>(net.bytes_sent);
  d["dropped"] = static_cast<double>(net.sent - net.delivered);
  d["viewsync_msgs"] =
      static_cast<double>(net.sent_of(core::kind::kViewSync));
  d["viewsync_bytes"] =
      static_cast<double>(net.bytes_of(core::kind::kViewSync));
  d["query_reply_bytes"] =
      static_cast<double>(net.bytes_of(core::kind::kQueryReply));
  // The tracer's histogram quantiles are bucket upper bounds (10% steps):
  // printed beside the exact numbers, not used as metrics.
  const auto change = sys_->obs().tracer.merged_member_dissemination();
  d["tracer_change_count"] = static_cast<double>(change.count());
  d["tracer_change_p50_us"] = change.p50();
  d["tracer_change_p99_us"] = change.p99();
  d["tracer_change_max_us"] = change.max();
  d["quantile_above_max"] =
      static_cast<double>(quantiles_above_max(sys_->obs().tracer));
  for (const char* name :
       {"rgb.rounds_started", "rgb.rounds_completed", "rgb.empty_probe_rounds",
        "rgb.ops_disseminated", "rgb.ops_aggregated", "rgb.token_retransmits",
        "rgb.notify_retransmits", "rgb.reconcile_rounds", "rgb.repairs",
        "rgb.merges", "rgb.digest_groups_packed", "rgb.group_fulls_sent",
        "rgb.group_diffs_sent"}) {
    d[name] = delta(name);
  }
  d["queries"] = static_cast<double>(queries_issued_);
  d["queries_incomplete"] = static_cast<double>(queries_incomplete_);
  d["query_messages"] = static_cast<double>(query_messages_);
  d["query_p50_us"] = percentile(query_latency_us_, 0.50);
  d["query_p99_us"] = percentile(query_latency_us_, 0.99);
  d["query_max_us"] = max_of(query_latency_us_);
  d["pending_peak"] = static_cast<double>(pending_peak_);
  d["cancelled_ratio"] =
      boundaries_ == 0 ? 0.0 : cancelled_ratio_sum_ / boundaries_;
  std::uint64_t entries = 0;
  for (const NodeId id : sys_->all_nes()) {
    entries += sys_->entity(id)->directory().total_size();
  }
  d["entries_total"] = static_cast<double>(entries);

  if (traced_) collect(r);
  if (mode_ == Mode::kCapture) capture_change(r);
  if (mode_ != Mode::kTimed) gate(r);
  read_final_view(r);

  if (traced_) {
    std::ofstream program_spans(out_dir + "/program_spans.json");
    rgb::obs::write_chrome_trace(program_spans, sys_->obs().spans,
                                 sys_->obs().flight);
  }
  return r;
}

void Replay::collect(RepResult& r) {
  Numbers& l = r.layers;
  const TrafficByClass& t = tap_->traffic();
  for (std::size_t c = 0; c < kClassCount; ++c) {
    l[std::string("net.msgs.") + kClassNames[c]] =
        static_cast<double>(t.msgs[c]);
    l[std::string("net.bytes.") + kClassNames[c]] =
        static_cast<double>(t.bytes[c]);
  }
  l["net.verdicts"] = static_cast<double>(t.verdicts);
  l["net.dropped"] = static_cast<double>(t.dropped);

  l["wire.msgs"] = static_cast<double>(wire_.msgs);
  l["wire.bytes"] = static_cast<double>(wire_.bytes);
  l["wire.size_ns"] = static_cast<double>(wire_.size_ns);
  l["wire.encode_ns"] = static_cast<double>(wire_.encode_ns);
  l["wire.decode_ns"] = static_cast<double>(wire_.decode_ns);
  l["wire.mismatches"] = static_cast<double>(wire_.mismatches);

  const auto& profiler = sys_->obs().profiler;
  const auto handled = profiler.handled_per_kind();
  const auto wall = profiler.wall_ns_per_kind();
  std::array<double, kClassCount> handled_c{}, wall_c{};
  double wall_total = 0.0;
  for (std::size_t k = 0; k < handled.size(); ++k) {
    const std::size_t c = class_of(static_cast<rgb::net::MessageKind>(k));
    handled_c[c] += static_cast<double>(handled[k]);
    wall_c[c] += static_cast<double>(wall[k]);
    wall_total += static_cast<double>(wall[k]);
  }
  for (std::size_t c = 0; c < kClassCount; ++c) {
    l[std::string("handled.") + kClassNames[c]] = handled_c[c];
    l[std::string("handler_ns.") + kClassNames[c]] = wall_c[c];
  }
  l["handler_ns_total"] = wall_total;

  l["dir.probes"] = static_cast<double>(dir_.probes);
  l["dir.groups_seen"] = static_cast<double>(dir_.groups_seen);
  l["dir.combined_digest_ns"] = static_cast<double>(dir_.combined_digest_ns);
  l["dir.packed_digests_ns"] = static_cast<double>(dir_.packed_digests_ns);
  l["dir.queue_scan_ns"] = static_cast<double>(dir_.queue_scan_ns);
  l["dir.merged_snapshot_ns"] = static_cast<double>(dir_.merged_snapshot_ns);
  l["table.tables"] = static_cast<double>(dir_.tables);
  l["table.entries"] = static_cast<double>(dir_.table_entries);
  l["table.snapshot_ns"] = static_cast<double>(dir_.snapshot_ns);
  l["table.newer_than_ns"] = static_cast<double>(dir_.newer_than_ns);

  l["query.stale_members"] = static_cast<double>(query_stale_members_);
  l["obs.spans_recorded"] =
      static_cast<double>(sys_->obs().spans.recorded());
  l["obs.spans_dropped"] = static_cast<double>(sys_->obs().spans.dropped());
}

void Replay::capture_change(RepResult& r) {
  std::vector<std::uint64_t>& samples = change_->samples_us();
  r.change["count"] = static_cast<double>(samples.size());
  r.change["p50_us"] = percentile(samples, 0.50);
  r.change["p99_us"] = percentile(samples, 0.99);
  r.change["max_us"] = max_of(samples);
}

void Replay::gate(RepResult& r) {
  core::RgbSystem& sys = *sys_;
  GateResult& g = r.gate;
  g.membership_converged = sys.membership_converged();
  g.group_view_divergence = sys.group_view_divergence();
  g.rings_consistent = sys.rings_consistent();
  const rgb::check::RgbModel model{sys};
  rgb::check::OracleSuite oracles{rgb::exp::kCheckAll};
  oracles.at_quiescence(model, sim_->now());
  for (const auto& v : oracles.report().violations()) {
    g.violations.push_back(v.to_string());
  }
  g.divergent_members = divergent_members(sys);
}

void Replay::read_final_view(RepResult& r) {
  const core::RgbSystem& sys = *sys_;
  std::unordered_map<NodeId, std::uint64_t> ap_index;
  for (std::size_t i = 0; i < aps_->size(); ++i) ap_index[(*aps_)[i]] = i;
  const auto top = sys.query_plan(rgb::proto::QueryScheme::kTopmost);
  if (top.targets.empty()) return;
  for (const auto& [gid, state] : sys.entity(top.targets.front())
                                      ->directory()
                                      .groups()) {
    for (const auto& rec : state.table.snapshot()) {
      const auto it = ap_index.find(rec.access_proxy);
      r.final_view.push_back(
          {gid.value(), rec.guid.value(),
           it == ap_index.end() ? ~std::uint64_t{0} : it->second});
    }
  }
}

// --- output ---------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

void write_numbers(std::ostream& os, const Numbers& n) {
  os << '{';
  bool first = true;
  for (const auto& [k, v] : n) {
    os << (first ? "" : ", ") << json_string(k) << ": " << v;
    first = false;
  }
  os << '}';
}

struct Options {
  std::string schedule;
  std::string out_dir = ".";
  double seconds = 10.0;
  bool trace = false;
  std::size_t min_reps = 3;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--schedule") {
      o.schedule = value;
    } else if (arg == "--out") {
      o.out_dir = value;
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--trace") {
      o.trace = value == "1";
    } else if (arg == "--min-reps") {
      o.min_reps = std::max<std::size_t>(1, std::stoul(value));
    } else {
      throw std::runtime_error("unknown argument " + arg);
    }
  }
  if (o.schedule.empty()) throw std::runtime_error("--schedule is required");
  return o;
}

int run(const Options& o) {
  const Schedule schedule = load_schedule(o.schedule);
  BenchSpans spans;
  Replay capture_replay{schedule, Mode::kCapture, spans};
  const RepResult capture = capture_replay.run(o.out_dir);
  // The program's peak, read before the host reference allocates its arena.
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const long peak_rss_kb = usage.ru_maxrss;
  std::vector<RepResult> reps;
  double measured = 0.0;
  // Each timed repetition sits between two runs of the host reference; the
  // mean of the two is its reference time.
  HostReference reference;
  double previous = reference.run();
  const auto timed = [&](Mode mode) {
    Replay replay{schedule, mode, spans};
    RepResult r = replay.run(o.out_dir);
    const double next = reference.run();
    r.reference_s = (previous + next) / 2;
    previous = next;
    return r;
  };
  while (reps.size() < o.min_reps || measured < o.seconds) {
    reps.push_back(timed(Mode::kTimed));
    measured += reps.back().setup_s + reps.back().window_s;
  }
  std::optional<RepResult> traced;
  if (o.trace) {
    spans.set_enabled(true);
    traced = timed(Mode::kTraced);
    spans.set_enabled(false);
    std::ofstream span_file(o.out_dir + "/bench_spans.json");
    spans.write_json(span_file);
  }

  // Every repetition (the traced one too: tracing must not perturb the
  // protocol) replays one schedule, so the deterministic numbers and the
  // final view must agree exactly.
  const auto same = [&](const RepResult& r) {
    return r.det == capture.det && r.final_view == capture.final_view;
  };
  const bool deterministic = std::all_of(reps.begin(), reps.end(), same) &&
                             (!traced || same(*traced));
  {
    std::ofstream view(o.out_dir + "/final_view.txt");
    for (const auto& [gid, guid, index] : capture.final_view) {
      view << gid << ' ' << guid << ' ' << index << '\n';
    }
  }

  std::ostream& os = std::cout;
  os << std::setprecision(17);
  os << "{\"workload\": " << json_string(schedule.workload)
     << ", \"capture\": {\"setup_s\": " << capture.setup_s
     << ", \"window_s\": " << capture.window_s << "}, \"reps\": [";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "{\"setup_s\": " << reps[i].setup_s
       << ", \"window_s\": " << reps[i].window_s
       << ", \"reference_s\": " << reps[i].reference_s << '}';
  }
  os << "], \"deterministic\": " << (deterministic ? "true" : "false")
     << ", \"peak_rss_kb\": " << peak_rss_kb
     << ", \"host\": {\"compiler\": " << json_string(PERFBENCH_COMPILER)
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << "}, \"det\": ";
  write_numbers(os, capture.det);
  os << ", \"change\": ";
  write_numbers(os, capture.change);
  // The gated repetitions' results are folded: a miss in either counts.
  GateResult g = capture.gate;
  if (traced) {
    g.membership_converged =
        g.membership_converged && traced->gate.membership_converged;
    g.rings_consistent = g.rings_consistent && traced->gate.rings_consistent;
    g.group_view_divergence = std::max(g.group_view_divergence,
                                       traced->gate.group_view_divergence);
    g.divergent_members =
        std::max(g.divergent_members, traced->gate.divergent_members);
    g.violations.insert(g.violations.end(), traced->gate.violations.begin(),
                        traced->gate.violations.end());
  }
  os << ", \"gate\": {\"membership_converged\": "
     << (g.membership_converged ? "true" : "false")
     << ", \"group_view_divergence\": " << g.group_view_divergence
     << ", \"divergent_members\": " << g.divergent_members
     << ", \"rings_consistent\": " << (g.rings_consistent ? "true" : "false")
     << ", \"violations\": [";
  for (std::size_t i = 0; i < g.violations.size() && i < 8; ++i) {
    os << (i == 0 ? "" : ", ") << json_string(g.violations[i]);
  }
  os << "], \"violation_count\": " << g.violations.size() << '}';
  if (traced) {
    os << ", \"traced\": {\"setup_s\": " << traced->setup_s
       << ", \"window_s\": " << traced->window_s
       << ", \"reference_s\": " << traced->reference_s << ", \"layers\": ";
    write_numbers(os, traced->layers);
    os << '}';
  }
  os << "}\n";
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "rgb_perfbench: " << e.what() << '\n';
    return 2;
  }
}
