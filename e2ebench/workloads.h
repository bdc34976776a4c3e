// Building blocks the benchmark's workloads share: training a profile the
// way `adprom train` does, building an interleaved ADPF feed, and serving
// it through a FleetNode the way `adprom serve` does.

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/corpus.h"
#include "checks.h"
#include "core/adprom.h"
#include "service/alert_sink.h"
#include "service/fleet_node.h"
#include "service/profile_registry.h"
#include "trace.h"
#include "util/thread_pool.h"

namespace e2ebench {

namespace apps = adprom::apps;

/// Deterministic 64-bit generator (splitmix64): the benchmark's inputs
/// depend only on the seed, on every platform.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

/// Per-layer figures of one or more trainings (summed).
struct TrainLayers {
  double parse_s = 0, analyze_s = 0, cfg_s = 0, absint_s = 0, taint_s = 0,
         forecast_s = 0, aggregation_s = 0, collect_s = 0, construct_s = 0,
         reduction_s = 0, init_s = 0, baum_welch_s = 0, serialize_s = 0;
  double sites = 0, train_events = 0, states = 0, bw_iterations = 0,
         bw_windows = 0, profile_bytes = 0;
  double sys_s = 0, minor_faults = 0;
};

/// A trained profile and what the rest of the run needs from training.
struct TrainedApp {
  std::string name;
  apps::CorpusApp app;
  adprom::prog::Program program;
  adprom::core::AnalysisResult analysis;
  std::vector<adprom::runtime::Trace> traces;
  adprom::core::ApplicationProfile profile;
  std::string profile_bytes;
};

/// Source + training suite -> serialized profile, on one training thread
/// (`adprom train --threads 1`). Untraced, it makes the calls
/// `adprom train` makes (ParseProgram, AdProm::Train, Serialize). Traced,
/// it makes the same calls one layer at a time (Analyzer::Analyze,
/// AdProm::CollectTraces, ProfileConstructor::Construct) so each can be
/// timed, and adds the figures to `layers`. Returns false on error.
bool TrainApp(apps::CorpusApp app, bool traced, SpanLog* spans, int parent,
              TrainLayers* layers, TrainedApp* out, std::string* error);

/// One `adprom train --threads 1` of `app` and nothing else: ParseProgram,
/// AdProm::Train, Serialize. Returns false on error.
bool TrainProfileBytes(const apps::CorpusApp& app, std::string* bytes,
                       std::string* error);

/// The five Table V attack runs on App_b (`banking`): tampered builds
/// (Attacks 1-4) and the tautology injection (Attack 5), each traced
/// through its own CFGs as the detection phase instruments a deployed
/// build. Returns false on error.
bool AttackTraces(const TrainedApp& banking,
                  std::vector<adprom::runtime::Trace>* traces,
                  std::string* error);

/// One monitored session of the feed.
struct FeedSession {
  enum class Kind { kReplay, kHeldOut, kAttack };
  Kind kind = Kind::kReplay;
  std::string tenant;      // carried in every frame; "" = single tenant
  std::string key;         // session key carried in every frame
  std::string display_id;  // what the node hands the sink
  adprom::runtime::Trace events;
  // Filled by BuildFeed:
  size_t first_segment = 0;            // feed segment of the first frame
  std::vector<uint32_t> event_frames;  // frame index of each event
  uint32_t end_frame = 0;              // frame index of the end frame
};

/// An ADPF byte stream of interleaved sessions, cut into segments at the
/// points where the run hot-reloads a profile.
struct Feed {
  std::vector<FeedSession> sessions;
  std::string bytes;
  std::vector<size_t> segment_ends;  // byte offset where each segment ends
  size_t frames = 0;
  size_t events = 0;
  size_t predicted_verdicts = 0;
  size_t window_length = 0;
};

/// Encodes `sessions` in order, keeping `concurrent` of them open at once
/// and picking which open session sends its next frame with `rng`. A
/// session sends its end frame the first time it is picked after its last
/// event, as a multiplexed feed delivers it. The frame stream is cut into
/// `reloads` + 1 equal segments.
Feed BuildFeed(std::vector<FeedSession> sessions, size_t concurrent,
               size_t reloads, size_t window_length, uint64_t seed);

/// The benchmark's AlertSink: stores every verdict compactly per session
/// and, in traced rounds, the delay from decoding the frame that completed
/// each window to the verdict's arrival.
class VerdictSink : public adprom::service::AlertSink {
 public:
  explicit VerdictSink(const Feed* feed);

  /// Clears the per-session records. `decode_ns`, when non-null, holds the
  /// decode time of each frame of the round and turns latency recording on.
  void StartRound(const std::vector<int64_t>* decode_ns);

  void OnDetection(const std::string& session_id,
                   const adprom::core::Detection& detection) override;
  void OnSessionClosed(const std::string& session_id,
                       const adprom::service::SessionStats& stats) override;

  const std::vector<std::vector<Verdict>>& verdicts() const {
    return verdicts_;
  }
  const std::vector<uint64_t>& generations() const { return generations_; }
  size_t dropped() const;
  size_t total_verdicts() const { return total_.load(); }
  size_t alarms() const { return alarms_.load(); }
  size_t unknown_sessions() const { return unknown_.load(); }
  /// Appends this round's latencies (ns) to `out`.
  void CollectLatencies(std::vector<int64_t>* out) const;

 private:
  const Feed* feed_;
  std::unordered_map<std::string, size_t> index_;
  const std::vector<int64_t>* decode_ns_ = nullptr;
  // Slot s is touched only by the thread currently serving session s.
  std::vector<std::vector<Verdict>> verdicts_;
  std::vector<std::vector<int64_t>> latencies_;
  std::vector<uint64_t> generations_;
  std::vector<size_t> dropped_;
  std::atomic<size_t> total_{0};
  std::atomic<size_t> alarms_{0};
  std::atomic<size_t> unknown_{0};
};

/// A fleet node as `adprom serve --threads 1` builds it: profiles
/// installed in a registry, a one-worker pool, and the node.
struct Node {
  adprom::service::ProfileRegistry registry;
  std::unique_ptr<adprom::util::ThreadPool> pool;
  std::unique_ptr<VerdictSink> sink;
  std::unique_ptr<adprom::service::FleetNode> fleet;
  /// Tenant whose profile is hot-reloaded between feed segments, and the
  /// serialized profile it reloads.
  std::string reload_tenant;
  std::string reload_text;
};

/// Deserializes and installs each (tenant, serialized profile) pair and
/// starts the node. Returns false on error.
bool StartNode(const std::vector<std::pair<std::string, std::string>>& profiles,
               const Feed* feed, bool qualify_sink_ids, Node* node,
               std::string* error);

/// What one pass over the feed cost.
struct RoundStats {
  double wall_s = 0, decode_s = 0, submit_s = 0, close_s = 0, drain_s = 0,
         reload_s = 0, cpu_s = 0;
  size_t reloads = 0;
  size_t failed = 0;  // rejected submits, closes or reloads
  std::string first_error;
};

/// Feeds the whole feed through the node in 64 KiB chunks (the read size
/// of `adprom serve`), through a fresh FrameDecoder, reloading
/// `reload_tenant` between segments, then drains the node. Traced rounds
/// time decode and submit per frame and record verdict latencies.
RoundStats ServeRound(const Feed& feed, bool traced, Node* node,
                      std::vector<int64_t>* decode_ns);

/// The window of session `session` that verdict `verdict` scored.
std::span<const adprom::runtime::CallEvent> WindowOf(
    const FeedSession& session, const Verdict& verdict, size_t window_length);

double Median(std::vector<double> values);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
