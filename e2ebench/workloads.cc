#include "workloads.h"

#include <algorithm>
#include <optional>
#include <string_view>

#include "attack/mutators.h"
#include "core/analyzer.h"
#include "core/profile_constructor.h"
#include "prog/cfg.h"
#include "runtime/frame_codec.h"

namespace e2ebench {

namespace core = adprom::core;
namespace prog = adprom::prog;
namespace runtime = adprom::runtime;
namespace service = adprom::service;

namespace {

constexpr size_t kChunkBytes = 64 * 1024;  // `adprom serve`'s read size

}  // namespace

bool TrainApp(apps::CorpusApp app, bool traced, SpanLog* spans, int parent,
              TrainLayers* layers, TrainedApp* out, std::string* error) {
  ScopedSpan train_span(spans, "train." + app.name, parent);
  const Usage usage_before = ReadUsage();
  core::ProfileOptions options;
  options.train.num_threads = 1;

  auto t = Clock::now();
  auto parsed = adprom::prog::ParseProgram(app.source);
  if (!parsed.ok()) {
    *error = app.name + ": " + parsed.status().ToString();
    return false;
  }
  if (traced) {
    spans->Add("prog.parse", train_span.id(), t, Clock::now());
    layers->parse_s += SecondsBetween(t, Clock::now());
  }
  out->name = app.name;
  out->program = std::move(parsed).value();

  if (!traced) {
    auto system = core::AdProm::Train(out->program, app.db_factory,
                                      app.test_cases, options);
    if (!system.ok()) {
      *error = app.name + ": " + system.status().ToString();
      return false;
    }
    out->profile_bytes = system->profile().Serialize();
    // Bookkeeping for the rest of the run. The caller's training clock
    // includes these copies; they are small beside training.
    out->analysis = system->analysis();
    out->traces = system->training_traces();
    out->profile = system->profile();
    out->app = std::move(app);
    return true;
  }

  // The same work as AdProm::Train with one training thread (which builds
  // no analysis pool), one layer at a time.
  t = Clock::now();
  core::AnalyzerOptions analyzer_options;
  analyzer_options.flow_insensitive_taint = options.flow_insensitive_taint;
  analyzer_options.absint_refinement = options.absint_refinement;
  core::Analyzer analyzer(std::move(analyzer_options));
  auto analysis = analyzer.Analyze(out->program);
  if (!analysis.ok()) {
    *error = app.name + ": " + analysis.status().ToString();
    return false;
  }
  out->analysis = std::move(analysis).value();
  spans->Add("analysis.analyze", train_span.id(), t, Clock::now());
  layers->analyze_s += SecondsBetween(t, Clock::now());
  const core::AnalysisResult& a = out->analysis;
  layers->cfg_s += a.cfg_seconds;
  layers->absint_s += a.absint_seconds;
  layers->taint_s += a.taint_seconds;
  layers->forecast_s += a.forecast_seconds;
  layers->aggregation_s += a.aggregation_seconds;
  layers->sites += static_cast<double>(a.program_ctm.num_sites());

  t = Clock::now();
  auto traces = core::AdProm::CollectTraces(out->program, a.cfgs,
                                            app.db_factory, app.test_cases);
  if (!traces.ok()) {
    *error = app.name + ": " + traces.status().ToString();
    return false;
  }
  out->traces = std::move(traces).value();
  spans->Add("runtime.collect", train_span.id(), t, Clock::now());
  layers->collect_s += SecondsBetween(t, Clock::now());
  for (const runtime::Trace& trace : out->traces) {
    layers->train_events += static_cast<double>(trace.size());
    layers->bw_windows += static_cast<double>(
        core::SlidingWindows(trace, options.window_length).size());
  }

  t = Clock::now();
  core::ConstructionTimings timings;
  core::ProfileConstructor constructor(options);
  auto profile = constructor.Construct(out->analysis, out->traces, &timings);
  if (!profile.ok()) {
    *error = app.name + ": " + profile.status().ToString();
    return false;
  }
  out->profile = std::move(profile).value();
  const Clock::time_point construct_end = Clock::now();
  spans->Add("core.construct", train_span.id(), t, construct_end);
  layers->construct_s += SecondsBetween(t, construct_end);
  layers->reduction_s += timings.reduction_seconds;
  layers->init_s += timings.init_seconds;
  layers->baum_welch_s += timings.training_seconds;
  layers->states += static_cast<double>(out->profile.num_states);
  layers->bw_iterations += out->profile.train_stats.iterations;

  t = Clock::now();
  out->profile_bytes = out->profile.Serialize();
  spans->Add("core.serialize", train_span.id(), t, Clock::now());
  layers->serialize_s += SecondsBetween(t, Clock::now());
  layers->profile_bytes += static_cast<double>(out->profile_bytes.size());

  const Usage usage_after = ReadUsage();
  layers->sys_s += usage_after.sys_s - usage_before.sys_s;
  layers->minor_faults +=
      static_cast<double>(usage_after.minor_faults - usage_before.minor_faults);
  out->app = std::move(app);
  return true;
}

bool TrainProfileBytes(const apps::CorpusApp& app, std::string* bytes,
                       std::string* error) {
  core::ProfileOptions options;
  options.train.num_threads = 1;
  auto program = adprom::prog::ParseProgram(app.source);
  if (!program.ok()) {
    *error = app.name + ": " + program.status().ToString();
    return false;
  }
  auto system =
      core::AdProm::Train(*program, app.db_factory, app.test_cases, options);
  if (!system.ok()) {
    *error = app.name + ": " + system.status().ToString();
    return false;
  }
  *bytes = system->profile().Serialize();
  return true;
}

bool AttackTraces(const TrainedApp& banking,
                  std::vector<runtime::Trace>* traces, std::string* error) {
  namespace attack = adprom::attack;
  const prog::Program& benign = banking.program;
  struct Scenario {
    adprom::util::Result<prog::Program> deployed;
    core::TestCase input;
  };
  const auto insert = [&](const std::string& function,
                          const std::string& variable,
                          const std::string& call, const std::string& arg,
                          attack::InsertWhere where) {
    attack::InsertOutputSpec spec;
    spec.function = function;
    spec.variable = variable;
    spec.output_call = call;
    spec.channel_arg = arg;
    spec.where = where;
    return attack::InsertOutputStatement(benign, spec);
  };
  std::vector<Scenario> scenarios;
  scenarios.push_back({insert("statement", "bal", "print", "",
                              attack::InsertWhere::kEnd),
                       {{"statement", "503"}}});
  scenarios.push_back({insert("audit", "msg", "print", "",
                              attack::InsertWhere::kEnd),
                       {{"typo", "statement", "503"}}});
  scenarios.push_back({attack::ReplaceCallArgument(benign, "transfer",
                                                   "print", 0, 0, "have"),
                       {{"transfer", "507", "508", "25"}}});
  scenarios.push_back({insert("find_client", "row", "write_file",
                              "exfil.bin",
                              attack::InsertWhere::kBodyOfFirstWhile),
                       {{"client", "104"}}});
  scenarios.push_back(
      {benign.Clone(), {{"client", attack::TautologyPayload()}}});

  for (Scenario& scenario : scenarios) {
    if (!scenario.deployed.ok()) {
      *error = scenario.deployed.status().ToString();
      return false;
    }
    auto cfgs = prog::BuildAllCfgs(*scenario.deployed);
    if (!cfgs.ok()) {
      *error = cfgs.status().ToString();
      return false;
    }
    auto trace = core::AdProm::CollectTrace(*scenario.deployed, *cfgs,
                                            banking.app.db_factory,
                                            scenario.input);
    if (!trace.ok()) {
      *error = trace.status().ToString();
      return false;
    }
    traces->push_back(std::move(trace).value());
  }
  return true;
}

Feed BuildFeed(std::vector<FeedSession> sessions, size_t concurrent,
               size_t reloads, size_t window_length, uint64_t seed) {
  Feed feed;
  feed.window_length = window_length;
  feed.sessions = std::move(sessions);
  for (const FeedSession& session : feed.sessions) {
    const size_t length = session.events.size();
    feed.events += length;
    feed.predicted_verdicts += length >= window_length ? length - window_length + 1
                               : length > 0            ? 1
                                                       : 0;
  }
  feed.frames = feed.events + feed.sessions.size();

  SplitMix rng(seed);
  std::vector<size_t> open;
  std::vector<size_t> next_event(feed.sessions.size(), 0);
  size_t next_session = 0;
  size_t frame = 0;
  size_t segment = 0;
  const auto segment_of = [&](size_t f) {
    return f * (reloads + 1) / feed.frames;
  };
  while (next_session < feed.sessions.size() || !open.empty()) {
    while (open.size() < concurrent && next_session < feed.sessions.size()) {
      open.push_back(next_session++);
    }
    const size_t slot = rng.Below(open.size());
    FeedSession& session = feed.sessions[open[slot]];
    if (segment_of(frame) != segment) {
      feed.segment_ends.push_back(feed.bytes.size());
      segment = segment_of(frame);
    }
    size_t& position = next_event[open[slot]];
    if (position < session.events.size()) {
      if (position == 0) session.first_segment = segment;
      session.event_frames.push_back(static_cast<uint32_t>(frame++));
      runtime::EncodeEventFrame(session.tenant, session.key,
                                session.events[position], &feed.bytes);
      ++position;
      continue;
    }
    if (session.events.empty()) session.first_segment = segment;
    session.end_frame = static_cast<uint32_t>(frame++);
    runtime::EncodeEndFrame(session.tenant, session.key, &feed.bytes);
    open[slot] = open.back();
    open.pop_back();
  }
  feed.segment_ends.push_back(feed.bytes.size());
  return feed;
}

VerdictSink::VerdictSink(const Feed* feed)
    : feed_(feed),
      verdicts_(feed->sessions.size()),
      latencies_(feed->sessions.size()),
      generations_(feed->sessions.size(), 0),
      dropped_(feed->sessions.size(), 0) {
  for (size_t s = 0; s < feed->sessions.size(); ++s) {
    index_.emplace(feed->sessions[s].display_id, s);
    const size_t length = feed->sessions[s].events.size();
    verdicts_[s].reserve(length >= feed->window_length
                             ? length - feed->window_length + 1
                             : 1);
  }
}

void VerdictSink::StartRound(const std::vector<int64_t>* decode_ns) {
  decode_ns_ = decode_ns;
  for (size_t s = 0; s < verdicts_.size(); ++s) {
    verdicts_[s].clear();
    latencies_[s].clear();
    generations_[s] = 0;
    dropped_[s] = 0;
  }
  total_ = 0;
  alarms_ = 0;
  unknown_ = 0;
}

void VerdictSink::OnDetection(const std::string& session_id,
                              const core::Detection& detection) {
  const auto it = index_.find(session_id);
  if (it == index_.end()) {
    unknown_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const size_t s = it->second;
  verdicts_[s].push_back(ToVerdict(detection));
  total_.fetch_add(1, std::memory_order_relaxed);
  if (detection.IsAlarm()) alarms_.fetch_add(1, std::memory_order_relaxed);
  if (decode_ns_ != nullptr) {
    // The frame that completed the window: its last event, or the end
    // frame for a session shorter than the window.
    const FeedSession& session = feed_->sessions[s];
    const size_t last = detection.window_start + feed_->window_length - 1;
    const uint32_t frame = last < session.events.size()
                               ? session.event_frames[last]
                               : session.end_frame;
    latencies_[s].push_back(NanosSinceEpoch(Clock::now()) -
                            (*decode_ns_)[frame]);
  }
}

void VerdictSink::OnSessionClosed(const std::string& session_id,
                                  const service::SessionStats& stats) {
  const auto it = index_.find(session_id);
  if (it == index_.end()) {
    unknown_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  generations_[it->second] = stats.profile_generation;
  dropped_[it->second] = stats.dropped_events;
}

size_t VerdictSink::dropped() const {
  size_t total = 0;
  for (const size_t d : dropped_) total += d;
  return total;
}

void VerdictSink::CollectLatencies(std::vector<int64_t>* out) const {
  for (const auto& session : latencies_) {
    out->insert(out->end(), session.begin(), session.end());
  }
}

bool StartNode(const std::vector<std::pair<std::string, std::string>>& profiles,
               const Feed* feed, bool qualify_sink_ids, Node* node,
               std::string* error) {
  for (const auto& [tenant, text] : profiles) {
    auto profile = core::ApplicationProfile::Deserialize(text);
    if (!profile.ok()) {
      *error = tenant + ": " + profile.status().ToString();
      return false;
    }
    const adprom::util::Status installed =
        node->registry.Install(tenant, std::move(profile).value(), tenant);
    if (!installed.ok()) {
      *error = tenant + ": " + installed.ToString();
      return false;
    }
  }
  service::FleetOptions options;
  options.qualify_sink_ids = qualify_sink_ids;
  node->pool = std::make_unique<adprom::util::ThreadPool>(1);
  node->sink = std::make_unique<VerdictSink>(feed);
  node->fleet = std::make_unique<service::FleetNode>(
      &node->registry, node->sink.get(), node->pool.get(), options);
  return true;
}

RoundStats ServeRound(const Feed& feed, bool traced, Node* node,
                      std::vector<int64_t>* decode_ns) {
  RoundStats stats;
  const auto fail = [&](const adprom::util::Status& status) {
    ++stats.failed;
    if (stats.first_error.empty()) stats.first_error = status.ToString();
  };
  if (traced) decode_ns->assign(feed.frames, 0);
  node->sink->StartRound(traced ? decode_ns : nullptr);
  service::FleetNode& fleet = *node->fleet;
  runtime::FrameDecoder decoder;
  const Usage usage_before = ReadUsage();
  const Clock::time_point start = Clock::now();
  size_t offset = 0;
  size_t frame_index = 0;
  for (size_t segment = 0; segment < feed.segment_ends.size(); ++segment) {
    if (segment > 0) {
      const Clock::time_point t = Clock::now();
      const adprom::util::Status reloaded = node->registry.Reload(
          node->reload_tenant, node->reload_text, "reload");
      if (!reloaded.ok()) fail(reloaded);
      stats.reload_s += SecondsBetween(t, Clock::now());
      ++stats.reloads;
    }
    while (offset < feed.segment_ends[segment]) {
      const size_t length =
          std::min(kChunkBytes, feed.segment_ends[segment] - offset);
      Clock::time_point t = traced ? Clock::now() : Clock::time_point();
      decoder.Feed(std::string_view(feed.bytes.data() + offset, length));
      offset += length;
      while (true) {
        auto frame = decoder.Next();
        if (traced) {
          const Clock::time_point decoded = Clock::now();
          stats.decode_s += SecondsBetween(t, decoded);
          if (frame.ok() && frame->has_value()) {
            (*decode_ns)[frame_index] = NanosSinceEpoch(decoded);
          }
          t = decoded;
        }
        if (!frame.ok()) {
          fail(frame.status());
          return stats;
        }
        if (!frame->has_value()) break;
        ++frame_index;
        runtime::Frame& f = **frame;
        const std::string tenant = f.tenant.empty() ? "default" : f.tenant;
        const bool close = f.type == runtime::FrameType::kEndSession;
        const adprom::util::Status status =
            close ? fleet.CloseSession(tenant, f.session)
                  : fleet.Submit(tenant, f.session, std::move(f.event));
        if (!status.ok()) fail(status);
        if (traced) {
          const Clock::time_point routed = Clock::now();
          (close ? stats.close_s : stats.submit_s) +=
              SecondsBetween(t, routed);
          t = routed;
        }
      }
    }
  }
  const adprom::util::Status finished = decoder.Finish();
  if (!finished.ok()) fail(finished);
  const Clock::time_point drain_start = Clock::now();
  fleet.Drain();
  const Clock::time_point end = Clock::now();
  stats.drain_s = SecondsBetween(drain_start, end);
  stats.wall_s = SecondsBetween(start, end);
  const Usage usage_after = ReadUsage();
  stats.cpu_s = (usage_after.user_s - usage_before.user_s) +
                (usage_after.sys_s - usage_before.sys_s);
  return stats;
}

std::span<const runtime::CallEvent> WindowOf(const FeedSession& session,
                                             const Verdict& verdict,
                                             size_t window_length) {
  const std::span<const runtime::CallEvent> events(session.events);
  if (events.size() < window_length) return events;
  return events.subspan(verdict.window_start, window_length);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace e2ebench
