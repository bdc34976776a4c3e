// End-to-end benchmark of AD-PROM's two user-facing paths:
//
//   training   MiniApp source + test suite -> serialized profile
//              (what `adprom train` does), and
//   detection  ADPF bytes -> FrameDecoder -> FleetNode -> verdicts in a
//              sink (what `adprom serve --threads 1` does).
//
// Usage:
//   e2ebench --workload bash|tenants --seed N --seconds S --trace 0|1
//            [--out-dir DIR]
//   e2ebench --cold-train 1
//
// The second form is a fresh process in which a bash run trains its
// profile again, cold: it writes the training's wall time on the first
// line of standard output and the serialized profile after it.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// report the per-layer metrics and write their spans to DIR. README.md in
// this directory describes the workloads and every metric.

#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "workloads.h"

namespace e2ebench {
namespace {

namespace core = adprom::core;
namespace prog = adprom::prog;
namespace runtime = adprom::runtime;

// --- Workload sizes (see README.md) -------------------------------------

// bash: the corpus's App4 with its 170 builtins. The training suite is the
// corpus's own generator seed cut to 12 cases; a seed-drawn suite would
// make train_s measure the draw, since Baum-Welch's early stop runs 18 to
// 50 iterations depending on the suite. The served held-out runs come from
// the workload seed: 8 sessions of 24 runs each, sent one session at a
// time, so the node's queue stays full behind back-pressure.
constexpr size_t kBashBuiltins = 170;
constexpr size_t kBashTrainCases = 12;
constexpr uint64_t kBashTrainSeed = 1004;
constexpr size_t kBashSessions = 8;
constexpr size_t kBashRunsPerSession = 24;
constexpr size_t kBashConcurrent = 1;
// bash trains its profile cold this many more times, each in a fresh
// process, spread evenly through the measured phase.
constexpr size_t kBashColdAgain = 2;

// tenants: seven small profiles (the corpus's own suites) behind one node;
// 4000 replayed training runs plus the five attacks, 64 sessions open at
// once. Before each pass over the feed App_h is trained again, and the
// new profile is hot-reloaded three times during the pass.
constexpr size_t kTenantSessions = 4000;
constexpr size_t kTenantConcurrent = 64;
constexpr size_t kTenantReloads = 3;
const char* const kReloadTenant = "App_h";
const char* const kAttackTenant = "App_b";

// Windows scored by the independent long double forward pass.
constexpr size_t kForwardSample = 256;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  bool cold_train = false;
};

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--out-dir") {
      options->out_dir = value;
    } else if (flag == "--cold-train") {
      options->cold_train = value == "1";
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return options->cold_train ||
         ((options->workload == "bash" || options->workload == "tenants") &&
          options->seconds > 0);
}

/// Mixes the workload seed with a stream id, so each generated input has
/// its own stream.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  SplitMix mix(seed * 0x100000001b3ull + stream);
  return mix.Next();
}

/// Metrics in report order, plus the run's verdict on correctness.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Check(const CheckResult& result) {
    std::printf("check %-30s %s%s\n", result.name.c_str(),
                result.ok ? "ok" : "FAILED: ", result.message.c_str());
    correct_ = correct_ && result.ok;
  }
  void Attempt(size_t attempted, size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void Print() const {
    std::string json = "{\"correct\": ";
    json += correct_ ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g",
                    std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0);
      json += (i == 0 ? "\"" : ", \"") + metrics_[i].name +
              "\": {\"value\": " + value + ", \"unit\": \"" +
              metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "e2ebench: %s\n", message.c_str());
  std::exit(1);
}

/// One workload's trained apps, feed and node.
struct Workload {
  std::vector<TrainedApp> apps;
  Feed feed;
  Node node;
  double train_s = 0;
  TrainLayers layers;
  double startup_s = 0;
};

/// Trains each app in order, adding the training wall time to w->train_s.
void TrainAll(std::vector<apps::CorpusApp> corpus, const Options& options,
              SpanLog* spans, int parent, Workload* w) {
  const int train_span = spans->Begin("train", parent);
  for (apps::CorpusApp& app : corpus) {
    w->apps.emplace_back();
    std::string error;
    const Clock::time_point start = Clock::now();
    if (!TrainApp(std::move(app), options.trace, spans, train_span,
                  &w->layers, &w->apps.back(), &error)) {
      Die("training failed: " + error);
    }
    w->train_s += SecondsBetween(start, Clock::now());
  }
  spans->End(train_span);
}

const TrainedApp& AppNamed(const Workload& w, const std::string& name) {
  for (const TrainedApp& app : w.apps) {
    if (app.name == name) return app;
  }
  Die("no app " + name);
}

/// bash's training input: App4 and its fixed 12-case suite.
apps::CorpusApp BashApp() {
  return apps::MakeBashLike(kBashBuiltins, kBashTrainCases, kBashTrainSeed);
}

/// bash: inputs, cold training, and the held-out session feed.
void PrepareBash(const Options& options, SpanLog* spans, int parent,
                 Workload* w) {
  TrainAll({BashApp()}, options, spans, parent, w);
  const int span = spans->Begin("setup.feed", parent);
  const TrainedApp& bash = w->apps.front();
  const std::vector<core::TestCase> held_out =
      apps::MakeBashLike(kBashBuiltins, kBashSessions * kBashRunsPerSession,
                         StreamSeed(options.seed, 1))
          .test_cases;
  auto runs = core::AdProm::CollectTraces(bash.program, bash.analysis.cfgs,
                                          bash.app.db_factory, held_out);
  if (!runs.ok()) Die("held-out runs: " + runs.status().ToString());
  std::vector<FeedSession> sessions(kBashSessions);
  for (size_t s = 0; s < kBashSessions; ++s) {
    sessions[s].kind = FeedSession::Kind::kHeldOut;
    sessions[s].key = "bash-" + std::to_string(s);
    sessions[s].display_id = sessions[s].key;
    for (size_t r = 0; r < kBashRunsPerSession; ++r) {
      const runtime::Trace& run = (*runs)[s * kBashRunsPerSession + r];
      sessions[s].events.insert(sessions[s].events.end(), run.begin(),
                                run.end());
    }
  }
  w->feed = BuildFeed(std::move(sessions), kBashConcurrent, 0,
                      bash.profile.options.window_length,
                      StreamSeed(options.seed, 2));
  spans->End(span);
}

/// tenants: the seven small profiles and thousands of short replay
/// sessions, with the Table V attacks on App_b among them.
void PrepareTenants(const Options& options, SpanLog* spans, int parent,
                    Workload* w) {
  TrainAll({apps::MakeHospitalApp(), apps::MakeBankingApp(),
            apps::MakeSupermarketApp(), apps::MakeWebPortalApp(),
            apps::MakeGrepLike(), apps::MakeGzipLike(), apps::MakeSedLike()},
           options, spans, parent, w);
  const int span = spans->Begin("setup.feed", parent);
  SplitMix rng(StreamSeed(options.seed, 3));
  std::vector<FeedSession> sessions;
  sessions.reserve(kTenantSessions + 5);
  for (size_t s = 0; s < kTenantSessions; ++s) {
    const TrainedApp& app = w->apps[rng.Below(w->apps.size())];
    FeedSession session;
    session.kind = FeedSession::Kind::kReplay;
    session.tenant = app.name;
    session.key = "s" + std::to_string(s);
    session.events = app.traces[rng.Below(app.traces.size())];
    sessions.push_back(std::move(session));
  }
  std::vector<runtime::Trace> attacks;
  std::string error;
  if (!AttackTraces(AppNamed(*w, kAttackTenant), &attacks, &error)) {
    Die("attack runs: " + error);
  }
  for (size_t a = 0; a < attacks.size(); ++a) {
    FeedSession session;
    session.kind = FeedSession::Kind::kAttack;
    session.tenant = kAttackTenant;
    session.key = "attack-" + std::to_string(a + 1);
    session.events = std::move(attacks[a]);
    const size_t at = rng.Below(sessions.size() + 1);
    sessions.insert(sessions.begin() + static_cast<std::ptrdiff_t>(at),
                    std::move(session));
  }
  for (FeedSession& session : sessions) {
    session.display_id = session.tenant + "/" + session.key;
  }
  w->feed = BuildFeed(std::move(sessions), kTenantConcurrent, kTenantReloads,
                      w->apps.front().profile.options.window_length,
                      StreamSeed(options.seed, 4));
  w->node.reload_tenant = kReloadTenant;
  w->node.reload_text = AppNamed(*w, kReloadTenant).profile_bytes;
  spans->End(span);
}

/// Pins the process, before it starts any thread, to the highest-numbered
/// CPU it may run on. Serving then runs the feeding thread and the node's
/// worker on one core, so events_per_s is detection capacity per core.
/// Spread over two CPUs, the two threads hand every event across CPUs, and
/// on a virtual machine that hand-off waits for the host to wake an idle
/// virtual CPU: measured throughput then swung 33k-113k events/s on
/// tenants, against 84k-93k pinned.
void PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) {
      std::fprintf(stderr, "pinned to CPU %d\n", cpu);
    }
    return;
  }
}

/// The --cold-train process: one cold training of bash's profile.
int ColdTrain() {
  apps::CorpusApp app = BashApp();
  std::string bytes, error;
  const Clock::time_point start = Clock::now();
  if (!TrainProfileBytes(app, &bytes, &error)) Die("training failed: " + error);
  const double seconds = SecondsBetween(start, Clock::now());
  std::printf("%.17g\n", seconds);
  std::fwrite(bytes.data(), 1, bytes.size(), stdout);
  return std::fflush(stdout) == 0 ? 0 : 1;
}

/// Runs this program again with --cold-train and waits for it to end, so
/// bash's profile is trained again in a process that has trained nothing
/// before. It inherits this process's CPU.
bool TrainInFreshProcess(double* seconds, std::string* bytes,
                         std::string* error) {
  int fds[2];
  if (pipe(fds) != 0) {
    *error = "pipe failed";
    return false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  char self[] = "/proc/self/exe";
  char flag[] = "--cold-train";
  char one[] = "1";
  char* argv[] = {self, flag, one, nullptr};
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, self, &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (spawned != 0) {
    close(fds[0]);
    *error = "could not start " + std::string(self);
    return false;
  }
  std::string output;
  char buffer[1 << 16];
  ssize_t n = 0;
  while ((n = read(fds[0], buffer, sizeof(buffer))) != 0) {
    if (n > 0) output.append(buffer, static_cast<size_t>(n));
    if (n < 0 && errno != EINTR) break;
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  const size_t line_end = output.find('\n');
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      line_end == std::string::npos) {
    *error = "the --cold-train process failed";
    return false;
  }
  *seconds = std::strtod(output.c_str(), nullptr);
  *bytes = output.substr(line_end + 1);
  return *seconds > 0;
}

/// Loads the trained profiles into a fresh node.
void Start(const Options& options, SpanLog* spans, int parent, Workload* w) {
  const int span = spans->Begin("service.startup", parent);
  const Clock::time_point start = Clock::now();
  std::vector<std::pair<std::string, std::string>> profiles;
  const bool single = options.workload == "bash";
  for (const TrainedApp& app : w->apps) {
    profiles.emplace_back(single ? "default" : app.name, app.profile_bytes);
  }
  std::string error;
  if (!StartNode(profiles, &w->feed, !single, &w->node, &error)) {
    Die("node start: " + error);
  }
  w->startup_s = SecondsBetween(start, Clock::now());
  spans->End(span);
}

/// Reference verdicts: DetectionEngine::MonitorTraces over each profile's
/// sessions on one thread, grouped back into feed order.
std::vector<std::vector<Verdict>> ReferenceVerdicts(const Workload& w,
                                                    double* seconds,
                                                    size_t* windows) {
  const Feed& feed = w.feed;
  std::vector<std::vector<Verdict>> reference(feed.sessions.size());
  *seconds = 0;
  *windows = 0;
  for (const TrainedApp& app : w.apps) {
    const std::string tenant = w.apps.size() == 1 ? "" : app.name;
    std::vector<size_t> index;
    std::vector<runtime::Trace> traces;
    for (size_t s = 0; s < feed.sessions.size(); ++s) {
      if (feed.sessions[s].tenant != tenant) continue;
      index.push_back(s);
      traces.push_back(feed.sessions[s].events);
    }
    const core::DetectionEngine engine(&app.profile);
    const Clock::time_point start = Clock::now();
    const auto verdicts = engine.MonitorTraces(traces, nullptr);
    *seconds += SecondsBetween(start, Clock::now());
    for (size_t i = 0; i < index.size(); ++i) {
      *windows += verdicts[i].size();
      for (const core::Detection& d : verdicts[i]) {
        reference[index[i]].push_back(ToVerdict(d));
      }
    }
  }
  return reference;
}

const TrainedApp& AppOfSession(const Workload& w, const FeedSession& session) {
  return w.apps.size() == 1 ? w.apps.front() : AppNamed(w, session.tenant);
}

/// Runs every output check on the last served round.
void RunChecks(const Options& options, const Workload& w,
               const std::vector<std::vector<Verdict>>& reference,
               uint64_t reload_generation_base, Report* report) {
  const Feed& feed = w.feed;
  const VerdictSink& sink = *w.node.sink;
  const auto& served = sink.verdicts();

  report->Check(CheckSessionVerdicts(served, reference));

  std::vector<size_t> lengths;
  for (const FeedSession& session : feed.sessions) {
    lengths.push_back(session.events.size());
  }
  report->Check(CheckConservation(lengths, feed.window_length, served,
                                  feed.predicted_verdicts,
                                  sink.dropped() + w.node.fleet->total_dropped()));

  // The independent forward pass over a seeded sample of served windows,
  // one profile at a time.
  SplitMix rng(StreamSeed(options.seed, 5));
  for (const TrainedApp& app : w.apps) {
    std::vector<ServedWindow> sample;
    std::vector<std::pair<size_t, size_t>> candidates;
    for (size_t s = 0; s < feed.sessions.size(); ++s) {
      if (&AppOfSession(w, feed.sessions[s]) != &app) continue;
      for (size_t v = 0; v < served[s].size(); ++v) candidates.push_back({s, v});
    }
    const size_t want = std::max<size_t>(1, kForwardSample / w.apps.size());
    for (size_t i = 0; i < want && !candidates.empty(); ++i) {
      const auto [s, v] = candidates[rng.Below(candidates.size())];
      sample.push_back({WindowOf(feed.sessions[s], served[s][v],
                                 feed.window_length),
                        served[s][v]});
    }
    CheckResult scores = CheckScores(app.profile, sample);
    scores.name += "." + app.name;
    report->Check(scores);
  }

  // No training run is flagged: the profile's own training traces, and
  // every served replay of one.
  std::vector<std::vector<Verdict>> training_runs;
  for (const TrainedApp& app : w.apps) {
    const core::DetectionEngine engine(&app.profile);
    for (const auto& verdicts : engine.MonitorTraces(app.traces, nullptr)) {
      training_runs.emplace_back();
      for (const core::Detection& d : verdicts) {
        training_runs.back().push_back(ToVerdict(d));
      }
    }
  }
  std::vector<std::vector<Verdict>> attack_sessions;
  for (size_t s = 0; s < feed.sessions.size(); ++s) {
    if (feed.sessions[s].kind == FeedSession::Kind::kReplay) {
      training_runs.push_back(served[s]);
    } else if (feed.sessions[s].kind == FeedSession::Kind::kAttack) {
      attack_sessions.push_back(served[s]);
    }
  }
  report->Check(CheckTrainingRunsQuiet(training_runs));
  if (options.workload == "tenants") {
    report->Check(CheckAttacksConnected(attack_sessions));
  }

  for (const TrainedApp& app : w.apps) {
    CheckResult rows = CheckRowsStochastic(app.profile.model);
    rows.name += "." + app.name;
    report->Check(rows);
    // The initial model: the same construction stopped before the first
    // Baum-Welch iteration.
    core::ProfileOptions initial_options;
    initial_options.train.num_threads = 1;
    initial_options.train.max_iterations = 0;
    auto initial = core::ProfileConstructor(initial_options)
                       .Construct(app.analysis, app.traces);
    if (!initial.ok()) Die("initial model: " + initial.status().ToString());
    CheckResult transitions =
        CheckNoNewTransitions(initial->model, app.profile.model);
    transitions.name += "." + app.name;
    report->Check(transitions);
  }

  std::vector<GenerationRecord> generations;
  for (size_t s = 0; s < feed.sessions.size(); ++s) {
    const FeedSession& session = feed.sessions[s];
    const bool reloaded = !w.node.reload_tenant.empty() &&
                          session.tenant == w.node.reload_tenant;
    generations.push_back(
        {reloaded ? reload_generation_base + session.first_segment : 1,
         sink.generations()[s]});
  }
  report->Check(CheckGenerations(generations));
}

double Min(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : *std::min_element(values.begin(), values.end());
}

int Run(const Options& options) {
  const Clock::time_point process_start = Clock::now();
  SpanLog spans(options.trace);
  const int run_span = spans.Begin("run." + options.workload, -1);
  Report report;
  Workload w;

  if (options.workload == "bash") {
    PrepareBash(options, &spans, run_span, &w);
  } else {
    PrepareTenants(options, &spans, run_span, &w);
  }
  Start(options, &spans, run_span, &w);
  report.Attempt(w.apps.size(), 0);

  // --- Measured phase: whole rounds until --seconds have passed. On
  // tenants a round first trains the reload tenant's profile again, as
  // `adprom train` would, and hot-reloads that profile during the pass.
  // Every round serves one pass over the feed. Traced runs alternate
  // traced and untraced passes, so the tracing overhead is measured inside
  // one process.
  const int serve_span = spans.Begin("serve", run_span);
  const Clock::time_point serve_start = Clock::now();
  std::vector<RoundStats> traced_rounds, plain_rounds;
  std::vector<double> retrain_s;
  CheckResult retrained = CheckRetrainedProfile("", "");
  std::vector<int64_t> decode_ns, latencies;
  uint64_t reload_generation_base = 0;
  size_t rounds = 0;
  // At 1/3 and 2/3 of the way, bash trains its profile again, cold, in a
  // fresh process; that time is not part of the measured --seconds.
  const bool bash = options.workload == "bash";
  double paused_s = 0;
  const auto measured_s = [&] {
    return SecondsBetween(serve_start, Clock::now()) - paused_s;
  };
  const auto train_cold_again = [&] {
    const int span = spans.Begin("train.cold_again", serve_span);
    const Clock::time_point start = Clock::now();
    std::string bytes, error;
    double seconds = 0;
    if (!TrainInFreshProcess(&seconds, &bytes, &error)) Die(error);
    paused_s += SecondsBetween(start, Clock::now());
    spans.End(span);
    retrain_s.push_back(seconds);
    std::fprintf(stderr, "cold training: %.3f s, again in a fresh process: "
                 "%.3f s\n", w.train_s, seconds);
    if (retrained.ok) {
      retrained = CheckRetrainedProfile(w.apps.front().profile_bytes, bytes);
    }
    report.Attempt(1, 0);
  };
  while (rounds < 2 || measured_s() < options.seconds) {
    if (bash && retrain_s.size() < kBashColdAgain &&
        measured_s() >= options.seconds *
                            static_cast<double>(retrain_s.size() + 1) /
                            (kBashColdAgain + 1)) {
      train_cold_again();
    }
    if (!w.node.reload_tenant.empty()) {
      const TrainedApp& app = AppNamed(w, w.node.reload_tenant);
      const int span = spans.Begin("train.again", serve_span);
      std::string bytes, error;
      const Clock::time_point start = Clock::now();
      if (!TrainProfileBytes(app.app, &bytes, &error)) {
        Die("training again: " + error);
      }
      retrain_s.push_back(SecondsBetween(start, Clock::now()));
      spans.End(span);
      if (retrained.ok) {
        retrained = CheckRetrainedProfile(app.profile_bytes, bytes);
      }
      w.node.reload_text = std::move(bytes);
      report.Attempt(1, 0);
    }
    const bool traced = options.trace && rounds % 2 == 1;
    reload_generation_base = w.node.reload_tenant.empty()
                                 ? 0
                                 : w.node.registry.Generation(
                                       w.node.reload_tenant);
    const int round_span =
        spans.Begin(traced ? "serve.round.traced" : "serve.round", serve_span);
    RoundStats round = ServeRound(w.feed, traced, &w.node, &decode_ns);
    spans.End(round_span);
    std::fprintf(stderr, "round %zu%s: %.3f s, %.0f events/s, %.2f CPUs busy",
                 rounds, traced ? " (traced)" : "", round.wall_s,
                 static_cast<double>(w.feed.events) / round.wall_s,
                 round.cpu_s / round.wall_s);
    if (!bash) {
      std::fprintf(stderr, "; trained again in %.3f s", retrain_s.back());
    }
    std::fprintf(stderr, "\n");
    if (round.failed > 0) {
      std::fprintf(stderr, "round %zu: %zu failed operations, first: %s\n",
                   rounds, round.failed, round.first_error.c_str());
    }
    const size_t verdicts = w.node.sink->total_verdicts();
    const size_t strays = w.node.sink->unknown_sessions();
    if (verdicts != w.feed.predicted_verdicts || strays != 0) {
      std::fprintf(stderr,
                   "round %zu: %zu verdicts, expected %zu; %zu sink calls for"
                   " sessions not in the feed\n",
                   rounds, verdicts, w.feed.predicted_verdicts, strays);
      ++round.failed;
    }
    report.Attempt(w.feed.frames + round.reloads, round.failed);
    if (traced) {
      w.node.sink->CollectLatencies(&latencies);
      traced_rounds.push_back(round);
    } else {
      plain_rounds.push_back(round);
    }
    ++rounds;
  }
  while (bash && retrain_s.size() < kBashColdAgain) train_cold_again();
  spans.End(serve_span);
  const double setup_s = SecondsBetween(process_start, serve_start) -
                         (bash ? w.train_s : 0.0);
  // The fastest sample: the host's contention only ever slows a sample
  // down, so the minimum is the figure that repeats across runs. bash has
  // three cold trainings, tenants one warm training of App_h per round.
  const double train_s =
      bash ? std::min(w.train_s, Min(retrain_s)) : Min(retrain_s);
  const auto rate = [&](const std::vector<RoundStats>& set) {
    std::vector<double> walls;
    for (const RoundStats& r : set) walls.push_back(r.wall_s);
    return static_cast<double>(w.feed.events) / Min(walls);
  };
  const auto median_of = [](const std::vector<RoundStats>& set,
                            double RoundStats::*field) {
    std::vector<double> values;
    for (const RoundStats& r : set) values.push_back(r.*field);
    return Median(values);
  };

  // --- Checks (untimed). The reference scoring doubles as core.score_s.
  const int check_span = spans.Begin("checks", run_span);
  double score_s = 0;
  size_t score_windows = 0;
  const int score_span = spans.Begin("core.score", check_span);
  const auto reference = ReferenceVerdicts(w, &score_s, &score_windows);
  spans.End(score_span);
  RunChecks(options, w, reference, reload_generation_base, &report);
  report.Check(retrained);
  spans.End(check_span);
  spans.End(run_span);

  const double peak_rss_mb =
      static_cast<double>(ReadUsage().max_rss_kb) / 1024.0;
  std::printf("workload %s seed %llu: %zu rounds of %zu events (%zu sessions,"
              " %zu feed bytes)\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), rounds,
              w.feed.events, w.feed.sessions.size(), w.feed.bytes.size());

  if (!options.trace) {
    report.Add("setup_s", setup_s, "s");
    report.Add("train_s", train_s, "s");
    report.Add("events_per_s", rate(plain_rounds), "events/s");
    report.Add("peak_rss_mb", peak_rss_mb, "MB");
    report.Print();
    return 0;
  }

  const TrainLayers& l = w.layers;
  report.Add("prog.parse_s", l.parse_s, "s");
  report.Add("analysis.analyze_s", l.analyze_s, "s");
  report.Add("analysis.cfg_s", l.cfg_s, "s");
  report.Add("analysis.absint_s", l.absint_s, "s");
  report.Add("analysis.taint_s", l.taint_s, "s");
  report.Add("analysis.forecast_s", l.forecast_s, "s");
  report.Add("analysis.aggregation_s", l.aggregation_s, "s");
  report.Add("analysis.sites", l.sites, "count");
  report.Add("runtime.collect_s", l.collect_s, "s");
  report.Add("runtime.train_events", l.train_events, "count");
  report.Add("ml.reduction_s", l.reduction_s, "s");
  report.Add("ml.states", l.states, "count");
  report.Add("hmm.init_s", l.init_s, "s");
  report.Add("hmm.baum_welch_s", l.baum_welch_s, "s");
  report.Add("hmm.bw_iterations", l.bw_iterations, "count");
  report.Add("hmm.bw_windows", l.bw_windows, "count");
  report.Add("core.construct_s", l.construct_s, "s");
  report.Add("core.serialize_s", l.serialize_s, "s");
  report.Add("core.profile_bytes", l.profile_bytes, "bytes");
  report.Add("process.train_sys_s", l.sys_s, "s");
  report.Add("process.train_minor_faults", l.minor_faults, "count");
  report.Add("service.startup_s", w.startup_s, "s");
  report.Add("service.reload_s",
             median_of(traced_rounds, &RoundStats::reload_s), "s");
  report.Add("service.reloads",
             static_cast<double>(traced_rounds.front().reloads), "count");
  report.Add("runtime.decode_s",
             median_of(traced_rounds, &RoundStats::decode_s), "s");
  report.Add("runtime.frames", static_cast<double>(w.feed.frames), "count");
  report.Add("runtime.feed_bytes", static_cast<double>(w.feed.bytes.size()),
             "bytes");
  report.Add("service.submit_s",
             median_of(traced_rounds, &RoundStats::submit_s), "s");
  report.Add("service.close_s",
             median_of(traced_rounds, &RoundStats::close_s), "s");
  report.Add("service.drain_s",
             median_of(traced_rounds, &RoundStats::drain_s), "s");
  report.Add("service.sessions", static_cast<double>(w.feed.sessions.size()),
             "count");
  const auto metrics = w.node.fleet->Metrics();
  size_t max_depth = 0;
  for (const auto& shard : metrics.shards) {
    max_depth = std::max(max_depth, shard.max_queue_depth);
  }
  report.Add("service.max_queue_depth", static_cast<double>(max_depth),
             "count");
  report.Add("service.verdicts",
             static_cast<double>(w.node.sink->total_verdicts()), "count");
  report.Add("service.alarms", static_cast<double>(w.node.sink->alarms()),
             "count");
  report.Add("core.score_s", score_s, "s");
  report.Add("core.windows_per_s",
             static_cast<double>(score_windows) / score_s, "windows/s");
  std::sort(latencies.begin(), latencies.end());
  const auto quantile_us = [&](double q) {
    if (latencies.empty()) return 0.0;
    const size_t i = std::min(latencies.size() - 1,
                              static_cast<size_t>(q * latencies.size()));
    return static_cast<double>(latencies[i]) / 1000.0;
  };
  report.Add("service.verdict_p50_us", quantile_us(0.50), "us");
  report.Add("service.verdict_p99_us", quantile_us(0.99), "us");
  report.Add("process.serve_cpu_s",
             median_of(traced_rounds, &RoundStats::cpu_s), "s");
  report.Add("traced.setup_s", setup_s, "s");
  report.Add("traced.train_s", train_s, "s");
  const double traced_rate = rate(traced_rounds);
  const double plain_rate = rate(plain_rounds);
  report.Add("traced.events_per_s", traced_rate, "events/s");
  report.Add("traced.untraced_events_per_s", plain_rate, "events/s");
  report.Add("traced.serve_overhead_pct",
             100.0 * (plain_rate - traced_rate) / plain_rate, "%");

  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  const std::string path = options.out_dir + "/spans-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".json";
  std::ofstream(path) << spans.ToJson();
  std::printf("spans written to %s\n", path.c_str());
  report.Print();
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  e2ebench::Options options;
  if (!e2ebench::ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload bash|tenants --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR]\n"
                 "       e2ebench --cold-train 1\n");
    return 2;
  }
  if (options.cold_train) return e2ebench::ColdTrain();
  e2ebench::PinToOneCpu();
  return e2ebench::Run(options);
}
