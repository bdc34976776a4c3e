// Self-test of the benchmark's output checks.
//
// Trains App_b, serves a small feed of replayed training runs, one short
// session and the five Table V attacks through a fleet node with one hot
// reload, and runs every check on the real outputs: each must pass. Then
// it hands each check a deliberately corrupted copy of those outputs (a
// flipped flag, a dropped verdict, a perturbed score, a row off by 1e-6,
// a flipped byte in a second training's profile, ...) and shows that the
// check fails. Exit code 0 when every check
// behaves, 1 otherwise.
//
// Usage: e2ebench_selftest

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "core/profile_constructor.h"
#include "workloads.h"

namespace e2ebench {
namespace {

namespace core = adprom::core;
using adprom::core::DetectionFlag;

int failures = 0;

void Expect(const CheckResult& result, bool want_ok, const std::string& what) {
  const bool good = result.ok == want_ok;
  std::printf("%-4s %-30s %-44s -> %s%s\n", good ? "ok" : "BAD",
              result.name.c_str(), what.c_str(),
              result.ok ? "passes" : "fails: ", result.message.c_str());
  if (!good) ++failures;
}

int Run() {
  SpanLog spans(false);
  TrainLayers layers;
  TrainedApp bank;
  std::string error;
  if (!TrainApp(apps::MakeBankingApp(), false, &spans, -1, &layers, &bank,
                &error)) {
    std::fprintf(stderr, "training failed: %s\n", error.c_str());
    return 1;
  }
  const size_t n = bank.profile.options.window_length;

  std::vector<adprom::runtime::Trace> attacks;
  if (!AttackTraces(bank, &attacks, &error)) {
    std::fprintf(stderr, "attack runs failed: %s\n", error.c_str());
    return 1;
  }
  std::vector<FeedSession> sessions;
  const auto add = [&](FeedSession::Kind kind, adprom::runtime::Trace events) {
    FeedSession session;
    session.kind = kind;
    session.tenant = bank.name;
    session.key = "s" + std::to_string(sessions.size());
    session.display_id = session.tenant + "/" + session.key;
    session.events = std::move(events);
    sessions.push_back(std::move(session));
  };
  for (size_t i = 0; i < 24; ++i) {
    add(FeedSession::Kind::kReplay, bank.traces[i % bank.traces.size()]);
  }
  add(FeedSession::Kind::kReplay,
      adprom::runtime::Trace(bank.traces[0].begin(),
                             bank.traces[0].begin() + (n / 2)));
  for (auto& attack : attacks) add(FeedSession::Kind::kAttack, attack);

  Feed feed = BuildFeed(std::move(sessions), 6, 1, n, 7);
  Node node;
  node.reload_tenant = bank.name;
  node.reload_text = bank.profile_bytes;
  if (!StartNode({{bank.name, bank.profile_bytes}}, &feed, true, &node,
                 &error)) {
    std::fprintf(stderr, "node start failed: %s\n", error.c_str());
    return 1;
  }
  const uint64_t base = node.registry.Generation(bank.name);
  std::vector<int64_t> decode_ns;
  const RoundStats round = ServeRound(feed, false, &node, &decode_ns);
  if (round.failed != 0) {
    std::fprintf(stderr, "serving failed: %s\n", round.first_error.c_str());
    return 1;
  }

  // The real outputs.
  const std::vector<std::vector<Verdict>> served = node.sink->verdicts();
  const core::DetectionEngine engine(&bank.profile);
  std::vector<std::vector<Verdict>> reference;
  std::vector<size_t> lengths;
  std::vector<ServedWindow> windows;
  std::vector<std::vector<Verdict>> replays, attack_sessions;
  std::vector<GenerationRecord> generations;
  for (size_t s = 0; s < feed.sessions.size(); ++s) {
    const FeedSession& session = feed.sessions[s];
    reference.emplace_back();
    for (const core::Detection& d : engine.MonitorTrace(session.events)) {
      reference.back().push_back(ToVerdict(d));
    }
    lengths.push_back(session.events.size());
    for (const Verdict& v : served[s]) {
      windows.push_back({WindowOf(session, v, n), v});
    }
    (session.kind == FeedSession::Kind::kAttack ? attack_sessions : replays)
        .push_back(served[s]);
    generations.push_back(
        {base + session.first_segment, node.sink->generations()[s]});
  }
  core::ProfileOptions initial_options;
  initial_options.train.num_threads = 1;
  initial_options.train.max_iterations = 0;
  auto initial = core::ProfileConstructor(initial_options)
                     .Construct(bank.analysis, bank.traces);
  if (!initial.ok()) {
    std::fprintf(stderr, "initial model: %s\n",
                 initial.status().ToString().c_str());
    return 1;
  }
  const adprom::hmm::HmmModel& trained = bank.profile.model;
  std::string retrained;
  if (!TrainProfileBytes(bank.app, &retrained, &error)) {
    std::fprintf(stderr, "second training failed: %s\n", error.c_str());
    return 1;
  }

  std::printf("clean outputs (%zu sessions, %zu verdicts):\n",
              feed.sessions.size(), feed.predicted_verdicts);
  Expect(CheckScores(bank.profile, windows), true, "served windows");
  Expect(CheckSessionVerdicts(served, reference), true, "served verdicts");
  Expect(CheckConservation(lengths, n, served, feed.predicted_verdicts, 0),
         true, "served verdicts");
  Expect(CheckTrainingRunsQuiet(replays), true, "replayed training runs");
  Expect(CheckAttacksConnected(attack_sessions), true, "attack sessions");
  Expect(CheckRowsStochastic(trained), true, "trained model");
  Expect(CheckNoNewTransitions(initial->model, trained), true,
         "initial vs trained model");
  Expect(CheckGenerations(generations), true, "sessions around the reload");
  Expect(CheckRetrainedProfile(bank.profile_bytes, retrained), true,
         "App_b trained again");

  std::printf("corrupted outputs:\n");
  // A flipped flag on a window whose score is clear of the threshold.
  size_t pick = 0;
  while (pick + 1 < windows.size() &&
         std::fabs(windows[pick].served.score - bank.profile.threshold) <=
             1e-6) {
    ++pick;
  }
  {
    auto bad = windows;
    bad[pick].served.flag = DetectionFlag::kAnomalous;
    Expect(CheckScores(bank.profile, bad), false, "one flag flipped");
    auto bad_served = served;
    bad_served[0][0].flag = DetectionFlag::kAnomalous;
    Expect(CheckSessionVerdicts(bad_served, reference), false,
           "one flag flipped");
    auto bad_replays = replays;
    bad_replays[0][0].flag = DetectionFlag::kAnomalous;
    Expect(CheckTrainingRunsQuiet(bad_replays), false,
           "one replayed window flagged");
  }
  {
    auto bad = windows;
    bad[pick].served.score += 1e-7;
    Expect(CheckScores(bank.profile, bad), false, "one score + 1e-7");
    auto bad_served = served;
    bad_served[0][0].score += 1e-12;
    Expect(CheckSessionVerdicts(bad_served, reference), false,
           "one score + 1e-12");
  }
  {
    auto bad_served = served;
    bad_served[0].pop_back();
    Expect(CheckConservation(lengths, n, bad_served, feed.predicted_verdicts,
                             0),
           false, "one verdict dropped");
    Expect(CheckSessionVerdicts(bad_served, reference), false,
           "one verdict dropped");
    Expect(CheckConservation(lengths, n, served, feed.predicted_verdicts, 1),
           false, "one event dropped");
    Expect(CheckConservation(lengths, n, served, feed.predicted_verdicts + 1,
                             0),
           false, "prediction off by one");
  }
  {
    auto bad = attack_sessions;
    for (Verdict& v : bad[2]) v.flag = DetectionFlag::kNormal;
    Expect(CheckAttacksConnected(bad), false, "attack 3 left quiet");
    bad = attack_sessions;
    for (Verdict& v : bad[0]) v.num_sources = 0;
    Expect(CheckAttacksConnected(bad), false, "attack 1 without source");
  }
  {
    adprom::hmm::HmmModel bad = trained;
    bad.mutable_a().At(1, 0) += 1e-6;
    Expect(CheckRowsStochastic(bad), false, "A row off by 1e-6");
    bad = trained;
    bad.mutable_b().At(2, 1) -= 1e-6;
    Expect(CheckRowsStochastic(bad), false, "B row off by 1e-6");
  }
  {
    adprom::hmm::HmmModel bad = trained;
    for (size_t q = 0; q < bad.num_states(); ++q) {
      if (initial->model.a().At(0, q) == 0.0) {
        bad.mutable_a().At(0, q) = 1e-12;
        break;
      }
    }
    Expect(CheckNoNewTransitions(initial->model, bad), false,
           "one transition added");
  }
  {
    auto bad = generations;
    for (GenerationRecord& record : bad) {
      if (record.expected > base) {
        record.observed = record.expected - 1;
        break;
      }
    }
    Expect(CheckGenerations(bad), false, "new session on the old profile");
  }
  {
    std::string bad = retrained;
    bad[bad.size() / 2] ^= 1;
    Expect(CheckRetrainedProfile(bank.profile_bytes, bad), false,
           "one profile byte flipped");
  }

  std::printf("%s\n", failures == 0 ? "selftest passed"
                                    : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main() { return e2ebench::Run(); }
