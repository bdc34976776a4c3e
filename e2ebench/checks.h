// Output checks of the end-to-end benchmark.
//
// Each check is a pure function over data the benchmark recorded, so the
// self-test (selftest.cc) can hand it a deliberately corrupted copy and
// show that it fails. The reference computations here are written from
// the method's definitions, not by calling the program's own kernels:
// the scaled forward pass runs in long double over the profile's public
// A, B and π, and the flag rule is restated from the paper (§V-C).

#ifndef E2EBENCH_CHECKS_H_
#define E2EBENCH_CHECKS_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/flags.h"
#include "core/profile.h"
#include "hmm/hmm_model.h"
#include "runtime/call_event.h"

namespace e2ebench {

/// Outcome of one check: ok, or the first violation found.
struct CheckResult {
  std::string name;
  bool ok = true;
  std::string message;
};

/// A verdict as the benchmark's sink records it.
struct Verdict {
  double score = 0.0;
  uint64_t window_start = 0;
  adprom::core::DetectionFlag flag = adprom::core::DetectionFlag::kNormal;
  /// FNV-1a over the alarm's source tables, and how many there were.
  uint64_t sources_hash = 0;
  uint32_t num_sources = 0;

  bool operator==(const Verdict&) const = default;
};

Verdict ToVerdict(const adprom::core::Detection& detection);

/// Per-symbol log-likelihood of `symbols` under `model` by a Rabiner-scaled
/// forward pass in long double.
long double ReferenceScore(const adprom::hmm::HmmModel& model,
                           std::span<const int> symbols);

/// One served window and the events it covers.
struct ServedWindow {
  std::span<const adprom::runtime::CallEvent> events;
  Verdict served;
};

/// Served scores match the long double forward pass within 1e-9 (windows
/// holding a symbol outside the alphabet must score -1e9), and served
/// flags match the flag rule wherever |score - threshold| > 1e-9.
CheckResult CheckScores(const adprom::core::ApplicationProfile& profile,
                        std::span<const ServedWindow> windows);

/// Each session's served verdicts equal the reference verdicts
/// (DetectionEngine::MonitorTrace on the same events), field for field.
CheckResult CheckSessionVerdicts(
    std::span<const std::vector<Verdict>> served,
    std::span<const std::vector<Verdict>> reference);

/// Verdict conservation: a session of L >= n events yields L - n + 1
/// verdicts, one of 0 < L < n yields exactly 1; the total equals
/// `predicted_total` and no event was dropped.
CheckResult CheckConservation(std::span<const size_t> session_lengths,
                              size_t window_length,
                              std::span<const std::vector<Verdict>> served,
                              size_t predicted_total, size_t dropped);

/// No window of a training run is flagged.
CheckResult CheckTrainingRunsQuiet(
    std::span<const std::vector<Verdict>> training_runs);

/// Every attack session raises an alarm that names a source table.
CheckResult CheckAttacksConnected(
    std::span<const std::vector<Verdict>> attack_sessions);

/// Every row of A and B sums to 1 within 1e-9.
CheckResult CheckRowsStochastic(const adprom::hmm::HmmModel& model);

/// Training adds no transition: every nonzero of `trained` is a nonzero
/// of `initial`.
CheckResult CheckNoNewTransitions(const adprom::hmm::HmmModel& initial,
                                  const adprom::hmm::HmmModel& trained);

/// A session's profile generation: the one the benchmark expects from
/// where the session opened relative to the hot reloads, and the one the
/// node reported when the session closed.
struct GenerationRecord {
  uint64_t expected = 0;
  uint64_t observed = 0;
};

CheckResult CheckGenerations(std::span<const GenerationRecord> sessions);

/// Training is deterministic: a profile trained again from the same
/// source and suite serializes to the same bytes as the first training.
CheckResult CheckRetrainedProfile(std::string_view first,
                                  std::string_view again);

}  // namespace e2ebench

#endif  // E2EBENCH_CHECKS_H_
