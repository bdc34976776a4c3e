#include "checks.h"

#include <cmath>
#include <cstdio>

namespace e2ebench {
namespace {

using adprom::core::DetectionFlag;

constexpr double kScoreTolerance = 1e-9;
constexpr long double kRowTolerance = 1e-9L;
/// The score the method gives a window holding a symbol outside the
/// profile's alphabet: its true emission probability is zero.
constexpr double kUnknownScore = -1e9;

uint64_t Fnv1a(uint64_t hash, const std::string& text) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

CheckResult Fail(CheckResult result, const std::string& message) {
  result.ok = false;
  result.message = message;
  return result;
}

std::string Describe(const Verdict& v) {
  char text[128];
  std::snprintf(text, sizeof(text), "{start %llu flag %s score %.17g}",
                static_cast<unsigned long long>(v.window_start),
                adprom::core::DetectionFlagName(v.flag), v.score);
  return text;
}

/// The paper's flag rule (§V-C) for a window whose score is `score`.
DetectionFlag ReferenceFlag(const adprom::core::ApplicationProfile& profile,
                            std::span<const adprom::runtime::CallEvent> window,
                            double score) {
  for (const auto& event : window) {
    if (!profile.context_pairs.contains({event.caller, event.callee})) {
      return DetectionFlag::kOutOfContext;
    }
  }
  if (score >= profile.threshold) return DetectionFlag::kNormal;
  if (profile.options.use_dd_labels) {
    for (const auto& event : window) {
      if (event.td_output) return DetectionFlag::kDataLeak;
    }
  }
  return DetectionFlag::kAnomalous;
}

}  // namespace

Verdict ToVerdict(const adprom::core::Detection& detection) {
  Verdict verdict;
  verdict.score = detection.score;
  verdict.window_start = detection.window_start;
  verdict.flag = detection.flag;
  verdict.sources_hash = 1469598103934665603ull;
  for (const std::string& table : detection.source_tables) {
    verdict.sources_hash = Fnv1a(verdict.sources_hash, table) * 31;
  }
  verdict.num_sources = static_cast<uint32_t>(detection.source_tables.size());
  return verdict;
}

long double ReferenceScore(const adprom::hmm::HmmModel& model,
                           std::span<const int> symbols) {
  const size_t n = model.num_states();
  std::vector<long double> alpha(n), next(n);
  long double log_likelihood = 0.0L;
  for (size_t t = 0; t < symbols.size(); ++t) {
    const size_t symbol = static_cast<size_t>(symbols[t]);
    if (t == 0) {
      for (size_t q = 0; q < n; ++q) {
        next[q] = static_cast<long double>(model.pi()[q]) *
                  static_cast<long double>(model.b().At(q, symbol));
      }
    } else {
      for (size_t q = 0; q < n; ++q) next[q] = 0.0L;
      for (size_t s = 0; s < n; ++s) {
        if (alpha[s] == 0.0L) continue;
        const double* row = model.a().RowData(s);
        for (size_t q = 0; q < n; ++q) {
          if (row[q] != 0.0) {
            next[q] += alpha[s] * static_cast<long double>(row[q]);
          }
        }
      }
      for (size_t q = 0; q < n; ++q) {
        next[q] *= static_cast<long double>(model.b().At(q, symbol));
      }
    }
    long double scale = 0.0L;
    for (size_t q = 0; q < n; ++q) scale += next[q];
    if (!(scale > 0.0L)) return kUnknownScore;
    for (size_t q = 0; q < n; ++q) alpha[q] = next[q] / scale;
    log_likelihood += std::log(scale);
  }
  return log_likelihood / static_cast<long double>(symbols.size());
}

CheckResult CheckScores(const adprom::core::ApplicationProfile& profile,
                        std::span<const ServedWindow> windows) {
  CheckResult result{"forward_scores", true, ""};
  std::vector<int> symbols;
  for (size_t i = 0; i < windows.size(); ++i) {
    const ServedWindow& window = windows[i];
    symbols.clear();
    bool unknown = false;
    for (const auto& event : window.events) {
      const int id = profile.alphabet.Lookup(profile.ObservableOf(event));
      unknown = unknown || id == profile.alphabet.unk_id();
      symbols.push_back(id);
    }
    const double expected =
        unknown ? kUnknownScore
                : static_cast<double>(ReferenceScore(profile.model, symbols));
    const double served = window.served.score;
    if (!(std::fabs(served - expected) <= kScoreTolerance)) {
      char text[160];
      std::snprintf(text, sizeof(text),
                    "window %zu: served score %.17g, reference %.17g", i,
                    served, expected);
      return Fail(result, text);
    }
    if (std::fabs(served - profile.threshold) > kScoreTolerance) {
      const DetectionFlag flag =
          ReferenceFlag(profile, window.events, served);
      if (flag != window.served.flag) {
        return Fail(result, "window " + std::to_string(i) + ": served " +
                                Describe(window.served) + ", rule gives " +
                                adprom::core::DetectionFlagName(flag));
      }
    }
  }
  return result;
}

CheckResult CheckSessionVerdicts(
    std::span<const std::vector<Verdict>> served,
    std::span<const std::vector<Verdict>> reference) {
  CheckResult result{"verdicts_match_monitor_trace", true, ""};
  if (served.size() != reference.size()) {
    return Fail(result, "session count differs: served " +
                            std::to_string(served.size()) + ", reference " +
                            std::to_string(reference.size()));
  }
  for (size_t s = 0; s < served.size(); ++s) {
    if (served[s].size() != reference[s].size()) {
      return Fail(result, "session " + std::to_string(s) + ": " +
                              std::to_string(served[s].size()) +
                              " verdicts served, " +
                              std::to_string(reference[s].size()) +
                              " in the reference");
    }
    for (size_t w = 0; w < served[s].size(); ++w) {
      if (!(served[s][w] == reference[s][w])) {
        return Fail(result, "session " + std::to_string(s) + " verdict " +
                                std::to_string(w) + ": served " +
                                Describe(served[s][w]) + ", reference " +
                                Describe(reference[s][w]));
      }
    }
  }
  return result;
}

CheckResult CheckConservation(std::span<const size_t> session_lengths,
                              size_t window_length,
                              std::span<const std::vector<Verdict>> served,
                              size_t predicted_total, size_t dropped) {
  CheckResult result{"verdict_conservation", true, ""};
  if (dropped != 0) {
    return Fail(result, std::to_string(dropped) + " events dropped");
  }
  if (session_lengths.size() != served.size()) {
    return Fail(result, "session count differs");
  }
  size_t total = 0;
  for (size_t s = 0; s < served.size(); ++s) {
    const size_t length = session_lengths[s];
    const size_t expected = length >= window_length ? length - window_length + 1
                            : length > 0            ? 1
                                                    : 0;
    if (served[s].size() != expected) {
      return Fail(result, "session " + std::to_string(s) + " of " +
                              std::to_string(length) + " events: " +
                              std::to_string(served[s].size()) +
                              " verdicts, expected " +
                              std::to_string(expected));
    }
    total += served[s].size();
  }
  if (total != predicted_total) {
    return Fail(result, std::to_string(total) + " verdicts, the generator "
                        "predicts " + std::to_string(predicted_total));
  }
  return result;
}

CheckResult CheckTrainingRunsQuiet(
    std::span<const std::vector<Verdict>> training_runs) {
  CheckResult result{"training_runs_quiet", true, ""};
  for (size_t r = 0; r < training_runs.size(); ++r) {
    for (const Verdict& verdict : training_runs[r]) {
      if (verdict.flag != DetectionFlag::kNormal) {
        return Fail(result, "training run " + std::to_string(r) +
                                " flagged: " + Describe(verdict));
      }
    }
  }
  return result;
}

CheckResult CheckAttacksConnected(
    std::span<const std::vector<Verdict>> attack_sessions) {
  CheckResult result{"attacks_connected_to_source", true, ""};
  if (attack_sessions.empty()) return Fail(result, "no attack sessions");
  for (size_t a = 0; a < attack_sessions.size(); ++a) {
    bool connected = false;
    for (const Verdict& verdict : attack_sessions[a]) {
      connected = connected || (verdict.flag != DetectionFlag::kNormal &&
                                verdict.num_sources > 0);
    }
    if (!connected) {
      return Fail(result, "attack session " + std::to_string(a) +
                              " raised no alarm connected to a source table");
    }
  }
  return result;
}

CheckResult CheckRowsStochastic(const adprom::hmm::HmmModel& model) {
  CheckResult result{"rows_stochastic", true, ""};
  const auto check = [&](const adprom::util::Matrix& m,
                         const char* which) -> std::string {
    for (size_t r = 0; r < m.rows(); ++r) {
      long double sum = 0.0L;
      for (size_t c = 0; c < m.cols(); ++c) sum += m.At(r, c);
      if (!(std::fabs(sum - 1.0L) <= kRowTolerance)) {
        char text[96];
        std::snprintf(text, sizeof(text), "%s row %zu sums to %.17Lg", which,
                      r, sum);
        return text;
      }
    }
    return "";
  };
  for (const auto& [matrix, which] :
       {std::pair{&model.a(), "A"}, std::pair{&model.b(), "B"}}) {
    const std::string problem = check(*matrix, which);
    if (!problem.empty()) return Fail(result, problem);
  }
  return result;
}

CheckResult CheckNoNewTransitions(const adprom::hmm::HmmModel& initial,
                                  const adprom::hmm::HmmModel& trained) {
  CheckResult result{"no_new_transitions", true, ""};
  if (initial.num_states() != trained.num_states()) {
    return Fail(result, "state counts differ");
  }
  for (size_t s = 0; s < trained.num_states(); ++s) {
    for (size_t q = 0; q < trained.num_states(); ++q) {
      if (trained.a().At(s, q) != 0.0 && initial.a().At(s, q) == 0.0) {
        return Fail(result, "transition " + std::to_string(s) + " -> " +
                                std::to_string(q) +
                                " is nonzero after training only");
      }
    }
  }
  return result;
}

CheckResult CheckGenerations(std::span<const GenerationRecord> sessions) {
  CheckResult result{"reload_generations", true, ""};
  for (size_t s = 0; s < sessions.size(); ++s) {
    if (sessions[s].expected != sessions[s].observed) {
      return Fail(result, "session " + std::to_string(s) +
                              " reported generation " +
                              std::to_string(sessions[s].observed) +
                              ", expected " +
                              std::to_string(sessions[s].expected));
    }
  }
  return result;
}

CheckResult CheckRetrainedProfile(std::string_view first,
                                  std::string_view again) {
  CheckResult result{"retraining_deterministic", true, ""};
  if (first == again) return result;
  size_t at = 0;
  while (at < first.size() && at < again.size() && first[at] == again[at]) {
    ++at;
  }
  return Fail(result, "retrained profile differs at byte " +
                          std::to_string(at) + " (" +
                          std::to_string(again.size()) + " bytes, first " +
                          std::to_string(first.size()) + ")");
}

}  // namespace e2ebench
