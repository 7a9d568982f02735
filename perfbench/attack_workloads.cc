// tkip-attack and cookie-attack: complete simulated attacks (capture or
// sample -> likelihood tables -> truth rank -> candidate traversal against
// the verification oracle), trial after trial on nproc worker threads.
#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "perfbench/stats.h"
#include "perfbench/workloads.h"
#include "src/core/rank.h"
#include "src/recovery/engine.h"
#include "src/recovery/likelihood_source.h"
#include "src/sim/cookie_sim.h"
#include "src/sim/runner.h"
#include "src/sim/tkip_sim.h"
#include "src/tkip/attack.h"
#include "src/tkip/tsc_model.h"
#include "src/tls/cookie_attack.h"

namespace perfbench {
namespace {

// Trials whose outcomes make the default-seed digest; every run completes
// at least these.
constexpr uint64_t kDigestTrials = 8;

struct TrialRecord {
  uint64_t trial = 0;
  double wall_s = 0.0;      // trial start to its end (the accepted plaintext)
  double traverse_s = 0.0;  // RecoverSingle / RecoverDouble
  uint64_t candidates = 0;  // tried; the accepted one's position when found
  uint64_t drawn = 0;       // generated by the enumerator or Algorithm 2
  bool found = false;
  bool correct = false;
};

// Trials 0, 1, 2, ... on nproc threads, closed loop: a thread claims the
// next trial when its previous one ends, until the time is spent and at
// least kDigestTrials were claimed, so the trials run are always a prefix.
// Trace mode runs every trial untraced and traced (RunPaired).
template <typename TrialFn>
std::vector<TrialRecord> RunTrialLoop(const RunConfig& config, TrialFn&& trial_fn,
                                      double* wall_s, WorkloadResult* result) {
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(config.seconds * 1e9);
  std::atomic<uint64_t> next{0};
  std::mutex mutex;
  std::vector<TrialRecord> records;
  PairedTiming paired;
  std::vector<TraceBuffer> buffers(config.nproc, TraceBuffer(config.trace));
  {
    std::vector<std::jthread> threads;
    for (unsigned w = 0; w < config.nproc; ++w) {
      threads.emplace_back([&, w] {
        while (true) {
          const uint64_t trial = next.fetch_add(1);
          if (trial >= kDigestTrials && NowNs() >= deadline) {
            return;
          }
          const auto operation = [&](TraceBuffer* trace) {
            return trial_fn(trial, trace);
          };
          const TrialRecord record =
              config.trace ? RunPaired(trial, &buffers[w], &paired, operation)
                           : operation(nullptr);
          std::lock_guard<std::mutex> lock(mutex);
          records.push_back(record);
        }
      });
    }
  }
  *wall_s = Seconds(NowNs() - start);
  std::sort(records.begin(), records.end(),
            [](const TrialRecord& a, const TrialRecord& b) {
              return a.trial < b.trial;
            });
  for (const TraceBuffer& buffer : buffers) {
    AppendSpans(&result->spans, buffer.spans());
  }
  if (config.trace) {
    paired.SetOverhead(result);
  }
  return records;
}

// End-to-end metrics, the outcome digest and the recovery.* metrics shared
// by both attacks.
void SummarizeTrials(const std::vector<TrialRecord>& records, double wall_s,
                     WorkloadResult* result) {
  std::vector<double> times_to_correct;
  std::vector<double> accepted_positions;
  uint64_t drawn = 0;
  double traverse_s = 0.0;
  uint64_t digest = kDigestInit;
  for (const TrialRecord& record : records) {
    drawn += record.drawn;
    traverse_s += record.traverse_s;
    if (record.found && record.correct) {
      times_to_correct.push_back(record.wall_s);
      accepted_positions.push_back(static_cast<double>(record.candidates));
    }
    if (record.trial < kDigestTrials) {
      const uint64_t words[] = {record.trial, record.found ? 1u : 0u,
                                record.correct ? 1u : 0u, record.candidates};
      digest = DigestWords(digest, words);
    }
  }
  result->digest = digest;
  const auto trials = static_cast<double>(records.size());
  const Metric trials_per_s{"trials_per_s", "trials/s", trials / wall_s,
                            records.size(), 0, 0, "throughput_per_s"};
  const Metric candidates_per_s{"candidates_per_s", "1/s",
                                static_cast<double>(drawn) / traverse_s,
                                records.size(), 0, 0, "worker_rate_per_s"};
  result->end_to_end = {
      trials_per_s,
      candidates_per_s,
      SampledMetric("time_to_correct_s", "s", times_to_correct, "time_to_result_s"),
  };
  result->SetLayer("recovery.truth_rank", Median(accepted_positions),
                   accepted_positions.size());
  result->SetLayer("recovery.found_fraction",
                   static_cast<double>(accepted_positions.size()) / trials,
                   records.size());
}

// RecoverSingle / RecoverDouble wall time per candidate tried, from the
// untraced trials.
void SetTraverseMetric(const std::vector<TrialRecord>& records,
                       WorkloadResult* result) {
  double traverse_s = 0.0;
  uint64_t candidates = 0;
  for (const TrialRecord& record : records) {
    traverse_s += record.traverse_s;
    candidates += record.candidates;
  }
  result->SetLayer("recovery.traverse_ns_per_candidate",
                   traverse_s * 1e9 / static_cast<double>(candidates),
                   records.size());
}

// The verification oracle, timed per call in traced runs.
template <typename Predicate>
auto TimedPredicate(AccumulatedTimer* timer, Predicate predicate) {
  return [timer, predicate](const rc4b::Bytes& candidate) {
    timer->Start();
    const bool accepted = predicate(candidate);
    timer->Stop();
    return accepted;
  };
}

// ---------------------------------------------------------------------------
// tkip-attack

class TkipAttack final : public Workload {
 public:
  // Attacker model: 2^14 keys per TSC1 class, its bias calibrated to
  // kTargetRms; the perfect-model victim's frames are drawn from it.
  static constexpr uint64_t kKeysPerClass = uint64_t{1} << 14;
  static constexpr double kTargetRms = 0.0037;
  static constexpr uint64_t kFrames = uint64_t{1} << 20;
  static constexpr uint64_t kBudget = uint64_t{1} << 14;

  explicit TkipAttack(const RunConfig& config)
      : config_(config),
        msdu_(rc4b::sim::InjectedPacket()),
        trial_seed_(rc4b::sim::TrialSeed(config.seed, 0x544b4950)) {}

  void Setup(TraceBuffer* trace) override {
    ScopedSpan root(trace, "request.setup", kSetupRequest);
    model_ = std::make_unique<rc4b::TkipTscModel>(
        msdu_.size() + 1, msdu_.size() + rc4b::kTkipTrailerSize);
    const int64_t start = NowNs();
    {
      ScopedSpan span(trace, "tkip.TkipTscModel::Generate");
      span.set_work(256 * kKeysPerClass);
      model_->Generate(kKeysPerClass, config_.seed, config_.nproc);
    }
    model_ns_.push_back(static_cast<double>(NowNs() - start));
    ScopedSpan span(trace, "tkip.TkipTscModel::ShrinkTowardUniform");
    const double raw_rms = model_->RmsRelativeDeviation();
    if (raw_rms > kTargetRms) {
      model_->ShrinkTowardUniform(kTargetRms / raw_rms);
    }
  }

  void Run(WorkloadResult* result) override {
    double wall_s = 0.0;
    const auto records = RunTrialLoop(
        config_,
        [&](uint64_t trial, TraceBuffer* trace) {
          return Trial(trial, trace, result);
        },
        &wall_s, result);
    SummarizeTrials(records, wall_s, result);
    result->SetLayer("tkip.model_ns_per_key",
                     Median(model_ns_) / (256.0 * kKeysPerClass), model_ns_.size());
    if (!config_.trace) {
      return;
    }
    const CallMap stats = StatsByName(result->spans);
    result->SetLayer("sim.capture_ns_per_frame", NsPerWork(stats, "sim.capture"),
                     Calls(stats, "sim.capture"));
    result->SetLayer("core.tkip_tables_ms",
                     MedianMs(stats, "core.TkipTscLikelihoodSource::Tables"),
                     Calls(stats, "core.TkipTscLikelihoodSource::Tables"));
    result->SetLayer("core.independent_rank_ms",
                     MedianMs(stats, "core.IndependentRank"),
                     Calls(stats, "core.IndependentRank"));
    result->SetLayer("core.lazy_enum_ns_per_candidate",
                     NsPerWork(stats, "recovery.RecoveryEngine::RecoverSingle"),
                     Calls(stats, "recovery.RecoveryEngine::RecoverSingle"));
    result->SetLayer("recovery.verify_ns_per_candidate",
                     NsPerWork(stats, "recovery.TkipTrailerConsistent"),
                     Calls(stats, "recovery.TkipTrailerConsistent"));
    SetTraverseMetric(records, result);
  }

 private:
  // One attack on a fresh random victim: capture kFrames retransmissions,
  // build the per-TSC1 likelihood tables, rank the truth (Figs. 8/9), then
  // traverse candidates with the CRC-32 trailer check (Sect. 5.3).
  TrialRecord Trial(uint64_t trial, TraceBuffer* trace, WorkloadResult* result) {
    TrialRecord record;
    record.trial = trial;
    const int64_t start = NowNs();
    ScopedSpan root(trace, "request.trial", static_cast<uint32_t>(trial));
    rc4b::Xoshiro256 rng = rc4b::sim::TrialRng(trial_seed_, trial);
    const rc4b::TkipPeer peer = rc4b::sim::RandomPeer(rng);
    const rc4b::Bytes trailer = rc4b::TkipTrailer(peer, msdu_);
    rc4b::TkipCaptureStats stats(model_->first_position(), model_->last_position());
    bool captured = true;
    {
      ScopedSpan span(trace, "sim.capture");
      span.set_work(kFrames);
      const uint64_t initial_tsc = rng() & 0xffffffff;
      rc4b::sim::TrailerFrameSource source(*model_, /*oracle=*/true, peer, msdu_,
                                           trailer, initial_tsc, rng());
      for (uint64_t i = 0; i < kFrames; ++i) {
        captured = stats.AddFrame(source.NextFrame()) && captured;
      }
    }
    rc4b::recovery::TkipTscLikelihoodSource likelihoods(stats, *model_);
    rc4b::SingleByteTables tables;
    {
      ScopedSpan span(trace, "core.TkipTscLikelihoodSource::Tables");
      tables = likelihoods.Tables();
    }
    {
      ScopedSpan span(trace, "core.IndependentRank");
      rc4b::IndependentRank(tables, trailer);
    }
    rc4b::recovery::RecoveryOptions options;
    options.max_candidates = kBudget;
    options.truth = trailer;
    const rc4b::recovery::RecoveryEngine engine(std::move(options));
    AccumulatedTimer verify(trace);
    rc4b::recovery::RecoveryResult recovered;
    {
      // The span's self time is the lazy enumerator's; the CRC check is its
      // timer child.
      ScopedSpan span(trace, "recovery.RecoveryEngine::RecoverSingle", 0, "core");
      const int64_t traverse_start = NowNs();
      recovered = engine.RecoverSingle(
          tables, TimedPredicate(&verify, [this](const rc4b::Bytes& candidate) {
            return rc4b::TkipTrailerConsistent(msdu_, candidate);
          }));
      record.traverse_s = Seconds(NowNs() - traverse_start);
      span.set_work(recovered.candidates_tried);
      verify.Commit(trace, "recovery.TkipTrailerConsistent");
    }
    record.wall_s = Seconds(NowNs() - start);
    record.candidates = recovered.candidates_tried;
    record.drawn = recovered.candidates_tried;
    record.found = recovered.found;
    record.correct = recovered.correct;
    RecordTrial(recovered, trial, &result->outcomes);
    if (!captured || tables.size() != rc4b::kTkipTrailerSize) {
      result->outcomes.Fail("trial " + std::to_string(trial) +
                            ": capture or likelihood tables incomplete");
    }
    return record;
  }

  RunConfig config_;
  rc4b::Bytes msdu_;
  uint64_t trial_seed_;
  std::unique_ptr<rc4b::TkipTscModel> model_;
  std::vector<double> model_ns_;
};

// ---------------------------------------------------------------------------
// cookie-attack

class CookieAttack final : public Workload {
 public:
  // Paper scale: 9 x 2^27 captured requests.
  static constexpr uint64_t kCiphertexts = uint64_t{9} << 27;
  // Algorithm 2 list length, built in full before the brute force starts.
  static constexpr uint64_t kListLength = uint64_t{1} << 13;

  explicit CookieAttack(const RunConfig& config)
      : config_(config),
        trial_seed_(rc4b::sim::TrialSeed(config.seed, 0x434f4f4b)) {}

  void Setup(TraceBuffer* trace) override {
    ScopedSpan root(trace, "request.setup", kSetupRequest);
    const int64_t start = NowNs();
    ScopedSpan span(trace, "sim.CookieSimContext");
    context_ = std::make_unique<rc4b::sim::CookieSimContext>(
        rc4b::sim::CookieSimOptions{});
    context_ns_.push_back(static_cast<double>(NowNs() - start));
  }

  void Run(WorkloadResult* result) override {
    double wall_s = 0.0;
    const auto records = RunTrialLoop(
        config_,
        [&](uint64_t trial, TraceBuffer* trace) {
          return Trial(trial, trace, result);
        },
        &wall_s, result);
    SummarizeTrials(records, wall_s, result);
    result->SetLayer("sim.cookie_context_s", Median(context_ns_) * 1e-9,
                     context_ns_.size());
    if (!config_.trace) {
      return;
    }
    const CallMap stats = StatsByName(result->spans);
    result->SetLayer("sim.cookie_sample_ms",
                     MedianMs(stats, "sim.SampleCookieTransitions"),
                     Calls(stats, "sim.SampleCookieTransitions"));
    result->SetLayer("core.markov_rank_ms", MedianMs(stats, "core.MarkovRank"),
                     Calls(stats, "core.MarkovRank"));
    result->SetLayer("core.alg2_ns_per_candidate",
                     NsPerWork(stats, "recovery.RecoveryEngine::RecoverDouble"),
                     Calls(stats, "recovery.RecoveryEngine::RecoverDouble"));
    result->SetLayer("recovery.verify_ns_per_candidate",
                     NsPerWork(stats, "recovery.cookie_oracle"),
                     Calls(stats, "recovery.cookie_oracle"));
    SetTraverseMetric(records, result);
  }

 private:
  // One attack on a fresh random cookie: sample paper-scale FM + ABSAB
  // transition tables, rank the truth (Fig. 10), then build the Algorithm 2
  // list and brute-force it against the cookie oracle (Sect. 6.2).
  TrialRecord Trial(uint64_t trial, TraceBuffer* trace, WorkloadResult* result) {
    TrialRecord record;
    record.trial = trial;
    const int64_t start = NowNs();
    ScopedSpan root(trace, "request.trial", static_cast<uint32_t>(trial));
    const rc4b::sim::CookieSimOptions& options = context_->options();
    const std::vector<uint8_t>& alphabet = context_->alphabet();
    rc4b::Xoshiro256 rng = rc4b::sim::TrialRng(trial_seed_, trial);
    rc4b::Bytes cookie(options.cookie_length);
    for (uint8_t& byte : cookie) {
      byte = alphabet[rng.Below(alphabet.size())];
    }
    rc4b::DoubleByteTables transitions;
    {
      ScopedSpan span(trace, "sim.SampleCookieTransitions");
      transitions = rc4b::sim::SampleCookieTransitions(*context_, cookie,
                                                       kCiphertexts, rng);
    }
    {
      ScopedSpan span(trace, "core.MarkovRank");
      rc4b::MarkovRank(transitions, options.m1, options.m_last, cookie, alphabet);
    }
    rc4b::recovery::RecoveryOptions recovery_options;
    recovery_options.max_candidates = kListLength;
    recovery_options.truth = cookie;
    const rc4b::recovery::RecoveryEngine engine(std::move(recovery_options));
    AccumulatedTimer oracle(trace);
    rc4b::recovery::RecoveryResult recovered;
    {
      // The span's self time is Algorithm 2's list building; the oracle
      // queries are its timer child.
      ScopedSpan span(trace, "recovery.RecoveryEngine::RecoverDouble", 0, "core");
      span.set_work(kListLength);
      const int64_t traverse_start = NowNs();
      recovered = engine.RecoverDouble(
          transitions, {options.m1, options.m_last}, alphabet,
          TimedPredicate(&oracle, [&cookie](const rc4b::Bytes& candidate) {
            return candidate == cookie;
          }));
      record.traverse_s = Seconds(NowNs() - traverse_start);
      oracle.Commit(trace, "recovery.cookie_oracle");
    }
    record.wall_s = Seconds(NowNs() - start);
    record.candidates = recovered.candidates_tried;
    record.drawn = kListLength;  // the whole list is built up front
    record.found = recovered.found;
    record.correct = recovered.correct;
    RecordTrial(recovered, trial, &result->outcomes);
    return record;
  }

  RunConfig config_;
  uint64_t trial_seed_;
  std::unique_ptr<rc4b::sim::CookieSimContext> context_;
  std::vector<double> context_ns_;
};

}  // namespace

std::unique_ptr<Workload> MakeTkipAttack(const RunConfig& config) {
  return std::make_unique<TkipAttack>(config);
}

std::unique_ptr<Workload> MakeCookieAttack(const RunConfig& config) {
  return std::make_unique<CookieAttack>(config);
}

}  // namespace perfbench
