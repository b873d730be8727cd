#include "defenses/scan_plan.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>

#include "utils/fault_injection.h"
#include "utils/rng.h"

namespace usb {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// The ordered MAD reduction every scan ends with. A finalized class whose
/// mask-L1 or fooling rate came out non-finite is re-graded
/// kNumericallyUnstable, and every non-kFinalized class feeds a NaN that
/// decide_backdoor peels out of the median/MAD population, so quarantined
/// or unfinished classes cannot shift the verdict for the rest.
DetectionReport finish_report(DetectionReport report, double wall_seconds) {
  std::vector<double> norms(report.per_class.size());
  for (std::size_t t = 0; t < norms.size(); ++t) {
    if (report.per_class_state[t] == ClassScanState::kFinalized &&
        !(std::isfinite(report.per_class[t].mask_l1) &&
          std::isfinite(report.per_class[t].fooling_rate))) {
      report.per_class_state[t] = ClassScanState::kNumericallyUnstable;
    }
    norms[t] = report.per_class_state[t] == ClassScanState::kFinalized
                   ? report.per_class[t].mask_l1
                   : kNaN;
  }
  report.verdict = decide_backdoor(norms);
  report.wall_seconds = wall_seconds;
  return report;
}

/// The blocking runner's shared state: one LIFO stack of claimable steps,
/// drained by every worker that calls drain().
class StepStack {
 public:
  explicit StepStack(const std::vector<ScanStep>& roots) { push_locked(roots); }

  /// One worker's loop: claim the most recently posted step and run it,
  /// then carry on with the first step it enables (the class it just
  /// advanced stays on this worker) and post the rest. With nothing to
  /// claim it waits while steps running elsewhere may still post more, and
  /// leaves once the graph is exhausted or any step threw.
  void drain(StagedScan& scan) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      posted_.wait(lock, [this] { return error_ != nullptr || !stack_.empty() || running_ == 0; });
      if (error_ != nullptr || stack_.empty()) return;
      ScanStep step = stack_.back();
      stack_.pop_back();
      ++running_;
      for (;;) {
        lock.unlock();
        std::vector<ScanStep> next;
        std::exception_ptr error;
        try {
          next = scan.run(step);
        } catch (...) {
          error = std::current_exception();
        }
        lock.lock();
        if (error != nullptr && error_ == nullptr) error_ = error;
        if (error_ != nullptr || next.empty()) break;
        step = next.front();
        push_locked({next.begin() + 1, next.end()});
        if (next.size() > 1) posted_.notify_all();
      }
      --running_;
      posted_.notify_all();
    }
  }

  void rethrow_if_failed() const {
    if (error_ != nullptr) std::rethrow_exception(error_);
  }

 private:
  /// Reversed, so the first enabled step is the next one claimed.
  void push_locked(const std::vector<ScanStep>& steps) {
    stack_.insert(stack_.end(), steps.rbegin(), steps.rend());
  }

  std::mutex mu_;
  std::condition_variable posted_;
  std::vector<ScanStep> stack_;
  std::int64_t running_ = 0;
  std::exception_ptr error_;
};

}  // namespace

double early_exit_cutoff(std::span<const double> norms, double margin) {
  std::vector<double> finite;
  finite.reserve(norms.size());
  for (const double norm : norms) {
    if (std::isfinite(norm)) finite.push_back(norm);
  }
  if (finite.empty()) return std::numeric_limits<double>::infinity();
  const double med = median(finite);
  std::vector<double> deviations(finite.size());
  for (std::size_t i = 0; i < finite.size(); ++i) deviations[i] = std::abs(finite[i] - med);
  return med + margin * 1.4826 * median(deviations);
}

const ProbeBatchCache* select_scan_probe_cache(const ClassScanOptions& options,
                                               const Dataset& probe, ProbeBatchCache& local) {
  if (options.external_probe_cache != nullptr &&
      options.external_probe_cache->batch_size() == kEvalBatchSize &&
      options.external_probe_cache->total_samples() == probe.size()) {
    return options.external_probe_cache;
  }
  local = ProbeBatchCache(probe);
  return &local;
}

std::uint64_t class_stream_seed(std::uint64_t base_seed, std::int64_t target_class) noexcept {
  return hash_combine(base_seed, 0xc1a55'57e4ULL, static_cast<std::uint64_t>(target_class));
}

ClassScanJob make_class_job(const ClassScanOptions& options, std::int64_t target_class,
                            const ProbeBatchCache& cache, const ScanSharedState* shared) noexcept {
  ClassScanJob job;
  job.target_class = target_class;
  job.rng_seed = class_stream_seed(options.base_seed, target_class);
  job.probe_cache = &cache;
  job.shared = shared;
  return job;
}

const char* ScanStep::label() const noexcept {
  switch (kind) {
    case Kind::kConstruct: return "scan.construct";
    case Kind::kRound: return "scan.round";
    case Kind::kCutoff: return "scan.cutoff";
    case Kind::kRetire: return "scan.retire";
    case Kind::kFinalize: return "scan.finalize";
  }
  return "scan.step";
}

StagedScan::StagedScan(ScanPlan plan, const Network& model, const Dataset& probe)
    : plan_(std::move(plan)),
      model_(&model),
      probe_(&probe),
      num_classes_(probe.spec().num_classes),
      round_steps_(plan_.options.early_exit.round_steps > 0
                       ? plan_.options.early_exit.round_steps
                       : std::max<std::int64_t>(1, (plan_.total_steps + 5) / 6)),
      mode_(plan_.options.early_exit.enabled ? Mode::kBarrier : Mode::kMonolithic) {
  require_frozen(model, "StagedScan");
  if (num_classes_ != model.num_classes()) {
    throw std::invalid_argument("StagedScan: the probe has " + std::to_string(num_classes_) +
                                " classes but the model has " +
                                std::to_string(model.num_classes()));
  }
  const auto slots = static_cast<std::size_t>(num_classes_);
  tasks_.resize(slots);
  remaining_.assign(slots, std::max<std::int64_t>(0, plan_.total_steps));
  report_.method = plan_.method;
  report_.per_class.resize(slots);
  report_.per_class_seconds.assign(slots, 0.0);
  // kPending until construct_class: a deadline or fault can end the scan at
  // any step boundary, and the partial report must say how far each class
  // got (take_report handles every state).
  report_.per_class_state.assign(slots, ClassScanState::kPending);
  stats_.assign(slots, kNaN);
}

void StagedScan::prepare() {
  USB_FAULT_POINT("scan.prepare");
  eval_cache_ = select_scan_probe_cache(plan_.options, *probe_, local_cache_);
  if (plan_.shared_builder) shared_ = plan_.shared_builder(*model_, *probe_);
}

std::vector<ScanStep> StagedScan::start() const {
  std::vector<ScanStep> steps;
  for (std::int64_t t = 0; t < num_classes_; ++t) {
    steps.push_back({ScanStep::Kind::kConstruct, t});
  }
  return steps;
}

std::vector<ScanStep> StagedScan::run(const ScanStep& step) {
  const std::int64_t t = step.target_class;
  const auto slot = static_cast<std::size_t>(t);
  switch (step.kind) {
    case ScanStep::Kind::kConstruct: {
      construct_class(t);
      const double stat = class_stat(t);
      const std::lock_guard<std::mutex> lock(mu_);
      stats_[slot] = stat;
      ++constructed_;
      return after_construct_locked(t, remaining_[slot] > 0);
    }
    case ScanStep::Kind::kRound: {
      const bool more = run_round(t);
      const double stat = class_stat(t);
      const std::lock_guard<std::mutex> lock(mu_);
      stats_[slot] = stat;
      return after_round_locked(t, more);
    }
    case ScanStep::Kind::kCutoff:
      return run_cutoff();
    case ScanStep::Kind::kRetire:
      USB_FAULT_POINT("scan.retire");
      remaining_[slot] = 0;
      notify(t, ClassScanEvent::kRetired, tasks_[slot]->current_mask_l1());
      return {{ScanStep::Kind::kFinalize, t}};
    case ScanStep::Kind::kFinalize: {
      finalize_class(t);
      const std::lock_guard<std::mutex> lock(mu_);
      ++finalized_;
      return {};
    }
  }
  return {};
}

bool StagedScan::finished() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return finalized_ == num_classes_;
}

std::vector<ScanStep> StagedScan::after_construct_locked(std::int64_t target_class, bool more) {
  std::vector<ScanStep> out;
  if (mode_ == Mode::kMonolithic) {
    out.push_back({more ? ScanStep::Kind::kRound : ScanStep::Kind::kFinalize, target_class});
    return out;
  }
  // Lockstep rounds start once every class exists: the first cutoff's
  // population is all K classes.
  park_locked(target_class, more, out);
  if (constructed_ == num_classes_) launch_round_locked(out);
  return out;
}

std::vector<ScanStep> StagedScan::after_round_locked(std::int64_t target_class, bool more) {
  std::vector<ScanStep> out;
  if (mode_ == Mode::kMonolithic) {
    out.push_back({more ? ScanStep::Kind::kRound : ScanStep::Kind::kFinalize, target_class});
    return out;
  }
  park_locked(target_class, more, out);
  if (--in_round_ == 0) {
    ++rounds_done_;
    if (!parked_.empty() && rounds_done_ >= plan_.options.early_exit.min_rounds) {
      out.push_back({ScanStep::Kind::kCutoff, 0});
    } else {
      launch_round_locked(out);
    }
  }
  return out;
}

std::vector<ScanStep> StagedScan::run_cutoff() {
  USB_FAULT_POINT("scan.cutoff");
  std::vector<ScanStep> out;
  const std::lock_guard<std::mutex> lock(mu_);
  // The recorded statistics of ALL classes in class order — stopped ones at
  // their frozen value, quarantined ones NaN (peeled by early_exit_cutoff)
  // — the same population the final MAD rule sees. No task is read: a
  // class retired at an earlier cutoff may be finalizing (and freeing its
  // task) right now.
  const double cutoff = early_exit_cutoff(stats_, plan_.options.early_exit.margin);
  std::vector<std::int64_t> survivors;
  for (const std::int64_t t : parked_) {
    if (stats_[static_cast<std::size_t>(t)] <= cutoff) {
      survivors.push_back(t);
    } else {
      out.push_back({ScanStep::Kind::kRetire, t});
    }
  }
  parked_ = std::move(survivors);
  launch_round_locked(out);
  return out;
}

void StagedScan::park_locked(std::int64_t target_class, bool more, std::vector<ScanStep>& out) {
  if (more) {
    parked_.push_back(target_class);
  } else {
    out.push_back({ScanStep::Kind::kFinalize, target_class});
  }
}

void StagedScan::launch_round_locked(std::vector<ScanStep>& out) {
  in_round_ = static_cast<std::int64_t>(parked_.size());
  for (const std::int64_t t : parked_) out.push_back({ScanStep::Kind::kRound, t});
  parked_.clear();
}

void StagedScan::construct_class(std::int64_t target_class) {
  const auto slot = static_cast<std::size_t>(target_class);
  const Timer timer;
  USB_FAULT_POINT("scan.construct");
  tasks_[slot] = plan_.make_task(*model_, *probe_,
                                 make_class_job(plan_.options, target_class, *eval_cache_,
                                                shared_.get()));
  report_.per_class_seconds[slot] += timer.seconds();
  report_.per_class_state[slot] = ClassScanState::kRefining;
}

bool StagedScan::run_round(std::int64_t target_class) {
  const auto slot = static_cast<std::size_t>(target_class);
  USB_FAULT_POINT("scan.round");
  const Timer timer;
  const std::int64_t steps = std::min(round_steps_, remaining_[slot]);
  const std::int64_t ran = tasks_[slot]->run_steps(steps);
  // Fewer than requested means the loop's own exit condition fired; the
  // class is done either way.
  remaining_[slot] = ran < steps ? 0 : remaining_[slot] - ran;
  report_.per_class_seconds[slot] += timer.seconds();
  // Numerical quarantine at the round boundary: a diverged statistic zeroes
  // the budget and excludes the class from every later cutoff and from the
  // verdict.
  double stat_now = tasks_[slot]->current_mask_l1();
  if (USB_FAULT_NAN("scan.round_stat")) stat_now = kNaN;
  if (!std::isfinite(stat_now)) {
    report_.per_class_state[slot] = ClassScanState::kNumericallyUnstable;
    remaining_[slot] = 0;
    notify(target_class, ClassScanEvent::kQuarantined, stat_now);
  }
  return remaining_[slot] > 0;
}

double StagedScan::class_stat(std::int64_t target_class) const {
  const auto slot = static_cast<std::size_t>(target_class);
  return report_.per_class_state[slot] == ClassScanState::kNumericallyUnstable
             ? kNaN
             : tasks_[slot]->current_mask_l1();
}

void StagedScan::finalize_class(std::int64_t target_class) {
  const auto slot = static_cast<std::size_t>(target_class);
  if (report_.per_class_state[slot] == ClassScanState::kNumericallyUnstable) {
    // Quarantined: no fooling-rate evaluation, no kFinalized event — the
    // class ends with a NaN statistic, peeled from the verdict.
    report_.per_class[slot].target_class = target_class;
    report_.per_class[slot].mask_l1 = kNaN;
    tasks_[slot].reset();
    return;
  }
  USB_FAULT_POINT("scan.finalize");
  const Timer timer;
  report_.per_class[slot] = tasks_[slot]->finalize();
  report_.per_class_seconds[slot] += timer.seconds();
  report_.per_class_state[slot] = ClassScanState::kFinalized;
  tasks_[slot].reset();
  notify(target_class, ClassScanEvent::kFinalized, report_.per_class[slot].mask_l1);
}

DetectionReport StagedScan::take_report() {
  // Partial scans (deadline expiry) reach here with kPending/kRefining
  // classes; stamp their slots so the report is legible without estimates.
  for (std::int64_t t = 0; t < num_classes_; ++t) {
    const auto slot = static_cast<std::size_t>(t);
    if (report_.per_class_state[slot] == ClassScanState::kPending ||
        report_.per_class_state[slot] == ClassScanState::kRefining) {
      report_.per_class[slot].target_class = t;
    }
  }
  return finish_report(std::move(report_), wall_.seconds());
}

void StagedScan::notify(std::int64_t target_class, ClassScanEvent event, double mask_l1) const {
  if (plan_.options.progress) plan_.options.progress(target_class, event, mask_l1);
}

DetectionReport run_scan_plan(const ScanPlan& plan, Network& model, const Dataset& probe,
                              ThreadPool& pool) {
  model.freeze();
  StagedScan scan(plan, model, probe);
  scan.prepare();
  StepStack steps(scan.start());
  // No more than K steps are ever claimable at once, so a wider pool keeps
  // its spare workers for the tensor kernels' tiles.
  pool.parallel_for(std::min<std::int64_t>(pool.size(), scan.num_classes()),
                    [&](std::int64_t, std::int64_t, int) { steps.drain(scan); });
  steps.rethrow_if_failed();
  return scan.take_report();
}

}  // namespace usb
