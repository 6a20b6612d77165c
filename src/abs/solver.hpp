// AbsSolver — the full Adaptive Bulk Search framework (Fig. 5).
//
// Host loop (Section 3.1):
//   Step 1: initialize the solution pool with random bit vectors (energies
//           unknown — the host never evaluates E) and stock every device's
//           target buffer.
//   Step 2: poll the devices' solution counters.
//   Step 3: insert newly reported solutions into the sorted, duplicate-free
//           pool.
//   Step 4: breed and store as many new targets as solutions arrived, and
//           go back to Step 2.
//
// The host population is always an IslandSet driven by an
// AdaptiveController (Diverse ABS, docs/algorithms.md). Classic ABS is its
// degenerate case — one island, the portfolio {min-Δ}, controller off —
// and island 0 draws from Rng(seed) itself, so that case replays the
// single-pool protocol bit for bit (PortfolioLockstep pins it).
//
// Two entry points share the per-device round body (drain → insert →
// breed → round clock):
//   * run()        — devices run concurrently and asynchronously on their
//                    worker threads (see Device); the only shared state is
//                    the mailboxes. Stops on any configured criterion.
//   * run_rounds() — step mode: every device steps all its blocks once on
//                    the calling thread, then the host runs one round per
//                    device. Identical (instance, config) always gives
//                    identical results — the bit-reproducible executor for
//                    regression baselines and paired A/B ablations.
// Throughput is reported in the paper's metric — evaluated solutions per
// second, where every committed flip evaluates n neighbours.
//
// Fault tolerance (docs/robustness.md): the host loop doubles as a device
// watchdog. A device whose worker threw is quarantined (stopped without
// joining, salvage-drained, excluded from target stocking) and the run
// continues on the survivors; an optional bounded restart policy re-creates
// failed devices from the weight matrix. Because the protocol is built on
// monotonic counters, a *stalled* device is detected the same way the
// paper's host would have to — its iteration counter stops advancing for
// longer than a grace window. Periodic crash-safe checkpoints (atomic
// temp+rename snapshots of the pool plus run context) make a SIGKILL'd run
// resumable through AbsConfig::warm_start.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "abs/device.hpp"
#include "ga/operators.hpp"
#include "ga/solution_pool.hpp"
#include "obs/telemetry.hpp"
#include "portfolio/controller.hpp"
#include "portfolio/island.hpp"
#include "portfolio/portfolio.hpp"
#include "qubo/bit_vector.hpp"
#include "qubo/weight_matrix.hpp"

namespace absq {

/// When to stop a run. Criteria compose with OR; at least one of
/// target_energy / time_limit_seconds / max_flips must be set.
struct StopCriteria {
  /// Stop once the pool's best energy is ≤ this (time-to-solution runs).
  std::optional<Energy> target_energy;
  /// Wall-clock budget in seconds (0 = unlimited).
  double time_limit_seconds = 0.0;
  /// Total committed flips across all devices (0 = unlimited).
  std::uint64_t max_flips = 0;

  [[nodiscard]] bool bounded() const {
    return target_energy.has_value() || time_limit_seconds > 0.0 ||
           max_flips > 0;
  }
};

/// Device-health policy of AbsSolver's host loop. The defaults detect
/// thrown device failures (always on — a captured exception is
/// unambiguous) but leave stall detection and restarts opt-in, because
/// both trade determinism-of-behaviour for availability.
struct WatchdogConfig {
  /// > 0 enables stall detection: a running device whose iteration
  /// counter has not advanced for this many seconds is quarantined.
  /// Tune well above the longest legitimate block iteration (see
  /// docs/robustness.md); 0 disables.
  double stall_grace_seconds = 0.0;
  /// Restart budget per device slot. Only devices that *failed* (threw)
  /// are restarted — a stalled device cannot be safely joined, so it
  /// stays quarantined until the run ends.
  std::uint32_t max_restarts = 0;
  /// Minimum delay between a failure and its restart attempt.
  double restart_backoff_seconds = 0.0;
};

struct AbsConfig {
  std::uint32_t num_devices = 1;
  /// Per-device template; device_id is assigned by the solver.
  DeviceConfig device;
  /// m, the solution-pool capacity.
  std::size_t pool_capacity = 128;
  GaConfig ga;
  std::uint64_t seed = 42;
  /// Device failure / stall handling (see WatchdogConfig).
  WatchdogConfig watchdog;
  /// Non-empty enables crash-safe run checkpointing to this path: an
  /// atomic snapshot (pool + seed + elapsed + per-device flips) is
  /// written every checkpoint_interval_seconds of run() and once more on
  /// any graceful end of run() or run_rounds() — including cancellation
  /// via request_stop().
  std::string checkpoint_path;
  double checkpoint_interval_seconds = 0.0;
  /// Wall-clock seconds already spent by previous incarnations of this
  /// run (from a resumed checkpoint); added to the `elapsed` field of
  /// every checkpoint written.
  double elapsed_offset_seconds = 0.0;
  /// Optional warm start (checkpoint resume): these entries are inserted
  /// into the fresh pool at host Step 1 and preferred as initial targets.
  /// Shared ownership keeps the config copyable across devices/runs.
  std::shared_ptr<const SolutionPool> warm_start;
  /// Called (from the host loop thread) after each *successful* crash-safe
  /// checkpoint write, with the lifetime count of checkpoints this run has
  /// written. The serve layer journals per-job `checkpointed` records
  /// through this; null = no notification. Must not throw.
  std::function<void(std::uint64_t)> on_checkpoint;
  /// > 0 enables periodic RunSnapshot collection at roughly this cadence.
  double snapshot_interval_seconds = 0.0;
  /// Diverse ABS (docs/algorithms.md): island pools, the per-block search
  /// portfolio, and the adaptive (pool, algorithm) controller. The default
  /// (1 island, min-Δ only, controller off) is classic ABS — the
  /// single-pool protocol above, pinned bit for bit by the lockstep test.
  portfolio::PortfolioConfig portfolio;
  /// Observability sinks, propagated to every device (non-owning; default
  /// = disabled). The solver adds host-side series (pool churn, GA
  /// breeding, incumbent gauges) and trace spans for host rounds. The
  /// registry/tracer must outlive the solver.
  obs::Telemetry telemetry;
};

/// Device health as judged by the solver watchdog.
enum class DeviceHealth : std::uint8_t {
  kHealthy = 0,  ///< running (or ran to completion) normally
  kStalled = 1,  ///< quarantined: iteration counter stopped advancing
  kFailed = 2,   ///< quarantined: a worker threw (restart budget exhausted)
};

[[nodiscard]] const char* to_string(DeviceHealth health);

/// Per-device accounting attached to every result. Counters are lifetime
/// totals across every incarnation of the device slot (restarts included).
struct DeviceSummary {
  std::uint32_t device_id = 0;
  std::uint32_t workers = 0;  ///< worker threads running the blocks
  std::uint64_t flips = 0;
  std::uint64_t iterations = 0;
  std::uint64_t reports = 0;  ///< solutions pushed (mailbox counter)
  /// Block iterations that found no fresh target (host fell behind).
  std::uint64_t target_misses = 0;
  std::uint64_t targets_dropped = 0;    ///< target-mailbox overwrites
  std::uint64_t solutions_dropped = 0;  ///< solution-mailbox overwrites
  DeviceHealth health = DeviceHealth::kHealthy;  ///< state at run end
  std::uint32_t restarts = 0;  ///< successful watchdog restarts this run
  /// Times any of the device's blocks changed its portfolio member on a
  /// controller request (0 outside diverse mode).
  std::uint64_t algorithm_switches = 0;
  /// what() of the captured exception (or the stall diagnosis) for an
  /// unhealthy device; empty while healthy.
  std::string failure;
};

/// Per-island accounting attached to every result (a classic run has one
/// island).
struct IslandSummary {
  std::uint32_t island_id = 0;
  Energy best_energy = 0;  ///< kUnevaluated when nothing reported
  std::size_t pool_evaluated = 0;
  std::uint64_t inserts = 0;        ///< reports this island's pool accepted
  std::uint64_t migrations_in = 0;  ///< elites received over the ring
  std::uint32_t blocks = 0;         ///< blocks assigned at run end
};

/// One periodic observation of a running solve (see
/// AbsConfig::snapshot_interval_seconds).
struct RunSnapshot {
  double seconds = 0.0;
  Energy best_energy = 0;             ///< pool best (kUnevaluated if none)
  std::size_t pool_evaluated = 0;
  std::uint64_t total_flips = 0;
  /// Evaluated solutions per second since the previous snapshot. NaN when
  /// the observation window was empty (e.g. the first snapshot of a
  /// continuation fired immediately) — a near-zero-length window must not
  /// produce an absurd rate, and 0.0 would be indistinguishable from a
  /// genuinely stalled solver.
  double window_rate = 0.0;
};

struct AbsResult {
  BitVector best;
  Energy best_energy = 0;
  bool reached_target = false;
  /// True when the run ended because request_stop() was called.
  bool cancelled = false;

  double seconds = 0.0;
  std::uint64_t total_flips = 0;
  std::uint64_t evaluated_solutions = 0;
  /// Evaluated solutions per second — the paper's "search rate".
  double search_rate = 0.0;

  std::uint64_t reports_received = 0;
  std::uint64_t reports_inserted = 0;
  /// Pool churn: reports rejected as exact duplicates (the premature-
  /// convergence signal) and members evicted for better newcomers.
  std::uint64_t duplicates_rejected = 0;
  std::uint64_t pool_evictions = 0;
  std::uint64_t targets_generated = 0;
  std::uint64_t solutions_dropped = 0;
  std::uint64_t targets_dropped = 0;

  /// (wall-clock seconds, energy) at each improvement of the incumbent —
  /// the raw series behind time-to-solution plots.
  std::vector<std::pair<double, Energy>> best_trace;
  /// Per-device breakdown (the Fig. 8 fairness data).
  std::vector<DeviceSummary> devices;
  /// Per-island breakdown, ring-migration totals, and controller activity
  /// (one island and zero migrations/reassignments on classic runs).
  std::vector<IslandSummary> islands;
  std::uint64_t migrations = 0;        ///< elites copied over the ring
  std::uint64_t migration_events = 0;  ///< times the ring migration ran
  std::uint64_t controller_reassignments = 0;
  /// Periodic observations, when enabled.
  std::vector<RunSnapshot> snapshots;

  /// Device ids quarantined (stalled or failed) at run end. Empty for a
  /// fully healthy run; a device that failed but was restarted within
  /// budget is NOT listed (see DeviceSummary::restarts).
  std::vector<std::uint32_t> failed_devices;
  /// Run checkpoints successfully written / failed to write (a checkpoint
  /// write failure degrades the run's durability, never its progress).
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoints_failed = 0;
};

class AbsSolver {
 public:
  AbsSolver(const WeightMatrix& w, AbsConfig config);
  ~AbsSolver();

  AbsSolver(const AbsSolver&) = delete;
  AbsSolver& operator=(const AbsSolver&) = delete;

  /// Runs until a stop criterion fires. Reusable: each call restarts from a
  /// fresh pool but keeps the devices' accumulated search state (matching
  /// the paper's long-lived blocks).
  AbsResult run(const StopCriteria& stop);

  /// Step mode: runs `rounds` (≥ 1) synchronous rounds on the calling
  /// thread, stopping early once the best energy is ≤ `target`. A round
  /// steps every block of every device once, then runs the host round per
  /// device. best_trace is stamped with the round index instead of
  /// seconds. Same reuse contract as run(). Requires an explicit
  /// DeviceConfig::threads_per_device: the worker count fixes the mailbox
  /// sharding, so "auto" would make results depend on the host.
  AbsResult run_rounds(std::uint64_t rounds,
                       std::optional<Energy> target = std::nullopt);

  /// Thread-safe external cancellation: the current (or next) run() ends
  /// at its next host-loop poll with result.cancelled = true. The flag is
  /// consumed by that run.
  void request_stop() { stop_requested_.store(true); }

  /// Island 0's pool — the whole population of a classic (one-island)
  /// run.
  [[nodiscard]] const SolutionPool& pool() const { return islands_.pool(0); }
  /// The island pools / controller. Host-loop state — read between runs or
  /// from the host thread.
  [[nodiscard]] const portfolio::IslandSet& islands() const {
    return islands_;
  }
  [[nodiscard]] const portfolio::AdaptiveController& controller() const {
    return controller_;
  }
  [[nodiscard]] std::uint32_t num_devices() const {
    return static_cast<std::uint32_t>(devices_.size());
  }
  [[nodiscard]] const Device& device(std::size_t i) const {
    return *devices_[i].device;
  }
  /// Watchdog verdict for device slot `i` (kHealthy between runs).
  [[nodiscard]] DeviceHealth device_health(std::size_t i) const {
    return devices_[i].health;
  }

 private:
  /// One logical device position. The Device object is replaced on
  /// restart; the slot carries the identity, the health verdict, and the
  /// counters accumulated by retired incarnations.
  struct DeviceSlot {
    std::unique_ptr<Device> device;
    DeviceConfig config;  ///< resolved per-device config (restart template)
    DeviceHealth health = DeviceHealth::kHealthy;
    std::uint32_t restarts = 0;     ///< watchdog restarts this run
    std::uint32_t incarnations = 0; ///< devices built beyond the first (ever)
    std::string failure;        ///< diagnosis once unhealthy
    double quarantined_at = 0;  ///< run clock at quarantine (backoff base)
    std::uint64_t seen_counter = 0;  ///< host Step 2 high-water mark
    // Watchdog progress tracking.
    std::uint64_t last_iterations = 0;
    double last_progress_time = 0.0;
    // Lifetime counters of retired (crashed-and-replaced) incarnations.
    std::uint64_t retired_flips = 0;
    std::uint64_t retired_iterations = 0;
    std::uint64_t retired_reports = 0;
    std::uint64_t retired_target_misses = 0;
    std::uint64_t retired_targets_dropped = 0;
    std::uint64_t retired_solutions_dropped = 0;
    std::uint64_t retired_algorithm_switches = 0;
  };

  std::uint64_t flips_across_devices() const;
  /// Pushes the pool-churn counter deltas since the last sync into the
  /// metrics registry (no-op when metrics are disabled).
  void sync_pool_metrics();
  /// Builds a fresh Device for slot `slot_index`; `incarnation` > 0 remixes
  /// the seed so a restarted device explores a new stream.
  [[nodiscard]] std::unique_ptr<Device> make_device(std::size_t slot_index,
                                                    std::uint32_t incarnation);
  /// Folds a retiring Device's lifetime counters into the slot's retired_*
  /// accumulators so summaries stay lifetime totals across incarnations.
  static void retire_device_counters(DeviceSlot& slot);
  /// Drains a device's solution buffer into the pool without breeding
  /// replacement targets — the salvage path for quarantined devices.
  void salvage_drain(DeviceSlot& slot, AbsResult& result, double now);
  /// Marks a device unhealthy, stops it without joining, salvages its
  /// in-flight reports, and records telemetry.
  void quarantine(std::size_t slot_index, DeviceHealth health,
                  std::string diagnosis, AbsResult& result, double now);
  /// Failure/stall detection plus the bounded restart policy; called from
  /// the host loop.
  void poll_device_health(AbsResult& result, double now);
  /// Writes a run checkpoint (atomic); failures are counted, not fatal.
  void write_run_checkpoint(AbsResult& result, double now);
  /// Host Step 1 of either entry point: revives slots left unhealthy by a
  /// previous run, re-seeds the island pools (plus the warm start) and
  /// stocks every device's target buffer.
  void begin_run(AbsResult& result);
  /// One GA round for device slot `d`: drain its reports, insert them
  /// (Step 3), breed as many replacement targets (Step 4), then tick the
  /// island migration and controller clocks. `now` stamps best_trace.
  void host_round(std::size_t d, AbsResult& result, double now);
  /// Final drain and the result's summary fields, shared by both entry points;
  /// writes the graceful-shutdown checkpoint when checkpointing.
  void finish_run(AbsResult& result, std::uint64_t flips_at_start,
                  std::uint64_t reassignments_at_start,
                  const std::optional<Energy>& target);
  /// Island of the arm block `block` of device `device` is assigned to.
  [[nodiscard]] std::uint32_t island_of(std::uint32_t device,
                                        std::uint32_t block) const;
  /// Inserts one report into the island of the reporting block's arm,
  /// crediting the controller. Returns true when the pool accepted it.
  bool insert_report(std::uint32_t device, std::uint32_t block,
                     const BitVector& bits, Energy energy);
  /// The Step 1 target for block `block` of device `device`, from its
  /// arm's island pool; warm-started entries (best-first) go out first.
  [[nodiscard]] const BitVector& stock_target(std::uint32_t device,
                                              std::uint32_t block);
  /// The merged best-first view of all island pools (the checkpoint
  /// payload, capped at pool_capacity); a single island is its own view.
  [[nodiscard]] SolutionPool merged_pool() const;
  /// Re-applies the controller's current (possibly reallocated) member
  /// assignments to a freshly built device incarnation.
  void reapply_algorithms(std::size_t slot_index);

  const WeightMatrix* w_;
  AbsConfig config_;
  /// The host population and the (island, algorithm) controller. The
  /// controller exists even with portfolio.controller == false — it
  /// carries the static block → arm striping the report router needs.
  portfolio::IslandSet islands_;
  portfolio::AdaptiveController controller_;
  std::vector<DeviceSlot> devices_;
  std::atomic<bool> stop_requested_{false};

  // Host-side telemetry series, resolved at construction (null = off).
  obs::Counter* m_reports_received_ = nullptr;
  obs::Counter* m_reports_inserted_ = nullptr;
  obs::Counter* m_duplicates_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
  obs::Counter* m_targets_generated_ = nullptr;
  obs::Counter* m_improvements_ = nullptr;
  obs::Gauge* m_pool_best_energy_ = nullptr;
  obs::Gauge* m_pool_evaluated_ = nullptr;
  obs::Counter* m_device_failures_ = nullptr;
  obs::Counter* m_device_restarts_ = nullptr;
  obs::Counter* m_checkpoints_ = nullptr;
  obs::Counter* m_targets_dropped_ = nullptr;    ///< mailbox="targets"
  obs::Counter* m_solutions_dropped_ = nullptr;  ///< mailbox="solutions"
  std::vector<obs::Gauge*> m_device_health_;  ///< per slot; DeviceHealth value
  std::uint64_t synced_inserted_ = 0;
  std::uint64_t synced_duplicates_ = 0;
  std::uint64_t synced_evictions_ = 0;
  std::uint64_t synced_targets_dropped_ = 0;
  std::uint64_t synced_solutions_dropped_ = 0;
  /// Job id parsed from the telemetry base labels ({job="<id>"}), stamped
  /// onto this solver's log lines; -1 = standalone run, no job field.
  std::int64_t log_job_ = -1;
};

}  // namespace absq
