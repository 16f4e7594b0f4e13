// MicroBatcher — continuous micro-batching for defended inference, with
// overload protection (DESIGN.md §15).
//
// Concurrent callers submit() independent classify requests; one batcher
// thread coalesces whatever is in flight into dense forward batches so
// the blocked GEMM always sees multi-row work even when every client
// sends single images. The coalescing window is bounded two ways:
//
//   * max_batch_rows — a batch closes as soon as the queue holds that
//     many rows (a single oversized request still runs, alone);
//   * flush_deadline — a batch closes this long after work first became
//     available, so a lone request is never parked waiting for company.
//
// Only requests with the SAME defense scheme and per-row image shape are
// coalesced (earlier compatible requests are never reordered behind later
// ones; incompatible ones simply wait for the next batch). Float or int8
// is not a per-request choice: it is whichever pipeline the factory
// builds (MagNetPipeline::quantized for int8). Because every
// stage of MagNetPipeline::classify is row-independent — detector scores,
// the reformer AE and the classifier forward all process rows separately,
// and the blocked GEMM accumulates each output row in a K-order
// independent of the batch row count (the same property the active-set
// engine's dense sub-batches rely on, DESIGN.md §11) — a coalesced
// response sliced back out is BITWISE IDENTICAL to running that request
// alone. tests/serve_test.cpp and the serve_bench CI gate assert this.
//
// All model execution happens on one thread at a time: classify() is
// const but not reentrant (the underlying Sequentials mutate layer caches
// and the per-model Workspace arena), so serializing passes is what makes
// the shared pipeline safe under concurrent clients (and is also what lets
// the arena's steady-state reuse work — one pass in flight at a time).
//
// Overload semantics (time-shaped faults; crash-shaped ones below):
//   * ADMISSION CONTROL — the queue is bounded by max_queue_rows. A
//     submit that would push the queued row count past the bound is shed
//     immediately with ResultStatus::Overloaded: nothing is computed, no
//     forward pass is owed, and the client may retry later. A request
//     larger than the whole bound is still admitted when the queue is
//     empty (it runs as its own oversized batch, as before).
//   * DEADLINES — a request may carry a relative deadline. It is
//     enforced AT DEQUEUE: when the batcher extracts the next group,
//     requests whose budget already ran out are answered
//     ResultStatus::DeadlineExceeded without spending any forward-pass
//     work on them. A request that starts executing inside its budget is
//     finished even if the budget expires mid-pass.
//   * WATCHDOG — with watchdog_timeout > 0, batches execute on a
//     replaceable executor thread. If one batch (including a lazy model
//     load) runs past the timeout, the watchdog fails that batch's
//     requests with error results, discards the possibly-tainted
//     pipeline (mid-forward layer caches are unusable — the factory
//     rebuilds a fresh one), retires the stuck executor and spawns a
//     replacement, so the daemon keeps serving while the old thread is
//     still wedged. A retired executor that eventually wakes finds its
//     batch already failed and exits without touching anything shared.
//   * DRAIN — stop() finishes the in-flight batch, then answers every
//     still-queued request with an Overloaded shed result (stop
//     accepting, finish in-flight, shed the rest — never serve a queue
//     of unknown depth during shutdown), waits up to drain_grace for
//     retired executors to unwind, and joins. Idempotent; the destructor
//     calls it.
//
// Failure containment for crash-shaped faults (tests label
// `serve`/`fault`):
//   * the pipeline is acquired LAZILY through the factory on the first
//     batch (and re-acquired after a failed load or a watchdog trip). A
//     factory that throws — e.g. the `serve.model_load` failpoint, or a
//     ModelZoo rebuild that fails — turns into error responses for that
//     batch only; the next batch retries the load. The factory is
//     expected to go through the self-healing ModelZoo layer so a
//     corrupt cached model is quarantined and rebuilt rather than
//     failing forever. With a watchdog in play the factory should build
//     a FRESH pipeline per call (the zoo factory does): after a trip the
//     abandoned executor may still be touching the old instance.
//   * the `serve.batch_forward` failpoint (and any exception escaping
//     classify) fails the requests of that batch with error results; the
//     batcher thread and every queued request keep going. The `delay`
//     and `stall` failpoint actions (fault/failpoint.hpp) inject latency
//     at the same two sites — that is what the watchdog and the chaos
//     soak in serve_test exercise.
//
// Observability (adv::obs, prefix serve/): requests, responses_ok,
// responses_error, batches, batch_rows (mean occupancy = batch_rows /
// batches), model_load_failures, batch_failures, shed, deadline_expired,
// watchdog_trips; gauge queue_depth; timers queue_wait (submit -> batch
// extraction) and batch_forward (classify wall time). Accounting
// invariant (asserted by the soak tests and the serve_bench overload
// gate): requests == responses_ok + responses_error + shed +
// deadline_expired once the queue is drained. Per-stage latency lives
// one level down under magnet/stage/* (pipeline.cpp).
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "magnet/pipeline.hpp"
#include "tensor/tensor.hpp"

namespace adv::serve {

struct BatchConfig {
  /// Rows at which a batch closes immediately. 1 degenerates to the
  /// serial one-request-at-a-time path (the identity baseline).
  std::size_t max_batch_rows = 8;
  /// How long a batch may wait for more rows after work first arrives.
  std::chrono::microseconds flush_deadline{200};
  /// Admission bound: a submit that would push the queued row count past
  /// this is shed with ResultStatus::Overloaded instead of queued.
  std::size_t max_queue_rows = 1024;
  /// 0 disables the watchdog (batches run inline on the batcher thread —
  /// bitwise-identical to the pre-watchdog behaviour). > 0 runs batches
  /// on a replaceable executor thread and fails any batch that exceeds
  /// this bound.
  std::chrono::milliseconds watchdog_timeout{0};
  /// How long stop() waits for watchdog-retired executors to unwind
  /// before giving up on them (they hold only refcounted state, so
  /// abandoning a truly-wedged one is safe, just untidy).
  std::chrono::milliseconds drain_grace{2000};
};

/// How a request left the batcher. Mirrors the wire Status codes
/// (serve/protocol.hpp) without depending on the protocol header.
enum class ResultStatus : std::uint8_t {
  Ok = 0,
  Error = 1,             // degraded mode: load/forward failed, watchdog trip
  Overloaded = 2,        // shed at admission or during drain
  DeadlineExceeded = 3,  // budget ran out in queue; no forward pass spent
};

/// Per-request outcome: either a DefenseOutcome slice covering exactly
/// the submitted rows, or a status + message describing why not.
struct ServeResult {
  bool ok = false;
  ResultStatus status = ResultStatus::Error;
  std::string error;
  magnet::DefenseOutcome outcome;
};

class MicroBatcher {
 public:
  /// Produces the pipeline on first use; called again after a failure or
  /// a watchdog trip.
  using PipelineFactory =
      std::function<std::shared_ptr<const magnet::MagNetPipeline>()>;

  explicit MicroBatcher(PipelineFactory factory, BatchConfig cfg = {});
  ~MicroBatcher();
  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Enqueues `rows` (rank-4, leading dim = row count) for classification
  /// under `scheme`. Thread-safe; returns immediately — possibly with an
  /// already-resolved future (admission shed, stopped batcher, bad
  /// shape). `deadline` > 0 bounds how long the request may wait in the
  /// queue (enforced at dequeue); 0 waits as long as it takes.
  std::future<ServeResult> submit(
      Tensor rows, magnet::DefenseScheme scheme,
      std::chrono::milliseconds deadline = std::chrono::milliseconds{0});

  /// Graceful drain: finishes the in-flight batch, sheds everything
  /// still queued with Overloaded results, then joins the batcher
  /// thread. Idempotent; the destructor calls it.
  void stop();

  /// Requests queued but not yet taken into a batch (tests: a drained
  /// soak run must end at 0).
  std::size_t pending() const;
  bool pipeline_loaded() const;
  const BatchConfig& config() const { return cfg_; }

 private:
  struct Pending {
    Tensor rows;
    std::size_t row_count = 0;
    magnet::DefenseScheme scheme = magnet::DefenseScheme::Full;
    std::promise<ServeResult> promise;
    std::chrono::steady_clock::time_point enqueued;
    /// time_point::max() when the request carries no deadline.
    std::chrono::steady_clock::time_point deadline;
  };
  /// Lazily-loaded pipeline shared between the batcher and executors;
  /// outlives the MicroBatcher so a retired executor never dangles.
  struct PipelineSlot;
  /// One batch in flight between the batcher thread and an executor.
  struct BatchTicket;
  /// The replaceable execution thread the watchdog supervises.
  class Executor;
  /// Count of retired-but-still-running executors; shared so they can
  /// check out after the MicroBatcher itself is gone.
  struct DrainState;

  void run();
  /// Pops the maximal in-order prefix-compatible group: every queued
  /// request matching the front one's (scheme, row shape)
  /// until max_batch_rows is reached; the rest keep their order.
  std::vector<Pending> take_group_locked();
  std::size_t queued_rows_locked() const;
  /// Deadline enforcement at dequeue: resolves every queued request
  /// whose budget already ran out with DeadlineExceeded.
  void expire_locked(std::chrono::steady_clock::time_point now);
  /// Resolves everything still queued with Overloaded (drain path).
  void shed_queue_locked(const char* reason);
  /// Runs one group inline or through the executor under the watchdog.
  void dispatch(std::vector<Pending> group);
  static void execute_ticket(const std::shared_ptr<BatchTicket>& ticket,
                             const PipelineFactory& factory,
                             const std::shared_ptr<PipelineSlot>& slot);
  static std::shared_ptr<const magnet::MagNetPipeline> ensure_pipeline(
      const PipelineFactory& factory,
      const std::shared_ptr<PipelineSlot>& slot);

  PipelineFactory factory_;
  BatchConfig cfg_;
  std::shared_ptr<PipelineSlot> slot_;
  std::shared_ptr<DrainState> drain_;
  std::shared_ptr<Executor> executor_;  // only when watchdog enabled

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace adv::serve
