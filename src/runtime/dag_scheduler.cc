#include "src/runtime/dag_scheduler.h"

#include <algorithm>
#include <queue>
#include <string>
#include <thread>

#include "src/common/thread_annotations.h"
#include "src/obs/trace.h"

namespace mrtheta {

namespace {

/// Shared scheduler state.
struct DagState {
  Mutex mu;
  CondVar cv;
  // unfinished deps per node
  std::vector<int> pending_deps MRTHETA_GUARDED_BY(mu);
  // node -> nodes waiting on it
  std::vector<std::vector<int>> dependents MRTHETA_GUARDED_BY(mu);
  // Min-heap of runnable nodes: lowest index starts first.
  std::priority_queue<int, std::vector<int>, std::greater<int>> ready
      MRTHETA_GUARDED_BY(mu);
  int remaining MRTHETA_GUARDED_BY(mu) = 0;   // nodes not yet finished
  int running MRTHETA_GUARDED_BY(mu) = 0;     // bodies currently executing
  bool aborted MRTHETA_GUARDED_BY(mu) = false;
  int error_node MRTHETA_GUARDED_BY(mu) = -1;
  Status error MRTHETA_GUARDED_BY(mu);
};

void WorkerLoop(DagState& state, const std::function<Status(int)>& body) {
  state.mu.Lock();
  for (;;) {
    // Wake when there is work, when everything finished, on abort, or when
    // the dag is stuck (nothing ready, nothing running, nodes remaining —
    // a dependency cycle, surfaced by RunDag via `remaining != 0`).
    while (state.ready.empty() && state.remaining != 0 && !state.aborted &&
           state.running != 0) {
      state.cv.Wait(&state.mu);
    }
    if (state.ready.empty() || state.aborted) {
      state.mu.Unlock();
      return;
    }
    const int node = state.ready.top();
    state.ready.pop();
    ++state.running;
    state.mu.Unlock();

    Status status;
    {
      TraceSpan span("dag-node", "scheduler");
      if (span.enabled()) span.Arg("node", static_cast<int64_t>(node));
      status = body(node);
    }

    state.mu.Lock();
    --state.running;
    --state.remaining;
    if (!status.ok()) {
      // Keep the lowest-index NON-CANCELLED failure so racing independent
      // failures produce a deterministic result and a cancelled node (a
      // consequence of some other node's failure, or of an external token)
      // never masks the root cause. Cancellations surface only when every
      // failure is a cancellation.
      const bool better =
          state.error_node < 0 ||
          (state.error.IsCancelled() && !status.IsCancelled()) ||
          (state.error.IsCancelled() == status.IsCancelled() &&
           node < state.error_node);
      if (better) {
        state.error_node = node;
        state.error = status;
      }
      state.aborted = true;
    } else {
      for (int dep : state.dependents[node]) {
        if (--state.pending_deps[dep] == 0) state.ready.push(dep);
      }
    }
    // Unconditional: finishing a node can unblock work, completion, abort
    // drain, or stuck-dag detection; bodies are heavyweight so the extra
    // wake-ups are free.
    state.cv.NotifyAll();
  }
}

}  // namespace

Status RunDag(const std::vector<std::vector<int>>& deps, int max_concurrency,
              const std::function<Status(int)>& body) {
  const int n = static_cast<int>(deps.size());
  if (n == 0) return Status::OK();

  DagState state;
  const int threads = std::max(1, std::min(max_concurrency, n));
  {
    // No other thread exists yet, but the fields are guarded so the setup
    // takes the (uncontended) lock; it also publishes the initial state to
    // the helpers spawned below.
    MutexLock lock(&state.mu);
    state.pending_deps.assign(n, 0);
    state.dependents.resize(n);
    state.remaining = n;
    for (int i = 0; i < n; ++i) {
      for (int d : deps[i]) {
        if (d < 0 || d >= n) {
          return Status::InvalidArgument(
              "dag node " + std::to_string(i) +
              " depends on out-of-range node " + std::to_string(d));
        }
        if (d == i) {
          return Status::FailedPrecondition(
              "dag node " + std::to_string(i) + " depends on itself");
        }
        ++state.pending_deps[i];
        state.dependents[d].push_back(i);
      }
    }
    int initially_ready = 0;
    for (int i = 0; i < n; ++i) {
      if (state.pending_deps[i] == 0) {
        state.ready.push(i);
        ++initially_ready;
      }
    }
    if (initially_ready == 0) {
      return Status::FailedPrecondition("dag has no dependency-free node");
    }
  }

  // The calling thread is one of the `threads` workers, so width 1 spawns
  // no thread and runs ready nodes lowest-index first on the caller.
  std::vector<std::thread> helpers;
  helpers.reserve(threads - 1);
  for (int t = 1; t < threads; ++t) {
    helpers.emplace_back([&] { WorkerLoop(state, body); });
  }
  WorkerLoop(state, body);
  for (std::thread& t : helpers) t.join();

  MutexLock lock(&state.mu);
  if (state.error_node >= 0) return state.error;
  if (state.remaining != 0) {
    return Status::FailedPrecondition("dag contains a dependency cycle");
  }
  return Status::OK();
}

}  // namespace mrtheta
