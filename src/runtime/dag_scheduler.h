#ifndef MRTHETA_RUNTIME_DAG_SCHEDULER_H_
#define MRTHETA_RUNTIME_DAG_SCHEDULER_H_

#include <functional>
#include <vector>

#include "src/common/status.h"

namespace mrtheta {

/// \brief Runs a dependency DAG of N nodes, overlapping independent nodes.
///
/// `deps[i]` lists the nodes that must fully finish before `body(i)` may
/// start; nodes whose dependency sets are disjoint run concurrently on up
/// to `max_concurrency` threads: the calling thread plus at most
/// `max_concurrency - 1` helpers, so width 1 spawns no thread and runs the
/// nodes on the caller. Node bodies may block (they typically run a whole
/// MapReduce job), so every concurrently-runnable node gets its own thread
/// rather than a slot on a task pool.
///
/// Determinism contract: `body(i)` runs at most once per node, all of a
/// node's dependency bodies happen-before it, and every body's side effects
/// happen-before RunDag returns. Each body must write only node-local state
/// (plus state owned by its dependents-by-contract, e.g. a result slot
/// indexed by `i`); under that discipline the outcome is independent of
/// scheduling. When several ready nodes compete for a thread, the
/// lowest-index node starts first.
///
/// Error handling: on the first failing body no *new* nodes are started
/// (in-flight ones finish), and the returned status is the failure of the
/// lowest-index failed node — deterministic even when independent nodes
/// fail in racing order. kCancelled failures rank below every other code:
/// a node cancelled as a *consequence* of another node's failure (or of an
/// engine cancellation token) never masks the root cause, so callers see
/// kCancelled only when the whole dag was cancelled from outside. Returns
/// InvalidArgument for out-of-range dependencies and FailedPrecondition
/// for dependency cycles, without running any body.
Status RunDag(const std::vector<std::vector<int>>& deps, int max_concurrency,
              const std::function<Status(int)>& body);

}  // namespace mrtheta

#endif  // MRTHETA_RUNTIME_DAG_SCHEDULER_H_
