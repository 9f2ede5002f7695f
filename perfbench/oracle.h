// Output checks of the benchmark, computed from the generated relations
// without calling the engine's planners, executors or join kernels.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/executor.h"
#include "src/core/query.h"
#include "src/workload/flights.h"

namespace perfbench {

/// Result rows of mobile Q1 (t1.bt <= t2.bt, t1.l >= t2.l, t2.bsc = t3.bsc,
/// t2.d = t3.d), counted by sorting t1 on bt and a Fenwick tree over l,
/// times a (bsc, d) histogram of t3. Relations in alias order t1, t2, t3.
int64_t CountMobileQ1(const mrtheta::Query& query);

/// Result rows of mobile Q3 (t1.d < t2.d < t3.d < t1.d + 3,
/// t1.bsc = t4.bsc), counted from per-day histograms of t2 and t3 and a
/// station histogram of t4.
int64_t CountMobileQ3(const mrtheta::Query& query);

/// Result rows of a flight itinerary chain (leg i arrives, leg i+1 departs
/// strictly inside the stay-over window), counted by a backward pass that
/// sorts each leg on departure time and sums suffix counts by binary search.
int64_t CountItineraries(const mrtheta::Query& query,
                         const std::vector<mrtheta::StayOver>& stays);

/// Number of result rid tuples that violate at least one of the query's
/// `(a.col + offset) op b.col` conditions, or whose rids are out of range.
/// Conditions are evaluated here, not with the library's predicate code.
int64_t CountViolations(const mrtheta::Query& query,
                        const mrtheta::QueryResult& result);

/// Order-independent fingerprint of the result as a multiset of rid tuples,
/// with columns put in base-relation order, so plans that cover the bases
/// in different orders compare equal.
struct MultisetFingerprint {
  int64_t rows = 0;
  uint64_t sum = 0;
  uint64_t sum_sq = 0;
  bool operator==(const MultisetFingerprint&) const = default;
};
MultisetFingerprint FingerprintMultiset(const mrtheta::QueryResult& result);

/// Fingerprint of the rid table and the projection in row order: equal
/// fingerprints mean the same rows in the same order.
uint64_t FingerprintOrdered(const mrtheta::QueryResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
