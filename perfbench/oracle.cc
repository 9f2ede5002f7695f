#include "oracle.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <unordered_map>

namespace perfbench {
namespace {

using mrtheta::QueryResult;
using mrtheta::Relation;
using mrtheta::ThetaOp;
using mrtheta::ValueType;

// The checks read generated relations whose layout the benchmark fixes; a
// missing column is a benchmark bug, not an output mismatch.
const std::vector<int64_t>& IntColumn(const Relation& rel,
                                      const std::string& name) {
  const auto col = rel.schema().FindColumn(name);
  const std::vector<int64_t>* values =
      col.ok() ? rel.TryColumn<int64_t>(*col) : nullptr;
  if (values == nullptr) {
    std::fprintf(stderr, "perfbench: relation %s has no int64 column %s\n",
                 rel.name().c_str(), name.c_str());
    std::exit(2);
  }
  return *values;
}

const Relation& Rel(const mrtheta::Query& query, int index) {
  return *query.relations().at(index);
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

template <typename T>
bool Compare(const T& lhs, ThetaOp op, const T& rhs) {
  switch (op) {
    case ThetaOp::kLt:
      return lhs < rhs;
    case ThetaOp::kLe:
      return lhs <= rhs;
    case ThetaOp::kEq:
      return lhs == rhs;
    case ThetaOp::kGe:
      return lhs >= rhs;
    case ThetaOp::kGt:
      return lhs > rhs;
    case ThetaOp::kNe:
      return lhs != rhs;
  }
  return false;
}

double Numeric(const Relation& rel, int64_t row, int col) {
  if (rel.schema().column(col).type == ValueType::kInt64) {
    return static_cast<double>(rel.GetInt(row, col));
  }
  return rel.GetDouble(row, col);
}

}  // namespace

int64_t CountMobileQ1(const mrtheta::Query& query) {
  const Relation& t1 = Rel(query, 0);
  const Relation& t2 = Rel(query, 1);
  const Relation& t3 = Rel(query, 2);
  const auto& bt1 = IntColumn(t1, "bt");
  const auto& l1 = IntColumn(t1, "l");
  const auto& bt2 = IntColumn(t2, "bt");
  const auto& l2 = IntColumn(t2, "l");
  const auto& bsc2 = IntColumn(t2, "bsc");
  const auto& d2 = IntColumn(t2, "d");
  const auto& bsc3 = IntColumn(t3, "bsc");
  const auto& d3 = IntColumn(t3, "d");

  std::unordered_map<uint64_t, int64_t> station_day;
  auto key = [](int64_t bsc, int64_t d) {
    return (static_cast<uint64_t>(bsc) << 32) ^ static_cast<uint64_t>(d);
  };
  for (size_t k = 0; k < bsc3.size(); ++k) ++station_day[key(bsc3[k], d3[k])];

  // Fenwick tree over the ranks of t1.l; t1 rows enter in bt order.
  std::vector<int64_t> ranks(l1.begin(), l1.end());
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  std::vector<int64_t> tree(ranks.size() + 1, 0);
  auto add = [&tree](size_t pos) {
    for (++pos; pos < tree.size(); pos += pos & (~pos + 1)) ++tree[pos];
  };
  auto prefix = [&tree](size_t end) {  // inserted rows with rank < end
    int64_t n = 0;
    for (; end > 0; end -= end & (~end + 1)) n += tree[end];
    return n;
  };
  std::vector<size_t> order1(bt1.size());
  std::iota(order1.begin(), order1.end(), 0);
  std::sort(order1.begin(), order1.end(),
            [&](size_t a, size_t b) { return bt1[a] < bt1[b]; });
  std::vector<size_t> order2(bt2.size());
  std::iota(order2.begin(), order2.end(), 0);
  std::sort(order2.begin(), order2.end(),
            [&](size_t a, size_t b) { return bt2[a] < bt2[b]; });

  int64_t total = 0;
  int64_t inserted = 0;
  size_t next = 0;
  for (size_t j : order2) {
    while (next < order1.size() && bt1[order1[next]] <= bt2[j]) {
      const size_t i = order1[next++];
      add(std::lower_bound(ranks.begin(), ranks.end(), l1[i]) -
          ranks.begin());
      ++inserted;
    }
    const auto it = station_day.find(key(bsc2[j], d2[j]));
    if (it == station_day.end()) continue;
    const size_t below =
        std::lower_bound(ranks.begin(), ranks.end(), l2[j]) - ranks.begin();
    total += (inserted - prefix(below)) * it->second;
  }
  return total;
}

int64_t CountMobileQ3(const mrtheta::Query& query) {
  const auto& d1 = IntColumn(Rel(query, 0), "d");
  const auto& bsc1 = IntColumn(Rel(query, 0), "bsc");
  const auto& d2 = IntColumn(Rel(query, 1), "d");
  const auto& d3 = IntColumn(Rel(query, 2), "d");
  const auto& bsc4 = IntColumn(Rel(query, 3), "bsc");

  std::unordered_map<int64_t, int64_t> per_day2, per_day3, per_station4;
  for (int64_t d : d2) ++per_day2[d];
  for (int64_t d : d3) ++per_day3[d];
  for (int64_t b : bsc4) ++per_station4[b];
  auto count = [](const std::unordered_map<int64_t, int64_t>& h, int64_t d) {
    const auto it = h.find(d);
    return it == h.end() ? int64_t{0} : it->second;
  };

  int64_t total = 0;
  for (size_t i = 0; i < d1.size(); ++i) {
    const int64_t stations = count(per_station4, bsc1[i]);
    if (stations == 0) continue;
    // d1 < x < y < d1 + 3 leaves (x, y) = (d1 + 1, d1 + 2) only.
    total += stations * count(per_day2, d1[i] + 1) *
             count(per_day3, d1[i] + 2);
  }
  return total;
}

int64_t CountItineraries(const mrtheta::Query& query,
                         const std::vector<mrtheta::StayOver>& stays) {
  const int legs = query.num_relations();
  // ways[r]: itineraries that start with row r of the current leg.
  std::vector<int64_t> ways(Rel(query, legs - 1).num_rows(), 1);
  for (int k = legs - 2; k >= 0; --k) {
    const auto& dt = IntColumn(Rel(query, k + 1), "dt");
    std::vector<size_t> order(dt.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return dt[a] < dt[b]; });
    std::vector<int64_t> sorted_dt(dt.size());
    std::vector<int64_t> prefix(dt.size() + 1, 0);
    for (size_t i = 0; i < order.size(); ++i) {
      sorted_dt[i] = dt[order[i]];
      prefix[i + 1] = prefix[i] + ways[order[i]];
    }
    const auto& at = IntColumn(Rel(query, k), "at");
    std::vector<int64_t> next(at.size(), 0);
    for (size_t r = 0; r < at.size(); ++r) {
      // at + min < dt < at + max, both strict.
      const size_t lo = std::upper_bound(sorted_dt.begin(), sorted_dt.end(),
                                         at[r] + stays[k].min_minutes) -
                        sorted_dt.begin();
      const size_t hi = std::lower_bound(sorted_dt.begin(), sorted_dt.end(),
                                         at[r] + stays[k].max_minutes) -
                        sorted_dt.begin();
      if (hi > lo) next[r] = prefix[hi] - prefix[lo];
    }
    ways = std::move(next);
  }
  return std::accumulate(ways.begin(), ways.end(), int64_t{0});
}

namespace {

// For each query relation, the rid column of the result that covers it
// (nullptr when the result does not cover that relation).
std::vector<const std::vector<int64_t>*> RidColumns(
    const mrtheta::Query& query, const QueryResult& result) {
  std::vector<const std::vector<int64_t>*> rids(query.num_relations(),
                                                nullptr);
  const auto& exec = result.execution();
  if (exec.result_ids == nullptr) return rids;
  for (size_t c = 0; c < exec.covered_bases.size(); ++c) {
    const int base = exec.covered_bases[c];
    if (base >= 0 && base < query.num_relations()) {
      rids[base] = exec.result_ids->TryColumn<int64_t>(static_cast<int>(c));
    }
  }
  return rids;
}

}  // namespace

int64_t CountViolations(const mrtheta::Query& query,
                        const QueryResult& result) {
  const int64_t rows = result.num_rows();
  const auto rids = RidColumns(query, result);
  for (const auto* column : rids) {
    if (rows > 0 && column == nullptr) return rows;
  }
  int64_t violations = 0;
  for (int64_t row = 0; row < rows; ++row) {
    bool ok = true;
    for (const mrtheta::JoinCondition& cond : query.conditions()) {
      const Relation& a = Rel(query, cond.lhs.relation);
      const Relation& b = Rel(query, cond.rhs.relation);
      const int64_t ra = (*rids[cond.lhs.relation])[row];
      const int64_t rb = (*rids[cond.rhs.relation])[row];
      if (ra < 0 || ra >= a.num_rows() || rb < 0 || rb >= b.num_rows()) {
        ok = false;
        break;
      }
      if (a.schema().column(cond.lhs.column).type == ValueType::kString) {
        ok = cond.offset == 0.0 &&
             Compare(a.GetString(ra, cond.lhs.column), cond.op,
                     b.GetString(rb, cond.rhs.column));
      } else {
        ok = Compare(Numeric(a, ra, cond.lhs.column) + cond.offset, cond.op,
                     Numeric(b, rb, cond.rhs.column));
      }
      if (!ok) break;
    }
    if (!ok) ++violations;
  }
  return violations;
}

MultisetFingerprint FingerprintMultiset(const QueryResult& result) {
  MultisetFingerprint fp;
  const auto& exec = result.execution();
  if (exec.result_ids == nullptr) return fp;
  std::vector<size_t> order(exec.covered_bases.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return exec.covered_bases[a] < exec.covered_bases[b];
  });
  std::vector<const std::vector<int64_t>*> columns;
  for (size_t c : order) {
    columns.push_back(
        exec.result_ids->TryColumn<int64_t>(static_cast<int>(c)));
    if (columns.back() == nullptr) return fp;
  }
  fp.rows = exec.result_ids->num_rows();
  for (int64_t row = 0; row < fp.rows; ++row) {
    uint64_t h = 0x243f6a8885a308d3ULL;
    for (const auto* column : columns) {
      h = Mix(h ^ static_cast<uint64_t>((*column)[row]));
    }
    fp.sum += h;
    fp.sum_sq += Mix(h ^ 0x13198a2e03707344ULL);
  }
  return fp;
}

uint64_t FingerprintOrdered(const QueryResult& result) {
  uint64_t h = 0xa4093822299f31d0ULL;
  auto feed = [&h](uint64_t v) { h = Mix(h ^ v); };
  const auto& exec = result.execution();
  for (int base : exec.covered_bases) feed(static_cast<uint64_t>(base));
  const Relation* tables[] = {exec.result_ids.get(), exec.projected.get()};
  for (const Relation* rel : tables) {
    if (rel == nullptr) continue;
    feed(static_cast<uint64_t>(rel->num_rows()));
    for (int c = 0; c < rel->schema().num_columns(); ++c) {
      for (int64_t row = 0; row < rel->num_rows(); ++row) {
        switch (rel->schema().column(c).type) {
          case ValueType::kInt64:
            feed(static_cast<uint64_t>(rel->GetInt(row, c)));
            break;
          case ValueType::kDouble: {
            const double v = rel->GetDouble(row, c);
            uint64_t bits = 0;
            std::memcpy(&bits, &v, sizeof bits);
            feed(bits);
            break;
          }
          case ValueType::kString:
            for (unsigned char ch : rel->GetString(row, c)) feed(ch);
            feed(0xff);
            break;
        }
      }
    }
  }
  return h;
}

}  // namespace perfbench
