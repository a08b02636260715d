#include "check.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

namespace perfbench {

using dbsa::join::AggKind;
using dbsa::query::BoundKind;
using dbsa::service::AggregateSpec;
using dbsa::service::QueryKind;
using dbsa::service::Result;

IdSet::IdSet(const std::vector<uint32_t>& sorted) : size_(sorted.size()) {
  uint32_t prev = 0;
  for (const uint32_t id : sorted) {
    uint32_t delta = id - prev;
    prev = id;
    do {
      const uint8_t low = static_cast<uint8_t>(delta & 0x7f);
      delta >>= 7;
      bytes_.push_back(delta != 0 ? static_cast<uint8_t>(low | 0x80) : low);
    } while (delta != 0);
  }
  bytes_.shrink_to_fit();
}

ExactAnswers ComputeExact(const Oracle& oracle, const Workload& workload,
                          const dbsa::data::RegionSet& regions, size_t threads) {
  ExactAnswers exact;
  const size_t n = workload.polys.size();
  exact.count.assign(n, 0);
  exact.ids.resize(n);
  std::vector<uint8_t> wants_ids(n, 0);
  for (const BenchQuery& q : workload.table) {
    if (q.query.kind() == QueryKind::kSelect) wants_ids[static_cast<size_t>(q.poly)] = 1;
  }
  std::atomic<size_t> next{0};
  const auto worker = [&]() {
    for (size_t i = next++; i < n; i = next++) {
      if (wants_ids[i]) {
        const std::vector<uint32_t> ids = oracle.Select(workload.polys[i]);
        exact.count[i] = ids.size();
        exact.ids[i] = IdSet(ids);
      } else {
        exact.count[i] = oracle.Count(workload.polys[i]);
      }
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 0; t < std::max<size_t>(threads, 1); ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  exact.regions = oracle.Regions(regions);
  return exact;
}

namespace {

bool InRange(double exact, double lo, double hi) {
  const double tol = 1e-9 * std::max(1.0, std::fabs(exact)) + 1e-9;
  return exact >= lo - tol && exact <= hi + tol;
}

double RelWidth(double lo, double hi) { return (hi - lo) / std::max(1.0, lo); }

}  // namespace

Verdict CheckResult(const BenchQuery& q, const ExactAnswers& exact, const Result& result,
                    dbsa::service::ExecPath expected_path, CheckScratch* scratch) {
  Verdict v;
  if (!result.ok()) {
    v.served = false;
    v.correct = false;
    v.violation = "status " + result.status.ToString();
    return v;
  }
  const auto fail = [&](std::string why) {
    if (v.correct) v.violation = std::move(why);
    v.correct = false;
  };
  if (result.bound.path != expected_path) {
    fail(std::string("path ") + dbsa::service::ExecPathName(result.bound.path));
  }
  const dbsa::query::ErrorBound& bound = q.options.bound;
  const bool approximate = bound.kind != BoundKind::kExact;
  if (result.bound.epsilon_achieved > (approximate ? bound.epsilon : 0.0)) {
    fail("epsilon_achieved " + std::to_string(result.bound.epsilon_achieved) + " > " +
         std::to_string(bound.epsilon));
  }
  switch (q.query.kind()) {
    case QueryKind::kCount: {
      const double truth = static_cast<double>(exact.count[static_cast<size_t>(q.poly)]);
      if (!InRange(truth, result.range.lo, result.range.hi)) {
        fail("count " + std::to_string(truth) + " outside [" +
             std::to_string(result.range.lo) + ", " + std::to_string(result.range.hi) + "]");
      }
      if (approximate) v.rel_width = RelWidth(result.range.lo, result.range.hi);
      break;
    }
    case QueryKind::kSelect: {
      const IdSet& truth = exact.ids[static_cast<size_t>(q.poly)];
      std::vector<uint64_t>& bits = scratch->bits;
      size_t missing = 0;
      for (const uint32_t id : result.ids) {
        const size_t word = id >> 6;
        if (word >= bits.size()) bits.resize(word + 1, 0);
        bits[word] |= uint64_t{1} << (id & 63);
      }
      truth.ForEach([&](uint32_t id) {
        const size_t word = id >> 6;
        if (word >= bits.size() || !(bits[word] >> (id & 63) & 1)) ++missing;
      });
      for (const uint32_t id : result.ids) bits[id >> 6] = 0;
      if (missing != 0) fail("select misses " + std::to_string(missing) + " exact ids");
      if (approximate) {
        const double t = static_cast<double>(truth.size());
        v.fp_ratio = (static_cast<double>(result.ids.size()) - t) / std::max(1.0, t);
      }
      break;
    }
    case QueryKind::kAggregate: {
      const AggKind agg = std::get<AggregateSpec>(q.query.spec()).agg;
      double width = 0.0;
      size_t rows = 0;
      for (const dbsa::core::AggregateRow& row : result.aggregate.rows) {
        if (row.region >= exact.regions.count.size()) {
          fail("aggregate row for unknown region " + std::to_string(row.region));
          continue;
        }
        const double n = exact.regions.count[row.region];
        const double sum = static_cast<double>(exact.regions.fare_sum[row.region]);
        // AVG rows are point estimates (lo == hi == value): the plan
        // guarantees ranges for COUNT and SUM only.
        if (agg == AggKind::kAvg) continue;
        const double truth = agg == AggKind::kSum ? sum : n;
        if (!InRange(truth, row.lo, row.hi)) {
          fail("region " + std::to_string(row.region) + " value " + std::to_string(truth) +
               " outside [" + std::to_string(row.lo) + ", " + std::to_string(row.hi) + "]");
        }
        width += RelWidth(row.lo, row.hi);
        ++rows;
      }
      if (agg != AggKind::kAvg && rows != exact.regions.count.size()) {
        fail("aggregate returned " + std::to_string(rows) + " rows");
      }
      if (approximate && rows > 0) v.rel_width = width / static_cast<double>(rows);
      break;
    }
  }
  return v;
}

std::string CheckerSelfTest(const Workload& workload, const ExactAnswers& exact) {
  CheckScratch scratch;
  std::string slipped;
  for (const BenchQuery& q : workload.table) {
    if (q.poly < 0 || q.options.bound.kind == BoundKind::kExact) continue;
    const size_t poly = static_cast<size_t>(q.poly);
    Result good;
    good.kind = q.query.kind();
    good.bound.path = workload.path;
    if (q.query.kind() == QueryKind::kCount) {
      const double truth = static_cast<double>(exact.count[poly]);
      good.range.lo = std::max(0.0, truth - 5.0);
      good.range.hi = truth + 5.0;
      Result shifted = good;
      shifted.range.lo += good.range.hi - good.range.lo + 1.0;
      shifted.range.hi += good.range.hi - good.range.lo + 1.0;
      if (!CheckResult(q, exact, good, workload.path, &scratch).correct) {
        slipped += "a correct count range was rejected; ";
      }
      if (CheckResult(q, exact, shifted, workload.path, &scratch).correct) {
        slipped += "a shifted count range was accepted; ";
      }
      break;
    }
  }
  for (const BenchQuery& q : workload.table) {
    if (q.query.kind() != QueryKind::kSelect) continue;
    const IdSet& truth = exact.ids[static_cast<size_t>(q.poly)];
    if (truth.size() == 0) continue;
    Result good;
    good.kind = QueryKind::kSelect;
    good.bound.path = workload.path;
    truth.ForEach([&](uint32_t id) { good.ids.push_back(id); });
    Result dropped = good;
    dropped.ids.erase(dropped.ids.begin() + static_cast<long>(dropped.ids.size() / 2));
    if (!CheckResult(q, exact, good, workload.path, &scratch).correct) {
      slipped += "an exact selection was rejected; ";
    }
    if (CheckResult(q, exact, dropped, workload.path, &scratch).correct) {
      slipped += "a selection missing an id was accepted; ";
    }
    break;
  }
  return slipped;
}

}  // namespace perfbench
