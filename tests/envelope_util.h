// Shared helpers of the serving-layer tests: one envelope submission, its
// single-threaded reference answer run straight through the core
// executors (no service, no pool), and the byte-exact payload comparison
// of the determinism contract.

#ifndef DBSA_TESTS_ENVELOPE_UTIL_H_
#define DBSA_TESTS_ENVELOPE_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/engine_state.h"
#include "service/query.h"

namespace dbsa::testing {

/// One envelope submission: the descriptor plus its contract.
struct Submission {
  service::Query query;
  service::ExecOptions options;
  std::string label;
};

inline service::ExecOptions Options(const query::ErrorBound& bound,
                                    core::Mode mode = core::Mode::kAuto) {
  service::ExecOptions options;
  options.bound = bound;
  options.mode = mode;
  return options;
}

/// Shorthands for the Absolute(epsilon) submissions most tests use.
inline Submission AggregateAt(join::AggKind agg, core::Attr attr, double epsilon,
                              core::Mode mode = core::Mode::kAuto) {
  return {service::Query::Aggregate(agg, attr),
          Options(query::ErrorBound::Absolute(epsilon), mode), "aggregate"};
}
inline Submission CountAt(geom::Polygon poly, double epsilon) {
  return {service::Query::Count(std::move(poly)),
          Options(query::ErrorBound::Absolute(epsilon)), "count"};
}
inline Submission SelectAt(geom::Polygon poly, double epsilon) {
  return {service::Query::Select(std::move(poly)),
          Options(query::ErrorBound::Absolute(epsilon)), "select"};
}

/// The reference answer of `sub` over `source`, with the achieved bound
/// filled in the way the service fills it.
inline service::Result Reference(const core::ShardSource& source,
                                 const Submission& sub) {
  service::Result r;
  r.kind = sub.query.kind();
  r.bound.requested = sub.options.bound;
  const query::ErrorBound& bound = sub.options.bound;
  core::ExecStats stats;
  if (const auto* spec = std::get_if<service::AggregateSpec>(&sub.query.spec())) {
    r.aggregate =
        core::ExecuteAggregate(source, spec->agg, spec->attr, bound, sub.options.mode);
    stats = r.aggregate.stats;
  } else if (const auto* spec = std::get_if<service::CountSpec>(&sub.query.spec())) {
    const core::CountAnswer answer = core::ExecuteCount(source, spec->poly, bound);
    r.range = answer.range;
    stats = answer.stats;
  } else {
    const auto& select = std::get<service::SelectSpec>(sub.query.spec());
    core::SelectAnswer answer = core::ExecuteSelect(source, select.poly, bound);
    r.ids = std::move(answer.ids);
    stats = answer.stats;
  }
  r.bound.epsilon_achieved = stats.achieved_epsilon;
  r.bound.hr_level = stats.hr_level;
  r.bound.cells_touched = stats.query_cells;
  r.bound.shards_probed = stats.shards_probed;
  r.status = Status::OK();
  return r;
}

/// Byte-exact comparison of the query payloads (== on doubles, no
/// tolerance: the determinism contract).
inline void ExpectSamePayload(const service::Result& got, const service::Result& want,
                              const std::string& label) {
  ASSERT_TRUE(got.ok()) << label << ": " << got.status.ToString();
  ASSERT_EQ(got.kind, want.kind) << label;
  switch (want.kind) {
    case service::QueryKind::kAggregate:
      ASSERT_EQ(got.aggregate.rows.size(), want.aggregate.rows.size()) << label;
      for (size_t r = 0; r < want.aggregate.rows.size(); ++r) {
        EXPECT_EQ(got.aggregate.rows[r].region, want.aggregate.rows[r].region)
            << label << " region " << r;
        EXPECT_EQ(got.aggregate.rows[r].value, want.aggregate.rows[r].value)
            << label << " region " << r;
        EXPECT_EQ(got.aggregate.rows[r].lo, want.aggregate.rows[r].lo)
            << label << " region " << r;
        EXPECT_EQ(got.aggregate.rows[r].hi, want.aggregate.rows[r].hi)
            << label << " region " << r;
      }
      break;
    case service::QueryKind::kCount:
      EXPECT_EQ(got.range.estimate, want.range.estimate) << label;
      EXPECT_EQ(got.range.lo, want.range.lo) << label;
      EXPECT_EQ(got.range.hi, want.range.hi) << label;
      break;
    case service::QueryKind::kSelect:
      ASSERT_EQ(got.ids, want.ids) << label;
      break;
  }
}

}  // namespace dbsa::testing

#endif  // DBSA_TESTS_ENVELOPE_UTIL_H_
