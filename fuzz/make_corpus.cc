// Regenerates the checked-in seed corpus for fuzz_parse_frame: one valid
// v5 frame per message type/variant (the batch types with two entries),
// written into the directory given as
// argv[1] (default fuzz/corpus/parse_frame). Run from the repo root after
// any wire change, and commit the result — the fuzzer starts from real
// frames, not from zero.
//
//   cmake -B build -S . -DDBSA_FUZZ=ON && cmake --build build --target make_corpus
//   ./build/make_corpus fuzz/corpus/parse_frame

#include <cstdio>
#include <fstream>
#include <string>

#include "service/approx_cache.h"
#include "service/transport.h"

namespace {

using dbsa::service::GatherBatch;
using dbsa::service::GatherPartial;
using dbsa::service::ObjectKey;
using dbsa::service::ScatterBatch;
using dbsa::service::ScatterRequest;
using dbsa::service::StatsReply;
using dbsa::service::StatsRequest;

bool WriteFile(const std::string& dir, const char* name,
               const std::string& bytes) {
  const std::string path = dir + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "make_corpus: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("%s: %zu bytes\n", path.c_str(), bytes.size());
  return true;
}

ScatterRequest BaseScatter() {
  ScatterRequest request;
  request.bound_kind = dbsa::query::BoundKind::kAbsoluteDistance;
  request.bound_epsilon = 125.0;
  request.level = 9;
  request.checksum = 0x0123456789abcdefULL;
  request.trace_hi = 0xc0ffee00c0ffee00ULL;
  request.trace_lo = 0xdeadbeefdeadbeefULL;
  request.span_id = 42;
  request.epoch = 9;  // Pinned to a snapshot generation (v5 epoch field).
  request.has_object = true;
  request.object = ObjectKey(0x8000000000000001ULL, 7);
  request.has_cells = true;
  for (uint64_t i = 1; i <= 4; ++i) {
    dbsa::raster::HrCell cell;
    cell.id = dbsa::raster::CellId(i * 21);
    cell.boundary = (i % 2) == 0;
    request.cells.push_back(cell);
  }
  return request;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "fuzz/corpus/parse_frame";
  bool ok = true;

  ScatterRequest aggregate = BaseScatter();
  aggregate.kind = ScatterRequest::Kind::kAggregateCells;
  ok &= WriteFile(dir, "scatter_aggregate.bin", aggregate.Encode());

  ScatterRequest select = BaseScatter();
  select.kind = ScatterRequest::Kind::kSelectIds;
  ok &= WriteFile(dir, "scatter_select.bin", select.Encode());

  ScatterRequest warm = BaseScatter();
  warm.kind = ScatterRequest::Kind::kWarm;
  ok &= WriteFile(dir, "scatter_warm.bin", warm.Encode());

  ScatterRequest reference = BaseScatter();
  reference.has_cells = false;  // Cache-reference request: no cell payload.
  reference.cells.clear();
  ok &= WriteFile(dir, "scatter_reference.bin", reference.Encode());

  GatherPartial gather_aggregate;
  gather_aggregate.kind = ScatterRequest::Kind::kAggregateCells;
  gather_aggregate.epoch = 9;  // Serving epoch rides every partial (v5).
  gather_aggregate.aggregate.count = 128.0;
  gather_aggregate.aggregate.sum = 3.25;
  gather_aggregate.aggregate.sum_comp = -1e-17;
  gather_aggregate.aggregate.boundary_count = 16.0;
  gather_aggregate.aggregate.boundary_sum = 0.5;
  gather_aggregate.aggregate.query_cells = 4;
  gather_aggregate.aggregate.searches = 4;
  ok &= WriteFile(dir, "gather_aggregate.bin", gather_aggregate.Encode());

  GatherPartial gather_select;
  gather_select.kind = ScatterRequest::Kind::kSelectIds;
  gather_select.probe_cells = 4;
  gather_select.keyed_ids = {{100, 1}, {200, 2}, {300, 3}};
  ok &= WriteFile(dir, "gather_select.bin", gather_select.Encode());

  const GatherPartial gather_error = GatherPartial::FromStatus(
      ScatterRequest::Kind::kAggregateCells,
      GatherPartial::Disposition::kError,
      dbsa::Status::InvalidArgument("corpus seed error partial"));
  ok &= WriteFile(dir, "gather_error.bin", gather_error.Encode());

  const GatherPartial gather_not_cached = GatherPartial::FromStatus(
      ScatterRequest::Kind::kSelectIds, GatherPartial::Disposition::kNotCached,
      dbsa::Status::NotFound("slice not cached"));
  ok &= WriteFile(dir, "gather_not_cached.bin", gather_not_cached.Encode());

  ok &= WriteFile(dir, "stats_request.bin", StatsRequest().Encode());

  StatsReply stats_reply;
  stats_reply.text = "# TYPE dbsa_queries_total counter\ndbsa_queries_total 1\n";
  ok &= WriteFile(dir, "stats_reply.bin", stats_reply.Encode());

  // A wave to one shard: an inline aggregate entry and a reference one.
  ScatterBatch scatter_batch;
  scatter_batch.requests = {aggregate, reference};
  ok &= WriteFile(dir, "scatter_batch.bin", scatter_batch.Encode());

  // Its answer: an aggregate partial and a not-cached one.
  GatherPartial batched_not_cached = GatherPartial::FromStatus(
      ScatterRequest::Kind::kAggregateCells, GatherPartial::Disposition::kNotCached,
      dbsa::Status::NotFound("slice not cached"));
  batched_not_cached.epoch = 9;
  GatherBatch gather_batch;
  gather_batch.partials = {gather_aggregate, batched_not_cached};
  ok &= WriteFile(dir, "gather_batch.bin", gather_batch.Encode());

  return ok ? 0 : 1;
}
