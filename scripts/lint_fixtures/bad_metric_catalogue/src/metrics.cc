// Metric-catalogue fixture: the families this file registers are checked
// against ../docs/operations.md, whose catalogue lists
// dbsa_fixture_cache_misses_total (registered nowhere) and has no row for
// dbsa_fixture_uncatalogued_total. The gate must name exactly those two.
#include <string>

void Register(Registry* registry, size_t shard) {
  registry->GetCounter("dbsa_fixture_queries_total{kind=\"count\"}");
  registry->GetCounter("dbsa_fixture_cache_hits_total");
  registry->GetCounter(std::string("dbsa_fixture_shard_requests_total") +
                       "{shard=\"" + std::to_string(shard) + "\"}");
  registry->GetCounter("dbsa_fixture_uncatalogued_total");
}
