#include "join/agg.h"

namespace dbsa::join {

double Accumulator::Result(AggKind kind) const {
  switch (kind) {
    case AggKind::kCount:
      return count;
    case AggKind::kSum:
      return sum;
    case AggKind::kAvg:
      return count > 0 ? sum / count : 0.0;
    case AggKind::kMin:
      return count > 0 ? min : 0.0;
    case AggKind::kMax:
      return count > 0 ? max : 0.0;
  }
  return 0.0;
}

std::vector<double> Finalize(const std::vector<Accumulator>& accs, AggKind kind) {
  std::vector<double> out;
  out.reserve(accs.size());
  for (const Accumulator& a : accs) out.push_back(a.Result(kind));
  return out;
}

}  // namespace dbsa::join
