// Minimal WKT (Well-Known Text) reader for POLYGON — how the examples
// spell their query polygons.

#ifndef DBSA_GEOM_WKT_H_
#define DBSA_GEOM_WKT_H_

#include <string>

#include "geom/polygon.h"
#include "util/status.h"

namespace dbsa::geom {

/// Parses "POLYGON ((x y, ...), (hole...))".
StatusOr<Polygon> ParseWktPolygon(const std::string& wkt);

}  // namespace dbsa::geom

#endif  // DBSA_GEOM_WKT_H_
