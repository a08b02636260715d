#include "geom/wkt.h"

#include <cctype>
#include <cstdlib>

namespace dbsa::geom {

namespace {

// Simple recursive-descent scanner over the WKT text.
class Scanner {
 public:
  explicit Scanner(const std::string& text) : s_(text) {}

  void SkipSpace() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool ConsumeKeyword(const char* kw) {
    SkipSpace();
    size_t p = pos_;
    for (const char* c = kw; *c; ++c, ++p) {
      if (p >= s_.size() || std::toupper(static_cast<unsigned char>(s_[p])) != *c) {
        return false;
      }
    }
    pos_ = p;
    return true;
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseDouble(double* out) {
    SkipSpace();
    const char* start = s_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) return false;
    pos_ += static_cast<size_t>(end - start);
    *out = v;
    return true;
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= s_.size();
  }

 private:
  const std::string& s_;
  size_t pos_ = 0;
};

Status ParseCoord(Scanner* sc, Point* out) {
  if (!sc->ParseDouble(&out->x)) return Status::InvalidArgument("expected x coordinate");
  if (!sc->ParseDouble(&out->y)) return Status::InvalidArgument("expected y coordinate");
  return Status::OK();
}

Status ParseRing(Scanner* sc, Ring* out) {
  if (!sc->Consume('(')) return Status::InvalidArgument("expected '(' starting ring");
  out->clear();
  do {
    Point p;
    Status st = ParseCoord(sc, &p);
    if (!st.ok()) return st;
    out->push_back(p);
  } while (sc->Consume(','));
  if (!sc->Consume(')')) return Status::InvalidArgument("expected ')' ending ring");
  // WKT repeats the first vertex at the end; drop the duplicate.
  if (out->size() >= 2 && out->front() == out->back()) out->pop_back();
  if (out->size() < 3) return Status::InvalidArgument("ring needs >= 3 vertices");
  return Status::OK();
}

Status ParsePolygonBody(Scanner* sc, Polygon* out) {
  if (!sc->Consume('(')) return Status::InvalidArgument("expected '(' starting polygon");
  Ring outer;
  Status st = ParseRing(sc, &outer);
  if (!st.ok()) return st;
  std::vector<Ring> holes;
  while (sc->Consume(',')) {
    Ring h;
    st = ParseRing(sc, &h);
    if (!st.ok()) return st;
    holes.push_back(std::move(h));
  }
  if (!sc->Consume(')')) return Status::InvalidArgument("expected ')' ending polygon");
  *out = Polygon(std::move(outer), std::move(holes));
  out->Normalize();
  return Status::OK();
}

}  // namespace

StatusOr<Polygon> ParseWktPolygon(const std::string& wkt) {
  Scanner sc(wkt);
  if (!sc.ConsumeKeyword("POLYGON")) return Status::InvalidArgument("expected POLYGON");
  Polygon poly;
  Status st = ParsePolygonBody(&sc, &poly);
  if (!st.ok()) return st;
  if (!sc.AtEnd()) return Status::InvalidArgument("trailing characters after POLYGON");
  return poly;
}

}  // namespace dbsa::geom
