// Query workload generator: level-of-detail zoom sequences (the Uber
// Movement exploration pattern from the paper's introduction).

#ifndef DBSA_DATA_WORKLOAD_H_
#define DBSA_DATA_WORKLOAD_H_

#include <vector>

#include "data/dataset.h"

namespace dbsa::data {

/// One step of a level-of-detail exploration: a viewport plus the
/// distance bound a visualization of that viewport needs (pixel-accurate
/// at the given screen resolution).
struct ZoomStep {
  geom::Box viewport;
  double epsilon;  ///< Viewport extent / screen pixels * sqrt(2).
};

/// A zoom-in sequence: starts at the full universe, halves the viewport
/// towards `focus` each step. Epsilon follows the viewport size (overview
/// queries tolerate coarse bounds; detail views need tight ones).
std::vector<ZoomStep> MakeZoomSequence(const geom::Box& universe,
                                       const geom::Point& focus, int steps,
                                       int screen_pixels = 1024);

}  // namespace dbsa::data

#endif  // DBSA_DATA_WORKLOAD_H_
