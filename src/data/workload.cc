#include "data/workload.h"

#include <algorithm>
#include <cmath>

namespace dbsa::data {

std::vector<ZoomStep> MakeZoomSequence(const geom::Box& universe,
                                       const geom::Point& focus, int steps,
                                       int screen_pixels) {
  std::vector<ZoomStep> out;
  geom::Box view = universe;
  for (int s = 0; s < steps; ++s) {
    ZoomStep step;
    step.viewport = view;
    step.epsilon = std::max(view.Width(), view.Height()) /
                   static_cast<double>(screen_pixels) * 1.4142135623730951;
    out.push_back(step);
    // Halve towards the focus, clamped inside the universe.
    const double w = view.Width() * 0.5;
    const double h = view.Height() * 0.5;
    double x0 = std::clamp(focus.x - w * 0.5, universe.min.x, universe.max.x - w);
    double y0 = std::clamp(focus.y - h * 0.5, universe.min.y, universe.max.y - h);
    view = geom::Box(x0, y0, x0 + w, y0 + h);
  }
  return out;
}

}  // namespace dbsa::data
