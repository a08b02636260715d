// Canvas operators of Section 4 (after Doraiswamy & Freire's GPU-friendly
// geometric data model): the affine transform and the reduces that end
// an aggregation.

#ifndef DBSA_CANVAS_OPS_H_
#define DBSA_CANVAS_OPS_H_

#include "canvas/canvas.h"

namespace dbsa::canvas {

/// Affine transform: resamples src into a canvas with the given viewport
/// and dimensions (nearest-neighbour, as GPU texture fetch would).
Canvas AffineResample(const Canvas& src, int width, int height,
                      const geom::Box& viewport);

/// Channel-wise sums over all pixels (the final aggregation reduce).
Rgba Reduce(const Canvas& c);

/// Channel-wise sums over pixels where the stencil's alpha is > 0 — the
/// fused mask-then-reduce used by joins.
Rgba ReduceWhere(const Canvas& values, const Canvas& stencil);

}  // namespace dbsa::canvas

#endif  // DBSA_CANVAS_OPS_H_
