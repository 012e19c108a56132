#pragma once
// Batched channel-only reconstruction for the fatigue hot path. The per-step
// pipeline used to rebuild the full dense mid-plane stress field only to
// reduce it to three per-block channel peaks; here the whole recorded panel
// reduces at once. Per block, the step solutions gather into one
// (n + 1) x num_steps coefficient matrix K (basis dofs plus the thermal
// column), each sample point's stored basis rows multiply K as a small dense
// product, and the pointwise channel values reduce to per-block peaks — the
// model's sample matrices stream through memory once per block instead of
// once per (block, step). Both this and rom::reconstruct_* multiply through
// la::rows_times_cols, so the per-entry summation order is the same and the
// result locks to the full-field path at rounding level (see
// tests/reliability/test_channel_extract.cpp).

#include <vector>

#include "reliability/stress_history.hpp"
#include "rom/reconstruct.hpp"

namespace ms::reliability {

/// Reduce a panel of global-stage solutions (one per recorded step, with the
/// matching per-block thermal loads) to per-step per-block channel peaks
/// over `range`, writing into `history` (already sized to range.width() x
/// range.height() blocks and solutions.size() steps). Von Mises and first
/// principal reduce from the mid-plane samples, bump shear from the
/// bump-plane tractions. Blocks are processed in parallel; every
/// (step, channel, block) slot is written exactly once.
void extract_channel_history(const rom::BlockGrid& grid, const rom::RomModel& tsv_model,
                             const rom::RomModel* dummy_model, const rom::BlockMask& mask,
                             const std::vector<rom::Vec>& solutions,
                             const std::vector<rom::BlockLoadField>& loads,
                             const rom::BlockRange& range, StressHistory& history);

}  // namespace ms::reliability
