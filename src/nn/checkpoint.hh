/**
 * @file
 * Trainer-state <-> Checkpoint section mapping.
 *
 * The shared epoch loop (nn/epoch_loop.hh) persists the same core
 * state for all three engines: parameter values, Adam moments + step
 * count, the dropout RNG stream position, and the metric trajectories
 * accumulated so far. Engines add their own sections beside these
 * (SampledTrainer: "counters"; ShardedTrainer: "rng.rank<r>"). This
 * file centralises the section naming so a checkpoint written by any
 * engine is legible to the tools (maxk-faults) and the tests.
 *
 * Sections:
 *   "param.count"  u64   parameter-tensor count (validation)
 *   "param.shape"  u64[] rows,cols per parameter (validation)
 *   "param.<i>"    matrix
 *   "adam.m.<i>"   matrix  first moments
 *   "adam.v.<i>"   matrix  second moments
 *   "adam.t"       u64     bias-correction step count
 *   "rng.drop"     u64[4]  dropout stream position
 *   "epoch"        u64     last completed epoch (written by the loop)
 *   "traj.*"       metric trajectories up to the checkpointed epoch
 *
 * Restoring all of the above at an end-of-epoch boundary makes the
 * resumed run bitwise-equal to the uninterrupted one: the parameters,
 * optimizer state, and every RNG stream continue exactly where the
 * checkpointed run left them. Restores are all or nothing: every
 * section is checked for presence and shape before any is decoded.
 */

#ifndef MAXK_NN_CHECKPOINT_HH
#define MAXK_NN_CHECKPOINT_HH

#include "graph/formats/checkpoint.hh"
#include "nn/epoch_loop.hh"
#include "nn/model.hh"
#include "nn/optimizer.hh"

namespace maxk::nn
{

/** Write params + Adam state + dropout RNG position into `ck`.
 *  Section buffers are reused across calls (alloc-free once warm). */
void writeModelState(formats::Checkpoint &ck, GnnModel &model,
                     const Adam &adam);

/** Check that `ck` holds a complete model state for `model`: every
 *  section present, with the shapes `model` was built with. Changes
 *  nothing; typed error naming the first bad section. */
Expected<std::monostate, IoError>
checkModelState(const formats::Checkpoint &ck, GnnModel &model);

/** Restore params + Adam state + dropout RNG position from `ck`, all
 *  or nothing: checkModelState first, then decode in place. */
Expected<std::monostate, IoError>
readModelState(const formats::Checkpoint &ck, GnnModel &model,
               Adam &adam);

/** Persist the metric trajectories of `r` ("traj.*" sections). */
void writeTrajectories(formats::Checkpoint &ck, const TrainResult &r);

/** Restore the trajectories into `r`'s trajectory fields; `r` is left
 *  untouched when a section is missing or malformed. */
Expected<std::monostate, IoError>
readTrajectories(const formats::Checkpoint &ck, TrainResult &r);

} // namespace maxk::nn

#endif // MAXK_NN_CHECKPOINT_HH
