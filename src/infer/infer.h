#pragma once

// Umbrella header for the hs::infer frozen-inference subsystem.
//
//   * freeze.h    — compile a trained/pruned model into a flat op list
//                   with BatchNorm folded into conv weights and ReLU/bias
//                   fused
//   * quantize.h  — post-training int8 quantization of a frozen plan
//                   (per-channel weight scales, calibrated activation
//                   scales)
//   * tuner.h     — freeze-time kernel autotuner: times the applicable
//                   int8 GEMM kernel/tiling/batch-stacking candidates per
//                   shape and commits the winner into FrozenOp::tactic
//   * engine.h    — execute a FrozenModel (fp32 or int8) with a
//                   pre-planned arena (zero hot-path allocations)
//   * serving.h   — thread-pool runtime with dynamic micro-batching and
//                   bounded-queue backpressure, hosting either precision
//   * registry.h  — versioned multi-model registry with the hot-reload
//                   validation gauntlet (CRC, canary, rollback)
//   * frozen_io.h — ship a compiled plan (HSWT v5 container)
//                   to a serving host that never builds the live graph
//
// Typical deployment path: train/prune -> save_parameters -> (new process)
// load_parameters -> freeze -> [quantize] -> [save_frozen/load_frozen] ->
// Engine or ServingEngine. See DESIGN.md §8 and §10.

#include "infer/engine.h"
#include "infer/freeze.h"
#include "infer/frozen_io.h"
#include "infer/quantize.h"
#include "infer/registry.h"
#include "infer/serving.h"
#include "infer/tuner.h"
