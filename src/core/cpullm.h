#ifndef CPULLM_CORE_CPULLM_H
#define CPULLM_CORE_CPULLM_H

/**
 * @file
 * Convenience umbrella header: the public API of the cpullm
 * framework. Examples and downstream users can include just this.
 *
 * Layer map (bottom-up):
 *  - isa/gemm:   functional Intel AMX & AVX-512 emulation + GEMMs
 *  - hw/mem:     hardware descriptions and the NUMA memory model
 *  - model/kv:   LLM architectures, functional transformer, KV cache
 *  - perf/gpu:   analytical CPU and GPU(+offload) timing models
 *  - engine:     the CPU inference engine (functional + timing)
 *  - core:       paper-figure experiment harness and key findings
 */

#include "core/bench_suite.h"
#include "core/experiments.h"
#include "core/figure.h"
#include "core/key_findings.h"
#include "core/runtime_options.h"
#include "engine/inference_engine.h"
#include "gemm/gemm.h"
#include "gpu/gpu_attribution.h"
#include "gpu/gpu_model.h"
#include "hw/platform.h"
#include "isa/amx.h"
#include "isa/avx512.h"
#include "kv/kv_cache.h"
#include "mem/memory_system.h"
#include "model/layers.h"
#include "model/spec.h"
#include "model/transformer.h"
#include "obs/attribution.h"
#include "obs/counters.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/run_report.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "opt/hybrid.h"
#include "opt/numa_placement.h"
#include "perf/cpu_model.h"
#include "perf/workload.h"
#include "serve/host_stats.h"
#include "serve/serving_sim.h"
#include "serve/telemetry.h"
#include "stats/stats.h"
#include "trace/timeline.h"
#include "util/http_server.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/units.h"

#endif // CPULLM_CORE_CPULLM_H
