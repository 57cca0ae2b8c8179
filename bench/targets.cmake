# Benchmark harness: one binary per paper table/figure, plus the ablation,
# gate and hot-path binaries. All binaries land in ${CMAKE_BINARY_DIR}/bench.

add_library(motune_bench_common STATIC
  ${CMAKE_SOURCE_DIR}/bench/common.cpp)
target_link_libraries(motune_bench_common PUBLIC motune)
target_include_directories(motune_bench_common PUBLIC ${CMAKE_SOURCE_DIR})

function(motune_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE motune_bench_common)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

motune_bench(bench_table1)
motune_bench(bench_fig1)
motune_bench(bench_fig2)
motune_bench(bench_table2)
motune_bench(bench_table3)
motune_bench(bench_fig8)
motune_bench(bench_fig9)
motune_bench(bench_table4)
motune_bench(bench_table5)
motune_bench(bench_table6)
# Surrogate ablation gate: per-generation evaluations-to-target-hypervolume
# curves for plain vs surrogate-culled RS-GDE3 (plus the keep=1.0 identity
# check), gated against bench/baselines/ablation_baseline.json; --full 1
# runs the ungated algorithm-variant study instead.
motune_bench(bench_ablation)
# CI smoke gate: emits metrics.json and diffs it against
# bench/baselines/smoke_baseline.json (see .github/workflows/ci.yml).
motune_bench(bench_smoke)
# Self-timed hot-path throughput suite; emits BENCH_hotpath.json and gates
# against bench/baselines/hotpath_baseline.json (conservative floors).
motune_bench(bench_hotpath)
# Adaptive-selection gate: deterministic per-scenario convergence ratios
# (tight machine-independent floors) plus replay throughput, gated against
# bench/baselines/adaptive_baseline.json.
motune_bench(bench_adaptive)
# Daemon load harness: boots an in-process `motune serve`, pushes a burst of
# small jobs, reports submit throughput and p50/p99 job latency, and gates
# against bench/baselines/serve_baseline.json (floors for rates, ceilings
# for latencies).
motune_bench(bench_serve)
