function(sparsedet_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
  set_target_properties(${name} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
  target_link_libraries(${name} PRIVATE
    sparsedet_detect sparsedet_net sparsedet_sim sparsedet_core
    sparsedet_markov sparsedet_linalg sparsedet_prob sparsedet_geometry
    sparsedet_common sparsedet_options)
endfunction()

sparsedet_bench(bench_fig8_required_g)
sparsedet_bench(bench_fig9a_straight_line)
sparsedet_bench(bench_fig9b_unnormalized)
sparsedet_bench(bench_fig9c_random_walk)
sparsedet_bench(bench_tapproach_states)
sparsedet_bench(bench_m1_preliminary)
sparsedet_bench(bench_knode_extension)
sparsedet_bench(bench_false_alarms)
sparsedet_bench(bench_net_delivery)
sparsedet_bench(bench_ablation_normalization)
sparsedet_bench(bench_ablation_boundary)
sparsedet_bench(bench_ablation_reliability)
sparsedet_bench(bench_varying_speed)
sparsedet_bench(bench_ablation_deployment)
sparsedet_bench(bench_latency)
sparsedet_bench(bench_dwell_sensing)
sparsedet_bench(bench_transport)
sparsedet_bench(bench_multi_target)
sparsedet_bench(bench_duty_cycle)
sparsedet_bench(bench_sensitivity)
sparsedet_bench(bench_sliding_window)
sparsedet_bench(bench_track_estimation)
sparsedet_bench(bench_energy_frontier)
sparsedet_bench(bench_mac_latency)
sparsedet_bench(bench_roc_comparison)
sparsedet_bench(bench_coverage_breach)
target_link_libraries(bench_coverage_breach PRIVATE sparsedet_coverage)

sparsedet_bench(bench_timing_s_vs_ms)
target_link_libraries(bench_timing_s_vs_ms PRIVATE benchmark::benchmark)
sparsedet_bench(bench_micro_perf)
target_link_libraries(bench_micro_perf PRIVATE benchmark::benchmark
                                               sparsedet_engine)

sparsedet_bench(bench_engine_batch)
target_link_libraries(bench_engine_batch PRIVATE sparsedet_engine)

sparsedet_bench(bench_net_serve)
target_link_libraries(bench_net_serve PRIVATE sparsedet_server
                                              sparsedet_engine)

sparsedet_bench(bench_optimize)
target_link_libraries(bench_optimize PRIVATE sparsedet_opt
                                             sparsedet_engine)

sparsedet_bench(bench_adapt)
target_link_libraries(bench_adapt PRIVATE sparsedet_adapt
                                          sparsedet_engine)
