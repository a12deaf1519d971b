# Build file of the benchmark's layer tracer. It is not part of the
# repository's own build: perfbench/run.py configures the repository with
# -DCMAKE_PROJECT_INCLUDE=<this file>, which runs after the repository's
# project() call and defers adding the tracer to the end of the top-level
# CMakeLists.txt, when every library target it links is defined.
include_guard(GLOBAL)
set(PERFBENCH_TRACE_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(perfbench_add_layer_tracer)
  add_executable(perfbench-trace "${PERFBENCH_TRACE_DIR}/layer_trace.cpp")
  target_link_libraries(perfbench-trace PRIVATE
    obscorr_svc obscorr_analysis obscorr_archive obscorr_core obscorr_honeyfarm
    obscorr_telescope obscorr_netgen obscorr_stats obscorr_crypt obscorr_d4m obscorr_gbl
    obscorr_obs obscorr_common)
endfunction()

cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}" CALL perfbench_add_layer_tracer)
