# serve_smoke driver: two remedy_serve lifetimes against one state dir.
# Run 1 seeds + ingests and dies via --kill-after WITHOUT checkpointing;
# run 2 must recover by replaying the WAL, finish healthy, and write a
# trace showing the daemon's per-epoch spans. Invoked by
# ctest as  cmake -DSERVE=<bin> -DSTATE_DIR=<dir> -P serve_smoke.cmake

file(REMOVE_RECURSE ${STATE_DIR})

execute_process(
  COMMAND ${SERVE} @adult:2000 --state-dir ${STATE_DIR}
          --seed --demo 5 --kill-after 3
  RESULT_VARIABLE rc1)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "serve_smoke: first (killed) lifetime exited ${rc1}")
endif()

if(NOT EXISTS ${STATE_DIR}/deltas.wal)
  message(FATAL_ERROR "serve_smoke: killed lifetime left no WAL behind")
endif()

execute_process(
  COMMAND ${SERVE} @adult:2000 --state-dir ${STATE_DIR}
          --demo 2 --health-out ${STATE_DIR}/health.json
          --trace-out ${STATE_DIR}/trace.json
  RESULT_VARIABLE rc2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "serve_smoke: recovery lifetime exited ${rc2}")
endif()

file(READ ${STATE_DIR}/health.json health)
if(NOT health MATCHES "\"needs_recovery\":false")
  message(FATAL_ERROR "serve_smoke: recovered daemon still needs recovery")
endif()
if(NOT health MATCHES "\"status\":\"serving\"")
  message(FATAL_ERROR "serve_smoke: recovered daemon is not serving")
endif()

# The trace must show where each epoch's time went.
file(READ ${STATE_DIR}/trace.json trace)
foreach(span serve/commit serve/apply serve/publish serve/identify)
  if(NOT trace MATCHES "\"${span}\"")
    message(FATAL_ERROR "serve_smoke: trace lacks the ${span} span")
  endif()
endforeach()
