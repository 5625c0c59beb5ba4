# Usage errors of lcdbq: the explain modes run one plain evaluation outside
# the retrying QuerySession, so combining them with --retries or
# --postmortem must exit 1 and name both flags instead of silently
# ignoring the session flag. Invoked by the LcdbqExplainRejectsSessionFlags
# ctest (examples/CMakeLists.txt) with -DLCDBQ=... -DDB=... -DPM_DIR=...
foreach(combo "--explain-analyze;--retries;2"
              "--explain;--postmortem=${PM_DIR}"
              "--explain-bytecode;--retries;1")
  list(GET combo 0 explain_flag)
  list(GET combo 1 session_arg)
  string(REGEX REPLACE "=.*" "" session_flag "${session_arg}")
  execute_process(
    COMMAND ${LCDBQ} ${DB} --conn ${combo}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR
            "lcdbq ${combo}: expected exit 1, got ${rc}\n${out}\n${err}")
  endif()
  foreach(flag ${explain_flag} ${session_flag})
    string(FIND "${err}" "${flag}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "lcdbq ${combo}: stderr does not name ${flag}:\n${err}")
    endif()
  endforeach()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "lcdbq ${combo}: a usage error prints no plan:\n${out}")
  endif()
endforeach()
message("lcdbq explain/session usage errors OK")
