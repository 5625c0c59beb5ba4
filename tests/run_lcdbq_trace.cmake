# End-to-end check of `lcdbq --trace=out.json`: runs a traced, governed
# query, then asserts the trace file is a well-formed Chrome trace-event
# JSON object with the expected spans. Invoked by the LcdbqTrace ctests
# (examples/CMakeLists.txt) with -DLCDBQ=... -DDB=... -DTRACE=... and an
# optional -DEXTRA_ARG=... (LcdbqTraceSampled passes --sample-rate=1: a
# sampled query must still record into the --trace tracer).
execute_process(
  COMMAND ${LCDBQ} ${DB} --conn --stats --timeout 60000 --trace=${TRACE}
          ${EXTRA_ARG}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "lcdbq exited with ${rc}\n${out}\n${err}")
endif()
if(NOT out MATCHES "true")
  message(FATAL_ERROR "conn query over the comb should answer true:\n${out}")
endif()
if(NOT err MATCHES "# metrics: {")
  message(FATAL_ERROR "--stats should print the flat metrics JSON:\n${err}")
endif()

if(NOT EXISTS ${TRACE})
  message(FATAL_ERROR "--trace did not create ${TRACE}")
endif()
file(READ ${TRACE} trace)
string(LENGTH "${trace}" trace_len)
if(trace_len LESS 100)
  message(FATAL_ERROR "trace file implausibly small (${trace_len} bytes)")
endif()
# Chrome trace-event JSON-object flavour, as Perfetto loads it.
if(NOT trace MATCHES "^{\"traceEvents\":\\[")
  message(FATAL_ERROR "trace is not a traceEvents object:\n${trace}")
endif()
if(NOT trace MATCHES "\"displayTimeUnit\":\"ns\"")
  message(FATAL_ERROR "trace lacks displayTimeUnit")
endif()
# The spans the run must have produced: construction, evaluation, fixpoint.
foreach(span extension.build arrangement.build evaluate fixpoint.stage)
  if(NOT trace MATCHES "\"name\":\"${span}\"")
    message(FATAL_ERROR "trace lacks the ${span} span:\n${trace}")
  endif()
endforeach()
# The query ran once: exactly one evaluate span.
string(REGEX MATCHALL "\"name\":\"evaluate\"" evaluate_spans "${trace}")
list(LENGTH evaluate_spans evaluate_count)
if(NOT evaluate_count EQUAL 1)
  message(FATAL_ERROR "expected 1 evaluate span, got ${evaluate_count}")
endif()
# The arrangement build decides its splits from closure generators and the
# region query needs no oracle, so the whole run solves no LP. The build
# span reports its own cost counters instead.
string(REGEX MATCHALL "\"name\":\"lp.solve\"" lp_spans "${trace}")
list(LENGTH lp_spans lp_count)
if(NOT lp_count EQUAL 0)
  message(FATAL_ERROR "expected 0 lp.solve spans, got ${lp_count}")
endif()
if(NOT trace MATCHES
   "\"name\":\"arrangement.build\"[^}]*\"splits\":[0-9]+,\"generators\":[0-9]+")
  message(FATAL_ERROR "arrangement.build lacks splits/generators counters")
endif()
# Every event is a complete event with the mandatory fields.
if(NOT trace MATCHES "\"cat\":\"lcdb\",\"ph\":\"X\"")
  message(FATAL_ERROR "trace lacks complete (ph=X) events")
endif()
message("lcdbq trace OK: ${trace_len} bytes at ${TRACE}")
