# Threads-backend reductions and a colored MiniHydra run are bitwise
# identical across team sizes:
#
#   cmake -DPROBE=<team_reduction_bits exe> -P team_bits.cmake
#
# Runs the probe under OPAL_NUM_THREADS=1, 2 and 4, checks that each run
# really had that many team members (its stderr) and printed the MiniHydra
# solution, and fails unless every run printed the same bits as the team
# of 1.
foreach(team 1 2 4)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env OPAL_NUM_THREADS=${team}
                          "${PROBE}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "team ${team}: exit ${rc}\nstderr: ${err}")
  endif()
  if(NOT err MATCHES "team ${team}\n")
    message(FATAL_ERROR "team ${team}: the pool did not take the team "
                        "size\nstderr: ${err}")
  endif()
  if(NOT out MATCHES "hydra solution [0-9]+ values digest [0-9a-f]+\n")
    message(FATAL_ERROR "team ${team}: printed no MiniHydra solution")
  endif()
  if(team EQUAL 1)
    set(want "${out}")
  elseif(NOT out STREQUAL want)
    message(FATAL_ERROR "team ${team} reduction bits differ from the team "
                        "of 1\nteam 1:\n${want}\nteam ${team}:\n${out}")
  endif()
endforeach()
