# Drives the pcetool example through the CLI path to the stock BD
# decoder: write a small binary PPM, `encode --bd-only` it, `decode`
# the stream, print `info`, and require the decoded PPM to be
# byte-identical to the input (plain BD is lossless).
#
# Usage: cmake -DPCETOOL=<path to example_pcetool> -P pcetool_roundtrip.cmake
# Files are written to the current working directory.
if(NOT PCETOOL)
  message(FATAL_ERROR "pass -DPCETOOL=<path to example_pcetool>")
endif()

# An 8x6 P6 image whose pixel bytes are all printable, so file(WRITE)
# writes them verbatim.
set(pixels "")
foreach(i RANGE 143)
  math(EXPR code "33 + (${i} * 37) % 94")
  string(ASCII ${code} ch)
  string(APPEND pixels "${ch}")
endforeach()
file(WRITE roundtrip_in.ppm "P6\n8 6\n255\n${pixels}")

function(run_pcetool)
  execute_process(COMMAND ${PCETOOL} ${ARGN} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    list(JOIN ARGN " " args)
    message(FATAL_ERROR "pcetool ${args} exited with ${rc}")
  endif()
endfunction()

file(REMOVE roundtrip.pce roundtrip_out.ppm)
run_pcetool(encode roundtrip_in.ppm roundtrip.pce --bd-only)
run_pcetool(decode roundtrip.pce roundtrip_out.ppm)
run_pcetool(info roundtrip.pce)

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        roundtrip_in.ppm roundtrip_out.ppm
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "decoded PPM differs from the input")
endif()
