// lvish-analyze-fixture-path: src/core/retired_flag_clean.cpp
//
// What replaced the retired build switches: the run-time plan probe and
// the surviving configuration names. None of these may trip the
// retired-build-flag rule - in particular LVISH_FAULTS_VALUE,
// LVISH_CHECK_SAMPLE and LVISH_LOCKED_DEQUE are distinct identifier
// tokens. Scanned, never compiled.

#if LVISH_LOCKED_DEQUE
#endif

namespace lvish {

void putPath(Task *T) {
  if (fault::planActive()) [[unlikely]]
    fault::injectPoint(fault::Point::Put, T);
  int Unused = LVISH_FAULTS_VALUE;
  (void)Unused;
  unsigned Period = LVISH_CHECK_SAMPLE;
  (void)Period;
}

} // namespace lvish
