// lvish-analyze-fixture-path: src/core/retired_flag_violation.cpp
//
// Seeded violations of the retired-build-flag rule: the fault-injection
// build switch, its constexpr mirror, and the stderr trace macros. Fault
// injection is compiled into every build and armed at run time by an
// installed FaultPlan, so each spelling is dead configuration. Scanned,
// never compiled.

#if LVISH_FAULTS // fires: LVISH_FAULTS
#endif

#ifdef LVISH_TRACE_DEBUG // fires: LVISH_TRACE_DEBUG
#define LVISH_TRACE(...) (void)0 // fires: LVISH_TRACE
#endif

namespace lvish {

void putPath(Task *T) {
  if constexpr (fault::InjectionEnabled) // fires: InjectionEnabled
    fault::injectPoint(fault::Point::Put, T);
  LVISH_TRACE2("put task=%p\n", (void *)T); // fires: LVISH_TRACE2
  LVISH_TRACE3(
      "resume\n"); // fires: LVISH_TRACE3
}

} // namespace lvish
