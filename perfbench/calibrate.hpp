// Host-speed calibration for the end-to-end metrics.
//
// The benchmark runs on shared hosts whose speed drifts by a third or more
// over minutes (other tenants' load moves every core's clock together), so
// the same code's wall times differ run to run far more than any bound a
// regression check could use. calibration_loop_s() times a fixed loop that
// shares nothing with the simulator: a 64-entry binary heap of timestamped
// events and a 4 KiB counter table, all L1-resident, so its time follows
// the host's clock and not the library. It is built as its own target
// (CMakeLists.txt) so no compile option of the library reaches it.
#pragma once

namespace perfbench {

// Wall seconds of one pass of the fixed loop (about 30 ms at 2-3 GHz).
double calibration_loop_s();

// The loop's wall time that defines nominal host speed: a time measured
// while the loop took c seconds is reported as time * kNominalLoopS / c.
inline constexpr double kNominalLoopS = 0.030;

}  // namespace perfbench
