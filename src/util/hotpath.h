// Hot-path annotations for the hotlint static analyzer (tools/detlint).
//
// `INBAND_HOT` marks a function as a hot root: hotlint walks the
// approximate call graph from every definition (and declaration) carrying
// the marker and flags allocation, growth, string, throw, I/O, blocking and
// shard-safety hazards in everything reachable. The macro expands to
// nothing — it exists purely as a token for the analyzer, placed before the
// return type:
//
//   INBAND_HOT bool transmit(PacketRef pkt, PacketSink& dst);
//
// `INBAND_COLD_OK(reason)` marks the rest of the enclosing brace block as a
// justified cold region: hot-path findings inside it are waived with
// `reason`, and hotlint stops traversing call edges that originate there.
// Shard-safety findings are NOT waived by a cold region — code in a cold
// branch still runs inside the simulation, so mutable shared state there
// still blocks per-shard parallelism; waive those with an explicit hotlint
// waiver comment naming the shard rule (see tools/detlint/README.md). The
// reason string is mandatory; an empty or missing reason is itself a
// finding.
//
//   if (freelist_.empty()) {
//     INBAND_COLD_OK("pool warming: heap touched only until steady state");
//     return static_cast<T*>(::operator new(bytes));
//   }
//
// See DESIGN.md §9 for the full taxonomy and tools/detlint/README.md for
// the rule table.
#pragma once

#define INBAND_HOT
#define INBAND_COLD_OK(reason) \
  do {                         \
  } while (false)
