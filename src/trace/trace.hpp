// Barrier-lifecycle event tracer: a fixed-capacity ring buffer the
// simulator emits into at each pipeline stage.
//
// Design constraints (ISSUE 1 / paper §2.3):
//  * Zero cost when absent: the simulator holds a `Tracer*` that is null by
//    default, and every hook site is wrapped in ARMBAR_TRACE(...) which
//    compiles to nothing when ARMBAR_TRACE_DISABLED is defined. With the
//    pointer null the per-event cost is one predictable branch.
//  * Zero timing impact when present: the tracer only records; it never
//    feeds back into the simulation, so cycle counts are bit-identical with
//    tracing on or off.
//  * Bounded memory: events land in a ring of fixed capacity; wraparound
//    overwrites the oldest events and counts them in dropped(). Metrics
//    (histograms/counters) are fed on every event regardless of wraparound,
//    so the quantitative view never loses samples.
//
// The event vocabulary covers the barrier lifetime the paper dissects:
// issue-queue blocking (kStall with a StallCause code), store-buffer
// enqueue/drain, the ACE barrier transaction round trip (kBarrierTxn), and
// cache-line ownership traffic (kCohTransfer / kLineTransition).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "trace/metrics.hpp"

namespace armbar::trace {

#if defined(ARMBAR_TRACE_DISABLED)
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

/// Wrap every instrumentation site in the simulator:
///   ARMBAR_TRACE(tracer_, instr_issue(id_, pc_, op));
/// Compiles to nothing when tracing is compiled out; otherwise a null check.
#if defined(ARMBAR_TRACE_DISABLED)
// Arguments stay type-checked (so instrumented code can't rot) but the
// branch is constant-false and the whole call is dead-stripped.
#define ARMBAR_TRACE(tracer, call)                 \
  do {                                             \
    if (false && (tracer) != nullptr) (tracer)->call; \
  } while (false)
#else
#define ARMBAR_TRACE(tracer, call)     \
  do {                                 \
    if ((tracer) != nullptr) (tracer)->call; \
  } while (false)
#endif

enum class EventKind : std::uint8_t {
  kInstrIssue,       ///< one instruction left the issue stage (pc, op in detail)
  kStall,            ///< issue blocked [begin,end); detail = StallCause code
  kSquash,           ///< branch mispredict flush at `begin`
  kSbEnqueue,        ///< store entered the store buffer (a = seq, b = addr)
  kSbDrainStart,     ///< drain requested ownership [begin,end); a = seq, b = addr
  kSbDrainRetire,    ///< entry left the buffer; a = seq, b = residency cycles
  kCohTransfer,      ///< coherence transfer [begin,end); detail = CohKind, b = line
  kLineTransition,   ///< line state change; detail packs from/to, a = line
  kBarrierIssue,     ///< barrier reached issue; detail = Op code
  kBarrierTxn,       ///< ACE barrier transaction round trip [begin,end)
  kBarrierComplete,  ///< full barrier block span [begin,end); detail = Op code
  kStoreGateArm,     ///< DMB st armed its store gate
  kStoreGateOpen,    ///< DMB st gate resolved; stores may issue from `begin`
  kCount,
};

const char* to_string(EventKind k);

/// Coherence transfer classification for kCohTransfer events.
enum class CohKind : std::uint8_t {
  kGetSLocal, kGetSRemote,  ///< read transfer, within / across nodes
  kGetMLocal, kGetMRemote,  ///< ownership transfer, within / across nodes
  kUpgrade,                 ///< sole-sharer S->M upgrade
  kMemFill,                 ///< fill straight from memory
  kCount,
};

const char* to_string(CohKind k);

/// Simplified cache-line states for kLineTransition (detail = from<<4 | to).
enum class LineCode : std::uint8_t { kInvalid = 0, kShared = 1, kOwned = 2 };

const char* to_string(LineCode c);

/// One trace record. 48 bytes; `begin == end` marks an instant event.
struct Event {
  Cycle begin = 0;
  Cycle end = 0;
  std::uint64_t a = 0;  ///< kind-specific (seq / line address / span id)
  std::uint64_t b = 0;  ///< kind-specific (addr / latency / residency)
  std::uint32_t pc = 0;
  CoreId core = 0;
  EventKind kind = EventKind::kInstrIssue;
  std::uint8_t detail = 0;  ///< StallCause / Op / CohKind / packed LineCodes
};

/// Standard metric names the tracer feeds (all cycle-valued histograms
/// unless noted). Exposed so benches, tests and exporters agree on spelling.
namespace metric {
inline constexpr const char* kBarrierComplete = "barrier.complete_cycles";
inline constexpr const char* kBarrierTxn = "barrier.txn_cycles";
inline constexpr const char* kStallBarrier = "stall.barrier_cycles";
inline constexpr const char* kSbResidency = "sb.residency_cycles";
inline constexpr const char* kCohTransfer = "coh.transfer_cycles";
inline constexpr const char* kRemoteInv = "coh.remote_inv_cycles";
inline constexpr const char* kInstrs = "count.instructions";    ///< counter
inline constexpr const char* kBarriers = "count.barriers";      ///< counter
inline constexpr const char* kSquashes = "count.squashes";      ///< counter
inline constexpr const char* kStallPrefix = "stall_cycles.";    ///< counter family
}  // namespace metric

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  /// Attach a registry; the tracer feeds it on every event. May be null.
  void set_metrics(MetricsRegistry* m) { metrics_ = m; }
  MetricsRegistry* metrics() const { return metrics_; }

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Install human-readable names for the stall-cause codes the simulator
  /// passes to stall(). Keeps trace/ independent of sim/ while letting
  /// metric keys and exports spell "kBarrier" instead of "3".
  void set_stall_cause_names(std::vector<std::string> names);
  /// Name for a cause code; falls back to the decimal code.
  std::string stall_cause_name(std::uint8_t cause) const;

  std::size_t capacity() const { return ring_.size(); }
  /// Events currently held (<= capacity()).
  std::size_t size() const;
  /// Total events accepted while enabled (including since-overwritten ones).
  std::uint64_t emitted() const { return emitted_; }
  /// Events lost to ring wraparound.
  std::uint64_t dropped() const;

  /// Oldest-to-newest copy of the ring contents.
  std::vector<Event> snapshot() const;

  void clear();

  // ---- raw emission ----
  void emit(const Event& e);

  // ---- typed hooks (what the simulator calls) ----
  void instr_issue(CoreId c, std::uint32_t pc, std::uint8_t op, Cycle at);
  /// `m` instructions of one op at pcs pc0.. issued at cycles at0.. (a nop
  /// run retired in closed form). Counters, emitted() and dropped() end up
  /// exactly as after `m` instr_issue() calls; only the last
  /// min(m, capacity()) events are written, since the rest would be
  /// overwritten within this call anyway.
  void instr_issue_run(CoreId c, std::uint32_t pc0, std::uint8_t op, Cycle at0,
                       std::uint64_t m);
  void stall(CoreId c, std::uint32_t pc, std::uint8_t cause, Cycle from, Cycle to);
  void squash(CoreId c, std::uint32_t pc, Cycle at);
  void sb_enqueue(CoreId c, std::uint64_t seq, Addr addr, Cycle at);
  void sb_drain_start(CoreId c, std::uint64_t seq, Addr addr, Cycle from, Cycle to);
  void sb_drain_retire(CoreId c, std::uint64_t seq, Cycle enqueued, Cycle done);
  void coh_transfer(CoreId c, Addr line, CohKind kind, Cycle from, Cycle to);
  void line_transition(CoreId c, Addr line, LineCode from, LineCode to, Cycle at);
  void barrier_issue(CoreId c, std::uint32_t pc, std::uint8_t op, Cycle at);
  void barrier_txn(CoreId c, std::uint8_t op, Cycle from, Cycle to);
  void barrier_complete(CoreId c, std::uint32_t pc, std::uint8_t op, Cycle issue,
                        Cycle done);
  void store_gate_arm(CoreId c, std::uint32_t pc, Cycle at);
  void store_gate_open(CoreId c, Cycle at);

 private:
  bool enabled_ = true;
  std::vector<Event> ring_;
  std::size_t head_ = 0;      ///< next write slot
  std::uint64_t emitted_ = 0;
  MetricsRegistry* metrics_ = nullptr;
  std::vector<std::string> stall_cause_names_;
};

}  // namespace armbar::trace
