// Axiomatic ARMv8 reference model (ISSUE 4 tentpole).
//
// Given a small multi-threaded micro-ISA program, exhaustively enumerate the
// set of final states the ARMv8 memory model allows, independently of the
// timing simulator. The construction follows the herd7 aarch64.cat model
// (Alglave et al., "Herding Cats", TOPLAS 2014; Pulte et al., POPL 2018
// for the simplified multi-copy-atomic formulation):
//
//   * Each candidate execution is a set of events — reads R, writes W (with
//     acquire A / acquire-PC Q / release L flags) and fences — related by
//     program order (po), reads-from (rf), coherence (co) and from-reads
//     (fr = rf⁻¹;co).
//   * sc-per-location ("internal"):  acyclic(po-loc ∪ rf ∪ co ∪ fr).
//   * external visibility:           acyclic(obs ∪ dob ∪ bob), where
//       obs = rfe ∪ coe ∪ fre                       (observed-by)
//       dob = addr | data | ctrl;[W] | addr;po;[W]
//           | (ctrl|(addr;po));[ISB];po;[R]
//           | (ctrl|data);coi | (addr|data);rfi     (dependency-ordered)
//       bob = [R];po;[dmb.ld];po | [W];po;[dmb.st];po;[W]
//           | po;[dmb.full];po | [L];po;[A] | [A|Q];po
//           | po;[L] | po;[L];coi                    (barrier-ordered)
//   * DSB variants impose at least the ordering of the matching DMB, so the
//     model treats dsb.{ish,ishst,ishld} as dmb.{ish,ishst,ishld}.
//
// The simulator was measured to be multi-copy-atomic (see
// tests/litmus/litmus_shapes_test.cpp, WRC probe), so the MCA formulation is
// a sound oracle: every outcome the simulator can produce must fall inside
// the set this model enumerates. The converse need not hold — the simulator
// is documented to be *stronger* than the architecture on some shapes (LB /
// S / 2+2W relaxed outcomes are unobservable because loads sample at issue).
//
// Enumeration is exact, not sampled:
//   Phase A  computes a per-address value domain as a fixpoint (initial
//            values plus every value any thread path can store);
//   Phase B  symbolically executes each thread, forking on every load over
//            the domain, while tracking register taint for address / data /
//            control dependencies;
//   Phase C  combines one candidate execution per thread and searches the
//            (rf, co) choice space for candidates that satisfy the axioms.
//            Work that depends on one thread execution alone (its static
//            edges and their closure, what its writes provide, which of
//            its reads need another thread) is summarized once per
//            execution, and combos whose needs no other thread meets are
//            skipped exactly (DESIGN.md §12).
//
// Phase C has two interchangeable engines (ISSUE 5 tentpole):
//   * The default partial-order-reduction (POR) engine walks rf choices and
//     per-address coherence placements as an incremental DFS over a memoized
//     transitive-closure of the ordered-before relations. Because acyclicity
//     is monotone (adding an edge never repairs a cycle), any prefix whose
//     edges already close a cycle prunes the whole subtree — a sleep-set
//     style cut over the existing dob/bob/obs machinery — and rf candidates
//     that are already reachable *from* their read can be rejected before
//     the search starts (early infeasibility). The engine enumerates exactly
//     the consistent candidates the naive engine accepts; see DESIGN.md §12
//     for the equivalence argument.
//   * ModelOptions::naive re-enables the original enumerator (full rf
//     product x co permutations, per-candidate graph rebuild + DFS
//     acyclicity). It is kept compiled-in as the oracle for the golden
//     corpus and the POR equivalence sweep (`armbar-fuzz --model-naive`).
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/program.hpp"

namespace armbar::model {

/// A final state: the observed registers (in observe_regs order) followed by
/// the final memory words (in observe_mem order).
using Outcome = std::vector<std::uint64_t>;

/// A small concurrent program in model form: one straight-line (or
/// forward-branching) micro-ISA program per thread, shared initial memory,
/// and the observation list that defines the outcome tuple.
///
/// The same sim::Program objects run unchanged on the timing simulator —
/// that is the whole point of the differential harness.
struct ConcurrentProgram {
  std::string name;
  std::vector<sim::Program> threads;
  std::vector<std::pair<Addr, std::uint64_t>> init;
  /// Observed (thread index, register) slots, in outcome order.
  std::vector<std::pair<std::uint32_t, sim::Reg>> observe_regs;
  /// Observed final memory words, appended after the registers.
  std::vector<Addr> observe_mem;

  friend bool operator==(const ConcurrentProgram&,
                         const ConcurrentProgram&) = default;
};

/// Enumeration budgets. The defaults comfortably cover every litmus shape
/// and everything the fuzz generator emits; hitting any cap clears
/// OutcomeSet::complete instead of silently truncating.
struct ModelOptions {
  std::uint32_t max_path_instructions = 512;  ///< executed instrs per path
  std::uint32_t max_execs_per_thread = 4096;  ///< candidate paths per thread
  std::uint32_t max_reads_per_thread = 48;    ///< taint masks are 64-bit
  std::uint32_t max_value_domain = 32;        ///< load-value forks per addr
  std::uint64_t max_candidates = 4'000'000;   ///< (exec, rf, co) checks
  /// Use the original exhaustive enumerator instead of the POR engine.
  /// Same outcome sets, same `consistent` count, no pruning — the oracle
  /// the POR engine is differentially tested against.
  bool naive = false;
};

/// Result of enumerate_outcomes().
struct OutcomeSet {
  std::set<Outcome> allowed;
  /// False when any ModelOptions cap was hit: `allowed` is then a lower
  /// bound and must not be used to flag simulator outcomes as illegal.
  bool complete = true;
  /// Non-empty when the program uses an op the model does not cover
  /// (WFE/LDXR/STXR/SWP) or is otherwise malformed; `allowed` is invalid.
  std::string error;
  /// Executions examined. Naive engine: complete (rf, co) candidates
  /// checked. POR engine: search nodes visited (each a distinct partial
  /// execution); both are bounded by ModelOptions::max_candidates.
  std::uint64_t candidates = 0;
  /// Candidates that satisfied the axioms. Engine-independent: the POR
  /// engine reaches a leaf exactly once per consistent (rf, co) choice, so
  /// this matches the naive engine bit-for-bit (asserted by tests).
  std::uint64_t consistent = 0;
  std::uint64_t combos = 0;    ///< per-thread execution combinations tried
  /// Combos the POR engine's exact pre-check skipped: some read can take
  /// its value from no other thread's picked execution, so the search would
  /// return before its first node. Counted in `combos`; always 0 under
  /// ModelOptions::naive.
  std::uint64_t combos_skipped = 0;
  std::uint64_t enum_ns = 0;   ///< wall-clock ns spent in Phase C

  bool ok() const { return error.empty(); }
  bool allows(const Outcome& o) const { return allowed.count(o) != 0; }
};

OutcomeSet enumerate_outcomes(const ConcurrentProgram& p,
                              const ModelOptions& opts = {});

/// Verdict of compare_outcome_sets() — the equivalence oracle contract the
/// barrier-optimization driver (ISSUE 10) is built on. Two enumerations are
/// only *comparable* when both are error-free AND complete: an incomplete
/// set is a lower bound, and "lower bound == lower bound" proves nothing.
/// A rewrite is admissible iff `equal` — the allowed-outcome sets are
/// identical (the admissibility criterion from "On Architecture to
/// Architecture Mapping for Concurrency": no outcome appears or disappears).
struct EquivalenceVerdict {
  bool comparable = false;  ///< both sets ok() && complete
  bool equal = false;       ///< comparable && allowed sets identical
  /// Why not equal: the first outcome present in exactly one set (prefixed
  /// with "only in A:" / "only in B:"), or why not comparable.
  std::string detail;
};

EquivalenceVerdict compare_outcome_sets(const OutcomeSet& a,
                                        const OutcomeSet& b);

std::string to_string(const Outcome& o);
std::string to_string(const OutcomeSet& s);

}  // namespace armbar::model
