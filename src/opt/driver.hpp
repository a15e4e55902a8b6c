// Bound-search barrier-optimization driver (ISSUE 10 tentpole).
//
// The driver takes the candidates the passes propose (passes.hpp) and
// decides them one at a time against the axiomatic checker:
//
//   1. Enumerate the original program's allowed-outcome set (the
//      *baseline*). If the enumeration errors or hits a budget cap the
//      program is not optimizable — no rewrite is ever applied without a
//      complete baseline to compare against.
//   2. Repeatedly pick the first not-yet-rejected candidate (registry
//      order, then collector order), apply it to a scratch copy, and
//      re-enumerate. The rewrite is admissible iff the allowed-outcome
//      set is *identical* to the baseline (model::compare_outcome_sets);
//      otherwise the original instruction is restored and the candidate
//      is remembered as rejected for the current layout.
//   3. After the search converges, demand baseline equality of the final
//      program once more (defense in depth — and the trap that catches the
//      test-only planted illegal rewrite, which is injected *bypassing*
//      step 2's oracle). A final program byte-identical to the last one
//      the oracle verified (the baseline, or the last accepted trial) is
//      already proven equal; any other program — such as one the plant
//      rewrote — is re-enumerated.
//
// Every accepted rewrite therefore carries an individual whole-program
// equivalence proof, and the final program carries one more. Termination:
// each iteration either accepts (strictly reducing the program's barrier
// weight) or adds a rejection for the current layout (finite candidate
// list); max_oracle_calls bounds the search regardless.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/model.hpp"
#include "opt/passes.hpp"
#include "opt/rewrite.hpp"
#include "trace/json.hpp"

namespace armbar::opt {

struct OptOptions {
  /// Oracle configuration. `model.naive = true` swaps in the exhaustive
  /// enumerator — the soundness property test cross-checks with it.
  model::ModelOptions model;
  /// Pass names to run, in this order; empty = every registered pass in
  /// registry order. Unknown names fail the whole optimization.
  std::vector<std::string> passes;
  /// Upper bound on oracle enumerations (baseline + per-candidate + final;
  /// a final check that reuses an earlier enumeration costs none).
  std::uint32_t max_oracle_calls = 256;
  /// Check the final program against the baseline (step 3), enumerating
  /// it only when it differs from the last verified program. Only tests
  /// turn this off.
  bool final_verify = true;

  /// Test-only hook (planted-unsoundness self-test): after the search
  /// converges, delete a barrier *without* consulting the oracle: one the
  /// oracle refused to weaken during the search if there is one, else the
  /// first surviving standalone barrier. The final verification must catch
  /// and restore an unsound plant — proving the oracle is load-bearing, not
  /// decorative — and reports an outcome-equal one as harmless.
  enum class Plant : std::uint8_t { kNone, kDeleteBypassingOracle };
  Plant plant = Plant::kNone;
};

/// One decided rewrite, in decision order.
struct RewriteRecord {
  RewriteCandidate cand;
  std::string pass;            ///< collecting pass name ("planted" if forced)
  std::string before, after;   ///< op tokens; after == "-" for a deletion,
                               ///< "ldar"/"stlr" for a conversion
  enum class Verdict : std::uint8_t { kAccepted, kRestored };
  Verdict verdict = Verdict::kAccepted;
  bool planted = false;
  std::string detail;          ///< oracle mismatch witness on restore
};

struct OptResult {
  model::ConcurrentProgram original;
  model::ConcurrentProgram optimized;  ///< == original when nothing accepted

  /// Baseline enumerated ok and complete. False means nothing was (or
  /// could have been) rewritten; `model_error` says why.
  bool model_valid = false;
  std::string model_error;

  std::vector<RewriteRecord> rewrites;
  std::uint32_t attempted = 0;   ///< == accepted + restored (validated)
  std::uint32_t accepted = 0;
  std::uint32_t restored = 0;
  std::uint32_t barriers_before = 0;
  std::uint32_t barriers_after = 0;

  /// Real oracle enumerations, and their checker counters summed
  /// (model::OutcomeSet::combos / combos_skipped / candidates).
  std::uint64_t oracle_calls = 0;
  std::uint64_t combos = 0;
  std::uint64_t combos_skipped = 0;
  std::uint64_t candidates = 0;
  std::uint64_t oracle_ns = 0;   ///< summed Phase-C time across oracle calls

  bool planted_injected = false;
  bool planted_caught = false;
  /// The final verification found the planted program outcome-equal to
  /// the baseline: the delete was legal, so it tested nothing.
  bool planted_harmless = false;
  /// Final verification matched the baseline (always expected clean;
  /// also true after a caught plant is restored).
  bool verified_equal = false;
};

OptResult optimize(const model::ConcurrentProgram& prog,
                   const OptOptions& opts = {});

/// Canonical one-decision-per-line rendering, pinned by the golden test
/// (tests/opt/golden/*.golden) and printed by armbar-opt.
std::string describe_decisions(const OptResult& r);

/// The `armbar.opt.report/v1` report section for a batch of results
/// (embedded in an armbar.bench.report/v2 document by armbar-opt and the
/// barrier_opt experiment; validated by validate_bench_report).
trace::Json opt_report_json(const std::vector<OptResult>& results);

/// The same section around program entries opt_report_json already wrote
/// (e.g. kept in cached bench points): its totals are summed from the
/// entries' trace::kOptReportCounters.
trace::Json opt_report_section(trace::Json programs);

}  // namespace armbar::opt
