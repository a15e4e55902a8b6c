#include "model/model.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <ranges>
#include <sstream>

#include "common/check.hpp"
#include "prof/prof.hpp"
#include "sim/isa.hpp"

namespace armbar::model {
namespace {

using sim::Instr;
using sim::Op;
using sim::Reg;

// ---------------------------------------------------------------------------
// Events and candidate thread executions
// ---------------------------------------------------------------------------

struct Event {
  enum Kind : std::uint8_t { kRead, kWrite, kFence };
  Kind kind = kRead;
  int thread = -1;       ///< -1 = initial-state write (external to all)
  std::uint32_t po = 0;  ///< index within the owning thread's event list
  Op op = Op::kNop;
  Addr addr = 0;
  std::uint64_t value = 0;
  bool acq = false;     ///< LDAR  (RCsc acquire, A)
  bool acq_pc = false;  ///< LDAPR (RCpc acquire, Q)
  bool rel = false;     ///< STLR  (release, L)
  // Dependency sources, as bitmasks over the owning thread's read ordinals.
  std::uint64_t addr_dep = 0;
  std::uint64_t data_dep = 0;
  std::uint64_t ctrl_dep = 0;
  int read_ord = -1;  ///< reads: ordinal among this thread's reads
  int aix = -1;       ///< dense address index (set after Phase B; fences -1)
};

constexpr bool is_full_fence(Op op) {
  return op == Op::kDmbFull || op == Op::kDsbFull;
}
constexpr bool is_st_fence(Op op) {
  return op == Op::kDmbSt || op == Op::kDsbSt;
}
constexpr bool is_ld_fence(Op op) {
  return op == Op::kDmbLd || op == Op::kDsbLd;
}

/// Dense incremental transitive closure over event ids: one bitset row per
/// event holding its reachable set. This is the memoized relation frontier —
/// instead of rebuilding a graph and running a DFS per candidate, each DFS
/// level copies its parent's closure and extends it edge-by-edge.
class Reach {
 public:
  void init(std::size_t n) {
    n_ = n;
    words_ = (n + 63) / 64;
    bits_.assign(n_ * words_, 0);
  }

  std::size_t words() const { return words_; }
  const std::uint64_t* row(int u) const {
    return &bits_[static_cast<std::size_t>(u) * words_];
  }

  bool reach(int u, int v) const {
    return (bits_[static_cast<std::size_t>(u) * words_ + (v >> 6)] >>
            (v & 63)) &
           1;
  }

  /// Add edge u->v and re-close. Returns false iff the edge closes a cycle
  /// (including u == v); the closure must then be discarded. Acyclicity is
  /// monotone-decreasing under edge addition, so a false here condemns every
  /// extension of the current choice prefix — that is the pruning theorem
  /// the whole engine rests on (DESIGN.md §12).
  bool add(int u, int v) {
    if (u == v || reach(v, u)) return false;
    if (reach(u, v)) return true;  // already implied, closure unchanged
    const std::uint64_t* src = row(v);
    for (std::size_t w = 0; w < n_; ++w) {
      if (static_cast<int>(w) != u && !reach(static_cast<int>(w), u))
        continue;
      std::uint64_t* dst = &bits_[w * words_];
      for (std::size_t k = 0; k < words_; ++k) dst[k] |= src[k];
      dst[v >> 6] |= 1ULL << (v & 63);
    }
    return true;
  }

  /// Seeding without re-closing, for relations known to be closed and
  /// acyclic: row `u` gains `src` (a row of another closure, `src_words`
  /// wide) with every bit moved up by `shift` ids.
  void or_shifted(int u, const std::uint64_t* src, std::size_t src_words,
                  std::size_t shift) {
    std::uint64_t* dst = &bits_[static_cast<std::size_t>(u) * words_];
    const std::size_t s = shift & 63;
    for (std::size_t k = 0; k < src_words; ++k) {
      if (src[k] == 0) continue;
      const std::size_t at = k + (shift >> 6);
      dst[at] |= src[k] << s;
      if (s != 0 && at + 1 < words_) dst[at + 1] |= src[k] >> (64 - s);
    }
  }

  /// Seeding: `u` reaches `v` and everything `v` already reaches. Exact
  /// when nothing reaches `u` (the caller's init writes).
  void absorb(int u, int v) {
    or_shifted(u, row(v), words_, 0);
    bits_[static_cast<std::size_t>(u) * words_ + (v >> 6)] |= 1ULL << (v & 63);
  }

 private:
  std::size_t n_ = 0, words_ = 0;
  std::vector<std::uint64_t> bits_;
};

struct ThreadExec {
  std::vector<Event> events;
  std::array<std::uint64_t, sim::kNumRegs> regs{};

  // Per-execution summary (summarize(), right after Phase B): everything
  // Phase C needs that depends on this one execution alone, computed once
  // instead of once per execution combo.
  std::vector<int> read_po;  ///< read ordinal -> index into `events`
  /// dob/bob edges that do not depend on the rf/co choice, as `events`
  /// indices, and their closure; `ic_local` closes the po-loc chains.
  std::vector<std::pair<int, int>> static_edges;
  Reach ic_local, ec_local;
  /// Bitset over (address, value) pair ids: what this execution's writes
  /// can feed to other threads' reads.
  std::vector<std::uint64_t> provides;
  /// Pair ids of reads neither the init value nor a same-thread write the
  /// read does not already reach can feed (-1: no execution writes it).
  std::vector<int> needs;
};

// ---------------------------------------------------------------------------
// Phase B: per-thread symbolic execution with a load-value oracle
// ---------------------------------------------------------------------------

/// A register value plus the set of thread-local reads it (syntactically)
/// depends on — the taint that becomes addr/data/ctrl dependencies.
struct RV {
  std::uint64_t v = 0;
  std::uint64_t dep = 0;
};

std::uint64_t alu(Op op, std::uint64_t a, std::uint64_t b) {
  switch (op) {
    case Op::kAdd: case Op::kAddImm: return a + b;
    case Op::kSub: case Op::kSubImm: return a - b;
    case Op::kAnd: case Op::kAndImm: return a & b;
    case Op::kOrr: case Op::kOrrImm: return a | b;
    case Op::kEor: case Op::kEorImm: return a ^ b;
    case Op::kLsl: case Op::kLslImm: return a << (b & 63);
    case Op::kLsr: case Op::kLsrImm: return a >> (b & 63);
    case Op::kMul: return a * b;
    default: return 0;
  }
}

struct PathState {
  std::uint32_t pc = 0;
  std::array<RV, sim::kNumRegs> regs{};
  int flags = 0;  ///< unsigned three-way compare, matching the simulator
  std::uint64_t flags_dep = 0;
  std::uint64_t ctrl = 0;  ///< reads any executed conditional branch saw
  std::vector<Event> events;
  std::uint32_t executed = 0;
  int nreads = 0;
};

class ThreadInterp {
 public:
  ThreadInterp(const sim::Program& prog,
               const std::map<Addr, std::set<std::uint64_t>>& dom,
               const std::map<Addr, std::uint64_t>& init,
               const ModelOptions& opts, OutcomeSet* status)
      : prog_(prog), dom_(dom), init_(init), opts_(opts), status_(status) {}

  std::vector<ThreadExec> run() {
    step(PathState{});
    return std::move(execs_);
  }

 private:
  std::uint64_t init_of(Addr a) const {
    auto it = init_.find(a);
    return it == init_.end() ? 0 : it->second;
  }

  /// Values a load of `a` may observe: the initial value plus everything any
  /// thread path can store there (Phase A fixpoint).
  std::vector<std::uint64_t> load_candidates(Addr a) const {
    std::vector<std::uint64_t> vals{init_of(a)};
    if (auto it = dom_.find(a); it != dom_.end())
      for (std::uint64_t v : it->second)
        if (v != vals.front()) vals.push_back(v);
    return vals;
  }

  RV rv(const PathState& st, Reg r) const {
    return r == sim::XZR ? RV{} : st.regs[r];
  }
  static void setreg(PathState& st, Reg r, RV v) {
    if (r != sim::XZR) st.regs[r] = v;
  }

  void finish(PathState&& st) {
    ThreadExec e;
    e.events = std::move(st.events);
    for (std::size_t i = 0; i < sim::kNumRegs; ++i) e.regs[i] = st.regs[i].v;
    // Distinct load-value choices can converge on identical behaviour
    // (e.g. both branch arms rejoining); dedupe to shrink the Phase C
    // product. The key is a byte-exact fixed-width field dump — every
    // event block has the same width and the register block has a fixed
    // size, so equal keys imply equal executions.
    std::string key;
    key.reserve(e.events.size() * 48 + sizeof(e.regs));
    for (const Event& ev : e.events) {
      const std::uint64_t fields[6] = {
          static_cast<std::uint64_t>(ev.kind) |
              (static_cast<std::uint64_t>(ev.op) << 8) |
              (static_cast<std::uint64_t>(
                   static_cast<std::uint32_t>(ev.read_ord))
               << 16),
          ev.addr, ev.value, ev.addr_dep, ev.data_dep, ev.ctrl_dep};
      key.append(reinterpret_cast<const char*>(fields), sizeof(fields));
    }
    key.append(reinterpret_cast<const char*>(e.regs.data()), sizeof(e.regs));
    if (seen_.insert(std::move(key)).second) execs_.push_back(std::move(e));
  }

  void step(PathState st) {
    while (true) {
      if (!status_->ok()) return;
      if (execs_.size() >= opts_.max_execs_per_thread) {
        status_->complete = false;
        return;
      }
      if (++st.executed > opts_.max_path_instructions) {
        status_->complete = false;  // unbounded loop under this load valuation
        return;
      }
      if (st.pc >= prog_.size()) {  // fell off the end: implicit halt
        finish(std::move(st));
        return;
      }
      const Instr& ins = prog_.at(st.pc);
      switch (ins.op) {
        case Op::kHalt:
          finish(std::move(st));
          return;
        case Op::kNop:
          ++st.pc;
          break;

        case Op::kMovImm:
          setreg(st, ins.rd, {static_cast<std::uint64_t>(ins.imm), 0});
          ++st.pc;
          break;
        case Op::kMov:
          setreg(st, ins.rd, rv(st, ins.rn));
          ++st.pc;
          break;
        case Op::kAdd: case Op::kSub: case Op::kAnd: case Op::kOrr:
        case Op::kEor: case Op::kLsl: case Op::kLsr: case Op::kMul: {
          const RV a = rv(st, ins.rn), b = rv(st, ins.rm);
          setreg(st, ins.rd, {alu(ins.op, a.v, b.v), a.dep | b.dep});
          ++st.pc;
          break;
        }
        case Op::kAddImm: case Op::kSubImm: case Op::kAndImm:
        case Op::kOrrImm: case Op::kEorImm: case Op::kLslImm:
        case Op::kLsrImm: {
          const RV a = rv(st, ins.rn);
          setreg(st, ins.rd,
                 {alu(ins.op, a.v, static_cast<std::uint64_t>(ins.imm)),
                  a.dep});
          ++st.pc;
          break;
        }

        case Op::kCmp: {
          const RV a = rv(st, ins.rn), b = rv(st, ins.rm);
          st.flags = a.v < b.v ? -1 : (a.v == b.v ? 0 : 1);
          st.flags_dep = a.dep | b.dep;
          ++st.pc;
          break;
        }
        case Op::kCmpImm: {
          const RV a = rv(st, ins.rn);
          const auto rhs = static_cast<std::uint64_t>(ins.imm);
          st.flags = a.v < rhs ? -1 : (a.v == rhs ? 0 : 1);
          st.flags_dep = a.dep;
          ++st.pc;
          break;
        }

        case Op::kB:
          st.pc = ins.target;
          break;
        case Op::kBeq: case Op::kBne: case Op::kBlt:
        case Op::kBle: case Op::kBgt: case Op::kBge: {
          bool taken = false;
          switch (ins.op) {
            case Op::kBeq: taken = st.flags == 0; break;
            case Op::kBne: taken = st.flags != 0; break;
            case Op::kBlt: taken = st.flags < 0; break;
            case Op::kBle: taken = st.flags <= 0; break;
            case Op::kBgt: taken = st.flags > 0; break;
            default: taken = st.flags >= 0; break;  // kBge
          }
          // A ctrl dependency exists from every read feeding the condition
          // to every po-later access, on both arms of the branch.
          st.ctrl |= st.flags_dep;
          st.pc = taken ? ins.target : st.pc + 1;
          break;
        }
        case Op::kCbz: case Op::kCbnz: {
          const RV a = rv(st, ins.rn);
          const bool taken = (ins.op == Op::kCbz) == (a.v == 0);
          st.ctrl |= a.dep;
          st.pc = taken ? ins.target : st.pc + 1;
          break;
        }

        case Op::kLdr: case Op::kLdrIdx: case Op::kLdar: case Op::kLdapr: {
          const RV base = rv(st, ins.rn);
          const RV off = ins.op == Op::kLdrIdx
                             ? rv(st, ins.rm)
                             : RV{static_cast<std::uint64_t>(ins.imm), 0};
          if (st.nreads >=
              static_cast<int>(std::min<std::uint32_t>(
                  opts_.max_reads_per_thread, 64))) {
            status_->complete = false;
            return;
          }
          Event e;
          e.kind = Event::kRead;
          e.op = ins.op;
          e.addr = base.v + off.v;
          e.acq = ins.op == Op::kLdar;
          e.acq_pc = ins.op == Op::kLdapr;
          e.addr_dep = base.dep | off.dep;
          e.ctrl_dep = st.ctrl;
          e.read_ord = st.nreads;
          ++st.pc;
          ++st.nreads;
          const auto vals = load_candidates(e.addr);
          for (std::size_t i = 0; i < vals.size(); ++i) {
            PathState next = (i + 1 == vals.size()) ? std::move(st) : st;
            Event ev = e;
            ev.value = vals[i];
            ev.po = static_cast<std::uint32_t>(next.events.size());
            next.events.push_back(ev);
            setreg(next, ins.rd, {vals[i], 1ULL << e.read_ord});
            step(std::move(next));
            if (!status_->ok()) return;
          }
          return;
        }

        case Op::kStr: case Op::kStrIdx: case Op::kStlr: {
          // The source register lives in the rd field (see Asm::str).
          const RV base = rv(st, ins.rn);
          const RV off = ins.op == Op::kStrIdx
                             ? rv(st, ins.rm)
                             : RV{static_cast<std::uint64_t>(ins.imm), 0};
          const RV data = rv(st, ins.rd);
          Event e;
          e.kind = Event::kWrite;
          e.op = ins.op;
          e.addr = base.v + off.v;
          e.value = data.v;
          e.rel = ins.op == Op::kStlr;
          e.addr_dep = base.dep | off.dep;
          e.data_dep = data.dep;
          e.ctrl_dep = st.ctrl;
          e.po = static_cast<std::uint32_t>(st.events.size());
          st.events.push_back(e);
          ++st.pc;
          break;
        }

        case Op::kDmbFull: case Op::kDmbSt: case Op::kDmbLd:
        case Op::kDsbFull: case Op::kDsbSt: case Op::kDsbLd:
        case Op::kIsb: {
          Event e;
          e.kind = Event::kFence;
          e.op = ins.op;
          e.ctrl_dep = st.ctrl;  // feeds the (ctrl);[ISB];po;[R] clause
          e.po = static_cast<std::uint32_t>(st.events.size());
          st.events.push_back(e);
          ++st.pc;
          break;
        }

        case Op::kWfe: case Op::kLdxr: case Op::kStxr: case Op::kSwp:
          status_->error =
              "unsupported op in reference model: " + sim::to_string(ins.op);
          return;
      }
    }
  }

  const sim::Program& prog_;
  const std::map<Addr, std::set<std::uint64_t>>& dom_;
  const std::map<Addr, std::uint64_t>& init_;
  const ModelOptions& opts_;
  OutcomeSet* status_;
  std::vector<ThreadExec> execs_;
  std::set<std::string> seen_;
};

// ---------------------------------------------------------------------------
// Phase C: combine thread executions, enumerate rf/co, check the axioms
// ---------------------------------------------------------------------------

/// Calls fn(i) for the `events` index i of every read in the ordinal
/// bitmask `mask` (a dependency source set).
template <typename Fn>
void for_dep_reads(const std::vector<int>& read_po, std::uint64_t mask,
                   Fn&& fn) {
  while (mask != 0) {
    const int ord = __builtin_ctzll(mask);
    mask &= mask - 1;
    if (static_cast<std::size_t>(ord) < read_po.size() && read_po[ord] >= 0)
      fn(read_po[ord]);
  }
}

/// dob/bob edges of one thread execution that do not depend on the rf/co
/// choice, as indices into `tev`. Every edge runs po-forward. Shared by
/// both engines, so the naive oracle and the POR engine see the same
/// static relation.
std::vector<std::pair<int, int>> thread_static_edges(
    const std::vector<Event>& tev, const std::vector<int>& read_po) {
  std::vector<std::pair<int, int>> out;
  auto add_edge = [&out](int from, int to) {
    if (from != to) out.emplace_back(from, to);
  };
  const int n = static_cast<int>(tev.size());

  // Direct dependency clauses: addr, data, ctrl;[W].
  for (int id = 0; id < n; ++id) {
    const Event& e = tev[id];
    if (e.kind == Event::kFence) continue;
    for_dep_reads(read_po, e.addr_dep, [&](int r) { add_edge(r, id); });
    if (e.kind == Event::kWrite) {
      for_dep_reads(read_po, e.data_dep, [&](int r) { add_edge(r, id); });
      for_dep_reads(read_po, e.ctrl_dep, [&](int r) { add_edge(r, id); });
    }
  }

  // Prefix-accumulating po scan for the remaining clauses.
  std::uint64_t addr_prefix = 0;  // addr;po;[W] and (addr;po);[ISB]
  std::uint64_t isb_srcs = 0;     // (ctrl|(addr;po));[ISB];po;[R]
  std::vector<int> all_before, rel_before;
  std::vector<int> any_srcs;  // ordered before every later access
  std::vector<int> st_srcs;   // ordered before every later write
  for (int id = 0; id < n; ++id) {
    const Event& e = tev[id];
    if (e.kind == Event::kFence) {
      if (is_full_fence(e.op)) {
        any_srcs.insert(any_srcs.end(), all_before.begin(), all_before.end());
      } else if (is_ld_fence(e.op)) {
        for (int b : all_before)
          if (tev[b].kind == Event::kRead) any_srcs.push_back(b);
      } else if (is_st_fence(e.op)) {
        for (int b : all_before)
          if (tev[b].kind == Event::kWrite) st_srcs.push_back(b);
      } else {  // ISB
        isb_srcs |= e.ctrl_dep | addr_prefix;
      }
      continue;
    }
    // Incoming barrier-ordered edges.
    for (int s : any_srcs) add_edge(s, id);
    if (e.kind == Event::kWrite)
      for (int s : st_srcs) add_edge(s, id);
    if (e.kind == Event::kRead)
      for_dep_reads(read_po, isb_srcs, [&](int r) { add_edge(r, id); });
    // addr;po;[W]: reads feeding any earlier access's address order
    // before every later write.
    if (e.kind == Event::kWrite)
      for_dep_reads(read_po, addr_prefix, [&](int r) { add_edge(r, id); });
    // po;[L] and [L];po;[A].
    if (e.kind == Event::kWrite && e.rel) {
      for (int b : all_before) add_edge(b, id);
      rel_before.push_back(id);
    }
    if (e.kind == Event::kRead && e.acq)
      for (int l : rel_before) add_edge(l, id);
    // [A|Q];po.
    if (e.kind == Event::kRead && (e.acq || e.acq_pc)) any_srcs.push_back(id);
    addr_prefix |= e.addr_dep;
    all_before.push_back(id);
  }
  return out;
}

/// Fill every execution's per-execution summary (DESIGN.md §12,
/// "Per-execution summaries"). `addrs` is the sorted address universe;
/// `init_vals` holds the initial value of each address index.
void summarize(std::vector<std::vector<ThreadExec>>& execs,
               const std::vector<Addr>& addrs,
               const std::vector<std::uint64_t>& init_vals) {
  // Dense ids for every (address index, value) pair some write produces.
  std::map<std::pair<int, std::uint64_t>, int> pair_id;
  for (std::size_t t = 0; t < execs.size(); ++t)
    for (ThreadExec& x : execs[t]) {
      for (Event& e : x.events) {
        e.thread = static_cast<int>(t);
        if (e.kind == Event::kFence) continue;
        e.aix = static_cast<int>(
            std::lower_bound(addrs.begin(), addrs.end(), e.addr) -
            addrs.begin());
        if (e.kind == Event::kWrite)
          pair_id.emplace(std::make_pair(e.aix, e.value),
                          static_cast<int>(pair_id.size()));
      }
    }
  const std::size_t pair_words = (pair_id.size() + 63) / 64;

  for (auto& texecs : execs)
    for (ThreadExec& x : texecs) {
      const int n = static_cast<int>(x.events.size());
      for (int i = 0; i < n; ++i) {
        const Event& e = x.events[i];
        if (e.kind != Event::kRead) continue;
        if (x.read_po.size() <= static_cast<std::size_t>(e.read_ord))
          x.read_po.resize(e.read_ord + 1, -1);
        x.read_po[e.read_ord] = i;
      }
      // Every static and po-loc edge runs po-forward, so neither local
      // closure can cycle — and neither can a combo's base closure built
      // from them, which the search therefore never re-checks.
      x.static_edges = thread_static_edges(x.events, x.read_po);
      x.ic_local.init(x.events.size());
      x.ec_local.init(x.events.size());
      bool acyclic = true;
      for (const auto& [from, to] : x.static_edges)
        acyclic = x.ec_local.add(from, to) && acyclic;
      std::vector<int> last(addrs.size(), -1);  // po-loc chains
      for (int i = 0; i < n; ++i) {
        const Event& e = x.events[i];
        if (e.kind == Event::kFence) continue;
        if (last[e.aix] >= 0)
          acyclic = x.ic_local.add(last[e.aix], i) && acyclic;
        last[e.aix] = i;
      }
      ARMBAR_CHECK(acyclic);

      x.provides.assign(pair_words, 0);
      for (const Event& e : x.events)
        if (e.kind == Event::kWrite) {
          const int k = pair_id.at({e.aix, e.value});
          x.provides[k >> 6] |= 1ULL << (k & 63);
        }
      for (int i = 0; i < n; ++i) {
        const Event& r = x.events[i];
        if (r.kind != Event::kRead || init_vals[r.aix] == r.value) continue;
        bool local = false;
        for (int w = 0; w < n && !local; ++w)
          local = x.events[w].kind == Event::kWrite &&
                  x.events[w].aix == r.aix && x.events[w].value == r.value &&
                  !x.ic_local.reach(i, w);
        if (local) continue;
        const auto it = pair_id.find({r.aix, r.value});
        x.needs.push_back(it == pair_id.end() ? -1 : it->second);
      }
      std::sort(x.needs.begin(), x.needs.end());
      x.needs.erase(std::unique(x.needs.begin(), x.needs.end()),
                    x.needs.end());
    }
}

/// True when `combo` cannot yield a single POR search node: some read's
/// need is provided by no other thread's picked execution. Exact — see
/// DESIGN.md §12.
bool starved(const std::vector<const ThreadExec*>& combo) {
  for (std::size_t t = 0; t < combo.size(); ++t) {
    for (int k : combo[t]->needs) {
      bool fed = false;  // never for k < 0: no execution writes that pair
      for (std::size_t u = 0; k >= 0 && u < combo.size() && !fed; ++u)
        fed = u != t && ((combo[u]->provides[k >> 6] >> (k & 63)) & 1);
      if (!fed) return true;
    }
  }
  return false;
}

/// The flattened event universe of one per-thread execution combination,
/// shared by both Phase C engines and rebuilt in place for every combo.
/// The initial write of every touched address is a virtual event on
/// thread -1 (external to every real thread, co-first at its address)
/// whose id equals its address index; each thread's events follow as one
/// contiguous id range, in thread order.
struct ComboEvents {
  std::vector<Addr> addrs;  ///< sorted; position = address index
  std::vector<Event> ev;
  std::vector<int> thread_begin;  ///< thread t owns [begin[t], begin[t+1])
  std::vector<std::vector<int>> writes;  ///< real write ids per address index
  std::vector<int> reads;
  std::vector<const ThreadExec*> combo;

  ComboEvents(std::vector<Addr> addr_list,
              const std::vector<std::uint64_t>& init_vals)
      : addrs(std::move(addr_list)), writes(addrs.size()) {
    for (std::size_t a = 0; a < addrs.size(); ++a) {
      Event e;
      e.kind = Event::kWrite;
      e.thread = -1;
      e.addr = addrs[a];
      e.aix = static_cast<int>(a);
      e.value = init_vals[a];
      ev.push_back(e);
    }
  }

  void build(const std::vector<const ThreadExec*>& c) {
    combo = c;
    ev.resize(addrs.size());
    thread_begin.clear();
    for (auto& ws : writes) ws.clear();
    reads.clear();
    for (const ThreadExec* x : combo) {
      thread_begin.push_back(static_cast<int>(ev.size()));
      for (const Event& e : x->events) {
        const int id = static_cast<int>(ev.size());
        if (e.kind == Event::kRead) reads.push_back(id);
        if (e.kind == Event::kWrite) writes[e.aix].push_back(id);
        ev.push_back(e);
      }
    }
    thread_begin.push_back(static_cast<int>(ev.size()));
  }

  /// Id of the initial write at `a` (== the address index of `a`).
  int init_id(Addr a) const {
    return static_cast<int>(std::lower_bound(addrs.begin(), addrs.end(), a) -
                            addrs.begin());
  }

  /// Real writes at `a` (never includes the virtual init write). Null when
  /// there are none.
  const std::vector<int>* writes_at(Addr a) const {
    const std::vector<int>& ws = writes[init_id(a)];
    return ws.empty() ? nullptr : &ws;
  }

  /// Event ids of thread t, in po order.
  auto thread_ids(int t) const {
    return std::views::iota(thread_begin[t], thread_begin[t + 1]);
  }

  template <typename Fn>
  void for_deps(int thread, std::uint64_t mask, Fn&& fn) const {
    const int base = thread_begin[thread];
    for_dep_reads(combo[thread]->read_po, mask,
                  [&](int i) { fn(base + i); });
  }
};

/// Every thread's static edges, in combo event ids.
std::vector<std::pair<int, int>> build_static_edges(const ComboEvents& ce) {
  std::vector<std::pair<int, int>> out;
  for (std::size_t t = 0; t < ce.combo.size(); ++t)
    for (const auto& [from, to] : ce.combo[t]->static_edges)
      out.emplace_back(ce.thread_begin[t] + from, ce.thread_begin[t] + to);
  return out;
}

// ---------------------------------------------------------------------------
// Naive engine (ModelOptions::naive): full rf product x co permutations,
// per-candidate graph rebuild + DFS acyclicity. Kept as the oracle.
// ---------------------------------------------------------------------------

bool acyclic(std::size_t n, const std::vector<std::vector<int>>& adj) {
  // Iterative three-colour DFS.
  enum : std::uint8_t { kWhite, kGrey, kBlack };
  std::vector<std::uint8_t> color(n, kWhite);
  std::vector<std::pair<int, std::size_t>> stack;
  for (std::size_t root = 0; root < n; ++root) {
    if (color[root] != kWhite) continue;
    stack.emplace_back(static_cast<int>(root), 0);
    color[root] = kGrey;
    while (!stack.empty()) {
      auto& [u, next] = stack.back();
      if (next < adj[u].size()) {
        const int v = adj[u][next++];
        if (color[v] == kGrey) return false;
        if (color[v] == kWhite) {
          color[v] = kGrey;
          stack.emplace_back(v, 0);
        }
      } else {
        color[u] = kBlack;
        stack.pop_back();
      }
    }
  }
  return true;
}

class ComboChecker {
 public:
  ComboChecker(const ConcurrentProgram& p, const ModelOptions& opts,
               const std::vector<const ThreadExec*>& combo,
               const ComboEvents& ce, OutcomeSet* out)
      : p_(p), opts_(opts), combo_(combo), ce_(ce), out_(out) {}

  /// Enumerate every (rf, co) choice for this combo and record the outcomes
  /// of consistent candidates. Returns false when the candidate budget is
  /// exhausted.
  bool check() {
    static_ = build_static_edges(ce_);
    // rf candidates per read: writes at the same address carrying the same
    // value (the init write qualifying when the value matches). A read with
    // no candidate makes the whole combo infeasible.
    rf_cand_.resize(ce_.reads.size());
    for (std::size_t i = 0; i < ce_.reads.size(); ++i) {
      const Event& r = ce_.ev[ce_.reads[i]];
      auto& cand = rf_cand_[i];
      if (ce_.ev[ce_.init_id(r.addr)].value == r.value)
        cand.push_back(ce_.init_id(r.addr));
      if (const auto* ws = ce_.writes_at(r.addr))
        for (int w : *ws)
          if (ce_.ev[w].value == r.value) cand.push_back(w);
      if (cand.empty()) return true;  // infeasible, not over budget
    }
    rf_.assign(ce_.reads.size(), -1);
    return assign_rf(0);
  }

 private:
  bool assign_rf(std::size_t i) {
    if (i == ce_.reads.size()) return enumerate_co();
    for (int w : rf_cand_[i]) {
      rf_[i] = w;
      if (!assign_rf(i + 1)) return false;
    }
    return true;
  }

  bool enumerate_co() {
    // One permutation vector per address that has competing real writes;
    // the init write is always co-first.
    co_addrs_.clear();
    co_perm_.clear();
    for (std::size_t a = 0; a < ce_.addrs.size(); ++a) {
      const std::vector<int>& ws = ce_.writes[a];
      if (ws.empty()) continue;
      co_addrs_.push_back(ce_.addrs[a]);
      co_perm_.push_back(ws);  // start from Phase-B order, sorted below
      std::sort(co_perm_.back().begin(), co_perm_.back().end());
    }
    return perm_addr(0);
  }

  bool perm_addr(std::size_t k) {
    if (k == co_addrs_.size()) return check_candidate();
    auto& perm = co_perm_[k];
    std::sort(perm.begin(), perm.end());
    do {
      if (!perm_addr(k + 1)) return false;
    } while (std::next_permutation(perm.begin(), perm.end()));
    return true;
  }

  /// Axiom check for the now fully chosen (rf, co). Returns false when the
  /// global candidate budget is exhausted.
  bool check_candidate() {
    if (++out_->candidates > opts_.max_candidates) {
      out_->complete = false;
      return false;
    }
    const std::size_t n = ce_.ev.size();

    // co position of every write: (addr, index); init is position 0.
    std::vector<int> co_pos(n, -1);
    for (int id = 0; id < static_cast<int>(n); ++id)
      if (ce_.ev[id].thread == -1) co_pos[id] = 0;
    for (std::size_t k = 0; k < co_addrs_.size(); ++k)
      for (std::size_t i = 0; i < co_perm_[k].size(); ++i)
        co_pos[co_perm_[k][i]] = static_cast<int>(i) + 1;

    auto co_before = [&](int w1, int w2) {
      return ce_.ev[w1].addr == ce_.ev[w2].addr && co_pos[w1] < co_pos[w2];
    };

    // ---- internal: acyclic(po-loc ∪ rf ∪ co ∪ fr) --------------------
    std::vector<std::vector<int>> internal(n), external(n);
    for (const auto& [from, to] : static_) external[from].push_back(to);

    // po-loc chains per thread.
    for (std::size_t t = 0; t < ce_.combo.size(); ++t) {
      std::map<Addr, int> last;
      for (int id : ce_.thread_ids(static_cast<int>(t))) {
        const Event& e = ce_.ev[id];
        if (e.kind == Event::kFence) continue;
        if (auto it = last.find(e.addr); it != last.end())
          internal[it->second].push_back(id);
        last[e.addr] = id;
      }
    }
    // co (full pairs, both graphs where external).
    std::vector<std::pair<int, int>> co_pairs;
    for (std::size_t k = 0; k < co_addrs_.size(); ++k) {
      const int init_w = ce_.init_id(co_addrs_[k]);
      const auto& perm = co_perm_[k];
      for (std::size_t i = 0; i < perm.size(); ++i) {
        co_pairs.emplace_back(init_w, perm[i]);
        for (std::size_t j = i + 1; j < perm.size(); ++j)
          co_pairs.emplace_back(perm[i], perm[j]);
      }
    }
    for (const auto& [w1, w2] : co_pairs) {
      internal[w1].push_back(w2);
      if (ce_.ev[w1].thread != ce_.ev[w2].thread) external[w1].push_back(w2);
    }
    // rf, fr; plus the rf/co-dependent dob and bob clauses.
    for (std::size_t i = 0; i < ce_.reads.size(); ++i) {
      const int r = ce_.reads[i];
      const int src = rf_[i];
      internal[src].push_back(r);
      if (ce_.ev[src].thread != ce_.ev[r].thread) {
        external[src].push_back(r);  // rfe ∈ obs
      } else {
        // (addr|data);rfi: reads feeding the source write's address or data
        // are ordered before the read that observes it.
        ce_.for_deps(ce_.ev[src].thread,
                     ce_.ev[src].addr_dep | ce_.ev[src].data_dep, [&](int d) {
                       if (d != r) external[d].push_back(r);
                     });
      }
      // fr = rf⁻¹;co.
      if (const auto* ws = ce_.writes_at(ce_.ev[r].addr))
        for (int w : *ws)
          if (w != src && co_before(src, w)) {
            internal[r].push_back(w);
            if (ce_.ev[r].thread != ce_.ev[w].thread)
              external[r].push_back(w);  // fre ∈ obs
          }
    }
    // (ctrl|data);coi and po;[L];coi.
    for (const auto& [w1, w2] : co_pairs) {
      if (ce_.ev[w1].thread < 0 || ce_.ev[w1].thread != ce_.ev[w2].thread)
        continue;
      ce_.for_deps(ce_.ev[w1].thread,
                   ce_.ev[w1].ctrl_dep | ce_.ev[w1].data_dep,
                   [&](int r) { external[r].push_back(w2); });
      if (ce_.ev[w1].rel)
        for (int b : ce_.thread_ids(ce_.ev[w1].thread)) {
          if (b == w1) break;
          if (ce_.ev[b].kind != Event::kFence) external[b].push_back(w2);
        }
    }

    if (!acyclic(n, internal)) return true;   // sc-per-location violated
    if (!acyclic(n, external)) return true;   // ob cycle: forbidden
    ++out_->consistent;

    // ---- consistent: record the outcome ------------------------------
    Outcome o;
    o.reserve(p_.observe_regs.size() + p_.observe_mem.size());
    for (const auto& [t, reg] : p_.observe_regs)
      o.push_back(reg == sim::XZR ? 0 : combo_[t]->regs[reg]);
    for (Addr a : p_.observe_mem) {
      std::uint64_t final_v = ce_.ev[ce_.init_id(a)].value;
      int best = 0;
      if (const auto* ws = ce_.writes_at(a))
        for (int w : *ws)
          if (co_pos[w] >= best) {
            best = co_pos[w];
            final_v = ce_.ev[w].value;
          }
      o.push_back(final_v);
    }
    out_->allowed.insert(std::move(o));
    return true;
  }

  const ConcurrentProgram& p_;
  const ModelOptions& opts_;
  const std::vector<const ThreadExec*>& combo_;
  const ComboEvents& ce_;
  OutcomeSet* out_;

  std::vector<std::pair<int, int>> static_;
  std::vector<std::vector<int>> rf_cand_;
  std::vector<int> rf_;
  std::vector<Addr> co_addrs_;
  std::vector<std::vector<int>> co_perm_;
};

// ---------------------------------------------------------------------------
// POR engine (default): incremental DFS over rf choices and per-address
// coherence placements, with a memoized transitive closure of both
// ordered-before relations.
// ---------------------------------------------------------------------------

/// One instance serves every combo of an enumeration: check() reads the
/// combo ComboEvents currently holds, and every buffer (closure stack, rf
/// candidate lists, groups) keeps its capacity across combos, so the steady
/// state allocates nothing.
class PorChecker {
 public:
  PorChecker(const ConcurrentProgram& p, const ModelOptions& opts,
             const ComboEvents& ce, OutcomeSet* out)
      : p_(p), opts_(opts), ce_(ce), out_(out) {
    for (Addr a : p_.observe_mem) observe_aix_.push_back(ce_.init_id(a));
  }

  /// Search every (rf, co) choice for the current combo, recording the
  /// outcome of each consistent leaf. Returns false when the candidate
  /// budget is exhausted.
  bool check() {
    const std::size_t n = ce_.ev.size();
    if (stack_.empty()) stack_.resize(1);
    State& base = stack_[0];
    base.ic.init(n);
    base.ec.init(n);

    // Choice-independent relation: each thread's static dob/bob closure
    // seeds the external closure and its po-loc closure the internal one;
    // the init writes' co edges (init is co-first at its address, external
    // to every thread) are static too. Base edges are intra-thread or
    // init->w and nothing reaches an init write, so copying the per-thread
    // closure rows and then closing the init rows is the exact closure.
    for (std::size_t t = 0; t < ce_.combo.size(); ++t) {
      const ThreadExec& x = *ce_.combo[t];
      const int off = ce_.thread_begin[t];
      for (std::size_t i = 0; i < x.events.size(); ++i) {
        const int id = off + static_cast<int>(i);
        base.ic.or_shifted(id, x.ic_local.row(static_cast<int>(i)),
                           x.ic_local.words(), off);
        base.ec.or_shifted(id, x.ec_local.row(static_cast<int>(i)),
                           x.ec_local.words(), off);
      }
    }
    for (std::size_t a = 0; a < ce_.addrs.size(); ++a)
      for (int w : ce_.writes[a]) {
        base.ic.absorb(static_cast<int>(a), w);
        base.ec.absorb(static_cast<int>(a), w);
      }

    // rf candidates, with the early-infeasibility cut: beyond the value
    // match the naive engine uses, a write the read already reaches in the
    // relation its rf edge would land in can never be the source without
    // closing a cycle — drop it before the search starts.
    const std::size_t nreads = ce_.reads.size();
    if (rf_cand_.size() < nreads) rf_cand_.resize(nreads);
    for (std::size_t i = 0; i < nreads; ++i) {
      const int r = ce_.reads[i];
      const Event& re = ce_.ev[r];
      auto& cand = rf_cand_[i];
      cand.clear();
      auto feasible = [&](int w) {
        if (ce_.ev[w].value != re.value) return false;
        if (base.ic.reach(r, w)) return false;
        if (ce_.ev[w].thread != re.thread && base.ec.reach(r, w))
          return false;
        return true;
      };
      if (feasible(re.aix)) cand.push_back(re.aix);  // the init write
      for (int w : ce_.writes[re.aix])
        if (feasible(w)) cand.push_back(w);
      if (cand.empty()) return true;  // combo infeasible, not over budget
    }

    // Coherence groups: per-address write sets whose total order the co
    // phase decides. The per-group placement mask is 32 bits wide; more
    // competing writes than that is far beyond any budget anyway.
    groups_.clear();
    std::size_t co_slots = 0;
    for (std::size_t a = 0; a < ce_.addrs.size(); ++a) {
      const std::vector<int>& ws = ce_.writes[a];  // ascending ids
      if (ws.empty()) continue;
      if (ws.size() > 32) {
        out_->complete = false;
        return true;
      }
      co_slots += ws.size();
      groups_.push_back({static_cast<int>(a), &ws});
    }
    group_last_.assign(groups_.size(), -1);

    if (stack_.size() < nreads + co_slots + 2)
      stack_.resize(nreads + co_slots + 2);
    rf_.assign(nreads, -1);
    return assign_rf(0, 0);
  }

 private:
  struct State {
    Reach ic;  ///< internal: po-loc ∪ rf ∪ co ∪ fr
    Reach ec;  ///< external: obs ∪ dob ∪ bob
  };
  struct Group {
    int aix = 0;
    const std::vector<int>* ws = nullptr;
  };

  bool charge() {
    if (++out_->candidates > opts_.max_candidates) {
      out_->complete = false;
      return false;
    }
    return true;
  }

  bool assign_rf(std::size_t i, std::size_t depth) {
    if (i == ce_.reads.size()) return place_groups(0, depth);
    const int r = ce_.reads[i];
    for (int w : rf_cand_[i]) {
      State& cur = stack_[depth];
      // Sleep-set-style skip: if the reverse direction is already forced by
      // earlier choices, the rf edge closes a cycle — prune the entire
      // subtree without even copying the closure.
      if (cur.ic.reach(r, w)) continue;
      if (ce_.ev[w].thread != ce_.ev[r].thread && cur.ec.reach(r, w))
        continue;
      if (!charge()) return false;
      State& nxt = stack_[depth + 1];
      nxt = cur;
      if (!add_rf(r, w, nxt)) continue;
      rf_[i] = w;
      if (!assign_rf(i + 1, depth + 1)) return false;
    }
    return true;
  }

  /// Edges forced by choosing rf source `w` for read `r` — exactly the
  /// per-candidate edges the naive engine derives from rf: the rf edge
  /// itself (rfe in external when cross-thread, (addr|data);rfi otherwise)
  /// plus, for an init-write source, the fr edges to every real write at
  /// the address (init is co-first, so they are known before co is chosen).
  bool add_rf(int r, int w, State& st) {
    if (!st.ic.add(w, r)) return false;
    const Event& we = ce_.ev[w];
    const Event& re = ce_.ev[r];
    if (we.thread != re.thread) {
      if (!st.ec.add(w, r)) return false;  // rfe ∈ obs
    } else {
      bool ok = true;
      ce_.for_deps(we.thread, we.addr_dep | we.data_dep, [&](int d) {
        if (ok && d != r) ok = st.ec.add(d, r);
      });
      if (!ok) return false;
    }
    if (we.thread == -1) {
      for (int w2 : ce_.writes[re.aix]) {
        if (!st.ic.add(r, w2)) return false;
        if (ce_.ev[w2].thread != re.thread && !st.ec.add(r, w2))
          return false;
      }
    }
    return true;
  }

  bool place_groups(std::size_t g, std::size_t depth) {
    if (g == groups_.size()) return record_outcome();
    const std::size_t sz = groups_[g].ws->size();
    const std::uint32_t full =
        sz >= 32 ? 0xffffffffu : ((1u << sz) - 1u);
    return place_co(g, full, depth);
  }

  /// Choose the co-next write of group `g` among the writes still in
  /// `mask`. Placing `w` decides the pairs (w, u) for every other remaining
  /// u — each ordered pair at the address is decided exactly once across
  /// the placement sequence, mirroring the naive engine's full pair list.
  bool place_co(std::size_t g, std::uint32_t mask, std::size_t depth) {
    const auto& ws = *groups_[g].ws;
    if ((mask & (mask - 1)) == 0) {  // at most one left: it is co-last
      group_last_[g] = mask ? ws[__builtin_ctz(mask)] : -1;
      return place_groups(g + 1, depth);
    }
    for (std::uint32_t bits = mask; bits != 0; bits &= bits - 1) {
      const int idx = __builtin_ctz(bits);
      const int w1 = ws[idx];
      if (!charge()) return false;
      State& cur = stack_[depth];
      State& nxt = stack_[depth + 1];
      nxt = cur;
      bool ok = true;
      for (std::uint32_t rest = mask & ~(1u << idx); ok && rest != 0;
           rest &= rest - 1)
        ok = add_co_pair(w1, ws[__builtin_ctz(rest)], nxt);
      if (ok && !place_co(g, mask & ~(1u << idx), depth + 1)) return false;
    }
    return true;
  }

  /// Edges forced by deciding co(w1, w2) — exactly the naive engine's
  /// per-pair edges: the co edge (coe in external when cross-thread, the
  /// (ctrl|data);coi and po;[L];coi clauses otherwise) plus fr edges from
  /// every read that takes its value from w1.
  bool add_co_pair(int w1, int w2, State& st) {
    if (!st.ic.add(w1, w2)) return false;
    const Event& e1 = ce_.ev[w1];
    const Event& e2 = ce_.ev[w2];
    if (e1.thread != e2.thread) {
      if (!st.ec.add(w1, w2)) return false;  // coe ∈ obs
    } else {
      bool ok = true;
      ce_.for_deps(e1.thread, e1.ctrl_dep | e1.data_dep,
                   [&](int r) { ok = ok && st.ec.add(r, w2); });
      if (!ok) return false;
      if (e1.rel)
        for (int b = ce_.thread_begin[e1.thread]; b < w1; ++b)
          if (ce_.ev[b].kind != Event::kFence && !st.ec.add(b, w2))
            return false;
    }
    // fr = rf⁻¹;co. All rf choices precede the co phase, so rf_ is final.
    for (std::size_t i = 0; i < ce_.reads.size(); ++i) {
      if (rf_[i] != w1) continue;
      const int r = ce_.reads[i];
      if (!st.ic.add(r, w2)) return false;
      if (ce_.ev[r].thread != e2.thread && !st.ec.add(r, w2)) return false;
    }
    return true;
  }

  /// A leaf: every rf chosen, every group totally ordered, no cycle ever
  /// formed — this (rf, co) candidate is consistent by construction, no
  /// final check needed.
  bool record_outcome() {
    ++out_->consistent;
    Outcome o;
    o.reserve(p_.observe_regs.size() + p_.observe_mem.size());
    for (const auto& [t, reg] : p_.observe_regs)
      o.push_back(reg == sim::XZR ? 0 : ce_.combo[t]->regs[reg]);
    for (int aix : observe_aix_) {
      std::uint64_t v = ce_.ev[aix].value;
      for (std::size_t g = 0; g < groups_.size(); ++g)
        if (groups_[g].aix == aix && group_last_[g] >= 0)
          v = ce_.ev[group_last_[g]].value;
      o.push_back(v);
    }
    out_->allowed.insert(std::move(o));
    return true;
  }

  const ConcurrentProgram& p_;
  const ModelOptions& opts_;
  const ComboEvents& ce_;
  OutcomeSet* out_;
  std::vector<int> observe_aix_;

  std::vector<std::vector<int>> rf_cand_;
  std::vector<int> rf_;
  std::vector<Group> groups_;
  std::vector<int> group_last_;
  /// One closure pair per DFS depth, reused across siblings and combos so
  /// steady-state search does no allocation — copies land in already-sized
  /// buffers.
  std::vector<State> stack_;
};

}  // namespace

OutcomeSet enumerate_outcomes(const ConcurrentProgram& p,
                              const ModelOptions& opts) {
  ARMBAR_PROF_SCOPE(kModelEnumerate);
  OutcomeSet out;
  // Candidate count lands in the profiler on every exit path (like the
  // enum_ns stamp, which also stays host-only and out of all digests).
  struct CandidateCount {
    const OutcomeSet& o;
    ~CandidateCount() { ARMBAR_PROF_COUNT(kModelExecutions, o.candidates); }
  } candidate_count{out};
  if (p.threads.empty() || p.threads.size() > 8) {
    out.error = "reference model supports 1..8 threads";
    return out;
  }
  for (const auto& [t, reg] : p.observe_regs) {
    (void)reg;
    if (t >= p.threads.size()) {
      out.error = "observe_regs names thread " + std::to_string(t) +
                  " but the program has " + std::to_string(p.threads.size());
      return out;
    }
  }
  std::map<Addr, std::uint64_t> init;
  for (const auto& [a, v] : p.init) init[a] = v;

  // Phase A: per-address value-domain fixpoint. The domain only ever grows,
  // so this terminates; the round cap guards pathological feedback loops.
  std::map<Addr, std::set<std::uint64_t>> dom;
  std::vector<std::vector<ThreadExec>> execs;
  for (int round = 0;; ++round) {
    execs.clear();
    for (const sim::Program& prog : p.threads) {
      ThreadInterp interp(prog, dom, init, opts, &out);
      execs.push_back(interp.run());
      if (!out.ok()) return out;
    }
    bool grew = false;
    for (const auto& texecs : execs)
      for (const ThreadExec& ex : texecs)
        for (const Event& e : ex.events)
          if (e.kind == Event::kWrite && dom[e.addr].insert(e.value).second)
            grew = true;
    for (const auto& [a, vs] : dom) {
      (void)a;
      if (vs.size() > opts.max_value_domain) {
        out.complete = false;
        return out;
      }
    }
    if (!grew) break;
    if (round >= 16) {
      out.complete = false;
      return out;
    }
  }

  // Every address any event touches gets a virtual initial write.
  std::set<Addr> addr_set;
  for (const auto& [a, v] : p.init) {
    (void)v;
    addr_set.insert(a);
  }
  for (Addr a : p.observe_mem) addr_set.insert(a);
  for (const auto& texecs : execs)
    for (const ThreadExec& ex : texecs)
      for (const Event& e : ex.events)
        if (e.kind != Event::kFence) addr_set.insert(e.addr);
  std::vector<Addr> addrs(addr_set.begin(), addr_set.end());
  std::vector<std::uint64_t> init_vals;
  for (Addr a : addrs) {
    const auto it = init.find(a);
    init_vals.push_back(it == init.end() ? 0 : it->second);
  }

  // Phase C: odometer over one candidate execution per thread; each combo
  // goes to the selected engine. enum_ns covers the whole phase on every
  // exit path.
  const auto enum_start = std::chrono::steady_clock::now();
  const auto stamp = [&] {
    out.enum_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - enum_start)
            .count());
  };
  const std::size_t T = execs.size();
  for (const auto& texecs : execs)
    if (texecs.empty()) return out;  // no completed path (complete=false set)
  summarize(execs, addrs, init_vals);
  ComboEvents ce(std::move(addrs), init_vals);
  PorChecker por(p, opts, ce, &out);
  std::vector<std::size_t> pick(T, 0);
  std::vector<const ThreadExec*> combo(T);
  for (;;) {
    for (std::size_t t = 0; t < T; ++t) combo[t] = &execs[t][pick[t]];
    ++out.combos;
    bool in_budget = true;
    if (opts.naive) {
      ce.build(combo);
      ComboChecker checker(p, opts, combo, ce, &out);
      in_budget = checker.check();
    } else if (starved(combo)) {
      ++out.combos_skipped;  // exactly the combos the search returns from
                             // before charging a node
    } else {
      ce.build(combo);
      in_budget = por.check();
    }
    if (!in_budget) {
      stamp();
      return out;  // budget exhausted
    }
    std::size_t t = 0;
    for (; t < T; ++t) {
      if (++pick[t] < execs[t].size()) break;
      pick[t] = 0;
    }
    if (t == T) break;
  }
  stamp();
  return out;
}

EquivalenceVerdict compare_outcome_sets(const OutcomeSet& a,
                                        const OutcomeSet& b) {
  EquivalenceVerdict v;
  if (!a.ok() || !b.ok()) {
    v.detail = "enumeration error: " + (a.ok() ? b.error : a.error);
    return v;
  }
  if (!a.complete || !b.complete) {
    v.detail = "enumeration incomplete (budget cap hit): allowed sets are "
               "lower bounds and cannot witness equivalence";
    return v;
  }
  v.comparable = true;
  for (const Outcome& o : a.allowed)
    if (b.allowed.count(o) == 0) {
      v.detail = "only in A: " + to_string(o);
      return v;
    }
  for (const Outcome& o : b.allowed)
    if (a.allowed.count(o) == 0) {
      v.detail = "only in B: " + to_string(o);
      return v;
    }
  v.equal = true;
  return v;
}

std::string to_string(const Outcome& o) {
  std::ostringstream os;
  os << '(';
  for (std::size_t i = 0; i < o.size(); ++i)
    os << (i ? "," : "") << o[i];
  os << ')';
  return os.str();
}

std::string to_string(const OutcomeSet& s) {
  std::ostringstream os;
  if (!s.ok()) return "error: " + s.error;
  os << '{';
  bool first = true;
  for (const Outcome& o : s.allowed) {
    os << (first ? "" : " ") << to_string(o);
    first = false;
  }
  os << '}';
  if (!s.complete) os << " (incomplete)";
  return os.str();
}

}  // namespace armbar::model
