// Program container + fluent assembler for the micro-ISA.
//
// All experiment workloads (src/simprog) are built through `Asm`, a tiny
// label-resolving assembler:
//
//   Asm a;
//   a.movi(X2, 0);
//   a.label("loop");
//   a.ldr(X3, X0, 0);
//   a.dmb_full();
//   a.addi(X2, X2, 1);
//   a.cmpi(X2, n);
//   a.ble("loop");
//   a.halt();
//   Program p = a.take("my-kernel");
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "sim/isa.hpp"

namespace armbar::sim {

/// An assembled program: straight-line instruction vector; branches hold
/// resolved instruction indices.
struct Program {
  std::string name;
  std::vector<Instr> code;

  std::uint32_t size() const { return static_cast<std::uint32_t>(code.size()); }
  const Instr& at(std::uint32_t pc) const { return code[pc]; }
  std::string disassemble() const;

  /// Round-trippable text form (armbar.simprog/v1): a `.name` line followed
  /// by one `<op-token> <rd> <rn> <rm> <imm> <target>` line per instruction.
  /// This — not disassemble(), whose mnemonics contain spaces/brackets — is
  /// the format embedded in repro bundles.
  std::string serialize() const;

  friend bool operator==(const Program&, const Program&) = default;
};

/// Parse Program::serialize() output. Returns false (and sets *err) on any
/// malformed line; on success *out holds the program.
bool parse_program(const std::string& text, Program* out, std::string* err);

// ---- predecoded micro-op stream (ISSUE 7 fast path) ----------------------
//
// Everything Core::issue needs per instruction, resolved once at load time
// into one cache-friendly array: the dispatch class, the registers whose
// readiness gates issue, and the flavour bits the grouped load/store/barrier
// cases test (instead of re-comparing Op at several sites per instruction).

/// MicroOp::flags bits.
inline constexpr std::uint8_t kUopNonspec = 1u << 0;  ///< never issues speculatively
inline constexpr std::uint8_t kUopIndexed = 1u << 1;  ///< address = rn + rm (else rn + imm)
inline constexpr std::uint8_t kUopRelease = 1u << 2;  ///< STLR store-release
inline constexpr std::uint8_t kUopAcqSc = 1u << 3;    ///< LDAR acquire (RCsc)
inline constexpr std::uint8_t kUopAcqPc = 1u << 4;    ///< LDAPR acquire (RCpc)
inline constexpr std::uint8_t kUopExcl = 1u << 5;     ///< LDXR sets the monitor

struct MicroOp {
  Op op = Op::kNop;            ///< original opcode (traces, barrier kind, ALU)
  OpClass cls = OpClass::kNop;
  Reg rd = XZR;
  Reg rn = XZR;
  Reg rm = XZR;
  std::uint8_t src1 = XZR;     ///< issue gates: registers whose ready-cycle
  std::uint8_t src2 = XZR;     ///<   must have passed (XZR = no constraint)
  std::uint8_t flags = 0;
  std::int64_t imm = 0;
  /// Branches: the resolved target pc. Nops (which have no target): the
  /// number of consecutive nops from this pc to the end of the run,
  /// counting this one — filled in by DecodedProgram, so a branch into the
  /// middle of a run lands on a correct count with no special case.
  std::uint32_t target = 0;
};

/// Predecode one instruction at `pc`. Exposed for the coverage unit test;
/// callers normally go through decode_program().
MicroOp decode_instr(const Instr& ins);

/// An immutable predecoded program: owns the source Program (no pointer
/// lifetime to manage) plus the micro-op array the core executes from,
/// with every nop's remaining run length in its `target` field.
class DecodedProgram {
 public:
  explicit DecodedProgram(Program src);

  const Program& source() const { return src_; }
  const std::string& name() const { return src_.name; }
  std::uint32_t size() const { return static_cast<std::uint32_t>(uops_.size()); }
  const MicroOp* uops() const { return uops_.data(); }

 private:
  Program src_;
  std::vector<MicroOp> uops_;
};

/// The unit of program binding: Assembler::take() -> Program ->
/// decode_program() -> handle -> Machine::load_program. Shared so one
/// predecode serves any number of cores (and outlives the Machine if the
/// caller keeps it).
using ProgramHandle = std::shared_ptr<const DecodedProgram>;

ProgramHandle decode_program(Program src);

/// Fluent assembler with forward-reference label resolution.
class Asm {
 public:
  Asm& label(const std::string& name) {
    ARMBAR_CHECK_MSG(!labels_.contains(name), "duplicate label");
    labels_[name] = static_cast<std::uint32_t>(code_.size());
    return *this;
  }

  // --- misc ---
  Asm& nop() { return emit({Op::kNop}); }
  Asm& nops(std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) nop();
    return *this;
  }
  Asm& halt() { return emit({Op::kHalt}); }
  Asm& wfe() { return emit({Op::kWfe}); }

  // --- ALU ---
  Asm& movi(Reg rd, std::int64_t imm) { return emit({Op::kMovImm, rd, XZR, XZR, imm}); }
  Asm& mov(Reg rd, Reg rn) { return emit({Op::kMov, rd, rn}); }
  Asm& add(Reg rd, Reg rn, Reg rm) { return emit({Op::kAdd, rd, rn, rm}); }
  Asm& addi(Reg rd, Reg rn, std::int64_t imm) { return emit({Op::kAddImm, rd, rn, XZR, imm}); }
  Asm& sub(Reg rd, Reg rn, Reg rm) { return emit({Op::kSub, rd, rn, rm}); }
  Asm& subi(Reg rd, Reg rn, std::int64_t imm) { return emit({Op::kSubImm, rd, rn, XZR, imm}); }
  Asm& and_(Reg rd, Reg rn, Reg rm) { return emit({Op::kAnd, rd, rn, rm}); }
  Asm& andi(Reg rd, Reg rn, std::int64_t imm) { return emit({Op::kAndImm, rd, rn, XZR, imm}); }
  Asm& orr(Reg rd, Reg rn, Reg rm) { return emit({Op::kOrr, rd, rn, rm}); }
  Asm& orri(Reg rd, Reg rn, std::int64_t imm) { return emit({Op::kOrrImm, rd, rn, XZR, imm}); }
  Asm& eor(Reg rd, Reg rn, Reg rm) { return emit({Op::kEor, rd, rn, rm}); }
  Asm& eori(Reg rd, Reg rn, std::int64_t imm) { return emit({Op::kEorImm, rd, rn, XZR, imm}); }
  Asm& lsl(Reg rd, Reg rn, Reg rm) { return emit({Op::kLsl, rd, rn, rm}); }
  Asm& lsli(Reg rd, Reg rn, std::int64_t imm) { return emit({Op::kLslImm, rd, rn, XZR, imm}); }
  Asm& lsr(Reg rd, Reg rn, Reg rm) { return emit({Op::kLsr, rd, rn, rm}); }
  Asm& lsri(Reg rd, Reg rn, std::int64_t imm) { return emit({Op::kLsrImm, rd, rn, XZR, imm}); }
  Asm& mul(Reg rd, Reg rn, Reg rm) { return emit({Op::kMul, rd, rn, rm}); }

  // --- memory ---
  Asm& ldr(Reg rd, Reg rn, std::int64_t off = 0) { return emit({Op::kLdr, rd, rn, XZR, off}); }
  Asm& ldr_idx(Reg rd, Reg rn, Reg rm) { return emit({Op::kLdrIdx, rd, rn, rm}); }
  Asm& str(Reg rs, Reg rn, std::int64_t off = 0) { return emit({Op::kStr, rs, rn, XZR, off}); }
  Asm& str_idx(Reg rs, Reg rn, Reg rm) { return emit({Op::kStrIdx, rs, rn, rm}); }
  Asm& ldar(Reg rd, Reg rn, std::int64_t off = 0) { return emit({Op::kLdar, rd, rn, XZR, off}); }
  Asm& ldapr(Reg rd, Reg rn, std::int64_t off = 0) { return emit({Op::kLdapr, rd, rn, XZR, off}); }
  Asm& stlr(Reg rs, Reg rn, std::int64_t off = 0) { return emit({Op::kStlr, rs, rn, XZR, off}); }
  Asm& ldxr(Reg rd, Reg rn) { return emit({Op::kLdxr, rd, rn}); }
  /// stxr rd, rs, [rn] — rd gets 0 on success, 1 on failure.
  Asm& stxr(Reg rd, Reg rs, Reg rn) { return emit({Op::kStxr, rd, rn, rs}); }
  /// swp rd, rs, [rn] — atomic exchange: rd <- old value, [rn] <- rs.
  Asm& swp(Reg rd, Reg rs, Reg rn) { return emit({Op::kSwp, rd, rn, rs}); }

  // --- compare & branch ---
  Asm& cmp(Reg rn, Reg rm) { return emit({Op::kCmp, XZR, rn, rm}); }
  Asm& cmpi(Reg rn, std::int64_t imm) { return emit({Op::kCmpImm, XZR, rn, XZR, imm}); }
  Asm& b(const std::string& l) { return branch(Op::kB, XZR, l); }
  Asm& beq(const std::string& l) { return branch(Op::kBeq, XZR, l); }
  Asm& bne(const std::string& l) { return branch(Op::kBne, XZR, l); }
  Asm& blt(const std::string& l) { return branch(Op::kBlt, XZR, l); }
  Asm& ble(const std::string& l) { return branch(Op::kBle, XZR, l); }
  Asm& bgt(const std::string& l) { return branch(Op::kBgt, XZR, l); }
  Asm& bge(const std::string& l) { return branch(Op::kBge, XZR, l); }
  Asm& cbz(Reg rn, const std::string& l) { return branch(Op::kCbz, rn, l); }
  Asm& cbnz(Reg rn, const std::string& l) { return branch(Op::kCbnz, rn, l); }

  // --- barriers ---
  Asm& dmb_full() { return emit({Op::kDmbFull}); }
  Asm& dmb_st() { return emit({Op::kDmbSt}); }
  Asm& dmb_ld() { return emit({Op::kDmbLd}); }
  Asm& dsb_full() { return emit({Op::kDsbFull}); }
  Asm& dsb_st() { return emit({Op::kDsbSt}); }
  Asm& dsb_ld() { return emit({Op::kDsbLd}); }
  Asm& isb() { return emit({Op::kIsb}); }

  /// Append a raw instruction (used by generator code that picks ops
  /// dynamically, e.g. "insert barrier kind K here").
  Asm& emit(Instr ins) {
    code_.push_back(ins);
    return *this;
  }

  /// Finalize: resolve all label references; returns the program.
  Program take(std::string name);

  std::uint32_t here() const { return static_cast<std::uint32_t>(code_.size()); }

 private:
  Asm& branch(Op op, Reg rn, const std::string& l) {
    fixups_.emplace_back(static_cast<std::uint32_t>(code_.size()), l);
    return emit({op, XZR, rn, XZR, 0, 0});
  }

  std::vector<Instr> code_;
  std::unordered_map<std::string, std::uint32_t> labels_;
  std::vector<std::pair<std::uint32_t, std::string>> fixups_;
};

}  // namespace armbar::sim
