// Micro-ISA of the ARMv8-lite simulator.
//
// The instruction set is the minimal ARMv8 subset the paper's workloads need:
// loads/stores (plain, acquire/release, exclusive), ALU ops, compare and
// branch, NOP, and the full barrier family (DMB/DSB with full/st/ld options,
// ISB). Semantics follow the ARM ARM as summarized in the paper's §2.2.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace armbar::sim {

/// Register names. 31 general-purpose registers plus XZR (reads as zero,
/// writes discarded), matching AArch64 conventions.
enum Reg : std::uint8_t {
  X0 = 0, X1, X2, X3, X4, X5, X6, X7, X8, X9, X10, X11, X12, X13, X14, X15,
  X16, X17, X18, X19, X20, X21, X22, X23, X24, X25, X26, X27, X28, X29, X30,
  XZR = 31,
};
inline constexpr std::uint32_t kNumRegs = 32;

enum class Op : std::uint8_t {
  kNop,
  kHalt,      // core stops; machine finishes when all cores halt
  kWfe,       // wait-for-event: park until a watched line changes (see core.cpp)

  // ALU — rd <- rn OP (rm | imm)
  kMovImm,    // rd <- imm
  kMov,       // rd <- rn
  kAdd, kAddImm,
  kSub, kSubImm,
  kAnd, kAndImm,
  kOrr, kOrrImm,
  kEor, kEorImm,
  kLsl, kLslImm,
  kLsr, kLsrImm,
  kMul,

  // Memory — address = rn + imm (kLdr/kStr) or rn + rm (kLdrIdx/kStrIdx).
  // All accesses are 8-byte, naturally aligned (single-copy atomic).
  kLdr, kLdrIdx,
  kStr, kStrIdx,
  kLdar,      // load-acquire (RCsc)
  kLdapr,     // load-acquire RCpc (ARMv8.3): weaker pipe impact, see core.cpp
  kStlr,      // store-release
  kLdxr,      // load-exclusive (sets local monitor)
  kStxr,      // store-exclusive; rd <- 0 on success, 1 on failure
  kSwp,       // atomic exchange (ARMv8.1 LSE): rd <- [rn], [rn] <- rm

  // Compare & branch. kCmp sets the (signed) condition value rn - rm.
  kCmp, kCmpImm,
  kB,         // unconditional
  kBeq, kBne, kBlt, kBle, kBgt, kBge,
  kCbz, kCbnz,  // compare rn against zero and branch

  // Barriers (inner-shareable domain; the paper only studies `ish`).
  kDmbFull, kDmbSt, kDmbLd,
  kDsbFull, kDsbSt, kDsbLd,
  kIsb,
};

/// True when `op` is any barrier instruction.
constexpr bool is_barrier(Op op) {
  switch (op) {
    case Op::kDmbFull: case Op::kDmbSt: case Op::kDmbLd:
    case Op::kDsbFull: case Op::kDsbSt: case Op::kDsbLd:
    case Op::kIsb:
      return true;
    default:
      return false;
  }
}

constexpr bool is_load(Op op) {
  return op == Op::kLdr || op == Op::kLdrIdx || op == Op::kLdar ||
         op == Op::kLdapr || op == Op::kLdxr;
}

constexpr bool is_store(Op op) {
  return op == Op::kStr || op == Op::kStrIdx || op == Op::kStlr ||
         op == Op::kStxr || op == Op::kSwp;
}

constexpr bool is_branch(Op op) {
  switch (op) {
    case Op::kB: case Op::kBeq: case Op::kBne: case Op::kBlt:
    case Op::kBle: case Op::kBgt: case Op::kBge: case Op::kCbz: case Op::kCbnz:
      return true;
    default:
      return false;
  }
}

constexpr bool is_conditional_branch(Op op) {
  return is_branch(op) && op != Op::kB;
}

/// Number of opcodes (dense: Op values are 0..kNumOps-1). Lets the
/// predecoder and its coverage test iterate the whole ISA.
inline constexpr std::uint32_t kNumOps = static_cast<std::uint32_t>(Op::kIsb) + 1;

/// Dispatch class of an opcode. The predecoder tags every instruction with
/// one of these so Core::issue switches once on a dense ~dozen-way class
/// instead of re-switching on the ~45-way Op at several sites per
/// instruction. Flavour differences within a class (which ALU operation,
/// which acquire semantics, which blocking-barrier transaction) ride along
/// as the original Op plus predecoded flag bits.
enum class OpClass : std::uint8_t {
  kNop,
  kHalt,
  kWfe,
  kAlu,              ///< MOV/MOVI, arithmetic/logic/shift, CMP/CMPI
  kJump,             ///< unconditional B
  kCondBranch,       ///< Beq..Bge, Cbz/Cbnz
  kLoad,             ///< LDR/LDR-idx/LDAR/LDAPR/LDXR
  kStore,            ///< STR/STR-idx/STLR (store-buffer entry)
  kSwp,
  kStxr,
  kIsb,
  kDmbLd,            ///< blocks until prior loads complete, no bus txn
  kBlockingBarrier,  ///< DMB full + DSB family: watch prior stores, pay txn
  kDmbSt,            ///< arms the store gate, pipe keeps flowing
};

/// Total Op -> OpClass map. No default case: adding an Op without
/// classifying it is a compile error under -Werror=switch.
constexpr OpClass op_class(Op op) {
  switch (op) {
    case Op::kNop: return OpClass::kNop;
    case Op::kHalt: return OpClass::kHalt;
    case Op::kWfe: return OpClass::kWfe;
    case Op::kMovImm: case Op::kMov:
    case Op::kAdd: case Op::kAddImm: case Op::kSub: case Op::kSubImm:
    case Op::kAnd: case Op::kAndImm: case Op::kOrr: case Op::kOrrImm:
    case Op::kEor: case Op::kEorImm: case Op::kLsl: case Op::kLslImm:
    case Op::kLsr: case Op::kLsrImm: case Op::kMul:
    case Op::kCmp: case Op::kCmpImm:
      return OpClass::kAlu;
    case Op::kB: return OpClass::kJump;
    case Op::kBeq: case Op::kBne: case Op::kBlt: case Op::kBle:
    case Op::kBgt: case Op::kBge: case Op::kCbz: case Op::kCbnz:
      return OpClass::kCondBranch;
    case Op::kLdr: case Op::kLdrIdx: case Op::kLdar: case Op::kLdapr:
    case Op::kLdxr:
      return OpClass::kLoad;
    case Op::kStr: case Op::kStrIdx: case Op::kStlr:
      return OpClass::kStore;
    case Op::kSwp: return OpClass::kSwp;
    case Op::kStxr: return OpClass::kStxr;
    case Op::kIsb: return OpClass::kIsb;
    case Op::kDmbLd: return OpClass::kDmbLd;
    case Op::kDmbFull: case Op::kDsbFull: case Op::kDsbSt: case Op::kDsbLd:
      return OpClass::kBlockingBarrier;
    case Op::kDmbSt: return OpClass::kDmbSt;
  }
  return OpClass::kNop;  // unreachable: the switch is total
}

/// One decoded instruction. `target` holds the resolved instruction index
/// for branches (filled in by the assembler when labels resolve).
struct Instr {
  Op op = Op::kNop;
  Reg rd = XZR;
  Reg rn = XZR;
  Reg rm = XZR;
  std::int64_t imm = 0;
  std::uint32_t target = 0;

  friend bool operator==(const Instr&, const Instr&) = default;
};

/// Human-readable mnemonic (diagnostics, traces, test failure messages).
std::string to_string(Op op);
std::string to_string(const Instr& ins);

/// Stable single-token opcode name for text serialization (no spaces or
/// parentheses, unlike the display mnemonics: "dmb.ish", "ldr.idx", ...).
/// These names are part of the armbar.repro/v1 bundle format — do not
/// rename existing tokens.
const char* op_token(Op op);

/// Inverse of op_token(); returns false on an unknown token.
bool op_from_token(const std::string& token, Op* out);

}  // namespace armbar::sim
