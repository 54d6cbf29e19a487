#include "sim/iss.hpp"

#include "util/bits.hpp"

namespace specure::sim {

using riscv::DecodedInst;
using riscv::Op;

namespace {

std::uint64_t alu(const DecodedInst& d, std::uint64_t a, std::uint64_t b) {
  const std::int64_t sa = static_cast<std::int64_t>(a);
  const std::int64_t sb = static_cast<std::int64_t>(b);
  auto sext32 = [](std::uint64_t v) {
    return static_cast<std::uint64_t>(
        static_cast<std::int64_t>(static_cast<std::int32_t>(v)));
  };
  switch (d.op) {
    case Op::kAddi: case Op::kAdd: return a + b;
    case Op::kSub: return a - b;
    case Op::kSlti: case Op::kSlt: return sa < sb ? 1 : 0;
    case Op::kSltiu: case Op::kSltu: return a < b ? 1 : 0;
    case Op::kXori: case Op::kXor: return a ^ b;
    case Op::kOri: case Op::kOr: return a | b;
    case Op::kAndi: case Op::kAnd: return a & b;
    case Op::kSlli: case Op::kSll: return a << (b & 63);
    case Op::kSrli: case Op::kSrl: return a >> (b & 63);
    case Op::kSrai: case Op::kSra:
      return static_cast<std::uint64_t>(sa >> (b & 63));
    case Op::kAddiw: case Op::kAddw: return sext32(a + b);
    case Op::kSubw: return sext32(a - b);
    case Op::kSlliw: case Op::kSllw: return sext32(a << (b & 31));
    case Op::kSrliw: case Op::kSrlw:
      return sext32(static_cast<std::uint32_t>(a) >> (b & 31));
    case Op::kSraiw: case Op::kSraw:
      return sext32(static_cast<std::uint64_t>(
          static_cast<std::int32_t>(a) >> (b & 31)));
    case Op::kLui: return static_cast<std::uint64_t>(d.imm);
    case Op::kMul: return a * b;
    case Op::kMulh:
      return static_cast<std::uint64_t>(
          (static_cast<__int128>(sa) * static_cast<__int128>(sb)) >> 64);
    case Op::kDiv:
      if (b == 0) return ~0ULL;
      if (sa == INT64_MIN && sb == -1) return a;
      return static_cast<std::uint64_t>(sa / sb);
    case Op::kDivu: return b == 0 ? ~0ULL : a / b;
    case Op::kRem:
      if (b == 0) return a;
      if (sa == INT64_MIN && sb == -1) return 0;
      return static_cast<std::uint64_t>(sa % sb);
    case Op::kRemu: return b == 0 ? a : a % b;
    default: return 0;
  }
}

bool taken(Op op, std::uint64_t a, std::uint64_t b) {
  const std::int64_t sa = static_cast<std::int64_t>(a);
  const std::int64_t sb = static_cast<std::int64_t>(b);
  switch (op) {
    case Op::kBeq: return a == b;
    case Op::kBne: return a != b;
    case Op::kBlt: return sa < sb;
    case Op::kBge: return sa >= sb;
    case Op::kBltu: return a < b;
    case Op::kBgeu: return a >= b;
    default: return false;
  }
}

}  // namespace

IssResult Iss::run(const riscv::Program& program,
                   std::uint64_t max_instructions) {
  IssResult res;
  run(program, res, max_instructions);
  return res;
}

void Iss::run(const riscv::Program& program, IssResult& out,
              std::uint64_t max_instructions) {
  decode_.build(program.code);
  IssResult& res = out;
  res.regs.fill(0);
  res.pc = 0;
  res.instructions = 0;
  res.halted_clean = false;
  mem_.load(program);
  csr_.reset();
  std::uint64_t pc = riscv::kCodeBase;
  auto& x = res.regs;

  // In-image aligned fetches read the predecoded array by index;
  // everything else (misaligned, off-image) fetches word 0 and decodes
  // to the illegal/trap path — exactly the per-instruction decode(w)
  // behavior this cache replaces.
  const auto decode_at = [&](std::uint64_t at) -> DecodedInst {
    if (at >= riscv::kCodeBase && (at & 3) == 0) {
      const std::uint64_t index = (at - riscv::kCodeBase) / 4;
      if (index < decode_.insts.size()) return decode_.insts[index];
    }
    return riscv::decode(mem_.fetch(at));
  };

  while (res.instructions < max_instructions) {
    const DecodedInst d = decode_at(pc);
    ++res.instructions;
    if (!d.valid()) {  // illegal or fall-off: trap model halts the core
      res.halted_clean = true;
      break;
    }
    std::uint64_t next = pc + 4;
    const std::uint64_t v1 = x[d.rs1];
    const std::uint64_t v2 = x[d.rs2];
    std::uint64_t rd_val = 0;
    bool write_rd = false;

    switch (riscv::format_of(d.op)) {
      case riscv::Format::kR:
        rd_val = alu(d, v1, v2);
        write_rd = true;
        break;
      case riscv::Format::kU:
        rd_val = d.op == Op::kAuipc
                     ? pc + static_cast<std::uint64_t>(d.imm)
                     : static_cast<std::uint64_t>(d.imm);
        write_rd = true;
        break;
      case riscv::Format::kI:
        if (riscv::is_load(d.op)) {
          const std::uint64_t addr =
              v1 + static_cast<std::uint64_t>(d.imm);
          const unsigned size = riscv::access_size(d.op);
          std::uint64_t raw = mem_.read(addr, size);
          switch (d.op) {
            case Op::kLb: rd_val = static_cast<std::uint64_t>(util::sext(raw, 8)); break;
            case Op::kLh: rd_val = static_cast<std::uint64_t>(util::sext(raw, 16)); break;
            case Op::kLw: rd_val = static_cast<std::uint64_t>(util::sext(raw, 32)); break;
            default: rd_val = raw; break;
          }
          write_rd = true;
        } else if (d.op == Op::kJalr) {
          rd_val = pc + 4;
          write_rd = true;
          next = (v1 + static_cast<std::uint64_t>(d.imm)) & ~1ULL;
        } else {
          rd_val = alu(d, v1, static_cast<std::uint64_t>(d.imm));
          write_rd = true;
        }
        break;
      case riscv::Format::kS:
        mem_.write(v1 + static_cast<std::uint64_t>(d.imm),
                   riscv::access_size(d.op), v2);
        break;
      case riscv::Format::kB:
        if (taken(d.op, v1, v2)) next = pc + static_cast<std::uint64_t>(d.imm);
        break;
      case riscv::Format::kJ:
        rd_val = pc + 4;
        write_rd = true;
        next = pc + static_cast<std::uint64_t>(d.imm);
        break;
      case riscv::Format::kCsr:
      case riscv::Format::kCsrImm: {
        const std::uint64_t old = csr_.read(d.csr);
        const std::uint64_t operand =
            riscv::format_of(d.op) == riscv::Format::kCsrImm ? d.zimm : v1;
        std::uint64_t nv = old;
        bool write = false;
        switch (d.op) {
          case Op::kCsrrw: case Op::kCsrrwi: nv = operand; write = true; break;
          case Op::kCsrrs: case Op::kCsrrsi:
            nv = old | operand;
            write = operand != 0;
            break;
          case Op::kCsrrc: case Op::kCsrrci:
            nv = old & ~operand;
            write = operand != 0;
            break;
          default: break;
        }
        if (write && csr_.implemented(d.csr)) csr_.write(d.csr, nv);
        rd_val = old;
        write_rd = true;
        break;
      }
      case riscv::Format::kSys:
        if (d.op == Op::kEcall || d.op == Op::kEbreak) {
          res.halted_clean = true;
          res.pc = pc;
          if (write_rd && d.rd != 0) x[d.rd] = rd_val;
          return;
        }
        break;
    }
    if (write_rd && d.rd != 0) x[d.rd] = rd_val;
    pc = next;
  }
  res.pc = pc;
}

}  // namespace specure::sim
