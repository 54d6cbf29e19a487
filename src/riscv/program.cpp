#include "riscv/program.hpp"

#include <stdexcept>

#include "util/bits.hpp"

namespace specure::riscv {

std::vector<std::uint8_t> Program::to_bytes() const {
  std::vector<std::uint8_t> out;
  out.reserve(8 + code.size() * 4 + data.size());
  auto put_u32 = [&out](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  put_u32(static_cast<std::uint32_t>(code.size()));
  for (std::uint32_t w : code) put_u32(w);
  put_u32(static_cast<std::uint32_t>(data.size()));
  out.insert(out.end(), data.begin(), data.end());
  return out;
}

Program Program::from_bytes(const std::vector<std::uint8_t>& bytes) {
  Program p;
  std::size_t pos = 0;
  auto get_u32 = [&bytes, &pos]() -> std::uint32_t {
    std::uint32_t v = 0;
    for (int i = 0; i < 4 && pos < bytes.size(); ++i, ++pos) {
      v |= static_cast<std::uint32_t>(bytes[pos]) << (8 * i);
    }
    return v;
  };
  const std::uint32_t ninst = get_u32();
  for (std::uint32_t i = 0; i < ninst && pos + 4 <= bytes.size() + 4; ++i) {
    if (pos >= bytes.size()) break;
    p.code.push_back(get_u32());
  }
  const std::uint32_t ndata = get_u32();
  for (std::uint32_t i = 0; i < ndata && pos < bytes.size(); ++i, ++pos) {
    p.data.push_back(bytes[pos]);
  }
  return p;
}

std::string Program::to_hex() const {
  static const char* kDigits = "0123456789abcdef";
  const std::vector<std::uint8_t> bytes = to_bytes();
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

Program Program::from_hex(const std::string& hex) {
  if (hex.size() % 2 != 0) {
    throw std::runtime_error("program hex has odd length " +
                             std::to_string(hex.size()));
  }
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::vector<std::uint8_t> bytes;
  bytes.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      throw std::runtime_error(std::string("program hex has non-hex "
                                           "character '") +
                               hex[hi < 0 ? i : i + 1] + "'");
    }
    bytes.push_back(static_cast<std::uint8_t>(hi << 4 | lo));
  }
  return from_bytes(bytes);
}

ProgramBuilder& ProgramBuilder::raw(std::uint32_t word) {
  code_.push_back(word);
  return *this;
}

ProgramBuilder& ProgramBuilder::addi(std::uint8_t rd, std::uint8_t rs1,
                                     std::int64_t imm) {
  return raw(enc_i(Op::kAddi, rd, rs1, imm));
}

ProgramBuilder& ProgramBuilder::li(std::uint8_t rd, std::int64_t value) {
  // Standard RV64 constant materialization: LUI+ADDI when the value is a
  // sign-extended 32-bit quantity; otherwise build the upper part
  // recursively and shift it into place (SLLI+ADDI chain).
  const std::int64_t lo = util::sext(static_cast<std::uint64_t>(value), 12);
  if (value == util::sext(static_cast<std::uint64_t>(value), 32)) {
    const std::int64_t hi = value - lo;
    if (hi != 0) {
      raw(enc_u(Op::kLui, rd, hi));
      if (lo != 0) raw(enc_i(Op::kAddi, rd, rd, lo));
    } else {
      raw(enc_i(Op::kAddi, rd, 0, lo));
    }
    return *this;
  }
  li(rd, (value - lo) >> 12);
  raw(enc_i(Op::kSlli, rd, rd, 12));
  if (lo != 0) raw(enc_i(Op::kAddi, rd, rd, lo));
  return *this;
}

ProgramBuilder& ProgramBuilder::add(std::uint8_t rd, std::uint8_t rs1,
                                    std::uint8_t rs2) {
  return raw(enc_r(Op::kAdd, rd, rs1, rs2));
}
ProgramBuilder& ProgramBuilder::sub(std::uint8_t rd, std::uint8_t rs1,
                                    std::uint8_t rs2) {
  return raw(enc_r(Op::kSub, rd, rs1, rs2));
}
ProgramBuilder& ProgramBuilder::xor_(std::uint8_t rd, std::uint8_t rs1,
                                     std::uint8_t rs2) {
  return raw(enc_r(Op::kXor, rd, rs1, rs2));
}
ProgramBuilder& ProgramBuilder::slli(std::uint8_t rd, std::uint8_t rs1,
                                     unsigned shamt) {
  return raw(enc_i(Op::kSlli, rd, rs1, shamt));
}
ProgramBuilder& ProgramBuilder::ld(std::uint8_t rd, std::uint8_t rs1,
                                   std::int64_t off) {
  return raw(enc_i(Op::kLd, rd, rs1, off));
}
ProgramBuilder& ProgramBuilder::lw(std::uint8_t rd, std::uint8_t rs1,
                                   std::int64_t off) {
  return raw(enc_i(Op::kLw, rd, rs1, off));
}
ProgramBuilder& ProgramBuilder::lb(std::uint8_t rd, std::uint8_t rs1,
                                   std::int64_t off) {
  return raw(enc_i(Op::kLb, rd, rs1, off));
}
ProgramBuilder& ProgramBuilder::sd(std::uint8_t rs2, std::uint8_t rs1,
                                   std::int64_t off) {
  return raw(enc_s(Op::kSd, rs1, rs2, off));
}
ProgramBuilder& ProgramBuilder::sw(std::uint8_t rs2, std::uint8_t rs1,
                                   std::int64_t off) {
  return raw(enc_s(Op::kSw, rs1, rs2, off));
}
ProgramBuilder& ProgramBuilder::jalr(std::uint8_t rd, std::uint8_t rs1,
                                     std::int64_t off) {
  return raw(enc_i(Op::kJalr, rd, rs1, off));
}
ProgramBuilder& ProgramBuilder::csrrw(std::uint8_t rd, std::uint16_t csr,
                                      std::uint8_t rs1) {
  return raw(enc_csr(Op::kCsrrw, rd, rs1, csr));
}
ProgramBuilder& ProgramBuilder::csrrs(std::uint8_t rd, std::uint16_t csr,
                                      std::uint8_t rs1) {
  return raw(enc_csr(Op::kCsrrs, rd, rs1, csr));
}
ProgramBuilder& ProgramBuilder::csrrwi(std::uint8_t rd, std::uint16_t csr,
                                       std::uint8_t zimm) {
  return raw(enc_csr(Op::kCsrrwi, rd, zimm, csr));
}
ProgramBuilder& ProgramBuilder::nop() { return raw(enc_nop()); }
ProgramBuilder& ProgramBuilder::ecall() { return raw(enc_ecall()); }

ProgramBuilder& ProgramBuilder::label(const std::string& name) {
  labels_[name] = code_.size();
  return *this;
}

ProgramBuilder& ProgramBuilder::branch(Op op, std::uint8_t rs1,
                                       std::uint8_t rs2,
                                       const std::string& target) {
  fixups_.push_back({code_.size(), op, 0, rs1, rs2, target});
  code_.push_back(0);
  return *this;
}

ProgramBuilder& ProgramBuilder::jal(std::uint8_t rd,
                                    const std::string& target) {
  fixups_.push_back({code_.size(), Op::kJal, rd, 0, 0, target});
  code_.push_back(0);
  return *this;
}

ProgramBuilder& ProgramBuilder::la(std::uint8_t rd,
                                   const std::string& target) {
  fixups_.push_back({code_.size(), Op::kAuipc, rd, 0, 0, target});
  code_.push_back(0);
  code_.push_back(0);
  return *this;
}

ProgramBuilder& ProgramBuilder::with_data(std::vector<std::uint8_t> data) {
  data_ = std::move(data);
  return *this;
}

ProgramBuilder& ProgramBuilder::data_u64(std::size_t offset,
                                         std::uint64_t value) {
  if (data_.size() < offset + 8) data_.resize(offset + 8, 0);
  for (int i = 0; i < 8; ++i) {
    data_[offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
  }
  return *this;
}

Program ProgramBuilder::build() {
  for (const Fixup& f : fixups_) {
    auto it = labels_.find(f.target);
    if (it == labels_.end()) {
      throw std::runtime_error("ProgramBuilder: undefined label '" + f.target +
                               "'");
    }
    const std::int64_t off =
        (static_cast<std::int64_t>(it->second) -
         static_cast<std::int64_t>(f.index)) *
        4;
    if (f.op == Op::kJal) {
      code_[f.index] = enc_j(f.rd, off);
    } else if (f.op == Op::kAuipc) {
      // la: AUIPC rd, 0 ; ADDI rd, rd, offset  (offset fits 12 bits for
      // the program sizes seeds use).
      code_[f.index] = enc_u(Op::kAuipc, f.rd, 0);
      code_[f.index + 1] = enc_i(Op::kAddi, f.rd, f.rd, off);
    } else {
      code_[f.index] = enc_b(f.op, f.rs1, f.rs2, off);
    }
  }
  Program p;
  p.code = code_;
  p.data = data_;
  return p;
}

namespace {

// Ops the random generator draws from, weighted towards the categories the
// paper's fuzzer needs (control flow + memory + CSR to reach speculative
// windows and leakage channels).
constexpr Op kAluOps[] = {Op::kAddi, Op::kSlti,  Op::kXori, Op::kOri,
                          Op::kAndi, Op::kSlli,  Op::kSrli, Op::kSrai,
                          Op::kAdd,  Op::kSub,   Op::kSll,  Op::kXor,
                          Op::kOr,   Op::kAnd,   Op::kSltu, Op::kAddw,
                          Op::kSubw, Op::kMul,   Op::kDiv,  Op::kLui};
constexpr Op kBranchOps[] = {Op::kBeq, Op::kBne,  Op::kBlt,
                             Op::kBge, Op::kBltu, Op::kBgeu};
constexpr Op kLoadOps[] = {Op::kLb, Op::kLh,  Op::kLw,  Op::kLd,
                           Op::kLbu, Op::kLhu, Op::kLwu};
constexpr Op kStoreOps[] = {Op::kSb, Op::kSh, Op::kSw, Op::kSd};
constexpr Op kCsrOps[] = {Op::kCsrrw, Op::kCsrrs,  Op::kCsrrc,
                          Op::kCsrrwi, Op::kCsrrsi, Op::kCsrrci};

template <std::size_t N>
Op pick_op(util::Rng& rng, const Op (&ops)[N]) {
  return ops[rng.below(N)];
}

}  // namespace

std::uint32_t random_instruction(util::Rng& rng, std::size_t inst_index,
                                 std::size_t program_len) {
  const std::uint8_t rd = static_cast<std::uint8_t>(rng.below(32));
  const std::uint8_t rs1 = static_cast<std::uint8_t>(rng.below(32));
  const std::uint8_t rs2 = static_cast<std::uint8_t>(rng.below(32));
  const std::uint64_t kind = rng.below(100);

  if (kind < 45) {  // ALU
    const Op op = pick_op(rng, kAluOps);
    const std::int64_t imm = util::sext(rng.next(), 12);
    if (op == Op::kSlli || op == Op::kSrli || op == Op::kSrai) {
      return enc_i(op, rd, rs1, static_cast<std::int64_t>(rng.below(64)));
    }
    return encode(op, rd, rs1, rs2, op == Op::kLui ? (imm << 12) : imm);
  }
  if (kind < 62) {  // branch, with a bounded forward/backward offset
    const Op op = pick_op(rng, kBranchOps);
    const std::int64_t span = 8;
    std::int64_t lo = -std::min<std::int64_t>(span, static_cast<std::int64_t>(inst_index));
    std::int64_t hi = std::min<std::int64_t>(
        span, static_cast<std::int64_t>(program_len - inst_index));
    if (hi < 1) hi = 1;
    if (lo > hi) lo = hi;
    const std::int64_t delta =
        lo + static_cast<std::int64_t>(
                 rng.below(static_cast<std::uint64_t>(hi - lo + 1)));
    return enc_b(op, rs1, rs2, (delta == 0 ? 1 : delta) * 4);
  }
  if (kind < 78) {  // load, data-region relative via x31-style base pattern
    const Op op = pick_op(rng, kLoadOps);
    const std::int64_t off =
        static_cast<std::int64_t>(rng.below(512)) * access_size(op);
    return enc_i(op, rd, rs1, off & 0x7ff);
  }
  if (kind < 88) {  // store
    const Op op = pick_op(rng, kStoreOps);
    const std::int64_t off =
        static_cast<std::int64_t>(rng.below(512)) * access_size(op);
    return enc_s(op, rs1, rs2, off & 0x7ff);
  }
  if (kind < 96) {  // CSR access, drawn from the ISA's CSR address list
    const Op op = pick_op(rng, kCsrOps);
    const auto& pool = csr::fuzz_csr_pool();
    const std::uint16_t addr = pool[rng.below(pool.size())];
    return enc_csr(op, rd, rs1, addr);
  }
  // Jumps.
  if (rng.chance(1, 2)) {
    const std::int64_t delta =
        1 + static_cast<std::int64_t>(rng.below(4));
    return enc_j(rd, delta * 4);
  }
  return enc_i(Op::kJalr, rd, rs1, static_cast<std::int64_t>(rng.below(256)) * 4);
}

Program random_program(util::Rng& rng, std::size_t len, std::size_t data_len) {
  Program p;
  p.code.reserve(len);
  // Prologue: point x10 (A0) at the data region so random loads/stores hit
  // mapped memory often enough to exercise the cache.
  ProgramBuilder prologue;
  prologue.li(10, static_cast<std::int64_t>(kDataBase));
  for (std::uint32_t w : prologue.build().code) p.code.push_back(w);
  for (std::size_t i = p.code.size(); i < len; ++i) {
    p.code.push_back(random_instruction(rng, i, len));
  }
  p.data.resize(data_len);
  for (auto& b : p.data) b = static_cast<std::uint8_t>(rng.below(256));
  return p;
}

}  // namespace specure::riscv
