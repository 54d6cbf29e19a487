#include "sim/cache.hpp"

namespace specure::sim {

Dcache::Dcache(const CoreConfig& cfg, Memory& mem)
    : cfg_(cfg),
      mem_(mem),
      lines_(cfg.dcache_sets * cfg.dcache_ways),
      lru_(cfg.dcache_sets, 0) {}

std::uint64_t Dcache::line_base(std::uint64_t addr) const {
  return addr & ~static_cast<std::uint64_t>(cfg_.dcache_line_bytes - 1);
}

unsigned Dcache::set_index(std::uint64_t addr) const {
  return static_cast<unsigned>((addr / cfg_.dcache_line_bytes) %
                               cfg_.dcache_sets);
}

std::uint64_t Dcache::compute_digest(std::uint64_t line_addr) const {
  std::uint64_t digest = 0;
  for (unsigned off = 0; off < cfg_.dcache_line_bytes; off += 8) {
    digest ^= mem_.read(line_addr + off, 8) + 0x9e3779b97f4a7c15ULL +
              (digest << 6) + (digest >> 2);
  }
  return digest;
}

Dcache::Line* Dcache::lookup(std::uint64_t addr) {
  const std::uint64_t base = line_base(addr);
  const unsigned set = set_index(addr);
  for (unsigned w = 0; w < cfg_.dcache_ways; ++w) {
    Line& line = lines_[set * cfg_.dcache_ways + w];
    if (line.valid && line.tag == base) {
      lru_[set] = static_cast<std::uint8_t>((w + 1) % cfg_.dcache_ways);
      return &line;
    }
  }
  return nullptr;
}

void Dcache::fill(std::uint64_t addr) {
  const std::uint64_t base = line_base(addr);
  const unsigned set = set_index(addr);
  const unsigned victim = lru_[set];
  Line& line = lines_[set * cfg_.dcache_ways + victim];
  if (line.valid && hook_) hook_(line.tag, DcacheEvent::kEviction);
  line.valid = true;
  line.tag = base;
  line.digest = compute_digest(base);
  lru_[set] = static_cast<std::uint8_t>((victim + 1) % cfg_.dcache_ways);
  if (hook_) hook_(base, DcacheEvent::kFill);
}

bool Dcache::load(std::uint64_t addr, unsigned size, std::uint64_t& value) {
  value = mem_.read(addr, size);
  if (!mem_.data_mapped(addr, size)) return true;  // bypass: no cache effect
  mark_set(addr);  // even a hit rotates the LRU cursor
  if (lookup(addr) != nullptr) {
    if (hook_) hook_(line_base(addr), DcacheEvent::kHit);
    return true;
  }
  fill(addr);
  return false;
}

void Dcache::store(std::uint64_t addr, unsigned size, std::uint64_t value) {
  mem_.write(addr, size, value);
  if (!mem_.data_mapped(addr, size)) return;
  mark_set(addr);
  Line* line = lookup(addr);
  if (line == nullptr) {
    fill(addr);  // fill() digests the already-updated memory
  } else {
    line->digest = compute_digest(line->tag);
  }
  if (hook_) hook_(line_base(addr), DcacheEvent::kWrite);
}

bool Dcache::valid(unsigned set, unsigned way) const {
  return lines_[set * cfg_.dcache_ways + way].valid;
}
std::uint64_t Dcache::tag(unsigned set, unsigned way) const {
  return lines_[set * cfg_.dcache_ways + way].tag;
}
std::uint64_t Dcache::data_digest(unsigned set, unsigned way) const {
  return lines_[set * cfg_.dcache_ways + way].digest;
}

bool Dcache::line_resident(std::uint64_t addr) const {
  const std::uint64_t base = line_base(addr);
  const unsigned set = set_index(addr);
  for (unsigned w = 0; w < cfg_.dcache_ways; ++w) {
    const Line& line = lines_[set * cfg_.dcache_ways + w];
    if (line.valid && line.tag == base) return true;
  }
  return false;
}

}  // namespace specure::sim
