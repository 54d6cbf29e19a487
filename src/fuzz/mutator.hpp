// Mutation engine over riscv::Program test inputs, implementing the
// operator families from the paper's fuzzing background (§2): bit/byte
// flipping, swapping, deleting and cloning — plus instruction-aware
// replacement/insertion so mutated programs stay mostly decodable, and a
// splice (crossover) operator for corpus recombination.
#pragma once

#include <string_view>

#include "riscv/program.hpp"
#include "util/rng.hpp"

namespace specure::fuzz {

enum class MutationOp : std::uint8_t {
  kBitFlip,
  kByteFlip,
  kSwapInstructions,
  kDeleteInstruction,
  kCloneInstruction,
  kReplaceInstruction,  ///< instruction-aware: new random valid instruction
  kInsertInstruction,
  kMutateImmediate,     ///< tweak an immediate field in place
  kMutateData,          ///< perturb the data image
  kCount,
};

std::string_view mutation_name(MutationOp op);

/// Apply one specific operator. Always returns a structurally valid
/// Program (code non-empty, bounded length).
riscv::Program apply_mutation(const riscv::Program& input, MutationOp op,
                              util::Rng& rng);

struct MutatorOptions {
  unsigned min_stack = 1;   ///< minimum operators applied per mutation
  unsigned max_stack = 4;   ///< maximum operators applied per mutation
  std::size_t max_code_len = 256;
  std::size_t max_data_len = 1024;
};

/// Apply a random stack of operators.
riscv::Program mutate(const riscv::Program& input, util::Rng& rng,
                      const MutatorOptions& options = {});

/// Crossover: head of `a` spliced with tail of `b`.
riscv::Program splice(const riscv::Program& a, const riscv::Program& b,
                      util::Rng& rng);

}  // namespace specure::fuzz
