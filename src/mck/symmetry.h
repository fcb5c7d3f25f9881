// Symmetry-reduction helpers: canonical-form hashing collapses states that
// differ only by a permutation of interchangeable components (UEs) onto one
// orbit representative, which is what actually gets interned into the
// visited table. A model's `canonicalize` oracle typically sorts its per-UE
// blocks with SortBlocks below; MultisetOrbitSize computes how many concrete
// states the representative stands for, which the engine sums into the
// `represented_states` stat (for a fully symmetric model the sum over all
// reached representatives equals the size of the unreduced reachable set —
// pinned by tests/mck_symmetry_test.cc).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

namespace cnv::mck {

// Sorts the first `n` blocks of a fixed-size component array into the
// canonical (ascending) order; `n` beyond N means all N. Blocks need
// operator<; ties are fine (stable order does not matter for a sort into a
// total preorder of equal keys).
template <typename Block, std::size_t N>
void SortBlocks(std::array<Block, N>& blocks, std::size_t n) {
  n = std::min(n, N);
  std::sort(blocks.begin(), blocks.begin() + static_cast<std::ptrdiff_t>(n));
}

// Orbit size of a sorted block sequence under the full symmetric group:
// n! / prod over equal-block groups of (group size)!. Blocks need
// operator==; the sequence must already be sorted so equal blocks are
// adjacent. `n` beyond N means all N.
template <typename Block, std::size_t N>
std::uint64_t MultisetOrbitSize(const std::array<Block, N>& blocks,
                                std::size_t n) {
  n = std::min(n, N);
  std::uint64_t orbit = 1;
  std::uint64_t run = 1;  // length of the equal-block run ending at i
  for (std::size_t i = 1; i < n; ++i) {
    run = blocks[i] == blocks[i - 1] ? run + 1 : 1;
    // Invariant: before this step `orbit` counts the distinct arrangements
    // of the first i blocks; (i+1)/run extends it by one block. The
    // division is exact at every step (the intermediate value is itself a
    // multinomial coefficient).
    orbit = orbit * (i + 1) / run;
  }
  return orbit;
}

}  // namespace cnv::mck
