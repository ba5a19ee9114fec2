#include "util/rng.h"

namespace willow::util {

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                          std::uint64_t c) {
  // Fold each coordinate through the full mix with distinct odd offsets so
  // (seed, a, b, c) and permutations of it key different streams.
  std::uint64_t h = splitmix64_mix(seed + 0x9E3779B97F4A7C15ULL);
  h = splitmix64_mix(h ^ (a + 0xBF58476D1CE4E5B9ULL));
  h = splitmix64_mix(h ^ (b + 0x94D049BB133111EBULL));
  h = splitmix64_mix(h ^ (c + 0xD6E8FEB86659FD93ULL));
  return h;
}

}  // namespace willow::util
