// BCH decode kernels: the SIMD build.  Compiled with the same forced-SIMD
// flag set as src/kernels/kernels.cpp (see CMakeLists.txt).  The bodies are
// pure integer table arithmetic from bch_ops.hpp, so forcing SIMD cannot
// change results — only throughput; bch_reference.cpp compiles the same
// bodies with vectorization disabled and ecc_test diffs the two.

#include "stash/ecc/bch_kernels.hpp"

// Only this TU carries -fopenmp-simd: the shared loops get their pragma here.
#define STASH_BCH_SIMD _Pragma("omp simd")
#include "bch_ops.hpp"

namespace stash::ecc::bchk {

void pack_codeword(const std::uint8_t* bits, std::size_t len,
                   std::uint8_t* out, std::size_t nbytes) noexcept {
  detail::pack_codeword_impl(bits, len, out, nbytes);
}

void syndromes(const DecodeTables& tb, const std::uint8_t* packed,
               std::size_t nbytes, std::uint32_t* out) noexcept {
  detail::syndromes_impl(tb, packed, nbytes, out);
}

int chien_scan(ChienState& st, std::uint32_t lambda0, std::size_t len,
               std::uint32_t* positions, int max_roots) noexcept {
  return detail::chien_scan_impl(st, lambda0, len, positions, max_roots);
}

}  // namespace stash::ecc::bchk
