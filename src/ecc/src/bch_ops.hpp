#pragma once
// Shared bodies for the BCH decode kernels, included by both
// bch_kernels.cpp (forced-SIMD flags) and bch_reference.cpp (vectorization
// disabled).  Everything here is integer table arithmetic — XORs and array
// indexing only — so the two builds cannot diverge; the twin compile exists
// to prove it, mirroring src/kernels/cell_ops.hpp.

#include <cstddef>
#include <cstdint>

#include "stash/ecc/bch_kernels.hpp"

// Loop annotation.  The SIMD translation unit defines STASH_BCH_SIMD as
// _Pragma("omp simd") before including this header; anywhere else it
// expands to nothing, so the reference build (compiled without
// -fopenmp-simd) never sees an OpenMP pragma it would warn about.
#ifndef STASH_BCH_SIMD
#define STASH_BCH_SIMD
#endif

namespace stash::ecc::bchk::detail {

inline void pack_codeword_impl(const std::uint8_t* bits, std::size_t len,
                               std::uint8_t* out, std::size_t nbytes) noexcept {
  if (nbytes == 0) return;
  // Front byte: its high degrees may exceed len - 1 — that is the zero
  // padding (leading zero coefficients are inert under Horner).
  {
    const std::size_t d0 = (nbytes - 1) * 8;
    std::uint32_t byte = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      const std::size_t d = d0 + b;
      if (d < len) {
        byte |= static_cast<std::uint32_t>(bits[len - 1 - d] & 1u) << b;
      }
    }
    out[0] = static_cast<std::uint8_t>(byte);
  }
  // Every later byte covers eight in-range degrees: bit b of out[k] is the
  // coefficient of degree (nbytes - 1 - k) * 8 + b, i.e. source bit
  // bits[len - 8 * (nbytes - k) + 7 - b].
STASH_BCH_SIMD
  for (std::size_t k = 1; k < nbytes; ++k) {
    const std::uint8_t* src = bits + (len - 8 * (nbytes - k));
    std::uint32_t byte = 0;
    for (int b = 0; b < 8; ++b) {
      byte |= static_cast<std::uint32_t>(src[7 - b] & 1u) << b;
    }
    out[k] = static_cast<std::uint8_t>(byte);
  }
}

inline void syndromes_impl(const DecodeTables& tb, const std::uint8_t* packed,
                           std::size_t nbytes, std::uint32_t* out) noexcept {
  const int t = tb.t;
  const std::uint32_t* const win = tb.window.data();
  const std::uint32_t* const lo = tb.step_lo.data();
  const std::uint32_t* const hi = tb.step_hi.data();
  const std::size_t hi_size = tb.hi_size;
  for (int i = 0; i < 2 * t; ++i) out[i] = 0;
  // Horner high byte first: acc_i <- acc_i * alpha^(8i) + W_i[byte].  The t
  // odd accumulators live in their final slots out[2k] (S_{2k+1}) and carry
  // no cross-lane dependency — the whole inner loop is gathers and XORs.
  for (std::size_t bpos = 0; bpos < nbytes; ++bpos) {
    const std::size_t byte = packed[bpos];
STASH_BCH_SIMD
    for (int k = 0; k < t; ++k) {
      const std::uint32_t a = out[2 * k];
      out[2 * k] = lo[static_cast<std::size_t>(k) * 256 + (a & 0xffu)] ^
                   hi[static_cast<std::size_t>(k) * hi_size + (a >> 8)] ^
                   win[static_cast<std::size_t>(k) * 256 + byte];
    }
  }
  // Even syndromes by Frobenius: c(x) has GF(2) coefficients, so
  // S_2k = c(alpha^2k) = c(alpha^k)^2 = S_k^2 — one doubled-antilog lookup.
  // Increasing e guarantees S_k is final before S_2k reads it.
  const std::uint32_t* const antilog = tb.antilog;
  const int* const log = tb.log;
  for (int e = 2; e <= 2 * t; e += 2) {
    const std::uint32_t s = out[e / 2 - 1];
    out[e - 1] = s ? antilog[2 * log[s]] : 0;
  }
}

inline int chien_scan_impl(ChienState& st, std::uint32_t lambda0,
                           std::size_t len, std::uint32_t* positions,
                           int max_roots) noexcept {
  const int terms = st.terms;
  std::uint32_t* const exp = st.lane_exp.data();
  const std::uint32_t* const step8 = st.step8.data();
  const std::uint32_t* const antilog = st.antilog;
  const std::uint32_t nf = st.n;
  int found = 0;
  for (std::size_t p0 = 0; p0 < len && found < max_roots; p0 += 8) {
    std::uint32_t acc[8];
STASH_BCH_SIMD
    for (int j = 0; j < 8; ++j) acc[j] = lambda0;
    for (int k = 0; k < terms; ++k) {
      std::uint32_t* const e = exp + 8 * k;
      const std::uint32_t s = step8[k];
STASH_BCH_SIMD
      for (int j = 0; j < 8; ++j) {
        acc[j] ^= antilog[e[j]];
        // Advance this term's lane to the next block: exponent += the
        // per-term stride (n - 8i) mod n, folded branchlessly — x or x - n,
        // whichever did not wrap (unsigned min).
        const std::uint32_t x = e[j] + s;
        const std::uint32_t y = x - nf;
        e[j] = x < y ? x : y;
      }
    }
    const std::size_t lim = len - p0 < 8 ? len - p0 : 8;
    for (std::size_t j = 0; j < lim && found < max_roots; ++j) {
      if (acc[j] == 0) {
        positions[found++] = static_cast<std::uint32_t>(p0 + j);
      }
    }
  }
  return found;
}

}  // namespace stash::ecc::bchk::detail
