// Runtime-dispatched SIMD kernels for the analysis ingest hot path.
//
// The CPA and TVLA engines accumulate three things per trace: running
// moment sums of the measured channel value, 16 byte-indexed histograms
// of (count, value-sum), and — for the pair model — a 16x65536 pair
// histogram. This header exposes those inner loops as free-function
// kernels with two dispatch modes: `scalar`, the portable reference
// bodies, and `native`, which runs per kernel the one vector body that
// measured fastest for the running CPU. The bodies outside this file
// follow the same switch: the AES-NI round trace and the AES-NI + POPCNT
// round-state counts (aes/aes128.cpp), the POPCNT leakage sums and the
// AVX2 batch energy pass (power/leakage_model.cpp), the POPCNT
// square-and-multiply timing body (scenario/sqmul_timing_scenario.cpp),
// the AVX2 quantizer (power/noise.cpp), the AVX2 polar-method finish of
// Xoshiro256::fill_gaussian (util/rng.cpp), the AVX2 sensor column pass
// of the simulated device (victim/fast_trace.cpp) and the PCLMULQDQ
// CRC-32 (util/crc32.cpp) run unless the active mode is `scalar`, each
// where the CPU has its ISA. Each gives its portable body's bits. The CPA
// analysis (core/cpa.cpp) is one generic-vector body instantiated per ISA
// at 2, 4 (AVX2) and 8 (AVX-512F) doubles per vector: `native` runs the
// widest instance the CPU has and `scalar` the 2-lane baseline (SSE2 on
// x86-64, NEON on AArch64), and every instance gives the same bits.
//
// Bit-exactness contract
// ----------------------
// Both modes produce bit-identical accumulator state. This is not an
// accident of testing but of construction:
//
//  * Moment sums are *striped*: the value with global stream index g
//    accumulates into stripe g % stripes. A lane-width w body processes
//    stripes [0,w), [w,2w), ... as vector lanes, so each stripe always
//    receives the same values in the same order — a 4-lane AVX2 body, a
//    2-lane NEON body, and the portable scalar loop all build identical
//    stripes. Totals come from the fixed pairwise reduction tree of
//    reduce_stripes.
//  * Histogram updates touch 16 *disjoint* bins per trace (one per byte
//    position), so the vector body that updates all 16 positions of one
//    trace at a time (AVX-512 gather/scatter) performs, per bin, the same
//    floating-point additions in the same trace order as the scalar
//    position-major loop.
//
// None of the kernels uses fused multiply-add: x*x + s is always two
// roundings, matching the portable fallback on every ISA.
//
// The engines stripe by *global* trace index, which also makes their
// state prefix-consistent: feeding a stream in any batch-boundary
// chunking yields identical accumulators, the property the store replay
// and checkpoint-snapshot tests pin down.
//
// Dispatch
// --------
// active_backend() resolves once: `native` unless the PSC_SIMD
// environment variable is `scalar` (any other value, or none, means
// `native`). `native` builds its kernel table once from the CPU's
// features (__builtin_cpu_supports): on x86-64 the AVX2 moment and
// unpack bodies and the AVX-512 histogram body, each where the CPU has
// the ISA and the scalar body where it lacks it; on AArch64 the NEON
// moment body. force_backend() — the override hook the bit-consistency
// tests use — pins either mode. Building with -DPSC_FORCE_SCALAR=ON
// (CMake) compiles the portable bodies only, and `native` does not exist.
//
// Adding a new SIMD kernel
// ------------------------
//  1. Declare the free function here; implement the portable body in
//     simd.cpp as `<name>_scalar`.
//  2. Add at most one vector body per ISA family (x86-64, AArch64),
//     guarded by PSC_SIMD_X86 / PSC_SIMD_NEON with
//     __attribute__((target(...))). Keep a vector body only while it
//     beats the scalar body and every other candidate on the reference
//     host; delete it once another body wins.
//  3. Pick the body for `native` from the CPU features in
//     native_table(); the sweeps in tests/util/simd_test.cpp run every
//     kernel on both modes and compare bit for bit.
//  4. Keep the kernel's FP-addition order per accumulator word identical
//     across bodies (stripe or disjoint-bin constructions above), or the
//     cross-mode tests will fail loudly.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

// Defined when this build compiles the x86-64 bodies: GCC or Clang on
// x86-64, and not a PSC_FORCE_SCALAR build. The AES-NI, POPCNT and
// PCLMULQDQ bodies outside this module are compiled under the same
// condition.
#if !defined(PSC_SIMD_FORCE_SCALAR) && defined(__x86_64__) && \
    defined(__GNUC__)
#define PSC_SIMD_X86 1
#endif

namespace psc::util::simd {

// `scalar`: the portable bodies. `native`: the measured-fastest vector
// body of each kernel for the running CPU (scalar where none applies).
enum class Backend { scalar = 0, native };

inline constexpr std::array<Backend, 2> all_backends = {Backend::scalar,
                                                        Backend::native};

std::string_view backend_name(Backend backend) noexcept;

// The modes this binary can run: `scalar`, then `native` unless this is
// a PSC_FORCE_SCALAR build.
std::vector<Backend> supported_backends();

// The mode the kernels currently dispatch to.
Backend active_backend() noexcept;

// Dispatch override hook for tests and benches. Throws
// std::invalid_argument if `backend` is not supported in this build.
// Takes effect for subsequent kernel calls; do not race against threads
// inside kernels (the campaign runners never switch mid-run).
void force_backend(Backend backend);

// Drops any override and re-resolves from PSC_SIMD.
void reset_backend() noexcept;

// True when the active mode is `native` and the CPU has AVX2: the switch
// of the AVX2 bodies outside this module (the batch energy pass, the
// quantizer, the Gaussian finish and the sensor column pass).
bool avx2_active() noexcept;

// True when the active mode is `native` and the CPU has POPCNT: the
// switch of the POPCNT leakage sums and the square-and-multiply timing
// body.
bool popcnt_active() noexcept;

// ---------------------------------------------------------------------------
// Striped moment accumulation.

inline constexpr std::size_t stripes = 8;

// Per-stream running sums, striped by global index. Cache-line aligned so
// per-shard copies never share a line and vector loads are aligned.
struct alignas(64) MomentStripes {
  std::array<double, stripes> sum{};
  std::array<double, stripes> sumsq{};
};

// Accumulates x[0..n) into m, where x[i] carries global stream index
// g0 + i and lands in stripe (g0 + i) % stripes. sum gets x, sumsq gets
// x*x (two roundings, never fused).
void accumulate_moments(const double* x, std::size_t n, std::uint64_t g0,
                        MomentStripes& m) noexcept;

// Fixed pairwise reduction: ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)).
// Identical in both modes — the only sanctioned way to total stripes.
double reduce_stripes(const std::array<double, stripes>& s) noexcept;

// Merges `b` (accumulated from local indices 0..nb) into `a`, whose
// stream already holds `na` values: b's stripe j joins a's stripe
// (na + j) % stripes, exactly where those values would have landed had
// the streams been concatenated. Deterministic, so shard merges in shard
// order are reproducible bit-for-bit.
void merge_moments(MomentStripes& a, std::uint64_t na,
                   const MomentStripes& b) noexcept;

// ---------------------------------------------------------------------------
// CPA byte histograms.

// For each trace t < n and byte position i < 16:
//   bin = i * 256 + blocks[16 t + i]
//   ++count[bin];  sum[bin] += values[t];
// `blocks` is the packed 16-byte-per-trace column (plaintexts or
// ciphertexts); count/sum hold 16 x 256 bins. Per bin, additions happen
// in trace order in both modes (the 16 bins of one trace are
// disjoint), so the state is bit-identical to the scalar loop.
void accumulate_histogram16(const std::uint8_t* blocks, const double* values,
                            std::size_t n, std::uint32_t* count,
                            double* sum) noexcept;

// ---------------------------------------------------------------------------
// Fixed-width bit-field unpack (store codec decode hot loop).

// Field widths the kernel accepts: with width <= 56, any field starting
// at bit b lies entirely inside the 8-byte window at byte b/8 after a
// shift of b%8 (<= 7) — one load, one variable shift, one mask per
// field, and the AVX2 body turns that into 4-lane gathers.
inline constexpr unsigned unpack_bits_max_width = 56;

// Unpacks n little-endian bit fields of `width` bits (0 <= width <= 56)
// starting at bit `bit0` of `packed` into out[0..n): field j occupies
// bits [bit0 + j*width, bit0 + (j+1)*width) of the stream, where bit b
// lives in byte b/8 at in-byte position b%8. width == 0 zero-fills.
// `packed_bytes` must cover the last field's final byte; near the buffer
// end the kernels assemble the window byte-wise instead of over-reading.
// Pure integer, so both modes are bit-identical by construction.
void unpack_bits(const std::byte* packed, std::size_t packed_bytes,
                 std::uint64_t bit0, unsigned width, std::uint64_t* out,
                 std::size_t n) noexcept;

}  // namespace psc::util::simd
