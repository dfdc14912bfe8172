// Correlation Power Analysis engine (paper section 3.4).
//
// For each of the 16 key-byte positions and each of the 256 guesses, CPA
// correlates a hypothetical leakage (Rd0-HW / Rd10-HW / Rd10-HD) with the
// measured SMC values and ranks guesses by correlation. The engine is
// streaming and histogram-based: because every model prediction depends
// only on one known byte (or, for Rd10-HD, one known byte pair), traces
// are binned by those byte values and the per-guess correlation sums are
// reconstructed from 256 (or 65536) bins — O(1) trace updates and
// analysis cost independent of the trace count. That is what makes the
// paper-scale 1M-trace experiments run in seconds.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "aes/aes128.h"
#include "core/trace_batch.h"
#include "power/hypothetical.h"
#include "util/aligned.h"
#include "util/simd.h"

namespace psc::core {

// Correlations of all guesses for one (model, byte position).
struct ByteRanking {
  std::array<double, 256> correlation{};

  // 1-based rank of `candidate` by descending correlation (the paper's
  // metric: rank 1 = recovered). A NaN correlation ranks last (256), and
  // NaN correlations of other guesses rank below every number.
  int rank_of(std::uint8_t candidate) const noexcept;

  // The first guess with the largest correlation, skipping NaN (guess 0
  // when every correlation is NaN).
  std::uint8_t best_guess() const noexcept;
};

// Result of analyzing one model over all 16 byte positions.
struct ModelResult {
  power::PowerModel model{};
  std::array<ByteRanking, 16> bytes{};
  std::array<int, 16> true_ranks{};  // rank of the correct key byte
  aes::Block scored_key{};  // the true round-key bytes ranked above
  double ge_bits = 0.0;              // sum of log2(rank): the paper's GE
  double mean_rank = 0.0;
  aes::Block best_round_key{};  // best guess per byte (round 0 or 10 key)
  // For round-10 models: the master key implied by best_round_key.
  aes::Block implied_master_key{};
  // Number of correct key bytes at rank 1.
  int recovered_bytes = 0;
  // Number with rank <= 10 ("nearly recovered" in Table 4).
  int near_recovered_bytes = 0;
};

class CpaEngine;

namespace detail {

// Test seam for the analysis instances behind CpaEngine::analyze_byte: its
// one body is compiled at vector widths of 2 doubles (the baseline ISA:
// SSE2 on x86-64, NEON on AArch64), 4 (AVX2) and 8 (AVX-512F).
// analysis_widths() lists the widths this binary can run on this CPU, in
// ascending order: 2, then 4 and 8 where the CPU has the ISA (x86-64 only,
// and not in a PSC_FORCE_SCALAR build).
std::vector<std::size_t> analysis_widths();

// analyze_byte on the instance of `width` doubles; throws
// std::invalid_argument unless `width` is in analysis_widths().
ByteRanking analyze_byte_at_width(const CpaEngine& engine,
                                  power::PowerModel model,
                                  std::size_t byte_index, std::size_t width);

}  // namespace detail

class CpaEngine {
 public:
  // `models` determines which histograms are maintained; including
  // rd10_hd allocates the 16x65536 pair histogram (~12 MB).
  explicit CpaEngine(std::vector<power::PowerModel> models);

  const std::vector<power::PowerModel>& models() const noexcept {
    return models_;
  }

  // Feeds a batch of traces in column form: known plaintexts/ciphertexts
  // and the measured channel values; throws std::invalid_argument unless
  // the spans have equal length. The inner loops run on the
  // runtime-dispatched kernels of util/simd.h, but every accumulator word
  // receives the same values in the same order however the stream is cut
  // into batches — and in either SIMD mode — so one n-row batch and n
  // one-row batches produce bit-identical state (see simd.h for the
  // striping/disjoint-bin construction that guarantees it).
  void add_trace_batch(std::span<const aes::Block> plaintexts,
                       std::span<const aes::Block> ciphertexts,
                       std::span<const double> values);

  // Feeds every trace of a columnar batch, taking measured values from
  // channel `column`. The native ingest path of the acquisition pipeline.
  void add_batch(const TraceBatch& batch, std::size_t column) {
    add_trace_batch(batch.plaintexts(), batch.ciphertexts(),
                    batch.column(column));
  }

  // Absorbs another engine's accumulator state, as if its traces had been
  // fed here after this engine's own. Both engines must have been built
  // with the same model list. This is the merge step of the sharded
  // pipeline: K shard engines merged in shard order equal one engine fed
  // the concatenated trace stream.
  void merge(const CpaEngine& other);

  // Cheap copy of the accumulator state for mid-campaign GE checkpoints:
  // shard snapshots taken at the same logical trace count merge into the
  // exact engine a sequential run would have held at that count.
  CpaEngine snapshot() const { return *this; }

  std::size_t trace_count() const noexcept { return n_; }

  // Trace count up to which every model's integer sums stay exact: the
  // single-byte transform's int64 partials grow as 2^22 per trace, and
  // Rd10-HD's sums modulo 2^64 stay below 2^62 up to here.
  static constexpr std::uint64_t max_exact_traces = std::uint64_t{1} << 40;

  // Correlations for every guess at one byte position under one model,
  // computed from the current accumulator state, equal bit for bit to a
  // loop that, per guess, sums m * count, m * m * count and m * sum over
  // the non-empty bins in ascending order with m from power::predict_*,
  // and then takes cov / sqrt(var_m * var_t), or 0 where either variance
  // is <= 0 (a NaN variance gives NaN).
  //  * sum_m and sum_mm are exact integers, converted to double once. For
  //    rd0_hw, rd10_hw and rd1_sbox_hw, which predict f(v ^ g) for known
  //    byte v under guess g, they are XOR convolutions of the count
  //    histogram with f and f^2 (256-point Walsh-Hadamard transforms).
  //    For rd10_hd they are XOR convolutions over the pair-histogram rows
  //    of each row's weight <= 2 Walsh coefficients.
  //  * sum_mt keeps one multiply-then-add chain per guess, each adding its
  //    bins in ascending order, and runs 8W guesses per pass over
  //    once-built transposed tables in eight W-lane vector chains (for
  //    rd10_hd, per pair-histogram row, 8W consecutive last-round input
  //    bytes whose guesses' chains are gathered through the S-box), and the
  //    correlations finish W per vector.
  // One source body, over GCC/Clang vector types, runs every step at W
  // lanes; it is compiled once per ISA (see detail::analysis_widths). The
  // `native` mode runs the widest instance the CPU has: W = 8 on AVX-512F,
  // 4 on AVX2, else 2. PSC_SIMD=scalar and PSC_FORCE_SCALAR builds run
  // W = 2. Every instance gives the same bits.
  // Throws std::overflow_error beyond max_exact_traces. Safe to call
  // concurrently on one engine.
  ByteRanking analyze_byte(power::PowerModel model,
                           std::size_t byte_index) const;

  // Full analysis of one model against the true round keys.
  ModelResult analyze(power::PowerModel model,
                      const std::array<aes::Block, aes::num_rounds + 1>&
                          true_round_keys) const;

 private:
  friend ByteRanking detail::analyze_byte_at_width(const CpaEngine&,
                                                   power::PowerModel,
                                                   std::size_t,
                                                   std::size_t);

  bool has_model(power::PowerModel model) const noexcept;

  std::vector<power::PowerModel> models_;
  bool need_pt_hist_ = false;
  bool need_ct_hist_ = false;
  bool need_pair_hist_ = false;

  std::size_t n_ = 0;
  // Channel-value moments, striped by global trace index (util/simd.h);
  // totals come from simd::reduce_stripes. Cache-line aligned so shard
  // engines never false-share.
  util::simd::MomentStripes moments_;

  // Single-byte histograms: count and value-sum per byte value, per
  // position, flattened to 16x256 (bin = position * 256 + byte value) so
  // the SIMD histogram kernel can address them, and cache-line aligned.
  // Allocated only when a configured model needs them.
  util::AlignedVector<std::uint32_t> pt_count_;
  util::AlignedVector<double> pt_sum_;
  util::AlignedVector<std::uint32_t> ct_count_;
  util::AlignedVector<double> ct_sum_;

  // Pair histogram for Rd10-HD: bins (ct[i], ct[shift_rows_source(i)]).
  // Indexed [pos][ct_i * 256 + ct_src]. Stays scalar: at 16x65536 bins it
  // is cache-miss bound, not ALU bound.
  util::AlignedVector<std::uint32_t> pair_count_;
  util::AlignedVector<double> pair_sum_;
};

}  // namespace psc::core
