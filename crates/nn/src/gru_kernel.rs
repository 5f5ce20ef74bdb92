//! The fused, graph-free GRU step behind [`GruCell::forward_infer`].
//!
//! One call advances `B` hidden states, one row at a time, in three
//! passes over a preallocated `6 × hidden` scratch row:
//!
//! 1. x-side pre-activations `x·W_ir`, `x·W_iz`, `x·W_in`, visiting only
//!    the row's non-zero inputs (update inputs are mostly one-hot);
//! 2. h-side pre-activations `h·W_hr`, `h·W_hz`, `h·W_hn` in register-
//!    blocked tiles of one row × `C` columns: a single sweep over `k`
//!    accumulates all three gates, so the tile's `3·C` sums never leave
//!    registers;
//! 3. one gate sweep applying the nonlinearities and writing `h'`. The
//!    tape's [`stable_sigmoid`] and [`stable_tanh`] are branch-free, so
//!    this sweep vectorizes too.
//!
//! The step has one body, compiled twice (see the `simd` module) and
//! picked once per process by what the CPU supports: with AVX2 and
//! 32-column tiles (twelve 256-bit accumulators), and for the baseline
//! target with 16-column tiles (twelve SSE registers on x86-64). Columns
//! the AVX2 build's tiles leave over take 16-column tiles, then single
//! columns.
//!
//! Every output element is accumulated exactly as `Tensor::matmul` would
//! accumulate it in a six-matmul formulation (one matmul per gate and
//! side): from `0.0`, `k` ascending, one separate multiply and add per term,
//! and entries equal to zero skipped. No build fuses a multiply-add: no
//! `mul_add` is written, and Rust never contracts `a * b + c` into an FMA,
//! even where the enabled features include one. Biases and gates combine
//! in the tape's order, through the tape's activation functions, so every
//! build is bit-identical to the tape forward pass [`GruCell::forward`]
//! and to the other builds.
//!
//! Taller tiles (several rows sharing each weight load) were measured at
//! SSE2 width and dropped: there the loop was bound by arithmetic
//! throughput rather than by weight loads, and the per-row zero-skip
//! branches made 4 × 4 tiles about 25% slower than 1 × 16 at batch 64 and
//! hidden 128. Whether tall tiles pay off at AVX2 width for batches of two
//! or more is not yet measured.
//!
//! [`GruCell::forward_infer`]: crate::layers::GruCell::forward_infer
//! [`GruCell::forward`]: crate::layers::GruCell::forward

use crate::graph::{stable_sigmoid, stable_tanh};
use crate::simd::{self, Build, Isa, NARROW};

/// Borrowed GRU parameters, gates ordered r, z, n. Input weights are
/// `input_dim × hidden`, hidden weights `hidden × hidden`, biases
/// `hidden` long, all row-major.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GruWeights<'a> {
    pub(crate) w_i: [&'a [f32]; 3],
    pub(crate) b_i: [&'a [f32]; 3],
    pub(crate) w_h: [&'a [f32]; 3],
    pub(crate) b_h: [&'a [f32]; 3],
    pub(crate) input_dim: usize,
    pub(crate) hidden: usize,
}

/// Advances `B` states with `build`: `x` is `B × input_dim`, `h` and
/// `out` are `B × hidden`, all row-major. Every build gives the same bits.
///
/// # Panics
///
/// Panics if a buffer's length does not match the shapes above.
pub(crate) fn gru_step(build: Build, w: &GruWeights<'_>, x: &[f32], h: &[f32], out: &mut [f32]) {
    let (input_dim, hidden) = (w.input_dim, w.hidden);
    for g in 0..3 {
        assert_eq!(w.w_i[g].len(), input_dim * hidden, "gru_step: W_i shape");
        assert_eq!(w.w_h[g].len(), hidden * hidden, "gru_step: W_h shape");
        assert_eq!(w.b_i[g].len(), hidden, "gru_step: b_i shape");
        assert_eq!(w.b_h[g].len(), hidden, "gru_step: b_h shape");
    }
    if hidden == 0 {
        return;
    }
    let rows = h.len() / hidden;
    assert_eq!(h.len(), rows * hidden, "gru_step: ragged state buffer");
    assert_eq!(x.len(), rows * input_dim, "gru_step: input rows differ");
    assert_eq!(out.len(), h.len(), "gru_step: output size differs");
    match build.isa() {
        // SAFETY: a `Build` exists only for an instruction set this CPU
        // supports, so AVX2 is available.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { gru_step_avx2(w, x, h, out) },
        _ => gru_step_body::<NARROW>(w, x, h, out),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gru_step_avx2(w: &GruWeights<'_>, x: &[f32], h: &[f32], out: &mut [f32]) {
    gru_step_body::<32>(w, x, h, out);
}

/// The step itself, with h-side tiles `C` columns wide; inlined into each
/// build so that it is compiled with that build's features.
#[inline(always)]
fn gru_step_body<const C: usize>(w: &GruWeights<'_>, x: &[f32], h: &[f32], out: &mut [f32]) {
    let (input_dim, hidden) = (w.input_dim, w.hidden);
    let rows = h.len() / hidden;
    // [x·W_ir | x·W_iz | x·W_in | h·W_hr | h·W_hz | h·W_hn] for one row.
    let mut scratch = vec![0.0f32; 6 * hidden];
    for i in 0..rows {
        let x_row = &x[i * input_dim..(i + 1) * input_dim];
        let h_row = &h[i * hidden..(i + 1) * hidden];
        let (pre_x, pre_h) = scratch.split_at_mut(3 * hidden);
        pre_x.fill(0.0);
        for (k, &a) in x_row.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (g, acc) in pre_x.chunks_exact_mut(hidden).enumerate() {
                let w_row = &w.w_i[g][k * hidden..(k + 1) * hidden];
                for (o, &b) in acc.iter_mut().zip(w_row) {
                    *o += a * b;
                }
            }
        }
        let (h_r, rest) = pre_h.split_at_mut(hidden);
        let (h_z, h_n) = rest.split_at_mut(hidden);
        simd::row_times::<3, C>(h_row, w.w_h, hidden, [h_r, h_z, h_n]);
        gates(w, &scratch, h_row, &mut out[i * hidden..(i + 1) * hidden]);
    }
}

/// The gate sweep, in the tape's operation order:
/// `r = σ((x·W_ir + b_ir) + (h·W_hr + b_hr))`, `z` likewise,
/// `n = tanh((x·W_in + b_in) + r ⊙ (h·W_hn + b_hn))`,
/// `h' = (1 - z) ⊙ n + z ⊙ h`.
#[inline(always)]
fn gates(w: &GruWeights<'_>, scratch: &[f32], h_row: &[f32], out_row: &mut [f32]) {
    let hidden = w.hidden;
    // Every slice re-cut to `hidden`, so the loop below has no bounds
    // checks left to stop it vectorizing.
    let block = |i: usize| &scratch[i * hidden..(i + 1) * hidden];
    let (xr, xz, xn) = (block(0), block(1), block(2));
    let (hr, hz, hn) = (block(3), block(4), block(5));
    let [b_ir, b_iz, b_in] = w.b_i.map(|b| &b[..hidden]);
    let [b_hr, b_hz, b_hn] = w.b_h.map(|b| &b[..hidden]);
    let (h_row, out_row) = (&h_row[..hidden], &mut out_row[..hidden]);
    for j in 0..hidden {
        let r = stable_sigmoid((xr[j] + b_ir[j]) + (hr[j] + b_hr[j]));
        let z = stable_sigmoid((xz[j] + b_iz[j]) + (hz[j] + b_hz[j]));
        let n = stable_tanh((xn[j] + b_in[j]) + r * (hn[j] + b_hn[j]));
        out_row[j] = (1.0 - z) * n + z * h_row[j];
    }
}
