//! The fused, graph-free GRU step behind [`GruCell::forward_infer`].
//!
//! One call advances `B` hidden states, one row at a time, in three
//! passes over a preallocated `6 × hidden` scratch row:
//!
//! 1. x-side pre-activations `x·W_ir`, `x·W_iz`, `x·W_in`, visiting only
//!    the row's non-zero inputs (update inputs are mostly one-hot);
//! 2. h-side pre-activations `h·W_hr`, `h·W_hz`, `h·W_hn` in register-
//!    blocked tiles of one row × [`COLS`] columns: a single sweep over `k`
//!    accumulates all three gates, so the tile's 48 sums never leave
//!    registers;
//! 3. one sweep applying the gate nonlinearities and writing `h'`.
//!
//! Every output element is accumulated exactly as `Tensor::matmul` would
//! accumulate it in a six-matmul formulation (one matmul per gate and
//! side): from `0.0`, `k` ascending, one separate multiply and add per term
//! (Rust never contracts them into an FMA), and entries equal to zero
//! skipped. Biases and gates combine in the same order too, so the result
//! is bit-identical to the tape forward pass [`GruCell::forward`].
//!
//! Taller tiles (several rows sharing each weight load) were measured and
//! dropped. At the baseline x86-64 SSE2 width, with a separate multiply and
//! add per term, the loop is bound by arithmetic throughput rather than by
//! weight loads, so sharing loads saved nothing, and the per-row zero-skip
//! branches made 4 × 4 tiles about 25% slower than 1 × 16 at batch 64 and
//! hidden 128.
//!
//! [`GruCell::forward_infer`]: crate::layers::GruCell::forward_infer
//! [`GruCell::forward`]: crate::layers::GruCell::forward

use crate::graph::stable_sigmoid;

/// Columns per h-side tile: three gates × 16 columns fill 12 SSE registers.
const COLS: usize = 16;

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

/// Advances `B` states: `x` is `B × input_dim`, `h` and `out` are
/// `B × hidden`, all row-major.
///
/// # Panics
///
/// Panics if a buffer's length does not match the shapes above.
pub(crate) fn gru_step(w: &GruWeights<'_>, x: &[f32], h: &[f32], out: &mut [f32]) {
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

    // [x·W_ir | x·W_iz | x·W_in | h·W_hr | h·W_hz | h·W_hn] for one row.
    let mut scratch = vec![0.0f32; 6 * hidden];
    let full_cols = hidden - hidden % COLS;
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
        for j0 in (0..full_cols).step_by(COLS) {
            store_tile(pre_h, hidden, j0, &h_tile::<COLS>(w.w_h, h_row, j0));
        }
        for j0 in full_cols..hidden {
            store_tile(pre_h, hidden, j0, &h_tile::<1>(w.w_h, h_row, j0));
        }
        gates(w, &scratch, h_row, &mut out[i * hidden..(i + 1) * hidden]);
    }
}

/// `h·W_h` for columns `j0..j0 + C` of all three gates, accumulated in
/// registers. Out of line so that the accumulators are locals the
/// compiler can keep in registers rather than the caller's memory.
#[inline(never)]
fn h_tile<const C: usize>(w_h: [&[f32]; 3], h_row: &[f32], j0: usize) -> [[f32; C]; 3] {
    let hidden = h_row.len();
    let [w_r, w_z, w_n] = w_h;
    let mut acc = [[0.0f32; C]; 3];
    for (k, &a) in h_row.iter().enumerate() {
        // Same zero skip as `Tensor::matmul`.
        if a == 0.0 {
            continue;
        }
        let base = k * hidden + j0;
        let tile = |w: &[f32]| -> [f32; C] {
            w[base..base + C]
                .try_into()
                .expect("tile lies inside the weight row")
        };
        let (wr, wz, wn) = (tile(w_r), tile(w_z), tile(w_n));
        for c in 0..C {
            acc[0][c] += a * wr[c];
            acc[1][c] += a * wz[c];
            acc[2][c] += a * wn[c];
        }
    }
    acc
}

/// Copies one h-side tile into the scratch row's three gate blocks.
fn store_tile<const C: usize>(pre_h: &mut [f32], hidden: usize, j0: usize, tile: &[[f32; C]; 3]) {
    for (g, sums) in tile.iter().enumerate() {
        pre_h[g * hidden + j0..g * hidden + j0 + C].copy_from_slice(sums);
    }
}

/// The gate sweep, in the tape's operation order:
/// `r = σ((x·W_ir + b_ir) + (h·W_hr + b_hr))`, `z` likewise,
/// `n = tanh((x·W_in + b_in) + r ⊙ (h·W_hn + b_hn))`,
/// `h' = (1 - z) ⊙ n + z ⊙ h`.
fn gates(w: &GruWeights<'_>, scratch: &[f32], h_row: &[f32], out_row: &mut [f32]) {
    let hidden = w.hidden;
    let block = |i: usize| &scratch[i * hidden..(i + 1) * hidden];
    let (xr, xz, xn) = (block(0), block(1), block(2));
    let (hr, hz, hn) = (block(3), block(4), block(5));
    let [b_ir, b_iz, b_in] = w.b_i;
    let [b_hr, b_hz, b_hn] = w.b_h;
    for j in 0..hidden {
        let r = stable_sigmoid((xr[j] + b_ir[j]) + (hr[j] + b_hr[j]));
        let z = stable_sigmoid((xz[j] + b_iz[j]) + (hz[j] + b_hz[j]));
        let n = ((xn[j] + b_in[j]) + r * (hn[j] + b_hn[j])).tanh();
        out_row[j] = (1.0 - z) * n + z * h_row[j];
    }
}
