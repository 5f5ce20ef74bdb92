//! Runtime choice of the instruction set the model kernels run on.
//!
//! [`Tensor::matmul`] and the fused GRU step each have one
//! `#[inline(always)]` body, compiled twice: with AVX2 and for the baseline
//! target. [`best`] picks the AVX2 build when this CPU runs it, once per
//! process; there is no knob. Both builds perform the same IEEE operations
//! in the same order (a separate multiply and add per term, which Rust
//! never contracts into an FMA), so they give bit-identical results and
//! differ only in speed.
//!
//! There is no AVX-512 build: on a 2-vCPU AVX-512 Xeon, one with 64-column
//! tiles won only 9 of 12 serve_zipf_rw pairs against this AVX2 build
//! (CPU per session 21.2 vs 22.6 µs), short of a measurable gain. The AVX2
//! build won all 12 against the portable one (22.6 vs 26.0 µs).
//!
//! [`Tensor::matmul`]: crate::tensor::Tensor::matmul

use std::sync::OnceLock;

/// The instruction sets a kernel is compiled for, widest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// x86-64 with AVX2: 256-bit vectors.
    Avx2,
    /// The compilation target's baseline (SSE2 on x86-64).
    Portable,
}

impl Isa {
    const ALL: [Isa; 2] = [Isa::Avx2, Isa::Portable];

    fn is_supported(self) -> bool {
        match self {
            Isa::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// A kernel build this CPU can run. Only [`best`] and [`supported`] make
/// one, after checking the CPU, so holding a `Build` is what makes calling
/// its target-feature functions sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Build(Isa);

impl Build {
    /// The instruction set of this build.
    pub(crate) fn isa(self) -> Isa {
        self.0
    }
}

/// The widest build this CPU supports, detected on the first call.
pub(crate) fn best() -> Build {
    static BEST: OnceLock<Build> = OnceLock::new();
    *BEST.get_or_init(|| supported()[0])
}

/// Every build this CPU supports, widest first; the portable build is
/// always last.
pub(crate) fn supported() -> Vec<Build> {
    Isa::ALL
        .into_iter()
        .filter(|isa| isa.is_supported())
        .map(Build)
        .collect()
}

/// Every build this CPU supports, printing a note for each one it lacks,
/// so that a test run says which builds it did not check.
#[cfg(test)]
pub(crate) fn supported_for_test(test: &str) -> Vec<Build> {
    for isa in Isa::ALL {
        if !isa.is_supported() {
            println!("{test}: this CPU lacks {isa:?}; that build is not checked");
        }
    }
    supported()
}

/// Columns of the narrowest tile. Every build sweeps the columns its own
/// tiles leave over with tiles this wide, then one column at a time; it is
/// also the portable build's own width (twelve SSE registers for three
/// gates on x86-64).
pub(crate) const NARROW: usize = 16;

/// `out_g = a_row · W_g` for `G` row-major matrices `W_g` of `cols` columns
/// sharing one left operand, as [`row_tile`]s of `C` columns, then
/// [`NARROW`], then 1.
#[inline(always)]
pub(crate) fn row_times<const G: usize, const C: usize>(
    a_row: &[f32],
    ws: [&[f32]; G],
    cols: usize,
    outs: [&mut [f32]; G],
) {
    let mut outs = outs;
    let mut j0 = 0;
    while j0 + C <= cols {
        put(&mut outs, j0, row_tile::<G, C>(a_row, ws, cols, j0));
        j0 += C;
    }
    while j0 + NARROW <= cols {
        put(&mut outs, j0, row_tile::<G, NARROW>(a_row, ws, cols, j0));
        j0 += NARROW;
    }
    while j0 < cols {
        put(&mut outs, j0, row_tile::<G, 1>(a_row, ws, cols, j0));
        j0 += 1;
    }
}

/// `a_row · W_g[:, j0..j0 + C]` for each matrix, with the `G × C` sums held
/// in registers for the whole sweep over `k`. Each sum starts at `0.0` and
/// adds `a_k · w_kj` for `k` ascending, one separate multiply and add per
/// term, skipping `a_k == 0.0`: the order every kernel build and the tape
/// share, whatever `C` is.
#[inline(always)]
fn row_tile<const G: usize, const C: usize>(
    a_row: &[f32],
    ws: [&[f32]; G],
    cols: usize,
    j0: usize,
) -> [[f32; C]; G] {
    let mut acc = [[0.0f32; C]; G];
    for (k, &a) in a_row.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        let base = k * cols + j0;
        for (sums, w) in acc.iter_mut().zip(ws) {
            let w: &[f32; C] = w[base..base + C]
                .try_into()
                .expect("tile lies inside the weight row");
            for (s, &b) in sums.iter_mut().zip(w) {
                *s += a * b;
            }
        }
    }
    acc
}

/// Copies one tile's sums into columns `j0..j0 + C` of each output row.
#[inline(always)]
fn put<const G: usize, const C: usize>(outs: &mut [&mut [f32]; G], j0: usize, tile: [[f32; C]; G]) {
    for (out, sums) in outs.iter_mut().zip(&tile) {
        out[j0..j0 + C].copy_from_slice(sums);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_is_the_widest_supported_build_and_portable_is_always_there() {
        let all = supported();
        assert_eq!(best(), all[0]);
        assert_eq!(all.last().map(|b| b.isa()), Some(Isa::Portable));
    }
}
