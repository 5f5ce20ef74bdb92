//! Neural-network layers used by the paper's model: linear (affine) layers,
//! a gated recurrent unit cell, simpler recurrent cells for the §6.2
//! architecture ablation, and inverted dropout.
//!
//! Layers own no tensors; they hold [`ParamId`] handles into a shared
//! [`ParamStore`] and build their forward pass inside a caller-provided
//! [`Graph`], which makes them usable from multiple threads that each build
//! their own graph over the same parameters.

use crate::graph::{Graph, NodeId};
use crate::gru_kernel::{gru_step, GruWeights};
use crate::init::Init;
use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A fully-connected affine layer `y = x · W + b` with `W: in × out`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    weight: ParamId,
    bias: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a new linear layer's parameters in `store`.
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        in_dim: usize,
        out_dim: usize,
        store: &mut ParamStore,
        rng: &mut R,
    ) -> Self {
        Self::with_init(name, in_dim, out_dim, Init::XavierUniform, store, rng)
    }

    /// Registers a new linear layer with an explicit weight initializer.
    pub fn with_init<R: Rng + ?Sized>(
        name: &str,
        in_dim: usize,
        out_dim: usize,
        init: Init,
        store: &mut ParamStore,
        rng: &mut R,
    ) -> Self {
        let weight = store.add(format!("{name}.weight"), init.build(in_dim, out_dim, rng));
        let bias = store.add(format!("{name}.bias"), Tensor::zeros(1, out_dim));
        Self {
            weight,
            bias,
            in_dim,
            out_dim,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Parameter handles `(weight, bias)`.
    pub fn params(&self) -> (ParamId, ParamId) {
        (self.weight, self.bias)
    }

    /// Builds the forward pass `x · W + b` in `graph`.
    pub fn forward(&self, graph: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let w = graph.param(self.weight, store.get(self.weight));
        let b = graph.param(self.bias, store.get(self.bias));
        let xw = graph.matmul(x, w);
        graph.add_row_broadcast(xw, b)
    }

    /// Inference-only forward pass `x · W + b`: no tape, no gradient
    /// buffers, and — unlike [`Linear::forward`] — no copy of the weight
    /// matrix into a graph node. Every inference path runs on this layer,
    /// whatever its batch size; it computes the same operations in the
    /// same order as the graph version, so results are identical.
    pub fn forward_infer(&self, store: &ParamStore, x: &Tensor) -> Tensor {
        x.matmul(store.get(self.weight))
            .add_row_broadcast(store.get(self.bias))
    }

    /// Number of scalar parameters in the layer.
    pub fn num_params(&self) -> usize {
        self.in_dim * self.out_dim + self.out_dim
    }

    /// Approximate floating-point operations for a single-row forward pass.
    /// Used by the serving cost model.
    pub fn flops(&self) -> u64 {
        // multiply-add per weight + bias add
        (2 * self.in_dim * self.out_dim + self.out_dim) as u64
    }
}

/// The recurrent cell family evaluated in §6.2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellKind {
    /// Basic `tanh` recurrent unit.
    Tanh,
    /// Gated recurrent unit (the paper's choice).
    Gru,
    /// Long short-term memory unit.
    Lstm,
}

impl std::fmt::Display for CellKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellKind::Tanh => write!(f, "tanh"),
            CellKind::Gru => write!(f, "gru"),
            CellKind::Lstm => write!(f, "lstm"),
        }
    }
}

/// A gated recurrent unit cell.
///
/// The update follows Cho et al. (2014), matching `torch.nn.GRUCell`:
///
/// ```text
/// r = σ(x·W_ir + b_ir + h·W_hr + b_hr)
/// z = σ(x·W_iz + b_iz + h·W_hz + b_hz)
/// n = tanh(x·W_in + b_in + r ⊙ (h·W_hn + b_hn))
/// h' = (1 - z) ⊙ n + z ⊙ h
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GruCell {
    w_ir: ParamId,
    w_iz: ParamId,
    w_in: ParamId,
    w_hr: ParamId,
    w_hz: ParamId,
    w_hn: ParamId,
    b_ir: ParamId,
    b_iz: ParamId,
    b_in: ParamId,
    b_hr: ParamId,
    b_hz: ParamId,
    b_hn: ParamId,
    input_dim: usize,
    hidden_dim: usize,
}

impl GruCell {
    /// Registers a GRU cell's parameters in `store`.
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        store: &mut ParamStore,
        rng: &mut R,
    ) -> Self {
        let init = Init::RecurrentUniform;
        let w = |suffix: &str, rows: usize, store: &mut ParamStore, rng: &mut R| {
            store.add(
                format!("{name}.{suffix}"),
                init.build(rows, hidden_dim, rng),
            )
        };
        let w_ir = w("w_ir", input_dim, store, rng);
        let w_iz = w("w_iz", input_dim, store, rng);
        let w_in = w("w_in", input_dim, store, rng);
        let w_hr = w("w_hr", hidden_dim, store, rng);
        let w_hz = w("w_hz", hidden_dim, store, rng);
        let w_hn = w("w_hn", hidden_dim, store, rng);
        let b = |suffix: &str, store: &mut ParamStore| {
            store.add(format!("{name}.{suffix}"), Tensor::zeros(1, hidden_dim))
        };
        let b_ir = b("b_ir", store);
        let b_iz = b("b_iz", store);
        let b_in = b("b_in", store);
        let b_hr = b("b_hr", store);
        let b_hz = b("b_hz", store);
        let b_hn = b("b_hn", store);
        Self {
            w_ir,
            w_iz,
            w_in,
            w_hr,
            w_hz,
            w_hn,
            b_ir,
            b_iz,
            b_in,
            b_hr,
            b_hz,
            b_hn,
            input_dim,
            hidden_dim,
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden-state dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Builds one recurrent step `h' = GRU(x, h)` in `graph`.
    pub fn forward(&self, graph: &mut Graph, store: &ParamStore, x: NodeId, h: NodeId) -> NodeId {
        let gate = |graph: &mut Graph, wi, bi, wh, bh, x, h| -> NodeId {
            let wi = graph.param(wi, store.get(wi));
            let bi = graph.param(bi, store.get(bi));
            let wh = graph.param(wh, store.get(wh));
            let bh = graph.param(bh, store.get(bh));
            let xi = graph.matmul(x, wi);
            let xi = graph.add_row_broadcast(xi, bi);
            let hh = graph.matmul(h, wh);
            let hh = graph.add_row_broadcast(hh, bh);
            graph.add(xi, hh)
        };

        let r_pre = gate(graph, self.w_ir, self.b_ir, self.w_hr, self.b_hr, x, h);
        let r = graph.sigmoid(r_pre);
        let z_pre = gate(graph, self.w_iz, self.b_iz, self.w_hz, self.b_hz, x, h);
        let z = graph.sigmoid(z_pre);

        // n = tanh(x·W_in + b_in + r ⊙ (h·W_hn + b_hn))
        let w_in = graph.param(self.w_in, store.get(self.w_in));
        let b_in = graph.param(self.b_in, store.get(self.b_in));
        let w_hn = graph.param(self.w_hn, store.get(self.w_hn));
        let b_hn = graph.param(self.b_hn, store.get(self.b_hn));
        let xn = graph.matmul(x, w_in);
        let xn = graph.add_row_broadcast(xn, b_in);
        let hn = graph.matmul(h, w_hn);
        let hn = graph.add_row_broadcast(hn, b_hn);
        let rhn = graph.mul(r, hn);
        let n_pre = graph.add(xn, rhn);
        let n = graph.tanh(n_pre);

        // h' = (1 - z) ⊙ n + z ⊙ h
        let one_minus_z = graph.one_minus(z);
        let a = graph.mul(one_minus_z, n);
        let b = graph.mul(z, h);
        graph.add(a, b)
    }

    /// Inference-only recurrent step: identical math to [`GruCell::forward`]
    /// without building a tape or copying the weight matrices. Batch rows
    /// are independent, so this serves `B` users in one fused pass (see
    /// the `gru_kernel` module) whose results are bit-identical to the
    /// tape's.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `B × input_dim` or `h` is not `B × hidden_dim`.
    pub fn forward_infer(&self, store: &ParamStore, x: &Tensor, h: &Tensor) -> Tensor {
        assert_eq!(x.cols(), self.input_dim, "GRU input width mismatch");
        assert_eq!(h.cols(), self.hidden_dim, "GRU state width mismatch");
        assert_eq!(x.rows(), h.rows(), "GRU input and state rows differ");
        let get = |id: ParamId| store.get(id).as_slice();
        let weights = GruWeights {
            w_i: [get(self.w_ir), get(self.w_iz), get(self.w_in)],
            b_i: [get(self.b_ir), get(self.b_iz), get(self.b_in)],
            w_h: [get(self.w_hr), get(self.w_hz), get(self.w_hn)],
            b_h: [get(self.b_hr), get(self.b_hz), get(self.b_hn)],
            input_dim: self.input_dim,
            hidden: self.hidden_dim,
        };
        let mut out = Tensor::zeros(h.rows(), self.hidden_dim);
        gru_step(&weights, x.as_slice(), h.as_slice(), out.as_mut_slice());
        out
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        3 * (self.input_dim * self.hidden_dim)
            + 3 * (self.hidden_dim * self.hidden_dim)
            + 6 * self.hidden_dim
    }

    /// Approximate FLOPs for a single hidden-state update (one row).
    pub fn flops(&self) -> u64 {
        let matmuls =
            3 * 2 * self.input_dim * self.hidden_dim + 3 * 2 * self.hidden_dim * self.hidden_dim;
        let elementwise = 10 * self.hidden_dim;
        (matmuls + elementwise) as u64
    }
}

/// A basic `tanh` recurrent cell: `h' = tanh(x·W_ih + b + h·W_hh)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TanhCell {
    w_ih: ParamId,
    w_hh: ParamId,
    bias: ParamId,
    input_dim: usize,
    hidden_dim: usize,
}

impl TanhCell {
    /// Registers a tanh recurrent cell's parameters in `store`.
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        store: &mut ParamStore,
        rng: &mut R,
    ) -> Self {
        let init = Init::RecurrentUniform;
        let w_ih = store.add(
            format!("{name}.w_ih"),
            init.build(input_dim, hidden_dim, rng),
        );
        let w_hh = store.add(
            format!("{name}.w_hh"),
            init.build(hidden_dim, hidden_dim, rng),
        );
        let bias = store.add(format!("{name}.bias"), Tensor::zeros(1, hidden_dim));
        Self {
            w_ih,
            w_hh,
            bias,
            input_dim,
            hidden_dim,
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden-state dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Builds one recurrent step in `graph`.
    pub fn forward(&self, graph: &mut Graph, store: &ParamStore, x: NodeId, h: NodeId) -> NodeId {
        let w_ih = graph.param(self.w_ih, store.get(self.w_ih));
        let w_hh = graph.param(self.w_hh, store.get(self.w_hh));
        let bias = graph.param(self.bias, store.get(self.bias));
        let xw = graph.matmul(x, w_ih);
        let hw = graph.matmul(h, w_hh);
        let sum = graph.add(xw, hw);
        let pre = graph.add_row_broadcast(sum, bias);
        graph.tanh(pre)
    }

    /// Inference-only recurrent step: the same matmuls and element-wise
    /// operations as [`TanhCell::forward`], in the same order, without a
    /// tape.
    pub fn forward_infer(&self, store: &ParamStore, x: &Tensor, h: &Tensor) -> Tensor {
        let xw = x.matmul(store.get(self.w_ih));
        let hw = h.matmul(store.get(self.w_hh));
        xw.add(&hw)
            .add_row_broadcast(store.get(self.bias))
            .map(f32::tanh)
    }

    /// Approximate FLOPs for one update.
    pub fn flops(&self) -> u64 {
        (2 * self.input_dim * self.hidden_dim
            + 2 * self.hidden_dim * self.hidden_dim
            + 2 * self.hidden_dim) as u64
    }
}

/// A long short-term memory cell. The cell state and hidden state are both
/// `hidden_dim` wide; [`LstmCell::forward`] takes and returns them
/// concatenated as `[h ; c]` (a `1 × 2·hidden_dim` node) so that the
/// sequence-level code can treat every cell kind uniformly as "state in,
/// state out".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LstmCell {
    w_ii: ParamId,
    w_if: ParamId,
    w_ig: ParamId,
    w_io: ParamId,
    w_hi: ParamId,
    w_hf: ParamId,
    w_hg: ParamId,
    w_ho: ParamId,
    b_i: ParamId,
    b_f: ParamId,
    b_g: ParamId,
    b_o: ParamId,
    input_dim: usize,
    hidden_dim: usize,
}

impl LstmCell {
    /// Registers an LSTM cell's parameters in `store`.
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        store: &mut ParamStore,
        rng: &mut R,
    ) -> Self {
        let init = Init::RecurrentUniform;
        let wi = |suffix: &str, store: &mut ParamStore, rng: &mut R| {
            store.add(
                format!("{name}.{suffix}"),
                init.build(input_dim, hidden_dim, rng),
            )
        };
        let w_ii = wi("w_ii", store, rng);
        let w_if = wi("w_if", store, rng);
        let w_ig = wi("w_ig", store, rng);
        let w_io = wi("w_io", store, rng);
        let wh = |suffix: &str, store: &mut ParamStore, rng: &mut R| {
            store.add(
                format!("{name}.{suffix}"),
                init.build(hidden_dim, hidden_dim, rng),
            )
        };
        let w_hi = wh("w_hi", store, rng);
        let w_hf = wh("w_hf", store, rng);
        let w_hg = wh("w_hg", store, rng);
        let w_ho = wh("w_ho", store, rng);
        let b = |suffix: &str, store: &mut ParamStore| {
            store.add(format!("{name}.{suffix}"), Tensor::zeros(1, hidden_dim))
        };
        let b_i = b("b_i", store);
        let b_f = b("b_f", store);
        let b_g = b("b_g", store);
        let b_o = b("b_o", store);
        Self {
            w_ii,
            w_if,
            w_ig,
            w_io,
            w_hi,
            w_hf,
            w_hg,
            w_ho,
            b_i,
            b_f,
            b_g,
            b_o,
            input_dim,
            hidden_dim,
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden-state dimensionality (the combined state is twice this).
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Builds one step. `state` must be a `1 × 2·hidden_dim` node holding
    /// `[h ; c]`; the returned node has the same layout.
    pub fn forward(
        &self,
        graph: &mut Graph,
        store: &ParamStore,
        x: NodeId,
        state: NodeId,
    ) -> NodeId {
        let h = graph.slice_cols(state, 0, self.hidden_dim);
        let c = graph.slice_cols(state, self.hidden_dim, 2 * self.hidden_dim);

        let gate = |graph: &mut Graph, wi, wh, b, act_sigmoid: bool| -> NodeId {
            let wi = graph.param(wi, store.get(wi));
            let wh = graph.param(wh, store.get(wh));
            let b = graph.param(b, store.get(b));
            let xw = graph.matmul(x, wi);
            let hw = graph.matmul(h, wh);
            let sum = graph.add(xw, hw);
            let pre = graph.add_row_broadcast(sum, b);
            if act_sigmoid {
                graph.sigmoid(pre)
            } else {
                graph.tanh(pre)
            }
        };

        let i = gate(graph, self.w_ii, self.w_hi, self.b_i, true);
        let f = gate(graph, self.w_if, self.w_hf, self.b_f, true);
        let g = gate(graph, self.w_ig, self.w_hg, self.b_g, false);
        let o = gate(graph, self.w_io, self.w_ho, self.b_o, true);

        let fc = graph.mul(f, c);
        let ig = graph.mul(i, g);
        let c_next = graph.add(fc, ig);
        let c_tanh = graph.tanh(c_next);
        let h_next = graph.mul(o, c_tanh);
        graph.concat_cols(h_next, c_next)
    }

    /// Inference-only step: the same operations as [`LstmCell::forward`],
    /// in the same order, without a tape; `state` is the
    /// same `[h ; c]` layout as [`LstmCell::forward`].
    pub fn forward_infer(&self, store: &ParamStore, x: &Tensor, state: &Tensor) -> Tensor {
        let h = state.slice_cols(0, self.hidden_dim);
        let c = state.slice_cols(self.hidden_dim, 2 * self.hidden_dim);
        let gate = |wi: ParamId, wh: ParamId, b: ParamId, act_sigmoid: bool| -> Tensor {
            let pre = x
                .matmul(store.get(wi))
                .add(&h.matmul(store.get(wh)))
                .add_row_broadcast(store.get(b));
            if act_sigmoid {
                pre.map(crate::graph::stable_sigmoid)
            } else {
                pre.map(f32::tanh)
            }
        };
        let i = gate(self.w_ii, self.w_hi, self.b_i, true);
        let f = gate(self.w_if, self.w_hf, self.b_f, true);
        let g = gate(self.w_ig, self.w_hg, self.b_g, false);
        let o = gate(self.w_io, self.w_ho, self.b_o, true);
        let c_next = f.mul(&c).add(&i.mul(&g));
        let h_next = o.mul(&c_next.map(f32::tanh));
        h_next.concat_cols(&c_next)
    }

    /// Approximate FLOPs for one update.
    pub fn flops(&self) -> u64 {
        (4 * 2 * self.input_dim * self.hidden_dim
            + 4 * 2 * self.hidden_dim * self.hidden_dim
            + 12 * self.hidden_dim) as u64
    }
}

/// Inverted dropout: during training each element is zeroed with probability
/// `p` and survivors are scaled by `1 / (1 - p)`; at evaluation time the
/// layer is the identity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Dropout {
    p: f32,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0, 1)"
        );
        Self { p }
    }

    /// Drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }

    /// Applies dropout to `x`. When `training` is false (or `p == 0`) this is
    /// a no-op that returns `x` unchanged.
    pub fn forward<R: Rng + ?Sized>(
        &self,
        graph: &mut Graph,
        x: NodeId,
        training: bool,
        rng: &mut R,
    ) -> NodeId {
        if !training || self.p == 0.0 {
            return x;
        }
        let shape = graph.value(x).shape();
        let keep = 1.0 - self.p;
        let mask_data: Vec<f32> = (0..shape.0 * shape.1)
            .map(|_| {
                if rng.gen::<f32>() < keep {
                    1.0 / keep
                } else {
                    0.0
                }
            })
            .collect();
        let mask = Tensor::from_vec(shape.0, shape.1, mask_data);
        graph.mask_mul(x, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn linear_forward_shape_and_value() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let layer = Linear::new("lin", 3, 2, &mut store, &mut r);
        assert_eq!(layer.num_params(), 8);

        // Overwrite the weights for a deterministic check.
        let (w, b) = layer.params();
        *store.get_mut(w) = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        *store.get_mut(b) = Tensor::from_row(&[0.5, -0.5]);

        let mut g = Graph::new();
        let x = g.constant(Tensor::from_row(&[1.0, 2.0, 3.0]));
        let y = layer.forward(&mut g, &store, x);
        assert_eq!(g.value(y).shape(), (1, 2));
        assert_eq!(g.value(y).as_slice(), &[4.5, 4.5]);
    }

    #[test]
    fn linear_gradients_flow_to_params() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let layer = Linear::new("lin", 4, 3, &mut store, &mut r);
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_row(&[1.0, -1.0, 0.5, 2.0]));
        let y = layer.forward(&mut g, &store, x);
        let s = g.sigmoid(y);
        let loss = g.mean(s);
        g.backward(loss);
        let mut grads = store.zero_grads();
        g.param_grads_into(&mut grads);
        let (w, b) = layer.params();
        assert!(grads.get(w).max_abs() > 0.0, "weight grad must be nonzero");
        assert!(grads.get(b).max_abs() > 0.0, "bias grad must be nonzero");
    }

    #[test]
    fn gru_step_shape_and_bounded_output() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let cell = GruCell::new("gru", 5, 8, &mut store, &mut r);
        assert_eq!(cell.hidden_dim(), 8);
        assert_eq!(cell.num_params(), 3 * 5 * 8 + 3 * 8 * 8 + 6 * 8);

        let mut g = Graph::new();
        let x = g.constant(Tensor::from_row(&[1.0, 0.0, -1.0, 0.5, 2.0]));
        let h = g.constant(Tensor::zeros(1, 8));
        let h1 = cell.forward(&mut g, &store, x, h);
        assert_eq!(g.value(h1).shape(), (1, 8));
        // GRU output is a convex combination of tanh output and previous
        // state, so it stays in (-1, 1) when starting from zero state.
        assert!(g.value(h1).max_abs() < 1.0);
    }

    #[test]
    fn gru_zero_input_zero_state_not_all_zero_after_training_signal() {
        // With zero biases and zero inputs the candidate n is 0, so h stays 0.
        let mut store = ParamStore::new();
        let mut r = rng();
        let cell = GruCell::new("gru", 3, 4, &mut store, &mut r);
        let mut g = Graph::new();
        let x = g.constant(Tensor::zeros(1, 3));
        let h = g.constant(Tensor::zeros(1, 4));
        let h1 = cell.forward(&mut g, &store, x, h);
        assert_eq!(g.value(h1).max_abs(), 0.0);
    }

    #[test]
    fn gru_bptt_gradients_nonzero_over_sequence() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let cell = GruCell::new("gru", 2, 4, &mut store, &mut r);
        let head = Linear::new("head", 4, 1, &mut store, &mut r);

        let mut g = Graph::new();
        let mut h = g.constant(Tensor::zeros(1, 4));
        for step in 0..5 {
            let x = g.constant(Tensor::from_row(&[step as f32, 1.0]));
            h = cell.forward(&mut g, &store, x, h);
        }
        let logit = head.forward(&mut g, &store, h);
        let loss = g.bce_with_logits(logit, Tensor::from_row(&[1.0]), None);
        g.backward(loss);
        let mut grads = store.zero_grads();
        g.param_grads_into(&mut grads);
        let nonzero = grads.iter().filter(|(_, t)| t.max_abs() > 0.0).count();
        // All GRU weights and the head should receive gradient.
        assert!(
            nonzero >= 12,
            "expected most params to get gradient, got {nonzero}"
        );
    }

    /// The six-matmul GRU step the fused kernel replaced, kept as its
    /// reference: one matmul per gate and side, then element-wise ops.
    fn gru_six_matmuls(cell: &GruCell, store: &ParamStore, x: &Tensor, h: &Tensor) -> Tensor {
        let gate_pre = |wi: ParamId, bi: ParamId, wh: ParamId, bh: ParamId| -> Tensor {
            let xi = x.matmul(store.get(wi)).add_row_broadcast(store.get(bi));
            let hh = h.matmul(store.get(wh)).add_row_broadcast(store.get(bh));
            xi.add(&hh)
        };
        let sigmoid = crate::graph::stable_sigmoid;
        let r = gate_pre(cell.w_ir, cell.b_ir, cell.w_hr, cell.b_hr).map(sigmoid);
        let z = gate_pre(cell.w_iz, cell.b_iz, cell.w_hz, cell.b_hz).map(sigmoid);
        let xn = x
            .matmul(store.get(cell.w_in))
            .add_row_broadcast(store.get(cell.b_in));
        let hn = h
            .matmul(store.get(cell.w_hn))
            .add_row_broadcast(store.get(cell.b_hn));
        let n = xn.add(&r.mul(&hn)).map(f32::tanh);
        z.map(|v| 1.0 - v).mul(&n).add(&z.mul(h))
    }

    #[test]
    fn fused_gru_is_bit_identical_to_six_matmuls() {
        // Input width 99 is the MobileTab update input; hidden 16 and 128
        // are the tiny and paper configs, 5 and 20 leave partial column
        // tiles. Batches of 1, 5 and 63 cover single rows and ragged ends.
        for (input_dim, hidden) in [(99, 16), (99, 128), (7, 5), (99, 20)] {
            let mut store = ParamStore::new();
            let mut r = rng();
            let cell = GruCell::new("gru", input_dim, hidden, &mut store, &mut r);
            for bias in [
                cell.b_ir, cell.b_iz, cell.b_in, cell.b_hr, cell.b_hz, cell.b_hn,
            ] {
                *store.get_mut(bias) = Init::RecurrentUniform.build(1, hidden, &mut r);
            }
            for rows in [1, 5, 63] {
                let mut x = Tensor::zeros(rows, input_dim);
                let mut h = Tensor::zeros(rows, hidden);
                for i in 0..rows {
                    match i % 4 {
                        // All-zero input and state (a cold user).
                        0 => {}
                        // Sparse input, as the one-hot update features are.
                        1 | 2 => {
                            for k in [i % input_dim, (3 * i + 1) % input_dim] {
                                x.set(i, k, 1.0);
                            }
                            x.set(i, input_dim - 1, r.gen_range(-1.0..1.0));
                            for k in 0..hidden {
                                h.set(i, k, r.gen_range(-1.0..1.0));
                            }
                        }
                        // Dense input with a zero state.
                        _ => {
                            for k in 0..input_dim {
                                x.set(i, k, r.gen_range(-2.0..2.0));
                            }
                        }
                    }
                }
                let fused = cell.forward_infer(&store, &x, &h);
                let reference = gru_six_matmuls(&cell, &store, &x, &h);
                assert_eq!(fused.shape(), (rows, hidden));
                for (i, (a, b)) in fused
                    .as_slice()
                    .iter()
                    .zip(reference.as_slice())
                    .enumerate()
                {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "in {input_dim}, hidden {hidden}, batch {rows}: element {i} {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn tanh_cell_forward_bounded() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let cell = TanhCell::new("rnn", 3, 6, &mut store, &mut r);
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_row(&[10.0, -10.0, 5.0]));
        let h = g.constant(Tensor::zeros(1, 6));
        let h1 = cell.forward(&mut g, &store, x, h);
        assert_eq!(g.value(h1).shape(), (1, 6));
        assert!(g.value(h1).max_abs() <= 1.0);
    }

    #[test]
    fn lstm_state_layout_roundtrip() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let cell = LstmCell::new("lstm", 3, 5, &mut store, &mut r);
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_row(&[1.0, -0.5, 0.25]));
        let state = g.constant(Tensor::zeros(1, 10));
        let next = cell.forward(&mut g, &store, x, state);
        assert_eq!(g.value(next).shape(), (1, 10));
        // Hidden part (first half) is o ⊙ tanh(c) and therefore bounded by 1.
        let hidden = g.value(next).slice_cols(0, 5);
        assert!(hidden.max_abs() <= 1.0);
    }

    #[test]
    fn dropout_eval_is_identity() {
        let d = Dropout::new(0.5);
        let mut g = Graph::new();
        let x = g.constant(Tensor::ones(1, 100));
        let mut r = rng();
        let y = d.forward(&mut g, x, false, &mut r);
        assert_eq!(y, x);
    }

    #[test]
    fn dropout_training_scales_survivors() {
        let d = Dropout::new(0.2);
        let mut g = Graph::new();
        let x = g.constant(Tensor::ones(1, 10_000));
        let mut r = rng();
        let y = d.forward(&mut g, x, true, &mut r);
        let values = g.value(y).as_slice();
        let zeros = values.iter().filter(|&&v| v == 0.0).count();
        let scaled = values.iter().filter(|&&v| (v - 1.25).abs() < 1e-6).count();
        assert_eq!(zeros + scaled, 10_000);
        // Dropout rate should be near 20%.
        assert!((zeros as f32 / 10_000.0 - 0.2).abs() < 0.03);
        // Expected value preserved.
        let mean: f32 = values.iter().sum::<f32>() / values.len() as f32;
        assert!((mean - 1.0).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn dropout_invalid_probability_panics() {
        let _ = Dropout::new(1.0);
    }

    #[test]
    fn flops_are_positive_and_ordered() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let gru = GruCell::new("gru", 16, 128, &mut store, &mut r);
        let tanh = TanhCell::new("tanh", 16, 128, &mut store, &mut r);
        let lstm = LstmCell::new("lstm", 16, 128, &mut store, &mut r);
        assert!(tanh.flops() < gru.flops());
        assert!(gru.flops() < lstm.flops());
    }
}
