//! The paper's recurrent model (§6.2, Figure 3): a recurrent cell
//! (`RNN_update`) advancing a per-user hidden state, and a prediction head
//! (`RNN_predict`) combining the latest available hidden state with the
//! current context through a latent-cross interaction and a one-hidden-layer
//! MLP.
//!
//! The two halves are deliberately separate — the serving architecture (§9)
//! runs them in different places: `RNN_predict` at session start on the
//! request path, `RNN_update` asynchronously once the session outcome is
//! known.

use pp_data::schema::DatasetKind;
use pp_features::rnn_input::RnnFeaturizer;
use pp_nn::graph::{stable_sigmoid, Graph, NodeId};
use pp_nn::layers::{CellKind, Dropout, GruCell, Linear, LstmCell, TanhCell};
use pp_nn::params::ParamStore;
use pp_nn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Which prediction task the model is built for. The update path is
/// identical; the prediction input differs (§3.2.1 / Eq. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    /// Predict an access within the session that is starting now
    /// (MobileTab, MPU).
    PerSession,
    /// Predict an access within an upcoming peak window using history alone
    /// (Timeshift).
    Timeshifted,
}

/// Hyper-parameters of the recurrent model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RnnModelConfig {
    /// Recurrent cell type (§6.2 evaluates tanh, GRU, LSTM; GRU wins).
    pub cell: CellKind,
    /// Hidden-state dimensionality (paper: 128).
    pub hidden_dim: usize,
    /// Width of the MLP hidden layer (paper: 128).
    pub mlp_width: usize,
    /// Dropout probability inside the MLP (paper: 0.2).
    pub dropout: f32,
    /// Whether to apply the latent-cross interaction
    /// `h' = h ⊙ (1 + L(f))` before the MLP (paper §6.2).
    pub latent_cross: bool,
}

impl Default for RnnModelConfig {
    fn default() -> Self {
        Self {
            cell: CellKind::Gru,
            hidden_dim: 128,
            mlp_width: 128,
            dropout: 0.2,
            latent_cross: true,
        }
    }
}

impl RnnModelConfig {
    /// A small configuration suitable for unit tests and quick examples.
    pub fn tiny() -> Self {
        Self {
            hidden_dim: 16,
            mlp_width: 16,
            ..Default::default()
        }
    }
}

/// Internal enum holding the chosen recurrent cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Cell {
    Tanh(TanhCell),
    Gru(GruCell),
    Lstm(LstmCell),
}

/// The recurrent predictive-precompute model.
///
/// The model owns its [`ParamStore`]; training code reads and writes the
/// store through [`RnnModel::params`] / [`RnnModel::params_mut`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RnnModel {
    params: ParamStore,
    cell: Cell,
    latent: Option<Linear>,
    mlp_hidden: Linear,
    mlp_out: Linear,
    dropout: Dropout,
    config: RnnModelConfig,
    kind: DatasetKind,
    task: TaskKind,
    featurizer: RnnFeaturizer,
}

impl RnnModel {
    /// Builds a model for a dataset family and task with freshly initialized
    /// parameters.
    pub fn new(kind: DatasetKind, task: TaskKind, config: RnnModelConfig, seed: u64) -> Self {
        let featurizer = RnnFeaturizer::new(kind);
        let update_dims = featurizer.update_input_dims();
        let predict_dims = match task {
            TaskKind::PerSession => featurizer.predict_input_dims(),
            TaskKind::Timeshifted => featurizer.timeshift_predict_dims(),
        };
        let mut params = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let cell = match config.cell {
            CellKind::Tanh => Cell::Tanh(TanhCell::new(
                "cell",
                update_dims,
                config.hidden_dim,
                &mut params,
                &mut rng,
            )),
            CellKind::Gru => Cell::Gru(GruCell::new(
                "cell",
                update_dims,
                config.hidden_dim,
                &mut params,
                &mut rng,
            )),
            CellKind::Lstm => Cell::Lstm(LstmCell::new(
                "cell",
                update_dims,
                config.hidden_dim,
                &mut params,
                &mut rng,
            )),
        };
        let latent = config.latent_cross.then(|| {
            Linear::new(
                "latent_cross",
                predict_dims,
                config.hidden_dim,
                &mut params,
                &mut rng,
            )
        });
        let mlp_hidden = Linear::new(
            "mlp.hidden",
            config.hidden_dim + predict_dims,
            config.mlp_width,
            &mut params,
            &mut rng,
        );
        let mlp_out = Linear::new("mlp.out", config.mlp_width, 1, &mut params, &mut rng);
        let dropout = Dropout::new(config.dropout);
        Self {
            params,
            cell,
            latent,
            mlp_hidden,
            mlp_out,
            dropout,
            config,
            kind,
            task,
            featurizer,
        }
    }

    /// The model's hyper-parameters.
    pub fn config(&self) -> RnnModelConfig {
        self.config
    }

    /// Dataset family the model was built for.
    pub fn kind(&self) -> DatasetKind {
        self.kind
    }

    /// Prediction task the model was built for.
    pub fn task(&self) -> TaskKind {
        self.task
    }

    /// The featurizer producing this model's inputs.
    pub fn featurizer(&self) -> &RnnFeaturizer {
        &self.featurizer
    }

    /// Immutable access to the parameter store.
    pub fn params(&self) -> &ParamStore {
        &self.params
    }

    /// Mutable access to the parameter store (used by optimizers).
    pub fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.params
    }

    /// Total number of trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.params.num_scalars()
    }

    /// Dimensionality of the *stored* per-user state: `hidden_dim` for
    /// tanh/GRU cells, `2 × hidden_dim` for LSTM (hidden + cell state).
    pub fn state_dim(&self) -> usize {
        match &self.cell {
            Cell::Lstm(_) => 2 * self.config.hidden_dim,
            _ => self.config.hidden_dim,
        }
    }

    /// Size in bytes of one stored hidden state (`f32` per dimension) —
    /// 512 bytes for the paper's 128-dimensional GRU.
    pub fn state_bytes(&self) -> usize {
        self.state_dim() * std::mem::size_of::<f32>()
    }

    /// The all-zero initial state `h_0`.
    pub fn initial_state(&self) -> Vec<f32> {
        vec![0.0; self.state_dim()]
    }

    /// Dimensionality of the prediction input vector.
    pub fn predict_input_dims(&self) -> usize {
        match self.task {
            TaskKind::PerSession => self.featurizer.predict_input_dims(),
            TaskKind::Timeshifted => self.featurizer.timeshift_predict_dims(),
        }
    }

    /// Dimensionality of the update input vector.
    pub fn update_input_dims(&self) -> usize {
        self.featurizer.update_input_dims()
    }

    /// Builds the `RNN_update` step in an autograd graph: consumes the state
    /// node and an update-input node, returns the next state node.
    pub fn update_node(&self, graph: &mut Graph, state: NodeId, update_input: NodeId) -> NodeId {
        match &self.cell {
            Cell::Tanh(c) => c.forward(graph, &self.params, update_input, state),
            Cell::Gru(c) => c.forward(graph, &self.params, update_input, state),
            Cell::Lstm(c) => c.forward(graph, &self.params, update_input, state),
        }
    }

    /// Builds the `RNN_predict` head in an autograd graph, returning the
    /// *logit* node (apply a sigmoid for the probability). `training`
    /// controls dropout.
    pub fn predict_logit_node<R: Rng + ?Sized>(
        &self,
        graph: &mut Graph,
        state: NodeId,
        predict_input: NodeId,
        training: bool,
        rng: &mut R,
    ) -> NodeId {
        // For LSTM, only the hidden half of the state feeds the head.
        let h = match &self.cell {
            Cell::Lstm(_) => graph.slice_cols(state, 0, self.config.hidden_dim),
            _ => state,
        };
        let crossed = if let Some(latent) = &self.latent {
            // h' = h ⊙ (1 + L(f))
            let l = latent.forward(graph, &self.params, predict_input);
            let one_plus = graph.add_scalar(l, 1.0);
            graph.mul(h, one_plus)
        } else {
            h
        };
        let joined = graph.concat_cols(crossed, predict_input);
        let hidden = self.mlp_hidden.forward(graph, &self.params, joined);
        let dropped = self.dropout.forward(graph, hidden, training, rng);
        let activated = graph.relu(dropped);
        self.mlp_out.forward(graph, &self.params, activated)
    }

    /// Inference: advances a stored state given an update input, without
    /// building gradients. This is [`RnnModel::advance_state_rows`] with one
    /// row: there is one inference path whatever the batch size.
    ///
    /// # Panics
    ///
    /// Panics if the input lengths do not match the model.
    pub fn advance_state(&self, state: &[f32], update_input: &[f32]) -> Vec<f32> {
        assert_eq!(state.len(), self.state_dim(), "state length mismatch");
        self.advance_state_rows(state.to_vec(), update_input.to_vec())
    }

    /// Inference: predicted access probability from a stored state and a
    /// prediction input, without building gradients (dropout disabled).
    /// This is [`RnnModel::predict_proba_rows`] with one row.
    ///
    /// # Panics
    ///
    /// Panics if the input lengths do not match the model.
    pub fn predict_proba(&self, state: &[f32], predict_input: &[f32]) -> f64 {
        assert_eq!(state.len(), self.state_dim(), "state length mismatch");
        self.predict_proba_rows(state.to_vec(), predict_input.to_vec())[0]
    }

    /// Batched inference over one contiguous batch: `states` holds `B`
    /// row-major states of [`RnnModel::state_dim`] entries and
    /// `update_inputs` the matching `B` rows of
    /// [`RnnModel::update_input_dims`]. Returns the `B` next states,
    /// row-major. One graph-free forward pass serves the whole batch — no
    /// autograd tape, no per-call copies of the weight matrices — and row
    /// `i` equals the tape forward pass [`RnnModel::update_node`] on that
    /// row alone.
    ///
    /// # Panics
    ///
    /// Panics if the buffers do not hold the same whole number of rows.
    pub fn advance_state_rows(&self, states: Vec<f32>, update_inputs: Vec<f32>) -> Vec<f32> {
        let rows = self.rows_of(&states, &update_inputs, self.update_input_dims(), "update");
        let s = Tensor::from_vec(rows, self.state_dim(), states);
        let x = Tensor::from_vec(rows, self.update_input_dims(), update_inputs);
        self.update_infer(&s, &x).into_vec()
    }

    /// Batched inference over one contiguous batch (see
    /// [`RnnModel::advance_state_rows`] for the layout): returns the `B`
    /// predicted access probabilities, dropout disabled. Element `i` equals
    /// the tape forward pass [`RnnModel::predict_logit_node`] on row `i`
    /// alone, through a sigmoid.
    ///
    /// # Panics
    ///
    /// Panics if the buffers do not hold the same whole number of rows.
    pub fn predict_proba_rows(&self, states: Vec<f32>, predict_inputs: Vec<f32>) -> Vec<f64> {
        let rows = self.rows_of(
            &states,
            &predict_inputs,
            self.predict_input_dims(),
            "predict",
        );
        let s = Tensor::from_vec(rows, self.state_dim(), states);
        let x = Tensor::from_vec(rows, self.predict_input_dims(), predict_inputs);
        self.predict_logit_infer(&s, &x)
            .as_slice()
            .iter()
            .map(|&logit| f64::from(stable_sigmoid(logit)))
            .collect()
    }

    /// Number of rows in a contiguous batch, checking that the state and
    /// input buffers agree.
    fn rows_of(&self, states: &[f32], inputs: &[f32], input_dims: usize, what: &str) -> usize {
        let state_dim = self.state_dim();
        assert!(
            states.len().is_multiple_of(state_dim),
            "state length mismatch: {} is not a multiple of {state_dim}",
            states.len()
        );
        let rows = states.len() / state_dim;
        assert_eq!(
            inputs.len(),
            rows * input_dims,
            "{what} input length mismatch: {rows} rows of {input_dims} expected"
        );
        rows
    }

    /// Inference-only update step over a whole batch tensor.
    fn update_infer(&self, state: &Tensor, update_input: &Tensor) -> Tensor {
        match &self.cell {
            Cell::Tanh(c) => c.forward_infer(&self.params, update_input, state),
            Cell::Gru(c) => c.forward_infer(&self.params, update_input, state),
            Cell::Lstm(c) => c.forward_infer(&self.params, update_input, state),
        }
    }

    /// Inference-only prediction head over a whole batch tensor, returning
    /// per-row logits (dropout disabled).
    fn predict_logit_infer(&self, state: &Tensor, predict_input: &Tensor) -> Tensor {
        let lstm_hidden;
        let h = match &self.cell {
            Cell::Lstm(_) => {
                lstm_hidden = state.slice_cols(0, self.config.hidden_dim);
                &lstm_hidden
            }
            _ => state,
        };
        let joined = if let Some(latent) = &self.latent {
            // h' = h ⊙ (1 + L(f))
            let one_plus = latent
                .forward_infer(&self.params, predict_input)
                .map(|v| v + 1.0);
            h.mul(&one_plus).concat_cols(predict_input)
        } else {
            h.concat_cols(predict_input)
        };
        let activated = self
            .mlp_hidden
            .forward_infer(&self.params, &joined)
            .map(|v| v.max(0.0));
        self.mlp_out.forward_infer(&self.params, &activated)
    }

    /// Batched inference over per-row slices: copies the rows into one
    /// contiguous batch and runs [`RnnModel::advance_state_rows`]. Row `i`
    /// of the result equals `advance_state(&states[i], &update_inputs[i])`.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length or any row has the wrong
    /// dimensionality.
    pub fn advance_state_batch<S, U>(&self, states: &[S], update_inputs: &[U]) -> Vec<Vec<f32>>
    where
        S: AsRef<[f32]>,
        U: AsRef<[f32]>,
    {
        assert_eq!(
            states.len(),
            update_inputs.len(),
            "advance_state_batch: {} states but {} update inputs",
            states.len(),
            update_inputs.len()
        );
        let (s, x) = self.contiguous(states, update_inputs, self.update_input_dims(), "update");
        self.advance_state_rows(s, x)
            .chunks_exact(self.state_dim())
            .map(<[f32]>::to_vec)
            .collect()
    }

    /// Batched inference over per-row slices (dropout disabled): copies the
    /// rows into one contiguous batch and runs
    /// [`RnnModel::predict_proba_rows`]. Element `i` of the result equals
    /// `predict_proba(&states[i], &predict_inputs[i])`.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length or any row has the wrong
    /// dimensionality.
    pub fn predict_proba_batch<S, P>(&self, states: &[S], predict_inputs: &[P]) -> Vec<f64>
    where
        S: AsRef<[f32]>,
        P: AsRef<[f32]>,
    {
        assert_eq!(
            states.len(),
            predict_inputs.len(),
            "predict_proba_batch: {} states but {} predict inputs",
            states.len(),
            predict_inputs.len()
        );
        let (s, x) = self.contiguous(states, predict_inputs, self.predict_input_dims(), "predict");
        self.predict_proba_rows(s, x)
    }

    /// Concatenates per-row state and input slices into contiguous
    /// buffers, checking every row's width.
    fn contiguous<S, X>(
        &self,
        states: &[S],
        inputs: &[X],
        input_dims: usize,
        what: &str,
    ) -> (Vec<f32>, Vec<f32>)
    where
        S: AsRef<[f32]>,
        X: AsRef<[f32]>,
    {
        let mut s = Vec::with_capacity(states.len() * self.state_dim());
        let mut x = Vec::with_capacity(inputs.len() * input_dims);
        for (state, input) in states.iter().zip(inputs) {
            let (state, input) = (state.as_ref(), input.as_ref());
            assert_eq!(state.len(), self.state_dim(), "state length mismatch");
            assert_eq!(input.len(), input_dims, "{what} input length mismatch");
            s.extend_from_slice(state);
            x.extend_from_slice(input);
        }
        (s, x)
    }

    /// Approximate FLOPs of one `RNN_update` call (one session), used by the
    /// serving cost model.
    pub fn update_flops(&self) -> u64 {
        match &self.cell {
            Cell::Tanh(c) => c.flops(),
            Cell::Gru(c) => c.flops(),
            Cell::Lstm(c) => c.flops(),
        }
    }

    /// Approximate FLOPs of one `RNN_predict` call (one prediction).
    pub fn predict_flops(&self) -> u64 {
        let mut flops = self.mlp_hidden.flops() + self.mlp_out.flops();
        if let Some(latent) = &self.latent {
            flops += latent.flops() + 2 * self.config.hidden_dim as u64;
        }
        flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_data::schema::{Context, Tab};

    fn model(cell: CellKind) -> RnnModel {
        RnnModel::new(
            DatasetKind::MobileTab,
            TaskKind::PerSession,
            RnnModelConfig {
                cell,
                ..RnnModelConfig::tiny()
            },
            7,
        )
    }

    fn ctx() -> Context {
        Context::MobileTab {
            unread_count: 3,
            active_tab: Tab::Home,
        }
    }

    #[test]
    fn dimensions_are_consistent() {
        let m = model(CellKind::Gru);
        assert_eq!(m.state_dim(), 16);
        assert_eq!(m.state_bytes(), 64);
        assert_eq!(m.initial_state().len(), 16);
        assert_eq!(m.predict_input_dims(), m.featurizer().predict_input_dims());
        assert_eq!(m.update_input_dims(), m.featurizer().update_input_dims());
        assert!(m.num_parameters() > 1_000);
        // Paper-scale model: 128-dim hidden state is 512 bytes.
        let full = RnnModel::new(
            DatasetKind::MobileTab,
            TaskKind::PerSession,
            RnnModelConfig::default(),
            0,
        );
        assert_eq!(full.state_bytes(), 512);
    }

    #[test]
    fn lstm_state_is_twice_hidden() {
        let m = model(CellKind::Lstm);
        assert_eq!(m.state_dim(), 32);
    }

    #[test]
    fn advance_state_changes_state_and_is_deterministic() {
        let m = model(CellKind::Gru);
        let f = m.featurizer();
        let update = f.update_input(1_000, &ctx(), 600, true);
        let h0 = m.initial_state();
        let h1 = m.advance_state(&h0, &update);
        let h1b = m.advance_state(&h0, &update);
        assert_eq!(h1, h1b);
        assert_ne!(h0, h1);
        assert_eq!(h1.len(), m.state_dim());
        assert!(h1.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn access_flag_influences_the_next_state() {
        let m = model(CellKind::Gru);
        let f = m.featurizer();
        let h0 = m.initial_state();
        let with_access = m.advance_state(&h0, &f.update_input(1_000, &ctx(), 600, true));
        let without_access = m.advance_state(&h0, &f.update_input(1_000, &ctx(), 600, false));
        assert_ne!(with_access, without_access);
    }

    #[test]
    fn predict_proba_in_unit_interval_for_all_cells() {
        for cell in [CellKind::Tanh, CellKind::Gru, CellKind::Lstm] {
            let m = model(cell);
            let f = m.featurizer();
            let h = m.initial_state();
            let p = m.predict_proba(&h, &f.predict_input(2_000, &ctx(), 1_000));
            assert!((0.0..=1.0).contains(&p), "cell {cell}: p = {p}");
        }
    }

    #[test]
    fn prediction_depends_on_hidden_state() {
        let m = model(CellKind::Gru);
        let f = m.featurizer();
        let predict_input = f.predict_input(5_000, &ctx(), 1_000);
        let h0 = m.initial_state();
        let mut h = h0.clone();
        for i in 0..5 {
            h = m.advance_state(&h, &f.update_input(1_000 * i, &ctx(), 600, true));
        }
        let p_cold = m.predict_proba(&h0, &predict_input);
        let p_warm = m.predict_proba(&h, &predict_input);
        assert_ne!(p_cold, p_warm);
    }

    #[test]
    fn timeshifted_task_uses_smaller_predict_input() {
        let m = RnnModel::new(
            DatasetKind::Timeshift,
            TaskKind::Timeshifted,
            RnnModelConfig::tiny(),
            0,
        );
        assert_eq!(
            m.predict_input_dims(),
            m.featurizer().timeshift_predict_dims()
        );
        let p = m.predict_proba(
            &m.initial_state(),
            &m.featurizer().timeshift_predict_input(3_600),
        );
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn latent_cross_changes_the_architecture() {
        let base = RnnModelConfig::tiny();
        let without = RnnModel::new(
            DatasetKind::MobileTab,
            TaskKind::PerSession,
            RnnModelConfig {
                latent_cross: false,
                ..base
            },
            3,
        );
        let with = RnnModel::new(DatasetKind::MobileTab, TaskKind::PerSession, base, 3);
        assert!(with.num_parameters() > without.num_parameters());
        assert!(with.predict_flops() > without.predict_flops());
    }

    #[test]
    fn flop_counts_positive_and_scale_with_hidden_dim() {
        let small = model(CellKind::Gru);
        let large = RnnModel::new(
            DatasetKind::MobileTab,
            TaskKind::PerSession,
            RnnModelConfig::default(),
            0,
        );
        assert!(small.update_flops() > 0);
        assert!(large.update_flops() > small.update_flops());
        assert!(large.predict_flops() > small.predict_flops());
    }

    #[test]
    #[should_panic(expected = "state length mismatch")]
    fn wrong_state_length_panics() {
        let m = model(CellKind::Gru);
        let f = m.featurizer();
        let _ = m.predict_proba(&[0.0; 3], &f.predict_input(0, &ctx(), 0));
    }

    #[test]
    fn batched_paths_match_single_request_paths() {
        for cell in [CellKind::Tanh, CellKind::Gru, CellKind::Lstm] {
            let m = model(cell);
            let f = m.featurizer();
            // Build a few distinct per-user states by advancing from h_0.
            let mut states: Vec<Vec<f32>> = Vec::new();
            let mut predict_inputs: Vec<Vec<f32>> = Vec::new();
            let mut update_inputs: Vec<Vec<f32>> = Vec::new();
            for i in 0..7i64 {
                let mut h = m.initial_state();
                for step in 0..i {
                    h = m
                        .advance_state(&h, &f.update_input(600 * step, &ctx(), 300, step % 2 == 0));
                }
                states.push(h);
                predict_inputs.push(f.predict_input(10_000 + i, &ctx(), 60 * i));
                update_inputs.push(f.update_input(10_000 + i, &ctx(), 60 * i, i % 2 == 1));
            }
            let batch_probs = m.predict_proba_batch(&states, &predict_inputs);
            let batch_states = m.advance_state_batch(&states, &update_inputs);
            for i in 0..states.len() {
                let single_p = m.predict_proba(&states[i], &predict_inputs[i]);
                assert!(
                    (batch_probs[i] - single_p).abs() < 1e-6,
                    "cell {cell}, row {i}: batch {} vs single {}",
                    batch_probs[i],
                    single_p
                );
                let single_h = m.advance_state(&states[i], &update_inputs[i]);
                for (a, b) in batch_states[i].iter().zip(&single_h) {
                    assert!((a - b).abs() < 1e-6, "cell {cell}, row {i}: state drift");
                }
            }
        }
    }

    /// The graph-free serving path against the tape forward pass that
    /// training differentiates: if these ever disagree, the model serves
    /// different numbers from the ones it was trained to produce.
    #[test]
    fn graph_free_inference_matches_the_tape_oracle() {
        let mut rng = StdRng::seed_from_u64(5);
        for cell in [CellKind::Tanh, CellKind::Gru, CellKind::Lstm] {
            for latent_cross in [true, false] {
                let m = RnnModel::new(
                    DatasetKind::MobileTab,
                    TaskKind::PerSession,
                    RnnModelConfig {
                        cell,
                        latent_cross,
                        ..RnnModelConfig::tiny()
                    },
                    9,
                );
                let f = m.featurizer();
                for rows in [1usize, 3, 64] {
                    let mut states = Vec::new();
                    let mut update_inputs = Vec::new();
                    let mut predict_inputs = Vec::new();
                    for i in 0..rows as i64 {
                        // Row 0 is a cold user (h_0); the rest are warm.
                        let state: Vec<f32> = (0..m.state_dim())
                            .map(|_| {
                                if i == 0 {
                                    0.0
                                } else {
                                    rng.gen_range(-1.0..1.0)
                                }
                            })
                            .collect();
                        let ctx = Context::MobileTab {
                            unread_count: (i % 11) as u8,
                            active_tab: Tab::ALL[i as usize % Tab::ALL.len()],
                        };
                        states.extend_from_slice(&state);
                        f.append_update_input(
                            3_600 * i,
                            &ctx,
                            90 * i,
                            i % 2 == 0,
                            &mut update_inputs,
                        );
                        f.append_predict_input(3_600 * i + 60, &ctx, 60 * i, &mut predict_inputs);
                    }
                    let next = m.advance_state_rows(states.clone(), update_inputs.clone());
                    let probs = m.predict_proba_rows(states.clone(), predict_inputs.clone());
                    let rows_of = |v: &[f32], width: usize| -> Vec<Vec<f32>> {
                        v.chunks_exact(width).map(<[f32]>::to_vec).collect()
                    };
                    let state_rows = rows_of(&states, m.state_dim());
                    let update_rows = rows_of(&update_inputs, m.update_input_dims());
                    let predict_rows = rows_of(&predict_inputs, m.predict_input_dims());
                    for i in 0..rows {
                        let mut graph = Graph::new();
                        let s = graph.constant(Tensor::from_row(&state_rows[i]));
                        let u = graph.constant(Tensor::from_row(&update_rows[i]));
                        let p = graph.constant(Tensor::from_row(&predict_rows[i]));
                        let tape_next = m.update_node(&mut graph, s, u);
                        let logit = m.predict_logit_node(&mut graph, s, p, false, &mut rng);
                        let tape_p = f64::from(stable_sigmoid(graph.value(logit).at(0, 0)));
                        let what =
                            format!("{cell}, latent cross {latent_cross}, batch {rows}, row {i}");
                        assert!((probs[i] - tape_p).abs() < 1e-6, "{what}: predict");
                        let served = &next[i * m.state_dim()..(i + 1) * m.state_dim()];
                        for (a, b) in served.iter().zip(graph.value(tape_next).as_slice()) {
                            assert!((a - b).abs() < 1e-6, "{what}: update {a} vs {b}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batch_of_one_and_empty_batch() {
        let m = model(CellKind::Gru);
        let f = m.featurizer();
        let h = m.initial_state();
        let p = f.predict_input(1_000, &ctx(), 100);
        let probs = m.predict_proba_batch(std::slice::from_ref(&h), std::slice::from_ref(&p));
        assert_eq!(probs.len(), 1);
        assert!((probs[0] - m.predict_proba(&h, &p)).abs() < 1e-9);
        let empty: Vec<Vec<f32>> = Vec::new();
        assert!(m.predict_proba_batch(&empty, &empty).is_empty());
        assert!(m.advance_state_batch(&empty, &empty).is_empty());
    }

    #[test]
    #[should_panic(expected = "predict_proba_batch")]
    fn batch_length_mismatch_panics() {
        let m = model(CellKind::Gru);
        let f = m.featurizer();
        let h = m.initial_state();
        let p = f.predict_input(1_000, &ctx(), 100);
        let _ = m.predict_proba_batch(&[h.clone(), h], &[p]);
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let m = model(CellKind::Gru);
        let f = m.featurizer();
        let json = serde_json::to_string(&m).unwrap();
        let back: RnnModel = serde_json::from_str(&json).unwrap();
        let h = m.initial_state();
        let input = f.predict_input(2_000, &ctx(), 500);
        assert!((m.predict_proba(&h, &input) - back.predict_proba(&h, &input)).abs() < 1e-6);
    }
}
