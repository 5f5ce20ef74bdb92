//! Serving cost comparison between the RNN path and the aggregation-feature
//! path (paper §9, "Relative production resources").
//!
//! The paper's claims, which this module lets you recompute on any
//! model/dataset pair:
//!
//! * the RNN's *model* computation is ≈ 9.5× the GBDT's;
//! * but the aggregation path needs ≈ 20 key-value lookups per prediction
//!   (one per window × context-subset cell plus the elapsed-time keys) and
//!   may store thousands of keys per user, while the RNN path needs exactly
//!   one 512-byte lookup;
//! * so the *overall* serving cost drops by roughly 10× with the RNN.

use bytes::Bytes;
use pp_baselines::Gbdt;
use pp_data::schema::Dataset;
use pp_features::aggregation::AggregationState;
use pp_features::baseline::BaselineFeaturizer;
use pp_rnn::RnnModel;
use serde::{Deserialize, Serialize};

/// Per-prediction serving profile of one model path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServingProfile {
    /// Key-value lookups needed to serve one prediction.
    pub lookups_per_prediction: f64,
    /// Bytes fetched from the store per prediction.
    pub bytes_per_prediction: f64,
    /// Model-evaluation FLOPs per prediction (tree comparisons are counted
    /// as one FLOP each).
    pub model_flops_per_prediction: f64,
    /// Average number of store keys per user.
    pub storage_keys_per_user: f64,
    /// Average stored bytes per user.
    pub storage_bytes_per_user: f64,
}

/// Relative cost of two serving paths under a simple cost model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostComparison {
    /// The aggregation-feature (baseline) path.
    pub baseline: ServingProfile,
    /// The hidden-state (RNN) path.
    pub rnn: ServingProfile,
    /// RNN model FLOPs divided by baseline model FLOPs (paper: ≈ 9.5).
    pub model_compute_ratio: f64,
    /// Baseline lookups divided by RNN lookups (paper: ≈ 20).
    pub lookup_ratio: f64,
    /// Baseline overall cost divided by RNN overall cost (paper: ≈ 10).
    pub overall_cost_ratio: f64,
}

/// Weights converting lookups/bytes/FLOPs into a single abstract cost unit.
/// The defaults reflect the paper's observation that serving aggregate
/// features "requires about two orders of magnitude more compute than the
/// model computation itself": a remote key-value lookup is vastly more
/// expensive than an arithmetic operation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostWeights {
    /// Cost of one key-value lookup, in FLOP-equivalents.
    pub flops_per_lookup: f64,
    /// Cost of moving one byte from the store, in FLOP-equivalents.
    pub flops_per_byte: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        Self {
            flops_per_lookup: 50_000.0,
            flops_per_byte: 10.0,
        }
    }
}

impl ServingProfile {
    /// Total per-prediction cost of this path under `weights`, in abstract
    /// FLOP-equivalent units — the single formula behind both the §9
    /// comparison ([`compare`]) and the precompute budget
    /// (`pp-precompute`'s token bucket is denominated in these units; a
    /// multi-activity deployment derives each activity's per-prefetch cost
    /// from its own model's profile through this function).
    ///
    /// # Examples
    ///
    /// ```
    /// use pp_serving::{CostWeights, ServingProfile};
    ///
    /// let rnn_like = ServingProfile {
    ///     lookups_per_prediction: 1.0,
    ///     bytes_per_prediction: 512.0,
    ///     model_flops_per_prediction: 2_400.0,
    ///     storage_keys_per_user: 1.0,
    ///     storage_bytes_per_user: 512.0,
    /// };
    /// // one lookup (50 000) + 512 bytes (5 120) + the model FLOPs
    /// assert_eq!(rnn_like.cost_units(&CostWeights::default()), 57_520.0);
    /// ```
    pub fn cost_units(&self, weights: &CostWeights) -> f64 {
        self.lookups_per_prediction * weights.flops_per_lookup
            + self.bytes_per_prediction * weights.flops_per_byte
            + self.model_flops_per_prediction
    }
}

/// Measures the serving profile of the aggregation-feature path on a sample
/// of users: replays each user's history through [`AggregationState`] and
/// records lookup counts, key counts and the GBDT evaluation cost.
pub fn baseline_profile(
    dataset: &Dataset,
    user_indices: &[usize],
    featurizer: &BaselineFeaturizer,
    gbdt: &Gbdt,
) -> ServingProfile {
    let mut total_keys = 0u64;
    let mut total_users = 0u64;
    let mut lookups = 0f64;
    for &ui in user_indices {
        let user = &dataset.users[ui];
        let mut state = AggregationState::new(dataset.kind);
        for s in &user.sessions {
            state.record(s.timestamp, &s.context, s.accessed);
        }
        lookups = state.lookups_per_prediction() as f64;
        total_keys += state.num_storage_keys() as u64;
        total_users += 1;
    }
    let keys_per_user = if total_users == 0 {
        0.0
    } else {
        total_keys as f64 / total_users as f64
    };
    // Each aggregation cell stores two counters (sessions, accesses) as u32
    // plus the last-access / last-session timestamps per subset; 16 bytes per
    // key is a generous lower bound.
    let bytes_per_key = 16.0;
    // Each lookup returns roughly one cell's worth of bytes.
    let bytes_per_prediction = lookups * bytes_per_key;
    // GBDT evaluation: one comparison per tree level, plus the feature-vector
    // assembly which is proportional to its dimensionality.
    let model_flops = gbdt.comparisons_per_prediction() as f64 + featurizer.dims() as f64;
    ServingProfile {
        lookups_per_prediction: lookups,
        bytes_per_prediction,
        model_flops_per_prediction: model_flops,
        storage_keys_per_user: keys_per_user,
        storage_bytes_per_user: keys_per_user * bytes_per_key,
    }
}

/// Serving profile of the RNN path: one lookup returning one hidden state,
/// and the `RNN_predict` FLOPs.
pub fn rnn_profile(model: &RnnModel) -> ServingProfile {
    ServingProfile {
        lookups_per_prediction: 1.0,
        bytes_per_prediction: model.state_bytes() as f64,
        model_flops_per_prediction: model.predict_flops() as f64,
        storage_keys_per_user: 1.0,
        storage_bytes_per_user: model.state_bytes() as f64,
    }
}

/// Combines two profiles under the cost weights.
pub fn compare(
    baseline: ServingProfile,
    rnn: ServingProfile,
    weights: CostWeights,
) -> CostComparison {
    let total = |p: &ServingProfile| p.cost_units(&weights);
    CostComparison {
        baseline,
        rnn,
        model_compute_ratio: rnn.model_flops_per_prediction
            / baseline.model_flops_per_prediction.max(1.0),
        lookup_ratio: baseline.lookups_per_prediction / rnn.lookups_per_prediction.max(1e-9),
        overall_cost_ratio: total(&baseline) / total(&rnn).max(1e-9),
    }
}

/// A uniformly quantized hidden state: one byte per dimension plus a scale
/// and offset (§9: "neural network quantization methods can also be applied
/// to store single bytes instead of floating-point numbers").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedState {
    /// Per-dimension codes.
    pub codes: Vec<u8>,
    /// Dequantized value = `offset + code × scale`.
    pub scale: f32,
    /// See `scale`.
    pub offset: f32,
}

impl QuantizedState {
    /// Quantizes a state vector to 8 bits per dimension.
    pub fn quantize(state: &[f32]) -> Self {
        let min = state.iter().copied().fold(f32::INFINITY, f32::min);
        let max = state.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let (min, max) = if state.is_empty() || !min.is_finite() {
            (0.0, 0.0)
        } else {
            (min, max)
        };
        let scale = if max > min { (max - min) / 255.0 } else { 1.0 };
        let codes = state
            .iter()
            .map(|&v| (((v - min) / scale).round().clamp(0.0, 255.0)) as u8)
            .collect();
        Self {
            codes,
            scale,
            offset: min,
        }
    }

    /// Reconstructs the (lossy) state vector.
    pub fn dequantize(&self) -> Vec<f32> {
        self.codes
            .iter()
            .map(|&c| self.offset + c as f32 * self.scale)
            .collect()
    }

    /// Serialized size in bytes (codes + scale + offset).
    pub fn encoded_bytes(&self) -> usize {
        self.codes.len() + 8
    }

    /// Encodes into bytes for the hidden-state store.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(self.encoded_bytes());
        out.extend_from_slice(&self.scale.to_le_bytes());
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.codes);
        Bytes::from(out)
    }

    /// Decodes from bytes produced by [`QuantizedState::encode`].
    ///
    /// # Panics
    ///
    /// Panics if the buffer is shorter than the 8-byte header.
    pub fn decode(bytes: &Bytes) -> Self {
        assert!(bytes.len() >= 8, "quantized state too short");
        let scale = f32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        let offset = f32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        Self {
            codes: bytes[8..].to_vec(),
            scale,
            offset,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_baselines::GbdtConfig;
    use pp_data::schema::DatasetKind;
    use pp_data::synth::{MobileTabConfig, MobileTabGenerator, SyntheticGenerator};
    use pp_features::baseline::{build_session_examples, ElapsedEncoding, FeatureSet};
    use pp_rnn::{RnnModelConfig, TaskKind};

    #[test]
    fn rnn_profile_matches_model_dimensions() {
        let model = RnnModel::new(
            DatasetKind::MobileTab,
            TaskKind::PerSession,
            RnnModelConfig::default(),
            0,
        );
        let p = rnn_profile(&model);
        assert_eq!(p.lookups_per_prediction, 1.0);
        assert_eq!(p.bytes_per_prediction, 512.0);
        assert_eq!(p.storage_keys_per_user, 1.0);
        assert!(p.model_flops_per_prediction > 0.0);
    }

    #[test]
    fn comparison_reproduces_paper_shape() {
        // Train a small GBDT and compute both profiles on a small dataset.
        let ds = MobileTabGenerator::new(MobileTabConfig {
            num_users: 30,
            num_days: 10,
            ..Default::default()
        })
        .generate();
        let featurizer =
            BaselineFeaturizer::new(ds.kind, FeatureSet::Full, ElapsedEncoding::Scalar);
        let idx: Vec<usize> = (0..ds.users.len()).collect();
        let examples = build_session_examples(&ds, &idx, &featurizer, Some(7));
        let gbdt = Gbdt::train(
            &examples,
            GbdtConfig {
                num_trees: 20,
                max_depth: 6,
                ..Default::default()
            },
        );
        let rnn = RnnModel::new(
            DatasetKind::MobileTab,
            TaskKind::PerSession,
            RnnModelConfig::default(),
            0,
        );
        let base = baseline_profile(&ds, &idx, &featurizer, &gbdt);
        let comparison = compare(base, rnn_profile(&rnn), CostWeights::default());

        // The qualitative shape of §9: the RNN model itself is more expensive…
        assert!(
            comparison.model_compute_ratio > 2.0,
            "RNN model should cost more FLOPs than GBDT (ratio {})",
            comparison.model_compute_ratio
        );
        // …but it needs far fewer lookups (paper: ~20×)…
        assert!(
            comparison.lookup_ratio >= 10.0,
            "baseline should need many more lookups (ratio {})",
            comparison.lookup_ratio
        );
        // …and the overall serving cost favours the RNN by a large factor.
        assert!(
            comparison.overall_cost_ratio > 2.0,
            "overall cost should favour the RNN (ratio {})",
            comparison.overall_cost_ratio
        );
        // The baseline stores many more keys per user than the RNN's single key.
        assert!(base.storage_keys_per_user > 10.0);
    }

    #[test]
    fn lookup_counts_match_aggregation_state() {
        let ds = MobileTabGenerator::new(MobileTabConfig {
            num_users: 3,
            num_days: 5,
            ..Default::default()
        })
        .generate();
        let featurizer =
            BaselineFeaturizer::new(ds.kind, FeatureSet::Full, ElapsedEncoding::Scalar);
        let idx: Vec<usize> = (0..3).collect();
        let examples = build_session_examples(&ds, &idx, &featurizer, None);
        let gbdt = Gbdt::train(
            &examples,
            GbdtConfig {
                num_trees: 3,
                ..Default::default()
            },
        );
        let p = baseline_profile(&ds, &idx, &featurizer, &gbdt);
        // MobileTab: 4 subsets × 4 windows + 4 elapsed = 20 lookups (§9).
        assert_eq!(p.lookups_per_prediction, 20.0);
    }

    #[test]
    fn quantization_is_close_and_4x_smaller() {
        let state: Vec<f32> = (0..128).map(|i| (i as f32 / 13.0).sin()).collect();
        let q = QuantizedState::quantize(&state);
        let back = q.dequantize();
        assert_eq!(back.len(), state.len());
        let max_err = state
            .iter()
            .zip(&back)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err < 0.01, "quantization error too large: {max_err}");
        assert!(q.encoded_bytes() * 3 < std::mem::size_of_val(state.as_slice()));
        // Encode/decode roundtrip.
        let decoded = QuantizedState::decode(&q.encode());
        assert_eq!(decoded, q);
    }

    #[test]
    fn quantization_handles_constant_and_empty_vectors() {
        let q = QuantizedState::quantize(&[1.5; 10]);
        assert!(q.dequantize().iter().all(|&v| (v - 1.5).abs() < 1e-6));
        let q = QuantizedState::quantize(&[]);
        assert!(q.dequantize().is_empty());
    }
}
