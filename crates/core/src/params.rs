//! Hyperparameters of the BCPNN model.
//!
//! BCPNN exposes more hyperparameters than a plain backprop network (§IV of
//! the paper motivates using Ax/Nevergrad to search them); this module
//! gathers them in one validated struct so the experiment harness and its
//! hyperparameter search can manipulate them uniformly.

/// Configuration of the unsupervised hidden layer (the HCU/MCU layer).
#[derive(Debug, Clone, PartialEq)]
pub struct HiddenLayerParams {
    /// Number of input variables (e.g. 280 for the 28-feature, 10-bin
    /// one-hot encoded Higgs data).
    pub n_inputs: usize,
    /// Number of hypercolumn units. Fig. 3 sweeps {1, 2, 4, 6, 8}.
    pub n_hcu: usize,
    /// Number of minicolumn units per hypercolumn. Fig. 3 sweeps
    /// {30, 300, 3000}.
    pub n_mcu: usize,
    /// Receptive-field density in (0, 1]: the fraction of inputs each HCU is
    /// allowed to connect to. Fig. 4 sweeps 0.05–0.95; the paper's default
    /// for Fig. 3 is 0.30.
    pub receptive_field: f64,
    /// Exponential-moving-average rate of the probability traces
    /// (≈ `1 / τ_p`); one batch moves the traces this fraction of the way
    /// towards the batch statistics.
    pub trace_rate: f32,
    /// Probability floor used inside `ln` (StreamBrain's `eps`).
    pub eps: f32,
    /// Gain applied to the bias term `b_j = gain · ln(p_j)`. For the
    /// unsupervised hidden layer the default is 0: with a full prior bias,
    /// frequently-winning minicolumns get an ever larger head start and a
    /// single MCU can capture the whole hypercolumn (winner-take-all
    /// collapse). Dropping the prior term lets the log-odds weights alone
    /// drive the competition, which is what makes the MCUs differentiate
    /// into distinct features. The supervised readout keeps its own bias
    /// gain of 1 (class priors are informative there).
    pub bias_gain: f32,
    /// Standard deviation of the Gaussian noise added to the support during
    /// unsupervised training. Symmetry breaking between minicolumns; 0
    /// disables it.
    pub support_noise: f32,
    /// Number of (activate, silence) connection swaps attempted per HCU per
    /// structural-plasticity update.
    pub plasticity_swaps: usize,
    /// Run structural plasticity every `plasticity_interval` epochs
    /// (1 = every epoch, which is what the paper does).
    pub plasticity_interval: usize,
}

impl Default for HiddenLayerParams {
    fn default() -> Self {
        Self {
            n_inputs: 280,
            n_hcu: 1,
            n_mcu: 300,
            receptive_field: 0.30,
            trace_rate: 0.05,
            eps: 1e-6,
            bias_gain: 0.0,
            support_noise: 0.1,
            plasticity_swaps: 8,
            plasticity_interval: 1,
        }
    }
}

impl HiddenLayerParams {
    /// Total number of minicolumn units across all hypercolumns.
    pub fn n_units(&self) -> usize {
        self.n_hcu * self.n_mcu
    }

    /// Number of active connections per HCU implied by the receptive field.
    /// Always at least 1 so an HCU is never completely blind.
    pub fn active_connections(&self) -> usize {
        ((self.n_inputs as f64 * self.receptive_field).round() as usize).clamp(1, self.n_inputs)
    }

    /// Validate the parameter combination, returning a description of the
    /// first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_inputs == 0 {
            return Err("n_inputs must be positive".into());
        }
        if self.n_hcu == 0 {
            return Err("n_hcu must be positive".into());
        }
        if self.n_mcu == 0 {
            return Err("n_mcu must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.receptive_field) || self.receptive_field == 0.0 {
            return Err(format!(
                "receptive_field must be in (0, 1], got {}",
                self.receptive_field
            ));
        }
        if !(self.trace_rate > 0.0 && self.trace_rate <= 1.0) {
            return Err(format!(
                "trace_rate must be in (0, 1], got {}",
                self.trace_rate
            ));
        }
        if self.eps <= 0.0 {
            return Err("eps must be positive".into());
        }
        if self.support_noise < 0.0 {
            return Err("support_noise must be non-negative".into());
        }
        if self.plasticity_interval == 0 {
            return Err("plasticity_interval must be positive".into());
        }
        Ok(())
    }
}

/// Configuration of the whole training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingParams {
    /// Unsupervised epochs over the training set for the hidden layer.
    pub unsupervised_epochs: usize,
    /// Supervised epochs for the classification layer.
    pub supervised_epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Base RNG seed; repetition `r` of an experiment uses `seed + r`.
    pub seed: u64,
    /// Shuffle the training set between epochs.
    pub shuffle: bool,
}

impl Default for TrainingParams {
    fn default() -> Self {
        Self {
            unsupervised_epochs: 5,
            supervised_epochs: 5,
            batch_size: 128,
            seed: 42,
            shuffle: true,
        }
    }
}

impl TrainingParams {
    /// Validate the parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.batch_size == 0 {
            return Err("batch_size must be positive".into());
        }
        if self.unsupervised_epochs == 0 && self.supervised_epochs == 0 {
            return Err("at least one training phase must have epochs".into());
        }
        Ok(())
    }
}

/// Parameters of the SGD (softmax-regression) classification head used for
/// the paper's "BCPNN + SGD" hybrid and for the baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct SgdParams {
    /// Learning rate.
    pub learning_rate: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// L2 weight-decay coefficient.
    pub weight_decay: f32,
    /// Multiplicative learning-rate decay applied after every epoch.
    pub lr_decay: f32,
}

impl Default for SgdParams {
    fn default() -> Self {
        Self {
            learning_rate: 0.1,
            momentum: 0.9,
            weight_decay: 1e-4,
            lr_decay: 0.95,
        }
    }
}

impl SgdParams {
    /// Validate the parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.learning_rate <= 0.0 {
            return Err("learning_rate must be positive".into());
        }
        if !(0.0..1.0).contains(&self.momentum) {
            return Err("momentum must be in [0, 1)".into());
        }
        if self.weight_decay < 0.0 {
            return Err("weight_decay must be non-negative".into());
        }
        if !(0.0 < self.lr_decay && self.lr_decay <= 1.0) {
            return Err("lr_decay must be in (0, 1]".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(HiddenLayerParams::default().validate().is_ok());
        assert!(TrainingParams::default().validate().is_ok());
        assert!(SgdParams::default().validate().is_ok());
    }

    #[test]
    fn unit_and_connection_counts() {
        let p = HiddenLayerParams {
            n_inputs: 280,
            n_hcu: 4,
            n_mcu: 300,
            receptive_field: 0.30,
            ..Default::default()
        };
        assert_eq!(p.n_units(), 1200);
        assert_eq!(p.active_connections(), 84);
    }

    #[test]
    fn tiny_receptive_field_keeps_at_least_one_connection() {
        let p = HiddenLayerParams {
            n_inputs: 100,
            receptive_field: 0.001,
            ..Default::default()
        };
        assert_eq!(p.active_connections(), 1);
    }

    #[test]
    fn invalid_hidden_params_are_rejected() {
        let bad_rf = HiddenLayerParams {
            receptive_field: 0.0,
            ..Default::default()
        };
        assert!(bad_rf.validate().is_err());
        let bad_rate = HiddenLayerParams {
            trace_rate: 1.5,
            ..Default::default()
        };
        assert!(bad_rate.validate().is_err());
        let bad_mcu = HiddenLayerParams {
            n_mcu: 0,
            ..Default::default()
        };
        assert!(bad_mcu.validate().is_err());
        let bad_interval = HiddenLayerParams {
            plasticity_interval: 0,
            ..Default::default()
        };
        assert!(bad_interval.validate().is_err());
    }

    #[test]
    fn invalid_training_params_are_rejected() {
        let bad = TrainingParams {
            batch_size: 0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let no_epochs = TrainingParams {
            unsupervised_epochs: 0,
            supervised_epochs: 0,
            ..Default::default()
        };
        assert!(no_epochs.validate().is_err());
    }

    #[test]
    fn invalid_sgd_params_are_rejected() {
        assert!(SgdParams {
            learning_rate: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SgdParams {
            momentum: 1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SgdParams {
            lr_decay: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }
}
