//! The hyperparameter search behind the `search` experiment, standing in
//! for the Ax + Nevergrad tooling the paper uses (§IV) to tune BCPNN's
//! use-case-dependent hyperparameters: the seven-dimension Higgs space
//! ([`bcpnn_higgs_space`]), uniform random search ([`RandomSearch`]), a
//! (1 + λ) evolution strategy ([`EvolutionSearch`]) and the trials each
//! leaves behind ([`SearchHistory`]).

use std::collections::BTreeMap;
use std::ops::RangeInclusive;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One parameter dimension.
#[derive(Debug, Clone, PartialEq)]
enum ParamSpec {
    /// A real parameter sampled uniformly in the range.
    Continuous(RangeInclusive<f64>),
    /// A real parameter sampled log-uniformly in the range (both ends > 0).
    LogContinuous(RangeInclusive<f64>),
    /// An integer parameter sampled uniformly in the range.
    Integer(RangeInclusive<i64>),
    /// One of a fixed set of named choices.
    Categorical(&'static [&'static str]),
}

/// A concrete parameter value.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// Real value.
    Float(f64),
    /// Integer value.
    Int(i64),
    /// Categorical choice.
    Choice(String),
}

impl ParamValue {
    /// The value as `f64` (integers are converted; panics for categoricals).
    pub fn as_f64(&self) -> f64 {
        match self {
            ParamValue::Float(v) => *v,
            ParamValue::Int(v) => *v as f64,
            ParamValue::Choice(c) => panic!("categorical value {c:?} has no numeric form"),
        }
    }

    /// The value as `i64` (floats are rounded; panics for categoricals).
    pub fn as_i64(&self) -> i64 {
        match self {
            ParamValue::Float(v) => v.round() as i64,
            ParamValue::Int(v) => *v,
            ParamValue::Choice(c) => panic!("categorical value {c:?} has no numeric form"),
        }
    }

    /// The value as a string slice (categoricals only).
    pub fn as_str(&self) -> &str {
        match self {
            ParamValue::Choice(c) => c,
            _ => panic!("numeric value has no categorical form"),
        }
    }
}

/// A full assignment of values to every parameter of a space.
pub type ParamSet = BTreeMap<String, ParamValue>;

/// A named collection of parameter dimensions. Sampling and mutation draw
/// from the RNG dimension by dimension in name order.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpace {
    dims: BTreeMap<&'static str, ParamSpec>,
}

impl ParamSpace {
    /// Sample a uniformly random assignment.
    fn sample(&self, rng: &mut StdRng) -> ParamSet {
        self.dims
            .iter()
            .map(|(name, spec)| {
                let value = match spec {
                    ParamSpec::Continuous(range) => ParamValue::Float(rng.gen_range(range.clone())),
                    ParamSpec::LogContinuous(range) => {
                        let v = rng.gen_range(range.start().ln()..=range.end().ln()).exp();
                        ParamValue::Float(v)
                    }
                    ParamSpec::Integer(range) => ParamValue::Int(rng.gen_range(range.clone())),
                    ParamSpec::Categorical(choices) => {
                        ParamValue::Choice(choices[rng.gen_range(0..choices.len())].to_string())
                    }
                };
                (name.to_string(), value)
            })
            .collect()
    }

    /// Mutate one assignment of this space: every dimension is re-drawn
    /// near its current value with probability `mutation_rate`
    /// (categoricals are re-sampled uniformly). Values stay inside their
    /// bounds.
    fn mutate(&self, base: &ParamSet, mutation_rate: f64, rng: &mut StdRng) -> ParamSet {
        self.dims
            .iter()
            .map(|(name, spec)| {
                let current = base[*name].clone();
                if rng.gen::<f64>() >= mutation_rate {
                    return (name.to_string(), current);
                }
                let value = match spec {
                    ParamSpec::Continuous(range) => {
                        let (low, high) = (*range.start(), *range.end());
                        let v = (current.as_f64() + rng.gen_range(-0.2..0.2) * (high - low))
                            .clamp(low, high);
                        ParamValue::Float(v)
                    }
                    ParamSpec::LogContinuous(range) => {
                        let v = (current.as_f64().ln() + rng.gen_range(-0.5..0.5))
                            .exp()
                            .clamp(*range.start(), *range.end());
                        ParamValue::Float(v)
                    }
                    ParamSpec::Integer(range) => {
                        let (low, high) = (*range.start(), *range.end());
                        let span = ((high - low) / 5).max(1);
                        let v = (current.as_i64() + rng.gen_range(-span..=span)).clamp(low, high);
                        ParamValue::Int(v)
                    }
                    ParamSpec::Categorical(choices) => {
                        ParamValue::Choice(choices[rng.gen_range(0..choices.len())].to_string())
                    }
                };
                (name.to_string(), value)
            })
            .collect()
    }
}

/// The search space of the `search` experiment: the hyperparameters §IV
/// says were tuned with Ax/Nevergrad.
pub fn bcpnn_higgs_space() -> ParamSpace {
    // `experiments::search` reads five of these; `plasticity_swaps` and
    // `sgd_learning_rate` are drawn and ignored. Every draw advances the
    // one RNG stream, so dropping the two would change every later trial
    // and move the ledger's `search` row.
    let dims = BTreeMap::from([
        ("n_hcu", ParamSpec::Integer(1..=8)),
        ("n_mcu", ParamSpec::Categorical(&["30", "300", "3000"])),
        ("receptive_field", ParamSpec::Continuous(0.05..=0.95)),
        ("trace_rate", ParamSpec::LogContinuous(1e-3..=0.5)),
        ("support_noise", ParamSpec::Continuous(0.0..=0.5)),
        ("plasticity_swaps", ParamSpec::Integer(1..=32)),
        ("sgd_learning_rate", ParamSpec::LogContinuous(1e-3..=1.0)),
    ]);
    ParamSpace { dims }
}

/// One evaluated configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Trial {
    /// Index of the trial in evaluation order.
    pub index: usize,
    /// The evaluated parameter assignment.
    pub params: ParamSet,
    /// The objective value (higher is better, e.g. accuracy).
    pub score: f64,
}

/// The trials of one search, in evaluation order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchHistory {
    trials: Vec<Trial>,
}

impl SearchHistory {
    fn record(&mut self, params: ParamSet, score: f64) {
        let index = self.trials.len();
        self.trials.push(Trial {
            index,
            params,
            score,
        });
    }

    /// All trials in evaluation order.
    pub fn trials(&self) -> &[Trial] {
        &self.trials
    }

    /// The best trial (highest score; ties go to the earliest trial).
    pub fn best(&self) -> Option<&Trial> {
        self.trials.iter().max_by(|a, b| {
            a.score
                .partial_cmp(&b.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                // max_by returns the last maximum; prefer the earliest.
                .then(b.index.cmp(&a.index))
        })
    }
}

/// Uniform random search.
#[derive(Debug, Clone)]
pub struct RandomSearch {
    space: ParamSpace,
    seed: u64,
}

impl RandomSearch {
    /// A random search over `space`, drawing from an RNG seeded with `seed`.
    pub fn new(space: ParamSpace, seed: u64) -> Self {
        Self { space, seed }
    }

    /// Evaluate `budget` uniformly random configurations with `objective`
    /// (higher is better).
    pub fn run<F>(&self, budget: usize, mut objective: F) -> SearchHistory
    where
        F: FnMut(&ParamSet) -> f64,
    {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut history = SearchHistory::default();
        for _ in 0..budget {
            let candidate = self.space.sample(&mut rng);
            let score = objective(&candidate);
            history.record(candidate, score);
        }
        history
    }
}

/// Configuration of the evolution strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct EvolutionConfig {
    /// Number of offspring per generation (λ).
    pub offspring: usize,
    /// Per-dimension mutation probability.
    pub mutation_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

/// (1 + λ) evolution strategy, the derivative-free optimiser playing the
/// role of Nevergrad: each generation mutates the incumbent into λ
/// offspring, evaluates them, and keeps the best of parent + offspring.
#[derive(Debug, Clone)]
pub struct EvolutionSearch {
    space: ParamSpace,
    config: EvolutionConfig,
}

impl EvolutionSearch {
    /// An evolution strategy over `space`.
    ///
    /// # Panics
    /// Panics if `offspring` is zero: no generation would ever end.
    pub fn new(space: ParamSpace, config: EvolutionConfig) -> Self {
        assert!(config.offspring > 0, "offspring must be positive");
        Self { space, config }
    }

    /// Run with a total budget of `budget` objective calls (higher is
    /// better). Trial 0 is the initial random parent.
    pub fn run<F>(&self, budget: usize, mut objective: F) -> SearchHistory
    where
        F: FnMut(&ParamSet) -> f64,
    {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut history = SearchHistory::default();
        if budget == 0 {
            return history;
        }
        let mut parent = self.space.sample(&mut rng);
        let mut parent_score = objective(&parent);
        history.record(parent.clone(), parent_score);
        let mut evaluations = 1usize;
        while evaluations < budget {
            let mut best_child: Option<(ParamSet, f64)> = None;
            for _ in 0..self.config.offspring {
                if evaluations >= budget {
                    break;
                }
                let child = self
                    .space
                    .mutate(&parent, self.config.mutation_rate, &mut rng);
                let score = objective(&child);
                history.record(child.clone(), score);
                evaluations += 1;
                if best_child.as_ref().is_none_or(|(_, s)| score > *s) {
                    best_child = Some((child, score));
                }
            }
            if let Some((child, score)) = best_child {
                if score > parent_score {
                    parent = child;
                    parent_score = score;
                }
            }
        }
        history
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn evolution(seed: u64) -> EvolutionSearch {
        EvolutionSearch::new(
            bcpnn_higgs_space(),
            EvolutionConfig {
                offspring: 6,
                mutation_rate: 0.4,
                seed,
            },
        )
    }

    /// Every dimension of the Higgs space is set, with a value of the
    /// right kind inside its bounds.
    fn assert_inside(set: &ParamSet) {
        let space = bcpnn_higgs_space();
        assert_eq!(set.len(), space.dims.len(), "{set:?}");
        for (name, spec) in &space.dims {
            let inside = match (spec, &set[*name]) {
                (ParamSpec::Continuous(range), ParamValue::Float(v))
                | (ParamSpec::LogContinuous(range), ParamValue::Float(v)) => range.contains(v),
                (ParamSpec::Integer(range), ParamValue::Int(v)) => range.contains(v),
                (ParamSpec::Categorical(choices), ParamValue::Choice(c)) => {
                    choices.contains(&c.as_str())
                }
                _ => false,
            };
            assert!(inside, "{name} escaped the space: {set:?}");
        }
    }

    /// Smooth objective with its optimum at a 70 % field, 0.1 noise and
    /// 5 HCUs.
    fn smooth(p: &ParamSet) -> f64 {
        let field = p["receptive_field"].as_f64();
        let noise = p["support_noise"].as_f64();
        let hcus = p["n_hcu"].as_i64() as f64;
        -((field - 0.7).powi(2) + (noise - 0.1).powi(2) + 0.01 * (hcus - 5.0).powi(2))
    }

    #[test]
    fn value_conversions() {
        assert_eq!(ParamValue::Float(2.6).as_i64(), 3);
        assert_eq!(ParamValue::Int(4).as_f64(), 4.0);
        assert_eq!(ParamValue::Choice("a".into()).as_str(), "a");
    }

    #[test]
    #[should_panic(expected = "no numeric form")]
    fn categorical_as_f64_panics() {
        let _ = ParamValue::Choice("x".into()).as_f64();
    }

    #[test]
    fn samples_are_inside_the_space() {
        let space = bcpnn_higgs_space();
        let mut r = rng(1);
        for _ in 0..200 {
            assert_inside(&space.sample(&mut r));
        }
    }

    #[test]
    fn log_sampling_covers_orders_of_magnitude() {
        let space = bcpnn_higgs_space();
        let mut r = rng(2);
        let mut small = 0;
        let mut large = 0;
        for _ in 0..500 {
            let v = space.sample(&mut r)["sgd_learning_rate"].as_f64();
            if v < 1e-2 {
                small += 1;
            }
            if v > 1e-1 {
                large += 1;
            }
        }
        // Log-uniform over [1e-3, 1]: each decade draws about a third.
        assert!(small > 100, "small {small}");
        assert!(large > 100, "large {large}");
    }

    #[test]
    fn mutation_stays_inside_and_changes_something() {
        let space = bcpnn_higgs_space();
        let mut r = rng(3);
        let base = space.sample(&mut r);
        let mut changed = 0;
        for _ in 0..50 {
            let m = space.mutate(&base, 1.0, &mut r);
            assert_inside(&m);
            if m != base {
                changed += 1;
            }
        }
        assert!(
            changed > 40,
            "full-rate mutation should almost always change the set"
        );
        // Zero mutation rate is the identity.
        assert_eq!(space.mutate(&base, 0.0, &mut r), base);
    }

    #[test]
    fn records_and_finds_the_best() {
        let base = bcpnn_higgs_space().sample(&mut rng(4));
        let mut h = SearchHistory::default();
        assert!(h.best().is_none());
        h.record(base.clone(), 0.6);
        h.record(base.clone(), 0.8);
        h.record(base, 0.7);
        assert_eq!(h.trials().len(), 3);
        let best = h.best().unwrap();
        assert_eq!(best.index, 1);
        assert_eq!(best.score, 0.8);
    }

    #[test]
    fn ties_go_to_the_earliest_trial() {
        let base = bcpnn_higgs_space().sample(&mut rng(5));
        let mut h = SearchHistory::default();
        h.record(base.clone(), 0.9);
        h.record(base, 0.9);
        assert_eq!(h.best().unwrap().index, 0);
    }

    #[test]
    fn finds_a_reasonable_optimum_with_enough_budget() {
        let history = RandomSearch::new(bcpnn_higgs_space(), 2).run(400, smooth);
        let best = history.best().unwrap();
        assert!(best.score > -0.05, "best score {}", best.score);
        assert!((best.params["receptive_field"].as_f64() - 0.7).abs() < 0.2);
        assert!((best.params["support_noise"].as_f64() - 0.1).abs() < 0.2);
    }

    #[test]
    fn runs_exactly_the_budget() {
        let search = RandomSearch::new(bcpnn_higgs_space(), 1);
        assert_eq!(search.run(25, smooth).trials().len(), 25);
        assert!(search.run(0, smooth).trials().is_empty());
    }

    #[test]
    fn is_deterministic_per_seed() {
        let a = RandomSearch::new(bcpnn_higgs_space(), 3).run(20, smooth);
        let b = RandomSearch::new(bcpnn_higgs_space(), 3).run(20, smooth);
        assert_eq!(a, b);
        let c = RandomSearch::new(bcpnn_higgs_space(), 4).run(20, smooth);
        assert_ne!(a, c);
    }

    #[test]
    fn respects_the_evaluation_budget() {
        let es = evolution(0);
        assert_eq!(es.run(37, smooth).trials().len(), 37);
        assert!(es.run(0, smooth).trials().is_empty());
    }

    #[test]
    fn improves_over_its_own_first_guess() {
        let history = evolution(5).run(120, smooth);
        let first = history.trials()[0].score;
        let best = history.best().unwrap().score;
        assert!(best > first, "ES must improve: first {first}, best {best}");
        assert!(best > -0.05, "best {best}");
    }

    #[test]
    fn beats_random_search_on_a_smooth_objective() {
        // Average over a few seeds to keep the comparison robust.
        let budget = 80;
        let mut es_total = 0.0;
        let mut rs_total = 0.0;
        for seed in 0..5 {
            es_total += evolution(seed).run(budget, smooth).best().unwrap().score;
            rs_total += RandomSearch::new(bcpnn_higgs_space(), seed)
                .run(budget, smooth)
                .best()
                .unwrap()
                .score;
        }
        assert!(
            es_total >= rs_total,
            "ES ({es_total:.3}) should do at least as well as random ({rs_total:.3})"
        );
    }

    #[test]
    fn all_trials_stay_inside_the_space() {
        for trial in evolution(0).run(60, smooth).trials() {
            assert_inside(&trial.params);
        }
    }

    #[test]
    #[should_panic(expected = "offspring must be positive")]
    fn rejects_zero_offspring() {
        let _ = EvolutionSearch::new(
            bcpnn_higgs_space(),
            EvolutionConfig {
                offspring: 0,
                mutation_rate: 0.4,
                seed: 0,
            },
        );
    }
}
