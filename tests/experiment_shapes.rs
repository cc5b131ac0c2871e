//! The paper's claims on miniature set-ups: every experiment of
//! `bcpnn_bench::experiments` at `Size::Quick`, asserting the *shape* of
//! the results (the verdicts `EXPERIMENTS.md` records at `Size::Ledger`)
//! rather than absolute numbers. These are the regression tests that keep
//! the reproduction honest: if a refactor breaks capacity scaling,
//! receptive-field scaling, structural plasticity or the timing behaviour,
//! these tests catch it. The set-ups live in the experiments themselves, so
//! the test, the document and the code cannot drift.

use std::sync::OnceLock;

use bcpnn_bench::experiments::{self, claim_ids, Claim, Experiment, Size};

/// The claim `id` of `experiment`, after checking that the experiment
/// returned exactly its share of [`claim_ids`], in order.
fn claim<'a>(experiment: &'a Experiment, id: &str) -> &'a Claim {
    let prefix = format!("{}.", experiment.name);
    let expected: Vec<&str> = claim_ids()
        .into_iter()
        .filter(|id| id.starts_with(&prefix))
        .collect();
    let returned: Vec<&str> = experiment.claims.iter().map(|c| c.id).collect();
    assert_eq!(returned, expected, "claims of {}", experiment.name);
    experiment
        .claims
        .iter()
        .find(|c| c.id == id)
        .unwrap_or_else(|| panic!("no claim {id}"))
}

fn assert_holds(experiment: &Experiment, id: &str) {
    let claim = claim(experiment, id);
    assert!(
        claim.holds,
        "{id}: the paper says {:?}, we measured {:?} ({})",
        claim.paper, claim.ours, experiment.setup
    );
}

/// Fig. 3 runs once for both of its tests.
fn fig3() -> &'static Experiment {
    static FIG3: OnceLock<Experiment> = OnceLock::new();
    FIG3.get_or_init(|| experiments::fig3(Size::Quick))
}

/// Fig. 4 runs once for both of its tests.
fn fig4() -> &'static Experiment {
    static FIG4: OnceLock<Experiment> = OnceLock::new();
    FIG4.get_or_init(|| experiments::fig4(Size::Quick))
}

/// Fig. 3 (capacity axis): more minicolumns per hypercolumn give higher
/// accuracy, with diminishing returns.
#[test]
fn fig3_shape_more_mcus_help_with_diminishing_returns() {
    assert_holds(fig3(), "fig3.capacity_in_one_hcu");
}

/// Fig. 3 (time axis): training time grows with the total number of units
/// (HCUs × MCUs).
#[test]
fn fig3_shape_training_time_grows_with_network_size() {
    assert_holds(fig3(), "fig3.time_grows_with_size");
}

/// Fig. 4 (accuracy axis): a tiny receptive field cannot do much better than
/// chance; a mid-sized one can.
#[test]
fn fig4_shape_tiny_receptive_fields_limit_accuracy() {
    assert_holds(fig4(), "fig4.tiny_fields_near_chance");
}

/// Fig. 4 (time axis): training time is nearly independent of the
/// receptive-field density (the trace update touches every connection
/// regardless of the mask).
#[test]
fn fig4_shape_training_time_is_flat_in_density() {
    assert_holds(fig4(), "fig4.time_flat_in_density");
}

/// Headline shape: the hybrid (BCPNN + SGD) head is at least as good as the
/// associative readout on AUC, mirroring the paper's 76.4 vs 75.5.
#[test]
fn headline_shape_hybrid_head_does_not_lose_to_the_associative_readout() {
    assert_holds(&experiments::headline(Size::Quick), "headline.hybrid_auc");
}

/// Fig. 2: structural plasticity swaps fewer connections in the last
/// unsupervised epoch than in the first — the fields settle.
#[test]
fn fig2_shape_receptive_fields_settle_during_training() {
    assert_holds(&experiments::fig2(Size::Quick), "fig2.fields_settle");
}

/// Fig. 5: the mask spends less of itself on the generator's pure-noise
/// features than their share of the input, and a larger budget reaches
/// more features.
#[test]
fn fig5_shape_masks_avoid_noise_and_grow_with_the_budget() {
    let fig5 = experiments::fig5(Size::Quick);
    assert_holds(&fig5, "fig5.noise_features_avoided");
    assert_holds(&fig5, "fig5.coverage_grows_with_budget");
}

/// §VI: a gradient-trained baseline (logistic regression or the MLP) is at
/// least as good as BCPNN on AUC, as the paper concedes.
#[test]
fn baselines_shape_gradient_models_lead_on_auc() {
    assert_holds(
        &experiments::baselines(Size::Quick),
        "baselines.gradient_models_lead_on_auc",
    );
}

/// Training-free: the committed ledger carries exactly the claims the
/// experiments produce, in order, each with a verdict.
#[test]
fn committed_ledger_lists_every_claim_id() {
    let ledger = include_str!("../EXPERIMENTS.md");
    let (_, after) = ledger
        .split_once("## Claims\n")
        .expect("the ledger has a claims section");
    let section = after.split("\n## ").next().expect("non-empty section");
    // Skip the header and separator rows.
    let rows: Vec<Vec<&str>> = section
        .lines()
        .filter(|line| line.starts_with('|'))
        .skip(2)
        .map(|line| line.trim_matches('|').split('|').map(str::trim).collect())
        .collect();
    let ids: Vec<&str> = rows.iter().map(|cells| cells[0]).collect();
    assert_eq!(ids, claim_ids());
    for cells in &rows {
        let verdict = cells[cells.len() - 1];
        assert!(
            verdict == "yes" || verdict == "no",
            "{}: verdict {verdict:?}",
            cells[0]
        );
    }
}
