//! The hyperparameter search's random stream, pinned trial by trial.
//!
//! Random search and the (1 + λ) evolution strategy over the seven-dimension
//! Higgs space, at the ledger's two seeds and its 16-trial budget, with a
//! cheap deterministic objective. Every value of every trial is pinned
//! (floats by their bits), so a refactor that draws in another order, or
//! draws once more or once less, fails here before it moves the ledger's
//! `search` row.

use bcpnn_bench::search::{
    bcpnn_higgs_space, EvolutionConfig, EvolutionSearch, ParamSet, ParamValue, RandomSearch,
};

const BUDGET: usize = 16;

/// The seven names, in the order every trial lists them.
const NAMES: [&str; 7] = [
    "n_hcu",
    "n_mcu",
    "plasticity_swaps",
    "receptive_field",
    "sgd_learning_rate",
    "support_noise",
    "trace_rate",
];

fn objective(params: &ParamSet) -> f64 {
    params["receptive_field"].as_f64() - params["trace_rate"].as_f64()
}

/// One trial as a line: the values in [`NAMES`] order, floats as the hex of
/// their bits.
fn line(params: &ParamSet) -> String {
    let names: Vec<&str> = params.keys().map(String::as_str).collect();
    assert_eq!(names, NAMES);
    params
        .values()
        .map(|value| match value {
            ParamValue::Float(v) => format!("{:016x}", v.to_bits()),
            ParamValue::Int(v) => v.to_string(),
            ParamValue::Choice(c) => c.clone(),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn random_lines(seed: u64) -> Vec<String> {
    RandomSearch::new(bcpnn_higgs_space(), seed)
        .run(BUDGET, objective)
        .trials()
        .iter()
        .map(|t| line(&t.params))
        .collect()
}

/// The evolution strategy as `experiments::search` configures it.
fn evolution_lines(seed: u64) -> Vec<String> {
    let config = EvolutionConfig {
        offspring: 4,
        mutation_rate: 0.5,
        seed,
    };
    EvolutionSearch::new(bcpnn_higgs_space(), config)
        .run(BUDGET, objective)
        .trials()
        .iter()
        .map(|t| line(&t.params))
        .collect()
}

/// Random search, seed 67 (the quick ledger seed).
const RANDOM_67: [&str; BUDGET] = [
    "2 30 13 3fe92a8f58b34e07 3fe9c2f22196348f 3f994a477dea5ad0 3f82f2b0049b7561",
    "7 3000 1 3fcddc3d9842ca0a 3fb4259e297bcdc3 3fdf4744f3e00b98 3f77d7a9b04bbaac",
    "1 30 20 3fdf4781a7b22412 3fb08e6b06e4cfa1 3fa65f6a055536c8 3f87f27bfcc4d68b",
    "4 3000 14 3fe7fea2a99b17b6 3fc1fa15eb8ce14b 3fce85918e4a3f38 3f595bf661a9e8e8",
    "3 30 6 3fd4558cf67e8c7a 3fd0b13cb3fe30fb 3fd78ff8aa3b6a19 3f50ef783daa97c8",
    "5 30 26 3fd53402d0c96ef5 3f8d7683325c7f70 3fd921d94363d2c0 3fb0df783879bfb6",
    "2 300 29 3feadbd4cd129281 3f9bf0f1c1df467f 3fcd22ee83d89f94 3fb0b3835ece39af",
    "5 30 9 3fd63722a536b085 3f58a12c79c96ef5 3fcd2257f977ceb0 3fb94e35d65feff8",
    "5 300 10 3fe7fc5e95a907ac 3fbe70a2820ab21f 3fddd4dd8b91cfbd 3f54b6b5d74733ab",
    "6 3000 4 3fd9f6c47e24bd89 3fbf22673dad180d 3fa4f6437f7f7a88 3f66e7069b246d42",
    "8 30 9 3fe371f7da301163 3f90008bf5a28fd6 3fdec464e61d7ee6 3f81e6973fb71587",
    "2 30 4 3fc80b2d1bd5e82a 3fc1dabe975c839f 3fd4a3d5f857e384 3fb1d75822676e6a",
    "8 30 18 3fe968cd37147e5c 3fc5974883eb99ce 3fb87e4c2456adb8 3f67fc4ac5d73a55",
    "1 30 10 3fe31398fad22e67 3fbfbaa09447bbcc 3f931e37e43ae7f0 3f703c0800a64e59",
    "3 3000 7 3fe0bf8f7c903ebf 3f60df3f91ce4060 3fd6fdf139b30d50 3f78e171702ab1ee",
    "7 300 8 3fdef3b68de2d37e 3f9d994ea81953f8 3fb2b6cc43259200 3fccbaa07b660215",
];

/// The evolution strategy, seed 67: trial 0 is random search's first draw.
const EVOLUTION_67: [&str; BUDGET] = [
    "2 30 13 3fe92a8f58b34e07 3fe9c2f22196348f 3f994a477dea5ad0 3f82f2b0049b7561",
    "3 30 19 3fe4b659f06f5d13 3fe9c2f22196348f 0000000000000000 3f88e962c7ffbdb4",
    "2 30 13 3fe92a8f58b34e07 3fe9c2f22196348f 3f994a477dea5ad0 3f82f2b0049b7561",
    "2 30 13 3fe3ba22aac22fbc 3ff0000000000000 3fb5f61b8480e70c 3f82f2b0049b7561",
    "1 30 14 3fe92a8f58b34e07 3fe9c2f22196348f 3f994a477dea5ad0 3f8494efd3fd17ac",
    "2 3000 12 3fe92a8f58b34e07 3fe9c2f22196348f 3fb9011d410213d8 3f7835e88d83be42",
    "1 30 17 3fe92a8f58b34e07 3fe3bad710d62ba4 3f994a477dea5ad0 3f82f2b0049b7561",
    "2 300 13 3fe92a8f58b34e07 3fe9c2f22196348f 3f6ea0f49e129080 3f82f2b0049b7561",
    "2 30 12 3fee666666666666 3fe145d5960ffc38 3fbc7a44f51e8dea 3f82f2b0049b7561",
    "2 3000 12 3fee666666666666 3fe145d5960ffc38 3fbc7a44f51e8dea 3f82f2b0049b7561",
    "3 30 12 3feaa1a43666fda9 3fd708c4406531e2 3fbc7a44f51e8dea 3f7fd1cd6a91474e",
    "3 30 18 3fee666666666666 3fe145d5960ffc38 3fbc7a44f51e8dea 3f8793431615cb2a",
    "3 30 16 3fee666666666666 3fda36c8b3470e71 3fbc7a44f51e8dea 3f82f2b0049b7561",
    "2 30 15 3fee666666666666 3fe8846be8927b52 3fc2bafa862603f2 3f885eeee4a3120f",
    "2 30 6 3fee666666666666 3fe145d5960ffc38 3fbc7a44f51e8dea 3f84b1eef55edda2",
    "3 30 12 3feb09872b70751c 3fec31de12921fc1 3fc04e76063d1104 3f82f2b0049b7561",
];

/// Random search, seed 2021 (the full ledger seed).
const RANDOM_2021: [&str; BUDGET] = [
    "5 3000 11 3fdcbda34e8125ea 3f9a97fdd16f7627 3fd234381601eb63 3f6c8719921384f1",
    "4 3000 24 3fedf5c398a6e74b 3fe5597b4687c67f 3fc319d3cb879ed2 3f75cbbdfe11ac0f",
    "1 3000 19 3fdf6733dfd8b9e5 3fe05388800c3ff8 3fd7f13e631fa343 3f57458f625e1620",
    "7 3000 22 3fd8a4db4adff501 3fabacaa34308db7 3fdf1087900100bd 3f83d077176a1a4b",
    "4 300 32 3fe6be6a26801e67 3f72f06621c94c4f 3fbde520e1b9ee0c 3f903c1e986f3692",
    "6 3000 31 3fbf975fcba7b220 3f80eb4a4cf09874 3fba90b47c75e06c 3f88ac2abbefdd28",
    "2 300 9 3fd9314b72be5465 3f6944c5bdfae938 3fdc696d9647d93f 3f768dc0319950f2",
    "1 30 24 3fed1ea6c409ea8e 3fe82bc5bf1a7d3e 3fbba079d285a5d8 3f654f4416b8362b",
    "1 30 12 3fe6403abfee9ce0 3f5e41d09685fa62 3faa5eea7243b968 3fa7efa58df86097",
    "7 30 3 3fabf86ef5056d7a 3f7c4a03dcdd12bf 3fcbe7e9704c6c92 3f596d40a49ddc8d",
    "8 300 23 3fec7e0ebbc37a02 3f614163f9b5973b 3f93a20f95119840 3f914514dd8cd104",
    "2 3000 11 3fda72d5dc87294b 3f78a037f5026b7f 3fd54c3242cc1f0f 3fa87d820706ce97",
    "7 3000 28 3fe2a618040697d4 3f96c4bb0fd4a26a 3fd9fc604e4af391 3fce6be0da73eef2",
    "6 3000 25 3fc49f4d3d8e921e 3f726f4918e5e1ac 3fdbbff89035afc7 3f868e8db49434e1",
    "7 30 23 3fe26c61fd57c6f1 3fd8fff9401c5e82 3fd80de370e1e04e 3fa0eeaefe9d6ced",
    "1 30 12 3fd5349cb3c1421b 3f7cad537d85cb56 3fc268de520dc690 3f61c41153db0a22",
];

/// The evolution strategy, seed 2021.
const EVOLUTION_2021: [&str; BUDGET] = [
    "5 3000 11 3fdcbda34e8125ea 3f9a97fdd16f7627 3fd234381601eb63 3f6c8719921384f1",
    "5 3000 11 3fd9c1c8dab9a371 3f9a97fdd16f7627 3fd234381601eb63 3f6c8719921384f1",
    "5 3000 11 3fdc8084db3e3d13 3f9a97fdd16f7627 3fd234381601eb63 3f6ab9469efb3982",
    "6 3000 11 3fde875c1b45be6a 3f9a97fdd16f7627 3fd12ab3f94c0943 3f6c8719921384f1",
    "5 30 11 3fd69a14bed0b20b 3f90d8e3662f29f9 3fd234381601eb63 3f64c0a662e0742e",
    "6 3000 13 3fdd9bcfde357438 3f9a97fdd16f7627 3fd12ab3f94c0943 3f6c8719921384f1",
    "6 3000 13 3fdbc2b89f94f5e0 3f979c9193714665 3fd34f2c66b6be1e 3f6c8719921384f1",
    "6 3000 16 3fde875c1b45be6a 3f959c4a446ee5dd 3fcde68b67802366 3f6c8719921384f1",
    "7 3000 11 3fe203afbc45a2dd 3f9556315778bae2 3fc75813a76da866 3f719d9485afd73d",
    "8 3000 11 3fd9646cf8da24e6 3f9084d834ecd7e3 3fcf68b97703fc3c 3f719d9485afd73d",
    "7 3000 17 3fe203afbc45a2dd 3f9d5add88b88064 3fc75813a76da866 3f781123a48c2e85",
    "7 300 15 3fdd86a57fe0e4de 3f9556315778bae2 3fcc432a19971c61 3f7b2a64b278ba34",
    "7 3000 11 3fe203afbc45a2dd 3f9556315778bae2 3fc75813a76da866 3f6b4a281a3b6dfb",
    "6 300 15 3fe203afbc45a2dd 3f9556315778bae2 3fc75813a76da866 3f6b4a281a3b6dfb",
    "7 3000 11 3fe203afbc45a2dd 3f9556315778bae2 3fc75813a76da866 3f6da567b720866e",
    "7 3000 16 3fe203afbc45a2dd 3f9556315778bae2 3fb6279ad6dee8b2 3f6c8a198d2dec64",
];

#[test]
fn random_search_draws_the_pinned_trials() {
    assert_eq!(random_lines(67), RANDOM_67);
    assert_eq!(random_lines(2021), RANDOM_2021);
}

#[test]
fn evolution_strategy_draws_the_pinned_trials() {
    assert_eq!(evolution_lines(67), EVOLUTION_67);
    assert_eq!(evolution_lines(2021), EVOLUTION_2021);
}
