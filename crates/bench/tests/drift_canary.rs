//! Tier-1 drift canary: the cheapest figure, Table 5, rebuilt through its
//! `gar-bench` figure function at the defaults (scale 0.01, seed 42),
//! must equal the committed `results/table5_datasets.csv` byte for byte.
//! A change to the dataset generator shows here under `cargo test`; the
//! `cargo xtask figures` gate holds the other figures.

use gar_bench::figures::FIGURES;
use gar_bench::Env;
use std::path::Path;

#[test]
fn table5_matches_the_committed_csv() {
    let env = Env {
        scale: 0.01,
        seed: 42,
        results_dir: "unused".into(),
    };
    let (_, figure) = FIGURES
        .into_iter()
        .find(|(name, _)| *name == "table5_datasets")
        .expect("table5_datasets is a figure");
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/table5_datasets.csv");
    let committed = std::fs::read_to_string(&committed).expect("committed Table 5 CSV");
    assert_eq!(figure(&env).unwrap().csv(), committed);
}
