//! Facts the prose states that the code can check, so the two cannot drift.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The first-column names of README's "Workspace layout" table, in order.
fn readme_crate_table() -> Vec<String> {
    let readme = fs::read_to_string(root().join("README.md")).expect("README.md is readable");
    let section = readme
        .split("\n## Workspace layout\n")
        .nth(1)
        .expect("README has a Workspace layout section");
    let section = section.split("\n## ").next().unwrap_or(section);
    section
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|rest| rest.split('`').next())
        .map(str::to_string)
        .collect()
}

/// The package name of every `crates/*/Cargo.toml`.
fn workspace_crates() -> BTreeSet<String> {
    fs::read_dir(root().join("crates"))
        .expect("crates/ is readable")
        .map(|entry| entry.expect("crates/ entry").path().join("Cargo.toml"))
        .filter(|manifest| manifest.exists())
        .map(|manifest| {
            let text = fs::read_to_string(&manifest).expect("manifest is readable");
            text.lines()
                .find_map(|line| line.strip_prefix("name = \"")?.strip_suffix('"'))
                .unwrap_or_else(|| panic!("no package name in {}", manifest.display()))
                .to_string()
        })
        .collect()
}

#[test]
fn readme_crate_table_names_exactly_the_workspace_crates() {
    let table = readme_crate_table();
    let listed: BTreeSet<String> = table.iter().cloned().collect();
    assert_eq!(
        listed.len(),
        table.len(),
        "a crate is listed twice: {table:?}"
    );
    let mut crates = workspace_crates();
    crates.insert("streambrain".to_string());
    assert_eq!(listed, crates, "README's Workspace layout table");
}
