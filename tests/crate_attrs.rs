//! Every crate root carries the workspace's baseline attributes, and the
//! model crates also turn on clippy's panic lints. Clippy enforces the
//! determinism rules only where these lines are present, so their absence
//! must fail a plain `cargo test`.

use std::path::Path;

const BASELINE: [&str; 2] = ["#![forbid(unsafe_code)]", "#![warn(missing_docs)]"];

/// Crates holding simulator code: library paths return typed errors, so
/// every `unwrap`/`expect` there needs a reviewed `#[expect]`.
const MODEL_CRATES: [&str; 6] = ["trace", "branch", "mem", "core", "detailed", "sim"];

const PANIC_LINTS: &str = "#![warn(clippy::unwrap_used, clippy::expect_used)]";

#[test]
fn every_crate_root_carries_the_baseline_attributes() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crate_dirs: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("list crates/")
        .map(|entry| entry.expect("crates/ entry").path())
        .filter(|path| path.is_dir())
        .collect();
    for name in MODEL_CRATES {
        assert!(
            crate_dirs.contains(&root.join("crates").join(name)),
            "model crate `{name}` is gone; update MODEL_CRATES"
        );
    }
    crate_dirs.push(root.to_path_buf());

    let mut missing = Vec::new();
    for dir in &crate_dirs {
        let lib = dir.join("src/lib.rs");
        let text =
            std::fs::read_to_string(&lib).unwrap_or_else(|e| panic!("read {}: {e}", lib.display()));
        let model = MODEL_CRATES
            .iter()
            .any(|name| *dir == root.join("crates").join(name));
        for attr in BASELINE.iter().chain(model.then_some(&PANIC_LINTS)) {
            if !text.lines().any(|line| line.trim() == *attr) {
                missing.push(format!("{}: {attr}", lib.display()));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "missing crate attributes:\n{}",
        missing.join("\n")
    );
}
