//! Pass 1 — source determinism lints over the workspace tree.
//!
//! [`scan_workspace`] walks every workspace crate's non-test library
//! sources and reports the patterns that historically break the repo's
//! bit-identical-records contract:
//!
//! * **`hash-container`** — `std` `HashMap`/`HashSet` named in model
//!   crates. The default `RandomState` hasher randomizes iteration order
//!   per process; model code must use `iss_trace::fxmap` (deterministic
//!   hasher, for keyed lookup) or `BTreeMap` (for anything iterated).
//! * **`wall-clock`** — `Instant`/`SystemTime` outside the sanctioned
//!   portal (`crates/trace/src/host_time.rs`). Host time is a reporting
//!   quantity; reading it anywhere else risks feeding it back into
//!   simulated state.
//! * **`unwrap`** — `.unwrap()`/`.expect(` in model-crate library code.
//!   Library paths reachable from user input must return typed errors;
//!   every remaining panic site is a reviewed allowlist entry.
//! * **`crate-attrs`** — a `lib.rs` missing `#![forbid(unsafe_code)]` or
//!   `#![warn(missing_docs)]` (the workspace's deny-warnings-equivalent
//!   baseline; CI compiles with `-D warnings`).
//! * **`as-f32`** — `as f32` narrowing. Records aggregate in `f64`;
//!   narrowing mid-pipeline loses bits nondeterministically across
//!   refactors.
//!
//! Matches in comments, strings and `#[cfg(test)]` items never fire
//! (see [`crate::scan::mask_source`]); `tests/`, `benches/`, `examples/`
//! and vendored code are skipped entirely. Suppression happens only
//! through the checked-in allowlist ([`crate::allowlist`]).

use std::fmt;
use std::path::{Path, PathBuf};

use crate::scan::{contains_word, mask_source};

/// The source lints, keyed as they appear in `ci/lint_allow.toml`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// Default-hasher `HashMap`/`HashSet` in model code.
    HashContainer,
    /// `Instant`/`SystemTime` outside the host-time portal.
    WallClock,
    /// `.unwrap()`/`.expect(` in model-crate library code.
    UnwrapExpect,
    /// `lib.rs` missing the workspace's baseline crate attributes.
    CrateAttrs,
    /// `as f32` float narrowing.
    FloatNarrowing,
}

impl Lint {
    /// Stable key, used in reports and allowlist entries.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Lint::HashContainer => "hash-container",
            Lint::WallClock => "wall-clock",
            Lint::UnwrapExpect => "unwrap",
            Lint::CrateAttrs => "crate-attrs",
            Lint::FloatNarrowing => "as-f32",
        }
    }

    /// Parses an allowlist `lint = "..."` key.
    ///
    /// # Errors
    ///
    /// Returns a message naming the known keys for anything else.
    pub fn parse(key: &str) -> Result<Lint, String> {
        match key {
            "hash-container" => Ok(Lint::HashContainer),
            "wall-clock" => Ok(Lint::WallClock),
            "unwrap" => Ok(Lint::UnwrapExpect),
            "crate-attrs" => Ok(Lint::CrateAttrs),
            "as-f32" => Ok(Lint::FloatNarrowing),
            other => Err(format!(
                "unknown lint `{other}` (known: hash-container, wall-clock, unwrap, \
                 crate-attrs, as-f32)"
            )),
        }
    }
}

/// One lint hit: where, what, and the offending source line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Which lint fired.
    pub lint: Lint,
    /// Trimmed original source line (context for the report).
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.lint.key(),
            self.excerpt
        )
    }
}

/// Crates holding simulator/model code: the full lint set applies.
pub const MODEL_TREES: [&str; 7] = [
    "crates/trace",
    "crates/branch",
    "crates/mem",
    "crates/core",
    "crates/detailed",
    "crates/sim",
    "crates/simd",
];

/// Harness/tooling trees: only the wall-clock and crate-attribute lints
/// apply (binaries may panic on broken invariants; that is their error
/// channel).
pub const HARNESS_TREES: [&str; 3] = ["crates/bench", "crates/lint", "src"];

/// Scans the workspace rooted at `root` and returns every finding,
/// sorted by path/line. No allowlist is applied — see
/// [`crate::allowlist::apply`] for suppression.
///
/// # Errors
///
/// Returns an error when `root` does not look like the workspace (no
/// `Cargo.toml`) or a source file cannot be read — a partial scan must
/// never pass as a clean one.
pub fn scan_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    if !root.join("Cargo.toml").is_file() {
        return Err(format!(
            "{} does not look like a workspace root (no Cargo.toml)",
            root.display()
        ));
    }
    let mut findings = Vec::new();
    for tree in MODEL_TREES {
        scan_tree(root, tree, true, &mut findings)?;
    }
    for tree in HARNESS_TREES {
        scan_tree(root, tree, false, &mut findings)?;
    }
    findings.sort();
    Ok(findings)
}

fn scan_tree(
    root: &Path,
    tree: &str,
    model: bool,
    findings: &mut Vec<Finding>,
) -> Result<(), String> {
    let dir = root.join(tree);
    if !dir.is_dir() {
        // Drift-injection fixtures scan partial trees; a missing crate is
        // simply absent, not an error.
        return Ok(());
    }
    let mut files = Vec::new();
    collect_rs_files(&dir, &mut files)?;
    files.sort();
    for file in files {
        let rel = relative_path(root, &file);
        // Test-only and benchmark sources are exempt from every lint.
        if ["/tests/", "/benches/", "/examples/"]
            .iter()
            .any(|d| rel.contains(d))
        {
            continue;
        }
        // Binaries keep panicking as their error channel.
        let unwrap_applies = model && !rel.contains("/bin/");
        let text = std::fs::read_to_string(&file).map_err(|e| format!("cannot read {rel}: {e}"))?;
        scan_file(&rel, &text, model, unwrap_applies, findings);
    }
    Ok(())
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lints one file's text. Pure function of its inputs — the unit the
/// fixture tests drive directly.
pub fn scan_file(
    rel: &str,
    text: &str,
    model: bool,
    unwrap_applies: bool,
    findings: &mut Vec<Finding>,
) {
    let masked = mask_source(text);
    let originals: Vec<&str> = text.lines().collect();
    for (idx, line) in masked.lines().enumerate() {
        let push = |findings: &mut Vec<Finding>, lint: Lint| {
            findings.push(Finding {
                path: rel.to_string(),
                line: idx + 1,
                lint,
                excerpt: originals.get(idx).map_or("", |l| l.trim()).to_string(),
            });
        };
        if contains_word(line, "Instant") || contains_word(line, "SystemTime") {
            push(findings, Lint::WallClock);
        }
        if model && (contains_word(line, "HashMap") || contains_word(line, "HashSet")) {
            push(findings, Lint::HashContainer);
        }
        if unwrap_applies && (line.contains(".unwrap()") || line.contains(".expect(")) {
            push(findings, Lint::UnwrapExpect);
        }
        if model && contains_word(line, "f32") && contains_as_f32(line) {
            push(findings, Lint::FloatNarrowing);
        }
    }
    if rel.ends_with("lib.rs") {
        for attr in ["#![forbid(unsafe_code)]", "#![warn(missing_docs)]"] {
            if !masked.contains(attr) {
                findings.push(Finding {
                    path: rel.to_string(),
                    line: 1,
                    lint: Lint::CrateAttrs,
                    excerpt: format!("missing `{attr}`"),
                });
            }
        }
    }
}

/// True when the line casts with `as f32` (word-bounded on both sides).
fn contains_as_f32(line: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = line[from..].find("as f32") {
        let at = from + pos;
        let before_ok = at == 0
            || !line.as_bytes()[at - 1].is_ascii_alphanumeric() && line.as_bytes()[at - 1] != b'_';
        let end = at + "as f32".len();
        let after = line.as_bytes().get(end);
        let after_ok = !after.is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_');
        if before_ok && after_ok {
            return true;
        }
        from = at + 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_of(text: &str, model: bool, unwrap_applies: bool) -> Vec<Finding> {
        let mut f = Vec::new();
        scan_file("crates/sim/src/x.rs", text, model, unwrap_applies, &mut f);
        f
    }

    #[test]
    fn real_violations_fire_with_line_numbers() {
        let src = "use std::collections::HashMap;\nfn f() {\n    let t = Instant::now();\n    x.unwrap();\n    let y = z as f32;\n}\n";
        let f = lint_of(src, true, true);
        let kinds: Vec<(Lint, usize)> = f.iter().map(|x| (x.lint, x.line)).collect();
        assert!(kinds.contains(&(Lint::HashContainer, 1)), "{kinds:?}");
        assert!(kinds.contains(&(Lint::WallClock, 3)), "{kinds:?}");
        assert!(kinds.contains(&(Lint::UnwrapExpect, 4)), "{kinds:?}");
        assert!(kinds.contains(&(Lint::FloatNarrowing, 5)), "{kinds:?}");
    }

    #[test]
    fn violations_in_comments_strings_and_test_code_do_not_fire() {
        let src = concat!(
            "// a HashMap would be wrong here\n",
            "/// docs may say .unwrap() freely\n",
            "fn f() { let m = \"Instant::now() in a string\"; m.len(); }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    use std::collections::HashSet;\n",
            "    fn t() { x.unwrap(); let _ = Instant::now(); }\n",
            "}\n",
        );
        assert!(lint_of(src, true, true).is_empty());
    }

    #[test]
    fn fx_containers_and_unwrap_cousins_are_not_flagged() {
        let src = "fn f() {\n    let m = FxHashMap::default();\n    let v = x.unwrap_or(3);\n    let w = y.unwrap_or_else(|| 4);\n    let e = z.expect_err(\"msg\");\n    (m, v, w, e)\n}\n";
        assert!(lint_of(src, true, true).is_empty());
    }

    #[test]
    fn non_model_trees_only_get_wall_clock() {
        let src =
            "use std::collections::HashMap;\nfn f() { x.unwrap(); let t = Instant::now(); }\n";
        let f = lint_of(src, false, false);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, Lint::WallClock);
    }

    #[test]
    fn lib_rs_must_carry_the_baseline_attributes() {
        let mut f = Vec::new();
        scan_file("crates/sim/src/lib.rs", "//! docs\n", true, true, &mut f);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.lint == Lint::CrateAttrs));

        let mut f = Vec::new();
        let good = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n";
        scan_file("crates/sim/src/lib.rs", good, true, true, &mut f);
        assert!(f.is_empty());
    }

    #[test]
    fn as_f32_requires_word_boundaries() {
        assert!(contains_as_f32("let x = y as f32;"));
        assert!(contains_as_f32("(sum as f32)"));
        assert!(!contains_as_f32("let x = y as f32x4;"));
        assert!(!contains_as_f32("has f32 in a name"));
    }

    #[test]
    fn lint_keys_round_trip() {
        for lint in [
            Lint::HashContainer,
            Lint::WallClock,
            Lint::UnwrapExpect,
            Lint::CrateAttrs,
            Lint::FloatNarrowing,
        ] {
            assert_eq!(Lint::parse(lint.key()), Ok(lint));
        }
        assert!(Lint::parse("bogus").is_err());
    }
}
