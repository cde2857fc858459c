//! Text codec for scenario files: a strict, hand-rolled TOML subset.
//!
//! The workspace links no serialization framework, so — like the CI
//! baseline files in `iss-bench` — scenario files are written and parsed by
//! a small purpose-built codec. The accepted grammar is a
//! TOML subset: `key = value` pairs, `[section]` headers, `[[scenario]]`
//! table arrays, strings in double quotes, unsigned integers, booleans and
//! homogeneous arrays. Parsing is **strict**: unknown sections, unknown
//! keys, duplicate keys, negative numbers and type mismatches are errors
//! with the offending line — a typo in a spec must never silently change
//! what gets simulated (the same contract as [`crate::env`]).
//!
//! File layout (see the repo's `examples/scenarios/` for real files):
//!
//! ```toml
//! schema = "iss-scenario/v1"
//! name = "fig5"
//! seed = 42                      # template seed (default 42)
//! model = "interval"             # template model (default "interval")
//!
//! [machine]                      # template machine (default: hpca2010)
//! baseline = "hpca2010"
//! perfect_branch = true          # ... any override knob
//!
//! [workload]                     # template workload
//! kind = "single"                # single | homogeneous | multiprogram
//!                                # | multithreaded
//! benchmark = "gcc"
//! length = 20000
//!
//! [sweep]                        # cartesian axes (all optional)
//! benchmarks = ["gcc", "mcf"]
//! models = ["detailed", "interval"]
//! cores = [1, 2, 4, 8]
//! seeds = [42]
//!
//! [[scenario]]                   # explicit variant templates (optional);
//! variant = "no-overlap"         # when present they replace the base
//! model = "interval"             # template, inheriting unset fields
//! [scenario.machine]             # from the top-level sections
//! overlap_effects = false
//! ```

use crate::runner::CoreModel;
use crate::tomldoc::{section_label, ArraySpec, Doc, DocSpec};
use crate::workload::WorkloadSpec;

use super::machine::{MachineBaseline, MachineSpec};
use super::modelspec::parse_model;
use super::{SweepSpec, Template};

/// Schema marker every scenario file must carry.
pub const SCHEMA: &str = "iss-scenario/v1";

/// The document shape of a scenario file, fed to the shared
/// [`crate::tomldoc`] codec: four fixed sections plus `[[scenario]]`
/// blocks with `machine`/`workload` subsections.
const SCENARIO_DOC: DocSpec = DocSpec {
    sections: &["machine", "workload", "sweep", "model"],
    array: Some(ArraySpec {
        name: "scenario",
        subsections: &["machine", "workload"],
    }),
};

// --- section builders ------------------------------------------------------

/// Builds a machine spec from a section, **inheriting** every field the
/// section does not mention from `base` — a `[scenario.machine]` block
/// that flips one knob keeps the rest of the file-level machine intact.
fn machine_from(doc: &mut Doc, section: &str, base: MachineSpec) -> Result<MachineSpec, String> {
    if !doc.has_section(section) {
        return Ok(base);
    }
    let mut m = base;
    if let Some(name) = doc.take_str(section, "baseline")? {
        m.baseline = MachineBaseline::parse(&name)?;
    }
    if let Some(cores) = doc.take_narrow::<usize>(section, "cores")? {
        m.cores = Some(cores);
    }
    let o = &mut m.overrides;
    for (key, field) in [
        ("perfect_branch", &mut o.perfect_branch),
        ("perfect_iside", &mut o.perfect_iside),
        ("perfect_dside", &mut o.perfect_dside),
        ("perfect_l2", &mut o.perfect_l2),
        ("no_l2", &mut o.no_l2),
    ] {
        if let Some(b) = doc.take_bool(section, key)? {
            *field = b;
        }
    }
    if let Some(w) = doc.take_narrow::<u32>(section, "dispatch_width")? {
        o.dispatch_width = Some(w);
    }
    if let Some(w) = doc.take_narrow::<usize>(section, "window_size")? {
        o.window_size = Some(w);
    }
    if let Some(l) = doc.take_u64(section, "dram_latency")? {
        o.dram_latency = Some(l);
    }
    if let Some(kb) = doc.take_u64(section, "l2_size_kb")? {
        o.l2_size_kb = Some(kb);
    }
    if let Some(b) = doc.take_bool(section, "overlap_effects")? {
        o.overlap_effects = Some(b);
    }
    if let Some(b) = doc.take_bool(section, "old_window_reset")? {
        o.old_window_reset = Some(b);
    }
    Ok(m)
}

fn workload_from(
    doc: &mut Doc,
    section: &str,
    placeholder_benchmark: Option<&str>,
    placeholder_cores: Option<usize>,
) -> Result<Option<WorkloadSpec>, String> {
    if !doc.has_section(section) {
        return Ok(None);
    }
    let where_ = section_label(section);
    let kind = doc
        .take_str(section, "kind")?
        .ok_or_else(|| format!("{where_} is missing its `kind` key"))?;
    let length = doc
        .take_u64(section, "length")?
        .ok_or_else(|| format!("{where_} is missing its `length` key"))?;

    // Only the keys the declared kind actually uses are consumed; a stray
    // `threads` on a `single` workload stays unused and trips the
    // unknown-key check — it must not be silently ignored.
    let one_benchmark = |doc: &mut Doc| -> Result<String, String> {
        doc.take_str(section, "benchmark")?
            .or_else(|| placeholder_benchmark.map(str::to_string))
            .ok_or_else(|| {
                format!(
                    "{where_} names no `benchmark` and the sweep has no benchmarks axis \
                     to supply one"
                )
            })
    };
    let width = |doc: &mut Doc, key: &str| -> Result<usize, String> {
        doc.take_narrow::<usize>(section, key)?
            .or(placeholder_cores)
            .ok_or_else(|| {
                format!("{where_} names no `{key}` and the sweep has no cores axis to supply one")
            })
    };

    let spec = match kind.as_str() {
        "single" => WorkloadSpec::Single {
            benchmark: one_benchmark(doc)?,
            length,
        },
        "homogeneous" => WorkloadSpec::MultiprogramHomogeneous {
            benchmark: one_benchmark(doc)?,
            copies: width(doc, "copies")?,
            length_per_copy: length,
        },
        "multiprogram" => WorkloadSpec::Multiprogram {
            benchmarks: doc.take_str_list(section, "benchmarks")?.ok_or_else(|| {
                format!("{where_} with kind = \"multiprogram\" needs a `benchmarks` array")
            })?,
            length_per_copy: length,
        },
        "multithreaded" => WorkloadSpec::Multithreaded {
            benchmark: one_benchmark(doc)?,
            threads: width(doc, "threads")?,
            total_length: length,
        },
        other => {
            return Err(format!(
                "{where_} has unknown workload kind `{other}` \
                 (known: single, homogeneous, multiprogram, multithreaded)"
            ))
        }
    };
    Ok(Some(spec))
}

impl SweepSpec {
    /// Parses a scenario file (see the module docs for the grammar).
    ///
    /// # Errors
    ///
    /// Returns a message with the offending line for any syntactic or
    /// structural defect: missing schema/name, unknown sections or keys,
    /// type mismatches, malformed model strings, workload shapes missing
    /// required fields.
    pub fn from_toml(text: &str) -> Result<Self, String> {
        let mut doc = Doc::parse(text, &SCENARIO_DOC)?;
        match doc.take_str("", "schema")? {
            Some(s) if s == SCHEMA => {}
            Some(s) => {
                return Err(format!(
                    "unsupported schema `{s}` (this build reads `{SCHEMA}`)"
                ))
            }
            None => return Err(format!("missing `schema = \"{SCHEMA}\"` marker")),
        }
        let name = doc
            .take_str("", "name")?
            .ok_or("missing top-level `name` key")?;

        // Axes first: they supply placeholders for templates that omit the
        // swept field.
        let models = doc
            .take_str_list("sweep", "models")?
            .unwrap_or_default()
            .iter()
            .map(|s| parse_model(s))
            .collect::<Result<Vec<_>, _>>()?;
        let benchmarks = doc
            .take_str_list("sweep", "benchmarks")?
            .unwrap_or_default();
        let cores: Vec<usize> = doc
            .take_u64_list("sweep", "cores")?
            .unwrap_or_default()
            .iter()
            .map(|&n| n as usize)
            .collect();
        let seeds = doc.take_u64_list("sweep", "seeds")?.unwrap_or_default();
        let placeholder_benchmark = benchmarks.first().map(String::as_str);
        let placeholder_cores = cores.first().copied();

        let base_seed = doc.take_u64("", "seed")?.unwrap_or(42);
        let base_model = match doc.take_str("", "model")? {
            Some(s) => parse_model(&s)?,
            None => CoreModel::Interval,
        };
        let base_machine = machine_from(&mut doc, "machine", MachineSpec::hpca2010())?;
        let base_workload = workload_from(
            &mut doc,
            "workload",
            placeholder_benchmark,
            placeholder_cores,
        )?;

        let templates = if doc.blocks() == 0 {
            vec![Template {
                variant: None,
                machine: base_machine,
                workload: base_workload
                    .ok_or("missing [workload] section (and no [[scenario]] blocks define one)")?,
                model: base_model,
                seed: base_seed,
            }]
        } else {
            let mut templates = Vec::with_capacity(doc.blocks());
            for i in 0..doc.blocks() {
                let section = format!("scenario.{i}");
                let variant = doc.take_str(&section, "variant")?;
                let model = match doc.take_str(&section, "model")? {
                    Some(s) => parse_model(&s)?,
                    None => base_model,
                };
                let seed = doc.take_u64(&section, "seed")?.unwrap_or(base_seed);
                let machine = machine_from(&mut doc, &format!("{section}.machine"), base_machine)?;
                let workload = workload_from(
                    &mut doc,
                    &format!("{section}.workload"),
                    placeholder_benchmark,
                    placeholder_cores,
                )?
                .or_else(|| base_workload.clone())
                .ok_or_else(|| {
                    format!(
                        "[[scenario]] block {} defines no workload and there is no base \
                         [workload] section to inherit",
                        i + 1
                    )
                })?;
                templates.push(Template {
                    variant,
                    machine,
                    workload,
                    model,
                    seed,
                });
            }
            templates
        };

        if let Some(stray) = doc.unused() {
            return Err(format!(
                "line {}: unknown key `{}` in {}",
                stray.line,
                stray.key,
                section_label(&stray.section)
            ));
        }

        Ok(SweepSpec {
            name,
            templates,
            benchmarks,
            cores,
            seeds,
            models,
        })
    }

    /// Renders the sweep as a scenario file that [`SweepSpec::from_toml`]
    /// parses back to an equal value.
    #[must_use]
    pub fn to_toml(&self) -> String {
        use std::fmt::Write;
        let mut t = String::new();
        let _ = writeln!(t, "schema = \"{SCHEMA}\"");
        let _ = writeln!(t, "name = \"{}\"", self.name);

        let base_form = self.templates.len() == 1 && self.templates[0].variant.is_none();
        if base_form {
            let base = &self.templates[0];
            let _ = writeln!(t, "seed = {}", base.seed);
            let _ = writeln!(t, "model = \"{}\"", base.model.name());
            t.push_str(&render_machine_section("machine", &base.machine));
            t.push_str(&render_workload_section("workload", &base.workload));
        }
        if !(self.benchmarks.is_empty()
            && self.cores.is_empty()
            && self.seeds.is_empty()
            && self.models.is_empty())
        {
            t.push_str("\n[sweep]\n");
            if !self.models.is_empty() {
                let names: Vec<String> = self
                    .models
                    .iter()
                    .map(|m| format!("\"{}\"", m.name()))
                    .collect();
                let _ = writeln!(t, "models = [{}]", names.join(", "));
            }
            if !self.benchmarks.is_empty() {
                let names: Vec<String> =
                    self.benchmarks.iter().map(|b| format!("\"{b}\"")).collect();
                let _ = writeln!(t, "benchmarks = [{}]", names.join(", "));
            }
            if !self.cores.is_empty() {
                let names: Vec<String> = self.cores.iter().map(ToString::to_string).collect();
                let _ = writeln!(t, "cores = [{}]", names.join(", "));
            }
            if !self.seeds.is_empty() {
                let names: Vec<String> = self.seeds.iter().map(ToString::to_string).collect();
                let _ = writeln!(t, "seeds = [{}]", names.join(", "));
            }
        }
        if !base_form {
            for template in &self.templates {
                t.push_str("\n[[scenario]]\n");
                if let Some(v) = &template.variant {
                    let _ = writeln!(t, "variant = \"{v}\"");
                }
                let _ = writeln!(t, "model = \"{}\"", template.model.name());
                let _ = writeln!(t, "seed = {}", template.seed);
                t.push_str(&render_machine_section(
                    "scenario.machine",
                    &template.machine,
                ));
                t.push_str(&render_workload_section(
                    "scenario.workload",
                    &template.workload,
                ));
            }
        }
        t
    }
}

fn render_machine_section(header: &str, machine: &MachineSpec) -> String {
    use std::fmt::Write;
    let mut t = String::new();
    let _ = writeln!(t, "\n[{header}]");
    let _ = writeln!(t, "baseline = \"{}\"", machine.baseline.name());
    if let Some(cores) = machine.cores {
        let _ = writeln!(t, "cores = {cores}");
    }
    let o = &machine.overrides;
    for (on, key) in [
        (o.perfect_branch, "perfect_branch"),
        (o.perfect_iside, "perfect_iside"),
        (o.perfect_dside, "perfect_dside"),
        (o.perfect_l2, "perfect_l2"),
        (o.no_l2, "no_l2"),
    ] {
        if on {
            let _ = writeln!(t, "{key} = true");
        }
    }
    if let Some(w) = o.dispatch_width {
        let _ = writeln!(t, "dispatch_width = {w}");
    }
    if let Some(w) = o.window_size {
        let _ = writeln!(t, "window_size = {w}");
    }
    if let Some(l) = o.dram_latency {
        let _ = writeln!(t, "dram_latency = {l}");
    }
    if let Some(kb) = o.l2_size_kb {
        let _ = writeln!(t, "l2_size_kb = {kb}");
    }
    if let Some(b) = o.overlap_effects {
        let _ = writeln!(t, "overlap_effects = {b}");
    }
    if let Some(b) = o.old_window_reset {
        let _ = writeln!(t, "old_window_reset = {b}");
    }
    t
}

fn render_workload_section(header: &str, workload: &WorkloadSpec) -> String {
    use std::fmt::Write;
    let mut t = String::new();
    let _ = writeln!(t, "\n[{header}]");
    match workload {
        WorkloadSpec::Single { benchmark, length } => {
            let _ = writeln!(t, "kind = \"single\"");
            let _ = writeln!(t, "benchmark = \"{benchmark}\"");
            let _ = writeln!(t, "length = {length}");
        }
        WorkloadSpec::MultiprogramHomogeneous {
            benchmark,
            copies,
            length_per_copy,
        } => {
            let _ = writeln!(t, "kind = \"homogeneous\"");
            let _ = writeln!(t, "benchmark = \"{benchmark}\"");
            let _ = writeln!(t, "copies = {copies}");
            let _ = writeln!(t, "length = {length_per_copy}");
        }
        WorkloadSpec::Multiprogram {
            benchmarks,
            length_per_copy,
        } => {
            let _ = writeln!(t, "kind = \"multiprogram\"");
            let names: Vec<String> = benchmarks.iter().map(|b| format!("\"{b}\"")).collect();
            let _ = writeln!(t, "benchmarks = [{}]", names.join(", "));
            let _ = writeln!(t, "length = {length_per_copy}");
        }
        WorkloadSpec::Multithreaded {
            benchmark,
            threads,
            total_length,
        } => {
            let _ = writeln!(t, "kind = \"multithreaded\"");
            let _ = writeln!(t, "benchmark = \"{benchmark}\"");
            let _ = writeln!(t, "threads = {threads}");
            let _ = writeln!(t, "length = {total_length}");
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::BaseModel;

    fn fig5ish() -> &'static str {
        r#"
            schema = "iss-scenario/v1"
            name = "fig5"
            seed = 42

            [machine]
            baseline = "hpca2010"

            [workload]
            kind = "single"
            length = 20000

            [sweep]
            models = ["detailed", "interval"]
            benchmarks = ["gcc", "mcf"]
        "#
    }

    #[test]
    fn a_figure_file_parses_and_expands() {
        let sweep = SweepSpec::from_toml(fig5ish()).unwrap();
        assert_eq!(sweep.name, "fig5");
        assert_eq!(sweep.models.len(), 2);
        let points = sweep.expand().unwrap();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].name, "fig5/gcc/detailed");
    }

    #[test]
    fn files_round_trip_through_the_codec() {
        let sweep = SweepSpec::from_toml(fig5ish()).unwrap();
        let rendered = sweep.to_toml();
        let reparsed = SweepSpec::from_toml(&rendered).unwrap();
        assert_eq!(sweep, reparsed, "rendered file:\n{rendered}");
    }

    #[test]
    fn scenario_blocks_inherit_and_override() {
        let text = r#"
            schema = "iss-scenario/v1"
            name = "ablation"
            model = "detailed"

            [workload]
            kind = "single"
            length = 8000

            [sweep]
            benchmarks = ["mcf"]

            [[scenario]]
            variant = "detailed"

            [[scenario]]
            variant = "no-overlap"
            model = "interval"
            [scenario.machine]
            overlap_effects = false
        "#;
        let sweep = SweepSpec::from_toml(text).unwrap();
        assert_eq!(sweep.templates.len(), 2);
        assert_eq!(sweep.templates[0].model, CoreModel::Detailed);
        assert_eq!(sweep.templates[1].model, CoreModel::Interval);
        assert_eq!(
            sweep.templates[1].machine.overrides.overlap_effects,
            Some(false)
        );
        let points = sweep.expand().unwrap();
        assert_eq!(points[1].variant, "no-overlap");
        assert!(
            !points[1]
                .resolved_config()
                .unwrap()
                .interval_core
                .model_overlap_effects
        );
        // Multi-template files round-trip too.
        let reparsed = SweepSpec::from_toml(&sweep.to_toml()).unwrap();
        assert_eq!(sweep, reparsed);
    }

    #[test]
    fn hybrid_and_sampled_model_strings_parse_in_files() {
        let text = r#"
            schema = "iss-scenario/v1"
            name = "frontier"
            [workload]
            kind = "single"
            benchmark = "gcc"
            length = 10000
            [sweep]
            models = ["detailed", "hybrid-periodic-4@2000", "sampled-detailed-1in28@350w60p6"]
        "#;
        let sweep = SweepSpec::from_toml(text).unwrap();
        assert!(matches!(sweep.models[1], CoreModel::Hybrid(h)
            if h.policy == crate::hybrid::SwapPolicy::Periodic { detailed_every: 4 }));
        assert!(matches!(sweep.models[2], CoreModel::Sampled(s)
            if s.measure == BaseModel::Detailed && s.sample_every == 28));
    }

    #[test]
    fn strict_parsing_rejects_typos_loudly() {
        let unknown_key = fig5ish().replace("baseline =", "basline =");
        let e = SweepSpec::from_toml(&unknown_key).unwrap_err();
        assert!(e.contains("basline"), "got: {e}");

        let unknown_section = fig5ish().replace("[machine]", "[machines]");
        let e = SweepSpec::from_toml(&unknown_section).unwrap_err();
        assert!(e.contains("[machines]"), "got: {e}");

        let bad_schema = fig5ish().replace("iss-scenario/v1", "iss-scenario/v9");
        let e = SweepSpec::from_toml(&bad_schema).unwrap_err();
        assert!(e.contains("v9"), "got: {e}");

        let bad_type = fig5ish().replace("length = 20000", "length = \"lots\"");
        let e = SweepSpec::from_toml(&bad_type).unwrap_err();
        assert!(e.contains("length"), "got: {e}");

        let negative = fig5ish().replace("seed = 42", "seed = -1");
        let e = SweepSpec::from_toml(&negative).unwrap_err();
        assert!(e.contains("negative"), "got: {e}");

        let dup = fig5ish().replace("length = 20000", "length = 20000\nlength = 30000");
        let e = SweepSpec::from_toml(&dup).unwrap_err();
        assert!(e.contains("duplicate"), "got: {e}");
    }

    #[test]
    fn missing_required_pieces_are_named() {
        let e = SweepSpec::from_toml("name = \"x\"").unwrap_err();
        assert!(e.contains("schema"), "got: {e}");

        let no_name = "schema = \"iss-scenario/v1\"";
        let e = SweepSpec::from_toml(no_name).unwrap_err();
        assert!(e.contains("name"), "got: {e}");

        let no_workload = r#"
            schema = "iss-scenario/v1"
            name = "x"
        "#;
        let e = SweepSpec::from_toml(no_workload).unwrap_err();
        assert!(e.contains("[workload]"), "got: {e}");
    }

    #[test]
    fn comments_and_whitespace_are_tolerated() {
        let text = r#"
            # a full-line comment
            schema = "iss-scenario/v1"   # trailing comment
            name = "a#b"                 # a hash inside a string is kept
            [workload]
            kind = "single"
            benchmark = "gcc"
            length = 1000
        "#;
        let sweep = SweepSpec::from_toml(text).unwrap();
        assert_eq!(sweep.name, "a#b");
    }

    #[test]
    fn scenario_machine_blocks_inherit_the_base_machine_per_field() {
        // A [[scenario]] block that flips one knob must keep the rest of
        // the file-level [machine] — the documented inheritance contract.
        let text = r#"
            schema = "iss-scenario/v1"
            name = "inherit"

            [machine]
            baseline = "fig8-quad-core-3d"
            no_l2 = true
            dram_latency = 90

            [workload]
            kind = "multithreaded"
            benchmark = "vips"
            threads = 4
            length = 8000

            [[scenario]]
            variant = "degraded"
            [scenario.machine]
            overlap_effects = false
        "#;
        let sweep = SweepSpec::from_toml(text).unwrap();
        let m = sweep.templates[0].machine;
        assert_eq!(m.baseline, MachineBaseline::Fig8QuadCore3d);
        assert!(m.overrides.no_l2, "no_l2 must be inherited");
        assert_eq!(m.overrides.dram_latency, Some(90), "dram_latency inherited");
        assert_eq!(m.overrides.overlap_effects, Some(false), "block override");
    }

    #[test]
    fn stray_workload_keys_for_another_kind_are_rejected() {
        // `threads` on a single-threaded workload is a shape mistake
        // (the user meant multithreaded); it must not be silently eaten.
        let text = r#"
            schema = "iss-scenario/v1"
            name = "stray"
            [workload]
            kind = "single"
            benchmark = "gcc"
            threads = 8
            length = 1000
        "#;
        let e = SweepSpec::from_toml(text).unwrap_err();
        assert!(e.contains("threads"), "got: {e}");

        let text = r#"
            schema = "iss-scenario/v1"
            name = "stray2"
            [workload]
            kind = "multiprogram"
            benchmarks = ["gcc", "mcf"]
            benchmark = "mcf"
            length = 1000
        "#;
        let e = SweepSpec::from_toml(text).unwrap_err();
        assert!(e.contains("benchmark"), "got: {e}");
    }

    #[test]
    fn out_of_range_integer_knobs_are_rejected_not_truncated() {
        let text = r#"
            schema = "iss-scenario/v1"
            name = "overflow"
            [machine]
            dispatch_width = 4294967298
            [workload]
            kind = "single"
            benchmark = "gcc"
            length = 1000
        "#;
        let e = SweepSpec::from_toml(text).unwrap_err();
        assert!(
            e.contains("out of range") && e.contains("dispatch_width"),
            "got: {e}"
        );
    }

    #[test]
    fn heterogeneous_multiprogram_parses() {
        let text = r#"
            schema = "iss-scenario/v1"
            name = "hetero"
            model = "sampled-detailed-1in8@500w100p4"

            [machine]
            baseline = "hpca2010"
            no_l2 = true

            [workload]
            kind = "multiprogram"
            benchmarks = ["gcc", "mcf", "swim", "twolf"]
            length = 5000
        "#;
        let sweep = SweepSpec::from_toml(text).unwrap();
        let points = sweep.expand().unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].resolved_cores(), 4);
        assert!(points[0].resolved_config().unwrap().memory.l2.is_none());
        assert!(matches!(points[0].model, CoreModel::Sampled(_)));
    }
}
