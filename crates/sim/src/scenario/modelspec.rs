//! Text codec for [`CoreModel`]: scenario files name models with exactly
//! the strings [`CoreModel::name`] prints, so every label that appears in
//! a report or a golden file is also a valid spec value.
//!
//! Grammar:
//!
//! * `interval` | `detailed` | `one-ipc`
//! * `hybrid-<policy>@<quantum>` with `<policy>` one of
//!   `always-<base>`, `periodic-<N>`, `phase-cpi-<T>`
//! * `sampled-<base>-1in<N>@<unit>w<warmup>p<prefix>`

use crate::hybrid::{HybridSpec, SwapPolicy};
use crate::runner::{BaseModel, CoreModel};
use crate::sampling::SamplingSpec;

/// Parses a base-model name.
///
/// # Errors
///
/// Returns a message listing the known base models for an unknown name.
pub fn parse_base_model(s: &str) -> Result<BaseModel, String> {
    match s {
        "interval" => Ok(BaseModel::Interval),
        "detailed" => Ok(BaseModel::Detailed),
        "one-ipc" => Ok(BaseModel::OneIpc),
        other => Err(format!(
            "unknown base model `{other}` (known: interval, detailed, one-ipc)"
        )),
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str, context: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("malformed {what} `{s}` in model `{context}`"))
}

/// Parses a hybrid model string of the form `<policy>@<quantum>` (without
/// the leading `hybrid-`).
fn parse_hybrid(body: &str, context: &str) -> Result<HybridSpec, String> {
    let (policy_str, quantum_str) = body
        .rsplit_once('@')
        .ok_or_else(|| format!("hybrid model `{context}` is missing its `@<quantum>` suffix"))?;
    let interval_insts = parse_num(quantum_str, "interval quantum", context)?;
    let policy = if let Some(base) = policy_str.strip_prefix("always-") {
        SwapPolicy::Always(parse_base_model(base).map_err(|e| format!("{e} in `{context}`"))?)
    } else if let Some(n) = policy_str.strip_prefix("periodic-") {
        SwapPolicy::Periodic {
            detailed_every: parse_num(n, "periodic period", context)?,
        }
    } else if let Some(t) = policy_str.strip_prefix("phase-cpi-") {
        SwapPolicy::PhaseCpi {
            threshold_permille: parse_num(t, "phase threshold", context)?,
        }
    } else {
        return Err(format!(
            "unknown hybrid policy `{policy_str}` in model `{context}` \
             (known: always-<base>, periodic-<N>, phase-cpi-<T>)"
        ));
    };
    let spec = HybridSpec {
        policy,
        interval_insts,
    };
    spec.validate()
        .map_err(|e| format!("invalid hybrid model `{context}`: {e}"))?;
    Ok(spec)
}

/// Parses a sampled model string of the form
/// `<base>-1in<N>@<unit>w<warmup>p<prefix>` (without the leading
/// `sampled-`).
fn parse_sampled(body: &str, context: &str) -> Result<SamplingSpec, String> {
    let shape = "sampled-<base>-1in<N>@<unit>w<warmup>p<prefix>";
    let (head, tail) = body
        .split_once("-1in")
        .ok_or_else(|| format!("sampled model `{context}` does not match `{shape}`"))?;
    let measure = parse_base_model(head).map_err(|e| format!("{e} in `{context}`"))?;
    let (every_str, rest) = tail
        .split_once('@')
        .ok_or_else(|| format!("sampled model `{context}` does not match `{shape}`"))?;
    let (unit_str, rest) = rest
        .split_once('w')
        .ok_or_else(|| format!("sampled model `{context}` does not match `{shape}`"))?;
    let (warmup_str, prefix_str) = rest
        .split_once('p')
        .ok_or_else(|| format!("sampled model `{context}` does not match `{shape}`"))?;
    let spec = SamplingSpec {
        measure,
        unit_insts: parse_num(unit_str, "unit size", context)?,
        sample_every: parse_num(every_str, "sampling period", context)?,
        warmup_insts: parse_num(warmup_str, "warmup size", context)?,
        prefix_units: parse_num(prefix_str, "prefix unit count", context)?,
    };
    spec.validate()
        .map_err(|e| format!("invalid sampled model `{context}`: {e}"))?;
    Ok(spec)
}

/// Parses a model string (the inverse of [`CoreModel::name`]).
///
/// # Errors
///
/// Returns a descriptive message for unknown model names and malformed
/// hybrid/sampled bodies.
pub fn parse_model(s: &str) -> Result<CoreModel, String> {
    let trimmed = s.trim();
    if let Ok(base) = parse_base_model(trimmed) {
        return Ok(base.into());
    }
    if let Some(body) = trimmed.strip_prefix("hybrid-") {
        return Ok(CoreModel::Hybrid(parse_hybrid(body, trimmed)?));
    }
    if let Some(body) = trimmed.strip_prefix("sampled-") {
        return Ok(CoreModel::Sampled(parse_sampled(body, trimmed)?));
    }
    Err(format!(
        "unknown model `{trimmed}` (known: interval, detailed, one-ipc, \
         hybrid-<policy>@<quantum>, sampled-<base>-1in<N>@<unit>w<warmup>p<prefix>)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_models_round_trip() {
        for m in [CoreModel::Interval, CoreModel::Detailed, CoreModel::OneIpc] {
            assert_eq!(parse_model(&m.name()).unwrap(), m);
        }
    }

    #[test]
    fn hybrid_models_round_trip() {
        let specs = [
            HybridSpec::always(BaseModel::Interval, 2_000),
            HybridSpec::always(BaseModel::Detailed, 500),
            HybridSpec::always(BaseModel::OneIpc, 10_000),
            HybridSpec::periodic(4, 2_000),
            HybridSpec::phase_cpi(200, 1_500),
        ];
        for spec in specs {
            let model = CoreModel::Hybrid(spec);
            assert_eq!(parse_model(&model.name()).unwrap(), model);
        }
    }

    #[test]
    fn sampled_models_round_trip() {
        let specs = [
            SamplingSpec::new(BaseModel::Detailed, 350, 28, 60, 6),
            SamplingSpec::new(BaseModel::Interval, 500, 12, 100, 4),
            SamplingSpec::new(BaseModel::OneIpc, 1_000, 1, 0, 0),
        ];
        for spec in specs {
            let model = CoreModel::Sampled(spec);
            assert_eq!(parse_model(&model.name()).unwrap(), model);
        }
    }

    #[test]
    fn malformed_models_fail_with_named_offender() {
        for bad in [
            "fast",
            "hybrid-periodic-4",                // missing quantum
            "hybrid-sometimes-4@2000",          // unknown policy
            "hybrid-periodic-x@2000",           // bad number
            "hybrid-periodic-4@0",              // zero quantum
            "hybrid-periodic-0@1000",           // zero period
            "hybrid-always-interval@0",         // zero quantum
            "sampled-detailed-1in28",           // missing body
            "sampled-doom-1in28@350w60p6",      // unknown base
            "sampled-detailed-1in0@350w60p6",   // fails SamplingSpec::validate
            "sampled-detailed-1in28@350w400p6", // warmup >= unit
        ] {
            let e = parse_model(bad).unwrap_err();
            assert!(
                e.contains(bad) || e.contains("unknown") || e.contains("invalid"),
                "`{bad}` got: {e}"
            );
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        assert_eq!(parse_model(" interval ").unwrap(), CoreModel::Interval);
    }
}
