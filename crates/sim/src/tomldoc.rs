//! Generic strict TOML-subset document parser.
//!
//! Scenario files use one grammar: `key = value` pairs, `[section]`
//! headers, one optional `[[name]]` table array, double-quoted strings,
//! unsigned integers, booleans and homogeneous one-line arrays. The
//! workspace links no serialization framework, so this module is the
//! hand-rolled codec behind them. Parsing is **strict**: unknown sections,
//! unknown keys (enforced by callers via [`Doc::unused`]), duplicate keys,
//! negative numbers and type mismatches are errors carrying the offending
//! line — a typo in a config file must never silently change what gets
//! simulated.
//!
//! A caller describes its document shape with a [`DocSpec`] and reads
//! typed values through the `take_*` accessors:
//!
//! ```
//! use iss_sim::tomldoc::{ArraySpec, Doc, DocSpec};
//!
//! const SPEC: DocSpec = DocSpec {
//!     sections: &["limits"],
//!     array: Some(ArraySpec { name: "rule", subsections: &[] }),
//! };
//! let mut doc = Doc::parse("max = 4\n[limits]\nceiling = 9\n[[rule]]\nid = \"a\"", &SPEC).unwrap();
//! assert_eq!(doc.take_u64("", "max").unwrap(), Some(4));
//! assert_eq!(doc.take_u64("limits", "ceiling").unwrap(), Some(9));
//! assert_eq!(doc.take_str("rule.0", "id").unwrap().as_deref(), Some("a"));
//! assert!(doc.unused().is_none());
//! ```

/// Shape of the documents a parser accepts: the fixed `[section]` names and
/// the (at most one) `[[name]]` table array with its dotted subsections.
#[derive(Debug, Clone, Copy)]
pub struct DocSpec {
    /// Names valid as plain `[section]` headers. The empty string (top
    /// level) is always implicitly valid.
    pub sections: &'static [&'static str],
    /// The table array the document may carry, if any.
    pub array: Option<ArraySpec>,
}

/// The `[[name]]` table array a [`DocSpec`] permits.
#[derive(Debug, Clone, Copy)]
pub struct ArraySpec {
    /// Header name: `[[name]]` opens a new block whose entries live in
    /// section `name.<index>`.
    pub name: &'static str,
    /// Subsection names valid as `[name.sub]` inside a block; entries land
    /// in `name.<index>.<sub>`.
    pub subsections: &'static [&'static str],
}

/// A parsed scalar or one-line array value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Double-quoted string.
    Str(String),
    /// Unsigned integer.
    Int(u64),
    /// `true` / `false`.
    Bool(bool),
    /// Homogeneous array of strings.
    StrList(Vec<String>),
    /// Homogeneous array of unsigned integers.
    IntList(Vec<u64>),
}

impl Value {
    /// Human-readable type name for error messages.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Bool(_) => "boolean",
            Value::StrList(_) => "string array",
            Value::IntList(_) => "integer array",
        }
    }
}

/// One `key = value` line, tagged with the section it appeared in.
#[derive(Debug)]
pub struct Entry {
    /// Owning section: `""` for top level, a `[section]` name, or
    /// `array.<index>[.<sub>]` for table-array blocks.
    pub section: String,
    /// The key text.
    pub key: String,
    /// The parsed value.
    pub value: Value,
    /// 1-based source line.
    pub line: usize,
    used: bool,
}

/// A fully parsed document: a flat list of entries plus the number of
/// table-array blocks seen. Callers consume entries with the `take_*`
/// accessors and then reject anything left over via [`Doc::unused`] —
/// that is how the unknown-key check works without this module knowing
/// any caller's key vocabulary.
#[derive(Debug)]
pub struct Doc {
    entries: Vec<Entry>,
    blocks: usize,
}

/// `"the top level"` or `"[section]"` — the phrasing error messages use.
#[must_use]
pub fn section_label(section: &str) -> String {
    if section.is_empty() {
        "the top level".to_string()
    } else {
        format!("[{section}]")
    }
}

fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_scalar(text: &str, line_no: usize) -> Result<Value, String> {
    let t = text.trim();
    if let Some(rest) = t.strip_prefix('"') {
        let Some(body) = rest.strip_suffix('"') else {
            return Err(format!("line {line_no}: unterminated string `{t}`"));
        };
        if body.contains('"') {
            return Err(format!(
                "line {line_no}: embedded quotes are not supported in `{t}`"
            ));
        }
        return Ok(Value::Str(body.to_string()));
    }
    match t {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if t.starts_with('-') {
        return Err(format!(
            "line {line_no}: negative numbers are not valid in these files (`{t}`)"
        ));
    }
    t.parse::<u64>()
        .map(Value::Int)
        .map_err(|_| format!("line {line_no}: `{t}` is not a string, boolean or unsigned integer"))
}

fn parse_value(text: &str, line_no: usize) -> Result<Value, String> {
    let t = text.trim();
    let Some(list_body) = t.strip_prefix('[') else {
        return parse_scalar(t, line_no);
    };
    let Some(body) = list_body.strip_suffix(']') else {
        return Err(format!(
            "line {line_no}: unterminated array `{t}` (arrays must close on the same line)"
        ));
    };
    let mut strs = Vec::new();
    let mut ints = Vec::new();
    let body = body.trim();
    if body.is_empty() {
        return Ok(Value::StrList(Vec::new()));
    }
    for element in split_top_level_commas(body) {
        match parse_scalar(&element, line_no)? {
            Value::Str(s) => strs.push(s),
            Value::Int(n) => ints.push(n),
            other => {
                return Err(format!(
                    "line {line_no}: arrays may hold strings or integers, not {}",
                    other.type_name()
                ))
            }
        }
    }
    match (strs.is_empty(), ints.is_empty()) {
        (false, true) => Ok(Value::StrList(strs)),
        (true, false) => Ok(Value::IntList(ints)),
        _ => Err(format!(
            "line {line_no}: arrays must be homogeneous (all strings or all integers)"
        )),
    }
}

fn split_top_level_commas(body: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    let mut in_string = false;
    for c in body.chars() {
        match c {
            '"' => {
                in_string = !in_string;
                current.push(c);
            }
            ',' if !in_string => {
                out.push(current.trim().to_string());
                current.clear();
            }
            _ => current.push(c),
        }
    }
    out.push(current.trim().to_string());
    out
}

impl Doc {
    /// Parses `text` against `spec`.
    ///
    /// # Errors
    ///
    /// Returns a message with the offending line for any syntactic defect:
    /// malformed lines or keys, unknown or misplaced sections, duplicate
    /// keys, bad scalars or inhomogeneous arrays.
    pub fn parse(text: &str, spec: &DocSpec) -> Result<Doc, String> {
        let mut doc = Doc {
            entries: Vec::new(),
            blocks: 0,
        };
        // The section every following `key = value` line lands in;
        // table-array blocks get an index so each block is its own
        // namespace.
        let mut section = String::new();
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix("[[").and_then(|h| h.strip_suffix("]]")) {
                let header = header.trim();
                match spec.array {
                    Some(a) if a.name == header => {
                        section = format!("{}.{}", a.name, doc.blocks);
                        doc.blocks += 1;
                    }
                    Some(a) => {
                        return Err(format!(
                            "line {line_no}: only [[{}]] table arrays are supported, \
                             got [[{header}]]",
                            a.name
                        ))
                    }
                    None => {
                        return Err(format!(
                            "line {line_no}: table arrays are not supported here ([[{header}]])"
                        ))
                    }
                }
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|h| h.strip_suffix(']')) {
                let header = header.trim();
                let array_sub = spec
                    .array
                    .and_then(|a| header.strip_prefix(&format!("{}.", a.name)).map(|s| (a, s)));
                if let Some((a, sub)) = array_sub {
                    if doc.blocks == 0 {
                        return Err(format!(
                            "line {line_no}: [{}.{sub}] appears before any [[{}]] block",
                            a.name, a.name
                        ));
                    }
                    if !a.subsections.contains(&sub) {
                        return Err(format!(
                            "line {line_no}: unknown {} subsection [{}.{sub}] (known: {})",
                            a.name,
                            a.name,
                            a.subsections.join(", ")
                        ));
                    }
                    section = format!("{}.{}.{sub}", a.name, doc.blocks - 1);
                } else if spec.sections.contains(&header) {
                    section = header.to_string();
                } else {
                    let mut known: Vec<String> =
                        spec.sections.iter().map(ToString::to_string).collect();
                    if let Some(a) = spec.array {
                        known.push(format!("and [[{}]] blocks", a.name));
                    }
                    return Err(format!(
                        "line {line_no}: unknown section [{header}] (known: {})",
                        known.join(", ")
                    ));
                }
                continue;
            }
            let Some((key, value_text)) = line.split_once('=') else {
                return Err(format!(
                    "line {line_no}: expected `key = value`, a [section] header or a comment, \
                     got `{line}`"
                ));
            };
            let key = key.trim().to_string();
            if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(format!("line {line_no}: malformed key `{key}`"));
            }
            let value = parse_value(value_text, line_no)?;
            if doc
                .entries
                .iter()
                .any(|e| e.section == section && e.key == key)
            {
                return Err(format!(
                    "line {line_no}: duplicate key `{key}` in {}",
                    section_label(&section)
                ));
            }
            doc.entries.push(Entry {
                section: section.clone(),
                key,
                value,
                line: line_no,
                used: false,
            });
        }
        Ok(doc)
    }

    /// Number of `[[...]]` table-array blocks the document carries.
    #[must_use]
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Whether any entry (used or not) lives in `section`.
    #[must_use]
    pub fn has_section(&self, section: &str) -> bool {
        self.entries.iter().any(|e| e.section == section)
    }

    /// Consumes and returns the raw value (and line) of `section.key`.
    pub fn take(&mut self, section: &str, key: &str) -> Option<(Value, usize)> {
        self.entries
            .iter_mut()
            .find(|e| !e.used && e.section == section && e.key == key)
            .map(|e| {
                e.used = true;
                (e.value.clone(), e.line)
            })
    }

    /// First entry no accessor has consumed — the caller's unknown-key
    /// check: after taking every key it understands, anything left is a
    /// typo and must be reported, not ignored.
    #[must_use]
    pub fn unused(&self) -> Option<&Entry> {
        self.entries.iter().find(|e| !e.used)
    }

    /// Consumes `section.key` as a string.
    ///
    /// # Errors
    ///
    /// Returns a typed-mismatch message naming the line when the value is
    /// present but not a string.
    pub fn take_str(&mut self, section: &str, key: &str) -> Result<Option<String>, String> {
        match self.take(section, key) {
            None => Ok(None),
            Some((Value::Str(s), _)) => Ok(Some(s)),
            Some((other, line)) => Err(format!(
                "line {line}: `{key}` must be a string, got a {}",
                other.type_name()
            )),
        }
    }

    /// Consumes `section.key` as an unsigned integer.
    ///
    /// # Errors
    ///
    /// Returns a typed-mismatch message naming the line when the value is
    /// present but not an unsigned integer.
    pub fn take_u64(&mut self, section: &str, key: &str) -> Result<Option<u64>, String> {
        match self.take(section, key) {
            None => Ok(None),
            Some((Value::Int(n), _)) => Ok(Some(n)),
            Some((other, line)) => Err(format!(
                "line {line}: `{key}` must be an unsigned integer, got a {}",
                other.type_name()
            )),
        }
    }

    /// Consumes `section.key` as a boolean.
    ///
    /// # Errors
    ///
    /// Returns a typed-mismatch message naming the line when the value is
    /// present but not a boolean.
    pub fn take_bool(&mut self, section: &str, key: &str) -> Result<Option<bool>, String> {
        match self.take(section, key) {
            None => Ok(None),
            Some((Value::Bool(b), _)) => Ok(Some(b)),
            Some((other, line)) => Err(format!(
                "line {line}: `{key}` must be a boolean, got a {}",
                other.type_name()
            )),
        }
    }

    /// Consumes `section.key` as a string array (a bare string is accepted
    /// as a one-element array).
    ///
    /// # Errors
    ///
    /// Returns a typed-mismatch message naming the line when the value is
    /// present but neither a string array nor a string.
    pub fn take_str_list(
        &mut self,
        section: &str,
        key: &str,
    ) -> Result<Option<Vec<String>>, String> {
        match self.take(section, key) {
            None => Ok(None),
            Some((Value::StrList(v), _)) => Ok(Some(v)),
            Some((Value::Str(s), _)) => Ok(Some(vec![s])),
            Some((other, line)) => Err(format!(
                "line {line}: `{key}` must be an array of strings, got a {}",
                other.type_name()
            )),
        }
    }

    /// Consumes `section.key` as an unsigned-integer array (a bare integer
    /// is accepted as a one-element array).
    ///
    /// # Errors
    ///
    /// Returns a typed-mismatch message naming the line when the value is
    /// present but neither an integer array nor an integer.
    pub fn take_u64_list(&mut self, section: &str, key: &str) -> Result<Option<Vec<u64>>, String> {
        match self.take(section, key) {
            None => Ok(None),
            Some((Value::IntList(v), _)) => Ok(Some(v)),
            Some((Value::Int(n), _)) => Ok(Some(vec![n])),
            Some((other, line)) => Err(format!(
                "line {line}: `{key}` must be an array of unsigned integers, got a {}",
                other.type_name()
            )),
        }
    }

    /// [`Doc::take_u64`] narrowed to a target integer type, rejecting
    /// out-of-range values instead of truncating them.
    ///
    /// # Errors
    ///
    /// Returns a typed-mismatch or out-of-range message naming the line.
    pub fn take_narrow<T: TryFrom<u64>>(
        &mut self,
        section: &str,
        key: &str,
    ) -> Result<Option<T>, String> {
        match self.take(section, key) {
            None => Ok(None),
            Some((Value::Int(n), line)) => T::try_from(n).map(Some).map_err(|_| {
                format!("line {line}: `{key}` value {n} is out of range for this knob")
            }),
            Some((other, line)) => Err(format!(
                "line {line}: `{key}` must be an unsigned integer, got a {}",
                other.type_name()
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: DocSpec = DocSpec {
        sections: &["alpha", "beta"],
        array: Some(ArraySpec {
            name: "item",
            subsections: &["inner"],
        }),
    };

    const FLAT: DocSpec = DocSpec {
        sections: &[],
        array: None,
    };

    #[test]
    fn sections_and_blocks_namespace_keys() {
        let text = r#"
            top = 1
            [alpha]
            x = "a"
            [[item]]
            x = "first"
            [item.inner]
            y = [1, 2]
            [[item]]
            x = "second"
        "#;
        let mut doc = Doc::parse(text, &SPEC).unwrap();
        assert_eq!(doc.blocks(), 2);
        assert_eq!(doc.take_u64("", "top").unwrap(), Some(1));
        assert_eq!(doc.take_str("alpha", "x").unwrap().as_deref(), Some("a"));
        assert_eq!(
            doc.take_str("item.0", "x").unwrap().as_deref(),
            Some("first")
        );
        assert_eq!(
            doc.take_u64_list("item.0.inner", "y").unwrap(),
            Some(vec![1, 2])
        );
        assert_eq!(
            doc.take_str("item.1", "x").unwrap().as_deref(),
            Some("second")
        );
        assert!(doc.unused().is_none());
    }

    #[test]
    fn shape_violations_are_line_numbered_errors() {
        let e = Doc::parse("[gamma]\n", &SPEC).unwrap_err();
        assert!(e.contains("[gamma]") && e.contains("line 1"), "got: {e}");

        let e = Doc::parse("[[other]]\n", &SPEC).unwrap_err();
        assert!(e.contains("[[other]]"), "got: {e}");

        let e = Doc::parse("[[item]]\n", &FLAT).unwrap_err();
        assert!(e.contains("not supported"), "got: {e}");

        let e = Doc::parse("[item.inner]\n", &SPEC).unwrap_err();
        assert!(e.contains("before any"), "got: {e}");

        let e = Doc::parse("[[item]]\n[item.bogus]\n", &SPEC).unwrap_err();
        assert!(e.contains("bogus") && e.contains("inner"), "got: {e}");

        let e = Doc::parse("x = 1\nx = 2\n", &FLAT).unwrap_err();
        assert!(e.contains("duplicate") && e.contains("line 2"), "got: {e}");

        let e = Doc::parse("x = -4\n", &FLAT).unwrap_err();
        assert!(e.contains("negative"), "got: {e}");

        let e = Doc::parse("x = [1, \"a\"]\n", &FLAT).unwrap_err();
        assert!(e.contains("homogeneous"), "got: {e}");

        let e = Doc::parse("just words\n", &FLAT).unwrap_err();
        assert!(e.contains("key = value"), "got: {e}");
    }

    #[test]
    fn unused_reports_the_first_unconsumed_entry() {
        let mut doc = Doc::parse("a = 1\nb = 2\n", &FLAT).unwrap();
        assert_eq!(doc.take_u64("", "a").unwrap(), Some(1));
        let stray = doc.unused().unwrap();
        assert_eq!(stray.key, "b");
        assert_eq!(stray.line, 2);
    }

    #[test]
    fn narrowing_rejects_out_of_range_values() {
        let mut doc = Doc::parse("w = 4294967298\n", &FLAT).unwrap();
        let e = doc.take_narrow::<u32>("", "w").unwrap_err();
        assert!(e.contains("out of range"), "got: {e}");
    }
}
