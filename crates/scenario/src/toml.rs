//! A minimal TOML subset parser for scenario specs and load profiles.
//!
//! The allowed dependency set has no TOML crate, so this module implements
//! the fragment the scenario grammar needs, from scratch:
//!
//! * `key = value` pairs with bare keys;
//! * basic strings (`"..."` with `\"`, `\\`, `\n`, `\t` escapes);
//! * integers, floats, booleans;
//! * flat arrays of scalars (`[1, 2.5, "x"]`);
//! * `[table]` and `[[array-of-tables]]` headers;
//! * `#` comments and blank lines.
//!
//! Parsing is strict: anything outside this fragment is a
//! [`TomlError`] with a line number, not a silent skip — a typo in a
//! scenario spec must fail `scenario validate`, not compile to an empty
//! workload.

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A basic string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A flat array of scalars.
    Array(Vec<Value>),
}

impl Value {
    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric content (integers widen), if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer content, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Boolean content, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A table: key/value pairs in file order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    /// Entries in the order they appeared.
    pub entries: Vec<(String, Value)>,
    /// Line of the table header (0 for the root table).
    pub line: usize,
}

impl Table {
    /// Look a key up.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The keys present, in file order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }
}

/// One `[name]` or `[[name]]` section.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// Header path (dots are kept verbatim; the scenario grammar only uses
    /// single-segment names).
    pub path: String,
    /// Whether the header was `[[...]]` (array of tables).
    pub array: bool,
    /// The section body.
    pub table: Table,
}

/// A parsed document: a root table plus the sections in file order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Doc {
    /// Keys before the first section header.
    pub root: Table,
    /// Sections in file order.
    pub sections: Vec<Section>,
}

impl Doc {
    /// Parse a document.
    pub fn parse(text: &str) -> Result<Doc, TomlError> {
        let mut doc = Doc::default();
        let mut current: Option<Section> = None;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw, lineno)?;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("[[") {
                let Some(name) = rest.strip_suffix("]]") else {
                    return Err(TomlError::new(lineno, "unterminated [[table]] header"));
                };
                let name = check_header_name(name, lineno)?;
                if let Some(done) = current.replace(Section {
                    path: name,
                    array: true,
                    table: Table {
                        entries: Vec::new(),
                        line: lineno,
                    },
                }) {
                    doc.sections.push(done);
                }
            } else if let Some(rest) = line.strip_prefix('[') {
                let Some(name) = rest.strip_suffix(']') else {
                    return Err(TomlError::new(lineno, "unterminated [table] header"));
                };
                let name = check_header_name(name, lineno)?;
                if let Some(done) = current.replace(Section {
                    path: name,
                    array: false,
                    table: Table {
                        entries: Vec::new(),
                        line: lineno,
                    },
                }) {
                    doc.sections.push(done);
                }
            } else {
                let Some((key, value)) = line.split_once('=') else {
                    return Err(TomlError::new(
                        lineno,
                        format!("expected `key = value`, got {line:?}"),
                    ));
                };
                let key = key.trim();
                if key.is_empty()
                    || !key
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
                {
                    return Err(TomlError::new(lineno, format!("invalid key {key:?}")));
                }
                let value = parse_value(value.trim(), lineno)?;
                let table = current
                    .as_mut()
                    .map(|s| &mut s.table)
                    .unwrap_or(&mut doc.root);
                if table.get(key).is_some() {
                    return Err(TomlError::new(lineno, format!("duplicate key {key:?}")));
                }
                table.entries.push((key.to_string(), value));
            }
        }
        if let Some(done) = current {
            doc.sections.push(done);
        }
        Ok(doc)
    }

    /// The first non-array `[name]` section.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.sections
            .iter()
            .find(|s| !s.array && s.path == name)
            .map(|s| &s.table)
    }

    /// Every `[[name]]` section body, in file order.
    pub fn array(&self, name: &str) -> Vec<&Table> {
        self.sections
            .iter()
            .filter(|s| s.array && s.path == name)
            .map(|s| &s.table)
            .collect()
    }

    /// All distinct section paths (for unknown-section validation).
    pub fn section_paths(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|s| s.path.as_str())
    }
}

/// A syntax error with a 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct TomlError {
    /// 1-based line of the offending input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl TomlError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        TomlError {
            line,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TomlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TomlError {}

/// Strip a trailing `#` comment, honouring string quoting.
fn strip_comment(line: &str, lineno: usize) -> Result<&str, TomlError> {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '#' if !in_string => return Ok(&line[..i]),
            _ => {}
        }
    }
    if in_string {
        return Err(TomlError::new(lineno, "unterminated string"));
    }
    Ok(line)
}

fn check_header_name(name: &str, lineno: usize) -> Result<String, TomlError> {
    let name = name.trim();
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.')
    {
        return Err(TomlError::new(
            lineno,
            format!("invalid table name {name:?}"),
        ));
    }
    Ok(name.to_string())
}

fn parse_value(text: &str, lineno: usize) -> Result<Value, TomlError> {
    if text.is_empty() {
        return Err(TomlError::new(lineno, "missing value"));
    }
    if let Some(rest) = text.strip_prefix('"') {
        let (s, tail) = parse_string(rest, lineno)?;
        if !tail.trim().is_empty() {
            return Err(TomlError::new(
                lineno,
                format!("trailing characters after string: {tail:?}"),
            ));
        }
        return Ok(Value::Str(s));
    }
    if let Some(rest) = text.strip_prefix('[') {
        let Some(body) = rest.strip_suffix(']') else {
            return Err(TomlError::new(lineno, "unterminated array"));
        };
        let mut items = Vec::new();
        for part in split_array_items(body) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let v = parse_value(part, lineno)?;
            if matches!(v, Value::Array(_)) {
                return Err(TomlError::new(lineno, "nested arrays are not supported"));
            }
            items.push(v);
        }
        return Ok(Value::Array(items));
    }
    match text {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    // TOML allows `1_000_000`; strip separators before numeric parsing.
    let digits = text.replace('_', "");
    if !text.starts_with('_') && !text.ends_with('_') && !digits.is_empty() {
        if let Ok(i) = digits.parse::<i64>() {
            return Ok(Value::Int(i));
        }
        if let Ok(f) = digits.parse::<f64>() {
            if f.is_finite() {
                return Ok(Value::Float(f));
            }
        }
    }
    Err(TomlError::new(lineno, format!("invalid value {text:?}")))
}

/// Parse the remainder of a basic string (after the opening quote).
/// Returns the unescaped content and the text after the closing quote.
fn parse_string(rest: &str, lineno: usize) -> Result<(String, &str), TomlError> {
    let mut out = String::new();
    let mut chars = rest.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &rest[i + 1..])),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, other)) => {
                    return Err(TomlError::new(
                        lineno,
                        format!("unsupported escape \\{other}"),
                    ))
                }
                None => return Err(TomlError::new(lineno, "dangling escape")),
            },
            other => out.push(other),
        }
    }
    Err(TomlError::new(lineno, "unterminated string"))
}

/// Split array body on top-level commas (strings may contain commas).
fn split_array_items(body: &str) -> Vec<&str> {
    let mut items = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            ',' if !in_string => {
                items.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    items.push(&body[start..]);
    items
}

/// Escape a string for emission as a TOML basic string.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_and_arrays_of_tables() {
        let doc = Doc::parse(
            r#"
# top comment
top = 1

[scenario]
name = "flash-crowd"  # trailing comment
procs = 256
horizon_hours = 24.0

[[tenant]]
name = "batch"
users = 1_000_000

[[tenant]]
name = "interactive"
rate_per_hour = 0.5
"#,
        )
        .unwrap();
        assert_eq!(doc.root.get("top"), Some(&Value::Int(1)));
        let s = doc.table("scenario").unwrap();
        assert_eq!(s.get("name").unwrap().as_str(), Some("flash-crowd"));
        assert_eq!(s.get("procs").unwrap().as_i64(), Some(256));
        assert_eq!(s.get("horizon_hours").unwrap().as_f64(), Some(24.0));
        let tenants = doc.array("tenant");
        assert_eq!(tenants.len(), 2);
        assert_eq!(tenants[0].get("users").unwrap().as_i64(), Some(1_000_000));
        assert_eq!(tenants[1].get("rate_per_hour").unwrap().as_f64(), Some(0.5));
    }

    #[test]
    fn parses_scalars_and_arrays() {
        let doc = Doc::parse("a = true\nb = \"x # not a comment\"\nc = [1, 2.5, \"z\"]\n").unwrap();
        assert_eq!(doc.root.get("a").unwrap().as_bool(), Some(true));
        assert_eq!(
            doc.root.get("b").unwrap().as_str(),
            Some("x # not a comment")
        );
        match doc.root.get("c").unwrap() {
            Value::Array(items) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[1].as_f64(), Some(2.5));
                assert_eq!(items[2].as_str(), Some("z"));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn rejects_syntax_errors_with_line_numbers() {
        for (text, line) in [
            ("a = \n", 1),
            ("[unterminated\n", 1),
            ("a = 1\nnot a pair\n", 2),
            ("a = \"unterminated\n", 1),
            ("a = 1\na = 2\n", 2),
            ("9bad key = 1 1\n", 1),
        ] {
            let err = Doc::parse(text).unwrap_err();
            assert_eq!(err.line, line, "{text:?} -> {err}");
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "quote \" slash \\ nl \n tab \t done";
        let text = format!("k = {}\n", escape(s));
        let doc = Doc::parse(&text).unwrap();
        assert_eq!(doc.root.get("k").unwrap().as_str(), Some(s));
    }

    #[test]
    fn duplicate_sections_accumulate_only_for_arrays() {
        let doc = Doc::parse("[a]\nx = 1\n[[b]]\ny = 1\n[[b]]\ny = 2\n").unwrap();
        assert_eq!(doc.table("a").unwrap().get("x").unwrap().as_i64(), Some(1));
        assert_eq!(doc.array("b").len(), 2);
        assert!(doc.table("b").is_none());
    }
}
