//! Model documents: the one text reader and float writer behind every
//! persisted network, optimizer, model and checkpoint (the four `v1`
//! grammars, and what is strict about reading them, are in DESIGN.md §4
//! "Model documents"; `tinynn-mlp v1` is the schema at the end of this
//! file, `tinynn-adam v1` is in `adam.rs`).
//!
//! A document is a header line, `key value…` lines and bare marker lines;
//! blank lines and surrounding whitespace never count. [`Reader`] walks
//! the lines and knows the 1-based number of the one it is on, so an error
//! from any depth of a nested document names its true line. A schema is a
//! function over `&mut Reader` that consumes exactly its own lines, which
//! makes documents nest by calling the inner schema *in place* — nothing
//! is split, copied or re-joined. The reader is total: no number read from
//! the document sizes an allocation or a multiplication unchecked, and
//! [`document`] rejects whatever follows a complete document.

use std::fmt::{self, Display, Write as _};
use std::str::FromStr;

use crate::activation::Activation;
use crate::layer::Dense;
use crate::mlp::Mlp;

/// Why a document did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextError {
    /// 1-based line the failure was detected at; for a document that ends
    /// early, the first missing line.
    pub line: usize,
    /// What was wrong with that line.
    pub msg: String,
}

impl Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for TextError {}

/// Read `text` as one whole document: `schema` consumes its lines, and
/// any non-blank line left over is an error at that line.
pub fn document<T>(
    text: &str,
    schema: impl FnOnce(&mut Reader<'_>) -> Result<T, TextError>,
) -> Result<T, TextError> {
    let mut r = Reader {
        lines: text.lines(),
        taken: 0,
        line: 0,
    };
    let value = schema(&mut r)?;
    match r.advance() {
        Some(extra) => Err(r.err(format!(
            "unexpected content after the document: {:?}",
            excerpt(extra)
        ))),
        None => Ok(value),
    }
}

/// A cursor over a document's non-blank lines.
pub struct Reader<'a> {
    lines: std::str::Lines<'a>,
    /// Lines taken from `lines` so far, blank ones included.
    taken: usize,
    /// The line [`Reader::err`] reports: the one last returned, or the
    /// first missing one once the text has run out.
    line: usize,
}

/// At most the first 40 characters of `s`, for quoting in a message: a
/// weight line runs to kilobytes.
fn excerpt(s: &str) -> &str {
    s.char_indices().nth(40).map_or(s, |(end, _)| &s[..end])
}

impl<'a> Reader<'a> {
    /// An error at the current line.
    pub fn err(&self, msg: impl Into<String>) -> TextError {
        TextError {
            line: self.line,
            msg: msg.into(),
        }
    }

    fn advance(&mut self) -> Option<&'a str> {
        for raw in self.lines.by_ref() {
            self.taken += 1;
            let line = raw.trim();
            if !line.is_empty() {
                self.line = self.taken;
                return Some(line);
            }
        }
        self.line = self.taken + 1;
        None
    }

    fn line(&mut self, want: &str) -> Result<&'a str, TextError> {
        match self.advance() {
            Some(line) => Ok(line),
            None => Err(self.err(format!("missing {want:?} line"))),
        }
    }

    /// The next line must be exactly `text`: a format header such as
    /// `tinynn-mlp v1`, or a bare section marker such as `policy`.
    pub fn marker(&mut self, text: &str) -> Result<(), TextError> {
        let line = self.line(text)?;
        if line == text {
            Ok(())
        } else {
            Err(self.err(format!("expected {text:?}, got {:?}", excerpt(line))))
        }
    }

    /// The next line must be `key` and its value(s); returns the value
    /// part, trimmed.
    pub fn field(&mut self, key: &str) -> Result<&'a str, TextError> {
        let line = self.line(key)?;
        match line.strip_prefix(key) {
            Some(rest) if rest.is_empty() || rest.starts_with(char::is_whitespace) => {
                Ok(rest.trim_start())
            }
            _ => Err(self.err(format!("expected {key:?} line, got {:?}", excerpt(line)))),
        }
    }

    /// A `key value` line with one parsed value.
    pub fn parse<T: FromStr>(&mut self, key: &str) -> Result<T, TextError>
    where
        T::Err: Display,
    {
        let value = self.field(key)?;
        value
            .parse()
            .map_err(|e| self.err(format!("bad {key} value {:?}: {e}", excerpt(value))))
    }

    /// A `key x0 x1 …` line of exactly `n` numbers, ASCII whitespace
    /// between them. `n` may come from the document: values are counted as
    /// they are parsed, and the capacity asked for is bounded by the line's
    /// own length (a value and its separator take two bytes at least).
    pub fn floats<T: FromStr>(&mut self, key: &str, n: usize) -> Result<Vec<T>, TextError>
    where
        T::Err: Display,
    {
        let rest = self.field(key)?;
        let mut out = Vec::with_capacity(n.min(rest.len() / 2 + 1));
        let mut seen = 0usize;
        for token in rest.split_ascii_whitespace() {
            seen += 1;
            if seen <= n {
                out.push(token.parse().map_err(|e| {
                    self.err(format!(
                        "bad value {:?} in {key:?} line: {e}",
                        excerpt(token)
                    ))
                })?);
            }
        }
        if seen != n {
            return Err(self.err(format!("{key:?} line: expected {n} values, got {seen}")));
        }
        Ok(out)
    }
}

/// Append `key x0 x1 …\n`. `{:e}` is the shortest text that parses back to
/// the same `f32`, so a written document round-trips bit for bit.
pub fn write_floats(out: &mut String, key: &str, xs: &[f32]) {
    out.push_str(key);
    for x in xs {
        let _ = write!(out, " {x:e}");
    }
    out.push('\n');
}

fn act_name(a: Activation) -> &'static str {
    match a {
        Activation::Tanh => "tanh",
        Activation::Relu => "relu",
        Activation::Identity => "identity",
    }
}

fn act_parse(s: &str) -> Result<Activation, String> {
    match s {
        "tanh" => Ok(Activation::Tanh),
        "relu" => Ok(Activation::Relu),
        "identity" => Ok(Activation::Identity),
        other => Err(format!("unknown activation {:?}", excerpt(other))),
    }
}

impl Mlp {
    /// Append this network's `tinynn-mlp v1` lines to `out`.
    pub fn write_text(&self, out: &mut String) {
        let _ = writeln!(out, "tinynn-mlp v1\nlayers {}", self.layers().len());
        for l in self.layers() {
            let _ = writeln!(out, "layer {} {} {}", l.fan_in, l.fan_out, act_name(l.act));
            write_floats(out, "w", &l.w);
            write_floats(out, "b", &l.b);
        }
    }

    /// Read one network from `r`, consuming exactly its own lines
    /// (`layers <n>` says how many follow).
    pub fn read_text(r: &mut Reader<'_>) -> Result<Mlp, TextError> {
        r.marker("tinynn-mlp v1")?;
        let n: usize = r.parse("layers")?;
        // Pushed per layer, never reserved: a hostile `n` runs out of
        // `layer` lines, not out of memory.
        let mut layers = Vec::new();
        for _ in 0..n {
            let spec = r.field("layer")?;
            let mut parts = spec.split_ascii_whitespace();
            let (Some(fan_in), Some(fan_out), Some(act), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(r.err("expected `layer <fan_in> <fan_out> <activation>`"));
            };
            let dim = |s: &str| {
                s.parse::<usize>()
                    .map_err(|e| r.err(format!("bad layer dimension {:?}: {e}", excerpt(s))))
            };
            let (fan_in, fan_out) = (dim(fan_in)?, dim(fan_out)?);
            let act = act_parse(act).map_err(|e| r.err(e))?;
            let weights = fan_in
                .checked_mul(fan_out)
                .ok_or_else(|| r.err(format!("layer size {fan_in} x {fan_out} overflows")))?;
            let w: Vec<f32> = r.floats("w", weights)?;
            let b: Vec<f32> = r.floats("b", fan_out)?;
            layers.push(Dense {
                fan_in,
                fan_out,
                gw: vec![0.0; w.len()],
                gb: vec![0.0; b.len()],
                w,
                b,
                act,
            });
        }
        Mlp::from_layers(layers).map_err(|e| r.err(e))
    }

    /// Serialize to the text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write_text(&mut out);
        out
    }

    /// Parse from the text format.
    pub fn from_text(text: &str) -> Result<Mlp, TextError> {
        document(text, Mlp::read_text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_preserves_outputs_exactly() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = Mlp::new(
            &[7, 32, 16, 8, 2],
            Activation::Tanh,
            Activation::Identity,
            &mut rng,
        );
        let text = net.to_text();
        let back = Mlp::from_text(&text).unwrap();
        let x = [0.1f32, 0.9, 0.3, 0.0, 1.0, 0.5, 0.25];
        assert_eq!(net.forward(&x), back.forward(&x));
        assert_eq!(back.param_count(), 938);
    }

    /// What `core/tests/text_documents.rs`' table over the four real
    /// documents cannot show: the reader itself, on a two-field schema.
    #[test]
    fn reader_counts_blank_lines_and_quotes_long_lines_briefly() {
        let pair = |r: &mut Reader<'_>| Ok((r.parse::<u32>("a")?, r.floats::<f64>("b", 2)?));
        assert_eq!(document("a 1\nb 2 3\n", pair), Ok((1, vec![2.0, 3.0])));
        let spaced = document("\n  a 1  \r\n\n\tb\t2  3\n\n", pair);
        assert_eq!(spaced, Ok((1, vec![2.0, 3.0])));

        let line_of = |text: &str| document(text, pair).unwrap_err().line;
        assert_eq!(line_of(""), 1);
        assert_eq!(line_of("\n\n"), 3, "the first missing line");
        assert_eq!(line_of("\n\na 1\n\nb 2\n"), 5);
        assert_eq!(line_of("a 1\nb 2 3\n\n\nmore\n"), 5);
        assert_eq!(line_of("ab 1\n"), 1, "a key is a whole word");

        let long = format!("a {}\n", "é".repeat(5_000));
        let err = document(&long, pair).unwrap_err();
        assert!(err.msg.len() < 200, "{}", err.msg.len());
        assert_eq!(err.to_string(), format!("line 1: {}", err.msg));
    }
}
