//! Plain-text persistence for networks.
//!
//! The allowed dependency set contains no serialization format crate, so
//! trained models are persisted in a simple line-oriented text format
//! that is diff-friendly and stable across platforms:
//!
//! ```text
//! tinynn-mlp v1
//! layers <n>
//! layer <fan_in> <fan_out> <activation>
//! w <fan_in*fan_out floats>
//! b <fan_out floats>
//! ...
//! ```

use crate::activation::Activation;
use crate::layer::Dense;
use crate::mlp::Mlp;

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
        other => Err(format!("unknown activation {other:?}")),
    }
}

pub(crate) fn write_floats(out: &mut String, prefix: &str, xs: &[f32]) {
    out.push_str(prefix);
    for x in xs {
        out.push(' ');
        // `{:e}` keeps full f32 precision compactly.
        out.push_str(&format!("{x:e}"));
    }
    out.push('\n');
}

pub(crate) fn parse_floats(line: &str, prefix: &str, expect: usize) -> Result<Vec<f32>, String> {
    let rest = line
        .strip_prefix(prefix)
        .ok_or_else(|| format!("expected line starting with {prefix:?}, got {line:?}"))?;
    let vals: Result<Vec<f32>, _> = rest.split_whitespace().map(str::parse).collect();
    let vals = vals.map_err(|e| format!("bad float in {prefix:?} line: {e}"))?;
    if vals.len() != expect {
        return Err(format!(
            "{prefix:?} line: expected {expect} floats, got {}",
            vals.len()
        ));
    }
    Ok(vals)
}

impl Mlp {
    /// Serialize to the text format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("tinynn-mlp v1\n");
        out.push_str(&format!("layers {}\n", self.layers().len()));
        for l in self.layers() {
            out.push_str(&format!(
                "layer {} {} {}\n",
                l.fan_in,
                l.fan_out,
                act_name(l.act)
            ));
            write_floats(&mut out, "w", &l.w);
            write_floats(&mut out, "b", &l.b);
        }
        out
    }

    /// Parse from the text format.
    pub fn from_text(text: &str) -> Result<Mlp, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty model file")?;
        if header.trim() != "tinynn-mlp v1" {
            return Err(format!("bad header {header:?}"));
        }
        let n: usize = lines
            .next()
            .and_then(|l| l.strip_prefix("layers "))
            .ok_or("missing layers line")?
            .trim()
            .parse()
            .map_err(|e| format!("bad layer count: {e}"))?;
        let mut layers = Vec::with_capacity(n);
        for _ in 0..n {
            let spec = lines.next().ok_or("missing layer line")?;
            let mut parts = spec
                .strip_prefix("layer ")
                .ok_or_else(|| format!("expected layer line, got {spec:?}"))?
                .split_whitespace();
            let fan_in: usize = parts
                .next()
                .ok_or("missing fan_in")?
                .parse()
                .map_err(|e| format!("{e}"))?;
            let fan_out: usize = parts
                .next()
                .ok_or("missing fan_out")?
                .parse()
                .map_err(|e| format!("{e}"))?;
            let act = act_parse(parts.next().ok_or("missing activation")?)?;
            let w = parse_floats(lines.next().ok_or("missing w line")?, "w", fan_in * fan_out)?;
            let b = parse_floats(lines.next().ok_or("missing b line")?, "b", fan_out)?;
            layers.push(Dense {
                fan_in,
                fan_out,
                w,
                b,
                act,
                gw: vec![0.0; fan_in * fan_out],
                gb: vec![0.0; fan_out],
            });
        }
        Mlp::from_layers(layers)
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

    #[test]
    fn rejects_corrupted_input() {
        assert!(Mlp::from_text("").is_err());
        assert!(Mlp::from_text("wrong header\nlayers 0\n").is_err());
        let mut rng = StdRng::seed_from_u64(0);
        let net = Mlp::new(&[2, 2], Activation::Tanh, Activation::Identity, &mut rng);
        let text = net.to_text().replace("b ", "q ");
        assert!(Mlp::from_text(&text).is_err());
    }

    #[test]
    fn rejects_wrong_float_count() {
        let text = "tinynn-mlp v1\nlayers 1\nlayer 2 1 tanh\nw 1.0 2.0\nb 0.0\n";
        // w needs 2 floats for 2x1 — this is valid; now corrupt it.
        assert!(Mlp::from_text(text).is_ok());
        let bad = "tinynn-mlp v1\nlayers 1\nlayer 2 1 tanh\nw 1.0\nb 0.0\n";
        assert!(Mlp::from_text(bad).is_err());
    }
}
