//! Command-line parsing: `--key value` pairs after a subcommand.

use std::collections::BTreeMap;

/// Parsed `--key value` arguments and bare positionals.
#[derive(Debug, Default)]
pub struct Args {
    flags: BTreeMap<String, String>,
    pub positional: Vec<String>,
}

/// Flags that take no value.
const SWITCHES: [&str; 1] = ["corrupt-expected"];

impl Args {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(key) if SWITCHES.contains(&key) => {
                    out.flags.insert(key.to_string(), "1".to_string());
                }
                Some(key) => {
                    let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    out.flags.insert(key.to_string(), value);
                }
                None => out.positional.push(a),
            }
        }
        Ok(out)
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    pub fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    pub fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_switches_and_positionals() {
        let a = args(&["a.json", "--seed", "7", "--corrupt-expected", "b.json"]).unwrap();
        assert_eq!(a.positional, ["a.json", "b.json"]);
        assert_eq!(a.parsed("seed", 1u64), Ok(7));
        assert_eq!(a.parsed("seconds", 10.0f64), Ok(10.0));
        assert!(a.has("corrupt-expected"));
        assert!(a.required("workload").is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seed", "x"])
            .unwrap()
            .parsed("seed", 1u64)
            .is_err());
    }
}
