//! The one argument parser: `--key value` pairs, bare `--flag`s and
//! positionals, checked against the flag lists each subcommand declares.
//! The same lists generate [`usage`], so help and parser cannot drift.

use std::fmt::Write as _;

use schedinspector::Error;

/// `"name OPERAND   what it does"` — a bare flag has an empty operand.
pub type Flag = &'static str;

/// A named flag list: what one builder reads, declared by every command
/// that calls it.
pub type Group = (&'static str, &'static [Flag]);

/// One subcommand: what `main` dispatches on and what `usage` prints.
pub struct Command {
    pub name: &'static str,
    /// Positional arguments (if any) and a one-line description.
    pub about: &'static str,
    /// The flag lists of the builders it calls (`world::FLAGS`, …).
    pub shared: &'static [Group],
    /// Every other flag the command reads; anything else is rejected.
    pub flags: &'static [Flag],
    pub run: fn(&Args) -> Result<(), Error>,
}

impl Command {
    fn all_flags(&self) -> impl Iterator<Item = &Flag> {
        let shared = self.shared.iter().flat_map(|(_, flags)| *flags);
        shared.chain(self.flags)
    }

    /// `(name, "OPERAND   what it does")` of the flag named `key`.
    fn flag(&self, key: &str) -> Option<(&str, &str)> {
        let split = |f: &Flag| f.split_once(' ').filter(|(name, _)| *name == key);
        self.all_flags().find_map(split)
    }
}

pub struct Args {
    cmd: &'static Command,
    map: Vec<(String, String)>,
    pub positional: Vec<String>,
}

fn usage_error<T>(msg: String) -> Result<T, Error> {
    Err(Error::Usage(msg))
}

impl Args {
    pub fn parse(cmd: &'static Command, argv: &[String]) -> Result<Args, Error> {
        let (mut map, mut positional) = (Vec::new(), Vec::new());
        let mut it = argv.iter().peekable();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                positional.push(a.clone());
                continue;
            };
            if cmd.flag(key).is_none() {
                return usage_error(format!("{}: unknown option --{key}", cmd.name));
            }
            // Bare flags (`--resume`) must not swallow the next option as
            // their value.
            let value = it.next_if(|v| !v.starts_with("--"));
            map.push((key.to_string(), value.cloned().unwrap_or_default()));
        }
        let args = Args {
            cmd,
            map,
            positional,
        };
        Ok(args)
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        // A flag the command reads but does not declare could never be
        // given (the parser rejects it) and would be missing from `usage`.
        debug_assert!(self.cmd.flag(key).is_some(), "undeclared flag --{key}");
        let found = self.map.iter().find(|(k, _)| k == key);
        found.map(|(_, v)| v.as_str())
    }

    /// `--key`'s value, or a usage error naming the flag and its operand.
    pub fn required(&self, key: &str) -> Result<&str, Error> {
        if let Some(v) = self.get(key) {
            return Ok(v);
        }
        let (cmd, help) = (
            self.cmd.name,
            self.cmd.flag(key).map_or("", |(_, help)| help),
        );
        let operand = help.split(' ').next().unwrap_or_default();
        usage_error(format!("{cmd}: --{key} {operand} is required"))
    }

    /// `--key`'s value through `parse`, if the flag is present. A value it
    /// turns down is a usage error saying what was `expected`, never a
    /// silent fallback to the default.
    pub fn choice<T>(
        &self,
        key: &str,
        parse: impl FnOnce(&str) -> Option<T>,
        expected: &str,
    ) -> Result<Option<T>, Error> {
        match self.get(key).map(|v| (v, parse(v))) {
            None => Ok(None),
            Some((_, Some(x))) => Ok(Some(x)),
            Some((v, None)) => usage_error(format!("--{key} must be {expected}, got {v:?}")),
        }
    }

    pub fn opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, Error> {
        self.choice(key, |v| v.parse().ok(), "a number")
    }

    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, Error> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    /// The first positional, which must be one of `names` (`"a|b|c"`).
    pub fn subcommand(&self, names: &str) -> Result<&str, Error> {
        let cmd = self.cmd.name;
        match self.positional.first() {
            None => usage_error(format!("{cmd}: a subcommand ({names}) is required")),
            Some(sub) if names.split('|').any(|n| n == sub) => Ok(sub),
            Some(other) => usage_error(format!("{cmd}: unknown subcommand {other:?} ({names})")),
        }
    }
}

/// The help text, generated from the flag lists the parser checks: each
/// shared group once, then every command (`+group` for the groups it
/// takes) with the flags of its own.
pub fn usage(commands: &[&Command]) -> String {
    let names: Vec<&str> = commands.iter().map(|c| c.name).collect();
    let mut out = format!("usage: schedinspector <{}> [options]\n", names.join("|"));
    let mut list = |title: String, flags: &[Flag]| {
        let _ = writeln!(out, "\n{title}");
        for flag in flags {
            let _ = writeln!(out, "    --{flag}");
        }
    };
    let mut seen = Vec::new();
    for (group, flags) in commands.iter().flat_map(|c| c.shared) {
        if !seen.contains(group) {
            seen.push(*group);
            list(format!("{group} options:"), flags);
        }
    }
    for c in commands {
        let shared: String = c.shared.iter().map(|(g, _)| format!(" +{g}")).collect();
        list(format!("{}{shared}  {}", c.name, c.about), c.flags);
    }
    out
}
