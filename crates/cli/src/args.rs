//! A small, dependency-free argument parser.
//!
//! Grammar: the first free token is the subcommand; `--key value` pairs
//! become flags; bare `--key` tokens followed by another flag (or
//! nothing) become switches. Every lookup is remembered, so a command
//! that has read all it takes can reject whatever is left
//! ([`Args::finish`]). Good enough for a reproduction CLI and fully
//! tested, instead of pulling an argument-parsing dependency outside the
//! sanctioned list.

use gar_types::{Error, Result};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// Parsed command line.
#[derive(Debug, Default)]
pub struct Args {
    /// The subcommand (first free token), if any.
    pub command: Option<String>,
    flags: HashMap<String, String>,
    switches: Vec<String>,
    positional: Vec<String>,
    /// Every `(is_switch, key)` a command has looked up, given or not.
    asked: RefCell<BTreeSet<(bool, String)>>,
}

impl Args {
    /// Parses tokens (without the program name).
    pub fn parse(tokens: impl IntoIterator<Item = String>) -> Result<Args> {
        let mut out = Args::default();
        let mut tokens = tokens.into_iter().peekable();
        while let Some(tok) = tokens.next() {
            if let Some(key) = tok.strip_prefix("--") {
                if key.is_empty() {
                    return Err(Error::InvalidConfig("stray '--'".into()));
                }
                // `--key=value` or `--key value` or a bare switch.
                if let Some((k, v)) = key.split_once('=') {
                    out.flags.insert(k.to_string(), v.to_string());
                } else if tokens.peek().is_some_and(|t| !t.starts_with("--")) {
                    out.flags
                        .insert(key.to_string(), tokens.next().expect("peeked"));
                } else {
                    out.switches.push(key.to_string());
                }
            } else if out.command.is_none() {
                out.command = Some(tok);
            } else {
                out.positional.push(tok);
            }
        }
        Ok(out)
    }

    /// String value of a flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.asked.borrow_mut().insert((false, key.to_string()));
        self.flags.get(key).map(String::as_str)
    }

    /// Required string flag.
    pub fn require(&self, key: &str) -> Result<&str> {
        self.get(key)
            .ok_or_else(|| Error::InvalidConfig(format!("missing required flag --{key}")))
    }

    /// Parsed value of a flag, if given.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| {
                Error::InvalidConfig(format!("flag --{key} has unparsable value '{v}'"))
            }),
        }
    }

    /// Parsed value of a flag, or `default`.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T> {
        Ok(self.get_parsed(key)?.unwrap_or(default))
    }

    /// Parsed value of a required flag.
    pub fn require_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T> {
        self.require(key)?;
        Ok(self.get_parsed(key)?.expect("required above"))
    }

    /// True when the bare switch was given.
    pub fn has_switch(&self, key: &str) -> bool {
        self.asked.borrow_mut().insert((true, key.to_string()));
        self.switches.iter().any(|s| s == key)
    }

    /// Rejects the first option (in name order) that was given but never
    /// looked up — a typo, or a flag this command does not take — and a
    /// flag given bare or a switch given a value. Commands call this once
    /// they have read everything, before they do any work.
    pub fn finish(&self) -> Result<()> {
        let asked = self.asked.borrow();
        #[expect(
            clippy::disallowed_methods,
            reason = "collected into a BTreeSet just below"
        )]
        let flags = self.flags.keys().map(|k| (false, k.clone()));
        let switches = self.switches.iter().map(|k| (true, k.clone()));
        let given: BTreeSet<(bool, String)> = flags.chain(switches).collect();
        let Some((is_switch, key)) = given.difference(&asked).min_by_key(|(_, key)| key) else {
            return Ok(());
        };
        Err(Error::InvalidConfig(
            if !asked.contains(&(!is_switch, key.clone())) {
                format!("unknown option --{key}")
            } else if *is_switch {
                format!("option --{key} needs a value")
            } else {
                format!("option --{key} takes no value")
            },
        ))
    }

    /// Extra positional arguments after the subcommand.
    #[allow(dead_code)] // exercised by tests; kept for future positional args
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn subcommand_and_flags() {
        let a = parse("mine --data /tmp/x --min-support 0.01 --verbose");
        assert_eq!(a.command.as_deref(), Some("mine"));
        assert_eq!(a.get("data"), Some("/tmp/x"));
        assert_eq!(a.get_or::<f64>("min-support", 0.0).unwrap(), 0.01);
        assert!(a.has_switch("verbose"));
        assert!(!a.has_switch("quiet"));
    }

    #[test]
    fn equals_form() {
        let a = parse("gen --scale=0.05 --seed=7");
        assert_eq!(a.get_or::<f64>("scale", 1.0).unwrap(), 0.05);
        assert_eq!(a.get_or::<u64>("seed", 0).unwrap(), 7);
    }

    #[test]
    fn switch_before_flag() {
        let a = parse("mine --force --out x.gout");
        assert!(a.has_switch("force"));
        assert_eq!(a.get("out"), Some("x.gout"));
    }

    #[test]
    fn trailing_switch() {
        let a = parse("info --data d --json");
        assert!(a.has_switch("json"));
    }

    #[test]
    fn missing_required_flag_errors() {
        let a = parse("mine");
        assert!(a.require("data").is_err());
        assert!(a.require_parsed::<f64>("min-support").is_err());
    }

    #[test]
    fn unparsable_value_errors() {
        let a = parse("mine --min-support banana");
        assert!(a.get_or::<f64>("min-support", 0.1).is_err());
    }

    #[test]
    fn finish_rejects_what_was_never_looked_up() {
        let a = parse("mine --data d --fromat flat --resume");
        assert_eq!(a.get("data"), Some("d"));
        assert!(a.has_switch("resume"));
        assert!(!a.has_switch("verbose")); // asked for, not given: fine
        let err = a.finish().unwrap_err().to_string();
        assert!(err.contains("unknown option --fromat"), "{err}");
        assert_eq!(a.get("fromat"), Some("flat"));
        a.finish().unwrap();
    }

    #[test]
    fn finish_rejects_a_bare_flag_and_a_valued_switch() {
        let a = parse("mine --resume yes");
        assert!(!a.has_switch("resume"));
        let err = a.finish().unwrap_err().to_string();
        assert!(err.contains("--resume takes no value"), "{err}");

        let a = parse("mine --out");
        assert_eq!(a.get("out"), None);
        let err = a.finish().unwrap_err().to_string();
        assert!(err.contains("--out needs a value"), "{err}");
    }

    #[test]
    fn positional_arguments_collected() {
        let a = parse("rules out.gout extra");
        assert_eq!(a.command.as_deref(), Some("rules"));
        assert_eq!(
            a.positional(),
            &["out.gout".to_string(), "extra".to_string()]
        );
    }

    #[test]
    fn stray_double_dash_rejected() {
        assert!(Args::parse(vec!["--".to_string()]).is_err());
    }
}
