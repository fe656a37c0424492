//! Strict command-line flags for the bench binaries, which take `--flag
//! value` pairs: `fig1`, `sweep_shards`, `compare_reports`, `http_load`,
//! and the paper-figure binaries that take only `--scale`
//! ([`scale_from_env`]).
//!
//! Every token must be a known flag: a valued flag followed by its value
//! (one that does not itself start with `--`), or a switch on its own. An
//! unknown flag, a valued flag without a value, a flag given twice, a value
//! that does not parse or a list with an item that does not parse is
//! refused, and [`Flags::from_env`]'s binaries exit 2 naming it — as
//! `ctk-serve` does — instead of measuring the defaults in its place.

use crate::Scale;
use std::str::FromStr;

/// The `--scale` of a binary that takes no other flag, `laptop` when not
/// given; exits 2 on a bad value or any other flag.
pub fn scale_from_env(program: &'static str) -> Scale {
    let spec = Spec { program, valued: &["--scale"], switches: &[] };
    Flags::from_env(spec).parsed_or_exit("--scale").unwrap_or(Scale::Laptop)
}

/// The flags one binary accepts.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The binary's name, the prefix of its messages.
    pub program: &'static str,
    /// Flags followed by a value.
    pub valued: &'static [&'static str],
    /// Flags that stand alone.
    pub switches: &'static [&'static str],
}

/// Parsed flags: each given flag with its value (`None` for a switch).
#[derive(Debug)]
pub struct Flags {
    spec: Spec,
    given: Vec<(&'static str, Option<String>)>,
}

impl Spec {
    /// Parse `args` (the program name excluded).
    pub fn parse(self, args: impl IntoIterator<Item = String>) -> Result<Flags, String> {
        let mut given: Vec<(&'static str, Option<String>)> = Vec::new();
        let mut args = args.into_iter();
        while let Some(token) = args.next() {
            let known = |flags: &[&'static str]| flags.iter().copied().find(|&f| f == token);
            let entry = if let Some(flag) = known(self.valued) {
                match args.next() {
                    Some(value) if !value.starts_with("--") => (flag, Some(value)),
                    _ => return Err(format!("{flag} needs a value")),
                }
            } else if let Some(flag) = known(self.switches) {
                (flag, None)
            } else {
                return Err(format!("unknown flag {token:?}"));
            };
            if given.iter().any(|(flag, _)| *flag == entry.0) {
                return Err(format!("{} given twice", entry.0));
            }
            given.push(entry);
        }
        Ok(Flags { spec: self, given })
    }

    /// Print `message` and the accepted flags, and exit 2.
    pub fn usage_exit(&self, message: &str) -> ! {
        eprintln!("{}: {message}", self.program);
        let switches = self.switches.iter().map(|s| format!("[{s}]"));
        let valued = self.valued.iter().map(|f| format!("[{f} V]"));
        eprintln!(
            "{}: flags: {}",
            self.program,
            valued.chain(switches).collect::<Vec<_>>().join(" ")
        );
        std::process::exit(2);
    }
}

impl Flags {
    /// The process's flags, or exit 2 naming the one refused.
    pub fn from_env(spec: Spec) -> Flags {
        spec.parse(std::env::args().skip(1)).unwrap_or_else(|e| spec.usage_exit(&e))
    }

    /// The raw value of a valued flag, if given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        debug_assert!(self.spec.valued.contains(&flag), "{flag} is not a valued flag");
        self.given.iter().find(|(f, _)| *f == flag).and_then(|(_, v)| v.as_deref())
    }

    /// True when the switch was given.
    pub fn switch(&self, flag: &str) -> bool {
        debug_assert!(self.spec.switches.contains(&flag), "{flag} is not a switch");
        self.given.iter().any(|(f, _)| *f == flag)
    }

    /// The value of `flag` parsed, if given.
    pub fn parsed<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|raw| raw.parse().map_err(|_| format!("bad value {raw:?} for {flag}")))
            .transpose()
    }

    /// The comma-separated items of `flag` parsed, if given; every item
    /// must parse.
    pub fn list<T: FromStr>(&self, flag: &str) -> Result<Option<Vec<T>>, String> {
        self.value(flag)
            .map(|raw| {
                raw.split(',')
                    .map(|p| p.trim().parse())
                    .collect::<Result<Vec<T>, _>>()
                    .map_err(|_| format!("bad value {raw:?} for {flag}"))
            })
            .transpose()
    }

    /// [`Flags::parsed`], exiting 2 on a bad value.
    pub fn parsed_or_exit<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.parsed(flag).unwrap_or_else(|e| self.spec.usage_exit(&e))
    }

    /// [`Flags::list`], exiting 2 on a bad value.
    pub fn list_or_exit<T: FromStr>(&self, flag: &str) -> Option<Vec<T>> {
        self.list(flag).unwrap_or_else(|e| self.spec.usage_exit(&e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec =
        Spec { program: "t", valued: &["--queries", "--scale"], switches: &["--absolute"] };

    fn parse(args: &[&str]) -> Result<Flags, String> {
        SPEC.parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn known_flags_parse_with_their_values() {
        let flags = parse(&["--queries", "2000,10000", "--absolute"]).unwrap();
        assert_eq!(flags.list::<usize>("--queries").unwrap(), Some(vec![2000, 10000]));
        assert_eq!(flags.value("--scale"), None);
        assert!(flags.switch("--absolute"));
        assert_eq!(flags.parsed::<usize>("--scale").unwrap(), None);
        assert!(!parse(&[]).unwrap().switch("--absolute"));
    }

    #[test]
    fn every_malformed_command_line_is_refused_naming_the_flag() {
        for (args, error) in [
            (&["--bogus-flag"][..], "unknown flag \"--bogus-flag\""),
            (&["--queries"], "--queries needs a value"),
            (&["--queries", "--absolute"], "--queries needs a value"),
            (&["--absolute", "--absolute"], "--absolute given twice"),
            (&["stray"], "unknown flag \"stray\""),
        ] {
            assert_eq!(parse(args).unwrap_err(), error, "{args:?}");
        }
        let flags = parse(&["--queries", "2000,x", "--scale", "big"]).unwrap();
        assert_eq!(
            flags.list::<usize>("--queries").unwrap_err(),
            "bad value \"2000,x\" for --queries"
        );
        assert_eq!(flags.parsed::<usize>("--scale").unwrap_err(), "bad value \"big\" for --scale");
        let empty = parse(&["--queries", ""]).unwrap();
        assert!(empty.list::<usize>("--queries").is_err(), "an empty list is refused");
    }
}
