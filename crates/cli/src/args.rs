//! Minimal flag parsing (no external dependencies).

use std::collections::HashMap;

/// Parsed positional arguments and `--key value` / `--flag` options.
#[derive(Debug, Default)]
pub struct Args {
    pub positional: Vec<String>,
    pub options: HashMap<String, String>,
    pub flags: Vec<String>,
}

/// Splits `argv` into positionals, `--key value` options (when the next
/// token is not itself a flag) and bare `--flag`s.
pub fn parse(argv: &[String]) -> Args {
    let mut out = Args::default();
    let mut i = 0;
    while i < argv.len() {
        let tok = &argv[i];
        if let Some(key) = tok.strip_prefix("--") {
            if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                out.options.insert(key.to_string(), argv[i + 1].clone());
                i += 2;
            } else {
                out.flags.push(key.to_string());
                i += 1;
            }
        } else {
            out.positional.push(tok.clone());
            i += 1;
        }
    }
    out
}

impl Args {
    /// Option value, or an error naming the missing key.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.options
            .get(key)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// Option value parsed as `T`, with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(s) => s.parse().map_err(|_| format!("bad value for --{key}: {s}")),
        }
    }

    /// Whether a bare flag is present.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Rejects every `--key` that is neither one of `options` (which take
    /// a value) nor one of `flags` (which take none), a value-taking
    /// option given with no value (last on the line, or followed by
    /// another flag), and a bare flag given a value.
    pub fn check(&self, options: &[&str], flags: &[&str]) -> Result<(), String> {
        let mut keys: Vec<&String> = self.options.keys().collect();
        keys.sort();
        for key in keys {
            if flags.contains(&key.as_str()) {
                return Err(format!(
                    "--{key} takes no value (got {})",
                    self.options[key]
                ));
            }
            if !options.contains(&key.as_str()) {
                return Err(format!("unknown option --{key}"));
            }
        }
        for flag in &self.flags {
            if options.contains(&flag.as_str()) {
                return Err(format!("--{flag} needs a value"));
            }
            if !flags.contains(&flag.as_str()) {
                return Err(format!("unknown option --{flag}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn positional_and_options() {
        let a = parse(&argv(&["cc", "g.mtx", "--algo", "lacc", "--flat"]));
        assert_eq!(a.positional, vec!["cc", "g.mtx"]);
        assert_eq!(a.require("algo").unwrap(), "lacc");
        assert!(a.has_flag("flat"));
    }

    #[test]
    fn get_or_parses_with_default() {
        let a = parse(&argv(&["--ranks", "16"]));
        assert_eq!(a.get_or("ranks", 4usize).unwrap(), 16);
        assert_eq!(a.get_or("seed", 7u64).unwrap(), 7);
        assert!(a.get_or::<usize>("ranks", 0).is_ok());
        let bad = parse(&argv(&["--ranks", "xyz"]));
        assert!(bad.get_or::<usize>("ranks", 0).is_err());
    }

    #[test]
    fn trailing_flag() {
        let a = parse(&argv(&["stats", "--quiet"]));
        assert!(a.has_flag("quiet"));
        assert!(a.require("quiet").is_err());
    }

    #[test]
    fn check_rejects_unknown_and_valueless_options() {
        let a = parse(&argv(&["cc", "g.mtx", "--algo", "bfs", "--flat"]));
        assert!(a.check(&["algo"], &["flat"]).is_ok());
        let err = a.check(&["algo"], &[]).unwrap_err();
        assert_eq!(err, "unknown option --flat");
        let err = a.check(&["out"], &["flat"]).unwrap_err();
        assert_eq!(err, "unknown option --algo");
        // A value-taking option last on the line has no value.
        let a = parse(&argv(&["cc", "g.mtx", "--out"]));
        assert_eq!(a.check(&["out"], &[]).unwrap_err(), "--out needs a value");
        // ... and so does one followed directly by another flag.
        let a = parse(&argv(&["cc", "--ranks", "--flat"]));
        assert_eq!(
            a.check(&["ranks"], &["flat"]).unwrap_err(),
            "--ranks needs a value"
        );
        // A bare flag followed by a positional swallowed it as a value.
        let a = parse(&argv(&["cc-dist", "--flat", "g.mtx"]));
        assert_eq!(
            a.check(&[], &["flat"]).unwrap_err(),
            "--flat takes no value (got g.mtx)"
        );
    }
}
