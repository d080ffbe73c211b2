//! Run-time parameter files — the paper artifact drives each app with
//! `<app_binary> <config_file>`; this module parses that config format:
//! `key = value` lines, `#` comments, whitespace-insensitive.
//!
//! The getters are the one list of an app's keys: each read records its
//! key and default, so [`Params::check_all_read`] refuses keys no getter
//! asked for, and [`Params::defaults`] prints as a config file.

use crate::{RebalancePolicy, SortPolicy};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Display;
use std::path::Path;

/// Parsed parameter set with typed, defaulted getters.
#[derive(Debug, Clone, Default)]
pub struct Params {
    values: HashMap<String, String>,
    /// Every key a getter has read, with its config-file line, in
    /// first-read order.
    read: RefCell<Vec<(String, String)>>,
}

impl Params {
    /// Parse from text. Later duplicates override earlier ones.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut values = HashMap::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let Some((k, v)) = line.split_once('=') else {
                return Err(format!(
                    "line {}: expected 'key = value', got {raw:?}",
                    lineno + 1
                ));
            };
            let key = k.trim();
            if key.is_empty() {
                return Err(format!("line {}: empty key", lineno + 1));
            }
            values.insert(key.to_string(), v.trim().to_string());
        }
        Ok(Params {
            values,
            ..Params::default()
        })
    }

    /// Load from a file path.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, String> {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.as_ref().display()))?;
        Self::parse(&text)
    }

    pub fn contains(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    /// Note that `key` is read with `default`; return its set value.
    fn read(&self, key: &str, default: impl Display) -> Option<&String> {
        self.read_as(key, format!("{key} = {default}"))
    }

    /// Note that `key` is read, listed in [`Params::defaults`] as
    /// `line`; return its set value.
    fn read_as(&self, key: &str, line: String) -> Option<&String> {
        let mut read = self.read.borrow_mut();
        if !read.iter().any(|(k, _)| k == key) {
            read.push((key.to_string(), line));
        }
        self.values.get(key)
    }

    /// Raw string value.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.read(key, default)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.read(key, default) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("{key} = {v:?}: {e}")),
        }
    }

    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.read(key, default) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("{key} = {v:?}: {e}")),
        }
    }

    /// A float whose default derives from other keys: `derived` when
    /// unset. [`Params::defaults`] lists it as the comment
    /// `# key = formula`, so a printed file re-derives it from the keys
    /// it sets.
    pub fn get_f64_derived(&self, key: &str, derived: f64, formula: &str) -> Result<f64, String> {
        match self.read_as(key, format!("# {key} = {formula}")) {
            None => Ok(derived),
            Some(v) => v.parse().map_err(|e| format!("{key} = {v:?}: {e}")),
        }
    }

    pub fn get_bool(&self, key: &str, default: bool) -> Result<bool, String> {
        match self.read(key, default).map(String::as_str) {
            None => Ok(default),
            Some("true") | Some("1") | Some("yes") => Ok(true),
            Some("false") | Some("0") | Some("no") => Ok(false),
            Some(v) => Err(format!("{key} = {v:?}: expected a boolean")),
        }
    }

    /// Keys that were set (for echo/validation).
    pub fn keys(&self) -> Vec<&str> {
        let mut k: Vec<&str> = self.values.keys().map(String::as_str).collect();
        k.sort_unstable();
        k
    }

    /// The CSR index rebuild cadence from `sort_every` / `sort_dirty`:
    /// every N steps, else once that fraction of particles is dirty,
    /// else never.
    pub fn sort_policy(&self) -> Result<SortPolicy, String> {
        let every = self.get_usize("sort_every", 0)?;
        let dirty = self.get_f64("sort_dirty", 0.0)?;
        Ok(if every > 0 {
            SortPolicy::EveryN(every)
        } else if dirty > 0.0 {
            SortPolicy::DirtyFraction(dirty)
        } else {
            SortPolicy::Never
        })
    }

    /// The thread-binding rebuild cadence from `rebalance_every` /
    /// `rebalance_drift`: every N steps, else once that fraction has
    /// drifted, else once half of it has.
    pub fn rebalance_policy(&self) -> Result<RebalancePolicy, String> {
        let every = self.get_usize("rebalance_every", 0)?;
        let drift = self.get_f64("rebalance_drift", 0.0)?;
        Ok(if every > 0 {
            RebalancePolicy::EveryN(every)
        } else if drift > 0.0 {
            RebalancePolicy::DriftFraction(drift)
        } else {
            RebalancePolicy::DriftFraction(0.5)
        })
    }

    /// A line for every key read so far, in first-read order: `key =
    /// default`, or `# key = formula` for a derived default. Together
    /// they are a config file that sets each default.
    pub fn defaults(&self) -> Vec<String> {
        self.read
            .borrow()
            .iter()
            .map(|(_, line)| line.clone())
            .collect()
    }

    /// Reject a set key that no getter has read — catches config typos
    /// early, like the artifact's apps do. Call it after the last read.
    pub fn check_all_read(&self) -> Result<(), String> {
        let read = self.read.borrow();
        let known: Vec<&str> = read.iter().map(|(k, _)| k.as_str()).collect();
        match self.keys().into_iter().find(|k| !known.contains(k)) {
            None => Ok(()),
            Some(k) => Err(format!(
                "unknown parameter '{k}' (known: {})",
                known.join(", ")
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_file() {
        let p =
            Params::parse("nx = 10\n# comment\n dt=0.5  # trailing\n\nname = duct run\n").unwrap();
        assert_eq!(p.get_usize("nx", 0).unwrap(), 10);
        assert_eq!(p.get_f64("dt", 0.0).unwrap(), 0.5);
        assert_eq!(p.get_str("name", ""), "duct run");
        assert!(p.contains("nx"));
        assert!(!p.contains("ny"));
    }

    #[test]
    fn defaults_apply() {
        let p = Params::parse("").unwrap();
        assert_eq!(p.get_usize("nx", 7).unwrap(), 7);
        assert_eq!(p.get_f64("dt", 1.5).unwrap(), 1.5);
        assert!(p.get_bool("flag", true).unwrap());
    }

    #[test]
    fn bool_forms() {
        let p = Params::parse("a = true\nb = 0\nc = yes\n").unwrap();
        assert!(p.get_bool("a", false).unwrap());
        assert!(!p.get_bool("b", true).unwrap());
        assert!(p.get_bool("c", false).unwrap());
        let bad = Params::parse("d = maybe").unwrap();
        assert!(bad.get_bool("d", false).is_err());
    }

    #[test]
    fn rejects_malformed() {
        assert!(Params::parse("just a line").is_err());
        assert!(Params::parse("= 3").is_err());
        let p = Params::parse("nx = ten").unwrap();
        assert!(p.get_usize("nx", 0).is_err());
    }

    #[test]
    fn later_keys_override() {
        let p = Params::parse("nx = 1\nnx = 2\n").unwrap();
        assert_eq!(p.get_usize("nx", 0).unwrap(), 2);
    }

    #[test]
    fn shared_policy_keys() {
        let none = Params::parse("").unwrap();
        assert_eq!(none.sort_policy(), Ok(SortPolicy::Never));
        assert_eq!(
            none.rebalance_policy(),
            Ok(RebalancePolicy::DriftFraction(0.5))
        );
        let p =
            Params::parse("sort_every = 20\nsort_dirty = 0.3\nrebalance_drift = 0.25\n").unwrap();
        assert_eq!(p.sort_policy(), Ok(SortPolicy::EveryN(20)));
        assert_eq!(
            p.rebalance_policy(),
            Ok(RebalancePolicy::DriftFraction(0.25))
        );
        let p = Params::parse("sort_dirty = 0.3\nrebalance_every = 7\n").unwrap();
        assert_eq!(p.sort_policy(), Ok(SortPolicy::DirtyFraction(0.3)));
        assert_eq!(p.rebalance_policy(), Ok(RebalancePolicy::EveryN(7)));
        let bad = Params::parse("sort_every = often\n").unwrap();
        assert!(bad.sort_policy().unwrap_err().contains("sort_every"));
    }

    #[test]
    fn unknown_key_detection() {
        let p = Params::parse("nx = 1\ntypo = 2\n").unwrap();
        p.get_usize("nx", 0).unwrap();
        p.get_usize("ny", 0).unwrap();
        assert_eq!(
            p.check_all_read().unwrap_err(),
            "unknown parameter 'typo' (known: nx, ny)"
        );
        p.get_usize("typo", 0).unwrap();
        assert!(p.check_all_read().is_ok());
        assert_eq!(p.keys(), vec!["nx", "typo"]);
    }

    #[test]
    fn derived_defaults_list_as_comments() {
        let p = Params::parse("dt = 0.25\n").unwrap();
        assert_eq!(p.get_f64_derived("dt", 0.5, "1 / nx").unwrap(), 0.25);
        assert!(p.check_all_read().is_ok(), "a derived key is still a key");
        assert_eq!(p.defaults(), vec!["# dt = 1 / nx".to_string()]);
        let unset = Params::default();
        assert_eq!(unset.get_f64_derived("dt", 0.5, "1 / nx").unwrap(), 0.5);
    }

    #[test]
    fn reads_record_each_key_once_with_its_default() {
        let p = Params::parse("dt = 0.25\n").unwrap();
        p.get_f64("dt", 0.5).unwrap();
        p.get_str("mode", "auto");
        p.get_bool("flag", true).unwrap();
        p.get_f64("dt", 9.0).unwrap();
        p.sort_policy().unwrap();
        let text: String = p.defaults().iter().map(|l| format!("{l}\n")).collect();
        assert_eq!(
            text,
            "dt = 0.5\nmode = auto\nflag = true\nsort_every = 0\nsort_dirty = 0\n"
        );
        // The listing is itself a config file that sets every default.
        let back = Params::parse(&text).unwrap();
        assert_eq!(back.get_f64("dt", 1.0).unwrap(), 0.5);
        assert_eq!(back.get_str("mode", ""), "auto");
    }
}
