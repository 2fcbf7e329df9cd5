//! The one run-time axis selector.
//!
//! Every run-time axis of the suite — scheduling backend, channel
//! backend, kernel implementation — is a small `Copy` enum whose values
//! are named on the command line, listed in usage text, and (for two of
//! them) defaulted per process. [`Selector`] owns the label ↔ parse
//! direction, the alias table, the `valid: …` error text and comma-list
//! parsing; [`Slot`] owns the programmatic-override > environment
//! variable > [`Default`] resolution with its warn-once. An axis is its
//! enum plus one [`selector!`](crate::selector) table of spellings.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A run-time axis: an enum whose variants have stable CLI spellings.
pub trait Selector: Copy + PartialEq + Default + 'static {
    /// What a value is called in the parse error (`"backend"`, …).
    const NOUN: &'static str;

    /// Every variant, in CLI listing order.
    const ALL: &'static [Self];

    /// The spellings `parse` accepts for this variant: the stable label
    /// first, aliases after. All lowercase.
    fn names(self) -> &'static [&'static str];

    /// Stable label for CLI/report output.
    fn label(self) -> &'static str {
        self.names()[0]
    }

    /// The labels of [`Selector::ALL`] joined by `sep` (usage and error
    /// text).
    fn labels(sep: &str) -> String {
        let labels: Vec<&str> = Self::ALL.iter().map(|v| v.label()).collect();
        labels.join(sep)
    }

    /// Parses one label or alias, ignoring case and surrounding
    /// whitespace.
    fn parse(s: &str) -> Result<Self, ParseSelectorError> {
        let wanted = s.trim().to_ascii_lowercase();
        Self::ALL
            .iter()
            .copied()
            .find(|v| v.names().contains(&wanted.as_str()))
            .ok_or_else(|| {
                let (noun, valid) = (Self::NOUN, Self::labels(", "));
                ParseSelectorError(format!("unknown {noun} `{wanted}` (valid: {valid})"))
            })
    }

    /// Parses a comma list, keeping the first occurrence of each variant
    /// (an axis swept twice over one value would only repeat its cells).
    fn parse_list(list: &str) -> Result<Vec<Self>, ParseSelectorError> {
        let mut out = Vec::new();
        for item in list.split(',') {
            let v = Self::parse(item)?;
            if !out.contains(&v) {
                out.push(v);
            }
        }
        Ok(out)
    }
}

/// Declares an axis from its table: the noun of its parse error, its
/// `ALL_*` listing, and per variant the label followed by its aliases.
/// Besides [`Selector`] this gives the enum the inherent `label()` and
/// the `FromStr` its callers use without importing the trait (a blanket
/// `FromStr` impl is not expressible).
#[macro_export]
macro_rules! selector {
    ($axis:ident: $noun:literal, $all:expr; $($variant:ident = $names:expr),+ $(,)?) => {
        impl $crate::select::Selector for $axis {
            const NOUN: &'static str = $noun;
            const ALL: &'static [Self] = &$all;

            fn names(self) -> &'static [&'static str] {
                match self {
                    $($axis::$variant => &$names,)+
                }
            }
        }

        impl $axis {
            /// Stable label for CLI/report output.
            pub fn label(self) -> &'static str {
                $crate::select::Selector::label(self)
            }
        }

        impl std::str::FromStr for $axis {
            type Err = $crate::select::ParseSelectorError;

            fn from_str(s: &str) -> Result<Self, Self::Err> {
                $crate::select::Selector::parse(s)
            }
        }
    };
}

/// A spelling no variant of the axis accepts; displays as
/// ``unknown <noun> `<input>` (valid: <labels>)``.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseSelectorError(String);

impl std::fmt::Display for ParseSelectorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseSelectorError {}

/// A process-wide selection: programmatic override ([`Slot::set`]) >
/// environment variable > `S::default()`. Reading it costs one relaxed
/// atomic load plus, without an override, one `OnceLock` read.
pub struct Slot<S> {
    env: &'static str,
    /// 0 = no override, `i + 1` = `S::ALL[i]`.
    forced: AtomicU8,
    from_env: OnceLock<S>,
}

impl<S: Selector> Slot<S> {
    /// A slot whose unforced value comes from the environment variable
    /// `env`.
    pub const fn new(env: &'static str) -> Slot<S> {
        Slot {
            env,
            forced: AtomicU8::new(0),
            from_env: OnceLock::new(),
        }
    }

    /// Sets the override; `None` clears it back to environment-or-default
    /// resolution.
    pub fn set(&self, value: Option<S>) {
        let slot = value.map_or(0, |v| {
            let i = S::ALL.iter().position(|&a| a == v);
            i.expect("Selector::ALL lists every variant") + 1
        });
        self.forced.store(slot as u8, Ordering::Relaxed);
    }

    /// The current selection. An unparsable environment value warns once
    /// and falls back to the default (never aborts: the variable may be
    /// set for a child tool, not us).
    pub fn get(&self) -> S {
        match self.forced.load(Ordering::Relaxed) {
            0 => {}
            slot => return S::ALL[slot as usize - 1],
        }
        let var = self.env;
        *self.from_env.get_or_init(|| match std::env::var(var) {
            Err(_) => S::default(),
            Ok(v) => S::parse(&v).unwrap_or_else(|e| {
                eprintln!("warning: ignoring {var}: {e}");
                S::default()
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    enum Fruit {
        #[default]
        Apple,
        Pear,
    }

    crate::selector! {
        Fruit: "fruit", [Fruit::Apple, Fruit::Pear];
        Apple = ["apple"],
        Pear = ["pear", "pyrus"],
    }

    #[test]
    fn spellings_parse_and_lists_keep_first_occurrences() {
        assert_eq!(
            Fruit::parse_list("pear, APPLE,pyrus,apple"),
            Ok(vec![Fruit::Pear, Fruit::Apple])
        );
        let err = Fruit::parse_list("apple,plum").unwrap_err();
        assert_eq!(err.to_string(), "unknown fruit `plum` (valid: apple, pear)");
        // An empty item is not a variant either.
        assert!(Fruit::parse_list("apple,").is_err());
        // The label is the first spelling, and it parses back.
        assert_eq!("pear".parse(), Ok(Fruit::Pear));
        assert_eq!(Fruit::Pear.label(), "pear");
    }

    #[test]
    fn slot_resolves_override_then_environment_then_default() {
        // A name no other test or tool sets; written before the first read.
        std::env::set_var("RPB_TEST_SELECT_FRUIT", " Pyrus ");
        static SLOT: Slot<Fruit> = Slot::new("RPB_TEST_SELECT_FRUIT");
        assert_eq!(SLOT.get(), Fruit::Pear);
        std::env::set_var("RPB_TEST_SELECT_FRUIT", "apple");
        assert_eq!(SLOT.get(), Fruit::Pear, "resolved once per process");
        SLOT.set(Some(Fruit::Apple));
        assert_eq!(SLOT.get(), Fruit::Apple, "the override wins");
        SLOT.set(None);
        assert_eq!(SLOT.get(), Fruit::Pear);
    }
}
