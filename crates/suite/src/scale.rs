//! Workload scales: laptop-sized stand-ins for the paper's inputs.
//!
//! Lives in `rpb-suite` (rather than the bench harness) so every consumer
//! of the generated inputs — the figure harness, the perf gate, and the
//! resident `rpb-serve` service — shares one definition of "gate scale",
//! "small", etc. `rpb-bench` re-exports it unchanged.

/// Input sizes for one harness run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Bytes of wiki-like text (`bw`, `lrs`, `sa`).
    pub text_len: usize,
    /// Elements of the exponential sequence (`sort`, `dedup`, `hist`,
    /// `isort`).
    pub seq_len: usize,
    /// Vertex scale of the generated graphs.
    pub graph_n: usize,
    /// Kuzmin points (`dr`).
    pub points_n: usize,
}

impl Scale {
    /// Perf-gate scale: the pinned smoke matrix `rpb gate` records and
    /// checks against. Deliberately tiny — the gate's hard metrics are
    /// deterministic event counters, which are just as sensitive at small
    /// N, and CI pays for every case twice (counter pass + wall pass).
    /// Changing these numbers invalidates every committed baseline
    /// (`gate check` reports the mismatch as a hard violation).
    pub fn gate() -> Scale {
        Scale {
            text_len: 4_000,
            seq_len: 20_000,
            graph_n: 800,
            points_n: 300,
        }
    }

    /// Smoke-test scale (sub-second totals; `--scale small`).
    pub fn small() -> Scale {
        Scale {
            text_len: 50_000,
            seq_len: 200_000,
            graph_n: 10_000,
            points_n: 2_000,
        }
    }

    /// Default harness scale.
    pub fn medium() -> Scale {
        Scale {
            text_len: 400_000,
            seq_len: 2_000_000,
            graph_n: 60_000,
            points_n: 20_000,
        }
    }

    /// Patience-required scale.
    pub fn large() -> Scale {
        Scale {
            text_len: 2_000_000,
            seq_len: 10_000_000,
            graph_n: 250_000,
            points_n: 80_000,
        }
    }

    /// Parses `gate|small|medium|large`.
    pub fn parse(s: &str) -> Result<Scale, String> {
        match s {
            "gate" => Ok(Scale::gate()),
            "small" => Ok(Scale::small()),
            "medium" => Ok(Scale::medium()),
            "large" => Ok(Scale::large()),
            other => Err(format!("unknown scale {other} (gate|small|medium|large)")),
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::medium()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trip() {
        assert_eq!(Scale::parse("gate"), Ok(Scale::gate()));
        assert_eq!(Scale::parse("small"), Ok(Scale::small()));
        assert_eq!(Scale::parse("medium"), Ok(Scale::medium()));
        assert_eq!(Scale::parse("large"), Ok(Scale::large()));
        let err = Scale::parse("huge").unwrap_err();
        assert!(err.contains("gate|small|medium|large"), "{err}");
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::gate().text_len < Scale::small().text_len);
        assert!(Scale::small().text_len < Scale::medium().text_len);
        assert!(Scale::medium().graph_n < Scale::large().graph_n);
    }
}
