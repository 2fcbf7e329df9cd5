//! Round-trip property test for the `rpb-baseline-v3` schema: any
//! recordable baseline serializes to JSON text, parses back, and compares
//! equal.
//!
//! Pure data-model test — no workloads, no counters read.

// Hundreds of cases are too slow for the interpreter; the deterministic
// unit tests in `gate` cover the same code paths under Miri.
#![cfg(not(miri))]

use rpb_bench::gate::{compare, Baseline, GateCase};
use rpb_bench::Scale;
use rpb_obs::Json;
use rpb_parlay::prop::{check, Gen};

/// Exactly representable in the JSON writer's f64 numbers.
const MAX_EXACT: u64 = 1 << 53;

/// Counter names drawn from the real hard-metric set plus a foreign one,
/// so parsing never depends on the gate's own vocabulary.
const COUNTER_NAMES: [&str; 5] = [
    "sngind_pool_hits",
    "sngind_offsets_validated",
    "mq_pushes",
    "exec_tasks",
    "some_future_counter",
];

/// `len` characters of `alphabet`.
fn string_of(g: &mut Gen, alphabet: &[char], len: std::ops::Range<usize>) -> String {
    g.vec(len, |g| g.pick(alphabet)).into_iter().collect()
}

/// A cell named `[a-z]{1,8}(-[a-z]{1,4})?`.
fn gate_case(g: &mut Gen) -> GateCase {
    let lower: Vec<char> = ('a'..='z').collect();
    let mut name = string_of(g, &lower, 1..9);
    if g.pick(&[false, true]) {
        name = format!("{name}-{}", string_of(g, &lower, 1..5));
    }
    GateCase {
        name,
        mode: g.pick(&["unsafe", "checked", "sync"]).to_string(),
        counters: g.vec(0..6, |g| {
            (g.pick(&COUNTER_NAMES).to_string(), g.in_range(0..MAX_EXACT))
        }),
    }
}

fn baseline(g: &mut Gen) -> Baseline {
    let scale = Scale {
        text_len: g.in_range(1..100_000) as usize,
        seq_len: g.in_range(1..100_000) as usize,
        graph_n: g.in_range(1..10_000) as usize,
        points_n: g.in_range(1..10_000) as usize,
    };
    // One cell per (name, mode) key: `compare` matches
    // cases by key, so duplicate keys are not a valid matrix.
    let mut seen = std::collections::HashSet::new();
    let cases = g
        .vec(0..8, gate_case)
        .into_iter()
        .filter(|c| seen.insert(c.key()))
        .collect();
    Baseline { scale, cases }
}

const CASES: usize = 128;

/// serialize -> parse -> equality, through the actual text
/// representation a committed `baselines/*.json` file uses.
#[test]
fn baseline_round_trips_semantically() {
    check("baseline_round_trips_semantically", CASES, |g| {
        let b = baseline(g);
        let text = format!("{}\n", b.to_json());
        let doc = Json::parse(&text).expect("baseline text parses");
        let parsed = Baseline::parse(&doc).expect("baseline document parses");
        assert_eq!(b, parsed, "round trip changed the baseline");
    });
}

/// A round-tripped baseline gates identically to the original: the
/// comparison of a parsed copy against its source is always clean.
#[test]
fn round_tripped_baseline_compares_clean() {
    check("round_tripped_baseline_compares_clean", CASES, |g| {
        let b = baseline(g);
        let doc = Json::parse(&b.to_json().to_string()).expect("parses");
        let parsed = Baseline::parse(&doc).expect("valid");
        let cmp = compare(&b, &parsed);
        assert!(cmp.violations.is_empty(), "{:?}", cmp.violations);
    });
}
