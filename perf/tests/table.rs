//! The timed-call table covers `rpb_bench::ALL_PAIRS` exactly, and the Fig. 5
//! subsets follow `rpb_bench`'s. `rpb-bench` cannot be linked here (it pulls
//! in the `rpb serve` command line, which does not compile at this commit),
//! so the names are read from its source.

use rpb_fearless::ExecMode;
use rpb_perf::cells::{pair, recommended_mode, CHECKED_PAIRS, PAIRS, SYNC_PAIRS};

/// The string literals of `pub const <name>: [&str; N] = [ ... ];`.
fn const_names(source: &str, name: &str) -> Vec<String> {
    let start = source
        .find(&format!("pub const {name}:"))
        .unwrap_or_else(|| panic!("{name} not found in runner.rs"));
    let body = &source[start..];
    let open = body.find("= [").expect("array literal") + 3;
    let close = open + body[open..].find("];").expect("end of array");
    body[open..close]
        .split(',')
        .map(|s| s.trim().trim_matches('"').to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

fn runner_source() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../crates/bench/src/runner.rs");
    std::fs::read_to_string(path).expect("crates/bench/src/runner.rs")
}

#[test]
fn table_covers_all_pairs_in_order() {
    let all = const_names(&runner_source(), "ALL_PAIRS");
    let table: Vec<&str> = PAIRS.iter().map(|p| p.name).collect();
    assert_eq!(table, all);
    assert_eq!(table.len(), 20);
}

#[test]
fn figure_subsets_follow_rpb_bench() {
    let source = runner_source();
    let mut fig5a = const_names(&source, "FIG5A_PAIRS");
    fig5a.push("isort".to_string());
    assert_eq!(CHECKED_PAIRS.to_vec(), fig5a);
    assert_eq!(SYNC_PAIRS.to_vec(), const_names(&source, "FIG5B_PAIRS"));
    for name in CHECKED_PAIRS.iter().chain(&SYNC_PAIRS) {
        pair(name);
    }
}

#[test]
fn recommended_modes_follow_the_paper() {
    let (mut checked, mut sync) = (0, 0);
    for p in &PAIRS {
        match recommended_mode(p) {
            ExecMode::Checked => {
                assert_eq!(p.name, "sort");
                checked += 1;
            }
            ExecMode::Sync => {
                assert!(p.name.starts_with("bfs") || p.name.starts_with("sssp"));
                sync += 1;
            }
            ExecMode::Unsafe => {}
        }
    }
    assert_eq!((checked, sync), (1, 4));
}
