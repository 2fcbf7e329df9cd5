//! Per-benchmark execution: the 20 benchmark-input pairs of Fig. 4 and
//! their sequential baselines.

use rpb_fearless::ExecMode;
use rpb_parlay::exec::BackendKind;
use rpb_suite::{bfs, bw, dedup, dr, hist, isort, lrs, mis, mm, msf, sa, sf, sort, sssp};

use crate::workloads::Workloads;
use crate::{time_best, TimingStats};

/// The 20 benchmark-input pairs of Fig. 4, in its x-axis order.
pub const ALL_PAIRS: [&str; 20] = [
    "bw",
    "lrs",
    "sa",
    "dr",
    "mis-link",
    "mis-road",
    "mm-road",
    "mm-rmat",
    "sf-link",
    "sf-road",
    "msf-rmat",
    "msf-road",
    "sort",
    "dedup",
    "hist",
    "isort",
    "bfs-road",
    "bfs-link",
    "sssp-link",
    "sssp-road",
];

/// The benchmarks of Fig. 5(a): the heavy `SngInd` uniqueness check.
pub const FIG5A_PAIRS: [&str; 3] = ["bw", "lrs", "sa"];

/// The pairs of Fig. 5(b): unnecessary synchronization for SngInd/AW.
pub const FIG5B_PAIRS: [&str; 12] = [
    "bw", "lrs", "sa", "mis-link", "mis-road", "mm-rmat", "mm-road", "msf-rmat", "msf-road",
    "sf-link", "sf-road", "hist",
];

/// Executes one parallel benchmark run inside the current Rayon pool
/// (MultiQueue benchmarks take `threads` directly). Returns best/mean
/// timing over `reps` measured repetitions. Only the MultiQueue pairs
/// (`bfs-*`/`sssp-*`) are sensitive to `backend` — everything else runs
/// on the ambient Rayon pool the harness installed around this call.
pub fn run_case_on(
    backend: BackendKind,
    name: &str,
    w: &Workloads,
    mode: ExecMode,
    threads: usize,
    reps: usize,
) -> TimingStats {
    let key_bits = 64 - (w.seq.len() as u64).leading_zeros();
    match name {
        "bw" => time_best(reps, || {
            std::hint::black_box(
                bw::run_par(&w.bwt, mode).expect("bw: workload BWT is well-formed"),
            );
        }),
        "lrs" => time_best(reps, || {
            std::hint::black_box(lrs::run_par(&w.text, mode));
        }),
        "sa" => time_best(reps, || {
            std::hint::black_box(sa::run_par(&w.text, mode));
        }),
        "dr" => time_best(reps, || {
            std::hint::black_box(dr::run_par(&w.points, mode));
        }),
        "mis-link" => time_best(reps, || {
            std::hint::black_box(mis::run_par(&w.link, mode));
        }),
        "mis-road" => time_best(reps, || {
            std::hint::black_box(mis::run_par(&w.road, mode));
        }),
        "mm-rmat" => time_best(reps, || {
            std::hint::black_box(mm::run_par(w.rmat_edges.0, &w.rmat_edges.1, mode));
        }),
        "mm-road" => time_best(reps, || {
            std::hint::black_box(mm::run_par(w.road_edges.0, &w.road_edges.1, mode));
        }),
        "sf-link" => time_best(reps, || {
            std::hint::black_box(sf::run_par(w.link_edges.0, &w.link_edges.1, mode));
        }),
        "sf-road" => time_best(reps, || {
            std::hint::black_box(sf::run_par(w.road_edges.0, &w.road_edges.1, mode));
        }),
        "msf-rmat" => time_best(reps, || {
            std::hint::black_box(msf::run_par(w.rmat_wedges.0, &w.rmat_wedges.1, mode));
        }),
        "msf-road" => time_best(reps, || {
            std::hint::black_box(msf::run_par(w.road_wedges.0, &w.road_wedges.1, mode));
        }),
        "sort" => time_best(reps, || {
            let mut v = w.seq.clone();
            sort::run_par(&mut v, mode);
            std::hint::black_box(v);
        }),
        "dedup" => time_best(reps, || {
            std::hint::black_box(dedup::run_par(&w.seq, mode));
        }),
        "hist" => time_best(reps, || {
            // The paper's hist uses "large structs"; the Sync variant is
            // the Mutex-per-bin configuration of Fig. 5(b).
            std::hint::black_box(
                hist::run_large(&w.seq, 256, w.seq.len() as u64, mode)
                    .expect("hist: 256 buckets over a non-zero range is valid"),
            );
        }),
        "isort" => time_best(reps, || {
            let mut v = w.seq.clone();
            isort::run_par(&mut v, key_bits, mode);
            std::hint::black_box(v);
        }),
        "bfs-road" => time_best(reps, || {
            std::hint::black_box(bfs::run_par_on(backend, &w.road, 0, threads, mode));
        }),
        "bfs-link" => time_best(reps, || {
            std::hint::black_box(bfs::run_par_on(backend, &w.link, 0, threads, mode));
        }),
        "sssp-link" => time_best(reps, || {
            std::hint::black_box(sssp::run_par_on(backend, &w.wlink, 0, threads, mode));
        }),
        "sssp-road" => time_best(reps, || {
            std::hint::black_box(sssp::run_par_on(backend, &w.wroad, 0, threads, mode));
        }),
        other => panic!("unknown benchmark pair: {other}"),
    }
}

/// Sequential baseline for a pair.
pub fn run_seq_case(name: &str, w: &Workloads, reps: usize) -> TimingStats {
    let key_bits = 64 - (w.seq.len() as u64).leading_zeros();
    match name {
        "bw" => time_best(reps, || {
            std::hint::black_box(bw::run_seq(&w.bwt).expect("bw: workload BWT is well-formed"));
        }),
        "lrs" => time_best(reps, || {
            std::hint::black_box(lrs::run_seq(&w.text));
        }),
        "sa" => time_best(reps, || {
            std::hint::black_box(sa::run_seq(&w.text));
        }),
        "dr" => time_best(reps, || {
            std::hint::black_box(dr::run_seq(&w.points));
        }),
        "mis-link" => time_best(reps, || {
            std::hint::black_box(mis::run_seq(&w.link));
        }),
        "mis-road" => time_best(reps, || {
            std::hint::black_box(mis::run_seq(&w.road));
        }),
        "mm-rmat" => time_best(reps, || {
            std::hint::black_box(mm::run_seq(w.rmat_edges.0, &w.rmat_edges.1));
        }),
        "mm-road" => time_best(reps, || {
            std::hint::black_box(mm::run_seq(w.road_edges.0, &w.road_edges.1));
        }),
        "sf-link" => time_best(reps, || {
            std::hint::black_box(sf::run_seq(w.link_edges.0, &w.link_edges.1));
        }),
        "sf-road" => time_best(reps, || {
            std::hint::black_box(sf::run_seq(w.road_edges.0, &w.road_edges.1));
        }),
        "msf-rmat" => time_best(reps, || {
            std::hint::black_box(msf::run_seq(w.rmat_wedges.0, &w.rmat_wedges.1));
        }),
        "msf-road" => time_best(reps, || {
            std::hint::black_box(msf::run_seq(w.road_wedges.0, &w.road_wedges.1));
        }),
        "sort" => time_best(reps, || {
            let mut v = w.seq.clone();
            sort::run_seq(&mut v);
            std::hint::black_box(v);
        }),
        "dedup" => time_best(reps, || {
            std::hint::black_box(dedup::run_seq(&w.seq));
        }),
        "hist" => time_best(reps, || {
            std::hint::black_box(
                hist::run_large_seq(&w.seq, 256, w.seq.len() as u64)
                    .expect("hist: 256 buckets over a non-zero range is valid"),
            );
        }),
        "isort" => time_best(reps, || {
            let mut v = w.seq.clone();
            isort::run_seq(&mut v, key_bits);
            std::hint::black_box(v);
        }),
        "bfs-road" => time_best(reps, || {
            std::hint::black_box(bfs::run_seq(&w.road, 0));
        }),
        "bfs-link" => time_best(reps, || {
            std::hint::black_box(bfs::run_seq(&w.link, 0));
        }),
        "sssp-link" => time_best(reps, || {
            std::hint::black_box(sssp::run_seq(&w.wlink, 0));
        }),
        "sssp-road" => time_best(reps, || {
            std::hint::black_box(sssp::run_seq(&w.wroad, 0));
        }),
        other => panic!("unknown benchmark pair: {other}"),
    }
}

/// The paper's recommended RPB configuration per pair (Sec. 7.3: unsafe
/// for `SngInd`/`AW`, checked for `RngInd`).
///
/// # Panics
/// Panics on a name outside [`ALL_PAIRS`] — a typo'd pair must fail loudly
/// here rather than silently benchmark in `Unsafe` mode.
pub fn recommended_mode(name: &str) -> ExecMode {
    assert!(ALL_PAIRS.contains(&name), "unknown benchmark pair: {name}");
    match name {
        // sort's irregular pattern is only RngInd — the paper uses the
        // checked iterator there because its check is ~free.
        "sort" => ExecMode::Checked,
        // MQ benchmarks are inherently synchronized.
        n if n.starts_with("bfs") || n.starts_with("sssp") => ExecMode::Sync,
        _ => ExecMode::Unsafe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use rpb_parlay::exec::default_backend;

    #[test]
    fn every_pair_runs_at_tiny_scale() {
        use std::time::Duration;
        let tiny = Scale {
            text_len: 4000,
            seq_len: 20_000,
            graph_n: 800,
            points_n: 300,
        };
        let w = Workloads::build(tiny);
        for name in ALL_PAIRS {
            let ts = run_case_on(default_backend(), name, &w, recommended_mode(name), 2, 1);
            assert!(ts.best > Duration::ZERO, "{name}");
            let ts = run_seq_case(name, &w, 1);
            assert!(ts.best > Duration::ZERO, "{name} seq");
        }
    }

    #[test]
    fn fig5_pairs_are_subsets_of_fig4() {
        for p in FIG5A_PAIRS {
            assert!(ALL_PAIRS.contains(&p));
        }
        for p in FIG5B_PAIRS {
            assert!(ALL_PAIRS.contains(&p));
        }
    }

    #[test]
    fn recommended_modes_match_the_documented_policy() {
        // Sec. 7.3: checked only where the check is ~free (sort's RngInd),
        // Sync where the algorithm is inherently synchronized (MultiQueue
        // bfs/sssp), Unsafe everywhere else.
        for name in ALL_PAIRS {
            let want = if name == "sort" {
                ExecMode::Checked
            } else if name.starts_with("bfs") || name.starts_with("sssp") {
                ExecMode::Sync
            } else {
                ExecMode::Unsafe
            };
            assert_eq!(recommended_mode(name), want, "{name}");
        }
        // Exactly 1 Checked and 4 Sync pairs among the 20.
        let checked = ALL_PAIRS
            .iter()
            .filter(|n| recommended_mode(n) == ExecMode::Checked)
            .count();
        let sync = ALL_PAIRS
            .iter()
            .filter(|n| recommended_mode(n) == ExecMode::Sync)
            .count();
        assert_eq!((checked, sync), (1, 4));
    }

    #[test]
    #[should_panic(expected = "unknown benchmark pair")]
    fn recommended_mode_rejects_unknown_names() {
        recommended_mode("sort-typo");
    }
}
