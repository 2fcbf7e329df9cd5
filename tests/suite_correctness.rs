//! Cross-crate integration: every benchmark of the suite, in every
//! safety mode, against its sequential baseline — the top-level
//! correctness contract of RPB-rs.

use rpb::graph::GraphKind;
use rpb::suite::*;
use rpb::ExecMode;

const MODES: [ExecMode; 3] = [ExecMode::Unsafe, ExecMode::Checked, ExecMode::Sync];

#[test]
fn bw_all_modes() {
    let bwt = inputs::wiki_bwt(25_000);
    let want = bw::run_seq(&bwt).expect("wiki BWT is well-formed");
    for mode in MODES {
        assert_eq!(
            bw::run_par(&bwt, mode).expect("wiki BWT is well-formed"),
            want,
            "{mode}"
        );
    }
}

#[test]
fn lrs_all_modes() {
    let text = inputs::wiki(25_000);
    let want = lrs::run_seq(&text);
    for mode in MODES {
        let got = lrs::run_par(&text, mode);
        assert_eq!(got.len, want.len, "{mode}");
        lrs::verify(&text, &got).expect("valid repeat");
    }
}

#[test]
fn sa_all_modes() {
    let text = inputs::wiki(25_000);
    let want = sa::run_seq(&text);
    for mode in MODES {
        let got = sa::run_par(&text, mode);
        assert_eq!(got, want, "{mode}");
    }
    sa::verify(&text, &want).expect("valid");
}

#[test]
fn dr_all_modes() {
    let pts = inputs::kuzmin(400);
    for mode in MODES {
        let r = dr::run_par(&pts, mode);
        dr::verify(&pts, &r).expect("refined mesh valid");
    }
    let r = dr::run_seq(&pts);
    dr::verify(&pts, &r).expect("sequential refined mesh valid");
}

#[test]
fn mis_all_modes_and_inputs() {
    for kind in [GraphKind::Link, GraphKind::Road] {
        let g = inputs::graph(kind, 1200);
        let want = mis::run_seq(&g);
        for mode in MODES {
            let got = mis::run_par(&g, mode);
            assert_eq!(got, want, "{kind:?}/{mode}");
            mis::verify(&g, &got).expect("valid MIS");
        }
    }
}

#[test]
fn mm_all_modes_and_inputs() {
    for kind in [GraphKind::Rmat, GraphKind::Road] {
        let (n, edges) = inputs::edges(kind, 1200);
        let want = mm::run_seq(n, &edges);
        for mode in MODES {
            let got = mm::run_par(n, &edges, mode);
            assert_eq!(got, want, "{kind:?}/{mode}");
            mm::verify(n, &edges, &got).expect("valid matching");
        }
        // `rpb verify` checks `mm` on link and road only; the timed
        // `mm-rmat` pair gets its injected fault here: unmatching one
        // edge leaves it addable, which `verify` must refuse.
        let mut broken = want;
        let matched = broken.iter().position(|&m| m).expect("a matched edge");
        broken[matched] = false;
        mm::verify(n, &edges, &broken).expect_err("an unmatched edge breaks maximality");
    }
}

#[test]
fn sf_all_modes_and_inputs() {
    for kind in [GraphKind::Link, GraphKind::Road] {
        let (n, edges) = inputs::edges(kind, 1200);
        let seq_size = sf::run_seq(n, &edges).len();
        for mode in MODES {
            let got = sf::run_par(n, &edges, mode);
            sf::verify(n, &edges, &got).expect("valid forest");
            assert_eq!(got.len(), seq_size, "{kind:?}/{mode}");
        }
    }
}

#[test]
fn msf_all_modes_and_inputs() {
    for kind in [GraphKind::Rmat, GraphKind::Road] {
        let (n, edges) = inputs::weighted_edges(kind, 1000);
        let (want_edges, want_w) = msf::run_seq(n, &edges);
        let want = msf::canonical(n, &edges, &want_edges, want_w);
        for mode in MODES {
            let (got_edges, got_w) = msf::run_par(n, &edges, mode);
            msf::verify(n, &edges, &got_edges, got_w).expect("valid forest");
            // Ties are legally broken either way; compare canonical forms.
            assert_eq!(
                msf::canonical(n, &edges, &got_edges, got_w),
                want,
                "{kind:?}/{mode}"
            );
        }
    }
}

#[test]
fn sort_all_modes() {
    let input = inputs::exponential(60_000);
    let mut want = input.clone();
    sort::run_seq(&mut want);
    for mode in MODES {
        let mut got = input.clone();
        sort::run_par(&mut got, mode);
        assert_eq!(got, want, "{mode}");
    }
}

#[test]
fn dedup_all_modes() {
    let input = inputs::exponential(60_000);
    let want = dedup::run_seq(&input);
    for mode in MODES {
        assert_eq!(dedup::run_par(&input, mode), want, "{mode}");
    }
}

#[test]
fn hist_all_modes() {
    let input = inputs::exponential(60_000);
    let want = hist::run_seq(&input, 512, 60_000).expect("valid buckets");
    for mode in MODES {
        assert_eq!(
            hist::run_par(&input, 512, 60_000, mode).expect("valid buckets"),
            want,
            "{mode}"
        );
        assert_eq!(
            hist::run_large(&input, 64, 60_000, mode).expect("valid buckets"),
            hist::run_large_seq(&input, 64, 60_000).expect("valid buckets"),
            "{mode} large bins"
        );
    }
}

#[test]
fn isort_all_modes() {
    let input = inputs::exponential(60_000);
    let bits = 17;
    let mut want = input.clone();
    isort::run_seq(&mut want, bits);
    for mode in MODES {
        let mut got = input.clone();
        isort::run_par(&mut got, bits, mode);
        assert_eq!(got, want, "{mode}");
    }
}

#[test]
fn bfs_all_inputs() {
    for kind in [GraphKind::Link, GraphKind::Road] {
        let g = inputs::graph(kind, 1500);
        let want = bfs::run_seq(&g, 0);
        for threads in [1, 3] {
            assert_eq!(
                bfs::run_par(&g, 0, threads, ExecMode::Sync),
                want,
                "{kind:?}"
            );
        }
    }
}

#[test]
fn sssp_all_inputs() {
    for kind in [GraphKind::Link, GraphKind::Road] {
        let g = inputs::weighted_graph(kind, 1200);
        let want = sssp::run_seq(&g, 0);
        for threads in [1, 3] {
            assert_eq!(
                sssp::run_par(&g, 0, threads, ExecMode::Sync),
                want,
                "{kind:?}"
            );
        }
    }
}
