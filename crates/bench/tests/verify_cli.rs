//! `rpb verify` exit-code contract, driven through the real binary:
//!
//! 0 on a clean matrix, 1 on any divergence (proved via the `--inject`
//! corruption hook), 2 on usage errors. CI blocks on exactly these codes,
//! so they are regression-tested here rather than assumed.

#![cfg(not(miri))]

use std::process::Command;

fn rpb_verify(extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rpb"))
        .args(["verify", "--scale", "gate", "--workers", "1,2"])
        .args(extra)
        .output()
        .expect("spawn rpb verify")
}

#[test]
fn clean_subset_exits_zero_with_matrix() {
    let out = rpb_verify(&["--suite", "hist,sort,bfs"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "clean verify must exit 0\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains("9 cells (9 ok, 0 FAIL)"), "{stdout}");
    assert!(!stdout.contains("FAIL "), "{stdout}");
}

#[test]
fn injected_divergence_exits_one_and_names_the_bench() {
    let out = rpb_verify(&["--suite", "hist,sort", "--inject", "hist"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(rpb_bench::verifier::EXIT_DIVERGENCE),
        "injected corruption must exit {}\nstdout:\n{stdout}",
        rpb_bench::verifier::EXIT_DIVERGENCE
    );
    assert!(
        stdout.contains("FAIL hist/"),
        "failure detail line\n{stdout}"
    );
    // The uncorrupted benchmark still passes in the same sweep.
    assert!(!stdout.contains("FAIL sort/"), "{stdout}");
}

#[test]
fn unknown_suite_name_is_a_usage_error() {
    let out = rpb_verify(&["--suite", "quicksort"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("quicksort"), "{stderr}");
    assert!(stderr.contains("bfs"), "valid names listed\n{stderr}");
}

#[test]
fn unknown_mode_is_a_usage_error_listing_valid_modes() {
    let out = rpb_verify(&["--mode", "atomic"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("atomic"), "{stderr}");
    assert!(
        stderr.contains("unsafe") && stderr.contains("checked") && stderr.contains("sync"),
        "valid modes listed\n{stderr}"
    );
}

// Only meaningful where the simd pin can actually diverge from scalar: on
// builds without the feature (or off x86_64) requesting the simd impl is
// now a usage error, tested below.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[test]
fn kernel_impl_axis_is_clean_across_the_suite() {
    // The scalar-vs-simd differential axis: every benchmark/mode pair
    // runs once per pinned kernel implementation. In default builds both
    // pins resolve to the scalar paths; in --features simd builds on an
    // AVX2 machine the second pass takes the vectorized kernels, and any
    // scalar/simd divergence fails the cell. Only `sort` (RngInd sweep)
    // and `dedup` (radix digit histogram) reach one; the other rows,
    // `hist` included, run the same code under both pins.
    let out = rpb_verify(&["--kernel-impl", "scalar,simd"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "kernel-impl sweep must verify\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains("42 cells (42 ok, 0 FAIL)"), "{stdout}");
    assert!(stdout.contains("kernel impls {scalar,simd}"), "{stdout}");
}

#[test]
fn unknown_kernel_impl_is_a_usage_error() {
    let out = rpb_verify(&["--kernel-impl", "avx512"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("avx512"), "{stderr}");
    assert!(
        stderr.contains("scalar") && stderr.contains("simd"),
        "valid impls listed\n{stderr}"
    );
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
#[test]
fn simd_impl_on_a_scalar_build_is_a_usage_error_not_a_silent_pass() {
    // Without --features simd both "pins" would run the identical scalar
    // path and the differential would vacuously pass — the verifier must
    // refuse instead of pretending it compared anything.
    let out = rpb_verify(&["--suite", "sort", "--kernel-impl", "scalar,simd"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "vacuous simd differential must be a usage error\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stderr.contains("--features simd"), "{stderr}");
    assert!(!stdout.contains("0 FAIL"), "no matrix may run\n{stdout}");
}

#[test]
fn backend_axis_is_clean_and_reported() {
    let out = rpb_verify(&["--suite", "hist,sort,bfs", "--backend", "rayon,mq"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "backend sweep must verify\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains("9 cells (9 ok, 0 FAIL)"), "{stdout}");
    assert!(stdout.contains("backends {rayon,mq}"), "{stdout}");
}

#[test]
fn unknown_backend_is_a_usage_error_listing_valid_backends() {
    let out = rpb_verify(&["--backend", "gpu"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("gpu"), "{stderr}");
    assert!(
        stderr.contains("rayon") && stderr.contains("mq"),
        "valid backends listed\n{stderr}"
    );
}

#[test]
fn zero_workers_is_a_typed_usage_error() {
    let out = rpb_verify(&["--workers", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("invalid worker count 0"), "{stderr}");
    assert!(stderr.contains("1..=4096"), "valid range listed\n{stderr}");
}

#[test]
fn out_of_range_workers_die_in_deterministic_order() {
    let out = rpb_verify(&["--workers", "9000,0,5000"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    // Offenders are sorted and deduped, so the message is stable no
    // matter how the flag was written.
    assert!(
        stderr.contains("invalid worker counts 0, 5000, 9000"),
        "{stderr}"
    );
    assert!(stderr.contains("1..=4096"), "{stderr}");
}

#[test]
fn full_matrix_at_gate_scale_is_clean() {
    let out = rpb_verify(&[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "full suite must verify\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    // 14 benchmarks x 3 modes.
    assert!(stdout.contains("42 cells (42 ok, 0 FAIL)"), "{stdout}");
}
