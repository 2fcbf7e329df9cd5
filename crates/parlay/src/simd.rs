//! Runtime dispatch for the feature-gated SIMD fast paths.
//!
//! The vectorized kernels (the RngInd validation sweep, radix digit
//! histograms) are compiled only with `--features simd` on
//! `x86_64`, and even then the scalar code remains the mandatory
//! fallback: every call site asks [`simd_enabled`] per invocation, which
//! folds together
//!
//! 1. compile-time availability (`feature = "simd"` + `x86_64`),
//! 2. one-time CPU detection (`is_x86_feature_detected!("avx2")`),
//! 3. the `RPB_FORCE_SCALAR` environment override (any value but `0`),
//! 4. a programmatic per-process override ([`pin`]) used by the
//!    differential verifier (`rpb verify --kernel-impl scalar,simd`) and
//!    the perf gate's scalar/simd kernel cells.
//!
//! Forcing [`KernelImpl::Simd`] on a machine without AVX2 (or in a build
//! without the feature) silently stays on the scalar path — the forced
//! mode can widen the set of machines that run scalar code, never the
//! set that runs vectorized code. That is also why this axis has no
//! [`Slot`](crate::select::Slot): `RPB_FORCE_SCALAR` caps detection, so
//! it beats a `Simd` pin too, where a slot's override would beat its
//! environment variable.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::select::Selector;

/// Which kernel implementation to dispatch to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelImpl {
    /// Runtime detection decides (the default).
    #[default]
    Auto,
    /// Always take the scalar path.
    Scalar,
    /// Take the vectorized path where the CPU supports it (falls back to
    /// scalar on machines without AVX2 — never forces unsupported code).
    Simd,
}

crate::selector! {
    KernelImpl: "kernel implementation", [KernelImpl::Auto, KernelImpl::Scalar, KernelImpl::Simd];
    Auto = ["auto"],
    Scalar = ["scalar"],
    Simd = ["simd"],
}

/// The programmatic override, as the variant's discriminant (its index
/// in [`Selector::ALL`]): whatever the live [`DispatchPin`] set, 0 =
/// [`KernelImpl::Auto`] otherwise.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// The current programmatic override.
pub fn forced() -> KernelImpl {
    KernelImpl::ALL[FORCED.load(Ordering::Relaxed) as usize]
}

/// A pinned dispatch decision: while it lives, every [`simd_enabled`]
/// call in the process answers for the pinned implementation; dropping
/// it — unwinding included — restores [`KernelImpl::Auto`].
///
/// The override is process-global, so the pin also holds a global lock:
/// concurrent differential tests (a scalar run against a simd run) queue
/// behind each other instead of trampling each other's pin. Not
/// reentrant — taking a second pin on the same thread deadlocks.
#[must_use = "the dispatch is pinned only while the pin is alive"]
pub struct DispatchPin {
    _lock: MutexGuard<'static, ()>,
}

/// Serializes pinned sections. A poisoned lock means a pinned section
/// panicked; its pin restored `Auto` while unwinding, so the state the
/// lock guards is intact and the poison is safe to clear.
fn pin_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Pins the dispatch to `k` until the returned guard drops.
///
/// Used by `rpb verify --kernel-impl …` and the perf gate's kernel cells
/// to pin one implementation per measured run, and by every
/// scalar-vs-simd test.
pub fn pin(k: KernelImpl) -> DispatchPin {
    let lock = pin_lock();
    FORCED.store(k as u8, Ordering::Relaxed);
    DispatchPin { _lock: lock }
}

impl Drop for DispatchPin {
    fn drop(&mut self) {
        // Runs before the lock field is released.
        FORCED.store(KernelImpl::Auto as u8, Ordering::Relaxed);
    }
}

/// One-time detection: feature compiled in, CPU has AVX2, and the
/// `RPB_FORCE_SCALAR` environment variable is unset (or `0`).
fn detected() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        if std::env::var_os("RPB_FORCE_SCALAR").is_some_and(|v| v != "0") {
            return false;
        }
        cpu_has_avx2()
    })
}

#[cfg(all(feature = "simd", target_arch = "x86_64", not(miri)))]
fn cpu_has_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64", not(miri))))]
fn cpu_has_avx2() -> bool {
    false
}

/// True when the vectorized kernels were compiled into this build (the
/// `simd` feature on `x86_64`, outside Miri) — regardless of what the
/// CPU supports at runtime.
///
/// This is the guard behind `rpb verify --kernel-impl simd`: in a build
/// without the feature, pinning `Simd` silently re-runs the scalar paths
/// and the "differential" compares scalar against itself, so the
/// verifier refuses the axis up front instead of reporting a vacuous ok.
pub const fn simd_compiled() -> bool {
    cfg!(all(feature = "simd", target_arch = "x86_64", not(miri)))
}

/// True when the vectorized fast paths should run right now.
///
/// Cheap enough for per-call dispatch: one relaxed atomic load plus a
/// cached detection bit.
#[inline]
pub fn simd_enabled() -> bool {
    match forced() {
        KernelImpl::Scalar => false,
        KernelImpl::Auto | KernelImpl::Simd => detected(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn parse_round_trips_and_rejects() {
        for k in [KernelImpl::Auto, KernelImpl::Scalar, KernelImpl::Simd] {
            assert_eq!(KernelImpl::from_str(k.label()), Ok(k));
        }
        assert_eq!(KernelImpl::from_str(" SIMD "), Ok(KernelImpl::Simd));
        assert!(KernelImpl::from_str("avx2").is_err());
    }

    #[test]
    fn forced_scalar_disables_simd() {
        // Whatever the machine supports, the scalar override must win.
        let _pin = pin(KernelImpl::Scalar);
        assert!(!simd_enabled());
    }

    #[test]
    fn forcing_simd_never_exceeds_detection() {
        let forced_on = {
            let _pin = pin(KernelImpl::Simd);
            simd_enabled()
        };
        let auto_on = {
            let _pin = pin(KernelImpl::Auto);
            simd_enabled()
        };
        // Forcing simd may only reproduce the auto decision, not beat it.
        assert_eq!(forced_on, auto_on);
    }

    #[test]
    fn a_panic_inside_a_pinned_section_releases_the_pin() {
        // The bug every scalar-vs-simd test exists to catch is a kernel
        // that panics under a pin; it must not leave the process pinned
        // (later differentials would compare scalar with scalar).
        let unwound = std::panic::catch_unwind(|| {
            let _pin = pin(KernelImpl::Scalar);
            assert_eq!(forced(), KernelImpl::Scalar);
            panic!("kernel bug under a scalar pin");
        });
        assert!(unwound.is_err());
        {
            // With the lock held no other test's pin is alive, so this
            // reads what the unwound pin left behind.
            let _quiet = pin_lock();
            assert_eq!(forced(), KernelImpl::Auto);
        }
        let _second = pin(KernelImpl::Simd);
        assert_eq!(forced(), KernelImpl::Simd);
    }
}
