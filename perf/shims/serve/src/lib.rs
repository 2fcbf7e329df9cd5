//! The modules of `crates/serve`, compiled from their files in place. Only
//! the module list lives here; no serve code is copied.

// `load.rs` imports two names only `cli.rs` used to need.
#![allow(unused_imports)]

#[path = "../../../../crates/serve/src/datasets.rs"]
pub mod datasets;
#[path = "../../../../crates/serve/src/farm.rs"]
pub mod farm;
#[path = "../../../../crates/serve/src/jobs.rs"]
pub mod jobs;
#[path = "../../../../crates/serve/src/load.rs"]
pub mod load;
#[path = "../../../../crates/serve/src/proto.rs"]
pub mod proto;
#[path = "../../../../crates/serve/src/server.rs"]
pub mod server;
#[path = "../../../../crates/serve/src/trace.rs"]
pub mod trace;

pub use datasets::Datasets;
pub use farm::{Admission, Farm, FarmConfig, FarmStats};
pub use jobs::JobKind;

/// `crates/serve/src/lib.rs`'s test helper, which the modules' unit tests
/// expect at the crate root.
#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::{Mutex, MutexGuard};

    /// Serializes tests that run `Checked`-mode jobs (the validation pool is
    /// process-global).
    pub fn pool_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
    }
}
