//! The channel abstraction: bounded MPMC send/recv behind object-safe
//! traits, with `std::sync::mpsc` and `crossbeam` backends.
//!
//! Mirrors the executor registry shape of [`rpb_parlay::exec`]: a
//! [`ChannelKind`] selector with a process-wide default
//! ([`set_default_channel`] > `RPB_CHANNEL` > [`ChannelKind::Mpsc`]), and
//! a [`bounded`] constructor dispatching on the kind. Call sites hold
//! [`BoxSender`]/[`BoxReceiver`] trait objects, so adding a channel
//! backend never touches them.
//!
//! Disconnect errors are typed, never panics: [`SendError`] hands the
//! unsent item back when every receiver is gone; [`RecvError`] reports
//! that every sender is gone *and* the queue is drained. Both directions
//! waking on peer-drop is what makes the pipeline's panic path cascade
//! to a clean shutdown instead of a deadlock (see `crate::pipeline`).

use std::sync::{mpsc, Mutex};

use rpb_parlay::select::Slot;

/// The channel backends a pipeline can run its stages over.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// `std::sync::mpsc::sync_channel`, receiver shared behind a mutex
    /// (the zero-dependency baseline, and the default).
    #[default]
    Mpsc,
    /// `crossbeam::channel::bounded` (natively MPMC).
    Crossbeam,
}

/// Every channel backend, in CLI listing order.
pub const ALL_CHANNELS: [ChannelKind; 2] = [ChannelKind::Mpsc, ChannelKind::Crossbeam];

rpb_parlay::selector! {
    ChannelKind: "channel", ALL_CHANNELS;
    Mpsc = ["mpsc", "std"],
    Crossbeam = ["crossbeam", "cb"],
}

/// Programmatic override > `RPB_CHANNEL` > [`ChannelKind::Mpsc`].
static DEFAULT: Slot<ChannelKind> = Slot::new("RPB_CHANNEL");

/// Sets the process default returned by [`default_channel`] (what
/// `rpb … --channel <c>` does outside the verify matrix). `None` clears
/// the override back to `RPB_CHANNEL`-or-mpsc resolution.
pub fn set_default_channel(kind: Option<ChannelKind>) {
    DEFAULT.set(kind);
}

/// The channel backend used when a call site doesn't name one (see
/// [`Slot::get`] for the resolution order and the warn-once).
pub fn default_channel() -> ChannelKind {
    DEFAULT.get()
}

/// Send failed because every receiver was dropped; the unsent item is
/// handed back so no payload is silently lost.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> std::fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel send failed: every receiver disconnected")
    }
}

impl<T: std::fmt::Debug> std::error::Error for SendError<T> {}

/// Recv failed because every sender was dropped and the queue is empty —
/// the clean end-of-stream signal a pipeline worker exits on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvError;

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel recv failed: every sender disconnected")
    }
}

impl std::error::Error for RecvError {}

/// The producing half of a bounded channel. Object-safe: pipeline stages
/// hold `BoxSender<T>` and clone one per farm worker.
pub trait Sender<T: Send>: Send {
    /// Blocks while the channel is at capacity; fails (returning the
    /// item) only when every receiver is gone — including receivers
    /// dropped *while* this send is blocked, which is what unwedges
    /// producers during a panic shutdown.
    fn send(&self, item: T) -> Result<(), SendError<T>>;

    /// A new handle onto the same channel (the channel closes when every
    /// sender — original and clones — has been dropped).
    fn clone_sender(&self) -> BoxSender<T>;

    /// Which backend this sender belongs to.
    fn kind(&self) -> ChannelKind;
}

/// The consuming half of a bounded channel. `Sync` so a stage's worker
/// farm can share one receiver behind an `Arc` (MPMC consumption).
pub trait Receiver<T: Send>: Send + Sync {
    /// Blocks until an item or disconnection; fails only when every
    /// sender is gone and the queue is drained.
    fn recv(&self) -> Result<T, RecvError>;

    /// Which backend this receiver belongs to.
    fn kind(&self) -> ChannelKind;
}

/// A boxed [`Sender`].
pub type BoxSender<T> = Box<dyn Sender<T>>;
/// A boxed [`Receiver`].
pub type BoxReceiver<T> = Box<dyn Receiver<T>>;

/// Object-safe constructor for one backend's channels of item type `T`
/// (the registry analog of `rpb_parlay::exec::Executor`; [`bounded`] is
/// the kind-dispatching convenience over it).
pub trait ChannelFactory<T: Send>: Send + Sync {
    /// Creates a bounded channel holding at most `cap` queued items
    /// (`cap = 0` is a rendezvous channel: every send waits for a recv).
    fn bounded(&self, cap: usize) -> (BoxSender<T>, BoxReceiver<T>);

    /// Which backend this factory constructs.
    fn kind(&self) -> ChannelKind;

    /// Human-readable backend name (defaults to the kind's label).
    fn name(&self) -> &'static str {
        self.kind().label()
    }
}

/// The registered factory for `kind`.
pub fn factory<T: Send + 'static>(kind: ChannelKind) -> &'static dyn ChannelFactory<T> {
    match kind {
        ChannelKind::Mpsc => &MpscFactory,
        ChannelKind::Crossbeam => &CrossbeamFactory,
    }
}

/// Creates a bounded channel of the requested backend — the one call
/// every pipeline stage boundary goes through.
pub fn bounded<T: Send + 'static>(kind: ChannelKind, cap: usize) -> (BoxSender<T>, BoxReceiver<T>) {
    factory::<T>(kind).bounded(cap)
}

/// The `std::sync::mpsc` backend ([`ChannelKind::Mpsc`]).
pub struct MpscFactory;

struct MpscSender<T>(mpsc::SyncSender<T>);

impl<T: Send + 'static> Sender<T> for MpscSender<T> {
    fn send(&self, item: T) -> Result<(), SendError<T>> {
        self.0.send(item).map_err(|mpsc::SendError(v)| SendError(v))
    }

    fn clone_sender(&self) -> BoxSender<T> {
        Box::new(MpscSender(self.0.clone()))
    }

    fn kind(&self) -> ChannelKind {
        ChannelKind::Mpsc
    }
}

/// `mpsc::Receiver` is single-consumer; the mutex turns it into a shared
/// MPMC endpoint (one worker blocks inside `recv`, the rest queue on the
/// lock — same wakeup semantics, no lost items). Poisoning is impossible
/// by construction: `recv` never panics while the lock is held, but a
/// poisoned lock would still be recovered rather than propagated.
struct MpscReceiver<T>(Mutex<mpsc::Receiver<T>>);

impl<T: Send + 'static> Receiver<T> for MpscReceiver<T> {
    fn recv(&self) -> Result<T, RecvError> {
        let rx = self.0.lock().unwrap_or_else(|poison| poison.into_inner());
        rx.recv().map_err(|_| RecvError)
    }

    fn kind(&self) -> ChannelKind {
        ChannelKind::Mpsc
    }
}

impl<T: Send + 'static> ChannelFactory<T> for MpscFactory {
    fn bounded(&self, cap: usize) -> (BoxSender<T>, BoxReceiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (
            Box::new(MpscSender(tx)),
            Box::new(MpscReceiver(Mutex::new(rx))),
        )
    }

    fn kind(&self) -> ChannelKind {
        ChannelKind::Mpsc
    }
}

/// The `crossbeam::channel` backend ([`ChannelKind::Crossbeam`]).
pub struct CrossbeamFactory;

struct CbSender<T>(crossbeam::channel::Sender<T>);

impl<T: Send + 'static> Sender<T> for CbSender<T> {
    fn send(&self, item: T) -> Result<(), SendError<T>> {
        self.0
            .send(item)
            .map_err(|crossbeam::channel::SendError(v)| SendError(v))
    }

    fn clone_sender(&self) -> BoxSender<T> {
        Box::new(CbSender(self.0.clone()))
    }

    fn kind(&self) -> ChannelKind {
        ChannelKind::Crossbeam
    }
}

struct CbReceiver<T>(crossbeam::channel::Receiver<T>);

impl<T: Send + 'static> Receiver<T> for CbReceiver<T> {
    fn recv(&self) -> Result<T, RecvError> {
        self.0.recv().map_err(|_| RecvError)
    }

    fn kind(&self) -> ChannelKind {
        ChannelKind::Crossbeam
    }
}

impl<T: Send + 'static> ChannelFactory<T> for CrossbeamFactory {
    fn bounded(&self, cap: usize) -> (BoxSender<T>, BoxReceiver<T>) {
        let (tx, rx) = crossbeam::channel::bounded(cap);
        (Box::new(CbSender(tx)), Box::new(CbReceiver(rx)))
    }

    fn kind(&self) -> ChannelKind {
        ChannelKind::Crossbeam
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;
    use std::sync::Arc;

    #[test]
    fn parse_round_trips_and_rejects() {
        for c in ALL_CHANNELS {
            assert_eq!(ChannelKind::from_str(c.label()), Ok(c));
        }
        assert_eq!(ChannelKind::from_str(" STD "), Ok(ChannelKind::Mpsc));
        assert_eq!(ChannelKind::from_str("cb"), Ok(ChannelKind::Crossbeam));
        let err = ChannelKind::from_str("flume").unwrap_err();
        assert!(err.to_string().contains("flume"));
        assert!(err.to_string().contains("mpsc") && err.to_string().contains("crossbeam"));
    }

    #[test]
    fn programmatic_default_wins_over_env_resolution() {
        set_default_channel(Some(ChannelKind::Crossbeam));
        assert_eq!(default_channel(), ChannelKind::Crossbeam);
        set_default_channel(Some(ChannelKind::Mpsc));
        assert_eq!(default_channel(), ChannelKind::Mpsc);
        set_default_channel(None);
        // Unset: resolves via RPB_CHANNEL or mpsc; either way it parses.
        let _ = default_channel();
    }

    fn conformance(kind: ChannelKind) {
        // FIFO transport through a full-capacity cycle.
        let (tx, rx) = bounded::<u64>(kind, 2);
        assert_eq!(tx.kind(), kind);
        assert_eq!(rx.kind(), kind);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        tx.send(3).unwrap();
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));

        // Dropping every sender ends the stream with a typed error.
        let (tx, rx) = bounded::<u64>(kind, 4);
        let tx2 = tx.clone_sender();
        tx.send(7).unwrap();
        drop(tx);
        tx2.send(8).unwrap();
        drop(tx2);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Ok(8));
        assert_eq!(rx.recv(), Err(RecvError));

        // Dropping the receiver fails sends, returning the item.
        let (tx, rx) = bounded::<u64>(kind, 4);
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
    }

    #[test]
    fn mpsc_channel_conforms() {
        conformance(ChannelKind::Mpsc);
    }

    #[test]
    fn crossbeam_channel_conforms() {
        conformance(ChannelKind::Crossbeam);
    }

    /// A producer blocked on a full channel must be unwedged (with its
    /// item returned) when the last receiver drops — the property the
    /// pipeline's panic shutdown depends on.
    fn blocked_send_unblocks_on_receiver_drop(kind: ChannelKind) {
        let (tx, rx) = bounded::<u64>(kind, 1);
        tx.send(1).unwrap(); // fill the buffer
        let handle = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(rx);
        assert_eq!(handle.join().unwrap(), Err(SendError(2)));
    }

    #[test]
    fn mpsc_blocked_send_unblocks_on_receiver_drop() {
        blocked_send_unblocks_on_receiver_drop(ChannelKind::Mpsc);
    }

    #[test]
    fn crossbeam_blocked_send_unblocks_on_receiver_drop() {
        blocked_send_unblocks_on_receiver_drop(ChannelKind::Crossbeam);
    }

    /// Multiple consumers sharing one receiver behind an `Arc` must
    /// partition the stream (each item delivered exactly once).
    fn shared_receiver_partitions_stream(kind: ChannelKind) {
        let (tx, rx) = bounded::<u64>(kind, 8);
        let rx = Arc::new(rx);
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        for v in 0..100 {
            tx.send(v).unwrap();
        }
        drop(tx);
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn mpsc_shared_receiver_partitions_stream() {
        shared_receiver_partitions_stream(ChannelKind::Mpsc);
    }

    #[test]
    fn crossbeam_shared_receiver_partitions_stream() {
        shared_receiver_partitions_stream(ChannelKind::Crossbeam);
    }
}
