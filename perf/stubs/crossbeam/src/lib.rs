//! The slice of `crossbeam` that rpb uses: `channel::bounded`, a blocking
//! MPMC channel with disconnection, built on a mutex and two condvars. It
//! has none of crossbeam's lock-free machinery, so numbers taken through it
//! describe this stand-in, not the real crate.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    #[derive(PartialEq, Eq, Clone, Copy, Debug)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Items ever pushed / popped; a rendezvous sender waits for its own
        /// ticket to be popped.
        pushed: u64,
        popped: u64,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        cap: usize,
        not_full: Condvar,
        not_empty: Condvar,
        /// Signalled on every pop; only rendezvous senders wait on it.
        taken: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(|p| p.into_inner())
        }
    }

    pub struct Sender<T>(Arc<Shared<T>>);
    pub struct Receiver<T>(Arc<Shared<T>>);

    /// A channel holding at most `cap` queued items; `cap = 0` makes every
    /// send wait for the matching receive.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(cap.max(1)),
                senders: 1,
                receivers: 1,
                pushed: 0,
                popped: 0,
            }),
            cap,
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            taken: Condvar::new(),
        });
        (Sender(shared.clone()), Receiver(shared))
    }

    impl<T> Sender<T> {
        pub fn send(&self, item: T) -> Result<(), SendError<T>> {
            let shared = &*self.0;
            let slots = shared.cap.max(1);
            let mut st = shared.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(item));
                }
                if st.queue.len() < slots {
                    break;
                }
                st = shared.not_full.wait(st).unwrap_or_else(|p| p.into_inner());
            }
            st.queue.push_back(item);
            let ticket = st.pushed;
            st.pushed += 1;
            shared.not_empty.notify_one();
            if shared.cap == 0 {
                while st.popped <= ticket {
                    if st.receivers == 0 {
                        // Nobody will ever take it: hand the item back.
                        let item = st.queue.pop_back().expect("unreceived item is queued");
                        st.pushed -= 1;
                        return Err(SendError(item));
                    }
                    st = shared.taken.wait(st).unwrap_or_else(|p| p.into_inner());
                }
            }
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let shared = &*self.0;
            let mut st = shared.lock();
            loop {
                if let Some(item) = st.queue.pop_front() {
                    st.popped += 1;
                    shared.not_full.notify_one();
                    if shared.cap == 0 {
                        shared.taken.notify_all();
                    }
                    return Ok(item);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = shared.not_empty.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(self.0.clone())
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.senders -= 1;
            if st.senders == 0 {
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.receivers -= 1;
            if st.receivers == 0 {
                self.0.not_full.notify_all();
                self.0.taken.notify_all();
            }
        }
    }
}
