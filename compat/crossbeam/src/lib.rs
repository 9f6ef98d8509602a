//! Offline stand-in for the `crossbeam 0.8` API subset this workspace
//! uses: unbounded MPSC channels, implemented over `std::sync::mpsc`.
//!
//! The cluster simulator gives every node one inbox (`Receiver`) and a
//! clone of every peer's `Sender` — a strict MPSC pattern, so std's
//! channel is a faithful substitute. (Real crossbeam channels are MPMC
//! and faster under contention; neither property is load-bearing here.)

/// Multi-producer single-consumer channels.
pub mod channel {
    use std::sync::mpsc;

    /// Sending half; clonable across threads.
    pub struct Sender<T>(mpsc::Sender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    /// Receiving half; owned by exactly one consumer.
    pub struct Receiver<T>(mpsc::Receiver<T>);

    /// Error returned by [`Sender::send`] when the receiver is gone.
    /// Carries the unsent message like crossbeam's.
    #[derive(Debug)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when every sender is gone and
    /// the queue is drained.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message currently queued.
        Empty,
        /// Every sender is gone and the queue is drained.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The deadline elapsed with no message.
        Timeout,
        /// Every sender is gone and the queue is drained.
        Disconnected,
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(rx))
    }

    impl<T> Sender<T> {
        /// Queues `value`; errors only when the receiver was dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0
                .send(value)
                .map_err(|mpsc::SendError(v)| SendError(v))
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or all senders disconnect.
        #[expect(clippy::disallowed_methods, reason = "the stand-in forwards to std")]
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv().map_err(|mpsc::RecvError| RecvError)
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            })
        }

        /// Blocks until a message arrives, the deadline elapses, or all
        /// senders disconnect.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;

    #[test]
    fn fan_in_delivery() {
        let (tx, rx) = unbounded::<usize>();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let tx = tx.clone();
                std::thread::spawn(move || tx.send(i).unwrap())
            })
            .collect();
        drop(tx);
        let mut got = Vec::new();
        #[expect(
            clippy::disallowed_methods,
            reason = "drains until every sender is gone"
        )]
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        for h in handles {
            h.join().unwrap();
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn try_recv_distinguishes_empty_from_disconnected() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(9).unwrap();
        assert_eq!(rx.try_recv(), Ok(9));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        use std::time::Duration;
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(5).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(100)), Ok(5));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn send_to_dropped_receiver_returns_message() {
        let (tx, rx) = unbounded::<String>();
        drop(rx);
        let err = tx.send("hello".into()).unwrap_err();
        assert_eq!(err.0, "hello");
    }
}
