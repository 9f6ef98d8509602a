//! A hand-rolled `poll(2)` readiness shim — the serving tier's only
//! window onto socket readiness, in the workspace's offline-deps
//! spirit: no `libc` crate, no `mio`, just the one C entry point the
//! platform already links through `std`.
//!
//! The server's event loop registers every socket it owns (listener,
//! waker, connections) with a read and/or write interest and blocks in
//! [`Poller::wait`] until one becomes ready or the timeout expires.
//! On unix this is a real `poll(2)` call; elsewhere it degrades to a
//! short sleep that reports everything ready — level-triggered
//! over-reporting is always safe against non-blocking sockets (a
//! not-actually-ready socket just answers `WouldBlock`), it only costs
//! spurious wakeups.
//!
//! `poll` is used instead of `epoll` because the server's fd count is
//! small (one listener, one waker, tens of connections), the interest
//! set changes every tick (write interest follows buffered bytes), and
//! a stateless O(n) registration per tick keeps the shim tiny and
//! portable across unixes.

use std::io;
use std::time::Duration;

/// One socket's registration for a [`Poller::wait`] tick.
#[derive(Debug, Clone, Copy)]
pub struct Interest {
    /// The raw fd (`AsRawFd`); ignored by the non-unix fallback.
    pub fd: i32,
    /// Wake when readable (or on peer close).
    pub read: bool,
    /// Wake when writable.
    pub write: bool,
}

/// What a socket reported back.
#[derive(Debug, Clone, Copy, Default)]
pub struct Readiness {
    /// Data (or an accepted peer, or EOF) is waiting.
    pub readable: bool,
    /// The send buffer has room.
    pub writable: bool,
    /// Error/hangup: the owner should read it to collect the error.
    pub closed: bool,
}

/// Reusable readiness poller; `wait` fills `out` one entry per
/// interest, in order.
#[derive(Debug, Default)]
pub struct Poller {
    #[cfg(unix)]
    fds: Vec<sys::PollFd>,
}

impl Poller {
    /// A new poller with empty scratch space.
    pub fn new() -> Poller {
        Poller::default()
    }

    /// Blocks until any interest is ready or `timeout` elapses; fills
    /// `out` with one [`Readiness`] per interest (all-default on
    /// timeout) and returns how many interests woke.
    pub fn wait(
        &mut self,
        interests: &[Interest],
        timeout: Duration,
        out: &mut Vec<Readiness>,
    ) -> io::Result<usize> {
        out.clear();
        out.resize(interests.len(), Readiness::default());
        self.wait_impl(interests, timeout, out)
    }

    #[cfg(unix)]
    fn wait_impl(
        &mut self,
        interests: &[Interest],
        timeout: Duration,
        out: &mut [Readiness],
    ) -> io::Result<usize> {
        self.fds.clear();
        for it in interests {
            let mut events = 0i16;
            if it.read {
                events |= sys::POLLIN;
            }
            if it.write {
                events |= sys::POLLOUT;
            }
            self.fds.push(sys::PollFd {
                fd: it.fd,
                events,
                revents: 0,
            });
        }
        let n = sys::poll(&mut self.fds, timeout)?;
        for (slot, fd) in out.iter_mut().zip(&self.fds) {
            slot.readable = fd.revents & (sys::POLLIN | sys::POLLHUP) != 0;
            slot.writable = fd.revents & sys::POLLOUT != 0;
            slot.closed = fd.revents & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0;
        }
        Ok(n)
    }

    #[cfg(not(unix))]
    fn wait_impl(
        &mut self,
        interests: &[Interest],
        timeout: Duration,
        out: &mut [Readiness],
    ) -> io::Result<usize> {
        // Portable fallback: sleep briefly, then claim everything is
        // ready. Non-blocking sockets turn over-reporting into plain
        // `WouldBlock`s, so this is slow but correct.
        std::thread::sleep(timeout.min(Duration::from_millis(2)));
        for (slot, it) in out.iter_mut().zip(interests) {
            slot.readable = it.read;
            slot.writable = it.write;
        }
        Ok(interests.len())
    }
}

#[cfg(unix)]
mod sys {
    use std::io;
    use std::time::Duration;

    /// `struct pollfd` from `<poll.h>`, laid out exactly as the ABI
    /// demands.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    // Shared event bits across the unixes this workspace targets
    // (Linux, macOS, the BSDs all agree on these values).
    pub const POLLIN: i16 = 0x0001;
    pub const POLLOUT: i16 = 0x0004;
    pub const POLLERR: i16 = 0x0008;
    pub const POLLHUP: i16 = 0x0010;
    pub const POLLNVAL: i16 = 0x0020;

    #[cfg(target_os = "linux")]
    type NfdsT = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NfdsT = std::os::raw::c_uint;

    mod ffi {
        use super::{NfdsT, PollFd};
        extern "C" {
            pub fn poll(
                fds: *mut PollFd,
                nfds: NfdsT,
                timeout: std::os::raw::c_int,
            ) -> std::os::raw::c_int;
        }
    }

    /// Calls `poll(2)`; EINTR counts as a zero-ready wakeup (the event
    /// loop just recomputes its timeout and re-enters).
    pub fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        // Round a sub-millisecond timeout up so a short deadline never
        // degenerates into a zero-timeout busy spin.
        let mut millis = timeout.as_millis();
        if millis == 0 && !timeout.is_zero() {
            millis = 1;
        }
        let millis = millis.min(i32::MAX as u128) as std::os::raw::c_int;
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` pollfd structs; the pointer/length pair passed
        // matches it exactly, and poll(2) writes only within the slice
        // (the `revents` fields). No pointer escapes the call.
        let rc = unsafe { ffi::poll(fds.as_mut_ptr(), fds.len() as NfdsT, millis) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                for fd in fds.iter_mut() {
                    fd.revents = 0;
                }
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "the poller is tested on real sockets"
)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    #[cfg(unix)]
    use std::os::unix::io::AsRawFd;
    use std::time::Duration;

    #[cfg(unix)]
    fn fd_of<T: AsRawFd>(s: &T) -> i32 {
        s.as_raw_fd()
    }

    #[cfg(not(unix))]
    fn fd_of<T>(_s: &T) -> i32 {
        0
    }

    #[test]
    fn readable_after_peer_writes_and_timeout_when_idle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();

        let mut poller = Poller::new();
        let mut out = Vec::new();
        let interests = [Interest {
            fd: fd_of(&rx),
            read: true,
            write: false,
        }];

        // Idle: the wait must come back (timeout), not hang.
        poller
            .wait(&interests, Duration::from_millis(10), &mut out)
            .unwrap();

        tx.write_all(b"ping").unwrap();
        tx.flush().unwrap();
        // Ready: a bounded number of waits must report readable.
        let mut readable = false;
        for _ in 0..100 {
            poller
                .wait(&interests, Duration::from_millis(50), &mut out)
                .unwrap();
            if out.first().is_some_and(|r| r.readable) {
                readable = true;
                break;
            }
        }
        assert!(readable, "peer bytes never reported readable");
        let mut buf = [0u8; 16];
        #[expect(
            clippy::disallowed_methods,
            reason = "test-only readback proving the readiness report was truthful; production \
                      reads go through protocol::FrameBuffer"
        )]
        let n = rx.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
    }

    #[test]
    fn write_interest_reports_writable_on_a_fresh_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let tx = TcpStream::connect(addr).unwrap();
        let (_rx, _) = listener.accept().unwrap();
        let mut poller = Poller::new();
        let mut out = Vec::new();
        poller
            .wait(
                &[Interest {
                    fd: fd_of(&tx),
                    read: false,
                    write: true,
                }],
                Duration::from_millis(100),
                &mut out,
            )
            .unwrap();
        assert!(out.first().is_some_and(|r| r.writable));
    }
}
