//! A minimal readiness-polling abstraction over raw OS primitives.
//!
//! The workspace is dependency-free, so this is the "tiny shim" layer:
//! one **poll(2)** set driven through the C ABI that `std` already links,
//! on every Unix. [`Poller`] registers a file descriptor with a `u64`
//! token and an interest set, waits for readiness events, and hands back
//! `(token, readable, writable, hangup)` tuples. The `pollfd` array is
//! kept between waits and edited in place by `register`/`deregister`,
//! so a wait is one syscall over it. Every operation is O(n) in the
//! watched descriptors, which is fine at the connection counts one event
//! loop serves.
//!
//! Level-triggered semantics: an event keeps firing while the
//! condition holds, so the event loop may process a bounded amount per
//! wake-up (fairness across connections) and rely on being woken again
//! for the remainder.

use std::io;
use std::os::raw::{c_int, c_short};
use std::time::Duration;

/// What to watch a descriptor for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the descriptor is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest (a connection flushing a response).
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// The descriptor has bytes to read (or EOF to observe).
    pub readable: bool,
    /// The descriptor can accept writes.
    pub writable: bool,
    /// Error/hangup condition: for a TCP socket, nothing written to it
    /// reaches the peer any more.
    pub hangup: bool,
}

/// `nfds_t`: `unsigned long` on Linux, `unsigned int` elsewhere.
#[cfg(target_os = "linux")]
type NFds = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NFds = std::os::raw::c_uint;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
}

fn mask(interest: Interest) -> c_short {
    (if interest.readable { POLLIN } else { 0 }) | if interest.writable { POLLOUT } else { 0 }
}

/// A poll(2)-backed poller.
pub struct Poller {
    /// The array handed to `poll(2)`, one entry per watched descriptor.
    fds: Vec<PollFd>,
    /// `tokens[i]` is the token `fds[i]` was registered with.
    tokens: Vec<u64>,
}

impl Poller {
    /// Creates an empty poll set.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            fds: Vec::new(),
            tokens: Vec::new(),
        })
    }

    fn slot(&self, fd: i32) -> Option<usize> {
        self.fds.iter().position(|p| p.fd == fd)
    }

    /// Starts watching `fd` under `token`, or replaces the token and
    /// interest set it is watched with.
    pub fn register(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        let events = mask(interest);
        match self.slot(fd) {
            Some(i) => (self.fds[i].events, self.tokens[i]) = (events, token),
            None => {
                self.fds.push(PollFd {
                    fd,
                    events,
                    revents: 0,
                });
                self.tokens.push(token);
            }
        }
        Ok(())
    }

    /// Stops watching a descriptor.
    pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
        if let Some(i) = self.slot(fd) {
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
        }
        Ok(())
    }

    /// Blocks until readiness or `timeout` (`None` = indefinitely);
    /// appends events to `out` and returns how many arrived.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms: c_int = match timeout {
            None => -1,
            // Round up so a 100µs deadline doesn't busy-spin at 0ms; only
            // a zero wait is a poll that does not sleep.
            Some(d) => c_int::try_from(d.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX),
        };
        let n = loop {
            // SAFETY: `fds` is an exclusively borrowed, initialised array
            // of `fds.len()` `repr(C)` `struct pollfd`s that outlives the
            // call; the kernel writes only their `revents`.
            let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as NFds, timeout_ms) };
            if n >= 0 {
                break n as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        let ready = self.fds.iter().zip(&self.tokens);
        for (pfd, &token) in ready.filter(|(p, _)| p.revents != 0) {
            out.push(Event {
                token,
                readable: pfd.revents & (POLLIN | POLLHUP) != 0,
                writable: pfd.revents & POLLOUT != 0,
                hangup: pfd.revents & (POLLERR | POLLHUP) != 0,
            });
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::{Interest, Poller};
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    #[test]
    fn pipe_readability_round_trip() {
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "nothing written yet");

        a.write_all(b"x").unwrap();
        a.flush().unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(n >= 1);
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        poller.deregister(b.as_raw_fd()).unwrap();
        events.clear();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "deregistered descriptors never fire");
    }

    #[test]
    fn hangup_is_reported_readable() {
        let (a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 1, Interest::READ).unwrap();
        drop(a);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.readable || e.hangup),
            "peer close must wake the poller: {events:?}"
        );
    }

    #[test]
    fn deregistering_keeps_the_other_descriptors_and_their_tokens() {
        let pairs: Vec<_> = (0..3).map(|_| UnixStream::pair().unwrap()).collect();
        let mut poller = Poller::new().unwrap();
        for (token, (a, b)) in (0..).zip(&pairs) {
            poller
                .register(b.as_raw_fd(), token, Interest::READ)
                .unwrap();
            (&*a).write_all(b"x").unwrap();
        }
        // The last entry moves into the first one's place.
        poller.deregister(pairs[0].1.as_raw_fd()).unwrap();
        let fd = pairs[2].1.as_raw_fd();
        poller.register(fd, 20, Interest::READ_WRITE).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let seen: Vec<_> = events.iter().map(|e| (e.token, e.writable)).collect();
        assert_eq!(seen, [(20, true), (1, false)]);
    }
}
