//! A minimal readiness-polling abstraction over raw OS primitives.
//!
//! The workspace is dependency-free, so this is the "tiny shim" layer:
//! on Linux a level-triggered **epoll** instance driven through the
//! C ABI that `std` already links (`epoll_create1`/`epoll_ctl`/
//! `epoll_wait`); on other Unixes a **poll(2)** set rebuilt per wait
//! (compiled, and tested, on Linux too, so it cannot rot unseen).
//! Both expose the same [`Poller`] surface: register a file descriptor
//! with a `u64` token and an interest set, wait for readiness events,
//! get `(token, readable, writable, hangup)` tuples back.
//!
//! Level-triggered semantics everywhere: an event keeps firing while the
//! condition holds, so the event loop may process a bounded amount per
//! wake-up (fairness across connections) and rely on being woken again
//! for the remainder.

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
    /// Error/hangup condition; the owner should read to observe it.
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
pub use linux::Poller;

#[cfg(all(unix, not(target_os = "linux")))]
pub use posix::Poller;

/// Linux: one epoll instance for the lifetime of the poller.
#[cfg(target_os = "linux")]
mod linux {
    use super::{Event, Interest};
    use std::io;
    use std::os::raw::c_int;
    use std::time::Duration;

    // The kernel packs `struct epoll_event` on x86-64 only.
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0o2000000;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP;
        if interest.readable {
            m |= EPOLLIN;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }

    /// A level-triggered epoll instance.
    pub struct Poller {
        epfd: c_int,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        /// Creates the epoll instance (close-on-exec).
        pub fn new() -> io::Result<Poller> {
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Poller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        /// Starts watching `fd` under `token`.
        pub fn register(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) }).map(drop)
        }

        /// Changes the interest set of a watched descriptor.
        pub fn modify(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_MOD, fd, &mut ev) }).map(drop)
        }

        /// Stops watching a descriptor (must happen before the fd closes).
        pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(drop)
        }

        /// Blocks until readiness or `timeout` (`None` = indefinitely);
        /// appends events to `out` and returns how many arrived.
        pub fn wait(
            &mut self,
            out: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let timeout_ms: c_int = match timeout {
                None => -1,
                // Round up so a 100µs deadline doesn't busy-spin at 0ms.
                Some(d) => c_int::try_from(d.as_millis().saturating_add(1).min(i32::MAX as u128))
                    .unwrap_or(i32::MAX),
            };
            let n = loop {
                let n = unsafe {
                    epoll_wait(
                        self.epfd,
                        self.buf.as_mut_ptr(),
                        self.buf.len() as c_int,
                        timeout_ms,
                    )
                };
                if n >= 0 {
                    break n as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for ev in &self.buf[..n] {
                let events = ev.events;
                out.push(Event {
                    token: ev.data,
                    readable: events & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: events & EPOLLOUT != 0,
                    hangup: events & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(n)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.epfd);
            }
        }
    }
}

/// Non-Linux Unix: a poll(2) set rebuilt on every wait. O(n) per wake,
/// which is fine at the connection counts the fallback targets. Linux
/// compiles it for its tests only.
#[cfg(unix)]
#[cfg_attr(target_os = "linux", allow(dead_code))]
mod posix {
    use super::{Event, Interest};
    use std::collections::HashMap;
    use std::io;
    use std::os::raw::{c_int, c_short};
    use std::time::Duration;

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

    /// A poll(2)-backed poller.
    pub struct Poller {
        watched: HashMap<i32, (u64, Interest)>,
    }

    impl Poller {
        /// Creates an empty poll set.
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                watched: HashMap::new(),
            })
        }

        /// Starts watching `fd` under `token`.
        pub fn register(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            self.watched.insert(fd, (token, interest));
            Ok(())
        }

        /// Changes the interest set of a watched descriptor.
        pub fn modify(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            self.watched.insert(fd, (token, interest));
            Ok(())
        }

        /// Stops watching a descriptor.
        pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
            self.watched.remove(&fd);
            Ok(())
        }

        /// Blocks until readiness or `timeout` (`None` = indefinitely).
        pub fn wait(
            &mut self,
            out: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let mut fds: Vec<PollFd> = self
                .watched
                .iter()
                .map(|(&fd, &(_, interest))| PollFd {
                    fd,
                    events: if interest.readable { POLLIN } else { 0 }
                        | if interest.writable { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            let timeout_ms: c_int = match timeout {
                None => -1,
                Some(d) => c_int::try_from(d.as_millis().saturating_add(1).min(i32::MAX as u128))
                    .unwrap_or(i32::MAX),
            };
            let n = loop {
                let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, timeout_ms) };
                if n >= 0 {
                    break n as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for pfd in fds.iter().filter(|p| p.revents != 0) {
                let (token, _) = self.watched[&pfd.fd];
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
}

#[cfg(all(test, unix))]
mod tests {
    /// The poller contract, held against one backend.
    macro_rules! poller_tests {
        ($backend:ident) => {
            mod $backend {
                use crate::poll::{$backend::Poller, Interest};
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
            }
        };
    }

    #[cfg(target_os = "linux")]
    poller_tests!(linux);
    poller_tests!(posix);
}
