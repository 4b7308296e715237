//! The serving loop: one thread multiplexing every connection over
//! non-blocking sockets, driven by readiness.
//!
//! Connections are state machines, not threads. Each one owns an
//! incremental [`LineFramer`](crate::framing::LineFramer) for reads, an
//! in-order response queue (*slots*), and a pending write buffer. A
//! wake-up routes the complete frames a connection has buffered
//! (pipelined batching), up to [`FRAMES_PER_TURN`] of them, through
//! [`route`](crate::server), and queues the responses strictly in
//! request order — a later request answered early (a cache hit behind a
//! slow miss) waits in its slot until everything ahead of it is on the
//! wire.
//!
//! Division of labour: the loop answers every request that cannot block
//! — control ops (`ping`, `metrics`, `prepare`, …), the writes (`create`,
//! `link`, `persist`), and a rewrite-only `query` whose exact text the
//! session's plan cache has finished, which is one probe and a copy of a
//! written report. Every other `query` is submitted to the admission
//! [`Pool`](crate::admission::Pool) — a full queue is answered
//! `overloaded` on the spot — and the worker hands the formatted
//! response back through a completion queue, waking the loop via a
//! self-pipe. A panic in anything the loop answers is answered
//! `internal_error`, as a worker's is. Deadlines are enforced by the
//! loop: the poll timeout is the nearest pending deadline, and an
//! expired slot is answered with `deadline_exceeded` (a late worker
//! result for an already-answered slot is dropped).
//!
//! Every connection gets bounded memory and a fair share of the loop:
//!
//! * a wake-up routes at most [`FRAMES_PER_TURN`] frames of one
//!   connection; frames left over are routed on the next turns, which
//!   poll without sleeping until none are left, and the connection is
//!   not read while it has any;
//! * a connection with more than [`MAX_UNSENT`] reply bytes produced and
//!   not yet written — a client that pipelines and does not read — is
//!   neither read nor routed until its peer has read enough.
//!
//! So a connection holds at most one read's worth of frames, a frame's
//! tail, and a few MiB of replies, whatever its peer does.
//!
//! End of input is not the end of a connection: a peer that shuts down
//! its write half (`printf … | nc -N`) gets every reply to what it sent,
//! in order, before the loop closes the socket.
//!
//! Nothing here blocks on a socket, so a slow-loris peer dribbling one
//! byte per minute costs one framer tail, never a worker thread, and a
//! fast client on the same server keeps its latency.

use crate::framing::LineFramer;
use crate::poll::{Event, Interest, Poller};
use crate::server::{self, Routed, Shared};
use crate::ServeError;
use sqo_obs as obs;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const LISTENER: u64 = 0;
const WAKER: u64 = 1;
const FIRST_CONN: u64 = 2;

/// Frames of one connection routed per wake-up: the default admission
/// queue's capacity, so a pipelined window that fits the queue is routed
/// in one turn.
const FRAMES_PER_TURN: usize = 64;

/// Reply bytes a connection may have produced and not yet written before
/// it is neither read nor routed: well above the largest pipelined
/// window a client waits on (32 replies of up to ~30 KB).
const MAX_UNSENT: usize = 4 << 20;

/// A worker-completed query: which connection, which slot, what bytes.
type Completion = (u64, u64, String);

/// Wakes the loop from a worker thread by writing one byte into the
/// self-pipe. A full pipe means wake-ups are already pending, so a
/// `WouldBlock` is success.
#[derive(Clone)]
struct Waker(Arc<UnixStream>);

impl Waker {
    fn wake(&self) {
        let _ = (&*self.0).write(&[1u8]);
    }
}

/// One response slot. Slots leave the queue front-first and only when
/// `Ready`, which is what guarantees in-order responses under
/// pipelining.
enum Slot {
    Ready(String),
    Pending { seq: u64, deadline: Instant },
}

struct Conn {
    stream: TcpStream,
    framer: LineFramer,
    slots: VecDeque<Slot>,
    write_buf: Vec<u8>,
    write_pos: usize,
    next_seq: u64,
    /// Reply bytes produced and not yet written: the `Ready` slots and
    /// the unwritten part of `write_buf`.
    unsent: usize,
    /// Stop reading and close once every queued response is flushed
    /// (protocol violation, invalid UTF-8, or shutdown).
    close_after_flush: bool,
    /// The peer shut down its write half: nothing more will arrive, and
    /// the connection closes once every reply to what did is written.
    read_closed: bool,
    /// What the poller currently watches this socket for.
    interest: Interest,
}

impl Conn {
    fn new(stream: TcpStream, max_frame: usize) -> Conn {
        Conn {
            stream,
            framer: LineFramer::new(max_frame),
            slots: VecDeque::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            next_seq: 0,
            unsent: 0,
            close_after_flush: false,
            read_closed: false,
            interest: Interest::READ,
        }
    }

    /// Queues an answered response behind every earlier one.
    fn push_ready(&mut self, resp: String) {
        self.unsent += resp.len() + 1;
        self.slots.push_back(Slot::Ready(resp));
    }

    /// Answers a pending slot in place.
    fn fill(&mut self, slot: usize, resp: String) {
        self.unsent += resp.len() + 1;
        self.slots[slot] = Slot::Ready(resp);
    }

    /// Whether the peer has left more replies unread than it may.
    fn backed_up(&self) -> bool {
        self.unsent > MAX_UNSENT
    }

    /// Whether a frame is buffered that this turn may route.
    fn routable(&self) -> bool {
        !self.close_after_flush && !self.backed_up() && self.framer.has_frame()
    }

    /// Whether to read the socket: not after end of input, and otherwise
    /// only once every buffered frame is routed and the replies are
    /// within bounds. A closing connection reads on to discard, so its
    /// goodbye is not cut short by a reset.
    fn wants_read(&self) -> bool {
        !self.read_closed
            && (self.close_after_flush || (!self.backed_up() && !self.framer.has_frame()))
    }

    /// Whether the connection has nothing left to do: every reply it
    /// owes is written and no request will follow.
    fn finished(&self) -> bool {
        let done_reading = self.close_after_flush || (self.read_closed && !self.framer.has_frame());
        done_reading && self.slots.is_empty() && self.write_pos == self.write_buf.len()
    }

    /// The nearest deadline among this connection's pending slots.
    fn next_deadline(&self) -> Option<Instant> {
        self.slots
            .iter()
            .filter_map(|s| match s {
                Slot::Pending { deadline, .. } => Some(*deadline),
                Slot::Ready(_) => None,
            })
            .min()
    }
}

struct Loop {
    shared: Arc<Shared>,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    completions: Arc<Mutex<Vec<Completion>>>,
    waker: Waker,
    wake_rx: UnixStream,
    /// The connection whose `shutdown` response ends the loop once
    /// flushed.
    shutdown_conn: Option<u64>,
    /// Scratch for socket reads, shared by all connections: the framer
    /// copies out what it keeps before the next read.
    read_buf: Box<[u8]>,
}

/// Runs the event loop until a `shutdown` request has been answered and
/// flushed (or the listener dies).
pub(crate) fn run(listener: TcpListener, shared: Arc<Shared>) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    let mut poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), LISTENER, Interest::READ)?;
    poller.register(wake_rx.as_raw_fd(), WAKER, Interest::READ)?;
    let mut lp = Loop {
        shared,
        poller,
        conns: HashMap::new(),
        next_id: FIRST_CONN,
        completions: Arc::new(Mutex::new(Vec::new())),
        waker: Waker(Arc::new(wake_tx)),
        wake_rx,
        shutdown_conn: None,
        read_buf: vec![0u8; 64 * 1024].into_boxed_slice(),
    };
    lp.serve(&listener)
}

impl Loop {
    fn serve(&mut self, listener: &TcpListener) -> std::io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        loop {
            // Frames left over from the last turn are routed without
            // waiting for the socket: level-triggered readiness would
            // not report them.
            let timeout = if self.conns.values().any(Conn::routable) {
                Some(Duration::ZERO)
            } else {
                self.conns
                    .values()
                    .filter_map(Conn::next_deadline)
                    .min()
                    .map(|d| d.saturating_duration_since(Instant::now()))
            };
            events.clear();
            self.poller.wait(&mut events, timeout)?;

            let mut dead: Vec<u64> = Vec::new();
            for &ev in &events {
                match ev.token {
                    LISTENER => self.accept_ready(listener),
                    WAKER => self.drain_waker(),
                    id => {
                        if self.conns.contains_key(&id) && !self.handle_conn_event(id, ev) {
                            dead.push(id);
                        }
                    }
                }
            }
            let mut stop_now = self.close_all(&mut dead);
            let ids: Vec<u64> = self.conns.keys().copied().collect();
            for &id in &ids {
                self.process_frames(id);
            }
            self.apply_completions();
            self.expire_deadlines();
            // What the loop counted for the replies it is about to write
            // (serve.requests, the answers it gave itself, shed,
            // deadline_exceeded) is visible before they are on the wire.
            obs::flush_local();
            // A slot may have become `Ready` for any connection (via a
            // completion or an expiry), so give each a flush chance.
            for id in ids {
                if !self.flush_conn(id) {
                    dead.push(id);
                }
            }
            stop_now |= self.close_all(&mut dead);
            if stop_now {
                return Ok(());
            }
        }
    }

    /// Closes every connection in `dead`, emptying it. Returns whether
    /// the `shutdown` connection was among them.
    fn close_all(&mut self, dead: &mut Vec<u64>) -> bool {
        let mut stop = false;
        for id in dead.drain(..) {
            if let Some(conn) = self.conns.remove(&id) {
                let _ = self.poller.deregister(conn.stream.as_raw_fd());
            }
            stop |= self.shutdown_conn == Some(id);
        }
        stop
    }

    fn accept_ready(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.stop.load(Ordering::Acquire) {
                        continue; // shutting down: accept-and-drop
                    }
                    // One small request line begets one small response
                    // line; letting Nagle hold either back couples the
                    // protocol to the peer's delayed-ACK timer (tens of
                    // ms per round trip on loopback).
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let id = self.next_id;
                    self.next_id += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), id, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns
                        .insert(id, Conn::new(stream, self.shared.max_frame_bytes));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock: fully drained
            }
        }
    }

    /// Takes one read's worth of bytes from a readable connection into
    /// its framer; routing them is the turn's next step. Returns `false`
    /// when the connection should be torn down now.
    fn handle_conn_event(&mut self, id: u64, ev: Event) -> bool {
        if ev.hangup {
            // Reset or failed: no reply can reach the peer any more, and
            // pending worker results are dropped on completion (the conn
            // id is gone).
            return false;
        }
        let conn = self.conns.get_mut(&id).expect("checked by caller");
        if !ev.readable || !conn.wants_read() {
            return true;
        }
        match conn.stream.read(&mut self.read_buf) {
            // End of input, not of the connection: what was read is
            // still routed and answered.
            Ok(0) => conn.read_closed = true,
            Ok(_) if conn.close_after_flush => {} // discard: already closing
            Ok(n) => {
                if conn.framer.push(&self.read_buf[..n]).is_err() {
                    let e = ServeError::BadRequest(format!(
                        "request line exceeds {} bytes",
                        self.shared.max_frame_bytes
                    ));
                    conn.push_ready(server::error_response(&e));
                    conn.close_after_flush = true;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(_) => return false,
        }
        true
    }

    /// Routes the connection's buffered frames, up to a turn's worth and
    /// while its replies are within bounds, queueing one response slot
    /// per request.
    fn process_frames(&mut self, id: u64) {
        for _ in 0..FRAMES_PER_TURN {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if !conn.routable() {
                return;
            }
            let Some(frame) = conn.framer.next_frame() else {
                return;
            };
            let line = match String::from_utf8(frame) {
                Ok(l) => l,
                Err(_) => {
                    let e = ServeError::BadRequest("request line is not valid UTF-8".into());
                    conn.push_ready(server::error_response(&e));
                    conn.close_after_flush = true;
                    return;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            // `route` can recurse into the registry/pool, so don't hold
            // a `conn` borrow across it.
            match server::route(&self.shared, &line) {
                Routed::Done(resp) => {
                    if let Some(c) = self.conns.get_mut(&id) {
                        c.push_ready(resp);
                    }
                }
                Routed::Shutdown(resp) => {
                    if let Some(c) = self.conns.get_mut(&id) {
                        c.push_ready(resp);
                        c.close_after_flush = true;
                    }
                    self.shutdown_conn = Some(id);
                    return;
                }
                Routed::Query(job) => {
                    let Some(c) = self.conns.get_mut(&id) else {
                        return;
                    };
                    let seq = c.next_seq;
                    c.next_seq += 1;
                    c.slots.push_back(Slot::Pending {
                        seq,
                        deadline: job.deadline,
                    });
                    let completions = Arc::clone(&self.completions);
                    let waker = self.waker.clone();
                    let admitted = server::submit_job(
                        &self.shared,
                        *job,
                        server::Reply::new(move |resp| {
                            // Make the worker's counter bumps visible
                            // before the response can hit the wire.
                            obs::flush_local();
                            completions
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .push((id, seq, resp));
                            waker.wake();
                        }),
                    );
                    if !admitted {
                        let c = self.conns.get_mut(&id).expect("just inserted");
                        let last = c.slots.len() - 1;
                        c.fill(last, server::error_response(&ServeError::Overloaded));
                    }
                }
            }
        }
    }

    /// Files worker results into their slots. A completion whose slot
    /// is gone (connection closed) or already `Ready` (deadline beat
    /// the worker) is dropped.
    fn apply_completions(&mut self) {
        let done: Vec<Completion> =
            std::mem::take(&mut *self.completions.lock().unwrap_or_else(|e| e.into_inner()));
        for (id, seq, resp) in done {
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            let pending = |s: &Slot| matches!(s, Slot::Pending { seq: have, .. } if *have == seq);
            if let Some(slot) = conn.slots.iter().position(pending) {
                conn.fill(slot, resp);
            }
        }
    }

    /// Answers every expired pending slot with `deadline_exceeded` and
    /// counts it (`serve.deadline_exceeded`).
    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        for conn in self.conns.values_mut() {
            for slot in 0..conn.slots.len() {
                if matches!(conn.slots[slot], Slot::Pending { deadline, .. } if deadline <= now) {
                    obs::add(obs::Counter::ServeDeadlineExceeded, 1);
                    conn.fill(slot, server::error_response(&ServeError::DeadlineExceeded));
                }
            }
        }
    }

    /// Moves ready head slots onto the wire and sets what the poller
    /// watches the socket for. Returns `false` when the connection is
    /// finished (flushed its goodbye or its last reply, or the peer
    /// broke).
    fn flush_conn(&mut self, id: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&id) else {
            return true;
        };
        // Drop what was written, so a peer that reads as fast as replies
        // are made never lets the buffer grow.
        if conn.write_pos * 2 >= conn.write_buf.len() {
            conn.write_buf.drain(..conn.write_pos);
            conn.write_pos = 0;
        }
        while let Some(Slot::Ready(_)) = conn.slots.front() {
            if let Some(Slot::Ready(resp)) = conn.slots.pop_front() {
                conn.write_buf.extend_from_slice(resp.as_bytes());
                conn.write_buf.push(b'\n');
            }
        }
        while conn.write_pos < conn.write_buf.len() {
            match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    conn.write_pos += n;
                    conn.unsent -= n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if conn.finished() {
            return false;
        }
        // Watch for writability only while bytes are stuck (waking on an
        // always-writable socket would spin the loop), and for input
        // only while it would be read.
        let interest = Interest {
            readable: conn.wants_read(),
            writable: conn.write_pos < conn.write_buf.len(),
        };
        if interest != conn.interest
            && self
                .poller
                .register(conn.stream.as_raw_fd(), id, interest)
                .is_ok()
        {
            conn.interest = interest;
        }
        true
    }
}
