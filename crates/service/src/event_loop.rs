//! The serving loop: one thread multiplexing every connection over
//! non-blocking sockets, driven by readiness.
//!
//! Connections are state machines, not threads. Each one owns an
//! incremental [`LineFramer`](crate::framing::LineFramer) for reads, an
//! in-order response queue (*slots*), and a pending write buffer. A
//! single wake-up drains **all** complete frames a connection has
//! buffered (pipelined batching), routes each through
//! [`route`](crate::server), and queues the responses strictly in
//! request order — a later request answered early (a cache hit behind a
//! slow miss) waits in its slot until everything ahead of it is on the
//! wire.
//!
//! Division of labour: control ops (`ping`, `metrics`, `prepare`, …)
//! are answered inline on the loop thread; `query` work is submitted to
//! the admission [`Pool`](crate::admission::Pool) — a full queue is
//! answered `overloaded` on the spot — and the worker hands the
//! formatted response back through a completion queue, waking the loop
//! via a self-pipe. Deadlines are enforced by the loop: the poll timeout
//! is the nearest pending deadline, and an expired slot is answered with
//! `deadline_exceeded` (a late worker result for an already-answered
//! slot is dropped).
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
use std::time::Instant;

const LISTENER: u64 = 0;
const WAKER: u64 = 1;
const FIRST_CONN: u64 = 2;

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
    /// Stop reading and close once every queued response is flushed
    /// (protocol violation, invalid UTF-8, or shutdown).
    close_after_flush: bool,
    /// Whether the poller currently watches this socket for writability.
    wants_write: bool,
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
            close_after_flush: false,
            wants_write: false,
        }
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
            let timeout = self
                .conns
                .values()
                .filter_map(Conn::next_deadline)
                .min()
                .map(|d| d.saturating_duration_since(Instant::now()));
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
            self.apply_completions();
            self.expire_deadlines();
            // A slot may have become `Ready` for any connection (via a
            // completion or an expiry), so give each a flush chance.
            let ids: Vec<u64> = self.conns.keys().copied().collect();
            for id in ids {
                if !self.flush_conn(id) {
                    dead.push(id);
                }
            }
            dead.sort_unstable();
            dead.dedup();
            let mut stop_now = false;
            for id in dead {
                self.close_conn(id);
                if self.shutdown_conn == Some(id) {
                    stop_now = true;
                }
            }
            // Counter bumps made on the loop thread (serve.requests,
            // shed, deadline_exceeded) become globally visible no later
            // than the responses that reported them.
            obs::flush_local();
            if stop_now {
                return Ok(());
            }
        }
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

    /// Reads and processes everything a connection has for us. Returns
    /// `false` when the connection should be torn down now.
    fn handle_conn_event(&mut self, id: u64, ev: Event) -> bool {
        if ev.readable || ev.hangup {
            let conn = self.conns.get_mut(&id).expect("checked by caller");
            let buf = &mut self.read_buf;
            loop {
                match conn.stream.read(buf) {
                    Ok(0) => {
                        // Peer closed. Anything unflushed has no reader
                        // worth waiting for; pending worker results are
                        // dropped on completion (the conn id is gone).
                        return false;
                    }
                    Ok(n) => {
                        if conn.close_after_flush {
                            continue; // discard: already closing
                        }
                        if conn.framer.push(&buf[..n]).is_err() {
                            let e = ServeError::BadRequest(format!(
                                "request line exceeds {} bytes",
                                self.shared.max_frame_bytes
                            ));
                            conn.slots
                                .push_back(Slot::Ready(server::error_response(&e)));
                            conn.close_after_flush = true;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return false,
                }
            }
            self.process_frames(id);
        }
        true
    }

    /// Drains every complete frame the connection has buffered — the
    /// pipelined batch — and queues one response slot per request.
    fn process_frames(&mut self, id: u64) {
        loop {
            let conn = match self.conns.get_mut(&id) {
                Some(c) => c,
                None => return,
            };
            if conn.close_after_flush {
                return;
            }
            let frame = match conn.framer.next_frame() {
                Some(f) => f,
                None => return,
            };
            let line = match String::from_utf8(frame) {
                Ok(l) => l,
                Err(_) => {
                    let e = ServeError::BadRequest("request line is not valid UTF-8".into());
                    conn.slots
                        .push_back(Slot::Ready(server::error_response(&e)));
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
                        c.slots.push_back(Slot::Ready(resp));
                    }
                }
                Routed::Shutdown(resp) => {
                    if let Some(c) = self.conns.get_mut(&id) {
                        c.slots.push_back(Slot::Ready(resp));
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
                        *c.slots.back_mut().expect("just pushed") =
                            Slot::Ready(server::error_response(&ServeError::Overloaded));
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
            if let Some(slot) = conn
                .slots
                .iter_mut()
                .find(|s| matches!(s, Slot::Pending { seq: have, .. } if *have == seq))
            {
                *slot = Slot::Ready(resp);
            }
        }
    }

    /// Answers every expired pending slot with `deadline_exceeded` and
    /// counts it (`serve.deadline_exceeded`).
    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        for conn in self.conns.values_mut() {
            for slot in conn.slots.iter_mut() {
                if let Slot::Pending { deadline, .. } = slot {
                    if *deadline <= now {
                        obs::add(obs::Counter::ServeDeadlineExceeded, 1);
                        *slot = Slot::Ready(server::error_response(&ServeError::DeadlineExceeded));
                    }
                }
            }
        }
    }

    /// Moves ready head slots onto the wire. Returns `false` when the
    /// connection is finished (flushed its goodbye, or the peer broke).
    fn flush_conn(&mut self, id: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&id) else {
            return true;
        };
        loop {
            while matches!(conn.slots.front(), Some(Slot::Ready(_))) {
                if let Some(Slot::Ready(resp)) = conn.slots.pop_front() {
                    conn.write_buf.extend_from_slice(resp.as_bytes());
                    conn.write_buf.push(b'\n');
                }
            }
            if conn.write_pos == conn.write_buf.len() {
                conn.write_buf.clear();
                conn.write_pos = 0;
                if conn.close_after_flush && conn.slots.is_empty() {
                    return false;
                }
                break;
            }
            match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                Ok(0) => return false,
                Ok(n) => conn.write_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        // Watch for writability only while bytes are stuck; waking on
        // an always-writable socket would spin the loop.
        let needs_write = conn.write_pos < conn.write_buf.len();
        if needs_write != conn.wants_write {
            let interest = if needs_write {
                Interest::READ_WRITE
            } else {
                Interest::READ
            };
            if self
                .poller
                .register(conn.stream.as_raw_fd(), id, interest)
                .is_ok()
            {
                let conn = self.conns.get_mut(&id).expect("still present");
                conn.wants_write = needs_write;
            }
        }
        true
    }

    fn close_conn(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
        }
    }
}
