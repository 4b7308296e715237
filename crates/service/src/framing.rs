//! Incremental JSON-lines framing for the event-loop server.
//!
//! A connection delivers bytes in arbitrary chunks — a frame boundary
//! (`\n`) can land anywhere, including mid-UTF-8-sequence or mid-escape.
//! [`LineFramer`] buffers exactly the unterminated tail and yields each
//! complete line as it closes, so the byte-chunking of the transport is
//! invisible to the protocol layer: any split of a request stream
//! reassembles to the same frame sequence as whole-frame delivery
//! (pinned by the `framing_prop` proptest suite).
//!
//! Memory is bounded: a line that grows past `max_frame` bytes without a
//! terminator is a protocol violation ([`FrameError::Oversized`]) — the
//! caller reports it and drops the connection, so a slow-loris peer
//! dribbling an endless frame can never hold more than `max_frame`
//! buffered bytes.

/// Why the framer rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A single line exceeded the configured maximum frame size.
    Oversized {
        /// The configured limit the line overran.
        limit: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { limit } => {
                write!(f, "frame exceeds the {limit}-byte limit")
            }
        }
    }
}

/// An incremental splitter of a byte stream into `\n`-terminated frames.
///
/// Feed chunks with [`LineFramer::push`], then drain complete frames
/// with [`LineFramer::next_frame`]. Bytes after the last terminator stay
/// buffered (the *tail*, bounded by `max_frame`) until a later chunk
/// completes them.
#[derive(Debug)]
pub struct LineFramer {
    buf: Vec<u8>,
    /// Start of the first undelivered frame within `buf`.
    start: usize,
    /// Length of the unterminated tail (bytes after the last `\n` seen).
    tail_len: usize,
    max_frame: usize,
    /// Set once a frame overruns; the framer yields nothing afterwards.
    poisoned: bool,
}

impl LineFramer {
    /// A framer holding at most `max_frame` bytes in any single line.
    pub fn new(max_frame: usize) -> LineFramer {
        LineFramer {
            buf: Vec::new(),
            start: 0,
            tail_len: 0,
            max_frame: max_frame.max(1),
            poisoned: false,
        }
    }

    /// Appends a chunk of received bytes.
    ///
    /// Returns [`FrameError::Oversized`] when the current line (the
    /// unterminated tail including this chunk) exceeds `max_frame`; the
    /// connection should be torn down — subsequent calls keep failing
    /// and buffer nothing further.
    pub fn push(&mut self, chunk: &[u8]) -> Result<(), FrameError> {
        if self.poisoned {
            return Err(FrameError::Oversized {
                limit: self.max_frame,
            });
        }
        match chunk.iter().rposition(|&b| b == b'\n') {
            Some(last) => self.tail_len = chunk.len() - (last + 1),
            None => self.tail_len += chunk.len(),
        }
        if self.tail_len > self.max_frame {
            self.poisoned = true;
            self.buf.clear();
            self.start = 0;
            return Err(FrameError::Oversized {
                limit: self.max_frame,
            });
        }
        self.buf.extend_from_slice(chunk);
        Ok(())
    }

    /// Pops the next complete frame (without its terminator), or `None`
    /// when no full line is buffered yet.
    pub fn next_frame(&mut self) -> Option<Vec<u8>> {
        if self.poisoned {
            return None;
        }
        let rel = self.buf[self.start..].iter().position(|&b| b == b'\n')?;
        let end = self.start + rel;
        let frame = self.buf[self.start..end].to_vec();
        self.start = end + 1;
        // Compact once the delivered prefix dominates the buffer, so a
        // long-lived pipelined connection doesn't grow without bound.
        if self.start > 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Some(frame)
    }

    /// Whether a complete frame is buffered: [`LineFramer::next_frame`]
    /// would return one.
    pub fn has_frame(&self) -> bool {
        !self.poisoned && self.buffered() > self.tail_len
    }

    /// Bytes currently buffered (undelivered frames plus the tail).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(f: &mut LineFramer) -> Vec<String> {
        let mut out = Vec::new();
        while let Some(fr) = f.next_frame() {
            out.push(String::from_utf8(fr).unwrap());
        }
        out
    }

    #[test]
    fn whole_frames_pass_through() {
        let mut f = LineFramer::new(1024);
        f.push(b"{\"op\":\"ping\"}\n{\"op\":\"metrics\"}\n")
            .unwrap();
        assert_eq!(
            frames(&mut f),
            vec!["{\"op\":\"ping\"}", "{\"op\":\"metrics\"}"]
        );
        assert_eq!(f.buffered(), 0);
    }

    #[test]
    fn split_anywhere_reassembles() {
        let stream = b"{\"op\":\"ping\"}\n{\"oql\":\"\xc3\xa9\"}\n";
        for cut in 0..stream.len() {
            let mut f = LineFramer::new(1024);
            f.push(&stream[..cut]).unwrap();
            let mut got = frames(&mut f);
            f.push(&stream[cut..]).unwrap();
            got.extend(frames(&mut f));
            assert_eq!(
                got,
                vec!["{\"op\":\"ping\"}", "{\"oql\":\"\u{e9}\"}"],
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn partial_tail_stays_buffered() {
        let mut f = LineFramer::new(1024);
        f.push(b"{\"op\":\"pi").unwrap();
        assert!(!f.has_frame());
        assert_eq!(f.next_frame(), None);
        assert_eq!(f.buffered(), 9);
        f.push(b"ng\"}\n{\"op").unwrap();
        assert!(f.has_frame());
        assert_eq!(frames(&mut f), vec!["{\"op\":\"ping\"}"]);
        assert!(!f.has_frame(), "a tail alone is no frame");
    }

    #[test]
    fn oversized_line_poisons() {
        let mut f = LineFramer::new(8);
        f.push(b"ok\n").unwrap();
        assert_eq!(frames(&mut f), vec!["ok"]);
        assert!(f.push(b"123456789").is_err(), "nine bytes, limit eight");
        assert_eq!(f.next_frame(), None);
        assert!(f.push(b"\n").is_err(), "poisoned framers stay failed");
        assert_eq!(f.buffered(), 0, "poisoning releases the buffer");
    }

    #[test]
    fn oversized_tail_across_pushes() {
        let mut f = LineFramer::new(8);
        f.push(b"12345").unwrap();
        f.push(b"678").unwrap();
        assert!(f.push(b"9").is_err());
    }

    #[test]
    fn newline_resets_the_tail_budget() {
        let mut f = LineFramer::new(8);
        // Each line is small; the stream is much longer than the limit.
        for _ in 0..100 {
            f.push(b"1234567\n").unwrap();
        }
        assert_eq!(frames(&mut f).len(), 100);
    }

    #[test]
    fn compaction_preserves_pending_frames() {
        let mut f = LineFramer::new(64);
        let line = b"abcdefghijklmnopqrstuvwxyz012345\n"; // 33 bytes
        for _ in 0..300 {
            f.push(line).unwrap();
        }
        let got = frames(&mut f);
        assert_eq!(got.len(), 300);
        assert!(got.iter().all(|l| l == "abcdefghijklmnopqrstuvwxyz012345"));
        assert_eq!(f.buffered(), 0);
    }
}
