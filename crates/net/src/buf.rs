//! Per-connection line buffers for the readiness-driven daemon.
//!
//! [`LineReader`] accumulates nonblocking reads and yields complete
//! newline-terminated lines under a byte cap: a line longer than the
//! cap is reported once as [`LineEvent::Oversize`], after which the
//! reader silently discards bytes until the offending line's newline
//! (the caller then answers `too_large` and closes).
//!
//! [`WriteBuf`] queues response bytes and flushes as far as the socket
//! allows, retaining the unwritten tail for the next writable edge.

use std::io::{self, Read, Write};

/// One decoded read event.
#[derive(Debug, PartialEq, Eq)]
pub enum LineEvent {
    /// A complete line, without its trailing newline.
    Line(String),
    /// The line under construction exceeded the cap.
    Oversize,
    /// The line bytes were not valid UTF-8.
    InvalidUtf8,
}

/// Accumulates bytes into newline-delimited lines, capped at
/// `max_line_bytes` per line.
#[derive(Debug)]
pub struct LineReader {
    buf: Vec<u8>,
    max_line_bytes: usize,
    /// Discarding until the next newline after an oversize line.
    skipping: bool,
    /// Peer sent EOF.
    eof: bool,
}

impl LineReader {
    /// A reader enforcing `max_line_bytes` per line.
    pub fn new(max_line_bytes: usize) -> LineReader {
        LineReader {
            buf: Vec::new(),
            max_line_bytes,
            skipping: false,
            eof: false,
        }
    }

    /// Reads from `src` until `WouldBlock` or EOF, returning decoded
    /// events in arrival order. An `Err` is a real transport error.
    pub fn fill(&mut self, src: &mut impl Read) -> io::Result<Vec<LineEvent>> {
        let mut events = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match src.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => self.ingest(&chunk[..n], &mut events),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(events)
    }

    fn ingest(&mut self, mut bytes: &[u8], events: &mut Vec<LineEvent>) {
        while !bytes.is_empty() {
            match bytes.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    let (head, rest) = bytes.split_at(nl + 1);
                    if self.skipping {
                        self.skipping = false;
                        self.buf.clear();
                    } else {
                        self.buf.extend_from_slice(&head[..nl]);
                        events.push(self.take_line());
                    }
                    bytes = rest;
                }
                None => {
                    if !self.skipping {
                        self.buf.extend_from_slice(bytes);
                        if self.buf.len() > self.max_line_bytes {
                            events.push(LineEvent::Oversize);
                            self.buf.clear();
                            self.skipping = true;
                        }
                    }
                    return;
                }
            }
        }
    }

    fn take_line(&mut self) -> LineEvent {
        let raw = std::mem::take(&mut self.buf);
        if raw.len() > self.max_line_bytes {
            return LineEvent::Oversize;
        }
        match String::from_utf8(raw) {
            Ok(mut line) => {
                // Match BufRead::read_line callers that trim a CR.
                if line.ends_with('\r') {
                    line.pop();
                }
                LineEvent::Line(line)
            }
            Err(_) => LineEvent::InvalidUtf8,
        }
    }

    /// `true` once the peer has sent EOF (no more lines will arrive).
    pub fn at_eof(&self) -> bool {
        self.eof
    }

    /// `true` while discarding the remainder of an oversize line. The
    /// daemon waits for the skip to finish before hanging up, so the
    /// close never races bytes the client is still sending (which would
    /// turn the error response into a connection reset).
    pub fn is_skipping(&self) -> bool {
        self.skipping
    }

    /// Bytes currently buffered for the line under construction.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }
}

/// Buffered nonblocking writes with partial-write carry-over.
#[derive(Debug, Default)]
pub struct WriteBuf {
    buf: Vec<u8>,
    cursor: usize,
}

impl WriteBuf {
    /// An empty buffer.
    pub fn new() -> WriteBuf {
        WriteBuf::default()
    }

    /// Queues `bytes` for transmission.
    pub fn queue(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes as much queued data as `dst` accepts. Returns `true`
    /// when the buffer drained completely; `false` means the socket
    /// blocked and the caller should wait for a writable edge.
    pub fn flush(&mut self, dst: &mut impl Write) -> io::Result<bool> {
        while self.cursor < self.buf.len() {
            match dst.write(&self.buf[self.cursor..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.cursor += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.cursor = 0;
        Ok(true)
    }

    /// `true` when nothing is waiting to be written.
    pub fn is_empty(&self) -> bool {
        self.cursor >= self.buf.len()
    }

    /// Unsent bytes.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Read that yields scripted chunks then WouldBlock.
    struct Script(Vec<Vec<u8>>);
    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.first() {
                None => Err(io::Error::from(io::ErrorKind::WouldBlock)),
                Some(chunk) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    let rest = chunk[n..].to_vec();
                    if rest.is_empty() {
                        self.0.remove(0);
                    } else {
                        self.0[0] = rest;
                    }
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn split_lines_across_chunks() {
        let mut r = LineReader::new(64);
        let events = r
            .fill(&mut Script(vec![
                b"hel".to_vec(),
                b"lo\nwor".to_vec(),
                b"ld\npartial".to_vec(),
            ]))
            .unwrap();
        assert_eq!(
            events,
            vec![
                LineEvent::Line("hello".into()),
                LineEvent::Line("world".into())
            ]
        );
        assert_eq!(r.pending_bytes(), "partial".len());
        let events = r.fill(&mut Script(vec![b"!\n".to_vec()])).unwrap();
        assert_eq!(events, vec![LineEvent::Line("partial!".into())]);
    }

    #[test]
    fn oversize_reported_once_then_skipped_to_newline() {
        let mut r = LineReader::new(8);
        let events = r
            .fill(&mut Script(vec![b"0123456789abcdef".to_vec()]))
            .unwrap();
        assert_eq!(events, vec![LineEvent::Oversize]);
        // The rest of the long line is discarded; the next line parses.
        let events = r
            .fill(&mut Script(vec![b"stillthesameline\nok\n".to_vec()]))
            .unwrap();
        assert_eq!(events, vec![LineEvent::Line("ok".into())]);
    }

    #[test]
    fn oversize_detected_at_the_newline_too() {
        // A 9-byte line arriving in one chunk with its newline: the cap
        // check at line completion must still reject it.
        let mut r = LineReader::new(8);
        let events = r.fill(&mut Script(vec![b"012345678\n".to_vec()])).unwrap();
        assert_eq!(events, vec![LineEvent::Oversize]);
    }

    #[test]
    fn invalid_utf8_is_its_own_event() {
        let mut r = LineReader::new(64);
        let events = r
            .fill(&mut Script(vec![
                vec![0xFF, 0xFE, b'{', b'\n'],
                b"ok\n".to_vec(),
            ]))
            .unwrap();
        assert_eq!(
            events,
            vec![LineEvent::InvalidUtf8, LineEvent::Line("ok".into())]
        );
    }

    #[test]
    fn write_buf_carries_partial_writes() {
        struct Choked(Vec<u8>, usize);
        impl Write for Choked {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.1 == 0 {
                    return Err(io::Error::from(io::ErrorKind::WouldBlock));
                }
                let n = buf.len().min(self.1);
                self.0.extend_from_slice(&buf[..n]);
                self.1 -= n;
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut w = WriteBuf::new();
        w.queue(b"hello world\n");
        let mut dst = Choked(Vec::new(), 4);
        assert!(!w.flush(&mut dst).unwrap());
        assert_eq!(w.pending_bytes(), 8);
        dst.1 = usize::MAX;
        assert!(w.flush(&mut dst).unwrap());
        assert_eq!(dst.0, b"hello world\n");
        assert!(w.is_empty());
    }
}
