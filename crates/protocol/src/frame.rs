//! Length-prefixed framing.
//!
//! Every message on the wire is one frame: a 4-byte big-endian payload
//! length followed by that many payload bytes. The length never includes
//! the header itself. Both sides enforce a maximum payload length so a
//! corrupt or hostile peer cannot make the other side allocate
//! arbitrarily much memory; an oversized header is a protocol error and
//! the connection should be closed.
//!
//! Sockets are read through a [`FrameReader`]: one buffer per
//! connection, every complete frame parsed out of whatever one `read`
//! returned. The server's connection reader, the client's request /
//! response calls and the change-stream reads all use it. The free
//! [`read_frame`] reads exactly one frame and never a byte beyond it; it
//! is for one-shot callers (tests, probes) that own no buffer.
//!
//! Frames are written two ways: [`write_frame`] sends a finished payload,
//! and [`append_frame`] encodes one in place at the end of a send buffer
//! (the server's replies, the client's requests).

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use mmdb_types::{Error, Result};

/// Size of the frame header in bytes.
pub const HEADER_LEN: usize = 4;

/// Default cap on a frame payload (16 MiB). Large enough for bulk query
/// results, small enough to bound per-connection memory.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Write one frame (header + payload) and flush.
///
/// Header and payload leave in one vectored write, so a `TCP_NODELAY`
/// socket sends one segment per frame instead of two.
pub fn write_frame(w: &mut impl Write, payload: &[u8], max_len: u32) -> Result<()> {
    if payload.len() > max_len as usize {
        return Err(Error::Protocol(format!(
            "outgoing frame of {} bytes exceeds the {} byte limit",
            payload.len(),
            max_len
        )));
    }
    let header = (payload.len() as u32).to_be_bytes();
    let mut sent = 0usize;
    while sent < HEADER_LEN {
        let parts = [IoSlice::new(&header[sent..]), IoSlice::new(payload)];
        match w.write_vectored(&parts) {
            Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero).into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    // A short vectored write ended inside the payload (or the writer
    // only takes the first slice): the rest goes the ordinary way.
    w.write_all(&payload[sent - HEADER_LEN..])?;
    w.flush()?;
    Ok(())
}

/// Append one frame to `buf`, its payload written in place by `encode`:
/// the header is reserved first and filled in once the payload's length
/// is known, so a message is encoded straight into a send buffer and
/// never copied. A payload longer than `max_len` is cut back off, which
/// leaves `buf` as it was, and its length is the `Err`.
pub fn append_frame(
    buf: &mut Vec<u8>,
    max_len: u32,
    encode: impl FnOnce(&mut Vec<u8>),
) -> std::result::Result<(), usize> {
    let start = buf.len();
    buf.extend_from_slice(&[0; HEADER_LEN]);
    encode(buf);
    let len = buf.len() - start - HEADER_LEN;
    if len > max_len as usize {
        buf.truncate(start);
        return Err(len);
    }
    buf[start..start + HEADER_LEN].copy_from_slice(&(len as u32).to_be_bytes());
    Ok(())
}

fn check_len(len: u32, max_len: u32) -> Result<usize> {
    if len > max_len {
        return Err(Error::Protocol(format!(
            "incoming frame announces {len} bytes, exceeding the {max_len} byte limit"
        )));
    }
    Ok(len as usize)
}

/// Read one frame's payload. Blocks until a full frame arrives.
///
/// Returns `Error::Protocol` when the announced length exceeds `max_len`
/// (the caller must close the connection: the stream position is inside
/// a frame that will never be read). I/O failures — including read
/// timeouts configured on the stream — surface as `Error::Storage` via
/// the `io::Error` conversion.
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<Vec<u8>> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let mut payload = vec![0u8; check_len(u32::from_be_bytes(header), max_len)?];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Drop `buf`'s contents and give back whatever it grew beyond
/// `idle_capacity`: a connection that carried one large message must not
/// keep a large buffer while it sits idle.
pub fn release(buf: &mut Vec<u8>, idle_capacity: usize) {
    buf.clear();
    buf.shrink_to(idle_capacity);
}

/// A buffered frame reader: one per connection.
///
/// [`FrameReader::fill`] does one `read` into the buffer and
/// [`FrameReader::next_frame`] hands out each complete frame that read
/// delivered, so a pipelined burst costs one syscall, not three per
/// frame. The buffer starts at `idle_capacity`, grows only to the frame
/// being read (the announced length is checked against the limit
/// first), and returns to `idle_capacity` once drained.
pub struct FrameReader {
    /// Bytes `head..tail` are received and not yet handed out.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
    idle_capacity: usize,
    /// When the partial frame now pending has to be complete
    /// ([`FrameReader::fill_socket`] only).
    deadline: Option<Instant>,
    /// Whether the socket carries a read timeout set by `fill_socket`.
    armed: bool,
}

impl FrameReader {
    /// A reader whose buffer is `idle_capacity` bytes while no frame
    /// larger than that is being read.
    pub fn new(idle_capacity: usize) -> FrameReader {
        let idle_capacity = idle_capacity.max(HEADER_LEN);
        FrameReader {
            buf: vec![0; idle_capacity],
            head: 0,
            tail: 0,
            idle_capacity,
            deadline: None,
            armed: false,
        }
    }

    /// Whether bytes are buffered that [`FrameReader::next_frame`] has
    /// not handed out: once it returned `None`, the front of a frame
    /// whose rest is still to come.
    pub fn has_partial(&self) -> bool {
        self.head < self.tail
    }

    /// Payload length of the first buffered frame, once its header is
    /// complete; `Error::Protocol` if it announces more than `max_len`.
    fn announced(&self, max_len: u32) -> Result<Option<usize>> {
        match self.buf[self.head..self.tail].first_chunk::<HEADER_LEN>() {
            Some(header) => check_len(u32::from_be_bytes(*header), max_len).map(Some),
            None => Ok(None),
        }
    }

    /// `announced`, but only once the whole frame is buffered.
    fn buffered(&self, max_len: u32) -> Result<Option<usize>> {
        let len = self.announced(max_len)?;
        Ok(len.filter(|len| self.tail - self.head >= HEADER_LEN + len))
    }

    /// Hand out the first frame's payload; `buffered` returned its `len`.
    fn take(&mut self, len: usize) -> &[u8] {
        let start = self.head + HEADER_LEN;
        self.head = start + len;
        self.deadline = None;
        &self.buf[start..self.head]
    }

    /// The next complete frame's payload, if one is buffered. `None`
    /// means [`FrameReader::fill`] has to bring more bytes first.
    pub fn next_frame(&mut self, max_len: u32) -> Result<Option<&[u8]>> {
        Ok(self.buffered(max_len)?.map(|len| self.take(len)))
    }

    /// Make room for the next `read`: recycle a drained buffer, move a
    /// partial frame to the front when it would not fit behind what was
    /// consumed, grow to the announced length when it exceeds the buffer.
    fn make_room(&mut self, max_len: u32) -> Result<()> {
        if self.head == self.tail {
            self.head = 0;
            self.tail = 0;
            if self.buf.len() > self.idle_capacity {
                self.buf.truncate(self.idle_capacity);
                self.buf.shrink_to_fit();
            }
            return Ok(());
        }
        let pending = self.tail - self.head;
        // At least one byte beyond what is held, so a caller that fills
        // without draining complete frames first still makes progress.
        let need = (HEADER_LEN + self.announced(max_len)?.unwrap_or(0)).max(pending + 1);
        if self.head + need > self.buf.len() {
            self.buf.copy_within(self.head..self.tail, 0);
            self.head = 0;
            self.tail = pending;
            if need > self.buf.len() {
                self.buf.resize(need, 0);
            }
        }
        Ok(())
    }

    /// One `read` into the room `make_room` left.
    fn read_once(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        let n = r.read(&mut self.buf[self.tail..])?;
        self.tail += n;
        Ok(n)
    }

    /// One `read` into the buffer; `Ok(0)` is end of stream (with
    /// [`FrameReader::has_partial`] telling whether it fell mid-frame).
    /// Timeouts configured on the stream surface as `Error::Storage`.
    pub fn fill(&mut self, r: &mut impl Read, max_len: u32) -> Result<usize> {
        self.make_room(max_len)?;
        loop {
            match self.read_once(r) {
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                done => return Ok(done?),
            }
        }
    }

    /// Block until a whole frame is buffered and return its payload. End
    /// of stream is an error here: the caller is waiting for an answer.
    pub fn read_frame(&mut self, r: &mut impl Read, max_len: u32) -> Result<&[u8]> {
        let len = loop {
            if let Some(len) = self.buffered(max_len)? {
                break len;
            }
            if self.fill(r, max_len)? == 0 {
                return Err(std::io::Error::from(ErrorKind::UnexpectedEof).into());
            }
        };
        Ok(self.take(len))
    }

    /// [`FrameReader::fill`] for a server socket, with the slowloris
    /// rule: a gap *between* frames may last forever (idle connections
    /// are the reaper's business), but once part of a frame has arrived
    /// the whole frame has `mid_frame_timeout` to follow. The socket's
    /// read timeout is touched only while a partial frame is pending, so
    /// a peer that sends whole frames costs no `setsockopt` at all.
    pub fn fill_socket(
        &mut self,
        stream: &TcpStream,
        max_len: u32,
        mid_frame_timeout: Duration,
    ) -> Result<usize> {
        self.make_room(max_len)?;
        loop {
            if self.has_partial() {
                let now = Instant::now();
                let deadline = *self.deadline.get_or_insert(now + mid_frame_timeout);
                let remaining = deadline.saturating_duration_since(now);
                if remaining.is_zero() {
                    return Err(Error::Storage(format!(
                        "read stalled mid-frame for {mid_frame_timeout:?}"
                    )));
                }
                let _ = stream.set_read_timeout(Some(remaining));
                self.armed = true;
            } else if self.armed {
                let _ = stream.set_read_timeout(None);
                self.armed = false;
            }
            match self.read_once(&mut &*stream) {
                // Mid-frame the deadline check above decides; between
                // frames a stray timeout just means keep waiting.
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                done => return Ok(done?),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_payload() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", MAX_FRAME_LEN).unwrap();
        assert_eq!(buf.len(), HEADER_LEN + 5);
        let got = read_frame(&mut &buf[..], MAX_FRAME_LEN).unwrap();
        assert_eq!(got, b"hello");
    }

    #[test]
    fn empty_payload_is_legal() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"", MAX_FRAME_LEN).unwrap();
        let got = read_frame(&mut &buf[..], MAX_FRAME_LEN).unwrap();
        assert!(got.is_empty());
        let mut frames = FrameReader::new(64);
        assert!(frames.read_frame(&mut &buf[..], MAX_FRAME_LEN).unwrap().is_empty());
    }

    #[test]
    fn oversized_incoming_frame_is_a_protocol_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        buf.extend_from_slice(&[0; 16]);
        let err = read_frame(&mut &buf[..], MAX_FRAME_LEN).unwrap_err();
        assert_eq!(err.kind(), "protocol");
    }

    #[test]
    fn oversized_outgoing_frame_is_rejected_before_writing() {
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, &[0u8; 32], 16).unwrap_err();
        assert_eq!(err.kind(), "protocol");
        assert!(buf.is_empty(), "nothing written for a rejected frame");
    }

    #[test]
    fn a_frame_appended_in_place_is_the_written_frame_and_an_oversized_one_is_cut_back() {
        let mut written = b"earlier".to_vec();
        write_frame(&mut written, b"payload", 16).unwrap();
        let mut buf = b"earlier".to_vec();
        append_frame(&mut buf, 16, |out| out.extend_from_slice(b"payload")).unwrap();
        assert_eq!(buf, written);
        assert_eq!(append_frame(&mut buf, 16, |out| out.extend_from_slice(&[7; 17])), Err(17));
        assert_eq!(buf, written, "a refused frame leaves nothing behind");
        append_frame(&mut buf, 16, |_| {}).unwrap();
        assert_eq!(&buf[written.len()..], &[0; HEADER_LEN]);
    }

    #[test]
    fn truncated_stream_is_an_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef", MAX_FRAME_LEN).unwrap();
        buf.truncate(buf.len() - 2);
        let err = read_frame(&mut &buf[..], MAX_FRAME_LEN).unwrap_err();
        assert_eq!(err.kind(), "storage");
        let mut frames = FrameReader::new(64);
        let err = frames.read_frame(&mut &buf[..], MAX_FRAME_LEN).unwrap_err();
        assert_eq!(err.kind(), "storage");
        assert!(frames.has_partial(), "the stream ended mid-frame");
    }

    /// A writer that takes one byte per call and ignores vectored
    /// slices beyond the first, like the default `write_vectored`.
    struct OneByte(Vec<u8>);

    impl Write for OneByte {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.extend_from_slice(&buf[..buf.len().min(1)]);
            Ok(buf.len().min(1))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_keep_the_byte_layout() {
        let mut whole = Vec::new();
        write_frame(&mut whole, b"short writes", MAX_FRAME_LEN).unwrap();
        let mut dribbled = OneByte(Vec::new());
        write_frame(&mut dribbled, b"short writes", MAX_FRAME_LEN).unwrap();
        assert_eq!(dribbled.0, whole);
        assert_eq!(&whole[..HEADER_LEN], &12u32.to_be_bytes());
    }

    #[test]
    fn an_oversize_announcement_is_refused_before_the_buffer_grows() {
        let mut frames = FrameReader::new(64);
        let mut bytes = (MAX_FRAME_LEN + 1).to_be_bytes().to_vec();
        bytes.extend_from_slice(&[7; 8]);
        let mut r = &bytes[..];
        assert_eq!(frames.fill(&mut r, MAX_FRAME_LEN).unwrap(), 12);
        assert_eq!(frames.next_frame(MAX_FRAME_LEN).unwrap_err().kind(), "protocol");
        assert_eq!(frames.fill(&mut r, MAX_FRAME_LEN).unwrap_err().kind(), "protocol");
        assert_eq!(frames.buf.len(), 64);
    }

    #[test]
    fn the_buffer_grows_to_a_large_frame_and_is_released_once_drained() {
        const IDLE: usize = 1024;
        let big = vec![0xabu8; 1024 * 1024];
        let mut wire = Vec::new();
        write_frame(&mut wire, &big, MAX_FRAME_LEN).unwrap();
        write_frame(&mut wire, b"after", MAX_FRAME_LEN).unwrap();
        let mut r = &wire[..];
        let mut frames = FrameReader::new(IDLE);
        assert_eq!(frames.buf.len(), IDLE);
        assert_eq!(frames.read_frame(&mut r, MAX_FRAME_LEN).unwrap(), &big[..]);
        assert_eq!(frames.buf.len(), HEADER_LEN + big.len(), "grown to the frame, no further");
        // The small frame that follows is read into the idle-sized buffer.
        assert_eq!(frames.read_frame(&mut r, MAX_FRAME_LEN).unwrap(), b"after");
        assert_eq!(frames.buf.len(), IDLE);
        assert_eq!(frames.fill(&mut r, MAX_FRAME_LEN).unwrap(), 0);
        assert!(!frames.has_partial());

        let mut replies = Vec::new();
        write_frame(&mut replies, &big, MAX_FRAME_LEN).unwrap();
        release(&mut replies, IDLE);
        assert!(replies.is_empty() && replies.capacity() <= IDLE);
    }
}
