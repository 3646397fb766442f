//! A tiny synchronous client for the wp-serve protocol.
//!
//! One connection, one request (or streaming sweep) at a time — enough for
//! the `serve_client` CLI, the CI byte-identity check, and the soak
//! harness.
//!
//! The client verifies that every response echoes the id of the request it
//! answers. When a request times out, its id is remembered: the daemon's
//! late response is still in flight, and a naive reader would hand those
//! stale bytes to the *next* request. Stale frames are drained silently;
//! a frame that matches neither the current request nor a timed-out one
//! surfaces a typed mismatch error instead of corrupting the stream.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use serde::Value;

use crate::protocol::{write_frame, FrameReader};
use crate::server::Listen;

/// How many timed-out request ids the stale-frame filter remembers.
const MAX_OUTSTANDING: usize = 32;

/// A connected client. Dropping it closes the connection.
pub struct Client {
    stream: Stream,
    /// Persistent decode state: a timeout mid-frame keeps the bytes read
    /// so far and the next read resumes the frame.
    frames: FrameReader,
    /// Ids of requests that timed out with their response still owed.
    outstanding: Vec<u64>,
}

enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

/// Extracts the `id` field from a request or response payload, if the
/// payload parses as JSON and carries one.
fn payload_id(text: &str) -> Option<u64> {
    serde_json::from_str(text)
        .ok()?
        .get("id")
        .and_then(Value::as_u64)
}

impl Client {
    /// Dials `spec` using the same rule as the daemon's `--listen`:
    /// anything containing `/` is a Unix socket path, else a TCP address.
    pub fn connect(spec: &str) -> io::Result<Client> {
        let stream = match Listen::parse(spec) {
            Listen::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                // Requests go out at once rather than waiting on Nagle's
                // algorithm for the daemon's delayed ACK.
                stream.set_nodelay(true)?;
                Stream::Tcp(stream)
            }
            #[cfg(unix)]
            Listen::Unix(path) => Stream::Unix(std::os::unix::net::UnixStream::connect(path)?),
            #[cfg(not(unix))]
            Listen::Unix(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix sockets are not supported on this platform",
                ))
            }
        };
        Ok(Client {
            stream,
            frames: FrameReader::new(),
            outstanding: Vec::new(),
        })
    }

    /// Bounds how long [`Client::request`] blocks on the response.
    pub fn set_timeout(&self, timeout: Duration) -> io::Result<()> {
        match &self.stream {
            Stream::Tcp(stream) => stream.set_read_timeout(Some(timeout)),
            #[cfg(unix)]
            Stream::Unix(stream) => stream.set_read_timeout(Some(timeout)),
        }
    }

    /// Reads one response payload as UTF-8 text.
    fn read_text(&mut self) -> io::Result<String> {
        let response = self.frames.read(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "the daemon closed the connection without responding",
            )
        })?;
        String::from_utf8(response)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response payload"))
    }

    /// Remembers that `id`'s response never arrived, so it can be drained
    /// instead of answering a later request.
    fn note_outstanding(&mut self, id: Option<u64>) {
        if let Some(id) = id {
            self.outstanding.push(id);
            if self.outstanding.len() > MAX_OUTSTANDING {
                self.outstanding.remove(0);
            }
        }
    }

    /// Sends one request payload and returns the response payload,
    /// verifying the echoed id. Stale responses owed to earlier timed-out
    /// requests are drained; any other id mismatch is an
    /// [`io::ErrorKind::InvalidData`] error.
    pub fn request(&mut self, payload: &str) -> io::Result<String> {
        write_frame(&mut self.stream, payload.as_bytes())?;
        let want = payload_id(payload);
        loop {
            let text = match self.read_text() {
                Ok(text) => text,
                Err(e) => {
                    if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut
                    {
                        self.note_outstanding(want);
                    }
                    return Err(e);
                }
            };
            let Some(want) = want else {
                // The request carried no parseable id (deliberately
                // malformed probes): the next frame is the answer.
                return Ok(text);
            };
            // The daemon answers with id 0 when a frame was too mangled to
            // echo an id; that still terminates this request.
            let got = payload_id(&text);
            match got {
                Some(got) if got == want || got == 0 => return Ok(text),
                Some(got) if self.outstanding.contains(&got) => {
                    // A late response from a request that timed out: drop
                    // it and keep draining until this request's answer.
                    // Sweeps owe many frames under one id, so the id stays
                    // in the filter until a fresh response supersedes it.
                    continue;
                }
                Some(got) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("response id {got} does not match request id {want}"),
                    ))
                }
                None => return Ok(text),
            }
        }
    }

    /// Sends a v2 `sweep` request and streams the response: `on_frame` is
    /// called with each `stream:"point"` payload in arrival order, and the
    /// terminal frame (summary or error) is returned. Stale frames from
    /// earlier timed-out requests are drained exactly as in
    /// [`Client::request`].
    pub fn sweep(&mut self, payload: &str, mut on_frame: impl FnMut(&str)) -> io::Result<String> {
        write_frame(&mut self.stream, payload.as_bytes())?;
        let want = payload_id(payload);
        loop {
            let text = match self.read_text() {
                Ok(text) => text,
                Err(e) => {
                    if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut
                    {
                        self.note_outstanding(want);
                    }
                    return Err(e);
                }
            };
            let value = match serde_json::from_str(&text) {
                Ok(value) => value,
                Err(_) => return Ok(text),
            };
            if let (Some(want), Some(got)) = (want, value.get("id").and_then(Value::as_u64)) {
                if got != want && got != 0 {
                    if self.outstanding.contains(&got) {
                        continue;
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("response id {got} does not match request id {want}"),
                    ));
                }
            }
            if value.get("stream").and_then(Value::as_str) == Some("point") {
                on_frame(&text);
                continue;
            }
            return Ok(text);
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(stream) => stream.read(buf),
            #[cfg(unix)]
            Stream::Unix(stream) => stream.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(stream) => stream.write(buf),
            #[cfg(unix)]
            Stream::Unix(stream) => stream.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(stream) => stream.flush(),
            #[cfg(unix)]
            Stream::Unix(stream) => stream.flush(),
        }
    }
}
